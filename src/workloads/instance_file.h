// .cdbpi — the flat binary on-disk instance format.
//
// CSV is the human-facing interchange format but is hostile to large n:
// a 1e7-item trace costs ~100s of MB of text, parses slowly, and must be
// materialized to be replayed. .cdbpi stores the same (arrival, departure,
// size) triples as fixed-width little-endian IEEE-754 doubles, framed in
// CRC-checked chunks so the simulator can stream a run while holding only
// one chunk in memory.
//
// Layout (all integers little-endian, no alignment padding; frames are
// core/frame.h frames, u32 len | u32 crc32(payload) | payload):
//
//   magic           8 bytes  "CDBPINS1"
//   header frame    payload: u32 version(=1), u32 reserved(=0),
//                            u64 item_count, u64 chunk_items
//   chunk frame*    payload: u64 first_id, u32 count,
//                            count x (f64 arrival, f64 departure, f64 size)
//
// Item ids are implicit and dense: a chunk carries ids first_id ..
// first_id + count - 1, chunks appear in id order, and id order is the
// instance's presentation order (arrivals non-decreasing) — exactly the
// stream Instance::finalize() would produce. The reader verifies magic,
// version, per-frame CRCs, frame sizes, id continuity, arrival
// monotonicity, per-item validity (the Instance::validate() rules), and
// the total item count; any violation — including truncation at any byte —
// throws std::runtime_error rather than yielding a damaged instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/frame.h"
#include "core/instance.h"
#include "core/item_source.h"

namespace cdbp::workloads {

/// File magic, first 8 bytes of every .cdbpi file.
inline constexpr char kInstanceFileMagic[8] = {'C', 'D', 'B', 'P',
                                               'I', 'N', 'S', '1'};
inline constexpr std::uint32_t kInstanceFileVersion = 1;
/// Default items per chunk (~1.5 MiB of payload): big enough to amortize
/// the frame overhead and syscalls, small enough that the reader's resident
/// buffer stays negligible next to any run's own state.
inline constexpr std::size_t kDefaultChunkItems = std::size_t{1} << 16;

/// Incremental writer: emit items in presentation order (non-decreasing
/// arrival, as validated on read) without materializing the instance.
class InstanceFileWriter {
 public:
  /// Opens `path` for writing (truncates). The header is written on
  /// close()/destruction, when the item count is known, via a temporary
  /// placeholder rewrite — callers never pre-declare the count.
  explicit InstanceFileWriter(const std::string& path,
                              std::size_t chunk_items = kDefaultChunkItems);
  ~InstanceFileWriter();
  InstanceFileWriter(const InstanceFileWriter&) = delete;
  InstanceFileWriter& operator=(const InstanceFileWriter&) = delete;

  /// Appends one item (id implicit). Throws std::invalid_argument on a
  /// malformed item or an arrival before the previous one.
  void add(Time arrival, Time departure, Load size);

  /// Flushes the tail chunk, patches the header with the final count, and
  /// closes the file. Idempotent; throws std::runtime_error on I/O failure.
  void close();

  [[nodiscard]] std::size_t items_written() const noexcept { return count_; }

 private:
  void flush_chunk();

  std::ofstream out_;
  std::string path_;
  std::size_t chunk_items_;
  std::vector<Item> pending_;
  std::size_t count_ = 0;
  Time last_arrival_;
  bool closed_ = false;
};

/// Streaming reader: an ItemSource over a .cdbpi file that keeps one chunk
/// resident, once: items are decoded straight from the frame decoder's
/// buffer. Construction reads and verifies the header; next() verifies
/// each whole chunk as it is pulled, before yielding its first item. All
/// format violations throw std::runtime_error with a "cdbpi:"-prefixed
/// message.
class InstanceFileReader final : public ItemSource {
 public:
  explicit InstanceFileReader(const std::string& path);

  bool next(Item& out) override;

  /// Declared item count from the header (exact; verified at end of
  /// stream).
  [[nodiscard]] std::size_t size_hint() const override { return item_count_; }

 private:
  void load_next_chunk();
  /// The next frame's payload (valid until the next call); throws
  /// "truncated <what>" when the file ends first.
  std::string_view next_frame(const char* what);

  std::string path_;
  std::unique_ptr<io::File> file_;
  FrameDecoder frames_;
  std::size_t item_count_ = 0;
  std::size_t chunk_items_ = 0;
  /// The current chunk's verified items, a view into the decoder's buffer,
  /// and the byte offset of the next one to yield.
  std::string_view chunk_;
  std::size_t chunk_pos_ = 0;
  std::size_t yielded_ = 0;
  Time last_arrival_;
};

/// Writes a finalized Instance to `path` in one pass.
void write_instance_file(const std::string& path, const Instance& instance,
                         std::size_t chunk_items = kDefaultChunkItems);

/// Reads a whole .cdbpi file into an Instance (small inputs / tests; for
/// large files stream with InstanceFileReader instead).
[[nodiscard]] Instance read_instance_file(const std::string& path);

}  // namespace cdbp::workloads
