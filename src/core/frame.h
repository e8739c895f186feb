// Frame codec: the one byte framing under every durable or wire format —
// WAL segments (serve/wal.h), .cdbpi files (workloads/instance_file.h),
// CDBPNET1 (net/protocol.h), checkpoints and WAL manifests.
//
//   frame       := u32 payload_len | u32 crc32(payload) | payload
//   sealed file := magic[8] | u64 payload_len | u32 crc32(payload) | payload
//
// All integers are little-endian. A frame's payload is never empty and
// each format caps its length. A frame stream has no resync marker, so
// after its first bad frame the decoder stays bad: for a file, the rest is
// torn tail; for a connection, the peer is dropped. A sealed file holds
// one whole-file payload and is replaced atomically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/io_env.h"

namespace cdbp {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
/// `seed` chains incremental computations.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

inline constexpr std::size_t kFrameHeaderBytes = 8;  ///< len + crc
/// A file reader's read size: it holds at most one frame plus one block.
inline constexpr std::size_t kReadBlockBytes = std::size_t{1} << 16;

/// The little-endian u32 at `p`.
[[nodiscard]] inline std::uint32_t load_u32_le(const void* p) noexcept {
  const auto* b = static_cast<const unsigned char*>(p);
  return std::uint32_t{b[0]} | std::uint32_t{b[1]} << 8 |
         std::uint32_t{b[2]} << 16 | std::uint32_t{b[3]} << 24;
}

/// Appends `u32 len | u32 crc32(payload) | payload` to `out`.
void append_frame(std::string& out, std::string_view payload);

/// The same frame for a payload encoded straight into `out`: begin_frame
/// reserves the envelope at the end of `out` and returns its offset, and
/// seal_frame fills it in for everything appended after it.
[[nodiscard]] std::size_t begin_frame(std::string& out);
void seal_frame(std::string& out, std::size_t frame);

enum class FrameStatus {
  kNeedMore,  ///< no complete frame buffered
  kFrame,     ///< one frame decoded
  kBad,       ///< the stream is corrupt from here on
};

/// Why a frame was bad.
enum class FrameError {
  kNone,
  kEmpty,     ///< payload_len == 0
  kTooLarge,  ///< payload_len above the decoder's cap
  kBadCrc,    ///< the payload does not match its CRC
};

/// Incremental frame decoder: feed bytes as they arrive, pull complete
/// frames with next(). Never throws on malformed input: the first bad
/// frame sets error_code()/error() and poisons the decoder for good.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_payload);

  /// Appends raw bytes to the buffer.
  void feed(const char* data, std::size_t n);

  /// Decodes the next frame. On kFrame, `payload` views the payload inside
  /// the decoder's buffer; the view stays valid until the next call on
  /// this decoder. Inline: it runs once per frame on every read path.
  FrameStatus next(std::string_view& payload) {
    const std::size_t avail = pending_bytes();  // 0 once poisoned
    if (avail < kFrameHeaderBytes)
      return code_ == FrameError::kNone ? FrameStatus::kNeedMore
                                        : FrameStatus::kBad;
    const char* head = buf_.get() + pos_;
    const std::uint32_t len = load_u32_le(head);
    if (len == 0 || len > max_payload_) return reject_length(len);
    if (avail - kFrameHeaderBytes < len) return FrameStatus::kNeedMore;
    const char* body = head + kFrameHeaderBytes;
    if (crc32(body, len) != load_u32_le(head + 4))
      return poison(FrameError::kBadCrc, "frame CRC mismatch");
    payload = std::string_view(body, len);
    pos_ += kFrameHeaderBytes + len;
    return FrameStatus::kFrame;
  }

  /// next(), feeding the decoder from `file` (io::read_some straight into
  /// the buffer, a block at a time) while it needs more. kNeedMore then
  /// means the file ended: cleanly at a frame boundary when
  /// pending_bytes() == 0, inside a frame otherwise. Read errors throw.
  FrameStatus next(io::File& file, const std::string& path,
                   std::string_view& payload) {
    for (;;) {
      const FrameStatus st = next(payload);
      if (st != FrameStatus::kNeedMore || feed_from(file, path) == 0) return st;
    }
  }

  [[nodiscard]] FrameError error_code() const noexcept { return code_; }
  /// Diagnostic for the bad frame ("" while the stream is good).
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// Bytes buffered but not yet decoded (a partial trailing frame).
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return end_ - pos_;
  }

 private:
  /// Drops the decoded prefix and makes room for `n` more bytes.
  char* reserve(std::size_t n);
  /// One read from `file` into the buffer; 0 at end of file.
  std::size_t feed_from(io::File& file, const std::string& path);
  /// Records the error and drops every buffered byte.
  FrameStatus poison(FrameError code, std::string why);
  FrameStatus reject_length(std::uint32_t len);  ///< kEmpty or kTooLarge

  std::uint32_t max_payload_;
  std::unique_ptr<char[]> buf_;  ///< uninitialized: untouched until read
  std::size_t cap_ = 0;
  std::size_t pos_ = 0;  ///< start of the undecoded bytes
  std::size_t end_ = 0;  ///< end of the buffered bytes
  FrameError code_ = FrameError::kNone;
  std::string error_;
};

/// Durably replaces `path` with the sealed file of `magic` (8 bytes) and
/// `payload`: `path.tmp` written and fsynced, renamed over `path`, parent
/// directory fsynced, all through `env` — a crash at any step leaves the
/// previous file (or none) intact. Throws std::runtime_error on failure.
void write_sealed_file(io::Env& env, const std::string& path,
                       std::string_view magic, std::string_view payload);

/// Reads and verifies a sealed file of `magic` into `payload`. Returns
/// false only when the file does not exist (ENOENT); every other failure
/// throws std::runtime_error — an I/O error, a wrong magic (another
/// version of the format is named, see refuse_other_version), a length
/// that disagrees with the file size, a CRC mismatch — because treating
/// "unreadable" as "absent" would silently drop the file's contents.
bool read_sealed_file(io::Env& env, const std::string& path,
                      std::string_view magic, std::string& payload);

/// The next 8 bytes of `file` — a format's magic, at the file's start —
/// looping over short reads; fewer only when the file ends first. Read
/// errors throw.
[[nodiscard]] std::string read_magic(io::File& file, const std::string& path);

/// Throws std::runtime_error naming both formats when `head` (a file's
/// first 8 bytes) is another version of `magic`'s format: the same first 7
/// bytes, a different last one. Returns normally otherwise.
void refuse_other_version(std::string_view head, std::string_view magic,
                          const std::string& path);

}  // namespace cdbp
