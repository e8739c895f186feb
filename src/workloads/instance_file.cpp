#include "workloads/instance_file.h"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/frame.h"
#include "core/time_types.h"

namespace cdbp::workloads {

namespace {

// Frame geometry (see the header-file layout comment).
constexpr std::size_t kHeaderPayloadBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kChunkPayloadOverhead = 8 + 4;  // first_id + count
constexpr std::size_t kBytesPerItem = 3 * 8;
// Upper bound on any frame the reader will buffer: guards against a
// corrupted/hostile length field committing us to a multi-GB allocation
// before the CRC check can reject the frame.
constexpr std::size_t kMaxChunkItems = std::size_t{1} << 24;
constexpr std::size_t kMaxFramePayload =
    kChunkPayloadOverhead + kMaxChunkItems * kBytesPerItem;

/// The little-endian f64 at `p`.
double load_f64_le(const char* p) noexcept {
  return std::bit_cast<double>(std::uint64_t{load_u32_le(p)} |
                               std::uint64_t{load_u32_le(p + 4)} << 32);
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("cdbpi: " + what + " (" + path + ")");
}

void check_item(Time arrival, Time departure, Load size) {
  if (!std::isfinite(arrival) || !std::isfinite(departure))
    throw std::invalid_argument("cdbpi: non-finite time");
  if (!(departure > arrival))
    throw std::invalid_argument("cdbpi: departure <= arrival");
  if (!(size > 0.0) || size > kBinCapacity + kLoadEps)
    throw std::invalid_argument("cdbpi: item size outside (0, 1]");
}

void write_frame(std::ofstream& out, const StateWriter& payload) {
  std::string frame;
  append_frame(frame, payload.buffer());
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
}

StateWriter header_payload(std::uint64_t item_count,
                           std::uint64_t chunk_items) {
  StateWriter w;
  w.u32(kInstanceFileVersion);
  w.u32(0);  // reserved
  w.u64(item_count);
  w.u64(chunk_items);
  return w;
}

}  // namespace

// --- Writer ----------------------------------------------------------------

InstanceFileWriter::InstanceFileWriter(const std::string& path,
                                       std::size_t chunk_items)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      chunk_items_(chunk_items),
      last_arrival_(-kInfTime) {
  if (chunk_items_ == 0 || chunk_items_ > kMaxChunkItems)
    throw std::invalid_argument("cdbpi: invalid chunk_items");
  if (!out_) fail(path_, "cannot open for writing");
  out_.write(kInstanceFileMagic, sizeof(kInstanceFileMagic));
  // Placeholder header (count 0) of the same fixed size as the final one,
  // so close() can patch it in place once the count is known.
  write_frame(out_, header_payload(0, chunk_items_));
  pending_.reserve(chunk_items_);
}

InstanceFileWriter::~InstanceFileWriter() {
  if (closed_) return;
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an explicit close() reports failures.
  }
}

void InstanceFileWriter::add(Time arrival, Time departure, Load size) {
  if (closed_) throw std::logic_error("cdbpi: add after close");
  check_item(arrival, departure, size);
  if (arrival < last_arrival_)
    throw std::invalid_argument("cdbpi: arrivals must be non-decreasing");
  last_arrival_ = arrival;
  pending_.push_back(
      Item{static_cast<ItemId>(count_), arrival, departure, size});
  ++count_;
  if (pending_.size() == chunk_items_) flush_chunk();
}

void InstanceFileWriter::flush_chunk() {
  if (pending_.empty()) return;
  StateWriter w;
  w.u64(static_cast<std::uint64_t>(pending_.front().id));
  w.u32(static_cast<std::uint32_t>(pending_.size()));
  for (const Item& r : pending_) {
    w.f64(r.arrival);
    w.f64(r.departure);
    w.f64(r.size);
  }
  write_frame(out_, w);
  pending_.clear();
}

void InstanceFileWriter::close() {
  if (closed_) return;
  flush_chunk();
  out_.seekp(sizeof(kInstanceFileMagic));
  write_frame(out_, header_payload(count_, chunk_items_));
  out_.flush();
  if (!out_) fail(path_, "write failed");
  out_.close();
  closed_ = true;
}

// --- Reader ----------------------------------------------------------------

InstanceFileReader::InstanceFileReader(const std::string& path)
    : path_(path),
      file_(io::open_existing(io::Env::posix(), path)),
      frames_(static_cast<std::uint32_t>(kMaxFramePayload)),
      last_arrival_(-kInfTime) {
  if (!file_) fail(path_, "cannot open");
  if (read_magic(*file_, path_) !=
      std::string_view(kInstanceFileMagic, sizeof(kInstanceFileMagic)))
    fail(path_, "bad magic");
  const std::string_view payload = next_frame("header");
  if (payload.size() != kHeaderPayloadBytes) fail(path_, "bad header size");
  StateReader pr(payload);
  const std::uint32_t version = pr.u32();
  if (version != kInstanceFileVersion) fail(path_, "unsupported version");
  (void)pr.u32();  // reserved
  const std::uint64_t count = pr.u64();
  const std::uint64_t chunk_items = pr.u64();
  if (chunk_items == 0 || chunk_items > kMaxChunkItems)
    fail(path_, "bad chunk size");
  item_count_ = static_cast<std::size_t>(count);
  chunk_items_ = static_cast<std::size_t>(chunk_items);
}

std::string_view InstanceFileReader::next_frame(const char* what) {
  std::string_view payload;
  const FrameStatus st = frames_.next(*file_, path_, payload);
  if (st == FrameStatus::kNeedMore)
    fail(path_, std::string("truncated ") + what);
  if (st == FrameStatus::kBad) fail(path_, what + (": " + frames_.error()));
  return payload;
}

bool InstanceFileReader::next(Item& out) {
  if (chunk_pos_ == chunk_.size()) {
    if (yielded_ == item_count_) {
      // Exactly the declared items were read; anything further is junk.
      std::string_view junk;
      if (frames_.next(*file_, path_, junk) != FrameStatus::kNeedMore ||
          frames_.pending_bytes() > 0)
        fail(path_, "trailing data after last chunk");
      return false;
    }
    load_next_chunk();
  }
  // Items come straight from the verified payload, which the decoder keeps
  // valid until its next call (the next chunk).
  const char* p = chunk_.data() + chunk_pos_;
  out.id = static_cast<ItemId>(yielded_);
  out.arrival = load_f64_le(p);
  out.departure = load_f64_le(p + 8);
  out.size = load_f64_le(p + 16);
  chunk_pos_ += kBytesPerItem;
  ++yielded_;
  return true;
}

void InstanceFileReader::load_next_chunk() {
  const std::string_view payload = next_frame("chunk");
  const std::size_t len = payload.size();
  if (len < kChunkPayloadOverhead + kBytesPerItem)
    fail(path_, "bad chunk size");
  StateReader pr(payload);
  const std::uint64_t first_id = pr.u64();
  const std::uint32_t count = pr.u32();
  if (first_id != yielded_) fail(path_, "chunk id discontinuity");
  if (count == 0 || count > chunk_items_ ||
      len != kChunkPayloadOverhead + std::size_t{count} * kBytesPerItem)
    fail(path_, "bad chunk item count");
  if (yielded_ + count > item_count_) fail(path_, "more items than declared");

  // Check the whole chunk before its first item is yielded.
  const std::string_view items = payload.substr(kChunkPayloadOverhead);
  for (const char* p = items.data(); p != items.data() + items.size();
       p += kBytesPerItem) {
    const Time arrival = load_f64_le(p);
    const Time departure = load_f64_le(p + 8);
    const Load size = load_f64_le(p + 16);
    try {
      check_item(arrival, departure, size);
    } catch (const std::invalid_argument& e) {
      fail(path_, e.what());
    }
    if (arrival < last_arrival_) fail(path_, "arrivals out of order");
    last_arrival_ = arrival;
  }
  chunk_ = items;
  chunk_pos_ = 0;
}

// --- Whole-instance convenience wrappers -----------------------------------

void write_instance_file(const std::string& path, const Instance& instance,
                         std::size_t chunk_items) {
  InstanceFileWriter w(path, chunk_items);
  for (const Item& r : instance.items()) w.add(r.arrival, r.departure, r.size);
  w.close();
}

Instance read_instance_file(const std::string& path) {
  InstanceFileReader reader(path);
  Instance instance;
  Item r;
  while (reader.next(r)) instance.add(r.arrival, r.departure, r.size);
  instance.finalize();
  return instance;
}

}  // namespace cdbp::workloads
