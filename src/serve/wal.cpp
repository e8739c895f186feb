#include "serve/wal.h"

#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "obs/obs.h"

namespace cdbp::serve {

namespace {

constexpr char kWalMagicV1[8] = {'C', 'D', 'B', 'P', 'W', 'A', 'L', '1'};
constexpr char kWalMagicV2[8] = {'C', 'D', 'B', 'P', 'W', 'A', 'L', '2'};
// v2 segment header: magic + u64 base_seq + u32 crc32(base_seq bytes).
constexpr std::size_t kSegmentHeaderBytes = 8 + 8 + 4;
constexpr std::uint8_t kRecordOffer = 1;
constexpr std::uint8_t kRecordOfferTenant = 2;
// Fixed offer-record payload: type + seq + stream_index + 3 doubles + bin.
// A tenant offer (type 2) appends `u64 tenant_len | tenant bytes` to it.
constexpr std::size_t kOfferPayload = 1 + 8 + 8 + 8 + 8 + 8 + 8;
static_assert(kSegmentHeaderBytes <= kWalReadBufferBytes);

// Namespace-scope references: no initialization-guard load per append.
obs::Counter& g_appends =
    obs::MetricsRegistry::global().counter("wal.appends");
obs::Counter& g_fsyncs = obs::MetricsRegistry::global().counter("wal.fsyncs");
obs::Counter& g_unknown_frames =
    obs::MetricsRegistry::global().counter("wal.unknown_frames");
obs::Histogram& g_fsync_us =
    obs::MetricsRegistry::global().histogram("wal.fsync_us");

std::uint32_t read_u32_le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64_le(const unsigned char* p) {
  return std::uint64_t{read_u32_le(p)} |
         (std::uint64_t{read_u32_le(p + 4)} << 32);
}

/// A file's unread bytes through one fixed kWalReadBufferBytes window.
/// fill(n) slides the unread tail to the front and reads until n bytes are
/// available or the file ends, so a frame that straddles two reads is
/// still validated from contiguous memory.
class FrameBuffer {
 public:
  FrameBuffer(io::File& file, const std::string& path)
      : file_(file), path_(path), buf_(new unsigned char[kWalReadBufferBytes]) {}

  /// True once `n` (<= kWalReadBufferBytes) unread bytes are available;
  /// false if the file ends first. Read errors throw.
  bool fill(std::size_t n) {
    while (end_ - pos_ < n) {
      if (eof_) return false;
      if (pos_ == end_) {
        pos_ = end_ = 0;
      } else if (kWalReadBufferBytes - pos_ < n) {
        std::memmove(buf_.get(), buf_.get() + pos_, end_ - pos_);
        end_ -= pos_;
        pos_ = 0;
      }
      const std::size_t got = io::read_some(
          file_, buf_.get() + end_, kWalReadBufferBytes - end_, path_);
      if (got == 0) eof_ = true;
      end_ += got;
    }
    return true;
  }

  [[nodiscard]] const unsigned char* data() const noexcept {
    return buf_.get() + pos_;
  }
  [[nodiscard]] std::size_t available() const noexcept { return end_ - pos_; }
  void consume(std::size_t n) noexcept { pos_ += n; }

 private:
  io::File& file_;
  const std::string& path_;
  // Left uninitialized, so pages a short file never reaches stay untouched.
  std::unique_ptr<unsigned char[]> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

// io::sync_file (EINTR-retrying) wrapped with the fsync metrics.
void fsync_file(io::File& f, const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  io::sync_file(f, path);
  const auto dt = std::chrono::steady_clock::now() - t0;
  g_fsyncs.add();
  g_fsync_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(dt).count()));
}

}  // namespace

std::string to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kEvery:
      return "every";
  }
  return "?";
}

FsyncPolicy parse_fsync_policy(const std::string& s) {
  if (s == "none") return FsyncPolicy::kNone;
  if (s == "batch") return FsyncPolicy::kBatch;
  if (s == "every") return FsyncPolicy::kEvery;
  throw std::invalid_argument("fsync policy must be none|batch|every, got '" +
                              s + "'");
}

void fsync_parent_dir(const std::string& path, io::Env* env) {
  io::sync_parent_dir(io::env_or_posix(env), path);
}

WalWriter::WalWriter(std::string path, FsyncPolicy policy,
                     std::size_t fsync_batch, bool truncate, WalFormat format,
                     std::uint64_t base_seq, io::Env* env)
    : path_(std::move(path)),
      policy_(policy),
      fsync_batch_(fsync_batch),
      env_(&io::env_or_posix(env)) {
  if (policy_ == FsyncPolicy::kBatch && fsync_batch_ == 0)
    throw std::invalid_argument("wal: fsync_batch must be >= 1");
  file_ = io::open_file(*env_, path_,
                        truncate ? io::OpenMode::kTruncate
                                 : io::OpenMode::kAppend);
  int err = 0;
  const std::int64_t size = file_->size(err);
  if (size < 0)
    throw std::runtime_error("wal: stat failed for '" + path_ + "'");
  bytes_ = static_cast<std::uint64_t>(size);
  if (size == 0) {
    if (format == WalFormat::kLegacy) {
      io::write_all(*file_, kWalMagicV1, sizeof(kWalMagicV1), path_);
      bytes_ = sizeof(kWalMagicV1);
    } else {
      StateWriter seq_bytes;
      seq_bytes.u64(base_seq);
      StateWriter header;
      header.u64(base_seq);
      header.u32(crc32(seq_bytes.buffer().data(), seq_bytes.size()));
      io::write_all(*file_, kWalMagicV2, sizeof(kWalMagicV2), path_);
      io::write_all(*file_, header.buffer().data(), header.size(), path_);
      bytes_ = kSegmentHeaderBytes;
    }
    // An empty-but-created log must itself survive power loss under the
    // durable policies, or recovery after a crash-before-first-append
    // would see "missing file" where the writer saw "created".
    if (policy_ != FsyncPolicy::kNone) {
      fsync_file(*file_, path_);
      io::sync_parent_dir(*env_, path_);
    }
  }
  synced_bytes_ = bytes_;
}

WalWriter::~WalWriter() {
  try {
    close();
  } catch (...) {
    // Destructor path: the process is going away; close() throwing on a
    // final fsync would terminate it. Callers that need the durability
    // guarantee call close() explicitly.
  }
}

void WalWriter::write_frame(const WalRecord& rec) {
  if (!file_) throw std::logic_error("wal: append after close");
  StateWriter payload;
  payload.u8(rec.tenant.empty() ? kRecordOffer : kRecordOfferTenant);
  payload.u64(rec.seq);
  payload.u64(rec.stream_index);
  payload.f64(rec.arrival);
  payload.f64(rec.departure);
  payload.f64(rec.size);
  payload.i64(rec.bin);
  if (!rec.tenant.empty()) payload.str(rec.tenant);

  StateWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload.buffer().data(), payload.size()));
  for (const char c : payload.buffer()) frame.u8(static_cast<std::uint8_t>(c));

  // On a hard write failure (e.g. ENOSPC after a short write) this throws
  // with part of the frame on disk — a torn tail that recovery truncates.
  io::write_all(*file_, frame.buffer().data(), frame.size(), path_);
  bytes_ += frame.size();
  ++appended_;
  ++unsynced_;
  g_appends.add();
}

void WalWriter::append(const WalRecord& rec) {
  write_frame(rec);
  if (policy_ == FsyncPolicy::kEvery ||
      (policy_ == FsyncPolicy::kBatch && unsynced_ >= fsync_batch_))
    sync();
}

void WalWriter::append_nosync(const WalRecord& rec) {
  write_frame(rec);
  if (policy_ == FsyncPolicy::kBatch && unsynced_ >= fsync_batch_) sync();
}

void WalWriter::sync() {
  if (!file_) return;
  fsync_file(*file_, path_);
  synced_bytes_ = bytes_;
  unsynced_ = 0;
}

void WalWriter::close() {
  if (!file_) return;
  if (policy_ != FsyncPolicy::kNone && unsynced_ > 0) sync();
  int err = 0;
  const int rc = file_->close(err);
  file_.reset();
  if (rc != 0)
    throw std::runtime_error("wal: close failed for '" + path_ +
                             "': " + std::strerror(err));
}

WalFileScan stream_wal(const std::string& path, const WalRecordVisitor& visit,
                       io::Env* env) {
  WalFileScan out;
  const std::unique_ptr<io::File> file =
      io::open_existing(io::env_or_posix(env), path);
  if (!file) return out;  // missing file: empty log, not an error
  out.exists = true;
  const auto tear = [&out](const char* why) {
    out.torn = true;
    out.tail_error = why;
  };

  FrameBuffer in(*file, path);
  in.fill(kSegmentHeaderBytes);  // a shorter file is judged on what it has
  std::uint64_t pos = 0;
  if (in.available() >= sizeof(kWalMagicV1) &&
      std::memcmp(in.data(), kWalMagicV1, sizeof(kWalMagicV1)) == 0) {
    pos = sizeof(kWalMagicV1);
  } else if (in.available() >= kSegmentHeaderBytes &&
             std::memcmp(in.data(), kWalMagicV2, sizeof(kWalMagicV2)) == 0) {
    StateReader r(std::string_view(
        reinterpret_cast<const char*>(in.data()) + sizeof(kWalMagicV2), 12));
    const std::uint64_t base_seq = r.u64();
    const std::uint32_t crc = r.u32();
    StateWriter seq_bytes;
    seq_bytes.u64(base_seq);
    if (crc32(seq_bytes.buffer().data(), seq_bytes.size()) != crc) {
      tear("corrupt segment header");
      return out;
    }
    out.base_seq = base_seq;
    pos = kSegmentHeaderBytes;
  } else {
    tear("missing or corrupt WAL header");
    return out;
  }
  in.consume(pos);
  out.valid_bytes = pos;

  std::array<std::uint64_t, 256> type_counts{};
  WalRecord rec;  // decoded in place: no allocation per frame
  for (;;) {
    if (!in.fill(8)) {
      if (in.available() > 0) tear("partial frame header");
      break;
    }
    const std::uint32_t len = read_u32_le(in.data());
    const std::uint32_t crc = read_u32_le(in.data() + 4);
    if (len == 0 || len > kMaxFramePayload) {
      tear("bad frame length");
      break;
    }
    if (!in.fill(8 + std::size_t{len})) {
      tear("partial frame payload");
      break;
    }
    const char* payload = reinterpret_cast<const char*>(in.data() + 8);
    if (crc32(payload, len) != crc) {
      tear("frame CRC mismatch");
      break;
    }
    const auto type = static_cast<std::uint8_t>(payload[0]);
    if (type == kRecordOffer || type == kRecordOfferTenant) {
      // Type 1 is exactly the fixed body; type 2 appends a length-prefixed
      // tenant that must consume the remainder of the payload exactly.
      const bool tenanted = type == kRecordOfferTenant;
      if (tenanted ? len < kOfferPayload + 8 : len != kOfferPayload) {
        tear("bad offer frame length");
        break;
      }
      // Body, past the envelope and type byte: u64 seq | u64 stream_index
      // | f64 x3 | i64 bin [| u64 tenant_len | tenant], little-endian.
      const unsigned char* body = in.data() + 8 + 1;
      const std::uint64_t tenant_len = tenanted ? read_u64_le(body + 48) : 0;
      if (tenanted &&
          (tenant_len == 0 || tenant_len != len - kOfferPayload - 8)) {
        tear("bad offer frame length");
        break;
      }
      if (out.record_count++ == 0) out.first_record_seq = read_u64_le(body);
      if (visit) {  // a counting pass skips the decode
        rec.seq = read_u64_le(body);
        rec.stream_index = read_u64_le(body + 8);
        rec.arrival = std::bit_cast<double>(read_u64_le(body + 16));
        rec.departure = std::bit_cast<double>(read_u64_le(body + 24));
        rec.size = std::bit_cast<double>(read_u64_le(body + 32));
        rec.bin = static_cast<BinId>(read_u64_le(body + 40));
        if (tenanted)
          rec.tenant.assign(payload + kOfferPayload + 8, tenant_len);
        else
          rec.tenant.clear();
        visit(rec);
      }
    } else {
      // Envelope-valid frame of a type this reader does not know: a newer
      // writer's record kind. Skip it — the CRC already proved it is not
      // torn-tail garbage.
      ++out.unknown_records;
      g_unknown_frames.add();
    }
    // Counted only once the frame is fully accepted (an offer frame with a
    // bad length is torn tail, not a frame of that type).
    ++type_counts[type];
    in.consume(8 + std::size_t{len});
    pos += 8 + std::uint64_t{len};
    out.valid_bytes = pos;
  }
  for (unsigned type = 0; type < type_counts.size(); ++type)
    if (type_counts[type] > 0) out.frame_type_counts[type] = type_counts[type];
  return out;
}

WalReadResult read_wal(const std::string& path, io::Env* env) {
  WalReadResult out;
  static_cast<WalFileScan&>(out) = stream_wal(
      path, [&out](const WalRecord& rec) { out.records.push_back(rec); },
      env);
  return out;
}

void truncate_wal(const std::string& path, std::uint64_t size, io::Env* env) {
  io::Env& e = io::env_or_posix(env);
  std::unique_ptr<io::File> f = io::open_file(e, path, io::OpenMode::kWrite);
  io::truncate_file(*f, size, path);
  // The new length is inode metadata: fsync the file so the repair itself
  // survives power loss, then the parent so a fresh directory entry does.
  io::sync_file(*f, path);
  int err = 0;
  if (f->close(err) != 0)
    throw std::runtime_error("wal: close failed for '" + path +
                             "': " + std::strerror(err));
  io::sync_parent_dir(e, path);
}

}  // namespace cdbp::serve
