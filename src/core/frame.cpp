#include "core/frame.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace cdbp {

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table;
// kCrcTables[k][b] is the CRC contribution of byte b followed by k zero
// bytes, so eight table lookups advance the CRC over eight input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kSealedHeaderBytes = kMagicBytes + 8 + 4;

void put_le(std::string& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// A file magic as text: printable ASCII kept, anything else as '?'.
std::string printable(std::string_view bytes) {
  std::string s;
  for (const char c : bytes) s += c >= 0x20 && c < 0x7F ? c : '?';
  return s;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = load_u32_le(p) ^ c;
    const std::uint32_t hi = load_u32_le(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void append_frame(std::string& out, std::string_view payload) {
  const std::size_t frame = begin_frame(out);
  out.append(payload);
  seal_frame(out, frame);
}

std::size_t begin_frame(std::string& out) {
  const std::size_t frame = out.size();
  out.append(kFrameHeaderBytes, '\0');
  return frame;
}

void seal_frame(std::string& out, std::size_t frame) {
  const char* payload = out.data() + frame + kFrameHeaderBytes;
  const std::size_t len = out.size() - frame - kFrameHeaderBytes;
  const std::uint64_t envelope = static_cast<std::uint32_t>(len) |
                                 std::uint64_t{crc32(payload, len)} << 32;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
    out[frame + i] = static_cast<char>(envelope >> (8 * i));
}

FrameDecoder::FrameDecoder(std::uint32_t max_payload)
    : max_payload_(max_payload) {}

char* FrameDecoder::reserve(std::size_t n) {
  if (pos_ > 0) {
    std::memmove(buf_.get(), buf_.get() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (cap_ - end_ < n) {
    cap_ = end_ + n;
    std::unique_ptr<char[]> grown(new char[cap_]);
    if (end_ > 0) std::memcpy(grown.get(), buf_.get(), end_);
    buf_ = std::move(grown);
  }
  return buf_.get() + end_;
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  if (code_ != FrameError::kNone || n == 0) return;
  // Geometric growth: a peer trickling bytes costs amortized O(1) copies.
  std::size_t room = n;
  if (cap_ - pending_bytes() < n)
    room = std::max(n, 2 * cap_ - pending_bytes());
  std::memcpy(reserve(room), data, n);
  end_ += n;
}

std::size_t FrameDecoder::feed_from(io::File& file, const std::string& path) {
  // Room for a block, or for the rest of a pending frame larger than one:
  // the buffer never holds more than one frame plus one block.
  const std::size_t pending = pending_bytes();
  std::size_t target = kReadBlockBytes;
  if (pending >= kFrameHeaderBytes) {
    const std::size_t len = load_u32_le(buf_.get() + pos_);
    if (len <= max_payload_)
      target = std::max(target, kFrameHeaderBytes + len);
  }
  char* dst = reserve(target > pending ? target - pending : kReadBlockBytes);
  const std::size_t got = io::read_some(file, dst, cap_ - end_, path);
  end_ += got;
  return got;
}

FrameStatus FrameDecoder::reject_length(std::uint32_t len) {
  if (len == 0) return poison(FrameError::kEmpty, "empty frame payload");
  return poison(FrameError::kTooLarge,
                "frame payload " + std::to_string(len) +
                    " bytes exceeds cap " + std::to_string(max_payload_));
}

FrameStatus FrameDecoder::poison(FrameError code, std::string why) {
  code_ = code;
  error_ = std::move(why);
  pos_ = end_;
  return FrameStatus::kBad;
}

void write_sealed_file(io::Env& env, const std::string& path,
                       std::string_view magic, std::string_view payload) {
  std::string header;
  put_le(header, payload.size(), 8);
  put_le(header, crc32(payload.data(), payload.size()), 4);

  const std::string tmp = path + ".tmp";
  const auto fail = [](const char* what, const std::string& file, int err) {
    throw std::runtime_error(std::string(what) + " failed for '" + file +
                             "': " + std::strerror(err));
  };
  {
    std::unique_ptr<io::File> f =
        io::open_file(env, tmp, io::OpenMode::kTruncate);
    io::write_all(*f, magic.data(), magic.size(), tmp);
    io::write_all(*f, header.data(), header.size(), tmp);
    io::write_all(*f, payload.data(), payload.size(), tmp);
    io::sync_file(*f, tmp);
    int err = 0;
    if (f->close(err) != 0) fail("close", tmp, err);
  }
  // The rename is directory metadata: without the parent-dir fsync a power
  // loss could resurface the old file (or none).
  int err = 0;
  if (env.rename(tmp, path, err) != 0) fail("rename", path, err);
  io::sync_parent_dir(env, path);
}

bool read_sealed_file(io::Env& env, const std::string& path,
                      std::string_view magic, std::string& payload) {
  if (!io::read_file(env, path, payload)) return false;
  const std::string_view head =
      std::string_view(payload).substr(0, kMagicBytes);
  refuse_other_version(head, magic, path);
  const std::string name = printable(magic);
  if (payload.size() < kSealedHeaderBytes || head != magic)
    throw std::runtime_error("'" + path + "' is not a " + name +
                             " file (bad header)");
  std::uint64_t len = load_u32_le(payload.data() + kMagicBytes);
  len |= std::uint64_t{load_u32_le(payload.data() + kMagicBytes + 4)} << 32;
  const std::uint32_t crc = load_u32_le(payload.data() + kMagicBytes + 8);
  if (len != payload.size() - kSealedHeaderBytes)
    throw std::runtime_error("truncated " + name + " file '" + path + "'");
  // Strip the header in place: the file is held once, not twice.
  payload.erase(0, kSealedHeaderBytes);
  if (crc32(payload.data(), payload.size()) != crc)
    throw std::runtime_error("CRC mismatch in " + name + " file '" + path +
                             "'");
  return true;
}

std::string read_magic(io::File& file, const std::string& path) {
  char magic[kMagicBytes] = {};
  std::size_t got = 0;
  while (got < kMagicBytes) {
    const std::size_t n =
        io::read_some(file, magic + got, kMagicBytes - got, path);
    if (n == 0) break;
    got += n;
  }
  return std::string(magic, got);
}

void refuse_other_version(std::string_view head, std::string_view magic,
                          const std::string& path) {
  const std::size_t family = magic.size() - 1;
  if (head.size() < magic.size() ||
      head.substr(0, family) != magic.substr(0, family) ||
      head.substr(0, magic.size()) == magic)
    return;
  throw std::runtime_error("'" + path + "' is in the " +
                           printable(head.substr(0, magic.size())) +
                           " format; this build reads " + printable(magic) +
                           " only");
}

}  // namespace cdbp
