// Checkpoint substrate: a compact binary state codec plus the
// `Checkpointable` capability implemented by components whose exact runtime
// state can be saved and restored *bit-identically* — the property the
// streaming service (src/serve/) relies on for crash recovery: a session
// restored from checkpoint + WAL tail must make exactly the decisions the
// uninterrupted session would have made.
//
// Doubles are serialized as their IEEE-754 bit patterns (std::bit_cast), so
// accumulated floating-point state (bin loads, per-type active load sums,
// the ledger's closed-usage integral) survives a round trip exactly —
// re-deriving such sums by re-adding item sizes in a different order would
// not. All multi-byte fields are little-endian fixed-width; the format has
// no alignment padding, so buffers are portable across builds.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cdbp {

/// Appends fixed-width little-endian fields to a growing byte buffer.
class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  /// Exact bit pattern: NaNs, infinities, and signed zeros round-trip.
  void f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  [[nodiscard]] const std::string& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }

  std::string buf_;
};

/// Bounds-checked reader over a StateWriter buffer. Every accessor throws
/// std::runtime_error("checkpoint: truncated state") on underrun, so a
/// damaged checkpoint fails loudly instead of restoring garbage.
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    return static_cast<std::uint8_t>(take(1)[0]);
  }
  [[nodiscard]] std::uint32_t u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_le<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(read_le<std::uint64_t>());
  }
  [[nodiscard]] double f64() {
    return std::bit_cast<double>(read_le<std::uint64_t>());
  }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    const std::string_view s = take(n);
    return std::string(s);
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  std::string_view take(std::uint64_t n);

  template <typename T>
  [[nodiscard]] T read_le() {
    const std::string_view s = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<unsigned char>(s[i])) << (8 * i);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Capability: exact state capture and restore. Every algorithm the serve
/// plane runs implements it (Any-Fit family, CDFF, ClassifyByDuration,
/// Hybrid, HarmonicFit, DurationAwareFit), and a DurableSession refuses an
/// algorithm that does not (src/serve/).
///
/// Contract: after `b.load_state(r)` on a freshly reset `b` reading what
/// `a.save_state(w)` wrote, `b` must behave bit-identically to `a` on every
/// future on_arrival/on_departure sequence.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void save_state(StateWriter& w) const = 0;
  virtual void load_state(StateReader& r) = 0;
};

}  // namespace cdbp
