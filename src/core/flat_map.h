// Flat open-addressing map keyed by a signed 64-bit id: the SoA ledger's
// replacement for node-based std::unordered_map on the hot path. One
// template serves both of its tables — active ItemId -> placement (bin,
// size) and open BinId -> column row. One contiguous slot array,
// fibonacci hashing, linear probing, and backward-shift deletion (no
// tombstones), so an insert/take pair costs a couple of cache lines
// instead of a node allocation plus pointer chases. Memory is O(peak
// concurrently-live keys), not O(keys ever seen) — the property the 1e7+
// streamed runs and long-lived serve shards depend on.
//
// `Entry` is an aggregate whose first member is the key, `id`; a
// default-constructed Entry must carry kFlatMapEmptyKey there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/time_types.h"

namespace cdbp {

/// Reserved key marking an empty slot; insert() rejects it.
inline constexpr std::int64_t kFlatMapEmptyKey =
    std::numeric_limits<std::int64_t>::min();

template <typename Entry>
class FlatMap {
 public:
  using Slot = Entry;
  static constexpr std::int64_t kEmptyKey = kFlatMapEmptyKey;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Inserts `entry`; returns false when its id is already present.
  bool insert(const Entry& entry) {
    if (entry.id == kEmptyKey)
      throw std::invalid_argument("FlatMap: reserved key");
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    std::size_t i = home(entry.id);
    while (true) {
      Entry& s = slots_[i];
      if (s.id == kEmptyKey) {
        s = entry;
        ++size_;
        return true;
      }
      if (s.id == entry.id) return false;
      i = (i + 1) & mask_;
    }
  }

  /// insert(Entry{id, fields...}).
  template <typename... Fields>
  bool insert(std::int64_t id, Fields... fields) {
    return insert(Entry{id, fields...});
  }

  /// The entry holding `id`, or nullptr.
  [[nodiscard]] const Entry* find(std::int64_t id) const {
    if (slots_.empty()) return nullptr;
    std::size_t i = home(id);
    while (true) {
      const Entry& s = slots_[i];
      if (s.id == id) return &s;
      if (s.id == kEmptyKey) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  /// Removes `id`, handing back its entry in one probe; false if absent.
  bool take(std::int64_t id, Entry& out) {
    if (slots_.empty()) return false;
    std::size_t i = home(id);
    while (true) {
      const Entry& s = slots_[i];
      if (s.id == kEmptyKey) return false;
      if (s.id == id) {
        out = s;
        shift_out(i);
        --size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  bool erase(std::int64_t id) {
    Entry gone;
    return take(id, gone);
  }

  void clear() {
    slots_.clear();
    size_ = 0;
    mask_ = 0;
    shift_ = 0;
  }

  /// Visits every entry in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& s : slots_)
      if (s.id != kEmptyKey) fn(s);
  }

 private:
  [[nodiscard]] std::size_t home(std::int64_t id) const noexcept {
    // Fibonacci hashing: multiply by 2^64/phi, keep the top log2(cap) bits.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    const std::size_t new_cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Entry> old = std::move(slots_);
    slots_.assign(new_cap, Entry{});
    mask_ = new_cap - 1;
    shift_ = 64;
    for (std::size_t c = new_cap; c > 1; c /= 2) --shift_;
    size_ = 0;
    for (const Entry& s : old)
      if (s.id != kEmptyKey) insert(s);
  }

  /// Backward-shift deletion: refill the hole at `hole` by sliding back
  /// every displaced entry of the probe run, preserving the invariant that
  /// each key is reachable from its home slot without crossing an empty one.
  void shift_out(std::size_t hole) {
    std::size_t i = (hole + 1) & mask_;
    while (true) {
      const Entry& s = slots_[i];
      if (s.id == kEmptyKey) break;
      // s may move into the hole iff the hole lies within its probe run,
      // i.e. home(s) .. i (cyclically) covers the hole.
      if (((i - home(s.id)) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = s;
        hole = i;
      }
      i = (i + 1) & mask_;
    }
    slots_[hole] = Entry{};
  }

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
};

/// An active item's placement: the SoA ledger's item table.
struct ItemPlacement {
  ItemId id = kFlatMapEmptyKey;
  BinId bin = kNoBin;
  Load size = 0.0;
};
using FlatItemMap = FlatMap<ItemPlacement>;

}  // namespace cdbp
