#include "core/bin_index.h"

#include <algorithm>
#include <bit>

#include "obs/obs.h"

namespace cdbp {

namespace {

// Selection-probe instruments shared by all index instances: `index.probes`
// counts fit queries, `index.probe_steps` the tree-descent work they did, so
// steps/probes ~ log2(open bins) on a healthy index. Namespace-scope
// references (not function-local statics) so the per-query cost is the
// fetch_add alone, with no initialization-guard load on the hot path.
obs::Counter& g_probes = obs::MetricsRegistry::global().counter("index.probes");
obs::Counter& g_probe_steps =
    obs::MetricsRegistry::global().counter("index.probe_steps");

}  // namespace

void BinCapacityIndex::rebuild(std::size_t cap) {
  std::vector<Load> tree(2 * cap, kClosedLoad);
  for (std::size_t s = 0; s < size_; ++s) tree[cap + s] = leaf(s);
  tree_ = std::move(tree);
  cap_ = cap;
  for (std::size_t node = cap_ - 1; node >= 1; --node)
    tree_[node] = std::min(tree_[2 * node], tree_[2 * node + 1]);
}

void BinCapacityIndex::grow() { rebuild(cap_ == 0 ? 1 : cap_ * 2); }

void BinCapacityIndex::compact() {
  // Slide the open leaves left over the closed ones; slot order (opening
  // order) is kept, and by_load_ holds (load, bin) keys, so it is
  // untouched.
  std::size_t kept = 0;
  for (std::size_t s = 0; s < size_; ++s) {
    if (leaf(s) == kClosedLoad) continue;
    tree_[cap_ + kept] = leaf(s);
    bins_[kept++] = bins_[s];
  }
  size_ = kept;
  bins_.resize(kept);
  bins_.shrink_to_fit();
  if (kept == 0) {
    tree_ = {};
    cap_ = 0;
    return;
  }
  rebuild(std::bit_ceil(kept));
}

void BinCapacityIndex::update_leaf(std::size_t slot, Load load) {
  std::size_t node = cap_ + slot;
  tree_[node] = load;
  for (node /= 2; node >= 1; node /= 2)
    tree_[node] = std::min(tree_[2 * node], tree_[2 * node + 1]);
}

std::size_t BinCapacityIndex::add_bin(BinId bin) {
  if (size_ == cap_) grow();
  const std::size_t slot = size_++;
  bins_.push_back(bin);
  update_leaf(slot, 0.0);
  if (by_load_active_) by_load_.emplace(0.0, bin);
  ++open_count_;
  return slot;
}

void BinCapacityIndex::set_load(std::size_t slot, Load load) {
  if (by_load_active_) {
    by_load_.erase({leaf(slot), bins_[slot]});
    by_load_.emplace(load, bins_[slot]);
  }
  update_leaf(slot, load);
}

bool BinCapacityIndex::close(std::size_t slot) {
  if (by_load_active_) by_load_.erase({leaf(slot), bins_[slot]});
  update_leaf(slot, kClosedLoad);
  --open_count_;
  if (size_ < kCompactMinSlots || size_ - open_count_ <= open_count_)
    return false;
  compact();
  return true;
}

void BinCapacityIndex::activate_by_load() const {
  // Loads never reach kClosedLoad legitimately (capacity is 1), so a
  // kClosedLoad leaf is exactly "closed or unused".
  for (std::size_t s = 0; s < size_; ++s)
    if (leaf(s) != kClosedLoad) by_load_.emplace(leaf(s), bins_[s]);
  by_load_active_ = true;
}

BinId BinCapacityIndex::first_fit(Load size) const {
  g_probes.add();
  if (cap_ == 0 || !fits_in_bin(tree_[1], size)) return kNoBin;
  std::size_t node = 1;
  std::uint64_t steps = 0;
  while (node < cap_) {
    node = fits_in_bin(tree_[2 * node], size) ? 2 * node : 2 * node + 1;
    ++steps;
  }
  g_probe_steps.add(steps);
  return bins_[node - cap_];
}

BinId BinCapacityIndex::best_fit(Load size) const {
  g_probes.add();
  if (!by_load_active_) activate_by_load();
  auto it = by_load_.upper_bound(Admits{size});
  if (it == by_load_.begin()) return kNoBin;
  --it;
  // Ties on load resolve to the earliest-opened (smallest-id) bin.
  return by_load_.lower_bound({it->first, kNoBin})->second;
}

BinId BinCapacityIndex::worst_fit(Load size) const {
  g_probes.add();
  if (cap_ == 0 || !fits_in_bin(tree_[1], size)) return kNoBin;
  std::size_t node = 1;
  std::uint64_t steps = 0;
  while (node < cap_) {
    node = tree_[2 * node] == tree_[node] ? 2 * node : 2 * node + 1;
    ++steps;
  }
  g_probe_steps.add(steps);
  return bins_[node - cap_];
}

BinId BinCapacityIndex::newest_open() const {
  if (cap_ == 0 || tree_[1] == kClosedLoad) return kNoBin;
  std::size_t node = 1;
  while (node < cap_)
    node = tree_[2 * node + 1] != kClosedLoad ? 2 * node + 1 : 2 * node;
  return bins_[node - cap_];
}

std::vector<BinId> BinCapacityIndex::open_bins() const {
  std::vector<BinId> out;
  open_bins_into(out);
  return out;
}

void BinCapacityIndex::open_bins_into(std::vector<BinId>& out) const {
  out.clear();
  out.reserve(open_count_);
  for (std::size_t s = 0; s < size_; ++s)
    if (leaf(s) != kClosedLoad) out.push_back(bins_[s]);
}

}  // namespace cdbp
