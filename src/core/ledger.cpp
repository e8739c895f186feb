#include "core/ledger.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"

namespace cdbp {

namespace {

// Process-wide instruments; resolved at static-init time, then a relaxed
// atomic op per event.  The open-bins gauge tracks the most recent ledger
// touched, which is what a live trace wants (per-run breakdowns come from
// RunResult).
obs::Counter& g_bins_opened =
    obs::MetricsRegistry::global().counter("ledger.bins_opened");
obs::Counter& g_bins_closed =
    obs::MetricsRegistry::global().counter("ledger.bins_closed");
obs::Gauge& g_open_bins =
    obs::MetricsRegistry::global().gauge("ledger.open_bins");

}  // namespace

const char* to_string(LedgerStorage storage) noexcept {
  return storage == LedgerStorage::kSoa ? "soa" : "reference";
}

void Ledger::advance_clock(Time now) {
  if (now < clock_) throw std::logic_error("Ledger: time moved backwards");
  clock_ = now;
}

BinRecord& Ledger::mutable_record(BinId bin) {
  if (bin < 0 || static_cast<std::size_t>(bin) >= bins_.size())
    throw std::out_of_range("Ledger: unknown bin id");
  return bins_[static_cast<std::size_t>(bin)];
}

void Ledger::soa_check(BinId bin) const {
  if (bin < 0 || static_cast<std::size_t>(bin) >= soa_opened_.size())
    throw std::out_of_range("Ledger: unknown bin id");
}

std::uint32_t Ledger::soa_pool_index(PoolId pool) {
  const auto it = std::lower_bound(
      soa_pool_ids_.begin(), soa_pool_ids_.end(), pool,
      [](const auto& e, PoolId p) { return e.first < p; });
  if (it != soa_pool_ids_.end() && it->first == pool) return it->second;
  const auto idx = static_cast<std::uint32_t>(soa_pools_.size());
  soa_pools_.emplace_back();
  soa_pool_ids_.insert(it, {pool, idx});
  return idx;
}

const BinCapacityIndex* Ledger::soa_pool_find(PoolId pool) const {
  const auto it = std::lower_bound(
      soa_pool_ids_.begin(), soa_pool_ids_.end(), pool,
      [](const auto& e, PoolId p) { return e.first < p; });
  if (it == soa_pool_ids_.end() || it->first != pool) return nullptr;
  return &soa_pools_[it->second];
}

const BinRecord& Ledger::record(BinId bin) const {
  if (storage_ == LedgerStorage::kSoa) {
    soa_check(bin);
    soa_materialize();
    return soa_records_[static_cast<std::size_t>(bin)];
  }
  if (bin < 0 || static_cast<std::size_t>(bin) >= bins_.size())
    throw std::out_of_range("Ledger: unknown bin id");
  return bins_[static_cast<std::size_t>(bin)];
}

const std::vector<BinRecord>& Ledger::records() const {
  if (storage_ == LedgerStorage::kSoa) {
    soa_materialize();
    return soa_records_;
  }
  return bins_;
}

void Ledger::soa_materialize() const {
  if (soa_records_version_ == soa_version_) return;
  const std::size_t n = soa_opened_.size();
  soa_records_.assign(n, BinRecord{});
  for (std::size_t i = 0; i < n; ++i) {
    BinRecord& rec = soa_records_[i];
    rec.id = static_cast<BinId>(i);
    rec.group = soa_group_[i];
    rec.opened = soa_opened_[i];
    rec.closed = soa_closed_[i];
    rec.load = soa_load_[i];
    rec.active_items = soa_active_count_[i];
  }
  // Scatter the global placement log: a stable partition by bin, so each
  // record's all_items keeps its placement order.
  for (const auto& [item, bin] : soa_placements_)
    soa_records_[static_cast<std::size_t>(bin)].all_items.push_back(item);
  soa_records_version_ = soa_version_;
}

BinId Ledger::open_bin(Time now, BinGroup group) {
  return open_bin(now, group, /*pool=*/group);
}

BinId Ledger::open_bin(Time now, BinGroup group, PoolId pool) {
  advance_clock(now);
  BinId id;
  if (storage_ == LedgerStorage::kSoa) {
    id = static_cast<BinId>(soa_opened_.size());
    const std::uint32_t pidx = soa_pool_index(pool);
    soa_group_.push_back(group);
    soa_opened_.push_back(now);
    soa_closed_.push_back(kInfTime);
    soa_load_.push_back(0.0);
    soa_active_count_.push_back(0);
    soa_pool_.push_back(pool);
    soa_pool_idx_.push_back(pidx);
    soa_slot_.push_back(
        static_cast<std::uint32_t>(soa_pools_[pidx].add_bin(id)));
    ++soa_version_;
  } else {
    id = static_cast<BinId>(bins_.size());
    BinRecord rec;
    rec.id = id;
    rec.group = group;
    rec.opened = now;
    bins_.push_back(std::move(rec));
    index_ref_.push_back(IndexRef{pool, pools_[pool].add_bin(id)});
  }
  open_.insert(id);
  max_open_ = std::max(max_open_, open_.size());
  g_bins_opened.add();
  g_open_bins.set(static_cast<double>(open_.size()));
  return id;
}

void Ledger::place(ItemId id, Load size, BinId bin, Time now) {
  advance_clock(now);
  if (storage_ == LedgerStorage::kSoa) {
    soa_check(bin);
    const auto b = static_cast<std::size_t>(bin);
    if (soa_closed_[b] != kInfTime)
      throw std::logic_error("Ledger: place into closed bin");
    if (!fits_in_bin(soa_load_[b], size))
      throw std::logic_error("Ledger: bin capacity exceeded");
    if (!soa_active_.insert(id, bin, size))
      throw std::logic_error("Ledger: item placed twice");
    soa_load_[b] += size;
    soa_active_count_[b] += 1;
    if (track_items_) soa_placements_.emplace_back(id, bin);
    soa_pools_[soa_pool_idx_[b]].set_load(soa_slot_[b], soa_load_[b]);
    ++soa_version_;
    return;
  }
  BinRecord& rec = mutable_record(bin);
  if (!rec.is_open()) throw std::logic_error("Ledger: place into closed bin");
  if (!fits_in_bin(rec.load, size))
    throw std::logic_error("Ledger: bin capacity exceeded");
  if (active_.contains(id)) throw std::logic_error("Ledger: item placed twice");
  rec.load += size;
  rec.active_items += 1;
  if (track_items_) rec.all_items.push_back(id);
  active_.emplace(id, ActivePlacement{bin, size});

  const IndexRef& ref = index_ref_[static_cast<std::size_t>(bin)];
  pools_[ref.pool].set_load(ref.slot, rec.load);
}

BinId Ledger::remove(ItemId id, Time now) {
  advance_clock(now);
  if (storage_ == LedgerStorage::kSoa) {
    BinId bin = kNoBin;
    Load size = 0.0;
    if (!soa_active_.take(id, bin, size))
      throw std::logic_error("Ledger: removing item that is not placed");
    const auto b = static_cast<std::size_t>(bin);
    soa_active_count_[b] -= 1;
    soa_load_[b] -= size;
    // Subtraction can leave a negative residue when the removed size was
    // rounded into the sum differently than it rounds out; clamp it so load
    // stays a valid Load and fits() never sees a phantom deficit.
    if (soa_load_[b] < 0.0 && soa_load_[b] >= -kLoadEps) soa_load_[b] = 0.0;
    if (soa_active_count_[b] == 0) {
      soa_load_[b] = 0.0;  // clear any floating-point residue
      soa_closed_[b] = now;
      closed_usage_ += soa_closed_[b] - soa_opened_[b];
      open_.erase(bin);
      soa_pools_[soa_pool_idx_[b]].close(soa_slot_[b]);
      g_bins_closed.add();
      g_open_bins.set(static_cast<double>(open_.size()));
    } else {
      soa_pools_[soa_pool_idx_[b]].set_load(soa_slot_[b], soa_load_[b]);
    }
    ++soa_version_;
    return bin;
  }
  const auto it = active_.find(id);
  if (it == active_.end())
    throw std::logic_error("Ledger: removing item that is not placed");
  const auto [bin, size] = it->second;
  active_.erase(it);

  BinRecord& rec = mutable_record(bin);
  rec.active_items -= 1;
  rec.load -= size;
  // Subtraction can leave a negative residue when the removed size was
  // rounded into the sum differently than it rounds out; clamp it so load
  // stays a valid Load and fits() never sees a phantom deficit.
  if (rec.load < 0.0 && rec.load >= -kLoadEps) rec.load = 0.0;
  const IndexRef& ref = index_ref_[static_cast<std::size_t>(bin)];
  if (rec.active_items == 0) {
    rec.load = 0.0;  // clear any floating-point residue
    rec.closed = now;
    closed_usage_ += rec.closed - rec.opened;
    open_.erase(bin);
    pools_[ref.pool].close(ref.slot);
    g_bins_closed.add();
    g_open_bins.set(static_cast<double>(open_.size()));
  } else {
    pools_[ref.pool].set_load(ref.slot, rec.load);
  }
  return bin;
}

bool Ledger::fits(BinId bin, Load size) const {
  if (storage_ == LedgerStorage::kSoa) {
    soa_check(bin);
    const auto b = static_cast<std::size_t>(bin);
    return soa_closed_[b] == kInfTime && fits_in_bin(soa_load_[b], size);
  }
  const BinRecord& rec = record(bin);
  return rec.is_open() && fits_in_bin(rec.load, size);
}

Load Ledger::load(BinId bin) const {
  if (storage_ == LedgerStorage::kSoa) {
    soa_check(bin);
    return soa_load_[static_cast<std::size_t>(bin)];
  }
  return record(bin).load;
}

BinGroup Ledger::group_of(BinId bin) const {
  if (storage_ == LedgerStorage::kSoa) {
    soa_check(bin);
    return soa_group_[static_cast<std::size_t>(bin)];
  }
  return record(bin).group;
}

bool Ledger::is_open(BinId bin) const {
  if (storage_ == LedgerStorage::kSoa) {
    soa_check(bin);
    return soa_closed_[static_cast<std::size_t>(bin)] == kInfTime;
  }
  return record(bin).is_open();
}

BinId Ledger::bin_of(ItemId id) const {
  if (storage_ == LedgerStorage::kSoa) {
    const FlatItemMap::Slot* slot = soa_active_.find(id);
    return slot ? slot->bin : kNoBin;
  }
  const auto it = active_.find(id);
  return it == active_.end() ? kNoBin : it->second.bin;
}

void Ledger::open_bins_into(std::vector<BinId>& out) const {
  out.clear();
  out.reserve(open_.size());
  out.assign(open_.begin(), open_.end());
}

std::vector<BinId> Ledger::open_bins_in_group(BinGroup g) const {
  std::vector<BinId> out;
  open_bins_in_group_into(g, out);
  return out;
}

void Ledger::open_bins_in_group_into(BinGroup g,
                                     std::vector<BinId>& out) const {
  out.clear();
  for (BinId b : open_)
    if (group_of_unchecked(b) == g) out.push_back(b);
}

std::size_t Ledger::open_count_in_group(BinGroup g) const {
  std::size_t n = 0;
  for (BinId b : open_)
    if (group_of_unchecked(b) == g) ++n;
  return n;
}

const BinCapacityIndex* Ledger::pool_index(PoolId pool) const {
  if (storage_ == LedgerStorage::kSoa) return soa_pool_find(pool);
  const auto it = pools_.find(pool);
  return it == pools_.end() ? nullptr : &it->second;
}

BinId Ledger::first_fit(PoolId pool, Load size) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->first_fit(size) : kNoBin;
}

BinId Ledger::best_fit(PoolId pool, Load size) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->best_fit(size) : kNoBin;
}

BinId Ledger::worst_fit(PoolId pool, Load size) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->worst_fit(size) : kNoBin;
}

BinId Ledger::newest_open_in_pool(PoolId pool) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->newest_open() : kNoBin;
}

std::vector<BinId> Ledger::open_bins_in_pool(PoolId pool) const {
  std::vector<BinId> out;
  open_bins_in_pool_into(pool, out);
  return out;
}

void Ledger::open_bins_in_pool_into(PoolId pool,
                                    std::vector<BinId>& out) const {
  const BinCapacityIndex* idx = pool_index(pool);
  if (!idx) {
    out.clear();
    return;
  }
  idx->open_bins_into(out);
}

std::size_t Ledger::open_count_in_pool(PoolId pool) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->open_count() : 0;
}

PoolId Ledger::pool_of(BinId bin) const {
  if (storage_ == LedgerStorage::kSoa) {
    soa_check(bin);
    return soa_pool_[static_cast<std::size_t>(bin)];
  }
  if (bin < 0 || static_cast<std::size_t>(bin) >= index_ref_.size())
    throw std::out_of_range("Ledger: unknown bin id");
  return index_ref_[static_cast<std::size_t>(bin)].pool;
}

Cost Ledger::total_usage(Time now) const {
  Cost acc = closed_usage_;
  for (BinId b : open_) acc += now - opened_of(b);
  return acc;
}

std::vector<ItemId> Ledger::active_item_ids() const {
  std::vector<ItemId> out;
  active_item_ids_into(out);
  return out;
}

void Ledger::active_item_ids_into(std::vector<ItemId>& out) const {
  out.clear();
  if (storage_ == LedgerStorage::kSoa) {
    out.reserve(soa_active_.size());
    soa_active_.for_each(
        [&](const FlatItemMap::Slot& s) { out.push_back(s.id); });
  } else {
    out.reserve(active_.size());
    for (const auto& [id, placement] : active_) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
}

void Ledger::save_state(StateWriter& w) const {
  // Per-bin fields straight from whichever layout is live — no BinRecord
  // view is built — and no per-item history, so both backends write the
  // same bytes and a checkpoint is O(bins + active items).
  const bool soa = storage_ == LedgerStorage::kSoa;
  const std::size_t n_bins = bins_opened();
  w.u64(n_bins);
  for (std::size_t i = 0; i < n_bins; ++i) {
    if (soa) {
      w.i64(soa_group_[i]);
      w.f64(soa_opened_[i]);
      w.f64(soa_closed_[i]);
      w.f64(soa_load_[i]);
      w.u64(soa_active_count_[i]);
      w.i64(soa_pool_[i]);
      w.u64(soa_slot_[i]);
    } else {
      const BinRecord& rec = bins_[i];
      w.i64(rec.group);
      w.f64(rec.opened);
      w.f64(rec.closed);
      w.f64(rec.load);
      w.u64(rec.active_items);
      w.i64(index_ref_[i].pool);
      w.u64(index_ref_[i].slot);
    }
  }
  const std::vector<ItemId> active = active_item_ids();
  w.u64(active.size());
  for (ItemId id : active) {
    BinId bin;
    Load size;
    if (soa) {
      const FlatItemMap::Slot* slot = soa_active_.find(id);
      bin = slot->bin;
      size = slot->size;
    } else {
      const ActivePlacement& p = active_.at(id);
      bin = p.bin;
      size = p.size;
    }
    w.i64(id);
    w.i64(bin);
    w.f64(size);
  }
  w.f64(closed_usage_);
  w.u64(max_open_);
  w.f64(clock_);
}

void Ledger::load_state(StateReader& r) {
  if (bins_opened() != 0 || active_items() != 0 || clock_ != -kInfTime)
    throw std::logic_error("Ledger::load_state: ledger is not fresh");
  const bool soa = storage_ == LedgerStorage::kSoa;
  const std::uint64_t n_bins = r.u64();
  if (soa) {
    soa_group_.reserve(n_bins);
    soa_opened_.reserve(n_bins);
    soa_closed_.reserve(n_bins);
    soa_load_.reserve(n_bins);
    soa_active_count_.reserve(n_bins);
    soa_pool_.reserve(n_bins);
    soa_pool_idx_.reserve(n_bins);
    soa_slot_.reserve(n_bins);
  } else {
    bins_.reserve(n_bins);
    index_ref_.reserve(n_bins);
  }
  for (std::uint64_t i = 0; i < n_bins; ++i) {
    const auto id = static_cast<BinId>(i);
    const BinGroup group = r.i64();
    const Time opened = r.f64();
    const Time closed = r.f64();
    const Load load = r.f64();
    const std::uint64_t active_count = r.u64();
    const PoolId pool = r.i64();
    const std::uint64_t slot = r.u64();
    // Bins are replayed in id order, which within a pool is opening order,
    // so the capacity index hands out the same slots it originally did and
    // ends up value-identical (same leaves, same (load, bin) set, same
    // tournament shape) to the uninterrupted index.
    const std::uint32_t pidx = soa ? soa_pool_index(pool) : 0;
    BinCapacityIndex& index = soa ? soa_pools_[pidx] : pools_[pool];
    const std::size_t got = index.add_bin(id);
    if (got != slot)
      throw std::runtime_error("Ledger::load_state: slot mismatch");
    if (closed == kInfTime) {
      open_.insert(id);
      index.set_load(got, load);
    } else {
      index.close(got);
    }
    if (soa) {
      soa_group_.push_back(group);
      soa_opened_.push_back(opened);
      soa_closed_.push_back(closed);
      soa_load_.push_back(load);
      soa_active_count_.push_back(static_cast<std::uint32_t>(active_count));
      soa_pool_.push_back(pool);
      soa_pool_idx_.push_back(pidx);
      soa_slot_.push_back(static_cast<std::uint32_t>(got));
      ++soa_version_;
    } else {
      BinRecord rec;
      rec.id = id;
      rec.group = group;
      rec.opened = opened;
      rec.closed = closed;
      rec.load = load;
      rec.active_items = active_count;
      bins_.push_back(std::move(rec));
      index_ref_.push_back(IndexRef{pool, got});
    }
  }
  const std::uint64_t n_active = r.u64();
  for (std::uint64_t i = 0; i < n_active; ++i) {
    const ItemId id = r.i64();
    const BinId bin = r.i64();
    const Load size = r.f64();
    if (soa)
      soa_active_.insert(id, bin, size);
    else
      active_.emplace(id, ActivePlacement{bin, size});
  }
  closed_usage_ = r.f64();
  max_open_ = r.u64();
  clock_ = r.f64();
  g_open_bins.set(static_cast<double>(open_.size()));
}

StepFunction Ledger::open_bins_profile(Time now) const {
  StepFunction f;
  if (storage_ == LedgerStorage::kSoa) {
    for (std::size_t i = 0; i < soa_opened_.size(); ++i)
      f.add(soa_opened_[i],
            soa_closed_[i] == kInfTime ? now : soa_closed_[i], 1.0);
    return f;
  }
  for (const BinRecord& rec : bins_)
    f.add(rec.opened, rec.is_open() ? now : rec.closed, 1.0);
  return f;
}

}  // namespace cdbp
