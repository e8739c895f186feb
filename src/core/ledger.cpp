#include "core/ledger.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

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

/// Where `pool` is, or would go, in the SoA layout's sorted pool-id table.
template <typename Table>
auto pool_position(Table& ids, PoolId pool) {
  return std::lower_bound(
      ids.begin(), ids.end(), pool,
      [](const auto& e, PoolId p) { return e.first < p; });
}

}  // namespace

const char* to_string(LedgerStorage storage) noexcept {
  return storage == LedgerStorage::kSoa ? "soa" : "reference";
}

void Ledger::advance_clock(Time now) {
  if (now < clock_) throw std::logic_error("Ledger: time moved backwards");
  clock_ = now;
}

void Ledger::check_issued(BinId bin) const {
  if (bin < 0 || bin >= next_bin_)
    throw std::out_of_range("Ledger: unknown bin id");
}

BinRecord& Ledger::mutable_record(BinId bin) {
  check_issued(bin);
  return bins_[static_cast<std::size_t>(bin)];
}

std::uint32_t Ledger::soa_pool_index(PoolId pool) {
  const auto it = pool_position(soa_pool_ids_, pool);
  if (it != soa_pool_ids_.end() && it->first == pool) return it->second;
  std::uint32_t idx;
  if (soa_free_pools_.empty()) {
    idx = static_cast<std::uint32_t>(soa_pools_.size());
    soa_pools_.emplace_back();
  } else {
    idx = soa_free_pools_.back();
    soa_free_pools_.pop_back();
  }
  soa_pools_[idx].id = pool;
  soa_pool_ids_.insert(it, {pool, idx});
  return idx;
}

const BinCapacityIndex* Ledger::soa_pool_find(PoolId pool) const {
  const auto it = pool_position(soa_pool_ids_, pool);
  if (it == soa_pool_ids_.end() || it->first != pool) return nullptr;
  return &soa_pools_[it->second].index;
}

std::uint32_t Ledger::soa_add_row(BinId bin, BinGroup group, Time opened,
                                  PoolId pool) {
  const std::uint32_t pidx = soa_pool_index(pool);
  const auto slot =
      static_cast<std::uint32_t>(soa_pools_[pidx].index.add_bin(bin));
  std::uint32_t row;
  if (soa_free_rows_.empty()) {
    row = static_cast<std::uint32_t>(soa_group_.size());
    soa_group_.push_back(group);
    soa_opened_.push_back(opened);
    soa_load_.push_back(0.0);
    soa_active_count_.push_back(0);
    soa_pool_idx_.push_back(pidx);
    soa_slot_.push_back(slot);
  } else {
    row = soa_free_rows_.back();
    soa_free_rows_.pop_back();
    soa_group_[row] = group;
    soa_opened_[row] = opened;
    soa_load_[row] = 0.0;
    soa_active_count_[row] = 0;
    soa_pool_idx_[row] = pidx;
    soa_slot_[row] = slot;
  }
  soa_rows_.insert(bin, row);
  return row;
}

void Ledger::soa_close_row(BinId bin, std::uint32_t row) {
  const std::uint32_t pidx = soa_pool_idx_[row];
  SoaPool& pool = soa_pools_[pidx];
  const bool compacted = pool.index.close(soa_slot_[row]);
  if (pool.index.open_count() == 0) {
    // The pool's last bin: release its index (a pool id that comes back
    // gets a fresh one, which answers the same — it held no open bin).
    soa_pool_ids_.erase(pool_position(soa_pool_ids_, pool.id));
    pool.index = BinCapacityIndex{};
    soa_free_pools_.push_back(pidx);
  } else if (compacted) {
    for (std::size_t s = 0; s < pool.index.slot_count(); ++s)
      soa_slot_[*soa_row(pool.index.bin_at(s))] =
          static_cast<std::uint32_t>(s);
  }
  soa_rows_.erase(bin);
  soa_free_rows_.push_back(row);
}

std::vector<BinRecord> Ledger::records() const& {
  if (storage_ == LedgerStorage::kReference) return bins_;
  if (!track_items_)
    throw std::logic_error(
        "Ledger::records: the SoA layout keeps closed bins only with "
        "track_items on");
  std::vector<BinRecord> out(soa_history_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].id = static_cast<BinId>(i);
    out[i].group = soa_history_[i].group;
    out[i].opened = soa_history_[i].opened;
    out[i].closed = soa_history_[i].closed;
  }
  // A closed bin's load and count are 0, as the reference leaves them.
  for (BinId b : open_) {
    const std::uint32_t row = *soa_row(b);
    out[static_cast<std::size_t>(b)].load = soa_load_[row];
    out[static_cast<std::size_t>(b)].active_items = soa_active_count_[row];
  }
  return out;
}

std::vector<BinRecord> Ledger::records() && {
  if (storage_ == LedgerStorage::kReference) return std::move(bins_);
  return std::as_const(*this).records();
}

StepFunction open_bins_profile(const std::vector<BinRecord>& bins, Time now) {
  StepFunction f;
  for (const BinRecord& rec : bins)
    f.add(rec.opened, rec.is_open() ? now : rec.closed, 1.0);
  return f;
}

BinId Ledger::open_bin(Time now, BinGroup group) {
  return open_bin(now, group, /*pool=*/group);
}

BinId Ledger::open_bin(Time now, BinGroup group, PoolId pool) {
  advance_clock(now);
  const BinId id = next_bin_++;
  if (storage_ == LedgerStorage::kSoa) {
    (void)soa_add_row(id, group, now, pool);
    if (track_items_) soa_history_.push_back(BinHistory{group, now, kInfTime});
  } else {
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
    check_issued(bin);
    const std::uint32_t* found = soa_row(bin);
    if (!found) throw std::logic_error("Ledger: place into closed bin");
    const std::uint32_t row = *found;
    if (!fits_in_bin(soa_load_[row], size))
      throw std::logic_error("Ledger: bin capacity exceeded");
    if (!soa_active_.insert(id, bin, size))
      throw std::logic_error("Ledger: item placed twice");
    soa_load_[row] += size;
    soa_active_count_[row] += 1;
    soa_pools_[soa_pool_idx_[row]].index.set_load(soa_slot_[row],
                                                  soa_load_[row]);
    return;
  }
  BinRecord& rec = mutable_record(bin);
  if (!rec.is_open()) throw std::logic_error("Ledger: place into closed bin");
  if (!fits_in_bin(rec.load, size))
    throw std::logic_error("Ledger: bin capacity exceeded");
  if (active_.contains(id)) throw std::logic_error("Ledger: item placed twice");
  rec.load += size;
  rec.active_items += 1;
  active_.emplace(id, ActivePlacement{bin, size});

  const IndexRef& ref = index_ref_[static_cast<std::size_t>(bin)];
  pools_[ref.pool].set_load(ref.slot, rec.load);
}

BinId Ledger::remove(ItemId id, Time now) {
  advance_clock(now);
  if (storage_ == LedgerStorage::kSoa) {
    ItemPlacement placement;
    if (!soa_active_.take(id, placement))
      throw std::logic_error("Ledger: removing item that is not placed");
    const BinId bin = placement.bin;
    const std::uint32_t row = *soa_row(bin);
    soa_active_count_[row] -= 1;
    soa_load_[row] -= placement.size;
    // Subtraction can leave a negative residue when the removed size was
    // rounded into the sum differently than it rounds out; clamp it so load
    // stays a valid Load and fits() never sees a phantom deficit.
    if (soa_load_[row] < 0.0 && soa_load_[row] >= -kLoadEps)
      soa_load_[row] = 0.0;
    if (soa_active_count_[row] == 0) {
      closed_usage_ += now - soa_opened_[row];
      if (track_items_)
        soa_history_[static_cast<std::size_t>(bin)].closed = now;
      open_.erase(bin);
      soa_close_row(bin, row);
      g_bins_closed.add();
      g_open_bins.set(static_cast<double>(open_.size()));
    } else {
      soa_pools_[soa_pool_idx_[row]].index.set_load(soa_slot_[row],
                                                    soa_load_[row]);
    }
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
    BinCapacityIndex& index = pools_[ref.pool];
    if (index.close(ref.slot))
      for (std::size_t s = 0; s < index.slot_count(); ++s)
        index_ref_[static_cast<std::size_t>(index.bin_at(s))].slot = s;
    g_bins_closed.add();
    g_open_bins.set(static_cast<double>(open_.size()));
  } else {
    pools_[ref.pool].set_load(ref.slot, rec.load);
  }
  return bin;
}

bool Ledger::fits(BinId bin, Load size) const {
  check_issued(bin);
  if (storage_ == LedgerStorage::kSoa) {
    const std::uint32_t* row = soa_row(bin);
    return row && fits_in_bin(soa_load_[*row], size);
  }
  const BinRecord& rec = bins_[static_cast<std::size_t>(bin)];
  return rec.is_open() && fits_in_bin(rec.load, size);
}

Load Ledger::load(BinId bin) const {
  check_issued(bin);
  if (storage_ == LedgerStorage::kSoa) {
    const std::uint32_t* row = soa_row(bin);
    return row ? soa_load_[*row] : 0.0;
  }
  return bins_[static_cast<std::size_t>(bin)].load;
}

bool Ledger::is_open(BinId bin) const {
  check_issued(bin);
  if (storage_ == LedgerStorage::kSoa) return soa_row(bin) != nullptr;
  return bins_[static_cast<std::size_t>(bin)].is_open();
}

BinId Ledger::bin_of(ItemId id) const {
  if (storage_ == LedgerStorage::kSoa) {
    const ItemPlacement* p = soa_active_.find(id);
    return p ? p->bin : kNoBin;
  }
  const auto it = active_.find(id);
  return it == active_.end() ? kNoBin : it->second.bin;
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

PoolId Ledger::pool_of(BinId bin) const {
  if (!is_open(bin)) throw std::out_of_range("Ledger::pool_of: bin is closed");
  if (storage_ == LedgerStorage::kSoa)
    return soa_pools_[soa_pool_idx_[*soa_row(bin)]].id;
  return index_ref_[static_cast<std::size_t>(bin)].pool;
}

Cost Ledger::total_usage(Time now) const {
  Cost acc = closed_usage_;
  for (BinId b : open_) acc += now - opened_of(b);
  return acc;
}

void Ledger::save_state(StateWriter& w) const {
  // Open bins straight from whichever layout is live — no BinRecord view
  // is built — and no per-item history, so both backends write the same
  // bytes and a checkpoint is O(open bins + active items).
  const bool soa = storage_ == LedgerStorage::kSoa;
  w.u64(bins_opened());
  w.u64(open_.size());
  for (BinId b : open_) {
    w.i64(b);
    if (soa) {
      const std::uint32_t row = *soa_row(b);
      w.i64(soa_group_[row]);
      w.f64(soa_opened_[row]);
      w.f64(soa_load_[row]);
      w.u64(soa_active_count_[row]);
      w.i64(soa_pools_[soa_pool_idx_[row]].id);
    } else {
      const BinRecord& rec = bins_[static_cast<std::size_t>(b)];
      w.i64(rec.group);
      w.f64(rec.opened);
      w.f64(rec.load);
      w.u64(rec.active_items);
      w.i64(index_ref_[static_cast<std::size_t>(b)].pool);
    }
  }
  // Placements in ascending item id, whatever order the map holds them in.
  std::vector<ItemPlacement> active;
  active.reserve(active_items());
  if (soa) {
    soa_active_.for_each([&](const ItemPlacement& p) { active.push_back(p); });
  } else {
    for (const auto& [id, p] : active_)
      active.push_back(ItemPlacement{id, p.bin, p.size});
  }
  std::sort(active.begin(), active.end(),
            [](const ItemPlacement& a, const ItemPlacement& b) {
              return a.id < b.id;
            });
  w.u64(active.size());
  for (const ItemPlacement& p : active) {
    w.i64(p.id);
    w.i64(p.bin);
    w.f64(p.size);
  }
  w.f64(closed_usage_);
  w.u64(max_open_);
  w.f64(clock_);
}

namespace {

/// A save_state buffer, decoded and cross-checked before any ledger state
/// changes.
struct SavedBin {
  BinId id;
  BinGroup group;
  Time opened;
  Load load;
  std::uint64_t active_count;
  PoolId pool;
};

struct SavedLedger {
  std::uint64_t next_bin = 0;
  std::vector<SavedBin> bins;  // ascending id
  std::vector<ItemPlacement> placements;  // ascending item id
  Cost closed_usage = 0.0;
  std::uint64_t max_open = 0;
  Time clock = 0.0;
};

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("Ledger::load_state: " + what);
}

SavedLedger read_saved_ledger(StateReader& r) {
  constexpr std::size_t kBinBytes = 48;
  constexpr std::size_t kPlacementBytes = 24;
  SavedLedger s;
  s.next_bin = r.u64();
  if (s.next_bin > static_cast<std::uint64_t>(
                       std::numeric_limits<BinId>::max()))
    corrupt("next bin id out of range");
  // A count the rest of the buffer cannot hold is corrupt; it must not
  // size an allocation.
  const std::uint64_t n_open = r.u64();
  if (n_open > r.remaining() / kBinBytes) corrupt("open-bin count too large");
  s.bins.reserve(static_cast<std::size_t>(n_open));
  for (std::uint64_t i = 0; i < n_open; ++i) {
    SavedBin b{};
    b.id = r.i64();
    b.group = r.i64();
    b.opened = r.f64();
    b.load = r.f64();
    b.active_count = r.u64();
    b.pool = r.i64();
    if (b.id < 0 || static_cast<std::uint64_t>(b.id) >= s.next_bin)
      corrupt("bin id " + std::to_string(b.id) + " was never issued");
    if (!s.bins.empty() && b.id <= s.bins.back().id)
      corrupt("bin ids are not strictly ascending");
    s.bins.push_back(b);
  }
  const std::uint64_t n_active = r.u64();
  if (n_active > r.remaining() / kPlacementBytes)
    corrupt("placement count too large");
  s.placements.reserve(static_cast<std::size_t>(n_active));
  std::vector<std::uint64_t> placed(s.bins.size(), 0);
  for (std::uint64_t i = 0; i < n_active; ++i) {
    ItemPlacement p;
    p.id = r.i64();
    p.bin = r.i64();
    p.size = r.f64();
    if (p.id == kFlatMapEmptyKey ||
        (!s.placements.empty() && p.id <= s.placements.back().id))
      corrupt("item ids are not strictly ascending");
    const auto it = std::lower_bound(
        s.bins.begin(), s.bins.end(), p.bin,
        [](const SavedBin& b, BinId id) { return b.id < id; });
    if (it == s.bins.end() || it->id != p.bin)
      corrupt("item " + std::to_string(p.id) + " is placed in bin " +
              std::to_string(p.bin) + ", which is not open");
    ++placed[static_cast<std::size_t>(it - s.bins.begin())];
    s.placements.push_back(p);
  }
  for (std::size_t k = 0; k < s.bins.size(); ++k)
    if (placed[k] != s.bins[k].active_count)
      corrupt("bin " + std::to_string(s.bins[k].id) + " lists " +
              std::to_string(s.bins[k].active_count) + " items but holds " +
              std::to_string(placed[k]));
  s.closed_usage = r.f64();
  s.max_open = r.u64();
  s.clock = r.f64();
  if (s.max_open < s.bins.size()) corrupt("peak open bins below open bins");
  return s;
}

}  // namespace

void Ledger::load_state(StateReader& r) {
  if (bins_opened() != 0 || active_items() != 0 || clock_ != -kInfTime)
    throw std::logic_error("Ledger::load_state: ledger is not fresh");
  const SavedLedger saved = read_saved_ledger(r);
  const bool soa = storage_ == LedgerStorage::kSoa;
  next_bin_ = static_cast<BinId>(saved.next_bin);
  // Layouts that keep every bin by id get a placeholder for each bin the
  // checkpoint no longer carries (closed before it was taken).
  const std::size_t n_bins = static_cast<std::size_t>(saved.next_bin);
  if (!soa) {
    bins_.resize(n_bins);
    index_ref_.resize(n_bins);
    for (std::size_t i = 0; i < n_bins; ++i) {
      bins_[i].id = static_cast<BinId>(i);
      bins_[i].closed = 0.0;
    }
  } else if (track_items_) {
    soa_history_.assign(n_bins, BinHistory{});
  }
  // Open bins are replayed in id order, which within a pool is opening
  // order, so every capacity index holds the same (load, bin) set in the
  // same slot order as the uninterrupted one; the closed slots that one
  // may still carry never match a query.
  for (const SavedBin& b : saved.bins) {
    if (soa) {
      const std::uint32_t row = soa_add_row(b.id, b.group, b.opened, b.pool);
      soa_load_[row] = b.load;
      soa_active_count_[row] = static_cast<std::uint32_t>(b.active_count);
      soa_pools_[soa_pool_idx_[row]].index.set_load(soa_slot_[row], b.load);
      if (track_items_)
        soa_history_[static_cast<std::size_t>(b.id)] =
            BinHistory{b.group, b.opened, kInfTime};
    } else {
      BinRecord& rec = bins_[static_cast<std::size_t>(b.id)];
      rec.group = b.group;
      rec.opened = b.opened;
      rec.closed = kInfTime;
      rec.load = b.load;
      rec.active_items = static_cast<std::size_t>(b.active_count);
      BinCapacityIndex& index = pools_[b.pool];
      const std::size_t slot = index.add_bin(b.id);
      index.set_load(slot, b.load);
      index_ref_[static_cast<std::size_t>(b.id)] = IndexRef{b.pool, slot};
    }
    open_.insert(b.id);
  }
  for (const ItemPlacement& p : saved.placements) {
    if (soa)
      soa_active_.insert(p);
    else
      active_.emplace(p.id, ActivePlacement{p.bin, p.size});
  }
  closed_usage_ = saved.closed_usage;
  max_open_ = static_cast<std::size_t>(saved.max_open);
  clock_ = saved.clock;
  g_open_bins.set(static_cast<double>(open_.size()));
}

}  // namespace cdbp
