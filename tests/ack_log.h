// Test-side placement log. ShardRouter keeps no per-offer history, so a
// test that inspects placements collects the kApplied acks itself.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/shard_router.h"

namespace cdbp::testutil {

class AckLog {
 public:
  /// Installs the collector as `router`'s ack callback (before the first
  /// submit). The callback co-owns the log, so it stays valid even if the
  /// router outlives this object.
  explicit AckLog(serve::ShardRouter& router)
      : state_(std::make_shared<State>()) {
    router.set_on_ack([state = state_](const serve::ServeResult& r,
                                       serve::AckKind kind) {
      if (kind != serve::AckKind::kApplied) return;
      const std::lock_guard<std::mutex> lock(state->mu);
      state->applied.push_back(r);
    });
  }

  /// Every kApplied ack, ordered by (stream_index, shard, seq). Read after
  /// the router's stop().
  [[nodiscard]] std::vector<serve::ServeResult> applied() const {
    std::vector<serve::ServeResult> out;
    {
      const std::lock_guard<std::mutex> lock(state_->mu);
      out = state_->applied;
    }
    std::sort(out.begin(), out.end(),
              [](const serve::ServeResult& a, const serve::ServeResult& b) {
                if (a.stream_index != b.stream_index)
                  return a.stream_index < b.stream_index;
                if (a.shard != b.shard) return a.shard < b.shard;
                return a.seq < b.seq;
              });
    return out;
  }

 private:
  struct State {
    std::mutex mu;
    std::vector<serve::ServeResult> applied;
  };
  std::shared_ptr<State> state_;
};

}  // namespace cdbp::testutil
