// Serve-plane observability: tenant-label cardinality + sanitization in
// ServeMetrics, end-to-end latency capture through a real ShardRouter run,
// and the StatsExporter's dump files. Everything here must also compile
// (and the OBS-independent parts pass) under CDBP_OBS_OFF.
#include "serve/serve_metrics.h"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "obs/snapshot.h"
#include "serve/request_stream.h"
#include "serve/shard_router.h"
#include "serve/stats_exporter.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

class ServeObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_serve_obs_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  fs::path dir_;
};

#ifndef CDBP_OBS_OFF

TEST_F(ServeObsTest, TenantHistogramTableIsBounded) {
  obs::MetricsRegistry registry;
  ServeMetrics metrics(registry, 1, /*max_tenants=*/4);
  for (int t = 0; t < 10; ++t)
    metrics.tenant_ack("tenant" + std::to_string(t)).record(100);

  EXPECT_EQ(metrics.tenant_metrics(), 4u);
  // Every tenant past the cap shares the one overflow histogram.
  EXPECT_EQ(&metrics.tenant_ack("tenant7"), &metrics.tenant_ack("tenant9"));
  EXPECT_EQ(&metrics.tenant_ack("brand-new"), &metrics.tenant_ack("tenant9"));
  // Tenants admitted before the cap keep their own (stable) histogram.
  EXPECT_EQ(&metrics.tenant_ack("tenant0"), &metrics.tenant_ack("tenant0"));
  EXPECT_NE(&metrics.tenant_ack("tenant0"), &metrics.tenant_ack("tenant9"));

  // find_histogram points into the snapshot it is given: keep it alive.
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::HistogramSnapshot* other =
      obs::find_histogram(snap, "serve.tenant_ack_us.other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->count, 6u);  // tenants 4..9 overflowed
}

TEST_F(ServeObsTest, HostileTenantIdsCannotReachMetricNames) {
  obs::MetricsRegistry registry;
  ServeMetrics metrics(registry, 1);
  metrics.tenant_ack("evil,id\nwith{noise}").record(7);
  // Distinct raw ids whose sanitized labels collide share one histogram —
  // the cardinality bound is on labels, not raw inputs.
  EXPECT_EQ(&metrics.tenant_ack("a,b"), &metrics.tenant_ack("a\tb"));

  const obs::MetricsSnapshot snap = registry.snapshot();
  bool found = false;
  for (const auto& [name, hist] : snap.histograms) {
    EXPECT_EQ(name.find(','), std::string::npos) << name;
    EXPECT_EQ(name.find('\n'), std::string::npos) << name;
    EXPECT_EQ(name.find('{'), std::string::npos) << name;
    if (name == "serve.tenant_ack_us.evil_id_with_noise_") found = true;
  }
  EXPECT_TRUE(found);
}

#endif  // !CDBP_OBS_OFF

TEST_F(ServeObsTest, RouterRunCapturesAckLatencyPerShard) {
  const std::vector<ServeRequest> stream =
      generate_stream(StreamGenConfig{300, 8, 11, 5, 64.0});
  RouterConfig rc;
  rc.wal_dir = (dir_ / "wal").string();
  rc.shards = 2;
  rc.fsync = FsyncPolicy::kNone;
  ShardRouter router(
      rc, [] { return AlgorithmPtr(std::make_unique<algos::BestFit>()); },
      "bf");
  for (const ServeRequest& req : stream) ASSERT_TRUE(router.submit(req));
  router.stop();

  std::uint64_t applied = 0;
  std::uint64_t latency_count = 0;
  for (std::size_t i = 0; i < router.shards(); ++i) {
    applied += router.stats(i).applied;
    latency_count += router.stats(i).ack_latency.count;
    // The queue-depth gauge is maintained inside the queue: once the router
    // has drained and stopped, it must read zero again.
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .gauge("serve.queue_depth.shard" + std::to_string(i))
                  .value(),
              0.0);
  }
  EXPECT_EQ(applied, stream.size());
#ifndef CDBP_OBS_OFF
  // Every applied offer was stamped at admission and acked post-commit.
  EXPECT_EQ(latency_count, applied);
  // Submission -> post-commit ack can't be instantaneous for every offer.
  EXPECT_GT(obs::merge(router.stats(0).ack_latency,
                       router.stats(1).ack_latency)
                .max,
            0u);
#else
  EXPECT_EQ(latency_count, 0u);  // interval snapshots are empty when off
#endif
}

TEST_F(ServeObsTest, StatsExporterWritesBothFormats) {
  obs::MetricsRegistry::global().counter("serve.test_marker").add(5);
  const std::string base = (dir_ / "stats").string();
  StatsExporter exporter(StatsExporterConfig{base, /*interval_ms=*/0});
  exporter.dump_now();
  const std::uint64_t after_manual = exporter.dumps();
  EXPECT_GE(after_manual, 1u);
  exporter.stop();                          // final dump, then join
  EXPECT_GT(exporter.dumps(), after_manual);
  exporter.stop();                          // idempotent

  const std::string prom = slurp(base + ".prom");
  const std::string json = slurp(base + ".json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
  EXPECT_NE(json.find("\"interval_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
#ifndef CDBP_OBS_OFF
  EXPECT_NE(prom.find("# TYPE cdbp_serve_test_marker counter"),
            std::string::npos);
  EXPECT_NE(json.find("\"serve.test_marker\":"), std::string::npos);
#else
  // Compiled out: the exporter still runs and renders, over empty data.
  EXPECT_EQ(prom.find("cdbp_serve_test_marker"), std::string::npos);
#endif
  // No tmp file left behind by the atomic rename.
  EXPECT_FALSE(fs::exists(base + ".prom.tmp"));
  EXPECT_FALSE(fs::exists(base + ".json.tmp"));
}

TEST_F(ServeObsTest, StatsExporterServicesSignalFlag) {
  const std::string base = (dir_ / "sig").string();
  {
    StatsExporter exporter(StatsExporterConfig{base, /*interval_ms=*/0});
    StatsExporter::dump_requested.store(1);  // what the SIGUSR1 handler does
    // Poll tick is 50ms; wait for the loop to consume the flag.
    for (int i = 0; i < 100 && exporter.dumps() == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(exporter.dumps(), 1u);
    EXPECT_EQ(StatsExporter::dump_requested.load(), 0);
  }
  EXPECT_TRUE(fs::exists(base + ".prom"));
  EXPECT_TRUE(fs::exists(base + ".json"));
}

TEST_F(ServeObsTest, StatsExporterRejectsEmptyBasePath) {
  EXPECT_THROW(StatsExporter(StatsExporterConfig{"", 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cdbp::serve
