// Shared helpers for the libcdbp test suites.
#pragma once

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algos/any_fit.h"
#include "algos/cdff.h"
#include "algos/classify.h"
#include "algos/hybrid.h"
#include "chaos/fault_env.h"
#include "core/algorithm.h"
#include "core/instance.h"

namespace cdbp::testutil {

/// Builds an instance from (arrival, departure, size) triples.
inline Instance make_instance(
    std::initializer_list<std::tuple<Time, Time, Load>> items) {
  Instance out;
  for (const auto& [a, d, s] : items) out.add(a, d, s);
  out.finalize();
  return out;
}

/// Operations of kind `op` that `env` (recording its history) saw on paths
/// containing `part` (".seg" = WAL segments).
inline std::size_t ops_on(const io::FaultInjectingEnv& env, io::FaultOp op,
                          std::string_view part) {
  std::size_t n = 0;
  for (const io::OpRecord& rec : env.history())
    if (rec.op == op && rec.path.find(part) != std::string::npos) ++n;
  return n;
}

/// Every file in `dir`, by name, with its bytes.
inline std::map<std::string, std::string> dir_bytes(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(de.path(), std::ios::binary);
    files[de.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

/// A named algorithm factory, used by parameterized suites.
struct NamedFactory {
  std::string name;
  std::function<AlgorithmPtr()> make;
};

/// Six online algorithms: the Any-Fit family, CBD with base 2 and HA. Not
/// every servable one (cli::algorithm_names() lists those); CDFF, which
/// handles aligned inputs only, is added by aligned_factories().
inline std::vector<NamedFactory> online_factories() {
  return {
      {"FirstFit", [] { return std::make_unique<algos::FirstFit>(); }},
      {"BestFit", [] { return std::make_unique<algos::BestFit>(); }},
      {"NextFit", [] { return std::make_unique<algos::NextFit>(); }},
      {"WorstFit", [] { return std::make_unique<algos::WorstFit>(); }},
      {"CBD2",
       [] { return std::make_unique<algos::ClassifyByDuration>(2.0); }},
      {"HA", [] { return std::make_unique<algos::Hybrid>(); }},
  };
}

/// Algorithms valid on aligned inputs (everything, plus CDFF).
inline std::vector<NamedFactory> aligned_factories() {
  auto out = online_factories();
  out.push_back({"CDFF", [] { return std::make_unique<algos::Cdff>(); }});
  return out;
}

}  // namespace cdbp::testutil
