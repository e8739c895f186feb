// Shared helpers for the libcdbp test suites.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algos/any_fit.h"
#include "algos/cdff.h"
#include "algos/classify.h"
#include "algos/hybrid.h"
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
