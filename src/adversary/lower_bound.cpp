#include "adversary/lower_bound.h"

#include <cmath>
#include <stdexcept>

#include "adversary/sigma_star.h"
#include "core/session.h"

namespace cdbp::adversary {

AdversaryOutcome run_lower_bound_adversary(const AdversaryConfig& config,
                                           Algorithm& algo) {
  const int n = config.n;
  if (n < 1 || n > 30)
    throw std::invalid_argument("run_lower_bound_adversary: n out of range");
  const auto mu = static_cast<std::int64_t>(pow2(n));
  const std::int64_t rounds =
      config.rounds < 0 ? mu
                        : std::min<std::int64_t>(config.rounds, mu);

  const std::vector<Release> ladder = sigma_star_ladder(n);
  const auto target = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));

  AdversaryOutcome out;
  out.target_bins = target;

  InteractiveSession session(algo);
  for (std::int64_t t = 0; t < rounds; ++t) {
    session.advance_to(static_cast<Time>(t));
    bool released_any = false;
    for (const Release& rel : ladder) {
      if (session.open_bins() >= target) break;
      const auto arrival = static_cast<Time>(t);
      session.offer(arrival, arrival + rel.length, rel.load);
      // The session keeps no history; sigma is recorded here, in offer
      // order (which is arrival order, so finalize keeps the ids).
      out.instance.add(arrival, arrival + rel.length, rel.load);
      ++out.items;
      released_any = true;
    }
    if (released_any) ++out.bursts;
    if (session.open_bins() >= target) ++out.bursts_reaching_target;
  }
  out.online_cost = session.finish();
  out.instance.finalize();
  return out;
}

}  // namespace cdbp::adversary
