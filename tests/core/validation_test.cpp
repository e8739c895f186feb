#include "core/validation.h"

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/simulator.h"
#include "test_util.h"

namespace cdbp {
namespace {

using testutil::make_instance;

RunResult honest_run(const Instance& in) {
  algos::FirstFit ff;
  return Simulator{}.run(in, ff);
}

/// True when one of the report's issues contains `text`.
bool reports(const ValidationReport& rep, const std::string& text) {
  for (const ValidationIssue& i : rep.issues)
    if (i.message.find(text) != std::string::npos) return true;
  return false;
}

// Each check of validate_run has a forged run below: the run's only record
// of which items a bin held is RunResult::placements (entry i is item i's
// bin), so every forgery of a bin's contents is a forgery of the
// placements. An unknown, missing or doubled item shows as a placement
// count that differs from the instance's item count.

TEST(Validation, HonestRunPasses) {
  const Instance in = make_instance({
      {0.0, 4.0, 0.5},
      {1.0, 3.0, 0.5},
      {2.0, 6.0, 0.5},
  });
  const ValidationReport rep = validate_run(in, honest_run(in));
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.to_string(), "OK");
}

TEST(Validation, DetectsUnknownItem) {
  // An entry past the instance's last item, into a bin the run opened.
  const Instance in = make_instance({{0.0, 1.0, 0.5}});
  RunResult r = honest_run(in);
  r.placements.push_back(0);
  const ValidationReport rep = validate_run(in, r);
  EXPECT_TRUE(reports(rep, "placement count 2 != item count 1"))
      << rep.to_string();
  EXPECT_EQ(rep.issues.size(), 1u) << rep.to_string();
}

TEST(Validation, DetectsPlacementIntoBinNeverOpened) {
  // A placement naming a bin the run never opened is reported, not read
  // out of bounds; the bin it should name is then left empty.
  const Instance in = make_instance({{0.0, 1.0, 0.5}, {0.0, 1.0, 0.4}});
  for (const BinId bogus : {BinId{7}, BinId{1}, kNoBin}) {
    RunResult r = honest_run(in);
    ASSERT_EQ(r.bins.size(), 1u);
    r.placements[1] = bogus;
    const ValidationReport rep = validate_run(in, r);
    EXPECT_TRUE(reports(rep, "item 1 placed in bin " + std::to_string(bogus) +
                                 ", which the run never opened"))
        << rep.to_string();
    EXPECT_EQ(rep.issues.size(), 1u) << rep.to_string();
  }
  RunResult r = honest_run(in);
  r.placements[0] = 3;
  r.placements[1] = 3;
  const ValidationReport rep = validate_run(in, r);
  EXPECT_TRUE(reports(rep, "bin 0 never held an item")) << rep.to_string();
}

TEST(Validation, DetectsMissingPlacement) {
  const Instance in = make_instance({{0.0, 1.0, 0.5}, {0.0, 1.0, 0.4}});
  RunResult r = honest_run(in);
  r.placements.pop_back();
  const ValidationReport rep = validate_run(in, r);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(reports(rep, "placement count 1 != item count 2"))
      << rep.to_string();
}

TEST(Validation, DetectsDoublePlacement) {
  const Instance in = make_instance({{0.0, 1.0, 0.5}, {0.0, 1.0, 0.4}});
  RunResult r = honest_run(in);
  // A repeated entry is one placement too many; it is not read as an item.
  r.placements.push_back(r.placements.front());
  const ValidationReport rep = validate_run(in, r);
  EXPECT_TRUE(reports(rep, "placement count 3 != item count 2"))
      << rep.to_string();
  EXPECT_EQ(rep.issues.size(), 1u) << rep.to_string();
}

TEST(Validation, DetectsBinStillOpen) {
  const Instance in = make_instance({{0.0, 2.0, 0.5}});
  RunResult r = honest_run(in);
  r.bins[0].closed = kInfTime;
  const ValidationReport rep = validate_run(in, r);
  EXPECT_TRUE(reports(rep, "bin 0 still open at end of run"))
      << rep.to_string();
}

TEST(Validation, DetectsBinThatNeverHeldAnItem) {
  const Instance in = make_instance({{0.0, 2.0, 0.5}});
  RunResult r = honest_run(in);
  BinRecord idle;
  idle.id = 1;
  idle.opened = 0.0;
  idle.closed = 0.0;
  r.bins.push_back(idle);
  r.bins_opened = 2;
  const ValidationReport rep = validate_run(in, r);
  EXPECT_TRUE(reports(rep, "bin 1 never held an item")) << rep.to_string();
  EXPECT_EQ(rep.issues.size(), 1u) << rep.to_string();
}

TEST(Validation, DetectsOverloadedBin) {
  const Instance in = make_instance({{0.0, 2.0, 0.7}, {0.0, 2.0, 0.7}});
  RunResult r = honest_run(in);
  ASSERT_EQ(r.bins.size(), 2u);
  // Forge: claim both items sat in bin 0, and drop the now-empty bin.
  r.placements = {0, 0};
  r.bins.pop_back();
  r.cost = 2.0;
  r.bins_opened = 1;
  const ValidationReport rep = validate_run(in, r);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(reports(rep, "bin 0 overloaded")) << rep.to_string();
}

TEST(Validation, DetectsCostMismatch) {
  const Instance in = make_instance({{0.0, 2.0, 0.5}});
  RunResult r = honest_run(in);
  r.cost += 1.0;
  const ValidationReport rep = validate_run(in, r);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(reports(rep, "!= sum of bin spans")) << rep.to_string();
}

TEST(Validation, DetectsBinOpenedAfterItsItemArrived) {
  const Instance in = make_instance({{0.0, 2.0, 0.5}});
  RunResult r = honest_run(in);
  r.bins[0].opened = 1.0;
  r.cost = 1.0;
  const ValidationReport rep = validate_run(in, r);
  EXPECT_TRUE(reports(rep, "bin 0 opened after item 0 arrived"))
      << rep.to_string();
}

TEST(Validation, DetectsBinOpenedBeforeItsFirstItem) {
  const Instance in = make_instance({{0.0, 2.0, 0.5}});
  RunResult r = honest_run(in);
  r.bins[0].opened = -1.0;
  r.cost = 3.0;
  const ValidationReport rep = validate_run(in, r);
  EXPECT_TRUE(reports(rep, "bin 0 opened at -1.000000 but first item "
                           "arrived at 0.000000"))
      << rep.to_string();
}

TEST(Validation, DetectsBinLifetimeViolation) {
  const Instance in = make_instance({{0.0, 2.0, 0.5}});
  RunResult r = honest_run(in);
  r.bins[0].closed = 1.0;  // claims to close before the item departs
  const ValidationReport rep = validate_run(in, r);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(reports(rep, "bin 0 closed before item 0 departed"))
      << rep.to_string();
}

TEST(Validation, DetectsBinClosedAfterItsLastItem) {
  const Instance in = make_instance({{0.0, 2.0, 0.5}});
  RunResult r = honest_run(in);
  r.bins[0].closed = 3.0;
  r.cost = 3.0;
  const ValidationReport rep = validate_run(in, r);
  EXPECT_TRUE(reports(rep, "bin 0 closed at 3.000000 but last item departed "
                           "at 2.000000"))
      << rep.to_string();
}

TEST(Validation, DetectsGapInsideBinSpan) {
  // A bin holding two disjoint items must have closed in between; a record
  // spanning across the gap is invalid.
  const Instance in = make_instance({{0.0, 1.0, 0.5}, {3.0, 4.0, 0.5}});
  RunResult r = honest_run(in);
  ASSERT_EQ(r.bins.size(), 2u);
  RunResult forged = r;
  forged.bins[0].closed = 4.0;
  forged.bins.pop_back();
  forged.bins_opened = 1;
  forged.cost = 4.0;
  forged.placements = {0, 0};
  const ValidationReport rep = validate_run(in, forged);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(reports(rep, "bin 0 was empty strictly inside its recorded span"))
      << rep.to_string();
}

TEST(Validation, DetectsBinsOpenedMismatch) {
  const Instance in = make_instance({{0.0, 2.0, 0.5}});
  RunResult r = honest_run(in);
  r.bins_opened = 5;
  const ValidationReport rep = validate_run(in, r);
  EXPECT_TRUE(reports(rep, "bins_opened mismatch")) << rep.to_string();
  EXPECT_EQ(rep.issues.size(), 1u) << rep.to_string();
}

TEST(Validation, ReportListsAllIssues) {
  const Instance in = make_instance({{0.0, 2.0, 0.5}});
  RunResult r = honest_run(in);
  r.cost += 1.0;
  r.placements.clear();
  const ValidationReport rep = validate_run(in, r);
  EXPECT_GE(rep.issues.size(), 2u);
  EXPECT_NE(rep.to_string().find("issue"), std::string::npos);
}

}  // namespace
}  // namespace cdbp
