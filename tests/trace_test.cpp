#include "trace/trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/simulator.h"
#include "test_util.h"

namespace cdbp::trace {
namespace {

TEST(Trace, InstanceRoundTripsExactly) {
  const Instance in = testutil::make_instance({
      {0.0, 8.0, 0.25},
      {1.5, 3.25, 1.0 / 3.0},  // non-dyadic size survives (17 sig digits)
      {2.0, 66.0, 0.875},
  });
  std::stringstream buf;
  write_instance_csv(in, buf);
  const Instance back = read_instance_csv(buf);
  ASSERT_EQ(back.size(), in.size());
  for (std::size_t k = 0; k < in.size(); ++k) {
    EXPECT_DOUBLE_EQ(back[k].arrival, in[k].arrival);
    EXPECT_DOUBLE_EQ(back[k].departure, in[k].departure);
    EXPECT_DOUBLE_EQ(back[k].size, in[k].size);
  }
}

TEST(Trace, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cdbp_trace_test.csv")
          .string();
  const Instance in = testutil::make_instance({{0.0, 4.0, 0.5}});
  write_instance_csv(in, path);
  const Instance back = read_instance_csv(path);
  EXPECT_EQ(back.size(), 1u);
  EXPECT_DOUBLE_EQ(back[0].departure, 4.0);
  std::remove(path.c_str());
}

TEST(Trace, RejectsMissingHeader) {
  std::stringstream buf("1,2,0.5\n");
  EXPECT_THROW((void)read_instance_csv(buf), std::runtime_error);
}

TEST(Trace, RejectsMalformedLine) {
  std::stringstream buf("arrival,departure,size\n1,2\n");
  EXPECT_THROW((void)read_instance_csv(buf), std::runtime_error);
}

TEST(Trace, RejectsBadNumbers) {
  std::stringstream buf("arrival,departure,size\nx,2,0.5\n");
  EXPECT_THROW((void)read_instance_csv(buf), std::runtime_error);
}

TEST(Trace, RejectsTrailingGarbageAfterNumbers) {
  // std::stod would happily parse "1.5abc" as 1.5; the reader must not.
  for (const char* row : {"1.5abc,2,0.5", "1,2e1x,0.5", "1,2,0.5junk",
                          "1,2,0.5 0.25", "nan(x)y,2,0.5"}) {
    std::stringstream buf(std::string("arrival,departure,size\n") + row +
                          "\n");
    EXPECT_THROW((void)read_instance_csv(buf), std::runtime_error) << row;
  }
}

TEST(Trace, AllowsSurroundingBlanksInFields) {
  std::stringstream buf("arrival,departure,size\n 0 ,\t1 , 0.5\n");
  const Instance in = read_instance_csv(buf);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_DOUBLE_EQ(in[0].departure, 1.0);
}

TEST(Trace, RejectsExtraFields) {
  std::stringstream buf("arrival,departure,size\n1,2,0.5,0.25\n");
  EXPECT_THROW((void)read_instance_csv(buf), std::runtime_error);
}

TEST(Trace, CrlfInputRoundTrips) {
  std::stringstream buf(
      "arrival,departure,size\r\n0,1,0.5\r\n2,3,0.25\r\n");
  const Instance in = read_instance_csv(buf);
  ASSERT_EQ(in.size(), 2u);
  EXPECT_DOUBLE_EQ(in[0].size, 0.5);
  EXPECT_DOUBLE_EQ(in[1].arrival, 2.0);
}

TEST(Trace, RejectsEmptyFile) {
  std::stringstream buf("");
  EXPECT_THROW((void)read_instance_csv(buf), std::runtime_error);
}

TEST(Trace, SkipsBlankLines) {
  std::stringstream buf("arrival,departure,size\n0,1,0.5\n\n2,3,0.25\n");
  const Instance in = read_instance_csv(buf);
  EXPECT_EQ(in.size(), 2u);
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW((void)read_instance_csv(std::string("/no/such/file.csv")),
               std::runtime_error);
}

TEST(Trace, TimelineCsv) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cdbp_timeline_test.csv")
          .string();
  const Instance in =
      testutil::make_instance({{0.0, 2.0, 0.9}, {1.0, 3.0, 0.9}});
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  write_timeline_csv(r, path);
  std::ifstream check(path);
  std::string header;
  std::getline(check, header);
  EXPECT_EQ(header, "time,open_bins");
  int lines = 0;
  std::string line;
  while (std::getline(check, line)) ++lines;
  EXPECT_GE(lines, 2);
  std::remove(path.c_str());
}

TEST(Trace, TimelineOstreamOverloadMatchesFileOverload) {
  const Instance in =
      testutil::make_instance({{0.0, 2.0, 0.9}, {1.0, 3.0, 0.9}});
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);

  std::ostringstream buf;
  write_timeline_csv(r, buf);

  const std::string path =
      (std::filesystem::temp_directory_path() / "cdbp_timeline_ostream.csv")
          .string();
  write_timeline_csv(r, path);
  std::ifstream file(path, std::ios::binary);
  std::ostringstream file_body;
  file_body << file.rdbuf();
  EXPECT_EQ(buf.str(), file_body.str());
  std::remove(path.c_str());

  // Round-trip: parse the CSV back and compare against the step function.
  std::istringstream parse(buf.str());
  std::string line;
  ASSERT_TRUE(std::getline(parse, line));
  EXPECT_EQ(line, "time,open_bins");
  const auto samples = open_bins_profile(r.bins, kInfTime).samples();
  std::size_t k = 0;
  while (std::getline(parse, line)) {
    const auto comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    ASSERT_LT(k, samples.size());
    EXPECT_DOUBLE_EQ(std::stod(line.substr(0, comma)), samples[k].time);
    EXPECT_DOUBLE_EQ(std::stod(line.substr(comma + 1)), samples[k].value);
    ++k;
  }
  EXPECT_EQ(k, samples.size());
}

}  // namespace
}  // namespace cdbp::trace
