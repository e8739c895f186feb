// The CSV codec that instance and request-stream files share
// (trace/trace.h): bit-exact round trips, bytes identical to "%.17g",
// parse_number against the two parsers it replaced, and mutated input.
#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <random>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "oracles/csv_number.h"
#include "serve/request_stream.h"
#include "trace/trace.h"

namespace cdbp::trace {
namespace {

using serve::ServeRequest;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Doubles whose text is easy to get wrong, then random bit patterns
/// (NaN excluded: its payload need not survive text). 2^53 + 1 itself
/// rounds to 2^53, so 2^53 + 2 stands in for it.
std::vector<double> hard_doubles(std::size_t random) {
  std::vector<double> v = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           1e-310,
                           DBL_MIN,
                           DBL_MAX,
                           -DBL_MAX,
                           1.0 / 3.0,
                           0x1p53 - 1,
                           0x1p53,
                           0x1p53 + 2,
                           1e-5,
                           1e16,
                           1e17,
                           kInf,
                           -kInf};
  std::mt19937_64 rng(2017);
  while (v.size() < 17 + random) {
    const double d = std::bit_cast<double>(rng());
    if (!std::isnan(d)) v.push_back(d);
  }
  return v;
}

std::string percent_17g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A stream whose arrivals are the values in ascending order and whose
/// departures and sizes are the values unsorted and reversed.
std::vector<ServeRequest> stream_of(std::vector<double> values) {
  std::vector<double> arrivals = values;
  std::sort(arrivals.begin(), arrivals.end());
  std::vector<ServeRequest> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i].tenant = "t";
    out[i].tenant += std::to_string(i % 7);
    out[i].stream_index = i + 1;
    out[i].arrival = arrivals[i];
    out[i].departure = values[i];
    out[i].size = values[values.size() - 1 - i];
  }
  return out;
}

/// A valid instance (finite times, departure > arrival, size in (0, 1])
/// that still carries ±0, subnormals, DBL_MAX and 2^53 - 1.
Instance instance_of(const std::vector<double>& values) {
  std::vector<double> arrivals;
  for (const double v : values)
    if (std::isfinite(v) && v < DBL_MAX) arrivals.push_back(v);
  std::sort(arrivals.begin(), arrivals.end());
  const std::vector<double> sizes = {std::numeric_limits<double>::denorm_min(),
                                     1e-310, DBL_MIN, 1.0 / 3.0, 1.0};
  std::mt19937_64 rng(53);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Instance out;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double a = arrivals[i];
    const double d = i % 3 == 0 ? DBL_MAX : std::nextafter(a, kInf);
    out.add(a, d, i < sizes.size() ? sizes[i] : unit(rng) + 0x1p-60);
  }
  out.finalize();
  return out;
}

TEST(CsvCodec, StreamCsvRoundTripsEveryDoubleBitForBit) {
  // 20k rows make ~1.4 MB of text: both sides cross their 1 MiB block.
  const std::vector<ServeRequest> in = stream_of(hard_doubles(20000));
  std::stringstream buf;
  serve::write_stream_csv(in, buf);
  ASSERT_GT(buf.str().size(), std::size_t{1} << 20);
  const std::vector<ServeRequest> back = serve::read_stream_csv(buf);
  ASSERT_EQ(back.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(back[i].tenant, in[i].tenant);
    EXPECT_EQ(back[i].stream_index, in[i].stream_index);
    EXPECT_EQ(bits(back[i].arrival), bits(in[i].arrival));
    EXPECT_EQ(bits(back[i].departure), bits(in[i].departure));
    EXPECT_EQ(bits(back[i].size), bits(in[i].size));
  }
}

TEST(CsvCodec, InstanceCsvRoundTripsEveryDoubleBitForBit) {
  const Instance in = instance_of(hard_doubles(20000));
  std::stringstream buf;
  write_instance_csv(in, buf);
  ASSERT_GT(buf.str().size(), std::size_t{1} << 20);
  const Instance back = read_instance_csv(buf);
  ASSERT_EQ(back.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(bits(back[i].arrival), bits(in[i].arrival));
    EXPECT_EQ(bits(back[i].departure), bits(in[i].departure));
    EXPECT_EQ(bits(back[i].size), bits(in[i].size));
  }
}

TEST(CsvCodec, WritersPrintWhatPercent17gPrints) {
  const std::vector<ServeRequest> stream = stream_of(hard_doubles(20000));
  std::string want = "tenant,arrival,departure,size\n";
  for (const ServeRequest& r : stream)
    want += r.tenant + ',' + percent_17g(r.arrival) + ',' +
            percent_17g(r.departure) + ',' + percent_17g(r.size) + '\n';
  std::ostringstream got;
  serve::write_stream_csv(stream, got);
  EXPECT_EQ(got.str(), want);

  const Instance instance = instance_of(hard_doubles(20000));
  want = "arrival,departure,size\n";
  for (const Item& r : instance.items())
    want += percent_17g(r.arrival) + ',' + percent_17g(r.departure) + ',' +
            percent_17g(r.size) + '\n';
  got.str("");
  write_instance_csv(instance, got);
  EXPECT_EQ(got.str(), want);
}

bool same(std::optional<double> a, std::optional<double> b) {
  if (!a || !b) return !a && !b;
  return (std::isnan(*a) && std::isnan(*b)) || bits(*a) == bits(*b);
}

TEST(CsvCodec, ParseNumberDiffersFromTheOldParsersOnlyWhereListed) {
  // Which of the replaced parsers parse_number agrees with: the stream
  // reader's strtod, the instance reader's trimmed stod, both, or neither
  // (then `want` is its result). Every entry but kBoth is a deliberate
  // difference, listed in CHANGES.md.
  enum class Agrees { kBoth, kStream, kInstance, kNeither };
  struct Case {
    std::string field;
    Agrees agrees;
    std::optional<double> want = std::nullopt;
  };
  const std::vector<Case> corpus = {
      {"1.5", Agrees::kBoth},
      {"-0", Agrees::kBoth},
      {" 1.5", Agrees::kBoth},
      {"\t-2", Agrees::kBoth},
      {"+1.5", Agrees::kBoth},
      {"+inf", Agrees::kBoth},
      {"+-1", Agrees::kBoth},
      {"++1", Agrees::kBoth},
      {"+ 1", Agrees::kBoth},
      {"+", Agrees::kBoth},
      {"inf", Agrees::kBoth},
      {"-Infinity", Agrees::kBoth},
      {"nan", Agrees::kBoth},
      {"-nan", Agrees::kBoth},
      {"nan(x)", Agrees::kBoth},
      {"nan(x)y", Agrees::kBoth},
      {"", Agrees::kBoth},
      {"   ", Agrees::kBoth},
      {"1.5abc", Agrees::kBoth},
      {"1e", Agrees::kBoth},
      {"1.5\r", Agrees::kBoth},
      {"1.5 0.25", Agrees::kBoth},
      // Trailing blanks: the stream reader refused them.
      {"1.5 ", Agrees::kInstance},
      {" 1.5\t", Agrees::kInstance},
      // Out of double's range: strtod gave ±inf or 0, stod threw.
      {"1e400", Agrees::kInstance},
      {"-1e400", Agrees::kInstance},
      {"1e-400", Agrees::kInstance},
      {"2.4703282292062327e-324", Agrees::kInstance},
      // Subnormals: stod threw on strtod's ERANGE.
      {"5e-324", Agrees::kStream},
      {"2.4703282292062328e-324", Agrees::kStream},
      {"2.2250738585072009e-308", Agrees::kStream},
      // Hex floats and other leading whitespace: both took them.
      {"0x1p-2", Agrees::kNeither},
      {"0X10", Agrees::kNeither},
      {"\v1", Agrees::kNeither},
      {"\f1", Agrees::kNeither},
  };
  for (const Case& c : corpus) {
    SCOPED_TRACE("field '" + c.field + "'");
    const std::optional<double> got = parse_number(c.field);
    const std::optional<double> stream = oracles::stream_csv_strtod(c.field);
    const std::optional<double> instance = oracles::instance_csv_stod(c.field);
    const bool with_stream =
        c.agrees == Agrees::kBoth || c.agrees == Agrees::kStream;
    const bool with_instance =
        c.agrees == Agrees::kBoth || c.agrees == Agrees::kInstance;
    EXPECT_EQ(same(got, stream), with_stream);
    EXPECT_EQ(same(got, instance), with_instance);
    if (c.agrees == Agrees::kNeither) {
      EXPECT_TRUE(same(got, c.want));
    }
  }
  // Whatever the writers print, all three read alike.
  for (const double v : hard_doubles(5000)) {
    if (std::fpclassify(v) == FP_SUBNORMAL) continue;  // stod throws
    const std::string text = percent_17g(v);
    SCOPED_TRACE(text);
    EXPECT_TRUE(same(parse_number(text), v));
    EXPECT_TRUE(same(oracles::stream_csv_strtod(text), v));
    EXPECT_TRUE(same(oracles::instance_csv_stod(text), v));
  }
}

/// The line number a reader error names, or 0 if it names none.
std::size_t named_line(const std::string& what) {
  const std::size_t at = what.rfind(" on line ");
  if (at == std::string::npos) return 0;
  const std::string digits = what.substr(at + 9);
  if (digits.empty() || digits.find_first_not_of("0123456789") !=
                            std::string::npos)
    return 0;
  return std::stoul(digits);
}

std::size_t error_line(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)serve::read_stream_csv(in);
  } catch (const std::runtime_error& e) {
    return named_line(e.what());
  }
  return 0;
}

TEST(CsvCodec, StreamReaderKeepsItsChecks) {
  std::istringstream ok(
      "tenant,arrival,departure,size\r\n# comment\n\nt0, 1 ,2\t,0.5\r\n"
      "t1,1,3,+0.25");
  const std::vector<ServeRequest> rows = serve::read_stream_csv(ok);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tenant, "t0");
  EXPECT_EQ(rows[0].stream_index, 1u);
  EXPECT_EQ(rows[0].arrival, 1.0);
  EXPECT_EQ(rows[0].departure, 2.0);
  EXPECT_EQ(rows[1].size, 0.25);
  EXPECT_EQ(rows[1].stream_index, 2u);

  EXPECT_EQ(error_line("t0,1,2\n"), 1u);               // too few fields
  EXPECT_EQ(error_line("t0,1,2,0.5,x\n"), 1u);         // too many
  EXPECT_EQ(error_line("t0,1,2,0.5,\n"), 1u);          // trailing comma
  EXPECT_EQ(error_line("# c\n,1,2,0.5\n"), 2u);        // empty tenant
  EXPECT_EQ(error_line("t0,2,3,0.5\nt1,1,3,0.5\n"), 2u);  // out of order
  EXPECT_EQ(error_line("t0,x,2,0.5\n"), 1u);           // not a number
  EXPECT_EQ(error_line("t0,1,2,0.5\ntenant,arrival,departure,size\n"), 2u);
  EXPECT_EQ(error_line("t0,1,2,0.5\r\n\r\nt0,1,2,0.5 x\r\n"), 3u);
}

/// Serves `text`, then fails the way a disk read error does.
class FailingBuf final : public std::streambuf {
 public:
  explicit FailingBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override { throw std::ios_base::failure("EIO"); }

 private:
  std::string text_;
};

TEST(CsvCodec, ReadErrorIsNotTheEndOfTheInput) {
  FailingBuf buf("t0,1,2,0.5\n");
  std::istream in(&buf);
  try {
    (void)serve::read_stream_csv(in);
    ADD_FAILURE() << "a failed read passed for the end of the stream";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("read failed"), std::string::npos)
        << e.what();
  }
}

TEST(CsvCodec, InstanceReaderSkipsCommentsAndNamesBadLines) {
  std::istringstream ok(
      "# generated\narrival,departure,size\n0,1,0.5\n# mid\n\n2,3,0.25\n");
  EXPECT_EQ(read_instance_csv(ok).size(), 2u);
  std::istringstream bad("arrival,departure,size\n0,1,0.5\n1,x,0.5\n");
  try {
    (void)read_instance_csv(bad);
    ADD_FAILURE() << "a bad number was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(named_line(e.what()), 3u) << e.what();
  }
}

TEST(CsvCodec, MutatedStreamCsvParsesOrNamesItsLine) {
  serve::StreamGenConfig gc;
  gc.target_items = 200;
  gc.seed = 5;
  std::ostringstream valid;
  serve::write_stream_csv(serve::generate_stream(gc), valid);
  const std::string base = valid.str();
  std::mt19937_64 rng(20170724);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  int parsed = 0, refused = 0;
  for (int k = 0; k < 3000; ++k) {
    std::string text = base;
    switch (k % 3) {
      case 0:  // flip 1-4 bytes
        for (std::size_t n = 1 + below(4); n > 0; --n)
          text[below(text.size())] ^= static_cast<char>(1 + below(255));
        break;
      case 1:  // truncate
        text.resize(below(text.size()));
        break;
      default: {  // splice a chunk of the file over another place in it
        const std::size_t from = below(text.size());
        const std::size_t len = 1 + below(64);
        text.replace(below(text.size()), below(64), base.substr(from, len));
      }
    }
    SCOPED_TRACE("mutation " + std::to_string(k));
    std::istringstream in(text);
    try {
      (void)serve::read_stream_csv(in);
      ++parsed;
    } catch (const std::runtime_error& e) {
      ++refused;
      const std::size_t line = named_line(e.what());
      const std::size_t lines =
          static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
      EXPECT_GE(line, 1u) << e.what();
      EXPECT_LE(line, lines) << e.what();
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace cdbp::trace
