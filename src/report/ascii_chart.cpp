#include "report/ascii_chart.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace cdbp::report {

namespace {

constexpr const char* kGlyphs = "*o+x#@%&";

double map_x(double x, bool log_x) { return log_x ? std::log2(std::max(x, 1.0)) : x; }

}  // namespace

std::string line_chart(const std::vector<Series>& series, int width,
                       int height, bool log_x) {
  double xmin = 1e300, xmax = -1e300, ymin = 1e300, ymax = -1e300;
  bool any = false;
  for (const Series& s : series)
    for (const auto& [x, y] : s.points) {
      const double mx = map_x(x, log_x);
      xmin = std::min(xmin, mx);
      xmax = std::max(xmax, mx);
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
      any = true;
    }
  if (!any) return "(no data)\n";
  if (xmax - xmin < 1e-12) xmax = xmin + 1.0;
  if (ymax - ymin < 1e-12) ymax = ymin + 1.0;
  ymin = std::min(ymin, 0.0);

  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width),
                                            ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char glyph = kGlyphs[si % 8];
    for (const auto& [x, y] : series[si].points) {
      const double fx = (map_x(x, log_x) - xmin) / (xmax - xmin);
      const double fy = (y - ymin) / (ymax - ymin);
      const int col = std::clamp(
          static_cast<int>(std::lround(fx * (width - 1))), 0, width - 1);
      const int row = std::clamp(
          static_cast<int>(std::lround((1.0 - fy) * (height - 1))), 0,
          height - 1);
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] =
          glyph;
    }
  }

  std::ostringstream os;
  os << std::setprecision(3);
  os << "y: [" << ymin << ", " << ymax << "]   x" << (log_x ? " (log2)" : "")
     << ": [" << xmin << ", " << xmax << "]\n";
  for (const std::string& row : grid) os << "|" << row << "|\n";
  os << "legend:";
  for (std::size_t si = 0; si < series.size(); ++si)
    os << "  " << kGlyphs[si % 8] << " = " << series[si].name;
  os << "\n";
  return os.str();
}

std::string instance_gantt(const Instance& instance, double time_scale) {
  std::vector<Item> items = instance.items();
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.length() != b.length()) return a.length() > b.length();
    return a.arrival < b.arrival;
  });
  const Time t0 = instance.horizon_start();
  const Time t1 = instance.horizon_end();
  const int cols =
      std::max(1, static_cast<int>(std::lround((t1 - t0) * time_scale)));
  std::ostringstream os;
  for (const Item& r : items) {
    std::string row(static_cast<std::size_t>(cols), '.');
    const int a = std::clamp(
        static_cast<int>(std::lround((r.arrival - t0) * time_scale)), 0,
        cols - 1);
    const int b = std::clamp(
        static_cast<int>(std::lround((r.departure - t0) * time_scale)) - 1, a,
        cols - 1);
    for (int c = a; c <= b; ++c) row[static_cast<std::size_t>(c)] = '=';
    os << std::setw(8) << r.length() << " |" << row << "| s="
       << std::setprecision(3) << r.size << "\n";
  }
  return os.str();
}

std::string packing_gantt(const Instance& instance, const RunResult& result,
                          double time_scale) {
  const Time t0 = instance.horizon_start();
  const Time t1 = instance.horizon_end();
  const int cols =
      std::max(1, static_cast<int>(std::lround((t1 - t0) * time_scale)));

  const ItemsByBin by_bin = items_by_bin(result);
  std::vector<BinRecord> bins = result.bins;
  std::sort(bins.begin(), bins.end(), [](const BinRecord& a,
                                         const BinRecord& b) {
    if (a.group != b.group) return a.group < b.group;
    return a.id < b.id;
  });

  std::ostringstream os;
  BinGroup prev_group = bins.empty() ? 0 : bins.front().group - 1;
  for (const BinRecord& bin : bins) {
    if (bin.group != prev_group) {
      os << "group " << bin.group << ":\n";
      prev_group = bin.group;
    }
    std::string row(static_cast<std::size_t>(cols), '.');
    for (ItemId id : by_bin.of(bin.id)) {
      const Item& r = instance[static_cast<std::size_t>(id)];
      const int a = std::clamp(
          static_cast<int>(std::lround((r.arrival - t0) * time_scale)), 0,
          cols - 1);
      const int b = std::clamp(
          static_cast<int>(std::lround((r.departure - t0) * time_scale)) - 1,
          a, cols - 1);
      const char glyph =
          kGlyphs[static_cast<std::size_t>(id) % 8];
      for (int c = a; c <= b; ++c) {
        char& cell = row[static_cast<std::size_t>(c)];
        cell = cell == '.' ? glyph : '#';  // '#' marks stacked items
      }
    }
    os << "  bin " << std::setw(3) << bin.id << " |" << row << "| span="
       << std::setprecision(4) << bin.usage(bin.closed) << "\n";
  }
  return os.str();
}

}  // namespace cdbp::report
