#include "oracles/csv_number.h"

#include <cstdlib>
#include <exception>

namespace cdbp::oracles {

std::optional<double> stream_csv_strtod(const std::string& field) {
  const char* begin = field.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0') return std::nullopt;
  return v;
}

std::optional<double> instance_csv_stod(const std::string& field) {
  std::size_t begin = 0;
  while (begin < field.size() &&
         (field[begin] == ' ' || field[begin] == '\t'))
    ++begin;
  std::size_t end = field.size();
  while (end > begin && (field[end - 1] == ' ' || field[end - 1] == '\t'))
    --end;
  const std::string body = field.substr(begin, end - begin);
  std::size_t consumed = 0;
  double v = 0.0;
  try {
    v = std::stod(body, &consumed);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (consumed != body.size()) return std::nullopt;
  return v;
}

}  // namespace cdbp::oracles
