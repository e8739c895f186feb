#include "core/checkpoint.h"

#include <stdexcept>

namespace cdbp {

std::string_view StateReader::take(std::uint64_t n) {
  if (n > data_.size() - pos_)
    throw std::runtime_error("checkpoint: truncated state");
  const std::string_view s = data_.substr(pos_, n);
  pos_ += n;
  return s;
}

}  // namespace cdbp
