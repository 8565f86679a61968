#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

namespace foambench {

void StateCheck::add(std::string_view name, int rank,
                     std::span<const double> values, double lo, double hi) {
  for (const double v : values) {
    unsigned char b[sizeof(double)];
    std::memcpy(b, &v, sizeof b);
    for (const unsigned char c : b) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;
    }
  }
  std::size_t doctored = values.size();
  if (doctor_nan_ && !values.empty()) {
    doctored = values.size() / 2;
    doctor_nan_ = false;
  }
  if (!failure_.empty()) return;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = i == doctored ? std::nan("") : values[i];
    if (std::isfinite(v) && v >= lo && v <= hi) continue;
    std::ostringstream os;
    os << name << " on rank " << rank << " cell " << i << " = " << v;
    if (std::isfinite(v)) os << " outside [" << lo << ", " << hi << "]";
    failure_ = os.str();
    return;
  }
}

}  // namespace foambench
