#pragma once

/// \file checks.hpp
/// Output checks behind the `ok_frac` metric: every prognostic field the
/// benchmark can see is finite, SST and the atmosphere's surface
/// temperature lie within physical bounds, and the final state has a
/// digest that must repeat exactly for one seed (the model is
/// deterministic).

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace foambench {

/// A copy of one field as one rank sees it (owned cells only).
struct FieldSnap {
  std::string name;
  int rank = 0;
  std::vector<double> values;
  /// Physical bounds; infinite = finiteness check only.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// Checks a final state field by field as the workload hands the fields
/// over, so no more than one field of it need be held at a time.
class StateCheck {
 public:
  /// With \p doctor_nan the middle value of the first non-empty field is
  /// checked as if it were NaN (the smoke test's proof that the check
  /// fires); the digest still covers the real value.
  explicit StateCheck(bool doctor_nan) : doctor_nan_(doctor_nan) {}

  void add(std::string_view name, int rank, std::span<const double> values,
           double lo = -std::numeric_limits<double>::infinity(),
           double hi = std::numeric_limits<double>::infinity());
  void add(const FieldSnap& f) { add(f.name, f.rank, f.values, f.lo, f.hi); }

  bool ok() const { return failure_.empty(); }
  /// The first violation: field, rank, cell and value.
  const std::string& failure() const { return failure_; }
  /// FNV-1a over the bytes of every field, in the order added.
  std::uint64_t digest() const { return hash_; }

 private:
  bool doctor_nan_;
  std::string failure_;
  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace foambench
