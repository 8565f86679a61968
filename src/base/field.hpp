#pragma once

/// \file field.hpp
/// Dense 2-D and 3-D field containers used throughout FOAM.
///
/// Layout conventions:
///   Field2D(nx, ny)      — x (longitude) fastest, index (i, j)
///   Field3D(nx, ny, nz)  — x fastest, then y, then z, index (i, j, k)
///
/// Fields are value types with contiguous storage; they are cheap to move and
/// deliberately expensive-looking to copy (explicit copy is allowed — fields
/// are small at FOAM resolutions).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "base/error.hpp"

namespace foam {

namespace detail {
/// Validate dimensions before any allocation happens.
inline std::size_t checked_size(int nx, int ny, int nz) {
  FOAM_REQUIRE(nx > 0 && ny > 0 && nz > 0,
               "field dims " << nx << "x" << ny << "x" << nz);
  return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
         static_cast<std::size_t>(nz);
}
/// i modulo n in [0, n). Stencil neighbours are at most one period out of
/// range, so that case is a compare and an add; the division is the
/// fallback for anything further out.
inline int wrap_index(int i, int n) {
  if (i >= 0) {
    if (i < n) return i;
    if (i - n < n) return i - n;
  } else if (i >= -n) {
    return i + n;
  }
  const int m = i % n;
  return m < 0 ? m + n : m;
}

}  // namespace detail

using detail::checked_size;

/// Dense 2-D field with x-fastest layout.
template <typename T>
class Field2D {
 public:
  Field2D() = default;
  Field2D(int nx, int ny, T init = T{})
      : nx_(nx), ny_(ny), data_(checked_size(nx, ny, 1), init) {}

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(int i, int j) {
    FOAM_ASSERT(in_range(i, j), "(" << i << "," << j << ")");
    return data_[idx(i, j)];
  }
  const T& operator()(int i, int j) const {
    FOAM_ASSERT(in_range(i, j), "(" << i << "," << j << ")");
    return data_[idx(i, j)];
  }

  /// Periodic-in-x access: i is wrapped modulo nx. j must be in range.
  T& wrap_x(int i, int j) { return data_[idx(mod_x(i), j)]; }
  const T& wrap_x(int i, int j) const { return data_[idx(mod_x(i), j)]; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::vector<T>& vec() { return data_; }
  const std::vector<T>& vec() const { return data_; }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  bool same_shape(const Field2D& o) const {
    return nx_ == o.nx_ && ny_ == o.ny_;
  }

  Field2D& operator+=(const Field2D& o) {
    FOAM_REQUIRE(same_shape(o), "shape mismatch");
    for (std::size_t n = 0; n < data_.size(); ++n) data_[n] += o.data_[n];
    return *this;
  }
  Field2D& operator-=(const Field2D& o) {
    FOAM_REQUIRE(same_shape(o), "shape mismatch");
    for (std::size_t n = 0; n < data_.size(); ++n) data_[n] -= o.data_[n];
    return *this;
  }
  Field2D& operator*=(T s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  T min() const { return *std::min_element(data_.begin(), data_.end()); }
  T max() const { return *std::max_element(data_.begin(), data_.end()); }
  T sum() const { return std::accumulate(data_.begin(), data_.end(), T{}); }
  T mean() const { return sum() / static_cast<T>(data_.size()); }

  /// Maximum absolute value; useful for stability diagnostics.
  T max_abs() const {
    T m{};
    for (const auto& v : data_) m = std::max(m, static_cast<T>(std::abs(v)));
    return m;
  }

 private:
  std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(j) * nx_ + i;
  }
  int mod_x(int i) const { return detail::wrap_index(i, nx_); }
  bool in_range(int i, int j) const {
    return i >= 0 && i < nx_ && j >= 0 && j < ny_;
  }

  int nx_ = 0;
  int ny_ = 0;
  std::vector<T> data_;
};

/// Dense 3-D field with x-fastest layout; k is the vertical index with
/// k = 0 at the top (atmosphere) or surface (ocean) as documented by each
/// component.
template <typename T>
class Field3D {
 public:
  Field3D() = default;
  Field3D(int nx, int ny, int nz, T init = T{})
      : nx_(nx), ny_(ny), nz_(nz), data_(checked_size(nx, ny, nz), init) {}

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(int i, int j, int k) {
    FOAM_ASSERT(in_range(i, j, k), "(" << i << "," << j << "," << k << ")");
    return data_[idx(i, j, k)];
  }
  const T& operator()(int i, int j, int k) const {
    FOAM_ASSERT(in_range(i, j, k), "(" << i << "," << j << "," << k << ")");
    return data_[idx(i, j, k)];
  }

  /// Periodic-in-x access.
  T& wrap_x(int i, int j, int k) { return data_[idx(mod_x(i), j, k)]; }
  const T& wrap_x(int i, int j, int k) const {
    return data_[idx(mod_x(i), j, k)];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::vector<T>& vec() { return data_; }
  const std::vector<T>& vec() const { return data_; }

  /// Pointer to the start of horizontal level k (contiguous nx*ny values).
  T* level(int k) { return data_.data() + idx(0, 0, k); }
  const T* level(int k) const { return data_.data() + idx(0, 0, k); }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  bool same_shape(const Field3D& o) const {
    return nx_ == o.nx_ && ny_ == o.ny_ && nz_ == o.nz_;
  }

  Field3D& operator+=(const Field3D& o) {
    FOAM_REQUIRE(same_shape(o), "shape mismatch");
    for (std::size_t n = 0; n < data_.size(); ++n) data_[n] += o.data_[n];
    return *this;
  }
  Field3D& operator*=(T s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  T min() const { return *std::min_element(data_.begin(), data_.end()); }
  T max() const { return *std::max_element(data_.begin(), data_.end()); }
  T max_abs() const {
    T m{};
    for (const auto& v : data_) m = std::max(m, static_cast<T>(std::abs(v)));
    return m;
  }

 private:
  std::size_t idx(int i, int j, int k) const {
    return (static_cast<std::size_t>(k) * ny_ + j) * nx_ + i;
  }
  int mod_x(int i) const { return detail::wrap_index(i, nx_); }
  bool in_range(int i, int j, int k) const {
    return i >= 0 && i < nx_ && j >= 0 && j < ny_ && k >= 0 && k < nz_;
  }

  int nx_ = 0;
  int ny_ = 0;
  int nz_ = 0;
  std::vector<T> data_;
};

using Field2Dd = Field2D<double>;
using Field3Dd = Field3D<double>;

/// True if any element is NaN or infinite.
template <typename F>
bool has_non_finite(const F& f) {
  for (std::size_t n = 0; n < f.size(); ++n)
    if (!std::isfinite(f.data()[n])) return true;
  return false;
}

}  // namespace foam
