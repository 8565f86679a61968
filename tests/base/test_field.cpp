#include "base/field.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace foam {
namespace {

TEST(Field2D, ConstructsWithInit) {
  Field2Dd f(4, 3, 2.5);
  EXPECT_EQ(f.nx(), 4);
  EXPECT_EQ(f.ny(), 3);
  EXPECT_EQ(f.size(), 12u);
  EXPECT_DOUBLE_EQ(f(3, 2), 2.5);
}

TEST(Field2D, LayoutIsXFastest) {
  Field2Dd f(4, 3);
  f(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(f.data()[2 * 4 + 1], 7.0);
}

TEST(Field2D, WrapXIsPeriodic) {
  Field2Dd f(4, 2);
  f(0, 1) = 5.0;
  f(3, 1) = 9.0;
  EXPECT_DOUBLE_EQ(f.wrap_x(4, 1), 5.0);
  EXPECT_DOUBLE_EQ(f.wrap_x(-1, 1), 9.0);
  EXPECT_DOUBLE_EQ(f.wrap_x(-5, 1), 9.0);
}

TEST(Field2D, Arithmetic) {
  Field2Dd a(2, 2, 1.0);
  Field2Dd b(2, 2, 3.0);
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 0), 4.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0);
  a *= 5.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 5.0);
}

TEST(Field2D, Reductions) {
  Field2Dd f(2, 2);
  f(0, 0) = -4.0;
  f(1, 0) = 2.0;
  f(0, 1) = 1.0;
  f(1, 1) = 3.0;
  EXPECT_DOUBLE_EQ(f.min(), -4.0);
  EXPECT_DOUBLE_EQ(f.max(), 3.0);
  EXPECT_DOUBLE_EQ(f.sum(), 2.0);
  EXPECT_DOUBLE_EQ(f.mean(), 0.5);
  EXPECT_DOUBLE_EQ(f.max_abs(), 4.0);
}

TEST(Field2D, ShapeMismatchThrows) {
  Field2Dd a(2, 2);
  Field2Dd b(3, 2);
  EXPECT_THROW(a += b, Error);
}

TEST(Field2D, RejectsBadDims) {
  EXPECT_THROW(Field2Dd(0, 3), Error);
  EXPECT_THROW(Field2Dd(3, -1), Error);
}

TEST(Field3D, LayoutAndLevelPointer) {
  Field3Dd f(3, 2, 4);
  f(1, 1, 2) = 11.0;
  EXPECT_DOUBLE_EQ(f.data()[(2 * 2 + 1) * 3 + 1], 11.0);
  EXPECT_DOUBLE_EQ(f.level(2)[1 * 3 + 1], 11.0);
}

TEST(Field3D, WrapX) {
  Field3Dd f(4, 2, 2);
  f(0, 0, 1) = 3.0;
  EXPECT_DOUBLE_EQ(f.wrap_x(4, 0, 1), 3.0);
}

TEST(Field, WrapXMatchesModulo) {
  // The in-range and one-period-out cases take a compare-and-add fast path;
  // everything further out falls back to the division. Both must agree
  // with the plain modulo for every index, positive or negative.
  for (const int nx : {1, 2, 5, 128}) {
    Field2D<int> f2(nx, 2);
    Field3D<int> f3(nx, 2, 3);
    for (int i = 0; i < nx; ++i) {
      f2(i, 1) = i;
      f3(i, 1, 2) = i;
    }
    for (int i = -3 * nx; i < 3 * nx; ++i) {
      const int want = ((i % nx) + nx) % nx;
      EXPECT_EQ(f2.wrap_x(i, 1), want) << "nx=" << nx << " i=" << i;
      EXPECT_EQ(f3.wrap_x(i, 1, 2), want) << "nx=" << nx << " i=" << i;
    }
  }
}

TEST(HasNonFinite, DetectsNanAndInf) {
  Field2Dd f(2, 2, 1.0);
  EXPECT_FALSE(has_non_finite(f));
  f(1, 0) = std::nan("");
  EXPECT_TRUE(has_non_finite(f));
  f(1, 0) = INFINITY;
  EXPECT_TRUE(has_non_finite(f));
}

}  // namespace
}  // namespace foam
