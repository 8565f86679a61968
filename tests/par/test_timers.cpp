#include "par/timers.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace foam::par {
namespace {

void spin_for_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(RegionName, CoversAll) {
  EXPECT_STREQ(region_name(Region::kAtmosphere), "atmosphere");
  EXPECT_STREQ(region_name(Region::kCoupler), "coupler");
  EXPECT_STREQ(region_name(Region::kOcean), "ocean");
  EXPECT_STREQ(region_name(Region::kIdle), "idle");
  EXPECT_STREQ(region_name(Region::kOther), "other");
  EXPECT_STREQ(region_name(Region::kCommWait), "comm-wait");
  // kRegionCount must cover every enumerator (benches size arrays with it).
  EXPECT_EQ(static_cast<int>(Region::kCommWait) + 1, kRegionCount);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  spin_for_ms(10);
  const double t = sw.seconds();
  EXPECT_GE(t, 0.005);
  sw.restart();
  EXPECT_LT(sw.seconds(), t);
}

}  // namespace
}  // namespace foam::par
