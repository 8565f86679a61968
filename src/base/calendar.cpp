#include "base/calendar.hpp"

#include <cstdio>

namespace foam {

ModelTime ModelTime::from_ymd(int year, int month, int day,
                              double second_of_day) {
  FOAM_REQUIRE(year >= 0, "year=" << year);
  FOAM_REQUIRE(month >= 0 && month < 12, "month=" << month);
  FOAM_REQUIRE(day >= 0 && day < kMonthDays[month], "day=" << day);
  FOAM_REQUIRE(
      second_of_day >= 0.0 && second_of_day < constants::seconds_per_day,
      "second_of_day=" << second_of_day);
  std::int64_t doy = 0;
  for (int m = 0; m < month; ++m) doy += kMonthDays[m];
  doy += day;
  return ModelTime(static_cast<std::int64_t>(year) * kSecondsPerYear +
                   doy * constants::seconds_per_day_i +
                   static_cast<std::int64_t>(second_of_day));
}

int ModelTime::month() const {
  int doy = day_of_year();
  for (int m = 0; m < 12; ++m) {
    if (doy < kMonthDays[m]) return m;
    doy -= kMonthDays[m];
  }
  return 11;  // unreachable for valid day_of_year
}

int ModelTime::day_of_month() const {
  int doy = day_of_year();
  for (int m = 0; m < 12; ++m) {
    if (doy < kMonthDays[m]) return doy;
    doy -= kMonthDays[m];
  }
  return doy;
}

std::string ModelTime::to_string() const {
  const int sod = second_of_day();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Y%04d-%02d-%02d %02d:%02d:%02d", year(),
                month() + 1, day_of_month() + 1, sod / 3600, (sod / 60) % 60,
                sod % 60);
  return buf;
}

}  // namespace foam
