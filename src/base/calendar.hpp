#pragma once

/// \file calendar.hpp
/// 365-day (no-leap) model calendar and elapsed-time bookkeeping.
///
/// FOAM integrates for centuries; the calendar therefore works in whole
/// seconds held in a 64-bit counter and provides the day-of-year / month
/// decompositions needed by the solar geometry and climatology codes.

#include <cstdint>
#include <string>

#include "base/constants.hpp"
#include "base/error.hpp"

namespace foam {

/// Lengths of the months in the no-leap calendar.
inline constexpr int kMonthDays[12] = {31, 28, 31, 30, 31, 30,
                                       31, 31, 30, 31, 30, 31};

/// A point in model time, measured in seconds since year 0, day 0, 00:00.
class ModelTime {
 public:
  ModelTime() = default;
  explicit ModelTime(std::int64_t seconds) : seconds_(seconds) {
    FOAM_REQUIRE(seconds >= 0, "negative model time");
  }

  static ModelTime from_ymd(int year, int month, int day,
                            double second_of_day = 0.0);

  std::int64_t seconds() const { return seconds_; }
  double days() const {
    return static_cast<double>(seconds_) / constants::seconds_per_day;
  }
  double years() const { return days() / 365.0; }

  int year() const { return static_cast<int>(seconds_ / kSecondsPerYear); }
  /// Day within the year, in [0, 365).
  int day_of_year() const {
    return static_cast<int>((seconds_ % kSecondsPerYear) /
                            constants::seconds_per_day_i);
  }
  /// Month within the year, in [0, 12).
  int month() const;
  /// Day within the month, in [0, kMonthDays[month()]).
  int day_of_month() const;
  /// Seconds elapsed within the current day, in [0, seconds_per_day).
  int second_of_day() const {
    return static_cast<int>(seconds_ % constants::seconds_per_day_i);
  }
  /// Fractional day of year in [0, 365); used for solar declination.
  double fractional_day_of_year() const {
    return static_cast<double>(seconds_ % kSecondsPerYear) /
           constants::seconds_per_day;
  }

  ModelTime& advance(std::int64_t dt_seconds) {
    FOAM_REQUIRE(seconds_ + dt_seconds >= 0, "time underflow");
    seconds_ += dt_seconds;
    return *this;
  }

  friend bool operator==(ModelTime a, ModelTime b) {
    return a.seconds_ == b.seconds_;
  }
  friend bool operator<(ModelTime a, ModelTime b) {
    return a.seconds_ < b.seconds_;
  }
  friend bool operator<=(ModelTime a, ModelTime b) {
    return a.seconds_ <= b.seconds_;
  }

  /// "Y0003-07-15 06:00:00" style string for logs.
  std::string to_string() const;

  static constexpr std::int64_t kSecondsPerYear =
      static_cast<std::int64_t>(365) * constants::seconds_per_day_i;

 private:
  std::int64_t seconds_ = 0;
};

/// Fixed-step clock that drives a component's time loop. Guards against the
/// classic coupled-model bug of components drifting out of step: steps are
/// counted, never accumulated in floating point.
class SteppedClock {
 public:
  SteppedClock(ModelTime start, std::int64_t dt_seconds)
      : start_(start), dt_(dt_seconds) {
    FOAM_REQUIRE(dt_seconds > 0, "dt=" << dt_seconds);
  }

  std::int64_t dt_seconds() const { return dt_; }
  std::int64_t step_count() const { return steps_; }
  ModelTime now() const { return ModelTime(start_.seconds() + steps_ * dt_); }
  void tick() { ++steps_; }

  /// True when this clock's current time is an exact multiple of \p
  /// period_seconds from the start (e.g. "is it time to call the ocean?").
  bool aligned(std::int64_t period_seconds) const {
    FOAM_REQUIRE(period_seconds > 0, "period=" << period_seconds);
    return (steps_ * dt_) % period_seconds == 0;
  }

 private:
  ModelTime start_;
  std::int64_t dt_ = 0;
  std::int64_t steps_ = 0;
};

}  // namespace foam
