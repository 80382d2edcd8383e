#include "src/market/price_series.h"

#include <algorithm>

#include "src/common/logging.h"

namespace proteus {

PriceSeries::PriceSeries(std::vector<PricePoint> points) : points_(std::move(points)) {
  for (std::size_t i = 1; i < points_.size(); ++i) {
    PROTEUS_CHECK_GT(points_[i].time, points_[i - 1].time) << "price points must be increasing";
  }
}

void PriceSeries::Append(SimTime time, Money price) {
  if (!points_.empty()) {
    PROTEUS_CHECK_GT(time, points_.back().time);
  }
  points_.push_back({time, price});
}

SimTime PriceSeries::start_time() const {
  PROTEUS_CHECK(!points_.empty());
  return points_.front().time;
}

SimTime PriceSeries::end_time() const {
  PROTEUS_CHECK(!points_.empty());
  return points_.back().time;
}

std::size_t PriceSeries::IndexAt(SimTime t) const {
  PROTEUS_CHECK(!points_.empty());
  // First point with time > t, then step back.
  auto it = std::upper_bound(points_.begin(), points_.end(), t,
                             [](SimTime value, const PricePoint& p) { return value < p.time; });
  if (it == points_.begin()) {
    return 0;
  }
  return static_cast<std::size_t>(std::distance(points_.begin(), it)) - 1;
}

Money PriceSeries::PriceAt(SimTime t) const { return points_[IndexAt(t)].price; }

std::optional<SimTime> PriceSeries::FirstTimeAbove(Money bid, SimTime from, SimTime horizon) const {
  const std::size_t at = IndexAt(from);
  if (points_[at].price > bid) {
    return from;
  }
  for (std::size_t i = at + 1; i < points_.size(); ++i) {
    if (points_[i].time > horizon) {
      break;
    }
    if (points_[i].price > bid) {
      return points_[i].time;
    }
  }
  return std::nullopt;
}

Money PriceSeries::MinPrice(SimTime from, SimTime to) const {
  const std::size_t at = IndexAt(from);
  Money best = points_[at].price;
  for (std::size_t i = at + 1; i < points_.size() && points_[i].time <= to; ++i) {
    best = std::min(best, points_[i].price);
  }
  return best;
}

Money PriceSeries::MaxPrice(SimTime from, SimTime to) const {
  const std::size_t at = IndexAt(from);
  Money best = points_[at].price;
  for (std::size_t i = at + 1; i < points_.size() && points_[i].time <= to; ++i) {
    best = std::max(best, points_[i].price);
  }
  return best;
}

Money PriceSeries::AveragePrice(SimTime from, SimTime to) const {
  PROTEUS_CHECK_GT(to, from);
  double weighted = 0.0;
  SimTime cursor = from;
  const std::size_t at = IndexAt(from);
  Money current = points_[at].price;
  for (std::size_t i = at + 1; i < points_.size() && points_[i].time < to; ++i) {
    weighted += current * (points_[i].time - cursor);
    cursor = points_[i].time;
    current = points_[i].price;
  }
  weighted += current * (to - cursor);
  return weighted / (to - from);
}

}  // namespace proteus
