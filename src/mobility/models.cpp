#include "mobility/models.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace dmra {

RandomWaypoint::RandomWaypoint(Point start, const RandomWaypointConfig& config, Rng rng)
    : config_(config), rng_(std::move(rng)), position_(start) {
  DMRA_REQUIRE(config_.speed_min_mps > 0.0);
  DMRA_REQUIRE(config_.speed_min_mps <= config_.speed_max_mps);
  DMRA_REQUIRE(config_.pause_s >= 0.0);
  pick_waypoint();
}

void RandomWaypoint::advance(double dt_s) {
  DMRA_REQUIRE(dt_s >= 0.0);
  double remaining = dt_s;
  while (remaining > 0.0) {
    if (pausing_ > 0.0) {
      const double pause = std::min(pausing_, remaining);
      pausing_ -= pause;
      remaining -= pause;
      continue;
    }
    const double dist = distance_m(position_, destination_);
    const double reach = speed_mps_ * remaining;
    if (reach >= dist) {
      // Arrive, start the pause, then a new leg.
      position_ = destination_;
      remaining -= speed_mps_ > 0.0 ? dist / speed_mps_ : remaining;
      pausing_ = config_.pause_s;
      pick_waypoint();
    } else {
      const double frac = reach / dist;
      position_.x += (destination_.x - position_.x) * frac;
      position_.y += (destination_.y - position_.y) * frac;
      remaining = 0.0;
    }
  }
}

void RandomWaypoint::pick_waypoint() {
  destination_ = {rng_.uniform_real(config_.area.x0, config_.area.x1),
                  rng_.uniform_real(config_.area.y0, config_.area.y1)};
  speed_mps_ = rng_.uniform_real(config_.speed_min_mps, config_.speed_max_mps);
}

}  // namespace dmra
