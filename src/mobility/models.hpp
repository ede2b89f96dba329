// UE mobility: the random-waypoint process behind the churn engine's
// move events (sim/churn.hpp).
//
// The paper motivates DMRA with an environment that "changes over time"
// (§V: the best association changes as UEs move). Each moving UE of a
// churn timeline owns one RandomWaypoint: pick a uniform destination,
// travel at a uniform speed, pause, repeat — the standard ad-hoc
// evaluation model.
#pragma once

#include "geometry/geometry.hpp"
#include "util/rng.hpp"

namespace dmra {

struct RandomWaypointConfig {
  Rect area{0.0, 0.0, 1200.0, 1200.0};
  double speed_min_mps = 1.0;
  double speed_max_mps = 15.0;
  double pause_s = 0.0;  ///< dwell time at each waypoint
};

/// One UE walking random waypoints. Deterministic per (start, config, rng).
class RandomWaypoint {
 public:
  RandomWaypoint(Point start, const RandomWaypointConfig& config, Rng rng);

  Point position() const { return position_; }

  /// Move forward by dt seconds.
  void advance(double dt_s);

 private:
  void pick_waypoint();

  RandomWaypointConfig config_;
  Rng rng_;
  Point position_;
  Point destination_;
  double speed_mps_ = 1.0;
  double pausing_ = 0.0;
};

}  // namespace dmra
