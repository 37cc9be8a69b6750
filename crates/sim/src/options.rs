//! The paper's high-level option space for driving (Sec. IV-B) and the
//! per-option continuous action bounds (Sec. IV-C).
//!
//! `A_h = [keep lane, slow down, accelerate, lane change]`. Each option
//! constrains the low-level `(linear, angular)` action space to the ranges
//! printed in the paper; [`ScriptedExecutor`] provides the fixed low-level
//! controller that the flat (end-to-end) baselines use to actuate a chosen
//! option for one step.

use crate::track::Track;
use crate::vehicle::{VehicleCommand, VehicleState};

/// A high-level driving option (the paper's discrete action space).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DrivingOption {
    /// Maintain the previous linear and angular speed.
    KeepLane,
    /// Reduce speed into the low range.
    SlowDown,
    /// Increase speed into the high range.
    Accelerate,
    /// Move to the adjacent lane.
    LaneChange,
}

impl DrivingOption {
    /// All options, indexable by [`DrivingOption::index`].
    pub const ALL: [DrivingOption; 4] = [
        DrivingOption::KeepLane,
        DrivingOption::SlowDown,
        DrivingOption::Accelerate,
        DrivingOption::LaneChange,
    ];

    /// Number of options.
    pub const COUNT: usize = 4;

    /// Stable index of this option in `[0, COUNT)`.
    pub fn index(self) -> usize {
        match self {
            DrivingOption::KeepLane => 0,
            DrivingOption::SlowDown => 1,
            DrivingOption::Accelerate => 2,
            DrivingOption::LaneChange => 3,
        }
    }

    /// Option for an index.
    ///
    /// # Panics
    ///
    /// Panics when `index >= COUNT`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// The paper's `(linear, angular)` action bounds for this option.
    /// Angular bounds are magnitudes; the environment resolves the steering
    /// sign toward the target lane.
    ///
    /// Returns `None` for [`DrivingOption::KeepLane`], which has no
    /// actuation freedom (speeds persist).
    pub fn action_bounds(self) -> Option<ActionBounds> {
        match self {
            DrivingOption::KeepLane => None,
            DrivingOption::SlowDown => Some(ActionBounds {
                linear: (0.04, 0.08),
                angular: (-0.1, 0.1),
            }),
            DrivingOption::Accelerate => Some(ActionBounds {
                linear: (0.08, 0.14),
                angular: (-0.1, 0.1),
            }),
            DrivingOption::LaneChange => Some(ActionBounds {
                linear: (0.1, 0.2),
                angular: (0.12, 0.25),
            }),
        }
    }
}

impl std::fmt::Display for DrivingOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DrivingOption::KeepLane => "keep-lane",
            DrivingOption::SlowDown => "slow-down",
            DrivingOption::Accelerate => "accelerate",
            DrivingOption::LaneChange => "lane-change",
        };
        f.write_str(name)
    }
}

/// Per-option `(lo, hi)` bounds of the continuous action space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActionBounds {
    /// Linear speed range (m/s).
    pub linear: (f32, f32),
    /// Angular speed range (rad/s); for lane change this is a magnitude.
    pub angular: (f32, f32),
}

impl ActionBounds {
    /// Maps a squashed action in `[-1, 1]^2` into these bounds.
    pub fn denormalize(&self, squashed_linear: f32, squashed_angular: f32) -> (f32, f32) {
        (
            affine(squashed_linear, self.linear),
            affine(squashed_angular, self.angular),
        )
    }
}

fn affine(x: f32, (lo, hi): (f32, f32)) -> f32 {
    lo + (x.clamp(-1.0, 1.0) + 1.0) / 2.0 * (hi - lo)
}

/// The fixed *single-step* actuation used by the flat baselines
/// (Independent DQN, COMA, MADDPG, MAAC): each chosen [`DrivingOption`]
/// maps to one primitive command, with no closed-loop maneuver control —
/// in-lane options merely straighten the heading, and lane change applies
/// a constant steering magnitude toward the adjacent lane. Completing a
/// clean lane change therefore requires the *algorithm* to sequence
/// steer / straighten decisions across steps, exactly the end-to-end
/// burden the paper contrasts HERO's learned low-level skills against.
///
/// Scripted background vehicles also use this executor (keep-lane only).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScriptedExecutor {
    /// Heading-straightening gain of the in-lane commands.
    pub k_head: f32,
    /// Constant steering magnitude of the one-step lane-change command.
    pub lane_change_steer: f32,
}

impl ScriptedExecutor {
    /// Creates an executor with the default gains.
    pub fn new() -> Self {
        Self {
            k_head: 0.8,
            lane_change_steer: 0.18,
        }
    }

    /// The command executing `option` for one step from `state`.
    ///
    /// In-lane options straighten the heading (they do **not** steer back
    /// to the lane center); lane change bang-bang steers toward the
    /// adjacent lane's center (lane 0 ↔ lane 1 on a two-lane track,
    /// toward lane 0 from higher lanes).
    pub fn command(
        &self,
        option: DrivingOption,
        state: &VehicleState,
        track: &Track,
    ) -> VehicleCommand {
        let straighten = (-self.k_head * state.heading).clamp(-0.1, 0.1);
        match option {
            DrivingOption::KeepLane => VehicleCommand::new(state.speed, straighten),
            DrivingOption::SlowDown => VehicleCommand::new(0.06, straighten),
            DrivingOption::Accelerate => VehicleCommand::new(0.11, straighten),
            DrivingOption::LaneChange => {
                let lane = state.lane(track);
                let target_d = track.lane_center(adjacent_lane(lane, track));
                let dir = (target_d - state.d).signum();
                VehicleCommand::new(0.15, self.lane_change_steer * dir)
            }
        }
    }
}

/// Resolves the signed steering command for a lane-change maneuver from a
/// learned steering *magnitude*: steer toward the target lane center while
/// the lateral error is large, then counter-steer to straighten out — the
/// same division of labor the paper's testbed uses (road geometry supplies
/// the direction, the policy supplies speeds).
pub fn resolve_lane_change_steering(state: &VehicleState, target_d: f32, magnitude: f32) -> f32 {
    let err = target_d - state.d;
    if err.abs() > 0.08 {
        magnitude.abs() * err.signum()
    } else {
        (-2.0 * state.heading).clamp(-0.25, 0.25)
    }
}

/// The adjacent lane a lane change from `lane` targets.
pub fn adjacent_lane(lane: usize, track: &Track) -> usize {
    if lane + 1 < track.num_lanes {
        lane + 1
    } else {
        lane.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_index_roundtrip() {
        for o in DrivingOption::ALL {
            assert_eq!(DrivingOption::from_index(o.index()), o);
        }
    }

    #[test]
    fn bounds_match_paper() {
        let slow = DrivingOption::SlowDown.action_bounds().unwrap();
        assert_eq!(slow.linear, (0.04, 0.08));
        let acc = DrivingOption::Accelerate.action_bounds().unwrap();
        assert_eq!(acc.linear, (0.08, 0.14));
        let lc = DrivingOption::LaneChange.action_bounds().unwrap();
        assert_eq!(lc.linear, (0.1, 0.2));
        assert_eq!(lc.angular, (0.12, 0.25));
        assert!(DrivingOption::KeepLane.action_bounds().is_none());
    }

    #[test]
    fn denormalize_covers_range() {
        let b = DrivingOption::SlowDown.action_bounds().unwrap();
        assert_eq!(b.denormalize(-1.0, -1.0), (0.04, -0.1));
        assert_eq!(b.denormalize(1.0, 1.0), (0.08, 0.1));
        let (mid, _) = b.denormalize(0.0, 0.0);
        assert!((mid - 0.06).abs() < 1e-6);
        // Out-of-range squashed inputs are clamped.
        assert_eq!(b.denormalize(5.0, -5.0), (0.08, -0.1));
    }

    #[test]
    fn scripted_lane_change_steers_up_from_lane0() {
        let t = Track::double_lane();
        let exec = ScriptedExecutor::new();
        let state = VehicleState {
            d: 0.2,
            ..Default::default()
        };
        let cmd = exec.command(DrivingOption::LaneChange, &state, &t);
        assert!(cmd.angular > 0.0, "should steer toward lane 1");
    }

    #[test]
    fn scripted_lane_change_steers_down_from_top_lane() {
        let t = Track::double_lane();
        let exec = ScriptedExecutor::new();
        let state = VehicleState {
            d: 0.6,
            ..Default::default()
        };
        let cmd = exec.command(DrivingOption::LaneChange, &state, &t);
        assert!(cmd.angular < 0.0, "should steer toward lane 0");
    }

    #[test]
    fn scripted_keep_lane_straightens_but_does_not_recenter() {
        let t = Track::double_lane();
        let exec = ScriptedExecutor::new();
        let drifting = VehicleState {
            d: 0.3, // off-center but straight
            heading: 0.0,
            speed: 0.09,
            ..Default::default()
        };
        let cmd = exec.command(DrivingOption::KeepLane, &drifting, &t);
        assert_eq!(cmd.angular, 0.0, "no lateral recentering for the baselines");
        assert_eq!(cmd.linear, 0.09, "keep lane preserves speed");
        let turned = VehicleState {
            heading: 0.3,
            ..drifting
        };
        let cmd2 = exec.command(DrivingOption::KeepLane, &turned, &t);
        assert!(cmd2.angular < 0.0, "heading is straightened");
    }

    #[test]
    fn adjacent_lane_on_two_lane_track() {
        let t = Track::double_lane();
        assert_eq!(adjacent_lane(0, &t), 1);
        assert_eq!(adjacent_lane(1, &t), 0);
    }
}
