//! Unicycle vehicle kinematics in the track's Frenet frame.

use crate::track::Track;

/// Physical footprint and limits of a vehicle (the paper's small two-wheel
/// prototypes, Fig. 13).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VehicleParams {
    /// Body length in metres.
    pub length: f32,
    /// Body width in metres.
    pub width: f32,
    /// Maximum forward speed (m/s); commands are clamped to `[0, max]`.
    pub max_speed: f32,
    /// Maximum |heading| relative to the track direction, radians.
    pub max_heading: f32,
    /// Maximum |angular speed| (rad/s); commands are clamped.
    pub max_angular: f32,
}

impl Default for VehicleParams {
    fn default() -> Self {
        Self {
            length: 0.25,
            width: 0.15,
            max_speed: 0.25,
            max_heading: 0.6,
            max_angular: 0.3,
        }
    }
}

/// Dynamic state of one vehicle.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct VehicleState {
    /// Longitudinal position along the loop, `[0, track.length)`.
    pub s: f32,
    /// Lateral offset from the inner track edge.
    pub d: f32,
    /// Heading relative to the track direction, radians.
    pub heading: f32,
    /// Current forward speed (m/s).
    pub speed: f32,
}

/// A (linear speed, angular speed) command — the paper's low-level
/// continuous action space (Sec. IV-C).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct VehicleCommand {
    /// Forward speed setpoint (m/s).
    pub linear: f32,
    /// Angular speed (rad/s); positive steers toward higher `d`.
    pub angular: f32,
}

impl VehicleCommand {
    /// Creates a command.
    pub fn new(linear: f32, angular: f32) -> Self {
        Self { linear, angular }
    }

    /// The "keep everything as is" command used by the keep-lane option
    /// when the previous speed should persist.
    pub fn coast(speed: f32) -> Self {
        Self {
            linear: speed,
            angular: 0.0,
        }
    }
}

impl VehicleState {
    /// Advances the state by one control period `dt`, clamping the command
    /// to `params` limits. Longitudinal position wraps around the track;
    /// lateral position is *not* clamped (leaving the track is detected as
    /// a wall collision by the environment).
    pub fn step(&mut self, cmd: VehicleCommand, params: &VehicleParams, track: &Track, dt: f32) {
        let v = cmd.linear.clamp(0.0, params.max_speed);
        let w = cmd.angular.clamp(-params.max_angular, params.max_angular);
        self.heading = (self.heading + w * dt).clamp(-params.max_heading, params.max_heading);
        self.speed = v;
        self.s = track.wrap(self.s + v * self.heading.cos() * dt);
        self.d += v * self.heading.sin() * dt;
    }

    /// Lane index of the vehicle's center.
    pub fn lane(&self, track: &Track) -> usize {
        track.lane_of(self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track() -> Track {
        Track::double_lane()
    }

    #[test]
    fn straight_driving_advances_s_only() {
        let mut v = VehicleState {
            s: 0.0,
            d: 0.2,
            heading: 0.0,
            speed: 0.0,
        };
        v.step(
            VehicleCommand::new(0.1, 0.0),
            &VehicleParams::default(),
            &track(),
            1.0,
        );
        assert!((v.s - 0.1).abs() < 1e-6);
        assert!((v.d - 0.2).abs() < 1e-6);
        assert_eq!(v.speed, 0.1);
    }

    #[test]
    fn position_wraps_around_loop() {
        let mut v = VehicleState {
            s: 11.95,
            d: 0.2,
            ..Default::default()
        };
        v.step(
            VehicleCommand::new(0.1, 0.0),
            &VehicleParams::default(),
            &track(),
            1.0,
        );
        assert!(v.s < 0.1, "s should wrap, got {}", v.s);
    }

    #[test]
    fn steering_moves_lateral() {
        let mut v = VehicleState {
            s: 0.0,
            d: 0.2,
            ..Default::default()
        };
        for _ in 0..3 {
            v.step(
                VehicleCommand::new(0.15, 0.2),
                &VehicleParams::default(),
                &track(),
                1.0,
            );
        }
        assert!(v.d > 0.25, "vehicle should drift up, d = {}", v.d);
        assert!(v.heading > 0.0);
    }

    #[test]
    fn commands_are_clamped() {
        let p = VehicleParams::default();
        let mut v = VehicleState::default();
        v.step(VehicleCommand::new(10.0, 10.0), &p, &track(), 1.0);
        assert!(v.speed <= p.max_speed);
        assert!(v.heading <= p.max_heading + 1e-6);
        let mut v2 = VehicleState::default();
        v2.step(VehicleCommand::new(-5.0, 0.0), &p, &track(), 1.0);
        assert_eq!(v2.speed, 0.0, "no reverse gear");
    }

    #[test]
    fn lane_reporting() {
        let t = track();
        let v = VehicleState {
            d: 0.65,
            ..Default::default()
        };
        assert_eq!(v.lane(&t), 1);
    }
}
