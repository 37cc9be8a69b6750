//! Property tests for the sensing and geometry substrate.
//!
//! The sensor properties run on what ships: observations a
//! [`LaneChangeEnv`] renders for poses reached through spawn tables and
//! commands. The bounding-box properties run on the reference world in
//! `oracle/`, whose `Obb` is the plain statement of the geometry the
//! shipped kernels inline.

mod oracle;

use hero_sim::env::{EnvConfig, LaneChangeEnv, Observation, VehicleRole, VehicleSpawn};
use hero_sim::geometry::Vec2;
use hero_sim::sensors::{CAMERA_OFF_TRACK, CAMERA_VEHICLE};
use hero_sim::track::Track;
use hero_sim::vehicle::{VehicleCommand, VehicleParams, VehicleState};
use oracle::{obb_relative, ray_to_horizontal_line, Obb};
use proptest::prelude::*;

fn arbitrary_vehicle() -> impl Strategy<Value = VehicleState> {
    (0.0f32..12.0, 0.05f32..0.75, -0.5f32..0.5, 0.0f32..0.2).prop_map(|(s, d, heading, speed)| {
        VehicleState {
            s,
            d,
            heading,
            speed,
        }
    })
}

/// A learner placed on a lane center anywhere along the loop.
fn arbitrary_spawn() -> impl Strategy<Value = VehicleSpawn> {
    (0usize..2, 0.0f32..12.0, 0.0f32..0.25).prop_map(|(lane, s, speed)| VehicleSpawn {
        lane,
        random_lane: false,
        s,
        s_jitter: 0.0,
        speed,
        role: VehicleRole::Learner,
    })
}

/// Up to eight control periods of `(linear, angular)` commands, one per
/// vehicle slot, spanning past the speed and steering limits.
fn arbitrary_drive() -> impl Strategy<Value = Vec<Vec<(f32, f32)>>> {
    prop::collection::vec(
        prop::collection::vec((-0.1f32..0.35, -0.4f32..0.4), 6),
        0..8,
    )
}

/// Every observation the shipped world renders from `spawns` driven by
/// `drive`: the reset's, each step's, and `observe(i)` after each step,
/// stopping when the episode ends.
fn reachable_observations(
    spawns: Vec<VehicleSpawn>,
    drive: &[Vec<(f32, f32)>],
) -> Vec<Observation> {
    let n = spawns.len();
    let mut env = LaneChangeEnv::new(EnvConfig::default(), spawns, 0);
    let mut seen = env.reset();
    for period in drive {
        if env.is_done() {
            break;
        }
        let commands: Vec<VehicleCommand> = period[..n]
            .iter()
            .map(|&(lin, ang)| VehicleCommand::new(lin, ang))
            .collect();
        seen.extend(env.step(&commands).observations);
        seen.extend((0..n).map(|i| env.observe(i)));
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lidar returns are always normalized and finite, for any reachable
    /// vehicle configuration.
    fn lidar_always_normalized(
        spawns in prop::collection::vec(arbitrary_spawn(), 1..6),
        drive in arbitrary_drive(),
    ) {
        let beams = EnvConfig::default().lidar.beams;
        for obs in reachable_observations(spawns, &drive) {
            prop_assert_eq!(obs.lidar.len(), beams);
            prop_assert!(obs.lidar.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v)));
        }
    }

    /// Lidar is monotone in obstacle distance: moving the only obstacle
    /// farther away (straight ahead) never shortens the front beam.
    fn lidar_monotone_in_distance(d1 in 0.5f32..1.0, extra in 0.05f32..0.9) {
        let spawn = |s: f32| VehicleSpawn {
            lane: 0,
            random_lane: false,
            s,
            s_jitter: 0.0,
            speed: 0.1,
            role: VehicleRole::Learner,
        };
        let front = |other: f32| {
            let mut env = LaneChangeEnv::new(EnvConfig::default(), vec![spawn(0.0), spawn(other)], 0);
            env.observe(0).lidar[0]
        };
        prop_assert!(front(d1 + extra) >= front(d1) - 1e-5);
    }

    /// Camera cells only ever take the three defined values.
    fn camera_values_are_categorical(
        spawns in prop::collection::vec(arbitrary_spawn(), 1..6),
        drive in arbitrary_drive(),
    ) {
        let cells = EnvConfig::default().camera.image_len();
        for obs in reachable_observations(spawns, &drive) {
            prop_assert_eq!(obs.image.len(), cells);
            prop_assert!(obs
                .image
                .iter()
                .all(|&v| v == 0.0 || v == CAMERA_OFF_TRACK || v == CAMERA_VEHICLE));
        }
    }

    /// A ray that reports a hit at distance t: the point origin + t·dir
    /// lies on (or inside) the box boundary.
    fn ray_hits_land_on_box(
        cx in -2.0f32..2.0,
        cy in -2.0f32..2.0,
        heading in -1.5f32..1.5,
        angle in 0.0f32..std::f32::consts::TAU,
    ) {
        let b = Obb::new(Vec2::new(cx, cy), 0.4, 0.2, heading);
        let dir = Vec2::new(angle.cos(), angle.sin());
        if let Some(t) = b.ray_intersection(Vec2::new(0.0, 0.0), dir) {
            let hit = dir.scale(t);
            // Inflate slightly for float error; the hit must not be
            // strictly outside the box.
            let inflated = Obb::new(b.center, b.half_len + 1e-3, b.half_wid + 1e-3, b.heading);
            prop_assert!(inflated.contains(hit), "hit {hit:?} outside {b:?}");
        }
    }

    /// OBB intersection is reflexive and symmetric.
    fn obb_intersection_symmetric(
        ax in -2.0f32..2.0, ay in -1.0f32..1.0, ah in -1.5f32..1.5,
        bx in -2.0f32..2.0, by in -1.0f32..1.0, bh in -1.5f32..1.5,
    ) {
        let a = Obb::new(Vec2::new(ax, ay), 0.3, 0.15, ah);
        let b = Obb::new(Vec2::new(bx, by), 0.3, 0.15, bh);
        prop_assert!(a.intersects(&a));
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    /// Vehicles never exceed their speed limits after a step, and heading
    /// stays clamped.
    fn kinematics_respect_limits(
        mut v in arbitrary_vehicle(),
        lin in -1.0f32..1.0,
        ang in -1.0f32..1.0,
    ) {
        let track = Track::double_lane();
        let params = VehicleParams::default();
        v.step(VehicleCommand::new(lin, ang), &params, &track, 1.0);
        prop_assert!(v.speed >= 0.0 && v.speed <= params.max_speed);
        prop_assert!(v.heading.abs() <= params.max_heading + 1e-6);
        prop_assert!((0.0..track.length).contains(&v.s));
    }
}

#[test]
fn obb_contains_center_and_not_far_point() {
    let b = Obb::new(Vec2::new(1.0, 1.0), 0.5, 0.25, 0.3);
    assert!(b.contains(Vec2::new(1.0, 1.0)));
    assert!(!b.contains(Vec2::new(3.0, 3.0)));
}

#[test]
fn aligned_boxes_overlap_iff_close() {
    let a = Obb::new(Vec2::new(0.0, 0.0), 0.5, 0.25, 0.0);
    let near = Obb::new(Vec2::new(0.8, 0.0), 0.5, 0.25, 0.0);
    let far = Obb::new(Vec2::new(1.2, 0.0), 0.5, 0.25, 0.0);
    assert!(a.intersects(&near));
    assert!(!a.intersects(&far));
}

#[test]
fn rotated_boxes_corner_case() {
    // Two boxes whose AABBs overlap but whose OBBs do not (diagonal gap).
    let a = Obb::new(Vec2::new(0.0, 0.0), 1.0, 0.1, std::f32::consts::FRAC_PI_4);
    let b = Obb::new(Vec2::new(0.9, -0.9), 1.0, 0.1, std::f32::consts::FRAC_PI_4);
    assert!(!a.intersects(&b));
}

#[test]
fn rays_hit_ahead_miss_behind_and_start_inside_at_zero() {
    let ahead = Obb::new(Vec2::new(2.0, 0.0), 0.5, 0.5, 0.0);
    let t = ahead
        .ray_intersection(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0))
        .unwrap();
    assert!((t - 1.5).abs() < 1e-5);
    let behind = Obb::new(Vec2::new(-2.0, 0.0), 0.5, 0.5, 0.0);
    assert!(behind
        .ray_intersection(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0))
        .is_none());
    let around = Obb::new(Vec2::new(0.0, 0.0), 1.0, 1.0, 0.0);
    let t = around
        .ray_intersection(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0))
        .unwrap();
    assert_eq!(t, 0.0);
}

#[test]
fn ray_against_rotated_box() {
    let b = Obb::new(Vec2::new(1.0, 1.0), 0.5, 0.1, std::f32::consts::FRAC_PI_4);
    let dir = Vec2::new(1.0, 1.0).scale(1.0 / 2f32.sqrt());
    let t = b.ray_intersection(Vec2::new(0.0, 0.0), dir);
    assert!(t.is_some());
    // The box center is sqrt(2) away; first hit must be closer.
    assert!(t.unwrap() < 2f32.sqrt());
}

#[test]
fn ray_to_wall() {
    let t = ray_to_horizontal_line(Vec2::new(0.0, 0.2), Vec2::new(0.0, 1.0), 0.8).unwrap();
    assert!((t - 0.6).abs() < 1e-6);
    assert!(ray_to_horizontal_line(Vec2::new(0.0, 0.2), Vec2::new(1.0, 0.0), 0.8).is_none());
}

#[test]
fn obb_relative_uses_wrapped_delta() {
    let ahead_of_wrap = VehicleState {
        s: 0.3,
        d: 0.2,
        ..Default::default()
    };
    let obb = obb_relative(
        &ahead_of_wrap,
        11.8,
        &VehicleParams::default(),
        &Track::double_lane(),
    );
    assert!((obb.center.x - 0.5).abs() < 1e-5, "x = {}", obb.center.x);
}
