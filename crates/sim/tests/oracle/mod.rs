//! The reference lane-change world: the plain scalar simulator that
//! `hero_sim::batch::BatchWorld` must match bit for bit.
//!
//! It steps one world the obvious way — every lidar ray cast against every
//! other vehicle's oriented bounding box, every camera cell tested against
//! every obstacle, every vehicle pair put through the separating-axis
//! test, a `sin_cos` wherever a rotation is needed — so it reads as the
//! specification of the world. `BatchWorld` computes the same numbers
//! with trig caches, memoized beam directions and conservative far
//! rejects; `batch_equivalence.rs` drives both through the same commands
//! and compares every output bit, and `sensor_props.rs` checks the
//! geometry here.
//!
//! Shared by several test binaries, each of which uses a different part.
#![allow(dead_code)]

use hero_sim::env::{EnvConfig, Observation, StepOutcome, VehicleRole, VehicleSpawn};
use hero_sim::geometry::Vec2;
use hero_sim::options::{DrivingOption, ScriptedExecutor};
use hero_sim::sensors::{CameraConfig, LidarConfig, CAMERA_OFF_TRACK, CAMERA_VEHICLE};
use hero_sim::track::Track;
use hero_sim::vehicle::{VehicleCommand, VehicleParams, VehicleState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An oriented bounding box: center, half extents, heading.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Obb {
    /// Center point.
    pub center: Vec2,
    /// Half length along the heading axis.
    pub half_len: f32,
    /// Half width perpendicular to the heading axis.
    pub half_wid: f32,
    /// Heading angle in radians (0 = +x).
    pub heading: f32,
}

impl Obb {
    /// Creates an OBB.
    pub fn new(center: Vec2, half_len: f32, half_wid: f32, heading: f32) -> Self {
        Self {
            center,
            half_len,
            half_wid,
            heading,
        }
    }

    /// The four corners, counter-clockwise.
    pub fn corners(&self) -> [Vec2; 4] {
        let u = Vec2::new(1.0, 0.0)
            .rotated(self.heading)
            .scale(self.half_len);
        let v = Vec2::new(0.0, 1.0)
            .rotated(self.heading)
            .scale(self.half_wid);
        [
            self.center.add(u).add(v),
            self.center.add(u).sub(v),
            self.center.sub(u).sub(v),
            self.center.sub(u).add(v),
        ]
    }

    /// The two local axes (unit vectors along length and width).
    fn axes(&self) -> [Vec2; 2] {
        [
            Vec2::new(1.0, 0.0).rotated(self.heading),
            Vec2::new(0.0, 1.0).rotated(self.heading),
        ]
    }

    /// Whether two OBBs overlap (separating-axis test).
    pub fn intersects(&self, other: &Obb) -> bool {
        let axes = [self.axes(), other.axes()].concat();
        let ca = self.corners();
        let cb = other.corners();
        for axis in axes {
            let (mut amin, mut amax) = (f32::INFINITY, f32::NEG_INFINITY);
            for c in &ca {
                let p = c.dot(axis);
                amin = amin.min(p);
                amax = amax.max(p);
            }
            let (mut bmin, mut bmax) = (f32::INFINITY, f32::NEG_INFINITY);
            for c in &cb {
                let p = c.dot(axis);
                bmin = bmin.min(p);
                bmax = bmax.max(p);
            }
            if amax < bmin || bmax < amin {
                return false;
            }
        }
        true
    }

    /// Whether a point lies inside the box.
    pub fn contains(&self, p: Vec2) -> bool {
        let rel = p.sub(self.center).rotated(-self.heading);
        rel.x.abs() <= self.half_len && rel.y.abs() <= self.half_wid
    }

    /// Distance along a ray (origin + t·dir, `dir` unit length) to the first
    /// intersection with this box, if any intersection with `t >= 0` exists.
    ///
    /// Implemented as a slab test in the box's local frame.
    pub fn ray_intersection(&self, origin: Vec2, dir: Vec2) -> Option<f32> {
        let o = origin.sub(self.center).rotated(-self.heading);
        let d = dir.rotated(-self.heading);
        let mut t_min = f32::NEG_INFINITY;
        let mut t_max = f32::INFINITY;
        for (oc, dc, half) in [(o.x, d.x, self.half_len), (o.y, d.y, self.half_wid)] {
            if dc.abs() < 1e-9 {
                if oc.abs() > half {
                    return None;
                }
            } else {
                let t1 = (-half - oc) / dc;
                let t2 = (half - oc) / dc;
                let (lo, hi) = if t1 < t2 { (t1, t2) } else { (t2, t1) };
                t_min = t_min.max(lo);
                t_max = t_max.min(hi);
                if t_min > t_max {
                    return None;
                }
            }
        }
        if t_max < 0.0 {
            None
        } else if t_min >= 0.0 {
            Some(t_min)
        } else {
            // Ray starts inside the box.
            Some(0.0)
        }
    }
}

/// Distance along a ray to a horizontal line `y = line_y`, if hit forward.
pub fn ray_to_horizontal_line(origin: Vec2, dir: Vec2, line_y: f32) -> Option<f32> {
    if dir.y.abs() < 1e-9 {
        return None;
    }
    let t = (line_y - origin.y) / dir.y;
    (t >= 0.0).then_some(t)
}

/// The vehicle's oriented bounding box in a frame where longitudinal
/// position is taken relative to `origin_s` (wrapped). Pass the
/// observer's `s` so nearby vehicles land near `x = 0` regardless of
/// loop wrap-around.
pub fn obb_relative(v: &VehicleState, origin_s: f32, params: &VehicleParams, track: &Track) -> Obb {
    let x = track.signed_delta(origin_s, v.s);
    Obb::new(
        Vec2::new(x, v.d),
        params.length / 2.0,
        params.width / 2.0,
        v.heading,
    )
}

/// Casts the lidar for vehicle `ego` against every other vehicle and the
/// two track walls, returning `beams` normalized distances in `[0, 1]`
/// (1 = nothing within range).
///
/// Beam 0 points along the vehicle's heading; beams proceed
/// counter-clockwise.
pub fn lidar_scan(
    ego: usize,
    vehicles: &[VehicleState],
    params: &VehicleParams,
    track: &Track,
    cfg: &LidarConfig,
) -> Vec<f32> {
    let me = &vehicles[ego];
    let origin = Vec2::new(0.0, me.d);
    let obstacles: Vec<_> = vehicles
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != ego)
        .map(|(_, v)| obb_relative(v, me.s, params, track))
        .collect();

    let mut out = Vec::with_capacity(cfg.beams);
    for b in 0..cfg.beams {
        let angle = me.heading + b as f32 / cfg.beams as f32 * std::f32::consts::TAU;
        let dir = Vec2::new(angle.cos(), angle.sin());
        let mut nearest = cfg.max_range;
        for obb in &obstacles {
            if let Some(t) = obb.ray_intersection(origin, dir) {
                nearest = nearest.min(t);
            }
        }
        for wall in [0.0, track.width()] {
            if let Some(t) = ray_to_horizontal_line(origin, dir, wall) {
                nearest = nearest.min(t);
            }
        }
        out.push(nearest / cfg.max_range);
    }
    out
}

/// Rasterizes the forward window of vehicle `ego` into a `rows × cols`
/// occupancy grid (row 0 nearest the vehicle), flattened row-major.
///
/// Cells covered by another vehicle read [`CAMERA_VEHICLE`]; cells outside
/// the drivable area read [`CAMERA_OFF_TRACK`]; free track reads `0`.
pub fn camera_image(
    ego: usize,
    vehicles: &[VehicleState],
    params: &VehicleParams,
    track: &Track,
    cfg: &CameraConfig,
) -> Vec<f32> {
    let me = &vehicles[ego];
    let obstacles: Vec<_> = vehicles
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != ego)
        .map(|(_, v)| obb_relative(v, me.s, params, track))
        .collect();

    let mut img = vec![0.0f32; cfg.rows * cfg.cols];
    let cell_f = cfg.forward_range / cfg.rows as f32;
    let cell_l = 2.0 * cfg.lateral_half / cfg.cols as f32;
    for r in 0..cfg.rows {
        // Sample the cell center, in the ego's heading-aligned frame.
        let fwd = (r as f32 + 0.5) * cell_f;
        for c in 0..cfg.cols {
            let lat = -cfg.lateral_half + (c as f32 + 0.5) * cell_l;
            let p_local = Vec2::new(fwd, lat).rotated(me.heading);
            let p = Vec2::new(p_local.x, me.d + p_local.y);
            let mut v = 0.0;
            if !track.contains_lateral(p.y) {
                v = CAMERA_OFF_TRACK;
            }
            for obb in &obstacles {
                if obb.contains(p) {
                    v = CAMERA_VEHICLE;
                    break;
                }
            }
            img[r * cfg.cols + c] = v;
        }
    }
    img
}

/// The scalar multi-vehicle cooperative lane-change environment.
#[derive(Debug)]
pub struct ScalarEnv {
    cfg: EnvConfig,
    spawns: Vec<VehicleSpawn>,
    vehicles: Vec<VehicleState>,
    executor: ScriptedExecutor,
    rng: StdRng,
    step_count: usize,
    done: bool,
    initial_lanes: Vec<usize>,
    needs_merge: Vec<bool>,
    collided: Vec<bool>,
}

impl ScalarEnv {
    /// Creates an environment, reset once.
    ///
    /// # Panics
    ///
    /// Panics when `spawns` is empty or a spawn lane is out of range.
    pub fn new(cfg: EnvConfig, spawns: Vec<VehicleSpawn>, seed: u64) -> Self {
        assert!(!spawns.is_empty(), "environment needs at least one vehicle");
        for sp in &spawns {
            assert!(sp.lane < cfg.track.num_lanes, "spawn lane out of range");
        }
        let n = spawns.len();
        let mut env = Self {
            cfg,
            spawns,
            vehicles: Vec::new(),
            executor: ScriptedExecutor::new(),
            rng: StdRng::seed_from_u64(seed),
            step_count: 0,
            done: true,
            initial_lanes: vec![0; n],
            needs_merge: vec![false; n],
            collided: vec![false; n],
        };
        env.reset();
        env
    }

    /// Number of vehicles (learners + scripted).
    pub fn num_vehicles(&self) -> usize {
        self.spawns.len()
    }

    /// Current kinematic state of vehicle `i`.
    pub fn vehicle_state(&self, i: usize) -> &VehicleState {
        &self.vehicles[i]
    }

    /// Whether the current episode has ended.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Steps taken in the current episode.
    pub fn step_count(&self) -> usize {
        self.step_count
    }

    /// Whether vehicle `i` started this episode behind slower scripted
    /// traffic in its own lane — i.e. it must merge to make progress.
    pub fn needs_merge(&self, i: usize) -> bool {
        self.needs_merge[i]
    }

    /// Whether vehicle `i` has left its initial lane without colliding —
    /// the paper's "successful merge".
    pub fn has_merged(&self, i: usize) -> bool {
        !self.collided[i] && self.vehicles[i].lane(&self.cfg.track) != self.initial_lanes[i]
    }

    /// Whether vehicle `i` has collided this episode.
    pub fn has_collided(&self, i: usize) -> bool {
        self.collided[i]
    }

    /// The RNG stream position.
    pub fn rng_state(&self) -> Vec<u64> {
        self.rng.state().to_vec()
    }

    /// Starts a new episode (re-randomizing jittered spawn positions) and
    /// returns the initial observations.
    pub fn reset(&mut self) -> Vec<Observation> {
        let num_lanes = self.cfg.track.num_lanes;
        let rng = &mut self.rng;
        let cfg = &self.cfg;
        self.vehicles = self
            .spawns
            .iter()
            .map(|sp| {
                let jitter = if sp.s_jitter > 0.0 {
                    rng.gen_range(-sp.s_jitter..sp.s_jitter)
                } else {
                    0.0
                };
                let lane = if sp.random_lane {
                    rng.gen_range(0..num_lanes)
                } else {
                    sp.lane
                };
                VehicleState {
                    s: cfg.track.wrap(sp.s + jitter),
                    d: cfg.track.lane_center(lane),
                    heading: 0.0,
                    speed: sp.speed,
                }
            })
            .collect();
        self.step_count = 0;
        self.done = false;
        self.initial_lanes = self
            .vehicles
            .iter()
            .map(|v| v.lane(&self.cfg.track))
            .collect();
        self.collided = vec![false; self.vehicles.len()];
        self.needs_merge = self.compute_needs_merge();
        (0..self.vehicles.len()).map(|i| self.observe(i)).collect()
    }

    fn compute_needs_merge(&self) -> Vec<bool> {
        const LOOKAHEAD: f32 = 2.5;
        self.spawns
            .iter()
            .enumerate()
            .map(|(i, sp)| {
                if !matches!(sp.role, VehicleRole::Learner) {
                    return false;
                }
                self.spawns.iter().enumerate().any(|(j, other)| {
                    i != j
                        && self.vehicles[j].lane(&self.cfg.track)
                            == self.vehicles[i].lane(&self.cfg.track)
                        && other.speed < sp.speed
                        && matches!(other.role, VehicleRole::Scripted { .. })
                        && {
                            let gap = self
                                .cfg
                                .track
                                .signed_delta(self.vehicles[i].s, self.vehicles[j].s);
                            gap > 0.0 && gap <= LOOKAHEAD
                        }
                })
            })
            .collect()
    }

    /// Renders the observation of vehicle `i` from the current state.
    pub fn observe(&self, i: usize) -> Observation {
        let v = &self.vehicles[i];
        Observation {
            lidar: lidar_scan(
                i,
                &self.vehicles,
                &self.cfg.vehicle,
                &self.cfg.track,
                &self.cfg.lidar,
            ),
            image: camera_image(
                i,
                &self.vehicles,
                &self.cfg.vehicle,
                &self.cfg.track,
                &self.cfg.camera,
            ),
            speed_norm: v.speed / self.cfg.vehicle.max_speed,
            lane_norm: v.lane(&self.cfg.track) as f32 / self.cfg.track.num_lanes as f32,
            lane_id: v.lane(&self.cfg.track),
            speed: v.speed,
        }
    }

    /// Advances the world one control period.
    ///
    /// `commands` must hold one entry per vehicle; entries for scripted
    /// vehicles are ignored (they drive themselves).
    ///
    /// # Panics
    ///
    /// Panics when `commands.len() != num_vehicles()` or when called after
    /// the episode ended.
    pub fn step(&mut self, commands: &[VehicleCommand]) -> StepOutcome {
        assert_eq!(
            commands.len(),
            self.vehicles.len(),
            "one command per vehicle required"
        );
        assert!(!self.done, "step() called on a finished episode");

        let before_s: Vec<f32> = self.vehicles.iter().map(|v| v.s).collect();
        for (i, v) in self.vehicles.iter_mut().enumerate() {
            let cmd = match self.spawns[i].role {
                VehicleRole::Learner => commands[i],
                VehicleRole::Scripted { speed } => {
                    let mut c = self
                        .executor
                        .command(DrivingOption::KeepLane, v, &self.cfg.track);
                    c.linear = speed;
                    c
                }
            };
            v.step(cmd, &self.cfg.vehicle, &self.cfg.track, self.cfg.dt);
        }
        self.step_count += 1;

        let collisions = self.detect_collisions();
        for (c, flag) in self.collided.iter_mut().zip(&collisions) {
            *c |= flag;
        }
        let any_collision = collisions.iter().any(|&c| c);
        self.done = any_collision || self.step_count >= self.cfg.max_steps;

        let rewards: Vec<f32> = (0..self.vehicles.len())
            .map(|i| {
                let travel = self
                    .cfg
                    .track
                    .signed_delta(before_s[i], self.vehicles[i].s)
                    .max(0.0)
                    / (self.cfg.vehicle.max_speed * self.cfg.dt);
                let col = if any_collision {
                    self.cfg.collision_penalty
                } else {
                    0.0
                };
                self.cfg.alpha * col + (1.0 - self.cfg.alpha) * travel
            })
            .collect();

        let mean_speed =
            self.vehicles.iter().map(|v| v.speed).sum::<f32>() / self.vehicles.len() as f32;

        let observations = (0..self.vehicles.len()).map(|i| self.observe(i)).collect();
        StepOutcome {
            observations,
            rewards,
            collisions,
            done: self.done,
            mean_speed,
        }
    }

    fn detect_collisions(&self) -> Vec<bool> {
        let n = self.vehicles.len();
        let mut hit = vec![false; n];
        let track = &self.cfg.track;
        let params = &self.cfg.vehicle;
        for i in 0..n {
            // Wall collision: any part of the body outside the drivable
            // area.
            let half_w =
                params.width / 2.0 + params.length / 2.0 * self.vehicles[i].heading.sin().abs();
            let d = self.vehicles[i].d;
            if d - half_w < 0.0 || d + half_w > track.width() {
                hit[i] = true;
            }
        }
        for i in 0..n {
            let obb_i = obb_relative(&self.vehicles[i], self.vehicles[i].s, params, track);
            for j in (i + 1)..n {
                let obb_j = obb_relative(&self.vehicles[j], self.vehicles[i].s, params, track);
                if obb_i.intersects(&obb_j) {
                    hit[i] = true;
                    hit[j] = true;
                }
            }
        }
        hit
    }
}
