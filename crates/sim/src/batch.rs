//! The lane-change simulator: N independent worlds stepped through
//! struct-of-arrays state.
//!
//! [`BatchWorld`] holds the poses of `n_worlds × n_vehicles` vehicles in
//! contiguous columns (`s`, `d`, `heading`, `speed`) and advances any
//! subset of worlds per call. It is the only implementation of the
//! world's kinematics, collisions and sensors: [`LaneChangeEnv`] is a
//! handle over a one-world batch, and the actor shards of the rollout
//! engine are wider ones. Sensing and collision checking are the hot
//! path: both sensors and the separating-axis collision test run against
//! per-vehicle trig caches (one `sin_cos` per heading instead of one per
//! ray/cell/obstacle/pair), and conservative bounding-circle far rejects
//! skip obstacles provably beyond a sensor's reach and vehicle pairs
//! provably too far apart to touch.
//!
//! # Determinism contract
//!
//! Every per-world result — poses, lidar scans, camera images, rewards,
//! collision/done flags, and the RNG stream — is **bit-identical** to
//! stepping the plain scalar reference world (the test oracle in
//! `crates/sim/tests/oracle/`, which casts every ray against an oriented
//! bounding box and tests every camera cell against every obstacle)
//! seeded with [`replica_seed`]`(seed, w)` through the same commands. The
//! caches are safe because `f32::sin_cos` is defined as `(self.sin(),
//! self.cos())` (so a cached pair equals the per-call values), inlined
//! rotations repeat [`crate::geometry::Vec2::rotated`]'s exact
//! arithmetic, and the far rejects only skip work whose result is
//! provably discarded. The contract is pinned by the differential suite
//! in `crates/sim/tests/batch_equivalence.rs`; any change to the world
//! must keep it passing, with the oracle changed to match (extend it
//! when adding observable state).
//!
//! [`LaneChangeEnv`]: crate::env::LaneChangeEnv

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::env::{replica_seed, EnvConfig, Observation, StepOutcome, VehicleRole, VehicleSpawn};
use crate::geometry::Vec2;
use crate::options::{DrivingOption, ScriptedExecutor};
use crate::sensors::{CAMERA_OFF_TRACK, CAMERA_VEHICLE};
use crate::vehicle::{VehicleCommand, VehicleState};

/// N independent lane-change worlds sharing one config and spawn table, in
/// struct-of-arrays layout. World `w`, vehicle `i` lives at column index
/// `w * num_vehicles + i`.
#[derive(Debug)]
pub struct BatchWorld {
    cfg: EnvConfig,
    spawns: Vec<VehicleSpawn>,
    executor: ScriptedExecutor,
    n_vehicles: usize,
    // World-major pose columns, one entry per (world, vehicle).
    s: Vec<f32>,
    d: Vec<f32>,
    heading: Vec<f32>,
    speed: Vec<f32>,
    // Per-world episode state.
    rngs: Vec<StdRng>,
    step_count: Vec<usize>,
    done: Vec<bool>,
    // Per-(world, vehicle) episode flags, world-major like the poses.
    initial_lanes: Vec<usize>,
    needs_merge: Vec<bool>,
    collided: Vec<bool>,
    // Memoized lidar beam directions per (world, vehicle): `cos`/`sin`
    // are pure functions of the heading and beam index, so when a
    // vehicle's heading bits are unchanged since its last sweep the
    // cached directions are bit-identical to recomputing them.
    // `beam_heading` starts at NaN (never equal) and resets keep the
    // cache valid because heading resets to exactly 0.0.
    beam_heading: Vec<f32>,
    beam_cos: Vec<f32>,
    beam_sin: Vec<f32>,
}

/// Cached trig for one vehicle: `sin_cos(heading)` for forward rotations
/// (camera frame, OBB axes) and `sin_cos(-heading)` for inverse rotations
/// (point/ray into the OBB's local frame). The two must be cached
/// separately — `sin_cos(-h)` is computed on `-h`, not sign-flipped from
/// `sin_cos(h)` — to stay bitwise identical to the reference world.
#[derive(Clone, Copy)]
struct Trig {
    sin_h: f32,
    cos_h: f32,
    sin_nh: f32,
    cos_nh: f32,
}

impl Trig {
    fn of(heading: f32) -> Self {
        let (sin_h, cos_h) = heading.sin_cos();
        let (sin_nh, cos_nh) = (-heading).sin_cos();
        Self {
            sin_h,
            cos_h,
            sin_nh,
            cos_nh,
        }
    }
}

/// One obstacle prepared for an ego's sensor pass: its OBB center in the
/// ego-relative frame, the ego's lidar origin pre-transformed into the
/// obstacle's local frame (beam-invariant), the obstacle's inverse
/// rotation, and the squared center distance to the ego's sensor origin
/// (for the conservative far rejects).
#[derive(Clone, Copy)]
struct Obstacle {
    center: Vec2,
    o_local: Vec2,
    sin_nh: f32,
    cos_nh: f32,
    dist2: f32,
}

/// The two local axes of an OBB with cached trig — exactly
/// `Vec2::new(1.0, 0.0).rotated(h)` / `Vec2::new(0.0, 1.0).rotated(h)`
/// with `sin_cos(h)` substituted (the `*1.0`/`*0.0` terms are kept so the
/// arithmetic is literally the same; the compiler folds them under IEEE
/// semantics).
fn obb_axes(t: Trig) -> [Vec2; 2] {
    [
        Vec2::new(t.cos_h * 1.0 - t.sin_h * 0.0, t.sin_h * 1.0 + t.cos_h * 0.0),
        Vec2::new(t.cos_h * 0.0 - t.sin_h * 1.0, t.sin_h * 0.0 + t.cos_h * 1.0),
    ]
}

/// The four corners of an OBB from its cached axes — the exact
/// construction of the reference world's box corners.
fn obb_corners(center: Vec2, axes: &[Vec2; 2], half_len: f32, half_wid: f32) -> [Vec2; 4] {
    let u = axes[0].scale(half_len);
    let v = axes[1].scale(half_wid);
    [
        center.add(u).add(v),
        center.add(u).sub(v),
        center.sub(u).sub(v),
        center.sub(u).add(v),
    ]
}

/// The separating-axis test between two oriented bounding boxes on cached
/// trig — the reference world's box-overlap test with the same axes, the
/// same corner construction, the same projection fold and comparison
/// order, and no per-call `sin_cos` or heap allocation.
fn sat_intersects(
    center_a: Vec2,
    ta: Trig,
    center_b: Vec2,
    tb: Trig,
    half_len: f32,
    half_wid: f32,
) -> bool {
    let axes_a = obb_axes(ta);
    let axes_b = obb_axes(tb);
    let ca = obb_corners(center_a, &axes_a, half_len, half_wid);
    let cb = obb_corners(center_b, &axes_b, half_len, half_wid);
    for axis in [axes_a[0], axes_a[1], axes_b[0], axes_b[1]] {
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

impl BatchWorld {
    /// Builds `n_worlds` worlds from one config and spawn table, world `w`
    /// seeded with [`replica_seed`]`(seed, w)` so every world owns an
    /// independent RNG stream (and world 0 is the
    /// [`LaneChangeEnv::new`]`(cfg, spawns, seed)` world). Every world is
    /// reset once during construction.
    ///
    /// [`LaneChangeEnv::new`]: crate::env::LaneChangeEnv::new
    ///
    /// # Panics
    ///
    /// Panics when `spawns` is empty, a spawn lane is out of range, or
    /// `n_worlds` is zero.
    pub fn new(cfg: EnvConfig, spawns: Vec<VehicleSpawn>, seed: u64, n_worlds: usize) -> Self {
        assert!(!spawns.is_empty(), "environment needs at least one vehicle");
        for sp in &spawns {
            assert!(sp.lane < cfg.track.num_lanes, "spawn lane out of range");
        }
        assert!(n_worlds >= 1, "batch needs at least one world");
        let n = spawns.len();
        let slots = n_worlds * n;
        let mut world = Self {
            cfg,
            spawns,
            executor: ScriptedExecutor::new(),
            n_vehicles: n,
            s: vec![0.0; slots],
            d: vec![0.0; slots],
            heading: vec![0.0; slots],
            speed: vec![0.0; slots],
            rngs: (0..n_worlds)
                .map(|w| StdRng::seed_from_u64(replica_seed(seed, w)))
                .collect(),
            step_count: vec![0; n_worlds],
            done: vec![true; n_worlds],
            initial_lanes: vec![0; slots],
            needs_merge: vec![false; slots],
            collided: vec![false; slots],
            beam_heading: vec![f32::NAN; slots],
            beam_cos: vec![0.0; slots * cfg.lidar.beams],
            beam_sin: vec![0.0; slots * cfg.lidar.beams],
        };
        for w in 0..n_worlds {
            world.reset_world(w);
        }
        world
    }

    /// Vehicles per world (learners + scripted).
    pub fn num_vehicles(&self) -> usize {
        self.n_vehicles
    }

    /// The shared environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.cfg
    }

    /// The spawn table driving every reset.
    pub fn spawns(&self) -> &[VehicleSpawn] {
        &self.spawns
    }

    /// Indices of the learner-controlled vehicles (same in every world).
    pub fn learner_indices(&self) -> Vec<usize> {
        self.spawns
            .iter()
            .enumerate()
            .filter(|(_, sp)| matches!(sp.role, VehicleRole::Learner))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether world `w`'s episode has ended.
    pub fn is_done(&self, w: usize) -> bool {
        self.done[w]
    }

    /// Steps taken in world `w`'s current episode.
    pub fn step_count(&self, w: usize) -> usize {
        self.step_count[w]
    }

    /// Kinematic state of vehicle `i` in world `w`.
    pub fn vehicle_state(&self, w: usize, i: usize) -> VehicleState {
        let slot = w * self.n_vehicles + i;
        VehicleState {
            s: self.s[slot],
            d: self.d[slot],
            heading: self.heading[slot],
            speed: self.speed[slot],
        }
    }

    /// Whether vehicle `i` in world `w` started this episode behind slower
    /// scripted traffic in its own lane — i.e. it must merge to make
    /// progress.
    pub fn needs_merge(&self, w: usize, i: usize) -> bool {
        self.needs_merge[w * self.n_vehicles + i]
    }

    /// Whether vehicle `i` in world `w` has left its initial lane without
    /// colliding — the paper's "successful merge".
    pub fn has_merged(&self, w: usize, i: usize) -> bool {
        let slot = w * self.n_vehicles + i;
        !self.collided[slot] && self.cfg.track.lane_of(self.d[slot]) != self.initial_lanes[slot]
    }

    /// Whether vehicle `i` in world `w` has collided this episode.
    pub fn has_collided(&self, w: usize, i: usize) -> bool {
        self.collided[w * self.n_vehicles + i]
    }

    /// World `w`'s RNG stream position (see
    /// [`crate::env::CooperativeWorld::rng_state`]).
    pub fn rng_state(&self, w: usize) -> Vec<u64> {
        self.rngs[w].state().to_vec()
    }

    /// Restores world `w`'s RNG stream position. Ignores input of the
    /// wrong length.
    pub fn set_rng_state(&mut self, w: usize, state: &[u64]) {
        if let Ok(words) = <[u64; 4]>::try_from(state) {
            self.rngs[w] = StdRng::from_state(words);
        }
    }

    /// Starts a new episode in world `w` (re-randomizing jittered spawn
    /// positions and random lanes from world `w`'s own RNG stream) and
    /// returns its initial observations.
    pub fn reset_world(&mut self, w: usize) -> Vec<Observation> {
        let num_lanes = self.cfg.track.num_lanes;
        let n = self.n_vehicles;
        {
            let rng = &mut self.rngs[w];
            let cfg = &self.cfg;
            for (i, sp) in self.spawns.iter().enumerate() {
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
                let slot = w * n + i;
                self.s[slot] = cfg.track.wrap(sp.s + jitter);
                self.d[slot] = cfg.track.lane_center(lane);
                self.heading[slot] = 0.0;
                self.speed[slot] = sp.speed;
            }
        }
        self.step_count[w] = 0;
        self.done[w] = false;
        for i in 0..n {
            let slot = w * n + i;
            self.initial_lanes[slot] = self.cfg.track.lane_of(self.d[slot]);
            self.collided[slot] = false;
        }
        self.compute_needs_merge(w);
        hero_telemetry::counter_add("lidar_scans", n as u64);
        hero_telemetry::counter_add("camera_frames", n as u64);
        self.sense_worlds(&[w], 0..n)
            .pop()
            .expect("one world sensed")
    }

    /// Renders the observation of vehicle `i` in world `w` from the
    /// current state, counting one lidar scan and one camera frame.
    ///
    /// # Panics
    ///
    /// Panics when `w` or `i` is out of range.
    pub(crate) fn observe(&mut self, w: usize, i: usize) -> Observation {
        assert!(i < self.n_vehicles, "vehicle index out of range");
        hero_telemetry::counter_add("lidar_scans", 1);
        hero_telemetry::counter_add("camera_frames", 1);
        self.sense_worlds(&[w], i..i + 1)
            .pop()
            .and_then(|mut world| world.pop())
            .expect("one vehicle sensed")
    }

    fn compute_needs_merge(&mut self, w: usize) {
        const LOOKAHEAD: f32 = 2.5;
        let n = self.n_vehicles;
        let track = &self.cfg.track;
        for (i, sp) in self.spawns.iter().enumerate() {
            let flag = matches!(sp.role, VehicleRole::Learner)
                && self.spawns.iter().enumerate().any(|(j, other)| {
                    i != j
                        && track.lane_of(self.d[w * n + j]) == track.lane_of(self.d[w * n + i])
                        && other.speed < sp.speed
                        && matches!(other.role, VehicleRole::Scripted { .. })
                        && {
                            let gap = track.signed_delta(self.s[w * n + i], self.s[w * n + j]);
                            gap > 0.0 && gap <= LOOKAHEAD
                        }
                });
            self.needs_merge[w * n + i] = flag;
        }
    }

    /// Advances the listed worlds one control period each; `commands[k]`
    /// holds the per-vehicle commands for `worlds[k]` (entries for
    /// scripted vehicles are ignored). Returns one [`StepOutcome`] per
    /// listed world, in order.
    ///
    /// Each step moves every vehicle (unicycle kinematics, scripted
    /// vehicles keeping their lane at their own speed), flags wall and
    /// vehicle–vehicle collisions, ends the episode on any collision or at
    /// the step limit, pays every vehicle the team reward
    /// `α·r_col + (1−α)·r_travel` (Sec. IV-B), and renders every vehicle's
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics when the command shape is wrong or any listed world's
    /// episode already ended.
    pub fn step_worlds(
        &mut self,
        worlds: &[usize],
        commands: &[impl AsRef<[VehicleCommand]>],
    ) -> Vec<StepOutcome> {
        let _step_span = hero_telemetry::span("env_step");
        hero_telemetry::counter_add("env_steps", worlds.len() as u64);
        assert_eq!(
            worlds.len(),
            commands.len(),
            "one command set per stepped world required"
        );
        let n = self.n_vehicles;

        // Phase 1: kinematics, every world.
        let mut before_s = vec![0.0f32; worlds.len() * n];
        for (k, (&w, cmds)) in worlds.iter().zip(commands).enumerate() {
            let cmds = cmds.as_ref();
            assert_eq!(cmds.len(), n, "one command per vehicle required");
            assert!(!self.done[w], "step() called on a finished episode");
            for i in 0..n {
                let slot = w * n + i;
                before_s[k * n + i] = self.s[slot];
                let mut v = self.vehicle_state(w, i);
                let cmd = match self.spawns[i].role {
                    VehicleRole::Learner => cmds[i],
                    VehicleRole::Scripted { speed } => {
                        let mut c =
                            self.executor
                                .command(DrivingOption::KeepLane, &v, &self.cfg.track);
                        c.linear = speed;
                        c
                    }
                };
                v.step(cmd, &self.cfg.vehicle, &self.cfg.track, self.cfg.dt);
                self.s[slot] = v.s;
                self.d[slot] = v.d;
                self.heading[slot] = v.heading;
                self.speed[slot] = v.speed;
            }
            self.step_count[w] += 1;
        }

        // Phase 2: collisions, termination, rewards.
        let mut all_collisions = Vec::with_capacity(worlds.len());
        let mut all_rewards = Vec::with_capacity(worlds.len());
        let mut all_done = Vec::with_capacity(worlds.len());
        let mut all_mean_speed = Vec::with_capacity(worlds.len());
        for (k, &w) in worlds.iter().enumerate() {
            let collisions = self.detect_collisions(w);
            for (i, &flag) in collisions.iter().enumerate() {
                self.collided[w * n + i] |= flag;
            }
            let any_collision = collisions.iter().any(|&c| c);
            self.done[w] = any_collision || self.step_count[w] >= self.cfg.max_steps;

            let rewards: Vec<f32> = (0..n)
                .map(|i| {
                    let travel = self
                        .cfg
                        .track
                        .signed_delta(before_s[k * n + i], self.s[w * n + i])
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
            let mean_speed = (0..n).map(|i| self.speed[w * n + i]).sum::<f32>() / n as f32;
            all_collisions.push(collisions);
            all_rewards.push(rewards);
            all_done.push(self.done[w]);
            all_mean_speed.push(mean_speed);
        }

        // Phase 3: batched sensor sweep across every stepped world.
        let observations = {
            let _sensor_span = hero_telemetry::span("sensors");
            hero_telemetry::counter_add("lidar_scans", (worlds.len() * n) as u64);
            hero_telemetry::counter_add("camera_frames", (worlds.len() * n) as u64);
            self.sense_worlds(worlds, 0..n)
        };

        observations
            .into_iter()
            .zip(all_rewards)
            .zip(all_collisions)
            .zip(all_done)
            .zip(all_mean_speed)
            .map(
                |((((observations, rewards), collisions), done), mean_speed)| StepOutcome {
                    observations,
                    rewards,
                    collisions,
                    done,
                    mean_speed,
                },
            )
            .collect()
    }

    /// Collision detection for world `w`: a wall test (any part of the body
    /// outside the drivable area) and a separating-axis test between every
    /// pair of oriented bounding boxes, both on one cached `sin_cos` per
    /// vehicle (`sin_cos(h) == (h.sin(), h.cos())`, see the module docs).
    /// Vehicle pairs whose centers are more than three circumradii apart
    /// skip the SAT entirely — boxes separated by over `2·√2` circumradii
    /// always project apart on one of the first OBB's two axes, and the
    /// extra margin dwarfs f32 rounding, so the skipped test could only
    /// ever report "no overlap".
    fn detect_collisions(&self, w: usize) -> Vec<bool> {
        let n = self.n_vehicles;
        let mut hit = vec![false; n];
        let track = &self.cfg.track;
        let params = &self.cfg.vehicle;
        let half_len = params.length / 2.0;
        let half_wid = params.width / 2.0;
        let trig: Vec<Trig> = (0..n).map(|i| Trig::of(self.heading[w * n + i])).collect();
        for (i, t) in trig.iter().enumerate() {
            let half_w = params.width / 2.0 + params.length / 2.0 * t.sin_h.abs();
            let d = self.d[w * n + i];
            if d - half_w < 0.0 || d + half_w > track.width() {
                hit[i] = true;
            }
        }
        let sat_reject2 = 9.0 * (half_len * half_len + half_wid * half_wid);
        for i in 0..n {
            let si = self.s[w * n + i];
            let center_i = Vec2::new(track.signed_delta(si, si), self.d[w * n + i]);
            for j in (i + 1)..n {
                let center_j =
                    Vec2::new(track.signed_delta(si, self.s[w * n + j]), self.d[w * n + j]);
                let dx = center_j.x - center_i.x;
                let dy = center_j.y - center_i.y;
                if dx * dx + dy * dy > sat_reject2 {
                    continue;
                }
                if sat_intersects(center_i, trig[i], center_j, trig[j], half_len, half_wid) {
                    hit[i] = true;
                    hit[j] = true;
                }
            }
        }
        hit
    }

    /// Renders the observations of vehicles `egos` in every listed world
    /// in one ego-major pass over shared trig caches, with conservative
    /// bounding-circle far rejects that skip obstacles provably outside a
    /// sensor's reach (bitwise-safe, see the inline arguments).
    ///
    /// The lidar casts `beams` rays, beam 0 along the ego's heading and
    /// the rest counter-clockwise, against every other vehicle's oriented
    /// bounding box and the two track walls; each return is the distance
    /// to the nearest hit normalized by `max_range` (1 = nothing in
    /// range). The camera samples the center of every cell of a
    /// `rows × cols` window ahead of the ego in its heading-aligned frame
    /// (row 0 nearest, flattened row-major): [`CAMERA_VEHICLE`] inside
    /// another vehicle's box, else [`CAMERA_OFF_TRACK`] off the drivable
    /// area, else 0.
    fn sense_worlds(&mut self, worlds: &[usize], egos: Range<usize>) -> Vec<Vec<Observation>> {
        let n = self.n_vehicles;
        let track = self.cfg.track;
        let params = self.cfg.vehicle;
        let half_len = params.length / 2.0;
        let half_wid = params.width / 2.0;
        let lidar = self.cfg.lidar;
        let cam = self.cfg.camera;
        let per_world = egos.len();
        let n_egos = worlds.len() * per_world;

        // One sin_cos pair per vehicle per sweep (instead of per
        // ray/cell/obstacle) — see the module docs for why this is
        // bitwise-safe.
        let trig: Vec<Trig> = worlds
            .iter()
            .flat_map(|&w| (0..n).map(move |i| w * n + i))
            .map(|slot| Trig::of(self.heading[slot]))
            .collect();

        // Obstacles per ego: every other vehicle in the ego's world,
        // pre-transformed into the ego-relative frame (and the lidar
        // origin into each obstacle's local frame — beam-invariant).
        let mut obstacles: Vec<Obstacle> = Vec::with_capacity(n_egos * (n - 1));
        for (wk, &w) in worlds.iter().enumerate() {
            for i in egos.clone() {
                let ego_slot = w * n + i;
                let origin = Vec2::new(0.0, self.d[ego_slot]);
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let slot = w * n + j;
                    let t = trig[wk * n + j];
                    let center = Vec2::new(
                        track.signed_delta(self.s[ego_slot], self.s[slot]),
                        self.d[slot],
                    );
                    let rel = origin.sub(center);
                    // origin.sub(center).rotated(-heading) with cached trig.
                    let o_local = Vec2::new(
                        t.cos_nh * rel.x - t.sin_nh * rel.y,
                        t.sin_nh * rel.x + t.cos_nh * rel.y,
                    );
                    obstacles.push(Obstacle {
                        center,
                        o_local,
                        sin_nh: t.sin_nh,
                        cos_nh: t.cos_nh,
                        dist2: rel.x * rel.x + rel.y * rel.y,
                    });
                }
            }
        }
        let obs_per_ego = n - 1;

        // Far rejects. Every point of an obstacle's box lies within one
        // circumradius of its center, so:
        //  - lidar: a slab hit at parameter `t` (unit direction) is at
        //    least `dist - circum` away; the scan folds `nearest.min(t)`
        //    from `nearest = max_range`, so any obstacle whose every hit
        //    exceeds `max_range` leaves the scan bit-identical. Rejecting
        //    past `max_range + 2·circum` keeps a full circumradius
        //    (~0.15 m) of slack over f32 rounding.
        //  - camera: a cell can only read `CAMERA_VEHICLE` when its
        //    center is within one circumradius of the obstacle's center
        //    (the box test implies it), and cell centers lie within
        //    `√(forward² + lateral²)` of the sensor origin; an obstacle
        //    beyond the sum of both radii (plus 5 cm of slack over f32
        //    rounding) can therefore never mark a cell.
        let circum2 = half_len * half_len + half_wid * half_wid;
        let lidar_reject2 = {
            let r = lidar.max_range + 2.0 * circum2.sqrt();
            r * r
        };
        let cam_reject2 = {
            let window = (cam.forward_range * cam.forward_range
                + cam.lateral_half * cam.lateral_half)
                .sqrt();
            let r = window + circum2.sqrt() + 0.05;
            r * r
        };

        let walls = [0.0f32, track.width()];
        let cell_f = cam.forward_range / cam.rows as f32;
        let cell_l = 2.0 * cam.lateral_half / cam.cols as f32;
        let mut near_lidar: Vec<Obstacle> = Vec::with_capacity(obs_per_ego);
        let mut near_cam: Vec<Obstacle> = Vec::with_capacity(obs_per_ego);

        let mut out: Vec<Vec<Observation>> = Vec::with_capacity(worlds.len());
        for (wk, &w) in worlds.iter().enumerate() {
            let mut world_obs: Vec<Observation> = Vec::with_capacity(per_world);
            for (k, i) in egos.clone().enumerate() {
                let e = wk * per_world + k;
                let ego_slot = w * n + i;
                let t = trig[wk * n + i];
                let heading = self.heading[ego_slot];
                let d_ego = self.d[ego_slot];
                near_lidar.clear();
                near_cam.clear();
                for ob in &obstacles[e * obs_per_ego..(e + 1) * obs_per_ego] {
                    if ob.dist2 <= lidar_reject2 {
                        near_lidar.push(*ob);
                    }
                    if ob.dist2 <= cam_reject2 {
                        near_cam.push(*ob);
                    }
                }

                // Lidar sweep for this ego, over the memoized beam
                // directions (refreshed only when the heading bits
                // changed; same pure-function outputs either way).
                let beam_base = ego_slot * lidar.beams;
                if self.beam_heading[ego_slot].to_bits() != heading.to_bits() {
                    for b in 0..lidar.beams {
                        let angle = heading + b as f32 / lidar.beams as f32 * std::f32::consts::TAU;
                        self.beam_cos[beam_base + b] = angle.cos();
                        self.beam_sin[beam_base + b] = angle.sin();
                    }
                    self.beam_heading[ego_slot] = heading;
                }
                let mut scan = vec![0.0f32; lidar.beams];
                for (b, out) in scan.iter_mut().enumerate() {
                    let dir = Vec2::new(self.beam_cos[beam_base + b], self.beam_sin[beam_base + b]);
                    let mut nearest = lidar.max_range;
                    for ob in &near_lidar {
                        // dir.rotated(-heading) with cached trig, then the
                        // slab test.
                        let dl = Vec2::new(
                            ob.cos_nh * dir.x - ob.sin_nh * dir.y,
                            ob.sin_nh * dir.x + ob.cos_nh * dir.y,
                        );
                        if let Some(t) = slab_ray(ob.o_local, dl, half_len, half_wid) {
                            nearest = nearest.min(t);
                        }
                    }
                    for wall in walls {
                        // The ray against the horizontal line `y = wall`.
                        if dir.y.abs() >= 1e-9 {
                            let t = (wall - d_ego) / dir.y;
                            if t >= 0.0 {
                                nearest = nearest.min(t);
                            }
                        }
                    }
                    *out = nearest / lidar.max_range;
                }

                // Camera raster for this ego. The reference world walks
                // every cell × obstacle; here the loop is inverted: one base
                // pass marks off-track cells, then each obstacle visits
                // only the cells its bounding circle can reach. This is
                // bit-identical because a cell's value is order-free —
                // `CAMERA_VEHICLE` wins over `CAMERA_OFF_TRACK` wins over
                // free space, whichever obstacle matches — and the
                // per-cell coordinates are recomputed with the exact same
                // expressions as the base pass.
                let mut img = vec![0.0f32; cam.rows * cam.cols];
                for r in 0..cam.rows {
                    let fwd = (r as f32 + 0.5) * cell_f;
                    for c in 0..cam.cols {
                        let lat = -cam.lateral_half + (c as f32 + 0.5) * cell_l;
                        let py = d_ego + (t.sin_h * fwd + t.cos_h * lat);
                        if !track.contains_lateral(py) {
                            img[r * cam.cols + c] = CAMERA_OFF_TRACK;
                        }
                    }
                }
                for ob in &near_cam {
                    // The obstacle center in the ego's (fwd, lat) grid
                    // frame — selection only, so ordinary fp arithmetic
                    // with a slack radius is safe: a `contains` hit
                    // requires the cell center within one circumradius of
                    // the obstacle center, and 1 cm of slack dwarfs f32
                    // rounding on these ~2 m coordinates.
                    let rel_x = ob.center.x;
                    let rel_y = ob.center.y - d_ego;
                    let qf = t.cos_nh * rel_x - t.sin_nh * rel_y;
                    let ql = t.sin_nh * rel_x + t.cos_nh * rel_y;
                    let r_sel = circum2.sqrt() + 0.01;
                    let r_lo = ((qf - r_sel) / cell_f - 0.5).floor().max(0.0) as usize;
                    let r_hi = ((qf + r_sel) / cell_f - 0.5)
                        .ceil()
                        .min((cam.rows - 1) as f32);
                    let c_lo = ((ql + cam.lateral_half - r_sel) / cell_l - 0.5)
                        .floor()
                        .max(0.0) as usize;
                    let c_hi = ((ql + cam.lateral_half + r_sel) / cell_l - 0.5)
                        .ceil()
                        .min((cam.cols - 1) as f32);
                    if r_hi < 0.0 || c_hi < 0.0 {
                        continue;
                    }
                    let (r_hi, c_hi) = (r_hi as usize, c_hi as usize);
                    for r in r_lo..=r_hi {
                        let fwd = (r as f32 + 0.5) * cell_f;
                        for c in c_lo..=c_hi {
                            let lat = -cam.lateral_half + (c as f32 + 0.5) * cell_l;
                            // Vec2::new(fwd, lat).rotated(heading) with
                            // cached trig — the same expressions as the
                            // base pass.
                            let px = t.cos_h * fwd - t.sin_h * lat;
                            let py = d_ego + (t.sin_h * fwd + t.cos_h * lat);
                            // p.sub(center).rotated(-heading) with cached
                            // trig, then the box's half-extent comparison.
                            let dx = px - ob.center.x;
                            let dy = py - ob.center.y;
                            let rel_x = ob.cos_nh * dx - ob.sin_nh * dy;
                            let rel_y = ob.sin_nh * dx + ob.cos_nh * dy;
                            if rel_x.abs() <= half_len && rel_y.abs() <= half_wid {
                                img[r * cam.cols + c] = CAMERA_VEHICLE;
                            }
                        }
                    }
                }

                world_obs.push(Observation {
                    lidar: scan,
                    image: img,
                    speed_norm: self.speed[ego_slot] / params.max_speed,
                    lane_norm: track.lane_of(self.d[ego_slot]) as f32 / track.num_lanes as f32,
                    lane_id: track.lane_of(self.d[ego_slot]),
                    speed: self.speed[ego_slot],
                });
            }
            out.push(world_obs);
        }
        out
    }
}

/// Distance along the ray `o + t·d` (both in a box's local frame, `d`
/// unit length) to its first intersection with the box of half extents
/// `half_len × half_wid`, if one exists with `t >= 0` (0 when the ray
/// starts inside): a slab test, the reference world's ray–box
/// intersection with identical arithmetic and branch structure.
fn slab_ray(o: Vec2, d: Vec2, half_len: f32, half_wid: f32) -> Option<f32> {
    let mut t_min = f32::NEG_INFINITY;
    let mut t_max = f32::INFINITY;
    for (oc, dc, half) in [(o.x, d.x, half_len), (o.y, d.y, half_wid)] {
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
        Some(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn coast_all(batch: &BatchWorld, w: usize) -> Vec<VehicleCommand> {
        (0..batch.num_vehicles())
            .map(|i| VehicleCommand::coast(batch.vehicle_state(w, i).speed))
            .collect()
    }

    #[test]
    fn worlds_are_independent() {
        let spawns = scenario::two_vehicle_merge_spawns();
        let mut batch = BatchWorld::new(EnvConfig::default(), spawns, 5, 2);
        let before = batch.vehicle_state(1, 0);
        // Stepping world 0 must leave world 1 untouched.
        let cmds = coast_all(&batch, 0);
        batch.step_worlds(&[0], &[cmds]);
        let after = batch.vehicle_state(1, 0);
        assert_eq!(before, after);
        assert_eq!(batch.step_count(0), 1);
        assert_eq!(batch.step_count(1), 0);
    }

    #[test]
    fn rng_state_round_trips() {
        let spawns = scenario::congestion_spawns();
        let mut batch = BatchWorld::new(EnvConfig::default(), spawns, 3, 2);
        let saved = batch.rng_state(1);
        let first = batch.reset_world(1);
        batch.set_rng_state(1, &saved);
        let again = batch.reset_world(1);
        assert_eq!(first, again);
    }

    #[test]
    fn observe_renders_what_the_step_rendered() {
        // One ego rendered alone must equal its row of the full sweep.
        let spawns = scenario::congestion_spawns();
        let mut batch = BatchWorld::new(EnvConfig::default(), spawns, 4, 3);
        let cmds: Vec<Vec<VehicleCommand>> = (0..3)
            .map(|w| {
                coast_all(&batch, w)
                    .into_iter()
                    .map(|c| VehicleCommand::new(c.linear, 0.2))
                    .collect()
            })
            .collect();
        let outs = batch.step_worlds(&[2, 0], &[&cmds[2], &cmds[0]]);
        for (out, w) in outs.iter().zip([2, 0]) {
            for (i, obs) in out.observations.iter().enumerate() {
                assert_eq!(&batch.observe(w, i), obs, "world {w} vehicle {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one vehicle")]
    fn new_rejects_an_empty_spawn_table() {
        let _ = BatchWorld::new(EnvConfig::default(), Vec::new(), 0, 1);
    }

    #[test]
    #[should_panic(expected = "spawn lane out of range")]
    fn new_rejects_a_spawn_lane_off_the_track() {
        let mut spawns = scenario::two_vehicle_merge_spawns();
        spawns[0].lane = EnvConfig::default().track.num_lanes;
        let _ = BatchWorld::new(EnvConfig::default(), spawns, 0, 1);
    }
}
