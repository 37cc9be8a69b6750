//! The actor/learner rollout engine: environment stepping on dedicated
//! actor threads, learning on a single learner thread.
//!
//! Each actor owns a seeded [`BatchWorld`] shard and does nothing but
//! reset/step worlds on request. This module only hosts worlds: every
//! decision, replay ingestion, update, telemetry record and checkpoint
//! happens on the learner thread, in the training loop shared with
//! sequential training (`crate::learner`), which sees the fleet through
//! one of two hosts. Messages flow over bounded channels (backpressure,
//! stall detection via `recv_timeout`).
//!
//! [`RolloutOptions::batch_worlds`] selects the host:
//!
//! * **Serial** (`batch_worlds == 1`): one world, so one episode per wave,
//!   hosted round-robin across actors. The logical environment RNG stream
//!   lives on the learner and is shipped with every `Reset`, so the run is
//!   **bit-identical to sequential [`crate::trainer::train_team`]** — same
//!   metric series, same telemetry totals, same checkpoint bytes — for any
//!   actor count. A failed actor's episode is replayed onto a live one. A
//!   lone actor with no planned fault would only add a channel round trip
//!   per step, so that configuration steps its world on the learner thread
//!   instead.
//! * **Batched** (`batch_worlds > 1`): `actors × batch_worlds` world
//!   replicas (independent streams via [`hero_sim::env::replica_seed`]) run
//!   waves of episodes concurrently; the loop batches the policy forwards
//!   of all deciding worlds, and the host resets a wave with one fan-out
//!   per actor and steps it with one request per actor. Batched runs are
//!   self-reproducible (same seeds → same bits, and kill/resume is
//!   bit-identical via the checkpoint `workers` section) but not
//!   step-for-step equal to sequential training, because episodes
//!   interleave.
//!
//! ## Supervision
//!
//! The learner doubles as a supervisor over the actor fleet. Each actor
//! slot keeps its thread's [`JoinHandle`], so a failure is classified at
//! detection time: a `recv_timeout` **timeout** is a stall
//! (`actor/stalled`), a **disconnect** means the thread exited — joining
//! the handle harvests the panic payload (`actor/panicked`). Failed slots
//! climb an escalation ladder:
//!
//! 1. **Respawn** — while `respawns_used < max_respawns`, the slot gets a
//!    fresh thread, shard, and channels after a deterministic exponential
//!    backoff (`respawn_backoff_ms << respawns_used`, capped). Because the
//!    learner owns every world's RNG stream, each episode's start stream,
//!    and the per-episode command log, a respawned shard is rebuilt
//!    bit-identically: reset with the episode-start stream, replay the
//!    logged commands (discarding already-ingested replies and telemetry),
//!    and ingest only the missing reply. Counted under `actor/respawned`.
//! 2. **Degrade** — a slot that exhausts its budget is retired for good
//!    (`supervisor/degraded`); the run continues on fewer actors, which in
//!    serial mode cannot perturb a single bit of the output. A batched
//!    slot's running worlds are abandoned (`supervisor/abandoned_worlds`).
//! 3. **Abort** — when no live actor remains, the host reports the fleet
//!    lost and the training loop ends the run with
//!    [`TrainError::FleetLost`], after an emergency checkpoint if it is at
//!    a clean episode boundary.
//!
//! Fault-plan actor faults (`stall@actor:N`, `panic@actor:N`,
//! `slow@actor:N:MS`) apply to generation 0 of a slot only, so a chaos
//! run's respawned fleet is healthy and the final series, counter totals
//! (ignoring `actor/` and `supervisor/`), and checkpoint bytes match a
//! fault-free twin.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel;
use hero_faultplan::FaultPlan;
use hero_rl::telemetry;
use hero_rl::telemetry::{CapturedEvent, FlightEventKind};
use hero_sim::batch::BatchWorld;
use hero_sim::env::{CooperativeWorld, EnvConfig, LaneChangeEnv, Observation, VehicleSpawn};
use hero_sim::vehicle::{VehicleCommand, VehicleState};

use crate::learner::{self, FleetLost, LearnerCore, WorldFlags, WorldHost, WorldReset, WorldStep};
use crate::trainer::{
    train_team_checkpointed, CheckpointConfig, HeroTeam, TrainError, TrainOptions, TrainOutcome,
};

/// Knobs of the actor/learner rollout engine.
#[derive(Clone, Copy, Debug)]
pub struct RolloutOptions {
    /// Number of actor threads stepping environments.
    pub actors: usize,
    /// World replicas per actor. `1` selects serial mode (bit-identical to
    /// sequential training); `> 1` selects batched mode.
    pub batch_worlds: usize,
    /// How long the learner waits on an actor before declaring it stalled.
    pub stall_timeout: Duration,
    /// How many times the supervisor respawns a failed actor slot before
    /// retiring it permanently (the escalation ladder's first rung).
    pub max_respawns: usize,
    /// Base of the deterministic exponential respawn backoff
    /// (`respawn_backoff_ms << respawns_used`, capped at 4096 ms). Zero
    /// disables the sleep entirely; the schedule is wall-clock only and
    /// never consulted by any training decision.
    pub respawn_backoff_ms: u64,
}

impl Default for RolloutOptions {
    fn default() -> Self {
        Self {
            actors: 1,
            batch_worlds: 1,
            stall_timeout: Duration::from_secs(30),
            max_respawns: 2,
            respawn_backoff_ms: 10,
        }
    }
}

impl RolloutOptions {
    /// Whether these options ask for more than one actor thread or world
    /// replica.
    pub fn is_distributed(&self) -> bool {
        self.actors > 1 || self.batch_worlds > 1
    }
}

enum ToActor {
    /// Reset local world `world`, first seating its RNG stream at `rng`
    /// (the learner owns every stream; actors are stateless compute).
    Reset { world: usize, rng: Vec<u64> },
    /// Step the listed local worlds in one batched `step_worlds` call.
    Step {
        worlds: Vec<usize>,
        commands: Vec<Vec<VehicleCommand>>,
    },
}

/// One stepped world, as an actor ships it back.
struct WorldStepMsg {
    world: usize,
    step: WorldStep,
}

enum FromActor {
    ResetDone {
        world: usize,
        observations: Vec<Observation>,
        states: Vec<VehicleState>,
        rng: Vec<u64>,
        events: Vec<CapturedEvent>,
    },
    StepDone {
        steps: Vec<WorldStepMsg>,
        events: Vec<CapturedEvent>,
    },
}

/// Fault-plan behavior injected into one actor incarnation. Only
/// generation 0 of a slot ever carries a fault; respawned incarnations
/// are always healthy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct ActorFault {
    stall: bool,
    panic: bool,
    slow_ms: Option<u64>,
}

impl ActorFault {
    /// What `plan` injects into generation 0 of actor slot `a`.
    fn planned(plan: &FaultPlan, a: usize) -> Self {
        Self {
            stall: plan.stall_actor(a),
            panic: plan.panic_actor(a),
            slow_ms: plan.slow_actor_ms(a),
        }
    }
}

/// One supervised actor slot: the live incarnation's channels and join
/// handle plus the slot's position on the escalation ladder.
struct ActorSlot {
    tx: channel::Sender<ToActor>,
    rx: channel::Receiver<FromActor>,
    /// Taken when the thread is joined (panic harvest or teardown).
    handle: Option<JoinHandle<()>>,
    /// Incarnation counter; generation 0 is the original spawn.
    generation: u64,
    respawns_used: usize,
    /// Permanently degraded: the respawn budget is exhausted and the
    /// supervisor will never revive this slot.
    retired: bool,
}

/// Everything needed to (re)spawn an actor incarnation. Owned data only,
/// so respawned threads are `'static` and outlive any borrow the learner
/// holds.
struct ActorSpawner {
    env_cfg: EnvConfig,
    spawns: Vec<VehicleSpawn>,
    seed: u64,
    worlds: usize,
    capture: bool,
    shutdown: Arc<AtomicBool>,
}

impl ActorSpawner {
    fn spawn(&self, index: usize, generation: u64, fault: ActorFault) -> ActorSlot {
        // The reset fan-out sends one request per world before it reads a
        // reply; every other exchange is one request and one reply. So a
        // shard's world count bounds both channels without deadlock.
        let (tx_cmd, rx_cmd) = channel::bounded::<ToActor>(self.worlds);
        let (tx_res, rx_res) = channel::bounded::<FromActor>(self.worlds);
        let cfg = self.env_cfg;
        let spawns = self.spawns.clone();
        let (seed, worlds, capture) = (self.seed, self.worlds, self.capture);
        let shutdown = Arc::clone(&self.shutdown);
        let handle = std::thread::Builder::new()
            .name(format!("hero-actor-{index}-gen{generation}"))
            .spawn(move || {
                actor_loop(cfg, spawns, seed, worlds, rx_cmd, tx_res, capture, fault, shutdown)
            })
            .expect("spawn actor thread");
        ActorSlot {
            tx: tx_cmd,
            rx: rx_res,
            handle: Some(handle),
            generation,
            respawns_used: 0,
            retired: false,
        }
    }
}

/// The body of one actor thread: build the world shard, then serve
/// reset/step requests until the command channel closes. Telemetry emitted
/// while serving a request is captured and shipped back for the learner to
/// replay in deterministic order; telemetry from shard construction is
/// captured and discarded (the learner already owns the canonical
/// environment).
#[allow(clippy::too_many_arguments)]
fn actor_loop(
    cfg: EnvConfig,
    spawns: Vec<VehicleSpawn>,
    seed: u64,
    worlds: usize,
    rx: channel::Receiver<ToActor>,
    tx: channel::Sender<FromActor>,
    capture: bool,
    fault: ActorFault,
    shutdown: Arc<AtomicBool>,
) {
    if fault.panic {
        // Injected fault: die before serving anything. The learner sees
        // the disconnect and harvests this payload off the join handle.
        panic!("fault plan: injected actor panic");
    }
    if fault.stall {
        // Injected fault: freeze before serving anything, but stay
        // responsive to shutdown so engine teardown cannot deadlock.
        while !shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(2));
        }
        return;
    }
    telemetry::begin_capture();
    let mut shard = BatchWorld::new(cfg, spawns, seed, worlds);
    let _ = telemetry::take_capture();
    let n = shard.num_vehicles();
    while let Ok(msg) = rx.recv() {
        if capture {
            telemetry::begin_capture();
        }
        let mut reply = match msg {
            ToActor::Reset { world, rng } => {
                shard.set_rng_state(world, &rng);
                let observations = shard.reset_world(world);
                FromActor::ResetDone {
                    world,
                    states: (0..n).map(|i| shard.vehicle_state(world, i)).collect(),
                    rng: shard.rng_state(world),
                    observations,
                    events: Vec::new(),
                }
            }
            ToActor::Step { worlds, commands } => {
                let outs = shard.step_worlds(&worlds, &commands);
                let steps = worlds
                    .iter()
                    .zip(outs)
                    .map(|(&w, out)| WorldStepMsg {
                        world: w,
                        step: WorldStep {
                            states: (0..n).map(|i| shard.vehicle_state(w, i)).collect(),
                            observations: out.observations,
                            rewards: out.rewards,
                            mean_speed: out.mean_speed,
                            outcome: out.done.then(|| {
                                WorldFlags::read(n, |i| {
                                    (
                                        shard.has_collided(w, i),
                                        shard.needs_merge(w, i),
                                        shard.has_merged(w, i),
                                    )
                                })
                            }),
                        },
                    })
                    .collect();
                FromActor::StepDone {
                    steps,
                    events: Vec::new(),
                }
            }
        };
        if capture {
            let captured = telemetry::take_capture();
            match &mut reply {
                FromActor::ResetDone { events, .. } | FromActor::StepDone { events, .. } => {
                    *events = captured;
                }
            }
        }
        if let Some(ms) = fault.slow_ms {
            // Injected fault: delay every reply (wall-clock only; the
            // reply bytes are untouched, so data stays bit-identical).
            std::thread::sleep(Duration::from_millis(ms));
        }
        if tx.send(reply).is_err() {
            break;
        }
    }
}

/// Pre-built metric names for the `live/` rollout plane, so the
/// per-step instrumentation sites don't allocate.
struct LiveNames {
    queue_now: Vec<String>,
    queue_depth: Vec<String>,
    blocked_send: Vec<String>,
    heartbeat: Vec<String>,
    util: Vec<String>,
}

impl LiveNames {
    fn new(actors: usize) -> Self {
        let per = |prefix: &str| -> Vec<String> {
            (0..actors).map(|a| format!("{prefix}/actor{a}")).collect()
        };
        Self {
            queue_now: per("live/queue_depth_now"),
            queue_depth: per("live/queue_depth"),
            blocked_send: per("live/blocked_send_us"),
            heartbeat: per("live/heartbeat_s"),
            util: per("live/actor_util"),
        }
    }
}

/// The supervised actor fleet, plus the environment RNG stream of every
/// world it hosts, which the learner keeps for it.
struct Fleet<'a> {
    rollout: &'a RolloutOptions,
    /// One environment RNG stream per hosted world; world 0's continues
    /// the caller's own environment.
    world_rng: Vec<Vec<u64>>,
    slots: Vec<ActorSlot>,
    spawner: ActorSpawner,
    /// Joined at teardown: threads of replaced incarnations that may
    /// still be sleeping on the shutdown flag (stalled generation 0s).
    zombies: Vec<JoinHandle<()>>,
    dead: Vec<bool>,
    // The `live/` observability plane: wall-clock process state feeding
    // the metrics exporter and `hero-top`. Never consulted by any
    // training decision, so it cannot perturb determinism.
    engine_start: Instant,
    wave_t0: Instant,
    outstanding: Vec<u64>,
    busy_us: Vec<u64>,
    pending_redispatch: Vec<usize>,
    names: LiveNames,
}

impl<'a> Fleet<'a> {
    /// Spawns `rollout.actors` actors, each building a shard of
    /// `rollout.batch_worlds` replicas of `env`, and seats the streams of
    /// the worlds they host: world 0 alone in serial mode, every replica
    /// in batched mode. Generation 0 carries the fault plan's actor faults.
    fn spawn(env: &LaneChangeEnv, rollout: &'a RolloutOptions, plan: &FaultPlan) -> Self {
        let actors = rollout.actors;
        let worlds = match rollout.batch_worlds {
            1 => 1,
            per_actor => actors * per_actor,
        };
        // World 0 is the canonical env's own stream (so serial mode
        // continues it exactly); worlds g > 0 get independent replica
        // streams. Building the worlds senses each one once purely to read
        // its RNG stream; capture and discard that telemetry, because a
        // resumed run imports the checkpoint's totals (which already
        // counted the original construction) and then rebuilds the worlds
        // again — without the discard its sensor counters would exceed an
        // uninterrupted run's.
        telemetry::begin_capture();
        let fresh = BatchWorld::new(*env.config(), env.spawns().to_vec(), env.seed(), worlds);
        let _ = telemetry::take_capture();
        let mut world_rng: Vec<Vec<u64>> = (0..worlds).map(|g| fresh.rng_state(g)).collect();
        world_rng[0] = env.rng_state();
        let spawner = ActorSpawner {
            env_cfg: *env.config(),
            spawns: env.spawns().to_vec(),
            seed: env.seed(),
            worlds: rollout.batch_worlds,
            capture: telemetry::is_enabled(),
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        let slots = (0..actors)
            .map(|a| spawner.spawn(a, 0, ActorFault::planned(plan, a)))
            .collect();
        Self {
            rollout,
            world_rng,
            slots,
            spawner,
            zombies: Vec::new(),
            dead: vec![false; actors],
            engine_start: Instant::now(),
            wave_t0: Instant::now(),
            outstanding: vec![0; actors],
            busy_us: vec![0; actors],
            pending_redispatch: Vec::new(),
            names: LiveNames::new(actors),
        }
    }

    /// Teardown: wakes any stalled (sleeping) incarnations, closes every
    /// command channel, and joins all threads — current slots and the
    /// zombies left behind by respawns — so no actor outlives the engine.
    /// Returns world 0's environment RNG stream.
    fn shut_down(mut self) -> Vec<u64> {
        self.spawner.shutdown.store(true, Ordering::Relaxed);
        for slot in std::mem::take(&mut self.slots) {
            let ActorSlot { tx, rx, handle, .. } = slot;
            drop(tx);
            drop(rx);
            if let Some(h) = handle {
                // An injected panic that was never observed mid-run still
                // surfaces here; the payload is intentionally discarded.
                let _ = h.join();
            }
        }
        for h in self.zombies.drain(..) {
            let _ = h.join();
        }
        self.world_rng.swap_remove(0)
    }

    fn mark_stalled(&mut self, a: usize) {
        if !self.dead[a] {
            self.dead[a] = true;
            telemetry::counter_add("actor/stalled", 1);
            telemetry::flight_event(FlightEventKind::StallDetected { actor: a as u64 });
            // A stall is a fault: leave the flight recorder behind for
            // post-mortem even when the surviving actors finish the run.
            telemetry::mark_faulted();
            self.pending_redispatch.push(a);
            telemetry::progress(&format!("actor {a} stalled; re-dispatching its work"));
        }
    }

    /// Marks actor `a` dead after its reply channel disconnected, joining
    /// the thread to harvest the panic payload (a disconnect means the
    /// thread already exited, so the join cannot block).
    fn mark_disconnected(&mut self, a: usize) {
        if self.dead[a] {
            return;
        }
        self.dead[a] = true;
        let detail = match self.slots[a].handle.take().map(JoinHandle::join) {
            Some(Err(payload)) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                format!("panicked: {msg}")
            }
            Some(Ok(())) => "exited unexpectedly".to_string(),
            None => "disconnected".to_string(),
        };
        telemetry::counter_add("actor/panicked", 1);
        telemetry::flight_event(FlightEventKind::ActorPanicked { actor: a as u64 });
        telemetry::mark_faulted();
        self.pending_redispatch.push(a);
        telemetry::progress(&format!("actor {a} {detail}; harvesting its work"));
    }

    /// The supervisor's ladder, applied to every failed slot: respawn
    /// while budget remains (fresh thread/shard/channels after a
    /// deterministic exponential backoff), else retire the slot for good.
    /// Only called at points where no request is in flight to the slot.
    fn supervise_failed(&mut self) {
        for a in 0..self.slots.len() {
            if !self.dead[a] || self.slots[a].retired {
                continue;
            }
            let used = self.slots[a].respawns_used;
            if used >= self.rollout.max_respawns {
                self.slots[a].retired = true;
                let remaining = self.live_actors() as u64;
                telemetry::counter_add("supervisor/degraded", 1);
                telemetry::flight_event(FlightEventKind::SupervisorDegraded {
                    actor: a as u64,
                    remaining,
                });
                telemetry::progress(&format!(
                    "actor {a} exhausted its respawn budget; \
                     continuing degraded on {remaining} actor(s)"
                ));
                continue;
            }
            let backoff = self
                .rollout
                .respawn_backoff_ms
                .saturating_mul(1u64 << (used as u32).min(12))
                .min(4096);
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
            let generation = self.slots[a].generation + 1;
            let mut fresh = self.spawner.spawn(a, generation, ActorFault::default());
            fresh.respawns_used = used + 1;
            let old = std::mem::replace(&mut self.slots[a], fresh);
            // Dropping the old channels lets a merely-slow thread exit on
            // its next send; a stalled one is still sleeping on the
            // shutdown flag, so park its handle for teardown.
            if let Some(h) = old.handle {
                self.zombies.push(h);
            }
            self.dead[a] = false;
            self.outstanding[a] = 0;
            telemetry::counter_add("actor/respawned", 1);
            telemetry::flight_event(FlightEventKind::ActorRespawned {
                actor: a as u64,
                generation,
            });
            telemetry::progress(&format!("actor {a} respawned (generation {generation})"));
        }
    }

    /// Climbs the ladder at a wave boundary; [`FleetLost`] once no live
    /// actor remains.
    fn supervise(&mut self) -> Result<(), FleetLost> {
        self.supervise_failed();
        match self.live_actors() {
            0 => Err(FleetLost),
            _ => Ok(()),
        }
    }

    fn live_actors(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    /// Starts wave `wave` over `worlds` worlds.
    fn wave_dispatched(&mut self, wave: u64, worlds: usize) {
        self.wave_t0 = Instant::now();
        telemetry::flight_event(FlightEventKind::WaveDispatched {
            wave,
            worlds: worlds as u64,
        });
    }

    /// Ends wave `wave`, which started `episodes` episodes.
    fn wave_completed(&self, wave: u64, episodes: usize) {
        telemetry::flight_event(FlightEventKind::WaveCompleted {
            wave,
            episodes: episodes as u64,
        });
        if !telemetry::disabled() {
            telemetry::live_observe("live/wave_us", self.wave_t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// Refreshes the aggregate queue/actor gauges. Only called from
    /// instrumentation sites that already checked a sink is active.
    fn refresh_live_gauges(&self) {
        let mut total = 0u64;
        let mut busy = 0usize;
        for (a, &o) in self.outstanding.iter().enumerate() {
            telemetry::gauge_set(&self.names.queue_now[a], o as f64);
            if !self.dead[a] {
                total += o;
                if o > 0 {
                    busy += 1;
                }
            }
        }
        telemetry::gauge_set("live/queue_depth_total", total as f64);
        telemetry::gauge_set("live/actors_busy", busy as f64);
        telemetry::gauge_set("live/actors_total", self.live_actors() as f64);
    }

    /// Sends a request to actor `a`, timing how long the bounded channel
    /// blocked and maintaining the queue-depth plane. Returns `false` on
    /// disconnect, after classifying the failure
    /// ([`Self::mark_disconnected`]).
    fn send_to(&mut self, a: usize, msg: ToActor) -> bool {
        let t0 = Instant::now();
        let ok = self.slots[a].tx.send(msg).is_ok();
        if !telemetry::disabled() {
            telemetry::live_observe(
                &self.names.blocked_send[a],
                t0.elapsed().as_secs_f64() * 1e6,
            );
            if ok {
                self.outstanding[a] += 1;
                telemetry::live_observe(&self.names.queue_depth[a], self.outstanding[a] as f64);
            }
            self.refresh_live_gauges();
        }
        if !ok {
            self.mark_disconnected(a);
        }
        ok
    }

    /// Receives one message from actor `a`, classifying failures: a
    /// timeout marks it stalled, a disconnect joins the thread and
    /// harvests its panic. Returns `None` on either.
    fn recv(&mut self, a: usize) -> Option<FromActor> {
        let t0 = Instant::now();
        match self.slots[a].rx.recv_timeout(self.rollout.stall_timeout) {
            Ok(m) => {
                if !telemetry::disabled() {
                    // The learner's wait for this reply approximates the
                    // actor's busy time (request/reply protocol); its
                    // ratio against engine wall-clock is the utilization
                    // gauge.
                    self.busy_us[a] += t0.elapsed().as_micros() as u64;
                    let elapsed_us = self.engine_start.elapsed().as_micros().max(1) as u64;
                    telemetry::gauge_set(
                        &self.names.util[a],
                        (self.busy_us[a] as f64 / elapsed_us as f64).min(1.0),
                    );
                    telemetry::gauge_set(
                        &self.names.heartbeat[a],
                        telemetry::elapsed_s().unwrap_or_default(),
                    );
                    self.outstanding[a] = self.outstanding[a].saturating_sub(1);
                    self.refresh_live_gauges();
                }
                Some(m)
            }
            Err(channel::RecvTimeoutError::Timeout) => {
                self.mark_stalled(a);
                None
            }
            Err(channel::RecvTimeoutError::Disconnected) => {
                self.mark_disconnected(a);
                None
            }
        }
    }

    /// Resets local world `world` of actor `a` at stream `rng`. `None`
    /// means `a` failed (already classified).
    fn reset_on(&mut self, a: usize, world: usize, rng: &[u64]) -> Option<FromActor> {
        let msg = ToActor::Reset {
            world,
            rng: rng.to_vec(),
        };
        if self.send_to(a, msg) {
            self.recv(a)
        } else {
            None
        }
    }

    /// Resets global world `g` on actor `a` at its episode-start stream
    /// `rng` and steps it through `log`, returning the last step's reply
    /// (and its telemetry) — the replies of the earlier, already-ingested
    /// steps are discarded. `None` means `a` failed on the way (already
    /// classified).
    fn replay_world(
        &mut self,
        a: usize,
        g: usize,
        rng: &[u64],
        log: &[Vec<VehicleCommand>],
    ) -> Option<(WorldStepMsg, Vec<CapturedEvent>)> {
        let world = g % self.rollout.batch_worlds;
        let Some(FromActor::ResetDone { rng: reset_rng, .. }) = self.reset_on(a, world, rng) else {
            return None;
        };
        debug_assert_eq!(
            reset_rng, self.world_rng[g],
            "a replayed reset must land on the stream the learner holds"
        );
        let mut last = None;
        for cmds in log {
            let step = ToActor::Step {
                worlds: vec![world],
                commands: vec![cmds.clone()],
            };
            if !self.send_to(a, step) {
                return None;
            }
            let Some(FromActor::StepDone { mut steps, events }) = self.recv(a) else {
                return None;
            };
            last = Some((steps.pop().expect("exactly one world stepped"), events));
        }
        last
    }

    /// Runs `attempt` on the live actors in round-robin order starting at
    /// `first` until one succeeds, climbing the supervision ladder before
    /// every pass. Returns the actor, its distance from `first`, and the
    /// result; `None` once no live actor remains.
    fn on_live_actor<T>(
        &mut self,
        first: usize,
        mut attempt: impl FnMut(&mut Self, usize) -> Option<T>,
    ) -> Option<(usize, usize, T)> {
        let actors = self.slots.len();
        loop {
            self.supervise_failed();
            if self.live_actors() == 0 {
                return None;
            }
            for offset in 0..actors {
                let a = (first + offset) % actors;
                if self.dead[a] {
                    continue;
                }
                if let Some(out) = attempt(self, a) {
                    return Some((a, offset, out));
                }
            }
            // Every candidate failed on the way; climb the ladder again
            // (respawn budget permitting) or report the fleet lost.
        }
    }
}

/// Serial mode's host: one world, whose episode runs on the round-robin
/// actor and can be replayed onto another (or a respawned) actor from its
/// start stream and command log.
struct SerialHost<'f, 'a> {
    fleet: &'f mut Fleet<'a>,
    /// The running episode, and the actor hosting it.
    episode: usize,
    actor: usize,
    /// The running episode's start stream and the commands sent so far:
    /// enough to rebuild it on a fresh shard.
    ep_rng0: Vec<u64>,
    cmd_log: Vec<Vec<VehicleCommand>>,
}

impl<'f, 'a> SerialHost<'f, 'a> {
    fn new(fleet: &'f mut Fleet<'a>) -> Self {
        Self {
            fleet,
            episode: 0,
            actor: 0,
            ep_rng0: Vec::new(),
            cmd_log: Vec::new(),
        }
    }
}

impl WorldHost for SerialHost<'_, '_> {
    fn worlds(&self) -> usize {
        1
    }

    fn reset(&mut self, episode: usize, _cap: usize) -> Result<Vec<WorldReset>, FleetLost> {
        let fleet = &mut *self.fleet;
        fleet.supervise()?;
        // One episode is one wave of one world, numbered by the episode.
        self.episode = episode;
        fleet.wave_dispatched(episode as u64, 1);
        self.ep_rng0 = fleet.world_rng[0].clone();
        self.cmd_log.clear();
        // Host the episode on the round-robin actor, skipping (and
        // re-dispatching past) failed ones. Nothing of the episode has
        // been ingested until ResetDone arrives, so retrying the reset on
        // another actor is side-effect free.
        let ep_rng0 = &self.ep_rng0;
        let hosted = fleet.on_live_actor(episode, |fleet, a| match fleet.reset_on(a, 0, ep_rng0) {
            Some(FromActor::ResetDone {
                observations,
                states,
                rng,
                events,
                ..
            }) => Some((observations, states, rng, events)),
            _ => None,
        });
        fleet.pending_redispatch.clear();
        let (a, offset, (observations, states, rng, events)) = hosted.ok_or(FleetLost)?;
        telemetry::replay(events);
        fleet.world_rng[0] = rng;
        if offset > 0 {
            // The round-robin host was dead or failed: this actor took the
            // episode over.
            telemetry::flight_event(FlightEventKind::Redispatched {
                actor: a as u64,
                wave: episode as u64,
            });
        }
        self.actor = a;
        Ok(vec![(0, observations, states)])
    }

    fn step(
        &mut self,
        _worlds: &[usize],
        mut commands: Vec<Vec<VehicleCommand>>,
    ) -> Result<Vec<Option<WorldStep>>, FleetLost> {
        let commands = commands.pop().expect("the serial host steps one world");
        let (fleet, episode) = (&mut *self.fleet, self.episode);
        self.cmd_log.push(commands.clone());
        let mut delivered = None;
        let msg = ToActor::Step {
            worlds: vec![0],
            commands: vec![commands],
        };
        if fleet.send_to(self.actor, msg) {
            if let Some(FromActor::StepDone { mut steps, events }) = fleet.recv(self.actor) {
                let msg = steps.pop().expect("exactly one world stepped");
                delivered = Some((self.actor, msg, events));
            }
        }
        if delivered.is_none() {
            // The host failed mid-episode. Steps 0..k-1 are already
            // ingested, but the learner owns the episode-start RNG and the
            // full command log, so a fresh shard replays the episode
            // bit-identically; its last reply IS the missing one.
            let (ep_rng0, log) = (&self.ep_rng0, &self.cmd_log);
            delivered = fleet
                .on_live_actor(episode, |fleet, a| fleet.replay_world(a, 0, ep_rng0, log))
                .map(|(a, _, (msg, events))| {
                    let replayed = log.len() - 1;
                    telemetry::counter_add("actor/replayed_steps", replayed as u64);
                    telemetry::flight_event(FlightEventKind::Redispatched {
                        actor: a as u64,
                        wave: episode as u64,
                    });
                    telemetry::progress(&format!(
                        "episode {episode} recovered on actor {a} after replaying {replayed} step(s)"
                    ));
                    (a, msg, events)
                });
        }
        let (host, msg, events) = delivered.ok_or(FleetLost)?;
        self.actor = host;
        telemetry::replay(events);
        Ok(vec![Some(msg.step)])
    }

    fn wave_done(&mut self, started: usize) {
        self.fleet.wave_completed(self.episode as u64, started);
    }

    fn env_rng(&self) -> Vec<u64> {
        self.fleet.world_rng[0].clone()
    }
}

/// Batched mode's host: `actors × batch_worlds` worlds, reset per wave
/// with one fan-out per actor and stepped with one request per actor. A
/// failed actor's running worlds are replayed onto its respawned slot, and
/// abandoned once the slot is retired.
struct BatchedHost<'f, 'a> {
    fleet: &'f mut Fleet<'a>,
    /// The running wave's number, and how many waves were dispatched.
    wave: u64,
    dispatched: u64,
    /// Each world's episode-start stream and the commands sent in its
    /// episode so far: enough to rebuild it on a fresh shard.
    ep_rng0: Vec<Vec<u64>>,
    cmd_log: Vec<Vec<Vec<VehicleCommand>>>,
}

impl<'f, 'a> BatchedHost<'f, 'a> {
    fn new(fleet: &'f mut Fleet<'a>) -> Self {
        let worlds = fleet.world_rng.len();
        Self {
            fleet,
            wave: 0,
            dispatched: 0,
            ep_rng0: vec![Vec::new(); worlds],
            cmd_log: vec![Vec::new(); worlds],
        }
    }
}

impl BatchedHost<'_, '_> {
    /// Replays actor `a`'s running worlds onto a respawned incarnation.
    /// Returns `false` when the slot is retired instead: its worlds are
    /// abandoned, and later waves rerun their episodes on the surviving
    /// fleet.
    fn recover(&mut self, a: usize, worlds_a: &[usize], msgs: &mut [Option<WorldStepMsg>]) -> bool {
        let fleet = &mut *self.fleet;
        'attempt: loop {
            fleet.supervise_failed();
            if fleet.dead[a] {
                telemetry::counter_add("supervisor/abandoned_worlds", worlds_a.len() as u64);
                telemetry::progress(&format!(
                    "actor {a} unrecoverable; abandoning {} in-flight episode(s)",
                    worlds_a.len()
                ));
                return false;
            }
            let mut replayed = 0u64;
            for &g in worlds_a {
                let log = &self.cmd_log[g];
                let Some((msg, events)) = fleet.replay_world(a, g, &self.ep_rng0[g], log) else {
                    continue 'attempt;
                };
                telemetry::replay(events);
                msgs[g] = Some(msg);
                replayed += log.len() as u64 - 1;
            }
            telemetry::counter_add("actor/replayed_steps", replayed);
            telemetry::flight_event(FlightEventKind::Redispatched {
                actor: a as u64,
                wave: self.wave,
            });
            telemetry::progress(&format!(
                "wave {} recovered actor {a}'s {} world(s) after replaying {replayed} step(s)",
                self.wave,
                worlds_a.len()
            ));
            return true;
        }
    }
}

impl WorldHost for BatchedHost<'_, '_> {
    fn worlds(&self) -> usize {
        self.fleet.world_rng.len()
    }

    fn reset(&mut self, _episode: usize, cap: usize) -> Result<Vec<WorldReset>, FleetLost> {
        let fleet = &mut *self.fleet;
        fleet.supervise()?;
        // Every live world runs one episode, up to the loop's cap.
        let per_actor = fleet.rollout.batch_worlds;
        let worlds: Vec<usize> = (0..fleet.world_rng.len())
            .filter(|g| !fleet.dead[g / per_actor])
            .take(cap)
            .collect();
        self.wave = self.dispatched;
        self.dispatched += 1;
        fleet.wave_dispatched(self.wave, worlds.len());
        // Worlds stranded on previously failed actors are folded back into
        // this wave's live assignment.
        for _failed in std::mem::take(&mut fleet.pending_redispatch) {
            telemetry::flight_event(FlightEventKind::Redispatched {
                actor: (worlds[0] / per_actor) as u64,
                wave: self.wave,
            });
        }
        // Send every reset, then receive them grouped per actor in actor
        // order — deterministic regardless of thread timing. Each world's
        // start stream is kept for mid-wave replay.
        let mut sent = vec![0usize; fleet.slots.len()];
        for &g in &worlds {
            let a = g / per_actor;
            if fleet.dead[a] {
                continue;
            }
            self.ep_rng0[g].clone_from(&fleet.world_rng[g]);
            self.cmd_log[g].clear();
            let msg = ToActor::Reset {
                world: g % per_actor,
                rng: fleet.world_rng[g].clone(),
            };
            if fleet.send_to(a, msg) {
                sent[a] += 1;
            }
        }
        let mut resets = Vec::with_capacity(worlds.len());
        for (a, &count) in sent.iter().enumerate() {
            for _ in 0..count {
                if fleet.dead[a] {
                    break;
                }
                let Some(FromActor::ResetDone {
                    world,
                    observations,
                    states,
                    rng,
                    events,
                }) = fleet.recv(a)
                else {
                    break; // recv classified the actor's failure
                };
                telemetry::replay(events);
                let g = a * per_actor + world;
                fleet.world_rng[g] = rng;
                resets.push((g, observations, states));
            }
        }
        Ok(resets)
    }

    fn step(
        &mut self,
        worlds: &[usize],
        commands: Vec<Vec<VehicleCommand>>,
    ) -> Result<Vec<Option<WorldStep>>, FleetLost> {
        let per_actor = self.fleet.rollout.batch_worlds;
        let actors = self.fleet.slots.len();
        let mut groups: Vec<(Vec<usize>, Vec<Vec<VehicleCommand>>)> =
            vec![(Vec::new(), Vec::new()); actors];
        for (&g, commands) in worlds.iter().zip(commands) {
            self.cmd_log[g].push(commands.clone());
            let group = &mut groups[g / per_actor];
            group.0.push(g % per_actor);
            group.1.push(commands);
        }
        let mut failed_send = vec![false; actors];
        for (a, (worlds, commands)) in groups.into_iter().enumerate() {
            if !worlds.is_empty() {
                failed_send[a] = !self.fleet.send_to(a, ToActor::Step { worlds, commands });
            }
        }
        let mut msgs: Vec<Option<WorldStepMsg>> = (0..self.ep_rng0.len()).map(|_| None).collect();
        let mut abandoned: Vec<usize> = Vec::new();
        for (a, send_failed) in failed_send.into_iter().enumerate() {
            let worlds_a: Vec<usize> = worlds
                .iter()
                .copied()
                .filter(|&g| g / per_actor == a)
                .collect();
            if worlds_a.is_empty() {
                continue;
            }
            let ok = !send_failed
                && !self.fleet.dead[a]
                && match self.fleet.recv(a) {
                    Some(FromActor::StepDone { steps, events }) => {
                        telemetry::replay(events);
                        for m in steps {
                            let g = a * per_actor + m.world;
                            msgs[g] = Some(m);
                        }
                        true
                    }
                    _ => false,
                };
            if !ok && !self.recover(a, &worlds_a, &mut msgs) {
                if self.fleet.live_actors() == 0 {
                    return Err(FleetLost);
                }
                abandoned.extend(worlds_a);
            }
        }
        Ok(worlds
            .iter()
            .map(|g| {
                (!abandoned.contains(g))
                    .then(|| msgs[*g].take().expect("actor stepped this world").step)
            })
            .collect())
    }

    fn wave_done(&mut self, started: usize) {
        self.fleet.wave_completed(self.wave, started);
    }

    fn env_rng(&self) -> Vec<u64> {
        self.fleet.world_rng[0].clone()
    }

    fn world_rngs(&mut self) -> Option<&mut Vec<Vec<u64>>> {
        Some(&mut self.fleet.world_rng)
    }
}

/// [`crate::trainer::train_team_checkpointed`] with rollout split across
/// supervised actor threads (see the module docs for the serial/batched
/// contract and the escalation ladder).
///
/// After training, `env`'s RNG stream is advanced to world 0's position
/// and the team's joint last-options vector reflects world 0's cursor, so
/// downstream evaluation behaves exactly as after a sequential run.
///
/// One fault-free actor hosting one world would only add a channel round
/// trip to every step, so that configuration steps the world on the
/// learner thread instead; the serial host would produce the same bits.
///
/// # Errors
///
/// [`TrainError::ResumeRefused`] when `--resume` finds a checkpoint from
/// the fast-math kernel tier, and [`TrainError::FleetLost`] when every
/// actor slot is dead with the respawn budget exhausted.
pub fn train_team_actor_learner(
    team: &mut HeroTeam,
    env: &mut LaneChangeEnv,
    opts: &TrainOptions,
    ckpt: &CheckpointConfig,
    rollout: &RolloutOptions,
) -> Result<TrainOutcome, TrainError> {
    assert!(rollout.actors >= 1, "need at least one actor thread");
    assert!(rollout.batch_worlds >= 1, "need at least one world per actor");
    if rollout.actors == 1
        && rollout.batch_worlds == 1
        && ActorFault::planned(&ckpt.fault_plan, 0) == ActorFault::default()
    {
        return train_team_checkpointed(team, env, opts, ckpt);
    }
    let core = LearnerCore::start(team, env, opts, ckpt)?;
    let mut fleet = Fleet::spawn(env, rollout, &ckpt.fault_plan);
    let outcome = if rollout.batch_worlds == 1 {
        learner::run(core, &mut SerialHost::new(&mut fleet))
    } else {
        learner::run(core, &mut BatchedHost::new(&mut fleet))
    };
    env.set_rng_state(&fleet.shut_down());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use hero_baselines::sac::SacConfig;
    use hero_rl::metrics::Recorder;
    use hero_sim::env::EnvConfig;
    use hero_sim::scenario;

    use crate::config::HeroConfig;
    use crate::skills::SkillLibrary;
    use crate::trainer::train_team;

    fn fixture(n: usize, env_seed: u64) -> (HeroTeam, LaneChangeEnv) {
        let env_cfg = EnvConfig {
            max_steps: 6,
            ..EnvConfig::default()
        };
        let env = scenario::congestion(env_cfg, env_seed);
        let skills = Arc::new(SkillLibrary::untrained(
            env_cfg,
            SacConfig {
                hidden: 8,
                ..SacConfig::default()
            },
            0,
        ));
        let cfg = HeroConfig {
            hidden: 8,
            batch_size: 8,
            warmup: 8,
            ..HeroConfig::default()
        };
        (HeroTeam::new(n, env_cfg.high_dim(), skills, cfg, 1), env)
    }

    fn series_bits(rec: &Recorder, name: &str) -> Vec<u32> {
        rec.series(name)
            .map(|s| s.iter().map(|v| v.to_bits()).collect())
            .unwrap_or_default()
    }

    #[test]
    fn serial_mode_matches_sequential_bitwise() {
        let opts = TrainOptions {
            episodes: 3,
            update_every: 2,
            seed: 9,
        };
        let (mut team_a, mut env_a) = fixture(3, 4);
        let rec_a = train_team(&mut team_a, &mut env_a, &opts);
        // One actor steps inline; two ship every step to the serial host.
        for actors in [1, 2] {
            let (mut team_b, mut env_b) = fixture(3, 4);
            let out = train_team_actor_learner(
                &mut team_b,
                &mut env_b,
                &opts,
                &CheckpointConfig::default(),
                &RolloutOptions {
                    actors,
                    ..RolloutOptions::default()
                },
            )
            .expect("fault-free run cannot lose its fleet");
            assert!(out.completed);
            assert_eq!(out.episodes_run, 3);
            for name in ["reward", "collision", "mean_speed", "critic_loss"] {
                assert_eq!(
                    series_bits(&rec_a, name),
                    series_bits(&out.recorder, name),
                    "series `{name}` diverged from sequential with {actors} actor(s)"
                );
            }
            // The env stream and the team advanced identically, so
            // downstream evaluation stays aligned too.
            assert_eq!(env_a.rng_state(), env_b.rng_state());
            assert_eq!(team_a.save_state(), team_b.save_state());
        }
    }

    #[test]
    fn batched_mode_is_reproducible_run_to_run() {
        let opts = TrainOptions {
            episodes: 5,
            update_every: 2,
            seed: 3,
        };
        let rollout = RolloutOptions {
            actors: 2,
            batch_worlds: 2,
            ..RolloutOptions::default()
        };
        let run = || {
            let (mut team, mut env) = fixture(3, 11);
            let out = train_team_actor_learner(
                &mut team,
                &mut env,
                &opts,
                &CheckpointConfig::default(),
                &rollout,
            )
            .expect("fault-free run cannot lose its fleet");
            (out, team.save_state(), env.rng_state())
        };
        let (a, team_a, env_a) = run();
        let (b, team_b, env_b) = run();
        assert!(a.completed && b.completed);
        assert_eq!(a.episodes_run, 5);
        for name in ["reward", "collision", "mean_speed", "critic_loss"] {
            assert_eq!(
                series_bits(&a.recorder, name),
                series_bits(&b.recorder, name),
                "series `{name}` not reproducible"
            );
        }
        assert_eq!(team_a, team_b);
        assert_eq!(env_a, env_b);
    }

    /// How a test cuts an actor off from the learner.
    #[derive(Clone, Copy, Debug)]
    enum Cut {
        /// Drops the actor's command sender: the actor thread exits and
        /// the learner's next send takes the disconnect path.
        Disconnect,
        /// Swaps in channels nobody serves: the learner's next receive
        /// times out and takes the stall path.
        Stall,
    }

    /// The far ends of swapped-in channels, kept open for the run.
    type Held = Vec<(channel::Receiver<ToActor>, channel::Sender<FromActor>)>;

    impl Fleet<'_> {
        fn cut(&mut self, actors: &[usize], cut: Cut, held: &mut Held) {
            for &a in actors {
                let slot = &mut self.slots[a];
                match cut {
                    Cut::Disconnect => slot.tx = channel::bounded(1).0,
                    Cut::Stall => {
                        let (tx, rx_far) = channel::bounded(self.spawner.worlds);
                        let (tx_far, rx) = channel::bounded(1);
                        slot.tx = tx;
                        slot.rx = rx;
                        held.push((rx_far, tx_far));
                    }
                }
            }
        }
    }

    /// A host whose actors a [`Cutting`] host can cut off.
    trait Cuttable: WorldHost {
        /// Cuts off the actor hosting world `g` or, with `None`, every
        /// actor.
        fn cut(&mut self, g: Option<usize>, cut: Cut, held: &mut Held);
    }

    impl Cuttable for SerialHost<'_, '_> {
        fn cut(&mut self, g: Option<usize>, cut: Cut, held: &mut Held) {
            let actors: Vec<usize> = match g {
                Some(_) => vec![self.actor],
                None => (0..self.fleet.slots.len()).collect(),
            };
            self.fleet.cut(&actors, cut, held);
        }
    }

    impl Cuttable for BatchedHost<'_, '_> {
        fn cut(&mut self, g: Option<usize>, cut: Cut, held: &mut Held) {
            let actors: Vec<usize> = match g {
                Some(g) => vec![g / self.fleet.rollout.batch_worlds],
                None => (0..self.fleet.slots.len()).collect(),
            };
            self.fleet.cut(&actors, cut, held);
        }
    }

    /// A host that cuts actors off before its `before`-th world step.
    struct Cutting<H> {
        inner: H,
        cut: Cut,
        world: Option<usize>,
        before: usize,
        steps: usize,
        held: Held,
    }

    impl<H> Cutting<H> {
        fn new(inner: H, cut: Cut, world: Option<usize>, before: usize) -> Self {
            Self {
                inner,
                cut,
                world,
                before,
                steps: 0,
                held: Vec::new(),
            }
        }
    }

    impl<H: Cuttable> WorldHost for Cutting<H> {
        fn worlds(&self) -> usize {
            self.inner.worlds()
        }

        fn reset(&mut self, episode: usize, cap: usize) -> Result<Vec<WorldReset>, FleetLost> {
            self.inner.reset(episode, cap)
        }

        fn step(
            &mut self,
            worlds: &[usize],
            commands: Vec<Vec<VehicleCommand>>,
        ) -> Result<Vec<Option<WorldStep>>, FleetLost> {
            self.steps += 1;
            if self.steps == self.before {
                self.inner.cut(self.world, self.cut, &mut self.held);
            }
            self.inner.step(worlds, commands)
        }

        fn wave_done(&mut self, started: usize) {
            self.inner.wave_done(started);
        }

        fn env_rng(&self) -> Vec<u64> {
            self.inner.env_rng()
        }

        fn world_rngs(&mut self) -> Option<&mut Vec<Vec<u64>>> {
            self.inner.world_rngs()
        }
    }

    /// [`train_team_actor_learner`] on the fleet, with the actor hosting
    /// world `world` (every actor with `None`) cut off by `cut` before
    /// world step `before`.
    #[allow(clippy::too_many_arguments)]
    fn train_cut(
        team: &mut HeroTeam,
        env: &mut LaneChangeEnv,
        opts: &TrainOptions,
        ckpt: &CheckpointConfig,
        rollout: &RolloutOptions,
        cut: Cut,
        world: Option<usize>,
        before: usize,
    ) -> Result<TrainOutcome, TrainError> {
        let core = LearnerCore::start(team, env, opts, ckpt)?;
        let mut fleet = Fleet::spawn(env, rollout, &ckpt.fault_plan);
        let outcome = if rollout.batch_worlds == 1 {
            let inner = SerialHost::new(&mut fleet);
            learner::run(core, &mut Cutting::new(inner, cut, world, before))
        } else {
            let inner = BatchedHost::new(&mut fleet);
            learner::run(core, &mut Cutting::new(inner, cut, world, before))
        };
        env.set_rng_state(&fleet.shut_down());
        outcome
    }

    /// Everything a run leaves behind that a twin must reproduce: its
    /// series, its team, and its environment stream.
    type RunState = (Vec<Vec<u32>>, Vec<(String, Vec<u8>)>, Vec<u64>);

    fn run_state(out: &TrainOutcome, team: &HeroTeam, env: &LaneChangeEnv) -> RunState {
        let series = ["reward", "collision", "mean_speed", "critic_loss"]
            .iter()
            .map(|name| series_bits(&out.recorder, name))
            .collect();
        (series, team.save_state(), env.rng_state())
    }

    fn checkpoint_file(dir: &std::path::Path, index: u64) -> Vec<u8> {
        std::fs::read(dir.join(format!("ckpt-{index:08}.hero"))).expect("read checkpoint")
    }

    fn newest_index(dir: &std::path::Path) -> u64 {
        crate::checkpoint::load_latest(dir)
            .expect("checkpoint dir reads")
            .expect("a checkpoint was written")
            .index
    }

    fn counter(snap: &telemetry::Snapshot, name: &str) -> u64 {
        snap.counter_totals().get(name).copied().unwrap_or(0)
    }

    fn cut_rollout(actors: usize, batch_worlds: usize, max_respawns: usize) -> RolloutOptions {
        RolloutOptions {
            actors,
            batch_worlds,
            stall_timeout: Duration::from_millis(100),
            max_respawns,
            respawn_backoff_ms: 0,
        }
    }

    /// Runs `twin` fault-free and the same run with `world`'s actor cut
    /// off before step `before`, both ways: with telemetry, comparing run
    /// state and reading `actor/replayed_steps`; then without, comparing
    /// the newest checkpoint's bytes.
    fn assert_replay_matches(
        tag: &str,
        twin: impl Fn(&mut HeroTeam, &mut LaneChangeEnv, &CheckpointConfig) -> TrainOutcome,
        opts: &TrainOptions,
        rollout: &RolloutOptions,
        world: usize,
        before: usize,
    ) {
        let base = std::env::temp_dir().join(format!("hero-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let ckpt = |name: &str| CheckpointConfig {
            every: 2,
            dir: Some(base.join(name)),
            ..CheckpointConfig::default()
        };
        let (mut team, mut env) = fixture(3, 4);
        let out = twin(&mut team, &mut env, &ckpt("twin"));
        let expected = run_state(&out, &team, &env);
        for cut in [Cut::Disconnect, Cut::Stall] {
            let name = format!("{cut:?}");
            // The checkpoint cadence caps batched waves, so both passes
            // checkpoint; only the second pass's files are comparable.
            let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
            let (mut team, mut env) = fixture(3, 4);
            let cfg = ckpt(&format!("{name}-telemetry"));
            let out = train_cut(
                &mut team,
                &mut env,
                opts,
                &cfg,
                rollout,
                cut,
                Some(world),
                before,
            )
            .expect("a replayed world completes the run");
            let replayed = counter(&sink.snapshot(), "actor/replayed_steps");
            drop(sink);
            assert!(replayed > 0, "{tag}/{name}: the cut must be replayed");
            assert_eq!(expected, run_state(&out, &team, &env), "{tag}/{name}");

            // Telemetry off: the checkpoint bytes match as well.
            let (mut team, mut env) = fixture(3, 4);
            let (cfg, dir) = (ckpt(&name), base.join(&name));
            train_cut(
                &mut team,
                &mut env,
                opts,
                &cfg,
                rollout,
                cut,
                Some(world),
                before,
            )
            .expect("a replayed world completes the run");
            let index = newest_index(&dir);
            assert_eq!(index, newest_index(&base.join("twin")), "{tag}/{name}");
            assert_eq!(
                checkpoint_file(&base.join("twin"), index),
                checkpoint_file(&dir, index),
                "{tag}/{name}: checkpoint bytes diverged from the twin"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn serial_mid_episode_replay_matches_sequential() {
        let opts = TrainOptions {
            episodes: 4,
            update_every: 2,
            seed: 5,
        };
        // Step 8 falls inside the second episode, whatever ends the first.
        assert_replay_matches(
            "serial-cut",
            |team, env, ckpt| {
                crate::trainer::train_team_checkpointed(team, env, &opts, ckpt)
                    .expect("sequential runs cannot fail")
            },
            &opts,
            &cut_rollout(2, 1, 2),
            0,
            8,
        );
    }

    #[test]
    fn batched_mid_wave_replay_matches_fault_free_twin() {
        let opts = TrainOptions {
            episodes: 6,
            update_every: 2,
            seed: 5,
        };
        let rollout = cut_rollout(2, 2, 2);
        // Waves of two worlds run on actor 0; its step 3 falls mid-wave.
        assert_replay_matches(
            "batched-cut",
            |team, env, ckpt| {
                train_team_actor_learner(team, env, &opts, ckpt, &rollout)
                    .expect("a fault-free run completes")
            },
            &opts,
            &rollout,
            0,
            3,
        );
    }

    #[test]
    fn batched_retired_slot_abandons_its_worlds_reproducibly() {
        let opts = TrainOptions {
            episodes: 8,
            update_every: 2,
            seed: 5,
        };
        let rollout = cut_rollout(2, 2, 0);
        for cut in [Cut::Disconnect, Cut::Stall] {
            let run = || {
                let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
                let (mut team, mut env) = fixture(3, 4);
                let cfg = CheckpointConfig::default();
                // The first wave runs all four worlds; world 2's actor 1
                // is cut off mid-wave and, with no respawn budget, retired.
                let out = train_cut(&mut team, &mut env, &opts, &cfg, &rollout, cut, Some(2), 3)
                    .expect("the surviving actor finishes the run");
                let abandoned = counter(&sink.snapshot(), "supervisor/abandoned_worlds");
                assert!(out.completed, "{cut:?}");
                assert_eq!(out.episodes_run, opts.episodes, "{cut:?}");
                assert_eq!(
                    out.recorder.series("reward").map(<[f32]>::len),
                    Some(opts.episodes)
                );
                assert!(
                    abandoned > 0,
                    "{cut:?}: actor 1's running worlds are abandoned"
                );
                run_state(&out, &team, &env)
            };
            assert_eq!(
                run(),
                run(),
                "{cut:?}: abandonment must reproduce run to run"
            );
        }
    }

    #[test]
    fn fleet_lost_mid_episode_keeps_the_last_boundary_checkpoint() {
        let opts = TrainOptions {
            episodes: 6,
            update_every: 2,
            seed: 5,
        };
        let base = std::env::temp_dir().join(format!("hero-fleet-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let ckpt = |name: &str, every: usize| CheckpointConfig {
            every,
            retain: 10,
            dir: Some(base.join(name)),
            ..CheckpointConfig::default()
        };
        // Step 9 falls mid-episode after the first checkpoint: past the
        // first serial episode, and past the first batched wave of two
        // worlds. Every actor hosts a running world when it is cut off,
        // so the step that finds them gone loses the fleet.
        let modes = [
            ("serial", cut_rollout(2, 1, 0), 1),
            ("batched", cut_rollout(1, 2, 0), 2),
        ];
        for (mode, rollout, every) in modes {
            let ckpt = |name: &str| ckpt(name, every);
            let twin = format!("{mode}-twin");
            let (mut team, mut env) = fixture(3, 4);
            train_team_actor_learner(&mut team, &mut env, &opts, &ckpt(&twin), &rollout)
                .expect("a fault-free run completes");
            for cut in [Cut::Disconnect, Cut::Stall] {
                let name = format!("{mode}-{cut:?}");
                let run = |cfg: &CheckpointConfig| {
                    let (mut team, mut env) = fixture(3, 4);
                    match train_cut(&mut team, &mut env, &opts, cfg, &rollout, cut, None, 9) {
                        Err(TrainError::FleetLost {
                            emergency_checkpoint_saved: false,
                            ..
                        }) => {}
                        other => panic!("{name}: expected FleetLost without a save, got {other:?}"),
                    }
                };
                let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
                run(&ckpt(&format!("{name}-telemetry")));
                let skipped = counter(&sink.snapshot(), "supervisor/emergency_skipped");
                drop(sink);
                assert_eq!(skipped, 1, "{name}");

                // Telemetry off: the newest file on disk is the twin's
                // checkpoint from the same boundary.
                run(&ckpt(&name));
                let index = newest_index(&base.join(&name));
                assert_eq!(
                    checkpoint_file(&base.join(&twin), index),
                    checkpoint_file(&base.join(&name), index),
                    "{name}: the newest checkpoint is not the last boundary one"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
