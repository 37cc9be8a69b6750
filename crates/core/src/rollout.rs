//! The actor/learner rollout engine: environment stepping on dedicated
//! actor threads, learning on a single learner thread.
//!
//! Each actor owns a seeded [`BatchWorld`] shard and does nothing but
//! reset/step worlds on request; all decisions, replay ingestion, updates,
//! telemetry, and checkpoints happen on the learner thread, in the learner
//! core shared with sequential training (`crate::learner`). Messages flow
//! over bounded channels (backpressure, stall detection via
//! `recv_timeout`).
//!
//! Two modes, selected by [`RolloutOptions::batch_worlds`]:
//!
//! * **Serial** (`batch_worlds == 1`): one episode in flight at a time,
//!   hosted round-robin across actors. It is the sequential trainer's own
//!   episode loop with the world stepped remotely: the logical
//!   environment RNG stream lives on the learner and is shipped with every
//!   `Reset`, so the run is **bit-identical to sequential
//!   [`crate::trainer::train_team`]** — same metric series, same telemetry
//!   totals, same checkpoint bytes — for any actor count. A stalled actor
//!   is detected, counted under `actor/stalled`, and its episode
//!   re-dispatched to a live actor. A lone actor with no planned fault
//!   would only add a channel round trip per step, so that configuration
//!   steps its world on the learner thread instead.
//! * **Batched** (`batch_worlds > 1`): `actors × batch_worlds` world
//!   replicas (independent streams via
//!   [`hero_sim::env::replica_seed`]) run waves of episodes concurrently;
//!   policy forward passes for all deciding worlds are batched into single
//!   tiled matmuls ([`crate::agent::HeroAgent::batch_logits`]). Batched
//!   runs are self-reproducible (same seeds → same bits, and kill/resume
//!   is bit-identical via the checkpoint `workers` section) but not
//!   step-for-step equal to sequential training: matmul accumulation
//!   order differs across batch shapes and episodes interleave.
//!
//! Waves never cross a `kill@ep:N` or checkpoint boundary, so fault
//! injection and snapshot cadence behave exactly as in the sequential
//! loop.
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
//!    serial mode cannot perturb a single bit of the output.
//! 3. **Abort** — when no live actor remains, the learner writes an
//!    emergency checkpoint if it is at a clean episode boundary (mid-episode
//!    state is half-ingested and would poison a resume —
//!    `supervisor/emergency_skipped`), then fails typed with
//!    [`TrainError::FleetLost`] instead of deadlocking or returning a
//!    silent partial run.
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

use crate::checkpoint::WorkerStates;
use crate::learner::{run_episodes, EpisodeHost, EpisodeTally, LearnerCore, WorldFlags, WorldStep};
use crate::trainer::{
    train_team_checkpointed, CheckpointConfig, HeroTeam, TeamCursor, TrainError, TrainOptions,
    TrainOutcome,
};

/// Knobs of the actor/learner rollout engine.
#[derive(Clone, Copy, Debug)]
pub struct RolloutOptions {
    /// Number of actor threads stepping environments.
    pub actors: usize,
    /// World replicas per actor. `1` selects serial mode (bit-identical to
    /// sequential training); `> 1` selects batched mode.
    pub batch_worlds: usize,
    /// Bounded-channel capacity per actor (raised to `batch_worlds` when
    /// smaller, so a full wave of resets never deadlocks).
    pub channel_capacity: usize,
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
            channel_capacity: 4,
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
    cap: usize,
    capture: bool,
    shutdown: Arc<AtomicBool>,
}

impl ActorSpawner {
    fn spawn(&self, index: usize, generation: u64, fault: ActorFault) -> ActorSlot {
        let (tx_cmd, rx_cmd) = channel::bounded::<ToActor>(self.cap);
        let (tx_res, rx_res) = channel::bounded::<FromActor>(self.cap);
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
    let proto = LaneChangeEnv::new(cfg, spawns, seed);
    let mut shard = BatchWorld::replicate(&proto, worlds);
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

/// The supervised actor fleet, plus every world's environment RNG stream,
/// which the learner keeps for it.
struct Fleet<'a> {
    rollout: &'a RolloutOptions,
    /// One environment RNG stream per world; world 0's continues the
    /// caller's own environment.
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
    outstanding: Vec<u64>,
    busy_us: Vec<u64>,
    wave_no: u64,
    pending_redispatch: Vec<usize>,
    names: LiveNames,
}

impl<'a> Fleet<'a> {
    /// Spawns `rollout.actors` actors, each building a shard of
    /// `rollout.batch_worlds` replicas of `env`. Generation 0 carries the
    /// fault plan's actor faults.
    fn spawn(
        env: &LaneChangeEnv,
        rollout: &'a RolloutOptions,
        world_rng: Vec<Vec<u64>>,
        plan: &FaultPlan,
    ) -> Self {
        let actors = rollout.actors;
        let spawner = ActorSpawner {
            env_cfg: *env.config(),
            spawns: env.spawns().to_vec(),
            seed: env.seed(),
            worlds: rollout.batch_worlds,
            cap: rollout.channel_capacity.max(rollout.batch_worlds).max(1),
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
            outstanding: vec![0; actors],
            busy_us: vec![0; actors],
            wave_no: 0,
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

    /// The ladder's last rung: no live actor remains. Saves an emergency
    /// checkpoint when at a clean episode boundary (`boundary` carries the
    /// next episode index and, in batched mode, the worker states), marks
    /// the run faulted, and returns the typed abort for the caller to
    /// propagate.
    fn fleet_lost(
        &mut self,
        core: &mut LearnerCore<'_>,
        boundary: Option<(usize, Option<WorkerStates>)>,
    ) -> TrainError {
        telemetry::counter_add("supervisor/fleet_lost", 1);
        telemetry::mark_faulted();
        let saved = match boundary {
            Some((next_episode, workers)) => {
                core.save(next_episode, self.world_rng[0].clone(), workers)
            }
            None => {
                // Mid-episode state is half-ingested; snapshotting it
                // would poison a resume, so the ladder skips the save.
                telemetry::counter_add("supervisor/emergency_skipped", 1);
                false
            }
        };
        if saved {
            telemetry::counter_add("supervisor/emergency_saved", 1);
        }
        let episodes_run = core.episodes_run;
        telemetry::flight_event(FlightEventKind::EmergencyCheckpoint {
            episodes: episodes_run as u64,
            saved: saved as u64,
        });
        telemetry::progress(&format!(
            "actor fleet lost after {episodes_run} episode(s); emergency checkpoint {}",
            if saved { "saved" } else { "not saved" }
        ));
        let _ = telemetry::flush();
        TrainError::FleetLost {
            episodes_run,
            emergency_checkpoint_saved: saved,
        }
    }

    fn live_actors(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
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

    /// Batched-mode recovery: replay actor `a`'s still-running worlds of
    /// this wave onto a respawned incarnation. Returns `false` when the
    /// slot is retired (its in-flight episodes are abandoned and re-run as
    /// fresh episodes by the surviving fleet).
    fn recover_actor_batched(
        &mut self,
        a: usize,
        worlds_a: &[usize],
        ep_rng0: &[Vec<u64>],
        wave_cmd_log: &[Vec<Vec<VehicleCommand>>],
        wave_no: u64,
        msgs: &mut [Option<WorldStepMsg>],
    ) -> bool {
        'attempt: loop {
            self.supervise_failed();
            if self.dead[a] {
                telemetry::counter_add("supervisor/abandoned_worlds", worlds_a.len() as u64);
                telemetry::progress(&format!(
                    "actor {a} unrecoverable; abandoning {} in-flight episode(s)",
                    worlds_a.len()
                ));
                return false;
            }
            let mut replayed = 0u64;
            for &g in worlds_a {
                let log = &wave_cmd_log[g];
                let Some((msg, events)) = self.replay_world(a, g, &ep_rng0[g], log)
                else {
                    continue 'attempt;
                };
                telemetry::replay(events);
                msgs[g] = Some(msg);
                replayed += log.len() as u64 - 1;
            }
            telemetry::counter_add("actor/replayed_steps", replayed);
            telemetry::flight_event(FlightEventKind::Redispatched {
                actor: a as u64,
                wave: wave_no,
            });
            telemetry::progress(&format!(
                "wave {wave_no} recovered actor {a}'s {} world(s) after replaying {replayed} step(s)",
                worlds_a.len()
            ));
            return true;
        }
    }

    fn worker_states(&self, cursors: &[TeamCursor]) -> WorkerStates {
        WorkerStates {
            rngs: self.world_rng.clone(),
            last_options: cursors.iter().map(|c| c.last_options().to_vec()).collect(),
        }
    }
}

/// Serial mode's [`EpisodeHost`]: each episode runs on the round-robin
/// actor and can be replayed onto another (or a respawned) actor from its
/// start stream and command log.
struct SerialHost<'f, 'a> {
    fleet: &'f mut Fleet<'a>,
    /// The actor hosting the running episode.
    actor: usize,
    /// The running episode's start stream and the commands sent so far:
    /// enough to rebuild it on a fresh shard.
    ep_rng0: Vec<u64>,
    cmd_log: Vec<Vec<VehicleCommand>>,
    wave_t0: Instant,
}

impl<'f, 'a> SerialHost<'f, 'a> {
    fn new(fleet: &'f mut Fleet<'a>) -> Self {
        Self {
            fleet,
            actor: 0,
            ep_rng0: Vec::new(),
            cmd_log: Vec::new(),
            wave_t0: Instant::now(),
        }
    }
}

impl EpisodeHost for SerialHost<'_, '_> {
    fn reset(
        &mut self,
        core: &mut LearnerCore<'_>,
        episode: usize,
    ) -> Result<(Vec<Observation>, Vec<VehicleState>), TrainError> {
        let fleet = &mut *self.fleet;
        fleet.supervise_failed();
        if fleet.live_actors() == 0 {
            return Err(fleet.fleet_lost(core, Some((episode, None))));
        }
        // One episode is one wave of one world.
        self.wave_t0 = Instant::now();
        telemetry::flight_event(FlightEventKind::WaveDispatched {
            wave: episode as u64,
            worlds: 1,
        });
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
        let Some((a, offset, (observations, states, rng, events))) = hosted else {
            return Err(fleet.fleet_lost(core, Some((episode, None))));
        };
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
        Ok((observations, states))
    }

    fn step(
        &mut self,
        core: &mut LearnerCore<'_>,
        episode: usize,
        commands: Vec<VehicleCommand>,
    ) -> Result<WorldStep, TrainError> {
        let fleet = &mut *self.fleet;
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
        let Some((host, msg, events)) = delivered else {
            return Err(fleet.fleet_lost(core, None));
        };
        self.actor = host;
        telemetry::replay(events);
        Ok(msg.step)
    }

    fn env_rng(&self) -> Vec<u64> {
        self.fleet.world_rng[0].clone()
    }

    fn episode_done(&mut self, episode: usize) {
        telemetry::flight_event(FlightEventKind::WaveCompleted {
            wave: episode as u64,
            episodes: 1,
        });
        if !telemetry::disabled() {
            telemetry::live_observe("live/wave_us", self.wave_t0.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// Batched mode: waves of episodes across all world replicas, with
/// per-wave resets, batched policy forwards, and batched world steps.
/// Returns `false` when a `kill@ep:N` fault stopped the run early.
fn batched_run(
    core: &mut LearnerCore<'_>,
    fleet: &mut Fleet<'_>,
    cursors: &mut [TeamCursor],
) -> Result<bool, TrainError> {
    let actors = fleet.slots.len();
    let per_actor = fleet.rollout.batch_worlds;
    let total = actors * per_actor;
    let learners = core.learners.clone();
    let n_agents = learners.len();
    let mut completed_total = core.start_episode;

    let mut obs: Vec<Vec<Observation>> = vec![Vec::new(); total];
    let mut states: Vec<Vec<VehicleState>> = vec![Vec::new(); total];

    while completed_total < core.opts.episodes {
        if core.killed_before(completed_total) {
            return Ok(false);
        }
        fleet.supervise_failed();
        if fleet.live_actors() == 0 {
            core.team.absorb_cursor(&cursors[0]);
            let workers = fleet.worker_states(cursors);
            return Err(fleet.fleet_lost(core, Some((completed_total, Some(workers)))));
        }
        // Wave size: every live world runs one episode, capped so the wave
        // never crosses the remaining-episode count, a scheduled kill, or
        // a checkpoint boundary.
        let live_worlds: Vec<usize> = (0..total).filter(|g| !fleet.dead[g / per_actor]).collect();
        let mut wave = live_worlds.len().min(core.opts.episodes - completed_total);
        if let Some(k) = core.ckpt.fault_plan.kill_episode() {
            if k > completed_total {
                wave = wave.min(k - completed_total);
            }
        }
        if core.ckpt.every > 0 {
            wave = wave.min(core.ckpt.every - completed_total % core.ckpt.every);
        }
        let assigned: Vec<usize> = live_worlds.into_iter().take(wave).collect();

        let wave_no = fleet.wave_no;
        fleet.wave_no += 1;
        let wave_t0 = Instant::now();
        telemetry::flight_event(FlightEventKind::WaveDispatched {
            wave: wave_no,
            worlds: assigned.len() as u64,
        });
        // Worlds stranded on previously failed actors are folded back into
        // this wave's live assignment.
        if !assigned.is_empty() {
            for _failed in std::mem::take(&mut fleet.pending_redispatch) {
                telemetry::flight_event(FlightEventKind::Redispatched {
                    actor: (assigned[0] / per_actor) as u64,
                    wave: wave_no,
                });
            }
        }

        // Reset the wave's worlds (grouped per actor, received in actor
        // order — deterministic regardless of thread timing). Each world's
        // start stream is kept for mid-wave replay.
        let mut ep_rng0: Vec<Vec<u64>> = vec![Vec::new(); total];
        let mut wave_cmd_log: Vec<Vec<Vec<VehicleCommand>>> = vec![Vec::new(); total];
        let mut sent = vec![0usize; actors];
        for &g in &assigned {
            let a = g / per_actor;
            if fleet.dead[a] {
                continue;
            }
            ep_rng0[g] = fleet.world_rng[g].clone();
            let msg = ToActor::Reset {
                world: g % per_actor,
                rng: fleet.world_rng[g].clone(),
            };
            if fleet.send_to(a, msg) {
                sent[a] += 1;
            }
        }
        let mut active: Vec<usize> = Vec::new();
        for (a, &count) in sent.iter().enumerate() {
            for _ in 0..count {
                if fleet.dead[a] {
                    break;
                }
                match fleet.recv(a) {
                    Some(FromActor::ResetDone {
                        world,
                        observations,
                        states: st,
                        rng,
                        events,
                    }) => {
                        telemetry::replay(events);
                        let g = a * per_actor + world;
                        fleet.world_rng[g] = rng;
                        obs[g] = observations;
                        states[g] = st;
                        cursors[g].begin_episode();
                        active.push(g);
                    }
                    _ => break, // recv classified the actor's failure
                }
            }
        }
        if active.is_empty() {
            continue; // all reset targets failed; retry after supervision
        }

        let mut tally = vec![EpisodeTally::default(); total];
        let mut running = active.clone();
        while !running.is_empty() {
            // Phase B: decide for every running world (world order).
            // Policy forwards for all worlds still selecting an option are
            // batched per agent into one matmul; the RNG draws stay
            // strictly in world order.
            let mut msgs: Vec<Option<WorldStepMsg>> = (0..total).map(|_| None).collect();
            let mut abandoned: Vec<usize> = Vec::new();
            {
                let _rollout_span = telemetry::span("rollout");
                let mut logits: Vec<Vec<Option<Vec<f32>>>> =
                    vec![vec![None; n_agents]; running.len()];
                if running.len() > 1 {
                    for (k, &v) in learners.iter().enumerate() {
                        let sel: Vec<usize> = running
                            .iter()
                            .enumerate()
                            .filter(|(_, &g)| cursors[g].agents()[k].current_option().is_none())
                            .map(|(pos, _)| pos)
                            .collect();
                        if sel.len() > 1 {
                            let rows_owned: Vec<Vec<f32>> = sel
                                .iter()
                                .map(|&pos| obs[running[pos]][v].high_vec())
                                .collect();
                            let rows: Vec<&[f32]> =
                                rows_owned.iter().map(|r| r.as_slice()).collect();
                            let batched = core.team.agents()[k].batch_logits(&rows);
                            for (row, &pos) in batched.into_iter().zip(&sel) {
                                logits[pos][k] = Some(row);
                            }
                        }
                    }
                }
                let mut groups: Vec<(Vec<usize>, Vec<Vec<VehicleCommand>>)> =
                    vec![(Vec::new(), Vec::new()); actors];
                for (pos, &g) in running.iter().enumerate() {
                    let commands = core.decide(
                        Some(&mut cursors[g]),
                        &obs[g],
                        &states[g],
                        Some(logits[pos].as_slice()),
                    );
                    wave_cmd_log[g].push(commands.clone());
                    let a = g / per_actor;
                    groups[a].0.push(g % per_actor);
                    groups[a].1.push(commands);
                }
                let mut failed_send = vec![false; actors];
                for (a, (worlds, commands)) in groups.into_iter().enumerate() {
                    if worlds.is_empty() {
                        continue;
                    }
                    failed_send[a] = !fleet.send_to(a, ToActor::Step { worlds, commands });
                }
                for a in 0..actors {
                    let worlds_a: Vec<usize> = running
                        .iter()
                        .copied()
                        .filter(|&g| g / per_actor == a)
                        .collect();
                    if worlds_a.is_empty() {
                        continue;
                    }
                    let ok = !failed_send[a]
                        && !fleet.dead[a]
                        && match fleet.recv(a) {
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
                    if !ok
                        && !fleet.recover_actor_batched(
                            a,
                            &worlds_a,
                            &ep_rng0,
                            &wave_cmd_log,
                            wave_no,
                            &mut msgs,
                        )
                    {
                        if fleet.live_actors() == 0 {
                            return Err(fleet.fleet_lost(core, None));
                        }
                        abandoned.extend(worlds_a);
                    }
                }
            }
            if !abandoned.is_empty() {
                running.retain(|g| !abandoned.contains(g));
            }

            // Phase A: ingest results in global world order.
            let mut still = Vec::new();
            for &g in &running {
                let step = msgs[g].take().expect("actor stepped this world").step;
                core.record(Some(&mut cursors[g]), &obs[g], &step, &mut tally[g]);
                core.step_done();
                obs[g] = step.observations;
                states[g] = step.states;
                if let Some(flags) = &step.outcome {
                    core.episode_done(completed_total, flags, &tally[g]);
                    completed_total += 1;
                } else {
                    still.push(g);
                }
            }
            running = still;
        }
        telemetry::flight_event(FlightEventKind::WaveCompleted {
            wave: wave_no,
            episodes: active.len() as u64,
        });
        if !telemetry::disabled() {
            telemetry::live_observe("live/wave_us", wave_t0.elapsed().as_secs_f64() * 1e6);
        }

        if core.checkpoint_due(completed_total) {
            core.team.absorb_cursor(&cursors[0]);
            let workers = fleet.worker_states(cursors);
            core.save(completed_total, fleet.world_rng[0].clone(), Some(workers));
        }
    }
    Ok(true)
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
    let serial = rollout.batch_worlds == 1;
    let total_worlds = if serial {
        1
    } else {
        rollout.actors * rollout.batch_worlds
    };
    let (mut core, restored_workers) = LearnerCore::start(team, env, opts, ckpt)?;

    // The learner owns every world's environment RNG stream; world 0 is
    // the canonical env's own stream (so serial mode continues it
    // exactly), worlds g > 0 get independent replica streams. Replica
    // construction senses each world once purely to read its RNG stream;
    // capture and discard that telemetry, because a resumed run imports
    // the checkpoint's totals (which already counted the original
    // construction) and then rebuilds the replicas again — without the
    // discard its sensor counters would exceed an uninterrupted run's.
    telemetry::begin_capture();
    let mut world_rng: Vec<Vec<u64>> = (0..total_worlds)
        .map(|g| {
            if g == 0 {
                env.rng_state()
            } else {
                env.replica(g).rng_state()
            }
        })
        .collect();
    let _ = telemetry::take_capture();
    // Serial mode steps its one world on the team's own cursor; batched
    // mode keeps one cursor per world.
    let mut cursors: Vec<TeamCursor> = if serial {
        Vec::new()
    } else {
        (0..total_worlds).map(|_| core.team.new_cursor()).collect()
    };
    if let Some(w) = &restored_workers {
        if w.rngs.len() == cursors.len() {
            for (g, cursor) in cursors.iter_mut().enumerate() {
                world_rng[g].clone_from(&w.rngs[g]);
                cursor.set_last_options(w.last_options[g].clone());
            }
        } else {
            telemetry::progress(&format!(
                "checkpoint has {} worker streams, run has {}; extra worlds start fresh",
                w.rngs.len(),
                total_worlds
            ));
        }
    }

    let mut fleet = Fleet::spawn(env, rollout, world_rng, &ckpt.fault_plan);
    let result = if serial {
        run_episodes(&mut core, &mut SerialHost::new(&mut fleet))
    } else {
        batched_run(&mut core, &mut fleet, &mut cursors)
    };
    env.set_rng_state(&fleet.shut_down());
    if let Some(c) = cursors.first() {
        core.team.absorb_cursor(c);
    }
    result.map(|completed| core.finish(completed))
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
}
