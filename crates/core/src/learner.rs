//! The training loop, written once.
//!
//! Algorithm 1 is one loop, and [`run`] is it: resume from the newest
//! valid checkpoint, honor `kill@ep:N`, then run waves of episodes —
//! decide, step, record, and update on the `update_every` cadence (with
//! `nan-grad@update:N` poisoning) — closing each episode into the metric
//! series and checkpointing after each wave. The worlds live in a
//! [`WorldHost`], which only resets them, steps them, recovers them when
//! the thread under them fails, and reports their RNG streams:
//!
//! * [`InlineHost`] steps any [`CooperativeWorld`] on the learner thread
//!   ([`crate::trainer::train_team_checkpointed`], and the actor/learner
//!   engine when one fault-free actor would host one world);
//! * the rollout engine's serial host steps one world on supervised actor
//!   threads, and its batched host `actors × batch_worlds` worlds
//!   ([`crate::rollout`]).
//!
//! A wave runs one episode on every world the host offers, capped so it
//! never crosses the remaining-episode count, a scheduled kill, or a
//! checkpoint boundary. A one-world host therefore runs one episode per
//! wave, and serial actor/learner training is bit-identical to sequential
//! training by construction. Every world has its own [`TeamCursor`]; when
//! more than one world is choosing an option, each agent's policy forward
//! runs once for all of them.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hero_autograd::{CheckpointError, TensorPool};
use hero_faultplan::KillMode;
use hero_rl::metrics::Recorder;
use hero_rl::telemetry::{self, FlightEventKind};
use hero_sim::env::{CooperativeWorld, Observation};
use hero_sim::track::Track;
use hero_sim::vehicle::{VehicleCommand, VehicleState};

use crate::checkpoint::{self, CheckpointStore, TrainerSnapshot, WorkerStates};
use crate::trainer::{
    vehicle_states, CheckpointConfig, HeroTeam, TeamCursor, TrainError, TrainOptions, TrainOutcome,
    WorldView,
};

/// Per-vehicle episode-outcome flags, read off a world once its episode
/// ends; the learner records them into the episode's metrics.
#[derive(Clone, Debug, Default)]
pub(crate) struct WorldFlags {
    pub(crate) collided: Vec<bool>,
    pub(crate) needs_merge: Vec<bool>,
    pub(crate) has_merged: Vec<bool>,
}

impl WorldFlags {
    /// Reads the flags of `n` vehicles, where `flags(i)` is vehicle `i`'s
    /// `(collided, needs_merge, has_merged)`.
    pub(crate) fn read(n: usize, flags: impl Fn(usize) -> (bool, bool, bool)) -> Self {
        let mut out = Self::default();
        for i in 0..n {
            let (collided, needs_merge, has_merged) = flags(i);
            out.collided.push(collided);
            out.needs_merge.push(needs_merge);
            out.has_merged.push(has_merged);
        }
        out
    }
}

/// One world step as the learner ingests it.
#[derive(Clone, Debug)]
pub(crate) struct WorldStep {
    pub(crate) observations: Vec<Observation>,
    pub(crate) states: Vec<VehicleState>,
    pub(crate) rewards: Vec<f32>,
    pub(crate) mean_speed: f32,
    /// Set when this step ended the episode: the world's outcome flags.
    pub(crate) outcome: Option<WorldFlags>,
}

/// A world a host just reset: its index, first observations, and every
/// vehicle's state.
pub(crate) type WorldReset = (usize, Vec<Observation>, Vec<VehicleState>);

/// A host lost every actor it steps worlds on.
pub(crate) struct FleetLost;

/// Where the training loop's worlds live. A host resets worlds, steps
/// them, recovers them when the thread under them fails, and reports
/// their environment RNG streams; every decision, record, update and
/// checkpoint stays in [`run`].
pub(crate) trait WorldHost {
    /// How many worlds the host steps. World 0 continues the caller's
    /// environment.
    fn worlds(&self) -> usize;

    /// Resets the first `cap` worlds that can run, for a wave whose first
    /// episode is `episode`, and returns the ones that reset, in world
    /// order. A world missing from the result failed and was left to
    /// supervision.
    fn reset(&mut self, episode: usize, cap: usize) -> Result<Vec<WorldReset>, FleetLost>;

    /// Steps each of `worlds` with its commands. Returns one entry per
    /// world: `None` for a world abandoned mid-episode.
    fn step(
        &mut self,
        worlds: &[usize],
        commands: Vec<Vec<VehicleCommand>>,
    ) -> Result<Vec<Option<WorldStep>>, FleetLost>;

    /// Called once the `started` episodes of a wave are over.
    fn wave_done(&mut self, _started: usize) {}

    /// World 0's environment RNG stream.
    fn env_rng(&self) -> Vec<u64>;

    /// Every world's environment RNG stream, which checkpoints carry in
    /// their `workers` section. `None` for a one-world host: its stream is
    /// the environment's own, so its checkpoints and a sequential run's
    /// resume each other.
    fn world_rngs(&mut self) -> Option<&mut Vec<Vec<u64>>> {
        None
    }
}

/// Running sums of one episode's per-step metrics.
#[derive(Clone, Copy, Debug, Default)]
struct EpisodeTally {
    reward: f32,
    speed: f32,
    steps: usize,
}

impl EpisodeTally {
    /// Adds one step: its mean learner reward and mean vehicle speed.
    fn add(&mut self, learners: &[usize], rewards: &[f32], mean_speed: f32) {
        self.reward += learners.iter().map(|&v| rewards[v]).sum::<f32>() / learners.len() as f32;
        self.speed += mean_speed;
        self.steps += 1;
    }
}

/// The learner's state for one training invocation: the team, the
/// action-sampling RNG, the metric series, the counters behind the
/// update and fault cadences, and the checkpoint store.
pub(crate) struct LearnerCore<'a> {
    team: &'a mut HeroTeam,
    rng: StdRng,
    opts: &'a TrainOptions,
    ckpt: &'a CheckpointConfig,
    /// The layout every hosted world shares: its track and the vehicles
    /// the team drives.
    track: Track,
    learners: Vec<usize>,
    /// Episodes completed before this invocation (restored ones).
    start_episode: usize,
    /// Episodes completed by this invocation.
    episodes_run: usize,
    rec: Recorder,
    step_counter: usize,
    update_counter: usize,
    store: Option<CheckpointStore>,
    /// The checkpoint's per-world rollout state, until [`run`] restores it.
    workers: Option<WorkerStates>,
}

impl<'a> LearnerCore<'a> {
    /// A fresh learner or — with `ckpt.resume` — one restored from the
    /// newest valid checkpoint in `ckpt.dir`, together with `env`'s RNG
    /// stream and the telemetry totals.
    ///
    /// # Errors
    ///
    /// [`TrainError::ResumeRefused`] when the newest checkpoint was written
    /// by the fast-math kernel tier; corrupt or unreadable checkpoints fall
    /// back to a fresh start instead.
    pub(crate) fn start<W: CooperativeWorld>(
        team: &'a mut HeroTeam,
        env: &mut W,
        opts: &'a TrainOptions,
        ckpt: &'a CheckpointConfig,
    ) -> Result<Self, TrainError> {
        let mut core = Self {
            team,
            rng: StdRng::seed_from_u64(opts.seed),
            opts,
            ckpt,
            track: env.config().track,
            learners: env.learner_indices(),
            start_episode: 0,
            episodes_run: 0,
            rec: Recorder::new(),
            step_counter: 0,
            update_counter: 0,
            store: None,
            workers: None,
        };
        if ckpt.resume {
            core.resume(env)?;
        }
        core.store = ckpt.open_store();
        Ok(core)
    }

    fn resume<W: CooperativeWorld>(&mut self, env: &mut W) -> Result<(), TrainError> {
        let ckpt = self.ckpt;
        let Some(dir) = &ckpt.dir else {
            return Ok(());
        };
        let loaded = match checkpoint::load_latest(dir) {
            Ok(Some(loaded)) => loaded,
            Ok(None) => return Ok(()),
            Err(e) => {
                telemetry::progress(&format!("checkpoint dir unreadable, starting fresh: {e}"));
                return Ok(());
            }
        };
        let restored = TrainerSnapshot::from_sections(&loaded.sections)
            .and_then(|snap| check_rng_streams(&snap, env.rng_state().len()).map(|()| snap))
            .and_then(|snap| self.team.load_state(&snap.team_sections).map(|()| snap));
        match restored {
            Ok(snap) => {
                env.set_rng_state(&snap.env_rng);
                if let Some(state) = &snap.telemetry {
                    let _ = telemetry::restore_state(state);
                }
                // Counters AFTER the telemetry restore, which would
                // otherwise wipe them.
                telemetry::counter_add("checkpoint/loaded", 1);
                telemetry::flight_event(FlightEventKind::CheckpointLoaded {
                    index: loaded.index,
                });
                telemetry::counter_add("checkpoint/corrupt_skipped", loaded.corrupt_skipped as u64);
                if loaded.corrupt_skipped > 0 {
                    telemetry::counter_add("checkpoint/fallback", 1);
                }
                self.rng = StdRng::from_state(snap.trainer_rng);
                self.rec = snap.recorder;
                self.step_counter = snap.step_counter;
                self.update_counter = snap.update_counter;
                self.start_episode = snap.next_episode;
                self.workers = snap.workers;
                Ok(())
            }
            Err(e @ CheckpointError::KernelModeMismatch) => {
                // Fast-math weights under strict kernels would diverge from
                // the run that wrote them while looking healthy; starting
                // fresh would silently discard the run. Refuse with a typed
                // error the binary turns into exit 1.
                telemetry::progress(&format!("refusing to resume: {e}"));
                let _ = telemetry::flush();
                Err(TrainError::ResumeRefused(e))
            }
            Err(e) => {
                telemetry::counter_add("checkpoint/corrupt_skipped", 1);
                telemetry::progress(&format!("resume failed, starting fresh: {e}"));
                Ok(())
            }
        }
    }

    /// The wave loop over `host`'s worlds, one cursor each. Each step
    /// decides for every running world, in world order, and steps them
    /// inside the `rollout` span; then, in world order, it records each
    /// world's step, counts it toward the update cadence, and closes its
    /// episode if the step ended it. Returns `false` when a `kill@ep:N`
    /// fault stopped the run early.
    fn waves<H: WorldHost>(
        &mut self,
        host: &mut H,
        cursors: &mut [TeamCursor],
    ) -> Result<bool, TrainError> {
        let worlds = cursors.len();
        let mut obs: Vec<Vec<Observation>> = vec![Vec::new(); worlds];
        let mut states: Vec<Vec<VehicleState>> = vec![Vec::new(); worlds];
        let mut tally = vec![EpisodeTally::default(); worlds];
        // Buffers of the batched decide forwards, kept across waves.
        let mut pool = TensorPool::new();
        let mut done = self.start_episode;
        while done < self.opts.episodes {
            if self.killed_before(done) {
                return Ok(false);
            }
            let resets = match host.reset(done, self.wave_cap(done)) {
                Ok(resets) => resets,
                Err(FleetLost) => return Err(self.fleet_lost(host, cursors, Some(done))),
            };
            if resets.is_empty() {
                continue; // every reset failed; retry after supervision
            }
            let started = resets.len();
            let mut running = Vec::with_capacity(started);
            for (g, first_obs, first_states) in resets {
                obs[g] = first_obs;
                states[g] = first_states;
                cursors[g].begin_episode();
                tally[g] = EpisodeTally::default();
                running.push(g);
            }
            while !running.is_empty() {
                let steps = {
                    let _rollout = telemetry::span("rollout");
                    let logits = (running.len() > 1)
                        .then(|| self.batch_logits(&running, cursors, &obs, &mut pool));
                    let commands = running
                        .iter()
                        .enumerate()
                        .map(|(pos, &g)| {
                            let world = WorldView {
                                track: &self.track,
                                learners: &self.learners,
                                states: &states[g],
                                obs: &obs[g],
                            };
                            let logits = logits.as_ref().map(|l| l[pos].as_slice());
                            let cur = &mut cursors[g];
                            self.team
                                .decide_in(cur, &world, logits, &mut self.rng, true)
                        })
                        .collect();
                    match host.step(&running, commands) {
                        Ok(steps) => steps,
                        Err(FleetLost) => return Err(self.fleet_lost(host, cursors, None)),
                    }
                };
                let mut still = Vec::with_capacity(running.len());
                for (g, step) in running.into_iter().zip(steps) {
                    // An abandoned world's episode never ends; the next
                    // wave reruns it on the surviving fleet.
                    let Some(step) = step else { continue };
                    let after = WorldView {
                        track: &self.track,
                        learners: &self.learners,
                        states: &step.states,
                        obs: &step.observations,
                    };
                    let ended = step.outcome.is_some();
                    self.team
                        .record_in(&mut cursors[g], &after, &obs[g], &step.rewards, ended);
                    tally[g].add(&self.learners, &step.rewards, step.mean_speed);
                    self.step_done();
                    obs[g] = step.observations;
                    states[g] = step.states;
                    match step.outcome {
                        Some(flags) => {
                            self.episode_done(done, &flags, &tally[g]);
                            done += 1;
                        }
                        None => still.push(g),
                    }
                }
                running = still;
            }
            host.wave_done(started);
            if self.ckpt.every > 0 && done.is_multiple_of(self.ckpt.every) {
                self.save(host, cursors, done);
            }
        }
        Ok(true)
    }

    /// Honors a `kill@ep:N` fault scheduled before `episode`: `true` means
    /// the run stops here. With [`KillMode::Exit`] it never returns.
    fn killed_before(&self, episode: usize) -> bool {
        if !self.ckpt.fault_plan.should_kill(episode) {
            return false;
        }
        telemetry::counter_add("checkpoint/fault_kill", 1);
        telemetry::flight_event(FlightEventKind::KillInjected {
            episode: episode as u64,
        });
        telemetry::mark_faulted();
        let _ = telemetry::flush();
        match self.ckpt.kill_mode {
            KillMode::Exit => std::process::exit(137),
            KillMode::Return => true,
        }
    }

    /// How many episodes the next wave may run once `done` are complete:
    /// a wave never crosses the remaining-episode count, a scheduled kill,
    /// or a checkpoint boundary.
    fn wave_cap(&self, done: usize) -> usize {
        let mut wave = self.opts.episodes - done;
        if let Some(k) = self.ckpt.fault_plan.kill_episode() {
            if k > done {
                wave = wave.min(k - done);
            }
        }
        if self.ckpt.every > 0 {
            wave = wave.min(self.ckpt.every - done % self.ckpt.every);
        }
        wave
    }

    /// Each running world's precomputed policy logits, per agent: one
    /// forward per agent over every world where that agent is choosing an
    /// option. Rows are independent under the strict kernels, so a
    /// batched row equals its single-row forward. An agent choosing in
    /// only one world gets `None`, and [`HeroTeam::decide_in`] runs its
    /// own forward.
    fn batch_logits(
        &self,
        running: &[usize],
        cursors: &[TeamCursor],
        obs: &[Vec<Observation>],
        pool: &mut TensorPool,
    ) -> Vec<Vec<Option<Vec<f32>>>> {
        let mut logits = vec![vec![None; self.learners.len()]; running.len()];
        for (k, &v) in self.learners.iter().enumerate() {
            let choosing: Vec<usize> = (0..running.len())
                .filter(|&pos| cursors[running[pos]].agents()[k].current_option().is_none())
                .collect();
            if choosing.len() < 2 {
                continue;
            }
            let owned: Vec<Vec<f32>> = choosing
                .iter()
                .map(|&pos| obs[running[pos]][v].high_vec())
                .collect();
            let rows: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
            let batched = self.team.agents()[k].batch_logits(&rows, pool);
            for (row, &pos) in batched.into_iter().zip(&choosing) {
                logits[pos][k] = Some(row);
            }
        }
        logits
    }

    /// Counts one environment step and, on the `update_every` cadence,
    /// runs one learning pass over the team.
    fn step_done(&mut self) {
        self.step_counter += 1;
        if self.step_counter % self.opts.update_every != 0 {
            return;
        }
        let _update = telemetry::span("update");
        let live_t0 = (!telemetry::disabled()).then(Instant::now);
        if self.ckpt.fault_plan.nan_grad_at(self.update_counter) {
            // Poison one gradient so the optimizer watchdog must catch and
            // skip it (counted under watchdog/*).
            if let Some(agent) = self.team.agents_mut().first_mut() {
                agent.poison_gradients();
            }
        }
        self.update_counter += 1;
        if let Some((c, a)) = self.team.update(&mut self.rng) {
            telemetry::counter_add("grad_updates", 1);
            telemetry::observe("critic_loss", c as f64);
            telemetry::observe("actor_loss", a as f64);
            self.rec.push("critic_loss", c);
            self.rec.push("actor_loss", a);
        }
        if let Some(t0) = live_t0 {
            telemetry::live_observe("live/learner_update_us", t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// Closes one episode: counts it and appends the per-episode series
    /// `reward` (mean per-step learner reward), `collision` (0/1),
    /// `success` (merge success rate, only when a learner had to merge),
    /// and `mean_speed`.
    fn episode_done(&mut self, episode: usize, flags: &WorldFlags, tally: &EpisodeTally) {
        telemetry::counter_add("episodes", 1);
        telemetry::progress(&format!("ep {}", episode + 1));
        let steps = tally.steps.max(1) as f32;
        self.rec.push("reward", tally.reward / steps);
        let collided = self.learners.iter().any(|&v| flags.collided[v]);
        self.rec.push("collision", if collided { 1.0 } else { 0.0 });
        let candidates: Vec<usize> = self
            .learners
            .iter()
            .copied()
            .filter(|&v| flags.needs_merge[v])
            .collect();
        if !candidates.is_empty() {
            let merged = candidates.iter().filter(|&&v| flags.has_merged[v]).count();
            self.rec
                .push("success", merged as f32 / candidates.len() as f32);
        }
        self.rec.push("mean_speed", tally.speed / steps);
        self.episodes_run += 1;
    }

    /// Snapshots the complete trainer state (team, RNG streams, recorder,
    /// telemetry, and the host's worlds) into the checkpoint store, if
    /// any, at a wave boundary once `next_episode` episodes are done.
    /// Returns whether it reached disk.
    fn save<H: WorldHost>(
        &mut self,
        host: &mut H,
        cursors: &[TeamCursor],
        next_episode: usize,
    ) -> bool {
        let Some(store) = self.store.as_mut() else {
            return false;
        };
        self.team.absorb_cursor(&cursors[0]);
        let workers = host.world_rngs().map(|rngs| WorkerStates {
            rngs: rngs.clone(),
            last_options: cursors.iter().map(|c| c.last_options().to_vec()).collect(),
        });
        let snap = TrainerSnapshot {
            next_episode,
            step_counter: self.step_counter,
            update_counter: self.update_counter,
            trainer_rng: self.rng.state(),
            env_rng: host.env_rng(),
            recorder: self.rec.clone(),
            telemetry: telemetry::export_state(),
            workers,
            team_sections: self.team.save_state(),
        };
        store.save(&snap.to_sections(), &self.ckpt.fault_plan)
    }

    /// The supervision ladder's last rung: the host has no live actor
    /// left. At a wave boundary (`boundary` holds the next episode) it
    /// saves an emergency checkpoint; mid-episode state is half-ingested
    /// and would poison a resume, so there it skips the save. Marks the
    /// run faulted and returns the typed abort.
    fn fleet_lost<H: WorldHost>(
        &mut self,
        host: &mut H,
        cursors: &[TeamCursor],
        boundary: Option<usize>,
    ) -> TrainError {
        telemetry::counter_add("supervisor/fleet_lost", 1);
        telemetry::mark_faulted();
        let saved = match boundary {
            Some(next_episode) => self.save(host, cursors, next_episode),
            None => {
                telemetry::counter_add("supervisor/emergency_skipped", 1);
                false
            }
        };
        if saved {
            telemetry::counter_add("supervisor/emergency_saved", 1);
        }
        let episodes_run = self.episodes_run;
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
}

/// Refuses a snapshot whose environment RNG stream, or any worker world's,
/// is not `words` long: `CooperativeWorld::set_rng_state` ignores such a
/// stream, and the run would resume on the wrong one. Every world the
/// engine steps is of the resumed environment's type, so all share its
/// stream length.
fn check_rng_streams(snap: &TrainerSnapshot, words: usize) -> Result<(), CheckpointError> {
    let workers = snap.workers.iter().flat_map(|w| &w.rngs);
    match std::iter::once(&snap.env_rng)
        .chain(workers)
        .find(|s| s.len() != words)
    {
        Some(stream) => Err(CheckpointError::Malformed(format!(
            "an environment RNG stream of {} words, the world's has {words}",
            stream.len()
        ))),
        None => Ok(()),
    }
}

/// Runs episodes `start_episode..opts.episodes` on `host`, restoring each
/// world's RNG stream and cursor from the checkpoint's `workers` section
/// when its world count matches. An incomplete run marks telemetry
/// faulted, so the next flush dumps the flight recorder. Afterwards the
/// team's joint last-options vector is world 0's.
pub(crate) fn run<H: WorldHost>(
    mut core: LearnerCore<'_>,
    host: &mut H,
) -> Result<TrainOutcome, TrainError> {
    let mut cursors: Vec<TeamCursor> = (0..host.worlds()).map(|_| core.team.new_cursor()).collect();
    if let Some(w) = core.workers.take() {
        match host.world_rngs() {
            Some(rngs) if rngs.len() == w.rngs.len() => {
                *rngs = w.rngs;
                for (cursor, last) in cursors.iter_mut().zip(w.last_options) {
                    cursor.set_last_options(last);
                }
            }
            _ => {
                telemetry::progress(&format!(
                    "checkpoint has {} worker streams, run has {}; extra worlds start fresh",
                    w.rngs.len(),
                    cursors.len()
                ));
            }
        }
    }
    let completed = core.waves(host, &mut cursors);
    core.team.absorb_cursor(&cursors[0]);
    let completed = completed?;
    if !completed {
        telemetry::mark_faulted();
    }
    Ok(TrainOutcome {
        recorder: core.rec,
        completed,
        episodes_run: core.episodes_run,
    })
}

/// Steps one [`CooperativeWorld`] on the learner thread.
pub(crate) struct InlineHost<'e, W>(pub(crate) &'e mut W);

impl<W: CooperativeWorld> WorldHost for InlineHost<'_, W> {
    fn worlds(&self) -> usize {
        1
    }

    fn reset(&mut self, _episode: usize, _cap: usize) -> Result<Vec<WorldReset>, FleetLost> {
        let obs = self.0.reset();
        Ok(vec![(0, obs, vehicle_states(&*self.0))])
    }

    fn step(
        &mut self,
        _worlds: &[usize],
        commands: Vec<Vec<VehicleCommand>>,
    ) -> Result<Vec<Option<WorldStep>>, FleetLost> {
        let out = self.0.step(&commands[0]);
        let env = &*self.0;
        Ok(vec![Some(WorldStep {
            states: vehicle_states(env),
            observations: out.observations,
            rewards: out.rewards,
            mean_speed: out.mean_speed,
            outcome: out.done.then(|| {
                WorldFlags::read(env.num_vehicles(), |i| {
                    (env.has_collided(i), env.needs_merge(i), env.has_merged(i))
                })
            }),
        })])
    }

    fn env_rng(&self) -> Vec<u64> {
        self.0.rng_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use hero_baselines::sac::SacConfig;
    use hero_faultplan::FaultPlan;
    use hero_sim::env::{EnvConfig, LaneChangeEnv};
    use hero_sim::scenario;

    use crate::config::HeroConfig;
    use crate::skills::SkillLibrary;

    fn fixture(team_seed: u64) -> (HeroTeam, LaneChangeEnv) {
        let env_cfg = EnvConfig {
            max_steps: 4,
            ..EnvConfig::default()
        };
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
            ..HeroConfig::default()
        };
        let team = HeroTeam::new(2, env_cfg.high_dim(), skills, cfg, team_seed);
        (team, scenario::two_vehicle_merge(env_cfg, 3))
    }

    /// Resumes a fresh fixture from a checkpoint holding a differently
    /// seeded team and the given RNG streams. Returns the episode the run
    /// would start at and whether the team and the environment stream
    /// kept their fresh state.
    fn resume_with(tag: &str, env_rng: Vec<u64>, workers: Option<WorkerStates>) -> (usize, bool) {
        let dir = std::env::temp_dir().join(format!("hero-rngckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = TrainerSnapshot {
            next_episode: 2,
            step_counter: 8,
            update_counter: 8,
            trainer_rng: [1, 2, 3, 4],
            env_rng,
            recorder: Recorder::new(),
            telemetry: None,
            workers,
            team_sections: fixture(2).0.save_state(),
        };
        let mut store = CheckpointStore::open(&dir, 2).expect("temp dir opens");
        assert!(store.save(&snap.to_sections(), &FaultPlan::none()));

        let (mut team, mut env) = fixture(1);
        let (team_before, env_before) = (team.save_state(), env.rng_state());
        let opts = TrainOptions {
            episodes: 3,
            update_every: 4,
            seed: 7,
        };
        let ckpt = CheckpointConfig {
            dir: Some(dir.clone()),
            resume: true,
            ..CheckpointConfig::default()
        };
        let start = LearnerCore::start(&mut team, &mut env, &opts, &ckpt)
            .expect("a malformed checkpoint starts fresh")
            .start_episode;
        let _ = std::fs::remove_dir_all(&dir);
        (
            start,
            team.save_state() == team_before && env.rng_state() == env_before,
        )
    }

    #[test]
    fn resume_refuses_an_rng_stream_of_the_wrong_length() {
        let workers = |stream: Vec<u64>| WorkerStates {
            rngs: vec![vec![9, 9, 9, 9], stream],
            last_options: vec![vec![0, 0], vec![0, 0]],
        };
        assert_eq!(
            resume_with("env3", vec![5, 6, 7], None),
            (0, true),
            "a 3-word environment stream must leave team and world untouched"
        );
        assert_eq!(
            resume_with("worker3", vec![5, 6, 7, 8], Some(workers(vec![1, 2, 3]))),
            (0, true),
            "a 3-word worker stream must leave team and world untouched"
        );
        assert_eq!(
            resume_with("ok", vec![5, 6, 7, 8], Some(workers(vec![1, 2, 3, 4]))),
            (2, false),
            "4-word streams resume the checkpoint"
        );
    }
}
