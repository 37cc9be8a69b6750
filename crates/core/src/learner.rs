//! The learner core that every training host shares.
//!
//! Algorithm 1's learner-side bookkeeping is written once, here: resuming
//! from the newest valid checkpoint, `kill@ep:N` injection, the
//! `update_every` cadence (with `nan-grad@update:N` poisoning), the
//! per-episode metric series, and periodic checkpoints. Where the world
//! steps is a host's business:
//!
//! * [`InlineHost`] steps any [`CooperativeWorld`] on the learner thread
//!   ([`crate::trainer::train_team_checkpointed`], and the actor/learner
//!   engine when one fault-free actor would host one world);
//! * the rollout engine's serial host ships every step to a supervised
//!   actor thread ([`crate::rollout`]).
//!
//! Both run the same episode loop, [`run_episodes`], with the team's own
//! option cursor, so serial actor/learner training is bit-identical to
//! sequential training by construction. The batched engine interleaves
//! many worlds per wave in its own loop, on the same core.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hero_autograd::CheckpointError;
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

impl WorldStep {
    /// Whether this step ended the episode.
    pub(crate) fn done(&self) -> bool {
        self.outcome.is_some()
    }
}

/// Running sums of one episode's per-step metrics.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EpisodeTally {
    reward: f32,
    speed: f32,
    steps: usize,
}

impl EpisodeTally {
    /// Adds one step: its mean learner reward and mean vehicle speed.
    pub(crate) fn add(&mut self, learners: &[usize], rewards: &[f32], mean_speed: f32) {
        self.reward += learners.iter().map(|&v| rewards[v]).sum::<f32>() / learners.len() as f32;
        self.speed += mean_speed;
        self.steps += 1;
    }
}

/// The learner's state for one training invocation: the team, the
/// action-sampling RNG, the metric series, the counters behind the
/// update and fault cadences, and the checkpoint store.
pub(crate) struct LearnerCore<'a> {
    pub(crate) team: &'a mut HeroTeam,
    pub(crate) rng: StdRng,
    pub(crate) opts: &'a TrainOptions,
    pub(crate) ckpt: &'a CheckpointConfig,
    /// The layout every hosted world shares: its track and the vehicles
    /// the team drives.
    pub(crate) track: Track,
    pub(crate) learners: Vec<usize>,
    /// The first episode this invocation runs (past any restored ones).
    pub(crate) start_episode: usize,
    /// Episodes completed by this invocation.
    pub(crate) episodes_run: usize,
    rec: Recorder,
    step_counter: usize,
    update_counter: usize,
    store: Option<CheckpointStore>,
}

impl<'a> LearnerCore<'a> {
    /// A fresh learner or — with `ckpt.resume` — one restored from the
    /// newest valid checkpoint in `ckpt.dir`, together with `env`'s RNG
    /// stream and the telemetry totals. Also returns the checkpoint's
    /// per-world rollout state, if it carried any.
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
    ) -> Result<(Self, Option<WorkerStates>), TrainError> {
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
        };
        let workers = if ckpt.resume { core.resume(env)? } else { None };
        core.store = ckpt.open_store();
        Ok((core, workers))
    }

    fn resume<W: CooperativeWorld>(
        &mut self,
        env: &mut W,
    ) -> Result<Option<WorkerStates>, TrainError> {
        let ckpt = self.ckpt;
        let Some(dir) = &ckpt.dir else {
            return Ok(None);
        };
        let loaded = match checkpoint::load_latest(dir) {
            Ok(Some(loaded)) => loaded,
            Ok(None) => return Ok(None),
            Err(e) => {
                telemetry::progress(&format!("checkpoint dir unreadable, starting fresh: {e}"));
                return Ok(None);
            }
        };
        let restored = TrainerSnapshot::from_sections(&loaded.sections)
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
                Ok(snap.workers)
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
                Ok(None)
            }
        }
    }

    /// Honors a `kill@ep:N` fault scheduled before `episode`: `true` means
    /// the run stops here. With [`KillMode::Exit`] it never returns.
    pub(crate) fn killed_before(&self, episode: usize) -> bool {
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

    /// Decides one exploring step for a world on `cur` (the team's own
    /// cursor with `None`); see [`HeroTeam::decide_in`] for `logits`.
    pub(crate) fn decide(
        &mut self,
        cur: Option<&mut TeamCursor>,
        obs: &[Observation],
        states: &[VehicleState],
        logits: Option<&[Option<Vec<f32>>]>,
    ) -> Vec<VehicleCommand> {
        let world = WorldView {
            track: &self.track,
            learners: &self.learners,
            states,
            obs,
        };
        self.team
            .decide_in(cur, &world, logits, &mut self.rng, true)
    }

    /// Records `step`, taken from observations `pre_obs`, into the team on
    /// `cur` and into the episode's running `tally`.
    pub(crate) fn record(
        &mut self,
        cur: Option<&mut TeamCursor>,
        pre_obs: &[Observation],
        step: &WorldStep,
        tally: &mut EpisodeTally,
    ) {
        let after = WorldView {
            track: &self.track,
            learners: &self.learners,
            states: &step.states,
            obs: &step.observations,
        };
        self.team
            .record_in(cur, &after, pre_obs, &step.rewards, step.done());
        tally.add(&self.learners, &step.rewards, step.mean_speed);
    }

    /// Counts one environment step and, on the `update_every` cadence,
    /// runs one learning pass over the team.
    pub(crate) fn step_done(&mut self) {
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
    pub(crate) fn episode_done(
        &mut self,
        episode: usize,
        flags: &WorldFlags,
        tally: &EpisodeTally,
    ) {
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

    /// Whether the checkpoint cadence asks for a snapshot once
    /// `next_episode` episodes are done.
    pub(crate) fn checkpoint_due(&self, next_episode: usize) -> bool {
        self.store.is_some() && self.ckpt.every > 0 && next_episode % self.ckpt.every == 0
    }

    /// Snapshots the complete trainer state (team, RNG streams, recorder,
    /// telemetry) at an episode boundary. Returns whether it reached disk.
    pub(crate) fn save(
        &mut self,
        next_episode: usize,
        env_rng: Vec<u64>,
        workers: Option<WorkerStates>,
    ) -> bool {
        let Some(store) = self.store.as_mut() else {
            return false;
        };
        let snap = TrainerSnapshot {
            next_episode,
            step_counter: self.step_counter,
            update_counter: self.update_counter,
            trainer_rng: self.rng.state(),
            env_rng,
            recorder: self.rec.clone(),
            telemetry: telemetry::export_state(),
            workers,
            team_sections: self.team.save_state(),
        };
        store.save(&snap.to_sections(), &self.ckpt.fault_plan)
    }

    /// The invocation's result. An incomplete run marks telemetry faulted,
    /// so the next flush dumps the flight recorder.
    pub(crate) fn finish(self, completed: bool) -> TrainOutcome {
        if !completed {
            telemetry::mark_faulted();
        }
        TrainOutcome {
            recorder: self.rec,
            completed,
            episodes_run: self.episodes_run,
        }
    }
}

/// Where [`run_episodes`] steps its one world.
pub(crate) trait EpisodeHost {
    /// Starts `episode`; returns its first observations and every
    /// vehicle's state.
    fn reset(
        &mut self,
        core: &mut LearnerCore<'_>,
        episode: usize,
    ) -> Result<(Vec<Observation>, Vec<VehicleState>), TrainError>;

    /// Steps the running episode with one command per vehicle.
    fn step(
        &mut self,
        core: &mut LearnerCore<'_>,
        episode: usize,
        commands: Vec<VehicleCommand>,
    ) -> Result<WorldStep, TrainError>;

    /// The world's environment RNG stream position.
    fn env_rng(&self) -> Vec<u64>;

    /// Called once an episode's metrics are recorded.
    fn episode_done(&mut self, _episode: usize) {}
}

/// Runs episodes `core.start_episode..opts.episodes` one at a time on
/// `host`, with the team's own option cursor. Returns `false` when a
/// `kill@ep:N` fault stopped the run early.
pub(crate) fn run_episodes<H: EpisodeHost>(
    core: &mut LearnerCore<'_>,
    host: &mut H,
) -> Result<bool, TrainError> {
    for episode in core.start_episode..core.opts.episodes {
        if core.killed_before(episode) {
            return Ok(false);
        }
        let (mut obs, mut states) = host.reset(core, episode)?;
        core.team.begin_episode();
        let mut tally = EpisodeTally::default();
        let flags = loop {
            let rollout = telemetry::span("rollout");
            let commands = core.decide(None, &obs, &states, None);
            let out = host.step(core, episode, commands)?;
            core.record(None, &obs, &out, &mut tally);
            drop(rollout);
            core.step_done();
            obs = out.observations;
            states = out.states;
            if let Some(flags) = out.outcome {
                break flags;
            }
        };
        core.episode_done(episode, &flags, &tally);
        host.episode_done(episode);
        if core.checkpoint_due(episode + 1) {
            core.save(episode + 1, host.env_rng(), None);
        }
    }
    Ok(true)
}

/// Steps a [`CooperativeWorld`] on the learner thread.
pub(crate) struct InlineHost<'e, W>(pub(crate) &'e mut W);

impl<W: CooperativeWorld> EpisodeHost for InlineHost<'_, W> {
    fn reset(
        &mut self,
        _core: &mut LearnerCore<'_>,
        _episode: usize,
    ) -> Result<(Vec<Observation>, Vec<VehicleState>), TrainError> {
        let obs = self.0.reset();
        Ok((obs, vehicle_states(&*self.0)))
    }

    fn step(
        &mut self,
        _core: &mut LearnerCore<'_>,
        _episode: usize,
        commands: Vec<VehicleCommand>,
    ) -> Result<WorldStep, TrainError> {
        let out = self.0.step(&commands);
        let env = &*self.0;
        Ok(WorldStep {
            states: vehicle_states(env),
            observations: out.observations,
            rewards: out.rewards,
            mean_speed: out.mean_speed,
            outcome: out.done.then(|| {
                WorldFlags::read(env.num_vehicles(), |i| {
                    (env.has_collided(i), env.needs_merge(i), env.has_merged(i))
                })
            }),
        })
    }

    fn env_rng(&self) -> Vec<u64> {
        self.0.rng_state()
    }
}
