//! The training workloads. Every rep runs in a child process of its own
//! and does identical work; the first rep of a run is instrumented and
//! supplies the per-layer numbers, the others are timed with telemetry
//! off and supply the end-to-end numbers.
//!
//! * `train-table1` — `train_team` on the two-vehicle merge (Fig. 6) at
//!   the paper's Table I configuration (hidden 32, batch 1024, replay
//!   100k, 30-step episodes), updating after every step. The run's set-up
//!   fills every agent's replay with one full minibatch without updating
//!   and snapshots the team with `save_state`; each rep restores the
//!   snapshot with `load_state` and trains `TABLE1_STEPS` steps, every
//!   one of which runs an update.
//! * `train-wave` — `train_team_actor_learner` on the four-vehicle
//!   congestion loop (Fig. 9, three learners): one actor thread stepping
//!   32 worlds in batched mode, batch 64, one update per 256 env steps.
//!   Each rep runs `WAVE_RUNS` short trainings from scratch.
//!
//! Both run the agents' updates one after another (`parallel_update:
//! false`), which the program guarantees bit-identical to its threaded
//! path. On a 2-vCPU machine the threaded path's wall time depends on
//! where the scheduler puts the threads it spawns for every update:
//! identical reps of `train-table1` varied by ±15%, against ±4% serially.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hero_autograd::serialize::{load_sections, save_sections};
use hero_baselines::sac::SacConfig;
use hero_benchmark::digest;
use hero_benchmark::json::Json;
use hero_benchmark::stats::median;
use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
use hero_core::trainer::{train_team, CheckpointConfig, HeroTeam, TrainOptions};
use hero_core::{HeroAgent, HeroConfig, SkillLibrary};
use hero_rl::metrics::Recorder;
use hero_serve::ServePolicy;
use hero_sim::env::{CooperativeWorld, EnvConfig, LaneChangeEnv, Observation, StepOutcome};
use hero_sim::options::DrivingOption;
use hero_sim::scenario;
use hero_sim::vehicle::{VehicleCommand, VehicleState};
use hero_telemetry::emit::JsonValue;
use hero_telemetry::{self as telemetry, Snapshot, TelemetryConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels;
use crate::metrics::RunResult;
use crate::serve::{forward_us, observation_rows};
use crate::util::{self, flag, num, text, Fields};

/// Env steps one `train-table1` rep trains at least (whole episodes).
const TABLE1_STEPS: u64 = 40;
/// Independent trainings one `train-wave` rep runs, and the episodes of
/// each.
const WAVE_RUNS: usize = 12;
const WAVE_EPISODES: usize = 512;
const WAVE_WORLDS: usize = 32;
const WAVE_BATCH: usize = 64;
const WAVE_UPDATE_EVERY: usize = 256;
/// Episodes of the sequential loop that times `train-wave`'s ingest.
const PROBE_EPISODES: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table1,
    Wave,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "train-table1" => Some(Workload::Table1),
            "train-wave" => Some(Workload::Wave),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "train-table1",
            Workload::Wave => "train-wave",
        }
    }

    fn update_every(self) -> usize {
        match self {
            Workload::Table1 => 1,
            Workload::Wave => WAVE_UPDATE_EVERY,
        }
    }
}

/// The seeds one `--seed` picks for the world, the team's weights, the
/// trainer's action sampling, and the (untrained) skill library.
struct Seeds {
    env: u64,
    team: u64,
    train: u64,
    skills: u64,
}

impl Seeds {
    fn new(seed: u64) -> Seeds {
        Seeds {
            env: seed,
            team: seed ^ 0x7eab_0001,
            train: seed ^ 0x7eab_0002,
            skills: seed ^ 0x7eab_0003,
        }
    }
}

/// Table I episode length (30 steps) on the paper's double-lane track.
pub fn env_cfg() -> EnvConfig {
    EnvConfig {
        max_steps: HeroConfig::default().episode_length,
        ..EnvConfig::default()
    }
}

/// The frozen low-level skills. Stage-one skill training is not part of
/// either workload, so the library keeps its seeded initial weights.
pub fn skills(seed: u64) -> Arc<SkillLibrary> {
    Arc::new(SkillLibrary::untrained(
        env_cfg(),
        SacConfig::default(),
        seed,
    ))
}

fn table1_team(s: &Seeds) -> (HeroTeam, LaneChangeEnv) {
    let cfg = HeroConfig {
        parallel_update: false,
        ..HeroConfig::default()
    };
    let team = HeroTeam::new(2, env_cfg().high_dim(), skills(s.skills), cfg, s.team);
    (team, scenario::two_vehicle_merge(env_cfg(), s.env))
}

/// The section holding the world's RNG stream in a `train-table1`
/// snapshot, beside the team's own sections.
const ENV_RNG_SECTION: &str = "bench/env_rng";

/// The set-up of a `train-table1` run: builds the team, fills every
/// agent's replay with one full Table I minibatch (1024 option
/// transitions, above the 256 warm-up) by training without updates, and
/// writes the team's `save_state` and the world's RNG stream to `path`.
pub fn write_table1_snapshot(seed: u64, path: &Path) -> Result<(), String> {
    let s = Seeds::new(seed);
    let need = HeroConfig::default().batch_size;
    let (mut team, mut env) = table1_team(&s);
    let mut episode = 0u64;
    while team
        .agents()
        .iter()
        .map(HeroAgent::buffer_len)
        .min()
        .unwrap_or(0)
        < need
    {
        let opts = TrainOptions {
            episodes: 1,
            update_every: usize::MAX,
            seed: s.train.wrapping_add(1 + episode),
        };
        train_team(&mut team, &mut env, &opts);
        episode += 1;
    }
    let mut sections = team.save_state();
    let rng: Vec<u8> = env
        .rng_state()
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    sections.push((ENV_RNG_SECTION.to_string(), rng));
    save_sections(path, &sections).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Builds a fresh team and world and restores the snapshot into them.
fn restore_table1(s: &Seeds, path: &Path) -> (HeroTeam, LaneChangeEnv) {
    let sections = load_sections(path).expect("the run's snapshot is readable");
    let (mut team, mut env) = table1_team(s);
    team.load_state(&sections)
        .expect("a snapshot restores into a team of the same shape");
    let rng = hero_autograd::serialize::require_section(&sections, ENV_RNG_SECTION)
        .expect("the snapshot carries the world's RNG stream");
    let words: Vec<u64> = rng
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    env.set_rng_state(&words);
    (team, env)
}

fn wave_setup(s: &Seeds) -> (HeroTeam, LaneChangeEnv) {
    let cfg = HeroConfig {
        batch_size: WAVE_BATCH,
        warmup: WAVE_BATCH,
        parallel_update: false,
        ..HeroConfig::default()
    };
    let team = HeroTeam::new(3, env_cfg().high_dim(), skills(s.skills), cfg, s.team);
    (team, scenario::congestion(env_cfg(), s.env))
}

/// A world that counts the steps driven through it.
struct Counted<'a, W> {
    inner: &'a mut W,
    steps: u64,
}

impl<W: CooperativeWorld> CooperativeWorld for Counted<'_, W> {
    fn reset(&mut self) -> Vec<Observation> {
        self.inner.reset()
    }
    fn step(&mut self, commands: &[VehicleCommand]) -> StepOutcome {
        self.steps += 1;
        self.inner.step(commands)
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn num_vehicles(&self) -> usize {
        self.inner.num_vehicles()
    }
    fn learner_indices(&self) -> Vec<usize> {
        self.inner.learner_indices()
    }
    fn vehicle_state(&self, i: usize) -> VehicleState {
        self.inner.vehicle_state(i)
    }
    fn needs_merge(&self, i: usize) -> bool {
        self.inner.needs_merge(i)
    }
    fn has_merged(&self, i: usize) -> bool {
        self.inner.has_merged(i)
    }
    fn has_collided(&self, i: usize) -> bool {
        self.inner.has_collided(i)
    }
    fn config(&self) -> &EnvConfig {
        self.inner.config()
    }
    fn rng_state(&self) -> Vec<u64> {
        self.inner.rng_state()
    }
    fn set_rng_state(&mut self, state: &[u64]) {
        self.inner.set_rng_state(state);
    }
}

/// Time spent in each public call of the training loop.
#[derive(Default)]
struct Timers {
    reset: Duration,
    decide: Duration,
    step: Duration,
    record: Duration,
    update: Duration,
    updates: u64,
    steps: u64,
    episodes: u64,
}

/// A copy of the `train_team` loop with a timer around every public call
/// and the same `rollout` / `update` spans. It consumes randomness in the
/// same order, so the team ends bit-identical to `train_team`'s.
fn timed_loop(
    team: &mut HeroTeam,
    env: &mut LaneChangeEnv,
    opts: &TrainOptions,
    rec: &mut Recorder,
    t: &mut Timers,
) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut steps = 0usize;
    for _ in 0..opts.episodes {
        let t0 = Instant::now();
        let mut obs = env.reset();
        team.begin_episode();
        t.reset += t0.elapsed();
        t.episodes += 1;
        while !env.is_done() {
            let out = {
                let _rollout = telemetry::span("rollout");
                let t0 = Instant::now();
                let commands = team.decide(env, &obs, &mut rng, true);
                let t1 = Instant::now();
                let out = env.step(&commands);
                let t2 = Instant::now();
                team.record(env, &obs, &out.rewards, &out.observations, out.done);
                t.decide += t1 - t0;
                t.step += t2 - t1;
                t.record += t2.elapsed();
                out
            };
            steps += 1;
            t.steps += 1;
            if steps.is_multiple_of(opts.update_every) {
                let _update = telemetry::span("update");
                let t0 = Instant::now();
                if let Some((c, a)) = team.update(&mut rng) {
                    rec.push("critic_loss", c);
                    rec.push("actor_loss", a);
                }
                t.update += t0.elapsed();
                t.updates += 1;
            }
            obs = out.observations;
        }
    }
}

fn losses_finite(rec: &Recorder) -> bool {
    ["critic_loss", "actor_loss"].iter().all(|name| {
        rec.series(name)
            .is_some_and(|s| !s.is_empty() && s.iter().all(|v| v.is_finite()))
    })
}

/// Total seconds of every span whose path ends in `leaf`.
fn span_total_s(snap: &Snapshot, leaf: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
        .map(|(_, h)| h.sum / 1e6)
        .sum()
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).map_or(0.0, |c| c.total as f64)
}

/// What one rep's training did.
struct Trained {
    setup: Duration,
    /// Wall time of each timed training (one for `train-table1`).
    walls: Vec<Duration>,
    /// Env steps of each training; counted for `train-table1`, and for
    /// `train-wave` only with telemetry on.
    steps: Vec<u64>,
    losses_finite: bool,
    digest: String,
    /// The (last) trained team.
    team: HeroTeam,
    timers: Option<Timers>,
    /// Telemetry of the training, when instrumented.
    snap: Option<Snapshot>,
}

/// Restores the run's snapshot, then trains whole episodes until
/// `TABLE1_STEPS` steps have run, one `train_team` call per episode (or
/// the timed copy of its loop when instrumented).
fn train_table1(seed: u64, snapshot: &Path, instrumented: bool) -> Trained {
    let s = Seeds::new(seed);
    let t0 = Instant::now();
    let (mut team, mut env) = restore_table1(&s, snapshot);
    let setup = t0.elapsed();
    let sink = instrumented.then(|| telemetry::install(TelemetryConfig::default()));
    let mut rec = Recorder::new();
    let mut timers = Timers::default();
    let mut world = Counted {
        inner: &mut env,
        steps: 0,
    };
    let t0 = Instant::now();
    for episode in 0.. {
        let opts = TrainOptions {
            episodes: 1,
            update_every: 1,
            seed: s.train.wrapping_add(episode),
        };
        if instrumented {
            timed_loop(&mut team, world.inner, &opts, &mut rec, &mut timers);
            world.steps = timers.steps;
        } else {
            let episode_rec = train_team(&mut team, &mut world, &opts);
            for name in ["critic_loss", "actor_loss"] {
                for &v in episode_rec.series(name).unwrap_or_default() {
                    rec.push(name, v);
                }
            }
        }
        if world.steps >= TABLE1_STEPS {
            break;
        }
    }
    let wall = t0.elapsed();
    Trained {
        setup,
        walls: vec![wall],
        steps: vec![world.steps],
        losses_finite: losses_finite(&rec),
        digest: digest(&team.save_state()),
        team,
        timers: instrumented.then_some(timers),
        snap: sink.map(|g| g.snapshot()),
    }
}

/// `WAVE_RUNS` independent trainings from scratch, each seeded from
/// `seed` and its index. How long episodes last, and so how full each
/// wave stays, depends on the seed; the average over several trainings
/// varies far less between seeds than one longer training does.
fn train_wave(seed: u64, instrumented: bool) -> Trained {
    let sink = instrumented.then(|| telemetry::install(TelemetryConfig::default()));
    let rollout = RolloutOptions {
        actors: 1,
        batch_worlds: WAVE_WORLDS,
        ..RolloutOptions::default()
    };
    let mut setup = Duration::ZERO;
    let (mut walls, mut steps, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut finite = true;
    let mut last = None;
    for k in 0..WAVE_RUNS as u64 {
        let s = Seeds::new(seed.wrapping_mul(WAVE_RUNS as u64).wrapping_add(k));
        let t0 = Instant::now();
        let (mut team, mut env) = wave_setup(&s);
        setup += t0.elapsed();
        let opts = TrainOptions {
            episodes: WAVE_EPISODES,
            update_every: WAVE_UPDATE_EVERY,
            seed: s.train,
        };
        let before = sink
            .as_ref()
            .map_or(0.0, |g| counter(&g.snapshot(), "env_steps"));
        let t0 = Instant::now();
        let outcome = train_team_actor_learner(
            &mut team,
            &mut env,
            &opts,
            &CheckpointConfig::default(),
            &rollout,
        )
        .expect("a fault-free actor/learner run completes");
        walls.push(t0.elapsed());
        let after = sink
            .as_ref()
            .map_or(0.0, |g| counter(&g.snapshot(), "env_steps"));
        steps.push((after - before) as u64);
        finite &= losses_finite(&outcome.recorder);
        digests.push((format!("run{k}"), digest(&team.save_state()).into_bytes()));
        last = Some(team);
    }
    Trained {
        setup,
        walls,
        steps,
        losses_finite: finite,
        digest: digest(&digests),
        team: last.expect("at least one training"),
        timers: None,
        snap: sink.map(|g| g.snapshot()),
    }
}

/// One rep, in this process; returns its result line. The instrumented
/// rep trains with telemetry installed, then times the ingest probe, the
/// autograd kernels, and the policy forward pass.
pub fn rep(w: Workload, seed: u64, snapshot: Option<&Path>, instrumented: bool) -> Json {
    let trained = match w {
        Workload::Table1 => train_table1(
            seed,
            snapshot.expect("train-table1 reps need the run's snapshot"),
            instrumented,
        ),
        Workload::Wave => train_wave(seed, instrumented),
    };
    let mut team = trained.team;
    let mut out: Vec<(String, Json)> = vec![
        ("setup_s".into(), trained.setup.as_secs_f64().into()),
        ("losses_finite".into(), trained.losses_finite.into()),
        ("digest".into(), trained.digest.into()),
        (
            "rss_mb".into(),
            util::peak_rss_mb("self").unwrap_or(f64::NAN).into(),
        ),
        ("units".into(), trained.walls.len().into()),
    ];
    for (k, (wall, steps)) in trained.walls.iter().zip(&trained.steps).enumerate() {
        out.push((format!("wall_s/{k}"), wall.as_secs_f64().into()));
        out.push((format!("env_steps/{k}"), (*steps).into()));
    }
    let Some(snap) = trained.snap else {
        return Json::Obj(out);
    };

    out.push((
        "skips".into(),
        counter(&snap, "watchdog/skipped_updates").into(),
    ));
    out.push(("respawns".into(), counter(&snap, "actor/respawned").into()));
    for leaf in [
        "rollout",
        "update",
        "env_step",
        "sensors",
        "opponent_model",
        "actor_critic",
        "replay_sample",
    ] {
        out.push((format!("span/{leaf}"), span_total_s(&snap, leaf).into()));
    }
    let (episodes, update_calls) = match &trained.timers {
        Some(t) => (t.episodes, t.updates),
        None => (
            counter(&snap, "episodes") as u64,
            snap.spans.get("update").map_or(0, |h| h.count),
        ),
    };
    out.push(("episodes".into(), episodes.into()));
    out.push(("update_calls".into(), update_calls.into()));
    if let Some(t) = trained.timers {
        for (name, d) in [
            ("t/reset", t.reset),
            ("t/decide", t.decide),
            ("t/step", t.step),
            ("t/record", t.record),
            ("t/update", t.update),
        ] {
            out.push((name.into(), d.as_secs_f64().into()));
        }
    }
    let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0.0);
    let live_p50 = |name: &str| snap.live.get(name).map_or(0.0, |h| h.p50);
    out.push((
        "live/actor_util".into(),
        gauge("live/actor_util/actor0").into(),
    ));
    out.push((
        "live/blocked_send_us_p50".into(),
        live_p50("live/blocked_send_us/actor0").into(),
    ));
    out.push(("live/wave_us_p50".into(), live_p50("live/wave_us").into()));
    let s = Seeds::new(seed);
    if w == Workload::Wave {
        // No span covers the learner's ingest (`record_in`) or the world
        // resets, so time both, per world-step and per episode, in the
        // bench's own sequential loop over the same team and scenario.
        let _sink = telemetry::install(TelemetryConfig::default());
        let mut probe_env = scenario::congestion(env_cfg(), s.env ^ 0x9b0b);
        let opts = TrainOptions {
            episodes: PROBE_EPISODES,
            update_every: usize::MAX,
            seed: s.train,
        };
        let mut t = Timers::default();
        timed_loop(
            &mut team,
            &mut probe_env,
            &opts,
            &mut Recorder::new(),
            &mut t,
        );
        out.push((
            "probe/record_per_step".into(),
            (t.record.as_secs_f64() / t.steps as f64).into(),
        ));
        out.push((
            "probe/reset_per_episode".into(),
            (t.reset.as_secs_f64() / t.episodes as f64).into(),
        ));
    }

    // The autograd layer at this workload's update shapes: the critic
    // (observations, own option one-hot, opponent probabilities).
    let agents = team.agents().len();
    let critic = [
        env_cfg().high_dim() + DrivingOption::COUNT * agents,
        32,
        32,
        1,
    ];
    let batch = team.config().batch_size;
    let (values, detail) = kernels::measure(&kernels::training_gemms(batch, &critic));
    for (name, v) in values {
        out.push((name.into(), v.into()));
    }
    out.push(("autograd_detail".into(), detail));

    // The decision-time forward pass of this team's policy, through the
    // serving path.
    let policy = ServePolicy::from_sections(0, &team.save_state())
        .expect("a team snapshot loads as a servable policy");
    let rows = observation_rows(seed, policy.obs_dim(), 8);
    let (b1, b2) = forward_us(&policy, &rows);
    out.push(("policy.forward_us_b1".into(), b1.into()));
    out.push(("policy.forward_us_b2".into(), b2.into()));
    Json::Obj(out)
}

fn rep_args(w: Workload, seed: u64, snapshot: &Path, instrumented: bool) -> Vec<String> {
    vec![
        "rep".into(),
        "--workload".into(),
        w.name().into(),
        "--seed".into(),
        seed.to_string(),
        "--snapshot".into(),
        snapshot.display().to_string(),
        "--instrumented".into(),
        if instrumented { "1" } else { "0" }.into(),
    ]
}

/// Per-unit values of a rep: `(wall_s, env_steps)` of each training.
fn units(f: &Fields) -> Vec<(f64, f64)> {
    (0..num(f, "units") as usize)
        .map(|k| {
            (
                num(f, &format!("wall_s/{k}")),
                num(f, &format!("env_steps/{k}")),
            )
        })
        .collect()
}

/// One run: the set-up, the instrumented rep, then timed reps until
/// `seconds` of them have run (at least `min_reps`).
pub fn run(w: Workload, seed: u64, seconds: f64, min_reps: usize) -> Result<RunResult, String> {
    let work = util::work_dir(w.name())?;
    let result = run_in(w, seed, seconds, min_reps, &work);
    util::remove_dir(&work);
    result
}

fn run_in(
    w: Workload,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    work: &Path,
) -> Result<RunResult, String> {
    let snapshot = work.join("table1.snapshot");
    if w == Workload::Table1 {
        write_table1_snapshot(seed, &snapshot)?;
    }
    let inst = util::run_self(&rep_args(w, seed, &snapshot, true))?;
    let reps = util::timed_reps(seconds, min_reps, |_| {
        util::run_self(&rep_args(w, seed, &snapshot, false))
    })?;

    let mut r = RunResult::new(w.name(), seed);
    // Every rep does the instrumented rep's work, so its step counts hold
    // for reps that could not count (train-wave without telemetry).
    let inst_units = units(&inst);
    let steps: f64 = inst_units.iter().map(|u| u.1).sum();
    let updates = (inst_units
        .iter()
        .map(|u| u.1 as u64 / w.update_every() as u64)
        .sum::<u64>())
    .max(1);
    let episodes = num(&inst, "episodes");
    let failures = num(&inst, "skips") + num(&inst, "respawns");
    for f in &reps {
        let wall: f64 = units(f).iter().map(|u| u.0).sum();
        r.attempted += updates;
        r.failed += failures as u64;
        r.reps.push(
            [
                ("throughput_per_s", steps / wall),
                ("latency_ms", 1e3 * wall / steps),
                ("setup_s", num(f, "setup_s")),
                ("peak_rss_mb", num(f, "rss_mb")),
                ("env_steps_per_s", steps / wall),
                ("episodes_per_s", episodes / wall),
                ("error_rate", failures / updates as f64),
            ]
            .into_iter()
            .collect(),
        );
    }

    // Correctness: every rep, instrumented or not, ends in the same state
    // and trained on finite losses.
    let want = text(&inst, "digest");
    let digests_agree = reps.iter().all(|f| text(f, "digest") == want);
    r.check(
        "state_digest",
        digests_agree,
        format!("{} reps (1 instrumented) -> {want}", reps.len() + 1),
    );
    let finite = flag(&inst, "losses_finite") && reps.iter().all(|f| flag(f, "losses_finite"));
    r.check(
        "losses_finite",
        finite,
        "critic and actor losses of every rep",
    );
    r.detail.push(("state_digest".into(), want.into()));
    r.detail.push(("timed_reps".into(), reps.len().into()));
    r.detail.push(("env_steps_per_rep".into(), steps.into()));
    r.detail.push(("episodes_per_rep".into(), episodes.into()));
    if let Some(d) = inst.get("autograd_detail").and_then(|v| v.as_object()) {
        for (k, v) in d {
            let v = match v {
                JsonValue::Num(x) => Json::Num(*x),
                JsonValue::Str(s) => Json::Str(s.clone()),
                _ => continue,
            };
            r.detail.push((format!("autograd.{k}"), v));
        }
    }

    let walls: Vec<f64> = reps
        .iter()
        .map(|f| units(f).iter().map(|u| u.0).sum())
        .collect();
    layers(&mut r, w, &inst, median(&walls));
    Ok(r)
}

/// Per-layer values from the instrumented rep.
fn layers(r: &mut RunResult, w: Workload, inst: &Fields, timed_wall: f64) {
    let wall: f64 = units(inst).iter().map(|u| u.0).sum();
    let steps: f64 = units(inst).iter().map(|u| u.1).sum();
    let span = |leaf: &str| num(inst, &format!("span/{leaf}"));
    let env_step = span("env_step");
    let update = span("update");

    let (decide, record, update_time, attributed) = match w {
        Workload::Table1 => {
            let t = |k: &str| num(inst, &format!("t/{k}"));
            // Bench-side timers against the spans the program records.
            let agree = (env_step - t("step")).abs() / t("step");
            r.check(
                "timers_match_spans",
                agree <= 0.10,
                format!(
                    "env.step timer vs env_step span differ by {:.1}%",
                    100.0 * agree
                ),
            );
            r.layer("sim.step_us", 1e6 * t("step") / steps);
            r.layer("sim.share", t("step") / wall);
            let attributed = t("reset") + t("decide") + t("step") + t("record") + t("update");
            (t("decide"), t("record"), t("update"), attributed)
        }
        Workload::Wave => {
            // The learner waits on the actor while it steps, so the
            // rollout span's own time is decide plus messaging.
            let rollout = span("rollout");
            r.layer("sim.step_us", 1e6 * env_step / steps);
            r.layer("sim.share", env_step / wall);
            r.layer("rollout.actor_util", num(inst, "live/actor_util"));
            r.layer(
                "rollout.blocked_send_us_p50",
                num(inst, "live/blocked_send_us_p50"),
            );
            r.layer("rollout.wave_ms_p50", num(inst, "live/wave_us_p50") / 1e3);
            let record = num(inst, "probe/record_per_step") * steps;
            let resets = num(inst, "probe/reset_per_episode") * num(inst, "episodes");
            (
                rollout - env_step,
                record,
                update,
                rollout + update + record + resets,
            )
        }
    };
    r.layer("sim.sensors_share", span("sensors") / wall);
    r.layer("core.decide_us", 1e6 * decide / steps);
    r.layer("core.decide_share", decide / wall);
    r.layer("core.record_us", 1e6 * record / steps);
    r.layer("core.record_share", record / wall);
    r.layer(
        "core.update_ms",
        1e3 * update_time / num(inst, "update_calls").max(1.0),
    );
    r.layer("core.update_share", update_time / wall);
    // Serial updates keep both spans on the learner thread, in wall time.
    r.layer("core.opponent_model_share", span("opponent_model") / wall);
    r.layer("core.actor_critic_share", span("actor_critic") / wall);
    r.layer("rl.replay_sample_share", span("replay_sample") / wall);
    let unattributed = 1.0 - attributed / wall;
    r.layer("core.unattributed_share", unattributed);
    r.check(
        "stage_sum",
        unattributed.abs() <= 0.10,
        format!(
            "top-level stages cover {:.1}% of wall",
            100.0 * attributed / wall
        ),
    );
    r.layer("core.watchdog_skips", num(inst, "skips"));
    r.layer("rollout.actor_respawns", num(inst, "respawns"));
    for name in [
        "autograd.gemm_gflops",
        "autograd.step_us",
        "autograd.adam_step_us",
        "autograd.overhead_share",
        "policy.forward_us_b1",
        "policy.forward_us_b2",
    ] {
        r.layer(name, num(inst, name));
    }
    r.layer("trace.overhead", wall / timed_wall - 1.0);
}
