//! The serving workloads. Each rep starts a real `hero-serve` daemon,
//! drives it over HTTP from this process with at most `nproc` threads,
//! each holding at most one connection, and shuts it down.
//!
//! A rep has two load phases: an open loop at a fixed offered rate, timed
//! from each request's due time, then a closed loop that keeps every
//! connection busy for the saturated capacity.
//!
//! * `serve-table1` — serves a checkpoint of the Table I two-agent merge
//!   team (18 observations, hidden 32) at 200 req/s, with a `POST
//!   /reload` due once per second so reloads write the policy slot while
//!   requests read it.
//! * `serve-heavy` — serves `--synthetic 256x1024x2`, read-only, at
//!   100 req/s: the forward pass is a large part of each request.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hero_autograd::TensorPool;
use hero_benchmark::openloop::{self, capacity_rps, Kind, Slot, Timing};
use hero_benchmark::stats::{median, percentile, tail_percentile};
use hero_core::trainer::{train_team_checkpointed, CheckpointConfig, HeroTeam, TrainOptions};
use hero_core::HeroConfig;
use hero_serve::ServePolicy;
use hero_sim::scenario;
use hero_telemetry::emit::{parse_json_object, parse_jsonl, JsonValue};
use hero_telemetry::http::http_request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kernels;
use crate::metrics::RunResult;
use crate::train::{env_cfg, skills};
use crate::util::{self, nproc};

/// Seconds of the open-loop phase of one rep.
const OPEN_SECONDS: f64 = 2.5;
/// Seconds of the closed-loop phase of one rep.
const CLOSED_SECONDS: f64 = 1.0;
/// Distinct observation rows the load cycles through.
const ROWS: usize = 64;
/// Requests sent one at a time before any phase, untimed.
const WARMUP_REQUESTS: usize = 50;
/// Every this many-th `/act` reply is checked against a local forward.
const SAMPLE_EVERY: usize = 8;
/// Paced `GET /info` requests of the instrumented rep.
const INFO_REQUESTS: usize = 100;
/// `obs x hidden x agents` of `serve-heavy`.
const HEAVY: (usize, usize, usize) = (256, 1024, 2);
/// The daemon's default `--max-batch`.
const MAX_BATCH: f64 = 32.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table1,
    Heavy,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-table1" => Some(Workload::Table1),
            "serve-heavy" => Some(Workload::Heavy),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "serve-table1",
            Workload::Heavy => "serve-heavy",
        }
    }

    fn rate(self) -> f64 {
        match self {
            Workload::Table1 => 200.0,
            Workload::Heavy => 100.0,
        }
    }

    fn reload_every(self) -> Option<Duration> {
        (self == Workload::Table1).then_some(Duration::from_secs(1))
    }
}

/// `n` observation rows of width `dim`, uniform in `[0, 1)` like the
/// normalized lidar and speed features, drawn from `seed`.
pub fn observation_rows(seed: u64, dim: usize, n: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e_7a11);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen::<f32>()).collect())
        .collect()
}

/// Median microseconds of `ServePolicy::infer` on one and on two rows.
pub fn forward_us(policy: &ServePolicy, rows: &[Vec<f32>]) -> (f64, f64) {
    let mut pool = TensorPool::new();
    let mut time = |batch: &[&[f32]]| {
        1e6 * kernels::time_per_call(
            || {
                std::hint::black_box(policy.infer(0, batch, &mut pool));
            },
            Duration::from_millis(5),
            7,
        )
    };
    let b1 = time(&[&rows[0]]);
    let b2 = time(&[&rows[0], &rows[1]]);
    (b1, b2)
}

/// Writes the `serve-table1` checkpoint: a two-episode Table I training
/// run of the merge team, checkpointed at its end.
fn write_checkpoint(dir: &Path, seed: u64) -> Result<(), String> {
    let mut env = scenario::two_vehicle_merge(env_cfg(), seed);
    let mut team = HeroTeam::new(
        2,
        env_cfg().high_dim(),
        skills(seed),
        HeroConfig::default(),
        seed,
    );
    let ckpt = CheckpointConfig {
        every: 2,
        dir: Some(dir.to_path_buf()),
        ..CheckpointConfig::default()
    };
    let opts = TrainOptions {
        episodes: 2,
        update_every: 1,
        seed,
    };
    train_team_checkpointed(&mut team, &mut env, &opts, &ckpt)
        .map_err(|e| format!("writing the serve-table1 checkpoint: {e}"))?;
    Ok(())
}

/// What every rep of a run shares.
struct Ctx {
    w: Workload,
    serve_bin: PathBuf,
    policy_args: Vec<String>,
    policy: ServePolicy,
    rows: Vec<Vec<f32>>,
    /// `/act` bodies by `[row][agent]`.
    bodies: Vec<Vec<String>>,
    work: PathBuf,
    threads: usize,
}

/// A running daemon; dropping it kills the process if it still runs.
struct Daemon {
    child: Child,
    base: String,
}

impl Daemon {
    /// Starts a daemon and waits for its first `200` on `GET /info`;
    /// returns it with the seconds that took.
    fn start(ctx: &Ctx, dir: &Path) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(&ctx.serve_bin)
            .args(&ctx.policy_args)
            .args(["--addr", "127.0.0.1:0", "--out"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ctx.serve_bin.display()))?;
        let mut daemon = Daemon {
            child,
            base: String::new(),
        };
        let addr_file = dir.join("serve_addr");
        while t0.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                let log = std::fs::read_to_string(dir.join("serve.log")).unwrap_or_default();
                return Err(format!("hero-serve exited early ({status}): {log}"));
            }
            if daemon.base.is_empty() {
                match std::fs::read_to_string(&addr_file) {
                    Ok(s) if s.ends_with('\n') => daemon.base = format!("http://{}", s.trim()),
                    _ => {}
                }
            }
            if !daemon.base.is_empty() && matches!(daemon.request("GET", "/info", ""), Ok((200, _)))
            {
                return Ok((daemon, t0.elapsed().as_secs_f64()));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Err("hero-serve did not answer GET /info within 30 s".into())
    }

    fn request(&self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        http_request(method, &format!("{}{path}", self.base), body)
    }

    fn get(&self, path: &str) -> Result<String, String> {
        match self.request("GET", path, "") {
            Ok((200, body)) => Ok(body),
            Ok((status, _)) => Err(format!("GET {path}: status {status}")),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }

    /// Peak resident memory of the daemon so far, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        util::peak_rss_mb(&self.child.id().to_string()).unwrap_or(f64::NAN)
    }

    /// Asks the daemon to exit and waits for it.
    fn stop(mut self) -> Result<(), String> {
        let _ = self.request("POST", "/shutdown", "");
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("hero-serve did not exit within 10 s of POST /shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One reply the load generator received.
struct Reply {
    kind: Kind,
    timing: Timing,
    status: u16,
    /// The body, kept for replies chosen for the logits check.
    body: Option<String>,
}

fn send(daemon: &Daemon, ctx: &Ctx, kind: Kind) -> (u16, String) {
    let result = match kind {
        Kind::Act { row, agent } => daemon.request("POST", "/act", &ctx.bodies[row][agent]),
        Kind::Reload => daemon.request("POST", "/reload", ""),
    };
    result.unwrap_or((0, String::new()))
}

/// Sends `slots` on schedule from `ctx.threads` threads. A free thread
/// takes the next slot and sleeps until it is due, so a slow reply makes
/// later requests late instead of dropping them.
fn open_loop(daemon: &Daemon, ctx: &Ctx, slots: &[Slot]) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..ctx.threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let wait = (t0 + slot.due).saturating_duration_since(Instant::now());
                        std::thread::sleep(wait);
                        let sent = t0.elapsed();
                        let (status, body) = send(daemon, ctx, slot.kind);
                        let done = t0.elapsed();
                        out.push(Reply {
                            kind: slot.kind,
                            timing: Timing {
                                due: slot.due,
                                sent,
                                done,
                            },
                            status,
                            body: i.is_multiple_of(SAMPLE_EVERY).then_some(body),
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    replies.sort_by_key(|r| r.timing.due);
    replies
}

/// Keeps every thread's connection busy with back-to-back `/act` for
/// `CLOSED_SECONDS`. Returns the replies and the time to the last one.
fn closed_loop(daemon: &Daemon, ctx: &Ctx, agents: usize) -> (Vec<Reply>, Duration) {
    let t0 = Instant::now();
    let end = Duration::from_secs_f64(CLOSED_SECONDS);
    let replies: Vec<Reply> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..ctx.threads)
            .map(|t| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = t;
                    while t0.elapsed() < end {
                        let kind = Kind::Act {
                            row: i % ROWS,
                            agent: i % agents,
                        };
                        let sent = t0.elapsed();
                        let (status, body) = send(daemon, ctx, kind);
                        let done = t0.elapsed();
                        out.push(Reply {
                            kind,
                            timing: Timing {
                                due: sent,
                                sent,
                                done,
                            },
                            status,
                            body: (i % (SAMPLE_EVERY * 8) == t).then_some(body),
                        });
                        i += ctx.threads;
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = replies
        .iter()
        .map(|r| r.timing.done)
        .max()
        .unwrap_or_default();
    (replies, elapsed)
}

/// Checks every kept `/act` body against a local forward pass of the
/// same policy: `(checked, mismatched)`.
fn check_logits(ctx: &Ctx, replies: &[Reply]) -> (usize, usize) {
    let mut pool = TensorPool::new();
    let (mut checked, mut bad) = (0, 0);
    for r in replies {
        let (Kind::Act { row, agent }, Some(body), 200) = (r.kind, &r.body, r.status) else {
            continue;
        };
        let want = &ctx.policy.infer(agent, &[&ctx.rows[row]], &mut pool)[0];
        let got: Option<Vec<f32>> = parse_json_object(body.trim())
            .ok()
            .and_then(|f| f.get("logits").and_then(|v| v.as_str().map(str::to_string)))
            .and_then(|s| s.split_whitespace().map(|t| t.parse().ok()).collect());
        checked += 1;
        let same = got.is_some_and(|g| {
            g.len() == want.len() && g.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !same {
            bad += 1;
        }
    }
    (checked, bad)
}

/// Numbers from the daemon's `/stats`.
fn stats(daemon: &Daemon) -> Result<(f64, f64), String> {
    let body = daemon.get("/stats")?;
    let f = parse_json_object(body.trim()).map_err(|e| format!("/stats: {e}"))?;
    let n = |k: &str| f.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    Ok((n("batches"), n("rows_batched")))
}

/// A live histogram's `(p50, p99)` from the daemon's `/snapshot`.
fn live_quantiles(snapshot: &str, name: &str) -> (f64, f64) {
    let records = parse_jsonl(snapshot).unwrap_or_default();
    records
        .iter()
        .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
        .map_or((f64::NAN, f64::NAN), |r| {
            let q = |k: &str| r.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
            (q("p50"), q("p99"))
        })
}

/// What one rep measured.
#[derive(Default)]
struct RepOut {
    setup_s: f64,
    rss_mb: f64,
    act_p50_ms: f64,
    capacity: f64,
    sent: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    service_us: Vec<f64>,
    reload_ms: Vec<f64>,
    reload_failed: u64,
    checked: usize,
    mismatched: usize,
    /// What only the instrumented rep measures.
    probe: Option<Probe>,
}

/// The instrumented rep's look inside the daemon, all in microseconds
/// except the occupancy.
#[derive(Default)]
struct Probe {
    /// p50 of `GET /info` on one connection, paced like the open loop.
    roundtrip_us: f64,
    /// `live/serve/latency_us` p50: the `/act` handler, parse to reply.
    handler_us: f64,
    /// `live/serve/queue_us` p50 and p99: enqueue to dispatch, including
    /// the batch-deadline wait.
    queue_us: (f64, f64),
    /// Rows per forward pass in the closed loop.
    occupancy: f64,
}

fn rep(ctx: &Ctx, index: usize, instrumented: bool) -> Result<RepOut, String> {
    let dir = ctx.work.join(format!("rep{index}"));
    let (daemon, setup_s) = Daemon::start(ctx, &dir)?;
    let mut out = RepOut {
        setup_s,
        ..RepOut::default()
    };
    let agents = ctx.bodies[0].len();
    for i in 0..WARMUP_REQUESTS {
        send(
            &daemon,
            ctx,
            Kind::Act {
                row: i % ROWS,
                agent: i % agents,
            },
        );
    }

    let mut probe = Probe::default();
    if instrumented {
        // One connection, paced like the open loop, so the accept loop
        // sees the same gaps between connections.
        let t0 = Instant::now();
        let mut rtt = Vec::with_capacity(INFO_REQUESTS);
        for i in 0..INFO_REQUESTS {
            let due = t0 + openloop::due(i, ctx.w.rate());
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let sent = Instant::now();
            daemon.get("/info")?;
            rtt.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        probe.roundtrip_us = median(&rtt);
    }

    let slots = openloop::schedule(
        ctx.w.rate(),
        OPEN_SECONDS,
        ROWS,
        agents,
        ctx.w.reload_every(),
    );
    let open = open_loop(&daemon, ctx, &slots);
    if instrumented {
        let snapshot = daemon.get("/snapshot")?;
        probe.handler_us = live_quantiles(&snapshot, "live/serve/latency_us").0;
        probe.queue_us = live_quantiles(&snapshot, "live/serve/queue_us");
    }
    let before = stats(&daemon)?;
    let (closed, closed_elapsed) = closed_loop(&daemon, ctx, agents);
    let after = stats(&daemon)?;
    probe.occupancy = (after.1 - before.1) / (after.0 - before.0);
    out.probe = instrumented.then_some(probe);
    out.rss_mb = daemon.peak_rss_mb();
    daemon.stop()?;

    for r in open.iter().chain(&closed) {
        out.sent += 1;
        if r.status != 200 {
            out.failed += 1;
        }
    }
    for r in &open {
        match r.kind {
            Kind::Act { .. } => {
                out.latencies_ms
                    .push(r.timing.latency().as_secs_f64() * 1e3);
                out.lags_ms.push(r.timing.lag().as_secs_f64() * 1e3);
                out.service_us.push(r.timing.service().as_secs_f64() * 1e6);
            }
            Kind::Reload => {
                out.reload_ms.push(r.timing.service().as_secs_f64() * 1e3);
                if r.status != 200 {
                    out.reload_failed += 1;
                }
            }
        }
    }
    out.act_p50_ms = median(&out.latencies_ms);
    let ok = closed.iter().filter(|r| r.status == 200).count();
    out.capacity = capacity_rps(ok, closed_elapsed);
    let (checked, mismatched) = check_logits(ctx, &open);
    let (checked2, mismatched2) = check_logits(ctx, &closed);
    out.checked = checked + checked2;
    out.mismatched = mismatched + mismatched2;
    Ok(out)
}

/// One run: the serving set-up, the instrumented rep, then timed reps
/// until `seconds` of them have run (at least `min_reps`).
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
    let (policy_args, policy) = match w {
        Workload::Table1 => {
            let registry = work.join("registry");
            write_checkpoint(&registry, seed)?;
            let policy = ServePolicy::load_newest(&registry)
                .map_err(|e| format!("loading the checkpoint: {e}"))?
                .ok_or("the checkpoint run wrote no checkpoint")?
                .0;
            let args = vec![
                "--checkpoint-dir".to_string(),
                registry.display().to_string(),
            ];
            (args, policy)
        }
        Workload::Heavy => {
            let (o, h, a) = HEAVY;
            let args = vec!["--synthetic".to_string(), format!("{o}x{h}x{a}")];
            (args, ServePolicy::synthetic(o, h, a, 0))
        }
    };
    let rows = observation_rows(seed, policy.obs_dim(), ROWS);
    let bodies = rows
        .iter()
        .map(|row| {
            let obs: Vec<String> = row.iter().map(f32::to_string).collect();
            (0..policy.n_agents())
                .map(|agent| format!("{{\"agent\":{agent},\"obs\":\"{}\"}}", obs.join(" ")))
                .collect()
        })
        .collect();
    let ctx = Ctx {
        w,
        serve_bin: util::exe_dir().join("hero-serve"),
        policy_args,
        policy,
        rows,
        bodies,
        work: work.to_path_buf(),
        threads: nproc(),
    };

    let inst = rep(&ctx, 0, true)?;
    let reps = util::timed_reps(seconds, min_reps, |i| rep(&ctx, i + 1, false))?;

    let mut r = RunResult::new(w.name(), seed);
    for o in &reps {
        r.attempted += o.sent;
        r.failed += o.failed;
        r.reps.push(
            [
                ("throughput_per_s", o.capacity),
                ("latency_ms", o.act_p50_ms),
                ("setup_s", o.setup_s),
                ("peak_rss_mb", o.rss_mb),
                ("act_p50_ms", o.act_p50_ms),
                ("act_capacity_rps", o.capacity),
                ("error_rate", o.failed as f64 / o.sent as f64),
            ]
            .into_iter()
            .collect(),
        );
    }

    let all = || reps.iter().chain(std::iter::once(&inst));
    let checked: usize = all().map(|o| o.checked).sum();
    let mismatched: usize = all().map(|o| o.mismatched).sum();
    r.check(
        "logits_bitwise",
        checked > 0 && mismatched == 0,
        format!("{checked} sampled /act replies, {mismatched} differ from ServePolicy::infer"),
    );
    let reload_failed: u64 = all().map(|o| o.reload_failed).sum();
    let reloads: usize = all().map(|o| o.reload_ms.len()).sum();
    if w == Workload::Table1 {
        r.check(
            "reloads_ok",
            reloads > 0 && reload_failed == 0,
            format!("{reloads} reloads, {reload_failed} refused"),
        );
    }

    // Per-layer values. Stages of the client's p50: the HTTP round trip
    // (measured alone), then inside the daemon the batch queue (including
    // the deadline wait) and the rest of the handler (parse, forward in
    // place, reply hand-off).
    let probe = inst.probe.as_ref().expect("the instrumented rep probes");
    let client_us = median(&inst.service_us);
    let (queue_p50, queue_p99) = probe.queue_us;
    let ratio = (probe.roundtrip_us + probe.handler_us) / client_us;
    r.layer("http.roundtrip_us_p50", probe.roundtrip_us);
    r.layer("http.overhead_us", client_us - probe.handler_us);
    r.layer("http.share", probe.roundtrip_us / client_us);
    r.layer("batch.wait_us_p50", queue_p50);
    r.layer("batch.wait_us_p99", queue_p99);
    r.layer("batch.wait_share", queue_p50 / client_us);
    r.layer(
        "serve.handler_share",
        (probe.handler_us - queue_p50) / client_us,
    );
    r.layer("serve.stage_sum_ratio", ratio);
    r.check(
        "stage_sum",
        (0.9..=1.1).contains(&ratio),
        format!("round trip + queue wait + handler = {ratio:.3} x client p50"),
    );
    r.layer("batch.occupancy", probe.occupancy);
    r.layer("batch.fill_ratio", probe.occupancy / MAX_BATCH);
    let (b1, b2) = forward_us(&ctx.policy, &ctx.rows);
    r.layer("policy.forward_us_b1", b1);
    r.layer("policy.forward_us_b2", b2);
    if w == Workload::Table1 {
        let reload_ms: Vec<f64> = all().flat_map(|o| o.reload_ms.iter().copied()).collect();
        r.layer("policy.reload_ms_p50", median(&reload_ms));
        r.layer("policy.reload_failed", reload_failed as f64);
    }
    // The tails pool every rep's open-loop samples.
    let latencies: Vec<f64> = all().flat_map(|o| o.latencies_ms.iter().copied()).collect();
    let lags: Vec<f64> = all().flat_map(|o| o.lags_ms.iter().copied()).collect();
    r.layer("serve.act_p99_ms", percentile(&latencies, 99.0));
    r.layer("loadgen.lag_ms_p99", percentile(&lags, 99.0));
    if let Some((p, v)) = tail_percentile(&latencies) {
        r.detail.push(("act_tail_percentile".into(), p.into()));
        r.detail.push(("act_tail_ms".into(), v.into()));
    }
    r.detail
        .push(("act_samples".into(), latencies.len().into()));
    let timed: Vec<f64> = reps.iter().map(|o| o.act_p50_ms).collect();
    r.layer("trace.overhead", inst.act_p50_ms / median(&timed) - 1.0);

    // The autograd layer at the served actor's forward shapes, batch 2.
    let opts = hero_sim::options::DrivingOption::COUNT;
    let hidden = match w {
        Workload::Table1 => HeroConfig::default().hidden,
        Workload::Heavy => HEAVY.1,
    };
    let actor = [
        ctx.policy.obs_dim() + opts * (ctx.policy.n_agents() - 1),
        hidden,
        hidden,
        opts,
    ];
    let (values, detail) = kernels::measure(&kernels::forward_gemms(2, &actor));
    for (name, v) in values {
        r.layer(name, v);
    }
    r.detail.push(("autograd".into(), detail));
    r.detail.push(("timed_reps".into(), reps.len().into()));
    r.detail.push(("load_threads".into(), ctx.threads.into()));
    r.detail
        .push(("offered_rate_per_s".into(), w.rate().into()));
    Ok(r)
}
