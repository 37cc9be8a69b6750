//! Analysis of telemetry dumps produced by `hero_rl::telemetry`:
//! terminal summaries, A-vs-B regression diffs, and learning-health
//! anomaly reports. Every input is a run's `telemetry.jsonl` (or a live
//! `/snapshot` scrape in the same format), the one per-run artifact that
//! experiment binaries and `hero-serve` write.
//!
//! Three operations, mirroring the `hero-inspect` subcommands:
//!
//! - [`summarize`] — a human-readable instrument-panel report for one run.
//! - [`diff`] — compare two runs metric-by-metric with relative tolerances;
//!   drives the CI golden-baseline gate.
//! - [`doctor`] — scan one run for known pathologies: watchdog events
//!   (non-finite gradients), dead layers (zero gradient norm), policy
//!   entropy collapse, checkpoint and actor faults, and serving
//!   micro-batches that never coalesce.
//!
//! ## What `diff` compares (and what it deliberately ignores)
//!
//! Only *order-independent, seed-deterministic* statistics participate:
//! counter totals and value-histogram `count`/`mean`/`min`/`max`. Everything
//! time-dependent (span durations, rates, `elapsed_s`) and everything
//! reservoir-dependent (`p50`/`p95`/`p99`, which vary with observation order
//! under the parallel skill workers) is excluded, so a same-seed rerun diffs
//! clean while a perturbed run trips the gate. The live observability plane
//! (`gauge` and `live` records — instantaneous rollout state and wall-clock
//! latencies) is parsed into [`Run::gauges`]/[`Run::live`] but never enters
//! a diff: it describes the *process*, not the computation.
//!
//! A fourth operation, [`render_top`], turns one snapshot (a live
//! `/snapshot` scrape or a finished telemetry directory) into the
//! `hero-inspect watch` terminal view: throughput, per-actor state, queue
//! depths, and wave-latency percentiles.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use hero_telemetry::emit::{parse_jsonl, JsonValue};

/// Summary statistics of one value or span histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stat {
    /// Number of recorded observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median estimate (reservoir; order-dependent).
    pub p50: f64,
    /// 95th-percentile estimate (reservoir; order-dependent).
    pub p95: f64,
    /// 99th-percentile estimate (reservoir; order-dependent).
    pub p99: f64,
}

/// One monotonic counter.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counter {
    /// Final total.
    pub total: u64,
    /// Events per wall-clock second (time-dependent; never diffed).
    pub rate_per_s: f64,
}

/// A fully parsed telemetry run.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// The run label from the `meta` record.
    pub label: String,
    /// Wall-clock duration in seconds.
    pub elapsed_s: f64,
    /// Counters by name.
    pub counters: BTreeMap<String, Counter>,
    /// Span timing histograms by path.
    pub spans: BTreeMap<String, Stat>,
    /// Value histograms by metric name.
    pub values: BTreeMap<String, Stat>,
    /// Live-plane gauges (instantaneous rollout state; never diffed).
    pub gauges: BTreeMap<String, f64>,
    /// Live-plane histograms (wall-clock latencies; never diffed).
    pub live: BTreeMap<String, Stat>,
}

fn field(rec: &BTreeMap<String, JsonValue>, key: &str) -> Result<f64, String> {
    rec.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn stat_from(rec: &BTreeMap<String, JsonValue>, suffix: &str) -> Result<Stat, String> {
    let get = |base: &str| field(rec, &format!("{base}{suffix}"));
    Ok(Stat {
        count: field(rec, "count")? as u64,
        mean: get("mean")?,
        min: get("min")?,
        max: get("max")?,
        p50: get("p50")?,
        p95: get("p95")?,
        p99: get("p99")?,
    })
}

/// Parses the body of a `telemetry.jsonl` document into a [`Run`].
///
/// # Errors
///
/// Returns a line-prefixed description of the first malformed record.
pub fn parse_run(text: &str) -> Result<Run, String> {
    let records = parse_jsonl(text).map_err(|(line, e)| format!("line {line}: {e}"))?;
    let mut run = Run::default();
    for (i, rec) in records.iter().enumerate() {
        let kind = rec
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("record {}: missing \"type\"", i + 1))?;
        let name = || {
            rec.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("record {}: missing \"name\"", i + 1))
        };
        match kind {
            "meta" => {
                run.label = rec
                    .get("run")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_owned();
                run.elapsed_s = field(rec, "elapsed_s")?;
            }
            "counter" => {
                run.counters.insert(
                    name()?,
                    Counter {
                        total: field(rec, "total")? as u64,
                        rate_per_s: field(rec, "rate_per_s")?,
                    },
                );
            }
            "span" => {
                run.spans.insert(name()?, stat_from(rec, "_us")?);
            }
            "value" => {
                run.values.insert(name()?, stat_from(rec, "")?);
            }
            "gauge" => {
                run.gauges.insert(name()?, field(rec, "value")?);
            }
            "live" => {
                run.live.insert(name()?, stat_from(rec, "")?);
            }
            other => return Err(format!("record {}: unknown type {other:?}", i + 1)),
        }
    }
    Ok(run)
}

/// Loads a run from a `telemetry.jsonl` file, or from a directory
/// containing one.
///
/// # Errors
///
/// Returns a description of any I/O or parse failure.
pub fn load_run(path: &Path) -> Result<Run, String> {
    let file = if path.is_dir() {
        path.join("telemetry.jsonl")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    parse_run(&text).map_err(|e| format!("{}: {e}", file.display()))
}

// ---------------------------------------------------------------------------
// summarize
// ---------------------------------------------------------------------------

/// Renders a terminal report of one run: counters, learning-health values,
/// the process's page faults and peak RSS, and the hottest spans.
#[must_use]
pub fn summarize(run: &Run) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "run {:?} ({:.2}s)", run.label, run.elapsed_s);
    if !run.counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, c) in &run.counters {
            let _ = writeln!(out, "  {name:<32} total {:<10} {:.1}/s", c.total, c.rate_per_s);
        }
    }
    if !run.values.is_empty() {
        let _ = writeln!(out, "\nvalues:");
        for (name, v) in &run.values {
            let _ = writeln!(
                out,
                "  {name:<32} n={:<7} mean {:>12.5} min {:>12.5} max {:>12.5} p95 {:>12.5}",
                v.count, v.mean, v.min, v.max, v.p95
            );
        }
    }
    let process: Vec<_> = ["live/process/minor_faults", "live/process/peak_rss_mb"]
        .into_iter()
        .filter_map(|name| run.gauges.get(name).map(|v| (name, v)))
        .collect();
    if !process.is_empty() {
        let _ = writeln!(out, "\nprocess:");
        for (name, v) in process {
            let _ = writeln!(out, "  {name:<32} {v:.1}");
        }
    }
    if !run.spans.is_empty() {
        let mut spans: Vec<_> = run.spans.iter().collect();
        spans.sort_by(|a, b| {
            let (ta, tb) = (a.1.mean * a.1.count as f64, b.1.mean * b.1.count as f64);
            tb.partial_cmp(&ta).unwrap_or(std::cmp::Ordering::Equal)
        });
        let _ = writeln!(out, "\nspans (by total time):");
        for (name, s) in spans {
            let _ = writeln!(
                out,
                "  {name:<32} n={:<7} total {:>10.0}us mean {:>9.1}us p95 {:>9.1}us",
                s.count,
                s.mean * s.count as f64,
                s.mean,
                s.p95
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Relative tolerances for [`diff`], expressed as fractions (0.4 = ±40%).
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Allowed relative drift of counter totals.
    pub counter: f64,
    /// Allowed relative drift of value `mean`/`min`/`max`.
    pub value: f64,
    /// Allowed relative drift of value observation counts.
    pub count: f64,
    /// Absolute slack added to every comparison, so metrics that hover
    /// around zero (e.g. `td_error` mean) don't produce unbounded relative
    /// deltas.
    pub abs_floor: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self { counter: 0.0, value: 0.4, count: 0.1, abs_floor: 1e-3 }
    }
}

/// One compared quantity in a [`DiffReport`].
#[derive(Clone, Debug)]
pub struct DiffLine {
    /// `counter/<name>/total`, `value/<name>/mean`, etc.
    pub what: String,
    /// Baseline quantity.
    pub a: f64,
    /// Candidate quantity.
    pub b: f64,
    /// Relative delta as a percentage of the larger magnitude.
    pub delta_pct: f64,
    /// Whether the delta stayed within tolerance.
    pub within: bool,
}

/// The outcome of comparing two runs.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every compared quantity, in deterministic name order.
    pub lines: Vec<DiffLine>,
    /// Human-readable descriptions of metrics present in only one run.
    pub missing: Vec<String>,
}

impl DiffReport {
    /// True when any quantity exceeded tolerance or a metric disappeared.
    #[must_use]
    pub fn is_regression(&self) -> bool {
        !self.missing.is_empty() || self.lines.iter().any(|l| !l.within)
    }

    /// Renders the report; with `verbose` false only violations are listed.
    #[must_use]
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        for m in &self.missing {
            let _ = writeln!(out, "MISSING  {m}");
        }
        for l in &self.lines {
            if verbose || !l.within {
                let _ = writeln!(
                    out,
                    "{}  {:<44} {:>14.5} -> {:>14.5}  ({:+.2}%)",
                    if l.within { "ok      " } else { "EXCEEDED" },
                    l.what,
                    l.a,
                    l.b,
                    l.delta_pct
                );
            }
        }
        let bad = self.lines.iter().filter(|l| !l.within).count();
        let _ = writeln!(
            out,
            "{} compared, {} exceeded tolerance, {} missing",
            self.lines.len(),
            bad,
            self.missing.len()
        );
        out
    }
}

fn compare(report: &mut DiffReport, what: String, a: f64, b: f64, tol: &Tolerances) {
    let rel = if what.starts_with("counter/") {
        tol.counter
    } else if what.ends_with("/count") {
        tol.count
    } else {
        tol.value
    };
    let scale = a.abs().max(b.abs());
    let delta = (b - a).abs();
    let within = delta <= rel * scale + tol.abs_floor;
    let delta_pct = if scale > 0.0 { 100.0 * (b - a) / scale } else { 0.0 };
    report.lines.push(DiffLine { what, a, b, delta_pct, within });
}

/// What [`diff`] compares and how strictly.
#[derive(Clone, Debug, Default)]
pub struct DiffOptions {
    /// The bound on each compared quantity: with every field zero, the
    /// bit-identity gate.
    pub tolerance: Tolerances,
    /// Metric-name prefixes excluded from the comparison: a counter or
    /// value whose name starts with one is neither compared nor reported
    /// missing. The kill-and-resume CI gate ignores `checkpoint/`, since
    /// a resumed run legitimately accrues extra `checkpoint/loaded`-style
    /// bookkeeping while every learning metric must still match the
    /// uninterrupted run bit-for-bit.
    pub ignore: Vec<String>,
}

/// Compares run `b` (candidate) against run `a` (baseline).
///
/// Counter totals and value `count`/`mean`/`min`/`max` are compared under
/// `opts.tolerance`; spans, rates, percentiles, and `elapsed_s` are
/// ignored (see the module docs). Metrics present in only one run are
/// reported in [`DiffReport::missing`].
#[must_use]
pub fn diff(a: &Run, b: &Run, opts: &DiffOptions) -> DiffReport {
    let ignored = |name: &str| opts.ignore.iter().any(|p| name.starts_with(p.as_str()));
    let tol = &opts.tolerance;
    let mut report = DiffReport::default();
    for (name, ca) in &a.counters {
        if ignored(name) {
            continue;
        }
        match b.counters.get(name) {
            Some(cb) => compare(
                &mut report,
                format!("counter/{name}/total"),
                ca.total as f64,
                cb.total as f64,
                tol,
            ),
            None => report.missing.push(format!("counter {name:?} absent from candidate")),
        }
    }
    for name in b.counters.keys() {
        if !a.counters.contains_key(name) && !ignored(name) {
            report.missing.push(format!("counter {name:?} absent from baseline"));
        }
    }
    for (name, va) in &a.values {
        if ignored(name) {
            continue;
        }
        match b.values.get(name) {
            Some(vb) => {
                compare(
                    &mut report,
                    format!("value/{name}/count"),
                    va.count as f64,
                    vb.count as f64,
                    tol,
                );
                for (fieldname, fa, fb) in [
                    ("mean", va.mean, vb.mean),
                    ("min", va.min, vb.min),
                    ("max", va.max, vb.max),
                ] {
                    compare(
                        &mut report,
                        format!("value/{name}/{fieldname}"),
                        fa,
                        fb,
                        tol,
                    );
                }
            }
            None => report.missing.push(format!("value {name:?} absent from candidate")),
        }
    }
    for name in b.values.keys() {
        if !a.values.contains_key(name) && !ignored(name) {
            report.missing.push(format!("value {name:?} absent from baseline"));
        }
    }
    report
}

// ---------------------------------------------------------------------------
// doctor
// ---------------------------------------------------------------------------

/// Severity of a [`Finding`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Worth a look but not necessarily fatal.
    Warning,
    /// Learning is almost certainly broken.
    Critical,
}

/// One anomaly discovered by [`doctor`].
#[derive(Clone, Debug)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// What was observed and why it matters.
    pub message: String,
}

/// Policy-entropy floor below which [`doctor`] reports collapse.
pub const ENTROPY_COLLAPSE_FLOOR: f64 = 0.01;

/// Mean rows per serving forward pass at or below which [`doctor`]
/// reports that micro-batching is not engaging.
pub const IDLE_BATCH_OCCUPANCY: f64 = 1.05;

/// Scans a run for known learning pathologies:
///
/// - **NaN events** — non-zero `watchdog/*` counters mean the optimizer
///   screened out poisoned gradients (critical: the loss surface produced
///   non-finite values).
/// - **Dead layers** — a `grad_norm/*` histogram whose `max` is exactly zero
///   means that layer never received gradient (warning: frozen or
///   disconnected parameters).
/// - **Entropy collapse** — an `entropy/*` mean below
///   [`ENTROPY_COLLAPSE_FLOOR`] nats means the high-level policy has
///   become deterministic (warning: exploration is gone).
/// - **Checkpoint health** — `checkpoint/dropped > 0` means a snapshot was
///   abandoned after exhausting its IO retries (critical: a crash after
///   that point loses more work than `--checkpoint-every` promises);
///   non-zero `checkpoint/save_failed`, `checkpoint/fallback`, or
///   `checkpoint/corrupt_skipped` are warnings that storage is flaky or a
///   checkpoint file was corrupted and an older one had to be used.
/// - **Stalled actors** — `actor/stalled > 0` means the learner timed out
///   waiting on an actor and re-dispatched its work (warning: an actor
///   thread wedged or fell far behind; the run completed but slower than
///   its actor count promises).
/// - **Supervision** — `actor/panicked` / `actor/respawned` warn that
///   actor threads died and were replaced (the run self-healed, but the
///   faults deserve a look); `supervisor/degraded` warns that a slot
///   exhausted its respawn budget and was retired, shrinking the fleet
///   for the rest of the run; `supervisor/fleet_lost` or
///   `supervisor/emergency_skipped` are critical — the run aborted early,
///   and in the `emergency_skipped` case without a recoverable
///   checkpoint.
/// - **Idle micro-batching** — on a `hero-serve` run, a mean
///   `live/serve/batch_occupancy` of at most [`IDLE_BATCH_OCCUPANCY`]
///   rows per forward pass while the `live/serve/max_batch` gauge allows
///   more (warning: the daemon pays dispatcher overhead for no coalescing
///   win; the offered load is too low for the batch deadline).
#[must_use]
pub fn doctor(run: &Run) -> Vec<Finding> {
    let mut findings = Vec::new();
    if let Some(occ) = run.live.get("live/serve/batch_occupancy") {
        // A daemon that predates the gauge recorded no bound: treat it as unbounded.
        let max_batch = run
            .gauges
            .get("live/serve/max_batch")
            .copied()
            .unwrap_or(f64::INFINITY);
        if occ.count > 0 && occ.mean <= IDLE_BATCH_OCCUPANCY && max_batch > 1.0 {
            findings.push(Finding {
                severity: Severity::Warning,
                message: format!(
                    "serving batch occupancy = {:.2} rows per forward pass with max_batch \
                     {max_batch:.0} — micro-batching is not engaging; the offered load is too \
                     low for the batch deadline, so the daemon pays dispatcher overhead for no \
                     coalescing win",
                    occ.mean
                ),
            });
        }
    }
    if let Some(c) = run.counters.get("actor/stalled") {
        if c.total > 0 {
            findings.push(Finding {
                severity: Severity::Warning,
                message: format!(
                    "actor/stalled = {} — the learner timed out waiting on an actor and \
                     re-dispatched its work; a rollout thread wedged or fell far behind",
                    c.total
                ),
            });
        }
    }
    for (name, why) in [
        ("actor/panicked", "actor threads died mid-run; check the flight recorder for payloads"),
        (
            "actor/respawned",
            "the supervisor replaced failed actor threads; the run self-healed but the root \
             cause deserves a look",
        ),
        (
            "supervisor/degraded",
            "an actor slot exhausted its respawn budget and was retired; the fleet ran \
             degraded from that point on",
        ),
    ] {
        if let Some(c) = run.counters.get(name) {
            if c.total > 0 {
                findings.push(Finding {
                    severity: Severity::Warning,
                    message: format!("{name} = {} — {why}", c.total),
                });
            }
        }
    }
    if let Some(c) = run.counters.get("supervisor/fleet_lost") {
        if c.total > 0 {
            let saved =
                run.counters.get("supervisor/emergency_saved").is_some_and(|c| c.total > 0);
            findings.push(Finding {
                severity: Severity::Critical,
                message: format!(
                    "supervisor/fleet_lost = {} — every actor died and the run aborted early{}",
                    c.total,
                    if saved {
                        "; an emergency checkpoint was saved, rerun with --resume"
                    } else {
                        ", with no boundary-clean state to emergency-checkpoint"
                    }
                ),
            });
        }
    }
    for (name, c) in &run.counters {
        if name.starts_with("watchdog/") && c.total > 0 {
            findings.push(Finding {
                severity: Severity::Critical,
                message: format!(
                    "{name} = {} — non-finite gradients were produced during training",
                    c.total
                ),
            });
        }
    }
    if let Some(c) = run.counters.get("checkpoint/dropped") {
        if c.total > 0 {
            findings.push(Finding {
                severity: Severity::Critical,
                message: format!(
                    "checkpoint/dropped = {} — snapshots were abandoned after exhausting IO \
                     retries; a crash now loses more work than the checkpoint cadence promises",
                    c.total
                ),
            });
        }
    }
    for (name, why) in [
        ("checkpoint/save_failed", "checkpoint writes hit IO errors (retries recovered them)"),
        ("checkpoint/fallback", "the newest checkpoint was unreadable and an older one was used"),
        ("checkpoint/corrupt_skipped", "corrupt checkpoint files were skipped during recovery"),
    ] {
        if let Some(c) = run.counters.get(name) {
            if c.total > 0 {
                findings.push(Finding {
                    severity: Severity::Warning,
                    message: format!("{name} = {} — {why}", c.total),
                });
            }
        }
    }
    for (name, v) in &run.values {
        if name.starts_with("grad_norm/") && v.count > 0 && v.max == 0.0 {
            findings.push(Finding {
                severity: Severity::Warning,
                message: format!(
                    "{name} never left zero over {} updates — dead or disconnected layer",
                    v.count
                ),
            });
        }
        if name.starts_with("entropy/") && v.count > 0 && v.mean < ENTROPY_COLLAPSE_FLOOR {
            findings.push(Finding {
                severity: Severity::Warning,
                message: format!(
                    "{name} mean {:.4} nats < {ENTROPY_COLLAPSE_FLOOR} — policy entropy \
                     collapse, exploration has stopped",
                    v.mean
                ),
            });
        }
    }
    findings
}

/// Training-throughput summary from a run's counters: environment steps
/// and gradient updates per wall-clock second. Kept separate from
/// [`doctor`] findings — throughput is information, not a pathology.
#[must_use]
pub fn throughput_report(run: &Run) -> String {
    let mut out = String::new();
    for (counter, label) in [("env_steps", "env_steps/s"), ("grad_updates", "grad_updates/s")] {
        match run.counters.get(counter) {
            Some(c) => {
                let _ = writeln!(out, "throughput  {label:<15} {:>10.1}  (total {})", c.rate_per_s, c.total);
            }
            None => {
                let _ = writeln!(out, "throughput  {label:<15}        n/a  (counter {counter:?} absent)");
            }
        }
    }
    out
}

/// Per-actor channel-pressure summary from the live plane: the maximum
/// observed `live/queue_depth/<actor>` over the run. Information, not a
/// pathology — a persistently full queue just means the learner (not the
/// actors) is the bottleneck. Empty when the run has no live telemetry.
#[must_use]
pub fn queue_depth_report(run: &Run) -> String {
    let mut out = String::new();
    for (name, s) in &run.live {
        if let Some(actor) = name.strip_prefix("live/queue_depth/") {
            let _ = writeln!(
                out,
                "queue  {actor:<10} max depth {:>4.0}  (mean {:.1} over {} sends)",
                s.max, s.mean, s.count
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// watch (hero-top)
// ---------------------------------------------------------------------------

/// Renders one `hero-inspect watch` frame ("hero-top") from a snapshot:
/// throughput, per-actor state (queue depth, utilization, heartbeat age),
/// aggregate queue pressure, and wave/update/checkpoint latency
/// percentiles. Pure: same [`Run`] in, same text out — the subcommand
/// loops this over fresh `/snapshot` scrapes.
#[must_use]
pub fn render_top(run: &Run) -> String {
    let gauge = |name: &str| run.gauges.get(name).copied();
    let mut out = String::new();
    let _ = writeln!(out, "hero-top  run {:?}  elapsed {:.1}s", run.label, run.elapsed_s);

    let _ = write!(out, "\nthroughput ");
    for (counter, label) in
        [("env_steps", "env_steps/s"), ("episodes", "episodes/s"), ("grad_updates", "updates/s")]
    {
        match run.counters.get(counter) {
            Some(c) => {
                let _ = write!(out, "  {label} {:.1} (total {})", c.rate_per_s, c.total);
            }
            None => {
                let _ = write!(out, "  {label} n/a");
            }
        }
    }
    let _ = writeln!(out);

    let actors_total = gauge("live/actors_total");
    match actors_total {
        None => {
            let _ = writeln!(
                out,
                "\nno live rollout telemetry in this snapshot (sequential trainer, or the \
                 run predates the live plane)"
            );
        }
        Some(total) => {
            let busy = gauge("live/actors_busy").unwrap_or(0.0);
            let depth = gauge("live/queue_depth_total").unwrap_or(0.0);
            let _ = writeln!(
                out,
                "\nactors     {busy:.0}/{total:.0} busy   aggregate queue depth {depth:.0}"
            );
            for k in 0.. {
                let name = format!("actor{k}");
                let now = gauge(&format!("live/queue_depth_now/{name}"));
                let util = gauge(&format!("live/actor_util/{name}"));
                let beat = gauge(&format!("live/heartbeat_s/{name}"));
                if now.is_none() && util.is_none() && beat.is_none() {
                    break;
                }
                let max = run
                    .live
                    .get(&format!("live/queue_depth/{name}"))
                    .map_or(0.0, |s| s.max);
                let _ = writeln!(
                    out,
                    "  {name:<8} q now {:>3.0}  q max {max:>3.0}  util {:>5.2}  \
                     heartbeat {:>6.1}s ago",
                    now.unwrap_or(0.0),
                    util.unwrap_or(0.0),
                    beat.map_or(f64::NAN, |b| (run.elapsed_s - b).max(0.0)),
                );
            }
        }
    }

    let mut latency_rows = String::new();
    for (name, label) in [
        ("live/wave_us", "wave dispatch->complete"),
        ("live/learner_update_us", "learner update loop"),
        ("live/checkpoint_write_us", "checkpoint write"),
    ] {
        if let Some(s) = run.live.get(name) {
            let _ = writeln!(
                latency_rows,
                "  {label:<24} p50 {:>9.0}us  p95 {:>9.0}us  p99 {:>9.0}us  (n={})",
                s.p50, s.p95, s.p99, s.count
            );
        }
    }
    if !latency_rows.is_empty() {
        let _ = writeln!(out, "\nlatency");
        out.push_str(&latency_rows);
    }

    if let Some(c) = run.counters.get("actor/stalled") {
        if c.total > 0 {
            let _ = writeln!(out, "\n!! {} stalled-actor re-dispatch(es) — see doctor", c.total);
        }
    }
    if let Some(c) = run.counters.get("actor/respawned") {
        if c.total > 0 {
            let _ = writeln!(out, "!! {} actor respawn(s) — see doctor", c.total);
        }
    }
    if let Some(c) = run.counters.get("supervisor/degraded") {
        if c.total > 0 {
            let _ = writeln!(out, "!! {} retired actor slot(s) — fleet is degraded", c.total);
        }
    }
    out
}

/// Renders doctor findings (or a clean bill of health).
#[must_use]
pub fn render_findings(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "healthy: no watchdog events, dead layers, or entropy collapse\n".into();
    }
    let mut out = String::new();
    for f in findings {
        let tag = match f.severity {
            Severity::Warning => "WARN",
            Severity::Critical => "CRIT",
        };
        let _ = writeln!(out, "{tag}  {}", f.message);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"
{"type":"meta","run":"a","elapsed_s":1.5}
{"type":"counter","name":"episodes","total":4,"rate_per_s":2.6}
{"type":"counter","name":"grad_updates","total":100,"rate_per_s":66.0}
{"type":"span","name":"rollout","count":4,"total_us":900,"mean_us":225,"min_us":200,"max_us":250,"p50_us":220,"p95_us":249,"p99_us":250}
{"type":"value","name":"td_error","count":64,"mean":0.02,"min":-1.5,"max":1.75,"p50":0.01,"p95":1.2,"p99":1.6}
{"type":"value","name":"entropy/agent0","count":32,"mean":1.05,"min":0.9,"max":1.1,"p50":1.0,"p95":1.1,"p99":1.1}
"#;

    #[test]
    fn parses_all_record_kinds() {
        let run = parse_run(BASE).unwrap();
        assert_eq!(run.label, "a");
        assert_eq!(run.counters["episodes"].total, 4);
        assert_eq!(run.spans["rollout"].count, 4);
        assert_eq!(run.values["td_error"].count, 64);
        assert!((run.values["entropy/agent0"].mean - 1.05).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_unknown_type() {
        assert!(parse_run("{\"type\":\"bogus\",\"name\":\"x\"}").is_err());
    }

    #[test]
    fn throughput_report_uses_counter_rates() {
        let run = parse_run(BASE).unwrap();
        let text = throughput_report(&run);
        assert!(text.contains("grad_updates/s"), "{text}");
        assert!(text.contains("66.0"), "{text}");
        // env_steps is absent from this fixture: reported, not invented.
        assert!(text.contains("env_steps/s"), "{text}");
        assert!(text.contains("n/a"), "{text}");
    }

    #[test]
    fn summarize_mentions_every_metric() {
        let mut run = parse_run(BASE).unwrap();
        run.gauges
            .insert("live/process/minor_faults".into(), 3260.0);
        run.gauges.insert("live/process/peak_rss_mb".into(), 41.5);
        let text = summarize(&run);
        for needle in [
            "episodes",
            "grad_updates",
            "td_error",
            "entropy/agent0",
            "rollout",
            "live/process/minor_faults",
            "3260.0",
            "live/process/peak_rss_mb",
            "41.5",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn identical_runs_diff_clean() {
        let run = parse_run(BASE).unwrap();
        let report = diff(&run, &run, &DiffOptions::default());
        assert!(!report.is_regression(), "{}", report.render(true));
        assert!(report.lines.iter().all(|l| l.delta_pct == 0.0));
    }

    #[test]
    fn perturbed_counter_total_is_a_regression() {
        let a = parse_run(BASE).unwrap();
        let mut b = a.clone();
        b.counters.get_mut("grad_updates").unwrap().total = 150;
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(report.is_regression());
        assert!(report
            .lines
            .iter()
            .any(|l| l.what == "counter/grad_updates/total" && !l.within));
    }

    #[test]
    fn value_drift_within_tolerance_passes_and_beyond_fails() {
        let a = parse_run(BASE).unwrap();
        let mut b = a.clone();
        b.values.get_mut("entropy/agent0").unwrap().mean = 1.05 * 1.2;
        assert!(!diff(&a, &b, &DiffOptions::default()).is_regression());
        b.values.get_mut("entropy/agent0").unwrap().mean = 1.05 * 2.0;
        assert!(diff(&a, &b, &DiffOptions::default()).is_regression());
    }

    #[test]
    fn near_zero_means_use_the_absolute_floor() {
        // td_error mean 0.02 vs 0.0205: 2.5% relative but tiny absolutely.
        let a = parse_run(BASE).unwrap();
        let mut b = a.clone();
        b.values.get_mut("td_error").unwrap().mean = 0.0205;
        assert!(!diff(&a, &b, &DiffOptions::default()).is_regression());
    }

    #[test]
    fn missing_metric_is_a_regression_both_ways() {
        let a = parse_run(BASE).unwrap();
        let mut b = a.clone();
        b.values.remove("entropy/agent0");
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(report.is_regression());
        assert!(report.missing[0].contains("absent from candidate"));
        let report = diff(&b, &a, &DiffOptions::default());
        assert!(report.missing[0].contains("absent from baseline"));
    }

    #[test]
    fn spans_and_rates_never_participate_in_diff() {
        let a = parse_run(BASE).unwrap();
        let mut b = a.clone();
        b.spans.get_mut("rollout").unwrap().mean = 1e9;
        b.counters.get_mut("episodes").unwrap().rate_per_s = 1e9;
        b.elapsed_s = 1e9;
        assert!(!diff(&a, &b, &DiffOptions::default()).is_regression());
    }

    /// A `hero-serve --out` run: the daemon's `max_batch` gauge and its
    /// batch-occupancy histogram with the given mean.
    fn serve_run(max_batch: u32, occupancy: f64) -> Run {
        parse_run(&format!(
            "{{\"type\":\"meta\",\"run\":\"serve\",\"elapsed_s\":3}}\n\
             {{\"type\":\"counter\",\"name\":\"serve/requests\",\"total\":240,\"rate_per_s\":80}}\n\
             {{\"type\":\"gauge\",\"name\":\"live/serve/max_batch\",\"value\":{max_batch}}}\n\
             {{\"type\":\"live\",\"name\":\"live/serve/batch_occupancy\",\"count\":200,\
             \"mean\":{occupancy},\"min\":1,\"max\":8,\"p50\":1,\"p95\":2,\"p99\":8}}\n"
        ))
        .unwrap()
    }

    #[test]
    fn doctor_flags_serving_batches_that_never_coalesce() {
        assert!(
            doctor(&serve_run(32, 5.4)).is_empty(),
            "healthy occupancy flagged"
        );
        // Occupancy pinned at ~1 row per pass means batching never engaged.
        let findings = doctor(&serve_run(32, 1.01));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Warning);
        assert!(findings[0].message.contains("not engaging"), "{}", findings[0].message);
        // ...but occupancy 1 with max_batch 1 is the configured baseline,
        // not a pathology.
        assert!(doctor(&serve_run(1, 1.0)).is_empty());
    }

    #[test]
    fn doctor_flags_watchdog_dead_layer_and_collapse() {
        let text = r#"
{"type":"meta","run":"sick","elapsed_s":9}
{"type":"counter","name":"watchdog/skipped_updates","total":3,"rate_per_s":0.3}
{"type":"value","name":"grad_norm/actor/l1","count":50,"mean":0,"min":0,"max":0,"p50":0,"p95":0,"p99":0}
{"type":"value","name":"entropy/agent0","count":50,"mean":0.001,"min":0,"max":0.002,"p50":0.001,"p95":0.002,"p99":0.002}
"#;
        let findings = doctor(&parse_run(text).unwrap());
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().any(|f| f.severity == Severity::Critical
            && f.message.contains("watchdog/skipped_updates")));
        assert!(findings.iter().any(|f| f.message.contains("dead or disconnected")));
        assert!(findings.iter().any(|f| f.message.contains("entropy collapse")));
        assert!(render_findings(&findings).contains("CRIT"));
    }

    #[test]
    fn doctor_healthy_run_is_clean() {
        let findings = doctor(&parse_run(BASE).unwrap());
        assert!(findings.is_empty(), "{findings:?}");
        assert!(render_findings(&findings).contains("healthy"));
    }

    #[test]
    fn diff_ignores_prefixed_metrics_on_either_side() {
        let a = parse_run(BASE).unwrap();
        let mut b = a.clone();
        // Resumed runs accrue checkpoint bookkeeping the baseline lacks,
        // and vice versa — both directions must be excluded.
        b.counters.insert(
            "checkpoint/loaded".into(),
            Counter { total: 1, rate_per_s: 0.1 },
        );
        let mut a2 = a.clone();
        a2.counters.insert(
            "checkpoint/saved".into(),
            Counter { total: 5, rate_per_s: 0.5 },
        );
        let opts = DiffOptions {
            ignore: vec!["checkpoint/".to_string()],
            ..DiffOptions::default()
        };
        let report = diff(&a2, &b, &opts);
        assert!(!report.is_regression(), "{}", report.render(true));
        // Without the ignore list the same comparison trips on both sides.
        assert!(diff(&a2, &b, &DiffOptions::default()).is_regression());
    }

    #[test]
    fn doctor_flags_checkpoint_problems() {
        let text = r#"
{"type":"meta","run":"flaky","elapsed_s":9}
{"type":"counter","name":"checkpoint/dropped","total":1,"rate_per_s":0.1}
{"type":"counter","name":"checkpoint/save_failed","total":2,"rate_per_s":0.2}
{"type":"counter","name":"checkpoint/fallback","total":1,"rate_per_s":0.1}
{"type":"counter","name":"checkpoint/corrupt_skipped","total":1,"rate_per_s":0.1}
"#;
        let findings = doctor(&parse_run(text).unwrap());
        assert_eq!(findings.len(), 4, "{findings:?}");
        assert!(findings.iter().any(|f| f.severity == Severity::Critical
            && f.message.contains("checkpoint/dropped")));
        assert!(findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
            == 3);
    }

    const LIVE: &str = r#"
{"type":"meta","run":"live","elapsed_s":10.0}
{"type":"counter","name":"env_steps","total":5000,"rate_per_s":500.0}
{"type":"counter","name":"episodes","total":20,"rate_per_s":2.0}
{"type":"gauge","name":"live/actors_total","value":2}
{"type":"gauge","name":"live/actors_busy","value":1}
{"type":"gauge","name":"live/queue_depth_total","value":3}
{"type":"gauge","name":"live/queue_depth_now/actor0","value":3}
{"type":"gauge","name":"live/queue_depth_now/actor1","value":0}
{"type":"gauge","name":"live/actor_util/actor0","value":0.9}
{"type":"gauge","name":"live/heartbeat_s/actor0","value":9.8}
{"type":"live","name":"live/queue_depth/actor0","count":40,"mean":2.5,"min":1,"max":8,"p50":2,"p95":6,"p99":8}
{"type":"live","name":"live/wave_us","count":20,"mean":1500,"min":900,"max":4000,"p50":1400,"p95":3000,"p99":3900}
"#;

    #[test]
    fn parses_gauge_and_live_records_into_their_own_maps() {
        let run = parse_run(LIVE).unwrap();
        assert_eq!(run.gauges["live/actors_total"], 2.0);
        assert_eq!(run.live["live/queue_depth/actor0"].max, 8.0);
        // They are NOT values/counters, so they can never enter a diff.
        assert!(!run.values.contains_key("live/queue_depth/actor0"));
        assert!(!run.counters.contains_key("live/actors_total"));
    }

    #[test]
    fn live_plane_never_participates_in_diff() {
        let a = parse_run(LIVE).unwrap();
        let mut b = a.clone();
        b.gauges.insert("live/queue_depth_total".into(), 999.0);
        b.live.get_mut("live/wave_us").unwrap().mean = 1e9;
        b.live.remove("live/queue_depth/actor0");
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(!report.is_regression(), "{}", report.render(true));
    }

    #[test]
    fn doctor_warns_on_stalled_actors() {
        let text = r#"
{"type":"meta","run":"stalled","elapsed_s":9}
{"type":"counter","name":"actor/stalled","total":1,"rate_per_s":0.1}
"#;
        let findings = doctor(&parse_run(text).unwrap());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Warning);
        assert!(findings[0].message.contains("actor/stalled = 1"));
    }

    #[test]
    fn doctor_warns_on_supervision_activity_and_flags_fleet_loss() {
        let text = r#"
{"type":"meta","run":"chaos","elapsed_s":9}
{"type":"counter","name":"actor/panicked","total":1,"rate_per_s":0.1}
{"type":"counter","name":"actor/respawned","total":2,"rate_per_s":0.2}
{"type":"counter","name":"supervisor/degraded","total":1,"rate_per_s":0.1}
"#;
        let findings = doctor(&parse_run(text).unwrap());
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.severity == Severity::Warning), "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("actor/panicked = 1")));
        assert!(findings.iter().any(|f| f.message.contains("actor/respawned = 2")));
        assert!(findings.iter().any(|f| f.message.contains("supervisor/degraded = 1")));

        let lost = r#"
{"type":"meta","run":"lost","elapsed_s":9}
{"type":"counter","name":"supervisor/fleet_lost","total":1,"rate_per_s":0.1}
{"type":"counter","name":"supervisor/emergency_saved","total":1,"rate_per_s":0.1}
"#;
        let findings = doctor(&parse_run(lost).unwrap());
        let crit = findings
            .iter()
            .find(|f| f.severity == Severity::Critical)
            .expect("fleet loss must be critical");
        assert!(crit.message.contains("supervisor/fleet_lost = 1"), "{crit:?}");
        assert!(crit.message.contains("--resume"), "{crit:?}");

        let unsaved = r#"
{"type":"meta","run":"lost-unsaved","elapsed_s":9}
{"type":"counter","name":"supervisor/fleet_lost","total":1,"rate_per_s":0.1}
"#;
        let findings = doctor(&parse_run(unsaved).unwrap());
        let crit = findings
            .iter()
            .find(|f| f.severity == Severity::Critical)
            .expect("fleet loss must be critical");
        assert!(crit.message.contains("no boundary-clean state"), "{crit:?}");
    }

    #[test]
    fn render_top_banners_respawns_and_degraded_fleet() {
        let text = r#"
{"type":"meta","run":"chaos","elapsed_s":9}
{"type":"counter","name":"actor/respawned","total":2,"rate_per_s":0.2}
{"type":"counter","name":"supervisor/degraded","total":1,"rate_per_s":0.1}
"#;
        let frame = render_top(&parse_run(text).unwrap());
        assert!(frame.contains("2 actor respawn(s)"), "{frame}");
        assert!(frame.contains("1 retired actor slot(s)"), "{frame}");
    }

    #[test]
    fn queue_depth_report_lists_max_per_actor() {
        let report = queue_depth_report(&parse_run(LIVE).unwrap());
        assert!(report.contains("actor0"), "{report}");
        assert!(report.contains("max depth    8"), "{report}");
        // No live data -> empty report, not noise.
        assert!(queue_depth_report(&parse_run(BASE).unwrap()).is_empty());
    }

    #[test]
    fn render_top_shows_actors_queues_and_latency() {
        let frame = render_top(&parse_run(LIVE).unwrap());
        for needle in [
            "hero-top",
            "env_steps/s 500.0",
            "1/2 busy",
            "aggregate queue depth 3",
            "actor0",
            "actor1",
            "wave dispatch->complete",
            "p95      3000us",
        ] {
            assert!(frame.contains(needle), "missing {needle:?} in:\n{frame}");
        }
        // Heartbeat renders as an age, not the raw gauge.
        assert!(frame.contains("0.2s ago"), "{frame}");
    }

    #[test]
    fn render_top_degrades_without_live_telemetry() {
        let frame = render_top(&parse_run(BASE).unwrap());
        assert!(frame.contains("no live rollout telemetry"), "{frame}");
    }

    #[test]
    fn doctor_ignores_healthy_checkpoint_bookkeeping() {
        let text = r#"
{"type":"meta","run":"ok","elapsed_s":9}
{"type":"counter","name":"checkpoint/saved","total":10,"rate_per_s":1}
{"type":"counter","name":"checkpoint/loaded","total":1,"rate_per_s":0.1}
{"type":"counter","name":"checkpoint/dropped","total":0,"rate_per_s":0}
"#;
        let findings = doctor(&parse_run(text).unwrap());
        assert!(findings.is_empty(), "{findings:?}");
    }
}
