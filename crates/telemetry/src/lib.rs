//! Lightweight training telemetry for the HERO reproduction.
//!
//! The subsystem provides four primitives:
//!
//! * **Scoped span timers** — [`span`] returns an RAII guard; nested guards
//!   build a per-thread span stack whose names are joined with `/` into a
//!   span path (e.g. `trainer/rollout/env_step`). Durations feed streaming
//!   histograms with p50/p95/p99.
//! * **Monotonic counters** — [`counter_add`] accumulates named `u64`
//!   totals (env steps, gradient updates, transitions sampled). Snapshots
//!   derive throughput gauges (`total / elapsed`, i.e. steps/sec).
//! * **Streaming value histograms** — [`observe`] records free-form scalars
//!   (rewards, losses) with bounded memory.
//! * **Emitters** — [`flush`] writes `telemetry.jsonl`, the one per-run
//!   artifact (`hero-inspect` reads it); [`progress`] prints
//!   a rate-limited human-readable line to stderr. When
//!   [`TelemetryConfig::trace_out`] is set, the span guards additionally
//!   record Chrome trace events and [`flush`] writes a Perfetto-loadable
//!   `trace.json` (see [`trace`]).
//! * **The live observability plane** — [`gauge_set`] / [`live_observe`]
//!   record instantaneous rollout state and wall-clock latencies under the
//!   `live/` namespace, [`flight_event`] appends structured events to a
//!   lock-free flight recorder ([`ring`]), and [`exporter::serve`] exposes
//!   the whole registry over HTTP (`/metrics` Prometheus, `/snapshot`
//!   JSONL) for mid-run scraping. The live plane is excluded from
//!   checkpoint state and golden diffs: it describes the process, not the
//!   training run, so instrumenting or scraping a run never perturbs its
//!   bit-exact determinism.
//!
//! ## Enabling
//!
//! Telemetry is **disabled by default** and all record paths compile down
//! to a single relaxed atomic load when disabled — instrumented hot loops
//! pay near-zero overhead. Enable it either:
//!
//! * process-wide: `let _guard = telemetry::install(cfg);` (flushes and
//!   uninstalls on drop), or
//! * per-thread: `let _guard = telemetry::scoped(cfg);` — used by tests so
//!   concurrently running `cargo test` threads cannot cross-contaminate
//!   each other's registries. A thread-scoped registry shadows the global
//!   one on that thread only.
//!
//! The crate is re-exported as `hero_rl::telemetry`, and depended on
//! directly by `hero-sim` (which sits below `hero-rl` in the crate graph).

#![warn(missing_docs)]

pub mod emit;
pub mod exporter;
pub mod histogram;
pub mod http;
pub mod registry;
pub mod ring;
pub mod trace;

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

pub use histogram::{HistogramState, HistogramStats, StreamingHistogram};
pub use registry::{CounterStats, Registry, RegistryState, Snapshot, TelemetryConfig};
pub use ring::{FlightEvent, FlightEventKind, FlightRing};
pub use trace::{TraceEvent, TracePhase};

/// Count of live sinks (global installs + scoped registries across all
/// threads). `0` means every record path returns after one relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

thread_local! {
    /// Thread-scoped registry override (innermost last).
    static SCOPED: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
    /// Stack of active span names on this thread.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// When set, record calls on this thread are diverted into this buffer
    /// instead of the registry; see [`begin_capture`].
    static CAPTURE: RefCell<Option<CaptureState>> = const { RefCell::new(None) };
}

struct CaptureState {
    /// Span-stack depth when capture began: captured span paths are
    /// relative to this base, so replaying re-roots them correctly.
    base_depth: usize,
    events: Vec<CapturedEvent>,
}

/// One telemetry event diverted by capture mode (see [`begin_capture`]),
/// replayable into a registry in a caller-chosen order via [`replay`].
#[derive(Clone, Debug, PartialEq)]
pub enum CapturedEvent {
    /// A [`counter_add`] call.
    Counter(&'static str, u64),
    /// An [`observe`]/[`observe_dyn`] call.
    Value(String, f64),
    /// A completed span: its `/`-joined path *relative to the capturing
    /// thread's stack* and the measured duration.
    Span(String, std::time::Duration),
}

/// Diverts all subsequent record calls **on this thread** into an ordered
/// buffer instead of the registry, until [`take_capture`] is called.
///
/// This is the worker-thread half of deterministic parallelism: each
/// worker captures its events locally, and the coordinating thread
/// [`replay`]s the buffers in a fixed order so counter totals and value
/// histograms are bit-identical to a sequential run regardless of thread
/// interleaving. While capturing, [`is_enabled`] reports `true` so
/// metric-producing code stays on the instrumented path.
pub fn begin_capture() {
    let base_depth = SPAN_STACK.with(|s| s.borrow().len());
    CAPTURE.with(|c| {
        *c.borrow_mut() = Some(CaptureState {
            base_depth,
            events: Vec::new(),
        });
    });
}

/// Ends capture mode on this thread and returns the buffered events in
/// record order. Returns an empty buffer when capture was never begun.
pub fn take_capture() -> Vec<CapturedEvent> {
    CAPTURE
        .with(|c| c.borrow_mut().take())
        .map(|s| s.events)
        .unwrap_or_default()
}

fn capturing() -> bool {
    CAPTURE.with(|c| c.borrow().is_some())
}

fn capture_base_depth() -> usize {
    CAPTURE.with(|c| c.borrow().as_ref().map_or(0, |s| s.base_depth))
}

fn capture_event(e: CapturedEvent) -> bool {
    CAPTURE.with(|c| match c.borrow_mut().as_mut() {
        Some(state) => {
            state.events.push(e);
            true
        }
        None => false,
    })
}

/// Commits events captured on a worker thread (see [`begin_capture`]) into
/// the registry visible to *this* thread. Span paths are re-rooted under
/// this thread's currently active span stack, so a span captured as
/// `actor_critic` inside an active `update` span lands as
/// `update/actor_critic` — exactly the path a sequential run records.
pub fn replay(events: Vec<CapturedEvent>) {
    if disabled() || events.is_empty() {
        return;
    }
    let prefix = SPAN_STACK.with(|s| s.borrow().join("/"));
    let _ = with_registry(|r| {
        for e in &events {
            match e {
                CapturedEvent::Counter(name, n) => r.counter_add(name, *n),
                CapturedEvent::Value(name, v) => r.observe(name, *v),
                CapturedEvent::Span(path, duration) => {
                    let full = if prefix.is_empty() {
                        path.clone()
                    } else {
                        format!("{prefix}/{path}")
                    };
                    r.record_span(full, *duration);
                }
            }
        }
    });
}

/// True when no telemetry sink is active anywhere — the fast path every
/// instrumentation site checks first.
#[inline(always)]
pub fn disabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) == 0
}

/// True when a sink is active *for the calling thread* (a thread-scoped
/// registry, or the process-global one).
pub fn is_enabled() -> bool {
    !disabled() && (capturing() || with_registry(|_| ()).is_some())
}

/// Runs `f` against the innermost registry visible to this thread:
/// the top of the thread-scoped stack if any, else the global install.
fn with_registry<R>(f: impl FnOnce(&Registry) -> R) -> Option<R> {
    let scoped = SCOPED.with(|s| s.borrow().last().cloned());
    if let Some(r) = scoped {
        return Some(f(&r));
    }
    let global = GLOBAL.read().clone();
    global.map(|r| f(&r))
}

/// Installs `cfg` as the process-global telemetry sink. The returned guard
/// flushes emitter outputs (when `cfg.out_dir` is set) and uninstalls the
/// sink when dropped. Replaces any previous global install.
#[must_use = "telemetry uninstalls when the guard drops"]
pub fn install(cfg: TelemetryConfig) -> InstallGuard {
    let registry = Arc::new(Registry::new(cfg));
    *GLOBAL.write() = Some(Arc::clone(&registry));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    InstallGuard { registry }
}

/// Process-global telemetry sink handle; see [`install`].
pub struct InstallGuard {
    registry: Arc<Registry>,
}

impl InstallGuard {
    /// The installed registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Snapshot of the installed registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Writes emitter outputs now (no-op without an `out_dir`).
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn flush(&self) -> std::io::Result<()> {
        flush_registry(&self.registry)
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let _ = flush_registry(&self.registry);
        let mut global = GLOBAL.write();
        if global
            .as_ref()
            .is_some_and(|g| Arc::ptr_eq(g, &self.registry))
        {
            *global = None;
        }
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Installs `cfg` as a telemetry sink visible only to the calling thread,
/// shadowing any global install there. Flushes and pops on drop. Used by
/// tests for isolation under the multithreaded test runner.
#[must_use = "scoped telemetry deactivates when the guard drops"]
pub fn scoped(cfg: TelemetryConfig) -> ScopedGuard {
    let registry = Arc::new(Registry::new(cfg));
    SCOPED.with(|s| s.borrow_mut().push(Arc::clone(&registry)));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    ScopedGuard { registry }
}

/// Thread-scoped telemetry sink handle; see [`scoped`].
pub struct ScopedGuard {
    registry: Arc<Registry>,
}

impl ScopedGuard {
    /// The scoped registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Snapshot of the scoped registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

impl Drop for ScopedGuard {
    fn drop(&mut self) {
        let _ = flush_registry(&self.registry);
        SCOPED.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|r| Arc::ptr_eq(r, &self.registry)) {
                stack.remove(pos);
            }
        });
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

fn flush_registry(registry: &Registry) -> std::io::Result<()> {
    record_process_gauges(registry);
    let snap = registry.snapshot();
    if let Some(path) = &registry.config().trace_out {
        trace::write_trace(&registry.trace_events(), &snap, path)?;
    }
    match &registry.config().out_dir {
        Some(dir) => {
            emit::write_jsonl(&snap, dir)?;
            // Post-mortem dump: only incomplete/faulted runs leave a
            // flight_recorder.jsonl behind (a clean exit needs none).
            if registry.is_faulted() {
                emit::write_flight(&registry.flight_events(), dir)?;
            }
            Ok(())
        }
        None => Ok(()),
    }
}

/// Sets the `live/process/minor_faults` and `live/process/peak_rss_mb`
/// gauges from `/proc/self`, so allocator churn that no span attributes
/// (page faults from mapping and trimming large buffers) shows in every
/// run's artifact. Other platforms record neither gauge.
fn record_process_gauges(registry: &Registry) {
    if !cfg!(target_os = "linux") {
        return;
    }
    // `/proc/self/stat` field 10 is minflt; fields count from the pid,
    // and the command name (field 2) is parenthesized and may hold spaces.
    let minor_faults = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let (_, rest) = stat.rsplit_once(')')?;
            rest.split_whitespace().nth(7)?.parse::<f64>().ok()
        });
    if let Some(faults) = minor_faults {
        registry.gauge_set("live/process/minor_faults", faults);
    }
    let peak_rss_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    if let Some(kb) = peak_rss_kb {
        registry.gauge_set("live/process/peak_rss_mb", kb / 1024.0);
    }
}

/// Starts a scoped span timer. The returned guard records the elapsed time
/// under the `/`-joined path of all spans active on this thread when it
/// drops. Near-zero cost when telemetry is disabled.
#[must_use = "a span records its duration when the guard drops"]
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if disabled() {
        return SpanGuard {
            active: None,
            captured: false,
        };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    if capturing() {
        // Diverted span: timed against this thread's own (relative) span
        // stack and buffered on drop; no registry or trace access.
        return SpanGuard {
            active: Some(Instant::now()),
            captured: true,
        };
    }
    let _ = with_registry(|r| {
        if r.trace_enabled() {
            let path = SPAN_STACK.with(|s| s.borrow().join("/"));
            r.record_trace_event(TraceEvent {
                phase: TracePhase::Begin,
                name: path,
                tid: trace::thread_id(),
                ts_us: r.elapsed().as_secs_f64() * 1e6,
                arg: None,
            });
        }
    });
    SpanGuard {
        active: Some(Instant::now()),
        captured: false,
    }
}

/// RAII guard for one active span; see [`span`].
pub struct SpanGuard {
    active: Option<Instant>,
    captured: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.active else { return };
        let duration = start.elapsed();
        if self.captured {
            let base = capture_base_depth();
            let path = SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = stack[base.min(stack.len())..].join("/");
                stack.pop();
                path
            });
            capture_event(CapturedEvent::Span(path, duration));
            return;
        }
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let _ = with_registry(|r| {
            if r.trace_enabled() {
                let dur_us = duration.as_secs_f64() * 1e6;
                r.record_trace_event(TraceEvent {
                    phase: TracePhase::End,
                    name: path.clone(),
                    tid: trace::thread_id(),
                    ts_us: r.elapsed().as_secs_f64() * 1e6,
                    arg: Some(("dur_us", dur_us)),
                });
            }
            r.record_span(path, duration);
        });
    }
}

/// Adds `n` to the named monotonic counter. One relaxed load when disabled.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if disabled() {
        return;
    }
    if capture_event(CapturedEvent::Counter(name, n)) {
        return;
    }
    let _ = with_registry(|r| r.counter_add(name, n));
}

/// Records a free-form scalar observation (reward, loss, queue depth).
#[inline]
pub fn observe(name: &'static str, value: f64) {
    observe_dyn(name, value);
}

/// [`observe`] for dynamically built metric names (e.g. per-layer
/// gradient norms like `grad_norm/actor/l0.weight`). The name is only
/// allocated into the registry the first time it is seen.
#[inline]
pub fn observe_dyn(name: &str, value: f64) {
    if disabled() {
        return;
    }
    if capturing() {
        capture_event(CapturedEvent::Value(name.to_string(), value));
        return;
    }
    let _ = with_registry(|r| r.observe(name, value));
}

/// Sets a live gauge (overwrite semantics — current queue depth, actors
/// busy). Part of the `live/` observability plane: bypasses capture mode
/// (gauges describe the process, not the training run, so worker threads
/// write them directly), never enters checkpoints, and is excluded from
/// golden diffs.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if disabled() {
        return;
    }
    let _ = with_registry(|r| r.gauge_set(name, value));
}

/// Records a wall-clock observation into the `live/` histogram plane
/// (wave latency, blocked-send time). Bypasses capture mode and never
/// enters checkpoints, like [`gauge_set`].
#[inline]
pub fn live_observe(name: &str, value: f64) {
    if disabled() {
        return;
    }
    let _ = with_registry(|r| r.live_observe(name, value));
}

/// Appends one structured event to the flight recorder (see
/// [`ring::FlightRing`]). Bypasses capture mode; events survive in a
/// fixed-capacity ring and are dumped to `flight_recorder.jsonl` by
/// [`flush`] when the run was marked faulted.
#[inline]
pub fn flight_event(kind: FlightEventKind) {
    if disabled() {
        return;
    }
    let _ = with_registry(|r| r.flight_event(kind));
}

/// Marks the current run incomplete/faulted: the next [`flush`] (including
/// the implicit one when the sink guard drops) dumps the flight recorder
/// to `flight_recorder.jsonl` in the configured `out_dir` for post-mortem.
pub fn mark_faulted() {
    if disabled() {
        return;
    }
    let _ = with_registry(Registry::mark_faulted);
}

/// Wall-clock seconds since the active registry was created; `None`
/// without a sink. Used to stamp heartbeat gauges.
pub fn elapsed_s() -> Option<f64> {
    if disabled() {
        return None;
    }
    with_registry(|r| r.elapsed().as_secs_f64())
}

/// Prints a rate-limited progress line to stderr with `context` appended
/// (e.g. `"ep 12"`). Returns whether a line was printed.
pub fn progress(context: &str) -> bool {
    if disabled() || capturing() {
        return false;
    }
    with_registry(|r| r.progress(context)).unwrap_or(false)
}

/// Snapshot of the registry visible to this thread, if any.
pub fn snapshot() -> Option<Snapshot> {
    if disabled() {
        return None;
    }
    with_registry(Registry::snapshot)
}

/// Captures the full mutable state of the registry visible to this thread
/// (counters, span histograms, value histograms) for checkpointing.
/// `None` without an active sink.
pub fn export_state() -> Option<RegistryState> {
    if disabled() {
        return None;
    }
    with_registry(Registry::export_state)
}

/// Restores state captured by [`export_state`] into the registry visible
/// to this thread. Returns `Ok(false)` without an active sink (the state
/// is simply dropped — resuming an un-instrumented run stays valid).
///
/// # Errors
///
/// Propagates structural-validation failures from
/// [`Registry::restore_state`].
pub fn restore_state(state: &RegistryState) -> Result<bool, String> {
    if disabled() {
        return Ok(false);
    }
    match with_registry(|r| r.restore_state(state)) {
        Some(Ok(())) => Ok(true),
        Some(Err(e)) => Err(e),
        None => Ok(false),
    }
}

/// Writes emitter outputs for the registry visible to this thread.
/// No-op without an active sink or without an `out_dir`.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn flush() -> std::io::Result<()> {
    if disabled() {
        return Ok(());
    }
    with_registry(flush_registry).unwrap_or(Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_paths_are_noops() {
        // No sink on this thread: everything is a no-op and nothing panics.
        counter_add("x", 1);
        observe("y", 1.0);
        {
            let _s = span("z");
        }
        assert!(!progress("ctx"));
    }

    #[test]
    fn scoped_counters_and_spans() {
        let guard = scoped(TelemetryConfig::default());
        assert!(is_enabled());
        counter_add("env_steps", 3);
        counter_add("env_steps", 4);
        {
            let _outer = span("rollout");
            let _inner = span("env_step");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = guard.snapshot();
        assert_eq!(snap.counters["env_steps"].total, 7);
        assert_eq!(snap.spans["rollout/env_step"].count, 1);
        assert!(snap.spans["rollout/env_step"].mean > 0.0);
        drop(guard);
        assert!(!is_enabled() || !GLOBAL.read().is_none());
    }

    #[test]
    fn scoped_shadows_are_isolated_per_thread() {
        let mine = scoped(TelemetryConfig::default());
        counter_add("mine", 1);
        let other = std::thread::spawn(|| {
            // Different thread: our scoped registry must be invisible.
            let theirs = scoped(TelemetryConfig::default());
            counter_add("theirs", 10);
            theirs.snapshot().counter_totals()
        })
        .join()
        .unwrap();
        let snap = mine.snapshot();
        assert_eq!(snap.counters["mine"].total, 1);
        assert!(!snap.counters.contains_key("theirs"));
        assert_eq!(other["theirs"], 10);
        assert!(!other.contains_key("mine"));
    }

    #[test]
    fn nested_scoped_innermost_wins() {
        let outer = scoped(TelemetryConfig::default());
        {
            let inner = scoped(TelemetryConfig::default());
            counter_add("n", 5);
            assert_eq!(inner.snapshot().counters["n"].total, 5);
        }
        counter_add("n", 2);
        assert_eq!(outer.snapshot().counters["n"].total, 2);
    }

    #[test]
    fn capture_diverts_and_replay_rebuilds_in_order() {
        let guard = scoped(TelemetryConfig::default());
        let _outer = span("update");
        // Worker-side: capture everything, touching no registry.
        begin_capture();
        assert!(is_enabled(), "capture mode keeps the instrumented path on");
        counter_add("grad_updates", 2);
        observe("loss", 1.5);
        {
            let _s = span("actor_critic");
        }
        let events = take_capture();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[2], CapturedEvent::Span(ref p, _) if p == "actor_critic"));
        let before = guard.snapshot();
        assert!(before.counters.is_empty(), "capture must not touch the registry");
        // Coordinator-side: replay under the active `update` span.
        replay(events);
        let snap = guard.snapshot();
        assert_eq!(snap.counters["grad_updates"].total, 2);
        assert_eq!(snap.values["loss"].count, 1);
        assert!(
            snap.spans.contains_key("update/actor_critic"),
            "replayed span paths re-root under the replaying thread's stack: {:?}",
            snap.spans.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn take_capture_without_begin_is_empty() {
        assert!(take_capture().is_empty());
    }

    #[test]
    fn faulted_runs_dump_the_flight_recorder() {
        let dir = std::env::temp_dir().join(format!(
            "hero-telemetry-flight-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Clean run: no flight_recorder.jsonl.
        {
            let _g = scoped(TelemetryConfig::to_dir("clean", &dir));
            flight_event(FlightEventKind::WaveDispatched { wave: 0, worlds: 1 });
        }
        assert!(!dir.join("flight_recorder.jsonl").exists());
        // Faulted run: the ring is dumped on the guard-drop flush.
        {
            let _g = scoped(TelemetryConfig::to_dir("faulted", &dir));
            flight_event(FlightEventKind::StallDetected { actor: 0 });
            flight_event(FlightEventKind::Redispatched { actor: 1, wave: 3 });
            mark_faulted();
        }
        let body = std::fs::read_to_string(dir.join("flight_recorder.jsonl")).unwrap();
        let records = emit::parse_jsonl(&body).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0]["event"].as_str(), Some("stall_detected"));
        assert_eq!(records[1]["event"].as_str(), Some("redispatched"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_plane_bypasses_capture() {
        let guard = scoped(TelemetryConfig::default());
        begin_capture();
        gauge_set("live/queue/actor0", 2.0);
        live_observe("live/wave_us", 5.0);
        flight_event(FlightEventKind::WaveCompleted { wave: 0, episodes: 1 });
        let captured = take_capture();
        assert!(captured.is_empty(), "live plane must not be captured");
        let snap = guard.snapshot();
        assert_eq!(snap.gauges["live/queue/actor0"], 2.0);
        assert_eq!(snap.live["live/wave_us"].count, 1);
        assert_eq!(guard.registry().flight_events().len(), 1);
    }

    #[test]
    fn flush_writes_only_telemetry_jsonl() {
        let dir = std::env::temp_dir().join(format!(
            "hero-telemetry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let _g = scoped(TelemetryConfig::to_dir("unit", &dir));
            counter_add("env_steps", 42);
            let _s = span("rollout");
        }
        let written: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(written, ["telemetry.jsonl"], "one per-run artifact");
        let jsonl = std::fs::read_to_string(dir.join("telemetry.jsonl")).unwrap();
        let records = emit::parse_jsonl(&jsonl).unwrap();
        assert!(records
            .iter()
            .any(|r| r.get("name").and_then(emit::JsonValue::as_str) == Some("env_steps")
                && r["total"].as_f64() == Some(42.0)));
        if cfg!(target_os = "linux") {
            for gauge in ["live/process/minor_faults", "live/process/peak_rss_mb"] {
                let value = records
                    .iter()
                    .find(|r| r.get("name").and_then(emit::JsonValue::as_str) == Some(gauge))
                    .and_then(|r| r.get("value")?.as_f64());
                assert!(value.is_some_and(|v| v > 0.0), "{gauge}: {value:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
