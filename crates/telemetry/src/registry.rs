//! The metric registry: named counters, span histograms, value histograms,
//! and throughput derivation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::histogram::{HistogramState, HistogramStats, StreamingHistogram};
use crate::ring::{FlightEvent, FlightEventKind, FlightRing};
use crate::trace::TraceEvent;

/// Events the flight recorder retains (newest-first eviction beyond this).
pub const FLIGHT_RING_CAPACITY: usize = 4096;

/// Configuration for a telemetry sink.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Label identifying the run (e.g. the experiment binary name).
    pub run_label: String,
    /// Directory where `flush` writes `telemetry.jsonl`. `None` keeps
    /// everything in memory.
    pub out_dir: Option<std::path::PathBuf>,
    /// File where `flush` writes a Chrome trace-event document
    /// (`trace.json`). `None` (the default) disables trace recording
    /// entirely — span guards then skip event capture.
    pub trace_out: Option<std::path::PathBuf>,
    /// Minimum interval between human-readable progress lines on stderr.
    pub progress_every: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            run_label: "run".to_string(),
            out_dir: None,
            trace_out: None,
            progress_every: Duration::from_secs(5),
        }
    }
}

impl TelemetryConfig {
    /// A config labelled `run_label` writing into `out_dir`.
    pub fn to_dir(run_label: impl Into<String>, out_dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            run_label: run_label.into(),
            out_dir: Some(out_dir.into()),
            ..Self::default()
        }
    }

    /// Returns the config with Chrome trace capture writing to `path`.
    #[must_use]
    pub fn with_trace(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.trace_out = Some(path.into());
        self
    }
}

/// A live metric registry. Usually accessed through the module-level
/// functions in [`crate`] after [`crate::install`] or [`crate::scoped`].
pub struct Registry {
    cfg: TelemetryConfig,
    start: Instant,
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    spans: Mutex<BTreeMap<String, StreamingHistogram>>,
    values: Mutex<BTreeMap<String, StreamingHistogram>>,
    // The live observability plane. Everything below describes the
    // *process* (wall-clock latencies, instantaneous queue depths, event
    // timelines), not the training run, so none of it enters
    // `export_state`/`restore_state` — checkpoint bytes stay independent
    // of whether a run was instrumented, scraped, or neither.
    gauges: RwLock<BTreeMap<String, f64>>,
    live: Mutex<BTreeMap<String, StreamingHistogram>>,
    flight: FlightRing,
    faulted: AtomicBool,
    trace: Mutex<Vec<TraceEvent>>,
    last_progress: Mutex<Option<Instant>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Self {
            cfg,
            start: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            values: Mutex::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            live: Mutex::new(BTreeMap::new()),
            flight: FlightRing::new(FLIGHT_RING_CAPACITY),
            faulted: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
            last_progress: Mutex::new(None),
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Adds `n` to the named monotonic counter.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        if let Some(c) = self.counters.read().get(name) {
            c.fetch_add(n, Ordering::Relaxed);
            return;
        }
        self.counters
            .write()
            .entry(name)
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records a span duration under the (already joined) span path. The
    /// path is only allocated into the registry the first time it is seen.
    pub fn record_span(&self, path: &str, duration: Duration) {
        let us = duration.as_secs_f64() * 1e6;
        let mut spans = self.spans.lock();
        if let Some(h) = spans.get_mut(path) {
            h.observe(us);
        } else {
            spans.entry(path.to_string()).or_default().observe(us);
        }
    }

    /// Records a free-form scalar observation. The name may be dynamic
    /// (e.g. a per-layer metric like `grad_norm/actor/l0.weight`); the
    /// allocation only happens the first time a name is seen.
    pub fn observe(&self, name: &str, value: f64) {
        let mut values = self.values.lock();
        if let Some(h) = values.get_mut(name) {
            h.observe(value);
        } else {
            values.entry(name.to_string()).or_default().observe(value);
        }
    }

    /// Sets a live gauge to its newest value (overwrite semantics — the
    /// current queue depth, not its history). Gauges live outside the
    /// checkpointable state and outside golden diffs.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        if let Some(g) = self.gauges.write().get_mut(name) {
            *g = value;
            return;
        }
        self.gauges.write().insert(name.to_string(), value);
    }

    /// Records a wall-clock observation into the `live/` histogram plane
    /// (wave latency, blocked-send time, checkpoint write duration).
    /// Like gauges, live histograms never enter `export_state`.
    pub fn live_observe(&self, name: &str, value: f64) {
        let mut live = self.live.lock();
        if let Some(h) = live.get_mut(name) {
            h.observe(value);
        } else {
            live.entry(name.to_string()).or_default().observe(value);
        }
    }

    /// Appends one structured event to the flight recorder, timestamped
    /// against this registry's start.
    pub fn flight_event(&self, kind: FlightEventKind) {
        self.flight
            .record(self.elapsed().as_micros() as u64, kind);
    }

    /// A consistent copy of the surviving flight-recorder events,
    /// oldest first.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.flight.events()
    }

    /// Marks the run as incomplete/faulted: `flush` will then dump the
    /// flight recorder to `flight_recorder.jsonl` for post-mortem.
    pub fn mark_faulted(&self) {
        self.faulted.store(true, Ordering::Relaxed);
    }

    /// Whether [`Registry::mark_faulted`] was called.
    pub fn is_faulted(&self) -> bool {
        self.faulted.load(Ordering::Relaxed)
    }

    /// Whether Chrome trace capture is on for this registry.
    pub fn trace_enabled(&self) -> bool {
        self.cfg.trace_out.is_some()
    }

    /// Appends one trace event (no-op unless [`Self::trace_enabled`]).
    pub fn record_trace_event(&self, event: TraceEvent) {
        if self.trace_enabled() {
            self.trace.lock().push(event);
        }
    }

    /// A copy of the trace events recorded so far.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.lock().clone()
    }

    /// Wall-clock time since the registry was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Takes a consistent point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let elapsed = self.elapsed();
        let elapsed_s = elapsed.as_secs_f64().max(1e-9);
        let counters: BTreeMap<String, CounterStats> = self
            .counters
            .read()
            .iter()
            .map(|(name, c)| {
                let total = c.load(Ordering::Relaxed);
                (
                    (*name).to_string(),
                    CounterStats {
                        total,
                        rate_per_s: total as f64 / elapsed_s,
                    },
                )
            })
            .collect();
        let spans: BTreeMap<String, HistogramStats> = self
            .spans
            .lock()
            .iter()
            .map(|(name, h)| (name.clone(), h.stats()))
            .collect();
        let values: BTreeMap<String, HistogramStats> = self
            .values
            .lock()
            .iter()
            .map(|(name, h)| ((*name).to_string(), h.stats()))
            .collect();
        let gauges: BTreeMap<String, f64> = self.gauges.read().clone();
        let live: BTreeMap<String, HistogramStats> = self
            .live
            .lock()
            .iter()
            .map(|(name, h)| ((*name).to_string(), h.stats()))
            .collect();
        Snapshot {
            run_label: self.cfg.run_label.clone(),
            elapsed,
            counters,
            spans,
            values,
            gauges,
            live,
        }
    }

    /// Captures the complete mutable state of every counter, span
    /// histogram, and value histogram for checkpointing. Restoring via
    /// [`Registry::restore_state`] and replaying the same record sequence
    /// reproduces bit-identical counter totals and value statistics.
    /// (Trace events and wall-clock elapsed time are deliberately not
    /// captured; they describe the process, not the training run.)
    ///
    /// Fault-recovery bookkeeping — the [`FAULT_LOCAL_PREFIXES`]
    /// namespaces — is excluded: stalls, respawns, degrades, and
    /// checkpoint-IO retries describe what this *process* survived, not
    /// what the training run computed, and keeping them out is what makes
    /// a faulted run's checkpoint bytes equal its fault-free twin's.
    pub fn export_state(&self) -> RegistryState {
        let keep = |name: &str| !FAULT_LOCAL_PREFIXES.iter().any(|p| name.starts_with(p));
        RegistryState {
            counters: self
                .counters
                .read()
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, c)| ((*name).to_string(), c.load(Ordering::Relaxed)))
                .collect(),
            spans: self
                .spans
                .lock()
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, h)| (name.clone(), h.export_state()))
                .collect(),
            values: self
                .values
                .lock()
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, h)| (name.clone(), h.export_state()))
                .collect(),
        }
    }

    /// Replaces this registry's counters and histograms with `state`
    /// (captured by [`Registry::export_state`], possibly in a previous
    /// process).
    ///
    /// # Errors
    ///
    /// Returns a message when a histogram state is structurally invalid;
    /// the registry is left unchanged in that case.
    pub fn restore_state(&self, state: &RegistryState) -> Result<(), String> {
        let mut spans = BTreeMap::new();
        for (name, hs) in &state.spans {
            spans.insert(name.clone(), StreamingHistogram::from_state(hs.clone())?);
        }
        let mut values = BTreeMap::new();
        for (name, hs) in &state.values {
            values.insert(name.clone(), StreamingHistogram::from_state(hs.clone())?);
        }
        let mut counters = BTreeMap::new();
        for (name, total) in &state.counters {
            // The counter map is keyed by `&'static str` so the hot
            // `counter_add` path stays allocation-free. Restored names come
            // from a file; leak them once. The name set is small and fixed
            // per run, so the leak is bounded.
            let name: &'static str = Box::leak(name.clone().into_boxed_str());
            counters.insert(name, Arc::new(AtomicU64::new(*total)));
        }
        *self.counters.write() = counters;
        *self.spans.lock() = spans;
        *self.values.lock() = values;
        Ok(())
    }

    /// Prints a rate-limited one-line progress summary to stderr. Returns
    /// whether a line was printed.
    pub fn progress(&self, context: &str) -> bool {
        {
            let mut last = self.last_progress.lock();
            let now = Instant::now();
            match *last {
                Some(t) if now.duration_since(t) < self.cfg.progress_every => return false,
                _ => *last = Some(now),
            }
        }
        let snap = self.snapshot();
        eprintln!("{}", snap.progress_line(context));
        true
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("run_label", &self.cfg.run_label)
            .field("elapsed", &self.elapsed())
            .finish_non_exhaustive()
    }
}

/// Metric-name prefixes that describe fault recovery in *this process*
/// (stall/respawn/degrade bookkeeping, checkpoint-IO retries) rather than
/// the training run itself. [`Registry::export_state`] keeps them out of
/// checkpoints so a run that survived faults checkpoints byte-identically
/// to one that never saw any.
pub const FAULT_LOCAL_PREFIXES: [&str; 3] = ["actor/", "supervisor/", "checkpoint/"];

/// Complete mutable state of a [`Registry`], captured by
/// [`Registry::export_state`] for trainer checkpoints (which encode it
/// with `hero_rl::snapshot::encode_registry`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistryState {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Full span-histogram states by span path.
    pub spans: BTreeMap<String, HistogramState>,
    /// Full value-histogram states by name.
    pub values: BTreeMap<String, HistogramState>,
}

/// A counter's snapshot: total and derived throughput.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CounterStats {
    /// Monotonic total.
    pub total: u64,
    /// `total / elapsed` — the throughput gauge (e.g. env steps/sec).
    pub rate_per_s: f64,
}

/// A consistent point-in-time view of every metric in a [`Registry`].
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The registry's run label.
    pub run_label: String,
    /// Wall-clock time covered by this snapshot.
    pub elapsed: Duration,
    /// Counter totals and rates, by name.
    pub counters: BTreeMap<String, CounterStats>,
    /// Span duration summaries (microseconds), by span path.
    pub spans: BTreeMap<String, HistogramStats>,
    /// Free-form value summaries, by name.
    pub values: BTreeMap<String, HistogramStats>,
    /// Live gauges (newest value only), by name. `live/` plane: excluded
    /// from checkpoints and golden diffs.
    pub gauges: BTreeMap<String, f64>,
    /// Live wall-clock histograms, by name. Same exclusions as gauges.
    pub live: BTreeMap<String, HistogramStats>,
}

impl Snapshot {
    /// Counter totals only — the deterministic portion of a snapshot
    /// (durations and rates vary run-to-run; counts must not).
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(k, v)| (k.clone(), v.total))
            .collect()
    }

    /// The human-readable progress line. Watchdog counters are pulled out
    /// of the generic counter list into a dedicated learning-health tail,
    /// together with current opponent-model accuracy, so long headless
    /// runs surface training health without post-processing.
    pub fn progress_line(&self, context: &str) -> String {
        use std::fmt::Write;
        let mut line = format!(
            "[telemetry {} {}] {:.1}s",
            self.run_label,
            context,
            self.elapsed.as_secs_f64()
        );
        for (name, c) in &self.counters {
            if name.starts_with("watchdog/") {
                continue;
            }
            let _ = write!(line, " | {name} {} ({:.1}/s)", c.total, c.rate_per_s);
        }
        let skipped = self
            .counters
            .get("watchdog/skipped_updates")
            .map_or(0, |c| c.total);
        if skipped > 0 {
            let _ = write!(line, " | watchdog skipped {skipped}");
        }
        if let Some(acc) = self.values.get("opponent/accuracy") {
            if acc.count > 0 {
                let _ = write!(line, " | opp_acc {:.3}", acc.mean);
            }
        }
        // Live rollout tail: only present while the actor/learner path is
        // active (the gauges are set by `hero_core::rollout`).
        if let Some(total) = self.gauges.get("live/actors_total") {
            let busy = self.gauges.get("live/actors_busy").copied().unwrap_or(0.0);
            let depth = self
                .gauges
                .get("live/queue_depth_total")
                .copied()
                .unwrap_or(0.0);
            let _ = write!(line, " | actors {}/{} q {}", busy, total, depth);
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_rate() {
        let r = Registry::new(TelemetryConfig::default());
        r.counter_add("env_steps", 10);
        r.counter_add("env_steps", 5);
        let snap = r.snapshot();
        assert_eq!(snap.counters["env_steps"].total, 15);
        assert!(snap.counters["env_steps"].rate_per_s > 0.0);
    }

    #[test]
    fn spans_and_values_summarized() {
        let r = Registry::new(TelemetryConfig::default());
        r.record_span("a/b", Duration::from_micros(100));
        r.record_span("a/b", Duration::from_micros(300));
        r.observe("reward", 1.0);
        let snap = r.snapshot();
        assert_eq!(snap.spans["a/b"].count, 2);
        assert!((snap.spans["a/b"].mean - 200.0).abs() < 1.0);
        assert_eq!(snap.values["reward"].count, 1);
    }

    #[test]
    fn progress_is_rate_limited() {
        let r = Registry::new(TelemetryConfig {
            progress_every: Duration::from_secs(3600),
            ..TelemetryConfig::default()
        });
        r.counter_add("x", 1);
        assert!(r.progress("t"), "first call prints");
        assert!(!r.progress("t"), "second call inside the interval is muted");
    }

    #[test]
    fn progress_line_mentions_counters() {
        let r = Registry::new(TelemetryConfig::default());
        r.counter_add("env_steps", 7);
        let line = r.snapshot().progress_line("ep 3");
        assert!(line.contains("env_steps 7"), "{line}");
        assert!(line.contains("ep 3"), "{line}");
    }

    #[test]
    fn progress_line_surfaces_learning_health() {
        let r = Registry::new(TelemetryConfig::default());
        r.counter_add("watchdog/skipped_updates", 2);
        r.counter_add("watchdog/nonfinite_grads", 9);
        r.observe("opponent/accuracy", 0.25);
        r.observe("opponent/accuracy", 0.75);
        let line = r.snapshot().progress_line("ep 1");
        assert!(line.contains("watchdog skipped 2"), "{line}");
        assert!(line.contains("opp_acc 0.500"), "{line}");
        assert!(
            !line.contains("watchdog/nonfinite_grads"),
            "watchdog counters stay out of the generic list: {line}"
        );
    }

    #[test]
    fn dynamic_value_names_accumulate() {
        let r = Registry::new(TelemetryConfig::default());
        for layer in 0..3 {
            let name = format!("grad_norm/actor/l{layer}");
            r.observe(&name, layer as f64);
            r.observe(&name, layer as f64 + 1.0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.values.len(), 3);
        assert_eq!(snap.values["grad_norm/actor/l1"].count, 2);
        assert!((snap.values["grad_norm/actor/l1"].mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn gauges_overwrite_and_live_histograms_accumulate() {
        let r = Registry::new(TelemetryConfig::default());
        r.gauge_set("live/queue/actor0", 3.0);
        r.gauge_set("live/queue/actor0", 1.0);
        r.gauge_set("live/bad", f64::NAN);
        r.live_observe("live/wave_us", 100.0);
        r.live_observe("live/wave_us", 300.0);
        let snap = r.snapshot();
        assert_eq!(snap.gauges["live/queue/actor0"], 1.0);
        assert!(!snap.gauges.contains_key("live/bad"));
        assert_eq!(snap.live["live/wave_us"].count, 2);
        assert!((snap.live["live/wave_us"].mean - 200.0).abs() < 1e-9);
    }

    #[test]
    fn live_plane_never_enters_checkpoint_state() {
        let r = Registry::new(TelemetryConfig::default());
        r.counter_add("env_steps", 1);
        let clean = r.export_state();
        r.gauge_set("live/queue/actor0", 5.0);
        r.live_observe("live/wave_us", 42.0);
        r.flight_event(FlightEventKind::StallDetected { actor: 0 });
        r.mark_faulted();
        assert_eq!(
            r.export_state(),
            clean,
            "gauges/live/flight/faulted are process state, not training state"
        );
    }

    #[test]
    fn fault_bookkeeping_never_enters_checkpoint_state() {
        let r = Registry::new(TelemetryConfig::default());
        r.counter_add("env_steps", 1);
        r.observe("reward/mean", 0.5);
        let clean = r.export_state();
        // Everything a supervised run records while surviving faults...
        r.counter_add("actor/stalled", 1);
        r.counter_add("actor/panicked", 1);
        r.counter_add("actor/respawned", 2);
        r.counter_add("supervisor/degraded", 1);
        r.counter_add("checkpoint/retries", 3);
        r.observe("actor/respawn_backoff_ms", 8.0);
        // ...is process state: checkpoint bytes must not move.
        assert_eq!(
            r.export_state(),
            clean,
            "fault-recovery bookkeeping is process state, not training state"
        );
        // But it stays visible to snapshots (telemetry dumps, doctor).
        assert_eq!(r.snapshot().counter_totals()["actor/respawned"], 2);
    }

    #[test]
    fn flight_events_timestamped_and_ordered() {
        let r = Registry::new(TelemetryConfig::default());
        r.flight_event(FlightEventKind::WaveDispatched { wave: 0, worlds: 2 });
        r.flight_event(FlightEventKind::WaveCompleted { wave: 0, episodes: 2 });
        let events = r.flight_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(events[0].t_us <= events[1].t_us);
        assert!(matches!(
            events[0].kind,
            FlightEventKind::WaveDispatched { wave: 0, worlds: 2 }
        ));
    }

    #[test]
    fn progress_line_gains_live_rollout_tail() {
        let r = Registry::new(TelemetryConfig::default());
        r.counter_add("env_steps", 7);
        let plain = r.snapshot().progress_line("ep 1");
        assert!(!plain.contains("actors"), "{plain}");
        r.gauge_set("live/actors_total", 2.0);
        r.gauge_set("live/actors_busy", 1.0);
        r.gauge_set("live/queue_depth_total", 3.0);
        let line = r.snapshot().progress_line("ep 1");
        assert!(line.contains("actors 1/2 q 3"), "{line}");
    }

    #[test]
    fn trace_capture_gated_on_config() {
        use crate::trace::{TraceEvent, TracePhase};
        let ev = || TraceEvent {
            phase: TracePhase::Begin,
            name: "x".into(),
            tid: 1,
            ts_us: 0.0,
            arg: None,
        };
        let off = Registry::new(TelemetryConfig::default());
        assert!(!off.trace_enabled());
        off.record_trace_event(ev());
        assert!(off.trace_events().is_empty());

        let on = Registry::new(TelemetryConfig::default().with_trace("/tmp/trace.json"));
        assert!(on.trace_enabled());
        on.record_trace_event(ev());
        assert_eq!(on.trace_events().len(), 1);
    }
}
