//! The metric catalogue and the result of one run of one workload.

use std::collections::BTreeMap;

use hero_benchmark::json::Json;
use hero_benchmark::stats::Summary;

/// The workloads, in the order a full report runs them.
pub const WORKLOADS: [&str; 4] = ["train-table1", "train-wave", "serve-table1", "serve-heavy"];

/// The end-to-end metrics every workload reports with `--trace 0`:
/// `(name, unit)`. `throughput_per_s` is env steps/s on training and
/// saturated `/act` req/s on serving; `latency_ms` is training wall time
/// per env step, or the `/act` p50 at the fixed offered rate.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`:
/// `(name, unit)`. Training layers are shares of training wall time and
/// serving layers shares of the `/act` p50, so a layer a workload never
/// enters reads a share of 0; every time on this list is measured on
/// every workload.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("sim.share", "share"),
    ("sim.sensors_share", "share"),
    ("core.decide_share", "share"),
    ("core.record_share", "share"),
    ("core.update_share", "share"),
    ("core.opponent_model_share", "share"),
    ("core.actor_critic_share", "share"),
    ("rl.replay_sample_share", "share"),
    ("core.unattributed_share", "share"),
    ("rollout.actor_util", "share"),
    ("core.watchdog_skips", "count"),
    ("rollout.actor_respawns", "count"),
    ("http.share", "share"),
    ("batch.wait_share", "share"),
    ("serve.handler_share", "share"),
    ("batch.occupancy", "rows"),
    ("batch.fill_ratio", "share"),
    ("serve.stage_sum_ratio", "ratio"),
    ("policy.reload_failed", "count"),
    ("autograd.gemm_gflops", "GFLOP/s"),
    ("autograd.step_us", "us"),
    ("autograd.adam_step_us", "us"),
    ("autograd.overhead_share", "share"),
    ("policy.forward_us_b1", "us"),
    ("policy.forward_us_b2", "us"),
    ("trace.overhead", "share"),
];

/// Per-layer times only some workloads measure: the report prints them
/// beside `PER_LAYER`, the `--trace 1` line leaves them out.
pub const REPORT_LAYERS: [(&str, &str); 13] = [
    ("sim.step_us", "us"),
    ("core.decide_us", "us"),
    ("core.record_us", "us"),
    ("core.update_ms", "ms"),
    ("rollout.blocked_send_us_p50", "us"),
    ("rollout.wave_ms_p50", "ms"),
    ("http.roundtrip_us_p50", "us"),
    ("http.overhead_us", "us"),
    ("batch.wait_us_p50", "us"),
    ("batch.wait_us_p99", "us"),
    ("policy.reload_ms_p50", "ms"),
    ("serve.act_p99_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
];

/// Every per-layer metric, `PER_LAYER` first.
pub fn all_layers() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.into_iter().chain(REPORT_LAYERS)
}

/// The end-to-end metrics a report prints per workload kind, by the names
/// the README's glossary uses: `(name, unit)`.
pub const TRAIN_REPORT: [(&str, &str); 5] = [
    ("env_steps_per_s", "1/s"),
    ("episodes_per_s", "1/s"),
    ("error_rate", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];
pub const SERVE_REPORT: [(&str, &str); 5] = [
    ("act_p50_ms", "ms"),
    ("act_capacity_rps", "1/s"),
    ("error_rate", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One built-in check of the program's outputs or of the measurement.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload measured.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    /// One entry per timed rep: every end-to-end value it measured, by
    /// both its `END_TO_END` name and its report name.
    pub reps: Vec<BTreeMap<&'static str, f64>>,
    /// Per-layer values from the instrumented rep; absent = not exercised.
    pub layers: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// Operations attempted and failed over every rep.
    pub attempted: u64,
    pub failed: u64,
    /// Further facts worth keeping (digests, shapes, sample counts).
    pub detail: Vec<(String, Json)>,
}

impl RunResult {
    pub fn new(workload: &str, seed: u64) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed,
            reps: Vec::new(),
            layers: BTreeMap::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            detail: Vec::new(),
        }
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            all_layers().any(|(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Summary over the timed reps of one end-to-end value.
    pub fn summary(&self, name: &str) -> Summary {
        let values: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.get(name).copied())
            .collect();
        Summary::of(&values)
    }

    /// Every end-to-end metric of this workload, `(name, unit)`: the
    /// report's names first, then the `END_TO_END` names they map to.
    pub fn e2e_names(&self) -> Vec<(&'static str, &'static str)> {
        let mut names: Vec<(&str, &str)> = if self.workload.starts_with("train") {
            TRAIN_REPORT.to_vec()
        } else {
            SERVE_REPORT.to_vec()
        };
        for (name, unit) in END_TO_END {
            if !names.iter().any(|(n, _)| *n == name) {
                names.push((name, unit));
            }
        }
        names
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    fn metric(value: f64, unit: &str) -> Json {
        Json::obj([("value", value.into()), ("unit", unit.into())])
    }

    /// The result line: every end-to-end metric's median over the timed
    /// reps (`trace == false`) or every per-layer value (`trace == true`).
    pub fn line(&self, trace: bool) -> Json {
        let metrics: Vec<(&str, Json)> = if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = self.layers.get(name).copied().unwrap_or(0.0);
                    (name, Self::metric(v, unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name, Self::metric(self.summary(name).median, unit)))
                .collect()
        };
        Json::obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The full record of the run, for the report's results file.
    pub fn to_json(&self) -> Json {
        let e2e: Vec<(&str, Json)> = self
            .e2e_names()
            .into_iter()
            .map(|(name, unit)| {
                let s = self.summary(name);
                (
                    name,
                    Json::obj([
                        ("unit", unit.into()),
                        ("median", s.median.into()),
                        ("q1", s.q1.into()),
                        ("q3", s.q3.into()),
                        ("n", s.n.into()),
                    ]),
                )
            })
            .collect();
        let layers: Vec<(&str, Json)> = all_layers()
            .filter_map(|(name, unit)| {
                self.layers
                    .get(name)
                    .map(|&v| (name, Self::metric(v, unit)))
            })
            .collect();
        let checks: Vec<(&str, Json)> = self
            .checks
            .iter()
            .map(|c| {
                (
                    c.name,
                    Json::obj([("ok", c.ok.into()), ("detail", c.detail.as_str().into())]),
                )
            })
            .collect();
        Json::obj([
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj(layers)),
            ("checks", Json::obj(checks)),
            ("detail", Json::obj(self.detail.clone())),
        ])
    }
}
