//! Property-based coverage of the telemetry primitives: histogram
//! quantile bounds, counter monotonicity under interleaved increments,
//! JSONL emitter round-trips, and a JSONL reader that never panics on
//! junk.

use std::time::Duration;

use hero_telemetry::emit::{self, JsonValue};
use hero_telemetry::registry::{Registry, TelemetryConfig};
use hero_telemetry::StreamingHistogram;
use proptest::prelude::*;

/// Pieces junk input is assembled from: structural characters, unbalanced
/// braces, complete and truncated escapes (`\u` with fewer than four or
/// non-hex digits), partial literals, odd numbers and non-ASCII text.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "\"",
    ":",
    ",",
    " ",
    "\n",
    "\\",
    "\\u",
    "\\u00",
    "\\u12g4",
    "\\\"",
    "\\n",
    "k",
    "key",
    "\u{e9}",
    "\u{1F600}",
    "\0",
    "true",
    "fals",
    "null",
    "nu",
    "0",
    "-2.5e3",
    "1e999",
    "NaN",
    "inf",
    "--",
    "[",
    "]",
    "{\"a\":",
    "\"type\":\"counter\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every quantile estimate stays inside `[min, max]` of the observed
    /// values, for any stream and any reservoir capacity.
    fn quantiles_bounded_by_observed_extremes(
        values in prop::collection::vec(-1.0e6f64..1.0e6, 1..200),
        capacity in 1usize..64,
        q in 0.0f64..1.0,
    ) {
        let mut h = StreamingHistogram::with_capacity(capacity);
        for &v in &values {
            h.observe(v);
        }
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let est = h.quantile(q);
        prop_assert!(est >= lo && est <= hi, "q={} est={} range=[{}, {}]", q, est, lo, hi);
        prop_assert!(h.quantile(0.0) >= lo);
        prop_assert!(h.quantile(1.0) <= hi);
    }

    /// Exact moments match a naive reference and non-finite observations
    /// never contaminate them.
    fn histogram_moments_match_reference(
        values in prop::collection::vec(-1.0e3f64..1.0e3, 0..100),
        junk in 0usize..4,
    ) {
        let mut h = StreamingHistogram::default();
        for &v in &values {
            h.observe(v);
        }
        for i in 0..junk {
            h.observe(if i % 2 == 0 { f64::NAN } else { f64::INFINITY });
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.rejected(), junk as u64);
        let naive_sum: f64 = values.iter().sum();
        prop_assert!((h.sum() - naive_sum).abs() <= 1e-9 * (1.0 + naive_sum.abs()));
        prop_assert!(h.stats().mean.is_finite());
        prop_assert!(h.stats().p99.is_finite());
    }

    /// Counter totals equal the sum of all increments regardless of how
    /// increments to different counters interleave, and every prefix of
    /// the sequence leaves the running total monotonically non-decreasing.
    fn counters_monotone_under_interleavings(
        ops in prop::collection::vec((0usize..3, 0u64..1000), 1..60),
    ) {
        let names = ["a", "b", "c"];
        let r = Registry::new(TelemetryConfig::default());
        let mut expected = [0u64; 3];
        let mut last_seen = [0u64; 3];
        for &(which, n) in &ops {
            r.counter_add(names[which], n);
            expected[which] += n;
            let snap = r.snapshot();
            for (i, name) in names.iter().enumerate() {
                let now = snap.counters.get(*name).map_or(0, |c| c.total);
                prop_assert!(now >= last_seen[i], "counter {} went backwards", name);
                last_seen[i] = now;
            }
        }
        let snap = r.snapshot();
        for (i, name) in names.iter().enumerate() {
            prop_assert_eq!(snap.counters.get(*name).map_or(0, |c| c.total), expected[i]);
        }
    }

    /// Concurrent increments from several threads are never lost.
    fn counters_exact_under_concurrency(per_thread in 1u64..500, threads in 1usize..5) {
        let r = std::sync::Arc::new(Registry::new(TelemetryConfig::default()));
        std::thread::scope(|s| {
            for _ in 0..threads {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        r.counter_add("hits", 1);
                    }
                });
            }
        });
        prop_assert_eq!(r.snapshot().counters["hits"].total, per_thread * threads as u64);
    }

    /// JSONL emit → parse round-trips counter totals, span counts, and
    /// value summaries exactly, and the text never contains NaN/Inf.
    fn jsonl_round_trip(
        counts in prop::collection::vec(0u64..100_000, 1..5),
        samples in prop::collection::vec(-1.0e3f64..1.0e3, 1..40),
        micros in prop::collection::vec(1u64..1_000_000, 1..40),
    ) {
        let r = Registry::new(TelemetryConfig::default());
        let names = ["env_steps", "episodes", "grad_updates", "transitions_sampled"];
        for (i, &n) in counts.iter().enumerate() {
            r.counter_add(names[i], n);
        }
        for &v in &samples {
            r.observe("reward", v);
        }
        for &us in &micros {
            r.record_span("rollout/env_step".to_string(), Duration::from_micros(us));
        }
        let snap = r.snapshot();
        let text = emit::to_jsonl(&snap);
        prop_assert!(!text.contains("NaN") && !text.contains("inf") && !text.contains("Infinity"));
        let records = emit::parse_jsonl(&text).unwrap();
        prop_assert_eq!(records.len(), 1 + counts.len() + 1 + 1, "meta + counters + span + value");
        for (i, &n) in counts.iter().enumerate() {
            let rec = records
                .iter()
                .find(|rec| rec.get("name").and_then(JsonValue::as_str) == Some(names[i]))
                .expect("counter record present");
            prop_assert_eq!(rec["total"].as_f64(), Some(n as f64));
        }
        let span = records
            .iter()
            .find(|rec| rec.get("type").and_then(JsonValue::as_str) == Some("span"))
            .expect("span record");
        prop_assert_eq!(span["count"].as_f64(), Some(micros.len() as f64));
        let value = records
            .iter()
            .find(|rec| rec.get("type").and_then(JsonValue::as_str) == Some("value"))
            .expect("value record");
        prop_assert_eq!(value["count"].as_f64(), Some(samples.len() as f64));
        let mean = value["mean"].as_f64().unwrap();
        let naive = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((mean - naive).abs() <= 1e-6 * (1.0 + naive.abs()));
    }

    /// `parse_jsonl` and `parse_json_object` read every `telemetry.jsonl`
    /// and every `/act` body, so any input, including nesting thousands
    /// of objects deep, must come back as `Ok` or `Err` and never panic
    /// or overflow the stack.
    fn jsonl_reader_never_panics_on_junk(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..64),
        depth in 0usize..20_000,
    ) {
        let junk: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let nested = format!("{}{junk}", "{\"a\":".repeat(depth));
        let lines = format!("{{\"type\":\"meta\"}}\n{junk}\n{nested}");
        for text in [&junk, &nested, &lines] {
            let _ = emit::parse_json_object(text);
            let _ = emit::parse_jsonl(text);
        }
        prop_assert!(depth <= 32 || emit::parse_json_object(&nested).is_err());
    }
}
