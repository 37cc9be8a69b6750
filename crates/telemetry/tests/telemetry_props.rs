//! Property-based coverage of the telemetry primitives: histogram
//! quantile bounds, counter monotonicity under interleaved increments,
//! JSONL and Prometheus emitter round-trips, and the untrusted readers
//! (JSONL, Prometheus text, HTTP requests) on junk input.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hero_telemetry::emit::{self, JsonValue, PromSample};
use hero_telemetry::http::{http_request, serve_http, Handler, Request, Response};
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

/// Pieces junk Prometheus text is assembled from: metric names, a name
/// starting with a digit, label syntax with complete and broken escapes,
/// comment lines, odd numbers and non-ASCII text.
const PROM_FRAGMENTS: &[&str] = &[
    "hero_gauge",
    "hero_up",
    "m",
    "3x",
    "_",
    ":",
    "{",
    "}",
    "name",
    "=",
    "\"",
    "\\",
    "\\n",
    "\\\"",
    "\\x",
    ",",
    " ",
    "\n",
    "\r\n",
    "#",
    "# TYPE m gauge",
    "quantile=\"0.5\"",
    "1",
    "-2.5e3",
    "1e999",
    "NaN",
    "+Inf",
    "nope",
    "\u{e9}",
    "\u{1F600}",
    "\0",
];

/// Pieces of gauge names for the Prometheus round trip: everything the
/// label escaping has to survive.
const NAME_FRAGMENTS: &[&str] = &[
    "live/", "queue", "actor0", "\"", "\\", "\n", "\r", "{", "}", "=", ",", " ", "#", "\u{e9}",
];

/// Pieces junk HTTP requests are assembled from: request lines, header
/// lines, a `Content-Length` over 1 MiB and ones that do not parse, line
/// breaks that do and do not end the head, and bytes that are not UTF-8.
/// None of them spells the probe route `/health`.
const HTTP_FRAGMENTS: &[&[u8]] = &[
    b"GET / HTTP/1.1\r\n",
    b"POST /act HTTP/1.1\r\n",
    b"GET ",
    b"/act?q=1",
    b" HTTP/1.1",
    b"Host: x\r\n",
    b"Content-Length: 1048577\r\n",
    b"Content-Length: 64\r\n",
    b"content-length:4\r\n",
    b"Content-Length: 99999999999999999999999\r\n",
    b"Content-Length: -1\r\n",
    b"Content-Length: abc\r\n",
    b"Content-Length: ",
    b"\r\n",
    b"\r\n\r\n",
    b"\n",
    b"\r",
    b":",
    b"{\"obs\":[",
    b"\xff\xfe",
    b"\xc3",
    b"\0",
    b" ",
];

/// A server whose only route is `GET /health`; everything else is 404.
fn health_server() -> hero_telemetry::http::HttpServer {
    let handler: Handler = Arc::new(|req: &Request| {
        if req.method == "GET" && req.path == "/health" {
            Response::ok("ok\n")
        } else {
            Response::with_status(404, "no route\n")
        }
    });
    serve_http("127.0.0.1:0", "http-junk-test", handler).expect("bind")
}

/// Sends `raw` on a fresh connection and shuts the write half, so the
/// reader sees EOF instead of waiting out its read timeout. Returns what
/// came back before the server closed. The server may answer and close
/// before reading all of `raw` (a head over 8 KiB, a body over 1 MiB),
/// which can cut the write short and end the read with a reset after
/// the answer.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(Shutdown::Write);
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("no answer from the server: {e}"),
        }
    }
    reply
}

/// The samples of `family` whose `name` label is `name`.
fn samples_named<'a>(samples: &'a [PromSample], family: &str, name: &str) -> Vec<&'a PromSample> {
    samples
        .iter()
        .filter(|s| s.name == family && s.labels.get("name").map(String::as_str) == Some(name))
        .collect()
}

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
            r.record_span("rollout/env_step", Duration::from_micros(us));
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

    /// `parse_prometheus` reads scraped `/metrics` text, so any input,
    /// alone or after a well-formed exposition, comes back as `Ok` or as
    /// an `Err` naming a line that exists, and never panics.
    fn prometheus_reader_never_panics_on_junk(
        picks in prop::collection::vec(0usize..PROM_FRAGMENTS.len(), 0..64),
    ) {
        let junk: String = picks.iter().map(|&i| PROM_FRAGMENTS[i]).collect();
        let r = Registry::new(TelemetryConfig::default());
        r.counter_add("env_steps", 3);
        r.gauge_set("live/queue_depth/actor0", 2.0);
        let valid = emit::to_prometheus(&r.snapshot());
        let after_valid = format!("{valid}{junk}");
        for text in [&junk, &after_valid] {
            if let Err((line, _)) = emit::parse_prometheus(text) {
                prop_assert!(
                    line >= 1 && line <= text.lines().count(),
                    "error line {} of {}",
                    line,
                    text.lines().count()
                );
            }
        }
        prop_assert!(emit::parse_prometheus(&valid).is_ok());
    }

    /// What the exporter writes parses back to the values it encoded:
    /// counter totals, gauges under names that need escaping, and the
    /// count, sum and quantiles of a value summary, all exactly.
    fn prometheus_round_trips_what_the_exporter_writes(
        totals in prop::collection::vec(0u64..(1 << 53), 1..5),
        gauges in prop::collection::vec(
            (prop::collection::vec(0usize..NAME_FRAGMENTS.len(), 1..6), -1.0e12f64..1.0e12),
            0..6,
        ),
        samples in prop::collection::vec(-1.0e3f64..1.0e3, 1..40),
    ) {
        let r = Registry::new(TelemetryConfig::default());
        let counters = ["env_steps", "episodes", "grad_updates", "transitions_sampled"];
        for (name, &n) in counters.iter().zip(&totals) {
            r.counter_add(name, n);
        }
        for (picks, v) in &gauges {
            let name: String = picks.iter().map(|&i| NAME_FRAGMENTS[i]).collect();
            r.gauge_set(&name, *v);
        }
        for &v in &samples {
            r.observe("reward", v);
        }
        let snap = r.snapshot();
        let parsed = emit::parse_prometheus(&emit::to_prometheus(&snap));
        prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        let parsed = parsed.unwrap();
        for (name, c) in &snap.counters {
            let found = samples_named(&parsed, "hero_counter_total", name);
            prop_assert_eq!(found.len(), 1);
            prop_assert_eq!(found[0].value, c.total as f64);
        }
        for (name, &v) in &snap.gauges {
            let found = samples_named(&parsed, "hero_gauge", name);
            prop_assert_eq!(found.len(), 1, "gauge {:?}", name);
            prop_assert_eq!(found[0].value, v, "gauge {:?}", name);
        }
        let h = &snap.values["reward"];
        let count = samples_named(&parsed, "hero_value_count", "reward");
        prop_assert_eq!(count[0].value, h.count as f64);
        prop_assert_eq!(samples_named(&parsed, "hero_value_sum", "reward")[0].value, h.sum);
        let quantiles = samples_named(&parsed, "hero_value", "reward");
        prop_assert_eq!(quantiles.len(), 3);
        for (q, want) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            let at = quantiles
                .iter()
                .find(|s| s.labels.get("quantile").map(String::as_str) == Some(q));
            prop_assert_eq!(at.map(|s| s.value), Some(want), "quantile {}", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The request reader behind `serve_http` answers junk (truncated
    /// heads, heads over 8 KiB, a `Content-Length` over 1 MiB or one that
    /// does not parse, non-UTF-8 bytes, bodies shorter than declared) with
    /// 400, 404 or 413, and the server still answers a well-formed `GET`
    /// afterwards. A reader that sees EOF always answers, so a connection
    /// closed without a status (a panicking reader) fails the property.
    /// One connection at a time.
    fn http_reader_answers_junk_and_keeps_serving(
        picks in prop::collection::vec(0usize..HTTP_FRAGMENTS.len(), 0..40),
        split in 0usize..40,
        pad in 0usize..12_000,
    ) {
        let server = health_server();
        let addr = server.local_addr();
        let split = split.min(picks.len());
        let piece = |&i: &usize| HTTP_FRAGMENTS[i].to_vec();
        let mut junk: Vec<u8> = picks[..split].iter().flat_map(piece).collect();
        junk.extend(std::iter::repeat_n(b'a', pad));
        junk.extend(picks[split..].iter().flat_map(piece));

        let reply = exchange(addr, &junk);
        let status = std::str::from_utf8(&reply)
            .ok()
            .and_then(|text| text.strip_prefix("HTTP/1.1 "))
            .and_then(|text| text.get(..3));
        prop_assert!(
            matches!(status, Some("400" | "404" | "413")),
            "junk of {} bytes got {:?}",
            junk.len(),
            String::from_utf8_lossy(&reply)
        );

        let probe = http_request("GET", &format!("http://{addr}/health"), "");
        prop_assert!(probe.is_ok(), "{:?}", probe.err());
        let (status, body) = probe.unwrap();
        prop_assert_eq!(status, 200);
        prop_assert_eq!(body, "ok\n");
    }
}
