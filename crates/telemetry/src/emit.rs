//! Emitters: JSONL serialization of [`Snapshot`]s into `telemetry.jsonl`,
//! the one per-run telemetry artifact, and a minimal JSONL parser used by
//! `hero-inspect`, round-trip tests and the serving daemon's request
//! bodies.
//!
//! ## JSONL schema (one object per line)
//!
//! ```text
//! {"type":"meta","run":"<label>","elapsed_s":<f64>}
//! {"type":"counter","name":"<name>","total":<u64>,"rate_per_s":<f64>}
//! {"type":"span","name":"<path>","count":<u64>,"total_us":<f64>,"mean_us":<f64>,
//!  "min_us":<f64>,"max_us":<f64>,"p50_us":<f64>,"p95_us":<f64>,"p99_us":<f64>}
//! {"type":"value","name":"<name>","count":<u64>,"mean":<f64>,"min":<f64>,
//!  "max":<f64>,"p50":<f64>,"p95":<f64>,"p99":<f64>}
//! {"type":"gauge","name":"<name>","value":<f64>}
//! {"type":"live","name":"<name>","count":<u64>,"mean":<f64>,"min":<f64>,
//!  "max":<f64>,"p50":<f64>,"p95":<f64>,"p99":<f64>}
//! ```
//!
//! `gauge` and `live` records carry the live observability plane
//! (instantaneous rollout state and wall-clock latencies); they are
//! excluded from checkpoints and from `hero-inspect diff` comparisons.
//!
//! Every number is rendered finite (non-finite inputs are rejected at
//! ingest; defensive sanitization maps any residual non-finite value to 0).
//!
//! The same snapshot also renders in the Prometheus text exposition
//! format via [`to_prometheus`] (served by
//! [`crate::exporter::MetricsExporter`]), with a strict parser
//! ([`parse_prometheus`]) used by round-trip tests and CI smoke scrapes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use crate::registry::Snapshot;
use crate::ring::{FlightEvent, FlightEventKind};

/// Formats a JSON number, guaranteeing finiteness.
fn num(x: f64) -> String {
    let x = if x.is_finite() { x } else { 0.0 };
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Escapes a JSON string body.
pub fn escape_json(s: &str) -> String {
    escape(s)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot in the JSONL schema.
pub fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"run\":\"{}\",\"elapsed_s\":{}}}",
        escape(&snap.run_label),
        num(snap.elapsed.as_secs_f64())
    );
    for (name, c) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"total\":{},\"rate_per_s\":{}}}",
            escape(name),
            c.total,
            num(c.rate_per_s)
        );
    }
    for (name, h) in &snap.spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"name\":\"{}\",\"count\":{},\"total_us\":{},\"mean_us\":{},\
             \"min_us\":{},\"max_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            escape(name),
            h.count,
            num(h.sum),
            num(h.mean),
            num(h.min),
            num(h.max),
            num(h.p50),
            num(h.p95),
            num(h.p99)
        );
    }
    for (name, h) in &snap.values {
        let _ = writeln!(
            out,
            "{{\"type\":\"value\",\"name\":\"{}\",\"count\":{},\"mean\":{},\
             \"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            escape(name),
            h.count,
            num(h.mean),
            num(h.min),
            num(h.max),
            num(h.p50),
            num(h.p95),
            num(h.p99)
        );
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            escape(name),
            num(*v)
        );
    }
    for (name, h) in &snap.live {
        let _ = writeln!(
            out,
            "{{\"type\":\"live\",\"name\":\"{}\",\"count\":{},\"mean\":{},\
             \"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            escape(name),
            h.count,
            num(h.mean),
            num(h.min),
            num(h.max),
            num(h.p50),
            num(h.p95),
            num(h.p99)
        );
    }
    out
}

/// Renders flight-recorder events as JSONL, one event per line:
/// `{"seq":N,"t_us":T,"event":"<name>",...payload}`.
pub fn flight_to_jsonl(events: &[FlightEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_us\":{},\"event\":\"{}\"",
            e.seq,
            e.t_us,
            e.kind.name()
        );
        match e.kind {
            FlightEventKind::WaveDispatched { wave, worlds } => {
                let _ = write!(out, ",\"wave\":{wave},\"worlds\":{worlds}");
            }
            FlightEventKind::WaveCompleted { wave, episodes } => {
                let _ = write!(out, ",\"wave\":{wave},\"episodes\":{episodes}");
            }
            FlightEventKind::CheckpointSaved { index }
            | FlightEventKind::CheckpointLoaded { index } => {
                let _ = write!(out, ",\"index\":{index}");
            }
            FlightEventKind::StallDetected { actor } => {
                let _ = write!(out, ",\"actor\":{actor}");
            }
            FlightEventKind::Redispatched { actor, wave } => {
                let _ = write!(out, ",\"actor\":{actor},\"wave\":{wave}");
            }
            FlightEventKind::WatchdogSkip { update } => {
                let _ = write!(out, ",\"update\":{update}");
            }
            FlightEventKind::KillInjected { episode } => {
                let _ = write!(out, ",\"episode\":{episode}");
            }
            FlightEventKind::ActorPanicked { actor } => {
                let _ = write!(out, ",\"actor\":{actor}");
            }
            FlightEventKind::ActorRespawned { actor, generation } => {
                let _ = write!(out, ",\"actor\":{actor},\"generation\":{generation}");
            }
            FlightEventKind::SupervisorDegraded { actor, remaining } => {
                let _ = write!(out, ",\"actor\":{actor},\"remaining\":{remaining}");
            }
            FlightEventKind::EmergencyCheckpoint { episodes, saved } => {
                let _ = write!(out, ",\"episodes\":{episodes},\"saved\":{saved}");
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Writes `body` to `dir/name`, creating `dir` first.
fn write_file(dir: &Path, name: &str, body: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(name))?;
    f.write_all(body.as_bytes())?;
    f.flush()
}

/// Writes `flight_recorder.jsonl` into `dir`.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_flight(events: &[FlightEvent], dir: &Path) -> io::Result<()> {
    write_file(dir, "flight_recorder.jsonl", &flight_to_jsonl(events))
}

/// Writes the snapshot to `dir/telemetry.jsonl`.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_jsonl(snap: &Snapshot, dir: &Path) -> io::Result<()> {
    write_file(dir, "telemetry.jsonl", &to_jsonl(snap))
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4), served by the `/metrics` endpoint.
///
/// Metric names are fixed families; the registry's hierarchical metric
/// names (`live/queue_depth/actor0`) travel in a `name` label so they
/// survive Prometheus' restricted identifier alphabet unmangled:
///
/// * `hero_up` / `hero_elapsed_seconds` — liveness and run age
/// * `hero_counter_total{name=...}` — monotonic counter totals
/// * `hero_gauge{name=...}` — live gauges (`live/` plane)
/// * `hero_span_us{name=...,quantile=...}` + `_sum`/`_count` — span summaries
/// * `hero_value{name=...,quantile=...}` + `_sum`/`_count` — value summaries
/// * `hero_live{name=...,quantile=...}` + `_sum`/`_count` — live histograms
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# HELP hero_up Run is alive and scrapeable.");
    let _ = writeln!(out, "# TYPE hero_up gauge");
    let _ = writeln!(out, "hero_up 1");
    let _ = writeln!(out, "# HELP hero_elapsed_seconds Wall-clock run age.");
    let _ = writeln!(out, "# TYPE hero_elapsed_seconds gauge");
    let _ = writeln!(
        out,
        "hero_elapsed_seconds {}",
        num(snap.elapsed.as_secs_f64())
    );
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "# HELP hero_counter_total Monotonic counter totals.");
        let _ = writeln!(out, "# TYPE hero_counter_total counter");
        for (name, c) in &snap.counters {
            let _ = writeln!(
                out,
                "hero_counter_total{{name=\"{}\"}} {}",
                escape_label(name),
                c.total
            );
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "# HELP hero_gauge Live gauges (newest value).");
        let _ = writeln!(out, "# TYPE hero_gauge gauge");
        for (name, v) in &snap.gauges {
            let _ = writeln!(
                out,
                "hero_gauge{{name=\"{}\"}} {}",
                escape_label(name),
                num(*v)
            );
        }
    }
    let mut summary = |family: &str, help: &str, map: &BTreeMap<String, crate::HistogramStats>| {
        if map.is_empty() {
            return;
        }
        let _ = writeln!(out, "# HELP {family} {help}");
        let _ = writeln!(out, "# TYPE {family} summary");
        for (name, h) in map {
            let name = escape_label(name);
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                let _ = writeln!(
                    out,
                    "{family}{{name=\"{name}\",quantile=\"{q}\"}} {}",
                    num(v)
                );
            }
            let _ = writeln!(out, "{family}_sum{{name=\"{name}\"}} {}", num(h.sum));
            let _ = writeln!(out, "{family}_count{{name=\"{name}\"}} {}", h.count);
        }
    };
    summary("hero_span_us", "Span durations (microseconds).", &snap.spans);
    summary("hero_value", "Free-form value observations.", &snap.values);
    summary("hero_live", "Live rollout-plane histograms.", &snap.live);
    out
}

/// One sample parsed back out of the Prometheus text format.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// The metric family name.
    pub name: String,
    /// Label key/value pairs.
    pub labels: BTreeMap<String, String>,
    /// The sample value.
    pub value: f64,
}

/// Parses the Prometheus text format produced by [`to_prometheus`]
/// (comment lines are skipped; every sample line must be well-formed).
///
/// # Errors
///
/// Returns the 1-based line number and a description of the first
/// malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, (usize, String)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_prom_line(line).map_err(|e| (i + 1, e))?);
    }
    Ok(out)
}

fn parse_prom_line(line: &str) -> Result<PromSample, String> {
    let mut chars = line.chars().peekable();
    let mut name = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            name.push(c);
            chars.next();
        } else {
            break;
        }
    }
    if name.is_empty() || name.chars().next().unwrap().is_ascii_digit() {
        return Err(format!("bad metric name in {line:?}"));
    }
    let mut labels = BTreeMap::new();
    if chars.peek() == Some(&'{') {
        chars.next();
        loop {
            while chars.peek() == Some(&',') || chars.peek() == Some(&' ') {
                chars.next();
            }
            if chars.peek() == Some(&'}') {
                chars.next();
                break;
            }
            let mut key = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    key.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            if key.is_empty() || chars.next() != Some('=') || chars.next() != Some('"') {
                return Err(format!("bad label in {line:?}"));
            }
            let mut val = String::new();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some('\\') => match chars.next() {
                        Some('n') => val.push('\n'),
                        Some('\\') => val.push('\\'),
                        Some('"') => val.push('"'),
                        other => return Err(format!("bad escape {other:?} in {line:?}")),
                    },
                    Some(c) => val.push(c),
                    None => return Err(format!("unterminated label value in {line:?}")),
                }
            }
            labels.insert(key, val);
        }
    }
    let rest: String = chars.collect();
    let value = rest
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("bad value {:?} in {line:?}: {e}", rest.trim()))?;
    Ok(PromSample {
        name,
        labels,
        value,
    })
}

/// A JSON value in a parsed JSONL record.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// `true`/`false`.
    Bool(bool),
    /// `null`.
    Null,
    /// A nested object (e.g. trace-event `args`).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The fields, if this is a nested object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }
}

/// Deepest object nesting [`parse_json_object`] accepts. Emitters and
/// tests nest at most three levels; the bound keeps a hostile body (an
/// `/act` request is untrusted) from recursing the parser off its
/// thread's stack.
const MAX_DEPTH: usize = 32;

/// Parses one JSON object (nested objects allowed up to 32 levels;
/// arrays are not, since no emitter in this crate produces them), as
/// emitted by [`to_jsonl`] and the trace exporter.
///
/// # Errors
///
/// Returns a description of the first syntax error, or of nesting deeper
/// than 32 objects.
pub fn parse_json_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut chars = line.trim().chars().peekable();
    let out = parse_object_body(&mut chars, 1)?;
    skip_ws(&mut chars);
    if let Some(c) = chars.next() {
        return Err(format!("trailing character {c:?} after object"));
    }
    Ok(out)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

/// Parses the object starting at `chars`, which sits `depth` objects deep.
fn parse_object_body(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    depth: usize,
) -> Result<BTreeMap<String, JsonValue>, String> {
    if depth > MAX_DEPTH {
        return Err(format!("objects nested deeper than {MAX_DEPTH} levels"));
    }
    let mut out = BTreeMap::new();
    skip_ws(chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        skip_ws(chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some(',') => {
                chars.next();
            }
            Some('"') => {}
            Some(c) => return Err(format!("unexpected character {c:?}")),
            None => return Err("unterminated object".into()),
        }
        skip_ws(chars);
        if chars.peek() == Some(&'"') {
            let key = parse_string(chars)?;
            skip_ws(chars);
            if chars.next() != Some(':') {
                return Err(format!("expected ':' after key {key:?}"));
            }
            out.insert(key, parse_value(chars, depth)?);
        }
    }
    Ok(out)
}

/// Parses one value of an object that sits `depth` objects deep.
fn parse_value(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    depth: usize,
) -> Result<JsonValue, String> {
    skip_ws(chars);
    match chars.peek() {
        Some('"') => Ok(JsonValue::Str(parse_string(chars)?)),
        Some('{') => Ok(JsonValue::Object(parse_object_body(chars, depth + 1)?)),
        Some('t') => {
            expect_word(chars, "true")?;
            Ok(JsonValue::Bool(true))
        }
        Some('f') => {
            expect_word(chars, "false")?;
            Ok(JsonValue::Bool(false))
        }
        Some('n') => {
            expect_word(chars, "null")?;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let mut buf = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' || c == '}' {
                    break;
                }
                buf.push(c);
                chars.next();
            }
            Ok(JsonValue::Num(
                buf.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("bad number {buf:?}: {e}"))?,
            ))
        }
        None => Err("unterminated value".into()),
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Ok(out),
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                Some(c) => out.push(c),
                None => return Err("unterminated escape".into()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn expect_word(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    word: &str,
) -> Result<(), String> {
    for expected in word.chars() {
        if chars.next() != Some(expected) {
            return Err(format!("expected literal {word:?}"));
        }
    }
    Ok(())
}

/// Parses a whole JSONL document into one record per non-empty line.
///
/// # Errors
///
/// Returns the first line number (1-based) and error description.
pub fn parse_jsonl(text: &str) -> Result<Vec<BTreeMap<String, JsonValue>>, (usize, String)> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_json_object(l).map_err(|e| (i + 1, e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_escapes() {
        let rec =
            parse_json_object(r#"{"type":"meta","run":"a\"b\\c","elapsed_s":1.5,"ok":true}"#)
                .unwrap();
        assert_eq!(rec["run"].as_str(), Some("a\"b\\c"));
        assert_eq!(rec["elapsed_s"].as_f64(), Some(1.5));
        assert_eq!(rec["ok"], JsonValue::Bool(true));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_json_object("{\"a\":}").is_err());
        assert!(parse_json_object("nope").is_err());
        assert!(parse_json_object("{\"a\":{\"b\":1}").is_err(), "unclosed nest");
        assert!(parse_json_object("{\"a\":1} x").is_err(), "trailing junk");
    }

    #[test]
    fn nesting_is_bounded() {
        // `depth` objects: `{"a":{"a":...{}...}}`.
        let nested = |depth: usize| {
            format!(
                "{}{{}}{}",
                "{\"a\":".repeat(depth - 1),
                "}".repeat(depth - 1)
            )
        };
        assert!(parse_json_object(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json_object(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // 10,000 levels, parsed on a thread with the default stack size:
        // a recursion without the bound overflows the stack here and
        // aborts the whole process.
        let body = "{\"a\":".repeat(10_000);
        let result = std::thread::spawn(move || parse_json_object(&body)).join();
        let err = result.expect("parser thread did not panic").unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn parses_nested_objects() {
        let rec = parse_json_object(
            r#"{"name":"rollout","ph":"E","args":{"dur_us":12.5,"deep":{"k":1}}}"#,
        )
        .unwrap();
        let args = rec["args"].as_object().unwrap();
        assert_eq!(args["dur_us"].as_f64(), Some(12.5));
        assert_eq!(args["deep"].as_object().unwrap()["k"].as_f64(), Some(1.0));
        assert_eq!(rec["ph"].as_str(), Some("E"));
    }

    #[test]
    fn num_formatting_never_leaks_non_finite() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(2.0), "2");
        assert_eq!(num(2.5), "2.5");
    }

    fn sample_snapshot() -> Snapshot {
        use crate::registry::{Registry, TelemetryConfig};
        let r = Registry::new(TelemetryConfig::default());
        r.counter_add("env_steps", 41);
        r.counter_add("episodes", 3);
        r.record_span("rollout/env_step", std::time::Duration::from_micros(120));
        r.observe("reward", 1.5);
        r.gauge_set("live/queue_depth/actor0", 2.0);
        r.gauge_set("live/actors_total", 2.0);
        r.live_observe("live/wave_us", 512.0);
        r.live_observe("live/wave_us", 1024.0);
        r.snapshot()
    }

    #[test]
    fn jsonl_includes_gauge_and_live_records() {
        let text = to_jsonl(&sample_snapshot());
        let records = parse_jsonl(&text).unwrap();
        let gauge = records
            .iter()
            .find(|r| {
                r.get("type").and_then(JsonValue::as_str) == Some("gauge")
                    && r.get("name").and_then(JsonValue::as_str)
                        == Some("live/queue_depth/actor0")
            })
            .expect("gauge record present");
        assert_eq!(gauge["value"].as_f64(), Some(2.0));
        let live = records
            .iter()
            .find(|r| r.get("type").and_then(JsonValue::as_str) == Some("live"))
            .expect("live record present");
        assert_eq!(live["name"].as_str(), Some("live/wave_us"));
        assert_eq!(live["count"].as_f64(), Some(2.0));
        assert_eq!(live["mean"].as_f64(), Some(768.0));
    }

    #[test]
    fn prometheus_round_trips_names_labels_and_values() {
        let snap = sample_snapshot();
        let text = to_prometheus(&snap);
        let samples = parse_prometheus(&text).unwrap();
        let find = |family: &str, name: &str| -> Vec<&PromSample> {
            samples
                .iter()
                .filter(|s| s.name == family && s.labels.get("name").map(String::as_str) == Some(name))
                .collect()
        };
        assert_eq!(find("hero_counter_total", "env_steps")[0].value, 41.0);
        assert_eq!(find("hero_counter_total", "episodes")[0].value, 3.0);
        assert_eq!(find("hero_gauge", "live/queue_depth/actor0")[0].value, 2.0);
        assert_eq!(find("hero_live_count", "live/wave_us")[0].value, 2.0);
        assert_eq!(find("hero_live_sum", "live/wave_us")[0].value, 1536.0);
        let quantiles = find("hero_live", "live/wave_us");
        assert_eq!(quantiles.len(), 3);
        for s in &quantiles {
            assert!(s.labels.contains_key("quantile"));
            assert!(s.value >= 512.0 && s.value <= 1024.0);
        }
        assert_eq!(find("hero_span_us_count", "rollout/env_step")[0].value, 1.0);
        assert!(samples.iter().any(|s| s.name == "hero_up" && s.value == 1.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "hero_elapsed_seconds" && s.value >= 0.0));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let line = format!("hero_gauge{{name=\"{}\"}} 1", escape_label("a\"b\\c\nd"));
        let parsed = parse_prom_line(&line).unwrap();
        assert_eq!(parsed.labels["name"], "a\"b\\c\nd");
    }

    #[test]
    fn prometheus_parser_rejects_malformed() {
        assert!(parse_prometheus("3metric 1").is_err());
        assert!(parse_prometheus("m{name=} 1").is_err());
        assert!(parse_prometheus("m{name=\"x\"} nope").is_err());
        assert!(parse_prometheus("m{name=\"unterminated} 1").is_err());
        let err = parse_prometheus("hero_up 1\nbroken{ 1").unwrap_err();
        assert_eq!(err.0, 2, "error carries the 1-based line number");
    }

    #[test]
    fn flight_jsonl_round_trips_through_parser() {
        let events = vec![
            FlightEvent {
                seq: 0,
                t_us: 10,
                kind: FlightEventKind::StallDetected { actor: 0 },
            },
            FlightEvent {
                seq: 1,
                t_us: 20,
                kind: FlightEventKind::Redispatched { actor: 1, wave: 4 },
            },
            FlightEvent {
                seq: 2,
                t_us: 30,
                kind: FlightEventKind::CheckpointSaved { index: 7 },
            },
        ];
        let text = flight_to_jsonl(&events);
        let records = parse_jsonl(&text).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0]["event"].as_str(), Some("stall_detected"));
        assert_eq!(records[0]["actor"].as_f64(), Some(0.0));
        assert_eq!(records[1]["event"].as_str(), Some("redispatched"));
        assert_eq!(records[1]["wave"].as_f64(), Some(4.0));
        assert_eq!(records[2]["event"].as_str(), Some("checkpoint_saved"));
        assert_eq!(records[2]["index"].as_f64(), Some(7.0));
        let seqs: Vec<f64> = records.iter().map(|r| r["seq"].as_f64().unwrap()).collect();
        assert_eq!(seqs, vec![0.0, 1.0, 2.0]);
    }
}
