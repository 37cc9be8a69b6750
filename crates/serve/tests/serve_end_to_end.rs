//! End-to-end serving correctness: requests through the full HTTP +
//! micro-batching stack must answer with exactly the logits the policy
//! computes locally — bitwise — and concurrent requests must each get
//! their *own* row back.

use std::sync::Arc;
use std::time::Duration;

use hero_autograd::TensorPool;
use hero_serve::{start, BatchOptions, ServeConfig, ServePolicy};
use hero_telemetry::emit::{parse_json_object, JsonValue};
use hero_telemetry::http::http_request;

const OBS: usize = 6;
const HIDDEN: usize = 8;
const AGENTS: usize = 2;
const SEED: u64 = 42;

fn synthetic_server(max_batch: usize) -> hero_serve::HeroServer {
    start(ServeConfig {
        synthetic: Some((OBS, HIDDEN, AGENTS)),
        synthetic_seed: SEED,
        batch: BatchOptions {
            max_batch,
            deadline: Duration::from_micros(500),
        },
        ..ServeConfig::default()
    })
    .expect("synthetic server starts")
}

/// The same policy the server built, constructed locally: synthetic
/// construction is deterministic in (dims, seed).
fn local_policy() -> ServePolicy {
    ServePolicy::synthetic(OBS, HIDDEN, AGENTS, SEED)
}

fn obs_row(salt: u64) -> Vec<f32> {
    (0..OBS)
        .map(|i| ((salt * 31 + i as u64 * 7) % 200) as f32 / 100.0 - 1.0)
        .collect()
}

fn act(addr: std::net::SocketAddr, agent: usize, obs: &[f32]) -> (u16, String) {
    let obs_str: Vec<String> = obs.iter().map(f32::to_string).collect();
    let body = format!("{{\"agent\":{agent},\"obs\":\"{}\"}}", obs_str.join(" "));
    http_request("POST", &format!("http://{addr}/act"), &body).expect("request reaches server")
}

fn parse_logits(body: &str) -> Vec<f32> {
    let fields = parse_json_object(body.trim()).expect("response is a JSON object");
    fields
        .get("logits")
        .and_then(JsonValue::as_str)
        .expect("response has a logits string")
        .split(' ')
        .map(|t| t.parse::<f32>().expect("logit parses back"))
        .collect()
}

#[test]
fn served_logits_match_local_inference_bitwise() {
    let server = synthetic_server(8);
    let addr = server.local_addr();
    let local = local_policy();
    let mut pool = TensorPool::new();

    for agent in 0..AGENTS {
        for salt in 0..4 {
            let obs = obs_row(salt + agent as u64 * 100);
            let (status, body) = act(addr, agent, &obs);
            assert_eq!(status, 200, "unexpected response: {body}");
            let served = parse_logits(&body);
            let expect = local.infer(agent, &[obs.as_slice()], &mut pool);
            assert_eq!(served.len(), expect[0].len());
            for (s, e) in served.iter().zip(&expect[0]) {
                // f32 Display is shortest-roundtrip, so the wire format
                // preserves bits exactly.
                assert_eq!(s.to_bits(), e.to_bits(), "served {s} != local {e}");
            }
        }
    }
}

#[test]
fn request_at_a_time_baseline_matches_batched_answers() {
    let batched = synthetic_server(8);
    let single = synthetic_server(1);
    let obs = obs_row(7);
    let (s1, b1) = act(batched.local_addr(), 0, &obs);
    let (s2, b2) = act(single.local_addr(), 0, &obs);
    assert_eq!((s1, s2), (200, 200));
    let (l1, l2) = (parse_logits(&b1), parse_logits(&b2));
    assert_eq!(
        l1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        l2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "max-batch 1 and batched dispatch must agree bitwise"
    );
}

#[test]
fn concurrent_requests_each_get_their_own_row_back() {
    let server = Arc::new(synthetic_server(32));
    let addr = server.local_addr();

    const N: usize = 24;
    let handles: Vec<_> = (0..N)
        .map(|i| {
            std::thread::spawn(move || {
                let agent = i % AGENTS;
                let obs = obs_row(i as u64);
                let (status, body) = act(addr, agent, &obs);
                (i, agent, obs, status, body)
            })
        })
        .collect();

    let local = local_policy();
    let mut pool = TensorPool::new();
    for h in handles {
        let (i, agent, obs, status, body) = h.join().expect("client thread");
        assert_eq!(status, 200, "request {i}: {body}");
        let served = parse_logits(&body);
        let expect = local.infer(agent, &[obs.as_slice()], &mut pool);
        let served_bits: Vec<u32> = served.iter().map(|v| v.to_bits()).collect();
        let expect_bits: Vec<u32> = expect[0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(served_bits, expect_bits, "request {i} got someone else's row");
    }
    assert_eq!(
        server.stats().completed.load(std::sync::atomic::Ordering::Relaxed),
        N as u64
    );
}

#[test]
fn option_is_the_argmax_of_the_logits() {
    let server = synthetic_server(4);
    let (status, body) = act(server.local_addr(), 0, &obs_row(3));
    assert_eq!(status, 200);
    let logits = parse_logits(&body);
    let fields = parse_json_object(body.trim()).unwrap();
    let option = fields.get("option").and_then(JsonValue::as_f64).unwrap() as usize;
    let best = logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert_eq!(option, best);
}

#[test]
fn malformed_requests_are_rejected_without_crashing_the_batch() {
    let server = synthetic_server(8);
    let addr = server.local_addr();

    let cases = [
        ("not json at all", "malformed body"),
        ("{\"obs\":\"1 2 3\"}", "wrong observation width"),
        ("{\"agent\":99,\"obs\":\"0 0 0 0 0 0\"}", "unknown agent"),
        ("{\"agent\":0,\"obs\":\"a b c d e f\"}", "non-numeric obs"),
        ("{\"agent\":0}", "missing obs"),
    ];
    for (body, what) in cases {
        let (status, resp) =
            http_request("POST", &format!("http://{addr}/act"), body).expect("request sent");
        assert_eq!(status, 400, "{what}: got {status} {resp}");
    }

    // The server still answers a good request afterwards.
    let (status, _) = act(addr, 0, &obs_row(1));
    assert_eq!(status, 200);
}

#[test]
fn non_finite_observations_are_rejected_by_name() {
    let server = synthetic_server(8);
    let addr = server.local_addr();
    for tok in ["NaN", "inf", "-inf"] {
        let body = format!("{{\"agent\":0,\"obs\":\"0 0 {tok} 0 0 0\"}}");
        let (status, resp) =
            http_request("POST", &format!("http://{addr}/act"), &body).expect("request sent");
        assert_eq!(status, 400, "{tok}: got {status} {resp}");
        assert!(resp.contains(&format!("{tok:?}")), "{tok}: {resp}");
    }
    let (status, _) = act(addr, 0, &obs_row(1));
    assert_eq!(status, 200);
}

#[test]
fn deeply_nested_body_is_rejected_and_the_daemon_keeps_serving() {
    let server = synthetic_server(8);
    let addr = server.local_addr();
    // 50 KB of `{"a":`: a parser recursing without a depth bound would
    // overflow the connection thread's stack and abort the whole daemon.
    let body = "{\"a\":".repeat(10_000);
    let (status, resp) =
        http_request("POST", &format!("http://{addr}/act"), &body).expect("request sent");
    assert_eq!(status, 400, "got {status} {resp}");
    let (status, _) = act(addr, 0, &obs_row(1));
    assert_eq!(status, 200);
}

#[test]
fn info_and_stats_describe_the_policy_and_traffic() {
    let server = synthetic_server(8);
    let addr = server.local_addr();
    let _ = act(addr, 0, &obs_row(1));

    let (status, body) =
        http_request("GET", &format!("http://{addr}/info"), "").expect("GET /info");
    assert_eq!(status, 200);
    let info = parse_json_object(body.trim()).unwrap();
    assert_eq!(info.get("obs_dim").and_then(JsonValue::as_f64), Some(OBS as f64));
    assert_eq!(info.get("agents").and_then(JsonValue::as_f64), Some(AGENTS as f64));
    assert_eq!(info.get("checkpoint").and_then(JsonValue::as_f64), Some(0.0));
    assert_eq!(
        info.get("kernel_mode").and_then(|v| v.as_str().map(str::to_string)),
        Some("strict".to_string())
    );

    let (status, body) =
        http_request("GET", &format!("http://{addr}/stats"), "").expect("GET /stats");
    assert_eq!(status, 200);
    let stats = parse_json_object(body.trim()).unwrap();
    assert_eq!(stats.get("completed").and_then(JsonValue::as_f64), Some(1.0));
    assert!(stats.get("mean_occupancy").and_then(JsonValue::as_f64).unwrap() >= 1.0);
}
