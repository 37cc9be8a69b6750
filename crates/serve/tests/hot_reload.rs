//! Hot-reload robustness: `POST /reload` must atomically swap to the
//! newest valid checkpoint, fall back past corrupt files, refuse
//! fast-math checkpoints with the typed error while the old policy keeps
//! serving, and never drop or corrupt an in-flight request.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hero_autograd::serialize::{save_sections, KERNEL_MODE_SECTION};
use hero_autograd::TensorPool;
use hero_core::{HeroAgent, HeroConfig};
use hero_rl::snapshot::Codec;
use hero_serve::{start, BatchOptions, ServeConfig, ServePolicy};
use hero_telemetry::emit::{parse_json_object, JsonValue};
use hero_telemetry::http::http_request;
use rand::rngs::StdRng;
use rand::SeedableRng;

const OBS: usize = 5;
const HIDDEN: usize = 8;
const AGENTS: usize = 2;
/// `kernel_mode` section bytes: strict kernels, and the retired fast-math
/// tier.
const STRICT: u8 = 0;
const FAST: u8 = 1;

/// Builds the flat section list a trainer checkpoint carries for the
/// parts the serving daemon reads: `kernel_mode`, `team/last_options`,
/// and per-agent parameter tables.
fn checkpoint_sections(seed: u64, mode: u8) -> Vec<(String, Vec<u8>)> {
    let cfg = HeroConfig {
        hidden: HIDDEN,
        ..HeroConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sections = vec![(KERNEL_MODE_SECTION.to_string(), vec![mode])];
    let mut last = Vec::new();
    vec![0usize; AGENTS].encode(&mut last);
    sections.push(("team/last_options".to_string(), last));
    for k in 0..AGENTS {
        let agent = HeroAgent::new(OBS, AGENTS - 1, cfg.clone(), &mut rng);
        sections.extend(
            agent
                .save_state()
                .into_iter()
                .map(|(name, bytes)| (format!("agent{k}/{name}"), bytes)),
        );
    }
    sections
}

fn write_checkpoint(dir: &Path, index: u64, seed: u64, mode: u8) {
    let path = dir.join(format!("ckpt-{index:08}.hero"));
    save_sections(&path, &checkpoint_sections(seed, mode)).expect("checkpoint written");
}

fn temp_registry(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hero-serve-reload-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("registry dir");
    dir
}

fn serve_registry(dir: &Path) -> hero_serve::HeroServer {
    start(ServeConfig {
        checkpoint_dir: Some(dir.to_path_buf()),
        batch: BatchOptions {
            max_batch: 8,
            deadline: Duration::from_micros(500),
        },
        ..ServeConfig::default()
    })
    .expect("server starts from registry")
}

fn obs_row(salt: u64) -> Vec<f32> {
    (0..OBS)
        .map(|i| ((salt * 13 + i as u64 * 5) % 200) as f32 / 100.0 - 1.0)
        .collect()
}

fn act(addr: std::net::SocketAddr, obs: &[f32]) -> (u16, String) {
    let obs_str: Vec<String> = obs.iter().map(f32::to_string).collect();
    let body = format!("{{\"agent\":0,\"obs\":\"{}\"}}", obs_str.join(" "));
    http_request("POST", &format!("http://{addr}/act"), &body).expect("request reaches server")
}

fn served_checkpoint(body: &str) -> u64 {
    parse_json_object(body.trim())
        .unwrap()
        .get("checkpoint")
        .and_then(JsonValue::as_f64)
        .expect("response carries its checkpoint index") as u64
}

#[test]
fn reload_swaps_to_the_newest_checkpoint() {
    let dir = temp_registry("swap");
    write_checkpoint(&dir, 0, 100, STRICT);
    let server = serve_registry(&dir);
    let addr = server.local_addr();
    assert_eq!(server.checkpoint(), 0);

    let obs = obs_row(1);
    let (_, body) = act(addr, &obs);
    let before = parse_json_object(body.trim()).unwrap();
    assert_eq!(served_checkpoint(&body), 0);

    write_checkpoint(&dir, 1, 200, STRICT);
    let (status, reload_body) =
        http_request("POST", &format!("http://{addr}/reload"), "").expect("POST /reload");
    assert_eq!(status, 200, "{reload_body}");
    assert_eq!(server.checkpoint(), 1);

    // Same observation, new policy: the answer must now match checkpoint
    // 1's weights (and differ from checkpoint 0's — different seeds).
    let (_, body) = act(addr, &obs);
    assert_eq!(served_checkpoint(&body), 1);
    let after = parse_json_object(body.trim()).unwrap();
    assert_ne!(
        before.get("logits").and_then(JsonValue::as_str),
        after.get("logits").and_then(JsonValue::as_str),
        "reload did not change the served weights"
    );

    let local = {
        let sections = checkpoint_sections(200, STRICT);
        ServePolicy::from_sections(1, &sections).expect("local policy loads")
    };
    let mut pool = TensorPool::new();
    let expect = local.infer(0, &[obs.as_slice()], &mut pool);
    let served: Vec<u32> = after
        .get("logits")
        .and_then(JsonValue::as_str)
        .unwrap()
        .split(' ')
        .map(|t| t.parse::<f32>().unwrap().to_bits())
        .collect();
    let expect_bits: Vec<u32> = expect[0].iter().map(|v| v.to_bits()).collect();
    assert_eq!(served, expect_bits);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_an_older_valid_one() {
    let dir = temp_registry("corrupt");
    write_checkpoint(&dir, 0, 100, STRICT);
    let server = serve_registry(&dir);
    let addr = server.local_addr();

    // A newer file full of garbage: the registry scan must skip it and
    // reload the newest *valid* checkpoint.
    std::fs::write(dir.join("ckpt-00000001.hero"), b"not a checkpoint at all")
        .expect("garbage written");
    let (status, body) =
        http_request("POST", &format!("http://{addr}/reload"), "").expect("POST /reload");
    assert_eq!(status, 200, "{body}");
    let fields = parse_json_object(body.trim()).unwrap();
    assert!(
        fields.get("corrupt_skipped").and_then(JsonValue::as_f64).unwrap() >= 1.0,
        "reload did not report the skipped corrupt file: {body}"
    );
    assert_eq!(server.checkpoint(), 0);

    let (status, _) = act(addr, &obs_row(2));
    assert_eq!(status, 200, "server stopped serving after a corrupt reload");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fast_math_checkpoint_is_refused_and_the_old_policy_keeps_serving() {
    let dir = temp_registry("mode");
    write_checkpoint(&dir, 0, 100, STRICT);
    let server = serve_registry(&dir);
    let addr = server.local_addr();

    // This build has only strict kernels; a fast-math checkpoint must be
    // refused with the typed mismatch error, not served through them.
    write_checkpoint(&dir, 1, 200, FAST);
    let (status, body) =
        http_request("POST", &format!("http://{addr}/reload"), "").expect("POST /reload");
    assert_eq!(status, 409, "fast-math checkpoint was accepted: {body}");
    assert!(
        body.contains("kernel mode `fast`"),
        "409 body does not name the kernel-mode mismatch: {body}"
    );
    assert_eq!(server.checkpoint(), 0, "policy slot changed on a refused reload");
    assert_eq!(
        server.stats().reload_rejected.load(Ordering::Relaxed),
        1
    );

    let (status, body) = act(addr, &obs_row(3));
    assert_eq!(status, 200, "old policy stopped serving: {body}");
    assert_eq!(served_checkpoint(&body), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_under_load_drops_no_requests() {
    let dir = temp_registry("underload");
    write_checkpoint(&dir, 0, 100, STRICT);
    let server = serve_registry(&dir);
    let addr = server.local_addr();
    write_checkpoint(&dir, 1, 200, STRICT);

    let stop = Arc::new(AtomicBool::new(false));
    const CLIENTS: usize = 4;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut sent = 0u64;
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (status, body) = act(addr, &obs_row(c as u64));
                    sent += 1;
                    if status == 200 {
                        // Every answer names the checkpoint that served
                        // it — always one of the two valid versions,
                        // never a torn state.
                        let ckpt = served_checkpoint(&body);
                        assert!(ckpt <= 1, "impossible checkpoint {ckpt}");
                        ok += 1;
                    }
                }
                (sent, ok)
            })
        })
        .collect();

    // Hammer reloads while the clients run.
    let mut reloads = 0;
    for _ in 0..10 {
        let (status, body) =
            http_request("POST", &format!("http://{addr}/reload"), "").expect("POST /reload");
        assert_eq!(status, 200, "{body}");
        reloads += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);

    let mut sent = 0;
    let mut ok = 0;
    for c in clients {
        let (s, o) = c.join().expect("client thread");
        sent += s;
        ok += o;
    }
    assert!(sent > 0, "clients never got a request off");
    assert_eq!(ok, sent, "{} of {sent} requests dropped during reload", sent - ok);
    assert_eq!(server.stats().reloads.load(Ordering::Relaxed), reloads);
    assert_eq!(server.stats().errors.load(Ordering::Relaxed), 0);

    let _ = std::fs::remove_dir_all(&dir);
}
