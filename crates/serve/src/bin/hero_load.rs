//! `hero-load`: open-loop load generator for `hero-serve`.
//!
//! Requests arrive on a fixed schedule (`--rate` per second), not after
//! the previous response — so a slow server builds a queue instead of
//! slowing the offered load, and the reported latency includes the
//! queueing delay a real open-loop client would see (no coordinated
//! omission). `--concurrency` worker threads pull arrival tickets from a
//! shared counter; each ticket `i` is due at `start + i/rate`, and a
//! worker sleeps until its ticket is due before firing.
//!
//! Prints one JSON summary line on stdout:
//! `{"sent":N,"completed":N,"errors":N,"elapsed_s":S,"rps":R,
//!   "p50_us":U,"p95_us":U,"p99_us":U,"mean_batch":B}`
//! and exits nonzero when no request completed.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hero_telemetry::emit::{parse_json_object, JsonValue};
use hero_telemetry::http::http_request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "\
hero-load: open-loop load generator for hero-serve

usage: hero-load --addr HOST:PORT [flags]

  --addr HOST:PORT   hero-serve address (required)
  --rate N           offered load, requests per second (default 200)
  --requests N       total requests to send (default 1000)
  --concurrency N    worker threads / max in-flight (default 16)
  --obs-dim N        observation width (default: ask GET /info)
  --agents N         spread requests across agents 0..N (default 1)
  --seed N           observation-content seed (default 1)
";

struct Args {
    addr: String,
    rate: f64,
    requests: u64,
    concurrency: usize,
    obs_dim: Option<usize>,
    agents: usize,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        addr: String::new(),
        rate: 200.0,
        requests: 1000,
        concurrency: 16,
        obs_dim: None,
        agents: 1,
        seed: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => out.addr = value,
            "--rate" => {
                out.rate = value
                    .parse()
                    .ok()
                    .filter(|&r: &f64| r > 0.0)
                    .ok_or_else(|| format!("--rate {value}: expected requests/s > 0"))?;
            }
            "--requests" => {
                out.requests = value
                    .parse()
                    .map_err(|_| format!("--requests {value}: expected a count"))?;
            }
            "--concurrency" => {
                out.concurrency = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| format!("--concurrency {value}: expected an integer >= 1"))?;
            }
            "--obs-dim" => {
                out.obs_dim = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--obs-dim {value}: expected a width"))?,
                );
            }
            "--agents" => {
                out.agents = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| format!("--agents {value}: expected an integer >= 1"))?;
            }
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: expected an integer"))?;
            }
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if out.addr.is_empty() {
        return Err(format!("--addr is required\n\n{USAGE}"));
    }
    Ok(out)
}

fn discover_obs_dim(addr: &str) -> Result<usize, String> {
    let (status, body) = http_request("GET", &format!("http://{addr}/info"), "")
        .map_err(|e| format!("GET /info on {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("GET /info on {addr}: status {status}"));
    }
    let fields = parse_json_object(body.trim()).map_err(|e| format!("/info body: {e}"))?;
    fields
        .get("obs_dim")
        .and_then(JsonValue::as_f64)
        .map(|v| v as usize)
        .ok_or_else(|| "/info body lacks obs_dim".into())
}

struct WorkerOut {
    completed: u64,
    errors: u64,
    latencies_us: Vec<f64>,
    batch_rows: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            // A malformed flag exits 2, as the experiment binaries do.
            eprintln!("hero-load: {msg}");
            return ExitCode::from(2);
        }
    };
    let obs_dim = match args.obs_dim {
        Some(d) => d,
        None => match discover_obs_dim(&args.addr) {
            Ok(d) => d,
            Err(msg) => {
                eprintln!("hero-load: {msg}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Pre-render request bodies so the hot loop only does I/O; a few
    // distinct observations are enough to defeat trivial caching while
    // keeping the generator cheap on a small box.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let bodies: Vec<String> = (0..64)
        .map(|i| {
            let obs: Vec<String> = (0..obs_dim)
                .map(|_| format!("{:.4}", rng.gen_range(-1.0f32..1.0)))
                .collect();
            format!(
                "{{\"agent\":{},\"obs\":\"{}\"}}",
                i % args.agents,
                obs.join(" ")
            )
        })
        .collect();
    let bodies = Arc::new(bodies);

    let ticket = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / args.rate);
    let url = format!("http://{}/act", args.addr);

    let workers: Vec<_> = (0..args.concurrency)
        .map(|_| {
            let ticket = Arc::clone(&ticket);
            let bodies = Arc::clone(&bodies);
            let url = url.clone();
            let total = args.requests;
            std::thread::spawn(move || {
                let mut out = WorkerOut {
                    completed: 0,
                    errors: 0,
                    latencies_us: Vec::new(),
                    batch_rows: 0,
                };
                loop {
                    let i = ticket.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        return out;
                    }
                    // Open-loop: ticket i is due at start + i*period, and
                    // latency counts from the due time, so queueing delay
                    // caused by a slow server is charged to the server.
                    let due = start + period.mul_f64(i as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let body = &bodies[(i as usize) % bodies.len()];
                    match http_request("POST", &url, body) {
                        Ok((200, resp)) => {
                            out.completed += 1;
                            out.latencies_us.push(due.elapsed().as_secs_f64() * 1e6);
                            if let Ok(fields) = parse_json_object(resp.trim()) {
                                if let Some(b) =
                                    fields.get("batch").and_then(JsonValue::as_f64)
                                {
                                    out.batch_rows += b as u64;
                                }
                            }
                        }
                        Ok((status, resp)) => {
                            out.errors += 1;
                            eprintln!(
                                "hero-load: status {status}: {}",
                                resp.lines().next().unwrap_or("")
                            );
                        }
                        Err(e) => {
                            out.errors += 1;
                            eprintln!("hero-load: {e}");
                        }
                    }
                }
            })
        })
        .collect();

    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut batch_rows = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    for w in workers {
        let out = w.join().expect("load worker panicked");
        completed += out.completed;
        errors += out.errors;
        batch_rows += out.batch_rows;
        latencies.extend(out.latencies_us);
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    let mean_batch = if completed == 0 {
        0.0
    } else {
        batch_rows as f64 / completed as f64
    };
    println!(
        "{{\"sent\":{},\"completed\":{completed},\"errors\":{errors},\
         \"elapsed_s\":{elapsed:.3},\"rps\":{:.2},\"p50_us\":{:.1},\
         \"p95_us\":{:.1},\"p99_us\":{:.1},\"mean_batch\":{mean_batch:.2}}}",
        args.requests.min(ticket.load(Ordering::Relaxed)),
        completed as f64 / elapsed.max(1e-9),
        pct(0.50),
        pct(0.95),
        pct(0.99),
    );
    if completed == 0 {
        eprintln!("hero-load: no request completed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
