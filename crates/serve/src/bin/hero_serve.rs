//! `hero-serve`: serve the newest checkpoint in a registry (or a
//! synthetic policy) as a micro-batching observation→action HTTP
//! endpoint. See DESIGN.md "Serving" and `hero-serve --help`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use hero_serve::{start, BatchOptions, ServeConfig};
use hero_telemetry::registry::TelemetryConfig;

const USAGE: &str = "\
hero-serve: micro-batching HERO policy-serving daemon

usage: hero-serve [flags]

  --checkpoint-dir DIR     serve the newest valid v2 checkpoint in DIR
  --synthetic OxHxA        serve a random policy (obs x hidden x agents)
                           instead of a checkpoint, e.g. 128x256x2
  --addr HOST:PORT         bind address (default 127.0.0.1:9600; port 0
                           binds an ephemeral port)
  --max-batch N            rows coalesced per forward pass (default 32;
                           1 = request-at-a-time baseline)
  --batch-deadline-us N    longest a batch waits for more rows (default
                           2000)
  --out DIR                write the serve_addr discovery file into DIR,
                           and telemetry.jsonl on exit
  --seed N                 synthetic policy weight seed (default 0)

One of --checkpoint-dir / --synthetic is required.
";

struct Args {
    addr: String,
    checkpoint_dir: Option<PathBuf>,
    synthetic: Option<(usize, usize, usize)>,
    max_batch: usize,
    batch_deadline_us: u64,
    out: Option<PathBuf>,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        addr: "127.0.0.1:9600".into(),
        checkpoint_dir: None,
        synthetic: None,
        max_batch: 32,
        batch_deadline_us: 2000,
        out: None,
        seed: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => out.addr = value,
            "--checkpoint-dir" => out.checkpoint_dir = Some(PathBuf::from(value)),
            "--synthetic" => {
                let dims: Vec<usize> = value
                    .split('x')
                    .map(|t| t.parse().map_err(|_| format!("--synthetic {value}: bad dim {t:?}")))
                    .collect::<Result<_, _>>()?;
                match dims.as_slice() {
                    [o, h, a] if *o > 0 && *h > 0 && *a > 0 => {
                        out.synthetic = Some((*o, *h, *a));
                    }
                    _ => return Err(format!("--synthetic {value}: expected OBSxHIDDENxAGENTS")),
                }
            }
            "--max-batch" => {
                out.max_batch = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| format!("--max-batch {value}: expected an integer >= 1"))?;
            }
            "--batch-deadline-us" => {
                out.batch_deadline_us = value
                    .parse()
                    .map_err(|_| format!("--batch-deadline-us {value}: expected microseconds"))?;
            }
            "--out" => out.out = Some(PathBuf::from(value)),
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: expected an integer"))?;
            }
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if out.checkpoint_dir.is_none() && out.synthetic.is_none() {
        return Err(format!(
            "one of --checkpoint-dir / --synthetic is required\n\n{USAGE}"
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("hero-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };

    // Telemetry lives for the process: /metrics serves the live quantile
    // plane (latency, occupancy, queue depth), and --out persists the
    // final snapshot on exit.
    let guard = hero_telemetry::install(TelemetryConfig {
        run_label: "serve".into(),
        out_dir: args.out.clone(),
        ..TelemetryConfig::default()
    });

    let cfg = ServeConfig {
        addr: args.addr,
        checkpoint_dir: args.checkpoint_dir,
        synthetic: args.synthetic,
        synthetic_seed: args.seed,
        batch: BatchOptions {
            max_batch: args.max_batch,
            deadline: Duration::from_micros(args.batch_deadline_us),
        },
        registry: Some(Arc::clone(guard.registry())),
    };
    let server = match start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hero-serve: {e}");
            return ExitCode::FAILURE;
        }
    };

    let addr = server.local_addr();
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("serve_addr"), format!("{addr}\n")))
        {
            eprintln!("hero-serve: writing serve_addr: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "hero-serve listening on http://{addr} (checkpoint {}, max-batch {}, deadline {}us, {} kernels)",
        server.checkpoint(),
        args.max_batch,
        args.batch_deadline_us,
        hero_autograd::kernel_mode()
    );
    server.wait();
    println!("hero-serve: shutdown requested, exiting");
    ExitCode::SUCCESS
}
