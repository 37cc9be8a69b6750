//! `hero-serve`: serve the newest checkpoint in a registry (or a
//! synthetic policy) as a micro-batching observation→action HTTP
//! endpoint. See DESIGN.md "Serving" and `hero-serve --help`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use hero_serve::policy::check_synthetic;
use hero_serve::{start, ServeConfig};
use hero_telemetry::registry::TelemetryConfig;

const USAGE: &str = "\
hero-serve: micro-batching HERO policy-serving daemon

usage: hero-serve [flags]

  --checkpoint-dir DIR     serve the newest valid v2 checkpoint in DIR
  --synthetic OxHxA        serve a random policy (obs x hidden x agents,
                           weights from seed 0) instead of a
                           checkpoint, e.g. 128x256x2
  --addr HOST:PORT         bind address (default 127.0.0.1:9600; port 0
                           binds an ephemeral port)
  --max-batch N            rows coalesced per forward pass (default 32;
                           1 = request-at-a-time baseline); a batch
                           waits at most 2 ms for more rows
  --out DIR                write the serve_addr discovery file into DIR,
                           and telemetry.jsonl on exit

One of --checkpoint-dir / --synthetic is required.
";

struct Args {
    addr: String,
    checkpoint_dir: Option<PathBuf>,
    synthetic: Option<(usize, usize, usize)>,
    max_batch: usize,
    out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        addr: "127.0.0.1:9600".into(),
        checkpoint_dir: None,
        synthetic: None,
        max_batch: 32,
        out: None,
    };
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
                        check_synthetic(*o, *h, *a)
                            .map_err(|e| format!("--synthetic {value}: {e}"))?;
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
            "--out" => out.out = Some(PathBuf::from(value)),
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
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            // A malformed flag exits 2, as the experiment binaries do.
            eprintln!("hero-serve: {msg}");
            return ExitCode::from(2);
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
        max_batch: args.max_batch,
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
        hero_serve::batch::BATCH_DEADLINE.as_micros(),
        hero_autograd::kernel_mode()
    );
    server.wait();
    println!("hero-serve: shutdown requested, exiting");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(spec: &str) -> Result<Option<(usize, usize, usize)>, String> {
        parse_args(["--synthetic", spec].iter().map(|a| a.to_string())).map(|a| a.synthetic)
    }

    #[test]
    fn synthetic_accepts_the_benchmark_policy() {
        assert_eq!(synthetic("256x1024x2"), Ok(Some((256, 1024, 2))));
    }

    #[test]
    fn synthetic_refuses_oversized_and_overflowing_sizes() {
        let overflowing = format!("{}x{}x2", usize::MAX / 2, usize::MAX / 2);
        for spec in [
            "999999x999999x99",
            overflowing.as_str(),
            "4x4x18446744073709551615",
        ] {
            let err = synthetic(spec).expect_err("an oversized policy must be refused");
            assert!(err.contains("synthetic policy"), "{spec}: {err}");
        }
    }

    #[test]
    fn retired_flags_are_unknown() {
        for flags in [["--batch-deadline-us", "500"], ["--seed", "3"]] {
            let args = ["--synthetic", "8x16x2"].into_iter().chain(flags);
            let err = parse_args(args.map(str::to_string))
                .err()
                .expect("a retired flag must be refused");
            assert!(
                err.starts_with(&format!("unknown flag {}", flags[0])),
                "{err}"
            );
        }
    }

    #[test]
    fn synthetic_refuses_malformed_sizes() {
        for spec in ["12x3", "0x4x2", "axbxc"] {
            assert!(synthetic(spec).is_err(), "{spec:?} must be refused");
        }
    }
}
