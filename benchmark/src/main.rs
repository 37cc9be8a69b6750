//! `hero-benchmark`: the repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hero-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//! hero-benchmark report [--quick] [--seed N] [--workload W] [--out FILE] [--sha SHA]
//! ```
//!
//! `run` measures one workload and prints one JSON result line last on
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `report` runs every workload (or
//! one) and prints every metric as a table, then writes the results file.
//! Both exit nonzero when a built-in check fails.

mod kernels;
mod metrics;
mod serve;
mod train;
mod util;

use std::process::ExitCode;

use hero_benchmark::json::Json;
use metrics::{all_layers, RunResult, WORKLOADS};

/// Seconds of timed reps one run aims for (`run_seconds` in
/// `BENCHMARK.json`).
const RUN_SECONDS: f64 = 20.0;
/// Timed reps a run makes at least.
const MIN_REPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("rep") => cmd_rep(&args[1..]),
        _ => Err("usage: hero-benchmark run|report [flags] (see benchmark/README.md)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hero-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Flag values by name; `--quick` is the only flag without a value.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag} (known: {})", known.join(" ")));
            }
            let value = if flag == "--quick" {
                String::new()
            } else {
                it.next().ok_or(format!("{flag} needs a value"))?.clone()
            };
            out.push((flag.clone(), value));
        }
        Ok(Flags(out))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} {v}: not a valid value")),
        }
    }
}

fn workload(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .find(|w| **w == name)
        .copied()
        .ok_or_else(|| format!("unknown workload {name} (known: {})", WORKLOADS.join(" ")))
}

/// Runs one workload: an instrumented rep, then timed reps.
fn run_workload(name: &str, seed: u64, seconds: f64, min_reps: usize) -> Result<RunResult, String> {
    if let Some(w) = train::Workload::parse(name) {
        train::run(w, seed, seconds, min_reps)
    } else if let Some(w) = serve::Workload::parse(name) {
        serve::run(w, seed, seconds, min_reps)
    } else {
        Err(format!("unknown workload {name}"))
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = workload(flags.get("--workload").ok_or("--workload is required")?)?;
    let seed = flags.parsed("--seed", 1u64)?;
    let seconds = flags.parsed("--seconds", RUN_SECONDS)?;
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let r = run_workload(name, seed, seconds, MIN_REPS)?;
    eprint!("{}", table(&r));
    println!("{}", r.line(trace));
    Ok(r.correct())
}

fn cmd_rep(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--snapshot", "--instrumented"],
    )?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let w = train::Workload::parse(name).ok_or(format!("{name} has no child reps"))?;
    let seed = flags.parsed("--seed", 1u64)?;
    let snapshot = flags.get("--snapshot").map(std::path::Path::new);
    let instrumented = flags.get("--instrumented") == Some("1");
    println!("{}", train::rep(w, seed, snapshot, instrumented));
    Ok(true)
}

fn cmd_report(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--quick", "--seed", "--workload", "--out", "--sha"])?;
    let seed = flags.parsed("--seed", 1u64)?;
    let quick = flags.has("--quick");
    let (seconds, min_reps) = if quick {
        (0.0, 1)
    } else {
        (RUN_SECONDS, MIN_REPS)
    };
    let names: Vec<&str> = match flags.get("--workload") {
        Some(name) => vec![workload(name)?],
        None => WORKLOADS.to_vec(),
    };
    let stamp = Json::obj([
        ("nproc", util::nproc().into()),
        ("isa", hero_autograd::isa_name().into()),
        (
            "kernel_mode",
            hero_autograd::kernel_mode().to_string().into(),
        ),
        ("git_sha", flags.get("--sha").unwrap_or("unknown").into()),
        ("seed", seed.into()),
        ("quick", quick.into()),
        ("run_seconds", seconds.into()),
    ]);
    println!("hero-benchmark report  {stamp}");
    let mut ok = true;
    let mut results = Vec::new();
    for name in names {
        let r = run_workload(name, seed, seconds, min_reps)?;
        print!("{}", table(&r));
        ok &= r.correct();
        results.push((name, r.to_json()));
    }
    let doc = Json::obj([("stamp", stamp), ("workloads", Json::obj(results))]);
    let out = flags
        .get("--out")
        .unwrap_or("benchmark/target/results.json");
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(out, format!("{doc}\n")).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    if !ok {
        println!("FAILED: a built-in check did not pass");
    }
    Ok(ok)
}

/// Every metric of a run as text: end-to-end medians with quartiles and
/// rep count, the per-layer values, and the checks.
fn table(r: &RunResult) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "\n== {} (seed {})", r.workload, r.seed);
    let _ = writeln!(
        s,
        "{:<28} {:>8} {:>14} {:>14} {:>14} {:>3}",
        "end-to-end", "unit", "median", "q1", "q3", "n"
    );
    for (name, unit) in r.e2e_names() {
        let m = r.summary(name);
        let _ = writeln!(
            s,
            "{name:<28} {unit:>8} {:>14.6} {:>14.6} {:>14.6} {:>3}",
            m.median, m.q1, m.q3, m.n
        );
    }
    let _ = writeln!(s, "{:<28} {:>8} {:>14}", "per-layer", "unit", "value");
    for (name, unit) in all_layers() {
        match r.layers.get(name) {
            Some(v) => {
                let _ = writeln!(s, "{name:<28} {unit:>8} {v:>14.6}");
            }
            None => {
                let _ = writeln!(s, "{name:<28} {unit:>8} {:>14}", "not exercised");
            }
        }
    }
    for (k, v) in &r.detail {
        let _ = writeln!(s, "  {k} = {v}");
    }
    let _ = writeln!(s, "attempted {} failed {}", r.attempted, r.failed);
    for c in &r.checks {
        let _ = writeln!(
            s,
            "check {:<20} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    s
}
