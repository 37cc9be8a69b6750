//! `hero-inspect` — terminal analyzer for telemetry dumps.
//!
//! ```text
//! hero-inspect summarize RUN
//! hero-inspect diff BASELINE CANDIDATE [--tol-value F] [--tol-count F]
//!                  [--tol-counter F] [--abs-floor F] [--ignore PREFIX]...
//!                  [--fail-on-regression] [--verbose]
//! hero-inspect doctor RUN
//! hero-inspect watch URL|RUN [--interval-ms N] [--frames N]
//! ```
//!
//! `RUN` is a `telemetry.jsonl` file or a directory containing one.
//! `diff --fail-on-regression` exits 1 when any compared quantity leaves
//! tolerance or a metric disappears; `--ignore PREFIX` (repeatable)
//! excludes metrics by name prefix, e.g. `--ignore checkpoint/` (resumed
//! vs. uninterrupted) or `--ignore live/` (scraped vs. unscraped).
//! `summarize` also prints the run's process gauges (minor page faults,
//! peak RSS) when it recorded them. `doctor` exits 1 when a critical
//! pathology (watchdog events, dropped checkpoints) is found; on a
//! `hero-serve` run it also warns when batch occupancy shows
//! micro-batching never engaged. `watch` is "hero-top": it renders a
//! refreshing terminal view of a run from either a live exporter address
//! (anything that is not an existing path — e.g. `127.0.0.1:9464`,
//! scraped via `GET /snapshot`) or a finished telemetry file/directory;
//! `--frames N` stops after N frames (0 = forever, the default),
//! `--interval-ms` defaults to 1000. Usage errors exit 2.

use std::path::Path;
use std::process::ExitCode;

use hero_inspect::{
    diff, doctor, load_run, parse_run, queue_depth_report, render_findings, render_top, summarize,
    throughput_report, DiffOptions, Severity, Tolerances,
};

const USAGE: &str = "usage: hero-inspect <summarize RUN | diff BASELINE CANDIDATE \
                     [--tol-value F] [--tol-count F] [--tol-counter F] [--abs-floor F] \
                     [--ignore PREFIX]... [--fail-on-regression] [--verbose] | doctor RUN \
                     | watch URL|RUN [--interval-ms N] [--frames N]>";

fn fail(msg: &str) -> ExitCode {
    eprintln!("hero-inspect: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return fail("missing subcommand");
    };
    match cmd.as_str() {
        "summarize" => {
            let [run] = rest else { return fail("summarize takes exactly one RUN") };
            match load_run(Path::new(run)) {
                Ok(run) => {
                    print!("{}", summarize(&run));
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        "diff" => run_diff(rest),
        "doctor" => {
            let [run] = rest else { return fail("doctor takes exactly one RUN") };
            match load_run(Path::new(run)) {
                Ok(loaded) => {
                    print!("{}", throughput_report(&loaded));
                    print!("{}", queue_depth_report(&loaded));
                    let findings = doctor(&loaded);
                    print!("{}", render_findings(&findings));
                    if findings.iter().any(|f| f.severity == Severity::Critical) {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => fail(&e),
            }
        }
        "watch" => run_watch(rest),
        other => fail(&format!("unknown subcommand {other:?}")),
    }
}

fn run_watch(rest: &[String]) -> ExitCode {
    let mut source: Option<String> = None;
    let mut interval = std::time::Duration::from_millis(1000);
    let mut frames = 0u64; // 0 = forever
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) if ms > 0 => interval = std::time::Duration::from_millis(ms),
                _ => return fail("--interval-ms requires a positive integer"),
            },
            "--frames" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => frames = n,
                _ => return fail("--frames requires a non-negative integer"),
            },
            other if other.starts_with('-') => return fail(&format!("unknown flag {other:?}")),
            other if source.is_none() => source = Some(other.to_owned()),
            _ => return fail("watch takes exactly one URL or RUN"),
        }
    }
    let Some(source) = source else { return fail("watch takes exactly one URL or RUN") };
    // An existing path is a finished run; anything else is a live
    // exporter address to scrape.
    let from_disk = Path::new(&source).exists();
    let mut rendered = 0u64;
    loop {
        let run = if from_disk {
            load_run(Path::new(&source))
        } else {
            hero_telemetry::exporter::http_get(&source)
                .map_err(|e| format!("scrape {source}: {e}"))
                .and_then(|body| parse_run(&body).map_err(|e| format!("{source}: {e}")))
        };
        let run = match run {
            Ok(run) => run,
            Err(e) => return fail(&e),
        };
        if rendered > 0 || frames != 1 {
            // Home + clear so the view refreshes in place; a single-frame
            // render (tests, piping) stays plain text.
            print!("\x1b[H\x1b[2J");
        }
        print!("{}", render_top(&run));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        rendered += 1;
        if frames != 0 && rendered >= frames {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}

fn run_diff(rest: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut tolerance = Tolerances::default();
    let mut ignore_prefixes: Vec<String> = Vec::new();
    let mut fail_on_regression = false;
    let mut verbose = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut tol_flag = |slot: &mut f64| match it.next().map(|v| v.parse::<f64>()) {
            Some(Ok(v)) if v >= 0.0 => {
                *slot = v;
                Ok(())
            }
            _ => Err(format!("{arg} requires a non-negative number")),
        };
        let parsed = match arg.as_str() {
            "--tol-value" => tol_flag(&mut tolerance.value),
            "--tol-count" => tol_flag(&mut tolerance.count),
            "--tol-counter" => tol_flag(&mut tolerance.counter),
            "--abs-floor" => tol_flag(&mut tolerance.abs_floor),
            "--ignore" => match it.next() {
                Some(prefix) if !prefix.is_empty() => {
                    ignore_prefixes.push(prefix.clone());
                    Ok(())
                }
                _ => Err("--ignore requires a non-empty metric-name prefix".into()),
            },
            "--fail-on-regression" => {
                fail_on_regression = true;
                Ok(())
            }
            "--verbose" => {
                verbose = true;
                Ok(())
            }
            other if other.starts_with('-') => Err(format!("unknown flag {other:?}")),
            other => {
                paths.push(other.to_owned());
                Ok(())
            }
        };
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    let [baseline, candidate] = paths.as_slice() else {
        return fail("diff takes exactly BASELINE and CANDIDATE");
    };
    let (a, b) = match (load_run(Path::new(baseline)), load_run(Path::new(candidate))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let report = diff(&a, &b, &DiffOptions { tolerance, ignore: ignore_prefixes });
    print!("{}", report.render(verbose));
    if fail_on_regression && report.is_regression() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
