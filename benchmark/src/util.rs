//! Process plumbing: the work directory, child processes, peak memory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use hero_telemetry::emit::{parse_json_object, JsonValue};

/// Parsed fields of a child's one-line JSON result.
pub type Fields = BTreeMap<String, JsonValue>;

/// CPU cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The directory holding this executable (the build's `release/`).
pub fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("locating the benchmark executable");
    exe.parent()
        .expect("executable has a parent directory")
        .to_path_buf()
}

/// A fresh scratch directory beside the build output, unique to this
/// process and `tag`. The caller removes it.
pub fn work_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = exe_dir()
        .join("bench-work")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `rep(i)` for i = 0, 1, ... until the reps have taken `seconds`
/// (stopping before one would overrun), at least `min_reps` and at most
/// 40 times.
pub fn timed_reps<T>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let t0 = std::time::Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(rep(reps.len())?);
        let elapsed = t0.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        if reps.len() >= 40 || (reps.len() >= min_reps && elapsed + per_rep > seconds) {
            return Ok(reps);
        }
    }
}

/// Runs this executable with `args` and parses the last line of its
/// standard output as a JSON object. Its standard error passes through.
pub fn run_self(args: &[String]) -> Result<Fields, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("child {args:?} printed nothing"))?;
    parse_json_object(last).map_err(|e| format!("child {args:?} printed bad JSON: {e}"))
}

/// A number field of a child's result (NaN when absent).
pub fn num(f: &Fields, key: &str) -> f64 {
    f.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

/// A string field of a child's result (empty when absent).
pub fn text(f: &Fields, key: &str) -> String {
    f.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string()
}

/// A boolean field of a child's result (false when absent).
pub fn flag(f: &Fields, key: &str) -> bool {
    matches!(f.get(key), Some(JsonValue::Bool(true)))
}

/// Removes a work directory, ignoring errors.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        // Drop the shared parent too once the last run has cleaned up.
        let _ = std::fs::remove_dir(parent);
    }
}
