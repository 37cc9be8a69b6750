//! Crash-safe training checkpoints: the full-state [`TrainerSnapshot`]
//! and the rotating, atomic, fault-tolerant [`CheckpointStore`].
//!
//! Snapshots capture everything the cooperative training loop needs to
//! resume bit-identically: the team (networks, target networks, optimizer
//! moments, replay buffers, opponent models, bookkeeping), both RNG
//! streams (trainer and environment), the metric recorder, and the
//! telemetry registry. Files use the v2 sectioned checkpoint format of
//! [`hero_autograd::serialize`] (CRC-footed, written atomically).
//!
//! The store degrades gracefully: writes retry with backoff and then drop
//! (training never dies because a disk write failed), and loads fall back
//! past corrupted files to the newest checkpoint whose CRC validates.
//! Every outcome is surfaced as a `checkpoint/*` telemetry counter.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hero_autograd::serialize;
use hero_autograd::CheckpointError;
use hero_faultplan::FaultPlan;
use hero_rl::metrics::Recorder;
use hero_rl::snapshot::{self, Codec};
use hero_rl::telemetry;
use hero_rl::telemetry::RegistryState;

/// File-name prefix of checkpoint files inside the checkpoint directory.
pub const FILE_PREFIX: &str = "ckpt-";
/// File-name extension of checkpoint files.
pub const FILE_EXT: &str = ".hero";
/// Version tag of the snapshot layout inside the "meta" section.
const SNAPSHOT_VERSION: u32 = 1;
/// Default write attempts before a save degrades to a counted drop
/// (override per store with [`CheckpointStore::set_max_attempts`]).
pub const DEFAULT_SAVE_ATTEMPTS: usize = 3;
/// Default backoff base: retry `k` sleeps `DEFAULT_BACKOFF_BASE_MS << k`
/// milliseconds (override with [`CheckpointStore::set_backoff_base_ms`];
/// 0 disables sleeping, which is what tests use).
pub const DEFAULT_BACKOFF_BASE_MS: u64 = 1;

/// Per-world rollout state captured by the batched actor/learner loop:
/// every replica's environment RNG stream and joint last-options vector.
///
/// Serial-mode (single-world) runs leave this out entirely, so their
/// snapshots stay byte-identical to sequential `train_team` snapshots, and
/// older checkpoints without the section load unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStates {
    /// One environment RNG stream per world replica.
    pub rngs: Vec<Vec<u64>>,
    /// One joint last-options vector per world replica.
    pub last_options: Vec<Vec<usize>>,
}

/// Everything the training loop needs to resume exactly where it stopped.
///
/// Team state is carried as opaque sections (produced by
/// `HeroTeam::save_state`) so this type stays independent of network
/// architecture details.
#[derive(Clone, Debug)]
pub struct TrainerSnapshot {
    /// The episode index training should continue from.
    pub next_episode: usize,
    /// Environment steps taken so far (drives the `update_every` cadence).
    pub step_counter: usize,
    /// Learning passes attempted so far (drives fault-plan injection).
    pub update_counter: usize,
    /// The trainer's action-sampling RNG stream position.
    pub trainer_rng: [u64; 4],
    /// The environment's RNG stream position(s).
    pub env_rng: Vec<u64>,
    /// The per-episode metric series recorded so far.
    pub recorder: Recorder,
    /// The telemetry registry state, when telemetry was enabled at save
    /// time.
    pub telemetry: Option<RegistryState>,
    /// Per-world rollout state (batched actor/learner runs only).
    pub workers: Option<WorkerStates>,
    /// Opaque team sections (`team/*`, `agent<k>/*`).
    pub team_sections: Vec<(String, Vec<u8>)>,
}

impl TrainerSnapshot {
    /// Serializes the snapshot into named checkpoint sections.
    pub fn to_sections(&self) -> Vec<(String, Vec<u8>)> {
        let mut meta = Vec::new();
        meta.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        meta.extend_from_slice(&(self.next_episode as u64).to_le_bytes());
        meta.extend_from_slice(&(self.step_counter as u64).to_le_bytes());
        meta.extend_from_slice(&(self.update_counter as u64).to_le_bytes());

        let mut rngs = Vec::new();
        self.trainer_rng.to_vec().encode(&mut rngs);
        self.env_rng.encode(&mut rngs);

        let mut sections = vec![
            ("meta".to_string(), meta),
            ("rngs".to_string(), rngs),
            (
                "recorder".to_string(),
                snapshot::encode_recorder(&self.recorder),
            ),
        ];
        if let Some(state) = &self.telemetry {
            sections.push(("telemetry".to_string(), state.to_bytes()));
        }
        if let Some(workers) = &self.workers {
            let mut blob = Vec::new();
            workers.rngs.encode(&mut blob);
            workers.last_options.encode(&mut blob);
            sections.push(("workers".to_string(), blob));
        }
        sections.push(serialize::kernel_mode_section());
        sections.extend(self.team_sections.iter().cloned());
        sections
    }

    /// Parses a snapshot from checkpoint sections.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when required sections are missing or
    /// malformed, or the snapshot version is unknown, and
    /// [`CheckpointError::KernelModeMismatch`] for a fast-math checkpoint
    /// (see [`serialize::check_kernel_mode`]).
    pub fn from_sections(sections: &[(String, Vec<u8>)]) -> Result<Self, CheckpointError> {
        let malformed = |what: String| CheckpointError::Malformed(what);

        let meta = serialize::require_section(sections, "meta")?;
        if meta.len() != 4 + 8 * 3 {
            return Err(malformed(format!(
                "meta section has {} bytes, expected 28",
                meta.len()
            )));
        }
        let version = u32::from_le_bytes(meta[0..4].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let word = |i: usize| u64::from_le_bytes(meta[4 + 8 * i..12 + 8 * i].try_into().unwrap());

        let rngs_blob = serialize::require_section(sections, "rngs")?;
        let mut r = snapshot::Reader::new(rngs_blob);
        let mapped = |e: snapshot::SnapshotError| malformed(format!("rng section: {e}"));
        let trainer_words: Vec<u64> = decode_u64s(&mut r).map_err(mapped)?;
        let env_rng: Vec<u64> = decode_u64s(&mut r).map_err(mapped)?;
        r.finish().map_err(mapped)?;
        let trainer_rng: [u64; 4] = trainer_words
            .as_slice()
            .try_into()
            .map_err(|_| malformed("trainer rng must be 4 words".to_string()))?;

        let recorder =
            snapshot::decode_recorder(serialize::require_section(sections, "recorder")?)
                .map_err(|e| malformed(format!("recorder section: {e}")))?;

        let telemetry = match serialize::find_section(sections, "telemetry") {
            Some(bytes) => Some(
                RegistryState::from_bytes(bytes)
                    .map_err(|e| malformed(format!("telemetry section: {e}")))?,
            ),
            None => None,
        };

        let workers = match serialize::find_section(sections, "workers") {
            Some(bytes) => {
                let mut r = snapshot::Reader::new(bytes);
                let mapped =
                    |e: snapshot::SnapshotError| malformed(format!("workers section: {e}"));
                let rngs: Vec<Vec<u64>> = Codec::decode(&mut r).map_err(mapped)?;
                let last_options: Vec<Vec<usize>> = Codec::decode(&mut r).map_err(mapped)?;
                r.finish().map_err(mapped)?;
                if rngs.len() != last_options.len() {
                    return Err(malformed(format!(
                        "workers section: {} rng streams vs {} last-option vectors",
                        rngs.len(),
                        last_options.len()
                    )));
                }
                Some(WorkerStates { rngs, last_options })
            }
            None => None,
        };

        serialize::check_kernel_mode(sections)?;

        let team_sections: Vec<(String, Vec<u8>)> = sections
            .iter()
            .filter(|(name, _)| name.starts_with("team/") || name.starts_with("agent"))
            .cloned()
            .collect();

        Ok(Self {
            next_episode: word(0) as usize,
            step_counter: word(1) as usize,
            update_counter: word(2) as usize,
            trainer_rng,
            env_rng,
            recorder,
            telemetry,
            workers,
            team_sections,
        })
    }
}

fn decode_u64s(r: &mut snapshot::Reader<'_>) -> Result<Vec<u64>, snapshot::SnapshotError> {
    let n = r.len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

/// The result of scanning a checkpoint directory for the newest loadable
/// checkpoint.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Index parsed from the file name (`ckpt-<index>.hero`).
    pub index: u64,
    /// The decoded sections.
    pub sections: Vec<(String, Vec<u8>)>,
    /// Newer checkpoint files that failed CRC/parse validation and were
    /// skipped.
    pub corrupt_skipped: usize,
}

/// A rotating checkpoint directory with atomic writes, retry-with-backoff
/// degrading to counted drops, and retention of the last `retain` good
/// files.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    next_index: u64,
    max_attempts: usize,
    backoff_base_ms: u64,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory; numbering
    /// continues after any checkpoints already present.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error when the directory cannot be
    /// created or listed.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let next_index = list_checkpoints(&dir)?
            .last()
            .map(|&(index, _)| index + 1)
            .unwrap_or(0);
        Ok(Self {
            dir,
            retain: retain.max(1),
            next_index,
            max_attempts: DEFAULT_SAVE_ATTEMPTS,
            backoff_base_ms: DEFAULT_BACKOFF_BASE_MS,
        })
    }

    /// Overrides the write attempts per save (`--checkpoint-retry N` gives
    /// `N` retries, i.e. `N + 1` attempts). Clamped to at least one.
    pub fn set_max_attempts(&mut self, attempts: usize) {
        self.max_attempts = attempts.max(1);
    }

    /// Overrides the retry backoff base: retry `k` sleeps `base << k`
    /// milliseconds. The schedule is fully deterministic (no jitter);
    /// `0` disables sleeping entirely, so tests pay no wall-clock cost.
    pub fn set_backoff_base_ms(&mut self, base_ms: u64) {
        self.backoff_base_ms = base_ms;
    }

    /// The directory checkpoints are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The index the next save will use.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Writes `sections` as the next checkpoint: atomically (temp + fsync
    /// + rename), retrying transient failures with backoff, and degrading
    /// to a counted drop so training continues even when the disk is sick.
    /// Old checkpoints beyond the retention count are pruned after a
    /// successful write.
    ///
    /// `plan` injects deterministic IO faults (and post-write corruption)
    /// for crash-safety tests; pass [`FaultPlan::none`] in production.
    ///
    /// Returns `true` when the checkpoint was durably written.
    pub fn save(&mut self, sections: &[(String, Vec<u8>)], plan: &FaultPlan) -> bool {
        let index = self.next_index;
        self.next_index += 1;
        let path = self.dir.join(format!("{FILE_PREFIX}{index:08}{FILE_EXT}"));
        telemetry::counter_add("checkpoint/attempts", 1);
        let write_t0 = (!telemetry::disabled()).then(std::time::Instant::now);
        for attempt in 0..self.max_attempts {
            let result = if plan.io_error_at(index as usize, attempt) {
                Err(CheckpointError::Io(std::io::Error::new(
                    std::io::ErrorKind::Other,
                    "injected io fault",
                )))
            } else {
                serialize::save_sections(&path, sections)
            };
            match result {
                Ok(()) => {
                    if let Some(mode) = plan.corrupt_after_save(index as usize) {
                        let _ = hero_faultplan::corrupt_file(&path, mode);
                    }
                    telemetry::counter_add("checkpoint/saved", 1);
                    if let Some(t0) = write_t0 {
                        telemetry::live_observe(
                            "live/checkpoint_write_us",
                            t0.elapsed().as_micros() as f64,
                        );
                        telemetry::flight_event(telemetry::FlightEventKind::CheckpointSaved {
                            index,
                        });
                    }
                    self.prune();
                    return true;
                }
                Err(_) => {
                    telemetry::counter_add("checkpoint/save_failed", 1);
                    if attempt + 1 < self.max_attempts {
                        telemetry::counter_add("checkpoint/retries", 1);
                        if self.backoff_base_ms > 0 {
                            // Deterministic exponential schedule, no jitter:
                            // retry k sleeps base << k ms (capped at ~4s so a
                            // large --checkpoint-retry cannot stall training
                            // for minutes).
                            let ms = self
                                .backoff_base_ms
                                .saturating_mul(1u64 << attempt.min(12))
                                .min(4096);
                            std::thread::sleep(Duration::from_millis(ms));
                        }
                    }
                }
            }
        }
        telemetry::counter_add("checkpoint/dropped", 1);
        false
    }

    fn prune(&self) {
        if let Ok(files) = list_checkpoints(&self.dir) {
            if files.len() > self.retain {
                for (_, path) in &files[..files.len() - self.retain] {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }
}

/// Scans `dir` newest-first for the most recent checkpoint whose CRC (and
/// section structure) validates, skipping corrupted files.
///
/// Deliberately emits **no** telemetry counters: the caller typically
/// restores the telemetry registry *from* the loaded snapshot, which would
/// wipe counters emitted here — it must count `checkpoint/loaded`,
/// `checkpoint/fallback`, and `checkpoint/corrupt_skipped` after that
/// restore (see `trainer::train_team_checkpointed`).
///
/// Returns `Ok(None)` when the directory has no loadable checkpoint.
///
/// # Errors
///
/// Returns the underlying IO error when the directory cannot be listed
/// (a missing directory yields `Ok(None)`).
pub fn load_latest(dir: &Path) -> Result<Option<LoadedCheckpoint>, CheckpointError> {
    if !dir.exists() {
        return Ok(None);
    }
    let files = list_checkpoints(dir)?;
    let mut corrupt_skipped = 0usize;
    for (index, path) in files.iter().rev() {
        match serialize::load_sections(path) {
            Ok(sections) => {
                return Ok(Some(LoadedCheckpoint {
                    index: *index,
                    sections,
                    corrupt_skipped,
                }));
            }
            Err(_) => corrupt_skipped += 1,
        }
    }
    Ok(None)
}

/// Lists `ckpt-<index>.hero` files in `dir`, sorted by index ascending.
fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(FILE_PREFIX)
            .and_then(|s| s.strip_suffix(FILE_EXT))
        else {
            continue;
        };
        if let Ok(index) = stem.parse::<u64>() {
            out.push((index, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(index, _)| index);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hero-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dummy_sections(tag: u8) -> Vec<(String, Vec<u8>)> {
        vec![("blob".to_string(), vec![tag; 64])]
    }

    #[test]
    fn snapshot_sections_roundtrip() {
        let mut recorder = Recorder::new();
        recorder.push("reward", 1.5);
        recorder.push("reward", -0.5);
        let snap = TrainerSnapshot {
            next_episode: 7,
            step_counter: 123,
            update_counter: 45,
            trainer_rng: [1, 2, 3, 4],
            env_rng: vec![5, 6, 7, 8],
            recorder,
            telemetry: None,
            workers: None,
            team_sections: vec![
                ("team/last_options".to_string(), vec![9, 9]),
                ("agent0/bookkeeping".to_string(), vec![1]),
            ],
        };
        let back = TrainerSnapshot::from_sections(&snap.to_sections()).unwrap();
        assert_eq!(back.next_episode, 7);
        assert_eq!(back.step_counter, 123);
        assert_eq!(back.update_counter, 45);
        assert_eq!(back.trainer_rng, [1, 2, 3, 4]);
        assert_eq!(back.env_rng, vec![5, 6, 7, 8]);
        assert_eq!(back.recorder.series("reward"), snap.recorder.series("reward"));
        assert!(back.workers.is_none(), "no workers section round-trips as None");
        assert_eq!(back.team_sections.len(), 2);
    }

    #[test]
    fn worker_states_roundtrip_when_present() {
        let snap = TrainerSnapshot {
            next_episode: 1,
            step_counter: 2,
            update_counter: 3,
            trainer_rng: [1, 2, 3, 4],
            env_rng: vec![5, 6, 7, 8],
            recorder: Recorder::new(),
            telemetry: None,
            workers: Some(WorkerStates {
                rngs: vec![vec![5, 6, 7, 8], vec![9, 10, 11, 12]],
                last_options: vec![vec![0, 2], vec![1, 1]],
            }),
            team_sections: Vec::new(),
        };
        let back = TrainerSnapshot::from_sections(&snap.to_sections()).unwrap();
        assert_eq!(back.workers, snap.workers);
    }

    #[test]
    fn store_rotates_and_retains_last_k() {
        let dir = temp_dir("rotate");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        for i in 0..5u8 {
            assert!(store.save(&dummy_sections(i), &FaultPlan::none()));
        }
        let files = list_checkpoints(&dir).unwrap();
        assert_eq!(files.len(), 2, "retention must prune to K");
        assert_eq!(files[0].0, 3);
        assert_eq!(files[1].0, 4);
        // Numbering continues after reopening.
        let store2 = CheckpointStore::open(&dir, 2).unwrap();
        assert_eq!(store2.next_index(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_latest_falls_back_past_corruption() {
        let dir = temp_dir("fallback");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.save(&dummy_sections(1), &FaultPlan::none());
        store.save(&dummy_sections(2), &FaultPlan::none());
        // Corrupt the newest file.
        let files = list_checkpoints(&dir).unwrap();
        let newest = &files.last().unwrap().1;
        let bytes = std::fs::read(newest).unwrap();
        std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

        let loaded = load_latest(&dir).unwrap().expect("older checkpoint valid");
        assert_eq!(loaded.index, 0);
        assert_eq!(loaded.corrupt_skipped, 1);
        assert_eq!(loaded.sections[0].1, vec![1u8; 64]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_latest_falls_back_past_multiple_consecutive_corrupt_files() {
        let dir = temp_dir("multifallback");
        let mut store = CheckpointStore::open(&dir, 4).unwrap();
        for tag in 1..=4u8 {
            store.save(&dummy_sections(tag), &FaultPlan::none());
        }
        // Corrupt the newest THREE files, each a different way: truncation,
        // a CRC-breaking bit flip, and outright garbage.
        let files = list_checkpoints(&dir).unwrap();
        assert_eq!(files.len(), 4);
        let bytes = std::fs::read(&files[3].1).unwrap();
        std::fs::write(&files[3].1, &bytes[..bytes.len() / 2]).unwrap();
        hero_faultplan::corrupt_file(&files[2].1, hero_faultplan::CorruptMode::BitFlip).unwrap();
        std::fs::write(&files[1].1, b"not a checkpoint").unwrap();

        let loaded = load_latest(&dir).unwrap().expect("oldest checkpoint still valid");
        assert_eq!(loaded.index, 0);
        assert_eq!(loaded.corrupt_skipped, 3, "every newer corrupt file is counted");
        assert_eq!(loaded.sections[0].1, vec![1u8; 64]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_latest_yields_none_when_every_file_is_corrupt() {
        let dir = temp_dir("allcorrupt");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        for tag in 1..=2u8 {
            store.save(&dummy_sections(tag), &FaultPlan::none());
        }
        for (_, path) in list_checkpoints(&dir).unwrap() {
            std::fs::write(path, b"garbage").unwrap();
        }
        assert!(load_latest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_faults_retry_then_succeed_or_drop() {
        let dir = temp_dir("iofault");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        // Transient fault on save 0: first attempt fails, retry succeeds.
        let plan = FaultPlan::parse("io-err@save:0").unwrap();
        assert!(store.save(&dummy_sections(1), &plan));
        // Persistent fault on save 1: all attempts fail, save drops.
        let plan = FaultPlan::parse("io-err@save:1:persistent").unwrap();
        assert!(!store.save(&dummy_sections(2), &plan));
        // Training would continue; the next save works again.
        assert!(store.save(&dummy_sections(3), &FaultPlan::none()));
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.index, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retry_budget_is_configurable_and_backoff_can_be_disabled() {
        let dir = temp_dir("retrycfg");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.set_backoff_base_ms(0); // deterministic AND free of wall-clock cost
        // One attempt only: a transient first-attempt fault now drops the
        // save instead of being retried away.
        store.set_max_attempts(1);
        let plan = FaultPlan::parse("io-err@save:0").unwrap();
        let t0 = std::time::Instant::now();
        assert!(!store.save(&dummy_sections(1), &plan));
        // Five attempts: a fault injected on attempts 0..4 would still fail,
        // but the plain transient fault (attempt 0 only) succeeds on retry.
        store.set_max_attempts(5);
        let plan = FaultPlan::parse("io-err@save:1").unwrap();
        assert!(store.save(&dummy_sections(2), &plan));
        // disk-full is persistent: even five attempts end in a counted drop.
        let plan = FaultPlan::parse("disk-full@save:2").unwrap();
        assert!(!store.save(&dummy_sections(3), &plan));
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "zero-base backoff must not sleep through retries"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_dir_loads_none() {
        let dir = temp_dir("empty");
        assert!(load_latest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
    }
}
