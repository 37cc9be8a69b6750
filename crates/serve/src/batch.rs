//! The micro-batching dispatcher.
//!
//! Connection threads enqueue one [`Pending`] per `POST /act` request
//! onto an unbounded channel. A single dispatcher thread drains it in
//! waves: the first request opens a batch, and the batch closes when it
//! reaches `max_batch` rows or when `deadline` elapses since it opened —
//! whichever comes first. Each wave snapshots the current policy `Arc`
//! once (so a hot-reload mid-wave affects the *next* wave, never a
//! half-computed one), groups rows by agent, and runs ONE inference-only
//! batched forward per agent through a [`TensorPool`] arena that stays
//! warm across waves. Results fan back out over per-request reply
//! channels.
//!
//! The deadline is a latency bound on coalescing, not on inference: an
//! idle server answers a lone request after at most `deadline` of
//! waiting, while a saturated server fills batches instantly and the
//! deadline never fires. `max_batch = 1` degenerates to request-at-a-
//! time dispatch — the baseline the serving benchmark compares against.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, RecvTimeoutError, Sender};
use hero_autograd::TensorPool;
use parking_lot::RwLock;

use crate::policy::ServePolicy;

/// Dispatcher tuning: how long and how wide a batch may grow.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Maximum rows coalesced into one forward pass (≥ 1).
    pub max_batch: usize,
    /// Longest a batch waits for more rows after its first arrival.
    pub deadline: Duration,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            max_batch: 32,
            deadline: Duration::from_micros(2000),
        }
    }
}

/// What the dispatcher answers a request with.
#[derive(Debug, Clone)]
pub struct InferReply {
    /// Greedy option index (argmax of the logits, first max wins).
    pub option: usize,
    /// Raw option logits for the request's row.
    pub logits: Vec<f32>,
    /// Checkpoint index of the policy that served the row.
    pub checkpoint: u64,
    /// Rows in the batch this request rode in (batch occupancy).
    pub batch_rows: usize,
}

/// One queued request.
pub struct Pending {
    /// Agent index the observation belongs to.
    pub agent: usize,
    /// Observation row.
    pub obs: Vec<f32>,
    /// When the request was enqueued (for queue-wait telemetry).
    pub enqueued: Instant,
    /// Where the dispatcher sends the outcome.
    pub reply: Sender<Result<InferReply, String>>,
}

/// Monotonic serving counters, shared by the dispatcher, the HTTP
/// handlers, and `GET /stats`. Plain atomics — readable without the
/// telemetry plane so tests and scripts can assert on them directly.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests accepted onto the queue.
    pub requests: AtomicU64,
    /// Requests answered with logits.
    pub completed: AtomicU64,
    /// Requests answered with an error (bad row, unknown agent, timeout).
    pub errors: AtomicU64,
    /// Forward-pass waves dispatched.
    pub batches: AtomicU64,
    /// Total rows across all waves (mean occupancy = rows / batches).
    pub rows_batched: AtomicU64,
    /// Largest wave dispatched so far.
    pub max_batch_rows: AtomicU64,
    /// Requests currently queued (enqueued, not yet dispatched).
    pub queue_depth: AtomicU64,
    /// Successful hot-reloads.
    pub reloads: AtomicU64,
    /// Refused hot-reloads (corrupt registry, fast-math checkpoint, ...).
    pub reload_rejected: AtomicU64,
}

impl ServeStats {
    fn update_max(&self, rows: u64) {
        self.max_batch_rows.fetch_max(rows, Ordering::Relaxed);
    }
}

/// Handle to the dispatcher thread; dropping it drains the channel and
/// joins the thread.
pub struct Batcher {
    tx: Option<Sender<Pending>>,
    handle: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Spawns the dispatcher against a hot-swappable policy slot.
    pub fn start(
        policy: Arc<RwLock<Arc<ServePolicy>>>,
        opts: BatchOptions,
        stats: Arc<ServeStats>,
    ) -> Batcher {
        let (tx, rx) = channel::unbounded::<Pending>();
        let opts = BatchOptions {
            max_batch: opts.max_batch.max(1),
            ..opts
        };
        let handle = std::thread::Builder::new()
            .name("hero-serve-batch".into())
            .spawn(move || {
                let mut pool = TensorPool::new();
                loop {
                    let first = match rx.recv() {
                        Ok(p) => p,
                        // Every sender dropped: server shutting down.
                        Err(_) => return,
                    };
                    let mut batch = vec![first];
                    if opts.max_batch > 1 {
                        let deadline = Instant::now() + opts.deadline;
                        while batch.len() < opts.max_batch {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            match rx.recv_timeout(deadline - now) {
                                Ok(p) => batch.push(p),
                                Err(RecvTimeoutError::Timeout) => break,
                                // Serve what we already coalesced, then exit
                                // on the next recv.
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                    }
                    dispatch_wave(&policy, &stats, &mut pool, batch);
                }
            })
            .expect("spawning the dispatcher thread");
        Batcher {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// A sender connection threads enqueue requests on.
    pub fn sender(&self) -> Sender<Pending> {
        self.tx.as_ref().expect("batcher is running").clone()
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Runs one coalesced wave: snapshot the policy, group rows by agent,
/// one batched forward per agent, fan results out.
fn dispatch_wave(
    policy: &RwLock<Arc<ServePolicy>>,
    stats: &ServeStats,
    pool: &mut TensorPool,
    batch: Vec<Pending>,
) {
    let rows = batch.len() as u64;
    stats.queue_depth.fetch_sub(rows, Ordering::Relaxed);
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.rows_batched.fetch_add(rows, Ordering::Relaxed);
    stats.update_max(rows);
    hero_rl::telemetry::counter_add("serve/batches", 1);
    hero_rl::telemetry::live_observe("live/serve/batch_occupancy", rows as f64);
    hero_rl::telemetry::gauge_set(
        "live/serve/queue_depth",
        stats.queue_depth.load(Ordering::Relaxed) as f64,
    );
    for p in &batch {
        let waited_us = p.enqueued.elapsed().as_secs_f64() * 1e6;
        hero_rl::telemetry::live_observe("live/serve/queue_us", waited_us);
    }

    // The Arc snapshot is the hot-reload atomicity contract: every row
    // of this wave is served by the same policy version.
    let policy: Arc<ServePolicy> = policy.read().clone();

    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut rejected: Vec<(usize, String)> = Vec::new();
    for (i, p) in batch.iter().enumerate() {
        if p.agent >= policy.n_agents() {
            rejected.push((
                i,
                format!("unknown agent {} (policy has {})", p.agent, policy.n_agents()),
            ));
        } else if p.obs.len() != policy.obs_dim() {
            rejected.push((
                i,
                format!(
                    "observation has {} values, policy expects {}",
                    p.obs.len(),
                    policy.obs_dim()
                ),
            ));
        } else {
            groups.entry(p.agent).or_default().push(i);
        }
    }
    for (i, msg) in rejected {
        stats.errors.fetch_add(1, Ordering::Relaxed);
        hero_rl::telemetry::counter_add("serve/errors", 1);
        let _ = batch[i].reply.send(Err(msg));
    }
    let batch_rows = batch.len();
    for (agent, idxs) in groups {
        let obs_rows: Vec<&[f32]> = idxs.iter().map(|&i| batch[i].obs.as_slice()).collect();
        let logits = policy.infer(agent, &obs_rows, pool);
        for (&i, row_logits) in idxs.iter().zip(logits) {
            let option = argmax(&row_logits);
            stats.completed.fetch_add(1, Ordering::Relaxed);
            let _ = batch[i].reply.send(Ok(InferReply {
                option,
                logits: row_logits,
                checkpoint: policy.checkpoint(),
                batch_rows,
            }));
        }
    }
}

/// Index of the largest logit; ties resolve to the first maximum, the
/// same convention as the trainer's greedy selection.
fn argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}
