//! The HTTP surface of the serving daemon.
//!
//! Routes (all bodies are single-line JSON objects, parseable by
//! [`hero_telemetry::emit::parse_json_object`]):
//!
//! * `POST /act` — `{"agent": 0, "obs": "0.1 -0.2 ..."}` → the request
//!   joins the current micro-batch and answers
//!   `{"option": N, "logits": "...", "checkpoint": N, "batch": N}`.
//! * `POST /reload` — atomically swap in the newest valid checkpoint
//!   from the registry; 409 with the typed error text when the newest
//!   valid checkpoint refuses to load (e.g. a fast-math checkpoint) or the
//!   registry is empty. The old policy keeps serving either way.
//! * `POST /shutdown` — ask the process to exit ([`HeroServer::wait`]
//!   returns); used by CI for clean teardown.
//! * `GET /info` — policy metadata (dims, checkpoint, kernel mode).
//! * `GET /stats` — raw serving counters (occupancy, queue, reloads).
//! * `GET /metrics`, `GET /snapshot` — the live telemetry registry in
//!   Prometheus / JSONL form, when a registry is attached.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel;
use hero_autograd::CheckpointError;
use hero_telemetry::emit::{self, JsonValue};
use hero_telemetry::http::{serve_http, Handler, HttpServer, Request, Response};
use hero_telemetry::registry::Registry;
use parking_lot::RwLock;

use crate::batch::{BatchOptions, Batcher, Pending, ServeStats};
use crate::policy::ServePolicy;

/// How a server failed to start or reload.
#[derive(Debug)]
pub enum ServeError {
    /// Bind or socket error.
    Io(io::Error),
    /// The newest valid checkpoint refused to load.
    Checkpoint(CheckpointError),
    /// The registry directory holds no loadable checkpoint.
    NoCheckpoint(PathBuf),
    /// Hot-reload was requested on a policy with no backing registry.
    NoRegistry,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint refused: {e}"),
            ServeError::NoCheckpoint(dir) => {
                write!(f, "no loadable checkpoint in {}", dir.display())
            }
            ServeError::NoRegistry => {
                write!(f, "synthetic policy: no checkpoint registry to reload from")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

/// Server configuration.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:9600`; port `0` for ephemeral).
    pub addr: String,
    /// Checkpoint registry directory (`None` only with `synthetic`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Serve a randomly initialised `(obs_dim, hidden, n_agents)` policy
    /// instead of a checkpoint (benchmarks).
    pub synthetic: Option<(usize, usize, usize)>,
    /// Seed for the synthetic policy's weights.
    pub synthetic_seed: u64,
    /// Micro-batching bounds.
    pub batch: BatchOptions,
    /// Telemetry registry to expose on `/metrics` + `/snapshot`.
    pub registry: Option<Arc<Registry>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            checkpoint_dir: None,
            synthetic: None,
            synthetic_seed: 0,
            batch: BatchOptions::default(),
            registry: None,
        }
    }
}

/// A running serving daemon. Dropping it stops the listener, drains the
/// dispatcher, and joins both threads.
pub struct HeroServer {
    // Field order is drop order: stop accepting connections first, then
    // let the dispatcher drain.
    http: HttpServer,
    _batcher: Batcher,
    policy: Arc<RwLock<Arc<ServePolicy>>>,
    stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    checkpoint_dir: Option<PathBuf>,
}

/// Longest a connection thread waits for its micro-batch to answer.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Loads the initial policy and starts the dispatcher and listener.
///
/// # Errors
///
/// [`ServeError::NoCheckpoint`] when the registry is empty,
/// [`ServeError::Checkpoint`] when the newest valid checkpoint refuses
/// to load, [`ServeError::Io`] on bind failure.
pub fn start(cfg: ServeConfig) -> Result<HeroServer, ServeError> {
    let initial = match (cfg.synthetic, &cfg.checkpoint_dir) {
        (Some((obs, hidden, agents)), _) => {
            ServePolicy::synthetic(obs, hidden, agents, cfg.synthetic_seed)
        }
        (None, Some(dir)) => ServePolicy::load_newest(dir)?
            .ok_or_else(|| ServeError::NoCheckpoint(dir.clone()))?
            .0,
        (None, None) => return Err(ServeError::NoCheckpoint(PathBuf::from("<unset>"))),
    };
    let policy = Arc::new(RwLock::new(Arc::new(initial)));
    let stats = Arc::new(ServeStats::default());
    let batcher = Batcher::start(Arc::clone(&policy), cfg.batch, Arc::clone(&stats));
    let shutdown = Arc::new(AtomicBool::new(false));

    let route_policy = Arc::clone(&policy);
    let route_stats = Arc::clone(&stats);
    let route_shutdown = Arc::clone(&shutdown);
    let route_dir = cfg.checkpoint_dir.clone();
    let route_registry = cfg.registry.clone();
    let submit = batcher.sender();
    let max_batch = cfg.batch.max_batch.max(1);
    // Recorded once, so `hero-inspect doctor` can judge the occupancy
    // histogram against the bound it was allowed to reach.
    hero_rl::telemetry::gauge_set("live/serve/max_batch", max_batch as f64);
    let handler: Handler = Arc::new(move |req: &Request| {
        route(
            req,
            &route_policy,
            &route_stats,
            &route_shutdown,
            route_dir.as_deref(),
            route_registry.as_deref(),
            &submit,
            max_batch,
        )
    });
    let http = serve_http(&cfg.addr, "hero-serve", handler)?;
    Ok(HeroServer {
        http,
        _batcher: batcher,
        policy,
        stats,
        shutdown,
        checkpoint_dir: cfg.checkpoint_dir,
    })
}

impl HeroServer {
    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Serving counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Checkpoint index currently being served.
    pub fn checkpoint(&self) -> u64 {
        self.policy.read().checkpoint()
    }

    /// Attempts a hot-reload from the registry, exactly as
    /// `POST /reload` does.
    ///
    /// # Errors
    ///
    /// See [`reload_policy`].
    pub fn reload(&self) -> Result<(u64, usize), ServeError> {
        reload_policy(&self.policy, &self.stats, self.checkpoint_dir.as_deref())
    }

    /// Blocks until `POST /shutdown` is received (or
    /// [`HeroServer::request_shutdown`] is called).
    pub fn wait(&self) {
        while !self.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Asks [`HeroServer::wait`] to return.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Swaps the policy slot to the newest valid checkpoint. In-flight
/// waves hold their own `Arc` snapshot, so the swap never affects a
/// request already dispatched; a refused checkpoint leaves the slot
/// untouched and the old policy serving.
fn reload_policy(
    slot: &RwLock<Arc<ServePolicy>>,
    stats: &ServeStats,
    dir: Option<&std::path::Path>,
) -> Result<(u64, usize), ServeError> {
    let Some(dir) = dir else {
        stats.reload_rejected.fetch_add(1, Ordering::Relaxed);
        hero_rl::telemetry::counter_add("serve/reload_rejected", 1);
        return Err(ServeError::NoRegistry);
    };
    let outcome = match ServePolicy::load_newest(dir) {
        Ok(Some((policy, corrupt_skipped))) => {
            let index = policy.checkpoint();
            *slot.write() = Arc::new(policy);
            Ok((index, corrupt_skipped))
        }
        Ok(None) => Err(ServeError::NoCheckpoint(dir.to_path_buf())),
        Err(e) => Err(ServeError::Checkpoint(e)),
    };
    match &outcome {
        Ok(_) => {
            stats.reloads.fetch_add(1, Ordering::Relaxed);
            hero_rl::telemetry::counter_add("serve/reloads", 1);
        }
        Err(_) => {
            stats.reload_rejected.fetch_add(1, Ordering::Relaxed);
            hero_rl::telemetry::counter_add("serve/reload_rejected", 1);
        }
    }
    outcome
}

#[allow(clippy::too_many_arguments)]
fn route(
    req: &Request,
    policy: &RwLock<Arc<ServePolicy>>,
    stats: &ServeStats,
    shutdown: &AtomicBool,
    dir: Option<&std::path::Path>,
    registry: Option<&Registry>,
    submit: &channel::Sender<Pending>,
    max_batch: usize,
) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/act") => act(req, stats, submit),
        ("POST", "/reload") => match reload_policy(policy, stats, dir) {
            Ok((checkpoint, corrupt_skipped)) => Response::ok(format!(
                "{{\"reloaded\":true,\"checkpoint\":{checkpoint},\
                 \"corrupt_skipped\":{corrupt_skipped}}}\n"
            ))
            .content_type("application/json"),
            Err(e) => Response::with_status(
                409,
                format!("{{\"reloaded\":false,\"error\":\"{}\"}}\n", emit::escape_json(&e.to_string())),
            )
            .content_type("application/json"),
        },
        ("POST", "/shutdown") => {
            shutdown.store(true, Ordering::Relaxed);
            Response::ok("shutting down\n")
        }
        ("GET", "/info") => {
            let p = policy.read().clone();
            Response::ok(format!(
                "{{\"obs_dim\":{},\"agents\":{},\"options\":{},\"checkpoint\":{},\
                 \"kernel_mode\":\"{}\",\"max_batch\":{max_batch}}}\n",
                p.obs_dim(),
                p.n_agents(),
                p.n_options(),
                p.checkpoint(),
                hero_autograd::kernel_mode()
            ))
            .content_type("application/json")
        }
        ("GET", "/stats") => {
            let batches = stats.batches.load(Ordering::Relaxed);
            let rows = stats.rows_batched.load(Ordering::Relaxed);
            let mean_occupancy = if batches == 0 {
                0.0
            } else {
                rows as f64 / batches as f64
            };
            Response::ok(format!(
                "{{\"requests\":{},\"completed\":{},\"errors\":{},\"batches\":{batches},\
                 \"rows_batched\":{rows},\"mean_occupancy\":{mean_occupancy:.4},\
                 \"max_batch_rows\":{},\"queue_depth\":{},\"reloads\":{},\
                 \"reload_rejected\":{},\"checkpoint\":{}}}\n",
                stats.requests.load(Ordering::Relaxed),
                stats.completed.load(Ordering::Relaxed),
                stats.errors.load(Ordering::Relaxed),
                stats.max_batch_rows.load(Ordering::Relaxed),
                stats.queue_depth.load(Ordering::Relaxed),
                stats.reloads.load(Ordering::Relaxed),
                stats.reload_rejected.load(Ordering::Relaxed),
                policy.read().checkpoint(),
            ))
            .content_type("application/json")
        }
        ("GET", "/metrics") => match registry {
            Some(r) => Response::ok(emit::to_prometheus(&r.snapshot()))
                .content_type("text/plain; version=0.0.4; charset=utf-8"),
            None => Response::with_status(404, "no telemetry registry attached\n"),
        },
        ("GET", "/snapshot") => match registry {
            Some(r) => Response::ok(emit::to_jsonl(&r.snapshot())),
            None => Response::with_status(404, "no telemetry registry attached\n"),
        },
        ("GET", "/") => Response::ok(
            "hero-serve policy daemon\n\
             POST /act       {\"agent\":0,\"obs\":\"f f f ...\"} -> option + logits\n\
             POST /reload    swap in the newest valid checkpoint\n\
             POST /shutdown  clean exit\n\
             GET  /info      policy metadata\n\
             GET  /stats     serving counters\n\
             GET  /metrics   Prometheus exposition (when telemetry attached)\n",
        ),
        (_, path) => Response::with_status(404, format!("no route for {path}\n")),
    }
}

/// `POST /act`: parse, enqueue, park until the micro-batch answers.
fn act(req: &Request, stats: &ServeStats, submit: &channel::Sender<Pending>) -> Response {
    let started = Instant::now();
    let body = String::from_utf8_lossy(&req.body);
    let fields = match emit::parse_json_object(body.trim()) {
        Ok(f) => f,
        Err(e) => {
            return Response::with_status(400, format!("malformed request body: {e}\n"));
        }
    };
    let agent = match fields.get("agent").map(JsonValue::as_f64) {
        None => 0,
        Some(Some(x)) if x >= 0.0 && x.fract() == 0.0 => x as usize,
        _ => return Response::with_status(400, "\"agent\" must be a non-negative integer\n"),
    };
    let Some(obs_str) = fields.get("obs").and_then(JsonValue::as_str) else {
        return Response::with_status(
            400,
            "missing \"obs\": expected a string of space-separated floats\n",
        );
    };
    let mut obs = Vec::new();
    for tok in obs_str.split([' ', ',']).filter(|t| !t.is_empty()) {
        match tok.parse::<f32>() {
            Ok(v) if v.is_finite() => obs.push(v),
            _ => {
                return Response::with_status(
                    400,
                    format!("bad observation value {tok:?}: expected a finite float\n"),
                );
            }
        }
    }

    stats.requests.fetch_add(1, Ordering::Relaxed);
    hero_rl::telemetry::counter_add("serve/requests", 1);
    let (reply_tx, reply_rx) = channel::bounded(1);
    stats.queue_depth.fetch_add(1, Ordering::Relaxed);
    let pending = Pending {
        agent,
        obs,
        enqueued: Instant::now(),
        reply: reply_tx,
    };
    if submit.send(pending).is_err() {
        stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
        stats.errors.fetch_add(1, Ordering::Relaxed);
        return Response::with_status(503, "dispatcher is shut down\n");
    }
    match reply_rx.recv_timeout(REPLY_TIMEOUT) {
        Ok(Ok(reply)) => {
            let latency_us = started.elapsed().as_secs_f64() * 1e6;
            hero_rl::telemetry::live_observe("live/serve/latency_us", latency_us);
            let logits: Vec<String> = reply.logits.iter().map(f32::to_string).collect();
            Response::ok(format!(
                "{{\"option\":{},\"logits\":\"{}\",\"checkpoint\":{},\"batch\":{}}}\n",
                reply.option,
                logits.join(" "),
                reply.checkpoint,
                reply.batch_rows
            ))
            .content_type("application/json")
        }
        Ok(Err(msg)) => {
            Response::with_status(400, format!("{}\n", msg))
        }
        Err(_) => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            Response::with_status(503, "inference timed out\n")
        }
    }
}
