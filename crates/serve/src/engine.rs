//! The micro-batching serving engine.
//!
//! Requests arrive as [`ScoreBatch`]es / [`TopK`]s on the calling thread;
//! their sessions are enqueued individually and **coalesced across
//! requests** by a pool of scoring workers: a worker drains up to
//! [`EngineConfig::max_batch`] sessions per forward, waiting at most
//! [`EngineConfig::flush_deadline_us`] for stragglers to fill the batch
//! (the classic latency/throughput knob of batched inference servers).
//!
//! The engine's queue is the only queue on the serving path. It owns
//! admission ([`EngineConfig::queue_cap`]), deadline shedding
//! ([`SubmitOptions::deadline_us`]) and the backlog a closing engine hands
//! back. Besides the blocking calls, an [`EngineHandle`] (the handle
//! that `serve` lends its master closure) offers a non-blocking
//! [`EngineHandle::enqueue`] of [`Job`]s, each carrying its own reply
//! sink: a front end (the `embsr-net` router) clones the handle, pushes
//! sessions straight into the queue from its own threads, and collects
//! the [`SessionReply`]s with [`gather_replies`].
//!
//! Model weights cross threads as the flat snapshot inside a
//! [`FrozenModel`]; each worker rebuilds a private replica from a
//! constructor closure plus the snapshot (tensors are `Rc`-backed and
//! cannot be shared). Latency and batch-occupancy histograms are recorded
//! through `embsr_obs` when telemetry is enabled.
//!
//! When request tracing is active ([`embsr_obs::trace::set_enabled`] plus
//! a trace-level sink), every request opens a root span
//! (`score_request` / `top_k_request`) whose [`TraceCtx`] rides inside
//! each queued [`Job`]; the scoring worker stamps the batch lifecycle on
//! the shared monotonic clock and emits `queue_wait`, `batch_assembly`
//! and `scoring` child spans per job, so the per-request timeline is
//! reconstructable offline from the JSONL sink. With tracing off the
//! whole machinery costs one relaxed atomic load per request and per
//! batch.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use embsr_obs::trace::{self, TraceCtx};
use embsr_obs::Stopwatch;
use embsr_pool::run_with_workers;
use embsr_sessions::Session;
use embsr_train::SessionModel;

use crate::api::{top_k_of_row, ScoreBatch, ScoreResponse, TopK, TopKResponse};
use crate::cache::{CacheStats, ReprCache};
use crate::frozen::FrozenModel;
use crate::snapshot::{self, DecodedSnapshot, Precision};

/// Histogram of end-to-end request latency in microseconds.
pub const METRIC_REQUEST_LATENCY_US: &str = "serve.request_latency_us";
/// Histogram of sessions per scored micro-batch (batch occupancy).
pub const METRIC_BATCH_SESSIONS: &str = "serve.batch_sessions";
/// Counter of sessions scored by the engine.
pub const METRIC_SESSIONS_SCORED: &str = "serve.sessions_scored";
/// Histogram of queue depth (sessions waiting) sampled after each
/// request's enqueue — its p95/max expose backlog tails that the latency
/// quantiles alone hide.
pub const METRIC_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Counter of requests rejected at admission because the queue was over
/// [`EngineConfig::queue_cap`] (only requests submitted with
/// [`SubmitOptions::shed`] are ever rejected).
pub const METRIC_REJECTED: &str = "serve.rejected";
/// Counter of sessions shed by a worker because their request's deadline
/// expired while they waited in the queue.
pub const METRIC_DEADLINE_EXPIRED: &str = "serve.deadline_expired";
/// Counter of per-worker replica rebuilds triggered by snapshot
/// activation ([`EngineHandle::activate`]); `workers` increments per swap.
pub const METRIC_SNAPSHOT_SWAPS: &str = "serve.snapshot_swaps";

/// Tuning knobs of the micro-batching engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of scoring worker threads (each holds a model replica).
    pub workers: usize,
    /// Maximum sessions coalesced into one batched forward.
    pub max_batch: usize,
    /// How long a worker holds an underfull batch open for stragglers,
    /// in microseconds, before flushing it anyway.
    pub flush_deadline_us: u64,
    /// Admission bound: sessions allowed to wait in the queue before a
    /// shedding submit ([`SubmitOptions::shed`]) is rejected with
    /// [`ServeError::Overloaded`]. Non-shedding submits ignore the cap.
    pub queue_cap: usize,
    /// Entry capacity of the session-repr cache shared by this engine's
    /// workers; `0` (the default) disables caching. When on, every
    /// session's representation ([`SessionModel::repr_infer`]) is cached.
    pub repr_cache: usize,
    /// Version tag of the snapshot the engine starts serving; responses
    /// carry the tag of the snapshot that scored them.
    pub initial_version: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            max_batch: 32,
            flush_deadline_us: 500,
            queue_cap: usize::MAX,
            repr_cache: 0,
            initial_version: 1,
        }
    }
}

/// Per-request admission and deadline knobs for the fallible submit paths
/// ([`EngineHandle::try_score`] / [`EngineHandle::try_top_k`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Microseconds the request may spend queued before a worker sheds it
    /// with [`ServeError::DeadlineExpired`] instead of scoring it. `0`
    /// means no deadline.
    pub deadline_us: u64,
    /// Reject at admission (with [`ServeError::Overloaded`]) when the queue
    /// already holds [`EngineConfig::queue_cap`] or more sessions, instead
    /// of enqueueing unconditionally.
    pub shed: bool,
}

/// Why a fallible submit did not produce scores. `Overloaded` and
/// `DeadlineExpired` are *load* conditions, not bugs: callers are expected
/// to back off and retry (`Overloaded`) or give up on the stale request
/// (`DeadlineExpired`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control turned the request away: the queue already held
    /// `queued` sessions against a cap of `cap`.
    Overloaded { queued: usize, cap: usize },
    /// The request waited `waited_us` in the queue, past its deadline, and
    /// was shed by the scoring worker without being scored.
    DeadlineExpired { waited_us: u64 },
    /// No reply will come: the engine was closed (killed, shut down, or a
    /// scoring worker died) before it scored the request, or the reply
    /// outlived the caller's stall bound ([`gather_replies`]).
    Unavailable,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, cap } => {
                write!(f, "overloaded: {queued} session(s) queued, cap {cap}")
            }
            ServeError::DeadlineExpired { waited_us } => {
                write!(f, "deadline expired after {waited_us}us in queue")
            }
            ServeError::Unavailable => write!(f, "no reply: engine closed or reply stalled"),
        }
    }
}

/// Why a control-plane call ([`EngineHandle::stage_snapshot`] /
/// [`EngineHandle::activate`]) was refused. All variants leave serving
/// untouched: a bad snapshot can never reach a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapError {
    /// [`EngineHandle::activate`] named a version that was never staged.
    UnknownVersion(u64),
    /// The staged snapshot's weight count does not match the serving
    /// model's parameter layout.
    WrongLayout { expected: usize, got: usize },
    /// The snapshot bytes failed to decode (`EMBSRSNP` framing).
    Malformed(String),
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::UnknownVersion(v) => write!(f, "version {v} was never staged"),
            SwapError::WrongLayout { expected, got } => {
                write!(f, "snapshot has {got} weights, model expects {expected}")
            }
            SwapError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

/// Point-in-time control-plane view of one engine ([`EngineHandle::status`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStatus {
    /// Version currently scoring new batches.
    pub active_version: u64,
    /// Every staged version (including the active one), ascending.
    pub staged: Vec<u64>,
    /// Session-repr cache counters (all zero when the cache is disabled).
    pub cache: CacheStats,
}

/// The staged-snapshot registry shared by an engine's workers: versions
/// accumulate under the mutex, activation atomically flips `active` and
/// bumps `epoch`, and workers compare `epoch` against their local copy
/// between batches — the flip itself never blocks scoring.
struct ModelBank {
    versions: Mutex<BTreeMap<u64, Arc<DecodedSnapshot>>>,
    /// Version new batches must score under.
    active: AtomicU64,
    /// Bumped on every activation; workers rebuild when it moves.
    epoch: AtomicU64,
    /// Flat weight count of the serving model's layout; staging validates
    /// against it so a wrong-architecture snapshot is refused up front.
    expected_weights: usize,
}

impl ModelBank {
    fn new(initial_version: u64, initial: DecodedSnapshot) -> ModelBank {
        let expected_weights = initial.weights.len();
        let mut versions = BTreeMap::new();
        versions.insert(initial_version, Arc::new(initial));
        ModelBank {
            versions: Mutex::new(versions),
            active: AtomicU64::new(initial_version),
            epoch: AtomicU64::new(0),
            expected_weights,
        }
    }

    fn lock_versions(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<DecodedSnapshot>>> {
        match self.versions.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn stage(&self, version: u64, snap: DecodedSnapshot) -> Result<(), SwapError> {
        if snap.weights.len() != self.expected_weights {
            return Err(SwapError::WrongLayout {
                expected: self.expected_weights,
                got: snap.weights.len(),
            });
        }
        self.lock_versions().insert(version, Arc::new(snap));
        Ok(())
    }

    fn activate(&self, version: u64) -> Result<(), SwapError> {
        let versions = self.lock_versions();
        if !versions.contains_key(&version) {
            return Err(SwapError::UnknownVersion(version));
        }
        // Both stores happen under the versions lock, so a worker that
        // observes the new epoch and then calls `active_state` (which takes
        // the same lock) is guaranteed to see this activation or a later one.
        // ordering: SeqCst — the flip must totally order against workers'
        // epoch loads; a weaker pair could let a worker read the new epoch
        // but a stale active version without the lock round trip.
        self.active.store(version, Ordering::SeqCst);
        // ordering: SeqCst — published after `active` so epoch movement
        // implies the new active version is visible.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn active_version(&self) -> u64 {
        // ordering: SeqCst — pairs with the store in `activate`.
        self.active.load(Ordering::SeqCst)
    }

    fn epoch(&self) -> u64 {
        // ordering: SeqCst — pairs with the bump in `activate`.
        self.epoch.load(Ordering::SeqCst)
    }

    /// The consistent (epoch, version, snapshot) triple workers rebuild
    /// from; taken under the versions lock so the three never tear.
    fn active_state(&self) -> (u64, u64, Arc<DecodedSnapshot>) {
        let versions = self.lock_versions();
        let epoch = self.epoch();
        let version = self.active_version();
        let snap = versions
            .get(&version)
            .cloned()
            // The active version is always a key: activation checks under
            // the same lock and staged versions are never removed.
            .unwrap_or_else(|| {
                Arc::new(DecodedSnapshot {
                    weights: Vec::new(),
                    max_session_len: 0,
                    precision: Precision::F32,
                })
            });
        (epoch, version, snap)
    }

    fn staged_versions(&self) -> Vec<u64> {
        self.lock_versions().keys().copied().collect()
    }
}

/// One session's outcome, sent to the reply sink its [`Job`] carries;
/// [`gather_replies`] reassembles a request from them.
pub struct SessionReply {
    /// The session's position in the caller's request.
    slot: usize,
    /// Snapshot version that scored (or shed) the session; `0` for an
    /// empty session, which is answered without scoring.
    model_version: u64,
    /// The full score row, or why the session was shed.
    row: Result<Vec<f32>, ServeError>,
}

/// One session bound for an engine queue ([`EngineHandle::enqueue`]). It
/// carries everything a worker needs to answer it, so a job taken out of a
/// closing engine ([`EngineHandle::close`]) can be enqueued into another
/// engine as is.
pub struct Job {
    /// The session to score; routers shard on its `id`.
    pub session: Session,
    /// Position inside the originating request.
    slot: usize,
    /// Where the [`SessionReply`] goes.
    reply: Sender<SessionReply>,
    /// Queue-wait budget in microseconds (`0` = none): workers shed the job
    /// unscored once `enqueued` exceeds it.
    deadline_us: u64,
    /// Started when the job was created; re-queueing keeps counting.
    enqueued: Stopwatch,
    /// Trace context of the originating request ([`TraceCtx::NONE`] when
    /// tracing was inactive at submit time).
    trace: TraceCtx,
    /// [`trace::now_us`] at creation (0 when untraced); start of the job's
    /// `queue_wait` phase.
    enqueued_us: u64,
}

impl Job {
    /// A job for the session at `slot` of a request, answered on `reply`.
    /// Its `deadline_us` budget (`0` = none) counts from now. When `ctx`
    /// is live and tracing is on, the worker emits the job's
    /// `queue_wait` / `batch_assembly` / `scoring` spans under it.
    pub fn new(
        slot: usize,
        session: Session,
        deadline_us: u64,
        ctx: TraceCtx,
        reply: &Sender<SessionReply>,
    ) -> Job {
        let traced = !ctx.is_none() && trace::active();
        Job {
            session,
            slot,
            reply: reply.clone(),
            deadline_us,
            enqueued: Stopwatch::start(),
            trace: ctx,
            enqueued_us: if traced { trace::now_us() } else { 0 },
        }
    }

    fn answer(self, model_version: u64, row: Result<Vec<f32>, ServeError>) {
        // A receiver gone away just means the caller bailed out; drop the
        // row rather than failing the worker.
        let _ = self.reply.send(SessionReply {
            slot: self.slot,
            model_version,
            row,
        });
    }
}

/// An [`EngineHandle::enqueue`] that took nothing: the reason, plus the
/// jobs handed back untouched (a router re-routes them when the engine is
/// closed).
pub struct Refused {
    /// [`ServeError::Overloaded`] from admission, or
    /// [`ServeError::Unavailable`] when the engine is closed.
    pub error: ServeError,
    /// The caller's jobs, in order.
    pub jobs: Vec<Job>,
}

/// Waits for the replies to sessions `0..n` on `replies` and reassembles
/// the rows by slot, tagged with the newest contributing snapshot version
/// (a request can straddle an activation). The first shed session fails
/// the whole request; replies for its other sessions go to a dropped
/// receiver, which workers tolerate. Fails with
/// [`ServeError::Unavailable`] once every sender is gone with replies
/// missing (the jobs were dropped unscored by a closing engine), or when
/// the wait outlasts `stall_us` (`0` = no bound).
pub fn gather_replies(
    replies: &Receiver<SessionReply>,
    n: usize,
    stall_us: u64,
) -> Result<(Vec<Vec<f32>>, u64), ServeError> {
    let stall = Stopwatch::start();
    let mut rows: Vec<Vec<f32>> = vec![Vec::new(); n];
    let mut model_version = 0u64;
    for _ in 0..n {
        let reply = if stall_us == 0 {
            replies.recv().ok()
        } else {
            let left = stall_us.saturating_sub(stall.elapsed_us());
            replies.recv_timeout(Duration::from_micros(left)).ok()
        };
        let reply = reply.ok_or(ServeError::Unavailable)?;
        rows[reply.slot] = reply.row?;
        model_version = model_version.max(reply.model_version);
    }
    Ok((rows, model_version))
}

/// Queue state shared between clients and the workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    arrivals: Condvar,
    /// Cleared, under the queue lock, when the engine closes; the queue of
    /// a closed engine is empty and stays empty.
    open: AtomicBool,
    /// Fault injection: artificial latency in front of every job, µs.
    fault_delay_us: AtomicU64,
    /// Staged snapshot versions + the active flip (hot-swap control plane).
    bank: ModelBank,
    /// Session-repr cache, when [`EngineConfig::repr_cache`] > 0.
    cache: Option<ReprCache>,
}

fn lock(shared: &Shared) -> MutexGuard<'_, VecDeque<Job>> {
    match shared.queue.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Shared {
    fn is_open(&self) -> bool {
        // ordering: SeqCst — pairs with the store in `close`; a reader that
        // sees the engine open may still race the close, which enqueue
        // re-checks under the queue lock.
        self.open.load(Ordering::SeqCst)
    }

    fn fault_delay_us(&self) -> u64 {
        // ordering: Relaxed — a fault-injection knob; no data rides on it.
        self.fault_delay_us.load(Ordering::Relaxed)
    }

    /// Closes the engine and takes its unscored backlog. Closing and
    /// draining happen under one hold of the queue lock, so no job can
    /// slip in between; every later enqueue is refused.
    fn close(&self) -> Vec<Job> {
        let backlog: Vec<Job> = {
            let mut q = lock(self);
            // ordering: SeqCst — the close must totally order against the
            // workers' loads in `next_batch` and enqueue's check, both made
            // under this lock; nothing weaker is worth reasoning out here.
            self.open.store(false, Ordering::SeqCst);
            q.drain(..).collect()
        };
        self.arrivals.notify_all();
        backlog
    }
}

/// Owned, cloneable handle for submitting requests to a running engine
/// (see [`serve`]); cloning is cheap (an `Arc`), and any thread may hold
/// one — this is how a front end on other threads reaches the engine.
///
/// The blocking calls wait until every session of the request is scored;
/// sessions from concurrent callers coalesce into shared micro-batches.
/// Empty sessions carry no evidence to score and are answered inline with
/// an empty row (no recommendations for [`EngineHandle::top_k`]) — they
/// never reach a scoring worker, so a malformed request cannot take the
/// engine down. Once the engine closes, every submit fails with
/// [`ServeError::Unavailable`].
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
    cfg: EngineConfig,
}

impl EngineHandle {
    /// Scores the full vocabulary for each session of the request.
    pub fn score(&self, req: ScoreBatch) -> ScoreResponse {
        // Infallible by construction: no deadline, no shedding.
        self.try_score(req, SubmitOptions::default())
            .unwrap_or_default()
    }

    /// Scores a request under explicit admission/deadline control: the
    /// request is rejected up front when the queue is over
    /// [`EngineConfig::queue_cap`] (if `opts.shed`), and any session still
    /// queued past `opts.deadline_us` is shed by the workers, failing the
    /// request with [`ServeError::DeadlineExpired`].
    pub fn try_score(&self, req: ScoreBatch, opts: SubmitOptions) -> Result<ScoreResponse, ServeError> {
        let root = trace::root("score_request");
        let (scores, model_version) = self.submit(req.sessions, root.ctx(), opts)?;
        Ok(ScoreResponse {
            scores,
            model_version,
        })
    }

    /// Returns the `k` best items per session of the request.
    pub fn top_k(&self, req: TopK) -> TopKResponse {
        // Infallible by construction: no deadline, no shedding.
        self.try_top_k(req, SubmitOptions::default())
            .unwrap_or_default()
    }

    /// [`EngineHandle::top_k`] under explicit admission/deadline control (see
    /// [`EngineHandle::try_score`]).
    pub fn try_top_k(&self, req: TopK, opts: SubmitOptions) -> Result<TopKResponse, ServeError> {
        let root = trace::root("top_k_request");
        let (rows, model_version) = self.submit(req.sessions, root.ctx(), opts)?;
        let _select = trace::child(root.ctx(), "top_k");
        Ok(TopKResponse {
            items: rows.iter().map(|row| top_k_of_row(row, req.k)).collect(),
            model_version,
        })
    }

    /// Stages serialized `EMBSRSNP` snapshot bytes under `version` without
    /// touching live scoring; flip to it later with [`EngineHandle::activate`].
    /// Staging an already-staged version replaces it (it only takes effect
    /// on the next activation).
    pub fn stage_snapshot(&self, version: u64, bytes: &[u8]) -> Result<(), SwapError> {
        let _span = embsr_obs::span("embsr_serve", "stage_snapshot");
        let dec = snapshot::decode_snapshot(bytes)
            .map_err(|e| SwapError::Malformed(e.to_string()))?;
        self.shared.bank.stage(version, dec)
    }

    /// Atomically makes a staged `version` the one scoring new batches.
    /// In-flight batches finish under the version they started with (their
    /// responses are tagged accordingly); no request is dropped or drained.
    pub fn activate(&self, version: u64) -> Result<(), SwapError> {
        let _span = embsr_obs::span("embsr_serve", "activate");
        self.shared.bank.activate(version)
    }

    /// Control-plane snapshot: active/staged versions + cache counters.
    pub fn status(&self) -> EngineStatus {
        let _span = embsr_obs::span("embsr_serve", "engine_status")
            .with_close_level(embsr_obs::Level::Trace);
        EngineStatus {
            active_version: self.shared.bank.active_version(),
            staged: self.shared.bank.staged_versions(),
            cache: self
                .shared
                .cache
                .as_ref()
                .map(ReprCache::stats)
                .unwrap_or_default(),
        }
    }

    /// Pushes `jobs` into the queue without waiting for them; each answer
    /// arrives on its job's reply sink (collect them with
    /// [`gather_replies`]). With `shed`, the whole call is refused with
    /// [`ServeError::Overloaded`] when the queue already holds
    /// [`EngineConfig::queue_cap`] sessions. A closed engine refuses with
    /// [`ServeError::Unavailable`]. Either way the jobs come back in the
    /// [`Refused`].
    pub fn enqueue(&self, jobs: Vec<Job>, shed: bool) -> Result<(), Refused> {
        let depth = {
            let mut q = lock(&self.shared);
            if !self.shared.is_open() {
                return Err(Refused {
                    error: ServeError::Unavailable,
                    jobs,
                });
            }
            if shed && q.len() >= self.cfg.queue_cap {
                let queued = q.len();
                drop(q);
                if embsr_obs::metrics::enabled() {
                    embsr_obs::metrics::counter(METRIC_REJECTED).inc();
                }
                return Err(Refused {
                    error: ServeError::Overloaded {
                        queued,
                        cap: self.cfg.queue_cap,
                    },
                    jobs,
                });
            }
            for job in jobs {
                if job.session.is_empty() {
                    // Answered inline (see the type docs): workers assume
                    // non-empty sessions.
                    job.answer(0, Ok(Vec::new()));
                } else {
                    q.push_back(job);
                }
            }
            q.len()
        };
        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::histogram(METRIC_QUEUE_DEPTH).record(depth as u64);
        }
        self.shared.arrivals.notify_all();
        Ok(())
    }

    /// Whether the engine still takes work.
    pub fn is_open(&self) -> bool {
        self.shared.is_open()
    }

    /// Closes the engine and returns its unscored backlog, for the caller
    /// to enqueue elsewhere or drop (a dropped job fails its request with
    /// [`ServeError::Unavailable`]). Batches already scoring finish and
    /// answer normally; the workers then exit. Idempotent.
    pub fn close(&self) -> Vec<Job> {
        let _span = embsr_obs::span("embsr_serve", "engine_close");
        self.shared.close()
    }

    /// Fault injection: makes every worker take queued jobs one at a time
    /// and sleep `delay_us` before each job's deadline check, so the
    /// backlog builds in the queue admission inspects. `0` heals.
    pub fn set_fault_delay_us(&self, delay_us: u64) {
        // ordering: Relaxed — a fault-injection knob; workers pick it up
        // on their next batch, no data rides on it.
        self.shared
            .fault_delay_us
            .store(delay_us, Ordering::Relaxed);
    }

    fn submit(
        &self,
        sessions: Vec<Session>,
        ctx: TraceCtx,
        opts: SubmitOptions,
    ) -> Result<(Vec<Vec<f32>>, u64), ServeError> {
        let n = sessions.len();
        let watch = Stopwatch::start();
        let (reply, replies) = std::sync::mpsc::channel();
        let jobs = sessions
            .into_iter()
            .enumerate()
            .map(|(slot, session)| Job::new(slot, session, opts.deadline_us, ctx, &reply))
            .collect();
        self.enqueue(jobs, opts.shed)
            .map_err(|refused| refused.error)?;
        drop(reply);
        let (rows, model_version) = gather_replies(&replies, n, 0)?;
        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::histogram(METRIC_REQUEST_LATENCY_US).record(watch.elapsed_us());
        }
        // Only empty sessions: nothing scored, tag the current version.
        let model_version = match model_version {
            0 => self.shared.bank.active_version(),
            v => v,
        };
        Ok((rows, model_version))
    }
}

/// Drains the next micro-batch, or `None` once the engine has closed.
fn next_batch(shared: &Shared, cfg: &EngineConfig) -> Option<Vec<Job>> {
    let flush = Duration::from_micros(cfg.flush_deadline_us);
    let mut q = lock(shared);
    // Every wait re-checks `open` under the lock `close` stores it under,
    // so a close can never be missed between the check and the wait.
    while shared.is_open() {
        let Some(oldest) = q.front() else {
            q = match shared.arrivals.wait(q) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            continue;
        };
        // A delayed replica (fault injection) takes its jobs one at a time.
        let take = if shared.fault_delay_us() > 0 {
            1
        } else {
            cfg.max_batch.max(1)
        };
        let waited = oldest.enqueued.elapsed();
        if q.len() >= take || waited >= flush {
            let n = q.len().min(take);
            return Some(q.drain(..n).collect());
        }
        // Hold the batch open for stragglers, but never past the flush
        // deadline of its oldest session.
        q = match shared.arrivals.wait_timeout(q, flush - waited) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
    None
}

/// Closes the engine when dropped, dropping any backlog unscored.
///
/// The master holds one, so the engine closes on *every* exit from the
/// master closure — a master panic unwinds through [`run_with_workers`]'
/// `catch_unwind` and then blocks in `thread::scope` joining workers,
/// which would otherwise wait in [`next_batch`] forever. Every worker
/// holds one too, so a worker that dies mid-batch closes the engine: its
/// queued jobs are dropped, their callers see [`ServeError::Unavailable`]
/// instead of waiting on a queue nobody drains, and a router stops
/// sending it work.
struct ShutdownGuard<'a>(&'a Shared);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        drop(self.0.close());
    }
}

/// Runs a micro-batching serving engine for the duration of `master`.
///
/// `cfg.workers` scoring threads each build a private model replica with
/// `factory()` and load `frozen`'s weight snapshot into it; `master` runs
/// on the calling thread with an [`EngineHandle`] for submitting requests. When
/// `master` returns, the engine closes, the workers exit, and the master's
/// value is returned.
///
/// # Panics
/// Re-raises worker panics (e.g. a scoring failure), as
/// [`run_with_workers`] does; master panics shut the workers down before
/// propagating, so the engine never hangs on a panicking closure.
pub fn serve<M, F, R>(
    frozen: &FrozenModel<M>,
    factory: F,
    cfg: EngineConfig,
    master: impl FnOnce(&EngineHandle) -> R,
) -> R
where
    M: SessionModel,
    F: Fn() -> M + Sync,
{
    let _engine_span = embsr_obs::span("embsr_serve", "serve");
    let tier = frozen.tier();
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        arrivals: Condvar::new(),
        open: AtomicBool::new(true),
        fault_delay_us: AtomicU64::new(0),
        bank: ModelBank::new(
            cfg.initial_version,
            DecodedSnapshot {
                weights: frozen.snapshot().to_vec(),
                max_session_len: frozen.max_session_len(),
                precision: frozen.precision(),
            },
        ),
        cache: if cfg.repr_cache > 0 {
            Some(ReprCache::new(cfg.repr_cache))
        } else {
            None
        },
    });
    run_with_workers(
        cfg.workers.max(1),
        |_worker_id| {
            let _close_if_dying = ShutdownGuard(&shared);
            // replicas score on the master's kernel tier (snapshots are
            // already quantized, so weights match the master bitwise)
            let (mut local_epoch, mut local_version, snap) = shared.bank.active_state();
            let mut replica =
                FrozenModel::from_snapshot(factory(), &snap.weights, snap.max_session_len);
            replica.set_tier(tier);
            drop(snap);
            while let Some(batch) = next_batch(&shared, &cfg) {
                let delay_us = shared.fault_delay_us();
                if delay_us > 0 {
                    // Fault injection: a slow replica. Sleeping *before* the
                    // deadline check turns the injected latency into
                    // observable `DeadlineExpired` errors, not silent
                    // slowness.
                    std::thread::sleep(Duration::from_micros(delay_us));
                }
                // Hot-swap seam: rebuild this replica when an activation
                // moved the epoch since the last batch. The batch drained
                // above scores under the *new* version; batches drained
                // before the flip finished under the old one — either way
                // each reply is tagged with the version that scored it.
                if shared.bank.epoch() != local_epoch {
                    let (epoch, version, snap) = shared.bank.active_state();
                    if replica
                        .swap_snapshot(&snap.weights, snap.max_session_len, snap.precision)
                        .is_ok()
                    {
                        // Layout is validated at stage time, so the swap
                        // only fails on an impossible bank inconsistency —
                        // in which case the replica keeps serving the old
                        // weights rather than corrupting state.
                        local_version = version;
                        if embsr_obs::metrics::enabled() {
                            embsr_obs::metrics::counter(METRIC_SNAPSHOT_SWAPS).inc();
                        }
                    }
                    local_epoch = epoch;
                }
                let tracing = trace::active();
                let drained_us = if tracing { trace::now_us() } else { 0 };
                // Shed jobs whose queue-wait budget ran out before this
                // drain: scoring them would spend forward-pass time on
                // answers their callers have already written off.
                let mut live = Vec::with_capacity(batch.len());
                for job in batch {
                    let waited_us = job.enqueued.elapsed_us();
                    if job.deadline_us != 0 && waited_us >= job.deadline_us {
                        if embsr_obs::metrics::enabled() {
                            embsr_obs::metrics::counter(METRIC_DEADLINE_EXPIRED).inc();
                        }
                        if tracing && job.enqueued_us != 0 {
                            trace::emit_span(job.trace, "queue_wait", job.enqueued_us, drained_us);
                        }
                        job.answer(
                            local_version,
                            Err(ServeError::DeadlineExpired { waited_us }),
                        );
                    } else {
                        live.push(job);
                    }
                }
                if live.is_empty() {
                    continue;
                }
                let sessions: Vec<Session> = live.iter().map(|j| j.session.clone()).collect();
                let assembled_us = if tracing { trace::now_us() } else { 0 };
                let rows = match &shared.cache {
                    Some(cache) => replica.score_batch_cached(&sessions, cache, local_version),
                    None => replica.score_batch(&sessions),
                };
                let scored_us = if tracing { trace::now_us() } else { 0 };
                if embsr_obs::metrics::enabled() {
                    embsr_obs::metrics::histogram(METRIC_BATCH_SESSIONS)
                        .record(live.len() as u64);
                    embsr_obs::metrics::counter(METRIC_SESSIONS_SCORED).add(live.len() as u64);
                }
                let mut traced = Vec::new();
                for (job, row) in live.into_iter().zip(rows) {
                    if tracing && job.enqueued_us != 0 {
                        traced.push((job.trace, job.enqueued_us));
                    }
                    job.answer(local_version, Ok(row));
                }
                // One shared batch timeline, attributed to every request
                // that rode in it; emitted after the replies so trace I/O
                // never delays a caller.
                for (ctx, enqueued_us) in traced {
                    trace::emit_span(ctx, "queue_wait", enqueued_us, drained_us);
                    trace::emit_span(ctx, "batch_assembly", drained_us, assembled_us);
                    trace::emit_span(ctx, "scoring", assembled_us, scored_us);
                }
            }
        },
        |_signal| {
            let _shutdown = ShutdownGuard(&shared);
            let client = EngineHandle {
                shared: Arc::clone(&shared),
                cfg,
            };
            master(&client)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{sess, ToyModel};

    fn frozen(n: usize, seed: u64) -> FrozenModel<ToyModel> {
        FrozenModel::freeze(ToyModel::new(n, seed), 32)
    }

    #[test]
    fn engine_scores_match_direct_frozen_scores() {
        let f = frozen(9, 4);
        let sessions: Vec<Session> = (0..23).map(|i| sess(&[i % 9, (i + 2) % 9])).collect();
        let want = f.score_batch(&sessions);
        let cfg = EngineConfig {
            workers: 3,
            max_batch: 4,
            flush_deadline_us: 200,
            ..EngineConfig::default()
        };
        let got = serve(&f, || ToyModel::new(9, 0), cfg, |client| {
            client
                .score(ScoreBatch {
                    sessions: sessions.clone(),
                })
                .scores
        });
        assert_eq!(got, want, "micro-batched rows must be bitwise-identical");
    }

    #[test]
    fn top_k_requests_are_served() {
        let f = frozen(6, 1);
        let got = serve(
            &f,
            || ToyModel::new(6, 0),
            EngineConfig::default(),
            |client| {
                client.top_k(TopK {
                    sessions: vec![sess(&[1]), sess(&[2, 3])],
                    k: 2,
                })
            },
        );
        assert_eq!(got.items.len(), 2);
        for recs in &got.items {
            assert_eq!(recs.len(), 2);
            assert!(recs[0].score >= recs[1].score);
        }
    }

    #[test]
    fn empty_request_returns_immediately() {
        let f = frozen(4, 2);
        let got = serve(
            &f,
            || ToyModel::new(4, 0),
            EngineConfig::default(),
            |client| client.score(ScoreBatch::default()),
        );
        assert!(got.scores.is_empty());
    }

    #[test]
    fn single_worker_underfull_batches_flush_on_deadline() {
        let f = frozen(5, 3);
        let cfg = EngineConfig {
            workers: 1,
            max_batch: 64, // never fills: the deadline must flush
            flush_deadline_us: 100,
            ..EngineConfig::default()
        };
        let sessions = vec![sess(&[0]), sess(&[1]), sess(&[2])];
        let want = f.score_batch(&sessions);
        let got = serve(&f, || ToyModel::new(5, 0), cfg, |client| {
            client
                .score(ScoreBatch {
                    sessions: sessions.clone(),
                })
                .scores
        });
        assert_eq!(got, want);
    }

    #[test]
    fn master_panic_shuts_workers_down_instead_of_hanging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let f = frozen(4, 6);
        // Without the ShutdownGuard this test never returns: the pool
        // catches the master panic, then blocks joining workers that wait
        // for a shutdown notification nobody will send.
        let err = catch_unwind(AssertUnwindSafe(|| {
            serve(
                &f,
                || ToyModel::new(4, 0),
                EngineConfig::default(),
                |client| {
                    let _ = client.score(ScoreBatch {
                        sessions: vec![sess(&[1, 2])],
                    });
                    panic!("master bailed mid-serve");
                },
            )
        }))
        .expect_err("master panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("master bailed"), "wrong panic surfaced: {msg}");
    }

    #[test]
    fn empty_sessions_are_answered_inline_without_reaching_workers() {
        let f = frozen(6, 9);
        let valid = sess(&[2, 4]);
        let want = f.score_batch(std::slice::from_ref(&valid));
        let (scores, recs, later) = serve(
            &f,
            || ToyModel::new(6, 0),
            EngineConfig::default(),
            |client| {
                let scores = client.score(ScoreBatch {
                    sessions: vec![sess(&[]), valid.clone(), sess(&[])],
                });
                let recs = client.top_k(TopK {
                    sessions: vec![sess(&[])],
                    k: 3,
                });
                // The engine must still be fully alive afterwards.
                let later = client.score(ScoreBatch {
                    sessions: vec![valid.clone()],
                });
                (scores, recs, later)
            },
        );
        assert_eq!(scores.scores.len(), 3);
        assert!(scores.scores[0].is_empty());
        assert_eq!(scores.scores[1], want[0]);
        assert!(scores.scores[2].is_empty());
        assert_eq!(recs.items, vec![Vec::new()]);
        assert_eq!(later.scores, want);
    }

    #[test]
    fn shedding_submit_is_rejected_when_the_queue_is_over_cap() {
        let f = frozen(5, 11);
        let cfg = EngineConfig {
            workers: 1,
            max_batch: 4,
            flush_deadline_us: 200,
            queue_cap: 0, // every shedding submit sees a full queue
            ..EngineConfig::default()
        };
        let got = serve(&f, || ToyModel::new(5, 0), cfg, |client| {
            let opts = SubmitOptions {
                shed: true,
                ..SubmitOptions::default()
            };
            let rejected = client.try_score(
                ScoreBatch {
                    sessions: vec![sess(&[1])],
                },
                opts,
            );
            // A non-shedding submit ignores the cap entirely.
            let accepted = client.try_score(
                ScoreBatch {
                    sessions: vec![sess(&[1])],
                },
                SubmitOptions::default(),
            );
            (rejected, accepted)
        });
        assert_eq!(got.0, Err(ServeError::Overloaded { queued: 0, cap: 0 }));
        let accepted = got.1.expect("non-shedding submit must be admitted");
        assert_eq!(accepted.scores.len(), 1);
        assert!(!accepted.scores[0].is_empty());
    }

    #[test]
    fn queued_past_deadline_is_shed_not_scored() {
        let f = frozen(5, 13);
        let cfg = EngineConfig {
            workers: 1,
            // A huge flush deadline with an unfillable batch keeps the job
            // queued long past its 1us budget.
            max_batch: 64,
            flush_deadline_us: 20_000,
            ..EngineConfig::default()
        };
        let got = serve(&f, || ToyModel::new(5, 0), cfg, |client| {
            client.try_score(
                ScoreBatch {
                    sessions: vec![sess(&[2])],
                },
                SubmitOptions {
                    deadline_us: 1,
                    shed: false,
                },
            )
        });
        match got {
            Err(ServeError::DeadlineExpired { waited_us }) => {
                assert!(waited_us >= 1, "shed job must report its queue wait");
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_still_scores_bitwise_identically() {
        let f = frozen(6, 17);
        let sessions = vec![sess(&[1, 2]), sess(&[3])];
        let want = f.score_batch(&sessions);
        let got = serve(
            &f,
            || ToyModel::new(6, 0),
            EngineConfig::default(),
            |client| {
                client.try_score(
                    ScoreBatch {
                        sessions: sessions.clone(),
                    },
                    SubmitOptions {
                        deadline_us: 60_000_000,
                        shed: true,
                    },
                )
            },
        );
        assert_eq!(got.expect("well within deadline").scores, want);
    }

    #[test]
    fn sequential_requests_reuse_the_running_engine() {
        let f = frozen(7, 8);
        let want_a = f.score_batch(&[sess(&[1, 2])]);
        let want_b = f.score_batch(&[sess(&[3])]);
        let (got_a, got_b) = serve(
            &f,
            || ToyModel::new(7, 0),
            EngineConfig::default(),
            |client| {
                let a = client.score(ScoreBatch {
                    sessions: vec![sess(&[1, 2])],
                });
                let b = client.score(ScoreBatch {
                    sessions: vec![sess(&[3])],
                });
                (a.scores, b.scores)
            },
        );
        assert_eq!(got_a, want_a);
        assert_eq!(got_b, want_b);
    }

    #[test]
    fn hot_swap_retags_and_rescores_without_drain() {
        let f_a = frozen(5, 4);
        let f_b = frozen(5, 5);
        let sessions = vec![sess(&[1, 2]), sess(&[3])];
        let want_a = f_a.score_batch(&sessions);
        let want_b = f_b.score_batch(&sessions);
        assert_ne!(want_a, want_b, "the two seeds must score differently");
        let bytes =
            snapshot::encode_snapshot(f_b.snapshot(), f_b.max_session_len(), Precision::F32);
        let (before, after) = serve(
            &f_a,
            || ToyModel::new(5, 4),
            EngineConfig::default(),
            |client| {
                let before = client.score(ScoreBatch {
                    sessions: sessions.clone(),
                });
                client.stage_snapshot(2, &bytes).expect("stage");
                client.activate(2).expect("activate");
                let after = client.score(ScoreBatch {
                    sessions: sessions.clone(),
                });
                (before, after)
            },
        );
        assert_eq!(before.scores, want_a);
        assert_eq!(before.model_version, 1);
        assert_eq!(after.scores, want_b);
        assert_eq!(after.model_version, 2);
    }

    #[test]
    fn control_plane_rejects_bad_snapshots_and_keeps_serving() {
        let f = frozen(5, 11);
        let wrong = FrozenModel::freeze(ToyModel::new(7, 1), 32);
        let wrong_bytes = snapshot::encode_snapshot(wrong.snapshot(), 32, Precision::F32);
        let got = serve(
            &f,
            || ToyModel::new(5, 11),
            EngineConfig::default(),
            |client| {
                let malformed = client.stage_snapshot(2, b"not a snapshot");
                let layout = client.stage_snapshot(2, &wrong_bytes);
                let unknown = client.activate(9);
                let healthy = client.score(ScoreBatch {
                    sessions: vec![sess(&[1])],
                });
                (malformed, layout, unknown, healthy)
            },
        );
        assert!(matches!(got.0, Err(SwapError::Malformed(_))), "{:?}", got.0);
        assert!(
            matches!(got.1, Err(SwapError::WrongLayout { .. })),
            "{:?}",
            got.1
        );
        assert_eq!(got.2, Err(SwapError::UnknownVersion(9)));
        assert_eq!(got.3.model_version, 1, "rejections must not move the tag");
        assert_eq!(got.3.scores.len(), 1);
    }

    #[test]
    fn status_reports_active_and_staged_versions() {
        let f = frozen(5, 3);
        let bytes = snapshot::encode_snapshot(f.snapshot(), f.max_session_len(), Precision::F32);
        let (s0, s1, s2) = serve(
            &f,
            || ToyModel::new(5, 3),
            EngineConfig::default(),
            |client| {
                let s0 = client.status();
                client.stage_snapshot(7, &bytes).expect("stage");
                let s1 = client.status();
                client.activate(7).expect("activate");
                let s2 = client.status();
                (s0, s1, s2)
            },
        );
        assert_eq!(s0.active_version, 1);
        assert_eq!(s0.staged, vec![1]);
        assert_eq!(s0.cache, crate::CacheStats::default(), "cache off by default");
        assert_eq!(s1.active_version, 1);
        assert_eq!(s1.staged, vec![1, 7]);
        assert_eq!(s2.active_version, 7);
    }

    #[test]
    fn repr_cache_keeps_scores_bitwise_and_records_hits() {
        let f = FrozenModel::freeze(ToyModel::new(6, 9), 32);
        let sessions = vec![sess(&[1, 2]), sess(&[3, 4]), sess(&[1, 2])];
        let want = f.score_batch(&sessions);
        let cfg = EngineConfig {
            repr_cache: 64,
            ..EngineConfig::default()
        };
        let (cold, warm, status) = serve(
            &f,
            || ToyModel::new(6, 9),
            cfg,
            |client| {
                let cold = client.score(ScoreBatch {
                    sessions: sessions.clone(),
                });
                let warm = client.score(ScoreBatch {
                    sessions: sessions.clone(),
                });
                (cold, warm, client.status())
            },
        );
        for got in [&cold.scores, &warm.scores] {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.len(), w.len());
                for (a, b) in g.iter().zip(w) {
                    assert_eq!(a.to_bits(), b.to_bits(), "cached row must be bitwise");
                }
            }
        }
        // the warm pass alone replays three sessions whose reprs are resident
        assert!(status.cache.hits >= 3, "expected warm hits: {:?}", status.cache);
        assert!(status.cache.entries >= 1);
    }

    #[test]
    fn closed_engine_hands_its_backlog_to_another_engine() {
        let f = frozen(6, 21);
        let sessions = vec![sess(&[1, 2]), sess(&[3])];
        let want = f.score_batch(&sessions);
        // An unfillable batch held open far longer than the test runs:
        // enqueued jobs stay queued until the close takes them out.
        let held = EngineConfig {
            workers: 1,
            max_batch: 64,
            flush_deadline_us: 60_000_000,
            ..EngineConfig::default()
        };
        let (rows, version, late) = serve(&f, || ToyModel::new(6, 0), held, |a| {
            serve(&f, || ToyModel::new(6, 0), EngineConfig::default(), |b| {
                let (reply, replies) = std::sync::mpsc::channel();
                let jobs = sessions
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(|(slot, s)| Job::new(slot, s, 0, TraceCtx::NONE, &reply))
                    .collect();
                assert!(a.enqueue(jobs, false).is_ok(), "open engine takes the jobs");
                drop(reply);
                let backlog = a.close();
                assert_eq!(backlog.len(), 2, "the unscored backlog comes back");
                assert!(!a.is_open());
                let refused = a.enqueue(backlog, false).expect_err("closed engine refuses");
                assert_eq!(refused.error, ServeError::Unavailable);
                assert!(b.enqueue(refused.jobs, false).is_ok());
                let (rows, version) = gather_replies(&replies, 2, 0).expect("b answers a's jobs");
                let late = a.try_score(
                    ScoreBatch {
                        sessions: sessions.clone(),
                    },
                    SubmitOptions::default(),
                );
                (rows, version, late)
            })
        });
        assert_eq!(rows, want, "re-queued jobs answer on their original sink");
        assert_eq!(version, 1);
        assert_eq!(late, Err(ServeError::Unavailable));
    }

    #[test]
    fn worker_panic_closes_the_engine_instead_of_stranding_requests() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let f = frozen(4, 2);
        let cfg = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        };
        let seen = Mutex::new(None);
        let err = catch_unwind(AssertUnwindSafe(|| {
            serve(&f, || ToyModel::new(4, 0), cfg, |client| {
                // Item 9 is outside the 4-item vocabulary: the scoring
                // worker panics mid-batch.
                let got = client.try_score(
                    ScoreBatch {
                        sessions: vec![sess(&[9])],
                    },
                    SubmitOptions::default(),
                );
                *seen.lock().unwrap_or_else(|e| e.into_inner()) = Some((got, client.is_open()));
            })
        }));
        assert!(err.is_err(), "the worker panic propagates out of serve");
        let seen = seen.into_inner().unwrap_or_else(|e| e.into_inner());
        assert_eq!(seen, Some((Err(ServeError::Unavailable), false)));
    }
}
