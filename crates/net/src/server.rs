//! The sharded serving front end: a TCP accept loop fronting N engine
//! replicas behind a rendezvous-hash router.
//!
//! ```text
//! conn reader ──┬─ Hello/HelloAck (inline)
//!               └─▶ conn workers ──decode──▶ router ──(session shard)──▶ replica 0 engine queue ─▶ engine workers
//!      ▲                            │                                    replica 1 engine queue ─▶ ...
//!      └──reassemble (+ top-k)──────┴─ per-session replies via mpsc
//! ```
//!
//! Each replica is its own [`serve`] micro-batching engine rebuilt from
//! the shared weight snapshot. The router shards a request's sessions by
//! session id and pushes each replica's slice straight into that engine's
//! queue ([`EngineHandle::enqueue`](embsr_serve::EngineHandle::enqueue)); the engine
//! is the only queue on the path, so concurrent requests coalesce into
//! its micro-batches. Every session answers on the request's own reply
//! channel and the connection worker reassembles rows by slot (and
//! selects top-k there), which is score-safe because every replica holds
//! bitwise-identical weights (pinned by `tests/net_equivalence.rs`). A
//! replica's thread only hosts its engine: it stays parked in `serve`'s
//! master closure until the replica is killed or the server shuts down.
//!
//! **Connection multiplexing (protocol v2).** Every connection runs a
//! reader thread plus [`ServerConfig::conn_workers`] request workers:
//! the reader demultiplexes incoming frames into a per-connection queue,
//! workers process requests concurrently, and whole-frame writes are
//! serialized on a write lock — so one connection can carry many requests
//! in flight, completing out of order (responses are keyed by request id).
//! `Hello` handshakes are answered inline by the reader so negotiation
//! never queues behind scoring. Responses echo the *request frame's*
//! protocol version, so a v1 peer never sees a v2 header and needs no
//! handshake at all.
//!
//! **Control plane (protocol v2).** `Control` frames carry the
//! zero-downtime snapshot lifecycle, applied by the connection worker on
//! every open replica's engine in turn, without admission: `LoadSnapshot`
//! stages an `EMBSRSNP` blob, `Activate` atomically flips scoring to a
//! staged version with no drain — in-flight batches finish under the
//! version that scored them and every response is tagged with it — and
//! `Status` reports per-replica active/staged versions plus session-repr
//! cache counters.
//!
//! **Failure semantics** (exercised by the fault-injection suite):
//!
//! * *Replica death* ([`Server::kill_replica`]) — the replica's engine is
//!   closed and drained under its queue lock (no new work can slip in),
//!   its unscored backlog is re-routed to the open replicas via the
//!   rendezvous hash over the reduced set, and its thread is joined.
//!   Batches it was already scoring complete normally: zero wrong
//!   answers, and the only error responses are the bounded set that
//!   could not be re-homed. A replica whose scoring worker dies closes
//!   itself the same way, minus the re-route: its requests fail
//!   `Unavailable` and the router stops sending it work.
//! * *Overload* — a shedding request whose target engine already holds
//!   [`EngineConfig::queue_cap`] queued sessions is refused with a typed
//!   `Overloaded` error, never silently dropped; the server counts every
//!   rejection so load generators can reconcile their observed rejection
//!   rate exactly. Re-routes never shed.
//! * *Deadline expiry* — the client's `deadline_us` budget rides the wire
//!   into each session's engine job; a worker sheds a job whose budget
//!   lapsed in the queue. A slow replica
//!   ([`Server::set_replica_delay_us`]) therefore produces timely
//!   `DeadlineExpired` errors, not hangs.
//! * *Shutdown* ([`Server::shutdown`] or drop) — closes every engine,
//!   fails queued work with `Unavailable`, and joins the accept loop,
//!   every connection handler, and every replica: no thread outlives the
//!   handle.
//!
//! A request whose replies stop coming for `REQUEST_STALL_CEILING_US`
//! fails `Unavailable` rather than pinning its connection worker.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use embsr_obs::trace::{self, TraceCtx};
use embsr_obs::{metrics, Stopwatch};
use embsr_serve::{
    gather_replies, serve, top_k_of_row, EngineConfig, EngineHandle, FrozenModel, Job, KernelTier,
    ScoreResponse, ServeError, TopKResponse,
};
use embsr_train::SessionModel;

use crate::frame::{self, Frame, FrameError, FrameKind, VERSION, VERSION_V1};
use crate::shard;
use crate::wire::{
    self, ControlReply, ControlRequest, NetError, Request, RequestEnvelope, Response, ServerStatus,
};

/// Counter of requests received by connection handlers.
pub const METRIC_NET_REQUESTS: &str = "net.requests";
/// Counter of requests refused by admission control.
pub const METRIC_NET_REJECTED: &str = "net.rejected";
/// Counter of sessions re-routed off a dead replica.
pub const METRIC_NET_REROUTED: &str = "net.rerouted_sessions";
/// Counter of control-plane commands processed.
pub const METRIC_NET_CONTROL: &str = "net.control_requests";
/// Histogram of server-side request latency (decode → response written),
/// in microseconds.
pub const METRIC_NET_LATENCY_US: &str = "net.request_latency_us";

/// A request stuck longer than this (e.g. a replica wedged mid-batch) is
/// failed as `Unavailable` rather than pinning its handler forever.
const REQUEST_STALL_CEILING_US: u64 = 60_000_000;

/// Tuning knobs of the networked server.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Engine replicas (each its own snapshot rebuild + worker pool).
    pub replicas: usize,
    /// Request workers per connection: the per-connection concurrency
    /// ceiling of the multiplexed protocol (a pipelining client can keep
    /// this many requests of one connection in flight at once).
    pub conn_workers: usize,
    /// Per-replica engine configuration. Its
    /// [`queue_cap`](EngineConfig::queue_cap) is the admission bound:
    /// sessions allowed to wait in one replica's queue before a
    /// *shedding* request is refused.
    pub engine: EngineConfig,
    /// Socket read timeout; also the shutdown polling cadence of idle
    /// connection handlers.
    pub read_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            replicas: 2,
            conn_workers: 8,
            engine: EngineConfig {
                queue_cap: 64,
                ..EngineConfig::default()
            },
            read_timeout_ms: 20,
        }
    }
}

/// Point-in-time request accounting, exact (not sampled). The admission
/// tests reconcile `rejected` against client-observed `Overloaded`
/// responses one-for-one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered with scores/recommendations.
    pub completed: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Sessions re-homed off a dead replica.
    pub rerouted_sessions: u64,
    /// Requests failed because their deadline budget lapsed.
    pub deadline_expired: u64,
    /// Requests failed because no replica could answer.
    pub unavailable: u64,
    /// Requests whose payload did not decode.
    pub bad_requests: u64,
    /// Control-plane commands received (snapshot staging/activation and
    /// status probes).
    pub control: u64,
}

/// Poison-tolerant lock for plain data (a panicked peer cannot leave a
/// socket guard or receiver structurally broken).
fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // lock: recover from poisoning — the protected state is still sound.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct Inner {
    /// One engine per replica, indexed like the shard router's alive mask.
    engines: Vec<EngineHandle>,
    shutdown: AtomicBool,
    conn_workers: usize,
    read_timeout_ms: u64,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    completed: AtomicU64,
    rejected: AtomicU64,
    rerouted: AtomicU64,
    deadline_expired: AtomicU64,
    unavailable: AtomicU64,
    bad_requests: AtomicU64,
    control: AtomicU64,
}

impl Inner {
    fn is_shutdown(&self) -> bool {
        // ordering: SeqCst — pairs with the store in `begin_shutdown`; a
        // handler woken by the shutdown self-connect must observe the flag
        // or it would go back to sleep and never be joined.
        self.shutdown.load(Ordering::SeqCst)
    }

    fn note_rerouted(&self, sessions: usize) {
        // ordering: Relaxed — statistics counter, no synchronization
        // rides on it.
        self.rerouted.fetch_add(sessions as u64, Ordering::Relaxed);
        if metrics::enabled() {
            metrics::counter(METRIC_NET_REROUTED).add(sessions as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Shards `jobs` over the open replicas by session id and enqueues each
/// replica's slice into its engine. A replica closing between the liveness
/// snapshot and the enqueue hands its slice back for re-routing over the
/// reduced set, without shedding (re-routes never shed: the request's
/// other slices may already be queued); the loop is bounded by the replica
/// count, after which routing reports `Unavailable` instead of spinning.
/// Jobs that end up nowhere are dropped, which fails their requests
/// `Unavailable`.
fn route(inner: &Inner, jobs: Vec<Job>, shed: bool) -> Result<(), NetError> {
    let mut remaining = jobs;
    for attempt in 0..=inner.engines.len() {
        let alive: Vec<bool> = inner.engines.iter().map(EngineHandle::is_open).collect();
        if !alive.iter().any(|&a| a) {
            return Err(NetError::Unavailable("no replicas alive".into()));
        }
        if attempt > 0 {
            inner.note_rerouted(remaining.len());
        }
        let mut groups: Vec<Vec<Job>> = inner.engines.iter().map(|_| Vec::new()).collect();
        for job in remaining.drain(..) {
            if let Some(target) = shard::route(job.session.id, &alive) {
                groups[target].push(job);
            }
        }
        for (engine, group) in inner.engines.iter().zip(groups) {
            if group.is_empty() {
                continue;
            }
            if let Err(refused) = engine.enqueue(group, shed && attempt == 0) {
                match refused.error {
                    ServeError::Unavailable => remaining.extend(refused.jobs),
                    e => return Err(e.into()),
                }
            }
        }
        if remaining.is_empty() {
            return Ok(());
        }
    }
    Err(NetError::Unavailable(
        "routing did not converge (replicas flapping)".into(),
    ))
}

/// Hosts one replica's engine: rebuilds the model from the snapshot,
/// hands the engine's handle to `ready`, and parks in `serve`'s master
/// closure until `release` disconnects (kill or shutdown).
fn run_replica<M, F>(
    snapshot: &[f32],
    max_session_len: usize,
    tier: KernelTier,
    factory: &F,
    engine: EngineConfig,
    ready: Sender<EngineHandle>,
    release: Receiver<()>,
) where
    M: SessionModel,
    F: Fn() -> M + Sync,
{
    // the replica (and, via `serve`, its engine workers) scores on the
    // source model's kernel tier
    let mut frozen = FrozenModel::from_snapshot(factory(), snapshot, max_session_len);
    frozen.set_tier(tier);
    serve(&frozen, factory, engine, |client| {
        if ready.send(client.clone()).is_ok() {
            // Blocks until the server drops the sender; the engine's
            // workers score routed work meanwhile.
            let _ = release.recv();
        }
    });
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

/// Applies one control command on every open replica's engine in turn:
/// lifecycle commands must succeed everywhere (`Done`), status concatenates
/// per-replica reports in replica order. Control bypasses admission (the
/// operator plane must work *because* the data plane is saturated). The
/// first failure wins; replicas that already applied the command keep it
/// staged (staging is idempotent — the operator re-issues after fixing
/// the cause).
fn process_control(inner: &Inner, cmd: ControlRequest) -> Result<ControlReply, NetError> {
    let _span = embsr_obs::span("embsr_net", "process_control");
    let open: Vec<&EngineHandle> = inner.engines.iter().filter(|e| e.is_open()).collect();
    if open.is_empty() {
        return Err(NetError::Unavailable("no replicas alive".into()));
    }
    let refused = |e: embsr_serve::SwapError| NetError::BadRequest(e.to_string());
    match cmd {
        ControlRequest::LoadSnapshot { version, snapshot } => {
            for engine in open {
                engine.stage_snapshot(version, &snapshot).map_err(refused)?;
            }
            Ok(ControlReply::Done { version })
        }
        ControlRequest::Activate { version } => {
            for engine in open {
                engine.activate(version).map_err(refused)?;
            }
            Ok(ControlReply::Done { version })
        }
        ControlRequest::Status => Ok(ControlReply::Status(ServerStatus {
            replicas: open.iter().map(|e| e.status()).collect(),
        })),
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

enum Outcome {
    Scores(ScoreResponse),
    Recs(TopKResponse),
}

fn run_request(inner: &Inner, env: RequestEnvelope, ctx: TraceCtx) -> Result<Outcome, NetError> {
    let n = env.sessions.len();
    let (reply, replies) = std::sync::mpsc::channel();
    {
        let _route = trace::child(ctx, "route");
        let jobs = env
            .sessions
            .into_iter()
            .enumerate()
            .map(|(slot, session)| Job::new(slot, session, env.opts.deadline_us, ctx, &reply))
            .collect();
        route(inner, jobs, env.opts.shed)?;
    }
    drop(reply);
    // The tag is the newest snapshot version that contributed rows: one
    // request's sessions can straddle an activation across replicas
    // (0 = nothing scored).
    let (rows, model_version) = gather_replies(&replies, n, REQUEST_STALL_CEILING_US)?;
    Ok(match env.k {
        None => Outcome::Scores(ScoreResponse {
            scores: rows,
            model_version,
        }),
        Some(k) => {
            let _select = trace::child(ctx, "top_k");
            Outcome::Recs(TopKResponse {
                items: rows.iter().map(|row| top_k_of_row(row, k)).collect(),
                model_version,
            })
        }
    })
}

/// An error response, framed at `version` so the peer can parse it.
fn error_frame(version: u8, request_id: u64, err: &NetError) -> Frame {
    Frame::versioned(
        version,
        FrameKind::ErrorResponse,
        request_id,
        wire::encode_error(err),
    )
}

fn account<T>(inner: &Inner, result: &Result<T, NetError>) {
    // ordering: Relaxed (all) — exact statistics counters; readers snapshot
    // them after quiescing, no synchronization rides on the values.
    match result {
        Ok(_) => {
            inner.completed.fetch_add(1, Ordering::Relaxed);
        }
        Err(NetError::Overloaded { .. }) => {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            if metrics::enabled() {
                metrics::counter(METRIC_NET_REJECTED).inc();
            }
        }
        Err(NetError::DeadlineExpired { .. }) => {
            inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
        }
        Err(NetError::Unavailable(_)) => {
            inner.unavailable.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            inner.bad_requests.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn process_request(inner: &Inner, req: Frame) -> Frame {
    let id = req.request_id;
    let version = req.version;
    let top_k = match req.kind {
        FrameKind::ScoreRequest => false,
        FrameKind::TopKRequest => true,
        FrameKind::Control => {
            // ordering: Relaxed — statistics counter, no synchronization.
            inner.control.fetch_add(1, Ordering::Relaxed);
            if metrics::enabled() {
                metrics::counter(METRIC_NET_CONTROL).inc();
            }
            let result = match wire::decode_request_frame(req.kind, &req.payload) {
                Ok(Request::Control(cmd)) => process_control(inner, cmd),
                Ok(_) => Err(NetError::BadRequest("control frame expected".into())),
                Err(e) => Err(e),
            };
            account(inner, &result);
            return match result {
                Ok(reply) => {
                    let (kind, payload) = wire::encode_response(&Response::Control(reply));
                    Frame::versioned(version, kind, id, payload)
                }
                Err(e) => error_frame(version, id, &e),
            };
        }
        other => {
            let e = NetError::BadRequest(format!("unexpected frame kind {other:?}"));
            account(inner, &Err::<(), _>(e.clone()));
            return error_frame(version, id, &e);
        }
    };
    let env = match wire::decode_request(&req.payload, top_k) {
        Ok(env) => env,
        Err(e) => {
            account(inner, &Err::<(), _>(e.clone()));
            return error_frame(version, id, &e);
        }
    };
    // The client's root span crossed the wire inside the payload; nest the
    // server-side work under it so one tree spans the whole request.
    let span = trace::child(env.ctx, "server_request");
    let result = run_request(inner, env, span.ctx());
    drop(span);
    account(inner, &result);
    match result {
        Ok(Outcome::Scores(resp)) => Frame::versioned(
            version,
            FrameKind::ScoreResponse,
            id,
            wire::encode_score_response(&resp),
        ),
        Ok(Outcome::Recs(resp)) => Frame::versioned(
            version,
            FrameKind::TopKResponse,
            id,
            wire::encode_top_k_response(&resp),
        ),
        Err(e) => error_frame(version, id, &e),
    }
}

/// One connection: a reader demultiplexing frames into a per-connection
/// queue drained by [`ServerConfig::conn_workers`] request workers, whose
/// responses are written whole-frame under a shared write lock — so many
/// requests of one connection proceed concurrently and complete out of
/// order. `Hello` frames are answered inline by the reader.
fn handle_conn(stream: TcpStream, inner: Arc<Inner>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(inner.read_timeout_ms.max(1))));
    let write = Mutex::new(());
    let write_frame = |frame: &Frame| -> bool {
        // lock: whole-frame writes from concurrent workers must not
        // interleave mid-frame.
        let _serialize = lock_plain(&write);
        let mut writer = &stream;
        frame::write_frame(&mut writer, frame).is_ok()
    };
    let (tx, rx) = std::sync::mpsc::channel::<Frame>();
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..inner.conn_workers.max(1))
            .map(|_| {
                let rx = &rx;
                let inner = &inner;
                let write_frame = &write_frame;
                scope.spawn(move || loop {
                    // lock: held across recv — idle workers queue on the mutex
                    // and take requests in arrival order, one each.
                    let req = lock_plain(rx).recv();
                    let Ok(req) = req else { return };
                    let watch = Stopwatch::start();
                    if metrics::enabled() {
                        metrics::counter(METRIC_NET_REQUESTS).inc();
                    }
                    let resp = process_request(inner, req);
                    if !write_frame(&resp) {
                        return;
                    }
                    if metrics::enabled() {
                        metrics::histogram(METRIC_NET_LATENCY_US).record(watch.elapsed_us());
                    }
                })
            })
            .collect();
        loop {
            let mut reader = &stream;
            match frame::read_frame(&mut reader) {
                Ok(req) if req.kind == FrameKind::Hello => {
                    // Inline so negotiation never queues behind scoring.
                    let resp = match wire::decode_request_frame(req.kind, &req.payload) {
                        Ok(Request::Hello { max_version }) => {
                            let version = max_version.clamp(VERSION_V1, VERSION);
                            let (kind, payload) =
                                wire::encode_response(&Response::HelloAck { version });
                            Frame::versioned(req.version, kind, req.request_id, payload)
                        }
                        Ok(_) => error_frame(
                            req.version,
                            req.request_id,
                            &NetError::BadRequest("hello frame expected".into()),
                        ),
                        Err(e) => error_frame(req.version, req.request_id, &e),
                    };
                    if !write_frame(&resp) {
                        break;
                    }
                }
                Ok(req) => {
                    if tx.send(req).is_err() {
                        break;
                    }
                }
                Err(FrameError::Idle) => {
                    if inner.is_shutdown() {
                        break;
                    }
                }
                Err(FrameError::Closed) => break,
                Err(
                    e @ (FrameError::BadMagic(_)
                    | FrameError::BadVersion(_)
                    | FrameError::BadKind(_)
                    | FrameError::TooLarge { .. }),
                ) => {
                    // Protocol violation: tell the peer why, then drop the
                    // connection — framing sync is lost. Id 0 marks it
                    // connection-level; framed at v1 so any peer parses it.
                    let err = NetError::Frame(e);
                    account(&inner, &Err::<(), _>(err.clone()));
                    let _ = write_frame(&error_frame(VERSION_V1, 0, &err));
                    break;
                }
                Err(_) => break,
            }
        }
        // Reader done: close the queue so idle workers drain out. Workers
        // mid-request finish and write (or fail) their response first.
        // Joined explicitly: the scope's implicit join only waits for the
        // closures, so worker threads could still be exiting when the
        // handler (and then `Server::shutdown`) returns.
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
    });
}

// ---------------------------------------------------------------------------
// The server handle
// ---------------------------------------------------------------------------

/// A replica's hosting thread, parked in `serve` until released.
struct ReplicaThread {
    /// Dropping it unparks the replica's master closure.
    release: Sender<()>,
    thread: JoinHandle<()>,
}

impl ReplicaThread {
    /// Unparks the replica and joins its thread. Close its engine first, or
    /// the engine closes here with whatever is still queued.
    fn stop(self) {
        drop(self.release);
        let _ = self.thread.join();
    }
}

/// A running networked serving instance; see the module docs for the
/// architecture. Dropping the handle shuts the server down and joins every
/// thread it spawned.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
    replicas: Mutex<Vec<Option<ReplicaThread>>>,
    down: AtomicBool,
}

impl Server {
    /// Binds `127.0.0.1:0` and starts `cfg.replicas` engine replicas, each
    /// rebuilt from `frozen`'s weight snapshot via `factory` (the same
    /// replication contract as [`serve`] itself). Returns once every
    /// replica's engine takes work.
    pub fn start<M, F>(
        frozen: &FrozenModel<M>,
        factory: F,
        cfg: ServerConfig,
    ) -> Result<Server, NetError>
    where
        M: SessionModel,
        F: Fn() -> M + Send + Sync + 'static,
    {
        let _span = embsr_obs::span("embsr_net", "server_start");
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| NetError::Unavailable(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| NetError::Unavailable(format!("local_addr failed: {e}")))?;
        let replicas = cfg.replicas.max(1);
        let factory = Arc::new(factory);
        let snapshot = Arc::new(frozen.snapshot().to_vec());
        let max_session_len = frozen.max_session_len();
        let tier = frozen.tier();
        let mut threads = Vec::with_capacity(replicas);
        let mut ready = Vec::with_capacity(replicas);
        let mut failure = None;
        for idx in 0..replicas {
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let (release, released) = std::sync::mpsc::channel();
            let snapshot = Arc::clone(&snapshot);
            let factory = Arc::clone(&factory);
            let engine = cfg.engine;
            let spawned = std::thread::Builder::new()
                .name(format!("embsr-net-replica-{idx}"))
                .spawn(move || {
                    run_replica(
                        &snapshot,
                        max_session_len,
                        tier,
                        &*factory,
                        engine,
                        ready_tx,
                        released,
                    )
                });
            match spawned {
                Ok(thread) => {
                    threads.push(ReplicaThread { release, thread });
                    ready.push(ready_rx);
                }
                Err(e) => {
                    failure = Some(NetError::Unavailable(format!("replica spawn failed: {e}")));
                    break;
                }
            }
        }
        // Replicas build their models in parallel; each reports its engine
        // once it takes work (a replica whose model build panicked never
        // does).
        let engines: Vec<EngineHandle> = ready.iter().filter_map(|rx| rx.recv().ok()).collect();
        if failure.is_none() && engines.len() < replicas {
            failure = Some(NetError::Unavailable("replica failed to start".into()));
        }
        if let Some(e) = failure {
            for replica in threads {
                replica.stop();
            }
            return Err(e);
        }
        let inner = Arc::new(Inner {
            engines,
            shutdown: AtomicBool::new(false),
            conn_workers: cfg.conn_workers.max(1),
            read_timeout_ms: cfg.read_timeout_ms,
            handlers: Mutex::new(Vec::new()),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            control: AtomicU64::new(0),
        });
        // From here on, dropping the server on an error path shuts the
        // replicas down.
        let server = Server {
            inner: Arc::clone(&inner),
            addr,
            accept: Mutex::new(None),
            replicas: Mutex::new(threads.into_iter().map(Some).collect()),
            down: AtomicBool::new(false),
        };
        let accept = std::thread::Builder::new()
            .name("embsr-net-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if inner.is_shutdown() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_inner = Arc::clone(&inner);
                    let spawned = std::thread::Builder::new()
                        .name("embsr-net-conn".into())
                        .spawn(move || handle_conn(stream, conn_inner));
                    if let Ok(handle) = spawned {
                        let mut handlers = lock_plain(&inner.handlers);
                        handlers.push(handle);
                    }
                }
            })
            .map_err(|e| NetError::Unavailable(format!("accept spawn failed: {e}")))?;
        *lock_plain(&server.accept) = Some(accept);
        Ok(server)
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Exact request accounting so far.
    pub fn stats(&self) -> ServerStats {
        // ordering: Relaxed (all) — see `account`; callers quiesce traffic
        // before reconciling counts (they pair with `metrics::` snapshots).
        ServerStats {
            completed: self.inner.completed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            rerouted_sessions: self.inner.rerouted.load(Ordering::Relaxed),
            deadline_expired: self.inner.deadline_expired.load(Ordering::Relaxed),
            unavailable: self.inner.unavailable.load(Ordering::Relaxed),
            bad_requests: self.inner.bad_requests.load(Ordering::Relaxed),
            control: self.inner.control.load(Ordering::Relaxed),
        }
    }

    /// Fault injection: replica `idx`'s engine workers take queued jobs one
    /// at a time and sleep `delay_us` before each (`0` heals). Returns false
    /// for an unknown replica.
    pub fn set_replica_delay_us(&self, idx: usize, delay_us: u64) -> bool {
        let Some(engine) = self.inner.engines.get(idx) else {
            return false;
        };
        engine.set_fault_delay_us(delay_us);
        true
    }

    /// Fault injection: kills replica `idx`. Its engine is closed and
    /// drained under its queue lock, the unscored backlog is re-routed to
    /// the surviving replicas (or failed `Unavailable` when none survive),
    /// and its thread is joined before this returns. Batches it had
    /// already started complete normally. Returns false for an unknown
    /// replica.
    pub fn kill_replica(&self, idx: usize) -> bool {
        let _span = embsr_obs::span("embsr_net", "kill_replica");
        let Some(engine) = self.inner.engines.get(idx) else {
            return false;
        };
        let backlog = engine.close();
        if !backlog.is_empty() {
            self.inner.note_rerouted(backlog.len());
            // Re-routes never shed: admission already accepted this work,
            // so refusing it now would be a silent drop in disguise. The
            // deadline still bounds it. Jobs that find no survivor are
            // dropped, failing their requests `Unavailable`.
            let _ = route(&self.inner, backlog, false);
        }
        let replica = lock_plain(&self.replicas)
            .get_mut(idx)
            .and_then(Option::take);
        if let Some(replica) = replica {
            replica.stop();
        }
        true
    }

    fn begin_shutdown(&self) {
        // ordering: SeqCst — the `down` swap makes shutdown run-once; the
        // shutdown store must totally order with the accept wake-up below,
        // or a handler woken by it could still read the flag as false and
        // sleep again, deadlocking the joins that follow.
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop: `incoming()` has no timeout, so poke it
        // with a throwaway connection. Join it *before* draining handler
        // handles so no late-accepted connection can slip past the joins.
        let _ = TcpStream::connect(self.addr);
        let accept = lock_plain(&self.accept).take();
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        // Close every engine: queued work is dropped unscored, which fails
        // its requests `Unavailable`; batches already scoring finish.
        for engine in &self.inner.engines {
            drop(engine.close());
        }
        let replicas: Vec<ReplicaThread> = lock_plain(&self.replicas)
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for replica in replicas {
            replica.stop();
        }
        let handler_handles: Vec<JoinHandle<()>> =
            lock_plain(&self.inner.handlers).drain(..).collect();
        for handle in handler_handles {
            let _ = handle.join();
        }
    }

    /// Stops accepting, fails queued work, and joins every spawned thread
    /// (accept loop, connection handlers, replicas). Idempotent; also runs
    /// on drop.
    pub fn shutdown(self) {
        let _span = embsr_obs::span("embsr_net", "server_shutdown");
        self.begin_shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}
