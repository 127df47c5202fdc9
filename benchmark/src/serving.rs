//! The three serving workloads: `rows_wire`, `topk_wire` and `swap_repeat`.
//!
//! Each runs an in-process [`Server`] at the serving shape and drives it
//! through [`NetClient`] with the load generator in [`crate::load`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use embsr_core::{Embsr, EmbsrConfig};
use embsr_net::{NetClient, NetError, Server, ServerConfig, ServerStatus};
use embsr_obs::Stopwatch;
use embsr_serve::{serve, EngineConfig, FrozenModel, ScoreBatch, SubmitOptions, TopK};
use embsr_sessions::Session;

use crate::inputs::{serving_pool, Stream};
use crate::load::{self, Outcome, PhaseResult, Plan, Reply, Shape, Target};
use crate::report::Report;
use crate::stats::{median, quantile, secs};
use crate::{layers, Args};

/// Vocabulary and embedding width of the serving model (the
/// `BENCH_serving` shape).
pub const VOCAB: usize = 8192;
pub const DIM: usize = 48;
/// Sessions are truncated to their most recent events beyond this.
const MAX_SESSION_LEN: usize = 40;
/// Items per top-k reply.
pub const K: usize = 20;
/// Requests in flight in every closed loop.
const WINDOW: usize = 16;
/// Model seeds of the two snapshots: odd versions serve the first, even
/// versions the second.
const MODEL_SEEDS: [u64; 2] = [17, 18];
/// Cap on the distinct sessions of the sequential streams. The simulator's
/// 30 000 sessions give ~33 000 test-split prefixes: more than twice the
/// two replicas' caches together, so even a wrapped stream misses them.
const POOL: usize = 40_000;
/// Users in the Zipfian universe of `swap_repeat`.
const UNIVERSE: u64 = 2_000;
/// Entry capacity of each replica's session-repr cache.
const REPR_CACHE: usize = 8_192;
/// Idle-server swaps timed after each block of `rows_wire`/`topk_wire`.
const IDLE_SWAPS: usize = 2;
/// Swap period of `swap_repeat`, while traffic runs.
const SWAP_PERIOD_US: u64 = 1_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Measurement blocks per run; see `latency_metrics` and `run` for how the
/// end-to-end metrics combine them.
const BLOCKS: usize = 8;
/// Every `SAMPLE_EVERY`-th reply is checked bitwise.
const SAMPLE_EVERY: u64 = 31;
/// Untimed closed-loop warm-up before any measurement.
const WARMUP_US: u64 = 1_000_000;

/// A serving workload's fixed traffic parameters.
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    /// Zipfian users over a small universe instead of distinct sessions.
    pub zipf: bool,
    /// Swap snapshots on a schedule while traffic runs.
    pub swap_under_load: bool,
    /// Absolute open-loop rate, requests per second: about a quarter of
    /// the slowest closed-loop reading, so a dip in the shared host's
    /// capacity still leaves headroom instead of a growing queue.
    pub rate_per_s: f64,
    /// The p99 objective: `slo_ok_share` is the share of requests answered
    /// within it.
    pub limit_ms: f64,
}

pub const ROWS_WIRE: Spec = Spec {
    name: "rows_wire",
    shape: Shape::Rows,
    zipf: false,
    swap_under_load: false,
    rate_per_s: 125.0,
    limit_ms: 40.0,
};

pub const TOPK_WIRE: Spec = Spec {
    name: "topk_wire",
    shape: Shape::TopK(K),
    zipf: false,
    swap_under_load: false,
    rate_per_s: 250.0,
    limit_ms: 25.0,
};

pub const SWAP_REPEAT: Spec = Spec {
    name: "swap_repeat",
    shape: Shape::TopK(K),
    zipf: true,
    swap_under_load: true,
    rate_per_s: 250.0,
    limit_ms: 40.0,
};

/// The serving deployment every serving workload shares.
fn server_config() -> ServerConfig {
    ServerConfig {
        replicas: 2,
        engine: EngineConfig {
            workers: 1,
            repr_cache: REPR_CACHE,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn model_config(num_ops: usize, seed: u64) -> EmbsrConfig {
    let mut cfg = EmbsrConfig::full(VOCAB, num_ops, DIM);
    cfg.seed = seed;
    cfg
}

/// Index into [`MODEL_SEEDS`] of the snapshot tagged `version`.
fn model_of(version: u64) -> usize {
    if version % 2 == 1 {
        0
    } else {
        1
    }
}

/// A running deployment plus the in-process models that check it.
struct Deployment {
    /// Kept alive for the run; dropping it shuts the server down.
    pub _server: Server,
    pub client: NetClient,
    pub control: NetClient,
    /// Frozen reference models, indexed like [`MODEL_SEEDS`].
    pub models: Vec<FrozenModel<Embsr>>,
    /// `EMBSRSNP` bytes of each reference model.
    pub snapshots: Vec<Vec<u8>>,
    pub pool: Vec<Session>,
    pub num_ops: usize,
}

/// Builds and freezes both models, generates the sessions, starts the
/// server and handshakes both connections.
fn setup(seed: u64, spec: &Spec) -> Result<Deployment, String> {
    let _span = embsr_obs::span("bench", "setup");
    let want = if spec.zipf { UNIVERSE as usize } else { POOL };
    let (pool, num_ops) = serving_pool(seed, want);
    if pool.len() < want.min(UNIVERSE as usize) {
        return Err(format!("only {} distinct sessions generated", pool.len()));
    }
    let models: Vec<FrozenModel<Embsr>> = MODEL_SEEDS
        .iter()
        .map(|&s| FrozenModel::freeze(Embsr::new(model_config(num_ops, s)), MAX_SESSION_LEN))
        .collect();
    let snapshots = models.iter().map(FrozenModel::snapshot_bytes).collect();
    let factory_cfg = model_config(num_ops, MODEL_SEEDS[0]);
    let server = Server::start(
        &models[0],
        move || Embsr::new(factory_cfg.clone()),
        server_config(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let client = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let control = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Deployment {
        _server: server,
        client,
        control,
        models,
        snapshots,
        pool,
        num_ops,
    })
}

/// One hot swap: stage `version` on every replica, then activate it.
#[derive(Clone, Copy, Debug)]
struct Swap {
    pub version: u64,
    pub load_sent_us: u64,
    pub load_ack_us: u64,
    pub activate_ack_us: u64,
}

impl Swap {
    pub fn total_ms(&self) -> f64 {
        (self.activate_ack_us - self.load_sent_us) as f64 / 1e3
    }
    pub fn stage_ms(&self) -> f64 {
        (self.load_ack_us - self.load_sent_us) as f64 / 1e3
    }
    pub fn activate_ms(&self) -> f64 {
        (self.activate_ack_us - self.load_ack_us) as f64 / 1e3
    }
}

fn swap(
    control: &NetClient,
    version: u64,
    snapshot: &[u8],
    clock: &Stopwatch,
) -> Result<Swap, NetError> {
    let _span = embsr_obs::span("bench", "swap");
    let load_sent_us = clock.elapsed_us();
    control.load_snapshot(version, snapshot)?;
    let load_ack_us = clock.elapsed_us();
    control.activate(version)?;
    Ok(Swap {
        version,
        load_sent_us,
        load_ack_us,
        activate_ack_us: clock.elapsed_us(),
    })
}

/// Which versions could have scored a request in flight over
/// `[sent_us, done_us]`: version `v` may score from the moment its
/// `Activate` is sent until the next activation is acknowledged.
struct Timeline {
    /// `(version, may_start_us, must_end_us)`.
    windows: Vec<(u64, u64, u64)>,
}

impl Timeline {
    pub fn new(initial: u64) -> Timeline {
        Timeline {
            windows: vec![(initial, 0, u64::MAX)],
        }
    }

    pub fn push(&mut self, s: &Swap) {
        if let Some(last) = self.windows.last_mut() {
            last.2 = s.activate_ack_us;
        }
        self.windows.push((s.version, s.load_ack_us, u64::MAX));
    }

    pub fn allows(&self, version: u64, sent_us: u64, done_us: u64) -> bool {
        self.windows
            .iter()
            .any(|&(v, start, end)| v == version && sent_us <= end && done_us >= start)
    }
}

/// Mutable state of one run's control plane.
struct Control<'a> {
    pub dep: &'a Deployment,
    pub clock: &'a Stopwatch,
    pub next_version: u64,
    pub swaps: Vec<Swap>,
    pub timeline: Timeline,
    pub failures: usize,
}

impl<'a> Control<'a> {
    pub fn new(dep: &'a Deployment, clock: &'a Stopwatch) -> Control<'a> {
        Control {
            dep,
            clock,
            next_version: 2,
            swaps: Vec::new(),
            timeline: Timeline::new(1),
            failures: 0,
        }
    }

    pub fn swap_once(&mut self) {
        let version = self.next_version;
        self.next_version += 1;
        let bytes = &self.dep.snapshots[model_of(version)];
        match swap(&self.dep.control, version, bytes, self.clock) {
            Ok(s) => {
                self.timeline.push(&s);
                self.swaps.push(s);
            }
            Err(_) => self.failures += 1,
        }
    }

    /// Swaps once per [`SWAP_PERIOD_US`] of a `segment_us` segment (at
    /// least once), half a period apart from its ends, so every run makes
    /// the same number of swaps at the same points of its traffic.
    pub fn swap_during(&mut self, segment_us: u64) {
        let base = self.clock.elapsed_us();
        for k in 0..(segment_us / SWAP_PERIOD_US).max(1) {
            let due = base + SWAP_PERIOD_US / 2 + k * SWAP_PERIOD_US;
            let now = self.clock.elapsed_us();
            if due > now {
                std::thread::sleep(Duration::from_micros(due - now));
            }
            self.swap_once();
        }
    }
}

/// A run's stream bookkeeping: sequential phases take consecutive ranges.
struct Traffic<'a> {
    pub dep: &'a Deployment,
    pub spec: &'a Spec,
    pub seed: u64,
    pub cursor: u64,
    pub traced: bool,
}

impl<'a> Traffic<'a> {
    pub fn stream(&self) -> Stream {
        if self.spec.zipf {
            Stream::Zipf {
                universe: UNIVERSE,
                seed: self.seed,
            }
        } else {
            Stream::Sequential
        }
    }

    /// Runs one phase against the deployment.
    pub fn phase(
        &mut self,
        clock: &Stopwatch,
        plan: Plan,
        sample_every: u64,
        during: impl FnOnce(),
    ) -> PhaseResult {
        let target = Target {
            client: &self.dep.client,
            pool: &self.dep.pool,
            stream: self.stream(),
            first: self.cursor,
            shape: self.spec.shape,
            num_items: VOCAB,
            sample_every,
            traced: self.traced,
        };
        let res = load::run(&target, clock, plan, during);
        self.cursor += res.records.len() as u64;
        res
    }
}

fn closed(clock: &Stopwatch, dur_us: u64) -> Plan {
    Plan::Closed {
        window: WINDOW,
        end_us: clock.elapsed_us() + dur_us,
    }
}

fn open(spec: &Spec, dur_us: u64) -> Plan {
    Plan::Open {
        interval_us: 1e6 / spec.rate_per_s,
        count: (spec.rate_per_s * dur_us as f64 / 1e6).round() as u64,
    }
}

/// Checks every reply of `res` against the version timeline, and each
/// sampled reply bitwise against the in-process model of its version.
fn verify(
    dep: &Deployment,
    shape: Shape,
    phase: &str,
    res: &PhaseResult,
    timeline: &Timeline,
    report: &mut Report,
) {
    let _span = embsr_obs::span("bench", "verify");
    let mut wrong = 0usize;
    for r in &res.records {
        if let Outcome::Ok { version } = r.outcome {
            if !timeline.allows(version, r.sent_us, r.done_us) {
                wrong += 1;
                if wrong <= 3 {
                    report.wrong(format!(
                        "{phase}: reply tagged version {version} was not active while in flight"
                    ));
                }
            }
        }
    }
    for s in &res.samples {
        let model = &dep.models[model_of(s.version)];
        let session = std::slice::from_ref(&dep.pool[s.pool_idx]);
        let same = match (&s.reply, shape) {
            (Reply::Row(row), _) => {
                let want = model.score_batch(session);
                want.len() == 1 && bits_equal(row, &want[0])
            }
            (Reply::TopK(items), Shape::TopK(k)) => {
                let want = model.top_k(session, k);
                want.len() == 1
                    && want[0].len() == items.len()
                    && want[0]
                        .iter()
                        .zip(items)
                        .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits())
            }
            (Reply::TopK(_), Shape::Rows) => false,
        };
        if !same {
            wrong += 1;
            report.wrong(format!(
                "{phase}: reply for pool session {} differs from the in-process model of version {}",
                s.pool_idx, s.version
            ));
        }
    }
    report.verified(
        &format!("{phase}.verify"),
        res.ok() + res.samples.len(),
        wrong,
    );
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Share of `records` whose session was already sent earlier in the run.
fn repeat_share(records: &[&load::Record]) -> f64 {
    let mut seen = std::collections::BTreeSet::new();
    let repeats = records.iter().filter(|r| !seen.insert(r.pool_idx)).count();
    repeats as f64 / records.len().max(1) as f64
}

/// Open-loop latency metrics. p50 and p90 are read per block from the raw
/// latencies of answered requests, and the lowest block value is reported:
/// outside load on a shared host only ever adds latency, and an open loop
/// turns a dip in capacity into queueing, so the least-disturbed block is
/// the steadiest reading of the latency the program itself causes.
/// `slo_ok_share` is the share of all attempted requests answered within
/// `limit_ms`, the workload's p99 objective. The pooled p99 is printed with
/// its sample count but not reported: on a shared 2-core host its spread
/// over seeds exceeds any bound a change could be held to.
fn latency_metrics(blocks: &[PhaseResult], limit_ms: f64, report: &mut Report) {
    let (mut p50, mut p90, mut all) = (Vec::new(), Vec::new(), Vec::new());
    let (mut within, mut attempted) = (0usize, 0usize);
    for res in blocks {
        let lat: Vec<f64> = res
            .records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Ok { .. }))
            .map(load::Record::latency_ms)
            .collect();
        within += lat.iter().filter(|&&l| l <= limit_ms).count();
        attempted += res.records.len();
        p50.push(quantile(&lat, 0.5));
        p90.push(quantile(&lat, 0.9));
        all.extend(lat);
    }
    let lowest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    report.metric("latency_p50_ms", lowest(&p50), "ms");
    report.metric("latency_p90_ms", lowest(&p90), "ms");
    report.metric(
        "slo_ok_share",
        within as f64 / attempted.max(1) as f64,
        "share",
    );
    let n = all.len();
    report.note(format!(
        "open loop: {n} answered of {attempted} ({} per block) · block p50 {p50:.3?} · \
         block p90 {p90:.3?} ms · pooled p99 {:.3} ms ({} samples beyond) · limit {limit_ms} ms",
        n / blocks.len().max(1),
        quantile(&all, 0.99),
        n - (0.99 * n as f64).ceil() as usize
    ));
}

fn throughput(res: &PhaseResult) -> f64 {
    res.ok() as f64 / res.wall_s.max(1e-9)
}

/// Cache hits and attempts summed over the replicas.
fn cache_totals(status: &ServerStatus) -> (u64, u64) {
    status.replicas.iter().fold((0, 0), |(h, a), r| {
        (h + r.cache.hits, a + r.cache.hits + r.cache.misses)
    })
}

/// Runs a serving workload and fills `report`.
pub fn run(spec: &Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut dep = None;
    for _ in 0..SETUPS {
        // Drop the previous deployment first so set-ups never overlap.
        drop(dep.take());
        let w = Stopwatch::start();
        dep = Some(setup(args.seed, spec)?);
        setups.push(secs(&w));
    }
    let dep = dep.ok_or("no set-up ran")?;
    report.note(format!(
        "deployment: EMBSR full |V|={VOCAB} |O|={} d={DIM} f32 simd · 2 replicas × 1 worker · \
         repr cache {REPR_CACHE}/replica · window {WINDOW} · open loop {}/s · pool {} sessions",
        dep.num_ops,
        spec.rate_per_s,
        dep.pool.len()
    ));
    let clock = Stopwatch::start();
    let budget_us = args.seconds * 1_000_000;
    let mut traffic = Traffic {
        dep: &dep,
        spec,
        seed: args.seed,
        cursor: 0,
        traced: false,
    };
    let mut control = Control::new(&dep, &clock);
    let warm = traffic.phase(&clock, closed(&clock, WARMUP_US), 0, || {});
    report.phase("warmup", &warm);

    if args.trace {
        return traced(spec, args, &dep, &clock, traffic, control, report);
    }

    // The measured time is split into `BLOCKS` blocks, each a closed-loop
    // segment then an open-loop segment, so a burst of outside load spoils
    // some blocks, not the run, and both loops see the same drift.
    // Throughput is the median over blocks; latency, see `latency_metrics`.
    let closed_us = budget_us / 5 / BLOCKS as u64;
    let open_us = budget_us * 4 / 5 / BLOCKS as u64;
    let swap_load = spec.swap_under_load;
    let (mut cs, mut os) = (Vec::new(), Vec::new());
    for _ in 0..BLOCKS {
        let c = traffic.phase(&clock, closed(&clock, closed_us), SAMPLE_EVERY, || {
            if swap_load {
                control.swap_during(closed_us);
            }
        });
        let o = traffic.phase(&clock, open(spec, open_us), SAMPLE_EVERY, || {
            if swap_load {
                control.swap_during(open_us);
            }
        });
        if !swap_load {
            for _ in 0..IDLE_SWAPS {
                control.swap_once();
            }
        }
        cs.push(c);
        os.push(o);
    }
    for (b, (c, o)) in cs.iter().zip(&os).enumerate() {
        report.phase(&format!("closed.{b}"), c);
        report.phase(&format!("open.{b}"), o);
    }
    report.ops(
        "swaps",
        control.swaps.len() + control.failures,
        control.failures,
    );
    for (b, (c, o)) in cs.iter().zip(&os).enumerate() {
        verify(
            &dep,
            spec.shape,
            &format!("closed.{b}"),
            c,
            &control.timeline,
            report,
        );
        verify(
            &dep,
            spec.shape,
            &format!("open.{b}"),
            o,
            &control.timeline,
            report,
        );
    }

    report.metric("setup_s", median(&setups), "s");
    report.metric(
        "throughput_sps",
        median(&cs.iter().map(throughput).collect::<Vec<_>>()),
        "1/s",
    );
    latency_metrics(&os, spec.limit_ms, report);
    let swap_ms: Vec<f64> = control.swaps.iter().map(Swap::total_ms).collect();
    report.metric("swap_ms", median(&swap_ms), "ms");
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    let all: Vec<&load::Record> = warm
        .records
        .iter()
        .chain(cs.iter().chain(&os).flat_map(|p| &p.records))
        .collect();
    let lag: Vec<f64> = os
        .iter()
        .flat_map(|p| &p.records)
        .map(|r| r.sent_us.saturating_sub(r.due_us) as f64 / 1e3)
        .collect();
    report.note(format!(
        "gen.repeat_share {:.4} · {} swaps · lag p99 {:.3} ms",
        repeat_share(&all),
        control.swaps.len(),
        quantile(&lag, 0.99)
    ));
    Ok(())
}

/// The traced run: the same traffic with the program's metrics and request
/// tracing on, timed per layer. End-to-end metrics are not reported here.
fn traced(
    spec: &Spec,
    args: &Args,
    dep: &Deployment,
    clock: &Stopwatch,
    mut traffic: Traffic<'_>,
    mut control: Control<'_>,
    report: &mut Report,
) -> Result<(), String> {
    let budget_us = args.seconds * 1_000_000;
    let part = budget_us / 4;
    let swap_load = spec.swap_under_load;
    // Untraced reference for `obs.trace_overhead`.
    let plain = traffic.phase(clock, closed(clock, part), 0, || {
        if swap_load {
            control.swap_during(part);
        }
    });
    report.phase("closed.untraced", &plain);

    let before = dep.control.status().map_err(|e| format!("status: {e}"))?;
    let collector = layers::tracing_on();
    traffic.traced = true;
    let c = traffic.phase(clock, closed(clock, part), SAMPLE_EVERY, || {
        if swap_load {
            control.swap_during(part);
        }
    });
    let o = traffic.phase(clock, open(spec, part), SAMPLE_EVERY, || {
        if swap_load {
            control.swap_during(part);
        }
    });
    if !swap_load {
        for _ in 0..IDLE_SWAPS {
            control.swap_once();
        }
    }
    let after = dep.control.status().map_err(|e| format!("status: {e}"))?;
    let registry = layers::registry_means();
    layers::tracing_off(&collector, spec.name, args.seed);
    report.phase("closed.traced", &c);
    report.phase("open.traced", &o);
    report.ops(
        "swaps",
        control.swaps.len() + control.failures,
        control.failures,
    );
    verify(
        dep,
        spec.shape,
        "closed.untraced",
        &plain,
        &control.timeline,
        report,
    );
    verify(
        dep,
        spec.shape,
        "closed.traced",
        &c,
        &control.timeline,
        report,
    );
    verify(
        dep,
        spec.shape,
        "open.traced",
        &o,
        &control.timeline,
        report,
    );

    let (h0, a0) = cache_totals(&before);
    let (h1, a1) = cache_totals(&after);
    let engine_sps = engine_throughput(dep, spec.shape, traffic.stream(), traffic.cursor, part);
    let thr_plain = throughput(&plain);
    let all: Vec<&load::Record> = plain
        .records
        .iter()
        .chain(&c.records)
        .chain(&o.records)
        .collect();
    let traced_records: Vec<&load::Record> = c.records.iter().chain(&o.records).collect();
    let layer = layers::Traffic {
        records: &traced_records,
        open: &o,
        in_flight_max: c.in_flight_max.max(o.in_flight_max),
        registry,
        cache_hit_ratio: (h1 - h0) as f64 / (a1 - a0).max(1) as f64,
        stage_ms: median(&control.swaps.iter().map(Swap::stage_ms).collect::<Vec<_>>()),
        activate_ms: median(
            &control
                .swaps
                .iter()
                .map(Swap::activate_ms)
                .collect::<Vec<_>>(),
        ),
        engine_sps,
        throughput_sps: thr_plain,
        trace_overhead: thr_plain / throughput(&c).max(1e-9),
        repeat_share: repeat_share(&all),
    };
    layers::traffic_metrics(&layer, report);
    let sessions: Vec<Session> = dep.pool.iter().take(256).cloned().collect();
    layers::probes(
        &dep.models[0],
        &dep.snapshots[0],
        &sessions,
        args.seed,
        report,
    )
}

/// In-process engine throughput on the same stream and window: one
/// `serve()` engine with as many scoring workers as the server has
/// replicas, fed by `WINDOW` blocking callers.
fn engine_throughput(
    dep: &Deployment,
    shape: Shape,
    stream: Stream,
    first: u64,
    dur_us: u64,
) -> f64 {
    let _span = embsr_obs::span("bench", "engine_throughput");
    let cfg = EngineConfig {
        workers: 2,
        repr_cache: REPR_CACHE,
        ..EngineConfig::default()
    };
    let factory_cfg = model_config(dep.num_ops, MODEL_SEEDS[0]);
    let pool = &dep.pool;
    let next = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let elapsed_s = serve(
        &dep.models[0],
        move || Embsr::new(factory_cfg.clone()),
        cfg,
        |client| {
            let w = Stopwatch::start();
            std::thread::scope(|scope| {
                for _ in 0..WINDOW {
                    scope.spawn(|| {
                        while w.elapsed_us() < dur_us {
                            // ordering: Relaxed — a ticket counter; each caller
                            // only needs a unique index.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let sessions = vec![pool[stream.index(first + i, pool.len())].clone()];
                            let ok = match shape {
                                Shape::Rows => client
                                    .try_score(ScoreBatch { sessions }, SubmitOptions::default())
                                    .is_ok(),
                                Shape::TopK(k) => client
                                    .try_top_k(TopK { sessions, k }, SubmitOptions::default())
                                    .is_ok(),
                            };
                            if ok {
                                // ordering: Relaxed — read after the scope joins.
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            secs(&w)
        },
    );
    // ordering: Relaxed — the scope above joined every writer.
    done.load(Ordering::Relaxed) as f64 / elapsed_s.max(1e-9)
}
