//! Per-layer metrics of the traced run, and the map from each one to the
//! end-to-end metric and workloads it should move.
//!
//! Every layer is timed from outside, by timing calls into that layer's
//! public functions: the traffic-derived rows come from the traced load
//! phases, the rest from fixed-shape probes run in every traced run. The
//! driver's own spans (target `bench`) wrap each call; together with the
//! program's request-trace records they are kept in memory and written to
//! `.bench_out/<workload>-seed<seed>.trace.jsonl` when the run ends.

use std::sync::{Arc, Mutex};

use embsr_core::Embsr;
use embsr_net::wire;
use embsr_net::{ControlRequest, Request};
use embsr_obs::{metrics, trace, Event, Sink, TraceCtx};
use embsr_serve::{
    top_k_of_row, FrozenModel, KernelTier, ReprCache, ScoreBatch, ScoreResponse, SubmitOptions,
    TopK, TopKResponse,
};
use embsr_sessions::{Session, SessionGraph};
use embsr_tensor::{kernels, Rng};

use crate::load::{PhaseResult, Record};
use crate::report::Report;
use crate::serving::{DIM, K, VOCAB};
use crate::stats::{mean, quantile, time_us};
use crate::training;

/// One per-layer metric: its unit, which way is better, the layer it
/// measures and the end-to-end metric and workloads it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

/// The per-layer metrics, in table order. `BENCHMARK.json` lists the same
/// names, units and directions.
pub const PER_LAYER: &[PerLayer] = &[
    row(
        "wire.resp_bytes_per_row",
        "bytes",
        "lower",
        "net/wire",
        "throughput_sps, latency_p50_ms @ rows_wire; none @ topk_wire",
    ),
    row(
        "wire.resp_encode_us_per_row",
        "us",
        "lower",
        "net/wire",
        "throughput_sps, latency_p50_ms @ rows_wire; none @ topk_wire",
    ),
    row(
        "wire.resp_decode_us_per_row",
        "us",
        "lower",
        "net/wire",
        "throughput_sps, latency_p50_ms @ rows_wire; none @ topk_wire",
    ),
    row(
        "wire.topk_encode_us",
        "us",
        "lower",
        "net/wire",
        "latency_p50_ms @ topk_wire (small share)",
    ),
    row(
        "wire.topk_decode_us",
        "us",
        "lower",
        "net/wire",
        "latency_p50_ms @ topk_wire (small share)",
    ),
    row(
        "wire.req_encode_us",
        "us",
        "lower",
        "net/wire",
        "latency_p50_ms @ topk_wire (small share)",
    ),
    row(
        "wire.req_decode_us",
        "us",
        "lower",
        "net/wire",
        "latency_p50_ms @ topk_wire (small share)",
    ),
    row(
        "wire.snapshot_bytes",
        "bytes",
        "lower",
        "net/wire",
        "swap_ms @ swap_repeat",
    ),
    row(
        "wire.snapshot_inflation",
        "ratio",
        "lower",
        "net/wire",
        "swap_ms @ swap_repeat",
    ),
    row(
        "net.client.submit_us",
        "us",
        "lower",
        "net/client",
        "latency_p50_ms @ all serving; throughput_sps @ rows_wire",
    ),
    row(
        "net.client.in_flight_max",
        "count",
        "lower",
        "net/client",
        "latency_p50_ms @ all serving",
    ),
    row(
        "net.server.latency_us_mean",
        "us",
        "lower",
        "net/server",
        "latency_p50_ms @ all serving; throughput_sps @ rows_wire",
    ),
    row(
        "net.overhead_ratio",
        "ratio",
        "higher",
        "net/server",
        "latency_p50_ms @ all serving; throughput_sps @ rows_wire",
    ),
    row(
        "serve.engine_sps",
        "1/s",
        "higher",
        "serve/engine",
        "throughput_sps, latency_p90_ms @ topk_wire",
    ),
    row(
        "serve.batch_sessions_mean",
        "count",
        "higher",
        "serve/engine",
        "throughput_sps, latency_p90_ms @ topk_wire",
    ),
    row(
        "serve.queue_depth_mean",
        "count",
        "lower",
        "serve/engine",
        "throughput_sps, latency_p90_ms @ topk_wire",
    ),
    row(
        "serve.cache_hit_ratio",
        "ratio",
        "higher",
        "serve/cache",
        "throughput_sps, swap_ms @ swap_repeat; ~0 @ rows_wire, topk_wire",
    ),
    row(
        "serve.stage_ms",
        "ms",
        "lower",
        "serve/control",
        "swap_ms @ swap_repeat",
    ),
    row(
        "serve.activate_ms",
        "ms",
        "lower",
        "serve/control",
        "swap_ms @ swap_repeat",
    ),
    row(
        "frozen.score_us.b1",
        "us",
        "lower",
        "serve/frozen+core",
        "latency_p50_ms @ all serving",
    ),
    row(
        "frozen.score_us.b8",
        "us",
        "lower",
        "serve/frozen+core",
        "throughput_sps @ all serving",
    ),
    row(
        "frozen.score_us.b32",
        "us",
        "lower",
        "serve/frozen+core",
        "throughput_sps @ all serving",
    ),
    row(
        "frozen.logits_us.b1",
        "us",
        "lower",
        "serve/frozen (logits)",
        "all serving workloads",
    ),
    row(
        "frozen.logits_us.b8",
        "us",
        "lower",
        "serve/frozen (logits)",
        "all serving workloads",
    ),
    row(
        "frozen.logits_us.b32",
        "us",
        "lower",
        "serve/frozen (logits)",
        "all serving workloads",
    ),
    row(
        "frozen.encoder_us.b1",
        "us",
        "lower",
        "core (encoder)",
        "throughput_sps @ topk_wire",
    ),
    row(
        "frozen.encoder_us.b8",
        "us",
        "lower",
        "core (encoder)",
        "throughput_sps @ topk_wire",
    ),
    row(
        "frozen.encoder_us.b32",
        "us",
        "lower",
        "core (encoder)",
        "throughput_sps @ topk_wire",
    ),
    row(
        "api.top_k_us",
        "us",
        "lower",
        "serve/api",
        "latency_p50_ms @ topk_wire, swap_repeat; none @ rows_wire",
    ),
    row(
        "sessions.multigraph_us",
        "us",
        "lower",
        "sessions",
        "throughput_sps @ topk_wire",
    ),
    row(
        "tensor.gemm_abt_gflops.m1",
        "GFLOP/s",
        "higher",
        "tensor",
        "all serving workloads",
    ),
    row(
        "tensor.gemm_abt_gflops.m8",
        "GFLOP/s",
        "higher",
        "tensor",
        "all serving workloads",
    ),
    row(
        "tensor.gemm_abt_gflops.m32",
        "GFLOP/s",
        "higher",
        "tensor",
        "all serving workloads",
    ),
    row(
        "tensor.gemm_abt_mb.m1",
        "MB",
        "lower",
        "tensor",
        "all serving workloads",
    ),
    row(
        "tensor.gemm_abt_mb.m8",
        "MB",
        "lower",
        "tensor",
        "all serving workloads",
    ),
    row(
        "tensor.gemm_abt_mb.m32",
        "MB",
        "lower",
        "tensor",
        "all serving workloads",
    ),
    row(
        "tensor.gemm_packed_gflops.train",
        "GFLOP/s",
        "higher",
        "tensor",
        "none bounded: train_fit was dropped as unsteady (README)",
    ),
    row(
        "train.epoch_s",
        "s",
        "lower",
        "train",
        "none bounded: train_fit was dropped as unsteady (README)",
    ),
    row(
        "train.forward_backward_ms",
        "ms",
        "lower",
        "train+nn+tensor",
        "none bounded: train_fit was dropped as unsteady (README)",
    ),
    row(
        "gen.lag_p99_ms",
        "ms",
        "lower",
        "load generator",
        "latency_p90_ms, slo_ok_share @ every workload (a late generator)",
    ),
    row(
        "gen.reorder_p99_shift_ms",
        "ms",
        "lower",
        "load generator",
        "slo_ok_share @ every workload (in-order collection)",
    ),
    row(
        "gen.repeat_share",
        "share",
        "lower",
        "load generator",
        "cache-dependent gains: high @ swap_repeat, ~0 @ rows_wire, topk_wire",
    ),
    row(
        "obs.trace_overhead",
        "ratio",
        "lower",
        "obs",
        "none (untraced runs carry the end-to-end numbers)",
    ),
];

/// In-memory sink for trace records and the driver's own span events.
#[derive(Default)]
pub struct Collector {
    lines: Mutex<Vec<String>>,
}

impl Sink for Collector {
    fn enabled(&self, target: &str, _level: embsr_obs::Level) -> bool {
        target == trace::TRACE_TARGET || target == "bench"
    }

    fn log(&self, event: &Event<'_>) {
        let line = event.to_json_value().to_json();
        // lock: poisoning only means another logger panicked mid-push; the
        // vector is still a valid list of lines.
        let mut lines = self.lines.lock().unwrap_or_else(|p| p.into_inner());
        lines.push(line);
    }
}

/// Switches the program's metrics registry and request tracing on, with
/// the in-memory collector as the trace sink.
pub fn tracing_on() -> Arc<Collector> {
    let collector = Arc::new(Collector::default());
    metrics::reset_all();
    metrics::set_enabled(true);
    trace::set_enabled(true);
    embsr_obs::add_sink(collector.clone());
    collector
}

/// Switches tracing off and writes the collected records out.
pub fn tracing_off(collector: &Collector, workload: &str, seed: u64) {
    trace::set_enabled(false);
    metrics::set_enabled(false);
    embsr_obs::clear_sinks();
    let lines = collector.lines.lock().unwrap_or_else(|p| p.into_inner());
    let path = format!("{}/{workload}-seed{seed}.trace.jsonl", crate::OUT_DIR);
    let mut text = lines.join("\n");
    text.push('\n');
    if let Err(e) =
        std::fs::create_dir_all(crate::OUT_DIR).and_then(|()| std::fs::write(&path, text))
    {
        eprintln!("could not write {path}: {e}");
    }
}

/// Means of the program's own histograms over the traced phases; each is
/// sum/count, which is exact (only the quantiles are bucketed).
#[derive(Clone, Copy, Default)]
pub struct Registry {
    pub net_latency_us: f64,
    pub batch_sessions: f64,
    pub queue_depth: f64,
}

pub fn registry_means() -> Registry {
    let m = |name: &str| {
        let h = metrics::histogram(name);
        if h.count() == 0 {
            0.0
        } else {
            h.mean()
        }
    };
    Registry {
        net_latency_us: m(embsr_net::METRIC_NET_LATENCY_US),
        batch_sessions: m(embsr_serve::METRIC_BATCH_SESSIONS),
        queue_depth: m(embsr_serve::METRIC_QUEUE_DEPTH),
    }
}

/// What the traced load phases measured.
pub struct Traffic<'a> {
    /// Traced requests (closed and open phases).
    pub records: &'a [&'a Record],
    /// The traced open-loop phase.
    pub open: &'a PhaseResult,
    pub in_flight_max: usize,
    pub registry: Registry,
    pub cache_hit_ratio: f64,
    pub stage_ms: f64,
    pub activate_ms: f64,
    pub engine_sps: f64,
    /// Untraced networked throughput of the same run.
    pub throughput_sps: f64,
    pub trace_overhead: f64,
    pub repeat_share: f64,
}

pub fn traffic_metrics(t: &Traffic<'_>, report: &mut Report) {
    let submit: Vec<f64> = t.records.iter().map(|r| r.submit_us as f64).collect();
    let lag: Vec<f64> = t
        .open
        .records
        .iter()
        .map(|r| r.sent_us.saturating_sub(r.due_us) as f64 / 1e3)
        .collect();
    let lat: Vec<f64> = t.open.records.iter().map(Record::latency_ms).collect();
    let lower: Vec<f64> = t
        .open
        .records
        .iter()
        .map(|r| r.latency_ms() - r.reorder_bound_us as f64 / 1e3)
        .collect();
    let reordered = t
        .open
        .records
        .iter()
        .filter(|r| r.reorder_bound_us > 0)
        .count();
    report.note(format!(
        "in-order collection: {reordered} of {} open-loop replies may have waited behind an \
         earlier one; p99 {:.3} ms measured, ≥ {:.3} ms if collected on arrival",
        t.open.records.len(),
        quantile(&lat, 0.99),
        quantile(&lower, 0.99)
    ));
    report.metric("net.client.submit_us", mean(&submit), "us");
    report.metric("net.client.in_flight_max", t.in_flight_max as f64, "count");
    report.metric(
        "net.server.latency_us_mean",
        t.registry.net_latency_us,
        "us",
    );
    report.metric(
        "net.overhead_ratio",
        t.throughput_sps / t.engine_sps.max(1e-9),
        "ratio",
    );
    report.metric("serve.engine_sps", t.engine_sps, "1/s");
    report.metric(
        "serve.batch_sessions_mean",
        t.registry.batch_sessions,
        "count",
    );
    report.metric("serve.queue_depth_mean", t.registry.queue_depth, "count");
    report.metric("serve.cache_hit_ratio", t.cache_hit_ratio, "ratio");
    report.metric("serve.stage_ms", t.stage_ms, "ms");
    report.metric("serve.activate_ms", t.activate_ms, "ms");
    report.metric("gen.lag_p99_ms", quantile(&lag, 0.99), "ms");
    report.metric(
        "gen.reorder_p99_shift_ms",
        quantile(&lat, 0.99) - quantile(&lower, 0.99),
        "ms",
    );
    report.metric("gen.repeat_share", t.repeat_share, "share");
    report.metric("obs.trace_overhead", t.trace_overhead, "ratio");
}

/// Probe budget per timed call site, microseconds.
const PROBE_US: u64 = 150_000;
const PROBE_ROUNDS: usize = 5;

/// Fixed-shape probes of every layer, run in every traced run. `model` is
/// the serving model and `sessions` the workload's sessions.
pub fn probes(
    model: &FrozenModel<Embsr>,
    snapshot: &[u8],
    sessions: &[Session],
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    if sessions.len() < 32 {
        return Err(format!("probes need 32 sessions, got {}", sessions.len()));
    }
    wire_probes(model, snapshot, sessions, report);
    frozen_probes(model, sessions, report);
    tensor_probes(report);
    training::layer_probes(seed, report);
    Ok(())
}

fn wire_probes(
    model: &FrozenModel<Embsr>,
    snapshot: &[u8],
    sessions: &[Session],
    report: &mut Report,
) {
    let _span = embsr_obs::span("bench", "wire_probes");
    let rows = model.score_batch(&sessions[..16]);
    let responses: Vec<ScoreResponse> = rows
        .iter()
        .map(|r| ScoreResponse {
            scores: vec![r.clone()],
            model_version: 1,
        })
        .collect();
    let encoded: Vec<Vec<u8>> = responses.iter().map(wire::encode_score_response).collect();
    let bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64;
    let n = responses.len() as f64;
    let enc = time_us(PROBE_US, PROBE_ROUNDS, || {
        for r in &responses {
            std::hint::black_box(wire::encode_score_response(r));
        }
    }) / n;
    let dec = time_us(PROBE_US, PROBE_ROUNDS, || {
        for e in &encoded {
            std::hint::black_box(wire::decode_score_response(e).ok());
        }
    }) / n;
    report.metric("wire.resp_bytes_per_row", bytes, "bytes");
    report.metric("wire.resp_encode_us_per_row", enc, "us");
    report.metric("wire.resp_decode_us_per_row", dec, "us");

    let topk: Vec<TopKResponse> = rows
        .iter()
        .map(|r| TopKResponse {
            items: vec![top_k_of_row(r, K)],
            model_version: 1,
        })
        .collect();
    let topk_enc: Vec<Vec<u8>> = topk.iter().map(wire::encode_top_k_response).collect();
    report.metric(
        "wire.topk_encode_us",
        time_us(PROBE_US, PROBE_ROUNDS, || {
            for r in &topk {
                std::hint::black_box(wire::encode_top_k_response(r));
            }
        }) / n,
        "us",
    );
    report.metric(
        "wire.topk_decode_us",
        time_us(PROBE_US, PROBE_ROUNDS, || {
            for e in &topk_enc {
                std::hint::black_box(wire::decode_top_k_response(e).ok());
            }
        }) / n,
        "us",
    );
    let reqs: Vec<TopK> = sessions[..16]
        .iter()
        .map(|s| TopK {
            sessions: vec![s.clone()],
            k: K,
        })
        .collect();
    let opts = SubmitOptions::default();
    let req_enc: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| wire::encode_top_k_request(r, opts, TraceCtx::NONE))
        .collect();
    report.metric(
        "wire.req_encode_us",
        time_us(PROBE_US, PROBE_ROUNDS, || {
            for r in &reqs {
                std::hint::black_box(wire::encode_top_k_request(r, opts, TraceCtx::NONE));
            }
        }) / n,
        "us",
    );
    report.metric(
        "wire.req_decode_us",
        time_us(PROBE_US, PROBE_ROUNDS, || {
            for e in &req_enc {
                std::hint::black_box(wire::decode_request(e, true).ok());
            }
        }) / n,
        "us",
    );
    // The score request codec shares the session layout; its size is noted
    // for reference only.
    let score_req = wire::encode_score_request(
        &ScoreBatch {
            sessions: vec![sessions[0].clone()],
        },
        opts,
        TraceCtx::NONE,
    );
    let (_, load) = wire::encode_request(&Request::Control(ControlRequest::LoadSnapshot {
        version: 2,
        snapshot: snapshot.to_vec(),
    }));
    report.metric("wire.snapshot_bytes", load.len() as f64, "bytes");
    report.metric(
        "wire.snapshot_inflation",
        load.len() as f64 / snapshot.len().max(1) as f64,
        "ratio",
    );
    report.note(format!(
        "wire: score request {} B · top-k reply {} B · snapshot {} B raw",
        score_req.len(),
        topk_enc.first().map_or(0, Vec::len),
        snapshot.len()
    ));
}

fn frozen_probes(model: &FrozenModel<Embsr>, sessions: &[Session], report: &mut Report) {
    let _span = embsr_obs::span("bench", "frozen_probes");
    for (b, score_name, logits_name, encoder_name) in [
        (
            1,
            "frozen.score_us.b1",
            "frozen.logits_us.b1",
            "frozen.encoder_us.b1",
        ),
        (
            8,
            "frozen.score_us.b8",
            "frozen.logits_us.b8",
            "frozen.encoder_us.b8",
        ),
        (
            32,
            "frozen.score_us.b32",
            "frozen.logits_us.b32",
            "frozen.encoder_us.b32",
        ),
    ] {
        let batch = &sessions[..b];
        let score = time_us(PROBE_US, PROBE_ROUNDS, || {
            std::hint::black_box(model.score_batch(batch));
        });
        let cache = ReprCache::new(1024);
        // The untimed first call inside `time_us` fills the cache, so every
        // timed call skips the encoder.
        let logits = time_us(PROBE_US, PROBE_ROUNDS, || {
            std::hint::black_box(model.score_batch_cached(batch, &cache, 1));
        });
        report.metric(score_name, score, "us");
        report.metric(logits_name, logits, "us");
        report.metric(encoder_name, score - logits, "us");
    }
    let row = model.score_batch(&sessions[..1]).pop().unwrap_or_default();
    report.metric(
        "api.top_k_us",
        time_us(PROBE_US, PROBE_ROUNDS, || {
            std::hint::black_box(top_k_of_row(&row, K));
        }),
        "us",
    );
    let graphs = &sessions[..sessions.len().min(256)];
    report.metric(
        "sessions.multigraph_us",
        time_us(PROBE_US, PROBE_ROUNDS, || {
            for s in graphs {
                std::hint::black_box(SessionGraph::from_session(s));
            }
        }) / graphs.len() as f64,
        "us",
    );
}

fn tensor_probes(report: &mut Report) {
    let _span = embsr_obs::span("bench", "tensor_probes");
    let mut rng = Rng::seed_from_u64(0x6E33);
    let table: Vec<f32> = (0..VOCAB * DIM).map(|_| rng.uniform() - 0.5).collect();
    for (m, gflops_name, mb_name) in [
        (1, "tensor.gemm_abt_gflops.m1", "tensor.gemm_abt_mb.m1"),
        (8, "tensor.gemm_abt_gflops.m8", "tensor.gemm_abt_mb.m8"),
        (32, "tensor.gemm_abt_gflops.m32", "tensor.gemm_abt_mb.m32"),
    ] {
        let a: Vec<f32> = (0..m * DIM).map(|_| rng.uniform() - 0.5).collect();
        let mut out = vec![0.0f32; m * VOCAB];
        let us = kernels::with_tier(KernelTier::Simd, || {
            time_us(PROBE_US, PROBE_ROUNDS, || {
                kernels::gemm_abt(&a, &table, &mut out, m, DIM, VOCAB);
                std::hint::black_box(&out);
            })
        });
        let flops = 2.0 * (m * VOCAB * DIM) as f64;
        // Bytes moved, computed from the operand and result sizes.
        let bytes = 4.0 * (m * DIM + VOCAB * DIM + m * VOCAB) as f64;
        report.metric(gflops_name, flops / us / 1e3, "GFLOP/s");
        report.metric(mb_name, bytes / 1e6, "MB");
    }
}

/// Prints the per-layer table and writes it next to the trace.
pub fn write_table(workload: &str, seed: u64, report: &Report) {
    let mut text = format!(
        "# Per-layer metrics: {workload}, seed {seed}\n\n\
         | metric | value | unit | better | layer | should move (end-to-end metric @ workload) |\n\
         |---|---|---|---|---|---|\n"
    );
    for row in PER_LAYER {
        let value = report
            .metrics
            .iter()
            .find(|(n, _, _)| n == row.name)
            .map_or(f64::NAN, |m| m.1);
        text.push_str(&format!(
            "| {} | {value:.4} | {} | {} | {} | {} |\n",
            row.name, row.unit, row.better, row.layer, row.moves
        ));
    }
    eprint!("{text}");
    let path = format!("{}/{workload}-seed{seed}.layers.md", crate::OUT_DIR);
    if let Err(e) =
        std::fs::create_dir_all(crate::OUT_DIR).and_then(|()| std::fs::write(&path, text))
    {
        eprintln!("could not write {path}: {e}");
    }
}
