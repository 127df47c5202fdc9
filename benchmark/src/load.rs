//! The load generator: one submitter thread and one collector thread on
//! one pipelined [`NetClient`] connection.
//!
//! * **Closed loop** — a fixed window of requests in flight: the submitter
//!   takes a slot before each submit and the collector frees it when the
//!   reply is in, so a slower server receives less load.
//! * **Open loop** — requests are due on a fixed absolute schedule
//!   (`i / rate` seconds after the phase starts) whatever the replies do,
//!   and each is timed from when it was *due*, so a stall also charges the
//!   requests queued behind it. How late the submitter ran is recorded.
//!
//! The collector waits for replies in submission order. A reply that
//! overtakes an earlier one therefore reads late by up to the time it sat
//! waiting; in traced runs the collector bounds that inflation per request
//! (see [`Record::reorder_bound_us`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use embsr_net::{NetClient, NetError, Pending};
use embsr_obs::Stopwatch;
use embsr_serve::{ScoreBatch, ScoreResponse, ScoredItem, SubmitOptions, TopK, TopKResponse};
use embsr_sessions::Session;

use crate::inputs::Stream;

/// What each request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A full score row over the vocabulary (`ScoreBatch`).
    Rows,
    /// The `k` best items (`TopK`).
    TopK(usize),
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with a well-formed reply tagged with this model version.
    Ok { version: u64 },
    /// Refused by admission control or shed past its deadline.
    Refused,
    /// Transport or server error.
    Failed,
    /// A reply of the wrong shape: a wrong answer.
    Malformed,
}

/// One request's timeline, in microseconds on the run's clock.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Pool entry the request sent.
    pub pool_idx: usize,
    /// When the request was due (open loop) or submitted (closed loop).
    pub due_us: u64,
    /// When the submit call started.
    pub sent_us: u64,
    /// When the collector had the decoded reply.
    pub done_us: u64,
    /// Time spent inside `submit_*` (traced runs only, else 0).
    pub submit_us: u64,
    /// Upper bound on how much in-order collection inflated `done_us`:
    /// non-zero only when a later reply had already arrived before the
    /// collector reached this one (traced runs only).
    pub reorder_bound_us: u64,
    pub outcome: Outcome,
}

impl Record {
    /// Latency from due time to reply, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done_us.saturating_sub(self.due_us) as f64 / 1e3
    }
}

/// A reply kept for the bitwise check against an in-process model.
pub enum Reply {
    Row(Vec<f32>),
    TopK(Vec<ScoredItem>),
}

/// A sampled reply with the session and version it answers.
pub struct Sample {
    pub pool_idx: usize,
    pub version: u64,
    pub reply: Reply,
}

/// Everything one phase produced.
#[derive(Default)]
pub struct PhaseResult {
    pub records: Vec<Record>,
    pub samples: Vec<Sample>,
    /// Wall seconds from the phase start to the last reply.
    pub wall_s: f64,
    /// Highest `NetClient::in_flight` seen after a submit (traced runs).
    pub in_flight_max: usize,
}

impl PhaseResult {
    /// Requests answered with a well-formed reply.
    pub fn ok(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Ok { .. }))
            .count()
    }

    /// Requests with the given non-`Ok` outcome.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }
}

/// The traffic a phase sends.
pub struct Target<'a> {
    pub client: &'a NetClient,
    pub pool: &'a [Session],
    pub stream: Stream,
    /// Stream index of the phase's first request; phases of one run take
    /// consecutive ranges so a sequential stream never repeats itself.
    pub first: u64,
    pub shape: Shape,
    /// Vocabulary size: the width of a well-formed score row.
    pub num_items: usize,
    /// Keep every `sample_every`-th reply for the bitwise check (0: none).
    pub sample_every: u64,
    /// Time submits and bound reorder inflation (per-layer runs).
    pub traced: bool,
}

/// When requests go out.
#[derive(Clone, Copy, Debug)]
pub enum Plan {
    /// Keep `window` requests in flight until `end_us` on the run clock.
    Closed { window: usize, end_us: u64 },
    /// `count` requests due every `interval_us`, starting at once.
    Open { interval_us: f64, count: u64 },
}

enum InFlight {
    Row(Pending<ScoreResponse>),
    TopK(Pending<TopKResponse>),
}

struct Meta {
    seq: u64,
    pool_idx: usize,
    due_us: u64,
    sent_us: u64,
    submit_us: u64,
}

const OPTS: SubmitOptions = SubmitOptions {
    deadline_us: 0,
    shed: false,
};

fn submit(t: &Target<'_>, session: &Session) -> InFlight {
    let sessions = vec![session.clone()];
    match t.shape {
        Shape::Rows => InFlight::Row(t.client.submit_score(&ScoreBatch { sessions }, OPTS)),
        Shape::TopK(k) => InFlight::TopK(t.client.submit_top_k(&TopK { sessions, k }, OPTS)),
    }
}

fn classify_err(e: &NetError) -> Outcome {
    match e {
        NetError::Overloaded { .. } | NetError::DeadlineExpired { .. } => Outcome::Refused,
        _ => Outcome::Failed,
    }
}

/// Waits for one reply; returns its outcome and, when `keep`, the reply.
fn collect(t: &Target<'_>, flight: InFlight, keep: bool) -> (Outcome, Option<Reply>) {
    match flight {
        InFlight::Row(p) => match p.wait() {
            Ok(mut resp) => {
                let well_formed = resp.scores.len() == 1 && resp.scores[0].len() == t.num_items;
                if !well_formed {
                    return (Outcome::Malformed, None);
                }
                let version = resp.model_version;
                let reply = keep.then(|| Reply::Row(resp.scores.swap_remove(0)));
                (Outcome::Ok { version }, reply)
            }
            Err(e) => (classify_err(&e), None),
        },
        InFlight::TopK(p) => match p.wait() {
            Ok(mut resp) => {
                let k = match t.shape {
                    Shape::TopK(k) => k.min(t.num_items),
                    Shape::Rows => 0,
                };
                if resp.items.len() != 1 || resp.items[0].len() != k {
                    return (Outcome::Malformed, None);
                }
                let version = resp.model_version;
                let reply = keep.then(|| Reply::TopK(resp.items.swap_remove(0)));
                (Outcome::Ok { version }, reply)
            }
            Err(e) => (classify_err(&e), None),
        },
    }
}

/// Runs one phase. `during` runs on the calling thread while the phase is
/// live (the control plane of `swap_repeat` uses it); the phase ends when
/// both it and the traffic are done.
pub fn run(t: &Target<'_>, clock: &Stopwatch, plan: Plan, during: impl FnOnce()) -> PhaseResult {
    let start_us = clock.elapsed_us();
    let submitted = AtomicU64::new(0);
    let in_flight_max = AtomicU64::new(0);
    let window = match plan {
        Plan::Closed { window, .. } => window.max(1),
        Plan::Open { .. } => 1,
    };
    let (slot_tx, slot_rx) = mpsc::sync_channel::<()>(window);
    for _ in 0..window {
        let _ = slot_tx.send(());
    }
    let (tx, rx) = mpsc::channel::<(Meta, InFlight)>();
    let mut out = std::thread::scope(|scope| {
        let submitted = &submitted;
        let in_flight_max = &in_flight_max;
        scope.spawn(move || {
            let mut seq = 0u64;
            loop {
                let due_us = match plan {
                    Plan::Closed { end_us, .. } => {
                        if slot_rx.recv().is_err() || clock.elapsed_us() >= end_us {
                            break;
                        }
                        clock.elapsed_us()
                    }
                    Plan::Open { interval_us, count } => {
                        if seq >= count {
                            break;
                        }
                        let due = start_us + (seq as f64 * interval_us) as u64;
                        let now = clock.elapsed_us();
                        if due > now {
                            std::thread::sleep(Duration::from_micros(due - now));
                        }
                        due
                    }
                };
                let pool_idx = t.stream.index(t.first + seq, t.pool.len());
                let sent_us = clock.elapsed_us();
                let flight = submit(t, &t.pool[pool_idx]);
                let submit_us = if t.traced {
                    let depth = t.client.in_flight() as u64;
                    // ordering: Relaxed — a statistic read after the scope joins.
                    in_flight_max.fetch_max(depth, Ordering::Relaxed);
                    clock.elapsed_us() - sent_us
                } else {
                    0
                };
                let meta = Meta {
                    seq,
                    pool_idx,
                    due_us,
                    sent_us,
                    submit_us,
                };
                if tx.send((meta, flight)).is_err() {
                    break;
                }
                // ordering: Relaxed — the collector only uses it for a
                // lower bound on replies already arrived (see below).
                submitted.fetch_add(1, Ordering::Relaxed);
                seq += 1;
            }
            drop(tx);
        });
        let collector = scope.spawn(move || {
            let mut res = PhaseResult::default();
            let mut collected = 0u64;
            let mut ahead = false;
            let mut prev_done = 0u64;
            for (meta, flight) in rx {
                let keep = t.sample_every > 0 && meta.seq % t.sample_every == 0;
                let (outcome, reply) = collect(t, flight, keep);
                let done_us = clock.elapsed_us();
                let _ = slot_tx.try_send(());
                let reorder_bound_us = if ahead {
                    prev_done.saturating_sub(meta.sent_us)
                } else {
                    0
                };
                collected += 1;
                if t.traced {
                    // Replies routed but not yet collected: submitted minus
                    // collected minus still pending. Reading `submitted`
                    // before `in_flight` can only undercount, so a positive
                    // value proves a later reply was already waiting.
                    // ordering: Relaxed — see the comment above.
                    let sent = submitted.load(Ordering::Relaxed);
                    let pending = t.client.in_flight() as u64;
                    ahead = sent.saturating_sub(collected).saturating_sub(pending) > 0;
                    prev_done = done_us;
                }
                if let (Some(reply), Outcome::Ok { version }) = (reply, outcome) {
                    res.samples.push(Sample {
                        pool_idx: meta.pool_idx,
                        version,
                        reply,
                    });
                }
                res.records.push(Record {
                    pool_idx: meta.pool_idx,
                    due_us: meta.due_us,
                    sent_us: meta.sent_us,
                    done_us,
                    submit_us: meta.submit_us,
                    reorder_bound_us,
                    outcome,
                });
            }
            res
        });
        during();
        match collector.join() {
            Ok(res) => res,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    let end_us = out
        .records
        .iter()
        .map(|r| r.done_us)
        .max()
        .unwrap_or(start_us);
    out.wall_s = end_us.saturating_sub(start_us) as f64 / 1e6;
    // ordering: Relaxed — the scope above joined every writer.
    out.in_flight_max = in_flight_max.load(Ordering::Relaxed) as usize;
    out
}
