//! Workload inputs, all derived from the `--seed` argument.
//!
//! Serving sessions are prefixes of the test split of the JD-Appliances
//! simulator, cut at every macro-item boundary, so their length and
//! operation mix follow the paper's generator. The program under test only
//! ever receives the generated sessions.

use std::collections::BTreeSet;

use embsr_datasets::{build_dataset, Dataset, DatasetPreset, SyntheticConfig};
use embsr_sessions::{MicroBehavior, Session};
use embsr_tensor::Rng;

/// SplitMix64 finaliser: a stateless, well-spread hash of one `u64`.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every distinct prefix, cut at a macro-item boundary, of every session in
/// `examples`, shuffled by `seed`. Each distinct session gets a distinct id,
/// so the server's shard key and repr-cache key both see it as new.
fn distinct_prefixes<'a>(sessions: impl Iterator<Item = &'a Session>, seed: u64) -> Vec<Session> {
    let mut seen: BTreeSet<Vec<(u32, u16)>> = BTreeSet::new();
    for s in sessions {
        for cut in 1..=s.events.len() {
            let boundary = cut == s.events.len() || s.events[cut].item != s.events[cut - 1].item;
            if boundary {
                seen.insert(s.events[..cut].iter().map(|e| (e.item, e.op)).collect());
            }
        }
    }
    let mut out: Vec<Session> = seen
        .into_iter()
        .map(|events| Session {
            id: 0,
            events: events
                .into_iter()
                .map(|(item, op)| MicroBehavior::new(item, op))
                .collect(),
        })
        .collect();
    let mut rng = Rng::seed_from_u64(mix(seed ^ 0x5E55_1045));
    rng.shuffle(&mut out);
    for (i, s) in out.iter_mut().enumerate() {
        s.id = mix(seed.wrapping_mul(0x1_0000_0001) ^ i as u64);
    }
    out
}

/// The serving pool: at least `want` distinct JD-Appliances test-split
/// prefixes (fewer only if the simulator cannot produce them), plus the
/// simulator's operation vocabulary size.
pub fn serving_pool(seed: u64, want: usize) -> (Vec<Session>, usize) {
    let mut cfg = SyntheticConfig::preset(DatasetPreset::JdAppliances);
    cfg.seed = mix(seed);
    // The preset's 6 000 sessions give ~1 200 test sessions; scale the
    // corpus (not the catalog) until the test split yields enough prefixes.
    cfg.num_sessions = 30_000;
    let data = build_dataset(&cfg);
    let mut pool = distinct_prefixes(data.test.iter().map(|e| &e.session), seed);
    pool.truncate(want);
    (pool, data.num_ops)
}

/// The training corpus of the training probes: JD-Computers at a quarter of the
/// preset's scale.
pub fn training_dataset(seed: u64) -> Dataset {
    let mut cfg = SyntheticConfig::preset(DatasetPreset::JdComputers).scaled(0.25);
    cfg.seed = mix(seed ^ 0x7EA1);
    build_dataset(&cfg)
}

/// Which pool entry request `i` of a stream sends.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Entry `i % len`: each request a session not sent before, until the
    /// pool wraps.
    Sequential,
    /// A Zipf-skewed user over the first `universe` entries (log-uniform
    /// rank, the heavy-head approximation), hashed from `(seed, i)` so the
    /// stream needs no shared state.
    Zipf { universe: u64, seed: u64 },
}

impl Stream {
    /// Pool index of request `i`.
    pub fn index(&self, i: u64, len: usize) -> usize {
        let len = len.max(1) as u64;
        match *self {
            Stream::Sequential => (i % len) as usize,
            Stream::Zipf { universe, seed } => {
                let u = (mix(seed ^ mix(i)) >> 11) as f64 / (1u64 << 53) as f64;
                let universe = universe.clamp(1, len);
                let rank = (universe as f64).powf(u) as u64;
                (rank.clamp(1, universe) - 1) as usize
            }
        }
    }
}
