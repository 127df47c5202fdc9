//! Sample statistics over raw measurements, and the process's memory peak.
//!
//! Quantiles are read from the raw samples (nearest rank on the sorted
//! values), never from the log-bucketed `embsr_obs` histograms, whose
//! buckets are too coarse to resolve a 10 % change.

use embsr_obs::Stopwatch;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Seconds elapsed on `watch`, at microsecond resolution.
pub fn secs(watch: &Stopwatch) -> f64 {
    watch.elapsed_us() as f64 / 1e6
}

/// Times `f` over `rounds` rounds of back-to-back calls, each round sized
/// to last about `budget_us / rounds`, and returns the median microseconds
/// per call. One untimed call comes first.
pub fn time_us(budget_us: u64, rounds: usize, mut f: impl FnMut()) -> f64 {
    // One untimed call warms caches and any lazy set-up.
    f();
    let probe = Stopwatch::start();
    f();
    let one = probe.elapsed_us().max(1);
    let per_round = (budget_us / rounds.max(1) as u64 / one).max(1);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        let w = Stopwatch::start();
        for _ in 0..per_round {
            f();
        }
        samples.push(w.elapsed_us() as f64 / per_round as f64);
    }
    median(&samples)
}

/// Median wall milliseconds of `reps` calls of `f`.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let w = Stopwatch::start();
        f();
        samples.push(w.elapsed_us() as f64 / 1e3);
    }
    median(&samples)
}

/// Peak resident set size of this process (`VmHWM`), in MiB; `0.0` when
/// the kernel does not expose it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
