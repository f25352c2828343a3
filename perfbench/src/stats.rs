//! The harness's own arithmetic: exact order statistics over raw samples
//! and the open-loop arrival schedule with its lag.
//!
//! Percentiles here are nearest-rank over every recorded sample, never a
//! histogram bucket bound, and each one travels with its sample count.

use std::time::Duration;

use maxelerator::remote::derive_seed;

/// A nearest-rank percentile together with the samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The order statistic itself.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly ranked above the percentile (its tail support).
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile (`p` in whole percent, 1..=100): the
/// smallest sample with at least `p`% of all samples at or below it.
/// Integer rank arithmetic, so `p = 90` over 100 samples is exactly the
/// 90th smallest.
///
/// # Panics
///
/// Panics on an empty sample set or `p` outside 1..=100.
pub fn percentile(samples: &[f64], p: u32) -> Percentile {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile rank {p} out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50).value
}

/// Arrival offsets (from the start of an open-loop phase) for `count`
/// session arrivals at `rate_per_s`: slot `i` opens at `i / rate` and the
/// arrival lands uniformly inside the first half of its slot, drawn from
/// `seed`. The rate is fixed; only the phase within each slot varies.
pub fn arrival_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let slot = 1.0 / rate_per_s;
    (0..count)
        .map(|i| {
            let unit = (derive_seed(seed, i as u64) >> 11) as f64 / (1u64 << 53) as f64;
            Duration::from_secs_f64(slot * (i as f64 + 0.5 * unit))
        })
        .collect()
}

/// How late the generator issued an arrival, in milliseconds: the time
/// between its scheduled offset and the moment a connection slot actually
/// started it. Never negative — an early start is a zero lag.
pub fn lag_ms(scheduled: Duration, started: Duration) -> f64 {
    started.saturating_sub(scheduled).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_nearest_rank_order_statistic() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&samples, 50);
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.samples, 100);
        assert_eq!(p50.beyond, 50);
        let p90 = percentile(&samples, 90);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert_eq!(percentile(&samples, 100).value, 100.0);
        assert_eq!(percentile(&samples, 1).value, 1.0);
    }

    #[test]
    fn percentile_rounds_the_rank_up_on_small_sets() {
        // Ranks: ceil(0.5 * 3) = 2, ceil(0.9 * 3) = 3.
        let samples = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&samples, 50).value, 2.0);
        assert_eq!(percentile(&samples, 90).value, 3.0);
        assert_eq!(percentile(&samples, 90).beyond, 0);
        assert_eq!(median(&[7.5]), 7.5);
        // An even count takes the lower middle sample, never an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn hundred_samples_leave_ten_beyond_p90() {
        let samples: Vec<f64> = (0..100).map(|i| (i * 37 % 100) as f64).collect();
        assert!(percentile(&samples, 90).beyond >= 10);
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&short, 90).beyond < 10);
    }

    #[test]
    fn schedule_is_seeded_ordered_and_holds_its_rate() {
        let a = arrival_schedule(7, 50.0, 200);
        assert_eq!(a, arrival_schedule(7, 50.0, 200));
        assert_ne!(a, arrival_schedule(8, 50.0, 200));
        for (i, pair) in a.windows(2).enumerate() {
            assert!(pair[0] < pair[1], "arrival {i} out of order");
        }
        for (i, t) in a.iter().enumerate() {
            let slot_start = i as f64 / 50.0;
            let offset = t.as_secs_f64() - slot_start;
            assert!(
                (-1e-9..0.01 + 1e-9).contains(&offset),
                "arrival {i} left the first half of its slot"
            );
        }
        // 200 arrivals at 50/s span four seconds.
        let span = a[199].as_secs_f64();
        assert!((3.98..4.0).contains(&span), "span {span}");
    }

    #[test]
    fn lag_counts_only_lateness() {
        let due = Duration::from_millis(100);
        assert_eq!(lag_ms(due, Duration::from_millis(103)), 3.0);
        assert_eq!(lag_ms(due, Duration::from_millis(90)), 0.0);
        assert_eq!(lag_ms(due, due), 0.0);
        let lag = lag_ms(due, Duration::from_micros(100_250));
        assert!((lag - 0.25).abs() < 1e-9);
    }
}
