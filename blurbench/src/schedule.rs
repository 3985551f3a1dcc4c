//! Seeded open-loop arrival schedules for the serving workload.
//!
//! Independent users send requests regardless of how fast earlier ones
//! were answered, so the load is an open loop: request send times are
//! fixed in advance by a Poisson process, and a stalled server builds a
//! queue instead of slowing its clients down.

use std::time::Duration;

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Send offsets (from the start of the phase) of a Poisson arrival
/// process at `rate_per_s`, covering `[0, length)`. The same `seed` always
/// gives the same schedule.
pub fn poisson_arrivals(seed: u64, rate_per_s: f64, length: Duration) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let horizon = length.as_secs_f64();
    let mut arrivals = Vec::with_capacity((rate_per_s * horizon * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Uniform in (0, 1]: 53 random mantissa bits, shifted off zero so
        // the logarithm is finite.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate_per_s;
        if t >= horizon {
            return arrivals;
        }
        arrivals.push(Duration::from_secs_f64(t));
    }
}

/// Which request-pool entry each of `count` requests sends: a seeded
/// uniform draw, so the request mix is part of the workload's inputs.
pub fn pool_picks(seed: u64, count: usize, pool: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (rng.next_u64() % pool as u64) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_identical_for_a_seed() {
        let a = poisson_arrivals(11, 2000.0, Duration::from_secs(2));
        let b = poisson_arrivals(11, 2000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        let c = poisson_arrivals(12, 2000.0, Duration::from_secs(2));
        assert_ne!(a, c);
        assert_eq!(pool_picks(3, 100, 7), pool_picks(3, 100, 7));
    }

    #[test]
    fn mean_rate_is_within_tolerance_of_the_target() {
        for seed in [1, 7, 99] {
            let length = Duration::from_secs(10);
            let arrivals = poisson_arrivals(seed, 2000.0, length);
            let rate = arrivals.len() as f64 / length.as_secs_f64();
            assert!(
                (rate - 2000.0).abs() / 2000.0 < 0.03,
                "seed {seed}: measured {rate} req/s"
            );
            assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
            assert!(arrivals.last().is_some_and(|&t| t < length));
        }
    }

    #[test]
    fn pool_picks_stay_in_range() {
        assert!(pool_picks(5, 1000, 13).iter().all(|&i| i < 13));
    }
}
