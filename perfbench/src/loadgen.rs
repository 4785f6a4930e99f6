//! Open-loop load generation: seeded Poisson arrivals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arrival offsets in seconds, sorted, for a Poisson process of `rate`
/// requests per second over `seconds`. The same seed gives the same
/// schedule.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// Asks the kernel to wake this thread's sleeps within 1 ns of their
/// deadline instead of the default 50 µs slack, so the generator's own
/// lateness does not dominate sub-millisecond latencies. Best effort.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes the slack in nanoseconds as its
        // only argument, touches no memory of ours, and affects only the
        // calling thread; a failure merely leaves the default slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

/// `n` request indices into a pool of `pool` inputs, drawn from `seed`.
pub fn picks(n: usize, pool: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    (0..n).map(|_| rng.gen_range(0..pool)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_from_the_seed() {
        let a = poisson_schedule(1000.0, 2.0, 7);
        assert_eq!(a, poisson_schedule(1000.0, 2.0, 7));
        assert_ne!(a, poisson_schedule(1000.0, 2.0, 8));
        assert_eq!(picks(50, 9, 3), picks(50, 9, 3));
        assert!(picks(50, 9, 3).iter().all(|&i| i < 9));
    }

    #[test]
    fn schedule_has_the_offered_rate_and_stays_in_range() {
        let a = poisson_schedule(5000.0, 4.0, 11);
        let n = a.len() as f64;
        assert!((n / 4.0 - 5000.0).abs() < 5000.0 * 0.05, "rate {}", n / 4.0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
    }
}
