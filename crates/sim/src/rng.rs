//! Random variates for the workload generators.
//!
//! Everything derives from a seeded xoshiro256++ generator (seed
//! expanded by SplitMix64) provided in-tree by [`tcpdemux_testprop`],
//! so every simulation run is exactly reproducible from its seed on any
//! machine with **no external crates**. The exponential and
//! truncated-exponential samplers are implemented by inverse transform;
//! the truncated variant matches TPC/A's think-time rule (a
//! negative-exponential *conditioned* on not exceeding the truncation
//! point, realized by rejection).
//!
//! # Canonical seeds
//!
//! The RNG algorithm changed in the hermetic-workspace refactor (from
//! `rand::StdRng`, which is ChaCha12-based, to the in-tree
//! xoshiro256++), so *streams changed* and every golden number pinned
//! against the old byte streams was re-derived. The canonical seeds
//! used by the pinned tests and by `EXPERIMENTS.md` are:
//!
//! | seed | used by |
//! |------|---------|
//! | `1..=8`, `1992`  | distribution/stream tests in this module |
//! | `0`, `1`, `31`, `42` | sim engine / runner / TPC/A smoke tests |
//!
//! Two runs with the same seed produce byte-identical stats — this is
//! asserted by `tests/` and `scripts/verify.sh`. Re-pinning a golden
//! number is only legitimate when the *stream* changes (an RNG or
//! sampler change), never to paper over a model regression; cite the
//! paper equation in a comment when you do.

use tcpdemux_testprop::Xoshiro256pp;

/// A seeded source of the workload generators' random variates.
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: Xoshiro256pp,
}

impl SimRng {
    /// Create from a seed; equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.rng.below(n)
    }

    /// Exponential with the given mean, by inverse transform:
    /// `−mean·ln(1−U)`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        let u = self.rng.next_f64();
        -mean * (-u).ln_1p()
    }

    /// Truncated exponential: exponential with `mean`, conditioned on the
    /// value not exceeding `max` (rejection sampling). TPC/A requires
    /// `max ≥ 10 × mean`, making rejection vanishingly rare (`e⁻¹⁰`).
    pub fn truncated_exponential(&mut self, mean: f64, max: f64) -> f64 {
        assert!(max > 0.0 && max >= mean, "truncation below the mean");
        loop {
            let v = self.exponential(mean);
            if v <= max {
                return v;
            }
        }
    }

    /// Geometric number of extra packets: returns `k ≥ 1` with
    /// `P(k) = (1−p)^{k−1} p` — the packet-train length model of
    /// Jain & Routhier (mean `1/p`).
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p) && p > 0.0);
        let u = self.rng.next_f64();
        // Inverse transform: ceil(ln(1−u)/ln(1−p)).
        if p >= 1.0 {
            return 1;
        }
        let k = ((-u).ln_1p() / (-p).ln_1p()).ceil();
        (k as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
        let mut c = SimRng::new(8);
        let same: Vec<f64> = (0..10).map(|_| SimRng::new(7).uniform()).collect();
        assert!(same.iter().all(|&x| x == same[0]));
        assert_ne!(a.uniform(), c.uniform());
    }

    #[test]
    fn matches_testprop_stream() {
        // SimRng and the property harness must draw from the SAME
        // generator family: seed k here equals raw xoshiro256++ seeded
        // with k. This pins the determinism contract across crates.
        let mut sim = SimRng::new(1992);
        let mut raw = Xoshiro256pp::seed_from_u64(1992);
        for _ in 0..32 {
            assert_eq!(sim.uniform(), raw.next_f64());
        }
    }

    #[test]
    fn exponential_mean_and_memorylessness() {
        let mut rng = SimRng::new(1);
        let n = 200_000;
        let mean = 10.0;
        let samples: Vec<f64> = (0..n).map(|_| rng.exponential(mean)).collect();
        let avg: f64 = samples.iter().sum::<f64>() / n as f64;
        assert!((avg - mean).abs() < 0.15, "avg {avg}");
        // CDF at the mean: 1 − e⁻¹ ≈ 0.632.
        let below_mean = samples.iter().filter(|&&x| x < mean).count() as f64 / n as f64;
        assert!((below_mean - 0.632).abs() < 0.01, "{below_mean}");
    }

    #[test]
    fn truncated_exponential_respects_bound() {
        let mut rng = SimRng::new(2);
        let mean = 10.0;
        let max = 100.0;
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let v = rng.truncated_exponential(mean, max);
            assert!((0.0..=max).contains(&v));
            sum += v;
        }
        // The conditioning barely moves the mean (by ~11e⁻¹⁰·mean).
        let avg = sum / 100_000.0;
        assert!((avg - mean).abs() < 0.2, "avg {avg}");
    }

    #[test]
    fn geometric_mean() {
        let mut rng = SimRng::new(3);
        let p = 0.25; // mean train length 4
        let n = 100_000;
        let avg: f64 = (0..n).map(|_| rng.geometric(p) as f64).sum::<f64>() / n as f64;
        assert!((avg - 4.0).abs() < 0.1, "avg {avg}");
        // Always at least 1.
        assert!((0..1000).all(|_| rng.geometric(0.9) >= 1));
        assert_eq!(rng.geometric(1.0), 1);
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = SimRng::new(4);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn uniform_is_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
