//! `tcpdemux-testprop` — deterministic randomness and a minimal
//! property-testing harness, with zero external dependencies.
//!
//! The workspace must build and test fully offline, so `proptest` (and
//! `rand` underneath it) are replaced by this crate. It provides:
//!
//! * [`rng`] — the canonical SplitMix64-seeded xoshiro256++ generator
//!   ([`Xoshiro256pp`]), shared with `tcpdemux-sim`'s `SimRng` so that
//!   simulations, benches, and property tests all draw from one
//!   reproducible stream family.
//! * [`TestRng`] — value generators (integers in ranges, byte vectors,
//!   options, choices) for writing property cases.
//! * [`check`] / [`check_cases`] — a fixed-iteration property runner
//!   with failing-seed reporting and single-seed replay.
//!
//! # Writing a property
//!
//! ```
//! tcpdemux_testprop::check("addition_commutes", |rng| {
//!     let a = rng.u32_below(1000);
//!     let b = rng.u32_below(1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! Each case gets an independent RNG whose seed derives from a fixed
//! base seed and the case index, so runs are identical on every machine
//! and every execution. On failure the harness reports the case's seed:
//!
//! ```text
//! [testprop] property 'prop_roundtrip' failed at case 17/256
//! [testprop] replay with: TESTPROP_SEED=0x53b0_... (runs only that case)
//! ```
//!
//! Setting `TESTPROP_SEED=<u64>` (decimal or `0x`-hex) replays exactly
//! one case with that seed; `TESTPROP_CASES=<n>` overrides the
//! iteration count for soak runs. Neither is needed for normal `cargo
//! test` — defaults are fixed so CI is deterministic.
//!
//! Tests that loop over whole-scenario seeds themselves (fault streams,
//! thread interleavings) size the loop with [`sweep_seeds`], which
//! `TCPDEMUX_SEEDS=<n>` widens for every such test at once.

#![forbid(unsafe_code)]

pub mod rng;

pub use rng::{splitmix64, Xoshiro256pp};

/// Default number of cases per property — fixed so test time and
/// coverage are identical on every run.
pub const DEFAULT_CASES: u32 = 256;

/// Base seed from which per-case seeds are derived. Changing this
/// reshuffles every property's inputs; it is part of the repo's
/// determinism contract and must only change deliberately.
pub const BASE_SEED: u64 = 0x7c8_1992_5153_0c0d; // "McKenney & Dove, SIGCOMM '92"

/// A per-case source of generated values, wrapping [`Xoshiro256pp`].
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: Xoshiro256pp,
    seed: u64,
}

impl TestRng {
    /// Create from a seed; equal seeds give equal value streams.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            inner: Xoshiro256pp::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this case was created from (shown in failure reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform 32-bit value.
    pub fn u32(&mut self) -> u32 {
        self.inner.next_u64() as u32
    }

    /// Uniform 16-bit value.
    pub fn u16(&mut self) -> u16 {
        self.inner.next_u64() as u16
    }

    /// Uniform byte.
    pub fn u8(&mut self) -> u8 {
        self.inner.next_u64() as u8
    }

    /// Uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.inner.next_u64() & 1 == 1
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.next_f64() < p
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.below(n)
    }

    /// Uniform `u32` in `[0, n)`.
    pub fn u32_below(&mut self, n: u32) -> u32 {
        self.inner.below(u64::from(n)) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.inner.below((hi - lo) as u64) as usize
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.inner.below(hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `u16` in `[lo, hi)`.
    pub fn u16_in(&mut self, lo: u16, hi: u16) -> u16 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u16
    }

    /// Uniform `u8` in `[lo, hi)`.
    pub fn u8_in(&mut self, lo: u8, hi: u8) -> u8 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u8
    }

    /// `Some(gen(self))` with probability ½, else `None` — the analogue
    /// of `proptest::option::of`.
    pub fn option<T>(&mut self, gen: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.bool() {
            Some(gen(self))
        } else {
            None
        }
    }

    /// Uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.inner.below(items.len() as u64) as usize]
    }

    /// Vector of uniform bytes with length uniform in `[lo, hi)`.
    pub fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        let len = self.usize_in(lo, hi);
        (0..len).map(|_| self.u8()).collect()
    }

    /// Vector built by `gen`, with length uniform in `[lo, hi)` — the
    /// analogue of `proptest::collection::vec`.
    pub fn vec_of<T>(
        &mut self,
        lo: usize,
        hi: usize,
        mut gen: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(lo, hi);
        (0..len).map(|_| gen(self)).collect()
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim().replace('_', "");
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("[testprop] {name}={raw:?} is not a u64"),
    }
}

/// Derive the seed for case `index` of property `name`.
///
/// Mixes the property name into the stream so two properties in the same
/// binary never see identical inputs, then steps SplitMix64 per index.
fn case_seed(name: &str, index: u32) -> u64 {
    let mut s = BASE_SEED;
    for b in name.bytes() {
        s = splitmix64(&mut s) ^ u64::from(b);
    }
    s ^= u64::from(index);
    splitmix64(&mut s)
}

/// Run `body` for `cases` deterministic cases; panic with a replayable
/// seed on the first failure.
///
/// `body` signals failure by panicking (plain `assert!`/`assert_eq!`
/// work). On failure the harness re-raises the panic after printing the
/// case's seed and replay instructions to stderr.
pub fn check_cases(name: &str, cases: u32, body: impl Fn(&mut TestRng)) {
    if let Some(seed) = env_u64("TESTPROP_SEED") {
        eprintln!("[testprop] replaying '{name}' with single seed {seed:#x}");
        body(&mut TestRng::from_seed(seed));
        return;
    }
    let cases = env_u64("TESTPROP_CASES").map_or(cases, |n| n as u32).max(1);
    for index in 0..cases {
        let seed = case_seed(name, index);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&mut TestRng::from_seed(seed));
        }));
        if let Err(payload) = result {
            eprintln!(
                "[testprop] property '{name}' failed at case {}/{cases}",
                index + 1
            );
            eprintln!("[testprop] replay with: TESTPROP_SEED={seed:#x} (runs only that case)");
            std::panic::resume_unwind(payload);
        }
    }
}

/// How many seeds a seed-sweep test should run: `default`, unless the
/// `TCPDEMUX_SEEDS` environment variable asks for a wider (or narrower)
/// sweep. `scripts/verify.sh` sets it per stage.
pub fn sweep_seeds(default: u32) -> u32 {
    env_u64("TCPDEMUX_SEEDS").map_or(default, |n| n as u32)
}

/// [`check_cases`] with the default [`DEFAULT_CASES`] iteration count.
pub fn check(name: &str, body: impl Fn(&mut TestRng)) {
    check_cases(name, DEFAULT_CASES, body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_stable_and_distinct() {
        assert_eq!(case_seed("p", 0), case_seed("p", 0));
        assert_ne!(case_seed("p", 0), case_seed("p", 1));
        assert_ne!(case_seed("p", 0), case_seed("q", 0));
    }

    #[test]
    fn check_runs_every_case() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let ran = AtomicU32::new(0);
        check_cases("count", 37, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn failing_case_reports_and_propagates() {
        let result = std::panic::catch_unwind(|| {
            check_cases("always_fails", 8, |_| panic!("boom"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn generators_respect_ranges() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..10_000 {
            assert!((5..17).contains(&rng.usize_in(5, 17)));
            assert!((100..200).contains(&rng.u16_in(100, 200)));
            let v = rng.bytes(0, 9);
            assert!(v.len() < 9);
        }
    }

    #[test]
    fn option_and_choose_cover_both_arms() {
        let mut rng = TestRng::from_seed(2);
        let mut some = 0;
        for _ in 0..1000 {
            if rng.option(|r| r.u8()).is_some() {
                some += 1;
            }
        }
        assert!((400..600).contains(&some), "{some}");
        let items = [1, 2, 3];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items)));
        }
    }

    #[test]
    fn vec_of_builds_tuples() {
        let mut rng = TestRng::from_seed(3);
        let ops = rng.vec_of(1, 50, |r| (r.u8_in(0, 4), r.u32_below(24)));
        assert!(!ops.is_empty() && ops.len() < 50);
        assert!(ops.iter().all(|&(op, k)| op < 4 && k < 24));
    }
}
