//! Round-trip-time estimation (Jacobson & Karels, SIGCOMM 1988).
//!
//! The PCB the paper's lookup schemes search is the same structure Van
//! Jacobson's congestion work reads on every ACK — the two lines of
//! research the introduction contrasts. A PCB therefore carries the
//! smoothed RTT state: `srtt` and `rttvar` in the classic EWMA form
//!
//! ```text
//! err    = sample − srtt
//! srtt  += err / 8
//! rttvar += (|err| − rttvar) / 4
//! rto    = srtt + 4·rttvar        (clamped to [MIN_RTO, MAX_RTO])
//! ```
//!
//! computed in integer microseconds, exactly as a kernel would.

/// Jacobson–Karels smoothed RTT estimator (microsecond integers).
///
/// Every connection slot carries one, so the state is three 32-bit words:
/// 2³² µs is 71 minutes, seventy times the RTO ceiling, and a sample
/// above that saturates. Both estimates stay between their previous value
/// and the sample, so 32-bit arithmetic on them is exact; only the RTO
/// sum is widened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttEstimator {
    srtt: u32,
    rttvar: u32,
    samples: u32,
}

impl RttEstimator {
    /// RTO floor: 200 ms (BSD's slow-timer granularity era used 500 ms;
    /// modern stacks use 200).
    pub const DEFAULT_MIN_RTO: u64 = 200_000;
    /// RTO ceiling (60 s).
    pub const DEFAULT_MAX_RTO: u64 = 60_000_000;

    /// A fresh estimator. Before the first sample, [`rto`](Self::rto)
    /// returns a conservative 1 s (RFC 6298's initial value, rounded from
    /// 3 s as modern practice does).
    pub fn new() -> Self {
        Self {
            srtt: 0,
            rttvar: 0,
            samples: 0,
        }
    }

    /// Number of samples absorbed.
    pub fn samples(&self) -> u64 {
        u64::from(self.samples)
    }

    /// The smoothed RTT in microseconds (0 before any sample).
    pub fn srtt(&self) -> u64 {
        u64::from(self.srtt)
    }

    /// The RTT variation estimate in microseconds.
    pub fn rttvar(&self) -> u64 {
        u64::from(self.rttvar)
    }

    /// Absorb one RTT measurement (microseconds).
    pub fn record(&mut self, sample: u64) {
        let sample = u32::try_from(sample).unwrap_or(u32::MAX);
        if self.samples == 0 {
            // RFC 6298 initialization: srtt = R, rttvar = R/2.
            self.srtt = sample;
            self.rttvar = sample / 2;
        } else {
            let err = sample.abs_diff(self.srtt);
            // srtt += err/8 with sign.
            if sample >= self.srtt {
                self.srtt += err / 8;
            } else {
                self.srtt -= err / 8;
            }
            // rttvar += (|err| − rttvar)/4.
            if err >= self.rttvar {
                self.rttvar += (err - self.rttvar) / 4;
            } else {
                self.rttvar -= (self.rttvar - err) / 4;
            }
        }
        self.samples = self.samples.saturating_add(1);
    }

    /// Absorb the measurement for an acknowledged segment, subject to
    /// Karn's rule (Karn & Partridge, SIGCOMM 1987): an ACK for a segment
    /// that was ever retransmitted is ambiguous — it may acknowledge the
    /// original or the retransmission — so it must never produce a sample.
    /// Returns whether the sample was taken.
    pub fn sample_acked(&mut self, elapsed: u64, was_retransmitted: bool) -> bool {
        if was_retransmitted {
            return false;
        }
        self.record(elapsed);
        true
    }

    /// The retransmission timeout: `srtt + 4·rttvar`, clamped. Before any
    /// sample, a conservative 1 s.
    pub fn rto(&self) -> u64 {
        if self.samples == 0 {
            return 1_000_000;
        }
        (self.srtt() + 4 * self.rttvar()).clamp(Self::DEFAULT_MIN_RTO, Self::DEFAULT_MAX_RTO)
    }

    /// Exponential backoff of the current RTO after a retransmission
    /// timeout fires (doubling, clamped to the ceiling).
    pub fn backed_off(&self, attempts: u32) -> u64 {
        let rto = self.rto();
        rto.saturating_mul(1u64 << attempts.min(16))
            .min(Self::DEFAULT_MAX_RTO)
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_testprop::check;

    /// The estimator as it was in 64-bit words: what the 32-bit one must
    /// agree with wherever a sample can matter.
    #[derive(Default)]
    struct Reference {
        srtt: u64,
        rttvar: u64,
        samples: u64,
    }

    impl Reference {
        fn record(&mut self, sample: u64) {
            if self.samples == 0 {
                self.srtt = sample;
                self.rttvar = sample / 2;
            } else {
                let err = sample.abs_diff(self.srtt);
                if sample >= self.srtt {
                    self.srtt += err / 8;
                } else {
                    self.srtt -= err / 8;
                }
                if err >= self.rttvar {
                    self.rttvar += (err - self.rttvar) / 4;
                } else {
                    self.rttvar -= (self.rttvar - err) / 4;
                }
            }
            self.samples += 1;
        }

        fn rto(&self) -> u64 {
            if self.samples == 0 {
                return 1_000_000;
            }
            (self.srtt + 4 * self.rttvar)
                .clamp(RttEstimator::DEFAULT_MIN_RTO, RttEstimator::DEFAULT_MAX_RTO)
        }

        fn backed_off(&self, attempts: u32) -> u64 {
            self.rto()
                .saturating_mul(1u64 << attempts.min(16))
                .min(RttEstimator::DEFAULT_MAX_RTO)
        }
    }

    /// Up to the RTO ceiling — sixty times what any path this stack meets
    /// measures — 32-bit state gives what 64-bit state gave, to the bit.
    #[test]
    fn prop_narrow_state_agrees_with_the_wide_reference() {
        check(
            "rtt_prop_narrow_state_agrees_with_the_wide_reference",
            |rng| {
                let mut est = RttEstimator::new();
                let mut wide = Reference::default();
                for _ in 0..rng.usize_in(0, 200) {
                    // Mostly ordinary round trips, sometimes anything up to
                    // the ceiling, sometimes the ceiling itself.
                    let sample = match rng.u32_below(8) {
                        0 => RttEstimator::DEFAULT_MAX_RTO,
                        1..=2 => rng.u64_in(0, RttEstimator::DEFAULT_MAX_RTO + 1),
                        _ => rng.u64_in(0, 2_000_000),
                    };
                    est.record(sample);
                    wide.record(sample);
                    assert_eq!(
                        (est.srtt(), est.rttvar(), est.samples(), est.rto()),
                        (wide.srtt, wide.rttvar, wide.samples, wide.rto())
                    );
                    let attempts = rng.u32_below(40);
                    assert_eq!(est.backed_off(attempts), wide.backed_off(attempts));
                }
            },
        );
    }

    /// A sample no 32-bit microsecond count can hold pins the estimate at
    /// the top of the range; it does not wrap round to a short one.
    #[test]
    fn samples_past_the_range_saturate() {
        let mut est = RttEstimator::new();
        est.record(u64::from(u32::MAX) + 1_000);
        assert_eq!(est.srtt(), u64::from(u32::MAX), "2^32 + 1000 is not 1000");
        for _ in 0..100 {
            est.record(u64::MAX);
        }
        assert_eq!(est.srtt(), u64::from(u32::MAX));
        assert!(est.rttvar() <= u64::from(u32::MAX));
        assert_eq!(est.rto(), RttEstimator::DEFAULT_MAX_RTO);
        assert_eq!(est.backed_off(5), RttEstimator::DEFAULT_MAX_RTO);
    }

    #[test]
    fn initial_rto_is_one_second() {
        let est = RttEstimator::new();
        assert_eq!(est.rto(), 1_000_000);
        assert_eq!(est.samples(), 0);
        assert_eq!(est.srtt(), 0);
    }

    #[test]
    fn first_sample_initializes_per_rfc6298() {
        let mut est = RttEstimator::new();
        est.record(100_000); // 100 ms
        assert_eq!(est.srtt(), 100_000);
        assert_eq!(est.rttvar(), 50_000);
        assert_eq!(est.rto(), 300_000); // srtt + 4·rttvar
    }

    #[test]
    fn steady_rtt_converges_and_tightens() {
        let mut est = RttEstimator::new();
        for _ in 0..200 {
            est.record(100_000);
        }
        assert_eq!(est.srtt(), 100_000);
        // Integer EWMA floors: the decrement (rttvar/4) rounds to zero
        // below 4 µs, so "decays to zero" means "to within 3 µs".
        assert!(est.rttvar() <= 3, "rttvar {}", est.rttvar());
        assert_eq!(est.rto(), RttEstimator::DEFAULT_MIN_RTO, "floor applies");
    }

    #[test]
    fn spike_raises_rto_quickly() {
        let mut est = RttEstimator::new();
        for _ in 0..50 {
            est.record(100_000);
        }
        let calm = est.rto();
        est.record(1_000_000); // a 1 s outlier
        assert!(est.rto() > calm, "variance term reacts to the spike");
        assert!(est.rttvar() > 200_000, "rttvar jumped: {}", est.rttvar());
    }

    #[test]
    fn rto_respects_ceiling() {
        let mut est = RttEstimator::new();
        est.record(30_000_000); // 30 s sample: srtt + 4·rttvar is 90 s
        assert_eq!(est.rto(), RttEstimator::DEFAULT_MAX_RTO);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut est = RttEstimator::new();
        est.record(100_000);
        let rto = est.rto();
        assert_eq!(est.backed_off(0), rto);
        assert_eq!(est.backed_off(1), rto * 2);
        assert_eq!(est.backed_off(3), rto * 8);
        assert_eq!(est.backed_off(30), RttEstimator::DEFAULT_MAX_RTO);
    }

    #[test]
    fn tracks_shifting_baseline() {
        // RTT moves from 50 ms to 250 ms; srtt must follow.
        let mut est = RttEstimator::new();
        for _ in 0..100 {
            est.record(50_000);
        }
        for _ in 0..200 {
            est.record(250_000);
        }
        assert!(
            (240_000..=260_000).contains(&est.srtt()),
            "srtt {}",
            est.srtt()
        );
    }

    /// Karn's rule: under any interleaving of clean and retransmitted
    /// acknowledgements, only the clean ones are sampled — the estimator
    /// state is exactly what feeding the clean subsequence alone produces.
    #[test]
    fn prop_karn_retransmitted_acks_never_sample() {
        check("rtt_prop_karn_retransmitted_acks_never_sample", |rng| {
            let acks = rng.vec_of(0, 80, |r| (r.u64_in(1_000, 5_000_000), r.bool()));
            let mut est = RttEstimator::new();
            let mut clean_only = RttEstimator::new();
            for &(elapsed, was_retransmitted) in &acks {
                let sampled = est.sample_acked(elapsed, was_retransmitted);
                assert_eq!(sampled, !was_retransmitted);
                if !was_retransmitted {
                    clean_only.record(elapsed);
                }
            }
            assert_eq!(est, clean_only);
            let clean = acks.iter().filter(|&&(_, r)| !r).count() as u64;
            assert_eq!(est.samples(), clean);
        });
    }

    /// Successive backoffs double exactly until the ceiling clamps them,
    /// and never exceed it, whatever the estimator has absorbed.
    #[test]
    fn prop_backoff_doubles_to_the_clamp() {
        check("rtt_prop_backoff_doubles_to_the_clamp", |rng| {
            let mut est = RttEstimator::new();
            for _ in 0..rng.u32_below(20) {
                est.record(rng.u64_in(1_000, 10_000_000));
            }
            let max = RttEstimator::DEFAULT_MAX_RTO;
            for attempts in 0..20u32 {
                let now = est.backed_off(attempts);
                let next = est.backed_off(attempts + 1);
                assert!(now <= max, "attempt {attempts}: {now} above ceiling");
                if next < max {
                    assert_eq!(next, now * 2, "attempt {attempts} must double");
                } else {
                    assert_eq!(next, max, "past the clamp, backoff pins at max");
                    assert!(now * 2 >= max || now == max);
                }
            }
        });
    }

    /// The estimator never leaves the sample envelope: srtt stays
    /// within [min sample, max sample] once initialized.
    #[test]
    fn prop_srtt_bounded_by_samples() {
        check("rtt_prop_srtt_bounded_by_samples", |rng| {
            let samples = rng.vec_of(1, 100, |r| r.u64_in(1_000, 10_000_000));
            let mut est = RttEstimator::new();
            for &s in &samples {
                est.record(s);
            }
            let lo = *samples.iter().min().unwrap();
            let hi = *samples.iter().max().unwrap();
            assert!(est.srtt() >= lo.min(est.srtt()));
            assert!(est.srtt() <= hi, "srtt {} > max sample {}", est.srtt(), hi);
            // RTO is always within the clamps.
            let rto = est.rto();
            assert!((RttEstimator::DEFAULT_MIN_RTO..=RttEstimator::DEFAULT_MAX_RTO).contains(&rto));
        });
    }
}
