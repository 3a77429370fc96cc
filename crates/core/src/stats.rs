//! Lookup statistics: the paper's figure of merit, accumulated.

use core::fmt;

/// Running totals for a demultiplexer's lookups.
///
/// `mean_examined()` is directly comparable to the paper's analytic
/// predictions (e.g. ≈1001 PCBs for BSD at 2,000 users, ≈53 for Sequent
/// with 19 chains).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Total lookups performed.
    pub lookups: u64,
    /// Lookups satisfied from a one-entry cache.
    pub cache_hits: u64,
    /// Lookups that found a PCB (by cache or scan).
    pub found: u64,
    /// Lookups that found no PCB.
    pub not_found: u64,
    /// Total PCBs examined across all lookups.
    pub pcbs_examined: u64,
    /// Largest single-lookup examination count seen.
    pub worst_case: u32,
}

impl LookupStats {
    /// Fresh zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one lookup outcome.
    pub fn record(&mut self, examined: u32, found: bool, cache_hit: bool) {
        self.lookups += 1;
        self.pcbs_examined += u64::from(examined);
        if cache_hit {
            self.cache_hits += 1;
        }
        if found {
            self.found += 1;
        } else {
            self.not_found += 1;
        }
        self.worst_case = self.worst_case.max(examined);
    }

    /// Mean PCBs examined per lookup — the paper's `C(N)`.
    pub fn mean_examined(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.pcbs_examined as f64 / self.lookups as f64
        }
    }

    /// Cache hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.lookups as f64
        }
    }

    /// Merge another set of statistics into this one (used by the sharded
    /// stack to combine per-shard counters).
    pub fn merge(&mut self, other: &LookupStats) {
        self.lookups += other.lookups;
        self.cache_hits += other.cache_hits;
        self.found += other.found;
        self.not_found += other.not_found;
        self.pcbs_examined += other.pcbs_examined;
        self.worst_case = self.worst_case.max(other.worst_case);
    }
}

impl fmt::Display for LookupStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lookups={} mean_examined={:.2} hit_rate={:.2}% worst={}",
            self.lookups,
            self.mean_examined(),
            self.hit_rate() * 100.0,
            self.worst_case
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_stats() {
        let s = LookupStats::new();
        assert_eq!(s.lookups, 0);
        assert_eq!(s.mean_examined(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn record_accumulates() {
        let mut s = LookupStats::new();
        s.record(1, true, true);
        s.record(100, true, false);
        s.record(50, false, false);
        assert_eq!(s.lookups, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.found, 2);
        assert_eq!(s.not_found, 1);
        assert_eq!(s.pcbs_examined, 151);
        assert_eq!(s.worst_case, 100);
        assert!((s.mean_examined() - 151.0 / 3.0).abs() < 1e-12);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines() {
        let mut a = LookupStats::new();
        a.record(10, true, false);
        let mut b = LookupStats::new();
        b.record(20, false, false);
        b.record(1, true, true);
        a.merge(&b);
        assert_eq!(a.lookups, 3);
        assert_eq!(a.pcbs_examined, 31);
        assert_eq!(a.worst_case, 20);
        assert_eq!(a.found, 2);
    }

    #[test]
    fn display_is_informative() {
        let mut s = LookupStats::new();
        s.record(4, true, false);
        let text = s.to_string();
        assert!(text.contains("lookups=1"), "{text}");
        assert!(text.contains("mean_examined=4.00"), "{text}");
    }
}
