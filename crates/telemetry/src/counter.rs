//! The fixed, enumerated monotonic counter set.
//!
//! Counters are a fixed array indexed by [`CounterId`], so incrementing
//! never allocates and every export carries the same counters in the
//! same order — a stable schema the golden-file gate in `verify.sh` can
//! diff against.

use core::fmt;

/// Identity of one monotonic counter.
///
/// The set covers the paper's demultiplexing metrics plus the stack's
/// connection-lifecycle and loss-recovery machinery. Adding a variant
/// extends the export schema; `ALL` and `name()` must stay in sync
/// (a test pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CounterId {
    /// Demultiplexer lookups performed.
    Lookups,
    /// Lookups satisfied from a one-entry cache.
    CacheHits,
    /// Lookups that found a PCB.
    DemuxHits,
    /// Lookups that found no PCB.
    DemuxMisses,
    /// Total PCBs examined across all lookups (the paper's cost metric).
    PcbsExamined,
    /// Connections inserted into the demultiplexer (opens).
    ConnOpened,
    /// Connections removed (all causes; see [`CloseCause`]).
    ///
    /// [`CloseCause`]: crate::CloseCause
    ConnClosed,
    /// Connections removed abnormally (reset, local abort, or timeout).
    ConnAborted,
    /// Segments retransmitted after an RTO expiry.
    Retransmits,
    /// RTO expiries that backed the timer off (doubled the wait).
    RtoBackoffs,
    /// Connections aborted after exhausting the retransmission budget.
    TimeoutAborts,
    /// Entries displaced to their alternate bucket by cuckoo inserts
    /// (kicks), including displacements performed while rehashing.
    CuckooKicks,
    /// Cuckoo inserts whose bounded kick search found no vacancy — the
    /// eviction-loop signal that forces a grow-and-rehash.
    CuckooEvictionLoops,
    /// Segments re-emitted by fast retransmit (3 duplicate ACKs) or a
    /// NewReno partial-ACK head re-emission — loss repaired without an
    /// RTO expiry.
    FastRetransmits,
    /// Pure ACKs emitted by the delayed-ACK machinery (timer expiry or
    /// the every-N segment coalescing threshold).
    DelayedAcks,
    /// Zero-window probe segments sent while the peer's advertised
    /// window was closed.
    ZeroWindowProbes,
    /// Transmit polls that found queued data but a closed peer window
    /// (rwnd exhausted before cwnd).
    RwndStalls,
    /// Lookups rejected by the fingerprint front filter without touching
    /// the backing demultiplexer (guaranteed misses).
    FrontRejects,
    /// Front-filter passes whose backing lookup then missed — the
    /// filter's false positives (fingerprint collisions).
    FrontFalsePositives,
}

impl CounterId {
    /// Every counter, in export order.
    pub const ALL: [CounterId; 19] = [
        CounterId::Lookups,
        CounterId::CacheHits,
        CounterId::DemuxHits,
        CounterId::DemuxMisses,
        CounterId::PcbsExamined,
        CounterId::ConnOpened,
        CounterId::ConnClosed,
        CounterId::ConnAborted,
        CounterId::Retransmits,
        CounterId::RtoBackoffs,
        CounterId::TimeoutAborts,
        CounterId::CuckooKicks,
        CounterId::CuckooEvictionLoops,
        CounterId::FastRetransmits,
        CounterId::DelayedAcks,
        CounterId::ZeroWindowProbes,
        CounterId::RwndStalls,
        CounterId::FrontRejects,
        CounterId::FrontFalsePositives,
    ];

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Lookups => "lookups",
            CounterId::CacheHits => "cache_hits",
            CounterId::DemuxHits => "demux_hits",
            CounterId::DemuxMisses => "demux_misses",
            CounterId::PcbsExamined => "pcbs_examined",
            CounterId::ConnOpened => "conn_opened",
            CounterId::ConnClosed => "conn_closed",
            CounterId::ConnAborted => "conn_aborted",
            CounterId::Retransmits => "retransmits",
            CounterId::RtoBackoffs => "rto_backoffs",
            CounterId::TimeoutAborts => "timeout_aborts",
            CounterId::CuckooKicks => "cuckoo_kicks",
            CounterId::CuckooEvictionLoops => "cuckoo_eviction_loops",
            CounterId::FastRetransmits => "fast_retransmits",
            CounterId::DelayedAcks => "delayed_acks",
            CounterId::ZeroWindowProbes => "zero_window_probes",
            CounterId::RwndStalls => "rwnd_stalls",
            CounterId::FrontRejects => "front_rejects",
            CounterId::FrontFalsePositives => "front_false_positives",
        }
    }
}

impl fmt::Display for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The counter array: one `u64` per [`CounterId`], nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    values: [u64; CounterId::ALL.len()],
}

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

impl Counters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self {
            values: [0; CounterId::ALL.len()],
        }
    }

    /// Add `delta` to a counter.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.values[id as usize] += delta;
    }

    /// Increment a counter by one.
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.values[id as usize]
    }

    /// Reset every counter to zero.
    pub fn reset(&mut self) {
        self.values = [0; CounterId::ALL.len()];
    }

    /// Iterate `(id, value)` in export order.
    pub fn iter(&self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        CounterId::ALL.iter().map(move |&id| (id, self.get(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_are_distinct_and_indexed_in_order() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i, "{id} out of order in ALL");
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for id in CounterId::ALL {
            let name = id.name();
            assert!(seen.insert(name), "duplicate counter name {name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{name} not snake_case"
            );
        }
    }

    #[test]
    fn add_get_reset() {
        let mut c = Counters::new();
        c.incr(CounterId::Lookups);
        c.add(CounterId::PcbsExamined, 41);
        c.add(CounterId::PcbsExamined, 1);
        assert_eq!(c.get(CounterId::Lookups), 1);
        assert_eq!(c.get(CounterId::PcbsExamined), 42);
        assert_eq!(c.get(CounterId::Retransmits), 0);
        let collected: Vec<(CounterId, u64)> = c.iter().collect();
        assert_eq!(collected.len(), CounterId::ALL.len());
        assert_eq!(collected[0], (CounterId::Lookups, 1));
        c.reset();
        assert!(c.iter().all(|(_, v)| v == 0));
    }
}
