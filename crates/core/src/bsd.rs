//! §3.1 — The BSD algorithm: one linear list plus a one-entry cache.
//!
//! The 1990 release of 4.3BSD augmented the original linear `inpcb` scan with a
//! "single-line cache referencing the last PCB found" (the paper credits
//! Van Jacobson's bulk-transfer work). A lookup probes the cache first
//! (cost 1); on a miss it scans the list from the head, so the expected
//! cost under uniform traffic is `1 + (N+1)/2` on a miss, giving the
//! paper's Equation 1:
//!
//! ```text
//! C_BSD(N) = 1 + (N² − 1) / 2N   →   ≈ N/2 for large N
//! ```

use crate::list::PcbList;
use crate::stats::LookupStats;
use crate::{Demux, LookupResult, PacketKind};
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// The BSD PCB lookup structure.
#[derive(Debug, Default)]
pub struct BsdDemux {
    list: PcbList,
    cache: Option<(ConnectionKey, PcbId)>,
    stats: LookupStats,
}

impl BsdDemux {
    /// An empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently cached entry, if any (exposed for experiments that
    /// inspect cache behaviour).
    pub fn cached(&self) -> Option<(ConnectionKey, PcbId)> {
        self.cache
    }
}

impl Demux for BsdDemux {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        if self.list.replace(&key, id).is_none() {
            self.list.push_front(key, id);
        } else if let Some((ck, _)) = self.cache {
            // Keep the cache coherent with a replaced handle.
            if ck == key {
                self.cache = Some((key, id));
            }
        }
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        if let Some((ck, _)) = self.cache {
            if ck == *key {
                self.cache = None;
            }
        }
        self.list.remove(key)
    }

    fn lookup(&mut self, key: &ConnectionKey, _kind: PacketKind) -> LookupResult {
        // One probe against the cached PCB.
        if let Some((ck, id)) = self.cache {
            if ck == *key {
                self.stats.record(1, true, true);
                return LookupResult {
                    pcb: Some(id),
                    examined: 1,
                    cache_hit: true,
                };
            }
        }
        let cache_probes = u32::from(self.cache.is_some());
        let (found, scanned) = self.list.find(key);
        let examined = cache_probes + scanned;
        if let Some(id) = found {
            self.cache = Some((*key, id));
            self.stats.record(examined, true, false);
            LookupResult {
                pcb: Some(id),
                examined,
                cache_hit: false,
            }
        } else {
            self.stats.record(examined, false, false);
            LookupResult::miss(examined)
        }
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn name(&self) -> String {
        "bsd".to_string()
    }

    fn stats(&self) -> &LookupStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = LookupStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{key, populate};
    use tcpdemux_pcb::{Pcb, PcbArena};

    #[test]
    fn repeated_lookup_hits_cache() {
        let mut arena = PcbArena::new();
        let mut demux = BsdDemux::new();
        let ids = populate(&mut demux, &mut arena, 100);

        // First lookup scans; key(0) was inserted first so it is at the
        // tail: 100 entries examined (no cache populated yet).
        let r1 = demux.lookup(&key(0), PacketKind::Data);
        assert_eq!(r1.pcb, Some(ids[0]));
        assert_eq!(r1.examined, 100);
        assert!(!r1.cache_hit);

        // Second lookup: cache hit, exactly one PCB examined. This is the
        // packet-train case the cache was designed for.
        let r2 = demux.lookup(&key(0), PacketKind::Data);
        assert_eq!(r2.pcb, Some(ids[0]));
        assert_eq!(r2.examined, 1);
        assert!(r2.cache_hit);
    }

    #[test]
    fn miss_cost_includes_cache_probe() {
        let mut arena = PcbArena::new();
        let mut demux = BsdDemux::new();
        populate(&mut demux, &mut arena, 10);

        // Prime the cache with key(9) (head of list, 1 entry scanned).
        let r = demux.lookup(&key(9), PacketKind::Data);
        assert_eq!(r.examined, 1);

        // Now look up key(0): 1 cache probe + 10 scanned.
        let r = demux.lookup(&key(0), PacketKind::Data);
        assert_eq!(r.examined, 11);
    }

    #[test]
    fn unsuccessful_lookup_scans_everything() {
        let mut arena = PcbArena::new();
        let mut demux = BsdDemux::new();
        populate(&mut demux, &mut arena, 10);
        demux.lookup(&key(5), PacketKind::Data); // prime cache
        let r = demux.lookup(&key(1000), PacketKind::Data);
        assert_eq!(r.pcb, None);
        assert_eq!(r.examined, 11);
    }

    #[test]
    fn lookup_does_not_reorder_list() {
        let mut arena = PcbArena::new();
        let mut demux = BsdDemux::new();
        populate(&mut demux, &mut arena, 5);
        // key(4)..key(0) is the list order. Looking up key(2) twice:
        // second time must hit the cache, but after a *different* lookup
        // evicts it, the position (and hence cost) must be unchanged.
        let r = demux.lookup(&key(2), PacketKind::Data);
        assert_eq!(r.examined, 3); // position of key(2)
        demux.lookup(&key(4), PacketKind::Data); // evicts cache (cost 1+1)
        let r = demux.lookup(&key(2), PacketKind::Data);
        assert_eq!(r.examined, 4); // 1 cache probe + same position 3
    }

    #[test]
    fn remove_clears_cache() {
        let mut arena = PcbArena::new();
        let mut demux = BsdDemux::new();
        let ids = populate(&mut demux, &mut arena, 3);
        demux.lookup(&key(1), PacketKind::Data);
        assert_eq!(demux.cached(), Some((key(1), ids[1])));
        demux.remove(&key(1));
        assert_eq!(demux.cached(), None);
        assert_eq!(demux.lookup(&key(1), PacketKind::Data).pcb, None);
    }

    #[test]
    fn reinsert_updates_cached_handle() {
        let mut arena = PcbArena::new();
        let mut demux = BsdDemux::new();
        let _ = populate(&mut demux, &mut arena, 3);
        demux.lookup(&key(1), PacketKind::Data);
        let new_id = arena.insert(Pcb::new(key(1)));
        demux.insert(key(1), new_id);
        let r = demux.lookup(&key(1), PacketKind::Data);
        assert_eq!(r.pcb, Some(new_id));
        assert!(r.cache_hit, "cache must have been updated, not stale");
    }

    #[test]
    fn mean_examined_approaches_half_n_under_uniform_traffic() {
        // Round-robin traffic over N connections: the cache almost never
        // hits (the paper's OLTP scenario). Mean examined must be close to
        // 1 + (N+1)/2.
        let n = 200u32;
        let mut arena = PcbArena::new();
        let mut demux = BsdDemux::new();
        populate(&mut demux, &mut arena, n);
        demux.reset_stats();
        for round in 0..50u32 {
            for i in 0..n {
                // Visit in a rotating order so no packet trains form.
                let r = demux.lookup(&key((i * 7 + round) % n), PacketKind::Data);
                assert!(r.pcb.is_some());
            }
        }
        let mean = demux.stats().mean_examined();
        let predicted = 1.0 + (f64::from(n) + 1.0) / 2.0;
        assert!(
            (mean - predicted).abs() / predicted < 0.05,
            "mean {mean} vs predicted {predicted}"
        );
    }
}
