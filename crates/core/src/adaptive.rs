//! Self-tuning chain count: the paper's §3.5 knob, automated.
//!
//! "The system administrator may increase the value of H in order to get
//! even better performance, at the expense of a small increase in the
//! memory used for the hash chain headers." In 1992 that was a kernel
//! tunable; a modern stack resizes itself. [`AdaptiveDemux`] wraps the
//! Sequent structure and doubles the chain count whenever the load
//! factor `N/H` exceeds a target, rehashing all connections (O(N),
//! amortized O(1) per insert, exactly like a growing hash table).
//!
//! The target load factor bounds the *expected miss penalty*:
//! `(N/H + 1)/2 ≤ (load + 1)/2` forever, regardless of how many
//! connections arrive.

use crate::sequent::SequentDemux;
use crate::stats::LookupStats;
use crate::{Demux, LookupResult, PacketKind};
use tcpdemux_hash::KeyHasher;
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// A Sequent structure that doubles its chain count when the average
/// chain length would exceed `max_load`.
#[derive(Debug)]
pub struct AdaptiveDemux<H> {
    inner: SequentDemux<H>,
    hasher_template: H,
    max_load: usize,
    resizes: u32,
    stats: LookupStats,
}

impl<H: KeyHasher + Clone> AdaptiveDemux<H> {
    /// Create with an initial chain count and a maximum tolerated load
    /// factor (average PCBs per chain). Both must be nonzero.
    pub fn new(hasher: H, initial_chains: usize, max_load: usize) -> Self {
        assert!(max_load > 0, "load factor must be nonzero");
        Self {
            inner: SequentDemux::new(hasher.clone(), initial_chains),
            hasher_template: hasher,
            max_load,
            resizes: 0,
            stats: LookupStats::new(),
        }
    }

    /// Current chain count.
    pub fn chain_count(&self) -> usize {
        self.inner.chain_count()
    }

    /// How many times the table has grown.
    pub fn resizes(&self) -> u32 {
        self.resizes
    }

    /// The configured maximum load factor.
    pub fn max_load(&self) -> usize {
        self.max_load
    }

    fn maybe_grow(&mut self) {
        if self.inner.len() <= self.inner.chain_count() * self.max_load {
            return;
        }
        let mut grown =
            SequentDemux::new(self.hasher_template.clone(), self.inner.chain_count() * 2);
        // Every entry came out of a table, so it is distinct and needs no
        // duplicate scan; tail first, so that pushing each at the head of
        // its new chain keeps the order the entries had in the old one.
        for (key, id) in self.inner.iter_entries().rev() {
            grown.preload(key, id);
        }
        self.inner = grown;
        self.resizes += 1;
    }
}

impl<H: KeyHasher + Clone> Demux for AdaptiveDemux<H> {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        self.inner.insert(key, id);
        self.maybe_grow();
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        self.inner.remove(key)
    }

    fn lookup(&mut self, key: &ConnectionKey, kind: PacketKind) -> LookupResult {
        let result = self.inner.lookup(key, kind);
        self.stats
            .record(result.examined, result.pcb.is_some(), result.cache_hit);
        result
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> String {
        format!("adaptive({}@{})", self.inner.chain_count(), self.max_load)
    }

    fn stats(&self) -> &LookupStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = LookupStats::new();
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{key, populate};
    use tcpdemux_hash::Multiplicative;
    use tcpdemux_pcb::PcbArena;

    #[test]
    fn grows_to_hold_load_factor() {
        let mut arena = PcbArena::new();
        let mut demux = AdaptiveDemux::new(Multiplicative, 19, 8);
        populate(&mut demux, &mut arena, 2000);
        // Final chain count must satisfy N/H <= 8.
        assert!(demux.len() <= demux.chain_count() * demux.max_load());
        // 19 -> 38 -> 76 -> 152 -> 304: four doublings for 2000/8 = 250.
        assert_eq!(demux.chain_count(), 304);
        assert_eq!(demux.resizes(), 4);
    }

    #[test]
    fn lookups_survive_rehashing() {
        let mut arena = PcbArena::new();
        let mut demux = AdaptiveDemux::new(Multiplicative, 1, 4);
        let ids = populate(&mut demux, &mut arena, 500);
        for (i, &id) in ids.iter().enumerate() {
            let r = demux.lookup(&key(i as u32), PacketKind::Data);
            assert_eq!(r.pcb, Some(id), "lost key {i} across resizes");
        }
        assert!(demux.resizes() >= 6, "{}", demux.resizes());
    }

    #[test]
    fn growing_keeps_every_chain_in_the_order_it_was_built() {
        // Seven doublings (1 → 128 chains) must leave exactly the table
        // that inserting the same keys into 128 chains builds: entries
        // that share a chain are examined newest first, as before a grow.
        let mut arena = PcbArena::new();
        let mut grown = AdaptiveDemux::new(Multiplicative, 1, 4);
        populate(&mut grown, &mut arena, 500);
        assert_eq!((grown.chain_count(), grown.resizes()), (128, 7));
        let mut built = SequentDemux::new(Multiplicative, 128);
        populate(&mut built, &mut arena, 500);
        let keys = |d: &SequentDemux<Multiplicative>| -> Vec<_> {
            d.iter_entries().map(|(k, _)| k).collect()
        };
        assert_eq!(keys(&grown.inner), keys(&built));
        for i in (0..500).map(|i| (i * 7) % 500) {
            assert_eq!(
                grown.lookup(&key(i), PacketKind::Data).examined,
                built.lookup(&key(i), PacketKind::Data).examined,
                "key {i}"
            );
        }
    }

    #[test]
    fn cost_stays_bounded_as_population_grows() {
        // The whole point: mean examined stays O(load), not O(N).
        let mut arena = PcbArena::new();
        let mut demux = AdaptiveDemux::new(Multiplicative, 19, 8);
        for n in [500u32, 2000, 8000] {
            populate(&mut demux, &mut arena, n); // contract replaces dups
            demux.reset_stats();
            for i in 0..n {
                demux.lookup(&key((i * 13) % n), PacketKind::Data);
            }
            let mean = demux.stats().mean_examined();
            assert!(
                mean <= (8.0 + 1.0) / 2.0 + 2.0,
                "n={n}: mean {mean} exceeds load bound"
            );
        }
    }

    #[test]
    fn never_shrinks_on_remove() {
        let mut arena = PcbArena::new();
        let mut demux = AdaptiveDemux::new(Multiplicative, 19, 8);
        populate(&mut demux, &mut arena, 2000);
        let chains = demux.chain_count();
        for i in 0..1500u32 {
            demux.remove(&key(i));
        }
        assert_eq!(demux.chain_count(), chains, "shrinking is not implemented");
        assert_eq!(demux.len(), 500);
    }

    #[test]
    fn satisfies_demux_contract() {
        crate::test_util::check_contract(Box::new(AdaptiveDemux::new(Multiplicative, 4, 4)));
    }

    #[test]
    fn name_reflects_current_size() {
        let demux = AdaptiveDemux::new(Multiplicative, 19, 8);
        assert_eq!(demux.name(), "adaptive(19@8)");
    }
}
