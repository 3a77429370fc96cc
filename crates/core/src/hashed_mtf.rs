//! §3.5 — Move-to-front within hash chains: the combination the paper
//! weighs and rejects.
//!
//! "One could imagine combining move-to-front with hash chains. However,
//! better results can be obtained simply by increasing the number of hash
//! chains" — MTF buys at most the best-case factor of two within a chain,
//! while going from 19 to 100 chains buys a factor of five. This
//! implementation exists so the ablation benchmark can measure that claim.

use crate::list::PcbList;
use crate::stats::LookupStats;
use crate::{Demux, LookupResult, PacketKind};
use tcpdemux_hash::KeyHasher;
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// Hash chains where each chain is maintained with move-to-front.
#[derive(Debug)]
pub struct HashedMtfDemux<H> {
    hasher: H,
    chains: Vec<PcbList>,
    len: usize,
    stats: LookupStats,
}

impl<H: KeyHasher> HashedMtfDemux<H> {
    /// Create a structure with `chains` hash chains (must be nonzero).
    pub fn new(hasher: H, chains: usize) -> Self {
        assert!(chains > 0, "chain count must be nonzero");
        Self {
            hasher,
            chains: (0..chains).map(|_| PcbList::new()).collect(),
            len: 0,
            stats: LookupStats::new(),
        }
    }

    /// Number of hash chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    fn bucket(&self, key: &ConnectionKey) -> usize {
        self.hasher.bucket(key, self.chains.len())
    }
}

impl<H: KeyHasher> Demux for HashedMtfDemux<H> {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        let b = self.bucket(&key);
        if self.chains[b].replace(&key, id).is_none() {
            self.chains[b].push_front(key, id);
            self.len += 1;
        }
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        let b = self.bucket(key);
        let removed = self.chains[b].remove(key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn lookup(&mut self, key: &ConnectionKey, _kind: PacketKind) -> LookupResult {
        let b = self.bucket(key);
        let (found, examined) = self.chains[b].find_move_to_front(key);
        match found {
            Some(id) => {
                let cache_hit = examined == 1;
                self.stats.record(examined, true, cache_hit);
                LookupResult {
                    pcb: Some(id),
                    examined,
                    cache_hit,
                }
            }
            None => {
                self.stats.record(examined, false, false);
                LookupResult::miss(examined)
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> String {
        format!("hashed-mtf({})", self.chains.len())
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
    use crate::SequentDemux;
    use tcpdemux_hash::Multiplicative;
    use tcpdemux_pcb::PcbArena;

    #[test]
    fn repeat_lookup_is_one_probe() {
        let mut arena = PcbArena::new();
        let mut demux = HashedMtfDemux::new(Multiplicative, 19);
        populate(&mut demux, &mut arena, 200);
        demux.lookup(&key(7), PacketKind::Data);
        let r = demux.lookup(&key(7), PacketKind::Data);
        assert_eq!(r.examined, 1);
        assert!(r.cache_hit);
    }

    #[test]
    fn bounded_by_chain_length() {
        let mut arena = PcbArena::new();
        let mut demux = HashedMtfDemux::new(Multiplicative, 19);
        populate(&mut demux, &mut arena, 1900);
        for i in 0..1900 {
            let r = demux.lookup(&key(i), PacketKind::Data);
            assert!(r.pcb.is_some());
            assert!(r.examined <= 300, "examined {}", r.examined);
        }
    }

    #[test]
    fn raising_chains_beats_adding_mtf() {
        // The paper's §3.5 comparison, measured on train-free round-robin
        // traffic: sequent(100) must beat hashed-mtf(19), and hashed-mtf's
        // advantage over sequent at equal H must be < 2x.
        let n = 1900u32;
        let run = |demux: &mut dyn Demux| {
            let mut arena = PcbArena::new();
            populate(demux, &mut arena, n);
            demux.reset_stats();
            for round in 0..5u32 {
                for i in 0..n {
                    demux.lookup(&key((i * 13 + round) % n), PacketKind::Data);
                }
            }
            demux.stats().mean_examined()
        };
        let mut mtf19 = HashedMtfDemux::new(Multiplicative, 19);
        let mut seq19 = SequentDemux::new(Multiplicative, 19);
        let mut seq100 = SequentDemux::new(Multiplicative, 100);
        let mtf19_cost = run(&mut mtf19);
        let seq19_cost = run(&mut seq19);
        let seq100_cost = run(&mut seq100);

        assert!(
            seq100_cost < mtf19_cost,
            "sequent(100)={seq100_cost} must beat hashed-mtf(19)={mtf19_cost}"
        );
        // MTF can help or hurt on this traffic, but never by 2x either way.
        let ratio = seq19_cost / mtf19_cost;
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn round_robin_within_chain_is_worst_case() {
        // All keys forced into one chain: same pathology as plain MTF.
        let mut arena = PcbArena::new();
        let mut demux = HashedMtfDemux::new(Multiplicative, 1);
        populate(&mut demux, &mut arena, 20);
        for i in 0..20 {
            demux.lookup(&key(i), PacketKind::Data);
        }
        demux.reset_stats();
        for i in 0..20 {
            let r = demux.lookup(&key(i), PacketKind::Data);
            assert_eq!(r.examined, 20);
        }
    }
}
