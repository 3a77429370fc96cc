//! §3.4 — The Sequent algorithm: hash chains with per-chain caches.
//!
//! PCBs are distributed across `H` hash chains by a hash of the connection
//! key; each chain is a linear list with its own one-entry
//! last-PCB-found cache. The cache hit rate rises from `1/N` to `H/N`, and
//! a miss scans only `≈ N/H` PCBs instead of `N`, giving the paper's
//! Equation 22 — about 53 PCBs examined for a 200-TPS TPC/A benchmark with
//! the product's default of 19 chains, an order of magnitude below BSD's
//! 1,001. Raising `H` buys further speedup for only `H` words of headers
//! (the paper's §3.5: 19 → 100 chains takes the cost from 53 to under 9).

use crate::list::PcbList;
use crate::stats::LookupStats;
use crate::{Demux, LookupResult, PacketKind};
use tcpdemux_hash::KeyHasher;
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// The Sequent hashed PCB lookup structure.
#[derive(Debug)]
pub struct SequentDemux<H> {
    hasher: H,
    chains: Vec<PcbList>,
    caches: Vec<Option<(ConnectionKey, PcbId)>>,
    cache_enabled: bool,
    len: usize,
    stats: LookupStats,
}

impl<H: KeyHasher> SequentDemux<H> {
    /// The installation default number of hash chains in Sequent's product.
    pub const DEFAULT_CHAINS: usize = 19;

    /// Create a structure with `chains` hash chains (must be nonzero).
    pub fn new(hasher: H, chains: usize) -> Self {
        assert!(chains > 0, "chain count must be nonzero");
        Self {
            hasher,
            chains: (0..chains).map(|_| PcbList::new()).collect(),
            caches: vec![None; chains],
            cache_enabled: true,
            len: 0,
            stats: LookupStats::new(),
        }
    }

    /// Disable the per-chain one-entry caches (ablation: pure hash chains,
    /// the "uncached linked list" the paper's §3.3 convergence argument
    /// refers to). Existing cache contents are discarded.
    pub fn without_cache(mut self) -> Self {
        self.cache_enabled = false;
        self.caches.iter_mut().for_each(|c| *c = None);
        self
    }

    /// Whether the per-chain caches are active.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Create with the installation-default 19 chains.
    pub fn with_default_chains(hasher: H) -> Self {
        Self::new(hasher, Self::DEFAULT_CHAINS)
    }

    /// Number of hash chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Occupancy of each chain (for load-balance experiments).
    pub fn chain_lengths(&self) -> Vec<usize> {
        self.chains.iter().map(|c| c.len()).collect()
    }

    /// Iterate every installed `(key, id)` pair, chain by chain, each
    /// chain head first. Used by [`crate::AdaptiveDemux`] when rehashing
    /// into a larger table.
    pub fn iter_entries(&self) -> impl DoubleEndedIterator<Item = (ConnectionKey, PcbId)> + '_ {
        self.chains.iter().flat_map(|c| c.iter())
    }

    /// Install a connection the caller guarantees is **not already
    /// present**, skipping the duplicate scan [`Demux::insert`] pays.
    ///
    /// The trait insert walks the whole chain looking for a key to
    /// replace, so cold-building a table of N distinct keys costs
    /// O(N²/chains) — hours at ten million connections on nineteen
    /// chains. A real stack installs a connection only after the SYN
    /// lookup already proved the four-tuple absent, so the scan is pure
    /// waste there too. Inserting a key that *is* present duplicates it
    /// (later [`Demux::remove`] calls peel one copy at a time), which is
    /// why this is a separate, loudly-documented entry point and not the
    /// trait method.
    pub fn preload(&mut self, key: ConnectionKey, id: PcbId) {
        let b = self.bucket(&key);
        self.chains[b].push_front(key, id);
        self.len += 1;
    }

    fn bucket(&self, key: &ConnectionKey) -> usize {
        self.hasher.bucket(key, self.chains.len())
    }
}

impl<H: KeyHasher> Demux for SequentDemux<H> {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        let b = self.bucket(&key);
        if self.chains[b].replace(&key, id).is_none() {
            self.chains[b].push_front(key, id);
            self.len += 1;
        } else if let Some((ck, cid)) = &mut self.caches[b] {
            if *ck == key {
                *cid = id;
            }
        }
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        let b = self.bucket(key);
        if self.caches[b].map(|(ck, _)| ck == *key).unwrap_or(false) {
            self.caches[b] = None;
        }
        let removed = self.chains[b].remove(key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn lookup(&mut self, key: &ConnectionKey, _kind: PacketKind) -> LookupResult {
        let b = self.bucket(key);
        if let Some((ck, id)) = self.caches[b] {
            if ck == *key {
                self.stats.record(1, true, true);
                return LookupResult {
                    pcb: Some(id),
                    examined: 1,
                    cache_hit: true,
                };
            }
        }
        let cache_probes = u32::from(self.caches[b].is_some());
        let (found, scanned) = self.chains[b].find(key);
        let examined = cache_probes + scanned;
        match found {
            Some(id) => {
                if self.cache_enabled {
                    self.caches[b] = Some((*key, id));
                }
                self.stats.record(examined, true, false);
                LookupResult {
                    pcb: Some(id),
                    examined,
                    cache_hit: false,
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
        if self.cache_enabled {
            format!("sequent({})", self.chains.len())
        } else {
            format!("sequent-nocache({})", self.chains.len())
        }
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
    use tcpdemux_hash::{Multiplicative, XorFold};
    use tcpdemux_pcb::{Pcb, PcbArena};
    use tcpdemux_testprop::check;

    #[test]
    fn preload_matches_insert_for_distinct_keys() {
        let mut arena = PcbArena::new();
        let mut a = SequentDemux::new(Multiplicative, 19);
        let mut b = SequentDemux::new(Multiplicative, 19);
        for n in 0..500u32 {
            let id = arena.insert(Pcb::new(key(n)));
            a.insert(key(n), id);
            b.preload(key(n), id);
        }
        assert_eq!(a.len(), b.len());
        for n in 0..500u32 {
            assert_eq!(
                a.lookup(&key(n), PacketKind::Data).pcb,
                b.lookup(&key(n), PacketKind::Data).pcb
            );
        }
        let mut lengths = (a.chain_lengths(), b.chain_lengths());
        lengths.0.sort_unstable();
        lengths.1.sort_unstable();
        assert_eq!(lengths.0, lengths.1);
    }

    #[test]
    fn cache_hit_costs_one() {
        let mut arena = PcbArena::new();
        let mut demux = SequentDemux::new(XorFold, 19);
        let ids = populate(&mut demux, &mut arena, 100);
        demux.lookup(&key(17), PacketKind::Data);
        let r = demux.lookup(&key(17), PacketKind::Data);
        assert_eq!(r.pcb, Some(ids[17]));
        assert_eq!(r.examined, 1);
        assert!(r.cache_hit);
    }

    #[test]
    fn miss_scans_only_one_chain() {
        let n = 1900u32;
        let chains = 19;
        let mut arena = PcbArena::new();
        let mut demux = SequentDemux::new(Multiplicative, chains);
        populate(&mut demux, &mut arena, n);

        // The worst possible lookup examines one chain plus one cache
        // probe, nowhere near N.
        let mut worst = 0;
        for i in 0..n {
            let r = demux.lookup(&key(i), PacketKind::Data);
            assert!(r.pcb.is_some());
            worst = worst.max(r.examined);
        }
        let longest = demux.chain_lengths().into_iter().max().unwrap() as u32;
        assert!(worst <= longest + 1);
        assert!(
            worst < n / 4,
            "worst {worst} should be far below N={n} (longest chain {longest})"
        );
    }

    #[test]
    fn one_chain_degenerates_to_bsd() {
        // With H = 1 the structure is exactly the BSD algorithm; the paper
        // presents BSD as the H=1 special case of Equation 19.
        let mut arena = PcbArena::new();
        let mut demux = SequentDemux::new(XorFold, 1);
        let mut bsd = crate::BsdDemux::new();
        let mut arena2 = PcbArena::new();
        populate(&mut demux, &mut arena, 50);
        populate(&mut bsd, &mut arena2, 50);

        for probe in [0u32, 10, 49, 10, 10, 3] {
            let a = demux.lookup(&key(probe), PacketKind::Data);
            let b = bsd.lookup(&key(probe), PacketKind::Data);
            assert_eq!(a.examined, b.examined, "probe {probe}");
            assert_eq!(a.cache_hit, b.cache_hit, "probe {probe}");
        }
    }

    #[test]
    fn mean_cost_is_order_of_magnitude_below_bsd() {
        // The headline claim, measured: round-robin (train-free) traffic
        // over N=1900 connections. BSD ≈ 1 + (N+1)/2 ≈ 951; Sequent with
        // H=19 ≈ 1 + (N/H+1)/2 ≈ 51.5.
        let n = 1900u32;
        let mut arena = PcbArena::new();
        let mut demux = SequentDemux::new(Multiplicative, 19);
        populate(&mut demux, &mut arena, n);
        demux.reset_stats();
        for round in 0..5u32 {
            for i in 0..n {
                demux.lookup(&key((i * 13 + round) % n), PacketKind::Data);
            }
        }
        let mean = demux.stats().mean_examined();
        assert!(
            (30.0..80.0).contains(&mean),
            "mean {mean} not an order of magnitude below ~951"
        );
    }

    #[test]
    fn more_chains_cost_less() {
        let n = 2000u32;
        let mut means = Vec::new();
        for chains in [19usize, 51, 100] {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::new(Multiplicative, chains);
            populate(&mut demux, &mut arena, n);
            demux.reset_stats();
            for round in 0..3u32 {
                for i in 0..n {
                    demux.lookup(&key((i * 13 + round) % n), PacketKind::Data);
                }
            }
            means.push(demux.stats().mean_examined());
        }
        assert!(means[0] > means[1] && means[1] > means[2], "{means:?}");
    }

    #[test]
    fn empty_chain_lookup_costs_nothing_scanned() {
        let mut demux: SequentDemux<XorFold> = SequentDemux::new(XorFold, 19);
        let r = demux.lookup(&key(0), PacketKind::Data);
        assert_eq!(r.pcb, None);
        assert_eq!(r.examined, 0, "empty chain, empty cache: nothing examined");
    }

    #[test]
    fn len_tracks_across_chains() {
        let mut arena = PcbArena::new();
        let mut demux = SequentDemux::new(XorFold, 19);
        populate(&mut demux, &mut arena, 100);
        assert_eq!(demux.len(), 100);
        assert_eq!(demux.chain_lengths().iter().sum::<usize>(), 100);
        demux.remove(&key(5));
        assert_eq!(demux.len(), 99);
    }

    #[test]
    fn name_reports_chain_count() {
        let demux = SequentDemux::new(XorFold, 19);
        assert_eq!(demux.name(), "sequent(19)");
        assert_eq!(demux.chain_count(), 19);
        let demux = SequentDemux::with_default_chains(XorFold);
        assert_eq!(demux.chain_count(), SequentDemux::<XorFold>::DEFAULT_CHAINS);
    }

    #[test]
    #[should_panic(expected = "chain count must be nonzero")]
    fn zero_chains_panics() {
        let _ = SequentDemux::new(XorFold, 0);
    }

    #[test]
    fn cache_ablation_changes_cost_not_results() {
        let mut arena = PcbArena::new();
        let mut cached = SequentDemux::new(Multiplicative, 19);
        let mut arena2 = PcbArena::new();
        let mut uncached = SequentDemux::new(Multiplicative, 19).without_cache();
        assert!(cached.cache_enabled());
        assert!(!uncached.cache_enabled());
        assert_eq!(uncached.name(), "sequent-nocache(19)");

        populate(&mut cached, &mut arena, 190);
        populate(&mut uncached, &mut arena2, 190);

        // Packet-train traffic: the cache is the whole ballgame.
        for _ in 0..100 {
            cached.lookup(&key(7), PacketKind::Data);
            uncached.lookup(&key(7), PacketKind::Data);
        }
        assert!(cached.stats().hit_rate() > 0.9);
        assert_eq!(uncached.stats().hit_rate(), 0.0);
        assert!(
            cached.stats().mean_examined() < uncached.stats().mean_examined(),
            "cache must pay for itself on trains"
        );

        // But both always find the same PCBs.
        for i in 0..190 {
            assert_eq!(
                cached.lookup(&key(i), PacketKind::Data).pcb.is_some(),
                uncached.lookup(&key(i), PacketKind::Data).pcb.is_some()
            );
        }
    }

    /// Model-based oracle for the whole demux: chains as Vec-of-pairs,
    /// caches as plain Options, stats rebuilt with the same `record`
    /// calls. Pins the chain layout + tag prefilter to the exact walk
    /// semantics of a list of pairs — every `LookupResult` field and the
    /// final accumulated `LookupStats` — across insert/remove/reorder
    /// churn, with the cache both enabled and disabled.
    #[test]
    fn prop_matches_chain_model() {
        for cache_enabled in [true, false] {
            let name = if cache_enabled {
                "sequent_prop_matches_chain_model_cached"
            } else {
                "sequent_prop_matches_chain_model_nocache"
            };
            check(name, |rng| {
                const CHAINS: usize = 7;
                let hasher = Multiplicative;
                let mut arena = PcbArena::new();
                let mut demux = SequentDemux::new(hasher, CHAINS);
                if !cache_enabled {
                    demux = demux.without_cache();
                }
                let mut chains: Vec<Vec<(ConnectionKey, PcbId)>> = vec![Vec::new(); CHAINS];
                let mut caches: Vec<Option<(ConnectionKey, PcbId)>> = vec![None; CHAINS];
                let mut stats = LookupStats::new();

                let ops = rng.vec_of(0, 300, |r| (r.u8_in(0, 5), r.u32_below(32)));
                for (op, n) in ops {
                    let k = key(n);
                    let b = hasher.bucket(&k, CHAINS);
                    match op {
                        0 | 1 => {
                            let id = arena.insert(Pcb::new(k));
                            demux.insert(k, id);
                            match chains[b].iter().position(|(mk, _)| *mk == k) {
                                Some(pos) => {
                                    chains[b][pos].1 = id;
                                    if let Some((ck, cid)) = &mut caches[b] {
                                        if *ck == k {
                                            *cid = id;
                                        }
                                    }
                                }
                                None => chains[b].insert(0, (k, id)),
                            }
                        }
                        2 => {
                            let got = demux.remove(&k);
                            if caches[b].map(|(ck, _)| ck == k).unwrap_or(false) {
                                caches[b] = None;
                            }
                            match chains[b].iter().position(|(mk, _)| *mk == k) {
                                Some(pos) => assert_eq!(got, Some(chains[b].remove(pos).1)),
                                None => assert_eq!(got, None),
                            }
                        }
                        _ => {
                            let got = demux.lookup(&k, PacketKind::Data);
                            let want = match caches[b] {
                                Some((ck, id)) if ck == k => {
                                    stats.record(1, true, true);
                                    LookupResult {
                                        pcb: Some(id),
                                        examined: 1,
                                        cache_hit: true,
                                    }
                                }
                                _ => {
                                    let probe = u32::from(caches[b].is_some());
                                    match chains[b].iter().position(|(mk, _)| *mk == k) {
                                        Some(pos) => {
                                            let id = chains[b][pos].1;
                                            let examined = probe + pos as u32 + 1;
                                            if cache_enabled {
                                                caches[b] = Some((k, id));
                                            }
                                            stats.record(examined, true, false);
                                            LookupResult {
                                                pcb: Some(id),
                                                examined,
                                                cache_hit: false,
                                            }
                                        }
                                        None => {
                                            let examined = probe + chains[b].len() as u32;
                                            stats.record(examined, false, false);
                                            LookupResult::miss(examined)
                                        }
                                    }
                                }
                            };
                            assert_eq!(got, want);
                        }
                    }
                    assert_eq!(demux.len(), chains.iter().map(Vec::len).sum::<usize>());
                }
                assert_eq!(*demux.stats(), stats);
            });
        }
    }

    #[test]
    fn uncached_never_pays_the_probe() {
        // On train-free traffic the cache probe is pure overhead for the
        // uncached variant to save: uncached mean must be at most the
        // cached mean (which pays 1 extra probe on ~every lookup).
        let mut arena = PcbArena::new();
        let mut cached = SequentDemux::new(Multiplicative, 19);
        let mut arena2 = PcbArena::new();
        let mut uncached = SequentDemux::new(Multiplicative, 19).without_cache();
        populate(&mut cached, &mut arena, 190);
        populate(&mut uncached, &mut arena2, 190);
        cached.reset_stats();
        uncached.reset_stats();
        for round in 0..10u32 {
            for i in 0..190 {
                let k = key((i * 7 + round) % 190);
                cached.lookup(&k, PacketKind::Data);
                uncached.lookup(&k, PacketKind::Data);
            }
        }
        assert!(uncached.stats().mean_examined() <= cached.stats().mean_examined());
    }
}
