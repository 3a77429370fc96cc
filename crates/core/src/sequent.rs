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
//!
//! # One pair of lanes for every chain
//!
//! The chains share one tag lane and one entry lane, the layout
//! [`PcbList`](crate::PcbList) gives a single list: each chain is a
//! region of the lanes, in reverse list order, walked by the same walk
//! (`list::index_in`). A region has the slots up to where the next one
//! starts; an insert into a region with none left re-lays every region
//! in place (two `copy_within` passes, one toward the front and one
//! toward the back), sharing the free slots evenly. The lanes double only when the
//! whole table nearly outgrows them (fewer free slots than chains), so
//! their size follows the population, not the longest each chain has
//! ever been: a table whose population stays under its capacity never
//! allocates again, however its connections come and go between chains.

use crate::list::{examined, index_in, key_tag, Entry};
use crate::stats::LookupStats;
use crate::{Demux, LookupResult, PacketKind};
use core::ops::Range;
use tcpdemux_hash::KeyHasher;
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// The fewest slots the lanes are given: one line of tags, the block a
/// walk compares at a time.
const FIRST_SLOTS: usize = 16;

/// One chain's place in the lanes: `len` entries from `start`, head last.
/// The chain may grow into the slots up to the next region's start.
#[derive(Debug, Clone, Copy, Default)]
struct Region {
    start: u32,
    len: u32,
}

/// The Sequent hashed PCB lookup structure.
#[derive(Debug)]
pub struct SequentDemux<H> {
    hasher: H,
    /// Every chain's tags, region after region in chain order; free slots
    /// between regions hold stale values nothing reads.
    tags: Vec<u32>,
    /// The entries the tags prefilter, slot for slot.
    entries: Vec<Entry>,
    regions: Vec<Region>,
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
            tags: Vec::new(),
            entries: Vec::new(),
            regions: vec![Region::default(); chains],
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
        self.regions.len()
    }

    /// Occupancy of each chain (for load-balance experiments).
    pub fn chain_lengths(&self) -> Vec<usize> {
        self.regions.iter().map(|r| r.len as usize).collect()
    }

    /// Iterate every installed `(key, id)` pair, chain by chain, each
    /// chain head first. Used by [`crate::AdaptiveDemux`] when rehashing
    /// into a larger table.
    pub fn iter_entries(&self) -> impl DoubleEndedIterator<Item = (ConnectionKey, PcbId)> + '_ {
        (0..self.regions.len()).flat_map(|b| self.entries[self.range(b)].iter().rev().copied())
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
        self.push_front(b, key, id);
    }

    fn bucket(&self, key: &ConnectionKey) -> usize {
        self.hasher.bucket(key, self.regions.len())
    }

    /// The slots chain `b`'s entries occupy.
    #[inline]
    fn range(&self, b: usize) -> Range<usize> {
        let r = self.regions[b];
        r.start as usize..(r.start + r.len) as usize
    }

    /// Where `key` sits in the lanes, if chain `b` holds it, and the
    /// entries examined to find that out.
    // Forced into its three callers, as `PcbList` forces its walk: left
    // a call of its own it cost a hit at N = 2,000 some 9 ns of 30.
    #[inline(always)]
    fn walk(&self, b: usize, key: &ConnectionKey) -> (Option<usize>, u32) {
        let range = self.range(b);
        let index = index_in(&self.tags[range.clone()], &self.entries[range.clone()], key);
        (index.map(|i| range.start + i), examined(range.len(), index))
    }

    /// Insert at the head of chain `b`.
    fn push_front(&mut self, b: usize, key: ConnectionKey, id: PcbId) {
        let end = self
            .regions
            .get(b + 1)
            .map_or(self.tags.len(), |r| r.start as usize);
        if self.range(b).end == end {
            self.make_room(b, (key, id));
        }
        let at = self.range(b).end;
        (self.tags[at], self.entries[at]) = (key_tag(&key), (key, id));
        self.regions[b].len += 1;
        self.len += 1;
    }

    /// Give the full chain `full` a free slot: double the lanes if the
    /// insert would leave fewer free slots than chains (new slots hold
    /// `filler`), then re-lay the regions in place with the free slots
    /// shared evenly among them. Regions keep their order, so the pass
    /// that moves regions toward the front goes front to back, and the
    /// pass that moves them toward the back goes back to front: no move
    /// writes over a region that has yet to move.
    ///
    /// Doubling a little before every slot is taken is what keeps a
    /// relayout to a few per doubling: with fewer free slots than chains,
    /// an even share leaves most chains none, and nearly every insert
    /// would re-lay the whole table (a sequent(499) cold build moved ~400
    /// entries per insert that way, against ~20).
    #[cold]
    fn make_room(&mut self, full: usize, filler: Entry) {
        let chains = self.regions.len();
        let need = self.len + 1 + chains;
        if self.tags.len() < need {
            let slots = need.next_power_of_two().max(FIRST_SLOTS);
            self.tags.resize(slots, 0);
            self.entries.resize(slots, filler);
        }
        let free = self.tags.len() - self.len - 1;
        let size = |c: usize, region: Region| {
            let spare = free / chains + usize::from(c < free % chains);
            region.len as usize + usize::from(c == full) + spare
        };
        let mut at = 0;
        for c in 0..chains {
            let region = self.regions[c];
            if at < region.start as usize {
                self.move_region(c, at);
            }
            at += size(c, region);
        }
        let mut end = self.tags.len();
        for c in (0..chains).rev() {
            let region = self.regions[c];
            end -= size(c, region);
            if end > region.start as usize {
                self.move_region(c, end);
            }
        }
    }

    fn move_region(&mut self, c: usize, to: usize) {
        let range = self.range(c);
        self.tags.copy_within(range.clone(), to);
        self.entries.copy_within(range, to);
        self.regions[c].start = to as u32;
    }
}

impl<H: KeyHasher> Demux for SequentDemux<H> {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        let b = self.bucket(&key);
        if let (Some(i), _) = self.walk(b, &key) {
            self.entries[i].1 = id;
            if let Some((ck, cid)) = &mut self.caches[b] {
                if *ck == key {
                    *cid = id;
                }
            }
        } else {
            self.push_front(b, key, id);
        }
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        let b = self.bucket(key);
        if self.caches[b].map(|(ck, _)| ck == *key).unwrap_or(false) {
            self.caches[b] = None;
        }
        let i = self.walk(b, key).0?;
        let end = self.range(b).end;
        let id = self.entries[i].1;
        self.tags.copy_within(i + 1..end, i);
        self.entries.copy_within(i + 1..end, i);
        self.regions[b].len -= 1;
        self.len -= 1;
        Some(id)
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
        let (index, scanned) = self.walk(b, key);
        let examined = cache_probes + scanned;
        match index.map(|i| self.entries[i].1) {
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
            format!("sequent({})", self.regions.len())
        } else {
            format!("sequent-nocache({})", self.regions.len())
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
    use tcpdemux_testprop::{check, check_cases, sweep_seeds};

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

    /// The structure as plain data: each chain a `Vec` of pairs, head
    /// first, each cache an `Option`, and the stats rebuilt with the same
    /// `record` calls. Every operation is applied to a [`SequentDemux`]
    /// and to the model, and the two must agree.
    struct Model {
        chains: Vec<Vec<Entry>>,
        caches: Vec<Option<Entry>>,
        stats: LookupStats,
        cache_enabled: bool,
    }

    impl Model {
        fn of(demux: &SequentDemux<Multiplicative>) -> Self {
            Self {
                chains: vec![Vec::new(); demux.chain_count()],
                caches: vec![None; demux.chain_count()],
                stats: LookupStats::new(),
                cache_enabled: demux.cache_enabled(),
            }
        }

        fn chain(&self, k: &ConnectionKey) -> usize {
            Multiplicative.bucket(k, self.chains.len())
        }

        fn position(&self, k: &ConnectionKey) -> Option<usize> {
            self.chains[self.chain(k)]
                .iter()
                .position(|(mk, _)| mk == k)
        }

        fn insert(
            &mut self,
            demux: &mut SequentDemux<Multiplicative>,
            k: ConnectionKey,
            id: PcbId,
        ) {
            demux.insert(k, id);
            let b = self.chain(&k);
            match self.position(&k) {
                Some(pos) => {
                    self.chains[b][pos].1 = id;
                    if let Some((ck, cid)) = &mut self.caches[b] {
                        if *ck == k {
                            *cid = id;
                        }
                    }
                }
                None => self.chains[b].insert(0, (k, id)),
            }
        }

        /// `preload` of a key the model does not hold.
        fn preload(
            &mut self,
            demux: &mut SequentDemux<Multiplicative>,
            k: ConnectionKey,
            id: PcbId,
        ) {
            assert_eq!(self.position(&k), None);
            demux.preload(k, id);
            let b = self.chain(&k);
            self.chains[b].insert(0, (k, id));
        }

        fn remove(&mut self, demux: &mut SequentDemux<Multiplicative>, k: ConnectionKey) {
            let got = demux.remove(&k);
            let b = self.chain(&k);
            if self.caches[b].is_some_and(|(ck, _)| ck == k) {
                self.caches[b] = None;
            }
            let want = self.position(&k).map(|pos| self.chains[b].remove(pos).1);
            assert_eq!(got, want);
        }

        fn lookup(&mut self, demux: &mut SequentDemux<Multiplicative>, k: ConnectionKey) {
            let got = demux.lookup(&k, PacketKind::Data);
            let b = self.chain(&k);
            let want = match self.caches[b] {
                Some((ck, id)) if ck == k => {
                    self.stats.record(1, true, true);
                    LookupResult {
                        pcb: Some(id),
                        examined: 1,
                        cache_hit: true,
                    }
                }
                _ => {
                    let probe = u32::from(self.caches[b].is_some());
                    match self.position(&k) {
                        Some(pos) => {
                            let id = self.chains[b][pos].1;
                            let examined = probe + pos as u32 + 1;
                            if self.cache_enabled {
                                self.caches[b] = Some((k, id));
                            }
                            self.stats.record(examined, true, false);
                            LookupResult {
                                pcb: Some(id),
                                examined,
                                cache_hit: false,
                            }
                        }
                        None => {
                            let examined = probe + self.chains[b].len() as u32;
                            self.stats.record(examined, false, false);
                            LookupResult::miss(examined)
                        }
                    }
                }
            };
            assert_eq!(got, want);
        }

        /// The contents agree, and the regions lie in chain order inside
        /// the lanes without overlapping.
        fn check(&self, demux: &SequentDemux<Multiplicative>) {
            assert_eq!(demux.len(), self.chains.iter().map(Vec::len).sum::<usize>());
            assert!(demux
                .iter_entries()
                .eq(self.chains.iter().flatten().copied()));
            assert_eq!(demux.tags.len(), demux.entries.len());
            let mut end = 0;
            for (region, chain) in demux.regions.iter().zip(&self.chains) {
                assert_eq!(region.len as usize, chain.len());
                assert!(region.start as usize >= end, "regions overlap");
                end = (region.start + region.len) as usize;
            }
            assert!(end <= demux.tags.len());
        }
    }

    /// Every `LookupResult` field and the final accumulated `LookupStats`
    /// agree with the model across insert/remove/reorder churn, with the
    /// cache both enabled and disabled.
    #[test]
    fn prop_matches_chain_model() {
        for cache_enabled in [true, false] {
            let name = if cache_enabled {
                "sequent_prop_matches_chain_model_cached"
            } else {
                "sequent_prop_matches_chain_model_nocache"
            };
            check(name, |rng| {
                let mut arena = PcbArena::new();
                let mut demux = SequentDemux::new(Multiplicative, 7);
                if !cache_enabled {
                    demux = demux.without_cache();
                }
                let mut model = Model::of(&demux);
                let ops = rng.vec_of(0, 300, |r| (r.u8_in(0, 5), r.u32_below(32)));
                for (op, n) in ops {
                    let k = key(n);
                    match op {
                        0 | 1 => model.insert(&mut demux, k, arena.insert(Pcb::new(k))),
                        2 => model.remove(&mut demux, k),
                        _ => model.lookup(&mut demux, k),
                    }
                    model.check(&demux);
                }
                assert_eq!(*demux.stats(), model.stats);
            });
        }
    }

    /// Through lanes that fill, re-lay and double several times over —
    /// one chain to nineteen, a population that grows, shrinks and grows
    /// past its old peak — the structure agrees with the model, and the
    /// lanes hold the largest population so far and are never larger than
    /// the power of two (16 at least) that holds it with a free slot per
    /// chain: they follow the population, not any one chain.
    #[test]
    fn prop_relayouts_match_the_model_as_the_lanes_fill_and_grow() {
        check_cases("sequent_relayouts_match_the_model", sweep_seeds(8), |rng| {
            let chains = *rng.choose(&[1, 2, 5, 19]);
            let keys = rng.u32_in(100, 1500);
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::new(Multiplicative, chains);
            let mut model = Model::of(&demux);
            let (mut peak, mut doublings) = (0, 0);
            for phase in [8u8, 3, 8, 5] {
                for _ in 0..rng.usize_in(500, 1500) {
                    let k = key(rng.u32_below(keys));
                    let slots = demux.tags.len();
                    match rng.u8_in(0, 10) {
                        op if op < phase => match model.position(&k) {
                            None if op % 2 == 0 => {
                                model.preload(&mut demux, k, arena.insert(Pcb::new(k)));
                            }
                            _ => model.insert(&mut demux, k, arena.insert(Pcb::new(k))),
                        },
                        op if op < phase + 2 => model.lookup(&mut demux, k),
                        _ => model.remove(&mut demux, k),
                    }
                    model.check(&demux);
                    peak = peak.max(demux.len());
                    let most = (peak + chains).next_power_of_two().max(FIRST_SLOTS);
                    let lanes = demux.tags.len();
                    assert!(lanes.is_power_of_two() || peak == 0, "{lanes} slots");
                    assert!((peak..=most).contains(&lanes), "{lanes} slots for {peak}");
                    doublings += usize::from(slots > 0 && demux.tags.len() > slots);
                }
            }
            assert!(doublings >= 2, "the lanes grew only {doublings} times");
            assert_eq!(*demux.stats(), model.stats);
        });
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
