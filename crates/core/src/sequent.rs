//! §3.1–3.5 — one chained table, and the paper's list algorithms as its
//! settings: BSD, Crowcroft's move-to-front, Sequent and hashed
//! move-to-front are each a chain count and a [`ChainPolicy`] of
//! [`SequentDemux`], whose docs hold the table of them. The send/receive
//! cache (§3.3, [`SendRecvDemux`](crate::SendRecvDemux)) is one uncached
//! chain behind two caches of its own.
//!
//! # One pair of lanes for every chain
//!
//! The chains share one tag lane and one slot lane: each chain is a
//! region of the lanes, in reverse list order (its head last), walked by
//! one walk (`list::index_in`). A region has the slots up to where the
//! next one starts; an insert into a region with none left re-lays every
//! region in place (two `copy_within` passes, one toward the front and
//! one toward the back), sharing the free slots evenly. The lanes double
//! only when the whole table nearly outgrows them (fewer free slots than
//! chains), so their size follows the population, not the longest each
//! chain has ever been: a table whose population stays under its
//! capacity never allocates again, however its connections come and go
//! between chains. Moving a PCB to the head of its chain, and removing
//! one, shifts the slots in front of it by one inside the region: a
//! `memmove` over lines the walk that found it has just read.
//!
//! # Two tables over one set of chains
//!
//! The chains (`Chains<S>`) are written once, generic over what a slot
//! holds, and confirm a tag hit through a closure; two tables use them.
//!
//! - [`SequentDemux`] holds `(ConnectionKey, PcbId)` in its slots: it
//!   keeps its own copy of every key and confirms against it. It is the
//!   [`Demux`] the paper suite, the simulators and the benchmark's mirror
//!   use, under every policy.
//! - [`KeylessSequent`] holds a `u32` arena index and no key: a tag hit
//!   confirms against the key in the connection's own slot, which the
//!   caller reads for it. Its lanes cost 8 bytes a slot where the keyed
//!   table's cost 24, and a hit goes from the tag lane straight to the
//!   slot the frame needs anyway (CuCoTrack's fingerprint table, whose
//!   full keys stay with the connection state). The key check also turns
//!   away an index whose connection has gone or been replaced, so the
//!   table keeps no generation. Its insert is a push: the caller has
//!   already proved the key absent. It always caches, and always hashes.
//!
//! Both count the same: given the same operations, each lookup examines
//! the same positions, hits the same caches and records the same
//! statistics, because only the confirm differs.

use crate::list::{examined, index_in, key_tag};
use crate::stats::LookupStats;
use crate::{Demux, LookupResult, PacketKind};
use core::ops::Range;
use tcpdemux_hash::{KeyHasher, Multiplicative};
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// One slot of the keyed table: a key and its PCB.
pub(crate) type Entry = (ConnectionKey, PcbId);

/// The fewest slots the lanes are given: one line of tags, the block a
/// walk compares at a time.
const FIRST_SLOTS: usize = 16;

/// One chain's place in the lanes: `len` slots from `start`, head last.
/// The chain may grow into the slots up to the next region's start.
#[derive(Debug, Clone, Copy, Default)]
struct Region {
    start: u32,
    len: u32,
}

/// The chains of every chained table, over slots of type `S`: the lanes,
/// their regions, one last-found cache per chain and the lookup
/// statistics. Every
/// operation names its chain and the key's tag, and takes `is`, which
/// says whether a slot holds the key sought.
///
/// A cache keeps the slot's tag beside it and is asked `is` only when
/// the tag matches, as the walk is: for a keyless slot, `is` reads the
/// connection's own slot, and a cache that misses (nearly every lookup
/// on a chain of fifty) should not cost a read of some other
/// connection's. Equal keys have equal tags, so this changes no answer
/// and no count.
#[derive(Debug)]
pub(crate) struct Chains<S> {
    /// Every chain's tags, region after region in chain order; free slots
    /// between regions hold stale values nothing reads.
    tags: Vec<u32>,
    /// What the tags prefilter, slot for slot.
    slots: Vec<S>,
    regions: Vec<Region>,
    caches: Vec<Option<(u32, S)>>,
    cache_enabled: bool,
    pub(crate) len: usize,
    stats: LookupStats,
}

impl<S: Copy> Chains<S> {
    pub(crate) fn new(chains: usize) -> Self {
        assert!(chains > 0, "chain count must be nonzero");
        Self {
            tags: Vec::new(),
            slots: Vec::new(),
            regions: vec![Region::default(); chains],
            caches: vec![None; chains],
            cache_enabled: true,
            len: 0,
            stats: LookupStats::new(),
        }
    }

    pub(crate) fn disable_cache(&mut self) {
        self.cache_enabled = false;
        self.caches.iter_mut().for_each(|c| *c = None);
    }

    fn chain_lengths(&self) -> Vec<usize> {
        self.regions.iter().map(|r| r.len as usize).collect()
    }

    /// Every slot, chain by chain, each chain head first.
    fn iter(&self) -> impl DoubleEndedIterator<Item = S> + '_ {
        (0..self.regions.len()).flat_map(|b| self.slots[self.range(b)].iter().rev().copied())
    }

    fn name(&self) -> String {
        if self.cache_enabled {
            format!("sequent({})", self.regions.len())
        } else {
            format!("sequent-nocache({})", self.regions.len())
        }
    }

    /// The slots chain `b` occupies.
    #[inline]
    fn range(&self, b: usize) -> Range<usize> {
        let r = self.regions[b];
        r.start as usize..(r.start + r.len) as usize
    }

    /// Where the slot `is` accepts sits in the lanes, if chain `b` holds
    /// one under `tag`, and the slots examined to find that out.
    // Forced into its callers, as `index_in` is: left a call of its own
    // it cost a hit at N = 2,000 some 9 ns of 30.
    #[inline(always)]
    fn walk(&self, b: usize, tag: u32, is: impl Fn(&S) -> bool) -> (Option<usize>, u32) {
        let range = self.range(b);
        let slots = &self.slots[range.clone()];
        let index = index_in(&self.tags[range.clone()], tag, |i| is(&slots[i]));
        (index.map(|i| range.start + i), examined(range.len(), index))
    }

    /// The slot `is` accepts in chain `b`, if it holds one under `tag`,
    /// and the slots examined to find it; no cache, no statistics.
    #[inline]
    pub(crate) fn find(&self, b: usize, tag: u32, is: impl Fn(&S) -> bool) -> (Option<S>, u32) {
        let (index, examined) = self.walk(b, tag, is);
        (index.map(|i| self.slots[i]), examined)
    }

    /// The paper's lookup: chain `b`'s cache, then its walk. Records the
    /// cost in the statistics and leaves a slot found in the cache.
    #[inline(always)]
    fn lookup(&mut self, b: usize, tag: u32, is: impl Fn(&S) -> bool) -> (Option<S>, u32, bool) {
        let cached = self.caches[b];
        if let Some((_, slot)) = cached.filter(|&(t, slot)| t == tag && is(&slot)) {
            self.stats.record(1, true, true);
            return (Some(slot), 1, true);
        }
        let (index, scanned) = self.walk(b, tag, is);
        let examined = u32::from(cached.is_some()) + scanned;
        let found = index.map(|i| self.slots[i]);
        if self.cache_enabled {
            if let Some(slot) = found {
                self.caches[b] = Some((tag, slot));
            }
        }
        self.stats.record(examined, found.is_some(), false);
        (found, examined, false)
    }

    /// Crowcroft's lookup: chain `b`'s walk, and the slot found moved to
    /// the head of the chain. Records the cost; a slot found at the head
    /// counts as a cache hit, the head being the list's cache. Only the
    /// keyed table calls this, so the keyless lookup's code is
    /// [`Chains::lookup`]'s alone.
    #[inline]
    fn lookup_move_to_front(
        &mut self,
        b: usize,
        tag: u32,
        is: impl Fn(&S) -> bool,
    ) -> (Option<S>, u32, bool) {
        let (index, examined) = self.walk(b, tag, is);
        let found = index.map(|i| {
            // Not `rotate_left(1)`, which below 24 elements juggles them
            // one at a time: two of those on a five-entry chain cost more
            // than the walk.
            let head = self.range(b).end - 1;
            let (tag, slot) = (self.tags[i], self.slots[i]);
            self.tags.copy_within(i + 1..=head, i);
            self.slots.copy_within(i + 1..=head, i);
            (self.tags[head], self.slots[head]) = (tag, slot);
            slot
        });
        let cache_hit = found.is_some() && examined == 1;
        self.stats.record(examined, found.is_some(), cache_hit);
        (found, examined, cache_hit)
    }

    /// Overwrite the slot `is` accepts in chain `b`, and the cache if it
    /// holds that slot, with `slot`. Whether chain `b` held one.
    pub(crate) fn replace(&mut self, b: usize, tag: u32, is: impl Fn(&S) -> bool, slot: S) -> bool {
        let Some(i) = self.walk(b, tag, &is).0 else {
            return false;
        };
        self.slots[i] = slot;
        if let Some(cached) = self.caches[b].as_mut().filter(|(t, c)| *t == tag && is(c)) {
            cached.1 = slot;
        }
        true
    }

    /// Take the slot `is` accepts out of chain `b`, and out of its cache.
    pub(crate) fn remove(&mut self, b: usize, tag: u32, is: impl Fn(&S) -> bool) -> Option<S> {
        if self.caches[b].is_some_and(|(t, cached)| t == tag && is(&cached)) {
            self.caches[b] = None;
        }
        let i = self.walk(b, tag, is).0?;
        let end = self.range(b).end;
        let slot = self.slots[i];
        self.tags.copy_within(i + 1..end, i);
        self.slots.copy_within(i + 1..end, i);
        self.regions[b].len -= 1;
        self.len -= 1;
        Some(slot)
    }

    /// Insert at the head of chain `b`.
    pub(crate) fn push_front(&mut self, b: usize, tag: u32, slot: S) {
        let end = self
            .regions
            .get(b + 1)
            .map_or(self.tags.len(), |r| r.start as usize);
        if self.range(b).end == end {
            self.make_room(b, slot);
        }
        let at = self.range(b).end;
        (self.tags[at], self.slots[at]) = (tag, slot);
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
    /// slots per insert that way, against ~20).
    #[cold]
    fn make_room(&mut self, full: usize, filler: S) {
        let chains = self.regions.len();
        let need = self.len + 1 + chains;
        if self.tags.len() < need {
            let slots = need.next_power_of_two().max(FIRST_SLOTS);
            self.tags.resize(slots, 0);
            self.slots.resize(slots, filler);
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
        self.slots.copy_within(range, to);
        self.regions[c].start = to as u32;
    }
}

/// What a chain of a [`SequentDemux`] does beside its walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainPolicy {
    /// A one-entry last-found cache per chain, probed first at a cost of
    /// one: Sequent (§3.4), and with one chain BSD (§3.1).
    Cache,
    /// No cache: every lookup walks its chain (§3.3's uncached list, and
    /// the cache ablation).
    Uncached,
    /// No cache; a PCB found moves to the head of its chain: Crowcroft's
    /// move-to-front (§3.2), and with more than one chain the combination
    /// §3.5 weighs.
    MoveToFront,
}

/// The chained PCB lookup structure: Sequent's hash chains, and under
/// its settings each of the paper's list algorithms.
///
/// PCBs are distributed across `H` hash chains by a hash of the
/// connection key; each chain is a linear list, scanned from its head.
/// What a chain does beside its walk is the table's [`ChainPolicy`]:
///
/// | Paper | `H` | Policy | Name |
/// |-------|-----|--------|------|
/// | §3.1, BSD ([`SequentDemux::bsd`]) | 1 | [`ChainPolicy::Cache`] | `bsd` |
/// | §3.2, Crowcroft's move-to-front ([`SequentDemux::mtf`]) | 1 | [`ChainPolicy::MoveToFront`] | `mtf` |
/// | §3.4, Sequent ([`SequentDemux::new`]) | `H` | [`ChainPolicy::Cache`] | `sequent(H)` |
/// | §3.3's uncached list; the cache ablation | `H` | [`ChainPolicy::Uncached`] | `sequent-nocache(H)` |
/// | §3.5, move-to-front within hash chains | `H` | [`ChainPolicy::MoveToFront`] | `hashed-mtf(H)` |
///
/// BSD's one list and one cache are the paper's `H = 1` case of
/// Equation 19, which is Equation 1: `C_BSD(N) = 1 + (N² − 1)/2N ≈ N/2`.
/// Sequent's caches raise the hit rate from `1/N` to `H/N`, and a miss
/// scans only `≈ N/H` PCBs instead of `N`, giving Equation 22 — about 53
/// PCBs examined for a 200-TPS TPC/A benchmark with the product's
/// default of 19 chains, an order of magnitude below BSD's 1,001. Raising
/// `H` buys further speedup for only `H` words of headers (§3.5: 19 → 100
/// chains takes the cost from 53 to under 9). Move-to-front has no
/// cache: the head of the chain is the cache, and a PCB found moves
/// there, so the acknowledgement a response-time after a transaction
/// finds its PCB near the front (Equations 5–6). Within hash chains it
/// buys at most a factor of two, where more chains buy five; the paper
/// rejects it, and the table keeps it so the ablation can measure that.
/// A one-chain table computes no hash.
#[derive(Debug)]
pub struct SequentDemux<H> {
    hasher: H,
    chains: Chains<Entry>,
    policy: ChainPolicy,
    /// The paper's name for one of its single lists (`"bsd"`, `"mtf"`),
    /// reported in place of a chain count.
    list_name: Option<&'static str>,
}

impl SequentDemux<Multiplicative> {
    /// §3.1, BSD: one list and a one-entry cache of the last PCB found.
    /// Reports itself as `"bsd"`.
    pub fn bsd() -> Self {
        Self {
            list_name: Some("bsd"),
            ..Self::new(Multiplicative, 1)
        }
    }

    /// §3.2, Crowcroft's move-to-front: one list, no cache, a PCB found
    /// moved to its head. Reports itself as `"mtf"`.
    pub fn mtf() -> Self {
        Self {
            list_name: Some("mtf"),
            ..Self::with_policy(Multiplicative, 1, ChainPolicy::MoveToFront)
        }
    }
}

impl<H: KeyHasher> SequentDemux<H> {
    /// The installation default number of hash chains in Sequent's product.
    pub const DEFAULT_CHAINS: usize = 19;

    /// Sequent's structure: `chains` hash chains (must be nonzero), each
    /// with its cache.
    pub fn new(hasher: H, chains: usize) -> Self {
        Self::with_policy(hasher, chains, ChainPolicy::Cache)
    }

    /// `chains` hash chains (must be nonzero) under `policy`.
    pub fn with_policy(hasher: H, chains: usize, policy: ChainPolicy) -> Self {
        let mut table = Self {
            hasher,
            chains: Chains::new(chains),
            policy,
            list_name: None,
        };
        if policy != ChainPolicy::Cache {
            table.chains.disable_cache();
        }
        table
    }

    /// What the chains do beside their walk.
    pub fn policy(&self) -> ChainPolicy {
        self.policy
    }

    /// Create with the installation-default 19 chains.
    pub fn with_default_chains(hasher: H) -> Self {
        Self::new(hasher, Self::DEFAULT_CHAINS)
    }

    /// Number of hash chains.
    pub fn chain_count(&self) -> usize {
        self.chains.regions.len()
    }

    /// Occupancy of each chain (for load-balance experiments).
    pub fn chain_lengths(&self) -> Vec<usize> {
        self.chains.chain_lengths()
    }

    /// Iterate every installed `(key, id)` pair, chain by chain, each
    /// chain head first. Used by [`crate::AdaptiveDemux`] when rehashing
    /// into a larger table.
    pub fn iter_entries(&self) -> impl DoubleEndedIterator<Item = (ConnectionKey, PcbId)> + '_ {
        self.chains.iter()
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
        self.chains.push_front(b, key_tag(&key), (key, id));
    }

    fn bucket(&self, key: &ConnectionKey) -> usize {
        match self.chains.regions.len() {
            // One chain needs no hash: BSD's and MTF's single list.
            1 => 0,
            chains => self.hasher.bucket(key, chains),
        }
    }
}

impl<H: KeyHasher> Demux for SequentDemux<H> {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        let (b, tag) = (self.bucket(&key), key_tag(&key));
        if !self.chains.replace(b, tag, |e| e.0 == key, (key, id)) {
            self.chains.push_front(b, tag, (key, id));
        }
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        let b = self.bucket(key);
        let entry = self.chains.remove(b, key_tag(key), |e| e.0 == *key)?;
        Some(entry.1)
    }

    fn lookup(&mut self, key: &ConnectionKey, _kind: PacketKind) -> LookupResult {
        let (b, tag) = (self.bucket(key), key_tag(key));
        let is = |e: &Entry| e.0 == *key;
        let (entry, examined, cache_hit) = match self.policy {
            ChainPolicy::MoveToFront => self.chains.lookup_move_to_front(b, tag, is),
            ChainPolicy::Cache | ChainPolicy::Uncached => self.chains.lookup(b, tag, is),
        };
        LookupResult {
            pcb: entry.map(|e| e.1),
            examined,
            cache_hit,
        }
    }

    fn len(&self) -> usize {
        self.chains.len
    }

    fn name(&self) -> String {
        match (self.list_name, self.policy) {
            (Some(name), _) => name.to_string(),
            (None, ChainPolicy::MoveToFront) => format!("hashed-mtf({})", self.chain_count()),
            (None, _) => self.chains.name(),
        }
    }

    fn stats(&self) -> &LookupStats {
        &self.chains.stats
    }

    fn reset_stats(&mut self) {
        self.chains.stats = LookupStats::new();
    }
}

/// What a [`KeylessSequent`] lookup found: the arena index of the
/// connection, and the paper's cost, counted as [`Demux::lookup`] counts
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexLookup {
    /// The arena index whose slot holds the key, or `None` on a miss.
    pub index: Option<u32>,
    /// PCBs examined: cache probe plus chain slots scanned.
    pub examined: u32,
    /// Whether the chain's cache answered.
    pub cache_hit: bool,
}

/// Sequent's hash chains holding no keys: each slot is the `u32` arena
/// index of a connection, and a tag hit confirms against the key in that
/// connection's own slot.
///
/// Every call that must recognise a key takes `key_at`, which returns the
/// key of the live connection at an arena index, or `None` if the index
/// holds none. Examined counts, cache hits and chain order are those of a
/// [`SequentDemux`] given the same operations.
#[derive(Debug)]
pub struct KeylessSequent<H> {
    hasher: H,
    chains: Chains<u32>,
}

impl<H: KeyHasher> KeylessSequent<H> {
    /// Create a table with `chains` hash chains (must be nonzero).
    pub fn new(hasher: H, chains: usize) -> Self {
        Self {
            hasher,
            chains: Chains::new(chains),
        }
    }

    fn bucket(&self, key: &ConnectionKey) -> usize {
        self.hasher.bucket(key, self.chains.regions.len())
    }

    /// Install the connection at arena `index`, whose key is `key`, at the
    /// head of its chain. The caller guarantees `key` is not installed: a
    /// SYN's lookup, or a check of the live connections, has proved it
    /// absent. There is no duplicate walk; a duplicate would be a second
    /// entry, found in place of the first until one is removed. Debug
    /// builds check the guarantee with a walk that records no statistics.
    pub fn insert(
        &mut self,
        key: &ConnectionKey,
        index: u32,
        key_at: impl Fn(u32) -> Option<ConnectionKey>,
    ) {
        let (b, tag) = (self.bucket(key), key_tag(key));
        debug_assert!(
            self.chains
                .walk(b, tag, |&i| key_at(i) == Some(*key))
                .0
                .is_none(),
            "{key} is installed already"
        );
        self.chains.push_front(b, tag, index);
    }

    /// Take out the entry for the connection at arena `index`, whose key
    /// is `key`. Goes by index, so the connection need not be in the
    /// arena any more. Whether it was installed.
    pub fn remove(&mut self, key: &ConnectionKey, index: u32) -> bool {
        let b = self.bucket(key);
        self.chains
            .remove(b, key_tag(key), |&i| i == index)
            .is_some()
    }

    /// Find the connection whose key is `key`, counting PCBs examined.
    #[inline]
    pub fn lookup(
        &mut self,
        key: &ConnectionKey,
        key_at: impl Fn(u32) -> Option<ConnectionKey>,
    ) -> IndexLookup {
        let b = self.bucket(key);
        let (index, examined, cache_hit) = self
            .chains
            .lookup(b, key_tag(key), |&i| key_at(i) == Some(*key));
        IndexLookup {
            index,
            examined,
            cache_hit,
        }
    }

    /// Number of connections installed.
    pub fn len(&self) -> usize {
        self.chains.len
    }

    /// Whether no connection is installed.
    pub fn is_empty(&self) -> bool {
        self.chains.len == 0
    }

    /// Occupancy of each chain.
    pub fn chain_lengths(&self) -> Vec<usize> {
        self.chains.chain_lengths()
    }

    /// Every installed arena index, chain by chain, each chain head first.
    pub fn iter_indices(&self) -> impl DoubleEndedIterator<Item = u32> + '_ {
        self.chains.iter()
    }

    /// Name for reports: `"sequent(H)"`, as the keyed table reports.
    pub fn name(&self) -> String {
        self.chains.name()
    }

    /// Accumulated lookup statistics.
    pub fn stats(&self) -> &LookupStats {
        &self.chains.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::tests::linked;
    use crate::test_util::{key, populate};
    use crate::SendRecvDemux;
    use tcpdemux_hash::XorFold;
    use tcpdemux_pcb::{Pcb, PcbArena};
    use tcpdemux_testprop::{check, check_cases, sweep_seeds, TestRng};

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
        let mut bsd = SequentDemux::bsd();
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
        let names = [
            SequentDemux::bsd(),
            SequentDemux::mtf(),
            SequentDemux::new(Multiplicative, 1),
            SequentDemux::with_policy(Multiplicative, 19, ChainPolicy::Uncached),
            SequentDemux::with_policy(Multiplicative, 19, ChainPolicy::MoveToFront),
            SequentDemux::with_policy(Multiplicative, 1, ChainPolicy::MoveToFront),
        ]
        .map(|d| d.name());
        let want = [
            "bsd",
            "mtf",
            "sequent(1)",
            "sequent-nocache(19)",
            "hashed-mtf(19)",
            "hashed-mtf(1)",
        ];
        assert_eq!(names, want);
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
        let mut uncached = SequentDemux::with_policy(Multiplicative, 19, ChainPolicy::Uncached);
        assert_eq!(cached.policy(), ChainPolicy::Cache);
        assert_eq!(uncached.policy(), ChainPolicy::Uncached);
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
        policy: ChainPolicy,
    }

    impl Model {
        fn of(demux: &SequentDemux<Multiplicative>) -> Self {
            Self {
                chains: vec![Vec::new(); demux.chain_count()],
                caches: vec![None; demux.chain_count()],
                stats: LookupStats::new(),
                policy: demux.policy(),
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
                            let mut cache_hit = false;
                            match self.policy {
                                ChainPolicy::Cache => self.caches[b] = Some((k, id)),
                                ChainPolicy::Uncached => {}
                                ChainPolicy::MoveToFront => {
                                    self.chains[b][..=pos].rotate_right(1);
                                    cache_hit = pos == 0;
                                }
                            }
                            self.stats.record(examined, true, cache_hit);
                            LookupResult {
                                pcb: Some(id),
                                examined,
                                cache_hit,
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
            assert_eq!(demux.chains.tags.len(), demux.chains.slots.len());
            let mut end = 0;
            for (region, chain) in demux.chains.regions.iter().zip(&self.chains) {
                assert_eq!(region.len as usize, chain.len());
                assert!(region.start as usize >= end, "regions overlap");
                end = (region.start + region.len) as usize;
            }
            assert!(end <= demux.chains.tags.len());
        }
    }

    /// Every `LookupResult` field and the final accumulated `LookupStats`
    /// agree with the model across insert/remove/reorder churn, under
    /// every policy.
    #[test]
    fn prop_matches_chain_model() {
        for (policy, name) in [
            (
                ChainPolicy::Cache,
                "sequent_prop_matches_chain_model_cached",
            ),
            (
                ChainPolicy::Uncached,
                "sequent_prop_matches_chain_model_nocache",
            ),
            (
                ChainPolicy::MoveToFront,
                "sequent_prop_matches_chain_model_mtf",
            ),
        ] {
            check(name, |rng| {
                let mut arena = PcbArena::new();
                let mut demux = SequentDemux::with_policy(Multiplicative, 7, policy);
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
    /// one chain to nineteen, under every policy, a population that
    /// grows, shrinks and grows past its old peak — the structure agrees
    /// with the model, and the lanes hold the largest population so far
    /// and are never larger than the power of two (16 at least) that
    /// holds it with a free slot per chain: they follow the population,
    /// not any one chain. One chain of a few hundred is the single list
    /// of BSD and MTF, walked across dozens of blocks.
    #[test]
    fn prop_relayouts_match_the_model_as_the_lanes_fill_and_grow() {
        check_cases("sequent_relayouts_match_the_model", sweep_seeds(8), |rng| {
            let chains = *rng.choose(&[1, 2, 5, 19]);
            let policy = *rng.choose(&[
                ChainPolicy::Cache,
                ChainPolicy::Uncached,
                ChainPolicy::MoveToFront,
            ]);
            let keys = rng.u32_in(100, 1500);
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::with_policy(Multiplicative, chains, policy);
            let mut model = Model::of(&demux);
            let (mut peak, mut doublings) = (0, 0);
            for phase in [8u8, 3, 8, 5] {
                for _ in 0..rng.usize_in(500, 1500) {
                    let k = key(rng.u32_below(keys));
                    let slots = demux.chains.tags.len();
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
                    let lanes = demux.chains.tags.len();
                    assert!(lanes.is_power_of_two() || peak == 0, "{lanes} slots");
                    assert!((peak..=most).contains(&lanes), "{lanes} slots for {peak}");
                    doublings += usize::from(slots > 0 && demux.chains.tags.len() > slots);
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
        let mut uncached = SequentDemux::with_policy(Multiplicative, 19, ChainPolicy::Uncached);
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

    /// The key of the live PCB at an arena index: what the stack's
    /// `Conn` slot tells a keyless table.
    fn key_at(arena: &PcbArena) -> impl Fn(u32) -> Option<ConnectionKey> + '_ {
        |i| arena.at(i).map(|(_, pcb)| pcb.key())
    }

    /// A keyless lookup as the keyed table reports it.
    fn keyless_lookup(
        table: &mut KeylessSequent<Multiplicative>,
        arena: &PcbArena,
        k: &ConnectionKey,
    ) -> LookupResult {
        let found = table.lookup(k, key_at(arena));
        LookupResult {
            pcb: found.index.map(|i| arena.at(i).expect("confirmed live").0),
            examined: found.examined,
            cache_hit: found.cache_hit,
        }
    }

    /// Keys that share `base`'s tag and its chain of nineteen: a tag hit
    /// on any of them is false for `base`, and only the confirm can tell.
    fn colliders_in_chain(base: ConnectionKey, chains: usize, n: usize) -> Vec<ConnectionKey> {
        let chain = Multiplicative.bucket(&base, chains);
        let found: Vec<_> = (1..100_000)
            .map(|m| crate::list::tests::collider(base, m))
            .filter(|k| Multiplicative.bucket(k, chains) == chain)
            .take(n)
            .collect();
        assert_eq!(found.len(), n, "colliders in chain {chain}");
        found
    }

    /// Crafted tag collisions inside one chain of nineteen, nearer the
    /// head than the key sought and behind it: the keyless table's
    /// confirm reads each colliding PCB's own key and walks on, and every
    /// lookup, hit or miss, reports what the keyed table reports.
    #[test]
    fn a_tag_collision_in_one_chain_is_skipped_by_the_slot_confirm() {
        const CHAINS: usize = 19;
        let base = crate::list::tests::collision_base();
        let colliders = colliders_in_chain(base, CHAINS, 3);
        let mut arena = PcbArena::new();
        let mut keyed = SequentDemux::new(Multiplicative, CHAINS);
        let mut keyless = KeylessSequent::new(Multiplicative, CHAINS);
        let mut install = |k: ConnectionKey, arena: &mut PcbArena| {
            let id = arena.insert(Pcb::new(k));
            keyed.insert(k, id);
            keyless.insert(&k, id.index() as u32, key_at(arena));
            id
        };
        // Head first: colliders[2], filler, base, colliders[1], filler,
        // colliders[0]: a false tag hit on either side of `base`.
        install(colliders[0], &mut arena);
        for n in 0..40 {
            install(key(n), &mut arena);
        }
        install(colliders[1], &mut arena);
        let base_id = install(base, &mut arena);
        for n in 40..80 {
            install(key(n), &mut arena);
        }
        install(colliders[2], &mut arena);

        let probes = [base, colliders[0], colliders[1], colliders[2], base, base];
        for k in probes
            .iter()
            .chain(&[crate::list::tests::collider(base, 999_999)])
        {
            let want = keyed.lookup(k, PacketKind::Data);
            assert_eq!(keyless_lookup(&mut keyless, &arena, k), want, "{k}");
        }
        let want = keyed.lookup(&base, PacketKind::Data);
        assert_eq!(want.pcb, Some(base_id));
        assert_eq!(keyless_lookup(&mut keyless, &arena, &base), want);

        // Out by index, and the next lookup of `base` takes the false hit
        // on colliders[2] again before finding it.
        let id = keyed.remove(&colliders[1]).unwrap();
        assert!(keyless.remove(&colliders[1], id.index() as u32));
        arena.remove(id);
        keyed.lookup(&colliders[2], PacketKind::Data);
        keyless_lookup(&mut keyless, &arena, &colliders[2]);
        for k in [base, colliders[1], colliders[0]] {
            let want = keyed.lookup(&k, PacketKind::Data);
            assert_eq!(keyless_lookup(&mut keyless, &arena, &k), want, "{k}");
        }
        assert_eq!(keyless.stats(), keyed.stats());
    }

    /// An arena index freed and handed to another connection while the
    /// table still holds it under the old key — the stack frees the slot
    /// before it takes the entry out — never answers for the old key:
    /// the confirm reads the new connection's key. Removal goes by
    /// index, so it takes out the old entry and leaves the new one.
    #[test]
    fn a_freed_and_reused_index_never_matches_the_old_key() {
        let mut arena = PcbArena::new();
        let mut table = KeylessSequent::new(Multiplicative, 1);
        let (old, new) = (key(1), key(2));
        let old_id = arena.insert(Pcb::new(old));
        table.insert(&old, old_id.index() as u32, key_at(&arena));
        // Warm the chain's cache with the old connection.
        assert_eq!(keyless_lookup(&mut table, &arena, &old).pcb, Some(old_id));
        assert!(keyless_lookup(&mut table, &arena, &old).cache_hit);

        arena.remove(old_id).unwrap();
        let miss = keyless_lookup(&mut table, &arena, &old);
        assert_eq!((miss.pcb, miss.examined, miss.cache_hit), (None, 2, false));
        let new_id = arena.insert(Pcb::new(new));
        assert_eq!(new_id.index(), old_id.index(), "the slot is reused");
        table.insert(&new, new_id.index() as u32, key_at(&arena));
        for _ in 0..2 {
            assert_eq!(keyless_lookup(&mut table, &arena, &old).pcb, None);
            let hit = keyless_lookup(&mut table, &arena, &new);
            assert_eq!(hit.pcb, Some(new_id));
        }

        assert!(table.remove(&old, old_id.index() as u32));
        assert!(!table.remove(&old, old_id.index() as u32));
        assert_eq!(table.len(), 1);
        let hit = keyless_lookup(&mut table, &arena, &new);
        assert_eq!((hit.pcb, hit.cache_hit), (Some(new_id), true));
    }

    /// The keyless insert is a push; a debug build refuses a key that is
    /// installed already rather than leave two entries for it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is installed already")]
    fn a_keyless_insert_of_a_present_key_is_refused_in_debug() {
        let mut arena = PcbArena::new();
        let mut table = KeylessSequent::new(Multiplicative, 19);
        let first = arena.insert(Pcb::new(key(5)));
        table.insert(&key(5), first.index() as u32, key_at(&arena));
        let stats = *table.stats();
        let second = arena.insert(Pcb::new(key(5)));
        let check = std::panic::AssertUnwindSafe(|| {
            table.insert(&key(5), second.index() as u32, key_at(&arena));
        });
        let panicked = std::panic::catch_unwind(check);
        assert_eq!(*table.stats(), stats, "the check records no lookup");
        std::panic::resume_unwind(panicked.unwrap_err());
    }

    /// BSD over the linked reference, and one Sequent chain: a list and a
    /// one-entry last-found cache, probed first at a cost of one.
    struct LinkedCachedChain {
        list: linked::List,
        cache: Option<Entry>,
    }

    impl LinkedCachedChain {
        fn new() -> Self {
            Self {
                list: linked::List::new(),
                cache: None,
            }
        }

        fn insert(&mut self, key: ConnectionKey, id: PcbId) {
            if self.list.replace(&key, id).is_none() {
                self.list.push_front(key, id);
            } else if self.cache.is_some_and(|(ck, _)| ck == key) {
                self.cache = Some((key, id));
            }
        }

        fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
            if self.cache.is_some_and(|(ck, _)| ck == *key) {
                self.cache = None;
            }
            self.list.remove(key)
        }

        fn lookup(&mut self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
            if let Some((_, id)) = self.cache.filter(|(ck, _)| ck == key) {
                return (Some(id), 1);
            }
            let (found, scanned) = self.list.find(key);
            let examined = u32::from(self.cache.is_some()) + scanned;
            if let Some(id) = found {
                self.cache = Some((*key, id));
            }
            (found, examined)
        }
    }

    /// Partridge and Pink's two caches over the linked reference: the
    /// receive cache probed first for data and the send cache first for
    /// ACKs, each at a cost of one when it holds a PCB.
    struct LinkedSendRecv {
        list: linked::List,
        recv: Option<Entry>,
        send: Option<Entry>,
    }

    impl LinkedSendRecv {
        fn new() -> Self {
            Self {
                list: linked::List::new(),
                recv: None,
                send: None,
            }
        }

        fn insert(&mut self, key: ConnectionKey, id: PcbId) {
            if self.list.replace(&key, id).is_none() {
                self.list.push_front(key, id);
            }
            for (ck, cid) in [&mut self.recv, &mut self.send].into_iter().flatten() {
                if *ck == key {
                    *cid = id;
                }
            }
        }

        fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
            for cache in [&mut self.recv, &mut self.send] {
                if cache.is_some_and(|(ck, _)| ck == *key) {
                    *cache = None;
                }
            }
            self.list.remove(key)
        }

        fn lookup(&mut self, key: &ConnectionKey, kind: PacketKind) -> (Option<PcbId>, u32) {
            let probes = match kind {
                PacketKind::Data => [self.recv, self.send],
                PacketKind::Ack => [self.send, self.recv],
            };
            let mut examined = 0;
            for (ck, id) in probes.into_iter().flatten() {
                examined += 1;
                if ck == *key {
                    self.recv = Some((ck, id));
                    return (Some(id), examined);
                }
            }
            let (found, scanned) = self.list.find(key);
            if let Some(id) = found {
                self.recv = Some((*key, id));
            }
            (found, examined + scanned)
        }

        fn note_send(&mut self, key: &ConnectionKey) {
            if let (Some(id), _) = self.list.find(key) {
                self.send = Some((*key, id));
            }
        }
    }

    /// BSD, MTF, the send/receive cache, `sequent(19)` and
    /// `hashed-mtf(19)` as settings of the chained table examine, lookup
    /// for lookup and in total, exactly what the same algorithms examine
    /// over the linked list the lanes replaced, through 10,000 lookups
    /// (hits and misses, data and ACKs) interleaved with inserts,
    /// removes and sends.
    #[test]
    fn paper_algorithms_examine_what_they_did_over_the_linked_list() {
        const KEYS: u32 = 1500;
        const CHAINS: usize = 19;
        for seed in 0..u64::from(sweep_seeds(2)) {
            let mut rng = TestRng::from_seed(0x11_57ed ^ seed);
            let mut arena = PcbArena::new();
            let mut tables: [Box<dyn Demux>; 5] = [
                Box::new(SequentDemux::bsd()),
                Box::new(SequentDemux::mtf()),
                Box::new(SendRecvDemux::new()),
                Box::new(SequentDemux::new(Multiplicative, CHAINS)),
                Box::new(SequentDemux::with_policy(
                    Multiplicative,
                    CHAINS,
                    ChainPolicy::MoveToFront,
                )),
            ];
            let mut linked_bsd = LinkedCachedChain::new();
            let mut linked_mtf = linked::List::new();
            let mut linked_send_recv = LinkedSendRecv::new();
            let mut linked_sequent: Vec<_> =
                (0..CHAINS).map(|_| LinkedCachedChain::new()).collect();
            let mut linked_hashed_mtf: Vec<_> = (0..CHAINS).map(|_| linked::List::new()).collect();
            let mut linked_totals = [0u64; 5];

            let mut lookups = 0;
            while lookups < 10_000 {
                let k = key(rng.u32_below(KEYS));
                let b = Multiplicative.bucket(&k, CHAINS);
                // Insert-heavy until the table holds about two thirds of
                // the key space, so most lookups hit and chains are long.
                match rng.u8_in(0, 10) {
                    0 | 1 => {
                        let id = arena.insert(Pcb::new(k));
                        tables.iter_mut().for_each(|t| t.insert(k, id));
                        linked_bsd.insert(k, id);
                        linked_mtf.insert(k, id);
                        linked_send_recv.insert(k, id);
                        linked_sequent[b].insert(k, id);
                        linked_hashed_mtf[b].insert(k, id);
                    }
                    2 => {
                        let expected = linked_bsd.remove(&k);
                        assert_eq!(linked_mtf.remove(&k), expected);
                        assert_eq!(linked_send_recv.remove(&k), expected);
                        assert_eq!(linked_sequent[b].remove(&k), expected);
                        assert_eq!(linked_hashed_mtf[b].remove(&k), expected);
                        for table in &mut tables {
                            assert_eq!(table.remove(&k), expected, "{}", table.name());
                        }
                    }
                    3 => {
                        linked_send_recv.note_send(&k);
                        tables.iter_mut().for_each(|t| t.note_send(&k));
                    }
                    op => {
                        lookups += 1;
                        let kind = [PacketKind::Data, PacketKind::Ack][usize::from(op % 2)];
                        let expected = [
                            linked_bsd.lookup(&k),
                            linked_mtf.find_move_to_front(&k),
                            linked_send_recv.lookup(&k, kind),
                            linked_sequent[b].lookup(&k),
                            linked_hashed_mtf[b].find_move_to_front(&k),
                        ];
                        for ((table, want), total) in
                            tables.iter_mut().zip(expected).zip(&mut linked_totals)
                        {
                            let got = table.lookup(&k, kind);
                            assert_eq!((got.pcb, got.examined), want, "{}", table.name());
                            *total += u64::from(want.1);
                        }
                    }
                }
            }
            let totals: Vec<_> = tables.iter().map(|t| t.stats().pcbs_examined).collect();
            assert_eq!(totals, linked_totals, "seed {seed}");
            assert!(tables[0].len() > 500, "trace must keep lists long");
        }
    }

    /// §3.1: BSD, one chain with its cache.
    mod bsd {
        use super::*;

        #[test]
        fn repeated_lookup_hits_cache() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::bsd();
            let ids = populate(&mut demux, &mut arena, 100);

            // First lookup scans; key(0) was inserted first so it is at
            // the tail: 100 entries examined (no cache populated yet).
            let r1 = demux.lookup(&key(0), PacketKind::Data);
            assert_eq!(r1.pcb, Some(ids[0]));
            assert_eq!(r1.examined, 100);
            assert!(!r1.cache_hit);

            // Second lookup: cache hit, exactly one PCB examined. This is
            // the packet-train case the cache was designed for.
            let r2 = demux.lookup(&key(0), PacketKind::Data);
            assert_eq!(r2.pcb, Some(ids[0]));
            assert_eq!(r2.examined, 1);
            assert!(r2.cache_hit);
        }

        #[test]
        fn miss_cost_includes_cache_probe() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::bsd();
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
            let mut demux = SequentDemux::bsd();
            populate(&mut demux, &mut arena, 10);
            demux.lookup(&key(5), PacketKind::Data); // prime cache

            // A key that is not there: 1 cache probe + all 10 scanned.
            let r = demux.lookup(&key(1000), PacketKind::Data);
            assert_eq!(r.pcb, None);
            assert_eq!(r.examined, 11);
        }

        #[test]
        fn lookup_does_not_reorder_list() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::bsd();
            populate(&mut demux, &mut arena, 5);
            // key(4)..key(0) is the list order. Looking up key(2), then
            // evicting it from the cache with another lookup, must leave
            // its position (and hence cost) unchanged.
            let r = demux.lookup(&key(2), PacketKind::Data);
            assert_eq!(r.examined, 3); // position of key(2)
            demux.lookup(&key(4), PacketKind::Data); // evicts cache (cost 1+1)
            let r = demux.lookup(&key(2), PacketKind::Data);
            assert_eq!(r.examined, 4); // 1 cache probe + same position 3
        }

        #[test]
        fn remove_clears_cache() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::bsd();
            populate(&mut demux, &mut arena, 3);
            demux.lookup(&key(1), PacketKind::Data);
            assert!(demux.lookup(&key(1), PacketKind::Data).cache_hit);
            demux.remove(&key(1));
            // A miss over the two left, with no cache left to probe.
            let r = demux.lookup(&key(1), PacketKind::Data);
            assert_eq!((r.pcb, r.examined), (None, 2));
        }

        #[test]
        fn reinsert_updates_cached_handle() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::bsd();
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
            // Round-robin traffic over N connections: the cache almost
            // never hits (the paper's OLTP scenario). Mean examined must
            // be close to 1 + (N+1)/2.
            let n = 200u32;
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::bsd();
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

    /// §3.2: Crowcroft's move-to-front, one chain with no cache.
    mod mtf {
        use super::*;

        fn front(demux: &SequentDemux<Multiplicative>) -> Option<ConnectionKey> {
            demux.iter_entries().next().map(|(k, _)| k)
        }

        #[test]
        fn found_pcb_moves_to_front() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::mtf();
            let ids = populate(&mut demux, &mut arena, 10);

            // key(0) is at the tail (inserted first): 10 examined.
            let r = demux.lookup(&key(0), PacketKind::Data);
            assert_eq!(r.pcb, Some(ids[0]));
            assert_eq!(r.examined, 10);
            assert_eq!(front(&demux), Some(key(0)));

            // Now it is at the head: 1 examined.
            let r = demux.lookup(&key(0), PacketKind::Data);
            assert_eq!(r.examined, 1);
            assert!(r.cache_hit);
        }

        #[test]
        fn intervening_lookups_push_key_back() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::mtf();
            populate(&mut demux, &mut arena, 10);

            demux.lookup(&key(0), PacketKind::Data); // key(0) to front
            demux.lookup(&key(1), PacketKind::Data); // key(1) to front
            demux.lookup(&key(2), PacketKind::Data); // key(2) to front

            // key(0) is now third.
            let r = demux.lookup(&key(0), PacketKind::Data);
            assert_eq!(r.examined, 3);
        }

        #[test]
        fn miss_scans_whole_list_without_reordering() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::mtf();
            populate(&mut demux, &mut arena, 5);
            for i in 0..5 {
                demux.lookup(&key(i), PacketKind::Data);
            }
            let before: Vec<_> = demux.iter_entries().collect();
            let r = demux.lookup(&key(1000), PacketKind::Data);
            assert_eq!(r.pcb, None);
            assert_eq!(r.examined, 5);
            // Order still has key(4) at the front (the last successful
            // lookup), and nothing else moved.
            assert_eq!(front(&demux), Some(key(4)));
            assert!(demux.iter_entries().eq(before));
        }

        #[test]
        fn deterministic_polling_is_worst_case() {
            // The paper's point-of-sale observation: if a server polls its
            // N clients round-robin, every lookup scans the entire list,
            // because the needed PCB has always just been pushed to the
            // very tail by the N−1 other lookups.
            let n = 50u32;
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::mtf();
            populate(&mut demux, &mut arena, n);

            // Warm up one full cycle to reach the steady-state ordering.
            for i in 0..n {
                demux.lookup(&key(i), PacketKind::Data);
            }
            demux.reset_stats();
            for _round in 0..10 {
                for i in 0..n {
                    let r = demux.lookup(&key(i), PacketKind::Data);
                    assert_eq!(r.examined, n, "round-robin must always scan all");
                }
            }
            assert!((demux.stats().mean_examined() - f64::from(n)).abs() < 1e-9);
        }

        #[test]
        fn packet_train_is_best_case() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::mtf();
            populate(&mut demux, &mut arena, 100);
            demux.lookup(&key(42), PacketKind::Data);
            demux.reset_stats();
            for _ in 0..64 {
                let r = demux.lookup(&key(42), PacketKind::Data);
                assert_eq!(r.examined, 1);
            }
            assert_eq!(demux.stats().hit_rate(), 1.0);
        }

        #[test]
        fn remove_from_any_position() {
            let mut arena = PcbArena::new();
            let mut demux = SequentDemux::mtf();
            let ids = populate(&mut demux, &mut arena, 3);
            demux.lookup(&key(0), PacketKind::Data); // order: 0, 2, 1
            assert_eq!(demux.remove(&key(2)), Some(ids[2]));
            assert_eq!(demux.len(), 2);
            let r = demux.lookup(&key(1), PacketKind::Data);
            assert_eq!(r.examined, 2);
        }
    }

    /// §3.5: move-to-front within hash chains.
    mod hashed_mtf {
        use super::*;

        fn hashed_mtf(chains: usize) -> SequentDemux<Multiplicative> {
            SequentDemux::with_policy(Multiplicative, chains, ChainPolicy::MoveToFront)
        }

        #[test]
        fn repeat_lookup_is_one_probe() {
            let mut arena = PcbArena::new();
            let mut demux = hashed_mtf(19);
            populate(&mut demux, &mut arena, 200);
            demux.lookup(&key(7), PacketKind::Data);
            let r = demux.lookup(&key(7), PacketKind::Data);
            assert_eq!(r.examined, 1);
            assert!(r.cache_hit);
        }

        #[test]
        fn bounded_by_chain_length() {
            let mut arena = PcbArena::new();
            let mut demux = hashed_mtf(19);
            populate(&mut demux, &mut arena, 1900);
            let longest = demux.chain_lengths().into_iter().max().unwrap() as u32;
            for i in 0..1900 {
                let r = demux.lookup(&key(i), PacketKind::Data);
                assert!(r.pcb.is_some());
                assert!(r.examined <= longest.min(300), "examined {}", r.examined);
            }
        }

        #[test]
        fn raising_chains_beats_adding_mtf() {
            // The paper's §3.5 comparison, measured on train-free
            // round-robin traffic: sequent(100) must beat hashed-mtf(19),
            // and hashed-mtf's advantage over sequent at equal H must be
            // < 2x.
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
            let mtf19_cost = run(&mut hashed_mtf(19));
            let seq19_cost = run(&mut SequentDemux::new(Multiplicative, 19));
            let seq100_cost = run(&mut SequentDemux::new(Multiplicative, 100));

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
            let mut demux = hashed_mtf(1);
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
}
