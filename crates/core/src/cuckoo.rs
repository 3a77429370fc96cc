//! A cache-line-bucketed cuckoo hash demultiplexer.
//!
//! The paper's chained structures bound the *expected* walk, but at
//! production flow counts (10⁶–10⁷ connections) chains grow with N/H and
//! the tail walk grows with them. Cuckoo hashing inverts the trade: every
//! key has exactly **two** candidate buckets, so a lookup touches at most
//! two cache lines no matter how large the table gets — the bounded-probe
//! property Cuckoo++-style connection trackers rely on. The costs move to
//! the insert path, where a full bucket displaces ("kicks") a resident
//! entry to its alternate bucket, and a failed bounded search for a
//! vacancy (an *eviction loop*) forces the table to grow.
//!
//! # Bucket layout
//!
//! [`CuckooDemux`] packs each 4-way bucket into one 64-byte cache line:
//! four 12-byte connection keys, four 8-bit tags, and an occupancy
//! bitmask. The tag is an independent byte of the key's hash, checked
//! before the full 12-byte compare — a lookup's `examined` count is the
//! number of **full key comparisons** it performs, i.e. the number of
//! occupied slots whose tag matched. Tag collisions among the ≤ 8
//! candidate slots are rare, so hits typically examine exactly 1 PCB and
//! misses usually examine 0, independent of table size. PCB handles live
//! in a parallel cold array touched only after a confirmed match, keeping
//! the probe path to the two key lines.
//!
//! # Alternate bucket and growth
//!
//! The alternate bucket is derived from the *tag*, not the full hash
//! (`alt = bucket ^ spread(tag)`), so a kick can relocate a resident
//! entry without rehashing its key — the displacement path never touches
//! the cold lane until the move is committed. Inserts use a bounded BFS
//! over displacement paths (shortest kick chain first); if the frontier
//! exhausts without finding a vacancy, that is an eviction loop: the
//! table doubles and rehashes. Growth is also triggered proactively above
//! 15/16 occupancy. Kicks, eviction loops, and per-insert kick-path
//! lengths surface through [`tcpdemux_telemetry`] counters.
//!
//! # Concurrent variant
//!
//! [`ConcurrentCuckooDemux`] keeps the same two-bucket invariant with
//! lock-free readers: each bucket carries a seqlock version word, readers
//! load the current generation and snapshot both candidate buckets, and
//! a table-wide displacement version validates misses (a kick writes the
//! destination copy before clearing the source, so an entry is never
//! *absent*, but a reader probing b1→b2 while an entry moves b2→b1 could
//! miss both copies — the version check detects the race and retries).
//! Writers serialize behind one table mutex; growth rehashes into a fresh
//! generation and publishes it with one store.
//!
//! Superseded generations are never freed or written again: they stay
//! allocated in a fixed array for the table's lifetime, so a reader that
//! loaded the generation index just before a growth probes a frozen,
//! complete copy of the table as it stood at publication — a result that
//! linearizes before the growth. Each generation doubles the last, so
//! all of them together occupy less than twice the live one.

use crate::stats::{AtomicLookupStats, LookupStats};
use crate::{Demux, LookupResult, PacketKind};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use tcpdemux_pcb::{ConnectionKey, PcbId};
use tcpdemux_telemetry::{CounterId, Recorder};

/// Slots per bucket. Four 12-byte keys + tags + occupancy fit one line.
const WAYS: usize = 4;
/// Starting bucket count (32 slots); doubles on growth.
const INITIAL_BUCKETS: usize = 8;
/// Bound on the BFS displacement frontier. 2 roots expanded 4-way three
/// levels deep stay inside this; exhausting it is the eviction-loop
/// signal that forces a grow.
const BFS_CAP: usize = 192;
/// Grow when occupancy would exceed 15/16 of capacity.
const OCCUPANCY_NUM: usize = 15;
const OCCUPANCY_DEN: usize = 16;

/// SplitMix64 finalizer-style mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// 64-bit hash of a connection key's three words. The low bits pick the
/// home bucket; the top byte is the tag. Shared with [`crate::front`],
/// whose fingerprint draws on a disjoint bit range of the same hash.
pub(crate) fn hash_words(words: [u32; 3]) -> u64 {
    let x = mix64((u64::from(words[0]) << 32) | u64::from(words[1]));
    mix64(x ^ u64::from(words[2]))
}

/// Home bucket and tag for a hash under `mask` (= buckets − 1).
fn home(h: u64, mask: usize) -> (usize, u8) {
    ((h as usize) & mask, (h >> 56) as u8)
}

/// The alternate bucket: `b ^ spread(tag)`. The spread multiplier mixes
/// the 8 tag bits across the index range; `| 1` keeps the xor delta
/// nonzero under any mask, so the two candidate buckets are always
/// distinct. An involution: `alt(alt(b)) == b`.
fn alt(b: usize, tag: u8, mask: usize) -> usize {
    b ^ (((usize::from(tag)).wrapping_mul(0x5bd1_e995) | 1) & mask)
}

/// One cache line: four key slots with their tags and an occupancy mask.
#[derive(Clone)]
#[repr(align(64))]
struct Bucket {
    keys: [[u32; 3]; WAYS],
    tags: [u8; WAYS],
    used: u8,
}

impl Bucket {
    fn empty() -> Self {
        Self {
            keys: [[0; 3]; WAYS],
            tags: [0; WAYS],
            used: 0,
        }
    }

    fn free_way(&self) -> Option<usize> {
        (0..WAYS).find(|w| self.used & (1 << w) == 0)
    }
}

/// One BFS frontier node: a candidate bucket plus the slot in its parent
/// bucket whose occupant leads here.
#[derive(Clone, Copy)]
struct Node {
    bucket: u32,
    parent: u32,
    way: u8,
}

const NO_PARENT: u32 = u32::MAX;

/// Insert-path counters for the cuckoo tier (kept separately from
/// [`LookupStats`], which covers the lookup side of every tier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CuckooStats {
    /// Entries displaced to their alternate bucket, including moves
    /// performed while rehashing into a grown table.
    pub kicks: u64,
    /// Inserts whose bounded displacement search found no vacancy.
    pub eviction_loops: u64,
    /// Times the table doubled and rehashed.
    pub grows: u64,
    /// Longest single-insert kick path seen.
    pub max_kick_path: u32,
}

/// The hot/cold storage: hot tag+key buckets, cold PCB-handle lane.
struct Table {
    buckets: Vec<Bucket>,
    /// `buckets.len() * WAYS` packed [`PcbId`] bits, read only after a
    /// confirmed key match.
    ids: Vec<u64>,
    mask: usize,
}

impl Table {
    fn with_buckets(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        Self {
            buckets: vec![Bucket::empty(); n],
            ids: vec![0; n * WAYS],
            mask: n - 1,
        }
    }

    fn capacity(&self) -> usize {
        self.buckets.len() * WAYS
    }

    fn set(&mut self, b: usize, w: usize, words: [u32; 3], tag: u8, idbits: u64) {
        let bucket = &mut self.buckets[b];
        bucket.keys[w] = words;
        bucket.tags[w] = tag;
        bucket.used |= 1 << w;
        self.ids[b * WAYS + w] = idbits;
    }

    fn clear(&mut self, b: usize, w: usize) {
        self.buckets[b].used &= !(1 << w);
    }

    /// Find the slot holding exactly `words`, if present.
    fn locate(&self, words: [u32; 3], tag: u8, b1: usize) -> Option<(usize, usize)> {
        for b in [b1, alt(b1, tag, self.mask)] {
            let bucket = &self.buckets[b];
            for w in 0..WAYS {
                if bucket.used & (1 << w) != 0 && bucket.tags[w] == tag && bucket.keys[w] == words {
                    return Some((b, w));
                }
            }
        }
        None
    }

    /// Probe both candidate buckets, counting full key compares.
    fn probe(&self, words: [u32; 3], h: u64) -> LookupResult {
        let (b1, tag) = home(h, self.mask);
        let mut examined = 0u32;
        for b in [b1, alt(b1, tag, self.mask)] {
            let bucket = &self.buckets[b];
            for w in 0..WAYS {
                if bucket.used & (1 << w) != 0 && bucket.tags[w] == tag {
                    examined += 1;
                    if bucket.keys[w] == words {
                        return LookupResult {
                            pcb: Some(PcbId::from_bits(self.ids[b * WAYS + w])),
                            examined,
                            cache_hit: false,
                        };
                    }
                }
            }
        }
        LookupResult::miss(examined)
    }

    /// Place a new entry, displacing residents along a shortest kick path
    /// if both candidate buckets are full. `Err` means the bounded search
    /// exhausted without a vacancy — an eviction loop.
    fn try_place(&mut self, words: [u32; 3], tag: u8, b1: usize, idbits: u64) -> Result<u32, ()> {
        if let Some(w) = self.buckets[b1].free_way() {
            self.set(b1, w, words, tag, idbits);
            return Ok(0);
        }
        let b2 = alt(b1, tag, self.mask);
        if let Some(w) = self.buckets[b2].free_way() {
            self.set(b2, w, words, tag, idbits);
            return Ok(0);
        }

        // BFS over displacement paths: each node is a bucket reachable by
        // kicking one resident of its parent; the first node with a free
        // slot gives the shortest kick chain.
        let mut queue: Vec<Node> = Vec::with_capacity(BFS_CAP);
        queue.push(Node {
            bucket: b1 as u32,
            parent: NO_PARENT,
            way: 0,
        });
        queue.push(Node {
            bucket: b2 as u32,
            parent: NO_PARENT,
            way: 0,
        });
        let mut qi = 0;
        while qi < queue.len() {
            let bucket = queue[qi].bucket as usize;
            if self.buckets[bucket].free_way().is_some() {
                if let Some(kicks) = self.apply_path(&queue, qi, words, tag, idbits) {
                    return Ok(kicks);
                }
                // Degenerate path (same slot twice); keep searching.
            }
            if queue.len() < BFS_CAP {
                let used = self.buckets[bucket].used;
                for w in 0..WAYS {
                    if used & (1 << w) == 0 {
                        continue;
                    }
                    let t = self.buckets[bucket].tags[w];
                    queue.push(Node {
                        bucket: alt(bucket, t, self.mask) as u32,
                        parent: qi as u32,
                        way: w as u8,
                    });
                    if queue.len() >= BFS_CAP {
                        break;
                    }
                }
            }
            qi += 1;
        }
        Err(())
    }

    /// Perform the kick chain ending at `queue[leaf]` (which has a free
    /// slot), leaf-first so every move lands in an already-free slot,
    /// then write the new entry into the freed root slot. Returns `None`
    /// without mutating if the path visits the same slot twice (the
    /// leaf-first order would read a slot it already overwrote).
    fn apply_path(
        &mut self,
        queue: &[Node],
        leaf: usize,
        words: [u32; 3],
        tag: u8,
        idbits: u64,
    ) -> Option<u32> {
        let free = self.buckets[queue[leaf].bucket as usize].free_way()?;
        // (bucket, way) source of each move, leaf-most first.
        let mut chain: Vec<(usize, usize)> = Vec::new();
        let mut cur = leaf;
        while queue[cur].parent != NO_PARENT {
            let parent = queue[cur].parent as usize;
            chain.push((queue[parent].bucket as usize, queue[cur].way as usize));
            cur = parent;
        }
        for i in 0..chain.len() {
            for j in (i + 1)..chain.len() {
                if chain[i] == chain[j] {
                    return None;
                }
            }
        }
        let mut dest = (queue[leaf].bucket as usize, free);
        let mut kicks = 0u32;
        for &(sb, sw) in &chain {
            let mwords = self.buckets[sb].keys[sw];
            let mtag = self.buckets[sb].tags[sw];
            let mid = self.ids[sb * WAYS + sw];
            debug_assert!(self.buckets[sb].used & (1 << sw) != 0);
            debug_assert_eq!(alt(sb, mtag, self.mask), dest.0);
            self.set(dest.0, dest.1, mwords, mtag, mid);
            self.clear(sb, sw);
            dest = (sb, sw);
            kicks += 1;
        }
        self.set(dest.0, dest.1, words, tag, idbits);
        Some(kicks)
    }

    /// Rehash every resident entry into a fresh table of `n` buckets.
    /// `None` if even the larger table hit an eviction loop (the caller
    /// retries with `2n`).
    fn rehash(&self, n: usize) -> Option<(Table, u64)> {
        let mut next = Table::with_buckets(n);
        let mut kicks = 0u64;
        for b in 0..self.buckets.len() {
            let bucket = &self.buckets[b];
            for w in 0..WAYS {
                if bucket.used & (1 << w) == 0 {
                    continue;
                }
                let words = bucket.keys[w];
                let h = hash_words(words);
                let (b1, tag) = home(h, next.mask);
                match next.try_place(words, tag, b1, self.ids[b * WAYS + w]) {
                    Ok(k) => kicks += u64::from(k),
                    Err(()) => return None,
                }
            }
        }
        Some((next, kicks))
    }
}

/// The bounded-probe cuckoo tier: at most two cache lines per lookup at
/// any table size. See the module docs for layout and growth policy.
pub struct CuckooDemux {
    table: Table,
    len: usize,
    stats: LookupStats,
    cstats: CuckooStats,
    recorder: Option<Recorder>,
}

impl Default for CuckooDemux {
    fn default() -> Self {
        Self::new()
    }
}

impl CuckooDemux {
    /// An empty table of [`INITIAL_BUCKETS`] buckets.
    pub fn new() -> Self {
        Self {
            table: Table::with_buckets(INITIAL_BUCKETS),
            len: 0,
            stats: LookupStats::new(),
            cstats: CuckooStats::default(),
            recorder: None,
        }
    }

    /// Route insert-path telemetry (kicks, eviction loops, kick-path
    /// histogram) to `recorder`.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Insert-path counters (kicks, eviction loops, grows).
    pub fn kick_stats(&self) -> CuckooStats {
        self.cstats
    }

    /// Current bucket count (a power of two; grows on demand).
    pub fn bucket_count(&self) -> usize {
        self.table.buckets.len()
    }

    fn grow(&mut self) {
        let mut n = self.table.buckets.len() * 2;
        loop {
            if let Some((next, kicks)) = self.table.rehash(n) {
                self.table = next;
                self.cstats.grows += 1;
                self.cstats.kicks += kicks;
                if let Some(r) = &self.recorder {
                    r.add(CounterId::CuckooKicks, kicks);
                }
                return;
            }
            n *= 2;
        }
    }
}

impl Demux for CuckooDemux {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        let words = key.as_words();
        let h = hash_words(words);
        let (b1, tag) = home(h, self.table.mask);
        if let Some((b, w)) = self.table.locate(words, tag, b1) {
            self.table.ids[b * WAYS + w] = id.to_bits();
            return;
        }
        if (self.len + 1) * OCCUPANCY_DEN > self.table.capacity() * OCCUPANCY_NUM {
            self.grow();
        }
        let kicks = loop {
            let (b1, tag) = home(h, self.table.mask);
            match self.table.try_place(words, tag, b1, id.to_bits()) {
                Ok(k) => break k,
                Err(()) => {
                    self.cstats.eviction_loops += 1;
                    if let Some(r) = &self.recorder {
                        r.cuckoo_insert(0, true);
                    }
                    self.grow();
                }
            }
        };
        self.len += 1;
        self.cstats.kicks += u64::from(kicks);
        self.cstats.max_kick_path = self.cstats.max_kick_path.max(kicks);
        if let Some(r) = &self.recorder {
            r.cuckoo_insert(kicks, false);
        }
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        let words = key.as_words();
        let (b1, tag) = home(hash_words(words), self.table.mask);
        let (b, w) = self.table.locate(words, tag, b1)?;
        let idbits = self.table.ids[b * WAYS + w];
        self.table.clear(b, w);
        self.len -= 1;
        Some(PcbId::from_bits(idbits))
    }

    fn lookup(&mut self, key: &ConnectionKey, _kind: PacketKind) -> LookupResult {
        let words = key.as_words();
        let r = self.table.probe(words, hash_words(words));
        self.stats.record(r.examined, r.pcb.is_some(), false);
        r
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> String {
        "cuckoo".to_string()
    }

    fn stats(&self) -> &LookupStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = LookupStats::new();
    }
}

// ---------------------------------------------------------------------
// Concurrent variant: seqlocked buckets in publish-once generations.
// ---------------------------------------------------------------------

/// Concurrent generations the table can grow through. Generation `g` has
/// `INITIAL_BUCKETS << g` buckets; the last is ~64 M slots.
const CONC_MAX_GENERATIONS: usize = 21;
/// Slot-word 0 bit marking the slot occupied (above tag bits 32..40).
const OCC: u64 = 1 << 40;

/// One slot as three atomic words: `w0` = occupied | tag | key word a,
/// `w1` = key words b·c, `w2` = packed [`PcbId`] bits.
struct ConcSlot {
    w0: AtomicU64,
    w1: AtomicU64,
    w2: AtomicU64,
}

impl ConcSlot {
    fn empty() -> Self {
        Self {
            w0: AtomicU64::new(0),
            w1: AtomicU64::new(0),
            w2: AtomicU64::new(0),
        }
    }
}

fn pack_w0(tag: u8, words: [u32; 3]) -> u64 {
    OCC | (u64::from(tag) << 32) | u64::from(words[0])
}

fn pack_w1(words: [u32; 3]) -> u64 {
    (u64::from(words[1]) << 32) | u64::from(words[2])
}

/// A 4-way bucket guarded by a seqlock version word: writers bump it odd
/// before mutating and even after; readers retry while odd or changed.
#[repr(align(64))]
struct ConcBucket {
    version: AtomicU64,
    slots: [ConcSlot; WAYS],
}

impl ConcBucket {
    fn empty() -> Self {
        Self {
            version: AtomicU64::new(0),
            slots: [
                ConcSlot::empty(),
                ConcSlot::empty(),
                ConcSlot::empty(),
                ConcSlot::empty(),
            ],
        }
    }

    /// Seqlock-consistent snapshot of all four slots.
    fn snapshot(&self) -> [[u64; 3]; WAYS] {
        loop {
            let v1 = self.version.load(SeqCst);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut snap = [[0u64; 3]; WAYS];
            for (w, slot) in self.slots.iter().enumerate() {
                snap[w] = [
                    slot.w0.load(SeqCst),
                    slot.w1.load(SeqCst),
                    slot.w2.load(SeqCst),
                ];
            }
            if self.version.load(SeqCst) == v1 {
                return snap;
            }
        }
    }

    /// Run `f` with the bucket's seqlock held odd. Only the table writer
    /// (serialized by the writer mutex) calls this.
    fn write<R>(&self, f: impl FnOnce(&Self) -> R) -> R {
        self.version.fetch_add(1, SeqCst);
        let r = f(self);
        self.version.fetch_add(1, SeqCst);
        r
    }
}

/// One published table size. Writers only ever touch the current
/// generation; a superseded one is frozen as it stood when its successor
/// was published.
struct Generation {
    buckets: Box<[ConcBucket]>,
    mask: usize,
}

impl Generation {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        Self {
            buckets: (0..n).map(|_| ConcBucket::empty()).collect(),
            mask: n - 1,
        }
    }

    /// Writer-side scan for the slot holding exactly `words`.
    fn locate(&self, words: [u32; 3], tag: u8, b1: usize) -> Option<(usize, usize)> {
        let (want0, want1) = (pack_w0(tag, words), pack_w1(words));
        for b in [b1, alt(b1, tag, self.mask)] {
            for (w, slot) in self.buckets[b].slots.iter().enumerate() {
                if slot.w0.load(SeqCst) == want0 && slot.w1.load(SeqCst) == want1 {
                    return Some((b, w));
                }
            }
        }
        None
    }

    fn free_way(&self, b: usize) -> Option<usize> {
        (0..WAYS).find(|&w| self.buckets[b].slots[w].w0.load(SeqCst) & OCC == 0)
    }

    fn set(&self, b: usize, w: usize, w0: u64, w1: u64, w2: u64) {
        self.buckets[b].write(|bucket| {
            bucket.slots[w].w1.store(w1, SeqCst);
            bucket.slots[w].w2.store(w2, SeqCst);
            bucket.slots[w].w0.store(w0, SeqCst);
        });
    }

    fn clear(&self, b: usize, w: usize) {
        self.buckets[b].write(|bucket| {
            bucket.slots[w].w0.store(0, SeqCst);
        });
    }

    /// The concurrent twin of [`Table::try_place`]. `kick_seq`, when
    /// given (the generation is published), is held odd around the move
    /// sequence so readers can detect in-flight displacements. Each move
    /// writes the destination copy before clearing the source, so no
    /// entry is ever transiently absent.
    fn try_place(
        &self,
        words: [u32; 3],
        tag: u8,
        b1: usize,
        idbits: u64,
        kick_seq: Option<&AtomicU64>,
    ) -> Result<u32, ()> {
        let (w0, w1) = (pack_w0(tag, words), pack_w1(words));
        if let Some(w) = self.free_way(b1) {
            self.set(b1, w, w0, w1, idbits);
            return Ok(0);
        }
        let b2 = alt(b1, tag, self.mask);
        if let Some(w) = self.free_way(b2) {
            self.set(b2, w, w0, w1, idbits);
            return Ok(0);
        }

        let mut queue: Vec<Node> = Vec::with_capacity(BFS_CAP);
        queue.push(Node {
            bucket: b1 as u32,
            parent: NO_PARENT,
            way: 0,
        });
        queue.push(Node {
            bucket: b2 as u32,
            parent: NO_PARENT,
            way: 0,
        });
        let mut qi = 0;
        while qi < queue.len() {
            let bucket = queue[qi].bucket as usize;
            if self.free_way(bucket).is_some() {
                if let Some(kicks) = self.apply_path(&queue, qi, w0, w1, idbits, kick_seq) {
                    return Ok(kicks);
                }
            }
            if queue.len() < BFS_CAP {
                for w in 0..WAYS {
                    let s0 = self.buckets[bucket].slots[w].w0.load(SeqCst);
                    if s0 & OCC == 0 {
                        continue;
                    }
                    let t = (s0 >> 32) as u8;
                    queue.push(Node {
                        bucket: alt(bucket, t, self.mask) as u32,
                        parent: qi as u32,
                        way: w as u8,
                    });
                    if queue.len() >= BFS_CAP {
                        break;
                    }
                }
            }
            qi += 1;
        }
        Err(())
    }

    fn apply_path(
        &self,
        queue: &[Node],
        leaf: usize,
        w0: u64,
        w1: u64,
        idbits: u64,
        kick_seq: Option<&AtomicU64>,
    ) -> Option<u32> {
        let free = self.free_way(queue[leaf].bucket as usize)?;
        let mut chain: Vec<(usize, usize)> = Vec::new();
        let mut cur = leaf;
        while queue[cur].parent != NO_PARENT {
            let parent = queue[cur].parent as usize;
            chain.push((queue[parent].bucket as usize, queue[cur].way as usize));
            cur = parent;
        }
        for i in 0..chain.len() {
            for j in (i + 1)..chain.len() {
                if chain[i] == chain[j] {
                    return None;
                }
            }
        }
        if let Some(seq) = kick_seq {
            seq.fetch_add(1, SeqCst);
        }
        let mut dest = (queue[leaf].bucket as usize, free);
        let mut kicks = 0u32;
        for &(sb, sw) in &chain {
            let slot = &self.buckets[sb].slots[sw];
            let (m0, m1, m2) = (
                slot.w0.load(SeqCst),
                slot.w1.load(SeqCst),
                slot.w2.load(SeqCst),
            );
            debug_assert!(m0 & OCC != 0);
            self.set(dest.0, dest.1, m0, m1, m2);
            self.clear(sb, sw);
            dest = (sb, sw);
            kicks += 1;
        }
        self.set(dest.0, dest.1, w0, w1, idbits);
        if let Some(seq) = kick_seq {
            seq.fetch_add(1, SeqCst);
        }
        Some(kicks)
    }

    /// Probe a snapshot pair for `words`, counting full key compares.
    fn probe(&self, words: [u32; 3], h: u64) -> LookupResult {
        let (b1, tag) = home(h, self.mask);
        let (want0, want1) = (pack_w0(tag, words), pack_w1(words));
        let meta = want0 >> 32;
        let mut examined = 0u32;
        for b in [b1, alt(b1, tag, self.mask)] {
            let snap = self.buckets[b].snapshot();
            for slot in &snap {
                if slot[0] >> 32 == meta {
                    examined += 1;
                    if slot[0] == want0 && slot[1] == want1 {
                        return LookupResult {
                            pcb: Some(PcbId::from_bits(slot[2])),
                            examined,
                            cache_hit: false,
                        };
                    }
                }
            }
        }
        LookupResult::miss(examined)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct WriterState {
    len: usize,
    cstats: CuckooStats,
}

/// The concurrent cuckoo tier: lock-free bounded-probe readers, writers
/// serialized behind one mutex. See the module docs for the safety
/// argument.
pub struct ConcurrentCuckooDemux {
    generations: Box<[OnceLock<Generation>]>,
    current: AtomicUsize,
    /// Held odd while a displacement sequence is in flight; readers
    /// validate misses against it (a hit needs no validation — found
    /// entries are genuinely present).
    kick_seq: AtomicU64,
    writer: Mutex<WriterState>,
    stats: AtomicLookupStats,
}

impl Default for ConcurrentCuckooDemux {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentCuckooDemux {
    /// An empty concurrent table of [`INITIAL_BUCKETS`] buckets.
    pub fn new() -> Self {
        let generations: Box<[OnceLock<Generation>]> =
            (0..CONC_MAX_GENERATIONS).map(|_| OnceLock::new()).collect();
        generations[0]
            .set(Generation::new(INITIAL_BUCKETS))
            .unwrap_or_else(|_| unreachable!("fresh slot"));
        Self {
            generations,
            current: AtomicUsize::new(0),
            kick_seq: AtomicU64::new(0),
            writer: Mutex::new(WriterState::default()),
            stats: AtomicLookupStats::new(),
        }
    }

    /// Insert-path counters (kicks, eviction loops, grows).
    pub fn kick_stats(&self) -> CuckooStats {
        lock(&self.writer).cstats
    }

    /// Index of the published generation (starts at 0, grows by ≥ 1 per
    /// rehash).
    pub fn generation(&self) -> usize {
        self.current.load(SeqCst)
    }

    fn gen_ref(&self, g: usize) -> &Generation {
        self.generations[g].get().expect("generation published")
    }

    /// Grow under the writer lock: rehash into a fresh generation and
    /// publish it.
    fn grow_locked(&self, st: &mut WriterState, g: usize) -> usize {
        let mut target = g + 1;
        'size: loop {
            assert!(
                target < CONC_MAX_GENERATIONS,
                "concurrent cuckoo table exceeded maximum generation"
            );
            let next = Generation::new(INITIAL_BUCKETS << target);
            let old = self.gen_ref(g);
            for b in 0..old.buckets.len() {
                for w in 0..WAYS {
                    let slot = &old.buckets[b].slots[w];
                    let s0 = slot.w0.load(SeqCst);
                    if s0 & OCC == 0 {
                        continue;
                    }
                    let words = [
                        s0 as u32,
                        (slot.w1.load(SeqCst) >> 32) as u32,
                        slot.w1.load(SeqCst) as u32,
                    ];
                    let h = hash_words(words);
                    let (b1, tag) = home(h, next.mask);
                    // Unpublished target: no readers, no kick_seq needed.
                    match next.try_place(words, tag, b1, slot.w2.load(SeqCst), None) {
                        Ok(k) => st.cstats.kicks += u64::from(k),
                        Err(()) => {
                            target += 1;
                            continue 'size;
                        }
                    }
                }
            }
            self.generations[target]
                .set(next)
                .unwrap_or_else(|_| unreachable!("generation slot unused"));
            self.current.store(target, SeqCst);
            st.cstats.grows += 1;
            return target;
        }
    }

    /// One linearizable probe. A miss is only returned from a window
    /// with no displacement in flight; see `kick_seq`. `current` needs no
    /// re-check: a generation superseded mid-probe is frozen and whole.
    fn probe_validated(&self, words: [u32; 3], h: u64) -> LookupResult {
        loop {
            let kv = self.kick_seq.load(SeqCst);
            if kv & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let generation = self.gen_ref(self.current.load(SeqCst));
            let r = generation.probe(words, h);
            if r.pcb.is_some() || self.kick_seq.load(SeqCst) == kv {
                return r;
            }
        }
    }
}

impl crate::concurrent::ConcurrentDemux for ConcurrentCuckooDemux {
    fn insert(&self, key: ConnectionKey, id: PcbId) {
        let words = key.as_words();
        let h = hash_words(words);
        let mut st = lock(&self.writer);
        let mut g = self.current.load(SeqCst);
        {
            let generation = self.gen_ref(g);
            let (b1, tag) = home(h, generation.mask);
            if let Some((b, w)) = generation.locate(words, tag, b1) {
                generation.buckets[b].write(|bucket| {
                    bucket.slots[w].w2.store(id.to_bits(), SeqCst);
                });
                return;
            }
            let capacity = generation.buckets.len() * WAYS;
            if (st.len + 1) * OCCUPANCY_DEN > capacity * OCCUPANCY_NUM {
                g = self.grow_locked(&mut st, g);
            }
        }
        let kicks = loop {
            let generation = self.gen_ref(g);
            let (b1, tag) = home(h, generation.mask);
            match generation.try_place(words, tag, b1, id.to_bits(), Some(&self.kick_seq)) {
                Ok(k) => break k,
                Err(()) => {
                    st.cstats.eviction_loops += 1;
                    g = self.grow_locked(&mut st, g);
                }
            }
        };
        st.len += 1;
        st.cstats.kicks += u64::from(kicks);
        st.cstats.max_kick_path = st.cstats.max_kick_path.max(kicks);
    }

    fn remove(&self, key: &ConnectionKey) -> Option<PcbId> {
        let words = key.as_words();
        let h = hash_words(words);
        let mut st = lock(&self.writer);
        let generation = self.gen_ref(self.current.load(SeqCst));
        let (b1, tag) = home(h, generation.mask);
        generation.locate(words, tag, b1).map(|(b, w)| {
            let idbits = generation.buckets[b].slots[w].w2.load(SeqCst);
            generation.clear(b, w);
            st.len -= 1;
            PcbId::from_bits(idbits)
        })
    }

    fn lookup(&self, key: &ConnectionKey, _kind: PacketKind) -> LookupResult {
        let words = key.as_words();
        let r = self.probe_validated(words, hash_words(words));
        self.stats.record(r.examined, r.pcb.is_some(), false);
        r
    }

    fn len(&self) -> usize {
        lock(&self.writer).len
    }

    fn name(&self) -> String {
        "cuckoo-conc".to_string()
    }

    fn stats_snapshot(&self) -> LookupStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::ConcurrentDemux;
    use crate::test_util;
    use std::collections::BTreeMap;
    use tcpdemux_pcb::{Pcb, PcbArena};
    use tcpdemux_telemetry::HistogramId;
    use tcpdemux_testprop::{check_cases, TestRng};

    #[test]
    fn satisfies_the_demux_contract() {
        test_util::check_contract(Box::new(CuckooDemux::new()));
    }

    #[test]
    fn alt_bucket_is_a_distinct_involution() {
        for shift in 1..16 {
            let mask = (1usize << shift) - 1;
            for tag in 0..=u8::MAX {
                for b in [0usize, 1, mask / 2, mask] {
                    let a = alt(b, tag, mask);
                    assert_ne!(a, b, "mask {mask:#x} tag {tag}");
                    assert_eq!(alt(a, tag, mask), b);
                    assert!(a <= mask);
                }
            }
        }
    }

    #[test]
    fn grows_past_initial_capacity_and_keeps_every_key() {
        let mut demux = CuckooDemux::new();
        let mut arena = PcbArena::new();
        let n = 10_000u32;
        let ids = test_util::populate(&mut demux, &mut arena, n);
        assert!(
            demux.bucket_count() > INITIAL_BUCKETS,
            "10k inserts must force growth"
        );
        assert!(demux.kick_stats().grows > 0);
        for (i, &id) in ids.iter().enumerate() {
            let r = demux.lookup(&test_util::key(i as u32), PacketKind::Data);
            assert_eq!(r.pcb, Some(id), "key {i} lost across growth");
            assert!(r.examined >= 1);
            assert!(
                r.examined <= 2 * WAYS as u32,
                "probe cost must stay bucket-bounded, got {}",
                r.examined
            );
        }
    }

    #[test]
    fn kicks_happen_at_high_occupancy_and_reach_telemetry() {
        let recorder = Recorder::new();
        let mut demux = CuckooDemux::new().with_recorder(recorder.clone());
        let mut arena = PcbArena::new();
        test_util::populate(&mut demux, &mut arena, 50_000);
        let stats = demux.kick_stats();
        assert!(stats.kicks > 0, "50k inserts with no kicks is implausible");
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counter(CounterId::CuckooKicks),
            stats.kicks,
            "telemetry must mirror the internal kick count"
        );
        // One histogram sample per insert; kicks made by a growth's
        // rehash are counted but belong to no one insert.
        let per_insert = snap.histogram(HistogramId::CuckooInsertKicks);
        assert_eq!(per_insert.count(), 50_000);
        assert!(per_insert.sum() > 0 && per_insert.sum() <= stats.kicks);
    }

    #[test]
    fn churn_against_btreemap_oracle() {
        check_cases("cuckoo_churn_oracle", 8, |rng: &mut TestRng| {
            let mut demux = CuckooDemux::new();
            let mut arena = PcbArena::new();
            let mut oracle: BTreeMap<u32, PcbId> = BTreeMap::new();
            for _ in 0..4_000 {
                let n = rng.u32_in(0, 600);
                let k = test_util::key(n);
                match rng.below(3) {
                    0 => {
                        let id = arena.insert(Pcb::new(k));
                        demux.insert(k, id);
                        oracle.insert(n, id);
                    }
                    1 => {
                        assert_eq!(demux.remove(&k), oracle.remove(&n));
                    }
                    _ => {
                        let r = demux.lookup(&k, PacketKind::Data);
                        assert_eq!(r.pcb, oracle.get(&n).copied());
                    }
                }
                assert_eq!(demux.len(), oracle.len());
            }
        });
    }

    #[test]
    fn concurrent_variant_matches_sequential_semantics() {
        let demux = ConcurrentCuckooDemux::new();
        let mut arena = PcbArena::new();
        let mut ids = Vec::new();
        for i in 0..5_000u32 {
            let k = test_util::key(i);
            let id = arena.insert(Pcb::new(k));
            demux.insert(k, id);
            ids.push(id);
        }
        assert_eq!(demux.len(), 5_000);
        assert!(demux.generation() > 0, "5k inserts must grow the table");
        for (i, &id) in ids.iter().enumerate() {
            let r = demux.lookup(&test_util::key(i as u32), PacketKind::Data);
            assert_eq!(r.pcb, Some(id));
            assert!(r.examined >= 1 && r.examined <= 2 * WAYS as u32);
        }
        assert_eq!(
            demux.lookup(&test_util::key(99_999), PacketKind::Data).pcb,
            None
        );
        assert_eq!(demux.remove(&test_util::key(7)), Some(ids[7]));
        assert_eq!(demux.remove(&test_util::key(7)), None);
        assert_eq!(demux.len(), 4_999);
        let snap = demux.stats_snapshot();
        assert_eq!(snap.lookups, 5_001);
    }

    #[test]
    fn concurrent_readers_never_lose_stable_keys_across_growth() {
        // Pinned keys are inserted once and never removed; churn keys are
        // inserted/removed continuously, forcing kicks and growth. Any
        // false miss (displacement race, use-after-wipe) fails a reader.
        use std::sync::atomic::AtomicBool;
        let demux = ConcurrentCuckooDemux::new();
        let mut arena = PcbArena::new();
        let stable: Vec<(u32, PcbId)> = (0..512u32)
            .map(|i| {
                let k = test_util::key(i);
                let id = arena.insert(Pcb::new(k));
                demux.insert(k, id);
                (i, id)
            })
            .collect();
        let churn_ids: Vec<PcbId> = (0..4_096u32)
            .map(|i| arena.insert(Pcb::new(test_util::key(10_000 + i))))
            .collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for reader in 0..3 {
                let demux = &demux;
                let stable = &stable;
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng = TestRng::from_seed(0xC0C0 + reader);
                    let mut hits = 0u64;
                    while !stop.load(SeqCst) {
                        let &(n, id) = rng.choose(stable);
                        let r = demux.lookup(&test_util::key(n), PacketKind::Data);
                        assert_eq!(r.pcb, Some(id), "stable key {n} lost");
                        hits += 1;
                    }
                    assert!(hits > 0);
                });
            }
            let mut rng = TestRng::from_seed(0xD00D);
            for round in 0..20 {
                for (i, &id) in churn_ids.iter().enumerate() {
                    demux.insert(test_util::key(10_000 + i as u32), id);
                }
                for i in 0..churn_ids.len() {
                    if rng.chance(0.75) {
                        demux.remove(&test_util::key(10_000 + i as u32));
                    }
                }
                for i in 0..churn_ids.len() {
                    demux.remove(&test_util::key(10_000 + i as u32));
                }
                assert_eq!(demux.len(), stable.len(), "round {round}");
            }
            stop.store(true, SeqCst);
        });
        assert!(demux.generation() > 0);
        assert!(demux.kick_stats().kicks > 0);
    }
}
