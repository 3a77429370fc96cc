//! The Sequent hashed-chain demultiplexer with a lock-free read path.
//!
//! [`EpochDemux`] keeps the paper's structure — `H` hash chains, each
//! with a one-entry cache — but lets readers proceed with **no lock at
//! all**: a lookup pins the [`crate::epoch`] runtime, probes the chain's
//! cache word, and walks atomic next-indices. Writers serialize per
//! chain through a single compare-and-swap on the chain head (no
//! spinlock: a lost race is detected by the CAS and retried), and every
//! node they unlink is retired through the epoch runtime so a concurrent
//! reader can never observe recycled storage.
//!
//! # Copy-on-write chains
//!
//! The whole design rests on one invariant: **a published node is
//! immutable** (key, id, and next-index never change until the node is
//! retired and its grace period elapses). Insert-at-head links a fresh
//! node to the old head and publishes it with one CAS. Removal and
//! replacement cannot mutate a predecessor's next-index (readers may be
//! parked on it), so the writer instead *copies the prefix*: fresh nodes
//! for everything before the target, the last one linked to the target's
//! successor, published with the same single head CAS. The target and
//! the stale prefix are then retired. Readers therefore always see a
//! fully consistent chain — whichever head they loaded.
//!
//! Any interleaved writer changes the head, so the CAS doubles as the
//! conflict detector; losers return their unpublished copies to the free
//! list and retry. Node storage is an append-only segment arena of
//! atomic fields (index-based, no pointers, no `unsafe`), recycled
//! through a free list only after the epoch grace period; reclaimed
//! nodes are wiped to poison values first, which turns any
//! would-be use-after-retire into a visible key/id mismatch (the stress
//! test leans on this).
//!
//! # The cache word
//!
//! Each chain's one-entry cache is an `AtomicU64` packing
//! `(version << 32) | node_index`. Readers probe the named node through
//! a per-node seqlock (consistent snapshot or ignore), and on a
//! successful walk try one `compare_exchange` from the value they
//! probed — version unchanged — to cache the found node. Writers bump
//! the version (and clear the index) whenever they unlink anything from
//! the chain. The version bump is what makes the stale-install race
//! benign: a reader can only install a node it found in a chain snapshot
//! taken *after* its probe, so if its CAS succeeds, no unlink of that
//! node's chain happened in between — the cached index is live at
//! install time. Conversely, an index can go stale *after* caching (the
//! writer clears it, but a pinned reader may still probe the old word);
//! the seqlock plus poison wipe make that either a correct answer for
//! whatever key now legitimately occupies the node, or a mismatch that
//! falls back to the walk.
//!
//! Memory ordering is deliberately uniform: every access that the safety
//! argument in [`crate::epoch`] or the seqlock proof relies on is
//! `SeqCst` (loads cost nothing extra on x86; the writer-side RMWs are
//! off the read path's hot case), and only statistics use `Relaxed`.

use crate::concurrent::ConcurrentDemux;
use crate::epoch::{EpochRuntime, ReclamationStats};
use crate::stats::{AtomicLookupStats, LookupStats};
use crate::{LookupResult, PacketKind};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use tcpdemux_hash::KeyHasher;
use tcpdemux_pcb::{ConnectionKey, PcbId};
use tcpdemux_telemetry::Recorder;

/// "No node": chain terminator and empty cache index.
const NIL: u32 = u32::MAX;
/// Nodes per arena segment (power of two).
const SEG_BITS: u32 = 9;
const SEG_LEN: usize = 1 << SEG_BITS;
/// Segment count cap: 128 × 512 = 65,536 nodes, far above the paper's
/// 2,000-connection scale and enough for any in-tree experiment.
const MAX_SEGMENTS: usize = 128;
/// Key words of a wiped node. A poisoned node can only "match" the
/// all-ones key, and even then the poisoned id rejects it.
const POISON_WORD: u32 = u32::MAX;
/// Id bits of a wiped node; never returned from a lookup.
const POISON_ID: u64 = u64::MAX;
/// Reclamation work bounded per writer operation: at most this many
/// tokens are handed back per insert/remove, keeping writer latency flat
/// while guaranteeing the deferred list drains as fast as it grows.
const DRAIN_BUDGET: usize = 64;
/// Nodes per per-chain allocation block (divides `SEG_LEN`, so a block
/// never straddles segments). Fresh indices are carved per chain in
/// blocks so one chain's nodes cluster into contiguous cache-line runs —
/// the lookup walk is memory traffic (the paper's whole figure of
/// merit), and an arena interleaving all chains would cost a cache line
/// per examined node.
const BLOCK: usize = 8;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One chain node: three key words, packed [`PcbId`] bits, the next
/// index, and a seqlock version for the cache-probe path. All fields are
/// atomics because readers examine nodes with no lock held; a *published*
/// node's fields never change (copy-on-write), so the atomics only
/// mediate publication, wiping, and reuse.
struct Node {
    /// Seqlock: odd while a writer (re)initializes or wipes the node.
    ver: AtomicU32,
    w0: AtomicU32,
    w1: AtomicU32,
    w2: AtomicU32,
    id: AtomicU64,
    next: AtomicU32,
}

impl Node {
    fn vacant() -> Self {
        Self {
            ver: AtomicU32::new(0),
            w0: AtomicU32::new(POISON_WORD),
            w1: AtomicU32::new(POISON_WORD),
            w2: AtomicU32::new(POISON_WORD),
            id: AtomicU64::new(POISON_ID),
            next: AtomicU32::new(NIL),
        }
    }
}

/// One chain's node allocator: indices recycled from this chain (their
/// grace period elapsed) plus the unused tail of the chain's current
/// fresh block. Keeping allocation per-chain is a locality decision, not
/// a correctness one — see [`BLOCK`].
struct ChainAlloc {
    free: Vec<u32>,
    cursor: u32,
    limit: u32,
}

/// The Sequent hashed-chain demultiplexer with epoch-protected lock-free
/// lookups. See the [module docs](self) for the design.
pub struct EpochDemux<H> {
    hasher: H,
    runtime: EpochRuntime,
    heads: Box<[AtomicU32]>,
    /// Per-chain `(version << 32) | node_index` cache words.
    caches: Box<[AtomicU64]>,
    segments: Box<[OnceLock<Box<[Node]>>]>,
    /// Bump cursor for never-used [`BLOCK`]s of node indices.
    next_block: AtomicU32,
    /// Per-chain allocators (recycled indices return to the chain that
    /// retired them, so chains stay clustered under churn).
    alloc: Box<[Mutex<ChainAlloc>]>,
    len: AtomicUsize,
    stats: AtomicLookupStats,
    recorder: Option<Recorder>,
}

impl<H: KeyHasher> EpochDemux<H> {
    /// Create with `chains` hash chains (must be nonzero).
    pub fn new(hasher: H, chains: usize) -> Self {
        assert!(chains > 0, "chain count must be nonzero");
        // Retire tokens pack `(chain << 32) | node_index`.
        assert!(
            chains <= u32::MAX as usize,
            "chain count exceeds token width"
        );
        Self {
            hasher,
            runtime: EpochRuntime::new(),
            heads: (0..chains).map(|_| AtomicU32::new(NIL)).collect(),
            caches: (0..chains)
                .map(|_| AtomicU64::new(u64::from(NIL)))
                .collect(),
            segments: (0..MAX_SEGMENTS).map(|_| OnceLock::new()).collect(),
            next_block: AtomicU32::new(0),
            alloc: (0..chains)
                .map(|_| {
                    Mutex::new(ChainAlloc {
                        free: Vec::new(),
                        cursor: 0,
                        limit: 0,
                    })
                })
                .collect(),
            len: AtomicUsize::new(0),
            stats: AtomicLookupStats::new(),
            recorder: None,
        }
    }

    /// Attach a telemetry recorder; writer operations will record
    /// reclamation counters (`epoch_retired` / `epoch_reclaimed` /
    /// `epoch_advances`) and sample the deferred-list depth into the
    /// `epoch_deferred` histogram. The lock-free read path never touches
    /// the recorder.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Number of hash chains.
    pub fn chain_count(&self) -> usize {
        self.heads.len()
    }

    /// Reclamation accounting of the embedded epoch runtime.
    pub fn reclamation_stats(&self) -> ReclamationStats {
        self.runtime.stats()
    }

    /// Advance and drain the epoch runtime until every retired node has
    /// been recycled or a pinned reader blocks progress. Returns the
    /// number of nodes recycled. Quiescent callers (tests, teardown) get
    /// the full backlog.
    pub fn flush_reclamation(&self) -> usize {
        self.runtime.flush(|token| self.recycle_token(token))
    }

    fn bucket(&self, key: &ConnectionKey) -> usize {
        self.hasher.bucket(key, self.heads.len())
    }

    fn node(&self, idx: u32) -> &Node {
        let seg = (idx >> SEG_BITS) as usize;
        let off = (idx as usize) & (SEG_LEN - 1);
        &self.segments[seg].get().expect("published node's segment")[off]
    }

    /// Allocate a node index for `chain`: recycled from this chain if
    /// available, else carved from the chain's current fresh block
    /// (claiming a new [`BLOCK`] — and initializing its segment — when
    /// the block is spent).
    fn alloc_node(&self, chain: usize) -> u32 {
        let mut a = lock(&self.alloc[chain]);
        if let Some(idx) = a.free.pop() {
            return idx;
        }
        if a.cursor == a.limit {
            let block = self.next_block.fetch_add(1, Ordering::Relaxed) as usize;
            let start = block * BLOCK;
            assert!(
                start + BLOCK <= SEG_LEN * MAX_SEGMENTS,
                "EpochDemux node arena exhausted ({} nodes)",
                SEG_LEN * MAX_SEGMENTS
            );
            self.segments[start >> SEG_BITS].get_or_init(|| {
                (0..SEG_LEN)
                    .map(|_| Node::vacant())
                    .collect::<Vec<_>>()
                    .into_boxed_slice()
            });
            a.cursor = start as u32;
            a.limit = (start + BLOCK) as u32;
        }
        let idx = a.cursor;
        a.cursor += 1;
        idx
    }

    /// Initialize an owned (unpublished) node under its seqlock.
    fn write_node(&self, idx: u32, words: [u32; 3], id_bits: u64, next: u32) {
        let n = self.node(idx);
        let v = n.ver.fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(v & 1, 0, "node written while already mid-write");
        n.next.store(next, Ordering::SeqCst);
        n.id.store(id_bits, Ordering::SeqCst);
        n.w2.store(words[2], Ordering::SeqCst);
        n.w1.store(words[1], Ordering::SeqCst);
        n.w0.store(words[0], Ordering::SeqCst);
        n.ver.fetch_add(1, Ordering::SeqCst);
    }

    /// Wipe a node whose grace period elapsed and hand its index back to
    /// the owning chain's free list (the token packs `(chain, index)`).
    /// The poison values turn any residual stale probe into a mismatch.
    fn recycle_token(&self, token: u64) {
        let chain = (token >> 32) as usize;
        let idx = token as u32;
        let n = self.node(idx);
        let v = n.ver.fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(v & 1, 0, "node wiped while mid-write");
        n.w0.store(POISON_WORD, Ordering::SeqCst);
        n.w1.store(POISON_WORD, Ordering::SeqCst);
        n.w2.store(POISON_WORD, Ordering::SeqCst);
        n.id.store(POISON_ID, Ordering::SeqCst);
        n.next.store(NIL, Ordering::SeqCst);
        n.ver.fetch_add(1, Ordering::SeqCst);
        lock(&self.alloc[chain]).free.push(idx);
    }

    /// Return a node that was never published (lost CAS race) straight to
    /// the chain's free list — no grace period needed, nobody saw the
    /// index... except a reader holding an *ancient* cached copy of the
    /// index, for whom the node's current contents are a key/id pair
    /// whose insert is committed-or-in-flight; returning them is
    /// linearizable, so no wipe is required here either.
    fn recycle_unpublished(&self, chain: usize, idx: u32) {
        lock(&self.alloc[chain]).free.push(idx);
    }

    /// Key words of a node reachable from a pinned chain snapshot. Such
    /// nodes are immutable until retired, and retirement is blocked by
    /// the caller's guard, so plain loads are consistent.
    fn words_at(&self, idx: u32) -> [u32; 3] {
        let n = self.node(idx);
        [
            n.w0.load(Ordering::SeqCst),
            n.w1.load(Ordering::SeqCst),
            n.w2.load(Ordering::SeqCst),
        ]
    }

    fn id_bits_at(&self, idx: u32) -> u64 {
        self.node(idx).id.load(Ordering::SeqCst)
    }

    fn next_at(&self, idx: u32) -> u32 {
        self.node(idx).next.load(Ordering::SeqCst)
    }

    /// Seqlock read of a node named by a (possibly stale) cache word:
    /// either a consistent `(words, id_bits)` snapshot or `None`.
    fn probe_node(&self, idx: u32) -> Option<([u32; 3], u64)> {
        let n = self.node(idx);
        let v1 = n.ver.load(Ordering::SeqCst);
        if v1 & 1 == 1 {
            return None;
        }
        let words = [
            n.w0.load(Ordering::SeqCst),
            n.w1.load(Ordering::SeqCst),
            n.w2.load(Ordering::SeqCst),
        ];
        let id_bits = n.id.load(Ordering::SeqCst);
        let v2 = n.ver.load(Ordering::SeqCst);
        if v1 != v2 || id_bits == POISON_ID {
            return None;
        }
        Some((words, id_bits))
    }

    /// Bump a chain's cache version and clear its index. Called by any
    /// writer that unlinked a node from the chain; the strict +1 CAS loop
    /// (rather than a blind store) guarantees every unlink is a *distinct*
    /// version, which is what invalidates readers' in-flight installs.
    fn bump_cache(&self, chain: usize) {
        let cache = &self.caches[chain];
        loop {
            let cur = cache.load(Ordering::SeqCst);
            let next = ((cur >> 32).wrapping_add(1) << 32) | u64::from(NIL);
            if cache
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Post-publication bookkeeping for one writer operation: retire the
    /// unlinked nodes, opportunistically advance the epoch, drain a
    /// bounded batch of expired garbage, and record telemetry.
    fn after_write(&self, chain: usize, unlinked: &[u32]) {
        for &idx in unlinked {
            self.runtime.retire(((chain as u64) << 32) | u64::from(idx));
        }
        let advanced = self.runtime.try_advance();
        let freed = self
            .runtime
            .drain(DRAIN_BUDGET, |token| self.recycle_token(token));
        if let Some(recorder) = &self.recorder {
            let deferred = self.runtime.deferred();
            recorder.epoch_reclamation(
                unlinked.len() as u64,
                freed as u64,
                u64::from(advanced),
                u32::try_from(deferred).unwrap_or(u32::MAX),
            );
        }
    }

    /// Walk the chain snapshot rooted at `head` for `words`, returning
    /// `(id_bits, node_index, 1-based position)` and the number of nodes
    /// examined.
    fn walk(&self, head: u32, words: [u32; 3]) -> (Option<(u64, u32, u32)>, u32) {
        let mut cur = head;
        let mut examined = 0u32;
        while cur != NIL {
            examined += 1;
            // One node dereference per step, short-circuiting on the
            // first mismatched word: the walk is the hot path of every
            // lookup, and the segment indirection is the per-node cost.
            let n = self.node(cur);
            if n.w0.load(Ordering::SeqCst) == words[0]
                && n.w1.load(Ordering::SeqCst) == words[1]
                && n.w2.load(Ordering::SeqCst) == words[2]
            {
                let id_bits = n.id.load(Ordering::SeqCst);
                debug_assert_ne!(id_bits, POISON_ID, "reachable node is poisoned");
                return (Some((id_bits, cur, examined)), examined);
            }
            cur = n.next.load(Ordering::SeqCst);
            // One-ahead prefetch: the successor's cache line starts
            // loading while this iteration's word compares retire.
            if cur != NIL {
                crate::prefetch::prefetch_read(self.node(cur));
            }
        }
        (None, examined)
    }

    /// Find `words` in the snapshot at `head`, as `(prefix nodes before
    /// the target, target)` — the shape the copy-on-write paths need.
    fn find_with_path(&self, head: u32, words: [u32; 3], path: &mut Vec<u32>) -> Option<u32> {
        path.clear();
        let mut cur = head;
        while cur != NIL {
            let n = self.node(cur);
            if n.w0.load(Ordering::SeqCst) == words[0]
                && n.w1.load(Ordering::SeqCst) == words[1]
                && n.w2.load(Ordering::SeqCst) == words[2]
            {
                return Some(cur);
            }
            path.push(cur);
            cur = n.next.load(Ordering::SeqCst);
        }
        None
    }

    /// Build the copy-on-write replacement for `path ++ [target]`:
    /// `replacement` stands in for the target (linked to the target's
    /// successor) and fresh copies of the path precede it. Returns the
    /// new head, recording every allocated node in `copies` so a lost
    /// CAS can recycle them.
    fn build_cow(
        &self,
        chain: usize,
        path: &[u32],
        linked_to: u32,
        replacement: Option<([u32; 3], u64)>,
        copies: &mut Vec<u32>,
    ) -> u32 {
        copies.clear();
        let mut link = linked_to;
        if let Some((words, id_bits)) = replacement {
            let idx = self.alloc_node(chain);
            self.write_node(idx, words, id_bits, link);
            copies.push(idx);
            link = idx;
        }
        for &old in path.iter().rev() {
            let idx = self.alloc_node(chain);
            self.write_node(idx, self.words_at(old), self.id_bits_at(old), link);
            copies.push(idx);
            link = idx;
        }
        link
    }
}

impl<H: KeyHasher + Sync + Send> ConcurrentDemux for EpochDemux<H> {
    fn insert(&self, key: ConnectionKey, id: PcbId) {
        let words = key.as_words();
        let id_bits = id.to_bits();
        let guard = self.runtime.pin();
        let chain = self.bucket(&key);
        let mut path = Vec::new();
        let mut copies = Vec::new();
        loop {
            let head = self.heads[chain].load(Ordering::SeqCst);
            match self.find_with_path(head, words, &mut path) {
                None => {
                    // Push-front: link a fresh node to the whole old chain.
                    let idx = self.alloc_node(chain);
                    self.write_node(idx, words, id_bits, head);
                    if self.heads[chain]
                        .compare_exchange(head, idx, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.len.fetch_add(1, Ordering::Relaxed);
                        // Nothing was unlinked: the cache (whatever it
                        // holds) still names a live node, so no bump.
                        self.after_write(chain, &[]);
                        drop(guard);
                        return;
                    }
                    self.recycle_unpublished(chain, idx);
                }
                Some(target) => {
                    // Replace: copy the prefix, substitute the new id.
                    let tail = self.next_at(target);
                    let new_head =
                        self.build_cow(chain, &path, tail, Some((words, id_bits)), &mut copies);
                    if self.heads[chain]
                        .compare_exchange(head, new_head, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.bump_cache(chain);
                        path.push(target);
                        self.after_write(chain, &path);
                        drop(guard);
                        return;
                    }
                    for &c in &copies {
                        self.recycle_unpublished(chain, c);
                    }
                }
            }
        }
    }

    fn remove(&self, key: &ConnectionKey) -> Option<PcbId> {
        let words = key.as_words();
        let guard = self.runtime.pin();
        let chain = self.bucket(key);
        let mut path = Vec::new();
        let mut copies = Vec::new();
        loop {
            let head = self.heads[chain].load(Ordering::SeqCst);
            let target = match self.find_with_path(head, words, &mut path) {
                None => {
                    drop(guard);
                    return None;
                }
                Some(t) => t,
            };
            let tail = self.next_at(target);
            let removed_bits = self.id_bits_at(target);
            let new_head = self.build_cow(chain, &path, tail, None, &mut copies);
            if self.heads[chain]
                .compare_exchange(head, new_head, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.bump_cache(chain);
                path.push(target);
                self.after_write(chain, &path);
                drop(guard);
                return Some(PcbId::from_bits(removed_bits));
            }
            for &c in &copies {
                self.recycle_unpublished(chain, c);
            }
        }
    }

    fn lookup(&self, key: &ConnectionKey, _kind: PacketKind) -> LookupResult {
        let words = key.as_words();
        let guard = self.runtime.pin();
        let chain = self.bucket(key);
        // Probe the cache word first (the order matters: see bump_cache).
        let probed = self.caches[chain].load(Ordering::SeqCst);
        let probed_idx = probed as u32;
        let mut examined = 0u32;
        if probed_idx != NIL {
            examined = 1;
            if let Some((cw, cid)) = self.probe_node(probed_idx) {
                if cw == words {
                    self.stats.record(1, true, true);
                    drop(guard);
                    return LookupResult {
                        pcb: Some(PcbId::from_bits(cid)),
                        examined: 1,
                        cache_hit: true,
                    };
                }
            }
        }
        let head = self.heads[chain].load(Ordering::SeqCst);
        let (found, walked) = self.walk(head, words);
        examined += walked;
        let result = match found {
            Some((id_bits, node, _)) => {
                // One install attempt from the probed value; any
                // intervening writer bumped the version and fails the
                // CAS, which is exactly when installing would be unsafe.
                let fresh = ((probed >> 32) << 32) | u64::from(node);
                let _ = self.caches[chain].compare_exchange(
                    probed,
                    fresh,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                self.stats.record(examined, true, false);
                LookupResult {
                    pcb: Some(PcbId::from_bits(id_bits)),
                    examined,
                    cache_hit: false,
                }
            }
            None => {
                self.stats.record(examined, false, false);
                LookupResult::miss(examined)
            }
        };
        drop(guard);
        result
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn name(&self) -> String {
        format!("epoch({})", self.heads.len())
    }

    fn stats_snapshot(&self) -> LookupStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::key;
    use tcpdemux_hash::Multiplicative;
    use tcpdemux_pcb::{Pcb, PcbArena};
    use tcpdemux_telemetry::{CounterId, HistogramId};

    fn populate(demux: &EpochDemux<Multiplicative>, arena: &mut PcbArena, n: u32) -> Vec<PcbId> {
        (0..n)
            .map(|i| {
                let k = key(i);
                let id = arena.insert(Pcb::new(k));
                demux.insert(k, id);
                id
            })
            .collect()
    }

    #[test]
    fn basic_contract() {
        let mut arena = PcbArena::new();
        let demux = EpochDemux::new(Multiplicative, 19);
        let ids = populate(&demux, &mut arena, 100);
        assert_eq!(demux.len(), 100);
        assert_eq!(demux.chain_count(), 19);
        assert_eq!(demux.name(), "epoch(19)");
        for (i, &id) in ids.iter().enumerate() {
            let r = demux.lookup(&key(i as u32), PacketKind::Data);
            assert_eq!(r.pcb, Some(id), "key {i}");
            assert!(r.examined >= 1);
        }
        assert_eq!(demux.remove(&key(5)), Some(ids[5]));
        assert_eq!(demux.remove(&key(5)), None);
        assert_eq!(demux.lookup(&key(5), PacketKind::Data).pcb, None);
        assert_eq!(demux.len(), 99);
        let stats = demux.stats_snapshot();
        assert_eq!(stats.found, 100);
        assert_eq!(stats.not_found, 1);
    }

    #[test]
    fn replacement_swaps_the_id_in_place() {
        let mut arena = PcbArena::new();
        let demux = EpochDemux::new(Multiplicative, 3);
        let ids = populate(&demux, &mut arena, 30);
        let newer = arena.insert(Pcb::new(key(7)));
        demux.insert(key(7), newer);
        assert_eq!(demux.len(), 30, "replace must not grow the table");
        assert_eq!(demux.lookup(&key(7), PacketKind::Data).pcb, Some(newer));
        // Every other key survives the copy-on-write shuffle.
        for (i, &id) in ids.iter().enumerate() {
            if i != 7 {
                assert_eq!(demux.lookup(&key(i as u32), PacketKind::Data).pcb, Some(id));
            }
        }
    }

    #[test]
    fn cache_semantics_match_sequent() {
        let mut arena = PcbArena::new();
        let demux = EpochDemux::new(Multiplicative, 1);
        let _ids = populate(&demux, &mut arena, 8);
        // First lookup walks; second is a 1-probe cache hit.
        let first = demux.lookup(&key(3), PacketKind::Data);
        assert!(!first.cache_hit);
        let second = demux.lookup(&key(3), PacketKind::Data);
        assert!(second.cache_hit);
        assert_eq!(second.examined, 1);
        // A different key pays the probe plus its chain position.
        let other = demux.lookup(&key(5), PacketKind::Data);
        assert!(!other.cache_hit);
        assert!(other.examined >= 2);
        // Removal clears the cache: the next lookup cannot hit it.
        demux.remove(&key(5));
        let after = demux.lookup(&key(3), PacketKind::Data);
        assert!(!after.cache_hit, "remove must invalidate the chain cache");
    }

    #[test]
    fn retired_nodes_are_reclaimed_and_reused() {
        let mut arena = PcbArena::new();
        let demux = EpochDemux::new(Multiplicative, 7);
        populate(&demux, &mut arena, 50);
        for i in 0..50u32 {
            demux.remove(&key(i));
        }
        assert_eq!(demux.len(), 0);
        demux.flush_reclamation();
        let stats = demux.reclamation_stats();
        assert!(stats.retired >= 50, "{stats:?}");
        assert_eq!(stats.retired, stats.reclaimed, "{stats:?}");
        assert_eq!(stats.deferred, 0);
        // Reinsertion reuses recycled indices rather than growing the
        // arena without bound (same keys → same chains → the recycled
        // per-chain free lists cover every allocation).
        let blocks_before = demux.next_block.load(Ordering::Relaxed);
        populate(&demux, &mut arena, 50);
        let blocks_after = demux.next_block.load(Ordering::Relaxed);
        assert_eq!(
            blocks_before, blocks_after,
            "inserts should reuse free nodes, not claim new blocks"
        );
    }

    #[test]
    fn recorder_sees_reclamation_counters() {
        let recorder = Recorder::new();
        let demux = EpochDemux::new(Multiplicative, 7).with_recorder(recorder.clone());
        let mut arena = PcbArena::new();
        populate(&demux, &mut arena, 40);
        for i in 0..40u32 {
            demux.remove(&key(i));
        }
        let snap = recorder.snapshot();
        // Each remove retires the target plus its copy-on-write prefix,
        // so at least one node per removed key, usually more.
        assert!(snap.counter(CounterId::EpochRetired) >= 40);
        assert_eq!(
            snap.counter(CounterId::EpochRetired),
            demux.reclamation_stats().retired
        );
        assert!(snap.counter(CounterId::EpochAdvances) >= 1);
        assert!(snap.histogram(HistogramId::EpochDeferred).count() >= 40);
        // Bounded deferral: the histogram's max is the high-water mark.
        let max_deferred = u64::from(snap.histogram(HistogramId::EpochDeferred).max());
        assert!(max_deferred <= demux.reclamation_stats().max_deferred.max(1));
    }

    #[test]
    fn concurrent_readers_never_see_a_missing_live_key() {
        let mut arena = PcbArena::new();
        let demux = EpochDemux::new(Multiplicative, 19);
        let ids = populate(&demux, &mut arena, 500);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let demux = &demux;
                let ids = &ids;
                s.spawn(move || {
                    for round in 0..300u32 {
                        let i = (t * 61 + round * 7) % 500;
                        let r = demux.lookup(&key(i), PacketKind::Data);
                        assert_eq!(r.pcb, Some(ids[i as usize]));
                        assert!(r.examined >= 1);
                    }
                });
            }
        });
        let stats = demux.stats_snapshot();
        assert_eq!(stats.lookups, 4 * 300);
        assert_eq!(stats.not_found, 0);
    }

    #[test]
    #[should_panic(expected = "chain count must be nonzero")]
    fn zero_chains_panics() {
        let _ = EpochDemux::new(Multiplicative, 0);
    }
}
