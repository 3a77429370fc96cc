//! Concurrent demultiplexing: locked chains through lock-free reads.
//!
//! The Sequent algorithm was built for a *parallel* TCP implementation
//! (\[Dov90\]: "A high capacity TCP/IP in parallel STREAMS"): hash chains do
//! double duty as the unit of concurrency, because two packets that hash to
//! different chains can be demultiplexed by different processors without
//! contention. [`ShardedDemux`] reproduces that design with one mutex per
//! chain; [`GlobalLockDemux`] wraps any single-threaded [`Demux`] in one
//! big lock as the baseline the parallel design is measured against; and
//! [`EpochDemux`] completes the lineage — the same chains with **no** read
//! lock at all, readers protected by the [`crate::epoch`] reclamation
//! runtime (the RCU shape McKenney later built at Sequent).
//!
//! All variants tally statistics through [`AtomicLookupStats`] *outside*
//! their data locks, so the accounting itself is never a contention point
//! the scaling benchmarks would mismeasure.

use crate::stats::{AtomicLookupStats, LookupStats};
use crate::{Demux, LookupResult, PacketKind, SequentDemux};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use tcpdemux_hash::{KeyHasher, Multiplicative};
use tcpdemux_pcb::{ConnectionKey, PcbId};

// `std::sync` locks (unlike the `parking_lot` ones they replaced) carry
// lock poisoning. A panic while holding a shard lock can only leave the
// shard in a state some *other* test's assertions then observe — the
// data itself is never torn, because every critical section restores
// the structure's invariants before any operation that can panic
// (plain field stores and `Vec` ops don't). So poisoning is mapped away
// rather than propagated, matching the old parking_lot semantics.

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

pub use crate::epoch_demux::EpochDemux;

/// A thread-safe demultiplexer: the concurrent analogue of [`Demux`].
///
/// Methods take `&self`; implementations do their own locking.
pub trait ConcurrentDemux: Sync + Send {
    /// Add a connection.
    fn insert(&self, key: ConnectionKey, id: PcbId);
    /// Remove a connection.
    fn remove(&self, key: &ConnectionKey) -> Option<PcbId>;
    /// Find the PCB for an arriving packet.
    fn lookup(&self, key: &ConnectionKey, kind: PacketKind) -> LookupResult;
    /// Number of connections installed.
    fn len(&self) -> usize;
    /// Whether no connections are installed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Algorithm name.
    fn name(&self) -> String;
    /// Snapshot of accumulated statistics (merged across shards).
    fn stats_snapshot(&self) -> LookupStats;
}

struct Shard {
    list: crate::list::PcbList,
    cache: Option<(ConnectionKey, PcbId)>,
}

impl Shard {
    fn new() -> Self {
        Self {
            list: crate::list::PcbList::new(),
            cache: None,
        }
    }
}

/// The Sequent structure with one lock per hash chain.
///
/// Packets for different connections usually hash to different chains and
/// proceed in parallel; the per-chain one-entry cache lives under the same
/// lock as its chain, so cache coherence is free. Statistics live in a
/// shared [`AtomicLookupStats`] and are recorded *after* the shard lock is
/// released, so tallying never extends a critical section.
pub struct ShardedDemux<H> {
    hasher: H,
    shards: Vec<Mutex<Shard>>,
    stats: AtomicLookupStats,
}

impl<H: KeyHasher> ShardedDemux<H> {
    /// Create with `chains` shards (must be nonzero).
    pub fn new(hasher: H, chains: usize) -> Self {
        assert!(chains > 0, "chain count must be nonzero");
        Self {
            hasher,
            shards: (0..chains).map(|_| Mutex::new(Shard::new())).collect(),
            stats: AtomicLookupStats::new(),
        }
    }

    /// Number of shards (hash chains).
    pub fn chain_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &ConnectionKey) -> &Mutex<Shard> {
        &self.shards[self.hasher.bucket(key, self.shards.len())]
    }
}

impl<H: KeyHasher + Sync + Send> ConcurrentDemux for ShardedDemux<H> {
    fn insert(&self, key: ConnectionKey, id: PcbId) {
        let mut shard = lock(self.shard(&key));
        if shard.list.replace(&key, id).is_none() {
            shard.list.push_front(key, id);
        } else if let Some((ck, cid)) = &mut shard.cache {
            if *ck == key {
                *cid = id;
            }
        }
    }

    fn remove(&self, key: &ConnectionKey) -> Option<PcbId> {
        let mut shard = lock(self.shard(key));
        if shard.cache.map(|(ck, _)| ck == *key).unwrap_or(false) {
            shard.cache = None;
        }
        shard.list.remove(key)
    }

    fn lookup(&self, key: &ConnectionKey, _kind: PacketKind) -> LookupResult {
        let result = {
            let mut shard = lock(self.shard(key));
            let cached = shard.cache.and_then(|(ck, id)| (ck == *key).then_some(id));
            if let Some(id) = cached {
                LookupResult {
                    pcb: Some(id),
                    examined: 1,
                    cache_hit: true,
                }
            } else {
                let cache_probes = u32::from(shard.cache.is_some());
                let (found, scanned) = shard.list.find(key);
                let examined = cache_probes + scanned;
                if let Some(id) = found {
                    shard.cache = Some((*key, id));
                }
                LookupResult {
                    pcb: found,
                    examined,
                    cache_hit: false,
                }
            }
        };
        // The guard is gone; tallying is pure relaxed atomics.
        self.stats
            .record(result.examined, result.pcb.is_some(), result.cache_hit);
        result
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).list.len()).sum()
    }

    fn name(&self) -> String {
        format!("sharded-sequent({})", self.shards.len())
    }

    fn stats_snapshot(&self) -> LookupStats {
        self.stats.snapshot()
    }
}

/// Hash chains behind per-chain *reader–writer* locks, with **no**
/// per-chain cache.
///
/// An instructive trade-off the paper's design implies but does not
/// spell out: the one-entry cache makes every successful lookup a
/// *write* (the cache must be updated), so a cached chain needs an
/// exclusive lock even for pure lookups. Dropping the cache lets
/// lookups take shared locks and proceed in parallel *within* a chain,
/// at the cost of the cache's hit-rate savings — profitable exactly when
/// traffic is train-free (the OLTP regime) and reader concurrency is
/// high. Statistics live in an [`AtomicLookupStats`] recorded after the
/// shared lock is released, so the read path never upgrades its lock.
pub struct RwShardedDemux<H> {
    hasher: H,
    shards: Vec<RwLock<crate::list::PcbList>>,
    stats: AtomicLookupStats,
}

impl<H: KeyHasher> RwShardedDemux<H> {
    /// Create with `chains` shards (must be nonzero).
    pub fn new(hasher: H, chains: usize) -> Self {
        assert!(chains > 0, "chain count must be nonzero");
        Self {
            hasher,
            shards: (0..chains)
                .map(|_| RwLock::new(crate::list::PcbList::new()))
                .collect(),
            stats: AtomicLookupStats::new(),
        }
    }

    /// Number of shards (hash chains).
    pub fn chain_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &ConnectionKey) -> &RwLock<crate::list::PcbList> {
        &self.shards[self.hasher.bucket(key, self.shards.len())]
    }
}

impl<H: KeyHasher + Sync + Send> ConcurrentDemux for RwShardedDemux<H> {
    fn insert(&self, key: ConnectionKey, id: PcbId) {
        let mut list = write(self.shard(&key));
        if list.replace(&key, id).is_none() {
            list.push_front(key, id);
        }
    }

    fn remove(&self, key: &ConnectionKey) -> Option<PcbId> {
        write(self.shard(key)).remove(key)
    }

    fn lookup(&self, key: &ConnectionKey, _kind: PacketKind) -> LookupResult {
        let (found, examined) = read(self.shard(key)).find(key);
        // The temporary read guard is already gone here.
        self.stats.record(examined, found.is_some(), false);
        LookupResult {
            pcb: found,
            examined,
            cache_hit: false,
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    fn name(&self) -> String {
        format!("rw-sharded({})", self.shards.len())
    }

    fn stats_snapshot(&self) -> LookupStats {
        self.stats.snapshot()
    }
}

/// Any single-threaded [`Demux`] behind one global lock — the
/// pre-parallel-STREAMS baseline.
///
/// Statistics are tallied into an [`AtomicLookupStats`] from the returned
/// [`LookupResult`]s after the big lock drops (the inner structure still
/// keeps its own private totals, which this wrapper ignores), so reading
/// [`GlobalLockDemux::stats_snapshot`] never contends with the data path.
pub struct GlobalLockDemux<D> {
    inner: Mutex<D>,
    stats: AtomicLookupStats,
}

impl<D: Demux> GlobalLockDemux<D> {
    /// Wrap a demultiplexer in a global lock.
    pub fn new(inner: D) -> Self {
        Self {
            inner: Mutex::new(inner),
            stats: AtomicLookupStats::new(),
        }
    }
}

impl<D: Demux + Send> ConcurrentDemux for GlobalLockDemux<D> {
    fn insert(&self, key: ConnectionKey, id: PcbId) {
        lock(&self.inner).insert(key, id);
    }

    fn remove(&self, key: &ConnectionKey) -> Option<PcbId> {
        lock(&self.inner).remove(key)
    }

    fn lookup(&self, key: &ConnectionKey, kind: PacketKind) -> LookupResult {
        let result = lock(&self.inner).lookup(key, kind);
        self.stats
            .record(result.examined, result.pcb.is_some(), result.cache_hit);
        result
    }

    fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    fn name(&self) -> String {
        format!("global-lock({})", lock(&self.inner).name())
    }

    fn stats_snapshot(&self) -> LookupStats {
        self.stats.snapshot()
    }
}

/// One instance of every thread-safe variant, for experiments that drive
/// them generically (the A3/A3b benches and their ablations): the
/// lock-per-chain design, the cache-free reader–writer variant, the
/// global-lock baseline, and the lock-free-read [`EpochDemux`], all at the
/// same chain count with [`Multiplicative`] hashing — plus the
/// epoch-guarded [`crate::ConcurrentCuckooDemux`], which ignores `chains`
/// (its bucket count is occupancy-driven), and
/// [`crate::ConcurrentFrontDemux`]-wrapped variants of the sharded and
/// cuckoo tiers (the miss-rejecting fingerprint front filter).
pub fn concurrent_suite(chains: usize) -> Vec<Box<dyn ConcurrentDemux>> {
    vec![
        Box::new(ShardedDemux::new(Multiplicative, chains)),
        Box::new(RwShardedDemux::new(Multiplicative, chains)),
        Box::new(GlobalLockDemux::new(SequentDemux::new(
            Multiplicative,
            chains,
        ))),
        Box::new(EpochDemux::new(Multiplicative, chains)),
        Box::new(crate::ConcurrentCuckooDemux::new()),
        Box::new(crate::ConcurrentFrontDemux::new(ShardedDemux::new(
            Multiplicative,
            chains,
        ))),
        Box::new(crate::ConcurrentFrontDemux::new(
            crate::ConcurrentCuckooDemux::new(),
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::key;
    use crate::SequentDemux;
    use tcpdemux_hash::Multiplicative;
    use tcpdemux_pcb::{Pcb, PcbArena};

    fn populate_concurrent(
        demux: &dyn ConcurrentDemux,
        arena: &mut PcbArena,
        n: u32,
    ) -> Vec<PcbId> {
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
    fn sharded_basic_contract() {
        let mut arena = PcbArena::new();
        let demux = ShardedDemux::new(Multiplicative, 19);
        let ids = populate_concurrent(&demux, &mut arena, 100);
        assert_eq!(demux.len(), 100);
        for (i, &id) in ids.iter().enumerate() {
            let r = demux.lookup(&key(i as u32), PacketKind::Data);
            assert_eq!(r.pcb, Some(id));
        }
        assert_eq!(demux.remove(&key(5)), Some(ids[5]));
        assert_eq!(demux.remove(&key(5)), None);
        assert_eq!(demux.lookup(&key(5), PacketKind::Data).pcb, None);
        assert!(demux.stats_snapshot().lookups >= 101);
        assert_eq!(demux.name(), "sharded-sequent(19)");
        assert_eq!(demux.chain_count(), 19);
    }

    #[test]
    fn global_lock_matches_inner() {
        let mut arena = PcbArena::new();
        let demux = GlobalLockDemux::new(SequentDemux::new(Multiplicative, 19));
        let ids = populate_concurrent(&demux, &mut arena, 50);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(demux.lookup(&key(i as u32), PacketKind::Data).pcb, Some(id));
        }
        assert!(demux.name().starts_with("global-lock(sequent"));
        assert_eq!(demux.stats_snapshot().found, 50);
        assert!(!demux.is_empty());
    }

    #[test]
    fn parallel_lookups_are_linearizable() {
        // 8 threads hammer lookups on a fixed population; every result
        // must be the correct PCB, and totals must add up exactly.
        let mut arena = PcbArena::new();
        let demux = ShardedDemux::new(Multiplicative, 19);
        let ids = populate_concurrent(&demux, &mut arena, 500);

        std::thread::scope(|s| {
            for t in 0..8u32 {
                let demux = &demux;
                let ids = &ids;
                s.spawn(move || {
                    for round in 0..200u32 {
                        let i = (t * 61 + round * 7) % 500;
                        let r = demux.lookup(&key(i), PacketKind::Data);
                        assert_eq!(r.pcb, Some(ids[i as usize]));
                        assert!(r.examined >= 1);
                    }
                });
            }
        });
        let stats = demux.stats_snapshot();
        assert_eq!(stats.lookups, 8 * 200);
        assert_eq!(stats.found, 8 * 200);
        assert_eq!(stats.not_found, 0);
    }

    #[test]
    fn concurrent_insert_remove_churn() {
        // Threads own disjoint key ranges and churn them; the structure
        // must end exactly at the expected population.
        let demux = ShardedDemux::new(Multiplicative, 19);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let demux = &demux;
                s.spawn(move || {
                    let mut arena = PcbArena::new();
                    let base = 10_000 + t * 1000;
                    for i in 0..100 {
                        let k = key(base + i);
                        let id = arena.insert(Pcb::new(k));
                        demux.insert(k, id);
                    }
                    for i in 0..50 {
                        assert!(demux.remove(&key(base + i * 2)).is_some());
                    }
                });
            }
        });
        assert_eq!(demux.len(), 4 * 50);
    }

    #[test]
    fn sharded_stats_equal_sum_of_per_thread_work() {
        // The cross-thread accounting contract: after T threads each do
        // a known amount of insert/remove/lookup work on disjoint key
        // ranges, `stats_snapshot()` totals must equal the sum of the
        // per-thread tallies exactly — no lost updates, no double
        // counts, under real contention on the shard locks.
        const THREADS: u32 = 8;
        const KEYS_PER_THREAD: u32 = 200;
        const LOOKUPS_PER_THREAD: u64 = 1_000;

        let demux = ShardedDemux::new(Multiplicative, 7); // few shards → real contention
        let per_thread: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let demux = &demux;
                    s.spawn(move || {
                        let mut arena = PcbArena::new();
                        let base = t * KEYS_PER_THREAD;
                        let ids: Vec<PcbId> = (0..KEYS_PER_THREAD)
                            .map(|i| {
                                let k = key(base + i);
                                let id = arena.insert(Pcb::new(k));
                                demux.insert(k, id);
                                id
                            })
                            .collect();
                        let (mut found, mut missed) = (0u64, 0u64);
                        for round in 0..LOOKUPS_PER_THREAD {
                            // Mostly hits on our own range, plus misses on a
                            // range no thread ever installs.
                            if round % 5 == 4 {
                                let k = key(1_000_000 + base + (round as u32 % KEYS_PER_THREAD));
                                assert!(demux.lookup(&k, PacketKind::Data).pcb.is_none());
                                missed += 1;
                            } else {
                                let i = (round as u32 * 13) % KEYS_PER_THREAD;
                                let r = demux.lookup(&key(base + i), PacketKind::Data);
                                assert_eq!(r.pcb, Some(ids[i as usize]));
                                found += 1;
                            }
                        }
                        // Remove half our keys while other threads still look up.
                        for i in 0..KEYS_PER_THREAD / 2 {
                            assert_eq!(
                                demux.remove(&key(base + i * 2)),
                                Some(ids[(i * 2) as usize])
                            );
                        }
                        (found, missed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let total_found: u64 = per_thread.iter().map(|&(f, _)| f).sum();
        let total_missed: u64 = per_thread.iter().map(|&(_, m)| m).sum();
        let stats = demux.stats_snapshot();
        assert_eq!(stats.lookups, total_found + total_missed);
        assert_eq!(stats.found, total_found);
        assert_eq!(stats.not_found, total_missed);
        assert_eq!(
            demux.len(),
            (THREADS * KEYS_PER_THREAD / 2) as usize,
            "each thread removed exactly half its keys"
        );
        // Examined counts are at least one PCB per lookup that found
        // anything, and the worst case can't exceed the longest chain.
        assert!(stats.pcbs_examined >= stats.found);
        assert!(stats.worst_case >= 1);
    }

    #[test]
    #[should_panic(expected = "chain count must be nonzero")]
    fn zero_shards_panics() {
        let _ = ShardedDemux::new(Multiplicative, 0);
    }

    #[test]
    fn rw_sharded_basic_contract() {
        let mut arena = PcbArena::new();
        let demux = RwShardedDemux::new(Multiplicative, 19);
        let ids = populate_concurrent(&demux, &mut arena, 100);
        assert_eq!(demux.len(), 100);
        assert_eq!(demux.chain_count(), 19);
        for (i, &id) in ids.iter().enumerate() {
            let r = demux.lookup(&key(i as u32), PacketKind::Data);
            assert_eq!(r.pcb, Some(id));
            assert!(!r.cache_hit, "no cache by design");
        }
        assert_eq!(demux.remove(&key(3)), Some(ids[3]));
        assert_eq!(demux.lookup(&key(3), PacketKind::Ack).pcb, None);
        let stats = demux.stats_snapshot();
        assert_eq!(stats.lookups, 101);
        assert_eq!(stats.found, 100);
        assert_eq!(stats.not_found, 1);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(demux.name(), "rw-sharded(19)");
    }

    #[test]
    fn rw_sharded_parallel_readers_on_one_chain() {
        // Readers on the SAME chain proceed concurrently; this test only
        // checks correctness under that contention pattern (the benches
        // measure the speedup).
        let mut arena = PcbArena::new();
        let demux = RwShardedDemux::new(Multiplicative, 1);
        let ids = populate_concurrent(&demux, &mut arena, 64);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let demux = &demux;
                let ids = &ids;
                s.spawn(move || {
                    for i in 0..500u32 {
                        let k = (t * 17 + i) % 64;
                        assert_eq!(
                            demux.lookup(&key(k), PacketKind::Data).pcb,
                            Some(ids[k as usize])
                        );
                    }
                });
            }
        });
        let stats = demux.stats_snapshot();
        assert_eq!(stats.lookups, 8 * 500);
        assert_eq!(stats.not_found, 0);
    }

    #[test]
    fn suite_drives_all_variants_generically() {
        let mut arena = PcbArena::new();
        let suite = concurrent_suite(19);
        assert_eq!(suite.len(), 7);
        let names: Vec<String> = suite.iter().map(|d| d.name()).collect();
        assert!(names.iter().any(|n| n.starts_with("sharded-sequent")));
        assert!(names.iter().any(|n| n.starts_with("rw-sharded")));
        assert!(names.iter().any(|n| n.starts_with("global-lock")));
        assert!(names.iter().any(|n| n.starts_with("epoch(")));
        assert!(names.iter().any(|n| n == "cuckoo-conc"));
        assert!(names.iter().any(|n| n.starts_with("front+sharded-sequent")));
        assert!(names.iter().any(|n| n == "front+cuckoo-conc"));
        for demux in &suite {
            let ids = populate_concurrent(demux.as_ref(), &mut arena, 50);
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(demux.lookup(&key(i as u32), PacketKind::Data).pcb, Some(id));
            }
            assert_eq!(demux.stats_snapshot().found, 50);
        }
    }

    #[test]
    fn rw_sharded_concurrent_writers_and_readers() {
        let demux = RwShardedDemux::new(Multiplicative, 19);
        std::thread::scope(|s| {
            let writer = &demux;
            s.spawn(move || {
                let mut arena = PcbArena::new();
                for i in 0..500u32 {
                    let k = key(50_000 + i);
                    let id = arena.insert(Pcb::new(k));
                    writer.insert(k, id);
                    if i % 2 == 0 {
                        writer.remove(&k);
                    }
                }
            });
            let reader = &demux;
            s.spawn(move || {
                for i in 0..2000u32 {
                    let _ = reader.lookup(&key(50_000 + (i % 500)), PacketKind::Data);
                }
            });
        });
        assert_eq!(demux.len(), 250);
    }
}
