//! Concurrent demultiplexing: the two shared-table tiers.
//!
//! The Sequent algorithm was built for a *parallel* TCP implementation
//! (\[Dov90\]: "A high capacity TCP/IP in parallel STREAMS"): hash chains do
//! double duty as the unit of concurrency, because two packets that hash to
//! different chains can be demultiplexed by different processors without
//! contention. [`ShardedDemux`] reproduces that design with one mutex per
//! chain. [`crate::ConcurrentCuckooDemux`] is the other tier: bounded
//! two-bucket probes with lock-free seqlock reads, the faster shared
//! table in every cell of `BENCH_mt_scaling.json`.
//!
//! Neither is the stack's concurrency story — that is the share-nothing
//! `ShardedStack`, where each shard owns a single-threaded [`crate::Demux`].
//! These two are lab instruments for the A3b scaling study.
//!
//! Both tally statistics through [`AtomicLookupStats`] *outside* their
//! data locks, so the accounting itself is never a contention point the
//! scaling benchmark would mismeasure.

use crate::stats::{AtomicLookupStats, LookupStats};
use crate::{LookupResult, PacketKind};
use std::sync::{Mutex, MutexGuard, PoisonError};
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

/// A thread-safe demultiplexer: the concurrent analogue of [`crate::Demux`].
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

/// One instance of each thread-safe tier, for code that drives them
/// generically (the A3b bench, `tests/demux_churn.rs`,
/// `tests/concurrent_stress.rs`): the lock-per-chain design at `chains`
/// chains with [`Multiplicative`] hashing, and
/// [`crate::ConcurrentCuckooDemux`], which ignores `chains` (its bucket
/// count is occupancy-driven).
pub fn concurrent_suite(chains: usize) -> Vec<Box<dyn ConcurrentDemux>> {
    vec![
        Box::new(ShardedDemux::new(Multiplicative, chains)),
        Box::new(crate::ConcurrentCuckooDemux::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::key;
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
    fn suite_drives_all_variants_generically() {
        let mut arena = PcbArena::new();
        let suite = concurrent_suite(19);
        assert_eq!(suite.len(), 2);
        let names: Vec<String> = suite.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["sharded-sequent(19)", "cuckoo-conc"]);
        for demux in &suite {
            let ids = populate_concurrent(demux.as_ref(), &mut arena, 50);
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(demux.lookup(&key(i as u32), PacketKind::Data).pcb, Some(id));
            }
            assert_eq!(demux.stats_snapshot().found, 50);
        }
    }
}
