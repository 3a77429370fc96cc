//! Seeded stress test for the lock-free `EpochDemux` read path.
//!
//! The test fabricates `PcbId`s whose packed bits carry their identity:
//! the low word is the *global key index* (unique per connection key) and
//! the high word is a per-key *generation* that each insert bumps. That
//! makes every safety violation directly observable from a lookup result
//! alone:
//!
//! - a lookup returning an id whose index ≠ the looked-up key's index is
//!   a cross-key corruption (e.g. a torn read of a recycled node);
//! - an id with generation `g` returned after `floor[k]` advanced past
//!   `g` is a **use-after-retire** — the node was unlinked and its
//!   removal acknowledged before the lookup began;
//! - a generation above `ceiling[k]` was never inserted at all.
//!
//! `floor[k]` is advanced (fetch_max) only *after* `remove` returns, and
//! `ceiling[k]` *before* `insert` publishes, so the bounds a reader loads
//! before/after its lookup bracket every legally-visible generation.
//!
//! The seed sweep is driven by `TCPDEMUX_STRESS_SEEDS` (default 4;
//! `scripts/verify.sh` runs 16). After the churn, the epoch runtime must
//! reach full quiescence: every retired node reclaimed, deferred depth
//! zero, and the high-water deferred depth bounded.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tcpdemux::demux::concurrent::{ConcurrentDemux, EpochDemux};
use tcpdemux::demux::PacketKind;
use tcpdemux::hash::Multiplicative;
use tcpdemux::pcb::{ConnectionKey, PcbId};
use tcpdemux_testprop::TestRng;

const WRITERS: usize = 2;
const READERS: usize = 2;
const KEYS_PER_WRITER: usize = 32;
const OPS_PER_WRITER: usize = 400;
const CHAINS: usize = 7; // few chains → long chains → real prefix copying
/// Generous but real bound on the deferred-retire high-water mark: churn
/// retires at most a chain's length per op and every op drains up to 64,
/// so the backlog only grows while a reader guard blocks the epoch.
const MAX_DEFERRED_BOUND: u64 = 8192;

fn key_for(global: usize) -> ConnectionKey {
    ConnectionKey::new(
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        1521,
        std::net::Ipv4Addr::from(0x0a02_0000 + global as u32),
        (41_000 + global) as u16,
    )
}

fn fabricate(global: usize, generation: u64) -> PcbId {
    PcbId::from_bits((generation << 32) | global as u64)
}

fn generation_of(id: PcbId) -> u64 {
    id.to_bits() >> 32
}

fn seed_count() -> u64 {
    std::env::var("TCPDEMUX_STRESS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

struct KeyTracker {
    /// `g + 1` of the largest generation whose removal has completed.
    floor: AtomicU64,
    /// `g + 1` of the largest generation whose insert has begun.
    ceiling: AtomicU64,
}

fn check_found(global: usize, id: PcbId, floor_before: u64, ceiling_after: u64) {
    assert_eq!(
        id.index(),
        global,
        "lookup of key {global} returned another key's id {id}"
    );
    let g = generation_of(id) + 1;
    assert!(
        g > floor_before,
        "key {global} returned retired generation {} (floor {})",
        g - 1,
        floor_before
    );
    assert!(
        g <= ceiling_after,
        "key {global} returned uninserted generation {} (ceiling {})",
        g - 1,
        ceiling_after
    );
}

fn run_one_seed(seed: u64) {
    let total_keys = WRITERS * KEYS_PER_WRITER;
    let demux = EpochDemux::new(Multiplicative, CHAINS);
    let trackers: Vec<KeyTracker> = (0..total_keys)
        .map(|_| KeyTracker {
            floor: AtomicU64::new(0),
            ceiling: AtomicU64::new(0),
        })
        .collect();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            let demux = &demux;
            let trackers = &trackers;
            writer_handles.push(s.spawn(move || {
                let mut rng = TestRng::from_seed(seed ^ (w as u64).wrapping_mul(0x9e37_79b9));
                // Which generation each of our keys is on; `None` while
                // the key is absent from the table.
                let mut live: Vec<Option<u64>> = vec![None; KEYS_PER_WRITER];
                let mut next_gen: Vec<u64> = vec![0; KEYS_PER_WRITER];
                for _ in 0..OPS_PER_WRITER {
                    let local = rng.usize_in(0, KEYS_PER_WRITER);
                    let global = w * KEYS_PER_WRITER + local;
                    let k = key_for(global);
                    match live[local] {
                        None => {
                            let g = next_gen[local];
                            next_gen[local] += 1;
                            trackers[global].ceiling.fetch_max(g + 1, Ordering::SeqCst);
                            demux.insert(k, fabricate(global, g));
                            live[local] = Some(g);
                        }
                        Some(g) if rng.bool() => {
                            // Sole owner of this key: the remove must
                            // return exactly the generation we inserted.
                            let removed = demux.remove(&k);
                            assert_eq!(removed, Some(fabricate(global, g)), "writer {w}");
                            trackers[global].floor.fetch_max(g + 1, Ordering::SeqCst);
                            live[local] = None;
                        }
                        Some(g) => {
                            // Replace in place: same key, next generation.
                            let ng = next_gen[local];
                            next_gen[local] += 1;
                            trackers[global].ceiling.fetch_max(ng + 1, Ordering::SeqCst);
                            demux.insert(k, fabricate(global, ng));
                            // The old generation is now retired.
                            trackers[global].floor.fetch_max(g + 1, Ordering::SeqCst);
                            live[local] = Some(ng);
                        }
                    }
                }
                // Drain our keys so the table ends empty.
                for (local, entry) in live.iter().enumerate() {
                    if let Some(g) = *entry {
                        let global = w * KEYS_PER_WRITER + local;
                        let removed = demux.remove(&key_for(global));
                        assert_eq!(removed, Some(fabricate(global, g)), "writer {w} drain");
                        trackers[global].floor.fetch_max(g + 1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for r in 0..READERS {
            let demux = &demux;
            let trackers = &trackers;
            let done = &done;
            s.spawn(move || {
                let mut rng = TestRng::from_seed(seed ^ 0xdead_beef ^ (r as u64) << 17);
                let mut rounds = 0u32;
                while !done.load(Ordering::Relaxed) || rounds < 50 {
                    rounds += 1;
                    if rounds > 20_000 {
                        break; // safety valve; never hit in practice
                    }
                    let global = rng.usize_in(0, total_keys);
                    let floor_before = trackers[global].floor.load(Ordering::SeqCst);
                    let result = demux.lookup(&key_for(global), PacketKind::Data);
                    let ceiling_after = trackers[global].ceiling.load(Ordering::SeqCst);
                    if let Some(id) = result.pcb {
                        check_found(global, id, floor_before, ceiling_after);
                    }
                }
            });
        }
        // Keep the readers running for the whole churn: only flag them
        // once every writer has actually finished.
        for h in writer_handles {
            h.join().expect("writer thread");
        }
        done.store(true, Ordering::Relaxed);
    });

    // Quiescent teardown: everything retired must be reclaimable now.
    assert_eq!(demux.len(), 0, "writers drained all their keys");
    demux.flush_reclamation();
    let stats = demux.reclamation_stats();
    assert_eq!(
        stats.retired, stats.reclaimed,
        "all retired nodes eventually reclaimed: {stats:?}"
    );
    assert_eq!(stats.deferred, 0, "{stats:?}");
    assert!(
        stats.retired > 0,
        "churn must have retired nodes: {stats:?}"
    );
    assert!(
        stats.max_deferred <= MAX_DEFERRED_BOUND,
        "deferred-reclamation depth unbounded: {stats:?}"
    );
    // A fully drained table answers nothing.
    for global in (0..total_keys).step_by(7) {
        assert_eq!(demux.lookup(&key_for(global), PacketKind::Data).pcb, None);
    }
}

#[test]
fn epoch_demux_survives_concurrent_churn_across_seeds() {
    for seed in 0..seed_count() {
        run_one_seed(0xc0ffee ^ seed.wrapping_mul(0x0100_0000_01b3));
    }
}
