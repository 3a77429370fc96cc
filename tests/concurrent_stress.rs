//! Seeded stress test for both shared-table tiers' concurrent read paths.
//!
//! The test fabricates `PcbId`s whose packed bits carry their identity:
//! the low word is the *global key index* (unique per connection key) and
//! the high word is a per-key *generation* that each insert bumps. That
//! makes every safety violation directly observable from a lookup result
//! alone:
//!
//! - a lookup returning an id whose index ≠ the looked-up key's index is
//!   a cross-key corruption (e.g. a torn read of a slot mid-rewrite);
//! - an id with generation `g` returned after `floor[k]` advanced past
//!   `g` is **stale after remove** — the entry was removed and its
//!   removal acknowledged before the lookup began;
//! - a generation above `ceiling[k]` was never inserted at all.
//!
//! `floor[k]` is advanced (fetch_max) only *after* `remove` returns, and
//! `ceiling[k]` *before* `insert` publishes, so the bounds a reader loads
//! before/after its lookup bracket every legally-visible generation.
//!
//! A block of *stable* keys is installed before the threads start and
//! never touched by the writers; a reader that misses one — a probe that
//! raced a cuckoo kick, or landed in a table generation published before
//! it was fully rehashed — fails on the spot. The churned population is
//! sized so `cuckoo-conc` kicks and grows through several generations
//! while the readers are live.
//!
//! The seed sweep is driven by `TCPDEMUX_SEEDS` (default 4;
//! `scripts/verify.sh` runs 16).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tcpdemux::demux::concurrent::{ConcurrentDemux, ShardedDemux};
use tcpdemux::demux::{ConcurrentCuckooDemux, PacketKind};
use tcpdemux::hash::Multiplicative;
use tcpdemux::pcb::{ConnectionKey, PcbId};
use tcpdemux_testprop::{sweep_seeds, TestRng};

const WRITERS: usize = 2;
const READERS: usize = 2;
/// About two thirds of the churned keys are live at steady state, so
/// 2 × 192 keys plus the stable block hold ~320 entries: past the
/// 15/16 watermarks of the 32-, 64-, 128- and 256-slot generations.
const KEYS_PER_WRITER: usize = 192;
const OPS_PER_WRITER: usize = 20_000;
const STABLE_KEYS: usize = 64;
const CHURNED_KEYS: usize = WRITERS * KEYS_PER_WRITER;
const CHAINS: usize = 7; // few chains → long chains → real lock contention

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
        "key {global} returned removed generation {} (floor {})",
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

/// Churned keys are globals `0..CHURNED_KEYS`; stable keys follow them.
fn churn(demux: &dyn ConcurrentDemux, seed: u64) {
    let name = demux.name();
    let total_keys = CHURNED_KEYS + STABLE_KEYS;
    // Stable keys sit at generation 0 from before the first lookup.
    let trackers: Vec<KeyTracker> = (0..total_keys)
        .map(|global| KeyTracker {
            floor: AtomicU64::new(0),
            ceiling: AtomicU64::new(u64::from(global >= CHURNED_KEYS)),
        })
        .collect();
    for global in CHURNED_KEYS..total_keys {
        demux.insert(key_for(global), fabricate(global, 0));
    }
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            let trackers = &trackers;
            let name = &name;
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
                            assert_eq!(removed, Some(fabricate(global, g)), "{name} writer {w}");
                            trackers[global].floor.fetch_max(g + 1, Ordering::SeqCst);
                            live[local] = None;
                        }
                        Some(g) => {
                            // Replace in place: same key, next generation.
                            let ng = next_gen[local];
                            next_gen[local] += 1;
                            trackers[global].ceiling.fetch_max(ng + 1, Ordering::SeqCst);
                            demux.insert(k, fabricate(global, ng));
                            // The old generation is now gone.
                            trackers[global].floor.fetch_max(g + 1, Ordering::SeqCst);
                            live[local] = Some(ng);
                        }
                    }
                }
                // Drain our keys so only the stable block remains.
                for (local, entry) in live.iter().enumerate() {
                    if let Some(g) = *entry {
                        let global = w * KEYS_PER_WRITER + local;
                        let removed = demux.remove(&key_for(global));
                        assert_eq!(
                            removed,
                            Some(fabricate(global, g)),
                            "{name} writer {w} drain"
                        );
                        trackers[global].floor.fetch_max(g + 1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for r in 0..READERS {
            let trackers = &trackers;
            let done = &done;
            let name = &name;
            s.spawn(move || {
                let mut rng = TestRng::from_seed(seed ^ 0xdead_beef ^ (r as u64) << 17);
                let mut rounds = 0u32;
                while !done.load(Ordering::Relaxed) || rounds < 50 {
                    rounds += 1;
                    let global = rng.usize_in(0, total_keys);
                    let floor_before = trackers[global].floor.load(Ordering::SeqCst);
                    let result = demux.lookup(&key_for(global), PacketKind::Data);
                    let ceiling_after = trackers[global].ceiling.load(Ordering::SeqCst);
                    if let Some(id) = result.pcb {
                        check_found(global, id, floor_before, ceiling_after);
                    }
                    assert!(
                        result.pcb.is_some() || global < CHURNED_KEYS,
                        "{name} lost stable key {global} under churn"
                    );
                }
            });
        }
        // Keep the readers running for the whole churn, and release them
        // even when a writer died, so its panic surfaces instead of a hang.
        let outcomes: Vec<_> = writer_handles.into_iter().map(|h| h.join()).collect();
        done.store(true, Ordering::Relaxed);
        for outcome in outcomes {
            outcome.expect("writer thread");
        }
    });

    assert_eq!(
        demux.len(),
        STABLE_KEYS,
        "{name}: writers drained their keys"
    );
    for global in CHURNED_KEYS..total_keys {
        assert_eq!(
            demux.remove(&key_for(global)),
            Some(fabricate(global, 0)),
            "{name} stable key {global}"
        );
    }
    // A fully drained table answers nothing.
    for global in (0..total_keys).step_by(7) {
        assert_eq!(demux.lookup(&key_for(global), PacketKind::Data).pcb, None);
    }
}

#[test]
fn shared_tables_survive_concurrent_churn_across_seeds() {
    for seed in 0..u64::from(sweep_seeds(4)) {
        let seed = 0xc0ffee ^ seed.wrapping_mul(0x0100_0000_01b3);
        churn(&ShardedDemux::new(Multiplicative, CHAINS), seed);
        let cuckoo = ConcurrentCuckooDemux::new();
        churn(&cuckoo, seed);
        assert!(
            cuckoo.generation() >= 2,
            "churn must cross two growths, reached generation {}",
            cuckoo.generation()
        );
        assert!(cuckoo.kick_stats().kicks > 0, "churn must displace entries");
    }
}
