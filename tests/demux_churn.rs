//! Churn correctness at high occupancy, across every suite tier.
//!
//! Random insert/remove/lookup interleavings are driven against a
//! `BTreeMap` oracle, with the key population sized so the structures
//! run near-full: the adaptive table resizes, the cuckoo tier kicks and
//! grows (its occupancy bound is 15/16, so churn at high watermark is
//! exactly where eviction paths and displaced-entry bookkeeping would
//! corrupt first), and chained tiers exercise mid-chain removals. Every
//! tier of `extended_suite` sees the identical operation sequence and
//! must agree with the oracle on every lookup and on the final
//! population.
//!
//! The seed sweep is driven by `TCPDEMUX_SEEDS` (default 4;
//! `scripts/verify.sh`'s seed-sweep stage runs a deeper one).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tcpdemux::demux::{extended_suite, PacketKind};
use tcpdemux::pcb::{ConnectionKey, Pcb, PcbArena, PcbId};
use tcpdemux_testprop::{check_cases, sweep_seeds, TestRng};

/// Population of distinct keys the churn draws from. The cuckoo tier
/// starts at 32 slots, sequent tables at 19 chains: several hundred live
/// keys keep both well past their comfortable occupancy.
const KEYSPACE: u32 = 700;
const OPS: usize = 3_000;

fn key(n: u32) -> ConnectionKey {
    ConnectionKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        1521,
        Ipv4Addr::from(0x0a02_0000 + n),
        (40_000 + (n % 20_000)) as u16,
    )
}

/// One pre-generated churn script, so every tier replays the identical
/// operation sequence.
enum Op {
    Insert(u32),
    Remove(u32),
    Lookup(u32),
}

fn script(rng: &mut TestRng) -> Vec<Op> {
    (0..OPS)
        .map(|_| {
            let n = rng.u32_in(0, KEYSPACE - 1);
            match rng.below(8) {
                // Insert-heavy: drives occupancy toward the high
                // watermark where displacement paths live.
                0..=3 => Op::Insert(n),
                4..=5 => Op::Remove(n),
                _ => Op::Lookup(n),
            }
        })
        .collect()
}

#[test]
fn every_tier_agrees_with_oracle_under_high_occupancy_churn() {
    check_cases("demux_churn_oracle", sweep_seeds(4), |rng| {
        let ops = script(rng);
        let mut arena = PcbArena::new();
        // Pre-create one PCB per key so all tiers share ids; the
        // arena is only an id factory here.
        let ids: Vec<PcbId> = (0..KEYSPACE)
            .map(|n| arena.insert(Pcb::new(key(n))))
            .collect();

        let mut suite = extended_suite();
        let mut oracle: BTreeMap<u32, PcbId> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Insert(n) => {
                    let id = ids[n as usize];
                    for entry in suite.iter_mut() {
                        entry.demux.insert(key(n), id);
                    }
                    oracle.insert(n, id);
                }
                Op::Remove(n) => {
                    let expected = oracle.remove(&n);
                    for entry in suite.iter_mut() {
                        assert_eq!(
                            entry.demux.remove(&key(n)),
                            expected,
                            "{} disagreed with oracle on remove({n})",
                            entry.name
                        );
                    }
                }
                Op::Lookup(n) => {
                    let expected = oracle.get(&n).copied();
                    for entry in suite.iter_mut() {
                        let r = entry.demux.lookup(&key(n), PacketKind::Data);
                        assert_eq!(
                            r.pcb, expected,
                            "{} disagreed with oracle on lookup({n})",
                            entry.name
                        );
                    }
                }
            }
        }

        // Final population agrees everywhere.
        for entry in &suite {
            assert_eq!(entry.demux.len(), oracle.len(), "{}", entry.name);
        }

        // A full sweep: every surviving key found, every dead key
        // missed, in every tier.
        for n in 0..KEYSPACE {
            let expected = oracle.get(&n).copied();
            for entry in suite.iter_mut() {
                assert_eq!(
                    entry.demux.lookup(&key(n), PacketKind::Data).pcb,
                    expected,
                    "{} final sweep key {n}",
                    entry.name
                );
            }
        }
    });
}
