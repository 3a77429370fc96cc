//! Front-filter correctness properties, across every filter-wrapped tier.
//!
//! The fingerprint front filter's one non-negotiable invariant is **zero
//! false negatives**: because it maintains exact membership (the cold
//! key lane) in lockstep with the backing demultiplexer, a reject is a
//! *proof* of absence, never a guess. These properties drive seeded
//! churn — insert-heavy bursts that force kick walks and filter growth,
//! removals that must clear exactly one lane, and probes of keys that
//! were never (or no longer) present — against a `BTreeMap` oracle for
//! both filter-wrapped tiers, then fire a flood of absent keys crafted
//! to collide into one chain at what the churn left, and pin the
//! false-positive budget at the 15/16 occupancy watermark.
//!
//! The seed sweep is driven by `TCPDEMUX_SEEDS` (default 4;
//! `scripts/verify.sh`'s seed-sweep stage runs a deeper one).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tcpdemux::demux::{CuckooDemux, Demux, FrontDemux, PacketKind, SequentDemux};
use tcpdemux::hash::{KeyHasher, Multiplicative};
use tcpdemux::pcb::{ConnectionKey, Pcb, PcbArena, PcbId};
use tcpdemux_testprop::{check_cases, sweep_seeds, TestRng};

/// Live-key population; probes draw from a 2x larger space so roughly
/// half of all lookups exercise the reject path.
const KEYSPACE: u32 = 700;
const PROBESPACE: u32 = 1_400;
const OPS: usize = 3_000;
/// The paper's chain count, which the flood below is crafted against.
const CHAINS: usize = 19;
const FLOOD: usize = 2_048;

fn key(n: u32) -> ConnectionKey {
    ConnectionKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        1521,
        Ipv4Addr::from(0x0a03_0000 + n),
        (40_000 + (n % 20_000)) as u16,
    )
}

/// The `n`-th candidate for a spoofed key, from a subnet of its own so
/// that it is never a live connection's.
fn spoofed(n: u32) -> ConnectionKey {
    ConnectionKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        1521,
        Ipv4Addr::from(0xac10_0000 + n / 16_000),
        (49_152 + n % 16_000) as u16,
    )
}

enum Op {
    Insert(u32),
    Remove(u32),
    Lookup(u32),
}

/// Insert-heavy script probing well beyond the live population, so the
/// filter sees growth, kick storms, lane clears, and plenty of rejects.
fn script(rng: &mut TestRng) -> Vec<Op> {
    (0..OPS)
        .map(|_| match rng.below(8) {
            0..=3 => Op::Insert(rng.u32_in(0, KEYSPACE - 1)),
            4..=5 => Op::Remove(rng.u32_in(0, KEYSPACE - 1)),
            _ => Op::Lookup(rng.u32_in(0, PROBESPACE - 1)),
        })
        .collect()
}

#[test]
fn filter_wrapped_tiers_agree_with_oracle_under_churn() {
    check_cases("front_filter_oracle", sweep_seeds(4), |rng| {
        let ops = script(rng);
        let mut arena = PcbArena::new();
        let ids: Vec<PcbId> = (0..KEYSPACE)
            .map(|n| arena.insert(Pcb::new(key(n))))
            .collect();

        // The bare table goes through the same operations as the cost
        // reference for its wrapped self.
        let mut tiers: [Box<dyn Demux>; 3] = [
            Box::new(SequentDemux::new(Multiplicative, CHAINS)),
            Box::new(FrontDemux::new(SequentDemux::new(Multiplicative, CHAINS))),
            Box::new(FrontDemux::new(CuckooDemux::new())),
        ];
        let mut oracle: BTreeMap<u32, PcbId> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Insert(n) => {
                    let id = ids[n as usize];
                    for demux in tiers.iter_mut() {
                        demux.insert(key(n), id);
                    }
                    oracle.insert(n, id);
                }
                Op::Remove(n) => {
                    let expected = oracle.remove(&n);
                    for demux in tiers.iter_mut() {
                        assert_eq!(
                            demux.remove(&key(n)),
                            expected,
                            "{} disagreed with oracle on remove({n})",
                            demux.name()
                        );
                    }
                }
                Op::Lookup(n) => {
                    let expected = oracle.get(&n).copied();
                    for demux in tiers.iter_mut() {
                        assert_eq!(
                            demux.lookup(&key(n), PacketKind::Data).pcb,
                            expected,
                            "{} disagreed with oracle on lookup({n})",
                            demux.name()
                        );
                    }
                }
            }
        }

        // Exhaustive final sweep: every live key found, every dead or
        // never-inserted key rejected or missed — a single false
        // negative anywhere fails here even if churn never probed it.
        let mut hit_cost = [0u64; 3];
        for n in 0..PROBESPACE {
            let expected = oracle.get(&n).copied();
            for (demux, cost) in tiers.iter_mut().zip(&mut hit_cost) {
                let r = demux.lookup(&key(n), PacketKind::Data);
                assert_eq!(r.pcb, expected, "{} final sweep key {n}", demux.name());
                if expected.is_some() {
                    *cost += u64::from(r.examined);
                }
            }
        }
        for demux in &tiers {
            assert_eq!(demux.len(), oracle.len(), "{}", demux.name());
        }
        // A hit through the filter examines what the bare table does.
        assert!(hit_cost[1] <= hit_cost[0], "{hit_cost:?}");

        // The algorithmic-complexity attack: absent keys picked offline
        // (the hash is public) to land in one chain of the 19, one that
        // holds live connections. The bare table walks that whole chain
        // to say no to each; the filter has to say it first.
        let live = oracle.keys().next().expect("the churn leaves live keys");
        let chain = Multiplicative.bucket(&key(*live), CHAINS);
        let flood = (0..)
            .map(spoofed)
            .filter(|k| Multiplicative.bucket(k, CHAINS) == chain);
        let mut miss_cost = [0u64; 3];
        for k in flood.take(FLOOD) {
            for (demux, cost) in tiers.iter_mut().zip(&mut miss_cost) {
                let r = demux.lookup(&k, PacketKind::Data);
                assert_eq!(r.pcb, None, "{} found a spoofed key", demux.name());
                *cost += u64::from(r.examined);
            }
        }
        let [bare, front, _] = miss_cost;
        assert!(bare > 4 * FLOOD as u64, "no chain piled up: {miss_cost:?}");
        assert!(front * 8 < bare, "flood reached the chain: {miss_cost:?}");
    });
}

#[test]
fn false_positive_rate_within_budget_at_high_occupancy() {
    // Fill the wrapped tier right up to the 15/16 growth watermark,
    // then probe far more absent keys than the filter has slots. The
    // spec'd budget is an FP *rate* of at most 2^-12; the expected rate
    // is ~8 candidate lanes / 2^16 fingerprints ≈ 2^-13, so the budget
    // has 2x headroom without being loose enough to hide a broken lane
    // comparison (which would reject nothing and fail instantly).
    check_cases("front_filter_fp_budget", sweep_seeds(4), |rng| {
        let base = rng.u32_in(0, 1 << 20);
        let mut demux = FrontDemux::new(CuckooDemux::new());
        let mut arena = PcbArena::new();
        let mut n = 0u32;
        // Grow to a real population first (30k keys → 32k-slot filter),
        // so the budget is measured on thousands of occupied buckets,
        // not the 32-slot seed table's first watermark.
        while n < 30_000 {
            let k = key(base.wrapping_add(n));
            demux.insert(k, arena.insert(Pcb::new(k)));
            n += 1;
        }
        loop {
            let stats = demux.front_stats().filter;
            if (stats.len + 1) * 16 > stats.capacity * 15 {
                break; // next insert would cross the watermark
            }
            let k = key(base.wrapping_add(n));
            demux.insert(k, arena.insert(Pcb::new(k)));
            n += 1;
        }
        let occupancy = {
            let s = demux.front_stats().filter;
            s.len as f64 / s.capacity as f64
        };
        assert!(occupancy > 0.9, "not near the watermark: {occupancy:.3}");

        const PROBES: u64 = 200_000;
        for i in 0..PROBES {
            // Disjoint from every inserted key (different subnet).
            let absent = ConnectionKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                1521,
                Ipv4Addr::from(0x0a7f_0000_u32.wrapping_add(i as u32)),
                40_000,
            );
            assert!(demux.lookup(&absent, PacketKind::Data).pcb.is_none());
        }
        let fps = demux.front_stats().false_positives;
        let budget = PROBES >> 12; // rate ≤ 2^-12
        assert!(
            fps <= budget.max(8),
            "false positives {fps} exceed budget {budget} at occupancy {occupancy:.3}"
        );
    });
}
