//! The keyless table counts what the keyed table counts.
//!
//! The stack's default table, [`KeylessSequent`], keeps an arena index
//! and a tag per connection and confirms a tag hit against the key in
//! the connection's own slot; [`SequentDemux`], the keyed form the paper
//! suite and the benchmark's mirror use, keeps a copy of every key. Both
//! are the same chains. Here each is given the same seeded stream of
//! inserts, removes and lookups (hits and misses), over 1, 19 and 100
//! chains, while the population grows past a thousand, falls and grows
//! past its old peak, so the shared lanes re-lay and double many times.
//! Every lookup must agree on the PCB found, the PCBs examined and the
//! cache hit; at the end the statistics, the chain lengths and the order
//! of every chain must agree too.
//!
//! The stack frees a connection's arena slot before it takes the table
//! entry out, so removes here do it in either order.
//!
//! `TCPDEMUX_SEEDS` widens the sweep (`scripts/verify.sh` runs 16).

use std::collections::HashMap;
use std::net::Ipv4Addr;
use tcpdemux::demux::{Demux, KeylessSequent, LookupResult, PacketKind, SequentDemux};
use tcpdemux::hash::Multiplicative;
use tcpdemux::pcb::{ConnectionKey, Pcb, PcbArena, PcbId};
use tcpdemux_testprop::{check_cases, sweep_seeds};

fn key(n: u32) -> ConnectionKey {
    ConnectionKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        1521,
        Ipv4Addr::from(0x0a01_0000 + n / 40),
        40_000 + (n % 40) as u16,
    )
}

/// Both forms over `chains` chains, the arena the keyless one reads, and
/// which key is live under which handle.
struct Pair {
    arena: PcbArena,
    live: HashMap<ConnectionKey, PcbId>,
    keyed: SequentDemux<Multiplicative>,
    keyless: KeylessSequent<Multiplicative>,
}

impl Pair {
    fn new(chains: usize) -> Self {
        Self {
            arena: PcbArena::new(),
            live: HashMap::new(),
            keyed: SequentDemux::new(Multiplicative, chains),
            keyless: KeylessSequent::new(Multiplicative, chains),
        }
    }

    fn insert(&mut self, k: ConnectionKey) {
        let id = self.arena.insert(Pcb::new(k));
        self.live.insert(k, id);
        self.keyed.insert(k, id);
        let arena = &self.arena;
        self.keyless.insert(&k, id.index() as u32, |i| {
            arena.at(i).map(|(_, pcb)| pcb.key())
        });
    }

    fn remove(&mut self, k: ConnectionKey, arena_first: bool) {
        let id = self.live.remove(&k).unwrap();
        if arena_first {
            self.arena.remove(id).unwrap();
        }
        assert_eq!(self.keyed.remove(&k), Some(id));
        assert!(self.keyless.remove(&k, id.index() as u32));
        if !arena_first {
            self.arena.remove(id).unwrap();
        }
    }

    fn lookup(&mut self, k: ConnectionKey) -> LookupResult {
        let want = self.keyed.lookup(&k, PacketKind::Data);
        let arena = &self.arena;
        let found = self
            .keyless
            .lookup(&k, |i| arena.at(i).map(|(_, pcb)| pcb.key()));
        let got = LookupResult {
            pcb: found.index.map(|i| arena.at(i).unwrap().0),
            examined: found.examined,
            cache_hit: found.cache_hit,
        };
        assert_eq!(got, want, "{k}");
        want
    }

    fn check(&self) {
        assert_eq!(self.keyless.len(), self.keyed.len());
        assert_eq!(self.keyless.stats(), self.keyed.stats());
        assert_eq!(self.keyless.chain_lengths(), self.keyed.chain_lengths());
        let keyed_order = self.keyed.iter_entries().map(|(_, id)| id.index() as u32);
        assert!(keyed_order.eq(self.keyless.iter_indices()), "chain order");
        assert_eq!(self.keyless.name(), self.keyed.name());
    }
}

#[test]
fn the_keyless_table_counts_what_the_keyed_table_counts() {
    for chains in [1, 19, 100] {
        let name = format!("keyless_equivalence_{chains}_chains");
        check_cases(&name, sweep_seeds(4), |rng| {
            let keys = rng.u32_in(2_500, 4_000);
            let mut pair = Pair::new(chains);
            let (mut hits, mut misses, mut peak) = (0u32, 0u32, 0);
            // Grow, shrink, grow past the old peak, shrink: insert-heavy
            // phases push the lanes through relayouts and doublings. Each
            // phase is its share of inserts and of removes, in tenths.
            for (inserts, removes) in [(6u8, 1u8), (1, 5), (7, 1), (1, 5)] {
                for _ in 0..rng.usize_in(2_000, 3_000) {
                    let k = key(rng.u32_below(keys));
                    let present = pair.live.contains_key(&k);
                    match rng.u8_in(0, 10) {
                        op if op < inserts && !present => pair.insert(k),
                        op if op >= inserts && op < inserts + removes && present => {
                            pair.remove(k, rng.bool());
                        }
                        _ => {
                            let found = pair.lookup(k).pcb.is_some();
                            hits += u32::from(found);
                            misses += u32::from(!found);
                        }
                    }
                    peak = peak.max(pair.keyed.len());
                }
                pair.check();
            }
            assert!(peak >= 1_000, "the population reached only {peak}");
            assert!(hits > 100 && misses > 100, "{hits} hits, {misses} misses");
        });
    }
}
