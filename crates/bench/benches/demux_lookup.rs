//! A1 — wall-clock cost per lookup for every algorithm, across connection
//! counts. The paper's metric (PCBs examined) is a surrogate for memory
//! traffic; this bench closes the loop by measuring actual nanoseconds on
//! the real data structures under OLTP-style (train-free) access patterns.
//!
//! Runs on the in-tree harness (no external deps); `--features bench-ext`
//! lengthens sampling for lower variance.

use std::hint::black_box;
use tcpdemux_bench::harness::{bench, group, maybe_write_json};
use tcpdemux_core::{
    AdaptiveDemux, ChainPolicy, Demux, DirectDemux, PacketKind, SendRecvDemux, SequentDemux,
};
use tcpdemux_hash::{quality::tpca_key_population, Multiplicative};
use tcpdemux_pcb::{ConnectionKey, Pcb, PcbArena};

fn populate(demux: &mut dyn Demux, keys: &[ConnectionKey]) {
    let mut arena = PcbArena::with_capacity(keys.len());
    for &key in keys {
        let id = arena.insert(Pcb::new(key));
        demux.insert(key, id);
    }
    std::mem::forget(arena); // PCBs must outlive the bench iterations
}

/// A permuted visiting order with no trains (stride coprime to n).
fn access_pattern(keys: &[ConnectionKey]) -> Vec<ConnectionKey> {
    let n = keys.len();
    (0..n).map(|i| keys[(i * 7919) % n]).collect()
}

fn bench_algorithms() {
    for &n in &[100usize, 1000, 2000] {
        let keys = tpca_key_population(n);
        let pattern = access_pattern(&keys);
        group(&format!("lookup/oltp/n={n}"));

        let algorithms: Vec<Box<dyn Demux>> = vec![
            Box::new(SequentDemux::bsd()),
            Box::new(SequentDemux::mtf()),
            Box::new(SendRecvDemux::new()),
            Box::new(SequentDemux::new(Multiplicative, 19)),
            Box::new(SequentDemux::new(Multiplicative, 100)),
            Box::new(SequentDemux::with_policy(
                Multiplicative,
                19,
                ChainPolicy::Uncached,
            )),
            Box::new(SequentDemux::with_policy(
                Multiplicative,
                19,
                ChainPolicy::MoveToFront,
            )),
            Box::new(AdaptiveDemux::new(Multiplicative, 19, 8)),
            Box::new(DirectDemux::new()),
        ];
        for mut demux in algorithms {
            populate(demux.as_mut(), &keys);
            let name = demux.name();
            let mut cursor = 0usize;
            bench(&format!("lookup/oltp/n={n}/{name}"), || {
                let key = &pattern[cursor];
                cursor = (cursor + 1) % pattern.len();
                black_box(demux.lookup(black_box(key), PacketKind::Data));
            });
        }
    }
}

fn bench_packet_trains() {
    // The cache-friendly regime: repeated lookups of one connection.
    let keys = tpca_key_population(2000);
    group("lookup/train/n=2000");
    let algorithms: Vec<Box<dyn Demux>> = vec![
        Box::new(SequentDemux::bsd()),
        Box::new(SequentDemux::new(Multiplicative, 19)),
        Box::new(DirectDemux::new()),
    ];
    for mut demux in algorithms {
        populate(demux.as_mut(), &keys);
        let name = demux.name();
        let hot = keys[1234];
        demux.lookup(&hot, PacketKind::Data); // prime the cache
        bench(&format!("lookup/train/n=2000/{name}"), || {
            black_box(demux.lookup(black_box(&hot), PacketKind::Data));
        });
    }
}

fn main() {
    bench_algorithms();
    bench_packet_trains();
    // Key population and access patterns are fully deterministic (TPC/A
    // population, fixed strides) — no RNG seed in this bin.
    maybe_write_json(
        "demux_lookup",
        0,
        &[
            ("connections", "100/1000/2000"),
            ("pattern", "oltp-stride-7919 + train"),
        ],
    );
}
