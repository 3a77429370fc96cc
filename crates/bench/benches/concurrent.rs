//! A3 — scalability of the lock-per-chain demultiplexer versus a single
//! global lock, the parallel-STREAMS context of [Dov90].
//!
//! Every variant is driven generically through [`ConcurrentDemux`] and
//! [`concurrent_suite`], so adding a locking strategy to the suite adds
//! it to this benchmark (and the A3 ablation) with no bench changes.
//!
//! Runs on the in-tree harness (no external deps); `--features bench-ext`
//! lengthens sampling for lower variance.

use std::hint::black_box;
use tcpdemux_bench::harness::{bench, group, maybe_write_json};
use tcpdemux_core::concurrent::{concurrent_suite, ConcurrentDemux};
use tcpdemux_core::PacketKind;
use tcpdemux_hash::quality::tpca_key_population;
use tcpdemux_pcb::{ConnectionKey, Pcb, PcbArena};

const CONNECTIONS: usize = 2000;
const CHAINS: usize = 64;
/// Fixed total work, divided among the threads: with perfect scaling the
/// measured time *drops* as threads are added; a serializing lock keeps
/// it flat. Large enough that thread-spawn overhead (~50 µs/thread) is
/// noise against the lookup work.
const LOOKUPS_TOTAL: usize = 400_000;

fn populate(demux: &dyn ConcurrentDemux, keys: &[ConnectionKey]) {
    let mut arena = PcbArena::with_capacity(keys.len());
    for &key in keys {
        let id = arena.insert(Pcb::new(key));
        demux.insert(key, id);
    }
    std::mem::forget(arena);
}

fn run_threads(demux: &dyn ConcurrentDemux, keys: &[ConnectionKey], threads: usize) {
    let per_thread = LOOKUPS_TOTAL / threads;
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let n = keys.len();
                for i in 0..per_thread {
                    let key = &keys[(t * 4099 + i * 7919) % n];
                    black_box(demux.lookup(key, PacketKind::Data));
                }
            });
        }
    });
}

fn bench_scaling() {
    let keys = tpca_key_population(CONNECTIONS);
    let suite = concurrent_suite(CHAINS);
    for demux in &suite {
        populate(demux.as_ref(), &keys);
    }

    group("concurrent (time per full 400k-lookup batch)");
    for &threads in &[1usize, 2, 4, 8] {
        for demux in &suite {
            bench(&format!("concurrent/{}/{threads}", demux.name()), || {
                run_threads(demux.as_ref(), &keys, threads)
            });
        }
    }
}

fn main() {
    bench_scaling();
    maybe_write_json(
        "concurrent",
        0,
        &[
            ("connections", "2000"),
            ("chains", "64"),
            ("lookups_total", "400000"),
            ("threads", "1/2/4/8"),
        ],
    );
}
