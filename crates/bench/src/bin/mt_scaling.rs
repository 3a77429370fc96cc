//! A3b — multicore scaling study: reader threads × shared-table tier.
//!
//! Sweeps 1–8 reader threads over both [`ConcurrentDemux`] tiers (the
//! lock-per-chain `ShardedDemux` and the seqlock `ConcurrentCuckooDemux`)
//! on the TPC/A key population, with a fixed total lookup budget divided
//! among the threads. Two sections:
//!
//! 1. **read-only** — the paper's steady-state regime: every connection
//!    installed, threads only look up;
//! 2. **read + churn** — one writer removes and reinserts while the
//!    readers run.
//!
//! `TCPDEMUX_SMOKE=1` shrinks the sweep to a single quick repetition so
//! `scripts/verify.sh` can exercise the whole path offline on every run.
//! The host's `available_parallelism` is recorded as the `nproc` config
//! key: with more threads than cores the sweep measures *oversubscribed*
//! threads (lock handoff and futex overhead), not parallel speedup.

use std::time::Instant;
use tcpdemux_bench::harness::{bb, maybe_write_json_owned, record, Measurement};
use tcpdemux_core::concurrent::{concurrent_suite, ConcurrentDemux};
use tcpdemux_core::PacketKind;
use tcpdemux_hash::quality::tpca_key_population;
use tcpdemux_pcb::{ConnectionKey, Pcb, PcbArena};

const CHAINS: usize = 64;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Params {
    connections: usize,
    lookups_total: usize,
    reps: usize,
}

fn params() -> Params {
    if std::env::var("TCPDEMUX_SMOKE").is_ok() {
        Params {
            connections: 200,
            lookups_total: 8_000,
            reps: 1,
        }
    } else {
        Params {
            connections: 2000,
            lookups_total: 400_000,
            reps: 5,
        }
    }
}

fn populate(demux: &dyn ConcurrentDemux, keys: &[ConnectionKey]) {
    let mut arena = PcbArena::with_capacity(keys.len());
    for &key in keys {
        let id = arena.insert(Pcb::new(key));
        demux.insert(key, id);
    }
    std::mem::forget(arena);
}

/// Fixed total lookups divided across `threads`; returns one wall
/// ns/lookup sample per repetition (summarized at the call site).
fn read_only_samples(
    demux: &dyn ConcurrentDemux,
    keys: &[ConnectionKey],
    threads: usize,
    p: &Params,
) -> Vec<f64> {
    let per_thread = p.lookups_total / threads;
    (0..p.reps)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|s| {
                for t in 0..threads {
                    s.spawn(move || {
                        let n = keys.len();
                        for i in 0..per_thread {
                            let key = &keys[(t * 4099 + i * 7919) % n];
                            bb(demux.lookup(key, PacketKind::Data));
                        }
                    });
                }
            });
            start.elapsed().as_nanos() as f64 / (per_thread * threads) as f64
        })
        .collect()
}

/// Same division of reader work, plus one writer thread churning the top
/// eighth of the key population (remove → reinsert cycles) for the whole
/// measured window. Returns one reader wall ns/lookup sample per rep.
fn churn_samples(
    demux: &dyn ConcurrentDemux,
    keys: &[ConnectionKey],
    threads: usize,
    p: &Params,
) -> Vec<f64> {
    let per_thread = p.lookups_total / threads;
    let churned = &keys[keys.len() - keys.len() / 8..];
    (0..p.reps)
        .map(|_| {
            let stop = std::sync::atomic::AtomicBool::new(false);
            let start = Instant::now();
            std::thread::scope(|s| {
                let stop = &stop;
                s.spawn(move || {
                    let mut arena = PcbArena::with_capacity(churned.len());
                    let mut i = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let key = churned[i % churned.len()];
                        demux.remove(&key);
                        demux.insert(key, arena.insert(Pcb::new(key)));
                        i += 1;
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    std::mem::forget(arena);
                });
                let readers: Vec<_> = (0..threads)
                    .map(|t| {
                        s.spawn(move || {
                            let n = keys.len();
                            for i in 0..per_thread {
                                let key = &keys[(t * 4099 + i * 7919) % n];
                                bb(demux.lookup(key, PacketKind::Data));
                            }
                        })
                    })
                    .collect();
                // The writer churns for exactly as long as the readers run.
                for r in readers {
                    r.join().expect("reader thread");
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            start.elapsed().as_nanos() as f64 / (per_thread * threads) as f64
        })
        .collect()
}

/// Summarize one cell's samples into a recorded [`Measurement`] and
/// return its median for the printed table.
fn cell(label: String, samples: &[f64], p: &Params, threads: usize) -> f64 {
    let iters = (p.lookups_total / threads * threads) as u64;
    let m = Measurement::from_samples(&label, samples, iters);
    let median = m.median_ns;
    record(m);
    median
}

fn print_table(title: &str, rows: &[(String, Vec<f64>)], names: &[String]) {
    println!("\n== {title} ==");
    print!("{:<10}", "threads");
    for name in names {
        print!(" {name:>22}");
    }
    println!();
    for (label, cells) in rows {
        print!("{label:<10}");
        for v in cells {
            print!(" {v:>19.1} ns");
        }
        println!();
    }
}

fn main() {
    let p = params();
    let keys = tpca_key_population(p.connections);
    println!(
        "A3b multicore scaling: {} connections, {CHAINS} chains, {} lookups/run, {} rep(s)",
        p.connections, p.lookups_total, p.reps,
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("available parallelism: {nproc} (threads beyond it measure oversubscription)");

    let suite = concurrent_suite(CHAINS);
    let names: Vec<String> = suite.iter().map(|d| d.name()).collect();
    for demux in &suite {
        populate(demux.as_ref(), &keys);
    }

    let mut rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        let cells: Vec<f64> = suite
            .iter()
            .map(|d| {
                let samples = read_only_samples(d.as_ref(), &keys, threads, &p);
                let label = format!("mt_scaling/read-only/t={threads}/{}", d.name());
                cell(label, &samples, &p, threads)
            })
            .collect();
        rows.push((threads.to_string(), cells));
    }
    print_table("read-only lookups, wall ns per lookup", &rows, &names);

    let mut churn_rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        let cells: Vec<f64> = suite
            .iter()
            .map(|d| {
                let samples = churn_samples(d.as_ref(), &keys, threads, &p);
                let label = format!("mt_scaling/churn/t={threads}/{}", d.name());
                cell(label, &samples, &p, threads)
            })
            .collect();
        churn_rows.push((threads.to_string(), cells));
    }
    print_table(
        "lookups under concurrent churn, wall ns per reader lookup",
        &churn_rows,
        &names,
    );

    maybe_write_json_owned(
        "mt_scaling",
        0,
        &[
            ("chains", "64".to_string()),
            ("connections", p.connections.to_string()),
            ("lookups_total", p.lookups_total.to_string()),
            ("reps", p.reps.to_string()),
            ("threads", "1/2/4/8".to_string()),
            ("nproc", nproc.to_string()),
        ],
    );
}
