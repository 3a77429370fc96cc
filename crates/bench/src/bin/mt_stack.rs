//! A8 — sharded full-stack throughput: packets/sec vs shard count.
//!
//! Measures the complete receive path — ingress steering (symmetric
//! connection-key hash), the per-shard SPSC ring hop, and
//! [`Stack::receive`] behind it — for a [`ShardedStack`] at 1, 2,
//! 4, and 8 shards, under two traffic mixes:
//!
//! * **tpca** — many connections, small request segments (the paper's
//!   §2 OLTP shape);
//! * **bulk** — few connections, long trains of large segments (§3.1
//!   packet trains).
//!
//! Each cell runs one ingress thread (steer + enqueue) against one
//! worker thread per shard (drain + per-frame receive), the deployment
//! shape the runtime is built for. Two microcells price the runtime's
//! own overheads: `steer` (per-frame steering cost) and the
//! local-vs-cross `connect` placement cost (the steering table resolves
//! every connect to its hash-owned shard; a cross-shard placement is a
//! measured quantity, not a hand-wave).
//!
//! `TCPDEMUX_SMOKE=1` shrinks everything so `scripts/verify.sh` can run
//! the whole path quickly; `--json BENCH_stack_shards.json` exports the
//! `tcpdemux-bench/v1` snapshot checked in at the repo root. On a
//! single-core container the shard sweep measures *oversubscribed*
//! threads — see EXPERIMENTS.md A8 for the honest analysis.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use tcpdemux_bench::harness::{bb, maybe_write_json_owned, record, Measurement};
use tcpdemux_hash::shard_for;
use tcpdemux_stack::{
    steering_key, ShardId, ShardedStack, Stack, StackConfig, TxScratch, WindowConfig,
};

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 1);
const PORT: u16 = 1521;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const RING_CAPACITY: usize = 1024;

struct Mix {
    name: &'static str,
    connections: usize,
    frames_per_conn: usize,
    payload: usize,
}

struct Params {
    mixes: [Mix; 2],
    connects: usize,
    reps: usize,
}

fn params() -> Params {
    if std::env::var("TCPDEMUX_SMOKE").is_ok() {
        Params {
            mixes: [
                Mix {
                    name: "tpca",
                    connections: 16,
                    frames_per_conn: 8,
                    payload: 64,
                },
                Mix {
                    name: "bulk",
                    connections: 4,
                    frames_per_conn: 16,
                    payload: 512,
                },
            ],
            connects: 64,
            reps: 1,
        }
    } else {
        Params {
            mixes: [
                Mix {
                    name: "tpca",
                    connections: 128,
                    frames_per_conn: 64,
                    payload: 64,
                },
                Mix {
                    name: "bulk",
                    connections: 16,
                    frames_per_conn: 100,
                    payload: 512,
                },
            ],
            connects: 512,
            reps: 3,
        }
    }
}

/// Establish one client flow through the rings (single-threaded setup).
fn establish(server: &ShardedStack, addr: Ipv4Addr) -> (Stack, tcpdemux_pcb::PcbId) {
    // The bulk mix pre-builds a whole segment train before any ACK comes
    // back, so the client needs an initial cwnd that covers the train.
    let window = WindowConfig::default().with_initial_cwnd(60_000);
    let mut client = Stack::with_config(StackConfig::new(addr).with_window(window));
    let (pcb, syn) = client.connect(SERVER, PORT).expect("connect");
    let shard = server.enqueue(syn).expect("ring space");
    let batch = server.drain(shard, usize::MAX);
    let synack = &batch.results[0].as_ref().expect("syn rx").replies[0];
    let ack = client.receive(synack).expect("synack rx").replies;
    server.enqueue(ack[0].clone()).expect("ring space");
    server.drain(shard, usize::MAX);
    (client, pcb)
}

/// A fresh server with `connections` established flows and the full
/// ingress frame sequence (flows interleaved round-robin, per-flow order
/// preserved — the arrival pattern a NIC queue presents).
fn build_scenario(shards: usize, mix: &Mix) -> (ShardedStack, Vec<Vec<u8>>) {
    let server = ShardedStack::with_config(
        StackConfig::new(SERVER)
            .with_ring_capacity(RING_CAPACITY)
            .with_window(WindowConfig::default().with_advertise(60_000)),
        shards,
    );
    server.listen(PORT).expect("fresh port");
    let payload: Vec<u8> = (0..mix.payload).map(|i| i as u8).collect();
    let mut per_flow: Vec<Vec<Vec<u8>>> = (0..mix.connections)
        .map(|i| {
            let addr = Ipv4Addr::new(10, 8, 1 + (i >> 8) as u8, (i & 0xff) as u8);
            let (mut client, pcb) = establish(&server, addr);
            let mut scratch = TxScratch::new();
            (0..mix.frames_per_conn)
                .map(|_| {
                    let n = client.send(pcb, &payload).expect("send");
                    assert_eq!(n, payload.len(), "send buffer holds the train");
                    assert_eq!(client.poll_transmit(&mut scratch), 1, "window open");
                    scratch.frames.pop().expect("one frame")
                })
                .collect()
        })
        .collect();
    let mut frames = Vec::with_capacity(mix.connections * mix.frames_per_conn);
    for s in 0..mix.frames_per_conn {
        for flow in &mut per_flow {
            frames.push(std::mem::take(&mut flow[s]));
        }
    }
    (server, frames)
}

/// One timed repetition: wall ns/packet for ingress + concurrent drain.
fn timed_run(server: &ShardedStack, frames: Vec<Vec<u8>>, shards: usize) -> f64 {
    let total = frames.len();
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let done = &done;
        scope.spawn(move || {
            for frame in frames {
                let mut frame = frame;
                loop {
                    match server.enqueue(frame) {
                        Ok(_) => break,
                        Err(full) => {
                            frame = full.frame;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            done.store(true, Ordering::Release);
        });
        for k in 0..shards {
            scope.spawn(move || {
                let shard = ShardId::new(k);
                loop {
                    let batch = server.drain(shard, 64);
                    if batch.results.is_empty()
                        && done.load(Ordering::Acquire)
                        && server.drain(shard, usize::MAX).results.is_empty()
                    {
                        return;
                    }
                }
            });
        }
    });
    start.elapsed().as_nanos() as f64 / total as f64
}

fn throughput_cell(shards: usize, mix: &Mix, reps: usize) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    let mut expected_bytes = 0u64;
    let mut got_bytes = 0u64;
    for _ in 0..reps {
        let (server, frames) = build_scenario(shards, mix);
        expected_bytes += (mix.connections * mix.frames_per_conn * mix.payload) as u64;
        samples.push(timed_run(&server, frames, shards));
        let stats = server.stats().stack;
        got_bytes += stats.bytes_delivered;
        assert_eq!(stats.resets_sent, 0, "frame reached a non-owner shard");
        assert_eq!(stats.out_of_order_drops, 0, "ring hop broke flow order");
        for ring in server.ring_stats() {
            assert_eq!(ring.pushed, ring.popped, "stranded frames");
        }
    }
    assert_eq!(got_bytes, expected_bytes, "bytes lost in flight");
    let label = format!("mt_stack/{}/shards={shards}", mix.name);
    let m = Measurement::from_samples(
        &label,
        &samples,
        (mix.connections * mix.frames_per_conn) as u64,
    );
    let median = m.median_ns;
    record(m);
    median
}

/// Per-frame steering cost (IPv4 parse to ports + symmetric hash), the
/// work the ingress thread adds in front of the ring.
fn steer_cell(mix: &Mix) -> f64 {
    let (_server, frames) = build_scenario(2, mix);
    let reps = 32;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for frame in &frames {
                let key = steering_key(frame).expect("tcp frame");
                bb(shard_for(&key, 4));
            }
            start.elapsed().as_nanos() as f64 / frames.len() as f64
        })
        .collect();
    let m = Measurement::from_samples("mt_stack/steer", &samples, frames.len() as u64);
    let median = m.median_ns;
    record(m);
    median
}

/// Price of `connect` placement: every outbound connect allocates a
/// global ephemeral port, steers the full four-tuple, and lands the PCB
/// on the hash-owned shard. A "local" placement is one where the owner
/// is the shard the caller hinted; "cross" pays the off-shard insert.
fn connect_cells(connects: usize) -> (f64, f64, u64, u64) {
    let server = ShardedStack::with_config(
        StackConfig::new(SERVER).with_ring_capacity(RING_CAPACITY),
        4,
    );
    let mut local = Vec::new();
    let mut cross = Vec::new();
    for i in 0..connects {
        let remote = Ipv4Addr::new(10, 9, (i >> 8) as u8, (i & 0xff) as u8);
        let start = Instant::now();
        let (owner, _pcb, _syn) = server
            .connect_from_shard(ShardId::new(0), remote, 443)
            .expect("connect");
        let ns = start.elapsed().as_nanos() as f64;
        if owner == ShardId::new(0) {
            local.push(ns);
        } else {
            cross.push(ns);
        }
    }
    let placements = server.placements();
    assert_eq!(placements.local, local.len() as u64);
    assert_eq!(placements.cross, cross.len() as u64);
    let mut out = (0.0, 0.0, placements.local, placements.cross);
    if !local.is_empty() {
        let m = Measurement::from_samples("mt_stack/connect/local", &local, 1);
        out.0 = m.median_ns;
        record(m);
    }
    if !cross.is_empty() {
        let m = Measurement::from_samples("mt_stack/connect/cross", &cross, 1);
        out.1 = m.median_ns;
        record(m);
    }
    out
}

fn main() {
    let p = params();
    println!(
        "A8 sharded stack throughput: {} reps/cell, ring capacity {RING_CAPACITY}",
        p.reps
    );
    println!(
        "available parallelism: {} (single-core runs measure oversubscription, not speedup)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for mix in &p.mixes {
        println!(
            "  mix {:<5} {} connections x {} frames of {}B",
            mix.name, mix.connections, mix.frames_per_conn, mix.payload
        );
    }

    println!("\n== full-stack throughput, packets/sec (wall ns/packet) ==");
    println!(
        "{:<8} {:>26} {:>26}",
        "shards", p.mixes[0].name, p.mixes[1].name
    );
    for &shards in &SHARD_COUNTS {
        print!("{shards:<8}");
        for mix in &p.mixes {
            let ns = throughput_cell(shards, mix, p.reps);
            let pps = 1e9 / ns;
            print!(" {:>13.0} ({ns:>7.1}ns)", pps);
        }
        println!();
    }

    let steer_ns = steer_cell(&p.mixes[0]);
    println!("\nsteering cost: {steer_ns:.1} ns/frame (parse + symmetric hash)");

    let (local_ns, cross_ns, locals, crosses) = connect_cells(p.connects);
    println!(
        "connect placement over {} connects from shard sh0 (4 shards): \
         {locals} local @ {local_ns:.0} ns, {crosses} cross @ {cross_ns:.0} ns",
        p.connects
    );

    let tpca = format!(
        "{}x{}x{}B",
        p.mixes[0].connections, p.mixes[0].frames_per_conn, p.mixes[0].payload
    );
    let bulk = format!(
        "{}x{}x{}B",
        p.mixes[1].connections, p.mixes[1].frames_per_conn, p.mixes[1].payload
    );
    maybe_write_json_owned(
        "stack_shards",
        0,
        &[
            ("shards", "1/2/4/8".to_string()),
            ("tpca", tpca),
            ("bulk", bulk),
            ("ring_capacity", RING_CAPACITY.to_string()),
            ("connects", p.connects.to_string()),
            ("reps", p.reps.to_string()),
        ],
    );
}
