//! A4b — packet trains paced by the windowed send path.
//!
//! A4 (`train_hitrate`) samples train lengths from a synthetic geometric
//! distribution. This bin generates the trains the way a real sender
//! does: two full stacks, and the burst length is the application's
//! write size bounded by the congestion window — the app enqueues
//! `L × 512` bytes with [`Stack::send`], `poll_transmit` emits the burst
//! under `min(rwnd, cwnd)` with `initial_cwnd = L` segments, and the
//! server-side arrival sequence is read off the actual frames with
//! [`steering_key`]. A burst of L back-to-back segments from one
//! connection is exactly a packet train of length L, so the BSD cache's
//! predicted hit rate `1 − 1/L` (§3.1) should emerge from the transport
//! machinery rather than being sampled into existence.
//!
//! Per window size L: the paired-trace hit rates and mean PCBs examined
//! through `run_trace` (every algorithm sees the same stack-generated
//! arrivals), then timed lookup cells
//! `train_windowed/lookup/cwnd={L}seg/{tier}` for the four tiers whose
//! trade-off the trains probe — `bsd` (one-entry cache: wins at long
//! trains), `sequent(19)`, `front+sequent(19)` (the filter must not tax
//! the all-hit path), and `cuckoo`.
//!
//! `TCPDEMUX_SMOKE=1` shrinks the packet budget; labels are unchanged.
//! Pass `--json <path>` to write the snapshot.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::time::Instant;
use tcpdemux_bench::harness::{bb, maybe_write_json_owned, record, smoke, Measurement};
use tcpdemux_bench::table::Table;
use tcpdemux_core::{CuckooDemux, Demux, FrontDemux, PacketKind, SequentDemux, SuiteEntry};
use tcpdemux_hash::Multiplicative;
use tcpdemux_pcb::{ConnectionKey, PcbId};
use tcpdemux_sim::runner::run_trace;
use tcpdemux_sim::trains::expected_bsd_hit_rate;
use tcpdemux_sim::{SimTime, TraceEvent};
use tcpdemux_stack::{steering_key, Stack, StackConfig, TxScratch, WindowConfig};

/// Concurrent connections (the paper's OLTP front ends run few, long
/// bulk flows; 64 matches A4).
const CONNECTIONS: usize = 64;

/// Segment size: MSS and the unit of `L` below.
const SEGMENT: usize = 512;

/// Window sizes swept, in segments — each is both `initial_cwnd` and
/// the application's burst write, so it is the train length on the wire.
const WINDOWS: [usize; 4] = [2, 4, 16, 64];

const PORT: u16 = 9000;

fn packets() -> usize {
    if smoke() {
        4_000
    } else {
        30_000
    }
}

fn reps() -> usize {
    if smoke() {
        2
    } else {
        5
    }
}

/// Drive a client/server stack pair until ~`budget` data segments have
/// crossed the wire in bursts of `l`, returning the established
/// server-perspective keys and the server's arrival trace.
fn generate(l: usize, budget: usize) -> (Vec<ConnectionKey>, Vec<TraceEvent>) {
    let server_addr = Ipv4Addr::new(10, 4, 0, 1);
    let client_addr = Ipv4Addr::new(10, 4, 0, 2);
    let window = WindowConfig::default()
        .with_advertise(u16::MAX)
        .with_recv_buffer(256 * 1024)
        .with_initial_cwnd(l * SEGMENT);
    let mut server = Stack::with_config(
        StackConfig::new(server_addr)
            .with_window(window.clone())
            .with_mss(SEGMENT as u16)
            .with_demux(|| Box::new(SequentDemux::new(Multiplicative, 19))),
    );
    let mut client = Stack::with_config(
        StackConfig::new(client_addr)
            .with_window(window)
            .with_mss(SEGMENT as u16)
            .with_demux(|| Box::new(SequentDemux::new(Multiplicative, 19))),
    );
    server.listen(PORT).expect("fresh stack");

    // Establish CONNECTIONS flows; the wire is a zero-latency function
    // call, so each handshake completes inside its loop iteration.
    let mut conns: Vec<PcbId> = Vec::with_capacity(CONNECTIONS);
    let mut keys: Vec<ConnectionKey> = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let (cp, syn) = client.connect(server_addr, PORT).expect("connect");
        let mut to_client: VecDeque<Vec<u8>> = VecDeque::new();
        let synack = server.receive(&syn).expect("clean wire");
        to_client.extend(synack.replies);
        while let Some(frame) = to_client.pop_front() {
            let r = client.receive(&frame).expect("clean wire");
            for reply in r.replies {
                let rr = server.receive(&reply).expect("clean wire");
                to_client.extend(rr.replies);
            }
        }
        conns.push(cp);
        let ck = client.connection_key(cp).expect("established");
        // Server perspective: local and remote endpoints swap.
        keys.push(ConnectionKey::new(
            server_addr,
            PORT,
            client_addr,
            ck.local_port,
        ));
    }

    let mut trace: Vec<TraceEvent> = keys
        .iter()
        .map(|&key| TraceEvent::Open {
            at: SimTime(0),
            key,
        })
        .collect();

    // The measured regime: the application writes one window's worth on
    // a connection, the stack emits the burst, the server's arrival
    // order is the trace. ACK replies flow back so cwnd never stalls
    // (delayed ACKs are off — every data segment is ACKed, the
    // send-recv structure's 50% regime).
    let payload = vec![0xA5u8; l * SEGMENT];
    let mut scratch = TxScratch::new();
    let mut at = 1u64;
    let mut arrivals = 0usize;
    'outer: loop {
        for &cp in &conns {
            let accepted = client.send(cp, &payload).expect("established");
            assert_eq!(accepted, payload.len(), "send buffer should be drained");
            client.poll_transmit(&mut scratch);
            let burst: Vec<Vec<u8>> = scratch.frames.drain(..).collect();
            for frame in burst {
                if let Some(key) = steering_key(&frame) {
                    trace.push(TraceEvent::Arrival {
                        at: SimTime(at),
                        key,
                        kind: PacketKind::Data,
                    });
                    at += 1;
                    arrivals += 1;
                }
                let r = server.receive(&frame).expect("clean wire");
                for ack in r.replies {
                    client.receive(&ack).expect("clean wire");
                }
            }
            // Drain the socket so the receive window never closes.
            if let Some(sp) = server.accept(PORT) {
                let _ = sp;
            }
            if arrivals >= budget {
                break 'outer;
            }
        }
    }
    (keys, trace)
}

/// The timed tiers: the cache the trains vindicate, the paper's chained
/// table, the front-filtered variant (its all-hit tax), and cuckoo.
fn tiers(keys: &[ConnectionKey]) -> Vec<(&'static str, Box<dyn Demux>)> {
    let mut out: Vec<(&'static str, Box<dyn Demux>)> = vec![
        ("bsd", Box::new(SequentDemux::bsd())),
        (
            "sequent(19)",
            Box::new(SequentDemux::new(Multiplicative, 19)),
        ),
        (
            "front+sequent(19)",
            Box::new(FrontDemux::new(SequentDemux::new(Multiplicative, 19))),
        ),
        ("cuckoo", Box::new(CuckooDemux::new())),
    ];
    for (_, demux) in out.iter_mut() {
        for (i, &key) in keys.iter().enumerate() {
            demux.insert(key, PcbId::from_bits(i as u64));
        }
    }
    out
}

fn main() {
    println!("A4b: packet trains generated by the windowed send path");
    println!("(burst length = app write = initial cwnd; arrivals read from real frames)\n");

    let mut table = Table::new(vec![
        "cwnd (seg)",
        "predicted BSD hit",
        "BSD hit",
        "BSD cost",
        "sequent(19) cost",
        "front+sequent(19) cost",
    ]);

    for &l in &WINDOWS {
        let (keys, trace) = generate(l, packets());
        let arrival_keys: Vec<ConnectionKey> = trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Arrival { key, .. } => Some(key),
                _ => None,
            })
            .collect();

        // Paired hit-rate comparison over the whole suite.
        let mut suite: Vec<SuiteEntry> = tcpdemux_core::standard_suite();
        let reports = run_trace(trace.clone(), &mut suite);
        let get = |name: &str| reports.iter().find(|r| r.name == name).unwrap();
        for r in &reports {
            assert_eq!(
                r.lost_packets, 0,
                "{}: stack-generated trace lost packets",
                r.name
            );
        }
        let bsd_hit = get("bsd").stats.hit_rate();
        table.row(vec![
            format!("{l}"),
            format!("{:.2}", expected_bsd_hit_rate(l as f64)),
            format!("{bsd_hit:.2}"),
            format!("{:.2}", get("bsd").stats.mean_examined()),
            format!("{:.2}", get("sequent(19)").stats.mean_examined()),
            format!("{:.2}", get("front+sequent(19)").stats.mean_examined()),
        ]);

        // Timed cells: raw lookup cost over the same arrival sequence.
        for (name, mut demux) in tiers(&keys) {
            let samples: Vec<f64> = (0..reps())
                .map(|_| {
                    let start = Instant::now();
                    for key in &arrival_keys {
                        bb(demux.lookup(bb(key), PacketKind::Data));
                    }
                    start.elapsed().as_nanos() as f64 / arrival_keys.len() as f64
                })
                .collect();
            let label = format!("train_windowed/lookup/cwnd={l}seg/{name}");
            let m = Measurement::from_samples(&label, &samples, arrival_keys.len() as u64);
            println!(
                "{:<48} {:>8.1} ns/lookup  (min {:>6.1}, {} arrivals/sample)",
                m.label,
                m.median_ns,
                m.min_ns,
                arrival_keys.len()
            );
            record(m);
        }
        println!();
    }

    println!("{}", table.render());
    println!();
    println!("BSD hit tracks 1 - 1/L because the windowed sender really does put");
    println!("L consecutive segments of one flow on the wire per write; the front");
    println!("filter adds no PCB examinations on this all-hit workload.");

    maybe_write_json_owned(
        "train_windowed",
        0,
        &[
            ("connections", CONNECTIONS.to_string()),
            ("segment", SEGMENT.to_string()),
            ("windows", "2/4/16/64 seg".to_string()),
            ("packets", packets().to_string()),
            (
                "tiers",
                "bsd/sequent(19)/front+sequent(19)/cuckoo".to_string(),
            ),
        ],
    );
}
