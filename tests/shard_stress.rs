//! Seeded multi-threaded stress test for the `ShardedStack` runtime.
//!
//! One ingress thread interleaves pre-built data segments from many
//! flows (seeded shuffle, per-flow order preserved — the invariant a NIC
//! provides) and pushes them through [`ShardedStack::enqueue`]; one
//! worker thread per shard drains its own ring concurrently. After the
//! dust settles the test proves, per seed:
//!
//! - **Per-flow ordering**: every connection's server-side socket holds
//!   exactly the bytes its client sent, in order. A reordered or dropped
//!   segment would surface as an `out_of_order_drops` count or a byte
//!   mismatch.
//! - **Zero cross-shard PCB access**: every connection lives in exactly
//!   one shard's table — the shard its key steers to — and no segment
//!   provoked an RST (an RST would mean a frame reached a shard that
//!   does not own the PCB).
//!
//! The seed sweep is driven by `TCPDEMUX_SEEDS` (default 4;
//! `scripts/verify.sh` runs more).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use tcpdemux::pcb::ConnectionKey;
use tcpdemux::stack::{ShardId, ShardedStack, Stack, StackConfig, TxScratch};
use tcpdemux_testprop::{sweep_seeds, TestRng};

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
const PORT: u16 = 1521;
const SHARDS: usize = 4;
const FLOWS: usize = 24;
const SEGMENTS_PER_FLOW: usize = 40;
const SEGMENT_BYTES: usize = 48;

/// Enqueue one small payload and poll it onto the wire as one frame.
fn send_now(stack: &mut Stack, pcb: tcpdemux::pcb::PcbId, payload: &[u8]) -> Vec<u8> {
    assert_eq!(stack.send(pcb, payload).unwrap(), payload.len());
    let mut scratch = TxScratch::new();
    assert_eq!(stack.poll_transmit(&mut scratch), 1);
    scratch.frames.pop().unwrap()
}

struct Flow {
    server_key: ConnectionKey,
    frames: Vec<Vec<u8>>,
    expected: Vec<u8>,
    shard: ShardId,
    pcb: tcpdemux::pcb::PcbId,
}

/// Handshake one client against the server through the rings (single
/// threaded; the concurrency under test is data-path draining).
fn establish(server: &ShardedStack, addr: Ipv4Addr) -> (Stack, tcpdemux::pcb::PcbId) {
    let mut client = Stack::with_config(StackConfig::new(addr));
    let (pcb, syn) = client.connect(SERVER, PORT).expect("connect");
    let shard = server.enqueue(syn).expect("ring space");
    let batch = server.drain(shard, usize::MAX);
    let synack = &batch.results[0].as_ref().expect("syn rx").replies[0];
    let ack = client.receive(synack).expect("synack rx").replies;
    let shard2 = server.enqueue(ack[0].clone()).expect("ring space");
    assert_eq!(shard, shard2, "handshake split across shards");
    server.drain(shard2, usize::MAX);
    assert!(client.is_established(pcb));
    (client, pcb)
}

fn run_one_seed(seed: u64) {
    let server = ShardedStack::with_config(StackConfig::new(SERVER).with_ring_capacity(64), SHARDS);
    server.listen(PORT).expect("fresh port");

    // Establish every flow and pre-build its in-order data segments.
    let mut rng = TestRng::from_seed(seed);
    let mut flows: Vec<Flow> = (0..FLOWS)
        .map(|i| {
            let addr = Ipv4Addr::new(10, 77, 1, i as u8);
            let (mut client, pcb) = establish(&server, addr);
            let client_key = client.connection_key(pcb).expect("live");
            let server_key =
                ConnectionKey::new(SERVER, PORT, client_key.local_addr, client_key.local_port);
            let mut frames = Vec::with_capacity(SEGMENTS_PER_FLOW);
            let mut expected = Vec::new();
            for s in 0..SEGMENTS_PER_FLOW {
                let mut payload = vec![i as u8, s as u8];
                payload.extend(rng.bytes(SEGMENT_BYTES - 2, SEGMENT_BYTES - 1));
                expected.extend_from_slice(&payload);
                frames.push(send_now(&mut client, pcb, &payload));
            }
            Flow {
                server_key,
                frames,
                expected,
                shard: server.steer(&server_key),
                pcb,
            }
        })
        .collect();
    // Map each accepted server-side connection to its (shard, pcb).
    let mut accepted: BTreeMap<ConnectionKey, (ShardId, tcpdemux::pcb::PcbId)> = BTreeMap::new();
    while let Some((shard, pcb)) = server.accept(PORT) {
        let key = server
            .with_shard(shard, |s| s.connection_key(pcb))
            .expect("accepted key");
        accepted.insert(key, (shard, pcb));
    }
    assert_eq!(accepted.len(), FLOWS);

    // Interleave: seeded random merge of the per-flow frame queues.
    let mut queues: Vec<std::collections::VecDeque<Vec<u8>>> = flows
        .iter_mut()
        .map(|f| std::mem::take(&mut f.frames).into())
        .collect();
    let mut ingress_order = Vec::with_capacity(FLOWS * SEGMENTS_PER_FLOW);
    let mut nonempty: Vec<usize> = (0..FLOWS).collect();
    while !nonempty.is_empty() {
        let pick = rng.below(nonempty.len() as u64) as usize;
        let flow = nonempty[pick];
        ingress_order.push(queues[flow].pop_front().expect("nonempty"));
        if queues[flow].is_empty() {
            nonempty.swap_remove(pick);
        }
    }

    // Concurrency: one ingress thread, one worker per shard.
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = &server;
        let done = &done;
        scope.spawn(move || {
            for frame in ingress_order {
                let mut frame = frame;
                loop {
                    match server.enqueue(frame) {
                        Ok(_) => break,
                        Err(full) => {
                            // Ring full: the shard's worker is behind.
                            frame = full.frame;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            done.store(true, Ordering::Release);
        });
        for k in 0..SHARDS {
            scope.spawn(move || {
                let shard = ShardId::new(k);
                loop {
                    let batch = server.drain(shard, 32);
                    // The final sweep guards the race where ingress
                    // pushed between our empty drain and the flag.
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

    // Per-flow ordering: the server socket holds each flow's bytes
    // exactly, in order.
    for flow in &flows {
        let (shard, pcb) = accepted[&flow.server_key];
        assert_eq!(shard, flow.shard, "accept shard disagrees with steering");
        let got = server.with_shard(shard, |s| {
            s.socket_mut(pcb).expect("server socket").read_all()
        });
        assert_eq!(
            got, flow.expected,
            "seed {seed}: flow {:?} bytes corrupted or reordered",
            flow.server_key
        );
        // The client-side PCB is untouched by the server's sharding.
        let _ = flow.pcb;
    }

    // Zero cross-shard PCB access, structurally: each shard's table
    // contains exactly the keys that steer to it.
    let mut seen = 0usize;
    for k in 0..SHARDS {
        let shard = ShardId::new(k);
        let table = server.with_shard(shard, |s| s.connection_table());
        for info in table {
            assert_eq!(
                server.steer(&info.key),
                shard,
                "seed {seed}: {:?} lives on {shard} but steers elsewhere",
                info.key
            );
            assert_eq!(info.shard, shard, "ConnectionInfo shard tag wrong");
            seen += 1;
        }
    }
    assert_eq!(seen, FLOWS, "connections lost or duplicated across shards");

    // And behaviorally: nothing was misdelivered, reordered, or reset.
    let stats = server.stats().stack;
    assert_eq!(
        stats.resets_sent, 0,
        "seed {seed}: a frame reached a non-owner shard"
    );
    assert_eq!(
        stats.out_of_order_drops, 0,
        "seed {seed}: per-flow order broken"
    );
    assert_eq!(stats.tcp_errors, 0);
    assert_eq!(
        stats.bytes_delivered,
        (FLOWS * SEGMENTS_PER_FLOW * SEGMENT_BYTES) as u64
    );
    // Every enqueued frame was drained (no stranded ring slots).
    for ring in server.ring_stats() {
        assert_eq!(ring.pushed, ring.popped, "seed {seed}: stranded frames");
    }
}

#[test]
fn sharded_runtime_preserves_flow_order_under_concurrency() {
    for seed in 0..u64::from(sweep_seeds(4)) {
        run_one_seed(0xDE40 + seed);
    }
}
