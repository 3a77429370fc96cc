//! Property-based integration tests for the receive path: no sequence of
//! frames — valid, mutated, reordered, or duplicated — may panic the
//! stack or corrupt delivery.

use std::net::Ipv4Addr;
use tcpdemux::pcb::PcbId;
use tcpdemux::stack::{RxOutcome, Stack, StackConfig, TxScratch};
use tcpdemux_testprop::check_cases;

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 5, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 5, 0, 2);

/// Enqueue one small payload and poll it onto the wire as one frame.
fn send_now(stack: &mut Stack, pcb: PcbId, payload: &[u8]) -> Vec<u8> {
    assert_eq!(stack.send(pcb, payload).unwrap(), payload.len());
    let mut scratch = TxScratch::new();
    assert_eq!(stack.poll_transmit(&mut scratch), 1);
    scratch.frames.pop().unwrap()
}

fn connected_pair() -> (Stack, Stack, PcbId, PcbId) {
    let mut server = Stack::with_config(StackConfig::new(SERVER));
    let mut client = Stack::with_config(StackConfig::new(CLIENT));
    server.listen(7777).unwrap();
    let (cp, syn) = client.connect(SERVER, 7777).unwrap();
    let r1 = server.receive(&syn).unwrap();
    let RxOutcome::NewConnection { pcb: sp } = r1.outcome else {
        panic!()
    };
    let r2 = client.receive(&r1.replies[0]).unwrap();
    server.receive(&r2.replies[0]).unwrap();
    (server, client, cp, sp)
}

/// Chunked transfer: however the payload is split into segments, the
/// receiver reassembles it exactly.
#[test]
fn chunked_transfer_is_exact() {
    check_cases("chunked_transfer_is_exact", 48, |rng| {
        let payload = rng.bytes(1, 4096);
        let chunk_sizes = rng.vec_of(1, 64, |r| r.usize_in(1, 512));
        let (mut server, mut client, cp, sp) = connected_pair();
        let mut sent = 0;
        let mut chunks = chunk_sizes.iter().cycle();
        while sent < payload.len() {
            let chunk = (*chunks.next().unwrap()).min(payload.len() - sent);
            let frame = send_now(&mut client, cp, &payload[sent..sent + chunk]);
            let r = server.receive(&frame).unwrap();
            let delivered = matches!(r.outcome, RxOutcome::Delivered { .. });
            assert!(delivered, "{:?}", r.outcome);
            // The ack flows back (keeps client snd state honest).
            client.receive(&r.replies[0]).unwrap();
            sent += chunk;
        }
        let received = server.socket_mut(sp).unwrap().read_all();
        assert_eq!(received, payload);
    });
}

/// Duplicating and reordering valid frames never panics, never
/// delivers bytes twice, and never desynchronizes the connection.
#[test]
fn duplication_and_reordering_are_safe() {
    check_cases("duplication_and_reordering_are_safe", 48, |rng| {
        let payloads = rng.vec_of(2, 12, |r| r.bytes(1, 64));
        let order = rng.vec_of(0, 48, |r| (r.usize_in(0, 24), r.u8_in(0, 3)));
        let (mut server, mut client, cp, sp) = connected_pair();
        // Pre-build all frames (sequence numbers fixed at build time).
        let frames: Vec<Vec<u8>> = payloads
            .iter()
            .map(|p| send_now(&mut client, cp, p))
            .collect();
        let total: usize = payloads.iter().map(Vec::len).sum();

        // Deliver in a generator-chosen order with duplicates...
        for (idx, _) in &order {
            let frame = &frames[idx % frames.len()];
            let _ = server.receive(frame).unwrap();
        }
        // ...then in the correct order to guarantee completion.
        for frame in &frames {
            let _ = server.receive(frame).unwrap();
        }
        let received = server.socket_mut(sp).unwrap().read_all();
        assert_eq!(received.len(), total, "no loss, no duplication");
        let expected: Vec<u8> = payloads.concat();
        assert_eq!(received, expected, "in-order delivery");
    });
}

/// Mutating any bytes of a valid frame must never panic; it must
/// either fail validation or (if it still parses) never deliver
/// corrupted bytes as valid payload of this connection's stream
/// position.
#[test]
fn mutated_frames_never_panic() {
    check_cases("mutated_frames_never_panic", 48, |rng| {
        let mutations = rng.vec_of(1, 16, |r| (r.usize_in(0, 2048), r.u8()));
        let payload = rng.bytes(1, 128);
        let (mut server, mut client, cp, _sp) = connected_pair();
        let frame = send_now(&mut client, cp, &payload);
        let mut mutated = frame.clone();
        for (pos, val) in mutations {
            let idx = pos % mutated.len();
            mutated[idx] = val;
        }
        if mutated == frame {
            return; // analogue of prop_assume!
        }
        // Must not panic; the Internet checksum catches essentially all
        // of these (multi-byte mutations can in principle cancel, in
        // which case the frame is simply a different valid frame).
        let _ = server.receive(&mutated);
        // The connection must still work afterwards.
        let good = send_now(&mut client, cp, b"still alive");
        let r = server.receive(&good).unwrap();
        let ok = matches!(r.outcome, RxOutcome::Delivered { .. })
            || matches!(r.outcome, RxOutcome::Duplicate { .. });
        assert!(ok, "{:?}", r.outcome);
    });
}

/// Random binary blobs thrown at the receive path never panic.
#[test]
fn arbitrary_blobs_never_panic() {
    check_cases("arbitrary_blobs_never_panic", 48, |rng| {
        let blob = rng.bytes(0, 256);
        let (mut server, _client, _cp, _sp) = connected_pair();
        let _ = server.receive(&blob);
    });
}
