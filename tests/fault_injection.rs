//! Fault-injection integration: damaged frames must die at the checksum
//! wall and never perturb demultiplexer state; dropped frames must leave
//! connection state recoverable.

use std::net::Ipv4Addr;
use tcpdemux::pcb::PcbId;
use tcpdemux::stack::{FaultInjector, FaultOutcome, RxOutcome, Stack, StackConfig, TxScratch};
use tcpdemux_testprop::sweep_seeds;

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 2);

/// Enqueue one small payload and poll it onto the wire as one frame.
fn send_now(stack: &mut Stack, pcb: PcbId, payload: &[u8]) -> Vec<u8> {
    assert_eq!(stack.send(pcb, payload).unwrap(), payload.len());
    let mut scratch = TxScratch::new();
    assert_eq!(stack.poll_transmit(&mut scratch), 1);
    scratch.frames.pop().unwrap()
}

fn connected_pair() -> (Stack, Stack, tcpdemux::pcb::PcbId) {
    let mut server = Stack::with_config(StackConfig::new(SERVER));
    let mut client = Stack::with_config(StackConfig::new(CLIENT));
    server.listen(5000).unwrap();
    let (cp, syn) = client.connect(SERVER, 5000).unwrap();
    let synack = server.receive(&syn).unwrap().replies;
    let ack = client.receive(&synack[0]).unwrap().replies;
    server.receive(&ack[0]).unwrap();
    (server, client, cp)
}

#[test]
fn corruption_never_reaches_the_demux() {
    let (mut server, mut client, cp) = connected_pair();
    let mut corrupting_link = FaultInjector::new(0.0, 1.0, 99);

    let lookups_before = server.stats().demux.lookups;
    let mut rejected = 0u64;
    for i in 0..200u32 {
        let frame = send_now(&mut client, cp, format!("query {i}").as_bytes());
        match corrupting_link.transmit(&frame) {
            FaultOutcome::Corrupted(bad) => {
                assert!(
                    server.receive(&bad).is_err(),
                    "one-bit corruption must fail a checksum"
                );
                rejected += 1;
                // Deliver the clean copy so sequence state advances.
                let r = server.receive(&frame).unwrap();
                let reply = &r.replies[0];
                client.receive(reply).unwrap();
            }
            _ => unreachable!("corrupt_chance = 1"),
        }
    }
    assert_eq!(rejected, 200);
    assert_eq!(
        server.stats().stack.tcp_errors + server.stats().stack.ip_errors,
        200
    );
    // Each clean copy costs exactly one lookup: corrupted frames none.
    assert_eq!(server.stats().demux.lookups, lookups_before + 200);
}

#[test]
fn drops_leave_state_recoverable() {
    let (mut server, mut client, cp) = connected_pair();
    let mut lossy_link = FaultInjector::new(0.3, 0.0, 1234);

    let mut delivered_payloads = Vec::new();
    for i in 0..100u32 {
        let payload = format!("row-{i:04}");
        let frame = send_now(&mut client, cp, payload.as_bytes());
        // Retransmit until the server takes it (stop-and-wait).
        loop {
            match lossy_link.transmit(&frame) {
                FaultOutcome::Dropped => continue,
                FaultOutcome::Passed(good) => match server.receive(&good).unwrap().outcome {
                    RxOutcome::Delivered { .. } => {
                        delivered_payloads.push(payload.clone());
                        break;
                    }
                    RxOutcome::Duplicate { .. } => break,
                    other => panic!("{other:?}"),
                },
                FaultOutcome::Corrupted(_) => unreachable!("corrupt_chance = 0"),
            }
        }
    }
    assert_eq!(
        delivered_payloads.len(),
        100,
        "every row arrives exactly once"
    );
    assert!(lossy_link.dropped() > 0, "the link did drop frames");
    assert_eq!(
        server.stats().stack.out_of_order_drops,
        0,
        "stop-and-wait: no gaps"
    );
}

/// Regression for the injector aiming flips at unchecksummed bytes: the
/// Ethernet header and trailing pad are covered by no checksum, so a
/// flip there sails through validation and "corruption never reaches
/// the demux" held only by seed luck. Sweep many fault streams and real
/// frame shapes; every flip must now land in checksum-covered bytes and
/// be rejected. `TCPDEMUX_SEEDS` widens the sweep in CI.
#[test]
fn corruption_is_rejected_across_seed_sweep() {
    let seeds = u64::from(sweep_seeds(8));
    let (mut server, mut client, cp) = connected_pair();
    // Frames of several sizes: tiny ones force Ethernet padding, the
    // shape that used to let flips escape every checksum.
    let frames: Vec<Vec<u8>> = [1usize, 2, 5, 64, 400]
        .iter()
        .map(|n| send_now(&mut client, cp, &vec![b'x'; *n]))
        .collect();
    for seed in 1..=seeds {
        for frame in &frames {
            let mut link = FaultInjector::new(0.0, 1.0, seed.wrapping_mul(0xA24B_AED4_963E_E407));
            match link.transmit(frame) {
                FaultOutcome::Corrupted(bad) => assert!(
                    server.receive(&bad).is_err(),
                    "seed {seed}, len {}: flip escaped every checksum",
                    frame.len()
                ),
                other => unreachable!("corrupt_chance = 1: {other:?}"),
            }
        }
    }
    // The connection is still healthy: the clean copies deliver in order.
    for frame in &frames {
        assert!(matches!(
            server.receive(frame).unwrap().outcome,
            RxOutcome::Delivered { .. }
        ));
    }
}

#[test]
fn random_garbage_cannot_crash_the_stack() {
    let mut server = Stack::with_config(StackConfig::new(SERVER));
    server.listen(80).unwrap();
    // Deterministic pseudo-random garbage of many lengths.
    let mut state = 0x1357_9bdfu64;
    for len in 0..300usize {
        let mut frame = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            frame.push((state >> 33) as u8);
        }
        // Must never panic; may error or occasionally parse.
        let _ = server.receive(&frame);
    }
    // And a frame that is valid IPv4 but garbage TCP.
    use tcpdemux::wire::{IpProtocol, Ipv4Packet, Ipv4Repr};
    let ip = Ipv4Repr {
        src_addr: CLIENT,
        dst_addr: SERVER,
        protocol: IpProtocol::Tcp,
        payload_len: 13,
        ttl: 64,
    };
    let mut buf = vec![0xee; 33];
    let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
    ip.emit(&mut packet).unwrap();
    assert!(server.receive(&buf).is_err());
}
