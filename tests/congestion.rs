//! Integration tests for the windowed, congestion-controlled send path:
//! delayed-ACK timers vs the RTO, zero-window persist probes, NewReno
//! fast recovery over real two-stack exchanges, and a seeded property
//! that the send buffer honors its cap under arbitrary traffic.

use std::net::Ipv4Addr;
use tcpdemux::pcb::PcbId;
use tcpdemux::stack::{CounterId, RxOutcome, Stack, StackConfig, TxScratch, WindowConfig};
use tcpdemux_testprop::check_cases;

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 6, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 6, 0, 2);
const PORT: u16 = 6000;

/// Handshake two configured stacks; returns (server, client, cp, sp).
fn connect(server_cfg: StackConfig, client_cfg: StackConfig) -> (Stack, Stack, PcbId, PcbId) {
    let mut server = Stack::with_config(server_cfg);
    let mut client = Stack::with_config(client_cfg);
    server.listen(PORT).unwrap();
    let (cp, syn) = client.connect(SERVER, PORT).unwrap();
    let r = server.receive(&syn).unwrap();
    let RxOutcome::NewConnection { pcb: sp } = r.outcome else {
        panic!("{:?}", r.outcome);
    };
    let r = client.receive(&r.replies[0]).unwrap();
    server.receive(&r.replies[0]).unwrap();
    assert!(client.is_established(cp));
    (server, client, cp, sp)
}

/// Enqueue and poll, returning every frame the window permits now.
fn pump(stack: &mut Stack, pcb: PcbId, payload: &[u8]) -> Vec<Vec<u8>> {
    assert_eq!(stack.send(pcb, payload).unwrap(), payload.len());
    let mut scratch = TxScratch::new();
    stack.poll_transmit(&mut scratch);
    scratch.frames
}

/// A delayed ACK must ride its own timer — and when the *ACK* is lost,
/// the sender's RTO retransmission provokes an immediate duplicate-ACK
/// that repairs the exchange without the sender spiraling into backoff.
#[test]
fn delayed_ack_timer_and_rto_interact_without_spurious_backoff() {
    let window = WindowConfig::default()
        .with_delayed_ack(50)
        .with_ack_every(4);
    let (mut server, mut client, cp, sp) = connect(
        StackConfig::new(SERVER).with_window(window.clone()),
        StackConfig::new(CLIENT).with_window(window),
    );

    // One segment: below ack_every, the server holds the ACK.
    let frames = pump(&mut client, cp, b"delay me");
    assert_eq!(frames.len(), 1);
    let r = server.receive(&frames[0]).unwrap();
    assert!(matches!(r.outcome, RxOutcome::Delivered { .. }));
    assert!(r.replies.is_empty(), "ACK must be deferred to the timer");

    // The delayed-ACK timer fires first (50 ticks vs the RTO's horizon).
    let due = server.next_timer_deadline().expect("ack timer armed");
    let advance = server.advance_time(due);
    assert_eq!(advance.acks.len(), 1, "the held ACK emerges on the timer");
    assert_eq!(advance.acks_sent, 1);
    assert_eq!(server.stats().telemetry.counter(CounterId::DelayedAcks), 1);

    // Scenario one: the ACK arrives; the client's retx queue drains and
    // no retransmission ever happens.
    let r = client.receive(&advance.acks[0]).unwrap();
    assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
    assert_eq!(client.next_timer_deadline(), None, "nothing left in flight");
    assert_eq!(client.stats().stack.retransmits, 0);

    // Scenario two: the next ACK is *lost*. The client RTO-retransmits
    // once; the duplicate provokes an immediate ACK (no delayed-ack
    // wait for out-of-window segments) and the retry counter resets, so
    // the connection is nowhere near its abort budget.
    let frames = pump(&mut client, cp, b"lost ack");
    let r = server.receive(&frames[0]).unwrap();
    assert!(
        r.replies.is_empty(),
        "this ACK is deferred — and will be lost"
    );
    // Drop the server's delayed ACK on the floor (fire and discard).
    let due = server.next_timer_deadline().expect("ack timer armed");
    let _lost = server.advance_time(due);
    // Client's RTO fires and re-emits the head.
    let due = client.next_timer_deadline().expect("retx timer armed");
    let advance = client.advance_time(due);
    assert_eq!(advance.retransmits.len(), 1, "head-only re-emission");
    assert!(advance.aborted.is_empty());
    // The duplicate is re-ACKed immediately, bypassing the delay.
    let r = server.receive(&advance.retransmits[0]).unwrap();
    assert!(matches!(r.outcome, RxOutcome::Duplicate { .. }));
    assert_eq!(r.replies.len(), 1, "duplicates are re-ACKed at once");
    let r = client.receive(&r.replies[0]).unwrap();
    assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
    assert_eq!(client.next_timer_deadline(), None);
    assert_eq!(client.stats().stack.retransmits, 1, "exactly one RTO");
    // The stream is intact on the server.
    assert_eq!(
        server.socket_mut(sp).unwrap().read_all(),
        b"delay melost ack"
    );
}

/// When the peer's receive buffer fills, its window closes; the sender
/// must stop, probe with one byte on the persist timer (never counting
/// the probes against the retry budget), and resume when the
/// application drains the buffer and the window reopens.
#[test]
fn closed_window_probes_until_reopened() {
    // Tiny receive side: 2 KiB buffer, never read until we say so.
    let server_window = WindowConfig::default()
        .with_advertise(2048)
        .with_recv_buffer(2048);
    let (mut server, mut client, cp, sp) = connect(
        StackConfig::new(SERVER).with_window(server_window),
        StackConfig::new(CLIENT).with_max_retries(3),
    );

    // Fill the peer's buffer exactly; ACKs shuttle back so the client
    // learns the shrinking window.
    let payload = vec![0x5a_u8; 4096];
    assert_eq!(client.send(cp, &payload).unwrap(), 4096);
    let mut scratch = TxScratch::new();
    let mut probe_seen = false;
    for _ in 0..8 {
        client.poll_transmit(&mut scratch);
        if scratch.frames.is_empty() {
            break;
        }
        for frame in scratch.frames.drain(..) {
            let r = server.receive(&frame).unwrap();
            for reply in r.replies {
                client.receive(&reply).unwrap();
            }
        }
    }
    assert_eq!(
        server.socket(sp).unwrap().available(),
        2048,
        "receiver buffer filled to its cap"
    );
    // One byte already left the buffer as the first zero-window probe
    // (emitted the moment the window closed with nothing in flight).
    assert_eq!(client.send_queued(cp), 2047, "the rest waits in the buffer");

    // The window is now zero: polling emits at most a 1-byte probe.
    client.poll_transmit(&mut scratch);
    if let Some(frame) = scratch.frames.pop() {
        probe_seen = true;
        let r = server.receive(&frame).unwrap();
        assert!(
            matches!(r.outcome, RxOutcome::Duplicate { .. }),
            "a probe into a full buffer must not deliver: {:?}",
            r.outcome
        );
        for reply in r.replies {
            client.receive(&reply).unwrap(); // re-ACK, window still 0
        }
    }
    // Persist: the probe re-emits on its timer without touching the
    // retry budget (max_retries = 3 would abort a normal segment).
    let mut probes = 0u64;
    for _ in 0..6 {
        let due = client.next_timer_deadline().expect("persist timer armed");
        let advance = client.advance_time(due);
        assert!(advance.aborted.is_empty(), "probes must never abort");
        probes += advance.zero_window_probes;
        for frame in advance.retransmits {
            let r = server.receive(&frame).unwrap();
            for reply in r.replies {
                client.receive(&reply).unwrap();
            }
        }
    }
    assert!(probes >= 4, "probe must outlive the retry budget: {probes}");
    assert!(
        client
            .stats()
            .telemetry
            .counter(CounterId::ZeroWindowProbes)
            > 0
    );

    // The application finally drains the receiver; the next probe lands
    // (1 byte fits), its ACK advertises the reopened window, and the
    // transfer finishes.
    let mut sink = vec![0u8; 4096];
    assert_eq!(server.socket_mut(sp).unwrap().read_into(&mut sink), 2048);
    let mut rounds = 0;
    while client.send_queued(cp) > 0 || server.socket(sp).unwrap().available() < 2048 {
        rounds += 1;
        assert!(rounds < 64, "window reopen must unblock the transfer");
        if let Some(due) = client.next_timer_deadline() {
            let advance = client.advance_time(due);
            for frame in advance.retransmits {
                let r = server.receive(&frame).unwrap();
                for reply in r.replies {
                    client.receive(&reply).unwrap();
                }
            }
        }
        client.poll_transmit(&mut scratch);
        for frame in scratch.frames.drain(..) {
            let r = server.receive(&frame).unwrap();
            for reply in r.replies {
                client.receive(&reply).unwrap();
            }
        }
    }
    assert!(probe_seen || probes > 0, "the stall must have been probed");
    let tail = server.socket_mut(sp).unwrap().read_all();
    assert_eq!(tail.len(), 2048);
    assert!(tail.iter().all(|&b| b == 0x5a), "stream bytes intact");
}

/// NewReno fast recovery against the real, reassembling receiver, with
/// two segments of one window lost: three duplicate ACKs trigger fast
/// retransmit; the receiver kept everything behind the first hole, so
/// the retransmission's ACK runs up to the second — partial, which
/// re-emits that head while recovery stays open; the ACK that reaches
/// the `recover` mark closes it, and no segment that arrived is resent.
#[test]
fn newreno_partial_acks_repair_the_window_then_exit_recovery() {
    let window = WindowConfig::default()
        .with_advertise(32_000)
        .with_recv_buffer(64 * 1024)
        .with_initial_cwnd(16 * 1460);
    let (mut server, mut client, cp, sp) = connect(
        StackConfig::new(SERVER).with_window(window.clone()),
        StackConfig::new(CLIENT).with_window(window),
    );

    // Eight full segments in one poll; the first and the fifth are "lost".
    let payload: Vec<u8> = (0..8 * 1460u32).map(|i| i as u8).collect();
    let frames = pump(&mut client, cp, &payload);
    assert_eq!(frames.len(), 8, "cwnd must cover the whole burst");

    let mut dup_acks = Vec::new();
    for frame in frames[1..4].iter().chain(&frames[5..]) {
        let r = server.receive(frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Duplicate { .. }));
        dup_acks.extend(r.replies);
    }
    assert_eq!(dup_acks.len(), 6);

    // Feed the duplicates: the third must provoke fast retransmit.
    let mut retransmission = None;
    for (i, ack) in dup_acks.iter().enumerate() {
        let r = client.receive(ack).unwrap();
        if i + 1 < 3 {
            assert!(r.replies.is_empty(), "dup #{} must not retransmit", i + 1);
        } else if i + 1 == 3 {
            assert_eq!(r.replies.len(), 1, "third duplicate fires the head");
            retransmission = Some(r.replies[0].clone());
        }
    }
    let cong = client.congestion(cp).expect("live");
    assert!(cong.in_recovery, "fast recovery must be open");
    assert!(client.stats().telemetry.counter(CounterId::FastRetransmits) >= 1);

    // Partial-ACK chain: the retransmitted head fills the first hole, so
    // its ACK stops at the second and is partial; NewReno re-emits that
    // head, whose ACK reaches the mark, all without any RTO.
    let mut next = retransmission.expect("fast retransmit frame");
    let mut hops = 0;
    loop {
        hops += 1;
        assert!(hops <= 16, "recovery must converge");
        let r = server.receive(&next).unwrap();
        let RxOutcome::Delivered { bytes, .. } = r.outcome else {
            panic!("{:?}", r.outcome);
        };
        assert_eq!(bytes, 4 * 1460, "the filler and the three held behind it");
        let ack = r.replies.into_iter().next().expect("cumulative ACK");
        let r = client.receive(&ack).unwrap();
        match r.replies.into_iter().next() {
            Some(frame) => {
                assert!(
                    client.congestion(cp).unwrap().in_recovery,
                    "partial ACKs keep recovery open"
                );
                next = frame;
            }
            None => break, // the full ACK closed recovery
        }
    }
    assert_eq!(hops, 2, "one retransmission per lost segment");
    let cong = client.congestion(cp).expect("live");
    assert!(!cong.in_recovery, "full ACK must exit fast recovery");
    assert_eq!(cong.cwnd, cong.ssthresh, "window deflates to ssthresh");
    assert_eq!(client.stats().stack.retransmits, 0, "no RTO was needed");
    assert_eq!(
        server.socket_mut(sp).unwrap().read_all(),
        payload,
        "the whole burst arrived exactly once, in order"
    );
}

/// Seeded property: whatever mix of sends, polls, ACK deliveries, and
/// timer fires the generator throws at a connection, the bytes queued
/// in the send buffer never exceed the configured cap, and `send`
/// never accepts more than the free space it reported.
#[test]
fn send_buffer_occupancy_never_exceeds_cap() {
    const CAP: usize = 4096;
    check_cases("send_buffer_occupancy_never_exceeds_cap", 48, |rng| {
        let window = WindowConfig::default().with_send_buffer(CAP);
        let (mut server, mut client, cp, _sp) = connect(
            StackConfig::new(SERVER),
            StackConfig::new(CLIENT).with_window(window),
        );
        let ops = rng.usize_in(4, 64);
        let mut scratch = TxScratch::new();
        let mut pending_acks: Vec<Vec<u8>> = Vec::new();
        for _ in 0..ops {
            match rng.u8_in(0, 3) {
                // Enqueue a random chunk; acceptance is bounded by cap.
                0 | 1 => {
                    let queued_before = client.send_queued(cp);
                    let chunk = rng.bytes(1, 2 * CAP);
                    let accepted = client.send(cp, &chunk).unwrap();
                    assert!(accepted <= CAP - queued_before);
                }
                // Put whatever the window allows on the wire.
                2 => {
                    client.poll_transmit(&mut scratch);
                    for frame in scratch.frames.drain(..) {
                        if let Ok(r) = server.receive(&frame) {
                            pending_acks.extend(r.replies);
                        }
                    }
                }
                // Deliver some queued ACKs (frees window + buffer).
                _ => {
                    let take = rng.usize_in(0, pending_acks.len().max(1));
                    for ack in pending_acks.drain(..take.min(pending_acks.len())) {
                        let _ = client.receive(&ack);
                    }
                }
            }
            assert!(
                client.send_queued(cp) <= CAP,
                "occupancy {} exceeds cap {CAP}",
                client.send_queued(cp)
            );
        }
    });
}
