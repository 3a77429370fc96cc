//! Integration tests for the windowed, congestion-controlled send path:
//! delayed-ACK timers vs the RTO, zero-window persist probes, NewReno
//! fast recovery over real two-stack exchanges, a seeded property that
//! the send buffer honors its cap and the peer's window under arbitrary
//! traffic, and a lossy transfer that bounds the send ring's storage.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use tcpdemux::pcb::PcbId;
use tcpdemux::stack::{
    CounterId, FaultInjector, RxOutcome, Stack, StackConfig, TxScratch, WindowConfig,
};
use tcpdemux::wire::{Ipv4Packet, TcpSegment};
use tcpdemux_testprop::{check_cases, sweep_seeds};

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

/// Deliver `frames` to `to`, and what it answers back to `from`.
fn exchange(frames: Vec<Vec<u8>>, to: &mut Stack, from: &mut Stack) {
    for frame in frames {
        for reply in to.receive(&frame).unwrap().replies {
            from.receive(&reply).unwrap();
        }
    }
}

/// A client that has filled a 2,048 B receive buffer nobody reads, and
/// whose window probe the full buffer has refused; with the server, and
/// both ends of the connection.
fn stalled_on_a_closed_window() -> (Stack, Stack, PcbId, PcbId) {
    let window = WindowConfig::default().with_recv_buffer(2048);
    let (mut server, mut client, cp, sp) = connect(
        StackConfig::new(SERVER).with_window(window),
        StackConfig::new(CLIENT),
    );
    assert_eq!(client.send(cp, &[0x5a; 4096]).unwrap(), 4096);
    let mut scratch = TxScratch::new();
    while client.poll_transmit(&mut scratch) > 0 {
        exchange(scratch.frames.drain(..).collect(), &mut server, &mut client);
    }
    assert_eq!(server.socket(sp).unwrap().available(), 2048);
    let probes = client
        .stats()
        .telemetry
        .counter(CounterId::ZeroWindowProbes);
    assert_eq!(probes, 1, "the window closed and the first probe went out");
    (server, client, cp, sp)
}

/// A refused zero-window probe draws an ACK that repeats SND.UNA and the
/// closed window. That says the peer has no room, not that a segment is
/// missing: however many probes it refuses, none counts as a duplicate
/// ACK, and none fires a fast retransmit.
#[test]
fn refused_probes_are_not_duplicate_acks() {
    let (mut server, mut client, cp, _sp) = stalled_on_a_closed_window();
    for _ in 0..4 {
        let due = client.next_timer_deadline().expect("persist timer armed");
        let advance = client.advance_time(due);
        assert_eq!(advance.zero_window_probes, 1);
        exchange(advance.retransmits, &mut server, &mut client);
    }
    assert_eq!(client.congestion(cp).unwrap().dup_acks, 0);
    let stats = client.stats();
    assert_eq!(stats.telemetry.counter(CounterId::FastRetransmits), 0);
    assert_eq!(stats.telemetry.counter(CounterId::ZeroWindowProbes), 5);
}

/// The reader drains the full buffer while a probe is on its way. The
/// probe meets the window last advertised, zero, and is refused, but the
/// ACK refusing it offers the reopened window with the probe's byte
/// still unacknowledged. The sender resumes from SND.UNA and sends that
/// byte again first: data framed behind it would sit in the receiver
/// behind a hole and draw duplicate ACKs.
#[test]
fn a_window_reopened_past_a_refused_probe_resumes_from_the_probe() {
    let (mut server, mut client, cp, sp) = stalled_on_a_closed_window();
    assert_eq!(server.socket_mut(sp).unwrap().read_all().len(), 2048);
    let advance = client.advance_time(client.next_timer_deadline().unwrap());
    let [probe] = &advance.retransmits[..] else {
        panic!("one probe: {:?}", advance.retransmits.len());
    };
    let r = server.receive(probe).unwrap();
    assert!(matches!(r.outcome, RxOutcome::Duplicate { .. }), "refused");
    assert_eq!(window_of(&r.replies[0]), 2048, "but the window is open");
    client.receive(&r.replies[0]).unwrap();

    let mut scratch = TxScratch::new();
    client.poll_transmit(&mut scratch);
    assert_eq!(
        seq_of(&scratch.frames[0]),
        seq_of(probe),
        "resumes at the probe"
    );
    while !scratch.frames.is_empty() {
        exchange(scratch.frames.drain(..).collect(), &mut server, &mut client);
        client.poll_transmit(&mut scratch);
    }
    assert_eq!(server.socket_mut(sp).unwrap().read_all(), [0x5a; 2048]);
    let stats = client.stats();
    assert_eq!(stats.telemetry.counter(CounterId::FastRetransmits), 0);
    assert_eq!(stats.stack.retransmits, 0);
    assert_eq!(server.stats().stack.out_of_order_queued, 0, "no hole");
    assert_eq!(client.send_queued(cp), 0);
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

/// Seeded property: whatever mix of sends, polls and ACK deliveries the
/// generator throws at a connection, what its send buffer holds (bytes
/// in flight plus bytes unsent) never exceeds the configured cap, and a
/// send takes it no further than twice the peer's window at that call,
/// with a 16 KiB floor. Half the cases run a cap under the floor, which
/// binds alone; the others a cap over it, where the peer's window binds.
#[test]
fn send_buffer_occupancy_never_exceeds_cap() {
    const FLOOR: usize = 16 * 1024;
    check_cases("send_buffer_occupancy_never_exceeds_cap", 48, |rng| {
        let cap = if rng.bool() { 4096 } else { 64 * 1024 };
        let advertise = rng.u16_in(1024, 32_768);
        let (mut server, mut client, cp, _sp) = connect(
            StackConfig::new(SERVER).with_window(WindowConfig::default().with_advertise(advertise)),
            StackConfig::new(CLIENT).with_window(WindowConfig::default().with_send_buffer(cap)),
        );
        // The window the client last heard, starting with the SYN-ACK's.
        let mut peer_window = advertise;
        let ops = rng.usize_in(4, 64);
        let mut scratch = TxScratch::new();
        let mut pending_acks: Vec<Vec<u8>> = Vec::new();
        for _ in 0..ops {
            match rng.u8_in(0, 3) {
                // Enqueue a random chunk: the buffer takes what fits
                // under the limit the peer's window sets, and no more.
                0 | 1 => {
                    let before = occupancy(&client, cp);
                    let limit = (2 * usize::from(peer_window)).max(FLOOR).min(cap);
                    let chunk = rng.bytes(1, 40 * 1024);
                    let accepted = client.send(cp, &chunk).unwrap();
                    let after = occupancy(&client, cp);
                    assert_eq!(after, before + accepted);
                    assert_eq!(
                        accepted,
                        chunk.len().min(limit.saturating_sub(before)),
                        "window {peer_window}, cap {cap}, {before} B held"
                    );
                    assert!(accepted == 0 || after <= limit, "{after} > {limit}");
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
                        if client.receive(&ack).is_ok() {
                            peer_window = window_of(&ack);
                        }
                    }
                }
            }
            let held = occupancy(&client, cp);
            assert!(held <= cap, "occupancy {held} exceeds cap {cap}");
        }
    });
}

/// What a connection's send buffer holds: bytes in flight plus bytes
/// not yet framed.
fn occupancy(stack: &Stack, pcb: PcbId) -> usize {
    stack.connection_table()[0].tx_queued + stack.send_queued(pcb)
}

/// The receive window a frame's TCP header advertises.
fn window_of(frame: &[u8]) -> u16 {
    let packet = Ipv4Packet::new_checked(frame).unwrap();
    TcpSegment::new_checked(packet.payload()).unwrap().window()
}

fn seq_of(frame: &[u8]) -> u32 {
    let packet = Ipv4Packet::new_checked(frame).unwrap();
    TcpSegment::new_checked(packet.payload()).unwrap().seq()
}

/// A 1 MiB transfer over links that drop 3 % of frames each way, at the
/// default 8,760 B window: the sender's ring never allocates more than
/// two windows. The receiving application starts late: it reads nothing
/// until the sender has probed the closed window four times, and a ring
/// that grows only to the limit its writes were called under stays
/// within the 16 KiB floor through that closure. From then on the reader
/// takes each segment as it lands, so the window stays open and the
/// application's 8 KiB writes can fill the second window while a loss
/// holds the first. Whether a loss ever holds it long enough depends on
/// where the drops fall, so the sweep asserts that some seed, not every
/// one, takes the ring past the floor. `TCPDEMUX_SEEDS` widens the sweep.
#[test]
fn the_send_ring_holds_two_windows_and_the_floor_while_the_window_is_closed() {
    const BYTES: usize = 1 << 20;
    const FLOOR: usize = 16 * 1024;
    let window = usize::from(WindowConfig::default().advertise);
    let stream: Vec<u8> = (0..BYTES).map(|i| (i % 251) as u8).collect();
    let probes = |stack: &Stack| stack.stats().telemetry.counter(CounterId::ZeroWindowProbes);
    let mut second_window = false;
    for seed in 1..=u64::from(sweep_seeds(2)) {
        // Room for a segment beyond the window, so that a reader that
        // keeps up is always offering the whole window.
        let receiver = WindowConfig::default().with_recv_buffer(window + 1460);
        let (mut server, mut client, cp, sp) = connect(
            StackConfig::new(SERVER).with_window(receiver),
            StackConfig::new(CLIENT),
        );
        // `links[0]`/`wires[0]` carry what the client sends.
        let mut links = [
            FaultInjector::new(0.03, 0.0, seed),
            FaultInjector::new(0.03, 0.0, !seed),
        ];
        let mut wires: [VecDeque<Vec<u8>>; 2] = Default::default();
        let mut scratch = TxScratch::new();
        let (mut now, mut sent, mut received) = (0, 0, Vec::with_capacity(BYTES));
        let (mut peak, mut peak_closed) = (0, 0);
        while received.len() < BYTES {
            let reading = probes(&client) >= 4;
            let mut watch = |client: &Stack| {
                let ring = client.connection_table()[0].tx_ring_bytes;
                peak = peak.max(ring);
                if !reading {
                    peak_closed = peak_closed.max(ring);
                }
            };
            // Deliver until both wires are quiet.
            loop {
                if wires.iter().all(VecDeque::is_empty) {
                    for (link, wire) in links.iter_mut().zip(&mut wires) {
                        link.flush(wire);
                    }
                    if wires.iter().all(VecDeque::is_empty) {
                        break;
                    }
                }
                while let Some(frame) = wires[0].pop_front() {
                    if let Ok(r) = server.receive(&frame) {
                        for reply in r.replies {
                            links[1].transmit_onto(&reply, &mut wires[1]);
                        }
                    }
                    if reading {
                        received.extend(server.socket_mut(sp).unwrap().read_all());
                    }
                }
                while let Some(frame) = wires[1].pop_front() {
                    if let Ok(r) = client.receive(&frame) {
                        for reply in r.replies {
                            links[0].transmit_onto(&reply, &mut wires[0]);
                        }
                    }
                    client.poll_transmit(&mut scratch);
                    for frame in scratch.frames.drain(..) {
                        links[0].transmit_onto(&frame, &mut wires[0]);
                    }
                    watch(&client);
                }
            }
            if reading {
                received.extend(server.socket_mut(sp).unwrap().read_all());
            }
            if sent < BYTES {
                sent += client
                    .send(cp, &stream[sent..BYTES.min(sent + 8192)])
                    .unwrap();
                watch(&client);
                client.poll_transmit(&mut scratch);
                for frame in scratch.frames.drain(..) {
                    links[0].transmit_onto(&frame, &mut wires[0]);
                }
            }
            if wires.iter().all(VecDeque::is_empty) {
                let due = [&client, &server]
                    .into_iter()
                    .filter_map(Stack::next_timer_deadline)
                    .min();
                now = due.map_or(now + 1, |due| due.max(now + 1));
                for frame in client.advance_time(now).retransmits {
                    links[0].transmit_onto(&frame, &mut wires[0]);
                }
                let fired = server.advance_time(now);
                for frame in fired.retransmits.into_iter().chain(fired.acks) {
                    links[1].transmit_onto(&frame, &mut wires[1]);
                }
            }
            assert!(
                now < 100_000_000,
                "seed {seed}: stalled at {} B",
                received.len()
            );
        }
        assert_eq!(received, stream, "seed {seed}");
        assert!(links[0].dropped() + links[1].dropped() > 0, "seed {seed}");
        assert!(peak_closed > 0, "seed {seed}: the window never closed");
        assert!(
            peak_closed <= FLOOR,
            "seed {seed}: {peak_closed} B of ring while the window was closed"
        );
        assert!(
            peak <= 2 * window,
            "seed {seed}: a {peak} B ring for a {window} B window"
        );
        second_window |= peak > FLOOR;
    }
    assert!(second_window, "no seed filled the second window");
}
