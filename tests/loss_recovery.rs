//! End-to-end loss recovery: two stacks over a faulty link must complete
//! real request/response work using nothing but their own timer-driven
//! retransmission, and must abort cleanly when the peer is gone.
//!
//! The lossy-link driver in `tcpdemux::sim::lossy` never redelivers a
//! frame itself — every drop is recovered by an RTO expiry inside
//! `Stack::advance_time`, or not at all.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use tcpdemux::sim::bulk::{run_bulk_transfer, BulkTransferConfig};
use tcpdemux::sim::lossy::{run_lossy_link, LossyLinkConfig};
use tcpdemux::stack::{
    CounterId, FaultInjector, FaultOutcome, SocketError, Stack, StackConfig, TxScratch,
    WindowConfig,
};
use tcpdemux_testprop::sweep_seeds;

/// The issue's acceptance scenario: 20% drop + 5% corruption, one hundred
/// request/response exchanges, recovered purely by retransmission.
#[test]
fn hundred_exchanges_survive_20pct_drop_5pct_corruption() {
    let report = run_lossy_link(&LossyLinkConfig {
        drop_chance: 0.20,
        corrupt_chance: 0.05,
        exchanges: 100,
        ..LossyLinkConfig::default()
    });
    assert_eq!(report.completed, 100, "{report:?}");
    assert!(!report.aborted, "{report:?}");
    assert!(
        report.drops > 0,
        "link must actually have dropped: {report:?}"
    );
    assert!(
        report.client_retransmits + report.server_retransmits > 0,
        "completion must have required retransmission: {report:?}"
    );
    assert_eq!(
        report.corrupted, report.checksum_rejections,
        "every corrupted frame must die at a checksum: {report:?}"
    );
}

/// The recovery machinery must hold under many fault-stream seeds, not
/// one lucky one. `TCPDEMUX_SEEDS` widens the sweep in CI
/// (scripts/verify.sh runs it at 32).
#[test]
fn lossy_link_recovers_across_seeds() {
    for seed in 1..=u64::from(sweep_seeds(8)) {
        let report = run_lossy_link(&LossyLinkConfig {
            drop_chance: 0.20,
            corrupt_chance: 0.05,
            exchanges: 30,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..LossyLinkConfig::default()
        });
        assert_eq!(report.completed, 30, "seed {seed}: {report:?}");
        assert!(!report.aborted, "seed {seed}: {report:?}");
        assert_eq!(
            report.corrupted, report.checksum_rejections,
            "seed {seed}: {report:?}"
        );
    }
}

/// A stream reordered by displacement ≤ d never needs more than d
/// segments of reassembly space (*Identifying almost sorted permutations
/// from TCP buffer dynamics*), and below three duplicate ACKs the sender
/// retransmits nothing; past that bound, with duplication and loss on
/// top, the stream still arrives whole. `TCPDEMUX_SEEDS` widens the
/// sweep (scripts/verify.sh runs it at 32).
#[test]
fn reordered_and_duplicated_streams_reassemble_across_seeds() {
    const MSS: usize = 1460;
    const BYTES: usize = 128 << 10;
    for seed in 1..=u64::from(sweep_seeds(8)) {
        let base = BulkTransferConfig {
            bytes: BYTES,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..BulkTransferConfig::default()
        };
        for max_displacement in [1, 2] {
            let report = run_bulk_transfer(&BulkTransferConfig {
                reorder_chance: 0.2,
                max_displacement,
                ..base.clone()
            });
            let tag = format!("seed {seed} displacement {max_displacement}: {report:?}");
            assert!(report.verified && !report.aborted, "{tag}");
            assert!(report.reordered > 0, "{tag}");
            assert_eq!(report.frames_sent, BYTES.div_ceil(MSS) as u64, "{tag}");
            assert_eq!(report.retransmits + report.fast_retransmits, 0, "{tag}");
            assert!(
                (1..=max_displacement as usize * MSS).contains(&report.max_rx_staged),
                "{tag}"
            );
        }
        let report = run_bulk_transfer(&BulkTransferConfig {
            drop_chance: 0.10,
            duplicate_chance: 0.05,
            reorder_chance: 0.2,
            max_displacement: 4,
            ..base
        });
        let tag = format!("seed {seed} lossy: {report:?}");
        assert!(report.verified && !report.aborted, "{tag}");
        assert!(report.drops > 0 && report.duplicated > 0, "{tag}");
        // Never more than the window the receiver advertises.
        assert!((1..=8760).contains(&report.max_rx_staged), "{tag}");
    }
}

/// A window of three segments with one of them lost, and more data
/// queued behind it: the two segments that arrive draw two duplicate
/// ACKs, each of which lets one new segment out (Limited Transmit,
/// RFC 3042); those draw the third duplicate, and fast retransmit
/// repairs the loss. The pair runs with its clocks stopped, so a repair
/// that needed the retransmission timer would stall the transfer. In the
/// middle of the recovery the connection table shows it.
#[test]
fn a_three_segment_window_repairs_one_loss_without_an_rto() {
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 9, 1, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 9, 1, 2);
    const MSS: usize = 1460;
    let window = WindowConfig::default().with_initial_cwnd(3 * MSS);
    let mut server = Stack::with_config(StackConfig::new(SERVER));
    let mut client = Stack::with_config(StackConfig::new(CLIENT).with_window(window));
    server.listen(5000).unwrap();
    let (cp, syn) = client.connect(SERVER, 5000).unwrap();
    let synack = server.receive(&syn).unwrap().replies;
    let ack = client.receive(&synack[0]).unwrap().replies;
    server.receive(&ack[0]).unwrap();
    let sp = server.accept(5000).expect("handshake complete");

    let payload: Vec<u8> = (0..8 * MSS).map(|i| i as u8).collect();
    assert_eq!(client.send(cp, &payload).unwrap(), payload.len());
    let mut scratch = TxScratch::new();
    client.poll_transmit(&mut scratch);
    let mut to_server: VecDeque<Vec<u8>> = scratch.frames.drain(..).collect();
    assert_eq!(to_server.len(), 3, "cwnd is three segments");
    to_server.pop_front(); // lost

    let mut to_client = VecDeque::new();
    let mut seen_recovery = false;
    while !(to_server.is_empty() && to_client.is_empty()) {
        while let Some(frame) = to_server.pop_front() {
            to_client.extend(server.receive(&frame).unwrap().replies);
        }
        while let Some(frame) = to_client.pop_front() {
            to_server.extend(client.receive(&frame).unwrap().replies);
            client.poll_transmit(&mut scratch);
            to_server.extend(scratch.frames.drain(..));
            let row = client.connection_table()[0];
            if row.in_recovery && !seen_recovery {
                seen_recovery = true;
                // ssthresh is half of the three segments in flight
                // before Limited Transmit, at least two; cwnd adds the
                // three that left the network.
                assert_eq!(row.mss, MSS as u16, "{row}");
                assert_eq!(row.snd_wnd, 8760, "{row}");
                assert_eq!(row.ssthresh, 2 * MSS, "{row}");
                assert_eq!(row.cwnd, 5 * MSS, "{row}");
                assert!(row.to_string().contains("recovery=true"), "{row}");
            }
        }
    }
    assert!(seen_recovery, "the loss was repaired by fast recovery");
    assert_eq!(server.socket_mut(sp).unwrap().read_all(), payload);
    let stats = client.stats();
    assert_eq!(stats.stack.retransmits, 0, "no RTO");
    assert_eq!(stats.telemetry.counter(CounterId::FastRetransmits), 1);
    let row = client.connection_table()[0];
    assert!(!row.in_recovery && row.cwnd >= row.ssthresh, "{row}");
}

/// When the peer vanishes, retransmission must not spin forever: the
/// connection aborts after `max_retries` backed-off RTOs and the failure
/// surfaces on the socket, with already-delivered data still readable.
#[test]
fn silent_peer_aborts_with_surfaced_socket_error() {
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 2);
    let mut server = Stack::with_config(StackConfig::new(SERVER));
    let mut client = Stack::with_config(StackConfig::new(CLIENT).with_max_retries(4));
    server.listen(5000).unwrap();
    let (cp, syn) = client.connect(SERVER, 5000).unwrap();
    let synack = server.receive(&syn).unwrap().replies;
    let ack = client.receive(&synack[0]).unwrap().replies;
    server.receive(&ack[0]).unwrap();
    assert!(client.is_established(cp));

    // The server goes silent; the polled segment is never answered.
    client.send(cp, b"anyone there?").unwrap();
    let mut scratch = TxScratch::new();
    assert_eq!(
        client.poll_transmit(&mut scratch),
        1,
        "one segment on the wire"
    );
    let mut retransmits = 0u32;
    let aborted = loop {
        let due = client
            .next_timer_deadline()
            .expect("a retransmission timer stays armed until the abort");
        let advance = client.advance_time(due);
        retransmits += advance.retransmits.len() as u32;
        if !advance.aborted.is_empty() {
            break advance.aborted;
        }
        assert!(retransmits <= 4, "must abort once the budget is spent");
    };

    assert_eq!(aborted, vec![cp]);
    assert_eq!(retransmits, 4, "every budgeted retry happened first");
    assert!(!client.is_established(cp));
    assert_eq!(client.state(cp), None, "connection resources reclaimed");
    assert_eq!(client.next_timer_deadline(), None, "no timer left behind");
    // The error is sticky on the surviving socket until the app collects it.
    let socket = client
        .release_socket(cp)
        .expect("socket survives the abort for the application");
    assert_eq!(socket.error(), Some(SocketError::TimedOut));
}

/// A 256 KiB transfer over links that hold every frame 10 ticks, the
/// data's link dropping 3 % of them. A segment that waited in the
/// receiver's reassembly queue behind a loss is acknowledged only when
/// the hole is repaired; its time is the repair's, not the path's, and
/// the ACK that fills the hole must not feed it to the RTT estimate.
/// No ACK is lost, so every sample the sender may take is a clean round
/// trip, and its smoothed RTT is exactly the path's 20 ticks (it read
/// 20.0 to 28.3 when the repairs were averaged in).
#[test]
fn on_a_lossy_link_the_smoothed_rtt_is_the_path_rtt() {
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 9, 2, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 9, 2, 2);
    const DELAY: u64 = 10;
    const BYTES: usize = 256 * 1024;
    const US_PER_TICK: u64 = 1_000;
    let stream: Vec<u8> = (0..BYTES).map(|i| (i % 253) as u8).collect();
    for seed in 1..=u64::from(sweep_seeds(4)) {
        let mut server = Stack::with_config(StackConfig::new(SERVER));
        let mut client = Stack::with_config(StackConfig::new(CLIENT));
        server.listen(5000).unwrap();
        // Frames on the wire, in the order they land: (due, to the
        // server, frame). The delay is fixed, so pushing at the back
        // keeps them sorted.
        let mut wire: VecDeque<(u64, bool, Vec<u8>)> = VecDeque::new();
        let mut data_link = FaultInjector::new(0.03, 0.0, seed);
        let mut put = |wire: &mut VecDeque<_>, now, to_server: bool, frame: Vec<u8>| {
            let dropped = to_server && matches!(data_link.transmit(&frame), FaultOutcome::Dropped);
            if !dropped {
                wire.push_back((now + DELAY, to_server, frame));
            }
        };
        let (cp, syn) = client.connect(SERVER, 5000).unwrap();
        put(&mut wire, 0, true, syn);
        let mut scratch = TxScratch::new();
        let (mut sent, mut received, mut sp) = (0, Vec::with_capacity(BYTES), None);
        while received.len() < BYTES {
            let now = [
                wire.front().map(|w| w.0),
                client.next_timer_deadline(),
                server.next_timer_deadline(),
            ]
            .into_iter()
            .flatten()
            .min()
            .expect("a stalled transfer still has a timer");
            assert!(now < 1_000_000, "seed {seed}: stalled");
            for (stack, to_server) in [(&mut client, true), (&mut server, false)] {
                let advance = stack.advance_time(now);
                assert!(advance.aborted.is_empty(), "seed {seed}");
                for frame in advance.retransmits.into_iter().chain(advance.acks) {
                    put(&mut wire, now, to_server, frame);
                }
            }
            while wire.front().is_some_and(|w| w.0 <= now) {
                let (_, to_server, frame) = wire.pop_front().unwrap();
                let (stack, back) = if to_server {
                    (&mut server, false)
                } else {
                    (&mut client, true)
                };
                for reply in stack.receive(&frame).unwrap().replies {
                    put(&mut wire, now, back, reply);
                }
            }
            sp = sp.or_else(|| server.accept(5000));
            if let Some(sp) = sp {
                received.extend(server.socket_mut(sp).unwrap().read_all());
            }
            if client.is_established(cp) {
                sent += client.send(cp, &stream[sent..]).unwrap();
                client.poll_transmit(&mut scratch);
                for frame in scratch.frames.drain(..) {
                    put(&mut wire, now, true, frame);
                }
            }
        }
        assert_eq!(received, stream, "seed {seed}");
        let stats = client.stats();
        let repairs = stats.stack.retransmits + stats.telemetry.counter(CounterId::FastRetransmits);
        assert!(repairs > 0, "seed {seed}: no loss was repaired");
        let rtt = client.rtt_estimator(cp).unwrap();
        assert_eq!(rtt.srtt(), 2 * DELAY * US_PER_TICK, "seed {seed}");
    }
}
