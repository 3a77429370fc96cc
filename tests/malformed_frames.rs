//! Malformed frames end somewhere, and the stack can say where.
//!
//! Valid TCP frames for a stack that has a listener and an established
//! connection with unread bytes in its socket, and a UDP datagram and an
//! ICMP message that carry that connection's four-tuple, are damaged in
//! every way a header can lie, and handed to [`Stack::receive`]:
//!
//! * cut short at every length from nothing to one byte less than whole;
//! * one bit flipped inside [`checksum_covered_span`], checksums left as
//!   they were — which must be rejected, always, inside the IPv4 header
//!   and anywhere in a TCP frame (the stack reads no other protocol's
//!   checksum, so past the IPv4 header of one it is only classified);
//! * bytes added and flipped outside it, past the IPv4 total length —
//!   which must change nothing about how the frame is taken;
//! * a lie in the IHL, the total length, the TCP data offset, a TCP
//!   option's kind or length, or the sequence number, and arbitrary
//!   header bytes overwritten — with the checksums recomputed over
//!   whatever the headers now claim (as far as the claim can be
//!   followed), so that the lie is met by the length and option checks
//!   rather than by a checksum.
//!
//! Nothing may panic. Every frame ends as `Err(WireError)` or as an
//! `RxOutcome`; `frames_in` is the number of frames offered, the two error
//! counters together are the number of `Err`s, and `not_for_us` and
//! `bad_protocol` are the number of those outcomes. A frame that was
//! rejected, was for another host or carried another protocol reached no
//! lookup and left every connection and every socket exactly as it found
//! them.
//!
//! The seed sweep is driven by `TCPDEMUX_SEEDS` (default 8;
//! `scripts/verify.sh`'s seed-sweep stage runs a deeper one).

use std::net::Ipv4Addr;
use tcpdemux::pcb::{Pcb, PcbId};
use tcpdemux::stack::{
    checksum_covered_span, ConnectionInfo, RxOutcome, Stack, StackConfig, TxScratch,
};
use tcpdemux::wire::checksum::{checksum, transport_checksum};
use tcpdemux::wire::{
    build_tcp_frame, IpProtocol, Ipv4Packet, Ipv4Repr, TcpFlags, TcpRepr, TcpSegment, WireError,
};
use tcpdemux_testprop::{sweep_seeds, TestRng};

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 9, 9);
const TCP_PORT: u16 = 1521;
const PEER_PORT: u16 = 40_000;
const ISS: u32 = 7_000;
const IP_HEADER: usize = 20;

/// The stack under test and what the peer knows about its one connection.
struct Fixture {
    server: Stack,
    tcp: PcbId,
    /// The next in-order sequence number and what to acknowledge.
    at: (u32, u32),
}

fn tcp_frame(at: (u32, u32), src_port: u16, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let mss = flags.contains(TcpFlags::SYN).then_some(1460);
    tcp_frame_between((src_port, TCP_PORT), at, flags, mss, payload)
}

/// A TCP segment from `PEER` to `SERVER` between any two ports, with the
/// MSS option `mss`.
fn tcp_frame_between(
    (src_port, dst_port): (u16, u16),
    (seq, ack): (u32, u32),
    flags: TcpFlags,
    mss: Option<u16>,
    payload: &[u8],
) -> Vec<u8> {
    let ip = Ipv4Repr::new(PEER, SERVER, IpProtocol::Tcp);
    let tcp = TcpRepr {
        src_port,
        dst_port,
        seq,
        ack,
        flags,
        window: 8760,
        mss,
        window_scale: None,
    };
    build_tcp_frame(&ip, &tcp, payload)
}

/// An IPv4 packet from `PEER` to `SERVER` whose payload is `transport`,
/// labelled as IP protocol `protocol`.
fn ipv4_frame(protocol: u8, transport: &[u8]) -> Vec<u8> {
    let ip = Ipv4Repr {
        payload_len: transport.len(),
        ..Ipv4Repr::new(PEER, SERVER, IpProtocol::from(protocol))
    };
    let mut frame = vec![0; IP_HEADER];
    frame.extend_from_slice(transport);
    ip.emit(&mut Ipv4Packet::new_unchecked(&mut frame[..]))
        .unwrap();
    frame
}

/// A UDP datagram (protocol 17) with a valid checksum, from the TCP
/// connection's remote port to its local one.
fn udp_on_the_connection(payload: &[u8]) -> Vec<u8> {
    let len = (8 + payload.len()) as u16;
    let mut datagram = Vec::new();
    for field in [PEER_PORT, TCP_PORT, len, 0] {
        datagram.extend_from_slice(&field.to_be_bytes());
    }
    datagram.extend_from_slice(payload);
    let sum = transport_checksum(PEER, SERVER, 17, &datagram);
    datagram[6..8].copy_from_slice(&sum.to_be_bytes());
    ipv4_frame(17, &datagram)
}

/// An ICMP port-unreachable (protocol 1) with a valid checksum, quoting
/// the IPv4 header and first eight bytes of a segment the stack sent on
/// the TCP connection at `seq`: its four-tuple, as any ICMP error about
/// the connection carries it.
fn icmp_on_the_connection(seq: u32) -> Vec<u8> {
    let ip = Ipv4Repr::new(SERVER, PEER, IpProtocol::Tcp);
    let tcp = TcpRepr {
        src_port: TCP_PORT,
        dst_port: PEER_PORT,
        seq,
        ..TcpRepr::default()
    };
    let mut message = vec![3, 3, 0, 0, 0, 0, 0, 0];
    message.extend_from_slice(&build_tcp_frame(&ip, &tcp, b"")[..IP_HEADER + 8]);
    let sum = checksum(&message);
    message[2..4].copy_from_slice(&sum.to_be_bytes());
    ipv4_frame(1, &message)
}

impl Fixture {
    fn new() -> Self {
        let mut server = Stack::with_config(StackConfig::new(SERVER));
        server.listen(TCP_PORT).unwrap();
        let opened = server
            .receive(&tcp_frame((ISS, 0), PEER_PORT, TcpFlags::SYN, b""))
            .unwrap();
        let RxOutcome::NewConnection { pcb: tcp } = opened.outcome else {
            panic!("{:?}", opened.outcome);
        };
        let packet = Ipv4Packet::new_checked(&opened.replies[0][..]).unwrap();
        let their_iss = TcpSegment::new_checked(packet.payload()).unwrap().seq();
        let mut at = (ISS + 1, their_iss.wrapping_add(1));
        server
            .receive(&tcp_frame(at, PEER_PORT, TcpFlags::ACK, b""))
            .unwrap();
        assert_eq!(server.accept(TCP_PORT), Some(tcp));
        // Bytes the application has not read, for a rejected frame not to
        // touch.
        let unread = tcp_frame(at, PEER_PORT, TcpFlags::ACK, b"unread");
        server.receive(&unread).unwrap();
        at.0 += 6;
        Self { server, tcp, at }
    }

    /// Valid frames of every kind the stack takes, and two of protocols it
    /// does not, for where the connection stands now.
    fn templates(&self) -> Vec<Vec<u8>> {
        let psh = TcpFlags::ACK | TcpFlags::PSH;
        let data = tcp_frame(self.at, PEER_PORT, psh, &[0x5a; 48]);
        // The same segment behind twelve bytes of options: two NOPs and a
        // ten-byte option the stack does not know.
        let mut optioned = data.clone();
        let options = [1, 1, 8, 10, 0, 0, 0, 1, 0, 0, 0, 2];
        optioned.splice(IP_HEADER + 20..IP_HEADER + 20, options);
        optioned[IP_HEADER + 12] = 8 << 4;
        let total = optioned.len() as u16;
        optioned[2..4].copy_from_slice(&total.to_be_bytes());
        reseal(&mut optioned);
        vec![
            data,
            optioned,
            // A SYN from a port with no connection: MSS option, listener.
            tcp_frame((ISS, 0), PEER_PORT + 1, TcpFlags::SYN, b""),
            udp_on_the_connection(b"to the connection's four-tuple"),
            icmp_on_the_connection(self.at.1),
        ]
    }

    /// Everything a rejected frame must leave alone.
    fn state(&self) -> (Vec<ConnectionInfo>, usize, u64) {
        let unread = self.server.socket(self.tcp).map_or(0, |s| s.available());
        let lookups = self.server.stats().demux.lookups;
        (self.server.connection_table(), unread, lookups)
    }
}

/// Recompute the IPv4 header checksum, and a TCP segment's checksum, over
/// what the header fields now claim, wherever the claim stays inside the
/// frame.
fn reseal(frame: &mut [u8]) {
    if frame.len() < IP_HEADER {
        return;
    }
    let ihl = usize::from(frame[0] & 0x0f) * 4;
    if ihl < IP_HEADER || ihl > frame.len() {
        return;
    }
    frame[10..12].fill(0);
    let sum = checksum(&frame[..ihl]);
    frame[10..12].copy_from_slice(&sum.to_be_bytes());
    let total = usize::from(u16::from_be_bytes([frame[2], frame[3]]));
    if total < ihl || total > frame.len() || frame[9] != 6 {
        return;
    }
    let addr = |at: usize| Ipv4Addr::new(frame[at], frame[at + 1], frame[at + 2], frame[at + 3]);
    let (src, dst) = (addr(12), addr(16));
    let segment = &mut frame[ihl..total];
    if segment.len() < 18 {
        return;
    }
    segment[16..18].fill(0);
    let sum = transport_checksum(src, dst, 6, segment);
    segment[16..18].copy_from_slice(&sum.to_be_bytes());
}

/// How one damaged frame must be taken.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Rejected,
    Accepted,
    /// `Err` or an outcome: either is an answer.
    Classified,
}

/// One seeded lie about `frame`.
fn damage(rng: &mut TestRng, frame: &mut Vec<u8>) -> Expect {
    let ihl = usize::from(frame[0] & 0x0f) * 4;
    let nibble = |byte: u8, high: u8| (byte & 0x0f) | (high << 4);
    let expect = match rng.u32_below(8) {
        0 => {
            let span = checksum_covered_span(frame);
            let at = rng.usize_in(span.start, span.end);
            frame[at] ^= 1 << rng.u32_below(8);
            // Past the IPv4 header of another protocol, no code reads the
            // checksum the flip broke.
            return if at < ihl || frame[9] == 6 {
                Expect::Rejected
            } else {
                Expect::Classified
            };
        }
        1 => {
            // Link-layer padding: not the packet's, not anyone's to check.
            let pad = rng.bytes(1, 9);
            frame.extend_from_slice(&pad);
            return Expect::Accepted;
        }
        2 => {
            frame[0] = 0x40 | rng.u8_in(0, 16);
            Expect::Classified
        }
        3 => {
            let total = rng.usize_in(0, frame.len() + 40) as u16;
            frame[2..4].copy_from_slice(&total.to_be_bytes());
            Expect::Classified
        }
        // The TCP data offset, or the same nibble of whatever is there.
        4 if frame.len() > ihl + 12 => {
            frame[ihl + 12] = nibble(frame[ihl + 12], rng.u8_in(0, 16));
            Expect::Classified
        }
        // An option's kind and length (the other protocols' templates
        // have payload there, which is as good).
        5 if frame.len() > ihl + 22 => {
            let at = ihl + rng.usize_in(20, 23.min(frame.len() - ihl - 1));
            frame[at] = *rng.choose(&[0, 1, 2, 3, 8, 254]);
            frame[at + 1] = *rng.choose(&[0, 1, 2, 3, 4, 11, 40, 255]);
            Expect::Classified
        }
        // The TCP sequence number's high half, or the same bytes of
        // another protocol (a UDP length).
        6 if frame.len() > ihl + 6 => {
            let len = rng.usize_in(0, frame.len() + 20) as u16;
            frame[ihl + 4..ihl + 6].copy_from_slice(&len.to_be_bytes());
            Expect::Classified
        }
        _ => {
            for _ in 0..rng.usize_in(1, 5) {
                let at = rng.usize_in(0, frame.len().min(ihl + 24));
                frame[at] = rng.u8();
            }
            Expect::Classified
        }
    };
    if rng.chance(0.8) {
        reseal(frame);
    }
    expect
}

/// What one fixture was offered and answered, to hold against its own
/// counters.
#[derive(Default)]
struct Tally {
    frames: u64,
    errors: u64,
    not_for_us: u64,
    unhandled: u64,
}

/// Offer `frame`, hold the stack to `expect`, and count what came back.
/// Returns the error, if that is how the frame ended.
fn offer(
    fixture: &mut Fixture,
    frame: &[u8],
    expect: Expect,
    tally: &mut Tally,
    tag: &str,
) -> Option<WireError> {
    let before = fixture.state();
    let result = fixture.server.receive(frame);
    tally.frames += 1;
    match &result {
        Err(error) => {
            assert_ne!(expect, Expect::Accepted, "{tag}: {error:?}");
            assert_eq!(before, fixture.state(), "{tag}: {error:?} changed state");
            tally.errors += 1;
        }
        Ok(result) => {
            assert_ne!(expect, Expect::Rejected, "{tag}: {:?}", result.outcome);
            let outcome = result.outcome;
            if matches!(outcome, RxOutcome::NotForUs | RxOutcome::UnhandledProtocol) {
                assert_eq!(before, fixture.state(), "{tag}: {outcome:?} changed state");
            }
            match outcome {
                RxOutcome::NotForUs => tally.not_for_us += 1,
                RxOutcome::UnhandledProtocol => tally.unhandled += 1,
                // In-order data moves the stream on.
                RxOutcome::Delivered { pcb, bytes } if pcb == fixture.tcp => {
                    fixture.at.0 = fixture.at.0.wrapping_add(bytes as u32);
                }
                _ => {}
            }
        }
    }
    result.err()
}

#[test]
fn malformed_frames_are_rejected_or_classified_across_seeds() {
    for seed in 1..=u64::from(sweep_seeds(8)) {
        let mut rng = TestRng::from_seed(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let mut fixture = Fixture::new();
        let mut tally = Tally::default();
        // The handshake and the unread bytes.
        let setup = fixture.server.stats().stack.frames_in;

        // Every template, cut at every length.
        for (t, template) in fixture.templates().iter().enumerate() {
            for len in 0..template.len() {
                let tag = format!("seed {seed} template {t} cut at {len}");
                offer(
                    &mut fixture,
                    &template[..len],
                    Expect::Rejected,
                    &mut tally,
                    &tag,
                );
            }
        }

        let (mut bad_checksums, mut other_errors) = (0, 0);
        for round in 0..400 {
            // A lie that happens to be a valid RST or FIN is taken at its
            // word; start again from a live connection.
            if !fixture.server.is_established(fixture.tcp) {
                fixture = check_counters(fixture, &mut tally, setup, seed);
            }
            let templates = fixture.templates();
            let t = rng.usize_in(0, templates.len());
            let mut frame = templates[t].clone();
            let expect = damage(&mut rng, &mut frame);
            let tag = format!("seed {seed} round {round} template {t} {expect:?}");
            match offer(&mut fixture, &frame, expect, &mut tally, &tag) {
                Some(WireError::BadChecksum) => bad_checksums += 1,
                Some(_) => other_errors += 1,
                None => {}
            }
        }
        assert!(bad_checksums > 0, "seed {seed}: no checksum failed");
        assert!(
            other_errors > 0,
            "seed {seed}: every lie was caught by a checksum"
        );
        check_counters(fixture, &mut tally, setup, seed);
    }
}

/// A UDP datagram and an ICMP message that carry an established
/// connection's four-tuple are another protocol's frames: neither reaches
/// the table nor writes into the connection's socket, where an
/// application would read its bytes as stream data.
#[test]
fn a_datagram_on_a_live_four_tuple_never_reaches_the_tcp_socket() {
    let mut fixture = Fixture::new();
    let icmp = icmp_on_the_connection(fixture.at.1);
    for (name, frame) in [("udp", udp_on_the_connection(b"INJECTED")), ("icmp", icmp)] {
        let before = fixture.server.stats();
        let unread = fixture.state();
        let result = fixture.server.receive(&frame).unwrap();
        assert_eq!(result.outcome, RxOutcome::UnhandledProtocol, "{name}");
        assert!(result.replies.is_empty(), "{name}");
        let after = fixture.server.stats();
        assert_eq!(
            after.stack.bad_protocol,
            before.stack.bad_protocol + 1,
            "{name}"
        );
        assert_eq!(after.demux.lookups, before.demux.lookups, "{name}");
        assert_eq!(fixture.state(), unread, "{name}");
    }
    let socket = fixture.server.socket_mut(fixture.tcp).unwrap();
    assert_eq!(socket.read_all(), b"unread");
}

/// Hold the stack's counters to the tally, and start both afresh.
fn check_counters(fixture: Fixture, tally: &mut Tally, setup: u64, seed: u64) -> Fixture {
    let stats = fixture.server.stats().stack;
    assert_eq!(stats.frames_in, setup + tally.frames, "seed {seed}");
    assert_eq!(
        stats.ip_errors + stats.tcp_errors,
        tally.errors,
        "seed {seed}"
    );
    assert_eq!(stats.not_for_us, tally.not_for_us, "seed {seed}");
    assert_eq!(stats.bad_protocol, tally.unhandled, "seed {seed}");
    *tally = Tally::default();
    Fixture::new()
}

/// The payload sizes of the frames one poll puts on the wire, and the
/// sequence number just past the last of them.
fn poll_sizes(stack: &mut Stack) -> (Vec<usize>, u32) {
    let mut scratch = TxScratch::new();
    stack.poll_transmit(&mut scratch);
    let mut end = 0;
    let sizes = scratch
        .frames
        .iter()
        .map(|frame| {
            let packet = Ipv4Packet::new_checked(&frame[..]).unwrap();
            let segment = TcpSegment::new_checked(packet.payload()).unwrap();
            end = segment.seq().wrapping_add(segment.payload().len() as u32);
            segment.payload().len()
        })
        .collect();
    (sizes, end)
}

/// Send 16,000 bytes on `pcb`, poll, acknowledge everything polled and
/// poll again: every segment of both rounds carries data, and none is
/// larger than the floor the connection's MSS was raised to. `stack`
/// holds this one connection.
fn sends_non_empty_segments_within_the_floor(
    stack: &mut Stack,
    pcb: PcbId,
    peer: (u16, u16),
    at: u32,
) {
    assert_eq!(stack.connection_table()[0].mss, Pcb::MIN_MSS);
    // More than the peer's 8,760-byte window, so the second round needs
    // the first one's ACK.
    let payload = [0x5a; 16_000];
    assert_eq!(stack.send(pcb, &payload).unwrap(), payload.len());
    let (first, end) = poll_sizes(stack);
    let ack = tcp_frame_between(peer, (at, end), TcpFlags::ACK, None, &[]);
    stack.receive(&ack).unwrap();
    let (second, _) = poll_sizes(stack);
    for sizes in [&first, &second] {
        assert!(!sizes.is_empty(), "{first:?} then {second:?}");
        let floor = usize::from(Pcb::MIN_MSS);
        assert!(
            sizes.iter().all(|&len| len > 0 && len <= floor),
            "{first:?} then {second:?}"
        );
    }
}

/// A SYN whose MSS option reads 0 opens a connection that sends
/// segments of at most `Pcb::MIN_MSS` bytes: neither empty segments nor a
/// congestion window counted in a unit of nothing.
#[test]
fn a_syn_offering_mss_zero_opens_a_connection_that_sends() {
    let mut server = Stack::with_config(StackConfig::new(SERVER));
    server.listen(TCP_PORT).unwrap();
    let ports = (PEER_PORT, TCP_PORT);
    let opened = server
        .receive(&tcp_frame_between(
            ports,
            (ISS, 0),
            TcpFlags::SYN,
            Some(0),
            &[],
        ))
        .unwrap();
    let RxOutcome::NewConnection { pcb } = opened.outcome else {
        panic!("{:?}", opened.outcome);
    };
    let packet = Ipv4Packet::new_checked(&opened.replies[0][..]).unwrap();
    let their_iss = TcpSegment::new_checked(packet.payload()).unwrap().seq();
    let at = ISS + 1;
    server
        .receive(&tcp_frame(
            (at, their_iss.wrapping_add(1)),
            PEER_PORT,
            TcpFlags::ACK,
            &[],
        ))
        .unwrap();
    assert_eq!(server.accept(TCP_PORT), Some(pcb));
    sends_non_empty_segments_within_the_floor(&mut server, pcb, ports, at);
}

/// A SYN-ACK whose MSS option reads 0 completes an active open that
/// sends segments of at most `Pcb::MIN_MSS` bytes.
#[test]
fn a_syn_ack_offering_mss_zero_completes_an_open_that_sends() {
    let mut client = Stack::with_config(StackConfig::new(SERVER));
    let (pcb, syn) = client.connect(PEER, PEER_PORT).unwrap();
    let packet = Ipv4Packet::new_checked(&syn[..]).unwrap();
    let segment = TcpSegment::new_checked(packet.payload()).unwrap();
    let ports = (PEER_PORT, segment.src_port());
    let our_iss = segment.seq();
    let synack = TcpFlags::SYN | TcpFlags::ACK;
    let at = (ISS, our_iss.wrapping_add(1));
    let reply = client
        .receive(&tcp_frame_between(ports, at, synack, Some(0), &[]))
        .unwrap();
    assert!(
        matches!(reply.outcome, RxOutcome::Established { .. }),
        "{:?}",
        reply.outcome
    );
    sends_non_empty_segments_within_the_floor(&mut client, pcb, ports, ISS + 1);
}
