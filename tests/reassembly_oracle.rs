//! The receiver against a reference that cannot be wrong in the same way.
//!
//! A [`Stack`] connection and a deliberately naive model are offered
//! the same seeded stream of hand-built segments: in random order,
//! repeated, re-cut so that they overlap each other and straddle RCV.NXT,
//! wholly stale, wholly or partly past the right edge of the window,
//! empty, and with the FIN sent while a hole is still open. The peer's
//! initial sequence number sits just below 2³², so the stream wraps.
//!
//! The model is a `BTreeMap` from stream offset to byte, holding every
//! byte ever offered inside the window the stack last advertised; what
//! is readable is its longest run from offset 0. After every frame the
//! stack must agree with it on the acknowledgement number, on the bytes
//! `read_into` returns, and on how many bytes and holes it holds for
//! reassembly — which may never exceed that window, and is zero whenever
//! nothing is missing.
//!
//! Receive storage is lent from one pool per stack and given back by a
//! socket that has been read dry, so the same conversation is also held on
//! several connections of one stack at once, their segments and their
//! reads (`read_into`, `read`, `read_all`) interleaved: each connection
//! must agree with its own model while its blocks pass through the others'
//! hands.
//!
//! The seed sweep is driven by `TCPDEMUX_SEEDS` (default 8;
//! `scripts/verify.sh`'s seed-sweep stage runs a deeper one).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tcpdemux::pcb::PcbId;
use tcpdemux::stack::{RxOutcome, RxResult, Stack, StackConfig, WindowConfig};
use tcpdemux::wire::{
    build_tcp_frame, IpProtocol, Ipv4Packet, Ipv4Repr, TcpFlags, TcpRepr, TcpSegment,
};
use tcpdemux_testprop::{sweep_seeds, TestRng};

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 7, 7);
const PORT: u16 = 1521;
const MSS: usize = 1460;
/// The peer's initial sequence number: the stream wraps 2³² early on.
const IRS: u32 = u32::MAX - 5_000;
const STREAM: usize = 48 * 1024;

fn stream_byte(offset: usize) -> u8 {
    (offset as u32).wrapping_mul(2_654_435_761).rotate_left(9) as u8
}

fn header_of(frame: &[u8]) -> TcpRepr {
    let packet = Ipv4Packet::new_checked(frame).unwrap();
    let ip = Ipv4Repr::parse(&packet).unwrap();
    let segment = TcpSegment::new_checked(packet.payload()).unwrap();
    TcpRepr::parse(&segment, ip.src_addr, ip.dst_addr).unwrap()
}

/// The hand-built peer: one end of one connection to the server, the
/// reference for what the server should hold of it, and the application
/// reading it.
struct Peer {
    port: u16,
    pcb: PcbId,
    /// What the peer acknowledges: the server sends nothing but its SYN.
    ack: u32,
    oracle: Oracle,
    /// Segments sent so far: from, to, FIN.
    sent: Vec<(usize, usize, bool)>,
    /// Bytes the application has read.
    read: usize,
}

/// One segment from the peer at `port`, acknowledging `ack`, into `server`.
fn segment(
    server: &mut Stack,
    port: u16,
    (seq, ack): (u32, u32),
    flags: TcpFlags,
    payload: &[u8],
) -> RxResult {
    let ip = Ipv4Repr::new(PEER, SERVER, IpProtocol::Tcp);
    let tcp = TcpRepr {
        src_port: port,
        dst_port: PORT,
        seq,
        ack,
        flags,
        window: 8760,
        mss: flags.contains(TcpFlags::SYN).then_some(MSS as u16),
        window_scale: None,
    };
    server
        .receive(&build_tcp_frame(&ip, &tcp, payload))
        .unwrap()
}

impl Peer {
    fn connect(server: &mut Stack, port: u16, window: &WindowConfig) -> Self {
        let opened = segment(server, port, (IRS, 0), TcpFlags::SYN, b"");
        let RxOutcome::NewConnection { pcb } = opened.outcome else {
            panic!("{:?}", opened.outcome);
        };
        let ack = header_of(&opened.replies[0]).seq.wrapping_add(1);
        let at = (IRS.wrapping_add(1), ack);
        let r = segment(server, port, at, TcpFlags::ACK, b"");
        assert_eq!(r.outcome, RxOutcome::Established { pcb });
        assert_eq!(server.accept(PORT), Some(pcb));
        Self {
            port,
            pcb,
            ack,
            oracle: Oracle {
                offered: BTreeMap::new(),
                prefix: 0,
                window: u32::from(window.advertise),
                fin_taken: false,
            },
            sent: Vec::new(),
            read: 0,
        }
    }
}

/// The reference receiver.
struct Oracle {
    /// Every in-window byte offered so far, by stream offset.
    offered: BTreeMap<u32, u8>,
    /// Length of the run of `offered` from offset 0: RCV.NXT.
    prefix: u32,
    /// The window in the stack's latest acknowledgement.
    window: u32,
    fin_taken: bool,
}

impl Oracle {
    /// Offer `bytes` at stream offset `at`, with a FIN behind them or not.
    fn offer(&mut self, at: u32, bytes: &[u8], fin: bool) {
        for (offset, &byte) in (at..).zip(bytes) {
            if offset.wrapping_sub(self.prefix) < self.window {
                self.offered.insert(offset, byte);
            }
        }
        while self.offered.contains_key(&self.prefix) {
            self.prefix += 1;
        }
        self.fin_taken |= fin && self.prefix == at + bytes.len() as u32;
    }

    /// Bytes held past the readable run, and the gaps before and among them.
    fn staged_and_holes(&self) -> (usize, usize) {
        let mut holes = 0;
        let mut next = self.prefix;
        for &offset in self.offered.range(self.prefix..).map(|(k, _)| k) {
            holes += usize::from(offset != next);
            next = offset + 1;
        }
        (self.offered.range(self.prefix..).count(), holes)
    }
}

/// One seeded conversation of `STREAM / connections` bytes on each of
/// `connections` connections of one stack under `window`, interleaved;
/// `lag` is how far a reader lets its socket fill before it reads.
fn converse(seed: u64, window: WindowConfig, lag: usize, connections: u16) {
    let mut rng = TestRng::from_seed(seed);
    let stream: Vec<u8> = (0..STREAM / usize::from(connections))
        .map(stream_byte)
        .collect();
    let mut server = Stack::with_config(StackConfig::new(SERVER).with_window(window.clone()));
    server.listen(PORT).unwrap();
    let mut peers: Vec<Peer> = (0..connections)
        .map(|c| Peer::connect(&mut server, 40_000 + c, &window))
        .collect();
    let mut scratch = vec![0u8; 4096];
    let mut frames = 0u32;
    let mut most_staged = 0;

    loop {
        let talking: Vec<usize> = (0..peers.len())
            .filter(|&c| !peers[c].oracle.fin_taken)
            .collect();
        if talking.is_empty() {
            break;
        }
        let Peer {
            port,
            pcb,
            ack,
            ref mut oracle,
            ref mut sent,
            ref mut read,
        } = peers[*rng.choose(&talking)];
        frames += 1;
        assert!(
            frames < 20_000 * u32::from(connections),
            "seed {seed}: no progress"
        );
        let prefix = oracle.prefix as usize;
        let edge = prefix + oracle.window as usize;
        // Full segments half the time, so that spans meet end to start.
        let len = if rng.bool() {
            MSS
        } else {
            rng.usize_in(1, MSS + 1)
        };
        // Where the next segment starts, and how long it would like to be.
        let (from, len) = match rng.u32_below(20) {
            // In order, or ahead of a hole of up to five segments.
            0..=1 => (prefix, len),
            2..=10 => (prefix + rng.usize_in(1, 6) * MSS, len),
            // Re-cut: overlapping what was offered, straddling RCV.NXT.
            11..=12 => (prefix.saturating_sub(rng.usize_in(0, len)), len),
            13 => (prefix + rng.usize_in(0, 4 * MSS), len),
            // Stale: wholly before RCV.NXT.
            14 => (prefix.saturating_sub(len + rng.usize_in(0, 3 * MSS)), len),
            // Across the right edge, and wholly past it.
            15 => (edge.saturating_sub(rng.usize_in(0, len)), len),
            16 => (edge + rng.usize_in(0, 2 * MSS), len),
            // A zero-length probe somewhere near the window.
            17 => (prefix + rng.usize_in(0, 8 * MSS), 0),
            // Something sent before, again.
            _ if !sent.is_empty() => {
                let (from, to, _) = *rng.choose(sent);
                (from, to - from)
            }
            _ => (prefix, len),
        };
        let from = from.min(stream.len());
        let to = (from + len).min(stream.len());
        // The FIN rides on the last byte more often than not, hole or no.
        let fin = to == stream.len() && len > 0 && rng.chance(0.7);
        sent.push((from, to, fin));

        let flags = if fin {
            TcpFlags::ACK | TcpFlags::FIN
        } else {
            TcpFlags::ACK
        };
        let seq = IRS.wrapping_add(1).wrapping_add(from as u32);
        let r = segment(&mut server, port, (seq, ack), flags, &stream[from..to]);
        oracle.offer(from as u32, &stream[from..to], fin);

        // Every segment that occupies sequence space is answered, and the
        // answer says where the reference says the receiver is.
        let tag = format!("seed {seed} frame {frames} port {port}: {from}..{to} fin {fin}");
        assert_eq!(r.replies.len(), usize::from(to > from || fin), "{tag}");
        for reply in r.replies.iter() {
            let ack = header_of(reply);
            let expect = oracle.prefix + u32::from(oracle.fin_taken);
            assert_eq!(ack.ack, IRS.wrapping_add(1).wrapping_add(expect), "{tag}");
            oracle.window = u32::from(ack.window);
        }
        let table = server.connection_table();
        let row = table.iter().find(|row| row.key.remote_port == port);
        let row = row.expect("the connection is in the table");
        let (staged, holes) = oracle.staged_and_holes();
        assert_eq!((row.rx_staged, row.rx_holes), (staged, holes), "{tag}");
        assert_eq!(row.rx_queued, oracle.prefix as usize - *read, "{tag}");
        assert!(staged <= oracle.window as usize, "{tag}: {staged} B staged");
        most_staged = most_staged.max(staged);

        // The application, which sometimes falls behind, and takes what
        // there is by whichever call it likes.
        if row.rx_queued > lag || rng.chance(0.3) {
            let want = rng.usize_in(1, scratch.len() + 1);
            let socket = server.socket_mut(pcb).unwrap();
            let got = match rng.u32_below(8) {
                0 => socket.read_all(),
                1 => socket.read(want),
                _ => {
                    let n = socket.read_into(&mut scratch[..want]);
                    assert_eq!(n, want.min(row.rx_queued), "{tag}");
                    scratch[..n].to_vec()
                }
            };
            assert!(got.len() <= row.rx_queued, "{tag}");
            assert_eq!(got, stream[*read..*read + got.len()], "{tag}");
            *read += got.len();
        }
    }

    for peer in &peers {
        let socket = server.socket_mut(peer.pcb).unwrap();
        assert_eq!(socket.read_all(), &stream[peer.read..], "seed {seed}");
        assert!(socket.is_eof(), "seed {seed}");
    }
    assert!(most_staged >= MSS, "seed {seed}: the store was never used");
    let stats = server.stats().stack;
    let total = peers.len() * stream.len();
    assert_eq!(stats.bytes_delivered, total as u64, "seed {seed}");
    assert!(stats.out_of_order_queued > 0 && stats.out_of_order_drops > 0);
}

#[test]
fn the_receiver_agrees_with_a_naive_reference_across_seeds() {
    for seed in 1..=u64::from(sweep_seeds(8)) {
        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The default window, read promptly: the window never closes.
        converse(seed, WindowConfig::default(), 2 * MSS, 1);
        // A receive buffer smaller than what the window and a lagging
        // reader ask of it: the advertised window shrinks, closes and
        // reopens, and the store must stay inside whatever it last was.
        let tight = WindowConfig::default()
            .with_advertise(4000)
            .with_recv_buffer(6000);
        converse(seed, tight.clone(), 5000, 1);
        // Both again on three connections of one stack, which pass one
        // another the blocks their sockets fill.
        converse(seed, WindowConfig::default(), 2 * MSS, 3);
        converse(seed, tight, 5000, 3);
    }
}
