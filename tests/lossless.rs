//! A link that loses nothing must see nothing retransmitted.
//!
//! Each seed draws one transfer: a receive buffer from one MSS to
//! 64 KiB, the MSS the receiver offers (88, 536 or 1,460 B), delayed
//! ACKs off or on, a one-way delay of 0 or 10 ticks, a reader that
//! stalls now and then and resumes, and a transfer of 1 B to 1 MiB. The
//! sender's window closes and reopens, it probes the closed window, and
//! it may send no more than the receiver has room for. None of that is
//! a loss, so the transfer must finish with no fast retransmit and no
//! RTO retransmission other than the persist timer's probes, and with
//! every byte read once, in order. `TCPDEMUX_SEEDS` widens the sweep.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use tcpdemux::stack::{CounterId, Stack, StackConfig, TxScratch, WindowConfig};
use tcpdemux_testprop::{sweep_seeds, TestRng};

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 2);
const PORT: u16 = 7000;
/// A transfer still running at this tick has stalled.
const HORIZON: u64 = 100_000_000;

/// One transfer's parameters.
#[derive(Debug)]
struct Transfer {
    bytes: usize,
    recv_buffer: usize,
    /// The MSS the receiver offers in its SYN-ACK.
    mss: u16,
    delayed_ack: Option<u64>,
    /// One-way delay of the link, in ticks.
    delay: u64,
    /// Chance the reader stalls after a read, and the longest stall.
    stall_chance: f64,
    longest_stall: u64,
}

/// `lo..=hi`, log-uniformly: small values as often as large ones.
fn log_uniform(rng: &mut TestRng, lo: usize, hi: usize) -> usize {
    let (lo, hi) = (lo as f64, hi as f64);
    ((lo * (hi / lo).powf(rng.f64())).round() as usize).clamp(lo as usize, hi as usize)
}

impl Transfer {
    fn draw(rng: &mut TestRng) -> Self {
        let mss = *rng.choose(&[88, 536, 1460]);
        Self {
            bytes: *rng.choose(&[1, 100, 1460, 10_000, 100_000, 1 << 20]),
            recv_buffer: log_uniform(rng, usize::from(mss), 64 * 1024),
            mss,
            delayed_ack: *rng.choose(&[None, Some(10), Some(40)]),
            delay: *rng.choose(&[0, 10]),
            stall_chance: *rng.choose(&[0.0, 0.02, 0.2]),
            longest_stall: *rng.choose(&[50, 2_000]),
        }
    }
}

/// What a transfer counted.
#[derive(Debug, PartialEq)]
struct Counts {
    fast_retransmits: u64,
    rto_retransmits: u64,
}

/// Run one transfer to the end: every byte read by the receiving
/// application, which is checked against the stream.
fn run(t: &Transfer, rng: &mut TestRng) -> Counts {
    let mut window = WindowConfig::default().with_recv_buffer(t.recv_buffer);
    if let Some(ticks) = t.delayed_ack {
        window = window.with_delayed_ack(ticks);
    }
    let mut server =
        Stack::with_config(StackConfig::new(SERVER).with_window(window).with_mss(t.mss));
    let mut client = Stack::with_config(StackConfig::new(CLIENT));
    server.listen(PORT).unwrap();
    let stream: Vec<u8> = (0..t.bytes).map(|i| (i % 251) as u8).collect();

    // Frames on the wire, in the order they land: (due, to the server,
    // frame). The delay is fixed, so pushing at the back keeps them
    // sorted.
    let mut wire: VecDeque<(u64, bool, Vec<u8>)> = VecDeque::new();
    let (cp, syn) = client.connect(SERVER, PORT).unwrap();
    wire.push_back((t.delay, true, syn));
    let mut scratch = TxScratch::new();
    let (mut now, mut sent, mut read) = (0, 0, Vec::with_capacity(t.bytes));
    let (mut sp, mut reading_from) = (None, 0);
    while read.len() < t.bytes {
        for (stack, to_server) in [(&mut client, true), (&mut server, false)] {
            let advance = stack.advance_time(now);
            assert!(advance.aborted.is_empty(), "{t:?}");
            for frame in advance.retransmits.into_iter().chain(advance.acks) {
                wire.push_back((now + t.delay, to_server, frame));
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
                wire.push_back((now + t.delay, back, reply));
            }
        }
        sp = sp.or_else(|| server.accept(PORT));
        if let Some(sp) = sp.filter(|_| now >= reading_from) {
            // Reading reopens the window. The sender learns of it from
            // the next ACK, or from the answer to its next probe.
            let before = read.len();
            read.extend(server.socket_mut(sp).unwrap().read_all());
            if read.len() > before && rng.chance(t.stall_chance) {
                reading_from = now + rng.u64_in(1, t.longest_stall);
            }
        }
        if client.is_established(cp) {
            sent += client.send(cp, &stream[sent..]).unwrap();
            client.poll_transmit(&mut scratch);
            for frame in scratch.frames.drain(..) {
                wire.push_back((now + t.delay, true, frame));
            }
        }
        if read.len() == t.bytes {
            break;
        }
        // Jump to the next thing that happens: an arrival, a timer, or
        // the reader waking up.
        let next = [
            wire.front().map(|w| w.0),
            client.next_timer_deadline(),
            server.next_timer_deadline(),
            (reading_from > now).then_some(reading_from),
        ]
        .into_iter()
        .flatten()
        .min();
        now = next.unwrap_or_else(|| panic!("nothing left to happen at tick {now}: {t:?}"));
        assert!(now < HORIZON, "{t:?} stalled");
    }
    assert!(read == stream, "{t:?}: the stream arrived altered");
    let stats = client.stats();
    Counts {
        fast_retransmits: stats.telemetry.counter(CounterId::FastRetransmits),
        rto_retransmits: stats.stack.retransmits + server.stats().stack.retransmits,
    }
}

#[test]
fn a_lossless_link_retransmits_nothing() {
    for seed in 1..=u64::from(sweep_seeds(8)) {
        let mut rng = TestRng::from_seed(seed);
        let transfer = Transfer::draw(&mut rng);
        let counts = run(&transfer, &mut rng);
        let clean = Counts {
            fast_retransmits: 0,
            rto_retransmits: 0,
        };
        assert_eq!(counts, clean, "seed {seed}: {transfer:?}");
    }
}
