//! A wire digest: "nothing on the wire moves" as a test.
//!
//! The stack is sans-IO and deterministic, so a refactor that claims to
//! change no behaviour can be held to it exactly. Each scenario below is
//! a seeded conversation between two stacks over a pair of
//! [`FaultInjector`] links. Every frame a stack emits is hashed with the
//! tick it left at, the side that sent it and its bytes; every frame a
//! stack receives is hashed with the tick, the side and what `receive`
//! made of it (its `RxOutcome` or its error). Each conversation comes
//! to one 64-bit FNV-1a digest, compared with its line in
//! `tests/wire_digest.txt`.
//!
//! A change that moves a digest on purpose (a behaviour change) rewrites
//! the file with
//!
//! ```text
//! TCPDEMUX_WIRE_DIGEST=regen cargo test --test wire_digest
//! ```
//!
//! and says in its change notes why the wire moved.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use tcpdemux::pcb::PcbId;
use tcpdemux::stack::{FaultInjector, Stack, StackConfig, TxScratch, WindowConfig};
use tcpdemux::telemetry::CounterId;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 21, 0, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(10, 21, 0, 1);
const PORT: u16 = 1521;
const DIGESTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/wire_digest.txt");

/// 64-bit FNV-1a.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

/// Which stack: index into [`Conversation`]'s pairs.
const C: usize = 0;
const S: usize = 1;

/// Two stacks, a link each way, and the digest of what crossed them.
struct Conversation {
    stacks: [Stack; 2],
    /// `links[i]` carries what stack `i` sends.
    links: [FaultInjector; 2],
    /// `wires[i]` holds frames on their way to stack `i`.
    wires: [VecDeque<Vec<u8>>; 2],
    tick: u64,
    digest: Digest,
    scratch: TxScratch,
}

impl Conversation {
    fn new(client: StackConfig, server: StackConfig, link: impl Fn(u64) -> FaultInjector) -> Self {
        Self {
            stacks: [Stack::with_config(client), Stack::with_config(server)],
            links: [link(0x5eed_c11e), link(0x5eed_5e7e)],
            wires: [VecDeque::new(), VecDeque::new()],
            tick: 0,
            digest: Digest::new(),
            scratch: TxScratch::new(),
        }
    }

    /// Hash and send frames that stack `from` emitted.
    fn emit(&mut self, from: usize, frames: impl IntoIterator<Item = Vec<u8>>) {
        for frame in frames {
            self.digest.word(self.tick);
            self.digest.word(from as u64);
            self.digest.word(frame.len() as u64);
            self.digest.bytes(&frame);
            self.links[from].transmit_onto(&frame, &mut self.wires[1 - from]);
            self.stacks[from].recycle(frame);
        }
    }

    /// Put on the wire whatever stack `side` has queued and may send.
    fn poll(&mut self, side: usize) {
        self.stacks[side].poll_transmit(&mut self.scratch);
        let frames: Vec<Vec<u8>> = self.scratch.frames.drain(..).collect();
        self.emit(side, frames);
    }

    /// Deliver until both wires are quiet, each stack answering as it
    /// receives; a frame a link holds back goes once nothing can pass it.
    fn settle(&mut self) {
        loop {
            if self.wires.iter().all(VecDeque::is_empty) {
                for side in [C, S] {
                    self.links[side].flush(&mut self.wires[1 - side]);
                }
                if self.wires.iter().all(VecDeque::is_empty) {
                    return;
                }
            }
            for to in [C, S] {
                while let Some(frame) = self.wires[to].pop_front() {
                    let result = self.stacks[to].receive(&frame);
                    let outcome = match &result {
                        Ok(r) => format!("{:?} {}", r.outcome, r.pcbs_examined),
                        Err(e) => format!("error {e:?}"),
                    };
                    self.digest.word(self.tick);
                    self.digest.word(to as u64 | 2);
                    self.digest.bytes(outcome.as_bytes());
                    if let Ok(r) = result {
                        self.emit(to, r.replies);
                    }
                    self.poll(to);
                }
            }
        }
    }

    /// Move both clocks on by `ticks` and send what their timers fire.
    fn advance(&mut self, ticks: u64) {
        self.tick += ticks;
        for side in [C, S] {
            let fired = self.stacks[side].advance_time(self.tick);
            self.emit(side, fired.retransmits.into_iter().chain(fired.acks));
        }
        self.settle();
    }

    /// Jump to the next timer either stack has armed, if any.
    fn advance_to_next_timer(&mut self) -> bool {
        let next = self
            .stacks
            .iter()
            .filter_map(Stack::next_timer_deadline)
            .min();
        match next {
            Some(at) => {
                self.advance(at.saturating_sub(self.tick).max(1));
                true
            }
            None => false,
        }
    }

    /// Open a connection from the client; returns both ends.
    fn open(&mut self) -> (PcbId, PcbId) {
        let (cp, syn) = self.stacks[C].connect(SERVER, PORT).unwrap();
        self.emit(C, [syn]);
        self.settle();
        let sp = self.stacks[S]
            .accept(PORT)
            .expect("the handshake completes");
        assert!(self.stacks[C].is_established(cp));
        (cp, sp)
    }

    /// Queue `payload` on `pcb` of stack `side` and put it on the wire.
    fn send(&mut self, side: usize, pcb: PcbId, payload: &[u8]) {
        assert_eq!(self.stacks[side].send(pcb, payload).unwrap(), payload.len());
        self.poll(side);
    }

    /// Read everything `pcb` of stack `side` holds; returns the count.
    fn read(&mut self, side: usize, pcb: PcbId) -> usize {
        let mut buf = [0u8; 4096];
        let mut total = 0;
        while let Some(n) = self.stacks[side]
            .socket_mut(pcb)
            .map(|s| s.read_into(&mut buf))
            .filter(|&n| n > 0)
        {
            self.digest.bytes(&buf[..n]);
            total += n;
        }
        total
    }
}

fn lossless(_seed: u64) -> FaultInjector {
    FaultInjector::transparent()
}

fn server_config() -> StackConfig {
    StackConfig::new(SERVER)
}

/// TPC/A: 200 connections, each transaction a 100 B request on a random
/// one and a 200 B response, the client acknowledging late.
fn tpca() -> u64 {
    let client = StackConfig::new(CLIENT).with_window(
        WindowConfig::default()
            .with_delayed_ack(3)
            .with_ack_every(2),
    );
    let mut conv = Conversation::new(client, server_config(), lossless);
    conv.stacks[S].listen(PORT).unwrap();
    let conns: Vec<(PcbId, PcbId)> = (0..200).map(|_| conv.open()).collect();
    let mut rng = 0x7bca_u64;
    for t in 0..1_500u32 {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let (cp, sp) = conns[(rng >> 33) as usize % conns.len()];
        conv.send(C, cp, &[t as u8; 100]);
        conv.settle();
        assert_eq!(conv.read(S, sp), 100);
        conv.send(S, sp, &[!t as u8; 200]);
        conv.settle();
        assert_eq!(conv.read(C, cp), 200);
        conv.advance(1);
    }
    conv.digest.0
}

/// Open, one transaction, close — by the client's FIN, the server's FIN
/// or an RST, in turn — beside twenty idle connections; the client keeps
/// TIME-WAIT, so its ports and the 2·MSL timer come into play.
fn churn() -> u64 {
    let client = StackConfig::new(CLIENT).with_time_wait(40);
    let mut conv = Conversation::new(client, server_config(), lossless);
    conv.stacks[S].listen(PORT).unwrap();
    let idle: Vec<_> = (0..20).map(|_| conv.open()).collect();
    for round in 0..300u32 {
        let (cp, sp) = conv.open();
        conv.send(C, cp, &round.to_le_bytes());
        conv.settle();
        assert_eq!(conv.read(S, sp), 4);
        conv.send(S, sp, &[round as u8; 64]);
        conv.settle();
        assert_eq!(conv.read(C, cp), 64);
        let (first, first_pcb, second, second_pcb) = match round % 3 {
            0 => (C, cp, S, sp),
            1 => (S, sp, C, cp),
            _ => {
                let rst = conv.stacks[C].abort(cp).unwrap();
                conv.emit(C, [rst]);
                conv.settle();
                conv.advance(3);
                continue;
            }
        };
        let fin = conv.stacks[first].close(first_pcb).unwrap();
        conv.emit(first, [fin]);
        conv.settle();
        let fin = conv.stacks[second].close(second_pcb).unwrap();
        conv.emit(second, [fin]);
        conv.settle();
        conv.advance(3);
    }
    for (cp, _) in idle {
        conv.send(C, cp, b"still here");
        conv.settle();
    }
    while conv.advance_to_next_timer() {}
    conv.digest.0
}

/// 256 KiB from client to server over links that drop 5 %, duplicate
/// 3 % and reorder 10 % of frames (by up to three places), the sender's
/// timers recovering what is lost.
fn lossy_bulk() -> u64 {
    const BYTES: usize = 256 * 1024;
    let link = |seed| {
        FaultInjector::new(0.05, 0.0, seed)
            .with_duplication(0.03)
            .with_reordering(0.1, 3)
    };
    let mut conv = Conversation::new(StackConfig::new(CLIENT), server_config(), link);
    conv.stacks[S].listen(PORT).unwrap();
    let (cp, syn) = conv.stacks[C].connect(SERVER, PORT).unwrap();
    conv.emit(C, [syn]);
    let (mut sent, mut read, mut sp) = (0, 0, None);
    while read < BYTES {
        conv.settle();
        sp = sp.or_else(|| conv.stacks[S].accept(PORT));
        if let Some(sp) = sp {
            read += conv.read(S, sp);
        }
        if conv.stacks[C].is_established(cp) && sent < BYTES {
            let chunk: Vec<u8> = (sent..BYTES.min(sent + 8192)).map(|i| i as u8).collect();
            sent += conv.stacks[C].send(cp, &chunk).unwrap();
            conv.poll(C);
        }
        if conv.wires.iter().all(VecDeque::is_empty) && !conv.advance_to_next_timer() {
            conv.advance(1);
        }
        assert!(
            conv.tick < 1_000_000,
            "the transfer stalled at {read} bytes"
        );
    }
    let fin = conv.stacks[C].close(cp).unwrap();
    conv.emit(C, [fin]);
    while conv.advance_to_next_timer() {}
    let faults = |count: fn(&FaultInjector) -> u64| conv.links.iter().map(count).sum::<u64>();
    assert!(faults(FaultInjector::dropped) > 0);
    assert!(faults(FaultInjector::duplicated) > 0);
    assert!(faults(FaultInjector::reordered) > 0);
    assert!(conv.stacks[C].stats().stack.retransmits > 0);
    conv.digest.0
}

/// 48 KiB from client to server into a 6,000 B receive buffer whose
/// reader stops twice: at the start and halfway. Each time the window
/// closes, the sender probes it on the persist timer, backing off, until
/// four probes have gone out; then the reader drains and the next
/// probe's ACK reopens the window. The link loses nothing, so nothing
/// but the probes is sent twice.
fn zero_window() -> u64 {
    const BYTES: usize = 48 * 1024;
    let server = server_config().with_window(WindowConfig::default().with_recv_buffer(6000));
    let mut conv = Conversation::new(StackConfig::new(CLIENT), server, lossless);
    conv.stacks[S].listen(PORT).unwrap();
    let (cp, sp) = conv.open();
    let probes = |conv: &Conversation| {
        conv.stacks[C]
            .stats()
            .telemetry
            .counter(CounterId::ZeroWindowProbes)
    };
    let (mut sent, mut read, mut stalls) = (0, 0, 0);
    // While the reader is stopped: the probe count it resumes at.
    let mut resume_at = None;
    while read < BYTES {
        if stalls < 2 && resume_at.is_none() && read >= stalls * BYTES / 2 {
            resume_at = Some(probes(&conv) + 4);
            stalls += 1;
        }
        if resume_at.is_some_and(|at| probes(&conv) >= at) {
            resume_at = None;
        }
        if resume_at.is_none() {
            read += conv.read(S, sp);
        }
        if sent < BYTES {
            let chunk: Vec<u8> = (sent..BYTES.min(sent + 8192)).map(|i| i as u8).collect();
            sent += conv.stacks[C].send(cp, &chunk).unwrap();
            conv.poll(C);
        }
        conv.settle();
        if !conv.advance_to_next_timer() {
            conv.advance(1);
        }
        assert!(
            conv.tick < 1_000_000,
            "the transfer stalled at {read} bytes"
        );
    }
    assert_eq!(stalls, 2);
    assert!(probes(&conv) >= 8, "{} probes", probes(&conv));
    let client = conv.stacks[C].stats();
    assert_eq!(client.telemetry.counter(CounterId::FastRetransmits), 0);
    assert_eq!(client.stack.retransmits, 0, "nothing but probes resent");
    conv.digest.0
}

/// A SYN to a port nobody listens on draws an RST; so does a stray ACK.
fn closed_port() -> u64 {
    let mut conv = Conversation::new(StackConfig::new(CLIENT), server_config(), lossless);
    let (cp, syn) = conv.stacks[C].connect(SERVER, PORT).unwrap();
    conv.emit(C, [syn]);
    conv.settle();
    assert_eq!(conv.stacks[C].state(cp), None, "the RST closes it");
    conv.stacks[S].listen(PORT + 1).unwrap();
    let (cp, syn) = conv.stacks[C].connect(SERVER, PORT + 1).unwrap();
    conv.emit(C, [syn]);
    conv.settle();
    let sp = conv.stacks[S].accept(PORT + 1).unwrap();
    let rst = conv.stacks[S].abort(sp).unwrap();
    // The RST is lost: the client's next segment finds nothing.
    conv.stacks[S].recycle(rst);
    conv.send(C, cp, b"anyone?");
    conv.settle();
    assert_eq!(conv.stacks[C].state(cp), None, "the RST closes it");
    conv.digest.0
}

#[test]
fn nothing_on_the_wire_moves() {
    let digests: Vec<(&str, u64)> = vec![
        ("tpca_200", tpca()),
        ("churn_fin_fin_rst", churn()),
        ("lossy_bulk", lossy_bulk()),
        ("closed_port", closed_port()),
        ("zero_window", zero_window()),
    ];
    let mut text = String::new();
    for (name, digest) in &digests {
        writeln!(text, "{name} {digest:#018x}").unwrap();
    }
    if std::env::var_os("TCPDEMUX_WIRE_DIGEST").is_some_and(|v| v == "regen") {
        std::fs::write(DIGESTS, &text).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(DIGESTS).unwrap();
    let moved: Vec<&str> = text
        .lines()
        .filter(|line| !pinned.lines().any(|p| p == *line))
        .collect();
    assert!(
        moved.is_empty(),
        "the wire moved in {moved:?} (pinned:\n{pinned}); if on purpose, regenerate \
         with TCPDEMUX_WIRE_DIGEST=regen and say why"
    );
}
