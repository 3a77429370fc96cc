//! Fault injection for the in-memory link between two stacks.
//!
//! Modeled on smoltcp's example fault injector: frames may be dropped or
//! have a random octet mutated with configurable probabilities. Corrupted
//! frames must be caught by the IPv4 or TCP checksum and never reach the
//! demultiplexer — the integration tests assert exactly that. A link
//! that delivers onto a queue ([`FaultInjector::transmit_onto`]) may also
//! duplicate frames and let later ones overtake them.

use std::collections::VecDeque;
use tcpdemux_sim_free_rng::FaultRng;

/// A tiny xorshift generator so the injector does not depend on the sim
/// crate (and stays deterministic from its seed).
mod tcpdemux_sim_free_rng {
    /// Deterministic xorshift64* stream.
    #[derive(Debug, Clone)]
    pub struct FaultRng(u64);

    impl FaultRng {
        /// Seeded constructor (seed must be nonzero; zero is mapped).
        pub fn new(seed: u64) -> Self {
            Self(seed.max(1))
        }

        /// Next raw value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform float in [0, 1).
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// What the injector did to a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Frame passed through unmodified.
    Passed(Vec<u8>),
    /// Frame passed through with one octet mutated.
    Corrupted(Vec<u8>),
    /// Frame was dropped.
    Dropped,
}

impl FaultOutcome {
    /// The frame to deliver, if any.
    pub fn frame(&self) -> Option<&[u8]> {
        match self {
            FaultOutcome::Passed(f) | FaultOutcome::Corrupted(f) => Some(f),
            FaultOutcome::Dropped => None,
        }
    }
}

/// A lossy, corrupting, duplicating, reordering link.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    drop_chance: f64,
    corrupt_chance: f64,
    duplicate_chance: f64,
    reorder_chance: f64,
    max_displacement: u32,
    /// A frame held back, and how many more frames are to overtake it.
    held: Option<(Vec<u8>, u32)>,
    rng: FaultRng,
    dropped: u64,
    corrupted: u64,
    passed: u64,
    duplicated: u64,
    reordered: u64,
}

impl FaultInjector {
    /// Create an injector. Chances are probabilities in `[0, 1]`.
    pub fn new(drop_chance: f64, corrupt_chance: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&drop_chance));
        assert!((0.0..=1.0).contains(&corrupt_chance));
        Self {
            drop_chance,
            corrupt_chance,
            duplicate_chance: 0.0,
            reorder_chance: 0.0,
            max_displacement: 0,
            held: None,
            rng: FaultRng::new(seed),
            dropped: 0,
            corrupted: 0,
            passed: 0,
            duplicated: 0,
            reordered: 0,
        }
    }

    /// Deliver a surviving frame twice with probability `chance`
    /// ([`transmit_onto`](Self::transmit_onto) only).
    pub fn with_duplication(mut self, chance: f64) -> Self {
        assert!((0.0..=1.0).contains(&chance));
        self.duplicate_chance = chance;
        self
    }

    /// With probability `chance`, hold a surviving frame back until
    /// between one and `max_displacement` later frames have overtaken it
    /// ([`transmit_onto`](Self::transmit_onto) only). One frame is held
    /// at a time, so no frame arrives more than `max_displacement`
    /// places late, nor more than one place early for each frame held.
    pub fn with_reordering(mut self, chance: f64, max_displacement: u32) -> Self {
        assert!((0.0..=1.0).contains(&chance));
        self.reorder_chance = if max_displacement == 0 { 0.0 } else { chance };
        self.max_displacement = max_displacement;
        self
    }

    /// A transparent link.
    pub fn transparent() -> Self {
        Self::new(0.0, 0.0, 1)
    }

    /// Pass a frame through the link.
    ///
    /// Corruption flips exactly one bit, chosen within the span of the
    /// frame that some checksum covers (see [`checksum_covered_span`]).
    /// Flipping a trailing byte past the IPv4 total length — which no
    /// checksum protects — would model a fault the receiver legitimately
    /// cannot detect, and would make "corruption never reaches the demux"
    /// assertions hold only by seed luck.
    pub fn transmit(&mut self, frame: &[u8]) -> FaultOutcome {
        if self.rng.unit() < self.drop_chance {
            self.dropped += 1;
            return FaultOutcome::Dropped;
        }
        if !frame.is_empty() && self.rng.unit() < self.corrupt_chance {
            self.corrupted += 1;
            let mut out = frame.to_vec();
            let span = checksum_covered_span(&out);
            let idx = span.start + (self.rng.next_u64() as usize) % span.len();
            let bit = 1u8 << (self.rng.next_u64() % 8);
            out[idx] ^= bit;
            return FaultOutcome::Corrupted(out);
        }
        self.passed += 1;
        FaultOutcome::Passed(frame.to_vec())
    }

    /// Pass a frame through the link onto `wire`, the queue the far end
    /// receives from: [`transmit`](Self::transmit), and then what
    /// survives may be duplicated and may be overtaken. With neither
    /// configured this draws exactly what `transmit` draws, so a seed
    /// means the same fault stream through either.
    pub fn transmit_onto(&mut self, frame: &[u8], wire: &mut VecDeque<Vec<u8>>) {
        let (FaultOutcome::Passed(frame) | FaultOutcome::Corrupted(frame)) = self.transmit(frame)
        else {
            return;
        };
        if self.duplicate_chance > 0.0 && self.rng.unit() < self.duplicate_chance {
            self.duplicated += 1;
            self.deliver(frame.clone(), wire);
        }
        self.deliver(frame, wire);
    }

    /// Put a surviving frame on the wire, or hold it back; let go of the
    /// held one once enough frames have passed it.
    fn deliver(&mut self, frame: Vec<u8>, wire: &mut VecDeque<Vec<u8>>) {
        match &mut self.held {
            None if self.reorder_chance > 0.0 && self.rng.unit() < self.reorder_chance => {
                self.reordered += 1;
                let late = 1 + (self.rng.next_u64() % u64::from(self.max_displacement)) as u32;
                self.held = Some((frame, late));
            }
            None => wire.push_back(frame),
            Some((_, late)) => {
                wire.push_back(frame);
                *late -= 1;
                if *late == 0 {
                    self.flush(wire);
                }
            }
        }
    }

    /// The wire has gone quiet: deliver the held frame, if any, rather
    /// than wait for frames that may never come to overtake it.
    pub fn flush(&mut self, wire: &mut VecDeque<Vec<u8>>) {
        wire.extend(self.held.take().map(|(frame, _)| frame));
    }

    /// Frames dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Frames passed unmodified so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Frames delivered twice so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Frames held back to be overtaken so far.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }
}

/// The byte range of `frame` that is covered by the IPv4 header checksum
/// or its transport checksum — i.e. the bytes where a single bit flip is
/// guaranteed detectable by a receiver that checks both.
///
/// For an IPv4 packet that is `0 .. total_length`: trailing bytes past the
/// total length are covered by no checksum. Anything else (garbage the
/// parser will reject regardless) is covered as a whole.
pub fn checksum_covered_span(frame: &[u8]) -> core::ops::Range<usize> {
    const IPV4_MIN_LEN: usize = 20;
    if frame.len() >= IPV4_MIN_LEN && frame[0] >> 4 == 4 {
        let total = usize::from(u16::from_be_bytes([frame[2], frame[3]]));
        let end = total.min(frame.len());
        if end > 0 {
            return 0..end;
        }
    }
    0..frame.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_passes_everything() {
        let mut link = FaultInjector::transparent();
        for i in 0..100u8 {
            let frame = vec![i; 10];
            assert_eq!(link.transmit(&frame), FaultOutcome::Passed(frame));
        }
        assert_eq!(link.passed(), 100);
        assert_eq!(link.dropped(), 0);
        assert_eq!(link.corrupted(), 0);
    }

    #[test]
    fn always_drop() {
        let mut link = FaultInjector::new(1.0, 0.0, 7);
        assert_eq!(link.transmit(&[1, 2, 3]), FaultOutcome::Dropped);
        assert_eq!(link.dropped(), 1);
        assert_eq!(link.transmit(&[1]).frame(), None);
    }

    #[test]
    fn always_corrupt_flips_exactly_one_bit() {
        let mut link = FaultInjector::new(0.0, 1.0, 9);
        let frame = vec![0u8; 64];
        match link.transmit(&frame) {
            FaultOutcome::Corrupted(out) => {
                let flipped: u32 = out
                    .iter()
                    .zip(frame.iter())
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(flipped, 1);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn rates_are_approximately_honored() {
        let mut link = FaultInjector::new(0.25, 0.25, 42);
        for _ in 0..10_000 {
            let _ = link.transmit(&[0u8; 40]);
        }
        let drop_rate = link.dropped() as f64 / 10_000.0;
        assert!((drop_rate - 0.25).abs() < 0.02, "{drop_rate}");
        // Corruption applies to the ~75% that survive the drop stage.
        let corrupt_rate = link.corrupted() as f64 / 10_000.0;
        assert!((corrupt_rate - 0.1875).abs() < 0.02, "{corrupt_rate}");
    }

    fn tcp_packet_with_trailing_bytes() -> (Vec<u8>, core::ops::Range<usize>) {
        use std::net::Ipv4Addr;
        use tcpdemux_wire::{build_tcp_frame, IpProtocol, Ipv4Repr, TcpRepr};

        let ip = Ipv4Repr::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Tcp,
        );
        let tcp = TcpRepr {
            src_port: 1521,
            dst_port: 40000,
            ..TcpRepr::default()
        };
        let mut frame = build_tcp_frame(&ip, &tcp, b"x");
        let ip_len = frame.len();
        // Link-layer padding to a 46-byte minimum payload: the pad sits
        // past the IPv4 total length, outside every checksum.
        frame.resize(46, 0);
        (frame, 0..ip_len)
    }

    #[test]
    fn covered_span_recognizes_frame_shapes() {
        let (frame, want) = tcp_packet_with_trailing_bytes();
        assert_eq!(checksum_covered_span(&frame), want);
        // Without the trailing bytes the packet is covered end to end.
        let packet = &frame[..want.end];
        assert_eq!(checksum_covered_span(packet), 0..packet.len());
        // Garbage that does not parse falls back to the whole frame.
        assert_eq!(checksum_covered_span(&[0u8; 10]), 0..10);
        assert_eq!(checksum_covered_span(&[0xffu8; 64]), 0..64);
    }

    #[test]
    fn corruption_only_lands_in_checksum_covered_bytes() {
        // Regression: a flip in the trailing pad is invisible to every
        // checksum, so "corruption is always caught" would hold only by
        // seed luck. Sweep many seeds and assert every flip offset stays
        // inside the covered span.
        let (frame, covered) = tcp_packet_with_trailing_bytes();
        for seed in 1..=512u64 {
            let mut link = FaultInjector::new(0.0, 1.0, seed);
            match link.transmit(&frame) {
                FaultOutcome::Corrupted(out) => {
                    let idx = out
                        .iter()
                        .zip(frame.iter())
                        .position(|(a, b)| a != b)
                        .expect("one byte must differ");
                    assert!(
                        covered.contains(&idx),
                        "seed {seed}: flip at {idx} outside covered {covered:?}"
                    );
                }
                other => panic!("expected corruption, got {other:?}"),
            }
        }
    }

    /// Frames 0..n through `link`, flushed at the end, as the order and
    /// multiplicity in which they come out.
    fn arrivals(link: &mut FaultInjector, n: u8) -> Vec<u8> {
        let mut wire = VecDeque::new();
        for i in 0..n {
            link.transmit_onto(&[i; 4], &mut wire);
        }
        link.flush(&mut wire);
        wire.iter().map(|f| f[0]).collect()
    }

    #[test]
    fn without_duplication_or_reordering_onto_is_transmit() {
        let mut plain = FaultInjector::new(0.3, 0.3, 5);
        let want: Vec<Vec<u8>> = (0..50u8)
            .filter_map(|i| plain.transmit(&[i; 16]).frame().map(<[u8]>::to_vec))
            .collect();
        let mut link = FaultInjector::new(0.3, 0.3, 5);
        let mut wire = VecDeque::new();
        for i in 0..50u8 {
            link.transmit_onto(&[i; 16], &mut wire);
        }
        assert_eq!(Vec::from(wire), want);
    }

    #[test]
    fn always_duplicate_delivers_everything_twice_in_order() {
        let mut link = FaultInjector::transparent().with_duplication(1.0);
        assert_eq!(arrivals(&mut link, 3), [0, 0, 1, 1, 2, 2]);
        assert_eq!(link.duplicated(), 3);
    }

    #[test]
    fn reordering_displaces_no_frame_by_more_than_the_bound() {
        for seed in 1..=64u64 {
            for bound in 1..=4u32 {
                let mut link = FaultInjector::new(0.0, 0.0, seed).with_reordering(0.4, bound);
                let out = arrivals(&mut link, 100);
                assert!(link.reordered() > 0, "seed {seed}");
                let mut sorted = out.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..100).collect::<Vec<u8>>(),
                    "nothing lost or made"
                );
                for (at, &frame) in out.iter().enumerate() {
                    let late = at as i64 - i64::from(frame);
                    assert!(
                        (-1..=i64::from(bound)).contains(&late),
                        "seed {seed} bound {bound}: frame {frame} arrived at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let run = |seed| {
            let mut link = FaultInjector::new(0.3, 0.3, seed);
            (0..50)
                .map(|i| link.transmit(&[i as u8; 16]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }
}
