//! RFC 1071 Internet checksum.
//!
//! The Internet checksum is the ones'-complement of the ones'-complement sum
//! of the data interpreted as big-endian 16-bit words, with a trailing odd
//! byte padded on the right with zero. TCP and UDP additionally sum a
//! *pseudo-header* containing the IP source/destination addresses, the
//! protocol number, and the transport-layer length.
//!
//! The functions here operate on raw accumulators (partial sums) so a
//! checksum can be composed from several discontiguous pieces — exactly what
//! the pseudo-header requires — without copying.
//!
//! RFC 1071 §2(B): the ones'-complement sum is byte-order independent, so
//! [`Accumulator::add_bytes`] sums words in the order they lie in memory,
//! as wide as the machine loads them, and swaps the folded 16-bit result
//! once; the big-endian 16-bit loop of the definition survives only as the
//! reference the tests compare against.

use std::net::Ipv4Addr;

/// Bytes per iteration of the block kernel: four 64-bit words, each with
/// its own pair of lanes, so the loop carries no dependency between them
/// and vectorises at the default target.
const BLOCK: usize = 32;

/// Inputs shorter than this are summed a 64-bit word at a time where they
/// are used, without entering the block kernel: every header, every pure
/// ACK and the paper's 100 B / 200 B transactions. The crossover is
/// measured (EXPERIMENTS A13: the kernel is ahead from about 300 B).
const WIDE_MIN: usize = 256;

/// A running ones'-complement sum.
///
/// Accumulate pieces with [`Accumulator::add_bytes`] and friends, then
/// [`finish`](Accumulator::finish) to obtain the complemented 16-bit
/// checksum.
///
/// ```
/// use tcpdemux_wire::checksum::Accumulator;
/// let mut acc = Accumulator::new();
/// acc.add_bytes(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]);
/// // Classic RFC 1071 worked example: sum is 0xddf2, checksum 0x220d.
/// assert_eq!(acc.finish(), 0x220d);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Accumulator {
    /// Unfolded sum of big-endian 16-bit words. Every add contributes at
    /// most 16 bits, so 2^48 of them fit.
    sum: u64,
}

impl Accumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self { sum: 0 }
    }

    /// Add a byte slice to the sum. A trailing odd byte is padded with
    /// zero, so this must only be used for the *final* piece of data or for
    /// pieces with even length (the pseudo-header and all fixed headers are
    /// even).
    ///
    /// Inlined, like the two transport entry points below, so that a short
    /// segment is summed where it is parsed and only long inputs pay a call.
    /// [`checksum`] and [`verify`] are deliberately not: inlined into
    /// `Ipv4Repr::parse`, the 20-byte header sum read 12 ns against 6 over
    /// frames that are not in L1 (EXPERIMENTS A13).
    #[inline]
    pub fn add_bytes(&mut self, data: &[u8]) {
        let native = if data.len() < WIDE_MIN {
            sum_words(data)
        } else {
            sum_blocks(data)
        };
        self.sum += u64::from(u16::from_be(fold(native)));
    }

    /// Add one big-endian 16-bit word.
    #[inline]
    pub fn add_u16(&mut self, word: u16) {
        self.sum += u64::from(word);
    }

    /// Add a 32-bit quantity as two 16-bit words (used for IPv4 addresses).
    #[inline]
    pub fn add_u32(&mut self, word: u32) {
        self.add_u16((word >> 16) as u16);
        self.add_u16(word as u16);
    }

    /// Add the TCP/UDP pseudo-header for the given addresses, protocol
    /// number, and transport-layer length (header + payload, in bytes).
    ///
    /// The length field is 16 bits on the wire: a caller summing more than
    /// 65,535 transport bytes has left IPv4, and truncating its length to
    /// `u16` is that caller's bound, not this function's.
    #[inline]
    pub fn add_pseudo_header(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: u8,
        transport_len: u16,
    ) {
        self.add_u32(u32::from(src));
        self.add_u32(u32::from(dst));
        self.add_u16(u16::from(protocol));
        self.add_u16(transport_len);
    }

    /// Fold the carries and return the ones'-complement checksum.
    #[inline]
    pub fn finish(self) -> u16 {
        !fold(self.sum)
    }
}

/// Fold a ones'-complement sum to 16 bits with end-around carry. Zero only
/// for a zero input, as the word-at-a-time definition has it.
#[inline]
fn fold(sum: u64) -> u16 {
    let sum = half_fold(half_fold(sum));
    let sum = (sum & 0xffff) + (sum >> 16);
    let sum = (sum & 0xffff) + (sum >> 16);
    sum as u16
}

/// One folding step, 64 bits to 33: what keeps a sum of sums from wrapping.
#[inline]
fn half_fold(sum: u64) -> u64 {
    (sum & 0xffff_ffff) + (sum >> 32)
}

/// Unfolded sum of `data` as native-endian words, a trailing odd byte
/// zero-padded on the right: the short path, and the block kernel's tail.
/// 64-bit words with the carries counted, which stays a handful of scalar
/// instructions where it is inlined.
#[inline]
fn sum_words(data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(8);
    let (mut sum, mut carries) = (0u64, 0u64);
    for word in &mut words {
        let (wrapped, carry) =
            sum.overflowing_add(u64::from_ne_bytes(word.try_into().expect("8-byte chunk")));
        sum = wrapped;
        carries += u64::from(carry);
    }
    let mut rest = words.remainder();
    let mut tail = 0u64;
    if rest.len() >= 4 {
        tail += u64::from(u32::from_ne_bytes([rest[0], rest[1], rest[2], rest[3]]));
        rest = &rest[4..];
    }
    if rest.len() >= 2 {
        tail += u64::from(u16::from_ne_bytes([rest[0], rest[1]]));
        rest = &rest[2..];
    }
    if let [byte] = *rest {
        tail += u64::from(u16::from_ne_bytes([byte, 0]));
    }
    half_fold(sum) + carries + tail
}

/// The block kernel: unfolded native-endian sum of `data`.
///
/// Each 64-bit word is two 32-bit summands. `all` adds the whole word and
/// is allowed to wrap; `high` adds its upper half exactly. The lower halves
/// sum to `all - (high << 32)` modulo 2^64, and that sum is itself below
/// 2^64 (until 128 GiB of input, where `high` would wrap too), so the
/// subtraction recovers it exactly: three vector operations per word
/// where widening each half on its own costs four.
#[inline(never)]
fn sum_blocks(data: &[u8]) -> u64 {
    const LANES: usize = BLOCK / 8;
    let mut all = [0u64; LANES];
    let mut high = [0u64; LANES];
    let mut blocks = data.chunks_exact(BLOCK);
    for block in &mut blocks {
        for ((all, high), word) in all.iter_mut().zip(&mut high).zip(block.chunks_exact(8)) {
            let word = u64::from_ne_bytes(word.try_into().expect("8-byte chunk"));
            *all = all.wrapping_add(word);
            *high += word >> 32;
        }
    }
    let mut sum = sum_words(blocks.remainder());
    for (all, high) in all.iter().zip(&high) {
        sum += half_fold(*high) + half_fold(all.wrapping_sub(high << 32));
    }
    sum
}

/// Compute the Internet checksum of a single contiguous buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut acc = Accumulator::new();
    acc.add_bytes(data);
    acc.finish()
}

/// Verify a buffer whose checksum field is *included* in the data.
///
/// Per RFC 1071, summing data that already contains a correct checksum
/// yields `0xffff`, so the complemented result is zero.
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

/// Compute the TCP or UDP checksum over `transport` (header + payload, with
/// the checksum field zeroed or skipped by the caller) plus the pseudo-header.
#[inline]
pub fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, transport: &[u8]) -> u16 {
    let mut acc = Accumulator::new();
    acc.add_pseudo_header(src, dst, protocol, transport.len() as u16);
    acc.add_bytes(transport);
    acc.finish()
}

/// Verify a transport segment whose checksum field is included in the data.
#[inline]
pub fn verify_transport(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, transport: &[u8]) -> bool {
    transport_checksum(src, dst, protocol, transport) == 0
}

/// The definition, word for word — the loop `add_bytes` was before the
/// kernel — kept as the reference the kernel and the frame builders are
/// tested against.
#[cfg(test)]
pub(crate) fn reference(data: &[u8]) -> u16 {
    let mut sum = 0u64;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u64::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_testprop::{check, sweep_seeds, TestRng};

    /// Every length on both sides of the short/wide crossover and of every
    /// block and tail boundary, at every alignment a slice can start on.
    #[test]
    fn matches_the_reference_at_every_length_and_offset() {
        let data = TestRng::from_seed(1071).bytes(2048 + 7, 2048 + 8);
        for len in 0..=2048 {
            for offset in 0..=7 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    checksum(slice),
                    reference(slice),
                    "len {len} offset {offset}"
                );
            }
        }
    }

    /// All-ones input carries out of every lane on every add; all-zero input
    /// must keep the sum's one zero. The long cases wrapped the 32-bit sum of
    /// 16-bit words this accumulator used to be (`0x0001` for the first).
    #[test]
    fn matches_the_reference_on_all_ones_and_all_zeros_of_any_length() {
        for fill in [0xffu8, 0x00] {
            let data = vec![fill; 1 << 20];
            for len in (0..=1500).chain([65_535, 131_072, 262_146, 1 << 20]) {
                assert_eq!(
                    checksum(&data[..len]),
                    reference(&data[..len]),
                    "{fill:#x} x {len}"
                );
            }
        }
        assert_eq!(checksum(&[0xff; 262_146]), 0x0000);
        assert_eq!(checksum(&vec![0xff; 1 << 20]), 0x0000);
        assert_eq!(checksum(&vec![0x00; 1 << 20]), 0xffff);
    }

    /// Seeded inputs up to the largest IPv4 packet, whole and cut into
    /// even-length pieces at seeded places (the accumulator's contract).
    #[test]
    fn matches_the_reference_across_seeds() {
        for seed in 0..u64::from(sweep_seeds(8)) {
            let mut rng = TestRng::from_seed(seed);
            for _ in 0..16 {
                let data = rng.bytes(0, 65_536);
                let want = reference(&data);
                assert_eq!(checksum(&data), want, "seed {seed} len {}", data.len());
                let mut pieces = Accumulator::new();
                let mut rest = &data[..];
                while !rest.is_empty() {
                    let cut = if rng.chance(0.1) {
                        rest.len()
                    } else {
                        (rng.usize_in(0, 2 * WIDE_MIN) * 2).min(rest.len())
                    };
                    pieces.add_bytes(&rest[..cut]);
                    rest = &rest[cut..];
                }
                assert_eq!(
                    pieces.finish(),
                    want,
                    "seed {seed} len {} in pieces",
                    data.len()
                );
            }
        }
    }

    /// Exhaustive: no single-bit error anywhere in a full-sized segment gets
    /// past `verify_transport` (12,000 cases through the block kernel).
    #[test]
    fn every_single_bit_flip_of_a_1500_byte_segment_is_caught() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut segment = TestRng::from_seed(1500).bytes(1500, 1501);
        segment[16..18].copy_from_slice(&[0, 0]); // the TCP checksum field
        let sum = transport_checksum(src, dst, 6, &segment);
        segment[16..18].copy_from_slice(&sum.to_be_bytes());
        assert!(verify_transport(src, dst, 6, &segment));
        for bit in 0..segment.len() * 8 {
            segment[bit / 8] ^= 1 << (bit % 8);
            assert!(!verify_transport(src, dst, 6, &segment), "bit {bit}");
            segment[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn rfc1071_worked_example() {
        // From RFC 1071 section 3: bytes 00 01 f2 03 f4 f5 f6 f7
        // one's complement sum = ddf2, checksum = ~ddf2 = 220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // [ab] is summed as the word 0xab00.
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn empty_buffer_sums_to_zero() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_accepts_self_checksummed_data() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06, 0, 0,
        ];
        let sum = checksum(&data);
        data[10] = (sum >> 8) as u8;
        data[11] = sum as u8;
        assert!(verify(&data));
    }

    #[test]
    fn all_ones_data() {
        // Sum of 0xffff + 0xffff folds to 0xffff; complement is 0.
        assert_eq!(checksum(&[0xff, 0xff, 0xff, 0xff]), 0);
    }

    #[test]
    fn accumulator_piecewise_equals_contiguous() {
        let data: Vec<u8> = (0u8..64).collect();
        let whole = checksum(&data);
        let mut acc = Accumulator::new();
        acc.add_bytes(&data[..10]);
        acc.add_bytes(&data[10..32]);
        acc.add_bytes(&data[32..]);
        assert_eq!(acc.finish(), whole);
    }

    #[test]
    fn pseudo_header_matches_manual_layout() {
        let src = Ipv4Addr::new(192, 0, 2, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 99);
        let mut via_helper = Accumulator::new();
        via_helper.add_pseudo_header(src, dst, 6, 20);

        let mut manual = Accumulator::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&src.octets());
        bytes.extend_from_slice(&dst.octets());
        bytes.extend_from_slice(&[0, 6]); // zero + protocol
        bytes.extend_from_slice(&20u16.to_be_bytes());
        manual.add_bytes(&bytes);

        assert_eq!(via_helper.finish(), manual.finish());
    }

    #[test]
    fn transport_checksum_roundtrip() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut seg = vec![0u8; 24];
        seg[0] = 0x12;
        seg[23] = 0x99;
        let sum = transport_checksum(src, dst, 6, &seg);
        seg[16] = (sum >> 8) as u8; // TCP checksum offset
        seg[17] = sum as u8;
        assert!(verify_transport(src, dst, 6, &seg));
    }

    /// Checksumming is invariant under where the buffer is split
    /// (for even-length prefixes, as required by the contract).
    #[test]
    fn prop_split_invariant() {
        check("prop_split_invariant", |rng| {
            let data = rng.bytes(0, 256);
            let split = (rng.usize_in(0, 128) * 2).min(data.len());
            let whole = checksum(&data);
            let mut acc = Accumulator::new();
            acc.add_bytes(&data[..split]);
            acc.add_bytes(&data[split..]);
            assert_eq!(acc.finish(), whole);
        });
    }

    /// Writing the computed checksum into any aligned position makes the
    /// buffer verify.
    #[test]
    fn prop_self_verifies() {
        check("prop_self_verifies", |rng| {
            let mut data = rng.bytes(2, 128);
            // The checksum slot must be word-aligned (even offset).
            let pos = (rng.usize_in(0, 63) * 2).min((data.len() - 2) & !1);
            data[pos] = 0;
            data[pos + 1] = 0;
            let sum = checksum(&data);
            data[pos] = (sum >> 8) as u8;
            data[pos + 1] = sum as u8;
            assert!(verify(&data));
        });
    }

    /// Flipping a single bit in a verifying buffer breaks verification.
    /// (True for the Internet checksum: a one-bit change alters the
    /// ones'-complement sum.)
    #[test]
    fn prop_detects_single_bit_flip() {
        check("prop_detects_single_bit_flip", |rng| {
            let mut data = rng.bytes(2, 128);
            let flip_byte = rng.usize_in(0, 128);
            let flip_bit = rng.u8_in(0, 8);
            // Make the buffer self-verifying first.
            data[0] = 0;
            data[1] = 0;
            let sum = checksum(&data);
            data[0] = (sum >> 8) as u8;
            data[1] = sum as u8;
            if !verify(&data) {
                return; // analogue of prop_assume!
            }
            let idx = flip_byte % data.len();
            data[idx] ^= 1 << flip_bit;
            assert!(!verify(&data));
        });
    }
}
