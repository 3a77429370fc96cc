//! IPv4 header parsing and emission.
//!
//! [`Ipv4Packet`] is a typed view over a byte buffer; [`Ipv4Repr`] is the
//! parsed, validated high-level representation. Options (IHL > 5) are
//! accepted and skipped on parse but never emitted — the paper's traffic
//! (TPC/A queries, responses, and pure ACKs) does not use IP options.

use crate::checksum;
use crate::{Result, WireError};
use core::fmt;
use std::net::Ipv4Addr;

/// Minimum (and, for everything we emit, actual) IPv4 header length.
pub const HEADER_LEN: usize = 20;

/// Default time-to-live for emitted packets, matching BSD-era stacks.
pub const DEFAULT_TTL: u8 = 64;

/// Transport protocol numbers this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// Internet Control Message Protocol (1).
    Icmp,
    /// Transmission Control Protocol (6).
    Tcp,
    /// User Datagram Protocol (17).
    Udp,
    /// Anything else, kept verbatim so it can be counted and dropped.
    Unknown(u8),
}

impl From<u8> for IpProtocol {
    fn from(value: u8) -> Self {
        match value {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Unknown(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(value: IpProtocol) -> Self {
        match value {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Unknown(other) => other,
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Icmp => write!(f, "ICMP"),
            IpProtocol::Tcp => write!(f, "TCP"),
            IpProtocol::Udp => write!(f, "UDP"),
            IpProtocol::Unknown(p) => write!(f, "proto({p})"),
        }
    }
}

/// A typed view over an IPv4 packet buffer.
///
/// Construct with [`new_checked`](Self::new_checked) to get a view whose
/// accessors are guaranteed in-bounds.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

mod field {
    //! Byte offsets of IPv4 header fields.
    use core::ops::Range;
    pub const VER_IHL: usize = 0;
    pub const TOS: usize = 1;
    pub const TOTAL_LEN: Range<usize> = 2..4;
    pub const IDENT: Range<usize> = 4..6;
    pub const FLAGS_FRAG: Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: Range<usize> = 10..12;
    pub const SRC_ADDR: Range<usize> = 12..16;
    pub const DST_ADDR: Range<usize> = 16..20;
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap a buffer without validation. Accessors may panic if the buffer
    /// is too short; prefer [`new_checked`](Self::new_checked).
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wrap a buffer, validating length fields (but not the checksum; see
    /// [`verify_checksum`](Self::verify_checksum)).
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Self::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    /// Validate that the version is 4 and all declared lengths fit the
    /// buffer: IHL >= 20, IHL <= total length <= buffer length.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[field::VER_IHL] >> 4 != 4 {
            return Err(WireError::BadVersion);
        }
        let header_len = self.header_len();
        if header_len < HEADER_LEN || header_len > data.len() {
            return Err(WireError::BadHeaderLen);
        }
        let total_len = self.total_len() as usize;
        if total_len < header_len || total_len > data.len() {
            return Err(WireError::BadTotalLen);
        }
        Ok(())
    }

    /// IP version (high nibble of the first byte).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// Type-of-service byte.
    pub fn tos(&self) -> u8 {
        self.buffer.as_ref()[field::TOS]
    }

    /// Total packet length (header + payload) in bytes.
    pub fn total_len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::TOTAL_LEN.start], d[field::TOTAL_LEN.start + 1]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::IDENT.start], d[field::IDENT.start + 1]])
    }

    /// Whether the "don't fragment" flag is set.
    pub fn dont_frag(&self) -> bool {
        self.buffer.as_ref()[field::FLAGS_FRAG.start] & 0x40 != 0
    }

    /// Whether the "more fragments" flag is set.
    pub fn more_frags(&self) -> bool {
        self.buffer.as_ref()[field::FLAGS_FRAG.start] & 0x20 != 0
    }

    /// Fragment offset in 8-byte units.
    pub fn frag_offset(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::FLAGS_FRAG.start], d[field::FLAGS_FRAG.start + 1]]) & 0x1fff
    }

    /// True if this packet is any fragment other than a complete datagram.
    pub fn is_fragment(&self) -> bool {
        self.more_frags() || self.frag_offset() != 0
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Transport protocol.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from(self.buffer.as_ref()[field::PROTOCOL])
    }

    /// Header checksum field as stored.
    pub fn header_checksum(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::CHECKSUM.start], d[field::CHECKSUM.start + 1]])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(
            d[field::SRC_ADDR.start],
            d[field::SRC_ADDR.start + 1],
            d[field::SRC_ADDR.start + 2],
            d[field::SRC_ADDR.start + 3],
        )
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(
            d[field::DST_ADDR.start],
            d[field::DST_ADDR.start + 1],
            d[field::DST_ADDR.start + 2],
            d[field::DST_ADDR.start + 3],
        )
    }

    /// Verify the header checksum over the full header (including options).
    pub fn verify_checksum(&self) -> bool {
        let data = self.buffer.as_ref();
        checksum::verify(&data[..self.header_len()])
    }

    /// The transport-layer payload, bounded by the total-length field.
    pub fn payload(&self) -> &[u8] {
        let data = self.buffer.as_ref();
        &data[self.header_len()..self.total_len() as usize]
    }

    /// Consume the view and return the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Set version 4 and header length (bytes, multiple of 4).
    pub fn set_version_and_header_len(&mut self, header_len: usize) {
        debug_assert!(header_len % 4 == 0 && (20..=60).contains(&header_len));
        self.buffer.as_mut()[field::VER_IHL] = 0x40 | (header_len / 4) as u8;
    }

    /// Set the type-of-service byte.
    pub fn set_tos(&mut self, tos: u8) {
        self.buffer.as_mut()[field::TOS] = tos;
    }

    /// Set the total-length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::TOTAL_LEN].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, ident: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&ident.to_be_bytes());
    }

    /// Set flags (DF) and clear fragment offset.
    pub fn set_dont_frag(&mut self, df: bool) {
        let flags = if df { 0x40u8 } else { 0 };
        self.buffer.as_mut()[field::FLAGS_FRAG.start] = flags;
        self.buffer.as_mut()[field::FLAGS_FRAG.start + 1] = 0;
    }

    /// Set the time-to-live.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Set the transport protocol number.
    pub fn set_protocol(&mut self, protocol: IpProtocol) {
        self.buffer.as_mut()[field::PROTOCOL] = protocol.into();
    }

    /// Set the source address.
    pub fn set_src_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::SRC_ADDR].copy_from_slice(&addr.octets());
    }

    /// Set the destination address.
    pub fn set_dst_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::DST_ADDR].copy_from_slice(&addr.octets());
    }

    /// Zero the checksum field, compute the header checksum, and store it.
    pub fn fill_checksum(&mut self) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let header_len = self.header_len();
        let sum = checksum::checksum(&self.buffer.as_ref()[..header_len]);
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&sum.to_be_bytes());
    }

    /// Mutable access to the payload region (between header and total length).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let header_len = self.header_len();
        let total_len = self.total_len() as usize;
        &mut self.buffer.as_mut()[header_len..total_len]
    }
}

/// Parsed, validated representation of an IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src_addr: Ipv4Addr,
    /// Destination address.
    pub dst_addr: Ipv4Addr,
    /// Transport protocol.
    pub protocol: IpProtocol,
    /// Payload (transport header + data) length in bytes.
    pub payload_len: usize,
    /// Time-to-live for emission; preserved on parse.
    pub ttl: u8,
}

impl Ipv4Repr {
    /// A representation with default TTL and zero payload length; the
    /// builder fills in `payload_len` when emitting.
    pub fn new(src_addr: Ipv4Addr, dst_addr: Ipv4Addr, protocol: IpProtocol) -> Self {
        Self {
            src_addr,
            dst_addr,
            protocol,
            payload_len: 0,
            ttl: DEFAULT_TTL,
        }
    }

    /// Parse and fully validate a packet view: lengths, version, checksum,
    /// and fragmentation.
    pub fn parse<T: AsRef<[u8]>>(packet: &Ipv4Packet<T>) -> Result<Self> {
        packet.check_len()?;
        if !packet.verify_checksum() {
            return Err(WireError::BadChecksum);
        }
        if packet.is_fragment() {
            return Err(WireError::Fragmented);
        }
        Ok(Self {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            payload_len: packet.total_len() as usize - packet.header_len(),
            ttl: packet.ttl(),
        })
    }

    /// Length of the header this representation emits (no options).
    pub const fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Total length of the packet this representation emits.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit the header into the front of `packet`'s buffer and fill the
    /// checksum. The buffer must be at least [`total_len`](Self::total_len)
    /// bytes.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Ipv4Packet<T>) -> Result<()> {
        if self.total_len() > u16::MAX as usize || packet.buffer.as_ref().len() < self.total_len() {
            return Err(WireError::PayloadTooLong);
        }
        // The header as its five big-endian words, summed while they are
        // still in registers: reading the bytes back right after storing
        // them field by field is what a 20-byte checksum mostly costs.
        // Every byte is written, so the buffer need not be zeroed first.
        let mut words = [
            0x4500_0000 | self.total_len() as u32, // version 4, IHL 5, TOS 0, total length
            0x0000_4000,                           // ident 0, don't fragment, offset 0
            u32::from(self.ttl) << 24 | u32::from(u8::from(self.protocol)) << 16, // checksum 0
            u32::from(self.src_addr),
            u32::from(self.dst_addr),
        ];
        let mut sum = checksum::Accumulator::new();
        for word in words {
            sum.add_u32(word);
        }
        words[field::CHECKSUM.start / 4] |= u32::from(sum.finish());
        let header = &mut packet.buffer.as_mut()[..HEADER_LEN];
        for (bytes, word) in header.chunks_exact_mut(4).zip(words) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_testprop::check;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: Ipv4Addr::new(192, 0, 2, 1),
            dst_addr: Ipv4Addr::new(198, 51, 100, 7),
            protocol: IpProtocol::Tcp,
            payload_len: 8,
            ttl: 61,
        }
    }

    fn emit_to_vec(repr: &Ipv4Repr) -> Vec<u8> {
        let mut buf = vec![0u8; repr.total_len()];
        let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_fields() {
        let repr = sample_repr();
        let buf = emit_to_vec(&repr);
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        let parsed = Ipv4Repr::parse(&packet).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn emitted_checksum_verifies() {
        let buf = emit_to_vec(&sample_repr());
        let packet = Ipv4Packet::new_unchecked(&buf[..]);
        assert!(packet.verify_checksum());
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let buf = emit_to_vec(&sample_repr());
        for len in 0..HEADER_LEN {
            assert_eq!(
                Ipv4Packet::new_checked(&buf[..len]).err(),
                Some(WireError::Truncated),
                "length {len}"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = emit_to_vec(&sample_repr());
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).err(),
            Some(WireError::BadVersion)
        );
    }

    #[test]
    fn bad_ihl_is_rejected() {
        let mut buf = emit_to_vec(&sample_repr());
        buf[0] = 0x44; // IHL = 16 bytes < 20
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).err(),
            Some(WireError::BadHeaderLen)
        );
        let mut buf2 = emit_to_vec(&sample_repr());
        buf2[0] = 0x4f; // IHL = 60 > buffer
        assert_eq!(
            Ipv4Packet::new_checked(&buf2[..]).err(),
            Some(WireError::BadHeaderLen)
        );
    }

    #[test]
    fn bad_total_len_is_rejected() {
        let mut buf = emit_to_vec(&sample_repr());
        buf[2] = 0xff;
        buf[3] = 0xff; // total length far beyond buffer
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).err(),
            Some(WireError::BadTotalLen)
        );
        let mut buf2 = emit_to_vec(&sample_repr());
        buf2[2] = 0;
        buf2[3] = 10; // total length smaller than header
        assert_eq!(
            Ipv4Packet::new_checked(&buf2[..]).err(),
            Some(WireError::BadTotalLen)
        );
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let mut buf = emit_to_vec(&sample_repr());
        buf[8] ^= 0x01; // TTL bit flip
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Ipv4Repr::parse(&packet).err(), Some(WireError::BadChecksum));
    }

    #[test]
    fn fragments_are_rejected() {
        let mut buf = emit_to_vec(&sample_repr());
        buf[6] = 0x20; // more-fragments flag
        let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
        packet.fill_checksum();
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Ipv4Repr::parse(&packet).err(), Some(WireError::Fragmented));
    }

    #[test]
    fn payload_respects_total_len() {
        // Buffer longer than total_len: payload must stop at total_len.
        let repr = sample_repr();
        let mut buf = emit_to_vec(&repr);
        buf.extend_from_slice(&[0xde, 0xad]); // trailing garbage (e.g. Ethernet padding)
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.payload().len(), repr.payload_len);
    }

    #[test]
    fn protocol_conversions() {
        assert_eq!(IpProtocol::from(1), IpProtocol::Icmp);
        assert_eq!(IpProtocol::from(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from(89), IpProtocol::Unknown(89));
        assert_eq!(u8::from(IpProtocol::Icmp), 1);
        assert_eq!(u8::from(IpProtocol::Tcp), 6);
        assert_eq!(u8::from(IpProtocol::Unknown(89)), 89);
        assert_eq!(IpProtocol::Tcp.to_string(), "TCP");
        assert_eq!(IpProtocol::Icmp.to_string(), "ICMP");
    }

    #[test]
    fn options_are_skipped_on_parse() {
        // Hand-craft a header with IHL=6 (one option word of NOPs).
        let mut buf = [0u8; 24 + 4];
        buf[0] = 0x46; // version 4, IHL 6
        buf[2] = 0;
        buf[3] = 28; // total length
        buf[8] = 64;
        buf[9] = 6;
        buf[12..16].copy_from_slice(&[10, 0, 0, 1]);
        buf[16..20].copy_from_slice(&[10, 0, 0, 2]);
        buf[20..24].copy_from_slice(&[1, 1, 1, 1]); // NOP options
        let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
        packet.fill_checksum();
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        let parsed = Ipv4Repr::parse(&packet).unwrap();
        assert_eq!(parsed.payload_len, 4);
        assert_eq!(packet.payload().len(), 4);
    }

    #[test]
    fn prop_roundtrip() {
        check("ipv4_prop_roundtrip", |rng| {
            let repr = Ipv4Repr {
                src_addr: Ipv4Addr::from(rng.u32()),
                dst_addr: Ipv4Addr::from(rng.u32()),
                protocol: IpProtocol::from(rng.u8()),
                payload_len: rng.usize_in(0, 1480),
                ttl: 1 + rng.u8_in(0, 255), // [1, 255]
            };
            let buf = emit_to_vec(&repr);
            let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
            let parsed = Ipv4Repr::parse(&packet).unwrap();
            assert_eq!(parsed, repr);
        });
    }

    /// Arbitrary bytes never panic the parser: they either parse or
    /// produce a structured error.
    #[test]
    fn prop_no_panic_on_garbage() {
        check("ipv4_prop_no_panic_on_garbage", |rng| {
            let data = rng.bytes(0, 128);
            if let Ok(packet) = Ipv4Packet::new_checked(&data[..]) {
                let _ = Ipv4Repr::parse(&packet);
            }
        });
    }

    /// A corrupted byte anywhere in the emitted header is detected by
    /// length checks or the checksum.
    #[test]
    fn prop_header_corruption_detected() {
        check("ipv4_prop_header_corruption_detected", |rng| {
            let corrupt_at = rng.usize_in(0, HEADER_LEN);
            let xor = 1 + rng.u8_in(0, 255); // [1, 255]
            let repr = sample_repr();
            let mut buf = emit_to_vec(&repr);
            buf[corrupt_at] ^= xor;
            let parse_result = Ipv4Packet::new_checked(&buf[..]).and_then(|p| Ipv4Repr::parse(&p));
            // Corruption of TOS/ident/flags/ttl/protocol/addresses is caught
            // by the checksum; corruption of version/IHL/length by check_len.
            assert!(parse_result.is_err() || parse_result.unwrap() == repr);
            // The only way to "survive" is if the corruption produced an
            // equally-valid header describing identical fields, which a
            // single XOR cannot do — assert strictly:
            let reparsed = Ipv4Packet::new_checked(&buf[..]).and_then(|p| Ipv4Repr::parse(&p));
            assert!(reparsed.is_err());
        });
    }
}
