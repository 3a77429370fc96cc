//! TCP segment parsing and emission.
//!
//! [`TcpSegment`] is a typed view over the TCP header and payload;
//! [`TcpRepr`] is the parsed representation. The checksum covers the
//! IPv4 pseudo-header, so parsing and emission take the source and
//! destination addresses as parameters.

use crate::checksum;
use crate::{Result, WireError};
use core::fmt;
use std::net::Ipv4Addr;

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// Maximum TCP header length (data offset 15).
pub const MAX_HEADER_LEN: usize = 60;

/// TCP control flags.
///
/// A tiny hand-rolled bitflags type: the standard nine-bit flag field of
/// RFC 793 (plus ECN bits, which we preserve but do not interpret).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u16);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN: sender has finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x001);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x002);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x004);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x008);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x010);
    /// URG: urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x020);
    /// ECE: ECN echo.
    pub const ECE: TcpFlags = TcpFlags(0x040);
    /// CWR: congestion window reduced.
    pub const CWR: TcpFlags = TcpFlags(0x080);
    /// NS: ECN nonce (historic).
    pub const NS: TcpFlags = TcpFlags(0x100);

    /// Construct from the raw 9-bit field.
    pub const fn from_bits(bits: u16) -> Self {
        TcpFlags(bits & 0x1ff)
    }

    /// The raw bit representation.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Whether all flags in `other` are set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any flag in `other` is set in `self`.
    pub const fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }
}

impl core::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl core::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl core::ops::BitAnd for TcpFlags {
    type Output = TcpFlags;
    fn bitand(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 & rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [(u16, &str); 9] = [
            (0x002, "SYN"),
            (0x010, "ACK"),
            (0x001, "FIN"),
            (0x004, "RST"),
            (0x008, "PSH"),
            (0x020, "URG"),
            (0x040, "ECE"),
            (0x080, "CWR"),
            (0x100, "NS"),
        ];
        let mut first = true;
        for (bit, name) in NAMES {
            if self.0 & bit != 0 {
                if !first {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("(none)")?;
        }
        Ok(())
    }
}

/// A parsed TCP option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption {
    /// End-of-option-list marker.
    EndOfList,
    /// Padding.
    NoOperation,
    /// Maximum segment size (SYN segments only).
    MaxSegmentSize(u16),
    /// Window scale shift (RFC 1323).
    WindowScale(u8),
    /// An option we do not interpret: (kind, length including kind+len bytes).
    Unknown {
        /// Option kind byte.
        kind: u8,
        /// Declared total option length.
        len: u8,
    },
}

/// A typed view over a TCP segment buffer (header + payload).
#[derive(Debug, Clone)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

mod field {
    use core::ops::Range;
    pub const SRC_PORT: Range<usize> = 0..2;
    pub const DST_PORT: Range<usize> = 2..4;
    pub const SEQ: Range<usize> = 4..8;
    pub const ACK: Range<usize> = 8..12;
    pub const OFFSET_FLAGS: Range<usize> = 12..14;
    pub const WINDOW: Range<usize> = 14..16;
    pub const CHECKSUM: Range<usize> = 16..18;
    pub const URGENT: Range<usize> = 18..20;
}

fn get_u16(data: &[u8], range: core::ops::Range<usize>) -> u16 {
    u16::from_be_bytes([data[range.start], data[range.start + 1]])
}

fn get_u32(data: &[u8], range: core::ops::Range<usize>) -> u32 {
    u32::from_be_bytes([
        data[range.start],
        data[range.start + 1],
        data[range.start + 2],
        data[range.start + 3],
    ])
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wrap a buffer, validating the length fields.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let segment = Self::new_unchecked(buffer);
        segment.check_len()?;
        Ok(segment)
    }

    /// Validate that the buffer holds at least a fixed header and that the
    /// data offset is within `[20, buffer len]`.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let header_len = self.header_len();
        if header_len < HEADER_LEN || header_len > data.len() {
            return Err(WireError::BadHeaderLen);
        }
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::SRC_PORT)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::DST_PORT)
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        get_u32(self.buffer.as_ref(), field::SEQ)
    }

    /// Acknowledgment number.
    pub fn ack(&self) -> u32 {
        get_u32(self.buffer.as_ref(), field::ACK)
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::OFFSET_FLAGS.start] >> 4) * 4
    }

    /// Control flags.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags::from_bits(get_u16(self.buffer.as_ref(), field::OFFSET_FLAGS) & 0x1ff)
    }

    /// Receive window.
    pub fn window(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::WINDOW)
    }

    /// Stored checksum field.
    pub fn checksum(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::CHECKSUM)
    }

    /// Urgent pointer (carried, not interpreted — as in smoltcp).
    pub fn urgent_pointer(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::URGENT)
    }

    /// The option bytes between the fixed header and the payload.
    pub fn options_raw(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.header_len()]
    }

    /// Iterate over parsed options, stopping at end-of-list.
    pub fn options(&self) -> OptionIter<'_> {
        OptionIter {
            data: self.options_raw(),
        }
    }

    /// Payload bytes after the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Verify the TCP checksum including the pseudo-header.
    pub fn verify_checksum(&self, src_addr: Ipv4Addr, dst_addr: Ipv4Addr) -> bool {
        checksum::verify_transport(src_addr, dst_addr, 6, self.buffer.as_ref())
    }

    /// Consume the view and return the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set the sequence number.
    pub fn set_seq(&mut self, seq: u32) {
        self.buffer.as_mut()[field::SEQ].copy_from_slice(&seq.to_be_bytes());
    }

    /// Set the acknowledgment number.
    pub fn set_ack(&mut self, ack: u32) {
        self.buffer.as_mut()[field::ACK].copy_from_slice(&ack.to_be_bytes());
    }

    /// Set the header length (bytes, multiple of 4) and flags together (they
    /// share a 16-bit field).
    pub fn set_header_len_and_flags(&mut self, header_len: usize, flags: TcpFlags) {
        debug_assert!(header_len % 4 == 0 && (HEADER_LEN..=MAX_HEADER_LEN).contains(&header_len));
        let word = ((header_len as u16 / 4) << 12) | flags.bits();
        self.buffer.as_mut()[field::OFFSET_FLAGS].copy_from_slice(&word.to_be_bytes());
    }

    /// Set the receive window.
    pub fn set_window(&mut self, window: u16) {
        self.buffer.as_mut()[field::WINDOW].copy_from_slice(&window.to_be_bytes());
    }

    /// Set the urgent pointer.
    pub fn set_urgent_pointer(&mut self, urgent: u16) {
        self.buffer.as_mut()[field::URGENT].copy_from_slice(&urgent.to_be_bytes());
    }

    /// Zero the checksum field, compute the checksum with the pseudo-header,
    /// and store it.
    pub fn fill_checksum(&mut self, src_addr: Ipv4Addr, dst_addr: Ipv4Addr) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let sum = checksum::transport_checksum(src_addr, dst_addr, 6, self.buffer.as_ref());
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&sum.to_be_bytes());
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let header_len = self.header_len();
        &mut self.buffer.as_mut()[header_len..]
    }
}

/// Iterator over TCP options in a header's option area.
#[derive(Debug, Clone)]
pub struct OptionIter<'a> {
    data: &'a [u8],
}

impl<'a> Iterator for OptionIter<'a> {
    type Item = Result<TcpOption>;

    fn next(&mut self) -> Option<Self::Item> {
        let (&kind, rest) = self.data.split_first()?;
        match kind {
            0 => {
                self.data = &[];
                Some(Ok(TcpOption::EndOfList))
            }
            1 => {
                self.data = rest;
                Some(Ok(TcpOption::NoOperation))
            }
            _ => {
                let Some(&len) = rest.first() else {
                    self.data = &[];
                    return Some(Err(WireError::BadOption));
                };
                if len < 2 || usize::from(len) > self.data.len() {
                    self.data = &[];
                    return Some(Err(WireError::BadOption));
                }
                let body = &self.data[2..usize::from(len)];
                self.data = &self.data[usize::from(len)..];
                let option = match (kind, body.len()) {
                    (2, 2) => TcpOption::MaxSegmentSize(u16::from_be_bytes([body[0], body[1]])),
                    (3, 1) => TcpOption::WindowScale(body[0]),
                    _ => TcpOption::Unknown { kind, len },
                };
                Some(Ok(option))
            }
        }
    }
}

/// Parsed, validated representation of a TCP segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when `flags` contains ACK).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Maximum segment size option, if present (SYN segments).
    pub mss: Option<u16>,
    /// Window scale option, if present (SYN segments).
    pub window_scale: Option<u8>,
}

impl Default for TcpRepr {
    fn default() -> Self {
        Self {
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 0,
            flags: TcpFlags::EMPTY,
            window: 8760,
            mss: None,
            window_scale: None,
        }
    }
}

impl TcpRepr {
    /// Parse and fully validate a segment view: lengths, ports, checksum,
    /// and the options we understand.
    pub fn parse<T: AsRef<[u8]>>(
        segment: &TcpSegment<T>,
        src_addr: Ipv4Addr,
        dst_addr: Ipv4Addr,
    ) -> Result<Self> {
        segment.check_len()?;
        if segment.src_port() == 0 || segment.dst_port() == 0 {
            return Err(WireError::BadPort);
        }
        if !segment.verify_checksum(src_addr, dst_addr) {
            return Err(WireError::BadChecksum);
        }
        let mut mss = None;
        let mut window_scale = None;
        for option in segment.options() {
            match option? {
                TcpOption::EndOfList => break,
                TcpOption::NoOperation | TcpOption::Unknown { .. } => {}
                TcpOption::MaxSegmentSize(value) => mss = Some(value),
                TcpOption::WindowScale(value) => window_scale = Some(value),
            }
        }
        Ok(Self {
            src_port: segment.src_port(),
            dst_port: segment.dst_port(),
            seq: segment.seq(),
            ack: segment.ack(),
            flags: segment.flags(),
            window: segment.window(),
            mss,
            window_scale,
        })
    }

    /// Length of the header this representation emits, including options
    /// padded to a 4-byte boundary.
    pub fn header_len(&self) -> usize {
        let mut options = 0usize;
        if self.mss.is_some() {
            options += 4;
        }
        if self.window_scale.is_some() {
            options += 3;
        }
        HEADER_LEN + options.div_ceil(4) * 4
    }

    /// Emit the header (and options) into the front of `segment`'s buffer
    /// and fill the checksum over the entire buffer. The caller must have
    /// already placed the payload after [`header_len`](Self::header_len)
    /// bytes.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(
        &self,
        segment: &mut TcpSegment<T>,
        src_addr: Ipv4Addr,
        dst_addr: Ipv4Addr,
    ) -> Result<()> {
        if self.src_port == 0 || self.dst_port == 0 {
            return Err(WireError::BadPort);
        }
        let header_len = self.header_len();
        if segment.buffer.as_ref().len() < header_len {
            return Err(WireError::Truncated);
        }
        // The header as big-endian words (each option we emit is exactly
        // one, NOP-padded), summed while still in registers; only the
        // payload is summed from memory. Reading the header bytes back right
        // after storing them field by field is what a pure ACK's checksum
        // mostly costs.
        let mut words = [0u32; MAX_HEADER_LEN / 4];
        words[0] = u32::from(self.src_port) << 16 | u32::from(self.dst_port);
        words[1] = self.seq;
        words[2] = self.ack;
        words[3] = ((header_len as u32 / 4) << 12 | u32::from(self.flags.bits())) << 16
            | u32::from(self.window);
        // words[4]: checksum, filled below, and urgent pointer 0.
        let mut count = HEADER_LEN / 4;
        if let Some(mss) = self.mss {
            words[count] = 0x0204_0000 | u32::from(mss);
            count += 1;
        }
        if let Some(shift) = self.window_scale {
            words[count] = 0x0303_0001 | u32::from(shift) << 8;
            count += 1;
        }
        debug_assert_eq!(count * 4, header_len);
        let words = &mut words[..count];

        let buffer = segment.buffer.as_mut();
        let mut sum = checksum::Accumulator::new();
        sum.add_pseudo_header(src_addr, dst_addr, 6, buffer.len() as u16);
        for word in words.iter() {
            sum.add_u32(*word);
        }
        sum.add_bytes(&buffer[header_len..]);
        words[field::CHECKSUM.start / 4] |= u32::from(sum.finish()) << 16;
        for (bytes, word) in buffer[..header_len].chunks_exact_mut(4).zip(words) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Ok(())
    }

    /// The amount of sequence space this segment occupies: payload length
    /// plus one for SYN and one for FIN.
    pub fn segment_len(&self, payload_len: usize) -> u32 {
        let mut len = payload_len as u32;
        if self.flags.contains(TcpFlags::SYN) {
            len += 1;
        }
        if self.flags.contains(TcpFlags::FIN) {
            len += 1;
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_testprop::check;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn sample_repr() -> TcpRepr {
        TcpRepr {
            src_port: 4096,
            dst_port: 1521,
            seq: 0x1234_5678,
            ack: 0x9abc_def0,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 4096,
            mss: None,
            window_scale: None,
        }
    }

    fn emit_to_vec(repr: &TcpRepr, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; repr.header_len() + payload.len()];
        buf[repr.header_len()..].copy_from_slice(payload);
        let mut segment = TcpSegment::new_unchecked(&mut buf[..]);
        repr.emit(&mut segment, SRC, DST).unwrap();
        buf
    }

    #[test]
    fn roundtrip_no_options() {
        let repr = sample_repr();
        let buf = emit_to_vec(&repr, b"hello");
        let segment = TcpSegment::new_checked(&buf[..]).unwrap();
        let parsed = TcpRepr::parse(&segment, SRC, DST).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(segment.payload(), b"hello");
    }

    #[test]
    fn roundtrip_with_options() {
        let repr = TcpRepr {
            flags: TcpFlags::SYN,
            mss: Some(1460),
            window_scale: Some(3),
            ..sample_repr()
        };
        // 4 (MSS) + 3 (WS) = 7 -> padded to 8; header = 28.
        assert_eq!(repr.header_len(), 28);
        let buf = emit_to_vec(&repr, b"");
        let segment = TcpSegment::new_checked(&buf[..]).unwrap();
        let parsed = TcpRepr::parse(&segment, SRC, DST).unwrap();
        assert_eq!(parsed.mss, Some(1460));
        assert_eq!(parsed.window_scale, Some(3));
    }

    #[test]
    fn checksum_depends_on_addresses() {
        let repr = sample_repr();
        let buf = emit_to_vec(&repr, b"data");
        let segment = TcpSegment::new_checked(&buf[..]).unwrap();
        assert!(segment.verify_checksum(SRC, DST));
        // Same bytes claimed to come from a different host must fail:
        // this is what prevents demux on a spoofed pseudo-header.
        assert!(!segment.verify_checksum(Ipv4Addr::new(10, 0, 0, 3), DST));
        assert_eq!(
            TcpRepr::parse(&segment, Ipv4Addr::new(10, 0, 0, 3), DST).err(),
            Some(WireError::BadChecksum)
        );
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let repr = sample_repr();
        let mut buf = emit_to_vec(&repr, b"payload-bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0x80;
        let segment = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(
            TcpRepr::parse(&segment, SRC, DST).err(),
            Some(WireError::BadChecksum)
        );
    }

    #[test]
    fn zero_ports_rejected() {
        let mut repr = sample_repr();
        repr.src_port = 0;
        let mut buf = vec![0u8; repr.header_len()];
        assert_eq!(buf.len(), 20);
        let mut segment = TcpSegment::new_unchecked(&mut buf[..]);
        assert_eq!(
            repr.emit(&mut segment, SRC, DST).err(),
            Some(WireError::BadPort)
        );
    }

    #[test]
    fn truncated_rejected() {
        let buf = emit_to_vec(&sample_repr(), b"");
        for len in 0..HEADER_LEN {
            assert_eq!(
                TcpSegment::new_checked(&buf[..len]).err(),
                Some(WireError::Truncated)
            );
        }
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = emit_to_vec(&sample_repr(), b"");
        buf[12] = 0x40; // offset 4 words = 16 bytes < 20
        assert_eq!(
            TcpSegment::new_checked(&buf[..]).err(),
            Some(WireError::BadHeaderLen)
        );
        let mut buf2 = emit_to_vec(&sample_repr(), b"");
        buf2[12] = 0xf0; // offset 60 > buffer
        assert_eq!(
            TcpSegment::new_checked(&buf2[..]).err(),
            Some(WireError::BadHeaderLen)
        );
    }

    #[test]
    fn malformed_option_rejected() {
        // Craft a header with a broken option: kind 2, len 0.
        let repr = TcpRepr {
            flags: TcpFlags::SYN,
            mss: Some(1460),
            ..sample_repr()
        };
        let mut buf = emit_to_vec(&repr, b"");
        buf[21] = 0; // MSS option length byte -> 0
        let mut segment = TcpSegment::new_unchecked(&mut buf[..]);
        segment.fill_checksum(SRC, DST);
        let segment = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(
            TcpRepr::parse(&segment, SRC, DST).err(),
            Some(WireError::BadOption)
        );
    }

    #[test]
    fn unknown_options_are_skipped() {
        // Timestamp option (kind 8, len 10) followed by NOPs.
        let repr = sample_repr();
        let mut buf = [0u8; 32];
        {
            let mut segment = TcpSegment::new_unchecked(&mut buf[..]);
            repr.emit(&mut segment, SRC, DST).unwrap();
        }
        buf[12] = 0x80; // data offset 8 words = 32 bytes
        buf[20] = 8; // kind: timestamp
        buf[21] = 10; // len
        buf[30] = 1; // NOP
        buf[31] = 1; // NOP
        let mut segment = TcpSegment::new_unchecked(&mut buf[..]);
        segment.fill_checksum(SRC, DST);
        let segment = TcpSegment::new_checked(&buf[..]).unwrap();
        let parsed = TcpRepr::parse(&segment, SRC, DST).unwrap();
        assert_eq!(parsed.mss, None);
        let opts: Vec<_> = segment.options().collect::<Result<_>>().unwrap();
        assert_eq!(opts[0], TcpOption::Unknown { kind: 8, len: 10 });
    }

    #[test]
    fn flags_display_and_ops() {
        let flags = TcpFlags::SYN | TcpFlags::ACK;
        assert!(flags.contains(TcpFlags::SYN));
        assert!(flags.contains(TcpFlags::ACK));
        assert!(!flags.contains(TcpFlags::FIN));
        assert!(flags.intersects(TcpFlags::SYN | TcpFlags::FIN));
        assert_eq!(flags.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::EMPTY.to_string(), "(none)");
    }

    #[test]
    fn segment_len_counts_syn_fin() {
        let mut repr = sample_repr();
        assert_eq!(repr.segment_len(100), 100);
        repr.flags = TcpFlags::SYN;
        assert_eq!(repr.segment_len(0), 1);
        repr.flags = TcpFlags::FIN | TcpFlags::ACK;
        assert_eq!(repr.segment_len(5), 6);
        repr.flags = TcpFlags::SYN | TcpFlags::FIN;
        assert_eq!(repr.segment_len(0), 2);
    }

    #[test]
    fn prop_roundtrip() {
        check("tcp_prop_roundtrip", |rng| {
            let repr = TcpRepr {
                src_port: rng.u64_in(1, 65_536) as u16,
                dst_port: rng.u64_in(1, 65_536) as u16,
                seq: rng.u32(),
                ack: rng.u32(),
                flags: TcpFlags::from_bits(rng.u16_in(0, 0x200)),
                window: rng.u16(),
                mss: rng.option(|r| r.u16_in(536, 9000)),
                window_scale: rng.option(|r| r.u8_in(0, 15)),
            };
            let payload = rng.bytes(0, 256);
            let buf = emit_to_vec(&repr, &payload);
            let segment = TcpSegment::new_checked(&buf[..]).unwrap();
            let parsed = TcpRepr::parse(&segment, SRC, DST).unwrap();
            assert_eq!(parsed, repr);
            assert_eq!(segment.payload(), &payload[..]);
        });
    }

    #[test]
    fn prop_no_panic_on_garbage() {
        check("tcp_prop_no_panic_on_garbage", |rng| {
            let data = rng.bytes(0, 128);
            if let Ok(segment) = TcpSegment::new_checked(&data[..]) {
                let _ = TcpRepr::parse(&segment, SRC, DST);
                // Option iteration must terminate and never panic.
                for _ in segment.options().take(64) {}
            }
        });
    }

    /// Any single-bit corruption of an emitted segment is rejected.
    #[test]
    fn prop_bit_flip_detected() {
        check("tcp_prop_bit_flip_detected", |rng| {
            let payload = rng.bytes(0, 64);
            let byte = rng.usize_in(0, 64);
            let bit = rng.u8_in(0, 8);
            let repr = sample_repr();
            let mut buf = emit_to_vec(&repr, &payload);
            let idx = byte % buf.len();
            buf[idx] ^= 1 << bit;
            let result =
                TcpSegment::new_checked(&buf[..]).and_then(|s| TcpRepr::parse(&s, SRC, DST));
            assert!(result.is_err());
        });
    }
}
