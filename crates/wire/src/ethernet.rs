//! Ethernet II framing.
//!
//! The demultiplexing paper's packets arrive over LANs ("thousands of
//! concurrent users connected by local-area networks", §1); this module
//! supplies the link layer so the stack can consume full frames. Only
//! Ethernet II (DIX) framing is implemented — no 802.1Q tags, no 802.3
//! length field — matching what a 1992 database server would see.

use crate::{Result, WireError};
use core::fmt;

/// Length of the Ethernet II header: destination + source + ethertype.
pub const HEADER_LEN: usize = 14;

/// Minimum payload to meet the 64-byte minimum frame size (without FCS:
/// 60 bytes total, 46 of payload). Short payloads are zero-padded.
pub const MIN_PAYLOAD: usize = 46;

/// A 48-bit IEEE MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    /// The broadcast address, ff:ff:ff:ff:ff:ff.
    pub const BROADCAST: EthernetAddress = EthernetAddress([0xff; 6]);

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Whether the group bit (I/G) is set — multicast or broadcast.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Whether this is a normal unicast address.
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }

    /// A deterministic locally-administered unicast address derived from
    /// an IPv4 address — handy for simulations that need a MAC per host
    /// without ARP.
    pub fn from_ipv4(addr: std::net::Ipv4Addr) -> Self {
        let o = addr.octets();
        // 0x02 = locally administered, unicast.
        EthernetAddress([0x02, 0x00, o[0], o[1], o[2], o[3]])
    }
}

impl fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            a[0], a[1], a[2], a[3], a[4], a[5]
        )
    }
}

/// EtherType values this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806) — recognized so it can be counted, not processed.
    Arp,
    /// Anything else, kept verbatim.
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(value: u16) -> Self {
        match value {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(value: EtherType) -> Self {
        match value {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Unknown(other) => other,
        }
    }
}

/// A typed view over an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wrap a buffer, validating the minimum length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let frame = Self::new_unchecked(buffer);
        frame.check_len()?;
        Ok(frame)
    }

    /// Validate that the buffer holds at least a header.
    pub fn check_len(&self) -> Result<()> {
        if self.buffer.as_ref().len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// Destination MAC.
    pub fn dst_addr(&self) -> EthernetAddress {
        let d = self.buffer.as_ref();
        EthernetAddress([d[0], d[1], d[2], d[3], d[4], d[5]])
    }

    /// Source MAC.
    pub fn src_addr(&self) -> EthernetAddress {
        let d = self.buffer.as_ref();
        EthernetAddress([d[6], d[7], d[8], d[9], d[10], d[11]])
    }

    /// EtherType.
    pub fn ethertype(&self) -> EtherType {
        let d = self.buffer.as_ref();
        EtherType::from(u16::from_be_bytes([d[12], d[13]]))
    }

    /// The encapsulated payload (possibly including link-layer padding;
    /// the IPv4 total-length field bounds the real packet).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Set the destination MAC.
    pub fn set_dst_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[0..6].copy_from_slice(&addr.0);
    }

    /// Set the source MAC.
    pub fn set_src_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[6..12].copy_from_slice(&addr.0);
    }

    /// Set the EtherType.
    pub fn set_ethertype(&mut self, ethertype: EtherType) {
        self.buffer.as_mut()[12..14].copy_from_slice(&u16::from(ethertype).to_be_bytes());
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

/// Parsed representation of an Ethernet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetRepr {
    /// Source MAC.
    pub src_addr: EthernetAddress,
    /// Destination MAC.
    pub dst_addr: EthernetAddress,
    /// Payload protocol.
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Parse a frame view.
    pub fn parse<T: AsRef<[u8]>>(frame: &EthernetFrame<T>) -> Result<Self> {
        frame.check_len()?;
        Ok(Self {
            src_addr: frame.src_addr(),
            dst_addr: frame.dst_addr(),
            ethertype: frame.ethertype(),
        })
    }

    /// Emit the header into the front of `frame`'s buffer.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, frame: &mut EthernetFrame<T>) -> Result<()> {
        frame.check_len()?;
        frame.set_dst_addr(self.dst_addr);
        frame.set_src_addr(self.src_addr);
        frame.set_ethertype(self.ethertype);
        Ok(())
    }

    /// Assemble header + `payload` into `out` (contents replaced), zero-padded
    /// to the 60-byte minimum. Each byte is written once: the header is
    /// emitted, the payload appended, and only the pad is zero-filled.
    pub fn encapsulate_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        let padded_len = HEADER_LEN + payload.len().max(MIN_PAYLOAD);
        out.clear();
        out.reserve(padded_len);
        out.resize(HEADER_LEN, 0);
        self.emit(&mut EthernetFrame::new_unchecked(&mut out[..]))
            .expect("sized buffer");
        out.extend_from_slice(payload);
        out.resize(padded_len, 0);
    }
}

/// Wrap an IPv4 packet in an Ethernet II frame, padding to the 60-byte
/// minimum.
pub fn encapsulate_ipv4(src: EthernetAddress, dst: EthernetAddress, ip_packet: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    encapsulate_ipv4_into(src, dst, ip_packet, &mut buf);
    buf
}

/// Like [`encapsulate_ipv4`], assembling into `out` (contents replaced) so
/// pooled transmit buffers avoid a per-frame allocation.
pub fn encapsulate_ipv4_into(
    src: EthernetAddress,
    dst: EthernetAddress,
    ip_packet: &[u8],
    out: &mut Vec<u8>,
) {
    EthernetRepr {
        src_addr: src,
        dst_addr: dst,
        ethertype: EtherType::Ipv4,
    }
    .encapsulate_into(ip_packet, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tcpdemux_testprop::check;

    fn addr(last: u8) -> EthernetAddress {
        EthernetAddress([0x02, 0, 0, 0, 0, last])
    }

    #[test]
    fn roundtrip() {
        let repr = EthernetRepr {
            src_addr: addr(1),
            dst_addr: addr(2),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = [0u8; HEADER_LEN + 4];
        let mut frame = EthernetFrame::new_unchecked(&mut buf[..]);
        repr.emit(&mut frame).unwrap();
        frame.payload_mut().copy_from_slice(b"abcd");
        let frame = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert_eq!(EthernetRepr::parse(&frame).unwrap(), repr);
        assert_eq!(frame.payload(), b"abcd");
    }

    #[test]
    fn truncated_rejected() {
        for len in 0..HEADER_LEN {
            let buf = vec![0u8; len];
            assert_eq!(
                EthernetFrame::new_checked(&buf[..]).err(),
                Some(WireError::Truncated)
            );
        }
    }

    #[test]
    fn address_classes() {
        assert!(EthernetAddress::BROADCAST.is_broadcast());
        assert!(EthernetAddress::BROADCAST.is_multicast());
        assert!(!EthernetAddress::BROADCAST.is_unicast());
        let mcast = EthernetAddress([0x01, 0, 0x5e, 0, 0, 1]);
        assert!(mcast.is_multicast() && !mcast.is_broadcast());
        assert!(addr(9).is_unicast());
    }

    #[test]
    fn mac_from_ipv4_is_stable_unicast() {
        let a = EthernetAddress::from_ipv4(Ipv4Addr::new(10, 0, 0, 7));
        let b = EthernetAddress::from_ipv4(Ipv4Addr::new(10, 0, 0, 7));
        let c = EthernetAddress::from_ipv4(Ipv4Addr::new(10, 0, 0, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_unicast());
        assert_eq!(a.to_string(), "02:00:0a:00:00:07");
    }

    #[test]
    fn ethertype_conversions() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x86dd), EtherType::Unknown(0x86dd));
        assert_eq!(u16::from(EtherType::Ipv4), 0x0800);
        assert_eq!(u16::from(EtherType::Unknown(0x1234)), 0x1234);
    }

    #[test]
    fn encapsulation_pads_small_packets() {
        let framed = encapsulate_ipv4(addr(1), addr(2), &[0xaa; 20]);
        assert_eq!(framed.len(), HEADER_LEN + MIN_PAYLOAD);
        let frame = EthernetFrame::new_checked(&framed[..]).unwrap();
        assert_eq!(&frame.payload()[..20], &[0xaa; 20]);
        assert!(frame.payload()[20..].iter().all(|&b| b == 0));
        // Large packets are not padded.
        let big = encapsulate_ipv4(addr(1), addr(2), &[0xbb; 500]);
        assert_eq!(big.len(), HEADER_LEN + 500);
        // A recycled buffer's old contents show through neither the header,
        // nor the payload, nor the pad.
        let mut recycled = vec![0xcc; 700];
        encapsulate_ipv4_into(addr(1), addr(2), &[0xaa; 20], &mut recycled);
        assert_eq!(recycled, framed);
    }

    #[test]
    fn prop_roundtrip() {
        check("ethernet_prop_roundtrip", |rng| {
            let src: [u8; 6] = std::array::from_fn(|_| rng.u8());
            let dst: [u8; 6] = std::array::from_fn(|_| rng.u8());
            let ethertype = rng.u16();
            let payload = rng.bytes(0, 128);
            let repr = EthernetRepr {
                src_addr: EthernetAddress(src),
                dst_addr: EthernetAddress(dst),
                ethertype: EtherType::from(ethertype),
            };
            let mut buf = vec![0u8; HEADER_LEN + payload.len()];
            let mut frame = EthernetFrame::new_unchecked(&mut buf[..]);
            repr.emit(&mut frame).unwrap();
            frame.payload_mut().copy_from_slice(&payload);
            let frame = EthernetFrame::new_checked(&buf[..]).unwrap();
            assert_eq!(EthernetRepr::parse(&frame).unwrap(), repr);
            assert_eq!(frame.payload(), &payload[..]);
        });
    }
}
