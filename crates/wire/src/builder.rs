//! Convenience builders that assemble complete IPv4 frames.
//!
//! The simulator and the stack construct millions of packets; these helpers
//! centralize buffer sizing and checksum ordering (transport checksum first,
//! then the IP header checksum) so call sites cannot get it wrong.
//!
//! The `*_into` functions assemble directly into a caller-provided `Vec`,
//! which lets callers that pool their transmit buffers (see the stack's
//! `TxPool`) build frames without any intermediate copy. [`FrameBuilder`]
//! wraps them with an internal reusable buffer for callers that only need
//! a borrowed view of the frame.

use crate::ipv4::{self, IpProtocol, Ipv4Packet, Ipv4Repr};
use crate::tcp::{TcpRepr, TcpSegment};
use crate::udp::{self, UdpDatagram, UdpRepr};

/// Build a complete IPv4+TCP frame from representations and a payload.
///
/// Panics only if `payload` exceeds the 16-bit IPv4 length space, which the
/// callers in this workspace never do; use [`FrameBuilder`] for a fallible,
/// allocation-reusing interface.
pub fn build_tcp_frame(ip: &Ipv4Repr, tcp: &TcpRepr, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    build_tcp_frame_into(ip, tcp, payload, &mut out);
    out
}

/// Build a complete IPv4+UDP frame from representations and a payload.
pub fn build_udp_frame(ip: &Ipv4Repr, udp_repr: &UdpRepr, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    build_udp_frame_into(ip, udp_repr, payload, &mut out);
    out
}

/// A segment's payload as the frame builder takes it: one slice, or two
/// framed as their concatenation — a range of a send ring that straddles
/// its wrap point.
pub trait Payload {
    /// Bytes in the payload.
    fn byte_len(&self) -> usize;
    /// Append the payload to `out`.
    fn append_to(&self, out: &mut Vec<u8>);
}

impl Payload for &[u8] {
    fn byte_len(&self) -> usize {
        self.len()
    }

    fn append_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl Payload for [&[u8]; 2] {
    fn byte_len(&self) -> usize {
        self[0].len() + self[1].len()
    }

    fn append_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self[0]);
        // Most segments do not straddle the wrap: skip the empty copy.
        if !self[1].is_empty() {
            out.extend_from_slice(self[1]);
        }
    }
}

/// Replace `out`'s contents with `headers_len` zero bytes for the emitters
/// to fill, then `payload`. The whole frame is reserved first, so a fresh
/// buffer allocates once, and a payload byte is written once: no zero-fill
/// that the copy would overwrite.
fn start_frame(headers_len: usize, payload: &impl Payload, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(headers_len + payload.byte_len());
    out.resize(headers_len, 0);
    payload.append_to(out);
}

/// Assemble an IPv4+TCP frame into `out`, replacing its contents.
///
/// `out`'s capacity is reused, so a caller that recycles its buffers pays
/// no allocation once the buffer has grown to the working frame size. The
/// payload is one slice or two (see [`Payload`]).
pub fn build_tcp_frame_into(
    ip: &Ipv4Repr,
    tcp: &TcpRepr,
    payload: impl Payload,
    out: &mut Vec<u8>,
) {
    let tcp_len = tcp.header_len() + payload.byte_len();
    start_frame(ipv4::HEADER_LEN + tcp.header_len(), &payload, out);
    {
        let mut segment = TcpSegment::new_unchecked(&mut out[ipv4::HEADER_LEN..]);
        tcp.emit(&mut segment, ip.src_addr, ip.dst_addr)
            .expect("TCP emit into sized buffer cannot fail");
    }
    let ip = Ipv4Repr {
        payload_len: tcp_len,
        protocol: IpProtocol::Tcp,
        ..*ip
    };
    let mut packet = Ipv4Packet::new_unchecked(&mut out[..]);
    ip.emit(&mut packet)
        .expect("IPv4 emit into sized buffer cannot fail");
}

/// Assemble an IPv4+UDP frame into `out`, replacing its contents.
pub fn build_udp_frame_into(ip: &Ipv4Repr, udp_repr: &UdpRepr, payload: &[u8], out: &mut Vec<u8>) {
    let udp_len = udp::HEADER_LEN + payload.len();
    start_frame(ipv4::HEADER_LEN + udp::HEADER_LEN, &payload, out);
    {
        let mut datagram = UdpDatagram::new_unchecked(&mut out[ipv4::HEADER_LEN..]);
        udp_repr
            .emit(&mut datagram, ip.src_addr, ip.dst_addr, payload.len())
            .expect("UDP emit into sized buffer cannot fail");
    }
    let ip = Ipv4Repr {
        payload_len: udp_len,
        protocol: IpProtocol::Udp,
        ..*ip
    };
    let mut packet = Ipv4Packet::new_unchecked(&mut out[..]);
    ip.emit(&mut packet)
        .expect("IPv4 emit into sized buffer cannot fail");
}

/// A reusable frame assembly buffer.
///
/// Reusing one `FrameBuilder` across packets avoids per-packet allocation —
/// relevant when the benchmark harness generates traces of 10⁷ packets.
#[derive(Debug, Default)]
pub struct FrameBuilder {
    buffer: Vec<u8>,
}

impl FrameBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assemble an IPv4+TCP frame in the internal buffer and return it.
    pub fn tcp(&mut self, ip: &Ipv4Repr, tcp: &TcpRepr, payload: &[u8]) -> &[u8] {
        build_tcp_frame_into(ip, tcp, payload, &mut self.buffer);
        &self.buffer
    }

    /// Assemble an IPv4+UDP frame in the internal buffer and return it.
    pub fn udp(&mut self, ip: &Ipv4Repr, udp_repr: &UdpRepr, payload: &[u8]) -> &[u8] {
        build_udp_frame_into(ip, udp_repr, payload, &mut self.buffer);
        &self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::reference;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    fn ip_repr() -> Ipv4Repr {
        Ipv4Repr::new(
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(10, 1, 2, 4),
            IpProtocol::Tcp,
        )
    }

    #[test]
    fn tcp_frame_parses_end_to_end() {
        let tcp = TcpRepr {
            src_port: 33000,
            dst_port: 1521,
            seq: 7,
            ack: 11,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            ..TcpRepr::default()
        };
        let frame = build_tcp_frame(&ip_repr(), &tcp, b"SELECT 1");

        let packet = Ipv4Packet::new_checked(&frame[..]).unwrap();
        let ip = Ipv4Repr::parse(&packet).unwrap();
        assert_eq!(ip.protocol, IpProtocol::Tcp);
        let segment = TcpSegment::new_checked(packet.payload()).unwrap();
        let parsed = TcpRepr::parse(&segment, ip.src_addr, ip.dst_addr).unwrap();
        assert_eq!(parsed, tcp);
        assert_eq!(segment.payload(), b"SELECT 1");
    }

    #[test]
    fn udp_frame_parses_end_to_end() {
        let udp_repr = UdpRepr {
            src_port: 5353,
            dst_port: 53,
        };
        let frame = build_udp_frame(&ip_repr(), &udp_repr, b"dns");

        let packet = Ipv4Packet::new_checked(&frame[..]).unwrap();
        let ip = Ipv4Repr::parse(&packet).unwrap();
        assert_eq!(ip.protocol, IpProtocol::Udp);
        let datagram = UdpDatagram::new_checked(packet.payload()).unwrap();
        let parsed = UdpRepr::parse(&datagram, ip.src_addr, ip.dst_addr).unwrap();
        assert_eq!(parsed, udp_repr);
        assert_eq!(datagram.payload(), b"dns");
    }

    #[test]
    fn builder_reuse_produces_identical_frames() {
        let tcp = TcpRepr {
            src_port: 100,
            dst_port: 200,
            ..TcpRepr::default()
        };
        let mut builder = FrameBuilder::new();
        let first = builder.tcp(&ip_repr(), &tcp, b"abc").to_vec();
        // Interleave a different frame to dirty the buffer.
        let _ = builder.udp(
            &ip_repr(),
            &UdpRepr {
                src_port: 1,
                dst_port: 2,
            },
            b"zzzzzzzzzzzz",
        );
        let second = builder.tcp(&ip_repr(), &tcp, b"abc").to_vec();
        assert_eq!(first, second);
    }

    #[test]
    fn into_variants_match_owned_builders() {
        let tcp = TcpRepr {
            src_port: 4455,
            dst_port: 1521,
            seq: 99,
            flags: TcpFlags::ACK,
            ..TcpRepr::default()
        };
        // Start with dirty, oversized contents to show `_into` replaces them.
        let mut out = vec![0xAA; 512];
        build_tcp_frame_into(&ip_repr(), &tcp, &b"payload"[..], &mut out);
        assert_eq!(out, build_tcp_frame(&ip_repr(), &tcp, b"payload"));

        let udp_repr = UdpRepr {
            src_port: 9,
            dst_port: 10,
        };
        build_udp_frame_into(&ip_repr(), &udp_repr, b"x", &mut out);
        assert_eq!(out, build_udp_frame(&ip_repr(), &udp_repr, b"x"));
    }

    /// The builder this one replaced, pass for pass: zero-fill the whole
    /// frame, copy the payload in, store `transport_header` (checksum field
    /// zero), sum pseudo-header + segment with the 16-bit reference loop,
    /// then the IPv4 header through the field setters and the same loop.
    fn three_pass(
        ip: &Ipv4Repr,
        transport_header: &[u8],
        checksum_at: usize,
        payload: &[u8],
    ) -> Vec<u8> {
        let transport_len = transport_header.len() + payload.len();
        let mut out = vec![0u8; ipv4::HEADER_LEN + transport_len];
        out[ipv4::HEADER_LEN + transport_header.len()..].copy_from_slice(payload);
        out[ipv4::HEADER_LEN..][..transport_header.len()].copy_from_slice(transport_header);

        let mut summed = Vec::new();
        summed.extend_from_slice(&ip.src_addr.octets());
        summed.extend_from_slice(&ip.dst_addr.octets());
        summed.extend_from_slice(&[0, ip.protocol.into()]);
        summed.extend_from_slice(&(transport_len as u16).to_be_bytes());
        summed.extend_from_slice(&out[ipv4::HEADER_LEN..]);
        let sum = match (reference(&summed), ip.protocol) {
            (0, IpProtocol::Udp) => 0xffff, // RFC 768: zero means "none"
            (sum, _) => sum,
        };
        out[ipv4::HEADER_LEN + checksum_at..][..2].copy_from_slice(&sum.to_be_bytes());

        let mut packet = Ipv4Packet::new_unchecked(&mut out[..]);
        packet.set_version_and_header_len(ipv4::HEADER_LEN);
        packet.set_tos(0);
        packet.set_total_len((ipv4::HEADER_LEN + transport_len) as u16);
        packet.set_ident(0);
        packet.set_dont_frag(true);
        packet.set_ttl(ip.ttl);
        packet.set_protocol(ip.protocol);
        packet.set_src_addr(ip.src_addr);
        packet.set_dst_addr(ip.dst_addr);
        let sum = reference(&out[..ipv4::HEADER_LEN]);
        out[10..12].copy_from_slice(&sum.to_be_bytes());
        out
    }

    /// A TCP header through the field setters, options as the old `emit`
    /// laid them out: MSS, window scale, NOPs to the next 4-byte boundary.
    fn tcp_header_by_setters(tcp: &TcpRepr) -> Vec<u8> {
        let mut header = vec![0u8; tcp.header_len()];
        let mut segment = TcpSegment::new_unchecked(&mut header[..]);
        segment.set_src_port(tcp.src_port);
        segment.set_dst_port(tcp.dst_port);
        segment.set_seq(tcp.seq);
        segment.set_ack(tcp.ack);
        segment.set_header_len_and_flags(tcp.header_len(), tcp.flags);
        segment.set_window(tcp.window);
        segment.set_urgent_pointer(0);
        let mut options = Vec::new();
        if let Some(mss) = tcp.mss {
            options.extend_from_slice(&[2, 4]);
            options.extend_from_slice(&mss.to_be_bytes());
        }
        if let Some(shift) = tcp.window_scale {
            options.extend_from_slice(&[3, 3, shift]);
        }
        options.resize(tcp.header_len() - crate::tcp::HEADER_LEN, 1);
        header[crate::tcp::HEADER_LEN..].copy_from_slice(&options);
        header
    }

    /// Every payload length a 1500-byte MTU allows, with each option set,
    /// into a fresh `Vec` and into a recycled one full of stale bytes: the
    /// one-pass build never zero-fills the payload region, so it must never
    /// let what was there show through.
    #[test]
    fn tcp_frames_are_byte_identical_to_the_three_pass_builder() {
        let mut rng = tcpdemux_testprop::TestRng::from_seed(1460);
        let payload = rng.bytes(1460, 1461);
        let options = [
            (None, None),
            (Some(1460), None),
            (None, Some(7)),
            (Some(536), Some(2)),
        ];
        let mut recycled = Vec::new();
        for len in 0..=1460 {
            for (mss, window_scale) in options {
                let tcp = TcpRepr {
                    src_port: rng.u16_in(1, u16::MAX),
                    dst_port: rng.u16_in(1, u16::MAX),
                    seq: rng.u32(),
                    ack: rng.u32(),
                    flags: TcpFlags::from_bits(rng.u16()),
                    window: rng.u16(),
                    mss,
                    window_scale,
                };
                let ip = Ipv4Repr {
                    payload_len: tcp.header_len() + len,
                    ttl: rng.u8(),
                    ..Ipv4Repr::new(rng.u32().into(), rng.u32().into(), IpProtocol::Tcp)
                };
                let want = three_pass(&ip, &tcp_header_by_setters(&tcp), 16, &payload[..len]);
                assert_eq!(
                    build_tcp_frame(&ip, &tcp, &payload[..len]),
                    want,
                    "{len} B fresh"
                );
                recycled.clear();
                recycled.resize(rng.usize_in(0, 2048), 0xAA);
                build_tcp_frame_into(&ip, &tcp, &payload[..len], &mut recycled);
                assert_eq!(recycled, want, "{len} B recycled, {tcp:?}");
            }
        }
    }

    /// A payload in two slices frames as their concatenation, wherever
    /// the split falls, into a fresh buffer and a recycled one.
    #[test]
    fn two_slice_payloads_frame_as_their_concatenation() {
        let mut rng = tcpdemux_testprop::TestRng::from_seed(2);
        let payload = rng.bytes(1460, 1461);
        let mut recycled = vec![0xAA; 1600];
        for len in [0, 1, 2, 3, 100, 1459, 1460] {
            let tcp = TcpRepr {
                src_port: rng.u16_in(1, u16::MAX),
                dst_port: rng.u16_in(1, u16::MAX),
                seq: rng.u32(),
                ack: rng.u32(),
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: rng.u16(),
                ..TcpRepr::default()
            };
            let want = build_tcp_frame(&ip_repr(), &tcp, &payload[..len]);
            for split in 0..=len {
                let (a, b) = payload[..len].split_at(split);
                build_tcp_frame_into(&ip_repr(), &tcp, [a, b], &mut recycled);
                assert_eq!(recycled, want, "{len} B split at {split}");
            }
        }
    }

    #[test]
    fn udp_frames_are_byte_identical_to_the_three_pass_builder() {
        let mut rng = tcpdemux_testprop::TestRng::from_seed(1472);
        let payload = rng.bytes(1472, 1473);
        let mut recycled = Vec::new();
        for len in 0..=1472 {
            let udp_repr = UdpRepr {
                src_port: rng.u16(),
                dst_port: rng.u16_in(1, u16::MAX),
            };
            let ip = Ipv4Repr {
                payload_len: udp::HEADER_LEN + len,
                ttl: rng.u8(),
                ..Ipv4Repr::new(rng.u32().into(), rng.u32().into(), IpProtocol::Udp)
            };
            let mut header = [0u8; udp::HEADER_LEN];
            header[0..2].copy_from_slice(&udp_repr.src_port.to_be_bytes());
            header[2..4].copy_from_slice(&udp_repr.dst_port.to_be_bytes());
            header[4..6].copy_from_slice(&((udp::HEADER_LEN + len) as u16).to_be_bytes());
            let want = three_pass(&ip, &header, 6, &payload[..len]);
            assert_eq!(
                build_udp_frame(&ip, &udp_repr, &payload[..len]),
                want,
                "{len} B fresh"
            );
            recycled.clear();
            recycled.resize(rng.usize_in(0, 2048), 0xAA);
            build_udp_frame_into(&ip, &udp_repr, &payload[..len], &mut recycled);
            assert_eq!(recycled, want, "{len} B recycled");
        }
    }

    #[test]
    fn empty_payload_frames() {
        // A pure ACK: the most common packet in the paper's workload.
        let tcp = TcpRepr {
            src_port: 1,
            dst_port: 2,
            flags: TcpFlags::ACK,
            ..TcpRepr::default()
        };
        let frame = build_tcp_frame(&ip_repr(), &tcp, b"");
        assert_eq!(frame.len(), 40); // 20 IP + 20 TCP
        let packet = Ipv4Packet::new_checked(&frame[..]).unwrap();
        assert!(Ipv4Repr::parse(&packet).is_ok());
    }
}
