//! Human-readable one-line frame rendering, in `tcpdump`'s dialect.
//!
//! For debugging workloads and examples: takes raw frame bytes and
//! produces lines like
//!
//! ```text
//! IP 10.0.9.9.40001 > 10.0.0.1.1521: Flags [S], seq 268435456, win 8760, length 0
//! IP 10.0.0.1.1521 > 10.0.9.9.40001: Flags [S.], seq 805306368, ack 268435457, win 8760, length 0
//! ```
//!
//! Rendering never fails: malformed frames render as a diagnostic
//! (`malformed: <reason>`), mirroring how tcpdump degrades.

use crate::ipv4::{IpProtocol, Ipv4Packet, Ipv4Repr};
use crate::tcp::{TcpFlags, TcpRepr, TcpSegment};
use core::fmt::Write as _;

/// Render an IPv4 frame as a one-line summary.
pub fn format_packet(frame: &[u8]) -> String {
    match try_format(frame) {
        Ok(line) => line,
        Err(e) => format!("malformed: {e}"),
    }
}

fn tcp_flag_string(flags: TcpFlags) -> String {
    // tcpdump's notation: S=SYN, F=FIN, R=RST, P=PSH, '.'=ACK, U=URG.
    let mut s = String::new();
    if flags.contains(TcpFlags::SYN) {
        s.push('S');
    }
    if flags.contains(TcpFlags::FIN) {
        s.push('F');
    }
    if flags.contains(TcpFlags::RST) {
        s.push('R');
    }
    if flags.contains(TcpFlags::PSH) {
        s.push('P');
    }
    if flags.contains(TcpFlags::URG) {
        s.push('U');
    }
    if flags.contains(TcpFlags::ACK) {
        s.push('.');
    }
    if s.is_empty() {
        s.push_str("none");
    }
    s
}

fn try_format(frame: &[u8]) -> crate::Result<String> {
    let packet = Ipv4Packet::new_checked(frame)?;
    let ip = Ipv4Repr::parse(&packet)?;
    let mut out = String::new();
    match ip.protocol {
        IpProtocol::Tcp => {
            let segment = TcpSegment::new_checked(packet.payload())?;
            let tcp = TcpRepr::parse(&segment, ip.src_addr, ip.dst_addr)?;
            let _ = write!(
                out,
                "IP {}.{} > {}.{}: Flags [{}], seq {}",
                ip.src_addr,
                tcp.src_port,
                ip.dst_addr,
                tcp.dst_port,
                tcp_flag_string(tcp.flags),
                tcp.seq,
            );
            if tcp.flags.contains(TcpFlags::ACK) {
                let _ = write!(out, ", ack {}", tcp.ack);
            }
            let _ = write!(
                out,
                ", win {}, length {}",
                tcp.window,
                segment.payload().len()
            );
            if let Some(mss) = tcp.mss {
                let _ = write!(out, ", options [mss {mss}]");
            }
        }
        other => {
            let _ = write!(
                out,
                "IP {} > {}: protocol {} length {}",
                ip.src_addr,
                ip.dst_addr,
                u8::from(other),
                packet.payload().len()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_tcp_frame;
    use std::net::Ipv4Addr;

    fn ip() -> Ipv4Repr {
        Ipv4Repr::new(
            Ipv4Addr::new(10, 0, 9, 9),
            Ipv4Addr::new(10, 0, 0, 1),
            IpProtocol::Tcp,
        )
    }

    #[test]
    fn syn_renders_like_tcpdump() {
        let tcp = TcpRepr {
            src_port: 40_001,
            dst_port: 1521,
            seq: 1000,
            flags: TcpFlags::SYN,
            window: 8760,
            mss: Some(1460),
            ..TcpRepr::default()
        };
        let line = format_packet(&build_tcp_frame(&ip(), &tcp, b""));
        assert_eq!(
            line,
            "IP 10.0.9.9.40001 > 10.0.0.1.1521: Flags [S], seq 1000, \
             win 8760, length 0, options [mss 1460]"
        );
    }

    #[test]
    fn data_segment_renders_ack_and_length() {
        let tcp = TcpRepr {
            src_port: 1,
            dst_port: 2,
            seq: 5,
            ack: 9,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 100,
            ..TcpRepr::default()
        };
        let line = format_packet(&build_tcp_frame(&ip(), &tcp, b"hello"));
        assert!(line.contains("Flags [P.]"), "{line}");
        assert!(line.contains("ack 9"), "{line}");
        assert!(line.contains("length 5"), "{line}");
    }

    #[test]
    fn rst_and_fin_flags() {
        let tcp = TcpRepr {
            src_port: 1,
            dst_port: 2,
            flags: TcpFlags::RST,
            ..TcpRepr::default()
        };
        assert!(format_packet(&build_tcp_frame(&ip(), &tcp, b"")).contains("Flags [R]"));
        let tcp = TcpRepr {
            src_port: 1,
            dst_port: 2,
            flags: TcpFlags::FIN | TcpFlags::ACK,
            ..TcpRepr::default()
        };
        assert!(format_packet(&build_tcp_frame(&ip(), &tcp, b"")).contains("Flags [F.]"));
    }

    #[test]
    fn other_protocols_render_by_number() {
        let ip = Ipv4Repr {
            payload_len: 3,
            ..Ipv4Repr::new(
                Ipv4Addr::new(10, 0, 9, 9),
                Ipv4Addr::new(10, 0, 0, 1),
                IpProtocol::Udp,
            )
        };
        let mut frame = vec![0u8; ip.total_len()];
        frame[crate::ipv4::HEADER_LEN..].copy_from_slice(b"abc");
        ip.emit(&mut Ipv4Packet::new_unchecked(&mut frame[..]))
            .unwrap();
        assert_eq!(
            format_packet(&frame),
            "IP 10.0.9.9 > 10.0.0.1: protocol 17 length 3"
        );
    }

    #[test]
    fn malformed_renders_diagnostic() {
        assert_eq!(format_packet(&[0x45, 0x00]), "malformed: buffer truncated");
        let mut frame = build_tcp_frame(
            &ip(),
            &TcpRepr {
                src_port: 1,
                dst_port: 2,
                ..TcpRepr::default()
            },
            b"",
        );
        let last = frame.len() - 1;
        frame[last] ^= 1;
        assert!(format_packet(&frame).starts_with("malformed:"));
    }
}
