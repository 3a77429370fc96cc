//! Wire formats for the `tcpdemux` project.
//!
//! This crate provides typed, zero-copy views over raw packet bytes for the
//! protocols the demultiplexing paper operates on: IPv4, TCP, and UDP. It is
//! deliberately in the style of [smoltcp]: a `Packet`/`Segment` wrapper type
//! borrows a byte buffer and exposes checked field accessors, while a
//! higher-level `Repr` ("representation") struct holds a parsed, validated
//! summary of the header and can emit itself back into a buffer.
//!
//! The demultiplexing algorithms of McKenney & Dove (SIGCOMM 1992) consume
//! the four-tuple *(source address, source port, destination address,
//! destination port)* carried by these headers; this crate is the substrate
//! that produces those tuples from real packet bytes.
//!
//! # Design rules
//!
//! * No heap allocation anywhere on the parse path.
//! * Every accessor that could read out of bounds is only reachable after
//!   [`check_len`](Ipv4Packet::check_len)-style validation, or returns a
//!   [`WireError`].
//! * Checksums (RFC 1071 Internet checksum, including the TCP/UDP
//!   pseudo-header) are always verified on parse and generated on emit.
//!
//! # Example
//!
//! ```
//! use tcpdemux_wire::{Ipv4Repr, TcpRepr, TcpFlags, IpProtocol, build_tcp_frame};
//! use std::net::Ipv4Addr;
//!
//! let ip = Ipv4Repr::new(
//!     Ipv4Addr::new(10, 0, 0, 1),
//!     Ipv4Addr::new(10, 0, 0, 2),
//!     IpProtocol::Tcp,
//! );
//! let tcp = TcpRepr {
//!     src_port: 4096,
//!     dst_port: 80,
//!     seq: 1,
//!     ack: 0,
//!     flags: TcpFlags::SYN,
//!     window: 8760,
//!     ..TcpRepr::default()
//! };
//! let frame = build_tcp_frame(&ip, &tcp, b"");
//!
//! // Round-trip: parse what we emitted.
//! let packet = tcpdemux_wire::Ipv4Packet::new_checked(&frame[..]).unwrap();
//! let parsed_ip = Ipv4Repr::parse(&packet).unwrap();
//! assert_eq!(parsed_ip.src_addr, ip.src_addr);
//! let seg = tcpdemux_wire::TcpSegment::new_checked(packet.payload()).unwrap();
//! let parsed_tcp = TcpRepr::parse(&seg, ip.src_addr, ip.dst_addr).unwrap();
//! assert_eq!(parsed_tcp.dst_port, 80);
//! ```
//!
//! [smoltcp]: https://github.com/smoltcp-rs/smoltcp

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arp;
pub mod checksum;
mod error;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod pcap;
pub mod pretty;
pub mod tcp;
pub mod udp;

mod builder;

pub use arp::{ArpOperation, ArpRepr};
pub use builder::{
    build_tcp_frame, build_tcp_frame_into, build_udp_frame, build_udp_frame_into, FrameBuilder,
    Payload,
};
pub use error::WireError;
pub use ethernet::{EtherType, EthernetAddress, EthernetFrame, EthernetRepr};
pub use icmp::IcmpRepr;
pub use ipv4::{IpProtocol, Ipv4Packet, Ipv4Repr};
pub use tcp::{TcpFlags, TcpOption, TcpRepr, TcpSegment};
pub use udp::{UdpDatagram, UdpRepr};

/// Result alias used throughout the wire crate.
pub type Result<T> = core::result::Result<T, WireError>;
