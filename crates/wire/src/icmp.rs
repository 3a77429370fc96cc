//! ICMPv4: echo request/reply and destination unreachable.
//!
//! Two message types matter to this stack: *echo* (so hosts are
//! pingable, the universal liveness check of the era) and *destination
//! unreachable / port unreachable*, which RFC 1122 requires a host to
//! send when a UDP datagram arrives for a port with no listener — the
//! very packet Partridge & Pink's UDP work contends with.

use crate::checksum;
use crate::{Result, WireError};
use core::fmt;

/// Minimum ICMP header length (type, code, checksum, 4 bytes of
/// type-specific data).
pub const HEADER_LEN: usize = 8;

/// Parsed ICMP message kinds this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpRepr<'a> {
    /// Echo request (type 8): ping us.
    EchoRequest {
        /// Identifier (conventionally the pinger's pid).
        ident: u16,
        /// Sequence number within the ping run.
        seq: u16,
        /// Opaque payload to be echoed back.
        payload: &'a [u8],
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier echoed from the request.
        ident: u16,
        /// Sequence echoed from the request.
        seq: u16,
        /// Echoed payload.
        payload: &'a [u8],
    },
    /// Destination unreachable (type 3) carrying the offending packet's
    /// IP header + first 8 payload bytes, per RFC 792.
    DestinationUnreachable {
        /// The code (3 = port unreachable, the one this stack emits).
        code: u8,
        /// The quoted original datagram prefix.
        original: &'a [u8],
    },
    /// Anything else: preserved as (type, code) so it can be counted.
    Unknown {
        /// ICMP type byte.
        kind: u8,
        /// ICMP code byte.
        code: u8,
    },
}

/// The code for "port unreachable" within destination-unreachable.
pub const CODE_PORT_UNREACHABLE: u8 = 3;

impl fmt::Display for IcmpRepr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcmpRepr::EchoRequest { ident, seq, .. } => {
                write!(f, "echo-request id={ident} seq={seq}")
            }
            IcmpRepr::EchoReply { ident, seq, .. } => {
                write!(f, "echo-reply id={ident} seq={seq}")
            }
            IcmpRepr::DestinationUnreachable { code, .. } => {
                write!(f, "dest-unreachable code={code}")
            }
            IcmpRepr::Unknown { kind, code } => write!(f, "icmp type={kind} code={code}"),
        }
    }
}

impl<'a> IcmpRepr<'a> {
    /// Parse and checksum-verify an ICMP message.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if !checksum::verify(data) {
            return Err(WireError::BadChecksum);
        }
        let kind = data[0];
        let code = data[1];
        let word = |lo: usize| u16::from_be_bytes([data[lo], data[lo + 1]]);
        Ok(match (kind, code) {
            (8, 0) => IcmpRepr::EchoRequest {
                ident: word(4),
                seq: word(6),
                payload: &data[8..],
            },
            (0, 0) => IcmpRepr::EchoReply {
                ident: word(4),
                seq: word(6),
                payload: &data[8..],
            },
            (3, code) => IcmpRepr::DestinationUnreachable {
                code,
                original: &data[8..],
            },
            (kind, code) => IcmpRepr::Unknown { kind, code },
        })
    }

    /// Serialize the message (with checksum) into a fresh buffer.
    pub fn emit(&self) -> Vec<u8> {
        let (kind, code, word, payload): (u8, u8, [u8; 4], &[u8]) = match self {
            IcmpRepr::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                let mut w = [0u8; 4];
                w[0..2].copy_from_slice(&ident.to_be_bytes());
                w[2..4].copy_from_slice(&seq.to_be_bytes());
                (8, 0, w, payload)
            }
            IcmpRepr::EchoReply {
                ident,
                seq,
                payload,
            } => {
                let mut w = [0u8; 4];
                w[0..2].copy_from_slice(&ident.to_be_bytes());
                w[2..4].copy_from_slice(&seq.to_be_bytes());
                (0, 0, w, payload)
            }
            IcmpRepr::DestinationUnreachable { code, original } => (3, *code, [0u8; 4], original),
            IcmpRepr::Unknown { kind, code } => (*kind, *code, [0u8; 4], &[]),
        };
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&[kind, code, 0, 0]);
        out.extend_from_slice(&word);
        out.extend_from_slice(payload);
        let sum = checksum::checksum(&out);
        out[2..4].copy_from_slice(&sum.to_be_bytes());
        out
    }

    /// Build the port-unreachable message RFC 1122 mandates: quote the
    /// offending packet's IP header plus its first 8 transport bytes.
    pub fn port_unreachable(original_ip_packet: &'a [u8], ip_header_len: usize) -> Self {
        let quote_len = (ip_header_len + 8).min(original_ip_packet.len());
        IcmpRepr::DestinationUnreachable {
            code: CODE_PORT_UNREACHABLE,
            original: &original_ip_packet[..quote_len],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let request = IcmpRepr::EchoRequest {
            ident: 0x1234,
            seq: 7,
            payload: b"ping payload",
        };
        let bytes = request.emit();
        let parsed = IcmpRepr::parse(&bytes).unwrap();
        assert_eq!(parsed, request);
    }

    /// Header, then payload, then one sum: the same bytes as zero-filling
    /// the whole message first and checksumming it with the 16-bit loop.
    #[test]
    fn emit_is_byte_identical_to_fill_copy_and_reference_sum() {
        let payload = tcpdemux_testprop::TestRng::from_seed(8).bytes(1472, 1473);
        for len in 0..=1472 {
            let message = IcmpRepr::EchoRequest {
                ident: 0x1234,
                seq: len as u16,
                payload: &payload[..len],
            };
            let mut want = vec![0u8; HEADER_LEN + len];
            want[0] = 8;
            want[4..6].copy_from_slice(&0x1234u16.to_be_bytes());
            want[6..8].copy_from_slice(&(len as u16).to_be_bytes());
            want[8..].copy_from_slice(&payload[..len]);
            let sum = checksum::reference(&want);
            want[2..4].copy_from_slice(&sum.to_be_bytes());
            assert_eq!(message.emit(), want, "{len} B");
        }
    }

    #[test]
    fn reply_roundtrip() {
        let reply = IcmpRepr::EchoReply {
            ident: 1,
            seq: 2,
            payload: b"",
        };
        let bytes = reply.emit();
        assert_eq!(IcmpRepr::parse(&bytes).unwrap(), reply);
    }

    #[test]
    fn unreachable_quotes_original() {
        let original = [0x45u8; 40]; // 20-byte header + 20 more
        let msg = IcmpRepr::port_unreachable(&original, 20);
        let bytes = msg.emit();
        match IcmpRepr::parse(&bytes).unwrap() {
            IcmpRepr::DestinationUnreachable { code, original } => {
                assert_eq!(code, CODE_PORT_UNREACHABLE);
                assert_eq!(original.len(), 28, "header + 8 bytes");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unreachable_quote_truncates_to_packet() {
        let tiny = [0x45u8; 22];
        let msg = IcmpRepr::port_unreachable(&tiny, 20);
        let IcmpRepr::DestinationUnreachable { original, .. } = msg else {
            panic!();
        };
        assert_eq!(original.len(), 22);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut bytes = IcmpRepr::EchoRequest {
            ident: 9,
            seq: 9,
            payload: b"x",
        }
        .emit();
        bytes[8] ^= 0xff;
        assert_eq!(IcmpRepr::parse(&bytes).err(), Some(WireError::BadChecksum));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            IcmpRepr::parse(&[8, 0, 0]).err(),
            Some(WireError::Truncated)
        );
    }

    #[test]
    fn unknown_types_preserved() {
        let msg = IcmpRepr::Unknown { kind: 13, code: 0 }; // timestamp
        let bytes = msg.emit();
        assert_eq!(IcmpRepr::parse(&bytes).unwrap(), msg);
        assert_eq!(msg.to_string(), "icmp type=13 code=0");
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            IcmpRepr::EchoRequest {
                ident: 1,
                seq: 2,
                payload: b""
            }
            .to_string(),
            "echo-request id=1 seq=2"
        );
        assert!(IcmpRepr::port_unreachable(&[0u8; 28], 20)
            .to_string()
            .contains("code=3"));
    }
}
