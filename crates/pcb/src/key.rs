//! Connection keys: the 96 bits a demultiplexer must map to a PCB.
//!
//! The paper's opening observation is that the source and destination IP
//! addresses and TCP ports "total 96 bits, [so] simple indexing schemes are
//! not feasible". [`ConnectionKey`] packages those 96 bits from the
//! receiver's point of view; [`ListenKey`] is the wildcard form matched by
//! listening PCBs.

use core::fmt;
use std::net::Ipv4Addr;
use tcpdemux_wire::{Ipv4Repr, TcpRepr};

/// A fully-specified connection key, oriented from the local host's
/// perspective: `local` is this machine's address/port, `remote` is the
/// peer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnectionKey {
    /// Local (receiving host) IP address.
    pub local_addr: Ipv4Addr,
    /// Remote (peer) IP address.
    pub remote_addr: Ipv4Addr,
    /// Local port.
    pub local_port: u16,
    /// Remote port.
    pub remote_port: u16,
}

impl ConnectionKey {
    /// Construct a key from explicit parts.
    pub fn new(
        local_addr: Ipv4Addr,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Self {
        Self {
            local_addr,
            remote_addr,
            local_port,
            remote_port,
        }
    }

    /// Build the key for an *incoming* TCP segment: the packet's destination
    /// is our local side and its source is the remote side.
    pub fn from_incoming_tcp(ip: &Ipv4Repr, tcp: &TcpRepr) -> Self {
        Self {
            local_addr: ip.dst_addr,
            remote_addr: ip.src_addr,
            local_port: tcp.dst_port,
            remote_port: tcp.src_port,
        }
    }

    /// The key as seen from the other endpoint (local and remote swapped).
    /// An outgoing segment on this connection carries `self.reversed()`
    /// as its incoming key at the peer.
    pub fn reversed(&self) -> Self {
        Self {
            local_addr: self.remote_addr,
            remote_addr: self.local_addr,
            local_port: self.remote_port,
            remote_port: self.local_port,
        }
    }

    /// The 96 key bits as three 32-bit words:
    /// `[local_addr, remote_addr, (local_port << 16) | remote_port]`.
    /// This is the canonical input to the hash functions in
    /// `tcpdemux-hash`.
    pub fn as_words(&self) -> [u32; 3] {
        [
            u32::from(self.local_addr),
            u32::from(self.remote_addr),
            (u32::from(self.local_port) << 16) | u32::from(self.remote_port),
        ]
    }

    /// The key bits as twelve bytes in network order; input for byte-wise
    /// hash functions (CRC, Pearson).
    pub fn as_bytes(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[0..4].copy_from_slice(&self.local_addr.octets());
        out[4..8].copy_from_slice(&self.remote_addr.octets());
        out[8..10].copy_from_slice(&self.local_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.remote_port.to_be_bytes());
        out
    }

    /// Whether this key matches a listener bound to `listen`.
    pub fn matches_listener(&self, listen: &ListenKey) -> bool {
        listen.matches(self)
    }
}

impl fmt::Display for ConnectionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} <- {}:{}",
            self.local_addr, self.local_port, self.remote_addr, self.remote_port
        )
    }
}

/// A listener's key: a local port, optionally restricted to one local
/// address, matching any remote endpoint. This is the BSD "wildcard PCB".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenKey {
    /// Local address the listener is bound to; `None` = INADDR_ANY.
    pub local_addr: Option<Ipv4Addr>,
    /// Local port the listener is bound to.
    pub local_port: u16,
}

impl ListenKey {
    /// Listen on a port on all local addresses.
    pub fn any(local_port: u16) -> Self {
        Self {
            local_addr: None,
            local_port,
        }
    }

    /// Listen on a port on one specific local address.
    pub fn bound(local_addr: Ipv4Addr, local_port: u16) -> Self {
        Self {
            local_addr: Some(local_addr),
            local_port,
        }
    }

    /// Whether an incoming connection key matches this listener.
    pub fn matches(&self, key: &ConnectionKey) -> bool {
        self.local_port == key.local_port
            && match self.local_addr {
                None => true,
                Some(addr) => addr == key.local_addr,
            }
    }

    /// Specificity for listener selection: a bound listener beats a
    /// wildcard listener for the same port (BSD longest-match rule).
    pub fn specificity(&self) -> u8 {
        match self.local_addr {
            Some(_) => 1,
            None => 0,
        }
    }
}

impl fmt::Display for ListenKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.local_addr {
            Some(addr) => write!(f, "{}:{} (listen)", addr, self.local_port),
            None => write!(f, "*:{} (listen)", self.local_port),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_testprop::check;
    use tcpdemux_wire::IpProtocol;

    fn key() -> ConnectionKey {
        ConnectionKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            1521,
            Ipv4Addr::new(10, 0, 9, 9),
            40001,
        )
    }

    #[test]
    fn from_incoming_tcp_orients_correctly() {
        let ip = Ipv4Repr::new(
            Ipv4Addr::new(10, 0, 9, 9), // packet source = remote client
            Ipv4Addr::new(10, 0, 0, 1), // packet destination = local server
            IpProtocol::Tcp,
        );
        let tcp = TcpRepr {
            src_port: 40001,
            dst_port: 1521,
            ..TcpRepr::default()
        };
        assert_eq!(ConnectionKey::from_incoming_tcp(&ip, &tcp), key());
    }

    #[test]
    fn reversed_is_involutive() {
        assert_eq!(key().reversed().reversed(), key());
        assert_ne!(key().reversed(), key());
    }

    #[test]
    fn words_pack_96_bits() {
        let words = key().as_words();
        assert_eq!(words[0], u32::from(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(words[1], u32::from(Ipv4Addr::new(10, 0, 9, 9)));
        assert_eq!(words[2], (1521u32 << 16) | 40001);
    }

    #[test]
    fn bytes_and_words_agree() {
        let bytes = key().as_bytes();
        let words = key().as_words();
        for (i, word) in words.iter().enumerate() {
            let b = &bytes[i * 4..i * 4 + 4];
            assert_eq!(u32::from_be_bytes([b[0], b[1], b[2], b[3]]), *word);
        }
    }

    #[test]
    fn listener_matching() {
        let k = key();
        assert!(ListenKey::any(1521).matches(&k));
        assert!(ListenKey::bound(Ipv4Addr::new(10, 0, 0, 1), 1521).matches(&k));
        assert!(!ListenKey::bound(Ipv4Addr::new(10, 0, 0, 2), 1521).matches(&k));
        assert!(!ListenKey::any(80).matches(&k));
        assert!(k.matches_listener(&ListenKey::any(1521)));
    }

    #[test]
    fn specificity_orders_listeners() {
        assert!(
            ListenKey::bound(Ipv4Addr::new(1, 2, 3, 4), 80).specificity()
                > ListenKey::any(80).specificity()
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(key().to_string(), "10.0.0.1:1521 <- 10.0.9.9:40001");
        assert_eq!(ListenKey::any(80).to_string(), "*:80 (listen)");
        assert_eq!(
            ListenKey::bound(Ipv4Addr::new(1, 2, 3, 4), 80).to_string(),
            "1.2.3.4:80 (listen)"
        );
    }

    #[test]
    fn prop_distinct_tuples_distinct_keys() {
        check("key_prop_distinct_tuples_distinct_keys", |rng| {
            // Draw from a small space so collisions (a == b) actually occur.
            let tuple = |r: &mut tcpdemux_testprop::TestRng| {
                (
                    r.u32_below(4),
                    r.u32_below(4),
                    r.u16_in(0, 4),
                    r.u16_in(0, 4),
                )
            };
            let a = tuple(rng);
            let b = tuple(rng);
            let ka = ConnectionKey::new(Ipv4Addr::from(a.0), a.2, Ipv4Addr::from(a.1), a.3);
            let kb = ConnectionKey::new(Ipv4Addr::from(b.0), b.2, Ipv4Addr::from(b.1), b.3);
            assert_eq!(ka == kb, a == b);
            // The packed forms must be injective as well.
            assert_eq!(ka.as_words() == kb.as_words(), a == b);
            assert_eq!(ka.as_bytes() == kb.as_bytes(), a == b);
        });
        check("key_prop_distinct_tuples_distinct_keys_wide", |rng| {
            let a = (rng.u32(), rng.u32(), rng.u16(), rng.u16());
            let b = (rng.u32(), rng.u32(), rng.u16(), rng.u16());
            let ka = ConnectionKey::new(Ipv4Addr::from(a.0), a.2, Ipv4Addr::from(a.1), a.3);
            let kb = ConnectionKey::new(Ipv4Addr::from(b.0), b.2, Ipv4Addr::from(b.1), b.3);
            assert_eq!(ka == kb, a == b);
        });
    }

    #[test]
    fn prop_reversed_involutive() {
        check("key_prop_reversed_involutive", |rng| {
            let a = (rng.u32(), rng.u32(), rng.u16(), rng.u16());
            let k = ConnectionKey::new(Ipv4Addr::from(a.0), a.2, Ipv4Addr::from(a.1), a.3);
            assert_eq!(k.reversed().reversed(), k);
        });
    }
}
