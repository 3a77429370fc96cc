//! Shard identity, frame steering, and the shared placement table.
//!
//! A [`ShardedStack`](crate::ShardedStack) owns K single-threaded
//! [`Stack`](crate::Stack) shards. Everything that must be agreed on
//! *across* shards lives here:
//!
//! * [`ShardId`] — the typed index that [`StackConfig`](crate::StackConfig)
//!   carries and every introspection row reports;
//! * [`steering_key`] — the minimal ingress parse that recovers a
//!   connection key from a raw IPv4 frame without validating checksums
//!   (validation is the owning shard's job; steering only needs the
//!   four-tuple, and a frame too mangled to parse goes to shard 0, whose
//!   stack counts the error exactly as a single stack would);
//! * [`SteerTable`] — the accept/steering table shared by all shards:
//!   which ports listen (listeners are installed on *every* shard,
//!   SO_REUSEPORT-style, so a SYN needs no table consultation — the
//!   symmetric hash alone picks its owner), the global ephemeral-port
//!   allocator (global so two shards can never mint the same four-tuple),
//!   the round-robin accept cursor, and the local/cross placement
//!   counters that make cross-shard `connect` placement a measured
//!   quantity.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use tcpdemux_hash::shard_for;
use tcpdemux_pcb::ConnectionKey;

/// Which shard of a [`ShardedStack`](crate::ShardedStack) owns a
/// connection. A plain single [`Stack`](crate::Stack) is shard 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(u16);

impl ShardId {
    /// Wrap a shard index. Panics above `u16::MAX` shards (far beyond
    /// any sane configuration).
    pub fn new(index: usize) -> Self {
        Self(u16::try_from(index).expect("shard index fits in u16"))
    }

    /// The index back, for slice addressing.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl core::fmt::Display for ShardId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "sh{}", self.0)
    }
}

/// Recover the steering four-tuple from a raw IPv4 frame, oriented from
/// the receiving host's perspective (local = destination). Returns `None`
/// for frames too short or malformed to carry TCP ports, and for every
/// other protocol — those cannot belong to any flow and may be handled by
/// any shard.
pub fn steering_key(frame: &[u8]) -> Option<ConnectionKey> {
    if frame.len() < 20 || frame[0] >> 4 != 4 {
        return None;
    }
    let header_len = usize::from(frame[0] & 0x0f) * 4;
    if header_len < 20 || frame.len() < header_len + 4 {
        return None;
    }
    // TCP is 6; its src/dst ports are its first four bytes, which is all
    // steering reads.
    if frame[9] != 6 {
        return None;
    }
    let addr =
        |at: usize| std::net::Ipv4Addr::new(frame[at], frame[at + 1], frame[at + 2], frame[at + 3]);
    let port = |at: usize| u16::from(frame[at]) << 8 | u16::from(frame[at + 1]);
    Some(ConnectionKey::new(
        addr(16),
        port(header_len + 2),
        addr(12),
        port(header_len),
    ))
}

/// Local/cross placement counts for active opens routed through the
/// table; "cross" means the caller's hinted shard did not own the flow
/// and the connect had to take the owning shard's lock instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Connects whose hinted shard already owned the new flow's key.
    pub local: u64,
    /// Connects resolved to a different shard than hinted.
    pub cross: u64,
}

/// The state every shard must agree on, shared behind one allocation.
#[derive(Debug)]
pub struct SteerTable {
    shards: usize,
    /// Ports with a listener installed (on every shard).
    listen_ports: Mutex<Vec<u16>>,
    /// Next ephemeral port, global across shards: the four-tuple decides
    /// the owning shard, so the port must be unique stack-wide *before*
    /// the owner is known.
    next_ephemeral: AtomicUsize,
    ephemeral_base: u16,
    /// Per-port round-robin cursor for [`accept`](crate::ShardedStack::accept).
    accept_cursor: AtomicUsize,
    placements_local: AtomicU64,
    placements_cross: AtomicU64,
}

impl SteerTable {
    /// A table for `shards` shards allocating ephemeral ports from
    /// `ephemeral_base`.
    pub fn new(shards: usize, ephemeral_base: u16) -> Self {
        assert!(shards > 0, "shard count must be nonzero");
        Self {
            shards,
            listen_ports: Mutex::new(Vec::new()),
            next_ephemeral: AtomicUsize::new(usize::from(ephemeral_base)),
            ephemeral_base,
            accept_cursor: AtomicUsize::new(0),
            placements_local: AtomicU64::new(0),
            placements_cross: AtomicU64::new(0),
        }
    }

    /// Number of shards this table steers for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key` — pure function of the symmetric hash, so
    /// both directions of the flow (and both hosts, at equal shard
    /// counts) agree.
    pub fn steer(&self, key: &ConnectionKey) -> ShardId {
        ShardId::new(shard_for(key, self.shards))
    }

    /// Record that `port` now listens (on every shard).
    pub fn note_listen(&self, port: u16) {
        let mut ports = self.listen_ports.lock().expect("steer table lock");
        if !ports.contains(&port) {
            ports.push(port);
        }
    }

    /// Whether `port` has a listener installed.
    pub fn is_listening(&self, port: u16) -> bool {
        self.listen_ports
            .lock()
            .expect("steer table lock")
            .contains(&port)
    }

    /// Hand out the next globally-unique ephemeral port.
    ///
    /// Ticketing through the shared atomic cursor keeps concurrent
    /// callers on distinct candidates, and every candidate is vetted
    /// before it is handed out: ports with a listener installed are
    /// skipped (listeners live on *every* shard, so a connect minted on
    /// one would collide with the accept path), and so is any port the
    /// caller's `in_use` check claims — the sharded runtime probes all
    /// shards' connection tables with the same
    /// [`Stack::ephemeral_port_in_use`](crate::Stack::ephemeral_port_in_use)
    /// predicate the single-stack allocator uses. After a full range of
    /// candidates without a vacancy the allocator reports
    /// [`StackError::NoEphemeralPorts`](crate::StackError::NoEphemeralPorts)
    /// rather than recycling a live port into a duplicate four-tuple.
    pub fn alloc_ephemeral(&self, in_use: impl Fn(u16) -> bool) -> Result<u16, crate::StackError> {
        let span = usize::from(u16::MAX) - usize::from(self.ephemeral_base) + 1;
        let base = usize::from(self.ephemeral_base);
        for _ in 0..span {
            let n = self.next_ephemeral.fetch_add(1, Ordering::Relaxed);
            let port = u16::try_from(base + (n - base) % span).expect("ephemeral in range");
            if !self.is_listening(port) && !in_use(port) {
                return Ok(port);
            }
        }
        Err(crate::StackError::NoEphemeralPorts)
    }

    /// Count one placement outcome: the connect's hinted shard vs the
    /// shard the symmetric hash actually assigned.
    pub fn note_placement(&self, hinted: ShardId, owner: ShardId) {
        if hinted == owner {
            self.placements_local.fetch_add(1, Ordering::Relaxed);
        } else {
            self.placements_cross.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accumulated placement counts.
    pub fn placements(&self) -> PlacementStats {
        PlacementStats {
            local: self.placements_local.load(Ordering::Relaxed),
            cross: self.placements_cross.load(Ordering::Relaxed),
        }
    }

    /// Advance the shared accept cursor, returning the shard to poll
    /// first — round-robin so no shard's accept queue starves.
    pub fn next_accept_shard(&self) -> usize {
        self.accept_cursor.fetch_add(1, Ordering::Relaxed) % self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn shard_id_display_and_index() {
        let id = ShardId::new(3);
        assert_eq!(id.index(), 3);
        assert_eq!(id.to_string(), "sh3");
        assert_eq!(ShardId::default(), ShardId::new(0));
    }

    #[test]
    fn steering_key_reads_tcp_tuple() {
        // Hand-rolled 20-byte IPv4 header + 4 bytes of TCP ports.
        let mut frame = vec![0u8; 24];
        frame[0] = 0x45;
        frame[9] = 6;
        frame[12..16].copy_from_slice(&[10, 0, 0, 2]);
        frame[16..20].copy_from_slice(&[10, 0, 0, 1]);
        frame[20..22].copy_from_slice(&40_111u16.to_be_bytes());
        frame[22..24].copy_from_slice(&1521u16.to_be_bytes());
        let key = steering_key(&frame).expect("parses");
        assert_eq!(key.local_addr, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(key.local_port, 1521);
        assert_eq!(key.remote_addr, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(key.remote_port, 40_111);
    }

    #[test]
    fn steering_key_rejects_junk() {
        assert_eq!(steering_key(&[]), None);
        assert_eq!(steering_key(&[0u8; 19]), None);
        let mut not_v4 = vec![0x65u8; 24];
        not_v4[9] = 6;
        assert_eq!(steering_key(&not_v4), None);
        for protocol in [1, 17] {
            let mut other = vec![0x45u8; 24];
            other[9] = protocol;
            assert_eq!(steering_key(&other), None, "protocol {protocol}");
        }
        let mut truncated = vec![0x45u8; 22]; // header claims 20, ports cut off
        truncated[9] = 6;
        assert_eq!(steering_key(&truncated), None);
    }

    #[test]
    fn ephemeral_ports_skip_in_use_and_listeners_and_report_exhaustion() {
        let table = SteerTable::new(4, 65_530); // six-port range
        let got: Vec<u16> = (0..4)
            .map(|_| table.alloc_ephemeral(|_| false).expect("range not full"))
            .collect();
        assert_eq!(got, vec![65_530, 65_531, 65_532, 65_533]);
        // Wraparound with most of the range still held: a listener sits
        // on 65_535 and every connection except 65_531's is alive — the
        // allocator must walk past all of them to the one free port
        // instead of recycling a live one.
        table.note_listen(65_535);
        let busy = |p: u16| p != 65_531;
        assert_eq!(table.alloc_ephemeral(busy).expect("one port free"), 65_531);
        // A fully-occupied range is an error, not a recycled duplicate.
        assert!(matches!(
            table.alloc_ephemeral(|_| true),
            Err(crate::StackError::NoEphemeralPorts)
        ));
    }

    #[test]
    fn placement_counters() {
        let table = SteerTable::new(2, 49_152);
        table.note_placement(ShardId::new(0), ShardId::new(0));
        table.note_placement(ShardId::new(0), ShardId::new(1));
        table.note_placement(ShardId::new(1), ShardId::new(1));
        assert_eq!(table.placements(), PlacementStats { local: 2, cross: 1 });
    }

    #[test]
    fn listen_ports_dedupe() {
        let table = SteerTable::new(2, 49_152);
        table.note_listen(80);
        table.note_listen(80);
        table.note_listen(1521);
        assert!(table.is_listening(80));
        assert!(table.is_listening(1521));
        assert!(!table.is_listening(8080));
    }

    #[test]
    fn accept_cursor_round_robins() {
        let table = SteerTable::new(3, 49_152);
        let seq: Vec<usize> = (0..6).map(|_| table.next_accept_shard()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }
}
