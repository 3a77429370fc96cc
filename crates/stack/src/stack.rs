//! The receive path itself.

use crate::replies::Replies;
use crate::shard::ShardId;
use crate::socket::{BlockPool, SocketBuffer, SocketError};
use crate::stats::{StackStats, StatsSnapshot};
use crate::timer::{TimerId, TimerWheel};
use crate::txpool::TxPool;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tcpdemux_core::{Demux, KeylessSequent, LookupResult, LookupStats, PacketKind};
use tcpdemux_hash::Multiplicative;
use tcpdemux_pcb::{
    Arena, CcAction, CongestionState, ConnectionKey, ListenKey, Pcb, PcbId, RttEstimator,
    SendBuffer, SeqNum, TcpEvent, TcpState,
};
use tcpdemux_telemetry::{CloseCause, Event, HistogramId, Telemetry};
use tcpdemux_wire::{
    build_tcp_frame_into, build_udp_frame_into, IpProtocol, Ipv4Packet, Ipv4Repr, Payload,
    TcpFlags, TcpRepr, TcpSegment, UdpDatagram, UdpRepr, WireError,
};

/// Microseconds per stack timer tick (the stack's tick is 1 ms; the RTT
/// estimator works in microseconds).
const US_PER_TICK: u64 = 1_000;

/// Stack-level (non-wire) errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// The port already has a listener.
    PortInUse(u16),
    /// The PCB handle does not resolve (closed or never existed).
    NoSuchConnection,
    /// The operation requires an established connection.
    NotEstablished,
    /// All ephemeral ports are in use (practically unreachable).
    NoEphemeralPorts,
    /// The state machine refused the operation in the current state.
    InvalidState(TcpState),
    /// A live connection already holds this exact four-tuple.
    ConnectionExists(ConnectionKey),
}

impl core::fmt::Display for StackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackError::PortInUse(p) => write!(f, "port {p} already in use"),
            StackError::NoSuchConnection => write!(f, "no such connection"),
            StackError::NotEstablished => write!(f, "connection not established"),
            StackError::NoEphemeralPorts => write!(f, "ephemeral ports exhausted"),
            StackError::InvalidState(s) => write!(f, "invalid in state {s}"),
            StackError::ConnectionExists(key) => write!(f, "connection {key} already exists"),
        }
    }
}

impl std::error::Error for StackError {}

/// What happened to a received frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Payload bytes were delivered to a socket.
    Delivered {
        /// The connection.
        pcb: PcbId,
        /// Bytes delivered.
        bytes: usize,
    },
    /// A UDP datagram was delivered to an unconnected bound socket (no
    /// PCB involved — the wildcard path).
    DeliveredUnconnected {
        /// Bytes delivered.
        bytes: usize,
    },
    /// A pure acknowledgement was processed.
    AckProcessed {
        /// The connection.
        pcb: PcbId,
    },
    /// A handshake completed; the connection is now established.
    Established {
        /// The connection.
        pcb: PcbId,
    },
    /// A listener accepted a SYN; a SYN-ACK is in `replies`.
    NewConnection {
        /// The embryonic connection (SYN-RECEIVED).
        pcb: PcbId,
    },
    /// The peer sent FIN; its direction of the stream is closed.
    PeerClosed {
        /// The connection.
        pcb: PcbId,
    },
    /// The connection finished closing and was reclaimed.
    Closed,
    /// The connection entered TIME-WAIT and is draining (2·MSL timer
    /// scheduled; see [`StackConfig::time_wait_ticks`]).
    TimeWait {
        /// The draining connection.
        pcb: PcbId,
    },
    /// The segment matched nothing; an RST is in `replies`.
    ResetSent,
    /// The peer reset the connection; it was reclaimed.
    ResetReceived,
    /// A segment that delivered nothing, re-acknowledged: either held in
    /// the socket for reassembly because it arrived ahead of a missing
    /// one (counted in `out_of_order_queued`), or discarded as a
    /// duplicate or as lying outside the window (`out_of_order_drops`).
    Duplicate {
        /// The connection.
        pcb: PcbId,
    },
    /// The frame was addressed to some other host.
    NotForUs,
    /// The frame carried a protocol this stack does not implement.
    UnhandledProtocol,
    /// A UDP datagram arrived for a port with no socket; an ICMP
    /// port-unreachable is in `replies` (RFC 1122).
    UdpUnreachable,
    /// An ICMP echo request was answered; the reply is in `replies`.
    EchoReplied,
    /// Another ICMP message was received and counted.
    IcmpProcessed,
    /// An ARP request for our address was answered; the reply is in
    /// `replies`.
    ArpReplied,
    /// An ARP message was processed (mapping learned, no reply owed).
    ArpProcessed,
    /// A SYN arrived for a listener whose backlog is full; it was
    /// dropped silently (the client will retransmit).
    SynDropped,
}

/// The result of one received frame: what happened, any frames to send
/// in response, and the demultiplexing cost incurred.
#[derive(Debug, Clone)]
pub struct RxResult {
    /// Classification of the received frame.
    pub outcome: RxOutcome,
    /// Reply frames (ACKs, SYN-ACKs, RSTs) ready for transmission.
    pub replies: Replies,
    /// PCBs examined by the lookup for this frame (the paper's metric).
    pub pcbs_examined: u32,
}

/// The result of one [`ShardedStack::drain`](crate::ShardedStack::drain)
/// call: one [`Stack::receive`] result per drained frame, in ring order.
///
/// The two counters are kept only because the frozen `benchmark/` crate
/// reads them off `drain`'s return value; the batched lookup they used to
/// describe is gone. They leave together with the benchmark's
/// `stack.runtime.batched_lookup_ratio` row in the next `benchmark` PR.
#[derive(Debug, Default)]
pub struct BatchRxResult {
    /// Per-frame outcomes, in ring order.
    pub results: Vec<Result<RxResult, WireError>>,
    /// Frames that reached the demultiplexer (each looked up exactly
    /// once, at its turn).
    pub batched_lookups: usize,
    /// Always 0.
    pub relookups: usize,
}

/// What one [`Stack::advance_time`] call did.
#[derive(Debug, Default)]
pub struct TimeAdvance {
    /// Connections reclaimed by the 2·MSL TIME-WAIT timer.
    pub reclaimed: usize,
    /// Frames to (re)transmit: every queued unacknowledged segment of
    /// every connection whose retransmission timer expired, rebuilt with
    /// the current acknowledgement state. The caller puts them on the
    /// wire exactly like `send`/`receive` output (and may [`Stack::recycle`]
    /// them afterwards).
    pub retransmits: Vec<Vec<u8>>,
    /// Pure ACK frames emitted by delayed-ACK timers that expired during
    /// this advance; the caller transmits them like any reply frame.
    pub acks: Vec<Vec<u8>>,
    /// How many delayed ACKs fired (== `acks.len()`, kept as a counter so
    /// drivers that drain `acks` can still aggregate).
    pub acks_sent: u64,
    /// Zero-window probe re-emissions fired by the persist timer during
    /// this advance (the frames themselves ride in `retransmits`).
    pub zero_window_probes: u64,
    /// Connections aborted because their retransmission budget ran out.
    /// Each one's socket survives with [`SocketError::TimedOut`] set (and
    /// any already-delivered bytes still readable) until the application
    /// reaps it via [`Stack::release_socket`].
    pub aborted: Vec<PcbId>,
}

/// Payloads carried by the stack's timer wheel: which timer, on which
/// connection. A handle whose connection has been reclaimed since (its
/// slot perhaps reused) fails the arena's generation check when it fires.
#[derive(Debug, Clone, Copy)]
enum TimerEvent {
    /// The 2·MSL TIME-WAIT drain for a parked connection.
    TimeWait(PcbId),
    /// The retransmission timeout for a connection with unacked segments.
    Retransmit(PcbId),
    /// A delayed acknowledgement owed on a connection came due.
    DelayedAck(PcbId),
}

/// One transmitted, not-yet-acknowledged segment, kept until the peer's
/// cumulative ACK passes `end`. Metadata only: frames are not stored — a
/// retransmission rebuilds the segment with the *current* ack/window
/// state, as a real stack does — and neither are payload bytes, which
/// stay in the connection's [`SendBuffer`] until acknowledged.
#[derive(Debug, Clone, Copy)]
struct InflightSegment {
    /// First sequence number the segment occupies.
    seq: SeqNum,
    /// One past the last occupied sequence number; the segment is
    /// acknowledged once SND.UNA reaches this.
    end: SeqNum,
    flags: TcpFlags,
    /// MSS option to carry on rebuild (SYN/SYN-ACK segments).
    mss: Option<u16>,
    /// Payload bytes carried. Segments retire whole and in order, so the
    /// queue head's payload is always the first `len` bytes of the send
    /// buffer.
    len: u32,
    /// Stack tick at which the segment was first transmitted.
    sent_at: u64,
    /// Karn's rule: once set, an ACK covering this segment is ambiguous
    /// and must not produce an RTT sample.
    retransmitted: bool,
    /// Zero-window probe: its RTO re-emissions are the persist timer and
    /// never count against the retry budget (a closed window is not a
    /// dead path).
    probe: bool,
}

/// The sender half of a connection: its send buffer, the segments in
/// flight over the front of that buffer, and their RTO timer. A
/// connection holds one only while it has bytes to send or segments (a
/// SYN and a FIN count) awaiting acknowledgement; a half whose last byte
/// was acknowledged goes back to [`Stack::idle_halves`] with its
/// capacities intact (a send ring larger than a receive buffer excepted,
/// see [`release_half`]), so a request/response connection neither keeps
/// a buffer while idle nor allocates one per response.
#[derive(Debug)]
struct SendHalf {
    /// The connection's unacknowledged bytes followed by its unsent ones.
    /// [`Stack::poll_transmit`] frames segments out of the unsent part,
    /// which starts [`data_len`](Self::data_len) bytes in; a cumulative
    /// ACK consumes from the front.
    buf: SendBuffer,
    /// Unacknowledged segments, oldest first, awaiting cumulative ACKs
    /// or retransmission.
    segments: VecDeque<InflightSegment>,
    /// The armed retransmission timer, if any.
    timer: Option<TimerId>,
}

impl SendHalf {
    /// Payload bytes in flight: how far into the send buffer the
    /// sent-but-unacknowledged prefix reaches. Summed on demand rather
    /// than stored — the queue is at most a window of segments, and a
    /// stored count would be one more thing every push, retire and
    /// release has to keep in step.
    fn data_len(&self) -> usize {
        self.segments.iter().map(|s| s.len as usize).sum()
    }

    /// Bytes enqueued and not yet framed.
    fn unsent(&self) -> usize {
        self.buf.len() - self.data_len()
    }
}

/// Per-connection delayed-ACK bookkeeping (only populated when
/// [`WindowConfig::delayed_ack_ticks`] is set).
#[derive(Debug, Default)]
struct DelayedAckState {
    /// In-order data segments received and not yet acknowledged.
    pending: u32,
    /// The armed ack timer, if any.
    timer: Option<TimerId>,
}

/// Everything the stack keeps for one connection, in the one arena slot
/// the demultiplexer's [`PcbId`] resolves to: the lookup that finds the
/// PCB finds the connection's socket, sender state and queue membership
/// with it. What every connection needs for as long as it lives is
/// inline; what it needs only at times (the [`SendHalf`]) or only under
/// a non-default config (delayed ACKs) is behind a pointer, because the
/// slot array is sized for the most connections the stack has ever held
/// and every inline byte is paid for by each of them.
#[derive(Debug)]
struct Conn {
    pcb: Pcb,
    /// Bytes delivered and not yet read by the application, and bytes
    /// held for reassembly, in a block borrowed from
    /// [`Stack::rx_blocks`] for as long as there are any.
    socket: SocketBuffer,
    /// Sender state, while there is any.
    tx: Option<Box<SendHalf>>,
    /// Unacked in-order data segments and the armed ack timer.
    delayed: Option<Box<DelayedAckState>>,
    /// Which listener (index into [`Stack::listeners`]) a not-yet-accepted
    /// connection counts against. Ports are unique among listeners, so
    /// every index fits.
    listener: Option<u16>,
    /// Whether the connection is queued on [`Stack::tx_pending`] (which
    /// therefore never holds a live connection twice).
    tx_pending: bool,
}

impl Conn {
    fn new(pcb: Pcb) -> Self {
        Self {
            pcb,
            socket: SocketBuffer::new(),
            tx: None,
            delayed: None,
            listener: None,
            tx_pending: false,
        }
    }

    /// Bytes enqueued for sending and not yet framed.
    fn send_queued(&self) -> usize {
        self.tx.as_deref().map_or(0, SendHalf::unsent)
    }

    /// The receive window to advertise right now: the configured ceiling
    /// shrunk by delivered-but-unread socket occupancy (so a slow reader
    /// closes the window instead of letting the peer overrun the receive
    /// buffer).
    fn advertised_window(&self, window: &WindowConfig) -> u16 {
        let free = window.recv_buffer.saturating_sub(self.socket.available());
        u16::try_from(free.min(usize::from(window.advertise))).unwrap_or(u16::MAX)
    }
}

/// How a [`StackConfig`] builds each stack's demultiplexer. A *factory*
/// rather than a boxed instance because [`ShardedStack`] builds one
/// independent demux per shard from a single config.
///
/// [`ShardedStack`]: crate::ShardedStack
pub type DemuxFactory = Arc<dyn Fn() -> Box<dyn Demux> + Send + Sync>;

/// Window, buffering, and congestion-control parameters, folded into
/// [`StackConfig`] via [`StackConfig::with_window`].
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Upper bound on the receive window advertised to the peer. The
    /// *actual* advertisement shrinks as delivered-but-unread bytes pile
    /// up in the socket (`min(advertise, recv_buffer − occupancy)`).
    pub advertise: u16,
    /// Per-connection send-buffer ceiling in bytes (`SO_SNDBUF`
    /// semantics). [`Stack::send`] accepts data while unacknowledged
    /// plus unsent bytes stay under the smaller of this and twice the
    /// peer's current window (never under 16 KiB), and the send ring
    /// grows only that far, so this bounds everything a connection holds
    /// for transmission and a wide window is what reaches it.
    pub send_buffer: usize,
    /// Receive-side cap: delivered-but-unread bytes beyond this are
    /// dropped (and re-ACKed) instead of buffered without bound.
    pub recv_buffer: usize,
    /// Delayed-ACK timer in ticks. `None` acknowledges every in-order
    /// data segment immediately (the pre-delayed-ACK behavior);
    /// `Some(t)` coalesces ACKs until `ack_every` segments or `t` ticks.
    pub delayed_ack_ticks: Option<u64>,
    /// With delayed ACKs on, acknowledge immediately every N-th unacked
    /// data segment (RFC 1122 recommends 2).
    pub ack_every: u32,
    /// Initial congestion window in bytes (RFC 5681 allows up to 4·MSS),
    /// rounded down to whole segments of each connection's MSS.
    pub initial_cwnd: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            advertise: 8760,
            send_buffer: 256 * 1024,
            recv_buffer: 64 * 1024,
            delayed_ack_ticks: None,
            ack_every: 2,
            initial_cwnd: 4 * 1460,
        }
    }
}

impl WindowConfig {
    /// Advertise at most `advertise` bytes of receive window.
    pub fn with_advertise(mut self, advertise: u16) -> Self {
        self.advertise = advertise;
        self
    }

    /// Cap each connection's send buffer at `bytes`, whatever window the
    /// peer offers.
    pub fn with_send_buffer(mut self, bytes: usize) -> Self {
        self.send_buffer = bytes;
        self
    }

    /// Cap each connection's receive-side buffering at `bytes`.
    pub fn with_recv_buffer(mut self, bytes: usize) -> Self {
        self.recv_buffer = bytes;
        self
    }

    /// Delay ACKs up to `ticks`, coalescing every
    /// [`ack_every`](Self::ack_every)-th data segment.
    pub fn with_delayed_ack(mut self, ticks: u64) -> Self {
        self.delayed_ack_ticks = Some(ticks);
        self
    }

    /// Acknowledge immediately every `n`-th unacked data segment when
    /// delayed ACKs are on.
    pub fn with_ack_every(mut self, n: u32) -> Self {
        self.ack_every = n.max(1);
        self
    }

    /// Start each connection's congestion window at `bytes`.
    pub fn with_initial_cwnd(mut self, bytes: usize) -> Self {
        self.initial_cwnd = bytes;
        self
    }

    /// The window an empty receive buffer offers, `min(advertise,
    /// recv_buffer)`: what the SYN or SYN-ACK advertises and RCV.WND
    /// starts at. A peer told more would send bytes the receiver has to
    /// trim, and only its retransmission timer would resend them.
    fn open_window(&self) -> u16 {
        u16::try_from(self.recv_buffer).map_or(self.advertise, |cap| cap.min(self.advertise))
    }
}

/// Reusable scratch for [`Stack::poll_transmit`]: the frames the stack
/// wants on the wire this poll. Cleared on entry to each poll; keep one
/// per driver loop so steady-state polling reuses its capacity.
#[derive(Debug, Default)]
pub struct TxScratch {
    /// Frames to transmit, in emission order.
    pub frames: Vec<Vec<u8>>,
}

impl TxScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stack construction parameters — the *one* construction path for both
/// a single [`Stack`] ([`Stack::with_config`]) and a K-shard
/// [`ShardedStack`](crate::ShardedStack). Carries everything a stack
/// needs, including its demultiplexer factory and the typed [`ShardId`]
/// it reports in introspection rows.
#[derive(Clone)]
pub struct StackConfig {
    /// This host's IPv4 address.
    pub local_addr: Ipv4Addr,
    /// Window, buffering, and congestion-control parameters.
    pub window: WindowConfig,
    /// MSS advertised in SYN segments.
    pub mss: u16,
    /// First ephemeral port for active opens.
    pub ephemeral_base: u16,
    /// Maximum number of times any one segment is retransmitted before
    /// the connection is aborted with [`SocketError::TimedOut`]
    /// (BSD's `TCP_MAXRXTSHIFT` spirit; RFC 1122 §4.2.3.5's R2).
    pub max_retries: u32,
    /// TIME-WAIT duration in timer ticks (the 2·MSL drain). `None`
    /// reclaims the connection as soon as it reaches TIME-WAIT — the
    /// timer-free model convenient for simulations that never reuse a
    /// four-tuple. `Some(n)` keeps the PCB resident (re-acking stray
    /// FINs, refusing key reuse) until [`Stack::advance_time`] passes
    /// `n` ticks.
    pub time_wait_ticks: Option<u64>,
    /// Which shard this stack is, for introspection rows; a standalone
    /// stack is shard 0. [`ShardedStack`](crate::ShardedStack) overrides
    /// this per shard.
    pub shard: ShardId,
    /// Capacity of each shard's ingress SPSC ring (frames); unused by a
    /// standalone [`Stack`], which has no ingress queue.
    pub ring_capacity: usize,
    /// Builds the demultiplexer (one per shard); `None` is the default
    /// table, [`KeylessSequent`] over [`Multiplicative`] with 19 chains.
    demux: Option<DemuxFactory>,
}

impl core::fmt::Debug for StackConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StackConfig")
            .field("local_addr", &self.local_addr)
            .field("window", &self.window)
            .field("mss", &self.mss)
            .field("ephemeral_base", &self.ephemeral_base)
            .field("max_retries", &self.max_retries)
            .field("time_wait_ticks", &self.time_wait_ticks)
            .field("shard", &self.shard)
            .field("ring_capacity", &self.ring_capacity)
            .finish_non_exhaustive()
    }
}

impl StackConfig {
    /// Defaults appropriate for tests and simulation: the paper's default
    /// hashed demultiplexer (`sequent(19)` over [`Multiplicative`], as a
    /// [`KeylessSequent`] that confirms keys in the connection slots),
    /// shard 0.
    pub fn new(local_addr: Ipv4Addr) -> Self {
        Self {
            local_addr,
            window: WindowConfig::default(),
            mss: 1460,
            ephemeral_base: 49152,
            max_retries: 8,
            time_wait_ticks: None,
            shard: ShardId::default(),
            ring_capacity: 1024,
            demux: None,
        }
    }

    /// Use `factory` to build this stack's demultiplexer (per shard, for
    /// a sharded runtime) in place of the default table. The stack then
    /// calls it through its vtable, and it keeps its own copy of each key.
    pub fn with_demux(
        mut self,
        factory: impl Fn() -> Box<dyn Demux> + Send + Sync + 'static,
    ) -> Self {
        self.demux = Some(Arc::new(factory));
        self
    }

    /// Tag this stack as `shard` in introspection rows.
    pub fn with_shard(mut self, shard: ShardId) -> Self {
        self.shard = shard;
        self
    }

    /// Size each ingress SPSC ring at `capacity` frames (sharded runtime
    /// only).
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Build one connection table: the configured factory's, or the
    /// default.
    fn build_table(&self) -> Table {
        match &self.demux {
            Some(factory) => Table::Keyed(factory()),
            None => Table::Keyless(KeylessSequent::new(Multiplicative, 19)),
        }
    }

    /// Abort a connection after `max_retries` retransmissions of the same
    /// segment go unacknowledged.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Enable real TIME-WAIT handling with the given duration in ticks.
    pub fn with_time_wait(mut self, ticks: u64) -> Self {
        self.time_wait_ticks = Some(ticks);
        self
    }

    /// Set the window/buffering/congestion parameters.
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Advertise `mss` in SYN segments (and cap the peer's).
    pub fn with_mss(mut self, mss: u16) -> Self {
        self.mss = mss;
        self
    }

    /// Allocate ephemeral ports for active opens starting at `base`.
    pub fn with_ephemeral_base(mut self, base: u16) -> Self {
        self.ephemeral_base = base;
        self
    }
}

/// One row of [`Stack::connection_table`]: a live connection's key,
/// state, and queue/loss-recovery depths — the structured replacement for
/// parsing a `netstat` text dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionInfo {
    /// The shard owning this connection (shard 0 for a plain [`Stack`]).
    pub shard: ShardId,
    /// The connection's four-tuple.
    pub key: ConnectionKey,
    /// Current TCP state.
    pub state: TcpState,
    /// Bytes delivered to the socket and not yet read by the application.
    pub rx_queued: usize,
    /// Bytes that arrived ahead of a missing segment and are held in the
    /// socket until it comes; never more than the advertised window.
    pub rx_staged: usize,
    /// Missing stretches the receiver is waiting for (0 = in order).
    pub rx_holes: usize,
    /// Payload bytes sent and not yet cumulatively acknowledged: the
    /// prefix of the connection's send buffer that the retransmission
    /// queue's segments describe.
    pub tx_queued: usize,
    /// Bytes of storage the connection's send ring has allocated (0
    /// while it has no sender state): what its transmit side costs in
    /// memory, where `tx_queued` is what it holds. The ring grows to at
    /// most twice the largest peer window it was written under, with a
    /// 16 KiB floor, and keeps its storage until the connection parks
    /// its sender state.
    pub tx_ring_bytes: usize,
    /// Segments on the retransmission queue (includes zero-payload SYN,
    /// SYN-ACK, and FIN segments, which occupy sequence space).
    pub inflight_segments: usize,
    /// Consecutive RTO expiries without forward progress (0 = healthy).
    pub rto_attempts: u32,
    /// The negotiated maximum segment size: the unit of `cwnd`.
    pub mss: u16,
    /// Congestion window in bytes, a whole number of segments.
    pub cwnd: usize,
    /// Slow-start threshold in bytes (effectively unbounded until the
    /// first loss).
    pub ssthresh: usize,
    /// The peer's advertised window (SND.WND).
    pub snd_wnd: u16,
    /// Whether NewReno fast recovery is in progress.
    pub in_recovery: bool,
}

impl core::fmt::Display for ConnectionInfo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "tcp  {:<4} {:<28} {:<24} {} rxq={} rx_staged={} rx_holes={} txq={} tx_ring={} rto_attempts={} \
             mss={} cwnd={} ssthresh={} snd_wnd={} recovery={}",
            self.shard.to_string(),
            format!("{}:{}", self.key.local_addr, self.key.local_port),
            format!("{}:{}", self.key.remote_addr, self.key.remote_port),
            self.state,
            self.rx_queued,
            self.rx_staged,
            self.rx_holes,
            self.tx_queued,
            self.tx_ring_bytes,
            self.rto_attempts,
            self.mss,
            self.cwnd,
            self.ssthresh,
            self.snd_wnd,
            self.in_recovery,
        )
    }
}

/// One row of [`Stack::listener_table`]: a TCP listener (with backlog
/// occupancy) or a bound unconnected UDP port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListenerInfo {
    /// The shard this listener row was observed on. A
    /// [`ShardedStack`](crate::ShardedStack) installs every listener on
    /// every shard, so its table has one row per (listener, shard).
    pub shard: ShardId,
    /// The bound local port.
    pub port: u16,
    /// [`IpProtocol::Tcp`] for listeners, [`IpProtocol::Udp`] for bound
    /// datagram ports.
    pub protocol: IpProtocol,
    /// Maximum embryonic + unaccepted connections (TCP only; 0 for UDP).
    pub backlog: usize,
    /// Current embryonic + unaccepted connections (TCP only).
    pub pending: usize,
}

impl core::fmt::Display for ListenerInfo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.protocol {
            IpProtocol::Udp => write!(
                f,
                "udp  {:<4} {:<28} {:<24} BOUND",
                self.shard.to_string(),
                format!("*:{}", self.port),
                "*:*"
            ),
            _ => {
                if self.backlog == usize::MAX {
                    write!(
                        f,
                        "tcp  {:<4} {:<28} {:<24} LISTEN (backlog {}/unbounded)",
                        self.shard.to_string(),
                        format!("*:{}", self.port),
                        "*:*",
                        self.pending,
                    )
                } else {
                    write!(
                        f,
                        "tcp  {:<4} {:<28} {:<24} LISTEN (backlog {}/{})",
                        self.shard.to_string(),
                        format!("*:{}", self.port),
                        "*:*",
                        self.pending,
                        self.backlog,
                    )
                }
            }
        }
    }
}

/// Parameters for [`Stack::listen`], following the `StackConfig::with_*`
/// builder idiom. A bare port converts (`stack.listen(80)`) and means an
/// unbounded backlog; chain [`with_backlog`](Self::with_backlog) for BSD
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListenConfig {
    /// The local port to listen on (all local addresses).
    pub port: u16,
    /// Maximum connections that may be embryonic (SYN-RECEIVED) or
    /// established-but-unaccepted at once; SYNs beyond it are dropped
    /// silently (the BSD behavior — the client retransmits).
    pub backlog: usize,
}

impl ListenConfig {
    /// Listen on `port` with no backlog limit — convenient for harnesses
    /// that process connections without ever calling [`Stack::accept`].
    pub fn port(port: u16) -> Self {
        Self {
            port,
            backlog: usize::MAX,
        }
    }

    /// Cap the backlog at `backlog` pending connections.
    pub fn with_backlog(mut self, backlog: usize) -> Self {
        self.backlog = backlog;
        self
    }
}

impl From<u16> for ListenConfig {
    fn from(port: u16) -> Self {
        Self::port(port)
    }
}

/// A TCP listener: its wildcard key, capacity, and accept queue.
#[derive(Debug)]
struct Listener {
    key: ListenKey,
    backlog: usize,
    /// Connections in SYN-RECEIVED attributed to this listener.
    embryonic: usize,
    /// Established connections awaiting `accept`.
    accept_queue: std::collections::VecDeque<PcbId>,
}

impl Listener {
    fn pending(&self) -> usize {
        self.embryonic + self.accept_queue.len()
    }
}

/// What a send buffer may hold however small, or closed, the peer's
/// window: room for an application's write while a zero-window probe
/// waits, and for a peer that opens its window only a segment at a time.
const SEND_BUFFER_FLOOR: usize = 16 * 1024;

/// Peer windows a send buffer holds above its floor. After the ACKs of
/// an ingest, at most one window is in flight and a transmit may send at
/// most the rest of it, so one window never limits the sender; the
/// second is reservoir for an application that writes once a round trip.
const SEND_BUFFER_WINDOWS: usize = 2;

/// How many bytes, unacknowledged plus unsent, a connection's send
/// buffer may hold while the peer offers `peer_window`:
/// [`SEND_BUFFER_WINDOWS`] windows, at least [`SEND_BUFFER_FLOOR`], under
/// the configured `send_buffer` ceiling. The ring grows only as far as
/// this, so a bulk sender costs two windows, not the ceiling.
fn send_limit(peer_window: u16, send_buffer: usize) -> usize {
    (SEND_BUFFER_WINDOWS * usize::from(peer_window))
        .max(SEND_BUFFER_FLOOR)
        .min(send_buffer)
}

/// Idle [`SendHalf`]s the stack parks for reuse; a burst of more
/// concurrent senders than this allocates (and later frees) the excess.
/// Same bound, for the same reason, as [`TxPool::DEFAULT_MAX_FREE`].
/// With [`release_half`]'s bound on each parked ring it caps what idle
/// halves pin at 64 receive buffers' worth, as [`BlockPool`] does.
const IDLE_HALVES_MAX: usize = TxPool::DEFAULT_MAX_FREE;

/// The idle list. Boxed because the box is what moves between this list
/// and a [`Conn`]: the half is never copied and never reallocated.
#[allow(clippy::vec_box)]
type IdleHalves = Vec<Box<SendHalf>>;

/// The stack's connection table, dispatched by one `match` per call.
///
/// The default holds no keys: its slots are arena indices, and a tag hit
/// is confirmed against the key in the connection's own [`Conn`], which
/// the frame is about to need anyway. A table from
/// [`StackConfig::with_demux`] (the paper's algorithms, a front filter)
/// keeps its own copy of every key and is called through its vtable.
enum Table {
    Keyless(KeylessSequent<Multiplicative>),
    Keyed(Box<dyn Demux>),
}

/// The key of the connection at arena slot `index`, for the keyless
/// table's confirm.
#[inline(always)]
fn key_at(conns: &Arena<Conn>, index: u32) -> Option<ConnectionKey> {
    conns.at(index).map(|(_, conn)| conn.pcb.key())
}

impl Table {
    /// Enter the connection `id`, already in `conns` under `key`, whose
    /// key the caller has proved absent.
    fn insert(&mut self, key: ConnectionKey, id: PcbId, conns: &Arena<Conn>) {
        match self {
            Table::Keyless(t) => t.insert(&key, id.index() as u32, |i| key_at(conns, i)),
            Table::Keyed(d) => d.insert(key, id),
        }
    }

    fn remove(&mut self, key: &ConnectionKey, id: PcbId) {
        match self {
            Table::Keyless(t) => {
                t.remove(key, id.index() as u32);
            }
            Table::Keyed(d) => {
                d.remove(key);
            }
        }
    }

    #[inline(always)]
    fn lookup(
        &mut self,
        key: &ConnectionKey,
        kind: PacketKind,
        conns: &Arena<Conn>,
    ) -> LookupResult {
        match self {
            Table::Keyless(t) => {
                let found = t.lookup(key, |i| key_at(conns, i));
                LookupResult {
                    pcb: found.index.and_then(|i| conns.at(i)).map(|(id, _)| id),
                    examined: found.examined,
                    cache_hit: found.cache_hit,
                }
            }
            Table::Keyed(d) => d.lookup(key, kind),
        }
    }

    /// Only a keyed table (the send/receive cache) wants to hear of sends.
    #[inline]
    fn note_send(&mut self, key: &ConnectionKey) {
        if let Table::Keyed(d) = self {
            d.note_send(key);
        }
    }

    fn stats(&self) -> &LookupStats {
        match self {
            Table::Keyless(t) => t.stats(),
            Table::Keyed(d) => d.stats(),
        }
    }
}

/// A host: one IPv4 address, one demultiplexer, many connections.
pub struct Stack {
    config: StackConfig,
    /// One slot per connection, resolved by the demultiplexer's handle.
    conns: Arena<Conn>,
    demux: Table,
    listeners: Vec<Listener>,
    udp_listeners: Vec<ListenKey>,
    /// Sockets that outlived their connection: the stack aborted it
    /// (retransmission budget spent) and the application has not yet
    /// reaped the error via [`Stack::release_socket`]. Off every frame's
    /// path — a live handle never reaches it.
    orphans: HashMap<PcbId, SocketBuffer>,
    stats: StackStats,
    tx_pool: TxPool,
    /// Receive storage no socket is using: what a socket's first segment
    /// is copied into, and where the block goes back once the application
    /// has read the socket dry.
    rx_blocks: BlockPool,
    /// The socket [`socket_mut`](Self::socket_mut) last handed out. Reads
    /// happen behind that `&mut`, where the stack cannot see them, so the
    /// next entry point [settles](Self::settle) it: a socket read dry in
    /// between gives its block back then.
    last_socket: Option<PcbId>,
    next_ephemeral: u16,
    next_iss: u32,
    timers: TimerWheel<TimerEvent>,
    /// What [`advance_time`](Self::advance_time) reads expiries into, kept
    /// for its capacity.
    expired: Vec<TimerEvent>,
    /// Drained sender halves awaiting the next connection with something
    /// to send, at most [`IDLE_HALVES_MAX`].
    idle_halves: IdleHalves,
    /// Connections with buffered data awaiting a transmit poll, FIFO.
    /// Membership is [`Conn::tx_pending`]; an entry left behind by a
    /// reclaimed connection no longer resolves and is skipped.
    tx_pending: VecDeque<PcbId>,
    neighbors: crate::neighbor::NeighborCache,
    now_ticks: u64,
    /// Structured telemetry: every demux lookup, connection lifecycle
    /// change, and retransmission records here. Owned like everything
    /// else a shard has; read through [`Stack::stats`].
    telemetry: Telemetry,
}

/// What is left to do to the connection table once a segment's handler
/// has let go of the connection.
enum Then {
    Keep,
    Reclaim(CloseCause),
    /// Park in TIME-WAIT (or reclaim at once, in the timer-free model).
    TimeWait,
}

/// One resolved connection together with the per-stack machinery its
/// handlers touch, borrowed field by field: an entry point resolves the
/// handle once ([`Stack::cx`]) and everything below it works on the
/// connection directly.
struct Cx<'a> {
    id: PcbId,
    conn: &'a mut Conn,
    config: &'a StackConfig,
    listeners: &'a mut [Listener],
    demux: &'a mut Table,
    stats: &'a mut StackStats,
    tx_pool: &'a mut TxPool,
    rx_blocks: &'a mut BlockPool,
    timers: &'a mut TimerWheel<TimerEvent>,
    idle_halves: &'a mut IdleHalves,
    tx_pending: &'a mut VecDeque<PcbId>,
    telemetry: &'a mut Telemetry,
    now_ticks: u64,
}

/// Frame one TCP segment into a pooled buffer. The payload is one slice,
/// or two when it is read out of a send ring across its wrap point.
fn emit_tcp(
    tx_pool: &mut TxPool,
    stats: &mut StackStats,
    demux: &mut Table,
    key: &ConnectionKey,
    repr: &TcpRepr,
    payload: impl Payload,
) -> Vec<u8> {
    let ip = Ipv4Repr::new(key.local_addr, key.remote_addr, IpProtocol::Tcp);
    stats.frames_out += 1;
    demux.note_send(key);
    let mut buf = tx_pool.take();
    build_tcp_frame_into(&ip, repr, payload, &mut buf);
    buf
}

/// A connection's socket, or that of one the stack aborted and the
/// application has not released yet.
fn socket_of<'a>(
    conns: &'a mut Arena<Conn>,
    orphans: &'a mut HashMap<PcbId, SocketBuffer>,
    pcb: PcbId,
) -> Option<&'a mut SocketBuffer> {
    match conns.get_mut(pcb) {
        Some(conn) => Some(&mut conn.socket),
        None => orphans.get_mut(&pcb),
    }
}

/// Cancel a sender half's timer, empty it, and park it for reuse. Its
/// send ring keeps its storage only if that is no larger than
/// [`WindowConfig::recv_buffer`], the bound [`BlockPool`] applies to
/// parked receive blocks: a ring grows to twice the largest window its
/// peer offered, and sixty-four of those parked from wide-window peers
/// would pin megabytes nothing may ever use again. A ring given up is
/// rebuilt empty under the configured ceiling, not under the cap the
/// last peer's window left on it.
fn release_half(
    mut half: Box<SendHalf>,
    window: &WindowConfig,
    timers: &mut TimerWheel<TimerEvent>,
    idle_halves: &mut IdleHalves,
) {
    if let Some(timer) = half.timer.take() {
        timers.cancel(timer);
    }
    if idle_halves.len() < IDLE_HALVES_MAX {
        half.segments.clear();
        if half.buf.capacity() > window.recv_buffer {
            half.buf = SendBuffer::new(window.send_buffer);
        } else {
            half.buf.consume(half.buf.len());
        }
        idle_halves.push(half);
    }
}

impl Stack {
    /// Create a stack from its config — the single construction path.
    /// The table is the default keyless `sequent(19)`, or what
    /// [`StackConfig::with_demux`]'s factory builds.
    pub fn with_config(config: StackConfig) -> Self {
        let demux = config.build_table();
        Self {
            next_ephemeral: config.ephemeral_base,
            rx_blocks: BlockPool::new(config.window.recv_buffer),
            config,
            conns: Arena::new(),
            demux,
            listeners: Vec::new(),
            udp_listeners: Vec::new(),
            orphans: HashMap::new(),
            stats: StackStats::default(),
            tx_pool: TxPool::default(),
            last_socket: None,
            next_iss: 0x1000_0000,
            timers: TimerWheel::new(256),
            expired: Vec::new(),
            idle_halves: Vec::new(),
            tx_pending: VecDeque::new(),
            neighbors: crate::neighbor::NeighborCache::with_defaults(),
            now_ticks: 0,
            telemetry: Telemetry::new(),
        }
    }

    /// Resolve a handle to its connection, once, for an entry point.
    fn cx(&mut self, id: PcbId) -> Option<Cx<'_>> {
        Some(Cx {
            id,
            conn: self.conns.get_mut(id)?,
            config: &self.config,
            listeners: &mut self.listeners,
            demux: &mut self.demux,
            stats: &mut self.stats,
            tx_pool: &mut self.tx_pool,
            rx_blocks: &mut self.rx_blocks,
            timers: &mut self.timers,
            idle_halves: &mut self.idle_halves,
            tx_pending: &mut self.tx_pending,
            telemetry: &mut self.telemetry,
            now_ticks: self.now_ticks,
        })
    }

    /// The shard this stack was configured as (shard 0 standalone).
    pub fn shard_id(&self) -> ShardId {
        self.config.shard
    }

    /// Advance the stack's clock to `tick`: fire TIME-WAIT expirations,
    /// fire retransmission timeouts (returning the frames to re-emit, or
    /// aborting connections whose retry budget is spent), and sweep stale
    /// neighbor-cache entries.
    ///
    /// # Panics
    ///
    /// If `tick` is behind the stack's clock — checked before anything
    /// mutates, so a bad caller cannot leave the clock half-advanced.
    pub fn advance_time(&mut self, tick: u64) -> TimeAdvance {
        assert!(
            tick >= self.now_ticks,
            "time went backwards: {} < {}",
            tick,
            self.now_ticks
        );
        self.now_ticks = tick;
        self.neighbors.expire(tick);
        let mut expired = std::mem::take(&mut self.expired);
        self.timers.advance_into(tick, &mut expired);
        let mut advance = TimeAdvance::default();
        for event in expired.drain(..) {
            match event {
                TimerEvent::TimeWait(id) => {
                    if self.state(id) == Some(TcpState::TimeWait) {
                        self.reclaim(id, CloseCause::Graceful);
                        advance.reclaimed += 1;
                    }
                }
                TimerEvent::Retransmit(id) => {
                    let abort = self
                        .cx(id)
                        .is_some_and(|mut cx| cx.on_retx_timeout(&mut advance));
                    if abort {
                        self.reclaim_inner(id, true, CloseCause::Timeout);
                        advance.aborted.push(id);
                    }
                }
                TimerEvent::DelayedAck(id) => {
                    let Some(mut cx) = self.cx(id) else {
                        continue;
                    };
                    let owed = cx.conn.delayed.as_deref_mut().is_some_and(|state| {
                        state.timer = None;
                        state.pending > 0
                    });
                    if owed {
                        let frame = cx.make_ack();
                        cx.note_ack_emitted();
                        cx.telemetry.event(Event::DelayedAck);
                        advance.acks.push(frame);
                        advance.acks_sent += 1;
                    }
                }
            }
        }
        self.expired = expired;
        advance
    }

    /// The earliest tick at which a scheduled timer (retransmission or
    /// TIME-WAIT) is due, if any — what a discrete-event driver passes to
    /// [`advance_time`](Self::advance_time) to jump over idle time.
    pub fn next_timer_deadline(&self) -> Option<u64> {
        self.timers.next_due_tick()
    }

    /// Number of connections currently sitting in TIME-WAIT.
    pub fn time_wait_count(&self) -> usize {
        self.conns
            .iter()
            .filter(|(_, c)| c.pcb.state() == TcpState::TimeWait)
            .count()
    }

    /// Snapshot of every live connection and its state (like `netstat`'s
    /// per-connection rows, in arena order).
    pub fn connections(&self) -> Vec<(ConnectionKey, TcpState)> {
        self.conns
            .iter()
            .map(|(_, c)| (c.pcb.key(), c.pcb.state()))
            .collect()
    }

    /// Structured per-connection rows — what `netstat -an` would print,
    /// but as data a test or sim can assert on: key, state, queue depths,
    /// and loss-recovery state. Arena order. Each row's [`Display`] impl
    /// renders the classic text line.
    pub fn connection_table(&self) -> Vec<ConnectionInfo> {
        self.conns
            .iter()
            .map(|(_, c)| ConnectionInfo {
                shard: self.config.shard,
                key: c.pcb.key(),
                state: c.pcb.state(),
                rx_queued: c.socket.available(),
                rx_staged: c.socket.staged(),
                rx_holes: c.socket.hole_count(),
                tx_queued: c.tx.as_deref().map_or(0, SendHalf::data_len),
                tx_ring_bytes: c.tx.as_deref().map_or(0, |half| half.buf.capacity()),
                inflight_segments: c.tx.as_deref().map_or(0, |half| half.segments.len()),
                rto_attempts: c.pcb.rto_attempts,
                mss: c.pcb.mss,
                cwnd: c.pcb.cong.cwnd,
                ssthresh: c.pcb.cong.ssthresh,
                snd_wnd: c.pcb.snd.wnd,
                in_recovery: c.pcb.cong.in_recovery,
            })
            .collect()
    }

    /// Structured per-listener rows: every TCP listener with its backlog
    /// occupancy, then every bound (unconnected) UDP port.
    pub fn listener_table(&self) -> Vec<ListenerInfo> {
        let mut out: Vec<ListenerInfo> = self
            .listeners
            .iter()
            .map(|l| ListenerInfo {
                shard: self.config.shard,
                port: l.key.local_port,
                protocol: IpProtocol::Tcp,
                backlog: l.backlog,
                pending: l.pending(),
            })
            .collect();
        out.extend(self.udp_listeners.iter().map(|l| ListenerInfo {
            shard: self.config.shard,
            port: l.local_port,
            protocol: IpProtocol::Udp,
            backlog: 0,
            pending: 0,
        }));
        out
    }

    /// Park a TIME-WAIT connection: reclaim now (timer-free model) or
    /// schedule the 2·MSL timer. Returns whether it was reclaimed.
    fn enter_time_wait(&mut self, id: PcbId) -> bool {
        match self.config.time_wait_ticks {
            None => {
                self.reclaim(id, CloseCause::Graceful);
                true
            }
            Some(ticks) => {
                // Reaching TIME-WAIT means our FIN was acknowledged:
                // nothing is in flight anymore, so the sender half goes.
                if let Some(mut cx) = self.cx(id) {
                    cx.release_tx();
                }
                self.timers.schedule(ticks, TimerEvent::TimeWait(id));
                false
            }
        }
    }

    /// This host's address.
    pub fn local_addr(&self) -> Ipv4Addr {
        self.config.local_addr
    }

    /// This host's MAC address (derived deterministically from the IPv4
    /// address; the in-memory fabric has no ARP).
    pub fn mac(&self) -> tcpdemux_wire::EthernetAddress {
        tcpdemux_wire::EthernetAddress::from_ipv4(self.config.local_addr)
    }

    /// The result of a frame that touched no connection and drew no reply.
    fn unanswered(outcome: RxOutcome) -> RxResult {
        RxResult {
            outcome,
            replies: Replies::default(),
            pcbs_examined: 0,
        }
    }

    /// Process one received *Ethernet* frame: link-layer filtering, then
    /// the normal IPv4 receive path on the payload.
    pub fn receive_ethernet(&mut self, frame: &[u8]) -> Result<RxResult, WireError> {
        use tcpdemux_wire::{EtherType, EthernetFrame, EthernetRepr};
        let eth = EthernetFrame::new_checked(frame).map_err(|e| {
            self.stats.frames_in += 1;
            self.stats.ip_errors += 1;
            e
        })?;
        let repr = EthernetRepr::parse(&eth)?;
        if repr.dst_addr != self.mac() && !repr.dst_addr.is_broadcast() {
            self.stats.frames_in += 1;
            self.stats.not_for_us += 1;
            return Ok(Self::unanswered(RxOutcome::NotForUs));
        }
        match repr.ethertype {
            EtherType::Ipv4 => self.receive(eth.payload()),
            EtherType::Arp => self.receive_arp(eth.payload()),
            EtherType::Unknown(_) => {
                self.stats.frames_in += 1;
                self.stats.bad_protocol += 1;
                Ok(Self::unanswered(RxOutcome::UnhandledProtocol))
            }
        }
    }

    fn receive_arp(&mut self, packet: &[u8]) -> Result<RxResult, WireError> {
        use tcpdemux_wire::{ArpOperation, ArpRepr};
        self.stats.frames_in += 1;
        let arp = ArpRepr::parse(packet).map_err(|e| {
            self.stats.ip_errors += 1;
            e
        })?;
        // Learn the sender's mapping from either message kind.
        self.neighbors
            .learn(arp.src_ip, arp.src_mac, self.now_ticks);
        if arp.operation == ArpOperation::Request && arp.dst_ip == self.config.local_addr {
            let reply = arp.reply_to(self.mac());
            let bytes = reply.emit();
            let mut out = self.tx_pool.take();
            tcpdemux_wire::EthernetRepr {
                src_addr: self.mac(),
                dst_addr: arp.src_mac,
                ethertype: tcpdemux_wire::EtherType::Arp,
            }
            .encapsulate_into(&bytes, &mut out);
            self.stats.frames_out += 1;
            return Ok(RxResult {
                outcome: RxOutcome::ArpReplied,
                replies: out.into(),
                pcbs_examined: 0,
            });
        }
        Ok(Self::unanswered(RxOutcome::ArpProcessed))
    }

    /// The MAC this stack would use to reach `dst_addr`: the learned ARP
    /// mapping if one is live, else the deterministic derived MAC (the
    /// in-memory fabric's substitute for a real broadcast resolution).
    pub fn resolve(&mut self, dst_addr: Ipv4Addr) -> tcpdemux_wire::EthernetAddress {
        self.neighbors
            .lookup(dst_addr, self.now_ticks)
            .unwrap_or_else(|| tcpdemux_wire::EthernetAddress::from_ipv4(dst_addr))
    }

    /// Wrap an IPv4 packet produced by this stack in an Ethernet frame
    /// addressed to `dst_addr` (via the neighbor cache, falling back to
    /// the derived MAC).
    pub fn encapsulate(&mut self, ip_packet: &[u8], dst_addr: Ipv4Addr) -> Vec<u8> {
        let dst_mac = self.resolve(dst_addr);
        let mut buf = self.tx_pool.take();
        tcpdemux_wire::ethernet::encapsulate_ipv4_into(self.mac(), dst_mac, ip_packet, &mut buf);
        buf
    }

    /// Everything observable about the stack right now, owned: the
    /// receive-path counters, the demultiplexer's lookup statistics, the
    /// transmit- and receive-pool counters, and the full telemetry
    /// snapshot. Capture one before an operation and another after to diff
    /// any counter.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            stack: self.stats,
            demux: *self.demux.stats(),
            tx_pool: self.tx_pool.stats(),
            rx_blocks_free: self.rx_blocks.parked(),
            telemetry: self.telemetry.snapshot(),
        }
    }

    /// Lookups the demultiplexer has served so far.
    pub(crate) fn demux_lookups(&self) -> u64 {
        self.demux.stats().lookups
    }

    /// Number of live connections (TCP in any state plus connected UDP).
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Whether a connection is in `ESTABLISHED`.
    pub fn is_established(&self, pcb: PcbId) -> bool {
        self.state(pcb) == Some(TcpState::Established)
    }

    /// The connection's current state, if it exists.
    pub fn state(&self, pcb: PcbId) -> Option<TcpState> {
        self.conns.get(pcb).map(|c| c.pcb.state())
    }

    /// The connection's four-tuple (this stack's perspective), if it
    /// exists.
    pub fn connection_key(&self, pcb: PcbId) -> Option<ConnectionKey> {
        self.conns.get(pcb).map(|c| c.pcb.key())
    }

    /// The socket buffer for a connection (or, until it is
    /// [released](Self::release_socket), of one the stack aborted).
    pub fn socket(&self, pcb: PcbId) -> Option<&SocketBuffer> {
        match self.conns.get(pcb) {
            Some(conn) => Some(&conn.socket),
            None => self.orphans.get(&pcb),
        }
    }

    /// Mutable socket buffer (to read delivered bytes).
    pub fn socket_mut(&mut self, pcb: PcbId) -> Option<&mut SocketBuffer> {
        self.settle();
        self.last_socket = Some(pcb);
        socket_of(&mut self.conns, &mut self.orphans, pcb)
    }

    /// Take back the receive block of the socket
    /// [`socket_mut`](Self::socket_mut) last handed out, if the
    /// application has read it dry since. First thing in every entry
    /// point that may want a block or follow a read, while the
    /// connection's slot and the block are still in cache.
    fn settle(&mut self) {
        let Some(id) = self.last_socket.take() else {
            return;
        };
        if let Some(socket) = socket_of(&mut self.conns, &mut self.orphans, id) {
            socket.settle(&mut self.rx_blocks);
        }
    }

    /// Start a TCP listener. A bare port listens on all local addresses
    /// with no backlog limit (`stack.listen(80)`); pass a [`ListenConfig`]
    /// to bound the backlog:
    ///
    /// ```
    /// # use tcpdemux_stack::{ListenConfig, Stack, StackConfig};
    /// # use std::net::Ipv4Addr;
    /// # let mut stack = Stack::with_config(
    /// #     StackConfig::new(Ipv4Addr::new(10, 0, 0, 1)),
    /// # );
    /// stack.listen(80).unwrap();
    /// stack.listen(ListenConfig::port(1521).with_backlog(16)).unwrap();
    /// ```
    pub fn listen(&mut self, config: impl Into<ListenConfig>) -> Result<(), StackError> {
        let ListenConfig { port, backlog } = config.into();
        if backlog == 0 {
            return Err(StackError::InvalidState(TcpState::Listen));
        }
        if self.listeners.iter().any(|l| l.key.local_port == port) {
            return Err(StackError::PortInUse(port));
        }
        self.listeners.push(Listener {
            key: ListenKey::any(port),
            backlog,
            embryonic: 0,
            accept_queue: std::collections::VecDeque::new(),
        });
        Ok(())
    }

    /// Dequeue the oldest established-but-unaccepted connection on a
    /// listening port, if any. After `accept`, the connection is the
    /// application's; before it, data segments are still processed and
    /// buffered (as BSD does for connections in the accept queue).
    pub fn accept(&mut self, port: u16) -> Option<PcbId> {
        let listener = self
            .listeners
            .iter_mut()
            .find(|l| l.key.local_port == port)?;
        let id = listener.accept_queue.pop_front()?;
        if let Some(conn) = self.conns.get_mut(id) {
            conn.listener = None;
        }
        Some(id)
    }

    /// Open a UDP socket bound to `port` (unconnected; receives anything
    /// addressed to the port).
    pub fn udp_bind(&mut self, port: u16) -> Result<(), StackError> {
        if self.udp_listeners.iter().any(|l| l.local_port == port) {
            return Err(StackError::PortInUse(port));
        }
        self.udp_listeners.push(ListenKey::any(port));
        Ok(())
    }

    /// Enter a new connection into the arena and the demultiplexer.
    fn open(&mut self, pcb: Pcb) -> PcbId {
        let key = pcb.key();
        let id = self.conns.insert(Conn::new(pcb));
        self.demux.insert(key, id, &self.conns);
        self.telemetry.event(Event::ConnOpen);
        id
    }

    /// Open a *connected* UDP socket: a full four-tuple entered into the
    /// demultiplexer, exactly as Partridge & Pink's "faster UDP" assumes.
    pub fn udp_open(
        &mut self,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Result<PcbId, StackError> {
        let key = ConnectionKey::new(self.config.local_addr, local_port, remote_addr, remote_port);
        self.refuse_live_key(key)?;
        Ok(self.open(Pcb::new_in_state(key, TcpState::Established)))
    }

    /// Refuse a caller-chosen four-tuple that a live connection holds.
    /// The default table's insert is a push with no duplicate walk, so a
    /// duplicate key would add a second entry: lookups would find one of
    /// the two connections and never the other. (A keyed [`Demux::insert`]
    /// would instead re-point the one entry at the newcomer, and the first
    /// connection's teardown would remove it from under the second.)
    /// Debug builds assert the key absent at insert. A pass over the arena (as
    /// [`ephemeral_port_in_use`](Self::ephemeral_port_in_use) makes for
    /// every active open) rather than a `lookup`, which would count as
    /// traffic in `stats().demux`.
    fn refuse_live_key(&self, key: ConnectionKey) -> Result<(), StackError> {
        if self.conns.iter().any(|(_, c)| c.pcb.key() == key) {
            return Err(StackError::ConnectionExists(key));
        }
        Ok(())
    }

    /// Whether a local port is currently held by anything that demuxes:
    /// a TCP or UDP listener, or any live connection's local endpoint.
    /// The ephemeral allocators (here and in the sharded runtime's
    /// [`SteerTable`](crate::shard::SteerTable)) consult this before
    /// minting a port, so a recycled port can never coin a
    /// [`ConnectionKey`] that collides with a live flow or listener.
    pub fn ephemeral_port_in_use(&self, port: u16) -> bool {
        self.listeners.iter().any(|l| l.key.local_port == port)
            || self.udp_listeners.iter().any(|l| l.local_port == port)
            || self
                .conns
                .iter()
                .any(|(_, c)| c.pcb.key().local_port == port)
    }

    /// Hand out the next free ephemeral port. The cursor wraps from
    /// `u16::MAX` back to `ephemeral_base`, but a port still held by a
    /// live connection or a listener is skipped — reissuing it would mint
    /// a duplicate [`ConnectionKey`] that demuxes to the wrong PCB. If
    /// every port in the range is occupied the allocator reports
    /// [`StackError::NoEphemeralPorts`] rather than recycling one.
    fn alloc_ephemeral(&mut self) -> Result<u16, StackError> {
        let span = usize::from(u16::MAX) - usize::from(self.config.ephemeral_base) + 1;
        for _ in 0..span {
            let port = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral == u16::MAX {
                self.config.ephemeral_base
            } else {
                self.next_ephemeral + 1
            };
            if !self.ephemeral_port_in_use(port) {
                return Ok(port);
            }
        }
        Err(StackError::NoEphemeralPorts)
    }

    fn alloc_iss(&mut self) -> SeqNum {
        let iss = SeqNum(self.next_iss);
        self.next_iss = self.next_iss.wrapping_add(64_000);
        iss
    }

    /// Begin an active open to `remote:port`. Returns the new connection's
    /// handle and the SYN frame to transmit.
    pub fn connect(
        &mut self,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Result<(PcbId, Vec<u8>), StackError> {
        // A port no connection holds cannot be part of a live four-tuple.
        let local_port = self.alloc_ephemeral()?;
        let key = ConnectionKey::new(self.config.local_addr, local_port, remote_addr, remote_port);
        Ok(self.active_open(key))
    }

    /// [`connect`](Self::connect) with an explicit local port instead of
    /// a freshly-allocated ephemeral one. The sharded runtime uses this:
    /// the four-tuple decides which shard owns a flow, so the runtime
    /// must allocate the port *globally*, compute the owning shard from
    /// the full key, and only then place the connection there. A
    /// four-tuple that a live connection already holds is refused with
    /// [`StackError::ConnectionExists`] and nothing is opened.
    pub fn connect_from(
        &mut self,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Result<(PcbId, Vec<u8>), StackError> {
        let key = ConnectionKey::new(self.config.local_addr, local_port, remote_addr, remote_port);
        self.refuse_live_key(key)?;
        Ok(self.active_open(key))
    }

    /// Open `key`, a four-tuple known to be free, in SYN-SENT and build
    /// its SYN.
    fn active_open(&mut self, key: ConnectionKey) -> (PcbId, Vec<u8>) {
        let mut pcb = Pcb::new(key);
        pcb.on_event(TcpEvent::AppConnect)
            .expect("CLOSED accepts connect");
        let iss = self.alloc_iss();
        pcb.init_send(iss, self.config.window.advertise);
        pcb.mss = self.config.mss.max(Pcb::MIN_MSS);
        pcb.cong = CongestionState::new(self.config.window.initial_cwnd, usize::from(pcb.mss));
        let id = self.open(pcb);

        let syn = TcpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq: iss.raw(),
            ack: 0,
            flags: TcpFlags::SYN,
            window: self.config.window.open_window(),
            mss: Some(self.config.mss),
            window_scale: None,
        };
        let mut cx = self.cx(id).expect("just opened");
        let frame = cx.emit_tcp(&syn, b"");
        // The SYN occupies one sequence number and must be answered.
        cx.track_segment(iss, iss + 1, TcpFlags::SYN, syn.mss, false);
        (id, frame)
    }

    /// Enqueue payload for transmission on an established connection.
    ///
    /// Returns how many bytes the connection's send buffer accepted
    /// (zero when it is full — backpressure, not an error). Bytes stay
    /// in the buffer until the peer acknowledges them, and the buffer
    /// takes more only while it holds less than twice the peer's current
    /// window, with a 16 KiB floor and [`WindowConfig::send_buffer`] as
    /// the ceiling.
    /// Nothing goes on the wire here: [`Stack::poll_transmit`] frames
    /// the unsent bytes under the transmit window `min(peer rwnd, cwnd)`
    /// (cwnd plus up to two segments of Limited Transmit).
    pub fn send(&mut self, pcb: PcbId, payload: &[u8]) -> Result<usize, StackError> {
        self.settle();
        let mut cx = self.cx(pcb).ok_or(StackError::NoSuchConnection)?;
        if !cx.conn.pcb.state().can_transfer_data() {
            return Err(StackError::NotEstablished);
        }
        if payload.is_empty() {
            return Ok(0);
        }
        let limit = send_limit(cx.conn.pcb.snd.wnd, cx.config.window.send_buffer);
        let buf = &mut cx.tx_half().buf;
        buf.set_cap(limit);
        let accepted = buf.push(payload);
        // A connection with unsent bytes is always pending already, so
        // only newly accepted ones can change that.
        if accepted > 0 {
            cx.mark_tx_pending();
        }
        Ok(accepted)
    }

    /// Bytes enqueued on a connection's send buffer and not yet emitted
    /// (sent-but-unacknowledged bytes, which the buffer also holds, are
    /// [`ConnectionInfo::tx_queued`]).
    pub fn send_queued(&self, pcb: PcbId) -> usize {
        self.conns.get(pcb).map_or(0, Conn::send_queued)
    }

    /// A connection's congestion-control state (cwnd, ssthresh, recovery
    /// flags), or `None` if the handle is dead.
    pub fn congestion(&self, pcb: PcbId) -> Option<CongestionState> {
        self.conns.get(pcb).map(|c| c.pcb.cong)
    }

    /// Emit everything the transmit window permits, across every
    /// connection with buffered data, into `scratch.frames` (cleared on
    /// entry). Returns the number of frames produced.
    ///
    /// Each connection sends MSS-sized segments while
    /// `min(peer rwnd, cwnd)` exceeds its in-flight bytes, where the
    /// first two duplicate ACKs each add one MSS to cwnd (RFC 3042;
    /// [`CongestionState::send_window`]). A connection
    /// stalled on a *closed* peer window (rwnd = 0) with nothing in
    /// flight emits a one-byte zero-window probe instead; its
    /// retransmission timer doubles as the persist timer and never
    /// counts against the retry budget.
    pub fn poll_transmit(&mut self, scratch: &mut TxScratch) -> usize {
        self.settle();
        scratch.frames.clear();
        let rounds = self.tx_pending.len();
        for _ in 0..rounds {
            let Some(id) = self.tx_pending.pop_front() else {
                break;
            };
            // An entry whose connection was reclaimed while queued no
            // longer resolves, whoever holds its slot now.
            let Some(mut cx) = self.cx(id) else {
                continue;
            };
            cx.conn.tx_pending = false;
            cx.transmit(scratch);
        }
        scratch.frames.len()
    }

    /// Send a UDP datagram on a connected UDP socket.
    pub fn udp_send(&mut self, pcb: PcbId, payload: &[u8]) -> Result<Vec<u8>, StackError> {
        let key = self
            .connection_key(pcb)
            .ok_or(StackError::NoSuchConnection)?;
        let ip = Ipv4Repr::new(key.local_addr, key.remote_addr, IpProtocol::Udp);
        let udp = UdpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
        };
        self.stats.frames_out += 1;
        self.demux.note_send(&key);
        let mut buf = self.tx_pool.take();
        build_udp_frame_into(&ip, &udp, payload, &mut buf);
        Ok(buf)
    }

    /// Close our direction of a connection. Returns the FIN frame.
    ///
    /// Fails with [`StackError::InvalidState`] while enqueued data is
    /// still awaiting transmission — the FIN occupies the sequence
    /// number after the last data byte, so callers drain the send
    /// buffer ([`Stack::poll_transmit`] until [`Stack::send_queued`] is
    /// zero) before closing.
    pub fn close(&mut self, pcb: PcbId) -> Result<Vec<u8>, StackError> {
        self.settle();
        let mut cx = self.cx(pcb).ok_or(StackError::NoSuchConnection)?;
        let queued = cx.conn.send_queued();
        let p = &mut cx.conn.pcb;
        let state = p.state();
        if queued > 0 {
            return Err(StackError::InvalidState(state));
        }
        p.on_event(TcpEvent::AppClose)
            .map_err(|_| StackError::InvalidState(state))?;
        let seq = p.snd.nxt;
        p.snd.nxt += 1; // FIN consumes a sequence number
        let repr = TcpRepr {
            src_port: p.key().local_port,
            dst_port: p.key().remote_port,
            seq: seq.raw(),
            ack: p.rcv.nxt.raw(),
            flags: TcpFlags::FIN | TcpFlags::ACK,
            window: p.rcv.wnd,
            ..TcpRepr::default()
        };
        let frame = cx.emit_tcp(&repr, b"");
        cx.track_segment(seq, seq + 1, repr.flags, None, false);
        Ok(frame)
    }

    /// Abort a connection: send RST and reclaim immediately.
    pub fn abort(&mut self, pcb: PcbId) -> Result<Vec<u8>, StackError> {
        let mut cx = self.cx(pcb).ok_or(StackError::NoSuchConnection)?;
        let key = cx.conn.pcb.key();
        let repr = TcpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq: cx.conn.pcb.snd.nxt.raw(),
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            ..TcpRepr::default()
        };
        let frame = cx.emit_tcp(&repr, b"");
        self.reclaim(pcb, CloseCause::LocalAbort);
        Ok(frame)
    }

    fn reclaim(&mut self, pcb: PcbId, cause: CloseCause) {
        self.reclaim_inner(pcb, false, cause);
    }

    /// Take a connection out of the arena and the demultiplexer, cancel
    /// its timers and release what it held. With `keep_socket` its socket
    /// is set aside for [`release_socket`](Self::release_socket).
    fn reclaim_inner(&mut self, pcb: PcbId, keep_socket: bool, cause: CloseCause) {
        let Some(mut conn) = self.conns.remove(pcb) else {
            return;
        };
        if let Some(half) = conn.tx.take() {
            let window = &self.config.window;
            release_half(half, window, &mut self.timers, &mut self.idle_halves);
        }
        if let Some(timer) = conn.delayed.and_then(|state| state.timer) {
            self.timers.cancel(timer);
        }
        self.demux.remove(&conn.pcb.key(), pcb);
        self.telemetry.event(Event::ConnClose { cause });
        conn.socket.settle(&mut self.rx_blocks);
        if keep_socket {
            self.orphans.insert(pcb, conn.socket);
        }
        // A connection dying before accept releases its backlog slot.
        if let Some(idx) = conn.listener {
            let listener = &mut self.listeners[usize::from(idx)];
            if let Some(pos) = listener.accept_queue.iter().position(|&q| q == pcb) {
                listener.accept_queue.remove(pos);
            } else {
                listener.embryonic -= 1;
            }
        }
    }

    /// Detach and reap the socket of a connection the stack has aborted
    /// (see [`TimeAdvance::aborted`]); the application reads the error
    /// and any residual data from the returned buffer. Returns `None`
    /// while the connection is still live (its socket stays attached) or
    /// if the handle is unknown.
    pub fn release_socket(&mut self, pcb: PcbId) -> Option<SocketBuffer> {
        let mut socket = self.orphans.remove(&pcb)?;
        socket.settle(&mut self.rx_blocks);
        Some(socket)
    }

    /// A connection's RTT estimator state (for instrumentation and
    /// tests; `None` if the handle is dead).
    pub fn rtt_estimator(&self, pcb: PcbId) -> Option<RttEstimator> {
        self.conns.get(pcb).map(|c| c.pcb.rtt)
    }

    /// Return a spent transmit buffer (a frame obtained from `send`,
    /// `receive`'s replies, `connect`'s SYN, …) to the stack's pool so
    /// later emissions reuse its capacity. Optional — un-recycled buffers
    /// simply cost an allocation each — but with recycling, a
    /// steady-state transaction allocates nothing (the `tx_pool`
    /// counters in [`Stack::stats`] and `tests/steady_state_allocs.rs`
    /// pin this).
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.tx_pool.recycle(buf);
    }

    /// Process one received frame.
    ///
    /// `Err` means the frame failed wire-level validation (and was
    /// counted); `Ok` carries the classification, any reply frames, and
    /// the demultiplexing cost.
    pub fn receive(&mut self, frame: &[u8]) -> Result<RxResult, WireError> {
        self.settle();
        self.stats.frames_in += 1;

        let packet = Ipv4Packet::new_checked(frame).map_err(|e| {
            self.stats.ip_errors += 1;
            e
        })?;
        let ip = Ipv4Repr::parse(&packet).map_err(|e| {
            self.stats.ip_errors += 1;
            e
        })?;
        if ip.dst_addr != self.config.local_addr {
            self.stats.not_for_us += 1;
            return Ok(Self::unanswered(RxOutcome::NotForUs));
        }
        match ip.protocol {
            IpProtocol::Tcp => self.receive_tcp(&ip, packet.payload()),
            IpProtocol::Udp => {
                let header_len = packet.header_len();
                self.receive_udp(&ip, packet.payload(), frame, header_len)
            }
            IpProtocol::Icmp => self.receive_icmp(&ip, packet.payload()),
            IpProtocol::Unknown(_) => {
                self.stats.bad_protocol += 1;
                Ok(Self::unanswered(RxOutcome::UnhandledProtocol))
            }
        }
    }

    /// Wrap raw ICMP bytes in an IPv4 packet addressed to `dst`.
    fn emit_icmp(&mut self, dst: Ipv4Addr, icmp_bytes: &[u8]) -> Vec<u8> {
        let ip = Ipv4Repr {
            payload_len: icmp_bytes.len(),
            ..Ipv4Repr::new(self.config.local_addr, dst, IpProtocol::Icmp)
        };
        let mut buf = self.tx_pool.take();
        buf.clear();
        buf.reserve(ip.total_len());
        buf.resize(tcpdemux_wire::ipv4::HEADER_LEN, 0);
        buf.extend_from_slice(icmp_bytes);
        let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
        ip.emit(&mut packet).expect("sized buffer");
        self.stats.frames_out += 1;
        buf
    }

    fn receive_icmp(&mut self, ip: &Ipv4Repr, message: &[u8]) -> Result<RxResult, WireError> {
        use tcpdemux_wire::IcmpRepr;
        let icmp = IcmpRepr::parse(message).map_err(|e| {
            self.stats.tcp_errors += 1;
            e
        })?;
        self.stats.icmp_in += 1;
        match icmp {
            IcmpRepr::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                // Be pingable: echo the payload straight back.
                let reply = IcmpRepr::EchoReply {
                    ident,
                    seq,
                    payload,
                }
                .emit();
                let frame = self.emit_icmp(ip.src_addr, &reply);
                self.stats.icmp_echo_replies += 1;
                Ok(RxResult {
                    outcome: RxOutcome::EchoReplied,
                    replies: frame.into(),
                    pcbs_examined: 0,
                })
            }
            // Replies to our pings, unreachables, and exotica are counted
            // and surfaced; this harness initiates no pings of its own.
            _ => Ok(Self::unanswered(RxOutcome::IcmpProcessed)),
        }
    }

    fn receive_udp(
        &mut self,
        ip: &Ipv4Repr,
        datagram: &[u8],
        full_packet: &[u8],
        ip_header_len: usize,
    ) -> Result<RxResult, WireError> {
        let datagram = UdpDatagram::new_checked(datagram).map_err(|e| {
            self.stats.tcp_errors += 1;
            e
        })?;
        let udp = UdpRepr::parse(&datagram, ip.src_addr, ip.dst_addr).map_err(|e| {
            self.stats.tcp_errors += 1;
            e
        })?;
        let payload = datagram.payload();
        let key = ConnectionKey::from_incoming_udp(ip, &udp);
        let lookup = self.demux.lookup(&key, PacketKind::Data, &self.conns);
        self.stats.pcbs_examined += u64::from(lookup.examined);
        self.telemetry
            .demux_lookup(lookup.examined, lookup.pcb.is_some(), lookup.cache_hit);
        let unanswered = |outcome| RxResult {
            pcbs_examined: lookup.examined,
            ..Self::unanswered(outcome)
        };

        if let Some(id) = lookup.pcb {
            self.stats.demux_hits += 1;
            self.stats.bytes_delivered += payload.len() as u64;
            let conn = self.conns.get_mut(id).expect("demux returned a live id");
            conn.socket.deliver(payload, &mut self.rx_blocks);
            return Ok(unanswered(RxOutcome::Delivered {
                pcb: id,
                bytes: payload.len(),
            }));
        }
        // Unconnected bound sockets: delivery without a PCB entry.
        if self.udp_listeners.iter().any(|l| l.matches(&key)) {
            self.stats.listener_hits += 1;
            self.stats.bytes_delivered += payload.len() as u64;
            return Ok(unanswered(RxOutcome::DeliveredUnconnected {
                bytes: payload.len(),
            }));
        }
        // RFC 1122: a datagram for a dead port provokes ICMP
        // port-unreachable quoting the offender.
        self.stats.resets_sent += 1;
        let unreachable =
            tcpdemux_wire::IcmpRepr::port_unreachable(full_packet, ip_header_len).emit();
        let frame = self.emit_icmp(key.remote_addr, &unreachable);
        Ok(RxResult {
            outcome: RxOutcome::UdpUnreachable,
            replies: frame.into(),
            pcbs_examined: lookup.examined,
        })
    }

    fn receive_tcp(&mut self, ip: &Ipv4Repr, segment: &[u8]) -> Result<RxResult, WireError> {
        let segment = TcpSegment::new_checked(segment).map_err(|e| {
            self.stats.tcp_errors += 1;
            e
        })?;
        let tcp = TcpRepr::parse(&segment, ip.src_addr, ip.dst_addr).map_err(|e| {
            self.stats.tcp_errors += 1;
            e
        })?;
        let payload = segment.payload();
        let key = ConnectionKey::from_incoming_tcp(ip, &tcp);

        // The paper's subject: one instrumented lookup per segment. Pure
        // ACKs probe send-side caches first (footnote 5).
        let kind = if payload.is_empty()
            && tcp.flags.contains(TcpFlags::ACK)
            && !tcp
                .flags
                .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST)
        {
            PacketKind::Ack
        } else {
            PacketKind::Data
        };
        let lookup = self.demux.lookup(&key, kind, &self.conns);
        self.stats.pcbs_examined += u64::from(lookup.examined);
        self.telemetry
            .demux_lookup(lookup.examined, lookup.pcb.is_some(), lookup.cache_hit);
        let unanswered = |outcome| RxResult {
            pcbs_examined: lookup.examined,
            ..Self::unanswered(outcome)
        };

        if let Some(id) = lookup.pcb {
            self.stats.demux_hits += 1;
            // The one resolution of this frame's connection.
            let mut cx = self.cx(id).expect("demux returned a live id");
            let (mut result, then) = cx.process_segment(&tcp, payload);
            match then {
                Then::Keep => {}
                Then::Reclaim(cause) => self.reclaim(id, cause),
                Then::TimeWait => {
                    if self.enter_time_wait(id) {
                        result.outcome = RxOutcome::Closed;
                    }
                }
            }
            result.pcbs_examined = lookup.examined;
            return Ok(result);
        }

        // No connection: try the listeners for a SYN.
        if tcp.flags.contains(TcpFlags::SYN) && !tcp.flags.contains(TcpFlags::ACK) {
            let matched = self
                .listeners
                .iter()
                .enumerate()
                .filter(|(_, l)| l.key.matches(&key))
                .max_by_key(|(_, l)| l.key.specificity())
                .map(|(i, _)| i);
            if let Some(idx) = matched {
                if self.listeners[idx].pending() >= self.listeners[idx].backlog {
                    // Backlog full: drop the SYN silently; the client
                    // will retransmit (BSD semantics).
                    self.stats.syn_drops += 1;
                    return Ok(unanswered(RxOutcome::SynDropped));
                }
                self.stats.listener_hits += 1;
                let result = self.accept_syn(&key, &tcp, idx);
                return Ok(RxResult {
                    pcbs_examined: lookup.examined,
                    ..result
                });
            }
        }

        // Nothing matched: RST (unless the offender is itself an RST).
        if tcp.flags.contains(TcpFlags::RST) {
            return Ok(unanswered(RxOutcome::ResetSent)); // nothing to do; no reply
        }
        self.stats.resets_sent += 1;
        let rst = self.make_rst(&key, &tcp, payload.len());
        Ok(RxResult {
            outcome: RxOutcome::ResetSent,
            replies: rst.into(),
            pcbs_examined: lookup.examined,
        })
    }

    fn accept_syn(&mut self, key: &ConnectionKey, tcp: &TcpRepr, listener_idx: usize) -> RxResult {
        let mut pcb = Pcb::new_in_state(*key, TcpState::Listen);
        pcb.on_event(TcpEvent::RecvSyn).expect("LISTEN accepts SYN");
        let iss = self.alloc_iss();
        pcb.init_send(iss, self.config.window.advertise);
        // Our receive window is what *we* advertise; the peer's SYN
        // window seeds SND.WND (what we may send them).
        pcb.init_recv(SeqNum(tcp.seq), self.config.window.open_window());
        pcb.snd.wnd = tcp.window;
        pcb.mss = Pcb::negotiated_mss(tcp.mss, self.config.mss);
        pcb.cong = CongestionState::new(self.config.window.initial_cwnd, usize::from(pcb.mss));
        let id = self.open(pcb);
        self.listeners[listener_idx].embryonic += 1;

        let synack = TcpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq: iss.raw(),
            ack: tcp.seq.wrapping_add(1),
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: self.config.window.open_window(),
            mss: Some(self.config.mss),
            window_scale: None,
        };
        let mut cx = self.cx(id).expect("just opened");
        cx.conn.listener = Some(u16::try_from(listener_idx).expect("one listener per port"));
        let frame = cx.emit_tcp(&synack, b"");
        // The SYN-ACK occupies one sequence number; retransmit until the
        // handshake-completing ACK arrives.
        cx.track_segment(iss, iss + 1, synack.flags, synack.mss, false);
        RxResult {
            outcome: RxOutcome::NewConnection { pcb: id },
            replies: frame.into(),
            pcbs_examined: 0,
        }
    }

    fn make_rst(&mut self, key: &ConnectionKey, tcp: &TcpRepr, payload_len: usize) -> Vec<u8> {
        // RFC 793: if the offending segment has ACK, the RST carries its
        // ack as seq; otherwise seq 0 with ACK covering the segment.
        let repr = if tcp.flags.contains(TcpFlags::ACK) {
            TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: tcp.ack,
                ack: 0,
                flags: TcpFlags::RST,
                window: 0,
                ..TcpRepr::default()
            }
        } else {
            TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: 0,
                ack: tcp.seq.wrapping_add(tcp.segment_len(payload_len)),
                flags: TcpFlags::RST | TcpFlags::ACK,
                window: 0,
                ..TcpRepr::default()
            }
        };
        self.emit_tcp(key, &repr, b"")
    }

    fn emit_tcp(&mut self, key: &ConnectionKey, repr: &TcpRepr, payload: &[u8]) -> Vec<u8> {
        emit_tcp(
            &mut self.tx_pool,
            &mut self.stats,
            &mut self.demux,
            key,
            repr,
            payload,
        )
    }
}

impl Cx<'_> {
    fn emit_tcp(&mut self, repr: &TcpRepr, payload: &[u8]) -> Vec<u8> {
        let key = self.conn.pcb.key();
        emit_tcp(self.tx_pool, self.stats, self.demux, &key, repr, payload)
    }

    /// Queue the connection for the next transmit poll (idempotent).
    fn mark_tx_pending(&mut self) {
        if !self.conn.tx_pending {
            self.conn.tx_pending = true;
            self.tx_pending.push_back(self.id);
        }
    }

    /// The connection's sender half, taken off the idle list (or made)
    /// if it has none.
    fn tx_half(&mut self) -> &mut SendHalf {
        self.conn.tx.get_or_insert_with(|| {
            self.idle_halves.pop().unwrap_or_else(|| {
                Box::new(SendHalf {
                    buf: SendBuffer::new(self.config.window.send_buffer),
                    segments: VecDeque::new(),
                    timer: None,
                })
            })
        })
    }

    /// Cancel the retransmission timer and give up the sender half.
    fn release_tx(&mut self) {
        if let Some(half) = self.conn.tx.take() {
            release_half(half, &self.config.window, self.timers, self.idle_halves);
        }
    }

    /// Frame the connection's unsent bytes under its transmit window.
    /// They stay in the send buffer: the segments queued for
    /// retransmission only mark how far into it transmission has got.
    fn transmit(&mut self, scratch: &mut TxScratch) {
        let mss = usize::from(self.conn.pcb.mss);
        let key = self.conn.pcb.key();
        let window = self.conn.advertised_window(&self.config.window);
        let mut sent = self.conn.tx.as_deref().map_or(0, SendHalf::data_len);
        // Whether unsent bytes remain for a later poll.
        let more = loop {
            let Some(half) = self.conn.tx.as_deref() else {
                return;
            };
            debug_assert!(
                sent <= half.buf.len(),
                "queued segments overrun the send buffer"
            );
            let unsent = half.buf.len() - sent;
            if unsent == 0 {
                break false;
            }
            let p = &mut self.conn.pcb;
            if !p.state().can_transfer_data() {
                break true;
            }
            let inflight = p.snd.nxt.raw().wrapping_sub(p.snd.una.raw()) as usize;
            let rwnd = usize::from(p.snd.wnd);
            let wnd = rwnd.min(p.cong.send_window(mss));
            // Either a normal segment under the open window, or — when
            // the peer's window is *closed* and nothing is in flight — a
            // one-byte zero-window probe that forces the peer to re-ACK
            // its current window (the persist mechanism).
            let (take, probe) = if wnd > inflight {
                (unsent.min(wnd - inflight).min(mss), false)
            } else if rwnd == 0 && inflight == 0 {
                (1, true)
            } else {
                if rwnd <= inflight {
                    // The peer's window, not cwnd, is the bottleneck; an
                    // incoming ACK will reopen it, no probe needed.
                    self.telemetry.event(Event::RwndStall);
                }
                break true;
            };
            let seq = p.snd.nxt;
            p.snd.nxt += take as u32;
            // The segment advertises `window`: that is now the edge the
            // receive path holds arrivals to.
            p.rcv.wnd = window;
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: seq.raw(),
                ack: p.rcv.nxt.raw(),
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window,
                ..TcpRepr::default()
            };
            let unsent_after = unsent - take;
            scratch.frames.push(emit_tcp(
                self.tx_pool,
                self.stats,
                self.demux,
                &key,
                &repr,
                half.buf.peek(sent..sent + take),
            ));
            self.track_segment(seq, seq + take as u32, repr.flags, None, probe);
            sent += take;
            if probe {
                self.telemetry.event(Event::RwndStall);
                self.telemetry.event(Event::ZeroWindowProbe);
                break unsent_after > 0;
            }
        };
        if more {
            self.mark_tx_pending();
        }
    }

    /// Put a just-transmitted segment on the retransmission queue and
    /// make sure the RTO timer is running. Segments that occupy no
    /// sequence space (pure ACKs, RSTs, window probes) are not tracked —
    /// nothing acknowledges them. Whatever of `seq..end` is not a SYN or
    /// FIN is payload, which the caller framed from the send buffer
    /// right behind the bytes already queued here.
    fn track_segment(
        &mut self,
        seq: SeqNum,
        end: SeqNum,
        flags: TcpFlags,
        mss: Option<u16>,
        probe: bool,
    ) {
        if end == seq {
            return;
        }
        let control =
            u32::from(flags.contains(TcpFlags::SYN)) + u32::from(flags.contains(TcpFlags::FIN));
        let sent_at = self.now_ticks;
        let half = self.tx_half();
        half.segments.push_back(InflightSegment {
            seq,
            end,
            flags,
            mss,
            len: end.raw().wrapping_sub(seq.raw()) - control,
            sent_at,
            retransmitted: false,
            probe,
        });
        if half.timer.is_none() {
            self.arm_retx_timer();
        }
    }

    /// The connection's current RTO in ticks (estimator RTO backed off by
    /// the consecutive-expiry count, floored at one tick).
    fn rto_ticks(&self) -> u64 {
        (self.conn.pcb.current_rto() / US_PER_TICK).max(1)
    }

    /// (Re)arm the retransmission timer, replacing any previously armed
    /// one.
    fn arm_retx_timer(&mut self) {
        let after = self.rto_ticks();
        if let Some(half) = self.conn.tx.as_deref_mut() {
            if let Some(old) = half.timer.take() {
                self.timers.cancel(old);
            }
            half.timer = Some(self.timers.schedule(after, TimerEvent::Retransmit(self.id)));
        }
    }

    /// A cumulative ACK advanced SND.UNA to `ack`: retire every fully
    /// covered segment and release its bytes from the send buffer, take
    /// one RTT sample, reset the backoff, and re-arm or cancel the RTO
    /// timer. A half left with nothing in flight and nothing to send is
    /// given up.
    ///
    /// The sample is the oldest retired segment's, and there is none if
    /// any retired segment was retransmitted (Karn's rule, as BSD and
    /// Linux apply it): an ACK that fills a hole also covers segments
    /// that waited in the peer's reassembly queue, and their elapsed
    /// time measures the repair, not the path.
    fn on_ack(&mut self, ack: SeqNum) {
        let Some(half) = self.conn.tx.as_deref_mut() else {
            return;
        };
        let mut oldest_sent_at = None;
        let mut retransmitted = false;
        let mut acked_data = 0;
        while let Some(&seg) = half.segments.front() {
            if !seg.end.le(ack) {
                break;
            }
            half.segments.pop_front();
            oldest_sent_at.get_or_insert(seg.sent_at);
            retransmitted |= seg.retransmitted;
            acked_data += seg.len as usize;
        }
        let Some(sent_at) = oldest_sent_at else {
            return;
        };
        let elapsed = self.now_ticks.saturating_sub(sent_at) * US_PER_TICK;
        if self.conn.pcb.rtt.sample_acked(elapsed, retransmitted) {
            self.stats.rtt_samples += 1;
        }
        if acked_data > 0 {
            debug_assert!(
                acked_data + half.data_len() <= half.buf.len(),
                "queued segments overrun the send buffer"
            );
            half.buf.consume(acked_data);
        }
        // New data was acknowledged: the peer is alive, backoff resets.
        self.conn.pcb.rto_attempts = 0;
        if !half.segments.is_empty() {
            self.arm_retx_timer();
        } else if half.buf.is_empty() {
            self.release_tx();
        } else if let Some(timer) = half.timer.take() {
            self.timers.cancel(timer);
        }
    }

    /// The peer's window is open and a zero-window probe is still
    /// unacknowledged: the peer refused the probe's byte. Take the probe
    /// off the queue and rewind SND.NXT to SND.UNA (BSD's `snd_nxt =
    /// snd_una`), so the next transmit sends that byte again at the head
    /// of the stream rather than framing data behind a hole. A probe
    /// goes out only with nothing else in flight, so it is the whole
    /// queue.
    fn resume_after_refused_probe(&mut self) {
        let Some(half) = self.conn.tx.as_deref_mut() else {
            return;
        };
        if !half.segments.front().is_some_and(|s| s.probe) {
            return;
        }
        debug_assert_eq!(half.segments.len(), 1, "a probe is sent alone");
        half.segments.clear();
        if let Some(timer) = half.timer.take() {
            self.timers.cancel(timer);
        }
        let p = &mut self.conn.pcb;
        p.snd.nxt = p.snd.una;
    }

    /// The RTO fired: retransmit the *oldest* unacked segment only (the
    /// receiver kept what arrived behind it, so the cumulative ACK it
    /// provokes retires everything up to the next loss), marking it
    /// ambiguous for Karn's rule,
    /// shrinking cwnd to one MSS, and doubling the backoff. Past the
    /// retry budget the connection is to be aborted, which the caller
    /// does on a `true` return — unless the head is a zero-window probe,
    /// whose re-emission *is* the persist timer and never exhausts the
    /// budget.
    fn on_retx_timeout(&mut self, advance: &mut TimeAdvance) -> bool {
        let Some(half) = self.conn.tx.as_deref_mut() else {
            return false;
        };
        half.timer = None;
        let Some(head_is_probe) = half.segments.front().map(|s| s.probe) else {
            return false;
        };
        let p = &mut self.conn.pcb;
        if !head_is_probe && p.rto_attempts >= self.config.max_retries {
            // Retry budget spent: abort. No RST — the path is presumed
            // dead — but the socket learns why it died and keeps any
            // bytes that were delivered before the silence.
            let _ = p.on_event(TcpEvent::Timeout);
            self.stats.timeout_aborts += 1;
            self.telemetry.event(Event::Timeout);
            self.conn.socket.set_error(SocketError::TimedOut);
            return true;
        }
        if !head_is_probe {
            p.rto_attempts += 1;
            let inflight = p.snd.nxt.raw().wrapping_sub(p.snd.una.raw()) as usize;
            p.cong.on_rto(inflight, usize::from(p.mss));
        }
        let attempts = p.rto_attempts;
        advance.retransmits.extend(self.rebuild_head());
        if head_is_probe {
            advance.zero_window_probes += 1;
            self.telemetry.event(Event::ZeroWindowProbe);
        } else {
            self.stats.retransmits += 1;
            self.telemetry
                .event(Event::Retransmit { attempt: attempts });
        }
        self.observe_cwnd();
        self.arm_retx_timer();
        // The re-armed timer reflects the doubled backoff: record it.
        if !head_is_probe {
            self.telemetry.event(Event::RtoBackoff {
                attempts,
                rto_ticks: self.rto_ticks(),
            });
        }
        false
    }

    /// Re-emit the oldest unacked segment right now: fast retransmit on
    /// the third duplicate ACK, or a NewReno partial-ACK head re-emission
    /// (`dup_acks` 0). Does not touch the retry budget: the path is
    /// delivering ACKs, it is not dead.
    fn retransmit_head(&mut self, dup_acks: u32) -> Option<Vec<u8>> {
        let frame = self.rebuild_head()?;
        self.telemetry.event(Event::FastRetransmit { dup_acks });
        self.arm_retx_timer();
        Some(frame)
    }

    /// Frame the oldest unacked segment again, marking it retransmitted
    /// (Karn's rule). Its header carries the *current* acknowledgement
    /// and window, not those of its first transmission; its payload is
    /// the front of the send buffer, where it has sat since.
    fn rebuild_head(&mut self) -> Option<Vec<u8>> {
        let half = self.conn.tx.as_deref_mut()?;
        let seg = half.segments.front_mut()?;
        seg.retransmitted = true;
        let p = &self.conn.pcb;
        let key = p.key();
        let repr = TcpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq: seg.seq.raw(),
            ack: if seg.flags.contains(TcpFlags::ACK) {
                p.rcv.nxt.raw()
            } else {
                0
            },
            flags: seg.flags,
            window: p.rcv.wnd,
            mss: seg.mss,
            window_scale: None,
        };
        let payload = half.buf.peek(0..seg.len as usize);
        Some(emit_tcp(
            self.tx_pool,
            self.stats,
            self.demux,
            &key,
            &repr,
            payload,
        ))
    }

    /// Record the connection's current cwnd into the [`CwndBytes`]
    /// histogram (the A9 sawtooth evidence).
    ///
    /// [`CwndBytes`]: HistogramId::CwndBytes
    fn observe_cwnd(&mut self) {
        let cwnd = u32::try_from(self.conn.pcb.cong.cwnd).unwrap_or(u32::MAX);
        self.telemetry.observe(HistogramId::CwndBytes, cwnd);
    }

    fn make_ack(&mut self) -> Vec<u8> {
        // Recompute the advertised window from current socket occupancy
        // (a slow reader shrinks it, draining reads re-grow it) and keep
        // rcv.wnd in sync with what actually went on the wire.
        let window = self.conn.advertised_window(&self.config.window);
        let p = &mut self.conn.pcb;
        p.rcv.wnd = window;
        let repr = TcpRepr {
            src_port: p.key().local_port,
            dst_port: p.key().remote_port,
            seq: p.snd.nxt.raw(),
            ack: p.rcv.nxt.raw(),
            flags: TcpFlags::ACK,
            window,
            ..TcpRepr::default()
        };
        self.emit_tcp(&repr, b"")
    }

    /// A pure ACK just went on the wire: clear the delayed-ACK debt and
    /// cancel any armed ack timer.
    fn note_ack_emitted(&mut self) {
        if let Some(state) = self.conn.delayed.as_deref_mut() {
            state.pending = 0;
            if let Some(timer) = state.timer.take() {
                self.timers.cancel(timer);
            }
        }
    }

    /// Decide whether the in-order data segment just delivered gets an
    /// immediate ACK or a delayed one. Returns the ACK frame to append
    /// to the replies, or `None` when the ACK is deferred to the every-N
    /// threshold / the ack timer.
    fn ack_for_delivery(&mut self) -> Option<Vec<u8>> {
        let Some(ticks) = self.config.window.delayed_ack_ticks else {
            return Some(self.make_ack());
        };
        let state = self.conn.delayed.get_or_insert_with(Box::default);
        state.pending += 1;
        if state.pending >= self.config.window.ack_every.max(1) {
            let frame = self.make_ack();
            self.note_ack_emitted();
            self.telemetry.event(Event::DelayedAck);
            return Some(frame);
        }
        if state.timer.is_none() {
            state.timer = Some(self.timers.schedule(ticks, TimerEvent::DelayedAck(self.id)));
        }
        None
    }

    fn process_segment(&mut self, tcp: &TcpRepr, payload: &[u8]) -> (RxResult, Then) {
        let id = self.id;
        let done = |outcome, replies: Replies, then| {
            let result = RxResult {
                outcome,
                replies,
                pcbs_examined: 0,
            };
            (result, then)
        };
        let no_reply = |outcome| done(outcome, Replies::default(), Then::Keep);

        // RST: honoured only where the peer itself could have sent it —
        // acknowledging our SYN in SYN-SENT, inside the receive window
        // from then on (RFC 793 p. 37) — so a forged one has to guess the
        // window and not merely the four-tuple.
        if tcp.flags.contains(TcpFlags::RST) {
            let p = &self.conn.pcb;
            let genuine = if p.state() == TcpState::SynSent {
                tcp.flags.contains(TcpFlags::ACK) && SeqNum(tcp.ack) == p.snd.nxt
            } else {
                p.segment_acceptable(SeqNum(tcp.seq), 0)
            };
            if !genuine {
                self.stats.out_of_order_drops += 1;
                return no_reply(RxOutcome::Duplicate { pcb: id });
            }
            return done(
                RxOutcome::ResetReceived,
                Replies::default(),
                Then::Reclaim(CloseCause::Reset),
            );
        }

        // Handshake progress.
        match self.conn.pcb.state() {
            TcpState::SynSent => {
                let p = &mut self.conn.pcb;
                if tcp.flags.contains(TcpFlags::SYN) && tcp.flags.contains(TcpFlags::ACK) {
                    p.on_event(TcpEvent::RecvSynAck).expect("SYN-SENT");
                    p.init_recv(SeqNum(tcp.seq), self.config.window.open_window());
                    p.snd.una = SeqNum(tcp.ack);
                    p.snd.wnd = tcp.window;
                    p.mss = Pcb::negotiated_mss(tcp.mss, self.config.mss);
                    p.cong.set_mss(usize::from(p.mss));
                    // The SYN-ACK acknowledges our SYN: retire it.
                    self.on_ack(SeqNum(tcp.ack));
                    let ack = self.make_ack();
                    return done(RxOutcome::Established { pcb: id }, ack.into(), Then::Keep);
                }
                if tcp.flags.contains(TcpFlags::SYN) {
                    // Simultaneous open.
                    p.on_event(TcpEvent::RecvSyn).expect("SYN-SENT");
                    p.mss = Pcb::negotiated_mss(tcp.mss, self.config.mss);
                    p.cong.set_mss(usize::from(p.mss));
                    p.init_recv(SeqNum(tcp.seq), self.config.window.open_window());
                    p.snd.wnd = tcp.window;
                    let ack = self.make_ack();
                    return done(RxOutcome::NewConnection { pcb: id }, ack.into(), Then::Keep);
                }
                return no_reply(RxOutcome::Duplicate { pcb: id });
            }
            TcpState::SynReceived => {
                let p = &mut self.conn.pcb;
                if tcp.flags.contains(TcpFlags::ACK) && SeqNum(tcp.ack) == p.snd.nxt {
                    p.on_event(TcpEvent::RecvAck).expect("SYN-RECEIVED");
                    p.snd.una = SeqNum(tcp.ack);
                    p.snd.wnd = tcp.window;
                    // The ACK covers our SYN-ACK: retire it.
                    self.on_ack(SeqNum(tcp.ack));
                    // The handshake completed: from embryonic to the
                    // listener's accept queue.
                    if let Some(idx) = self.conn.listener {
                        let listener = &mut self.listeners[usize::from(idx)];
                        listener.embryonic -= 1;
                        listener.accept_queue.push_back(id);
                    }
                    // Fall through: the ACK may carry data too.
                    if payload.is_empty() && !tcp.flags.contains(TcpFlags::FIN) {
                        return no_reply(RxOutcome::Established { pcb: id });
                    }
                } else if tcp.flags.contains(TcpFlags::SYN) {
                    // Retransmitted SYN: re-send the SYN-ACK. The queued
                    // SYN-ACK has now effectively been retransmitted, so
                    // Karn's rule disqualifies it from RTT sampling.
                    if let Some(half) = self.conn.tx.as_deref_mut() {
                        for seg in half.segments.iter_mut() {
                            seg.retransmitted = true;
                        }
                    }
                    let synack = TcpRepr {
                        src_port: p.key().local_port,
                        dst_port: p.key().remote_port,
                        seq: p.snd.iss.raw(),
                        ack: p.rcv.nxt.raw(),
                        flags: TcpFlags::SYN | TcpFlags::ACK,
                        window: p.rcv.wnd,
                        mss: Some(self.config.mss),
                        window_scale: None,
                    };
                    let frame = self.emit_tcp(&synack, b"");
                    return done(RxOutcome::Duplicate { pcb: id }, frame.into(), Then::Keep);
                }
            }
            _ => {
                // A stray SYN or SYN-ACK on a synchronized connection is
                // the peer retransmitting its half of the handshake — our
                // handshake-completing ACK was lost. Re-acknowledge, or
                // the peer retries into its RTO abort for nothing.
                if tcp.flags.contains(TcpFlags::SYN) {
                    let ack = self.make_ack();
                    return done(RxOutcome::Duplicate { pcb: id }, ack.into(), Then::Keep);
                }
            }
        }

        // Sequence check for data/FIN segments (RFC 793 p. 69). One with
        // nothing inside the window last advertised — an old duplicate,
        // one past the right edge, any at all while the window is closed —
        // is discarded and re-acknowledged. One that straddles an edge is
        // trimmed to the window, and to the receive buffer's free space
        // where unacknowledged deliveries have taken that below it.
        let seq = SeqNum(tcp.seq);
        let fin_seq = seq + payload.len() as u32;
        let seg_len = payload.len() as u32 + u32::from(tcp.flags.contains(TcpFlags::FIN));
        let mut payload = payload;
        // How far past RCV.NXT what is left of the payload starts.
        let mut offset = 0;
        if seg_len > 0 {
            let p = &self.conn.pcb;
            if !p.segment_acceptable(seq, seg_len) {
                self.stats.out_of_order_drops += 1;
                let ack = self.make_ack();
                return done(RxOutcome::Duplicate { pcb: id }, ack.into(), Then::Keep);
            }
            if seq.lt(p.rcv.nxt) {
                let stale = (p.rcv.nxt - seq) as usize;
                payload = &payload[stale.min(payload.len())..];
            } else {
                offset = (seq - p.rcv.nxt) as usize;
            }
            let occupancy = self.conn.socket.available();
            let room = self.config.window.recv_buffer.saturating_sub(occupancy);
            let window = usize::from(p.rcv.wnd).min(room);
            payload = &payload[..payload.len().min(window.saturating_sub(offset))];
        }

        // ACK bookkeeping (cumulative), congestion control, and
        // FIN-acknowledgement transitions. What congestion control
        // re-emits goes out ahead of this segment's own acknowledgement.
        let mut replies = Replies::default();
        if tcp.flags.contains(TcpFlags::ACK) {
            let ack = SeqNum(tcp.ack);
            let p = &mut self.conn.pcb;
            let mss = usize::from(p.mss);
            let advanced = p.snd.una.lt(ack) && ack.le(p.snd.nxt);
            // RFC 5681 duplicate ACK: no data, no SYN/FIN, no window
            // update, ack == SND.UNA, with data outstanding. One that
            // closes the window answers a probe the peer had no room
            // for: nothing is missing, and it is not counted.
            let is_dup = !advanced
                && ack == p.snd.una
                && payload.is_empty()
                && !tcp.flags.contains(TcpFlags::SYN)
                && !tcp.flags.contains(TcpFlags::FIN)
                && p.snd.wnd == tcp.window
                && tcp.window > 0
                && p.snd.una.lt(p.snd.nxt);
            p.snd.wnd = tcp.window;
            if advanced {
                let acked_bytes = ack.raw().wrapping_sub(p.snd.una.raw()) as usize;
                p.snd.una = ack;
                // Retire covered segments and service the RTO timer.
                self.on_ack(ack);
                let action = self.conn.pcb.cong.on_ack(acked_bytes, ack, mss);
                self.observe_cwnd();
                if matches!(action, CcAction::RetransmitHead) {
                    // NewReno partial ACK: re-emit the new head.
                    replies.extend(self.retransmit_head(0));
                }
            } else if is_dup {
                let inflight = p.snd.nxt.raw().wrapping_sub(p.snd.una.raw()) as usize;
                let action = p.cong.on_dup_ack(inflight, p.snd.nxt, mss);
                let dup_acks = p.cong.dup_acks;
                self.observe_cwnd();
                if matches!(action, CcAction::RetransmitHead) {
                    replies.extend(self.retransmit_head(dup_acks));
                }
            } else if ack == p.snd.una && tcp.window > 0 {
                self.resume_after_refused_probe();
            }
            // An ACK may have reopened the transmit window: requeue any
            // buffered data for the next poll.
            if self.conn.send_queued() > 0 {
                self.mark_tx_pending();
            }
            // Does this acknowledge our FIN?
            let p = &mut self.conn.pcb;
            if ack == p.snd.nxt {
                match p.state() {
                    TcpState::FinWait1 => {
                        p.on_event(TcpEvent::RecvAck).expect("FIN-WAIT-1");
                    }
                    TcpState::Closing => {
                        p.on_event(TcpEvent::RecvAck).expect("CLOSING");
                        return done(
                            RxOutcome::TimeWait { pcb: id },
                            Replies::default(),
                            Then::TimeWait,
                        );
                    }
                    TcpState::LastAck => {
                        p.on_event(TcpEvent::RecvAck).expect("LAST-ACK");
                        return done(
                            RxOutcome::Closed,
                            Replies::default(),
                            Then::Reclaim(CloseCause::Graceful),
                        );
                    }
                    _ => {}
                }
            }
        }

        // Payload. Ahead of RCV.NXT it is held in the socket, where it
        // will be read from, and acknowledged at once: the duplicate ACK
        // is what tells the sender a segment is missing (RFC 5681 §4.2).
        // At RCV.NXT it is delivered, and with it whatever was held behind
        // the hole it fills.
        let mut delivered = 0usize;
        if !payload.is_empty() && self.conn.pcb.state().can_transfer_data() {
            if offset > 0 {
                self.conn.socket.stage(offset, payload, self.rx_blocks);
                self.stats.out_of_order_queued += 1;
                replies.push(self.make_ack());
                self.note_ack_emitted();
                return done(RxOutcome::Duplicate { pcb: id }, replies, Then::Keep);
            }
            delivered = self.conn.socket.deliver(payload, self.rx_blocks);
            self.conn.pcb.rcv.nxt += delivered as u32;
            self.stats.bytes_delivered += delivered as u64;
        }

        // FIN processing, once every byte before it has been delivered.
        let mut peer_closed = false;
        if tcp.flags.contains(TcpFlags::FIN) && fin_seq == self.conn.pcb.rcv.nxt {
            let p = &mut self.conn.pcb;
            if p.on_event(TcpEvent::RecvFin).is_ok() {
                p.rcv.nxt += 1;
                peer_closed = true;
                self.conn.socket.mark_fin();
            }
        }

        if peer_closed {
            // FIN (and anything alongside it) is acknowledged at once.
            replies.push(self.make_ack());
            self.note_ack_emitted();
            return if self.conn.pcb.state() == TcpState::TimeWait {
                done(RxOutcome::TimeWait { pcb: id }, replies, Then::TimeWait)
            } else {
                done(RxOutcome::PeerClosed { pcb: id }, replies, Then::Keep)
            };
        }
        if delivered > 0 {
            if delivered > payload.len() || self.conn.socket.has_holes() {
                // A hole closed or is still open: the sender is repairing
                // a loss and waits on this ACK.
                replies.push(self.make_ack());
                self.note_ack_emitted();
            } else {
                // Plain in-order data may owe a delayed ACK instead.
                replies.extend(self.ack_for_delivery());
            }
            let outcome = RxOutcome::Delivered {
                pcb: id,
                bytes: delivered,
            };
            return done(outcome, replies, Then::Keep);
        }
        if seg_len > 0 {
            // Nothing of it could be taken: a FIN ahead of a hole, or
            // payload the receive buffer or the state has no place for.
            self.stats.out_of_order_drops += 1;
            replies.push(self.make_ack());
            return done(RxOutcome::Duplicate { pcb: id }, replies, Then::Keep);
        }
        done(RxOutcome::AckProcessed { pcb: id }, replies, Then::Keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_core::{BsdDemux, SequentDemux};

    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn pair() -> (Stack, Stack) {
        let server =
            Stack::with_config(StackConfig::new(SERVER).with_demux(|| Box::new(BsdDemux::new())));
        let client =
            Stack::with_config(StackConfig::new(CLIENT).with_demux(|| Box::new(BsdDemux::new())));
        (server, client)
    }

    /// Run the three-way handshake; returns (client_pcb, server_pcb).
    fn handshake(server: &mut Stack, client: &mut Stack, port: u16) -> (PcbId, PcbId) {
        server.listen(port).unwrap();
        let (client_pcb, syn) = client.connect(SERVER, port).unwrap();
        let r1 = server.receive(&syn).unwrap();
        let server_pcb = match r1.outcome {
            RxOutcome::NewConnection { pcb } => pcb,
            other => panic!("expected NewConnection, got {other:?}"),
        };
        let r2 = client.receive(&r1.replies[0]).unwrap();
        assert!(matches!(r2.outcome, RxOutcome::Established { .. }));
        let r3 = server.receive(&r2.replies[0]).unwrap();
        assert!(matches!(r3.outcome, RxOutcome::Established { .. }));
        (client_pcb, server_pcb)
    }

    /// Enqueue `payload` and poll it onto the wire as exactly one frame
    /// — the small-payload idiom most tests want.
    fn send_now(stack: &mut Stack, pcb: PcbId, payload: &[u8]) -> Vec<u8> {
        let accepted = stack.send(pcb, payload).unwrap();
        assert_eq!(accepted, payload.len(), "send buffer accepted all of it");
        let mut scratch = TxScratch::new();
        let n = stack.poll_transmit(&mut scratch);
        assert_eq!(n, 1, "one small payload polls as one frame");
        scratch.frames.pop().unwrap()
    }

    /// The TCP header of a frame a stack emitted.
    fn header_of(frame: &[u8]) -> TcpRepr {
        let packet = Ipv4Packet::new_checked(frame).unwrap();
        let ip = Ipv4Repr::parse(&packet).unwrap();
        let segment = TcpSegment::new_checked(packet.payload()).unwrap();
        TcpRepr::parse(&segment, ip.src_addr, ip.dst_addr).unwrap()
    }

    #[test]
    fn front_filter_config_wraps_the_demux_and_zeroes_miss_cost() {
        const OTHER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
        let mut server = Stack::with_config(StackConfig::new(SERVER).with_demux(|| {
            Box::new(tcpdemux_core::FrontDemux::new(SequentDemux::new(
                Multiplicative,
                19,
            )))
        }));
        let mut client = Stack::with_config(StackConfig::new(CLIENT));
        let (cp, sp) = handshake(&mut server, &mut client, 1521);
        let frame = send_now(&mut client, cp, b"front");
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { pcb, bytes: 5 } if pcb == sp));
        assert!(
            r.pcbs_examined >= 1,
            "hits flow through to the backing tier"
        );

        // A data frame for a four-tuple this server never established:
        // the filter rejects it before any PCB chain is walked, so the
        // per-frame examined count is zero (the unfiltered default
        // would walk a Sequent chain to conclude the same miss).
        let mut shadow_server = Stack::with_config(StackConfig::new(SERVER));
        let mut other_client = Stack::with_config(StackConfig::new(OTHER));
        let (op, _) = handshake(&mut shadow_server, &mut other_client, 1521);
        let stray = send_now(&mut other_client, op, b"stray");
        let r = server.receive(&stray).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetSent));
        assert_eq!(r.pcbs_examined, 0, "miss rejected by the front filter");
    }

    #[test]
    fn three_way_handshake() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 1521);
        assert!(client.is_established(cp));
        assert!(server.is_established(sp));
        assert_eq!(server.connection_count(), 1);
        assert_eq!(client.connection_count(), 1);
        assert_eq!(server.stats().stack.listener_hits, 1);
    }

    #[test]
    fn data_transfer_both_directions() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 1521);

        // Client -> server.
        let frame = send_now(&mut client, cp, b"BEGIN TRANSACTION");
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 17, .. }));
        assert_eq!(
            server.socket_mut(sp).unwrap().read_all(),
            b"BEGIN TRANSACTION"
        );
        // The ACK flows back.
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));

        // Server -> client.
        let frame = send_now(&mut server, sp, b"OK");
        let r = client.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 2, .. }));
        assert_eq!(client.socket_mut(cp).unwrap().read_all(), b"OK");
        server.receive(&r.replies[0]).unwrap();

        // Sequence spaces stayed consistent.
        assert_eq!(server.stats().stack.bytes_delivered, 17);
        assert_eq!(client.stats().stack.bytes_delivered, 2);
        assert_eq!(server.stats().stack.out_of_order_drops, 0);
    }

    #[test]
    fn retransmitted_data_is_dropped_and_reacked() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        let frame = send_now(&mut client, cp, b"hello");
        let r1 = server.receive(&frame).unwrap();
        assert!(matches!(r1.outcome, RxOutcome::Delivered { .. }));
        // Deliver the same frame again (a retransmission).
        let r2 = server.receive(&frame).unwrap();
        assert!(matches!(r2.outcome, RxOutcome::Duplicate { .. }));
        assert_eq!(r2.replies.len(), 1, "duplicate is re-acked");
        assert_eq!(server.stats().stack.out_of_order_drops, 1);
        assert_eq!(
            server.stats().stack.bytes_delivered,
            5,
            "no double delivery"
        );
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);

        // Client closes.
        let fin = client.close(cp).unwrap();
        assert_eq!(client.state(cp), Some(TcpState::FinWait1));
        let r = server.receive(&fin).unwrap();
        assert!(matches!(r.outcome, RxOutcome::PeerClosed { .. }));
        assert_eq!(server.state(sp), Some(TcpState::CloseWait));
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert_eq!(client.state(cp), Some(TcpState::FinWait2));

        // Server closes.
        let fin2 = server.close(sp).unwrap();
        assert_eq!(server.state(sp), Some(TcpState::LastAck));
        let r = client.receive(&fin2).unwrap();
        // Client reaches TIME-WAIT and (timer-free) reclaims immediately.
        assert!(matches!(r.outcome, RxOutcome::Closed));
        assert_eq!(client.connection_count(), 0);
        let r = server.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Closed));
        assert_eq!(server.connection_count(), 0);
    }

    #[test]
    fn segment_to_unknown_connection_gets_rst() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 9999);
        // The server loses its state: no listener, no connection, and
        // the client's next data segment comes out of nowhere.
        let (mut server, _) = pair();
        let frame = send_now(&mut client, cp, b"ghost");
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetSent));
        assert_eq!(r.replies.len(), 1);
        assert_eq!(server.stats().stack.resets_sent, 1);

        // The RST comes back carrying the sequence number the segment
        // acknowledged, and kills the half-open client connection.
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetReceived));
        assert_eq!(client.connection_count(), 0);
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (mut server, mut client) = pair();
        let (_cp, syn) = client.connect(SERVER, 7).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetSent));
    }

    #[test]
    fn frames_for_other_hosts_are_ignored() {
        let (mut server, mut client) = pair();
        let (_cp, syn) = client.connect(Ipv4Addr::new(10, 0, 0, 99), 80).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NotForUs));
        assert_eq!(server.stats().stack.not_for_us, 1);
        assert_eq!(server.stats().stack.resets_sent, 0);
    }

    #[test]
    fn corrupted_frame_rejected_before_demux() {
        let (mut server, mut client) = pair();
        let (_cp, syn) = client.connect(SERVER, 80).unwrap();
        server.listen(80).unwrap();
        let mut bad = syn.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let lookups_before = server.stats().demux.lookups;
        let err = server.receive(&bad).unwrap_err();
        assert_eq!(err, WireError::BadChecksum);
        assert_eq!(server.stats().stack.tcp_errors, 1);
        assert_eq!(
            server.stats().demux.lookups,
            lookups_before,
            "corrupted frames must not reach the demultiplexer"
        );
    }

    #[test]
    fn truncated_frame_counted_as_ip_error() {
        let (mut server, _client) = pair();
        let err = server.receive(&[0x45, 0x00]).unwrap_err();
        assert_eq!(err, WireError::Truncated);
        assert_eq!(server.stats().stack.ip_errors, 1);
    }

    #[test]
    fn unknown_protocol_counted() {
        let (mut server, _client) = pair();
        // Hand-build an IPv4 header claiming protocol 89 (OSPF).
        let ip = Ipv4Repr {
            src_addr: CLIENT,
            dst_addr: SERVER,
            protocol: IpProtocol::Unknown(89),
            payload_len: 0,
            ttl: 64,
        };
        let mut buf = vec![0u8; 20];
        let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
        ip.emit(&mut packet).unwrap();
        let r = server.receive(&buf).unwrap();
        assert!(matches!(r.outcome, RxOutcome::UnhandledProtocol));
        assert_eq!(server.stats().stack.bad_protocol, 1);
    }

    #[test]
    fn connected_udp_demuxes_and_delivers() {
        let (mut server, mut client) = pair();
        let server_sock = server.udp_open(53, CLIENT, 5353).unwrap();
        let client_sock = client.udp_open(5353, SERVER, 53).unwrap();
        let frame = client.udp_send(client_sock, b"query").unwrap();
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 5, .. }));
        assert!(r.pcbs_examined >= 1);
        assert_eq!(server.socket_mut(server_sock).unwrap().read_all(), b"query");
    }

    #[test]
    fn a_live_four_tuple_cannot_be_opened_twice() {
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (first, syn) = client.connect_from(5000, SERVER, 80).unwrap();
        let key = ConnectionKey::new(CLIENT, 5000, SERVER, 80);
        assert_eq!(
            client.connect_from(5000, SERVER, 80).unwrap_err(),
            StackError::ConnectionExists(key)
        );
        assert_eq!(
            client.udp_open(5000, SERVER, 80).unwrap_err(),
            StackError::ConnectionExists(key)
        );
        assert_eq!(client.connection_count(), 1);
        // The first connection still owns the demux entry: its SYN-ACK
        // finds it and the handshake completes.
        let syn_ack = server.receive(&syn).unwrap();
        let ack = client.receive(&syn_ack.replies[0]).unwrap();
        assert!(matches!(ack.outcome, RxOutcome::Established { pcb } if pcb == first));
        assert_eq!(client.state(first), Some(TcpState::Established));
        // Another port to the same peer, or the same port once the first
        // is gone, is still free.
        client.connect_from(5001, SERVER, 80).unwrap();
        client.abort(first).unwrap();
        client.connect_from(5000, SERVER, 80).unwrap();
        assert_eq!(client.connection_count(), 2);
    }

    #[test]
    fn unconnected_udp_uses_wildcard_path() {
        let (mut server, mut client) = pair();
        server.udp_bind(514).unwrap();
        let sock = client.udp_open(40_000, SERVER, 514).unwrap();
        let frame = client.udp_send(sock, b"log line").unwrap();
        let r = server.receive(&frame).unwrap();
        assert!(matches!(
            r.outcome,
            RxOutcome::DeliveredUnconnected { bytes: 8 }
        ));
        assert_eq!(server.stats().stack.listener_hits, 1);
    }

    #[test]
    fn udp_to_unbound_port_is_unreachable() {
        let (mut server, mut client) = pair();
        let sock = client.udp_open(40_000, SERVER, 9).unwrap();
        let frame = client.udp_send(sock, b"discard").unwrap();
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::UdpUnreachable));
    }

    #[test]
    fn listen_twice_fails() {
        let (mut server, _client) = pair();
        server.listen(80).unwrap();
        assert_eq!(server.listen(80), Err(StackError::PortInUse(80)));
        server.udp_bind(80).unwrap(); // UDP namespace is separate
        assert_eq!(server.udp_bind(80), Err(StackError::PortInUse(80)));
    }

    #[test]
    fn ephemeral_ports_are_distinct() {
        let (_server, mut client) = pair();
        let (a, _) = client.connect(SERVER, 80).unwrap();
        let (b, _) = client.connect(SERVER, 80).unwrap();
        let ka = client.connection_key(a).unwrap();
        let kb = client.connection_key(b).unwrap();
        assert_ne!(ka.local_port, kb.local_port);
    }

    #[test]
    fn send_on_unestablished_connection_fails() {
        let (_server, mut client) = pair();
        let (cp, _syn) = client.connect(SERVER, 80).unwrap();
        assert_eq!(client.send(cp, b"x"), Err(StackError::NotEstablished));
    }

    #[test]
    fn abort_sends_rst_and_reclaims() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let rst = client.abort(cp).unwrap();
        assert_eq!(client.connection_count(), 0);
        let r = server.receive(&rst).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetReceived));
        assert_eq!(server.connection_count(), 0);
        let _ = sp;
    }

    #[test]
    fn retransmitted_syn_gets_synack_again() {
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (_cp, syn) = client.connect(SERVER, 80).unwrap();
        let r1 = server.receive(&syn).unwrap();
        assert!(matches!(r1.outcome, RxOutcome::NewConnection { .. }));
        // The same SYN again (client timed out): a fresh SYN-ACK.
        let r2 = server.receive(&syn).unwrap();
        assert!(matches!(r2.outcome, RxOutcome::Duplicate { .. }));
        assert_eq!(r2.replies.len(), 1);
        // Both SYN-ACKs carry the same ISS.
        let seg1 = TcpSegment::new_checked(
            Ipv4Packet::new_checked(&r1.replies[0][..])
                .unwrap()
                .payload()
                .to_vec(),
        )
        .unwrap();
        let seg2 = TcpSegment::new_checked(
            Ipv4Packet::new_checked(&r2.replies[0][..])
                .unwrap()
                .payload()
                .to_vec(),
        )
        .unwrap();
        assert_eq!(seg1.seq(), seg2.seq());
    }

    /// Pair with real TIME-WAIT enabled on the client side.
    fn pair_with_time_wait(ticks: u64) -> (Stack, Stack) {
        let server =
            Stack::with_config(StackConfig::new(SERVER).with_demux(|| Box::new(BsdDemux::new())));
        let client = Stack::with_config(
            StackConfig::new(CLIENT)
                .with_time_wait(ticks)
                .with_demux(|| Box::new(BsdDemux::new())),
        );
        (server, client)
    }

    #[test]
    fn time_wait_holds_connection_until_2msl() {
        let (mut server, mut client) = pair_with_time_wait(120_000);
        let (cp, sp) = handshake(&mut server, &mut client, 80);

        // Active close from the client, then the server's FIN.
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        // With timers on, the client parks in TIME-WAIT instead of
        // reclaiming.
        assert!(matches!(r.outcome, RxOutcome::TimeWait { .. }));
        assert_eq!(client.state(cp), Some(TcpState::TimeWait));
        assert_eq!(client.connection_count(), 1);
        assert_eq!(client.time_wait_count(), 1);
        server.receive(&r.replies[0]).unwrap();

        // A retransmitted FIN during TIME-WAIT is re-acknowledged.
        let r = client.receive(&fin2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Duplicate { .. }));
        assert_eq!(r.replies.len(), 1);

        // Before 2MSL: still parked. After: reclaimed.
        assert_eq!(client.advance_time(119_999).reclaimed, 0);
        assert_eq!(client.connection_count(), 1);
        assert_eq!(client.advance_time(120_000).reclaimed, 1);
        assert_eq!(client.connection_count(), 0);
        assert_eq!(client.time_wait_count(), 0);
    }

    #[test]
    fn time_wait_timer_is_stale_safe_after_rst() {
        let (mut server, mut client) = pair_with_time_wait(1000);
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        // Drive the client into TIME-WAIT.
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::TimeWait { .. }));
        // An RST lands during TIME-WAIT and reclaims immediately.
        let rst_frame = {
            // Rebuild a valid RST from the server's (now closed) side by
            // aborting a reconstructed connection is overkill: craft one,
            // at the sequence number that follows the server's FIN.
            let key = ConnectionKey::new(
                CLIENT,
                {
                    // client's ephemeral port: recover from its PCB
                    client.connection_key(cp).unwrap().local_port
                },
                SERVER,
                80,
            )
            .reversed();
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: header_of(&fin2).seq.wrapping_add(1),
                ack: 0,
                flags: TcpFlags::RST,
                window: 0,
                ..TcpRepr::default()
            };
            server.emit_tcp(&key, &repr, b"")
        };
        let r = client.receive(&rst_frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetReceived));
        assert_eq!(client.connection_count(), 0);
        // The parked timer fires later against a recycled-or-dead slot;
        // the generation check must make it a no-op, not a panic or a
        // wrong-connection reclaim.
        assert_eq!(client.advance_time(1000).reclaimed, 0);
    }

    #[test]
    fn timer_free_mode_reclaims_immediately() {
        // The default config (time_wait_ticks: None) must behave exactly
        // as before: reaching TIME-WAIT reclaims at once.
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Closed));
        assert_eq!(client.connection_count(), 0);
    }

    #[test]
    fn ethernet_receive_path() {
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (_cp, syn) = client.connect(SERVER, 80).unwrap();

        // Properly addressed frame: full handshake step works.
        let framed = client.encapsulate(&syn, SERVER);
        assert!(framed.len() >= 60, "minimum frame size honored");
        let r = server.receive_ethernet(&framed).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NewConnection { .. }));

        // Frame for someone else's MAC: ignored at the link layer.
        let mut wrong = framed.clone();
        wrong[5] ^= 0x01; // dst MAC last byte
        let r = server.receive_ethernet(&wrong).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NotForUs));

        // Broadcast is accepted.
        let mut bcast = framed.clone();
        bcast[..6].copy_from_slice(&[0xff; 6]);
        let r = server.receive_ethernet(&bcast).unwrap();
        // (Duplicate SYN: the connection exists now.)
        assert!(matches!(r.outcome, RxOutcome::Duplicate { .. }));

        // IPv4 bytes relabeled as ARP fail ARP validation.
        let mut arp = framed.clone();
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert!(server.receive_ethernet(&arp).is_err());

        // A genuinely unknown EtherType is counted and dropped.
        let mut ipx = framed.clone();
        ipx[12] = 0x81;
        ipx[13] = 0x37;
        let r = server.receive_ethernet(&ipx).unwrap();
        assert!(matches!(r.outcome, RxOutcome::UnhandledProtocol));
        assert_eq!(server.stats().stack.bad_protocol, 1);

        // Runt frame.
        assert!(server.receive_ethernet(&framed[..10]).is_err());
    }

    #[test]
    fn ethernet_padding_does_not_confuse_ipv4() {
        // A 40-byte pure ACK gets padded to 46 payload bytes; the IPv4
        // total-length field must bound parsing.
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (_cp, syn) = client.connect(SERVER, 80).unwrap();
        let r1 = server.receive(&syn).unwrap();
        let r2 = client.receive(&r1.replies[0]).unwrap();
        // The handshake-completing ACK is a 40-byte pure ACK frame.
        let frame = &r2.replies[0];
        assert_eq!(frame.len(), 40);
        let framed = client.encapsulate(frame, SERVER);
        let r = server.receive_ethernet(&framed).unwrap();
        assert!(
            matches!(r.outcome, RxOutcome::Established { .. }),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn stack_answers_pings() {
        use tcpdemux_wire::IcmpRepr;
        let (mut server, mut client) = pair();
        // Client pings the server.
        let ping = IcmpRepr::EchoRequest {
            ident: 0xbeef,
            seq: 1,
            payload: b"are you there?",
        }
        .emit();
        let frame = client.emit_icmp(SERVER, &ping);
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::EchoReplied));
        assert_eq!(server.stats().stack.icmp_in, 1);
        assert_eq!(server.stats().stack.icmp_echo_replies, 1);

        // The reply makes it back with the payload intact.
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::IcmpProcessed));
        let reply_packet = Ipv4Packet::new_checked(&frame[..]).unwrap();
        let _ = reply_packet;
    }

    #[test]
    fn ping_payload_is_echoed_exactly() {
        use tcpdemux_wire::IcmpRepr;
        let (mut server, mut client) = pair();
        let payload = b"0123456789abcdef";
        let ping = IcmpRepr::EchoRequest {
            ident: 7,
            seq: 42,
            payload,
        }
        .emit();
        let frame = client.emit_icmp(SERVER, &ping);
        let r = server.receive(&frame).unwrap();
        let reply = Ipv4Packet::new_checked(&r.replies[0][..]).unwrap();
        match IcmpRepr::parse(reply.payload()).unwrap() {
            IcmpRepr::EchoReply {
                ident,
                seq,
                payload: echoed,
            } => {
                assert_eq!(ident, 7);
                assert_eq!(seq, 42);
                assert_eq!(echoed, payload);
            }
            other => panic!("{other:?}"),
        }
    }

    /// `emit_icmp` appends the message instead of zero-filling the frame
    /// first, so a recycled buffer's old contents must not show through.
    #[test]
    fn icmp_into_a_recycled_buffer_carries_no_stale_bytes() {
        use tcpdemux_wire::IcmpRepr;
        let (_, mut client) = pair();
        let ping = IcmpRepr::EchoRequest {
            ident: 7,
            seq: 42,
            payload: &[0x5a; 301],
        }
        .emit();
        let fresh = client.emit_icmp(SERVER, &ping);
        assert!(Ipv4Repr::parse(&Ipv4Packet::new_checked(&fresh[..]).unwrap()).is_ok());
        assert_eq!(fresh[tcpdemux_wire::ipv4::HEADER_LEN..], ping[..]);
        for stale_len in [0, 20, 321, 1500] {
            client.recycle(vec![0xAA; stale_len]);
            assert_eq!(
                client.emit_icmp(SERVER, &ping),
                fresh,
                "{stale_len} stale bytes"
            );
        }
    }

    #[test]
    fn udp_unreachable_sends_icmp_quote() {
        use tcpdemux_wire::IcmpRepr;
        let (mut server, mut client) = pair();
        let sock = client.udp_open(40_000, SERVER, 9).unwrap();
        let datagram = client.udp_send(sock, b"discard-me").unwrap();
        let r = server.receive(&datagram).unwrap();
        assert!(matches!(r.outcome, RxOutcome::UdpUnreachable));
        assert_eq!(r.replies.len(), 1, "port-unreachable must be emitted");

        // The ICMP message quotes the offending packet's header + 8 bytes.
        let icmp_packet = Ipv4Packet::new_checked(&r.replies[0][..]).unwrap();
        assert_eq!(icmp_packet.protocol(), IpProtocol::Icmp);
        match IcmpRepr::parse(icmp_packet.payload()).unwrap() {
            IcmpRepr::DestinationUnreachable { code, original } => {
                assert_eq!(code, tcpdemux_wire::icmp::CODE_PORT_UNREACHABLE);
                assert_eq!(original.len(), 28);
                assert_eq!(original[..20], datagram[..20], "quotes the IP header");
            }
            other => panic!("{other:?}"),
        }
        // The client recognizes the unreachable as ICMP traffic.
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::IcmpProcessed));
    }

    #[test]
    fn corrupt_icmp_rejected() {
        use tcpdemux_wire::IcmpRepr;
        let (mut server, mut client) = pair();
        let ping = IcmpRepr::EchoRequest {
            ident: 1,
            seq: 1,
            payload: b"x",
        }
        .emit();
        let mut frame = client.emit_icmp(SERVER, &ping);
        let last = frame.len() - 1;
        frame[last] ^= 0x10;
        assert_eq!(server.receive(&frame).unwrap_err(), WireError::BadChecksum);
        assert_eq!(server.stats().stack.icmp_in, 0);
    }

    #[test]
    fn arp_request_gets_answered_and_learned() {
        use tcpdemux_wire::{ArpRepr, EtherType, EthernetFrame, EthernetRepr};
        let (mut server, client) = pair();

        // The client broadcasts who-has for the server's address.
        let request = ArpRepr::request(client.mac(), CLIENT, SERVER);
        let bytes = request.emit();
        let mut framed = vec![0u8; 14 + bytes.len().max(46)];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut framed[..]);
            EthernetRepr {
                src_addr: client.mac(),
                dst_addr: tcpdemux_wire::EthernetAddress::BROADCAST,
                ethertype: EtherType::Arp,
            }
            .emit(&mut eth)
            .unwrap();
            eth.payload_mut()[..bytes.len()].copy_from_slice(&bytes);
        }

        let r = server.receive_ethernet(&framed).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ArpReplied));
        assert_eq!(r.replies.len(), 1);

        // The reply is a valid is-at for the server, unicast to the client.
        let reply_frame = EthernetFrame::new_checked(&r.replies[0][..]).unwrap();
        assert_eq!(reply_frame.ethertype(), EtherType::Arp);
        assert_eq!(reply_frame.dst_addr(), client.mac());
        let reply = ArpRepr::parse(&reply_frame.payload()[..28]).unwrap();
        assert_eq!(reply.src_ip, SERVER);
        assert_eq!(reply.src_mac, server.mac());
        assert_eq!(reply.dst_ip, CLIENT);

        // The server learned the requester's mapping as a side effect.
        assert_eq!(server.resolve(CLIENT), client.mac());
    }

    #[test]
    fn arp_for_someone_else_learns_but_does_not_reply() {
        use tcpdemux_wire::{ArpRepr, EtherType, EthernetFrame, EthernetRepr};
        let (mut server, client) = pair();
        let other = Ipv4Addr::new(10, 0, 0, 250);
        let request = ArpRepr::request(client.mac(), CLIENT, other);
        let bytes = request.emit();
        let mut framed = vec![0u8; 14 + 46];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut framed[..]);
            EthernetRepr {
                src_addr: client.mac(),
                dst_addr: tcpdemux_wire::EthernetAddress::BROADCAST,
                ethertype: EtherType::Arp,
            }
            .emit(&mut eth)
            .unwrap();
            eth.payload_mut()[..bytes.len()].copy_from_slice(&bytes);
        }
        let r = server.receive_ethernet(&framed).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ArpProcessed));
        assert!(r.replies.is_empty());
        assert_eq!(server.resolve(CLIENT), client.mac(), "still learned");
    }

    #[test]
    fn neighbor_entries_expire_with_time() {
        use tcpdemux_wire::{ArpRepr, EtherType, EthernetFrame, EthernetRepr};
        let (mut server, client) = pair();
        let request = ArpRepr::request(client.mac(), CLIENT, SERVER);
        let bytes = request.emit();
        let mut framed = vec![0u8; 14 + 46];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut framed[..]);
            EthernetRepr {
                src_addr: client.mac(),
                dst_addr: tcpdemux_wire::EthernetAddress::BROADCAST,
                ethertype: EtherType::Arp,
            }
            .emit(&mut eth)
            .unwrap();
            eth.payload_mut()[..bytes.len()].copy_from_slice(&bytes);
        }
        server.receive_ethernet(&framed).unwrap();
        assert_eq!(server.resolve(CLIENT), client.mac());
        // Past the one-minute lifetime the mapping falls back to the
        // derived MAC (same value here — check via the cache directly).
        server.advance_time(crate::neighbor::DEFAULT_LIFETIME + 1);
        assert_eq!(
            server.resolve(CLIENT),
            tcpdemux_wire::EthernetAddress::from_ipv4(CLIENT),
            "expired: falls back to derived MAC"
        );
    }

    /// Embryonic plus unaccepted connections on the one listener, as
    /// [`Stack::listener_table`] reports them.
    fn pending(server: &Stack) -> usize {
        let [row] = server.listener_table()[..] else {
            panic!("one listener");
        };
        row.pending
    }

    /// Connect `n` clients through full handshakes; returns the clients.
    fn connect_n(server: &mut Stack, n: u16, port: u16) -> Vec<(Stack, PcbId)> {
        (0..n)
            .map(|i| {
                let addr = Ipv4Addr::new(10, 9, (i >> 8) as u8, (i & 0xff) as u8);
                let mut c = Stack::with_config(
                    StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())),
                );
                let (cp, syn) = c.connect(SERVER, port).unwrap();
                let synack = server.receive(&syn).unwrap().replies;
                let ack = c.receive(&synack[0]).unwrap().replies;
                server.receive(&ack[0]).unwrap();
                (c, cp)
            })
            .collect()
    }

    #[test]
    fn accept_queue_dequeues_in_order() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(16))
            .unwrap();
        let _clients = connect_n(&mut server, 3, 80);
        assert_eq!(pending(&server), 3);
        let first = server.accept(80).unwrap();
        let second = server.accept(80).unwrap();
        let third = server.accept(80).unwrap();
        assert!(server.accept(80).is_none());
        // FIFO: the client addresses ascend with connection order.
        let addr = |id: PcbId, s: &Stack| s.connection_key(id).unwrap().remote_addr;
        assert!(addr(first, &server) < addr(second, &server));
        assert!(addr(second, &server) < addr(third, &server));
        assert_eq!(pending(&server), 0);
    }

    #[test]
    fn backlog_full_drops_syn() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(2))
            .unwrap();
        // Two connections fill the backlog (established, unaccepted).
        let _clients = connect_n(&mut server, 2, 80);
        // A third SYN is dropped silently.
        let addr = Ipv4Addr::new(10, 9, 9, 9);
        let mut extra =
            Stack::with_config(StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())));
        let (_cp, syn) = extra.connect(SERVER, 80).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::SynDropped));
        assert!(r.replies.is_empty(), "silent drop, no SYN-ACK, no RST");
        assert_eq!(server.stats().stack.syn_drops, 1);
        assert_eq!(server.connection_count(), 2);

        // Accepting one frees a slot; the retransmitted SYN now succeeds.
        server.accept(80).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NewConnection { .. }));
    }

    #[test]
    fn embryonic_connections_count_against_backlog() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(2))
            .unwrap();
        // Two half-open connections (SYN sent, handshake never finished).
        for i in 0..2u8 {
            let addr = Ipv4Addr::new(10, 9, 0, i);
            let mut c =
                Stack::with_config(StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())));
            let (_cp, syn) = c.connect(SERVER, 80).unwrap();
            let r = server.receive(&syn).unwrap();
            assert!(matches!(r.outcome, RxOutcome::NewConnection { .. }));
        }
        assert_eq!(pending(&server), 2, "two embryos hold the backlog");
        assert!(server.accept(80).is_none(), "nothing established yet");
        // Third SYN: dropped, the backlog is consumed by embryos.
        let addr = Ipv4Addr::new(10, 9, 0, 99);
        let mut c =
            Stack::with_config(StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())));
        let (_cp, syn) = c.connect(SERVER, 80).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::SynDropped));
    }

    #[test]
    fn dying_embryo_releases_backlog_slot() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(1))
            .unwrap();
        let addr = Ipv4Addr::new(10, 9, 0, 1);
        let mut c =
            Stack::with_config(StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())));
        let (cp, syn) = c.connect(SERVER, 80).unwrap();
        server.receive(&syn).unwrap();
        // The client gives up: RST kills the embryo.
        let rst = c.abort(cp).unwrap();
        let r = server.receive(&rst).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetReceived));
        // The slot is free again.
        let addr2 = Ipv4Addr::new(10, 9, 0, 2);
        let mut c2 =
            Stack::with_config(StackConfig::new(addr2).with_demux(|| Box::new(BsdDemux::new())));
        let (_cp2, syn2) = c2.connect(SERVER, 80).unwrap();
        let r = server.receive(&syn2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NewConnection { .. }));
    }

    #[test]
    fn data_before_accept_is_buffered() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(4))
            .unwrap();
        let mut clients = connect_n(&mut server, 1, 80);
        let (client, cp) = &mut clients[0];
        let frame = send_now(client, *cp, b"early data");
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { .. }));
        // The application accepts afterwards and finds the bytes waiting.
        let sp = server.accept(80).unwrap();
        assert_eq!(server.socket_mut(sp).unwrap().read_all(), b"early data");
    }

    #[test]
    fn zero_backlog_rejected() {
        let (mut server, _client) = pair();
        assert!(server
            .listen(ListenConfig::port(80).with_backlog(0))
            .is_err());
    }

    #[test]
    fn introspection_tables_show_listeners_and_connections() {
        let (mut server, mut client) = pair();
        server
            .listen(ListenConfig::port(1521).with_backlog(8))
            .unwrap();
        server.udp_bind(514).unwrap();
        let (_cp, syn) = client.connect(SERVER, 1521).unwrap();
        server.receive(&syn).unwrap();

        let listeners = server.listener_table();
        assert_eq!(listeners.len(), 2);
        let tcp = listeners
            .iter()
            .find(|l| l.protocol == IpProtocol::Tcp)
            .unwrap();
        assert_eq!((tcp.port, tcp.backlog, tcp.pending), (1521, 8, 1));
        assert!(tcp.to_string().contains("LISTEN (backlog 1/8)"));
        let udp = listeners
            .iter()
            .find(|l| l.protocol == IpProtocol::Udp)
            .unwrap();
        assert_eq!(udp.port, 514);
        assert_eq!(udp.shard, ShardId::default());
        assert!(udp.to_string().contains("udp  sh0"), "{udp}");
        assert!(udp.to_string().contains("*:514"), "{udp}");

        let conns = server.connection_table();
        assert_eq!(conns.len(), 1);
        let row = &conns[0];
        assert_eq!(row.state, TcpState::SynReceived);
        assert_eq!(row.key.remote_addr, CLIENT);
        assert_eq!(row.rx_queued, 0);
        // The SYN-ACK sits unacknowledged on the retransmission queue: one
        // zero-payload in-flight segment.
        assert_eq!((row.tx_queued, row.inflight_segments), (0, 1));
        assert_eq!(row.rto_attempts, 0);
        let line = row.to_string();
        assert!(line.contains("SYN-RECEIVED"), "{line}");
        assert!(line.contains("10.0.0.2:"), "{line}");
    }

    #[test]
    fn demux_cost_is_reported_per_frame() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        let frame = send_now(&mut client, cp, b"x");
        let r = server.receive(&frame).unwrap();
        assert!(r.pcbs_examined >= 1);
        assert!(server.stats().stack.pcbs_examined >= 1);
        // The SYN's lookup scanned an empty structure (0 examined), so the
        // mean sits below 1 here; it must still be positive.
        assert!(server.stats().demux.mean_examined() > 0.0);
    }

    #[test]
    fn mean_examined_counts_every_frame_that_paid_a_lookup() {
        // Fill a one-slot backlog, then keep SYNing: every dropped SYN
        // walks the table past the embryonic PCB and counts as neither a
        // hit, a new connection, nor a reset, and so does an RST for an
        // unknown four-tuple. A mean over those three outcomes alone
        // would overstate the cost under exactly this flood.
        let mut server =
            Stack::with_config(StackConfig::new(SERVER).with_demux(|| Box::new(BsdDemux::new())));
        server
            .listen(ListenConfig::port(80).with_backlog(1))
            .unwrap();
        let mut client = Stack::with_config(StackConfig::new(CLIENT));
        let mut frames = 0u64;
        for _ in 0..9 {
            let (_, syn) = client.connect(SERVER, 80).unwrap();
            let r = server.receive(&syn).unwrap();
            frames += 1;
            if frames > 1 {
                assert!(matches!(r.outcome, RxOutcome::SynDropped));
                assert_eq!(r.pcbs_examined, 1);
            }
        }
        let (ghost, _) = client.connect(SERVER, 81).unwrap();
        let rst = client.abort(ghost).unwrap();
        assert!(server.receive(&rst).unwrap().replies.is_empty());
        frames += 1;

        let snap = server.stats();
        let counted = snap.stack.demux_hits + snap.stack.listener_hits + snap.stack.resets_sent;
        assert_eq!((snap.stack.syn_drops, counted), (8, 1));
        assert_eq!(snap.demux.lookups, frames);
        assert_eq!(snap.demux.pcbs_examined, snap.stack.pcbs_examined);
        assert_eq!(snap.demux.mean_examined(), 9.0 / 10.0);
    }

    #[test]
    fn config_builders_cover_every_field() {
        let cfg = StackConfig::new(CLIENT)
            .with_window(WindowConfig::default().with_advertise(1024))
            .with_mss(536)
            .with_ephemeral_base(55_555)
            .with_time_wait(7);
        assert_eq!(cfg.local_addr, CLIENT);
        assert_eq!(cfg.window.advertise, 1024);
        assert_eq!(cfg.mss, 536);
        assert_eq!(cfg.ephemeral_base, 55_555);
        assert_eq!(cfg.time_wait_ticks, Some(7));

        // Behavioral: the first active open draws the configured base.
        let mut client = Stack::with_config(
            StackConfig::new(CLIENT)
                .with_ephemeral_base(55_555)
                .with_demux(|| Box::new(BsdDemux::new())),
        );
        let (cp, _syn) = client.connect(SERVER, 80).unwrap();
        assert_eq!(client.connection_key(cp).unwrap().local_port, 55_555);
    }

    /// The payload sizes of the frames one poll puts on the wire.
    fn polled_sizes(stack: &mut Stack) -> Vec<usize> {
        let mut scratch = TxScratch::new();
        stack.poll_transmit(&mut scratch);
        scratch
            .frames
            .iter()
            .map(|frame| {
                let packet = Ipv4Packet::new_checked(&frame[..]).unwrap();
                TcpSegment::new_checked(packet.payload())
                    .unwrap()
                    .payload()
                    .len()
            })
            .collect()
    }

    /// A server whose own MSS is 1,460 answers a client that offered 536
    /// with segments no larger than 536: the connection's negotiated MSS,
    /// not the configured one, sizes what it sends. An active opener
    /// whose SYN-ACK carries no MSS option falls back to RFC 1122's 536.
    #[test]
    fn segments_honour_the_peer_offered_mss() {
        let (mut server, _) = pair();
        let mut client = Stack::with_config(
            StackConfig::new(CLIENT)
                .with_mss(536)
                .with_demux(|| Box::new(BsdDemux::new())),
        );
        let (_cp, sp) = handshake(&mut server, &mut client, 80);
        assert_eq!(server.conns.get(sp).unwrap().pcb.mss, 536);

        let payload = [7u8; 4000];
        assert_eq!(server.send(sp, &payload).unwrap(), payload.len());
        let sizes = polled_sizes(&mut server);
        assert_eq!(sizes.iter().sum::<usize>(), payload.len(), "{sizes:?}");
        assert!(sizes.iter().all(|&len| len <= 536), "{sizes:?}");

        // The SYN-ACK, with its MSS option taken out.
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (cp, syn) = client.connect(SERVER, 80).unwrap();
        let synack = server.receive(&syn).unwrap().replies[0].clone();
        let bare = TcpRepr {
            mss: None,
            ..header_of(&synack)
        };
        let ip = Ipv4Repr::new(SERVER, CLIENT, IpProtocol::Tcp);
        let mut frame = Vec::new();
        build_tcp_frame_into(&ip, &bare, &b""[..], &mut frame);
        let r = client.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Established { .. }));
        assert_eq!(client.conns.get(cp).unwrap().pcb.mss, Pcb::DEFAULT_MSS);
        assert_eq!(client.send(cp, &payload).unwrap(), payload.len());
        let sizes = polled_sizes(&mut client);
        assert!(!sizes.is_empty());
        assert!(sizes.iter().all(|&len| len <= 536), "{sizes:?}");
    }

    /// Covers the frame buffers only: it reads the [`TxPool`] counters,
    /// so it shows that every emitted frame reuses a recycled buffer and
    /// that a data segment draws exactly one. It cannot see an
    /// allocation made anywhere else on the path (the reply container
    /// and the in-flight queue each used to cost one per transaction
    /// while this test passed); `tests/steady_state_allocs.rs` counts
    /// allocator calls and covers those.
    #[test]
    fn transmit_is_allocation_free_after_warmup() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 1521);

        let exchange = |server: &mut Stack, client: &mut Stack, n: usize| {
            for i in 0..n {
                let frame = send_now(client, cp, format!("item {i}").as_bytes());
                let r = server.receive(&frame).unwrap();
                client.recycle(frame);
                for reply in r.replies {
                    let _ = client.receive(&reply).unwrap();
                    server.recycle(reply);
                }
            }
        };

        exchange(&mut server, &mut client, 4); // warm-up
        let client_base = client.stats().tx_pool.allocations;
        let client_takes = client_base + client.stats().tx_pool.reuses;
        let server_base = server.stats().tx_pool.allocations;
        exchange(&mut server, &mut client, 100);
        assert_eq!(
            client.stats().tx_pool.allocations,
            client_base,
            "client data frames reuse recycled buffers"
        );
        assert_eq!(
            client.stats().tx_pool.allocations + client.stats().tx_pool.reuses - client_takes,
            100,
            "one pool buffer per data segment: the frame, and no payload copy beside it"
        );
        assert_eq!(
            server.stats().tx_pool.allocations,
            server_base,
            "server ACKs reuse recycled buffers"
        );
        assert!(client.stats().tx_pool.reuses >= 100);
        assert!(server.stats().tx_pool.reuses >= 100);
    }

    /// A windowed pair: the client's send buffer holds `send_buffer`
    /// bytes and neither cwnd nor the peer's window limits a short burst.
    fn windowed_pair(send_buffer: usize) -> (Stack, Stack) {
        let window = WindowConfig::default()
            .with_advertise(32_000)
            .with_initial_cwnd(16 * 1460)
            .with_send_buffer(send_buffer);
        (
            Stack::with_config(StackConfig::new(SERVER).with_window(window.clone())),
            Stack::with_config(StackConfig::new(CLIENT).with_window(window)),
        )
    }

    /// `stack` acknowledges `frame`; returns the ACK.
    fn ack_of(stack: &mut Stack, frame: &[u8]) -> Vec<u8> {
        let replies = stack.receive(frame).unwrap().replies;
        assert_eq!(replies.len(), 1, "one ACK per segment");
        replies.into_iter().next().unwrap()
    }

    #[test]
    fn unacknowledged_bytes_count_against_the_send_buffer_cap() {
        let (mut server, mut client) = windowed_pair(2048);
        let (cp, _sp) = handshake(&mut server, &mut client, 80);

        assert_eq!(
            client.send(cp, &[7; 3000]).unwrap(),
            2048,
            "filled to the cap"
        );
        let mut scratch = TxScratch::new();
        assert_eq!(client.poll_transmit(&mut scratch), 2);
        assert_eq!(client.send_queued(cp), 0, "everything is on the wire");
        assert_eq!(client.connection_table()[0].tx_queued, 2048);
        // Sent is not gone: until the peer acknowledges them the bytes
        // occupy the buffer, and the application is held back.
        assert_eq!(client.send(cp, &[8; 100]).unwrap(), 0);

        let ack = ack_of(&mut server, &scratch.frames[0]);
        client.receive(&ack).unwrap();
        assert_eq!(client.connection_table()[0].tx_queued, 2048 - 1460);
        assert_eq!(
            client.send(cp, &[8; 3000]).unwrap(),
            1460,
            "the acknowledged segment's room, no more"
        );
        assert_eq!(client.send_queued(cp), 1460);
    }

    #[test]
    fn retransmissions_find_their_bytes_after_a_top_up_wraps() {
        let (mut server, mut client) = windowed_pair(8 * 1460);
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let stream: Vec<u8> = (0..7 * 1460u32).map(|i| (i % 251) as u8).collect();
        let mut scratch = TxScratch::new();

        // Four segments out, in a ring of exactly their size; the first
        // three are acknowledged, so the top-up below wraps around to
        // the front of the storage, behind the fourth.
        assert_eq!(client.send(cp, &stream[..4 * 1460]).unwrap(), 4 * 1460);
        assert_eq!(client.poll_transmit(&mut scratch), 4);
        let fourth = scratch.frames[3].clone();
        for frame in &scratch.frames[..3] {
            let ack = ack_of(&mut server, frame);
            client.receive(&ack).unwrap();
        }
        // Top up behind it and send that too; the fourth is "lost".
        assert_eq!(client.send(cp, &stream[4 * 1460..]).unwrap(), 3 * 1460);
        assert_eq!(client.poll_transmit(&mut scratch), 3);
        assert_eq!(client.connection_table()[0].tx_queued, 4 * 1460);

        // Three duplicate ACKs — the receiver keeps what they answer —
        // and fast retransmit re-emits the fourth.
        let mut fast = Vec::new();
        for frame in &scratch.frames {
            let dup = ack_of(&mut server, frame);
            fast.extend(client.receive(&dup).unwrap().replies);
        }
        assert_eq!(fast, [&fourth[..]], "same bytes as the first time");
        let held = server.connection_table()[0];
        assert_eq!((held.rx_staged, held.rx_holes), (3 * 1460, 1));

        // That one is lost as well: the RTO re-emits it again.
        let due = client.next_timer_deadline().expect("RTO armed");
        let fired = client.advance_time(due);
        assert_eq!(fired.retransmits, [&fourth[..]]);

        // Delivered at last, it fills the hole: one ACK covers all seven
        // segments, and the three sent after the lost one, which the
        // receiver held, are not sent again.
        let r = server.receive(&fourth).unwrap();
        assert_eq!(
            r.outcome,
            RxOutcome::Delivered {
                pcb: sp,
                bytes: 4 * 1460
            }
        );
        assert!(client.receive(&r.replies[0]).unwrap().replies.is_empty());
        assert_eq!(client.connection_table()[0].tx_queued, 0);
        assert_eq!(client.poll_transmit(&mut scratch), 0, "nothing is resent");
        let held = server.connection_table()[0];
        assert_eq!(
            (held.rx_queued, held.rx_staged, held.rx_holes),
            (7 * 1460, 0, 0)
        );
        assert_eq!(server.socket_mut(sp).unwrap().read_all(), stream);
    }

    /// A sender half goes back to the idle list with its ring's storage
    /// only if that is no larger than a receive buffer, the bound parked
    /// receive blocks have; a larger ring is freed. The peer's window is
    /// the widest a segment can advertise, so twice it lets a ring pass
    /// the receive buffer; each write is still fed in top-ups, as the
    /// window-sized limit may take less than the whole write.
    #[test]
    fn parked_send_rings_are_bounded_like_parked_receive_blocks() {
        let window = WindowConfig::default()
            .with_advertise(u16::MAX)
            .with_initial_cwnd(16 * 1460)
            .with_send_buffer(256 * 1024);
        let mut server = Stack::with_config(StackConfig::new(SERVER).with_window(window.clone()));
        let mut client = Stack::with_config(StackConfig::new(CLIENT).with_window(window));
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let recv_buffer = client.config.window.recv_buffer;
        for (len, parked) in [
            (3000, 3000),
            (recv_buffer + 1, 0),
            (recv_buffer, recv_buffer),
        ] {
            let mut left = len;
            let mut scratch = TxScratch::new();
            while left > 0 || client.conns.get(cp).unwrap().tx.is_some() {
                left -= client.send(cp, &vec![9; left]).unwrap();
                client.poll_transmit(&mut scratch);
                for frame in scratch.frames.drain(..) {
                    for ack in server.receive(&frame).unwrap().replies {
                        client.receive(&ack).unwrap();
                    }
                }
                server.socket_mut(sp).unwrap().read_all();
            }
            let half = client.idle_halves.last().expect("the half is parked");
            assert_eq!(half.buf.capacity(), parked, "after {len} B");
        }
    }

    /// Whether the client's in-flight segment starting at `seq` sits
    /// across its send ring's wrap point.
    fn straddles_the_wrap(client: &Stack, pcb: PcbId, seq: u32) -> bool {
        let half = client.conns.get(pcb).and_then(|c| c.tx.as_deref());
        let Some(half) = half else { return false };
        let mut offset = 0;
        for seg in &half.segments {
            let len = seg.len as usize;
            if seg.seq.raw() == seq {
                let [front, back] = half.buf.peek(offset..offset + len);
                return !front.is_empty() && !back.is_empty();
            }
            offset += len;
        }
        false
    }

    /// 40 segments from client to server through a send buffer the
    /// application keeps topped up to `IN_FLIGHT` bytes in `CHUNK`s after
    /// every ACK, with the data
    /// frame numbered `drop` lost (or, when `None`, the first one framed
    /// across the ring's wrap). With `unwrapped` the client's send ring
    /// is primed to hold the whole stream without wrapping. Returns every
    /// frame either side emitted, the number of the one dropped, and how
    /// many data frames were framed across the wrap.
    fn ring_transfer(unwrapped: bool, drop: Option<usize>) -> (Vec<Vec<u8>>, usize, usize) {
        // None is a multiple of the MSS, and the peer's window is smaller
        // than the buffer, so unsent bytes wait in the ring and segment
        // edges drift around it.
        const IN_FLIGHT: usize = 5 * 1460 + 700;
        const CHUNK: usize = 1000;
        const PEER_WINDOW: u16 = 3 * 1460 + 500;
        let stream: Vec<u8> = (0..40 * 1460u32).map(|i| (i % 253) as u8).collect();
        let window = |send_buffer, recv_buffer| {
            WindowConfig::default()
                .with_advertise(PEER_WINDOW)
                .with_initial_cwnd(16 * 1460)
                .with_send_buffer(send_buffer)
                .with_recv_buffer(recv_buffer)
        };
        let recv_buffer = WindowConfig::default().recv_buffer;
        let mut server = Stack::with_config(
            StackConfig::new(SERVER).with_window(window(IN_FLIGHT, recv_buffer)),
        );
        let mut client = if unwrapped {
            // A ring with room for the whole stream, parked where the
            // connection will find it; a receive buffer as large lets it
            // stay parked between flights.
            let big = 2 * stream.len();
            let mut client =
                Stack::with_config(StackConfig::new(CLIENT).with_window(window(big, big)));
            let mut buf = SendBuffer::new(big);
            buf.push(&stream);
            buf.consume(stream.len());
            client.idle_halves.push(Box::new(SendHalf {
                buf,
                segments: VecDeque::new(),
                timer: None,
            }));
            client
        } else {
            Stack::with_config(StackConfig::new(CLIENT).with_window(window(IN_FLIGHT, recv_buffer)))
        };
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let (mut log, mut dropped, mut straddling) = (Vec::new(), drop, 0);
        let (mut sent, mut received, mut data_frames) = (0, Vec::new(), 0);
        let mut scratch = TxScratch::new();
        let mut to_client: Vec<Vec<u8>> = Vec::new();
        while received.len() < stream.len() {
            // Each ACK is answered by topping the buffer up and polling,
            // so new bytes land behind unacknowledged ones.
            let mut to_server = Vec::new();
            for frame in std::iter::once(None).chain(to_client.drain(..).map(Some)) {
                if let Some(ack) = frame {
                    let replies = client.receive(&ack).unwrap().replies.into_iter();
                    to_server.extend(replies.map(|frame| (false, frame)));
                }
                loop {
                    let queued = client.connection_table()[0].tx_queued + client.send_queued(cp);
                    let offer = (IN_FLIGHT - queued).min(stream.len() - sent).min(CHUNK);
                    if offer == 0 {
                        break;
                    }
                    sent += client.send(cp, &stream[sent..sent + offer]).unwrap();
                }
                client.poll_transmit(&mut scratch);
                for frame in scratch.frames.drain(..) {
                    let seq = header_of(&frame).seq;
                    to_server.push((straddles_the_wrap(&client, cp, seq), frame));
                }
            }
            if to_server.is_empty() {
                let due = client.next_timer_deadline().expect("a lost segment's RTO");
                let retransmits = client.advance_time(due).retransmits.into_iter();
                to_server.extend(retransmits.map(|frame| (false, frame)));
            }
            for (across, frame) in to_server {
                log.push(frame.clone());
                if frame.len() > 40 {
                    data_frames += 1;
                    if across {
                        straddling += 1;
                        dropped.get_or_insert(data_frames);
                    }
                    if dropped == Some(data_frames) {
                        continue;
                    }
                }
                let replies = server.receive(&frame).unwrap().replies;
                log.extend(replies.iter().cloned());
                to_client.extend(replies);
            }
            received.extend(server.socket_mut(sp).unwrap().read_all());
        }
        // Everything arrived, so the dropped frame was sent again.
        assert_eq!(received, stream);
        (log, dropped.expect("a frame was dropped"), straddling)
    }

    /// A segment framed across the send ring's wrap point — sent, lost,
    /// and rebuilt from the front of the ring — is the frame a send
    /// buffer that never wraps puts on the wire, byte for byte.
    #[test]
    fn segments_across_the_ring_wrap_frame_as_if_it_never_wrapped() {
        let (wrapped, drop, straddling) = ring_transfer(false, None);
        assert!(straddling >= 5, "{straddling} segments across the wrap");
        let (unwrapped, same_drop, none) = ring_transfer(true, Some(drop));
        assert_eq!((same_drop, none), (drop, 0));
        assert_eq!(wrapped.len(), unwrapped.len());
        for (n, (a, b)) in wrapped.iter().zip(&unwrapped).enumerate() {
            assert_eq!(a, b, "frame {n}");
        }
    }

    /// A forged RST has to land inside the receive window to count; the
    /// four-tuple alone is not enough.
    #[test]
    fn an_rst_outside_the_window_is_discarded() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let first = send_now(&mut client, cp, b"before");
        let ack = header_of(&ack_of(&mut server, &first));
        let rst = |client: &mut Stack, seq: u32| {
            let key = client.connection_key(cp).unwrap();
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq,
                flags: TcpFlags::RST,
                ..TcpRepr::default()
            };
            client.emit_tcp(&key, &repr, b"")
        };
        // One below RCV.NXT, and one past the right edge.
        let right_edge = ack.ack.wrapping_add(u32::from(ack.window));
        for seq in [ack.ack.wrapping_sub(1), right_edge] {
            let frame = rst(&mut client, seq);
            let r = server.receive(&frame).unwrap();
            assert_eq!(r.outcome, RxOutcome::Duplicate { pcb: sp }, "seq {seq}");
            assert!(r.replies.is_empty());
            assert!(server.is_established(sp));
        }
        assert_eq!(server.stats().stack.out_of_order_drops, 2);
        // The connection is untouched: its next segment is delivered.
        let next = send_now(&mut client, cp, b"after");
        let r = server.receive(&next).unwrap();
        assert_eq!(r.outcome, RxOutcome::Delivered { pcb: sp, bytes: 5 });
        assert_eq!(server.socket_mut(sp).unwrap().read_all(), b"beforeafter");
        // The last sequence number inside the window still resets it.
        let frame = rst(&mut client, right_edge.wrapping_sub(1));
        let r = server.receive(&frame).unwrap();
        assert_eq!(r.outcome, RxOutcome::ResetReceived);
        assert_eq!(server.connection_count(), 0);
    }

    /// In SYN-SENT there is no window yet: an RST counts only if it
    /// acknowledges the SYN.
    #[test]
    fn an_rst_in_syn_sent_must_acknowledge_the_syn() {
        let (_, mut client) = pair();
        let (cp, syn) = client.connect(SERVER, 80).unwrap();
        let key = client.connection_key(cp).unwrap().reversed();
        let syn_seq = header_of(&syn).seq;
        let mut rst = |ack: u32| {
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                ack,
                flags: TcpFlags::RST | TcpFlags::ACK,
                ..TcpRepr::default()
            };
            let frame = client.emit_tcp(&key, &repr, b"");
            client.receive(&frame).unwrap().outcome
        };
        assert_eq!(rst(syn_seq), RxOutcome::Duplicate { pcb: cp });
        assert_eq!(
            rst(syn_seq.wrapping_add(2)),
            RxOutcome::Duplicate { pcb: cp }
        );
        assert_eq!(rst(syn_seq.wrapping_add(1)), RxOutcome::ResetReceived);
    }

    /// A SYN, a SYN-ACK and a simultaneous open's crossing SYNs offer what
    /// the receive buffer holds, not the configured ceiling: a peer told
    /// 8,760 B would send bytes a 1,000 B buffer has to trim, and only
    /// its retransmission timer would resend them.
    #[test]
    fn the_handshake_offers_no_more_window_than_the_receive_buffer_holds() {
        let small = |addr| {
            let window = WindowConfig::default().with_recv_buffer(1000);
            Stack::with_config(StackConfig::new(addr).with_window(window))
        };
        let (mut server, mut client) = (small(SERVER), small(CLIENT));
        let rcv_wnd = |stack: &Stack, pcb| stack.conns.get(pcb).unwrap().pcb.rcv.wnd;
        server.listen(80).unwrap();
        let (cp, syn) = client.connect(SERVER, 80).unwrap();
        assert_eq!(header_of(&syn).window, 1000);
        let r = server.receive(&syn).unwrap();
        let RxOutcome::NewConnection { pcb: sp } = r.outcome else {
            panic!("{:?}", r.outcome);
        };
        assert_eq!(header_of(&r.replies[0]).window, 1000);
        assert_eq!(rcv_wnd(&server, sp), 1000);
        let r = client.receive(&r.replies[0]).unwrap();
        assert_eq!(rcv_wnd(&client, cp), 1000);
        server.receive(&r.replies[0]).unwrap();

        // The peer sends only what the window offered.
        client.send(cp, &[1; 4000]).unwrap();
        assert_eq!(polled_sizes(&mut client), [1000]);

        // Crossing SYNs: each side learns the other's window and offers
        // its own.
        let (a, syn_a) = client.connect_from(5000, SERVER, 5001).unwrap();
        let (b, syn_b) = server.connect_from(5001, CLIENT, 5000).unwrap();
        let r = client.receive(&syn_b).unwrap();
        assert_eq!(r.outcome, RxOutcome::NewConnection { pcb: a });
        assert_eq!(header_of(&r.replies[0]).window, 1000);
        assert_eq!(rcv_wnd(&client, a), 1000);
        server.receive(&syn_a).unwrap();
        assert_eq!(server.conns.get(b).unwrap().pcb.snd.wnd, 1000);
    }

    /// With ACKs delayed the window last advertised can promise more than
    /// the receive buffer has left; the buffer's bound is the one that holds.
    #[test]
    fn a_delayed_ack_does_not_let_the_receive_buffer_overfill() {
        let window = WindowConfig::default()
            .with_advertise(2000)
            .with_recv_buffer(2000)
            .with_delayed_ack(10)
            .with_ack_every(4);
        let mut server = Stack::with_config(StackConfig::new(SERVER).with_window(window));
        let (_, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let first = send_now(&mut client, cp, &[7; 1460]);
        let r = server.receive(&first).unwrap();
        assert_eq!(
            r.outcome,
            RxOutcome::Delivered {
                pcb: sp,
                bytes: 1460
            }
        );
        assert!(r.replies.is_empty(), "the ACK is owed, not sent");
        // The window that went out still says 2000 B from the new
        // RCV.NXT; the buffer has 540 B left, and a peer that sends on
        // the former is held to the latter.
        let key = client.connection_key(cp).unwrap();
        let repr = TcpRepr {
            seq: header_of(&first).seq.wrapping_add(1460),
            ..header_of(&first)
        };
        let second = client.emit_tcp(&key, &repr, &[8; 1000]);
        let r = server.receive(&second).unwrap();
        assert_eq!(
            r.outcome,
            RxOutcome::Delivered {
                pcb: sp,
                bytes: 540
            }
        );
        assert_eq!(server.connection_table()[0].rx_queued, 2000);
    }

    /// The receive path against the edges of the window: what straddles
    /// one is trimmed, what lies outside is discarded, what is ahead of
    /// RCV.NXT is held — and a connection with no hole holds nothing.
    #[test]
    fn segments_are_trimmed_to_the_window_and_held_behind_holes() {
        let window = WindowConfig::default().with_advertise(1000);
        let mut server = Stack::with_config(StackConfig::new(SERVER).with_window(window));
        let (_, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let key = client.connection_key(cp).unwrap();
        let stream: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let base = header_of(&send_now(&mut client, cp, &stream[..100])).seq;
        // Offer `stream[from..to]` (and a FIN, if asked) as one segment.
        let mut offer = |server: &mut Stack, from: usize, to: usize, fin: bool| {
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: base.wrapping_add(from as u32),
                ack: 0,
                flags: if fin { TcpFlags::FIN } else { TcpFlags::PSH },
                window: 1000,
                ..TcpRepr::default()
            };
            let frame = client.emit_tcp(&key, &repr, &stream[from..to]);
            let r = server.receive(&frame).unwrap();
            let row = server.connection_table()[0];
            let acked = r
                .replies
                .iter()
                .next()
                .map(|f| header_of(f).ack.wrapping_sub(base));
            (r.outcome, acked, row.rx_queued, row.rx_staged, row.rx_holes)
        };
        let delivered = |bytes| RxOutcome::Delivered { pcb: sp, bytes };
        let duplicate = RxOutcome::Duplicate { pcb: sp };

        assert_eq!(
            offer(&mut server, 0, 100, false),
            (delivered(100), Some(100), 100, 0, 0)
        );
        // Ahead of RCV.NXT: held, and acknowledged with a duplicate ACK.
        assert_eq!(
            offer(&mut server, 300, 400, false),
            (duplicate, Some(100), 100, 100, 1)
        );
        // Running past the right edge (100 + 1000): cut off there.
        assert_eq!(
            offer(&mut server, 1000, 1300, false),
            (duplicate, Some(100), 100, 200, 2)
        );
        // Wholly past it, wholly before RCV.NXT, a FIN ahead of a hole:
        // discarded, each with an ACK that says where the receiver is.
        assert_eq!(
            offer(&mut server, 1100, 1200, false),
            (duplicate, Some(100), 100, 200, 2)
        );
        assert_eq!(
            offer(&mut server, 0, 100, false),
            (duplicate, Some(100), 100, 200, 2)
        );
        assert_eq!(
            offer(&mut server, 400, 400, true),
            (duplicate, Some(100), 100, 200, 2)
        );
        let stats = server.stats().stack;
        assert_eq!(
            (stats.out_of_order_queued, stats.out_of_order_drops),
            (2, 3)
        );
        // Straddling RCV.NXT: the stale half is cut off, the fresh half
        // fills the hole and takes the span behind it along.
        assert_eq!(
            offer(&mut server, 50, 300, false),
            (delivered(300), Some(400), 400, 100, 1)
        );
        // The rest, FIN and all, in one oversized segment: delivered up
        // to the new right edge (400 + 1000), where the FIN is not yet.
        assert_eq!(
            offer(&mut server, 400, 3000, true),
            (delivered(1000), Some(1400), 1400, 0, 0)
        );
        assert_eq!(server.socket_mut(sp).unwrap().read_all(), &stream[..1400]);
        assert_eq!(
            offer(&mut server, 1400, 1500, true),
            (RxOutcome::PeerClosed { pcb: sp }, Some(1501), 100, 0, 0)
        );
    }

    #[test]
    fn advance_time_rejects_backwards_time_before_mutating() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let (mut server, mut client) = pair_with_time_wait(100);
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        // Park the client in TIME-WAIT with a timer due at tick 100.
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::TimeWait { .. }));

        client.advance_time(50);
        let err = catch_unwind(AssertUnwindSafe(|| client.advance_time(49))).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("time went backwards"), "{msg}");
        // The failed call must not have moved the clock or eaten timers:
        // the TIME-WAIT connection still expires exactly on schedule.
        assert_eq!(client.advance_time(99).reclaimed, 0);
        assert_eq!(client.connection_count(), 1);
        assert_eq!(client.advance_time(100).reclaimed, 1);
        assert_eq!(client.connection_count(), 0);
    }

    #[test]
    fn rto_retransmits_lost_data_until_acked() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        assert_eq!(client.next_timer_deadline(), None, "nothing in flight");

        // The frame is "lost": never delivered. One clean RTT sample
        // (the SYN) exists, so the RTO sits at the 200 ms floor.
        let _lost = send_now(&mut client, cp, b"pay me no mind");
        let due = client.next_timer_deadline().expect("RTO armed");
        assert_eq!(due, 200);

        // Nothing fires early.
        let quiet = client.advance_time(due - 1);
        assert!(quiet.retransmits.is_empty() && quiet.aborted.is_empty());

        let fired = client.advance_time(due);
        assert_eq!(fired.retransmits.len(), 1, "the queued segment re-emits");
        assert_eq!(client.stats().stack.retransmits, 1);

        // The retransmission delivers; the ACK retires the segment.
        let r = server.receive(&fired.retransmits[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 14, .. }));
        assert_eq!(server.socket_mut(sp).unwrap().read_all(), b"pay me no mind");
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert_eq!(client.next_timer_deadline(), None, "queue drained");
    }

    #[test]
    fn karn_rule_skips_samples_from_retransmitted_segments() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        // One clean sample from the SYN→SYN-ACK round trip.
        assert_eq!(client.rtt_estimator(cp).unwrap().samples(), 1);
        assert_eq!(client.stats().stack.rtt_samples, 1);

        // Lose the original, deliver the retransmission, ACK it: the
        // sample count must not move — the ACK is ambiguous.
        let _lost = send_now(&mut client, cp, b"ambiguous");
        let due = client.next_timer_deadline().unwrap();
        let fired = client.advance_time(due);
        let r = server.receive(&fired.retransmits[0]).unwrap();
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert_eq!(client.rtt_estimator(cp).unwrap().samples(), 1);
        assert_eq!(client.stats().stack.rtt_samples, 1);

        // A later clean exchange samples again.
        let frame = send_now(&mut client, cp, b"clean");
        let r = server.receive(&frame).unwrap();
        client.receive(&r.replies[0]).unwrap();
        assert_eq!(client.rtt_estimator(cp).unwrap().samples(), 2);
    }

    #[test]
    fn an_ack_that_fills_a_hole_takes_no_rtt_sample() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        assert_eq!(client.rtt_estimator(cp).unwrap().samples(), 1);

        // The first of three segments is lost; the other two wait in the
        // server's reassembly queue, and their duplicate ACKs come back.
        let _lost = send_now(&mut client, cp, b"first");
        let held = [b"second" as &[u8], b"third"].map(|p| send_now(&mut client, cp, p));
        for frame in held {
            let r = server.receive(&frame).unwrap();
            client.receive(&r.replies[0]).unwrap();
        }

        // The RTO resends the first, and its ACK covers all three. The two
        // clean segments spent the RTO in the queue, not on the path.
        let fired = client.advance_time(client.next_timer_deadline().unwrap());
        let r = server.receive(&fired.retransmits[0]).unwrap();
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert_eq!(client.send_queued(cp), 0);
        assert_eq!(client.next_timer_deadline(), None, "all three acknowledged");
        assert_eq!(client.rtt_estimator(cp).unwrap().samples(), 1);
        assert_eq!(client.stats().stack.rtt_samples, 1);
    }

    #[test]
    fn an_ack_covering_clean_segments_samples_once_from_the_oldest() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        let mut expected = client.rtt_estimator(cp).unwrap();

        // Two segments five ticks apart; the first one's ACK is lost, so
        // the second's covers both at tick 10.
        let first = send_now(&mut client, cp, b"older");
        client.advance_time(5);
        let second = send_now(&mut client, cp, b"newer");
        server.receive(&first).unwrap();
        let r = server.receive(&second).unwrap();
        client.advance_time(10);
        client.receive(&r.replies[0]).unwrap();

        expected.record(10 * US_PER_TICK);
        let rtt = client.rtt_estimator(cp).unwrap();
        assert_eq!(rtt.samples(), expected.samples());
        assert_eq!(
            (rtt.srtt(), rtt.rttvar()),
            (expected.srtt(), expected.rttvar())
        );
        assert_eq!(client.stats().stack.rtt_samples, 2);
    }

    #[test]
    fn rto_backoff_doubles_then_exhaustion_aborts_with_socket_error() {
        let (mut server, client) = pair();
        let config = client.config.clone();
        drop(client);
        let mut client = Stack::with_config(
            config
                .with_max_retries(3)
                .with_demux(|| Box::new(BsdDemux::new())),
        );
        let (cp, _sp) = handshake(&mut server, &mut client, 80);

        // Deliver one byte so the socket has residual data, then go
        // silent: the peer never sees anything again.
        let frame = send_now(&mut server, _sp, b"!");
        let r = client.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 1, .. }));

        let _lost = send_now(&mut client, cp, b"into the void");
        let mut deadlines = Vec::new();
        let aborted = loop {
            let due = client.next_timer_deadline().expect("timer stays armed");
            deadlines.push(due);
            let fired = client.advance_time(due);
            if !fired.aborted.is_empty() {
                assert!(fired.retransmits.is_empty(), "abort sends nothing");
                break fired.aborted;
            }
            assert_eq!(fired.retransmits.len(), 1);
        };

        // max_retries(3) means 3 retransmissions, then the fourth expiry
        // aborts; the intervals double: 200, 400, 800, then 1600 to the
        // aborting expiry.
        assert_eq!(client.stats().stack.retransmits, 3);
        assert_eq!(client.stats().stack.timeout_aborts, 1);
        let gaps: Vec<u64> = std::iter::once(deadlines[0])
            .chain(deadlines.windows(2).map(|w| w[1] - w[0]))
            .collect();
        assert_eq!(gaps, vec![200, 400, 800, 1600]);

        // The connection is gone and the error is surfaced.
        assert_eq!(aborted, vec![cp]);
        assert_eq!(client.connection_count(), 0);
        assert_eq!(client.state(cp), None);
        assert_eq!(
            client.socket(cp).unwrap().error(),
            Some(SocketError::TimedOut)
        );
        assert_eq!(client.send(cp, b"x"), Err(StackError::NoSuchConnection));
        // The application reaps the dead socket, residual data intact.
        let mut sock = client.release_socket(cp).expect("socket released");
        assert_eq!(sock.error(), Some(SocketError::TimedOut));
        assert_eq!(sock.read_all(), b"!");
        assert!(client.socket(cp).is_none());
    }

    #[test]
    fn telemetry_records_lifecycle_and_loss_recovery() {
        use tcpdemux_telemetry::{CounterId, Event};

        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);

        // Handshake: each side opened one connection, and every received
        // segment went through exactly one recorded demux lookup.
        let ct = client.stats().telemetry;
        let st = server.stats().telemetry;
        assert_eq!(ct.counter(CounterId::ConnOpened), 1);
        assert_eq!(st.counter(CounterId::ConnOpened), 1);
        assert_eq!(ct.counter(CounterId::Lookups), 1, "SYN-ACK");
        assert_eq!(st.counter(CounterId::Lookups), 2, "SYN + handshake ACK");
        assert_eq!(
            st.counter(CounterId::PcbsExamined),
            server.stats().stack.pcbs_examined,
            "telemetry and legacy counters agree on the paper's cost metric"
        );

        // Loss recovery: a lost segment retransmits once with backoff.
        let _lost = send_now(&mut client, cp, b"gone");
        let due = client.next_timer_deadline().unwrap();
        let fired = client.advance_time(due);
        let r = server.receive(&fired.retransmits[0]).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let ct = client.stats().telemetry;
        assert_eq!(ct.counter(CounterId::Retransmits), 1);
        assert_eq!(ct.counter(CounterId::RtoBackoffs), 1);
        assert!(
            ct.events()
                .iter()
                .any(|e| matches!(e.event, Event::Retransmit { attempt: 1 })),
            "retransmit event traced"
        );
        assert!(ct
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::RtoBackoff { attempts: 1, .. })));

        // Graceful close: both sides record a Graceful ConnClose.
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(r.replies.is_empty());
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        server.receive(&r.replies[0]).unwrap();
        for stack in [&client, &server] {
            let t = stack.stats().telemetry;
            assert_eq!(t.counter(CounterId::ConnClosed), 1);
            assert_eq!(t.counter(CounterId::ConnAborted), 0);
            assert!(t.events().iter().any(|e| matches!(
                e.event,
                Event::ConnClose {
                    cause: tcpdemux_telemetry::CloseCause::Graceful
                }
            )));
        }

        // The event trace and the counters never drift: replaying the
        // trace's lookup events reproduces the lookup counter.
        let traced_lookups = ct
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::DemuxHit { .. } | Event::DemuxMiss { .. }))
            .count() as u64;
        assert_eq!(ct.events_dropped(), 0);
        assert_eq!(traced_lookups, ct.counter(CounterId::Lookups));
    }

    #[test]
    fn telemetry_records_timeout_abort_cause() {
        use tcpdemux_telemetry::{CloseCause, CounterId, Event};

        let (mut server, client) = pair();
        let config = client.config.clone();
        drop(client);
        let mut client = Stack::with_config(
            config
                .with_max_retries(1)
                .with_demux(|| Box::new(BsdDemux::new())),
        );
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        let _lost = send_now(&mut client, cp, b"void");
        loop {
            let due = client.next_timer_deadline().expect("timer armed");
            if !client.advance_time(due).aborted.is_empty() {
                break;
            }
        }
        let t = client.stats().telemetry;
        assert_eq!(t.counter(CounterId::TimeoutAborts), 1);
        assert_eq!(t.counter(CounterId::ConnAborted), 1);
        assert!(t.events().iter().any(|e| matches!(
            e.event,
            Event::ConnClose {
                cause: CloseCause::Timeout
            }
        )));
    }

    #[test]
    fn lost_handshake_ack_recovers_via_synack_retransmission() {
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (cp, syn) = client.connect(SERVER, 80).unwrap();
        let r = server.receive(&syn).unwrap();
        let sp = match r.outcome {
            RxOutcome::NewConnection { pcb } => pcb,
            other => panic!("expected NewConnection, got {other:?}"),
        };
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Established { .. }));
        // The client's handshake ACK is lost; the server's RTO re-sends
        // its SYN-ACK (its first segment, so the initial 1 s RTO).
        let due = server.next_timer_deadline().expect("SYN-ACK in flight");
        assert_eq!(due, 1000);
        let fired = server.advance_time(due);
        assert_eq!(fired.retransmits.len(), 1);
        // The established client re-acknowledges the duplicate SYN-ACK…
        let r = client.receive(&fired.retransmits[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Duplicate { .. }));
        assert_eq!(r.replies.len(), 1);
        // …which completes the server's handshake.
        let r = server.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Established { .. }));
        assert!(server.is_established(sp));
        assert_eq!(server.next_timer_deadline(), None);
        // Karn: the server must not have sampled the ambiguous SYN-ACK.
        assert_eq!(server.rtt_estimator(sp).unwrap().samples(), 0);
        assert!(client.is_established(cp));
    }

    #[test]
    fn lost_fin_is_retransmitted_and_close_completes() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let _lost_fin = client.close(cp).unwrap();
        let due = client.next_timer_deadline().expect("FIN in flight");
        let fired = client.advance_time(due);
        assert_eq!(fired.retransmits.len(), 1);
        let r = server.receive(&fired.retransmits[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::PeerClosed { .. }));
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert_eq!(client.next_timer_deadline(), None, "FIN acknowledged");
        assert_eq!(client.state(cp), Some(TcpState::FinWait2));
        // Finish the teardown in the other direction.
        let fin = server.close(sp).unwrap();
        let r = client.receive(&fin).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Closed));
        server.receive(&r.replies[0]).unwrap();
        assert_eq!(client.connection_count(), 0);
        assert_eq!(server.connection_count(), 0);
    }

    #[test]
    fn a_stale_tx_pending_entry_does_not_touch_the_slots_next_occupant() {
        let (mut server, mut client) = pair();
        let (dead, _) = handshake(&mut server, &mut client, 80);
        assert_eq!(client.send(dead, b"never sent").unwrap(), 10);
        // Reclaimed while queued: its entry stays behind on `tx_pending`.
        client.abort(dead).unwrap();

        // The next connection takes the freed slot, and is pending too.
        let (live, _) = handshake(&mut server, &mut client, 81);
        assert_eq!(live.index(), dead.index(), "the slot was reused");
        assert_eq!(client.send(live, b"sent once").unwrap(), 9);
        assert_eq!(client.tx_pending, [dead, live]);

        // The stale entry fails the generation check: it neither
        // transmits for the new occupant nor consumes its pending bit,
        // so the live entry behind it does the one transmission.
        let mut scratch = TxScratch::new();
        assert_eq!(client.poll_transmit(&mut scratch), 1);
        let r = server.receive(&scratch.frames[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 9, .. }));
        assert!(client.tx_pending.is_empty());
        assert!(!client.conns.get(live).unwrap().tx_pending);
        assert_eq!(client.poll_transmit(&mut scratch), 0);
    }

    #[test]
    fn a_socket_holds_a_block_only_while_it_holds_bytes() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let (_, other) = handshake(&mut server, &mut client, 81);
        let parked = |s: &Stack| s.rx_blocks.parked();
        let mut deliver = |server: &mut Stack, payload: &[u8]| {
            let frame = send_now(&mut client, cp, payload);
            let r = server.receive(&frame).unwrap();
            client.receive(&r.replies[0]).unwrap();
        };

        deliver(&mut server, b"hello");
        assert_eq!(parked(&server), 0, "the first block is made, not found");
        assert_eq!(server.socket_mut(sp).unwrap().read(2), b"he");
        // Each entry point settles the socket handed out last; one that
        // still holds bytes keeps its block.
        assert_eq!(server.send(other, b"x"), Ok(1));
        assert_eq!(parked(&server), 0);
        assert_eq!(server.socket_mut(sp).unwrap().read_all(), b"llo");
        assert_eq!(parked(&server), 0, "a read is behind the stack's back");
        assert_eq!(server.send(other, b"y"), Ok(1));
        assert_eq!(parked(&server), 1, "read dry: the next entry takes it back");

        // The next segment lands in that block, whichever entry point
        // comes after the read.
        let mut scratch = TxScratch::new();
        type Entry<'a> = &'a mut dyn FnMut(&mut Stack);
        let entries: [Entry; 4] = [
            &mut |s| assert!(s.receive(&[]).is_err()),
            &mut |s| assert_eq!(s.poll_transmit(&mut scratch), 1),
            &mut |s| assert!(s.socket_mut(other).is_some()),
            &mut |s| assert!(s.close(other).is_ok()),
        ];
        for entry in entries {
            deliver(&mut server, b"again");
            assert_eq!(parked(&server), 0);
            assert_eq!(server.socket_mut(sp).unwrap().read_all(), b"again");
            entry(&mut server);
            assert_eq!(parked(&server), 1);
        }

        // A connection that goes takes nothing with it.
        deliver(&mut server, b"unread");
        assert_eq!(server.socket_mut(sp).unwrap().read_all(), b"unread");
        server.abort(sp).unwrap();
        assert_eq!(parked(&server), 1);
    }

    /// What a connection costs in the slot array, which is sized for the
    /// most connections the stack has ever held: a field added to
    /// [`Conn`] is paid for by every one of them (`heap_bytes_per_conn`
    /// in the benchmark, `tests/heap_per_connection.rs` here), so it
    /// changes these numbers on purpose or not at all.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_connection_slot_stays_20_words() {
        use core::mem::size_of;
        assert_eq!(size_of::<Conn>(), 160);
        assert_eq!(size_of::<Option<Conn>>(), 160, "vacancy costs no tag");
        // Its parts: the PCB is a cache line and a half, the socket sits
        // inline (`head` in the padding beside its flags, the span list
        // behind one pointer) and owns no storage while empty.
        assert_eq!(size_of::<Pcb>(), 96);
        assert!(size_of::<RttEstimator>() <= 16);
        assert_eq!(size_of::<SocketBuffer>(), 40);
        // Behind the `tx` pointer, for senders only.
        assert_eq!(size_of::<SendHalf>(), 96);
    }
}
