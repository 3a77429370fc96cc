//! A miniature TCP/IPv4 receive path built around the demultiplexers.
//!
//! The paper's algorithms live inside a kernel's packet-receive path; this
//! crate provides that path, end to end, over real packet bytes:
//!
//! ```text
//! raw frame → IPv4 parse+checksum → TCP parse+checksum → ConnectionKey
//!           → Demux::lookup (the paper's subject) → PCB state machine
//!           → socket delivery + reply segments (ACK/SYN-ACK/RST)
//! ```
//!
//! Two [`Stack`]s can be wired back to back ([`Stack::connect`] +
//! shuttling the returned frames) to run full handshakes, data transfer,
//! and teardown purely in memory. A [`FaultInjector`] can corrupt, drop,
//! duplicate or reorder frames in between, demonstrating that damaged
//! packets die at the checksum long before they reach the demultiplexer.
//!
//! The receiver reassembles: a segment that arrives ahead of a missing
//! one is written into the connection's [`SocketBuffer`] at its final
//! offset, inside the window last advertised, and becomes readable when
//! the hole before it fills (no SACK: the cumulative ACK that follows a
//! filled hole covers what was held). The *send* path is a real windowed
//! transmit engine:
//! [`Stack::send`] enqueues into a per-connection send buffer and
//! [`Stack::poll_transmit`] emits whatever `min(peer rwnd, cwnd)`
//! permits, with slow start, AIMD congestion avoidance in whole segments
//! of the negotiated MSS, Limited Transmit on the first two duplicate
//! ACKs, fast retransmit / NewReno fast recovery on the third (the
//! methods of each connection's [`CongestionState`]), zero-window
//! persist probes,
//! optional delayed ACKs, and dynamic receive-window advertisement. Also faithful: header
//! formats, checksums, sequence-number accounting, the RFC 793 state
//! machine, listener (wildcard) matching semantics, RST generation for
//! unmatched segments, and sender-side loss recovery: every SYN,
//! SYN-ACK, FIN, and data segment sits on a retransmission queue with an
//! RTO from the Jacobson/Karels [`tcpdemux_pcb::RttEstimator`] (Karn's
//! rule on samples, exponential backoff on expiry) until acknowledged —
//! [`Stack::advance_time`] fires the retransmits (head-of-queue only;
//! the provoked cumulative ACK retires the rest) and, past the retry
//! budget, aborts the connection with a [`SocketError`] the application
//! can observe. The queue holds metadata only: every in-flight payload
//! byte stays in the connection's send buffer — its one copy — until
//! the cumulative ACK passes it. Unacknowledged plus unsent bytes are
//! held to twice the peer's current window, with a 16 KiB floor, under
//! [`WindowConfig::send_buffer`] as the ceiling (`SO_SNDBUF`), so a bulk
//! sender's ring costs two windows rather than the ceiling.
//!
//! # One slot per connection, and an allocation-free steady state
//!
//! The handle the demultiplexer returns resolves, with one index and
//! one generation compare, to everything the stack keeps for the
//! connection: its PCB, its socket buffer, its sender half (send
//! buffer, in-flight queue, RTO timer), its delayed-ACK state, its
//! listener and whether it is queued for a transmit poll. No
//! [`Stack`] entry point hashes a `PcbId`.
//!
//! Every emitted frame draws its buffer from an internal [`TxPool`]; a
//! caller that returns spent buffers via [`Stack::recycle`] has ACKs,
//! data segments and RSTs reuse recycled capacity (the `tx_pool`
//! counters in [`Stack::stats`] pin that much). The rest of a
//! transaction allocates nothing either: [`RxResult::replies`] holds its
//! at most two frames inline, and a sender half whose last byte was
//! acknowledged is parked for the next connection with something to
//! send rather than freed. Receive storage is lent the same way: a
//! [`SocketBuffer`] holds a box (its bytes and reassembly record) only
//! while it holds bytes or a hole, takes it from a per-stack pool when
//! its first segment arrives, and
//! gives it back — at the stack's next entry point after the read — once
//! the application has read it dry, so a connection at rest costs its
//! slot and nothing else. `tests/steady_state_allocs.rs` counts
//! allocator calls over transactions one at a time, in blocks of 64 over
//! 2 000 connections and in rounds of open-transact-close, and asserts
//! zero.
//!
//! # Example
//!
//! ```
//! use tcpdemux_stack::{Stack, StackConfig};
//! use std::net::Ipv4Addr;
//!
//! let server_addr = Ipv4Addr::new(10, 0, 0, 1);
//! let client_addr = Ipv4Addr::new(10, 0, 0, 2);
//! // One construction path: the config carries the demux factory (the
//! // paper's sequent(19) by default) and the shard id.
//! let mut server = Stack::with_config(StackConfig::new(server_addr));
//! let mut client = Stack::with_config(StackConfig::new(client_addr));
//! server.listen(1521).unwrap();
//! let (client_pcb, syn) = client.connect(server_addr, 1521).unwrap();
//!
//! // Shuttle the handshake: SYN -> SYN-ACK -> ACK.
//! let synack = server.receive(&syn).unwrap().replies;
//! let ack = client.receive(&synack[0]).unwrap().replies;
//! server.receive(&ack[0]).unwrap();
//! assert!(client.is_established(client_pcb));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod fault;
mod replies;
mod runtime;
pub mod shard;
mod socket;
mod stack;
mod stats;
pub mod timer;
mod txpool;

pub use fault::{checksum_covered_span, FaultInjector, FaultOutcome};
pub use replies::Replies;
pub use runtime::{RingFull, ShardedStack};
pub use shard::{steering_key, PlacementStats, ShardId, SteerTable};
pub use socket::{SocketBuffer, SocketError};
pub use stack::{
    BatchRxResult, ConnectionInfo, DemuxFactory, ListenConfig, ListenerInfo, RxOutcome, RxResult,
    Stack, StackConfig, StackError, TimeAdvance, TxScratch, WindowConfig,
};
pub use stats::{StackStats, StatsSnapshot};
// What `Stack::congestion` returns, re-exported so applications need no
// direct tcpdemux-pcb dependency.
pub use tcpdemux_pcb::{CcAction, CongestionState};
// The telemetry types a Stack user touches through `Stack::stats()`,
// re-exported for convenience.
pub use tcpdemux_core::spsc::RingStats;
pub use tcpdemux_telemetry::{CloseCause, CounterId, Event, HistogramId, Snapshot};
pub use timer::{TimerId, TimerWheel};
pub use txpool::{TxPool, TxPoolStats};
