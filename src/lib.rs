//! # tcpdemux
//!
//! A faithful, production-quality reproduction of **McKenney & Dove,
//! "Efficient Demultiplexing of Incoming TCP Packets" (SIGCOMM 1992)**:
//! the PCB-lookup algorithms it compares, the analytic cost models it
//! derives, the TPC/A traffic model it evaluates under, and the TCP/IPv4
//! receive path the problem lives in.
//!
//! This crate is an umbrella that re-exports the workspace's sub-crates
//! under stable module names:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`wire`] | IPv4/TCP wire formats, checksums, frame builders |
//! | [`pcb`] | Protocol control blocks, TCP state machine, PCB arena |
//! | [`hash`] | Connection-key hash functions + quality analysis |
//! | [`demux`] | The lookup algorithms (BSD, MTF, SR-cache, Sequent, …) |
//! | [`analytic`] | Every equation of the paper's §3 |
//! | [`sim`] | Discrete-event workload simulation (TPC/A, trains, …) |
//! | [`stack`] | A miniature TCP receive path around the demultiplexers |
//! | [`telemetry`] | Counters, histograms, and event tracing (structured observability) |
//!
//! ## Quickstart
//!
//! ```
//! use tcpdemux::demux::{Demux, PacketKind, SequentDemux};
//! use tcpdemux::hash::Multiplicative;
//! use tcpdemux::pcb::{ConnectionKey, Pcb, PcbArena};
//! use std::net::Ipv4Addr;
//!
//! // The paper's winning structure: hash chains with per-chain caches.
//! let mut arena = PcbArena::new();
//! let mut demux = SequentDemux::new(Multiplicative, 19);
//!
//! let key = ConnectionKey::new(
//!     Ipv4Addr::new(10, 0, 0, 1), 1521,
//!     Ipv4Addr::new(10, 0, 5, 5), 40321,
//! );
//! demux.insert(key, arena.insert(Pcb::new(key)));
//!
//! let result = demux.lookup(&key, PacketKind::Data);
//! assert!(result.pcb.is_some());
//! assert_eq!(result.examined, 1);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure in the paper.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// Analytic cost models (the paper's §3 equations).
pub use tcpdemux_analytic as analytic;
/// The demultiplexing algorithms (the paper's subject).
pub use tcpdemux_core as demux;
/// Connection-key hash functions and quality analysis.
pub use tcpdemux_hash as hash;
/// Protocol control blocks and the TCP state machine.
pub use tcpdemux_pcb as pcb;
/// Discrete-event workload simulation.
pub use tcpdemux_sim as sim;
/// The miniature TCP receive path.
pub use tcpdemux_stack as stack;
/// Structured observability: counters, histograms, event tracing.
pub use tcpdemux_telemetry as telemetry;
/// Wire formats: IPv4 and TCP.
pub use tcpdemux_wire as wire;
