//! Protocol control blocks (PCBs) for the `tcpdemux` project.
//!
//! A PCB holds the per-endpoint state of one TCP connection: the 96-bit
//! connection key (addresses and ports), the RFC 793 state machine, send and
//! receive sequence bookkeeping, and the RTT and congestion estimates. The
//! demultiplexing algorithms in `tcpdemux-core` find the PCB matching each
//! arriving segment; this crate defines what they are finding.
//!
//! The layout mirrors the BSD `inpcb`/`tcpcb` split loosely: [`Pcb`] is the
//! combined object, [`PcbArena`] owns all PCBs and hands out stable
//! [`PcbId`] handles which the lookup structures store.
//!
//! # Example
//!
//! ```
//! use tcpdemux_pcb::{ConnectionKey, Pcb, PcbArena, TcpState};
//! use std::net::Ipv4Addr;
//!
//! let mut arena = PcbArena::new();
//! let key = ConnectionKey::new(
//!     Ipv4Addr::new(10, 0, 0, 1), 1521,   // local (server) side
//!     Ipv4Addr::new(10, 0, 9, 9), 40001,  // remote (client) side
//! );
//! let id = arena.insert(Pcb::new(key));
//! assert_eq!(arena.get(id).unwrap().state(), TcpState::Closed);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
mod cc;
mod key;
mod pcb;
mod rtt;
mod sendbuf;
mod seq;
mod state;

pub use arena::{Arena, PcbArena, PcbId};
pub use cc::{CcAction, CongestionState};
pub use key::{ConnectionKey, ListenKey};
pub use pcb::{Pcb, RecvSequenceSpace, SendSequenceSpace};
pub use rtt::RttEstimator;
pub use sendbuf::SendBuffer;
pub use seq::SeqNum;
pub use state::{InvalidTransition, TcpEvent, TcpState};
