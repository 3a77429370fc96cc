//! Discrete-event simulation of the paper's traffic workloads.
//!
//! The paper validates its analytic models "qualitatively ... by
//! benchmarks" on hardware we do not have; this crate substitutes a
//! discrete-event simulation of the same traffic (see DESIGN.md). The
//! simulator generates the *server-side packet arrival process* of each
//! workload and drives every demultiplexing algorithm with the identical
//! trace, so measured mean PCBs-examined are directly comparable to the
//! analytic predictions and across algorithms (paired comparison — no
//! sampling noise between algorithms).
//!
//! Workloads:
//!
//! * [`tpca`] — the TPC/A model of §2: `N` users, truncated-exponential
//!   think times, response time `R`, round-trip `D`, four packets per
//!   transaction (two of which the server receives).
//! * [`trains`] — bulk-transfer packet trains (the traffic the BSD cache
//!   was designed for).
//! * [`polling`] — deterministic round-robin polling (the point-of-sale
//!   worst case for move-to-front, §3.2).
//! * [`locality`] — Zipf-distributed connection popularity (Mogul's
//!   "network locality" traffic, cited in §3.3).
//!
//! # Example
//!
//! ```
//! use tcpdemux_sim::tpca::{TpcaSim, TpcaSimConfig};
//!
//! let config = TpcaSimConfig {
//!     users: 200,
//!     transactions: 2_000,
//!     ..TpcaSimConfig::default()
//! };
//! let reports = TpcaSim::new(config, 42).run_standard_suite();
//! let bsd = reports.iter().find(|r| r.name == "bsd").unwrap();
//! let seq = reports.iter().find(|r| r.name == "sequent(19)").unwrap();
//! // Hashing wins by roughly N/H — an order of magnitude at 200 users.
//! assert!(bsd.stats.mean_examined() > 5.0 * seq.stats.mean_examined());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bulk;
pub mod engine;
pub mod locality;
pub mod lossy;
pub mod polling;
pub mod rng;
pub mod runner;
pub mod shards;
pub mod time;
pub mod tpca;
pub mod trace_io;
pub mod trains;

pub use lossy::{
    run_lossy_link, run_lossy_link_with_telemetry, LossyLinkConfig, LossyLinkReport,
    LossyLinkTelemetry,
};
pub use runner::{run_trace, AlgoReport, TraceEvent};
pub use shards::{
    run_shard_scenario, ConnStreams, ShardScenarioConfig, ShardScenarioReport, ShardWorkload,
};
pub use time::SimTime;
