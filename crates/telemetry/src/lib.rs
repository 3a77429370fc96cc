//! Structured telemetry for the tcpdemux workspace.
//!
//! The paper's figure of merit — PCBs examined per received packet — is a
//! *distribution*, not a mean (§3.4: "the hit ratio is only part of the
//! story; ... the miss penalty dominates"). This crate is the one
//! observability surface every experiment records into and reports from:
//!
//! * [`Histogram`] — fixed log₂-bucket sample distributions (promoted
//!   from `tcpdemux-core`, where it was born as the per-lookup cost
//!   histogram);
//! * [`CounterId`]/monotonic counters — a fixed, enumerated counter set,
//!   so exports have a stable schema;
//! * [`Event`] + a bounded ring buffer — the most recent N structured
//!   events (demux hit/miss with examined counts, connection lifecycle,
//!   retransmission and RTO backoff);
//! * [`Telemetry`] — the store itself, recorded into through
//!   `&mut self`: what a single-threaded owner (a stack shard) holds by
//!   value. Recording never allocates: counters and histograms are
//!   fixed arrays, the event ring is pre-allocated and overwrites its
//!   oldest entry when full.
//! * [`Recorder`] — a cloneable `&self` handle to one shared store
//!   behind a mutex, for the callers that really share one (a demux
//!   suite entry and the table it wraps, a bench harness). Its methods
//!   forward to [`Telemetry`]'s, so the event → counter mapping exists
//!   once.
//! * [`Snapshot`] — an owned, `Clone`-able copy of everything above,
//!   with deterministic text and JSON-lines exporters (integer-only
//!   fields, fixed ordering) so same-seed runs export byte-identical
//!   telemetry.
//!
//! # Example
//!
//! ```
//! use tcpdemux_telemetry::{CounterId, Event, HistogramId, Recorder};
//!
//! let recorder = Recorder::new();
//! recorder.demux_lookup(3, true, false);           // examined 3, found, no cache hit
//! recorder.event(Event::ConnOpen);
//! recorder.observe(HistogramId::CwndBytes, 4380);
//!
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counter(CounterId::Lookups), 1);
//! assert_eq!(snap.counter(CounterId::PcbsExamined), 3);
//! assert_eq!(snap.histogram(HistogramId::Examined).count(), 1);
//! assert_eq!(snap.events().len(), 2);
//! assert!(snap.to_json_lines().starts_with("{\"type\":"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod counter;
mod event;
mod histogram;
mod recorder;
mod snapshot;

pub use counter::{CounterId, Counters};
pub use event::{CloseCause, Event, EventRing, SeqEvent};
pub use histogram::Histogram;
pub use recorder::{HistogramId, Recorder, Telemetry, DEFAULT_RING_CAPACITY};
pub use snapshot::Snapshot;
