//! Driving demultiplexers from a packet trace.
//!
//! Every workload generator ultimately produces a sequence of
//! [`TraceEvent`]s — the server's view of the network. [`run_trace`] feeds
//! one trace to many algorithms, recording per-algorithm and
//! per-packet-kind statistics. Feeding the *same* trace to every
//! algorithm makes comparisons paired: differences in mean PCBs examined
//! are purely algorithmic, not sampling noise.

use crate::time::SimTime;
use tcpdemux_core::{Histogram, LookupResult, LookupStats, PacketKind, SuiteEntry};
use tcpdemux_pcb::{ConnectionKey, Pcb, PcbArena, TcpState};
use tcpdemux_telemetry::{CloseCause, Event, HistogramId, Recorder, Snapshot};

/// One event in a server-side trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet arrived and must be demultiplexed.
    Arrival {
        /// When it arrived.
        at: SimTime,
        /// Its connection key (server perspective).
        key: ConnectionKey,
        /// Data segment or pure acknowledgement.
        kind: PacketKind,
    },
    /// The server sent a packet on a connection (updates send-side caches).
    Departure {
        /// When it was sent.
        at: SimTime,
        /// Its connection key (server perspective).
        key: ConnectionKey,
    },
    /// A connection was established (insert into the lookup structures).
    Open {
        /// When.
        at: SimTime,
        /// The new connection's key.
        key: ConnectionKey,
    },
    /// A connection was torn down (remove from the lookup structures).
    Close {
        /// When.
        at: SimTime,
        /// The departing connection's key.
        key: ConnectionKey,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Arrival { at, .. }
            | TraceEvent::Departure { at, .. }
            | TraceEvent::Open { at, .. }
            | TraceEvent::Close { at, .. } => at,
        }
    }
}

/// Results of running one algorithm over one trace.
#[derive(Debug, Clone)]
pub struct AlgoReport {
    /// Algorithm name (from [`SuiteEntry::name`]).
    pub name: String,
    /// Statistics over all arrivals.
    pub stats: LookupStats,
    /// Statistics over data arrivals only.
    pub data_stats: LookupStats,
    /// Statistics over acknowledgement arrivals only.
    pub ack_stats: LookupStats,
    /// Distribution of per-lookup costs (p50/p99/max expose the miss
    /// penalty the mean hides — the paper's §3.4 pitfall). A copy of the
    /// snapshot's `examined` histogram, kept as a field for convenience.
    pub histogram: Histogram,
    /// Number of lookups that failed to find a PCB (should be zero for
    /// well-formed traces; nonzero indicates a workload bug).
    pub lost_packets: u64,
    /// Full telemetry for this algorithm's run: counters, histograms and
    /// the trailing event trace, taken from [`SuiteEntry::recorder`]
    /// after the measured trace (recorders are reset when a run starts,
    /// so warm-up traffic never leaks in).
    pub snapshot: Snapshot,
}

/// Empty per-algorithm reports, with every entry's recorder reset so the
/// run ahead is the only thing its snapshot will contain.
fn fresh_reports(suite: &[SuiteEntry]) -> Vec<AlgoReport> {
    suite
        .iter()
        .map(|e| {
            e.recorder.reset();
            AlgoReport {
                name: e.name.clone(),
                stats: LookupStats::new(),
                data_stats: LookupStats::new(),
                ack_stats: LookupStats::new(),
                histogram: Histogram::new(),
                lost_packets: 0,
                snapshot: Snapshot::empty(),
            }
        })
        .collect()
}

/// Capture each entry's telemetry into its finished report. The cost
/// histogram is sourced from the snapshot — the recorder is the single
/// source of truth for distributions.
fn seal_reports(suite: &[SuiteEntry], reports: &mut [AlgoReport]) {
    for (entry, report) in suite.iter().zip(reports.iter_mut()) {
        report.snapshot = entry.recorder.snapshot();
        report.histogram = report.snapshot.histogram(HistogramId::Examined).clone();
    }
}

fn record_arrival(report: &mut AlgoReport, recorder: &Recorder, kind: PacketKind, r: LookupResult) {
    let found = r.pcb.is_some();
    if !found {
        report.lost_packets += 1;
    }
    report.stats.record(r.examined, found, r.cache_hit);
    recorder.demux_lookup(r.examined, found, r.cache_hit);
    match kind {
        PacketKind::Data => report.data_stats.record(r.examined, found, r.cache_hit),
        PacketKind::Ack => report.ack_stats.record(r.examined, found, r.cache_hit),
    }
}

/// Run a trace through a suite of algorithms.
///
/// `Open` events create a PCB in the shared arena (one per distinct key)
/// and insert it into every algorithm; `Arrival` events perform the
/// instrumented lookup; `Departure` events update send-side caches;
/// `Close` events remove the connection everywhere.
pub fn run_trace<I>(trace: I, suite: &mut [SuiteEntry]) -> Vec<AlgoReport>
where
    I: IntoIterator<Item = TraceEvent>,
{
    let mut arena = PcbArena::new();
    let mut reports = fresh_reports(suite);
    // Key -> PcbId mapping for Open/Close bookkeeping (not counted as
    // lookup work; it models the connection-management path, which the
    // paper does not charge to demultiplexing).
    let mut live: std::collections::HashMap<ConnectionKey, tcpdemux_pcb::PcbId> =
        std::collections::HashMap::new();

    for event in trace {
        match event {
            TraceEvent::Open { key, .. } => {
                let id = *live
                    .entry(key)
                    .or_insert_with(|| arena.insert(Pcb::new_in_state(key, TcpState::Established)));
                for entry in suite.iter_mut() {
                    entry.demux.insert(key, id);
                    entry.recorder.event(Event::ConnOpen);
                }
            }
            TraceEvent::Close { key, .. } => {
                if let Some(id) = live.remove(&key) {
                    for entry in suite.iter_mut() {
                        entry.demux.remove(&key);
                        entry.recorder.event(Event::ConnClose {
                            cause: CloseCause::Graceful,
                        });
                    }
                    arena.remove(id);
                }
            }
            TraceEvent::Departure { key, .. } => {
                for entry in suite.iter_mut() {
                    entry.demux.note_send(&key);
                }
            }
            TraceEvent::Arrival { key, kind, .. } => {
                for (entry, report) in suite.iter_mut().zip(reports.iter_mut()) {
                    let r = entry.demux.lookup(&key, kind);
                    record_arrival(report, &entry.recorder, kind, r);
                }
            }
        }
    }
    seal_reports(suite, &mut reports);
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tcpdemux_core::standard_suite;

    fn key(n: u32) -> ConnectionKey {
        ConnectionKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            1521,
            Ipv4Addr::from(0x0a02_0000 + n),
            40_000,
        )
    }

    #[test]
    fn open_arrival_close_lifecycle() {
        let trace = vec![
            TraceEvent::Open {
                at: SimTime(0),
                key: key(0),
            },
            TraceEvent::Open {
                at: SimTime(0),
                key: key(1),
            },
            TraceEvent::Arrival {
                at: SimTime(1),
                key: key(0),
                kind: PacketKind::Data,
            },
            TraceEvent::Departure {
                at: SimTime(2),
                key: key(0),
            },
            TraceEvent::Arrival {
                at: SimTime(3),
                key: key(0),
                kind: PacketKind::Ack,
            },
            TraceEvent::Close {
                at: SimTime(4),
                key: key(1),
            },
            TraceEvent::Arrival {
                at: SimTime(5),
                key: key(1),
                kind: PacketKind::Data,
            },
        ];
        let mut suite = standard_suite();
        let reports = run_trace(trace, &mut suite);
        for report in &reports {
            assert_eq!(report.stats.lookups, 3, "{}", report.name);
            assert_eq!(report.data_stats.lookups, 2);
            assert_eq!(report.ack_stats.lookups, 1);
            // The arrival after Close must miss — exactly one lost packet.
            assert_eq!(report.lost_packets, 1, "{}", report.name);
            // The histogram saw every lookup and agrees with the stats.
            assert_eq!(report.histogram.count(), 3);
            assert!(
                (report.histogram.mean() - report.stats.mean_examined()).abs() < 1e-9,
                "{}",
                report.name
            );
            // The telemetry snapshot is the same story, structured.
            use tcpdemux_telemetry::CounterId;
            let snap = &report.snapshot;
            assert_eq!(snap.counter(CounterId::Lookups), 3, "{}", report.name);
            assert_eq!(snap.counter(CounterId::DemuxMisses), 1);
            assert_eq!(snap.counter(CounterId::ConnOpened), 2);
            assert_eq!(snap.counter(CounterId::ConnClosed), 1);
            assert_eq!(
                snap.counter(CounterId::PcbsExamined),
                report.stats.pcbs_examined
            );
            assert_eq!(snap.histogram(HistogramId::Examined).count(), 3);
            // Trace: 2 opens + 3 lookups + 1 close = 6 events.
            assert_eq!(snap.events_recorded(), 6, "{}", report.name);
        }
    }

    #[test]
    fn event_timestamps_accessible() {
        let e = TraceEvent::Arrival {
            at: SimTime(9),
            key: key(0),
            kind: PacketKind::Data,
        };
        assert_eq!(e.at(), SimTime(9));
        assert_eq!(
            TraceEvent::Close {
                at: SimTime(3),
                key: key(0)
            }
            .at(),
            SimTime(3)
        );
    }

    #[test]
    fn duplicate_open_is_idempotent() {
        let trace = vec![
            TraceEvent::Open {
                at: SimTime(0),
                key: key(0),
            },
            TraceEvent::Open {
                at: SimTime(1),
                key: key(0),
            },
            TraceEvent::Arrival {
                at: SimTime(2),
                key: key(0),
                kind: PacketKind::Data,
            },
        ];
        let mut suite = standard_suite();
        let reports = run_trace(trace, &mut suite);
        for report in &reports {
            assert_eq!(report.lost_packets, 0);
        }
        for entry in &suite {
            assert_eq!(entry.demux.len(), 1, "{}", entry.name);
        }
    }

    #[test]
    fn paired_comparison_same_lookup_counts() {
        let trace: Vec<TraceEvent> = (0..10)
            .map(|i| TraceEvent::Open {
                at: SimTime(i),
                key: key(i as u32),
            })
            .chain((0..100).map(|i| TraceEvent::Arrival {
                at: SimTime(10 + i),
                key: key((i % 10) as u32),
                kind: PacketKind::Data,
            }))
            .collect();
        let mut suite = standard_suite();
        let reports = run_trace(trace, &mut suite);
        for r in &reports {
            assert_eq!(r.stats.lookups, 100);
            assert_eq!(r.lost_packets, 0);
        }
        // Direct index must be the cheapest; BSD the most expensive here.
        let get = |name: &str| {
            reports
                .iter()
                .find(|r| r.name == name)
                .unwrap()
                .stats
                .mean_examined()
        };
        assert!(get("direct-index") <= get("sequent(19)"));
        assert!(get("sequent(19)") <= get("bsd"));
    }
}
