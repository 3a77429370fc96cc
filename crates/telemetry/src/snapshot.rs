//! Owned snapshots and their deterministic exporters.

use core::fmt;
use std::fmt::Write as _;

use crate::counter::{CounterId, Counters};
use crate::event::{Event, SeqEvent};
use crate::histogram::Histogram;
use crate::recorder::HistogramId;

/// An owned, independent copy of one recorder's state.
///
/// Snapshots are plain data: cloning one or keeping it across further
/// recording never observes later updates. The exporters are
/// deterministic — fixed ordering, and the JSON form is integer-only
/// (count + sum instead of a floating mean) — so two same-seed runs
/// export byte-identical text.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    counters: Counters,
    histograms: [Histogram; HistogramId::ALL.len()],
    events: Vec<SeqEvent>,
    events_recorded: u64,
    events_dropped: u64,
}

impl Snapshot {
    /// Assemble a snapshot from a recorder's internals (crate-internal;
    /// use [`Recorder::snapshot`](crate::Recorder::snapshot)).
    pub(crate) fn assemble(
        counters: Counters,
        histograms: [Histogram; HistogramId::ALL.len()],
        events: Vec<SeqEvent>,
        events_recorded: u64,
        events_dropped: u64,
    ) -> Self {
        Self {
            counters,
            histograms,
            events,
            events_recorded,
            events_dropped,
        }
    }

    /// An empty snapshot (what a fresh recorder would produce).
    pub fn empty() -> Self {
        Self::assemble(
            Counters::new(),
            std::array::from_fn(|_| Histogram::new()),
            Vec::new(),
            0,
            0,
        )
    }

    /// Value of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters.get(id)
    }

    /// All counters, in export order.
    pub fn counters(&self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        self.counters.iter()
    }

    /// One of the fixed histograms.
    pub fn histogram(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id as usize]
    }

    /// The surviving trace events, oldest first.
    pub fn events(&self) -> &[SeqEvent] {
        &self.events
    }

    /// Total events recorded, including any the ring overwrote.
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded
    }

    /// Events lost to ring overwriting.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Merge another snapshot's aggregates into this one (counters add,
    /// histograms merge). Event traces are per-recorder and cannot be
    /// interleaved meaningfully, so only the recorded/dropped totals
    /// combine; this snapshot keeps its own trace entries.
    pub fn merge_aggregates(&mut self, other: &Snapshot) {
        for id in CounterId::ALL {
            self.counters.add(id, other.counters.get(id));
        }
        for id in HistogramId::ALL {
            self.histograms[id as usize].merge(&other.histograms[id as usize]);
        }
        self.events_recorded += other.events_recorded;
        self.events_dropped += other.events_dropped;
    }

    /// The deterministic JSON-lines export: one JSON object per line —
    /// every counter, every histogram, an event-trace header, then every
    /// surviving event. All numeric fields are integers and the ordering
    /// is fixed, so same-seed runs export byte-identical text (the
    /// golden-file gate in `scripts/verify.sh` diffs this).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, value) in self.counters.iter() {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                id.name(),
                value
            );
        }
        for id in HistogramId::ALL {
            let h = self.histogram(id);
            let _ = write!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                id.name(),
                h.count(),
                h.sum(),
                h.max(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            );
            for (i, (floor, count)) in h.nonzero_buckets().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{floor},{count}]");
            }
            out.push_str("]}\n");
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"events\",\"recorded\":{},\"dropped\":{}}}",
            self.events_recorded, self.events_dropped
        );
        for entry in &self.events {
            let _ = write!(
                out,
                "{{\"type\":\"event\",\"seq\":{},\"kind\":\"{}\"",
                entry.seq,
                entry.event.kind()
            );
            match entry.event {
                Event::DemuxHit {
                    examined,
                    cache_hit,
                } => {
                    let _ = write!(out, ",\"examined\":{examined},\"cache_hit\":{cache_hit}");
                }
                Event::DemuxMiss { examined } => {
                    let _ = write!(out, ",\"examined\":{examined}");
                }
                Event::ConnClose { cause } => {
                    let _ = write!(out, ",\"cause\":\"{}\"", cause.name());
                }
                Event::Retransmit { attempt } => {
                    let _ = write!(out, ",\"attempt\":{attempt}");
                }
                Event::RtoBackoff {
                    attempts,
                    rto_ticks,
                } => {
                    let _ = write!(out, ",\"attempts\":{attempts},\"rto_ticks\":{rto_ticks}");
                }
                Event::FastRetransmit { dup_acks } => {
                    let _ = write!(out, ",\"dup_acks\":{dup_acks}");
                }
                Event::ConnOpen
                | Event::Timeout
                | Event::DelayedAck
                | Event::ZeroWindowProbe
                | Event::RwndStall => {}
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Human-oriented text report: counters, histogram summaries (these use
/// the exact floating mean — fine for eyes, not for golden files), and
/// the surviving event trace.
impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (id, value) in self.counters.iter() {
            writeln!(f, "  {:<16} {}", id.name(), value)?;
        }
        writeln!(f, "histograms:")?;
        for id in HistogramId::ALL {
            writeln!(f, "  {:<16} {}", id.name(), self.histogram(id))?;
        }
        writeln!(
            f,
            "events: recorded={} dropped={}",
            self.events_recorded, self.events_dropped
        )?;
        for entry in &self.events {
            writeln!(f, "  [{:>4}] {}", entry.seq, entry.event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CloseCause;
    use crate::recorder::Recorder;

    fn sample_recorder() -> Recorder {
        let r = Recorder::new();
        r.demux_lookup(1, true, true);
        r.demux_lookup(19, true, false);
        r.demux_lookup(40, false, false);
        r.event(Event::ConnOpen);
        r.event(Event::RtoBackoff {
            attempts: 2,
            rto_ticks: 24,
        });
        r.event(Event::ConnClose {
            cause: CloseCause::Timeout,
        });
        r
    }

    #[test]
    fn json_lines_schema_is_stable() {
        let snap = sample_recorder().snapshot();
        let text = snap.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        // 19 counters + 5 histograms + 1 events header + 6 events.
        assert_eq!(lines.len(), 19 + 5 + 1 + 6, "{text}");
        assert_eq!(
            lines[0],
            "{\"type\":\"counter\",\"name\":\"lookups\",\"value\":3}"
        );
        assert!(
            lines[19].starts_with(
                "{\"type\":\"histogram\",\"name\":\"examined\",\"count\":3,\"sum\":60,\"max\":40,"
            ),
            "{}",
            lines[19]
        );
        assert!(
            lines[19].contains("\"buckets\":[[1,1],[16,1],[32,1]]"),
            "{}",
            lines[19]
        );
        assert_eq!(
            lines[24],
            "{\"type\":\"events\",\"recorded\":6,\"dropped\":0}"
        );
        assert_eq!(
            lines[25],
            "{\"type\":\"event\",\"seq\":0,\"kind\":\"demux_hit\",\"examined\":1,\"cache_hit\":true}"
        );
        assert_eq!(
            lines[30],
            "{\"type\":\"event\",\"seq\":5,\"kind\":\"conn_close\",\"cause\":\"timeout\"}"
        );
    }

    #[test]
    fn identical_recordings_export_identical_bytes() {
        let a = sample_recorder().snapshot().to_json_lines();
        let b = sample_recorder().snapshot().to_json_lines();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_snapshot_still_exports_full_schema() {
        let text = Snapshot::empty().to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 19 + 5 + 1);
        assert!(lines[20].contains("\"count\":0"));
        assert!(lines[20].contains("\"buckets\":[]"));
    }

    #[test]
    fn merge_aggregates_adds_counters_and_histograms() {
        let mut a = sample_recorder().snapshot();
        let b = sample_recorder().snapshot();
        a.merge_aggregates(&b);
        assert_eq!(a.counter(CounterId::Lookups), 6);
        assert_eq!(a.histogram(HistogramId::Examined).count(), 6);
        assert_eq!(a.events_recorded(), 12);
        // The trace itself stays a's own.
        assert_eq!(a.events().len(), 6);
    }

    #[test]
    fn display_text_mentions_every_section() {
        let text = sample_recorder().snapshot().to_string();
        assert!(text.contains("counters:"), "{text}");
        assert!(text.contains("histograms:"), "{text}");
        assert!(text.contains("events: recorded=6"), "{text}");
        assert!(
            text.contains("rto_backoff attempts=2 rto_ticks=24"),
            "{text}"
        );
    }
}
