//! The [`Telemetry`] store and the shared [`Recorder`] handle to one.

use std::sync::{Arc, Mutex};

use crate::counter::{CounterId, Counters};
use crate::event::{CloseCause, Event, EventRing};
use crate::histogram::Histogram;
use crate::snapshot::Snapshot;

/// Identity of one of the fixed sample histograms.
///
/// Like [`CounterId`], the set is closed and array-indexed so recording
/// never allocates and exports have a stable schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum HistogramId {
    /// PCBs examined per demultiplexer lookup — the paper's cost metric,
    /// as a distribution rather than the §3.4 mean-only trap.
    Examined,
    /// Re-armed retransmission timeouts, in stack ticks, one sample per
    /// RTO backoff.
    RtoTicks,
    /// Entries displaced per cuckoo insert (0 for the common
    /// free-slot-in-either-bucket case), one sample per insert.
    CuckooInsertKicks,
    /// Congestion-window size in bytes, sampled whenever the congestion
    /// controller moves it — the distribution behind the AIMD sawtooth.
    CwndBytes,
    /// Front-filter slot occupancy in percent of capacity, sampled after
    /// each filter insert — the load level the false-positive rate rides.
    FrontOccupancy,
}

impl HistogramId {
    /// Every histogram, in export order.
    pub const ALL: [HistogramId; 5] = [
        HistogramId::Examined,
        HistogramId::RtoTicks,
        HistogramId::CuckooInsertKicks,
        HistogramId::CwndBytes,
        HistogramId::FrontOccupancy,
    ];

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::Examined => "examined",
            HistogramId::RtoTicks => "rto_ticks",
            HistogramId::CuckooInsertKicks => "cuckoo_insert_kicks",
            HistogramId::CwndBytes => "cwnd_bytes",
            HistogramId::FrontOccupancy => "front_occupancy",
        }
    }
}

impl core::fmt::Display for HistogramId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Event-ring capacity of a [`Telemetry`] store.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// The telemetry store: fixed counter and histogram arrays plus the
/// pre-allocated event ring, recorded into through `&mut self`.
///
/// This is what a single-threaded owner — a `tcpdemux-stack` `Stack`,
/// standalone or one shard of K — holds by value: recording is plain
/// stores into fixed arrays, with no lock and no allocation. Code that
/// has to share one store between several writers wraps it in a
/// [`Recorder`], whose methods forward to these.
#[derive(Debug)]
pub struct Telemetry {
    counters: Counters,
    histograms: [Histogram; HistogramId::ALL.len()],
    ring: EventRing,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An empty store whose event ring holds the most recent
    /// [`DEFAULT_RING_CAPACITY`] events.
    pub fn new() -> Self {
        Self {
            counters: Counters::new(),
            histograms: std::array::from_fn(|_| Histogram::new()),
            ring: EventRing::with_capacity(DEFAULT_RING_CAPACITY),
        }
    }

    /// Add `delta` to a counter.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters.add(id, delta);
    }

    /// Record one sample into a histogram.
    pub fn observe(&mut self, id: HistogramId, value: u32) {
        self.histograms[id as usize].record(value);
    }

    /// Record a structured event and bump its correlated counters and
    /// histograms. Every event kind maps to exactly one counter family,
    /// here and nowhere else, so the counters, histograms and trace can
    /// never drift apart.
    pub fn event(&mut self, event: Event) {
        match event {
            Event::DemuxHit {
                examined,
                cache_hit,
            } => {
                self.counters.incr(CounterId::Lookups);
                self.counters.incr(CounterId::DemuxHits);
                self.counters
                    .add(CounterId::PcbsExamined, u64::from(examined));
                if cache_hit {
                    self.counters.incr(CounterId::CacheHits);
                }
                self.histograms[HistogramId::Examined as usize].record(examined);
            }
            Event::DemuxMiss { examined } => {
                self.counters.incr(CounterId::Lookups);
                self.counters.incr(CounterId::DemuxMisses);
                self.counters
                    .add(CounterId::PcbsExamined, u64::from(examined));
                self.histograms[HistogramId::Examined as usize].record(examined);
            }
            Event::ConnOpen => self.counters.incr(CounterId::ConnOpened),
            Event::ConnClose { cause } => {
                self.counters.incr(CounterId::ConnClosed);
                if cause != CloseCause::Graceful {
                    self.counters.incr(CounterId::ConnAborted);
                }
            }
            Event::Retransmit { .. } => self.counters.incr(CounterId::Retransmits),
            Event::RtoBackoff { rto_ticks, .. } => {
                self.counters.incr(CounterId::RtoBackoffs);
                self.histograms[HistogramId::RtoTicks as usize]
                    .record(u32::try_from(rto_ticks).unwrap_or(u32::MAX));
            }
            Event::Timeout => self.counters.incr(CounterId::TimeoutAborts),
            Event::FastRetransmit { .. } => self.counters.incr(CounterId::FastRetransmits),
            Event::DelayedAck => self.counters.incr(CounterId::DelayedAcks),
            Event::ZeroWindowProbe => self.counters.incr(CounterId::ZeroWindowProbes),
            Event::RwndStall => self.counters.incr(CounterId::RwndStalls),
        }
        self.ring.push(event);
    }

    /// Record the outcome of one demultiplexer lookup: `examined` PCBs
    /// touched, whether a PCB was `found`, and whether a one-entry
    /// `cache_hit` answered it. Shorthand for the matching
    /// [`Event::DemuxHit`]/[`Event::DemuxMiss`].
    pub fn demux_lookup(&mut self, examined: u32, found: bool, cache_hit: bool) {
        self.event(if found {
            Event::DemuxHit {
                examined,
                cache_hit,
            }
        } else {
            Event::DemuxMiss { examined }
        });
    }

    /// Record one cuckoo insert: `kicks` entries displaced to their
    /// alternate bucket on the way to a vacancy (sampled into the
    /// `cuckoo_insert_kicks` histogram), and whether the bounded search
    /// failed outright (`eviction_loop`, forcing a grow-and-rehash).
    pub fn cuckoo_insert(&mut self, kicks: u32, eviction_loop: bool) {
        self.counters.add(CounterId::CuckooKicks, u64::from(kicks));
        if eviction_loop {
            self.counters.incr(CounterId::CuckooEvictionLoops);
        }
        self.histograms[HistogramId::CuckooInsertKicks as usize].record(kicks);
    }

    /// An owned, independent copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::assemble(
            self.counters,
            self.histograms.clone(),
            self.ring.to_vec(),
            self.ring.recorded(),
            self.ring.dropped(),
        )
    }

    /// Zero every counter and histogram and empty the event ring
    /// (allocations are kept). Used between warm-up and measured runs.
    pub fn reset(&mut self) {
        self.counters.reset();
        for h in &mut self.histograms {
            *h = Histogram::new();
        }
        self.ring.reset();
    }
}

/// The cloneable `&self` handle to a shared [`Telemetry`] store.
///
/// Clones share one underlying store, so a [`Recorder`] can be handed to
/// a demux suite entry, the table it wraps and a bench harness at the
/// same time and all three record into the same snapshot. Every method
/// takes an uncontended mutex and forwards to the store's method of the
/// same name — it never allocates in steady state (a test under `tests/`
/// pins this with a counting allocator).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<Telemetry>>,
}

impl Recorder {
    /// A handle to a fresh, empty store ([`Telemetry::new`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Telemetry> {
        // Recording never panics while holding the lock, so poisoning
        // cannot arise from this crate; recover rather than propagate.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// [`Telemetry::add`] on the shared store.
    pub fn add(&self, id: CounterId, delta: u64) {
        self.lock().add(id, delta);
    }

    /// Increment a counter by one.
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// [`Telemetry::observe`] on the shared store.
    pub fn observe(&self, id: HistogramId, value: u32) {
        self.lock().observe(id, value);
    }

    /// [`Telemetry::event`] on the shared store.
    pub fn event(&self, event: Event) {
        self.lock().event(event);
    }

    /// [`Telemetry::demux_lookup`] on the shared store.
    pub fn demux_lookup(&self, examined: u32, found: bool, cache_hit: bool) {
        self.lock().demux_lookup(examined, found, cache_hit);
    }

    /// [`Telemetry::cuckoo_insert`] on the shared store: one lock
    /// acquisition for all three updates.
    pub fn cuckoo_insert(&self, kicks: u32, eviction_loop: bool) {
        self.lock().cuckoo_insert(kicks, eviction_loop);
    }

    /// [`Telemetry::snapshot`] of the shared store.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().snapshot()
    }

    /// [`Telemetry::reset`] on the shared store.
    pub fn reset(&self) {
        self.lock().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_ids_are_indexed_in_order() {
        for (i, id) in HistogramId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i, "{id} out of order in ALL");
        }
    }

    #[test]
    fn demux_lookup_updates_counters_histogram_and_trace() {
        let r = Recorder::new();
        r.demux_lookup(3, true, false);
        r.demux_lookup(19, true, true);
        r.demux_lookup(40, false, false);
        let snap = r.snapshot();
        assert_eq!(snap.counter(CounterId::Lookups), 3);
        assert_eq!(snap.counter(CounterId::DemuxHits), 2);
        assert_eq!(snap.counter(CounterId::DemuxMisses), 1);
        assert_eq!(snap.counter(CounterId::CacheHits), 1);
        assert_eq!(snap.counter(CounterId::PcbsExamined), 62);
        let h = snap.histogram(HistogramId::Examined);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 40);
        assert_eq!(snap.events().len(), 3);
    }

    #[test]
    fn lifecycle_events_feed_their_counters() {
        let r = Recorder::new();
        r.event(Event::ConnOpen);
        r.event(Event::ConnClose {
            cause: CloseCause::Graceful,
        });
        r.event(Event::ConnClose {
            cause: CloseCause::Timeout,
        });
        r.event(Event::Retransmit { attempt: 1 });
        r.event(Event::RtoBackoff {
            attempts: 1,
            rto_ticks: 16,
        });
        r.event(Event::Timeout);
        let snap = r.snapshot();
        assert_eq!(snap.counter(CounterId::ConnOpened), 1);
        assert_eq!(snap.counter(CounterId::ConnClosed), 2);
        assert_eq!(snap.counter(CounterId::ConnAborted), 1);
        assert_eq!(snap.counter(CounterId::Retransmits), 1);
        assert_eq!(snap.counter(CounterId::RtoBackoffs), 1);
        assert_eq!(snap.counter(CounterId::TimeoutAborts), 1);
        assert_eq!(snap.histogram(HistogramId::RtoTicks).count(), 1);
        assert_eq!(snap.histogram(HistogramId::RtoTicks).max(), 16);
        assert_eq!(snap.events_recorded(), 6);
    }

    #[test]
    fn clones_share_the_store_and_reset_clears_it() {
        let r = Recorder::new();
        let handle = r.clone();
        handle.observe(HistogramId::RtoTicks, 32);
        handle.incr(CounterId::Lookups);
        assert_eq!(r.snapshot().counter(CounterId::Lookups), 1);
        assert_eq!(r.snapshot().histogram(HistogramId::RtoTicks).max(), 32);
        r.reset();
        let snap = handle.snapshot();
        assert_eq!(snap.counter(CounterId::Lookups), 0);
        assert!(snap.histogram(HistogramId::RtoTicks).is_empty());
        assert_eq!(snap.events_recorded(), 0);
    }

    #[test]
    fn cuckoo_insert_updates_counters_and_histogram() {
        let r = Recorder::new();
        r.cuckoo_insert(0, false);
        r.cuckoo_insert(3, false);
        r.cuckoo_insert(0, true);
        let snap = r.snapshot();
        assert_eq!(snap.counter(CounterId::CuckooKicks), 3);
        assert_eq!(snap.counter(CounterId::CuckooEvictionLoops), 1);
        let h = snap.histogram(HistogramId::CuckooInsertKicks);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn owned_store_and_shared_handle_export_the_same_bytes() {
        let mut owned = Telemetry::new();
        let shared = Recorder::new();
        for i in 0..300u32 {
            // More events than the ring holds, so the trace wraps too.
            owned.demux_lookup(i % 41, i % 7 != 0, i % 3 == 0);
            shared.demux_lookup(i % 41, i % 7 != 0, i % 3 == 0);
        }
        for event in [
            Event::ConnOpen,
            Event::Retransmit { attempt: 2 },
            Event::RtoBackoff {
                attempts: 2,
                rto_ticks: 400,
            },
            Event::FastRetransmit { dup_acks: 3 },
            Event::DelayedAck,
            Event::ZeroWindowProbe,
            Event::RwndStall,
            Event::Timeout,
            Event::ConnClose {
                cause: CloseCause::Timeout,
            },
        ] {
            owned.event(event);
            shared.event(event);
        }
        owned.observe(HistogramId::CwndBytes, 8760);
        shared.observe(HistogramId::CwndBytes, 8760);
        owned.add(CounterId::FrontRejects, 5);
        shared.add(CounterId::FrontRejects, 5);
        owned.cuckoo_insert(4, true);
        shared.cuckoo_insert(4, true);
        assert_eq!(
            owned.snapshot().to_json_lines(),
            shared.snapshot().to_json_lines()
        );
        owned.reset();
        shared.reset();
        assert_eq!(owned.snapshot(), shared.snapshot());
        assert_eq!(owned.snapshot(), Snapshot::empty());
    }

    #[test]
    fn snapshot_is_independent_of_later_recording() {
        let r = Recorder::new();
        r.incr(CounterId::Lookups);
        let snap = r.snapshot();
        r.incr(CounterId::Lookups);
        assert_eq!(snap.counter(CounterId::Lookups), 1);
        assert_eq!(r.snapshot().counter(CounterId::Lookups), 2);
    }
}
