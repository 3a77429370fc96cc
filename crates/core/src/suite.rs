//! The standard suite of algorithms, for experiments that compare them all.

use crate::{ChainPolicy, Demux, DirectDemux, SendRecvDemux, SequentDemux};
use tcpdemux_hash::Multiplicative;
use tcpdemux_telemetry::Recorder;

/// A named algorithm instance in a comparison suite.
///
/// The display name is captured from [`Demux::name`] once, at construction
/// time, so suites carry their labels with them — there is no parallel
/// name list to drift out of sync, and reports keep the label the entry
/// was built with even for structures whose `name()` changes as they
/// resize (e.g. [`crate::AdaptiveDemux`]).
///
/// Each entry also carries its own telemetry [`Recorder`]. Harnesses feed
/// it per-lookup outcomes (the simulator does this for every arrival) and
/// read per-algorithm snapshots back without any side table keyed by name.
pub struct SuiteEntry {
    /// Display name for reports, captured at construction time.
    pub name: String,
    /// The algorithm instance.
    pub demux: Box<dyn Demux>,
    /// Telemetry recorder dedicated to this entry.
    pub recorder: Recorder,
}

impl SuiteEntry {
    /// Wrap a demultiplexer, capturing its current name for reports and
    /// giving it a fresh telemetry recorder.
    pub fn new(demux: Box<dyn Demux>) -> Self {
        Self {
            name: demux.name(),
            demux,
            recorder: Recorder::new(),
        }
    }
}

impl<D: Demux + 'static> From<D> for SuiteEntry {
    fn from(demux: D) -> Self {
        Self::new(Box::new(demux))
    }
}

/// Build one instance of every algorithm the paper compares, with the
/// Sequent structure at its default 19 chains plus the 51- and 100-chain
/// variants discussed in §3.4–3.5.
///
/// The hashed structures use [`Multiplicative`] hashing: the paper's
/// analysis assumes well-balanced chains ("efficient hash functions for
/// protocol addresses are well known"), and multiplicative hashing
/// delivers that balance even on the correlated address/port populations
/// real client farms produce. The cheaper XOR-fold's behaviour on such
/// populations is measured separately in `tcpdemux-hash`'s quality
/// experiments.
pub fn standard_suite() -> Vec<SuiteEntry> {
    vec![
        SequentDemux::bsd().into(),
        SequentDemux::mtf().into(),
        SendRecvDemux::new().into(),
        SequentDemux::new(Multiplicative, 19).into(),
        SequentDemux::new(Multiplicative, 51).into(),
        SequentDemux::new(Multiplicative, 100).into(),
        SequentDemux::with_policy(Multiplicative, 19, ChainPolicy::MoveToFront).into(),
        DirectDemux::new().into(),
        cuckoo_entry(),
        front_sequent_entry(),
        front_cuckoo_entry(),
    ]
}

/// The cuckoo tier needs its telemetry [`Recorder`] at construction time
/// (insert-path kicks and eviction loops are recorded as they happen, not
/// polled), so its entry shares one recorder between the structure and
/// the suite slot.
fn cuckoo_entry() -> SuiteEntry {
    let recorder = Recorder::new();
    let demux = crate::CuckooDemux::new().with_recorder(recorder.clone());
    SuiteEntry {
        name: demux.name(),
        demux: Box::new(demux),
        recorder,
    }
}

/// The front-filtered Sequent tier. Like [`cuckoo_entry`], the wrapper
/// records insert/lookup-path telemetry (rejects, false positives,
/// occupancy) as it happens, so the entry shares one recorder between
/// the structure and the suite slot.
fn front_sequent_entry() -> SuiteEntry {
    let recorder = Recorder::new();
    let demux = crate::FrontDemux::new(SequentDemux::new(Multiplicative, 19))
        .with_recorder(recorder.clone());
    SuiteEntry {
        name: demux.name(),
        demux: Box::new(demux),
        recorder,
    }
}

/// The front-filtered cuckoo tier; inner and wrapper share the entry's
/// recorder so both kick and reject telemetry land in one snapshot.
fn front_cuckoo_entry() -> SuiteEntry {
    let recorder = Recorder::new();
    let demux = crate::FrontDemux::new(crate::CuckooDemux::new().with_recorder(recorder.clone()))
        .with_recorder(recorder.clone());
    SuiteEntry {
        name: demux.name(),
        demux: Box::new(demux),
        recorder,
    }
}

/// [`standard_suite`] plus this crate's extensions beyond the paper:
/// the self-resizing hashed structure (load factor 8).
pub fn extended_suite() -> Vec<SuiteEntry> {
    let mut suite = standard_suite();
    suite.push(crate::AdaptiveDemux::new(Multiplicative, 19, 8).into());
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util;

    #[test]
    fn suite_contains_all_paper_algorithms() {
        let names: Vec<String> = standard_suite().into_iter().map(|e| e.name).collect();
        for expected in [
            "bsd",
            "mtf",
            "send-recv",
            "sequent(19)",
            "sequent(51)",
            "sequent(100)",
            "hashed-mtf(19)",
            "direct-index",
            "cuckoo",
            "front+sequent(19)",
            "front+cuckoo",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn entry_name_matches_demux_name_at_construction() {
        for entry in standard_suite() {
            assert_eq!(entry.name, entry.demux.name());
        }
    }

    #[test]
    fn suite_members_satisfy_contract() {
        for entry in standard_suite() {
            test_util::check_contract(entry.demux);
        }
    }

    #[test]
    fn extended_suite_adds_adaptive() {
        let names: Vec<String> = extended_suite().into_iter().map(|e| e.name).collect();
        assert!(
            names.iter().any(|n| n.starts_with("adaptive(")),
            "{names:?}"
        );
        assert_eq!(names.len(), standard_suite().len() + 1);
        for entry in extended_suite() {
            test_util::check_contract(entry.demux);
        }
    }

    #[test]
    fn suite_members_agree_on_lookups() {
        // Equivalence: for any operation sequence, every algorithm returns
        // the same PCB (they differ only in cost).
        use crate::test_util::key;
        use crate::PacketKind;
        use tcpdemux_pcb::{Pcb, PcbArena};

        let mut arena = PcbArena::new();
        let mut suite = standard_suite();
        let ids: Vec<_> = (0..64u32).map(|i| arena.insert(Pcb::new(key(i)))).collect();
        for (i, &id) in ids.iter().enumerate() {
            for entry in suite.iter_mut() {
                entry.demux.insert(key(i as u32), id);
            }
        }
        // Pseudo-random probe sequence, including misses and removals.
        let mut state = 0x12345u32;
        for step in 0..2000 {
            state = state.wrapping_mul(1103515245).wrapping_add(12345);
            let probe = (state >> 8) % 80; // 64 live + 16 misses
            let kind = if state & 1 == 0 {
                PacketKind::Data
            } else {
                PacketKind::Ack
            };
            let results: Vec<_> = suite
                .iter_mut()
                .map(|e| e.demux.lookup(&key(probe), kind).pcb)
                .collect();
            for w in results.windows(2) {
                assert_eq!(w[0], w[1], "step {step}, probe {probe}");
            }
            if step % 97 == 0 {
                let victim = (state >> 16) % 64;
                let removed: Vec<_> = suite
                    .iter_mut()
                    .map(|e| e.demux.remove(&key(victim)))
                    .collect();
                for w in removed.windows(2) {
                    assert_eq!(w[0], w[1]);
                }
            }
        }
    }
}
