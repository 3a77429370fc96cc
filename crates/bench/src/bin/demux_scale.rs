//! F13 extension — demux cost vs. connection count, 10k → 10M.
//!
//! The paper's Figure 13 stops at 10,000 connections, where hashing with
//! a sane chain count already wins by an order of magnitude. This sweep
//! extends the axis three more decades to show *why the cuckoo tier
//! exists*: any chained scheme with a fixed chain count H degrades as
//! N/H once N outgrows H, while the cuckoo table's bounded two-bucket
//! probe stays flat (it grows instead of letting chains stretch). Three
//! tiers per population size:
//!
//! * `sequent(19)` — the paper's configuration, honest about what happens
//!   when the workload outgrows the table it was tuned for;
//! * `sequent(499)` — a generously re-tuned chain count, which only moves
//!   the knee one decade out;
//! * `cuckoo` — tag-filtered buckets, ≤ 2 cache lines per probe at any N.
//!
//! Cells per (tier, N): `build` (ns per installed connection for a cold
//! build of the full population — chained tiers via their distinct-key
//! `preload` path, cuckoo via its ordinary insert, so its number includes
//! kicks and growth rehashes) and `lookup` (ns per random
//! established-connection lookup).
//!
//! `TCPDEMUX_SMOKE=1` caps the *actual* population at 20k keys while
//! keeping the nominal N in every label, so `scripts/verify.sh` can
//! validate the full label set against the checked-in
//! `BENCH_demux_scale.json` in seconds; smoke numbers are for schema
//! checking only, never for the snapshot. Pass `--json <path>` to write
//! the snapshot.

use std::time::Instant;
use tcpdemux_bench::harness::{bb, maybe_write_json, record, smoke, Measurement};
use tcpdemux_core::{CuckooDemux, Demux, PacketKind, SequentDemux};
use tcpdemux_hash::quality::tpca_key_population;
use tcpdemux_hash::Multiplicative;
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// Nominal population sizes — the figure's x axis, and part of every
/// label regardless of smoke mode.
const POPULATIONS: [usize; 4] = [10_000, 100_000, 1_000_000, 10_000_000];

/// Cap on distinct keys a lookup cell cycles through (one full L2-busting
/// working set; larger adds nothing but key-array cache misses).
const LOOKUP_SAMPLE: usize = 65_536;

/// Per-sample element-visit budget for chained tiers: the number of
/// measured lookups shrinks as chains stretch so a cell costs roughly
/// constant wall time instead of scaling as N.
const VISIT_BUDGET: usize = 500_000_000;

fn reps() -> usize {
    if smoke() {
        2
    } else {
        5
    }
}

/// The three tiers, built fresh per (tier, N) cell and dropped before the
/// next so peak memory stays one-table-sized. `chains` drives the lookup
/// budget for chained tiers; `None` means O(1) probes (cuckoo).
///
/// `populate` is each tier's install-N-distinct-connections path: the
/// chained tiers use [`SequentDemux::preload`] (the trait insert's
/// duplicate scan makes a distinct-key cold build O(N²/chains) — hours at
/// 10M), the cuckoo tier its ordinary insert, whose duplicate check is
/// already O(1). Both therefore measure the same thing: installing a
/// connection the handshake has proved new.
struct Tier {
    name: &'static str,
    chains: Option<usize>,
    populate: fn(&[ConnectionKey]) -> Box<dyn Demux>,
}

fn preloaded(chains: usize, keys: &[ConnectionKey]) -> Box<dyn Demux> {
    let mut demux = SequentDemux::new(Multiplicative, chains);
    for (i, &key) in keys.iter().enumerate() {
        demux.preload(key, id_for(i));
    }
    Box::new(demux)
}

fn tiers() -> Vec<Tier> {
    vec![
        Tier {
            name: "sequent(19)",
            chains: Some(19),
            populate: |keys| preloaded(19, keys),
        },
        Tier {
            name: "sequent(499)",
            chains: Some(499),
            populate: |keys| preloaded(499, keys),
        },
        Tier {
            name: "cuckoo",
            chains: None,
            populate: |keys| {
                let mut demux = CuckooDemux::new();
                for (i, &key) in keys.iter().enumerate() {
                    demux.insert(key, id_for(i));
                }
                Box::new(demux)
            },
        },
    ]
}

/// Fabricated PCB id for key index `i` — the sweep measures the demux
/// structures, not the arena, so ids are minted directly from bits.
fn id_for(i: usize) -> PcbId {
    PcbId::from_bits(i as u64)
}

/// Indices striding pseudo-randomly through `n` keys: consecutive
/// lookups never hit the same chain or bucket twice, so the measured
/// cost includes the cache misses a real interleaved workload pays.
fn sample_indices(n: usize) -> Vec<usize> {
    let count = LOOKUP_SAMPLE.min(n);
    (0..count)
        .map(|i| (i.wrapping_mul(7919) + 13) % n)
        .collect()
}

fn build_cell(
    label: &str,
    keys: &[ConnectionKey],
    populate: fn(&[ConnectionKey]) -> Box<dyn Demux>,
) -> Box<dyn Demux> {
    let mut samples = Vec::with_capacity(reps());
    let mut built = None;
    for _ in 0..reps() {
        let start = Instant::now();
        let demux = populate(keys);
        samples.push(start.elapsed().as_nanos() as f64 / keys.len() as f64);
        built = Some(demux);
    }
    let m = Measurement::from_samples(label, &samples, keys.len() as u64);
    println!(
        "{:<44} {:>10.1} ns/insert  (min {:>8.1}, {} reps)",
        m.label, m.median_ns, m.min_ns, m.samples
    );
    record(m);
    built.expect("at least one rep")
}

fn lookup_cell(label: &str, demux: &mut dyn Demux, keys: &[ConnectionKey], per_sample: usize) {
    let indices = sample_indices(keys.len());
    let mut cursor = 0usize;
    let samples: Vec<f64> = (0..reps())
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_sample {
                let key = &keys[indices[cursor]];
                bb(demux.lookup(bb(key), PacketKind::Data));
                cursor = (cursor + 1) % indices.len();
            }
            start.elapsed().as_nanos() as f64 / per_sample as f64
        })
        .collect();
    let m = Measurement::from_samples(label, &samples, per_sample as u64);
    println!(
        "{:<44} {:>10.1} ns/lookup  (min {:>8.1}, {} lookups/sample)",
        m.label, m.median_ns, m.min_ns, per_sample
    );
    record(m);
}

/// Lookups per timed sample for a chained tier: enough to be stable,
/// shrunk so sample cost ≈ VISIT_BUDGET element visits as chains stretch.
fn per_sample_for(chains: Option<usize>, n: usize) -> usize {
    match chains {
        None => LOOKUP_SAMPLE,
        Some(c) => {
            let mean_visits = (n / (2 * c)).max(1);
            (VISIT_BUDGET / mean_visits).clamp(1_024, LOOKUP_SAMPLE)
        }
    }
}

fn main() {
    let cap = if smoke() { 20_000 } else { usize::MAX };
    println!("F13 extension: demux cost vs. connections, N = 10k..10M");
    if smoke() {
        println!("(smoke: populations capped at {cap} keys; labels keep nominal N)");
    }
    println!();

    for &n in &POPULATIONS {
        let actual = n.min(cap);
        let keys = tpca_key_population(actual);
        for tier in tiers() {
            // Build fresh (timed), then measure lookups on the last build;
            // one live table at a time bounds peak memory.
            let name = tier.name;
            let mut demux = build_cell(
                &format!("demux_scale/build/n={n}/{name}"),
                &keys,
                tier.populate,
            );
            debug_assert_eq!(demux.name(), name);
            lookup_cell(
                &format!("demux_scale/lookup/n={n}/{name}"),
                demux.as_mut(),
                &keys,
                per_sample_for(tier.chains, actual),
            );
        }
        println!();
    }

    maybe_write_json(
        "demux_scale",
        0,
        &[
            ("populations", "10000/100000/1000000/10000000"),
            ("tiers", "sequent(19)/sequent(499)/cuckoo"),
            ("lookup_sample", "65536"),
        ],
    );
}
