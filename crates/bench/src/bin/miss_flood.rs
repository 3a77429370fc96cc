//! A10 — miss-flood lookup cost vs. hit ratio, 10k → 10M connections.
//!
//! The paper's workloads never miss: every arriving packet belongs to a
//! live connection, so Figure 13's cost model only prices the *hit*
//! path (mean N/2H examined for a chained table). A middlebox — an IPS
//! watching a span port, a NAT under scan traffic, a server during a
//! SYN flood — sees the opposite: most lookups miss, and a chained
//! structure pays its worst case N/H for each one, walking the entire
//! chain to prove absence. This sweep measures that asymmetry directly
//! and shows what the fingerprint front filter does about it.
//!
//! For each population N and hit ratio, a lookup cell probes an evenly
//! interleaved mix of established keys (hits) and never-inserted keys
//! (misses) through four tiers:
//!
//! * `sequent(19)` — the paper's chained table: hits cost N/38, misses
//!   N/19, so cost *rises* as the hit ratio falls;
//! * `front+sequent(19)` — the same table behind the front filter:
//!   misses die in one or two 64-bit filter words, so cost *falls*
//!   toward a flat floor as the hit ratio drops;
//! * `cuckoo` — already miss-proof (≤ 2 tag-filtered buckets per probe),
//!   the bound the filter is trying to buy for chained tiers;
//! * `front+cuckoo` — measures the filter's overhead when the backing
//!   tier never needed it (the 100%-hit column is pure filter tax).
//!
//! The headline is the 0%-hit column: bare `sequent(19)` degrades
//! linearly in N while `front+sequent(19)` stays near-flat, ≥ 10× ahead
//! by N = 1M. `tests/front_filter.rs` fires the collision-crafted
//! version of the flood at the same two tiers.
//!
//! `TCPDEMUX_SMOKE=1` caps the *actual* population at 20k keys while
//! keeping nominal N in every label, so `scripts/verify.sh` can validate
//! the label set against the checked-in `BENCH_miss_flood.json` in
//! seconds. Pass `--json <path>` to write the snapshot.

use std::time::Instant;
use tcpdemux_bench::harness::{bb, maybe_write_json, record, smoke, Measurement};
use tcpdemux_core::PacketKind;
use tcpdemux_core::{CuckooDemux, Demux, FrontDemux, SequentDemux};
use tcpdemux_hash::quality::tpca_key_population;
use tcpdemux_hash::Multiplicative;
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// Nominal population sizes — part of every label regardless of smoke.
const POPULATIONS: [usize; 4] = [10_000, 100_000, 1_000_000, 10_000_000];

/// Hit ratios swept per (tier, N), in percent.
const HIT_RATIOS: [usize; 5] = [0, 25, 50, 75, 100];

/// Distinct probe keys a cell cycles through (hits and misses combined).
const LOOKUP_SAMPLE: usize = 65_536;

/// Per-sample element-visit budget: the measured lookup count shrinks as
/// expected per-lookup visits grow, so a cell costs roughly constant
/// wall time whether it is walking 19-deep chains or rejecting in one
/// filter word.
const VISIT_BUDGET: usize = 500_000_000;

/// One tier: how to build it cold for N established connections, and
/// its expected element visits per lookup as a function of (N, hit%) —
/// the cost model that sizes each cell's sample count.
struct Tier {
    name: &'static str,
    build: fn(&[ConnectionKey]) -> Box<dyn Demux>,
    visits: fn(usize, usize) -> f64,
}

/// Fabricated PCB id for key index `i` — the sweep measures the lookup
/// structures, not the arena.
fn id_for(i: usize) -> PcbId {
    PcbId::from_bits(i as u64)
}

fn sequent_preloaded(keys: &[ConnectionKey]) -> SequentDemux<Multiplicative> {
    let mut demux = SequentDemux::new(Multiplicative, 19);
    for (i, &key) in keys.iter().enumerate() {
        demux.preload(key, id_for(i));
    }
    demux
}

fn cuckoo_built(keys: &[ConnectionKey]) -> CuckooDemux {
    let mut demux = CuckooDemux::new();
    for (i, &key) in keys.iter().enumerate() {
        demux.insert(key, id_for(i));
    }
    demux
}

/// Chained-tier visit model: hits stop halfway down a chain (N/2H),
/// misses walk the whole chain (N/H).
fn chained_visits(n: usize, hit_pct: usize) -> f64 {
    let hit = hit_pct as f64 / 100.0;
    let chain = (n as f64 / 19.0).max(1.0);
    hit * chain / 2.0 + (1.0 - hit) * chain
}

/// Front-filtered chained tier: hits still walk half a chain (plus a
/// filter probe), misses cost one filter probe.
fn front_chained_visits(n: usize, hit_pct: usize) -> f64 {
    let hit = hit_pct as f64 / 100.0;
    let chain = (n as f64 / 19.0).max(1.0);
    (hit * chain / 2.0 + (1.0 - hit)).max(1.0)
}

/// Bounded-probe tiers examine O(1) regardless of N or hit ratio.
fn flat_visits(_n: usize, _hit_pct: usize) -> f64 {
    2.0
}

fn tiers() -> Vec<Tier> {
    vec![
        Tier {
            name: "sequent(19)",
            build: |keys| Box::new(sequent_preloaded(keys)),
            visits: chained_visits,
        },
        Tier {
            name: "front+sequent(19)",
            build: |keys| Box::new(FrontDemux::with_preloaded(sequent_preloaded(keys), keys)),
            visits: front_chained_visits,
        },
        Tier {
            name: "cuckoo",
            build: |keys| Box::new(cuckoo_built(keys)),
            visits: flat_visits,
        },
        Tier {
            name: "front+cuckoo",
            build: |keys| Box::new(FrontDemux::with_preloaded(cuckoo_built(keys), keys)),
            visits: flat_visits,
        },
    ]
}

fn reps() -> usize {
    if smoke() {
        2
    } else {
        5
    }
}

/// The probe sequence for one (N, hit%) cell: `LOOKUP_SAMPLE` keys with
/// exactly `hit_pct`% drawn from the established population (striding so
/// consecutive probes never share a chain) and the rest from a disjoint
/// key range that was never inserted, evenly interleaved by Bresenham so
/// hits and misses mix at fine grain rather than running in blocks.
fn probe_keys(
    established: &[ConnectionKey],
    misses: &[ConnectionKey],
    hit_pct: usize,
) -> Vec<ConnectionKey> {
    (0..LOOKUP_SAMPLE)
        .map(|i| {
            let is_hit = (i * hit_pct) / 100 != ((i + 1) * hit_pct) / 100;
            let stride = i.wrapping_mul(7919) + 13;
            if is_hit {
                established[stride % established.len()]
            } else {
                misses[stride % misses.len()]
            }
        })
        .collect()
}

fn lookup_cell(
    label: &str,
    demux: &mut dyn Demux,
    probes: &[ConnectionKey],
    per_sample: usize,
) -> Measurement {
    let mut cursor = 0usize;
    let samples: Vec<f64> = (0..reps())
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_sample {
                bb(demux.lookup(bb(&probes[cursor]), PacketKind::Data));
                cursor = (cursor + 1) % probes.len();
            }
            start.elapsed().as_nanos() as f64 / per_sample as f64
        })
        .collect();
    let m = Measurement::from_samples(label, &samples, per_sample as u64);
    println!(
        "{:<52} {:>10.1} ns/lookup  (min {:>8.1}, {} lookups/sample)",
        m.label, m.median_ns, m.min_ns, per_sample
    );
    record(m.clone());
    m
}

fn main() {
    let cap = if smoke() { 20_000 } else { usize::MAX };
    println!("A10: miss-flood lookup cost vs. hit ratio, N = 10k..10M");
    if smoke() {
        println!("(smoke: populations capped at {cap} keys; labels keep nominal N)");
    }
    println!();

    // Headline numbers for the closing crossover summary:
    // (nominal N) -> (bare sequent ns, front+sequent ns) at 0% hit.
    let mut zero_hit: Vec<(usize, f64, f64)> = Vec::new();

    for &n in &POPULATIONS {
        let actual = n.min(cap);
        // One contiguous population; the first `actual` keys are
        // established, the tail exists only to be looked up and missed.
        let all = tpca_key_population(actual + LOOKUP_SAMPLE);
        let (established, misses) = all.split_at(actual);
        for tier in tiers() {
            let mut demux = (tier.build)(established);
            debug_assert_eq!(demux.name(), tier.name);
            let mut zero_ns = None;
            for &hit in &HIT_RATIOS {
                let probes = probe_keys(established, misses, hit);
                // Size the sample so each cell costs ~VISIT_BUDGET
                // element visits under the tier's cost model (nominal
                // N, so smoke runs stay fast *and* keep real labels).
                let expected = (tier.visits)(actual, hit).max(1.0);
                let per_sample =
                    ((VISIT_BUDGET as f64 / expected) as usize).clamp(1_024, LOOKUP_SAMPLE);
                let label = format!("miss_flood/lookup/n={n}/hit={hit}/{}", tier.name);
                let m = lookup_cell(&label, demux.as_mut(), &probes, per_sample);
                if hit == 0 {
                    zero_ns = Some(m.median_ns);
                }
            }
            match tier.name {
                "sequent(19)" => zero_hit.push((n, zero_ns.unwrap_or(f64::NAN), f64::NAN)),
                "front+sequent(19)" => {
                    if let Some(last) = zero_hit.last_mut() {
                        last.2 = zero_ns.unwrap_or(f64::NAN);
                    }
                }
                _ => {}
            }
        }
        println!();
    }

    println!("crossover (0% hit — pure miss flood):");
    for &(n, bare, front) in &zero_hit {
        println!(
            "  n={n:<10} sequent(19) {bare:>10.1} ns   front+sequent(19) {front:>8.1} ns   ({:.0}x)",
            bare / front
        );
    }

    maybe_write_json(
        "miss_flood",
        0,
        &[
            ("populations", "10k/100k/1M/10M"),
            ("hit_ratios", "0/25/50/75/100%"),
            ("tiers", "sequent(19)/front+sequent(19)/cuckoo/front+cuckoo"),
            ("lookup_sample", "65536"),
            ("visit_budget", "500000000"),
        ],
    );
}
