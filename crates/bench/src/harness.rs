//! A dependency-free wall-clock benchmark harness.
//!
//! This is the default measurement path for every `benches/*` target, so
//! `cargo bench` works fully offline. It is deliberately simple: each
//! benchmark is auto-calibrated so one sample runs long enough to be
//! timeable, several samples are taken, and the **median** ns/op is
//! reported (the median is robust to scheduler noise; criterion's
//! bootstrap machinery refines the same idea). The p10/p90 spread is
//! kept alongside so a regression can be told apart from noise.
//!
//! The `bench-ext` feature lengthens samples and takes more of them for
//! lower-variance numbers (and is the hook under which an optional
//! criterion integration can be restored on a networked machine — see
//! the manifest comment in `crates/bench/Cargo.toml`). Setting
//! `TCPDEMUX_SMOKE=1` goes the other way: samples shrink to microseconds
//! so CI can exercise every bench body end to end in seconds.
//!
//! # The `BENCH_*.json` perf-trajectory pipeline
//!
//! Every measurement taken through [`bench()`] (or handed in via
//! [`record`]) is collected; a bench `main` ends with
//! [`maybe_write_json`], which — when the binary was invoked with
//! `--json <path>` — drains the collection into a fixed-schema JSON
//! snapshot (`tcpdemux-bench/v1`: label, median/min/p10/p90 ns, iters,
//! samples, plus the run's seed and config). Snapshots generated in full
//! mode are checked in at the repo root as `BENCH_<name>.json`;
//! `scripts/verify.sh` re-runs the bins in smoke mode and diffs schema
//! and label sets against them, so a bin that silently drops a
//! measurement fails verify while machine-dependent numbers stay
//! uncompared.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Nanoseconds one calibrated sample should occupy.
#[cfg(not(feature = "bench-ext"))]
const TARGET_SAMPLE_NS: u128 = 2_000_000; // 2 ms
#[cfg(feature = "bench-ext")]
const TARGET_SAMPLE_NS: u128 = 20_000_000; // 20 ms

/// Number of timed samples per benchmark.
#[cfg(not(feature = "bench-ext"))]
const SAMPLES: usize = 9;
#[cfg(feature = "bench-ext")]
const SAMPLES: usize = 25;

/// Calibration may not spin longer than this (satellite fix: a
/// pathologically cheap body used to double `iters` toward 2^40 with no
/// wall-clock bound at all).
const CALIBRATION_BUDGET_NS: u128 = 200_000_000; // 200 ms

/// Hard ceiling on the calibrated per-sample iteration count.
const MAX_CALIBRATION_ITERS: u64 = 1 << 32;

/// Whether `TCPDEMUX_SMOKE` asks for a seconds-not-minutes run.
pub fn smoke() -> bool {
    std::env::var_os("TCPDEMUX_SMOKE").is_some()
}

fn target_sample_ns() -> u128 {
    if smoke() {
        50_000 // 50 µs: enough to exercise the body, cheap enough for CI
    } else {
        TARGET_SAMPLE_NS
    }
}

fn sample_count() -> usize {
    if smoke() {
        3
    } else {
        SAMPLES
    }
}

/// One benchmark's result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full label, e.g. `lookup/oltp/n=2000/sequent(19)`.
    pub label: String,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample's nanoseconds per iteration.
    pub min_ns: f64,
    /// 10th-percentile sample (ns per iteration).
    pub p10_ns: f64,
    /// 90th-percentile sample (ns per iteration) — the spread between
    /// p10 and p90 is the noise floor a regression must clear.
    pub p90_ns: f64,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Number of timed samples the statistics summarize.
    pub samples: usize,
}

impl Measurement {
    /// Summarize raw per-iteration sample timings (ns/op, one entry per
    /// sample) into a measurement. Used directly by bins that time their
    /// own samples (e.g. `demux_scale`'s per-size phases) instead of
    /// going through [`bench()`].
    pub fn from_samples(label: &str, samples_ns: &[f64], iters: u64) -> Self {
        assert!(!samples_ns.is_empty(), "need at least one sample");
        let mut sorted = samples_ns.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let quantile = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
        Self {
            label: label.to_string(),
            median_ns: sorted[sorted.len() / 2],
            min_ns: sorted[0],
            p10_ns: quantile(0.1),
            p90_ns: quantile(0.9),
            iters,
            samples: sorted.len(),
        }
    }

    fn print(&self) {
        println!(
            "{:<56} {:>12.1} ns/op   (min {:>10.1}, {} iters/sample, {} samples)",
            self.label, self.median_ns, self.min_ns, self.iters, self.samples
        );
    }
}

/// Measurements collected by [`bench`]/[`record`] for the current bin,
/// drained by [`maybe_write_json`].
static RECORDED: Mutex<Vec<Measurement>> = Mutex::new(Vec::new());

/// Add a measurement (produced outside [`bench()`], e.g. via
/// [`Measurement::from_samples`]) to the bin's JSON collection.
pub fn record(m: Measurement) {
    RECORDED.lock().unwrap().push(m);
}

/// Time `f`, auto-calibrated, print one result row, and collect the
/// measurement for the bin's JSON snapshot.
///
/// `f` is the body of one iteration; wrap inputs and outputs in
/// [`black_box`] at the call site exactly as with criterion.
pub fn bench(label: &str, mut f: impl FnMut()) -> Measurement {
    // Calibrate: grow the per-sample iteration count until one sample
    // takes at least the target, bounded by both an iteration ceiling
    // and a wall-clock budget so a near-zero-cost body cannot spin the
    // loop for minutes.
    let target = target_sample_ns();
    let calibration_start = Instant::now();
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= target
            || iters >= MAX_CALIBRATION_ITERS
            || calibration_start.elapsed().as_nanos() >= CALIBRATION_BUDGET_NS
        {
            break;
        }
        // Jump close to the target rather than strictly doubling once we
        // have signal, to keep calibration cheap.
        let factor = if elapsed == 0 {
            8
        } else {
            ((target / elapsed.max(1)) as u64 + 1).clamp(2, 8)
        };
        iters = iters.saturating_mul(factor).min(MAX_CALIBRATION_ITERS);
    }

    let per_iter: Vec<f64> = (0..sample_count())
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();

    let m = Measurement::from_samples(label, &per_iter, iters);
    m.print();
    record(m.clone());
    m
}

/// Print a section header, criterion-group style.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

/// Re-export so benches need no direct `std::hint` import.
pub use std::hint::black_box as bb;

/// Consume a value exactly like `criterion::black_box`.
pub fn sink<T>(value: T) -> T {
    black_box(value)
}

/// The `--json <path>` (or `--json=<path>`) argument, if the bin was
/// invoked with one. `cargo bench -- --json p` and
/// `cargo run --bin x -- --json p` both land the flag here.
pub fn json_path_from_args() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            return args.next();
        }
        if let Some(path) = arg.strip_prefix("--json=") {
            return Some(path.to_string());
        }
    }
    None
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the fixed `tcpdemux-bench/v1` snapshot schema. Hand-rolled —
/// the workspace is hermetic, so no serde — but the shape is validated
/// structurally by `scripts/check_bench_json.py` on every verify run.
fn render_json(
    bench: &str,
    seed: u64,
    config: &[(&str, &str)],
    measurements: &[Measurement],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"tcpdemux-bench/v1\",\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"smoke\": {},\n", smoke()));
    out.push_str("  \"config\": {");
    for (i, (k, v)) in config.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": \"{}\"",
            json_escape(k),
            json_escape(v)
        ));
    }
    if !config.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");
    out.push_str("  \"measurements\": [");
    for (i, m) in measurements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"label\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"p10_ns\": {:.1}, \"p90_ns\": {:.1}, \"iters\": {}, \"samples\": {}}}",
            json_escape(&m.label),
            m.median_ns,
            m.min_ns,
            m.p10_ns,
            m.p90_ns,
            m.iters,
            m.samples
        ));
    }
    if !measurements.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// If the bin was invoked with `--json <path>`, drain every measurement
/// collected so far into a `tcpdemux-bench/v1` snapshot at that path.
/// Call once at the end of a bench `main`.
pub fn maybe_write_json(bench: &str, seed: u64, config: &[(&str, &str)]) {
    let Some(path) = json_path_from_args() else {
        return;
    };
    let measurements = std::mem::take(&mut *RECORDED.lock().unwrap());
    let body = render_json(bench, seed, config, &measurements);
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "wrote {} measurement(s) to {path} (schema tcpdemux-bench/v1)",
        measurements.len()
    );
}

/// [`maybe_write_json`] for bins whose config values are computed at
/// runtime (counts, rates, formatted lists). Saves each bin the
/// identical build-owned-strings-then-borrow dance.
pub fn maybe_write_json_owned(bench: &str, seed: u64, config: &[(&str, String)]) {
    let borrowed: Vec<(&str, &str)> = config.iter().map(|(k, v)| (*k, v.as_str())).collect();
    maybe_write_json(bench, seed, &borrowed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_samples_summarizes_sorted_quantiles() {
        let samples: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let m = Measurement::from_samples("t", &samples, 7);
        assert_eq!(m.min_ns, 1.0);
        assert_eq!(m.median_ns, 6.0); // sorted[10/2]
        assert_eq!(m.p10_ns, 2.0); // sorted[round(9*0.1)] = sorted[1]
        assert_eq!(m.p90_ns, 9.0); // sorted[round(9*0.9)] = sorted[8]
        assert_eq!(m.iters, 7);
        assert_eq!(m.samples, 10);

        let single = Measurement::from_samples("s", &[42.0], 1);
        assert_eq!(single.median_ns, 42.0);
        assert_eq!(single.p10_ns, 42.0);
        assert_eq!(single.p90_ns, 42.0);
    }

    #[test]
    fn render_json_has_fixed_schema() {
        let ms = vec![
            Measurement::from_samples("a/b\"c", &[1.5, 2.5, 3.5], 4),
            Measurement::from_samples("d", &[9.0], 1),
        ];
        let text = render_json("unit", 77, &[("k", "v"), ("n", "19")], &ms);
        assert!(text.contains("\"schema\": \"tcpdemux-bench/v1\""));
        assert!(text.contains("\"bench\": \"unit\""));
        assert!(text.contains("\"seed\": 77"));
        assert!(text.contains("\"a/b\\\"c\""));
        assert!(text.contains("\"n\": \"19\""));
        assert!(text.contains("\"p90_ns\""));
        // Structurally valid enough that a strict parser accepts it:
        // balanced braces/brackets, no trailing commas (spot checks).
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "{text}"
        );
        assert!(!text.contains(",\n  ]"), "{text}");
        assert!(!text.contains(",]"), "{text}");

        let empty = render_json("unit", 0, &[], &[]);
        assert!(empty.contains("\"config\": {}"));
        assert!(empty.contains("\"measurements\": []"));
    }

    #[test]
    fn calibration_terminates_on_cheap_body() {
        // A near-free body must not spin toward 2^40 iterations; the
        // budget and iteration caps bound it. (Runs in smoke-or-not.)
        let start = Instant::now();
        let m = bench("harness/self-test/cheap-body", || {
            sink(1u32);
        });
        assert!(m.iters <= MAX_CALIBRATION_ITERS);
        assert!(m.samples >= 1);
        assert!(
            start.elapsed().as_secs() < 30,
            "calibration failed to terminate promptly"
        );
        assert!(m.p10_ns <= m.median_ns && m.median_ns <= m.p90_ns);
    }
}
