//! Building a workload, running it for a budget, and turning the
//! per-block samples into the end-to-end metrics.

use crate::alloc;
use crate::lossy::Lossy;
use crate::server::{Clock, Phase, Plain, Sharded, Tally};
use crate::trace::Tracer;
use crate::workloads::{BlockOut, Bulk, Churn, Counts, Txn, Workload};
use std::time::{Duration, Instant};

/// The paper's N.
const N: usize = 2_000;

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Wall-clock seconds: what the driver asks for.
    Seconds(f64),
    /// A fixed number of blocks: same seed, same counts, bit for bit.
    Blocks(u64),
}

/// Warm-up blocks per workload: enough that set-up takes tens of
/// milliseconds (so it can be timed) and the caches, pools and
/// congestion windows are in steady state.
fn warm_blocks(name: &str, smoke: bool) -> u64 {
    let full = match name {
        "tpca" | "sharded_tpca" | "miss_flood" => 1_000,
        "tpca_20k" => 300,
        "churn" => 200,
        "bulk" => 1_000,
        "lossy_bulk" => 32,
        _ => unreachable!("workload names are checked at the command line"),
    };
    if smoke {
        full / 50 + 1
    } else {
        full
    }
}

/// Build, establish and warm up one workload. Everything here is what
/// `setup_s` times.
fn build(
    name: &str,
    seed: u64,
    smoke: bool,
    tracer: Tracer,
    clock: &mut Clock,
) -> Box<dyn Workload> {
    let warm = warm_blocks(name, smoke);
    match name {
        "tpca" => Box::new(Txn::new(Plain::new(tracer), N, 0, seed, warm, clock)),
        "tpca_20k" => Box::new(Txn::new(Plain::new(tracer), 10 * N, 0, seed, warm, clock)),
        "miss_flood" => Box::new(Txn::new(Plain::new(tracer), N, 900, seed, warm, clock)),
        "sharded_tpca" => Box::new(Txn::new(Sharded::new(2, tracer), N, 0, seed, warm, clock)),
        "churn" => Box::new(Churn::new(N, warm, tracer, clock)),
        "bulk" => Box::new(Bulk::new(warm, tracer, clock)),
        "lossy_bulk" => Box::new(Lossy::new(seed, warm, tracer, clock)),
        _ => unreachable!("workload names are checked at the command line"),
    }
}

/// One block's busy time and what it did.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ns: [u64; 3],
    pub out: BlockOut,
}

impl Sample {
    pub fn busy_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Everything one measured pass produced, summed over its instances.
pub struct Pass {
    /// The last instance, as it stood when measuring ended.
    workload: Option<Box<dyn Workload>>,
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    /// Which of `samples` each instance produced.
    instances: Vec<std::ops::Range<usize>>,
    pub tally: Tally,
    pub counts: Counts,
    pub alloc_calls: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The value `q` of the way through the sorted samples.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).round() as usize]
}

/// An instance's speed with the host's other tenants taken out: the
/// best of the medians of its (up to) 20 consecutive parts. Noise from
/// outside the program can only slow a block down, and on this shared
/// host it comes in bursts of about a second; a part is about a tenth
/// of one.
pub fn quiet_median(values: &[f64]) -> f64 {
    let parts = values.len().min(20);
    (0..parts)
        .map(|i| {
            let part = &values[i * values.len() / parts..(i + 1) * values.len() / parts];
            median(&mut part.to_vec())
        })
        .fold(0.0, f64::max)
}

/// How a run spends its budget.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Fresh instances of the workload, each measured for an equal share
    /// of the budget.
    pub instances: usize,
    /// Set-ups per instance; the last one is measured.
    pub setups: usize,
}

impl Plan {
    /// What an untraced run does: 15 set-ups spread over the run, so
    /// `setup_s` is a median that a second-long burst of outside noise
    /// cannot move, and five instances, so one unlucky memory layout or
    /// one disturbed stretch cannot move the rates.
    pub const THOROUGH: Plan = Plan {
        instances: 5,
        setups: 3,
    };
    pub const SINGLE: Plan = Plan {
        instances: 1,
        setups: 1,
    };
}

/// Set up and measure `plan.instances` instances of the workload within
/// `budget`. With `traced`, key events are logged from the first SYN and
/// every stack call of the measured part is a span.
pub fn run(name: &str, seed: u64, smoke: bool, budget: Budget, traced: bool, plan: Plan) -> Pass {
    let mut clock = Clock::new();
    let mut pass: Option<Pass> = None;
    for instance in 0..plan.instances {
        let mut setup_s = Vec::new();
        let mut built = None;
        for _ in 0..plan.setups {
            drop(built.take());
            drop(pass.as_mut().map(|p| p.workload.take()));
            let tracer = if traced {
                Tracer::traced()
            } else {
                Tracer::default()
            };
            let started = Instant::now();
            built = Some(build(
                name,
                seed + instance as u64,
                smoke,
                tracer,
                &mut clock,
            ));
            setup_s.push(started.elapsed().as_secs_f64());
        }
        let mut workload = built.expect("at least one set-up");
        clock.take();

        workload.tracer().start_measuring();
        let tally_before = workload.tally();
        let counts_before = workload.counts();
        let failed_before = workload.failed();
        let calls_before = alloc::calls();
        let mut samples = Vec::new();
        let started = Instant::now();
        loop {
            let out = workload.block(&mut clock);
            samples.push(Sample {
                ns: clock.take(),
                out,
            });
            let done = match budget {
                Budget::Seconds(s) => {
                    started.elapsed() >= Duration::from_secs_f64(s / plan.instances as f64)
                }
                Budget::Blocks(n) => samples.len() as u64 >= n.div_ceil(plan.instances as u64),
            };
            if done {
                break;
            }
        }
        let alloc_calls = alloc::calls() - calls_before;
        let counts = workload.counts().since(counts_before);
        let this = Pass {
            setup_s,
            violations: workload.violations(counts),
            tally: workload.tally().since(tally_before),
            counts,
            alloc_calls,
            failed: workload.failed() - failed_before,
            instances: std::iter::once(0..samples.len()).collect(),
            samples,
            workload: Some(workload),
        };
        pass = Some(match pass {
            None => this,
            Some(earlier) => earlier.followed_by(this),
        });
    }
    pass.expect("a plan has at least one instance")
}

impl Pass {
    fn last(&self) -> &dyn Workload {
        self.workload
            .as_deref()
            .expect("kept until the pass is dropped")
    }

    pub fn workload(&mut self) -> &mut dyn Workload {
        self.workload
            .as_deref_mut()
            .expect("kept until the pass is dropped")
    }

    /// This pass and then `next`, as one.
    fn followed_by(mut self, next: Pass) -> Pass {
        let offset = self.samples.len();
        self.instances.extend(
            next.instances
                .iter()
                .map(|r| r.start + offset..r.end + offset),
        );
        self.samples.extend(next.samples);
        self.setup_s.extend(next.setup_s);
        self.violations.extend(next.violations);
        self.tally = self.tally.plus(next.tally);
        self.counts = self.counts.plus(next.counts);
        self.alloc_calls += next.alloc_calls;
        self.failed += next.failed;
        self.workload = next.workload;
        self
    }

    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| s.out.ops).sum()
    }

    pub fn busy_ns(&self) -> u64 {
        self.samples.iter().map(Sample::busy_ns).sum()
    }

    /// `f(sample)` of every block where it is defined.
    fn per_block(&self, f: impl Fn(&Sample) -> Option<f64>) -> Vec<f64> {
        self.samples.iter().filter_map(f).collect()
    }

    /// A rate for the run: each instance's quiet median of `f` over its
    /// blocks, and of those the upper quartile (of five, the second
    /// highest: one lucky instance does not set it, three disturbed ones
    /// do not lower it).
    fn quiet_rate(&self, f: impl Fn(&Sample) -> Option<f64>) -> f64 {
        let mut speeds: Vec<f64> = self
            .instances
            .iter()
            .map(|r| {
                quiet_median(
                    &self.samples[r.clone()]
                        .iter()
                        .filter_map(&f)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        quantile(&mut speeds, 0.75)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let rate =
            |amount: u64, ns: u64| (amount > 0 && ns > 0).then(|| amount as f64 * 1e9 / ns as f64);
        // A workload that builds its connections inside each block weighs
        // them there; the mean, because buffer capacities double and a
        // median could flip between two sizes.
        let heap = self.last().standing_heap().map_or_else(
            || {
                self.samples
                    .iter()
                    .map(|s| s.out.heap_bytes as f64)
                    .sum::<f64>()
                    / self.samples.len() as f64
            },
            |bytes| bytes as f64,
        );
        let heap_per_conn = heap / self.last().connections() as f64;
        vec![
            ("setup_s", "s", median(&mut self.setup_s.clone())),
            (
                "ops_per_s",
                "1/s",
                self.quiet_rate(|s| rate(s.out.ops, s.busy_ns())),
            ),
            (
                "rx_goodput_bytes_per_s",
                "B/s",
                self.quiet_rate(|s| rate(s.out.rx_bytes, s.ns[Phase::Rx as usize])),
            ),
            (
                "tx_goodput_bytes_per_s",
                "B/s",
                self.quiet_rate(|s| rate(s.out.tx_bytes, s.ns[Phase::Tx as usize])),
            ),
            (
                "pcbs_examined_per_frame",
                "count",
                self.tally.pcbs_examined as f64 / self.tally.frames_in.max(1) as f64,
            ),
            (
                "allocs_per_op",
                "count",
                self.alloc_calls as f64 / self.ops().max(1) as f64,
            ),
            ("heap_bytes_per_conn", "B", heap_per_conn),
            (
                "segments_sent_per_needed",
                "ratio",
                median(&mut self.per_block(|s| {
                    (s.out.segments_needed > 0)
                        .then(|| s.out.segments_sent as f64 / s.out.segments_needed as f64)
                })),
            ),
            (
                "virtual_goodput_bytes_per_ktick",
                "B/ktick",
                median(&mut self.per_block(|s| {
                    (s.out.ticks > 0).then(|| s.out.rx_bytes as f64 * 1000.0 / s.out.ticks as f64)
                })),
            ),
        ]
    }
}
