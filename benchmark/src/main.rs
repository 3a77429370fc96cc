//! The repo's benchmark: live TCP through the production receive and
//! transmit path, one driver thread, closed loop, only calls into the
//! stack under test timed. See `README.md` beside this package.
//!
//! ```text
//! … -- --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line
//! … -- --seed <n> [--seconds <s>] [--runs <r>] [--smoke]          every workload, table + out/results.json
//! … -- --compare <a.json> <b.json>                                apply the bounds to two result files
//! ```

mod alloc;
mod compare;
mod farm;
mod host;
mod json;
mod lossy;
mod measure;
mod probes;
mod rng;
mod server;
mod spec;
mod trace;
mod workloads;

use json::{obj, Value};
use measure::{Budget, Pass, Plan};
use spec::{MetricSpec, Spec};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Share of `--seconds` each of the two passes of a traced run measures
/// for; the probes take the rest.
const TRACED_SHARE: f64 = 0.3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        runs: 1,
        smoke: false,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec.workloads.contains(&name) {
                    return Err(format!(
                        "unknown workload {name}; one of {:?}",
                        spec.workloads
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = value()? == "1",
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(args)
}

/// Blocks a smoke pass measures: about a hundredth of a full run.
fn smoke_blocks(workload: &str) -> u64 {
    match workload {
        "lossy_bulk" => 8,
        "churn" => 100,
        _ => 300,
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The traced half of a run: an untraced pass for the noise floor and
/// the tracing overhead, a traced pass, then the probes.
fn traced_metrics(
    workload: &str,
    seed: u64,
    smoke: bool,
    budget: Budget,
) -> (Pass, Vec<probes::Metric>) {
    let untraced = measure::run(workload, seed, smoke, budget, false, Plan::SINGLE);
    let mut traced = measure::run(workload, seed, smoke, budget, true, Plan::SINGLE);
    let metrics = probes::per_layer(workload, &untraced, &mut traced, smoke);
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        traced
            .workload()
            .tracer()
            .write_jsonl(&dir.join(format!("trace-{workload}.jsonl")))
    });
    if let Err(e) = written {
        eprintln!("could not write the span file: {e}");
    }
    (traced, metrics)
}

/// The measured metrics in declared order. The two sets must be equal:
/// a metric the program did not produce is a bug in the benchmark, not a
/// zero, and one it produced but `BENCHMARK.json` does not declare would
/// go unseen.
fn declared<N: AsRef<str>>(
    specs: &[MetricSpec],
    measured: &[(N, &'static str, f64)],
) -> Result<Vec<(String, String, f64)>, String> {
    if let Some((name, _, _)) = measured
        .iter()
        .find(|(name, _, _)| !specs.iter().any(|m| m.name == name.as_ref()))
    {
        return Err(format!("{}: measured but not declared", name.as_ref()));
    }
    specs
        .iter()
        .map(|m| {
            let found = measured.iter().find(|(name, _, _)| name.as_ref() == m.name);
            match found {
                Some((_, unit, value)) if *unit == m.unit => {
                    Ok((m.name.clone(), m.unit.clone(), *value))
                }
                Some((_, unit, _)) => Err(format!("{}: unit {unit}, declared {}", m.name, m.unit)),
                None => Err(format!("{}: declared but not measured", m.name)),
            }
        })
        .collect()
}

fn metrics_object(metrics: &[(String, String, f64)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.clone(),
                    obj([
                        ("value", Value::Num(*value)),
                        ("unit", Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

fn report_failures(workload: &str, pass: &Pass) -> bool {
    for line in &pass.violations {
        eprintln!("{workload}: check failed: {line}");
    }
    if pass.failed > 0 {
        eprintln!(
            "{workload}: {} of {} operations failed",
            pass.failed,
            pass.ops()
        );
    }
    pass.failed == 0 && pass.violations.is_empty()
}

/// One workload for the driver: one JSON object as the last line.
fn run_one(spec: &Spec, args: &Args, workload: &str) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let (pass, metrics) = if args.trace {
        let budget = Budget::Seconds(seconds * TRACED_SHARE);
        let (pass, measured) = traced_metrics(workload, args.seed, false, budget);
        let metrics = declared(&spec.per_layer, &measured)?;
        (pass, metrics)
    } else {
        let pass = measure::run(
            workload,
            args.seed,
            false,
            Budget::Seconds(seconds),
            false,
            Plan::THOROUGH,
        );
        let metrics = declared(&spec.end_to_end, &pass.end_to_end())?;
        (pass, metrics)
    };
    let correct = report_failures(workload, &pass);
    let attempted = pass.ops().max(1);
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(pass.failed.min(attempted) as f64)),
        ("metrics", metrics_object(&metrics)),
    ]);
    println!("{}", line.to_line());
    Ok(correct)
}

/// Every workload: untraced runs, then the traced pass; a table on
/// standard output and `out/results.json`.
fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let mut all_correct = true;
    let mut workloads = Vec::new();
    println!("{:<13} {:<36} {:<8} value", "workload", "metric", "unit");
    for workload in &spec.workloads {
        let budget = if args.smoke {
            Budget::Blocks(smoke_blocks(workload))
        } else {
            Budget::Seconds(seconds)
        };
        let mut runs: Vec<Vec<(String, String, f64)>> = Vec::new();
        let (mut ops, mut blocks) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0, 0);
        for r in 0..args.runs {
            let plan = if args.smoke {
                Plan::SINGLE
            } else {
                Plan::THOROUGH
            };
            let seed = args.seed + (r * plan.instances) as u64;
            let pass = measure::run(workload, seed, args.smoke, budget, false, plan);
            all_correct &= report_failures(workload, &pass);
            failed += pass.failed;
            attempted += pass.ops();
            ops.push(Value::Num(pass.ops() as f64));
            blocks.push(Value::Num(pass.samples.len() as f64));
            runs.push(declared(&spec.end_to_end, &pass.end_to_end())?);
        }
        let traced_budget = match budget {
            Budget::Seconds(s) => Budget::Seconds(s * TRACED_SHARE),
            Budget::Blocks(n) => Budget::Blocks(n / 2),
        };
        let (traced, measured) = traced_metrics(workload, args.seed, args.smoke, traced_budget);
        all_correct &= report_failures(workload, &traced);
        let per_layer = declared(&spec.per_layer, &measured)?;

        let mut end_to_end = Vec::new();
        for (i, (name, unit, _)) in runs[0].iter().enumerate() {
            let mut values: Vec<f64> = runs.iter().map(|run| run[i].2).collect();
            end_to_end.push((
                name.clone(),
                obj([
                    ("unit", Value::Str(unit.clone())),
                    (
                        "values",
                        Value::Arr(values.iter().map(|&v| Value::Num(v)).collect()),
                    ),
                ]),
            ));
            println!(
                "{workload:<13} {name:<36} {unit:<8} {}",
                measure::median(&mut values)
            );
        }
        for (name, unit, value) in &per_layer {
            println!("{workload:<13} {name:<36} {unit:<8} {value}");
        }
        workloads.push((
            workload.clone(),
            obj([
                ("ops", Value::Arr(ops)),
                ("blocks", Value::Arr(blocks)),
                ("ops_attempted", Value::Num(attempted as f64)),
                ("ops_failed", Value::Num(failed as f64)),
                ("traced_ops", Value::Num(traced.ops() as f64)),
                ("end_to_end", Value::Obj(end_to_end)),
                ("per_layer", metrics_object(&per_layer)),
            ]),
        ));
    }
    let results = obj([
        ("schema", Value::Str("tcpdemux-benchmark/v1".into())),
        ("host", host::facts()),
        ("seed", Value::Num(args.seed as f64)),
        ("smoke", Value::Bool(args.smoke)),
        ("seconds", Value::Num(seconds)),
        ("runs", Value::Num(args.runs as f64)),
        ("correct", Value::Bool(all_correct)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("results.json"), results.to_pretty()))
        .map_err(|e| format!("could not write results.json: {e}"))?;
    Ok(all_correct)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let outcome = parse_args(&spec).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return compare::compare(&spec, a, b).map(|worse| worse == 0);
        }
        match &args.workload {
            Some(workload) => run_one(&spec, &args, workload),
            None => run_all(&spec, &args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> Value {
        let spec = Spec::load();
        let args = Args {
            workload: None,
            seed,
            seconds: None,
            trace: false,
            runs: 1,
            smoke: true,
            compare: None,
        };
        // Fails on any metric measured but not declared or declared but
        // not measured, any failed operation and any end-of-run check.
        assert_eq!(run_all(&spec, &args), Ok(true));
        let text = std::fs::read_to_string(out_dir().join("results.json")).unwrap();
        json::parse(&text).unwrap()
    }

    fn names(object: Option<&Value>) -> Vec<String> {
        match object {
            Some(Value::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        }
    }

    /// One test, because the runs share `out/`.
    #[test]
    fn smoke_run_emits_what_is_declared_and_repeats() {
        let spec = Spec::load();
        let (first, second) = (smoke(7), smoke(7));
        assert_eq!(names(first.get("workloads")), spec.workloads);
        let declared_names =
            |list: &[MetricSpec]| list.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        for workload in &spec.workloads {
            let of = |results: &Value| {
                results
                    .get("workloads")
                    .unwrap()
                    .get(workload)
                    .unwrap()
                    .clone()
            };
            let (a, b) = (of(&first), of(&second));
            assert_eq!(names(a.get("end_to_end")), declared_names(&spec.end_to_end));
            assert_eq!(names(a.get("per_layer")), declared_names(&spec.per_layer));
            // Counts no clock and no hash seed enters repeat bit for bit.
            for metric in [
                "pcbs_examined_per_frame",
                "segments_sent_per_needed",
                "virtual_goodput_bytes_per_ktick",
            ] {
                let values = |w: &Value| w.get("end_to_end").unwrap().get(metric).cloned();
                assert_eq!(values(&a), values(&b), "{workload} {metric}");
            }
            let mismatch = a
                .get("per_layer")
                .unwrap()
                .get("core.probe_mismatch")
                .unwrap();
            assert_eq!(mismatch.get("value"), Some(&Value::Num(0.0)), "{workload}");

            // The span file parses, and every span's parent is in it.
            let path = out_dir().join(format!("trace-{workload}.jsonl"));
            let spans: Vec<Value> = std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .map(|line| json::parse(line).unwrap())
                .collect();
            assert!(!spans.is_empty(), "{workload}");
            for (id, span) in spans.iter().enumerate() {
                assert_eq!(span.get("id").and_then(Value::as_f64), Some(id as f64));
                let parent = span.get("parent").and_then(Value::as_f64).unwrap() as usize;
                let parent = spans
                    .get(parent)
                    .unwrap_or_else(|| panic!("{workload}: span {id}"));
                assert_eq!(parent.get("name").and_then(Value::as_str), Some("block"));
                assert!(
                    span.get("end_ns").and_then(Value::as_f64)
                        >= span.get("start_ns").and_then(Value::as_f64)
                );
            }
        }
    }
}
