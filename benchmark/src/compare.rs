//! `--compare a.json b.json`: apply each end-to-end metric's bound to
//! two result files, one row per (metric, workload).

use crate::json::{self, Value};
use crate::measure::median;
use crate::spec::Spec;

/// Quartile spread as a share of the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives; with fewer than four values
/// the whole range; with one, nothing to measure.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    // Sorts `v` as well.
    let median = median(&mut v);
    let n = v.len();
    if n < 2 || median == 0.0 {
        return 0.0;
    }
    if n < 4 {
        return (v[n - 1] - v[0]) / median.abs();
    }
    let quartile = |k: usize| {
        let at = (k * (n + 1)) as f64 / 4.0;
        let lo = (at.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (at - lo as f64) * (v[lo] - v[lo - 1])
    };
    (quartile(3) - quartile(1)) / median.abs()
}

fn values_of(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// Prints the table; returns how many rows read `worse`.
pub fn compare(spec: &Spec, path_a: &str, path_b: &str) -> Result<usize, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut worse = 0;
    println!(
        "{:<32} {:<13} {:>16} {:>16} {:>8} {:>7}  verdict",
        "metric", "workload", "a", "b", "change", "bound"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                values_of(&a, workload, &metric.name),
                values_of(&b, workload, &metric.name),
            ) else {
                continue;
            };
            // `median` sorts its argument.
            let (mut sa, mut sb) = (va, vb);
            let (ma, mb) = (median(&mut sa), median(&mut sb));
            // Positive when b is worse than a.
            let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
            let change = if ma == 0.0 {
                0.0
            } else {
                sign * (mb - ma) / ma.abs()
            };
            let noisy = spread(&sa) > metric.bound || spread(&sb) > metric.bound;
            let b_always_better = if metric.lower_is_better {
                sb.last() < sa.first()
            } else {
                sb.first() > sa.last()
            };
            let verdict = if noisy && !b_always_better {
                "unresolved"
            } else if change > metric.bound {
                worse += 1;
                "worse"
            } else if change < -metric.bound || (noisy && b_always_better) {
                "better"
            } else {
                "same"
            };
            println!(
                "{:<32} {:<13} {:>16.6e} {:>16.6e} {:>+7.2}% {:>6.1}%  {verdict}",
                metric.name,
                workload,
                ma,
                mb,
                change * 100.0,
                metric.bound * 100.0
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::spread;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
