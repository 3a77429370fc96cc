//! What `BENCHMARK.json` declares. The file is compiled in, so the
//! names, units, directions and bounds the program prints and compares
//! with cannot drift from the ones the driver reads.

use crate::json::{self, Value};

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by; 0 for
    /// per-layer metrics, which have none.
    pub bound: f64,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(list: &Value) -> Vec<MetricSpec> {
    let text = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    list.as_arr()
        .unwrap_or(&[])
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name"),
            unit: text(m, "unit"),
            lower_is_better: text(m, "better") == "lower",
            bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
        })
        .collect()
}

impl Spec {
    pub fn load() -> Self {
        let root = json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| root.get(key).cloned().unwrap_or(Value::Null);
        Self {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .unwrap_or(10.0),
            workloads: list("workloads")
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(String::from))
                .collect(),
            end_to_end: metrics(&list("end_to_end")),
            per_layer: metrics(&list("per_layer")),
        }
    }
}
