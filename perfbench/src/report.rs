//! Metric names, units and the one-line JSON result.
//!
//! The two tables below are the metrics every workload reports on the
//! result line: [`END_TO_END`] untraced, [`PER_LAYER`] traced. They match
//! `BENCHMARK.json` (a test checks it). Metrics that exist on only one
//! workload (runner cells, service RPCs, the daemon journal) go on the
//! report lines printed above the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("episodes_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.sample_us", "us"),
    ("core.reset_us", "us"),
    ("core.select_us", "us"),
    ("core.notify_us", "us"),
    ("core.resolve_us", "us"),
    ("core.sample_share", "ratio"),
    ("core.reset_share", "ratio"),
    ("core.select_share", "ratio"),
    ("core.notify_share", "ratio"),
    ("core.resolve_share", "ratio"),
    ("core.select_calls", "count"),
    ("core.notify_calls", "count"),
    ("core.allocs_per_episode", "count"),
    ("core.sample_scalar_us", "us"),
    ("core.sample_batch_us", "us"),
    ("abm.pops_per_select", "ratio"),
    ("abm.stale_skip_ratio", "ratio"),
    ("abm.rescores_per_notify", "ratio"),
    ("abm.rescores_changed_ratio", "ratio"),
    ("graph.generate_ms", "ms"),
    ("protocol.apply_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("store.pack_ms", "ms"),
    ("store.load_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Metric values keyed by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a workload run hands back: the operation counts behind
/// `error_rate` and the metrics for the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Renders the final result line for `table`.
///
/// # Errors
///
/// A message naming a metric of `table` that is missing or not finite.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accu_telemetry::{parse_json, Json};

    fn filled(table: &[(&str, &str)]) -> Outcome {
        let mut metrics = Metrics::default();
        for (i, (name, _)) in table.iter().enumerate() {
            metrics.set(name, 0.1 + i as f64 / 7.0);
        }
        Outcome {
            attempted: 12,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn result_line_reads_back_exactly() {
        for table in [END_TO_END, PER_LAYER] {
            let outcome = filled(table);
            let line = result_line(&outcome, table).expect("complete metrics");
            let doc = parse_json(&line).expect("valid JSON");
            let Json::Obj(top) = &doc else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("metrics is not an object")
            };
            assert_eq!(metrics.len(), table.len());
            for &(name, unit) in table {
                let m = doc.get("metrics").and_then(|m| m.get(name)).expect(name);
                let value = m.get("value").and_then(Json::as_f64).expect("value");
                // Every digit survives the round trip.
                assert_eq!(
                    value.to_bits(),
                    outcome.metrics.get(name).unwrap().to_bits()
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            }
        }
    }

    #[test]
    fn failures_mark_the_result_incorrect() {
        let mut outcome = filled(END_TO_END);
        outcome.failed = 1;
        let doc = parse_json(&result_line(&outcome, END_TO_END).unwrap()).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn missing_or_non_finite_metrics_are_refused() {
        let mut outcome = filled(END_TO_END);
        outcome.metrics.set("setup_s", f64::NAN);
        assert!(result_line(&outcome, END_TO_END).is_err());
        assert!(result_line(&Outcome::default(), END_TO_END).is_err());
    }

    /// The tables here and the metric lists in `BENCHMARK.json` name the
    /// same metrics, in the same order, with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }
}
