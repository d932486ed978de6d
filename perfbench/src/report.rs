//! The metric set of a run and the one-line JSON result.

use std::collections::BTreeMap;

use crate::failures::Tally;

/// End-to-end metrics, reported with tracing off, as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("latency_1t_ms_p50", "ms"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run, as `(name, unit)`. A
/// layer the workload does not use reports 0 for its metrics, and the
/// span counts under `calls.*` show which layers were called.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("othello.movegen_ns", "ns"),
    ("othello.play_ns", "ns"),
    ("othello.eval_ns", "ns"),
    ("checkers.movegen_ns", "ns"),
    ("checkers.eval_ns", "ns"),
    ("gametree.expand_ns", "ns"),
    ("gametree.eval_ns", "ns"),
    ("serial.alphabeta_ms_p50", "ms"),
    ("serial.nodes", "count"),
    ("serial.er_ms_p50", "ms"),
    ("serial.ns_per_node", "ns"),
    ("parallel.nodes_ratio", "ratio"),
    ("parallel.nodes_ratio_1t", "ratio"),
    ("parallel.speedup", "ratio"),
    ("parallel.scaling", "ratio"),
    ("parallel.ns_per_node", "ns"),
    ("parallel.sim_makespan_p2", "ticks"),
    ("parallel.sim_makespan_p16", "ticks"),
    ("parallel.sim_nodes_p16", "count"),
    ("heap.lock_wait_ns_per_job", "ns"),
    ("heap.lock_hold_ns_per_job", "ns"),
    ("heap.lock_share", "ratio"),
    ("heap.locks_per_job", "ratio"),
    ("heap.steal_hit_share", "ratio"),
    ("heap.parks_per_job", "ratio"),
    ("tt.probe_ns", "ns"),
    ("tt.store_ns", "ns"),
    ("tt.new_generation_us", "us"),
    ("tt.hit_rate", "ratio"),
    ("tt.fill", "ratio"),
    ("server.slice_overhead_ms", "ms"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.slices_per_request", "ratio"),
    ("server.re_searches_per_request", "ratio"),
    ("calib.othello.eval_per_expand", "ratio"),
    ("calib.othello.hold_per_expand", "ratio"),
    ("calib.checkers.eval_per_expand", "ratio"),
    ("calib.checkers.hold_per_expand", "ratio"),
    ("calib.random.eval_per_expand", "ratio"),
    ("calib.random.hold_per_expand", "ratio"),
    ("calib.model.eval_per_expand", "ratio"),
    ("calib.model.hold_per_expand", "ratio"),
    ("calls.othello", "count"),
    ("calls.checkers", "count"),
    ("calls.gametree", "count"),
    ("calls.tt", "count"),
    ("calls.engine-server", "count"),
    ("failures.wrong_value", "count"),
    ("failures.aborted", "count"),
    ("failures.short_depth", "count"),
    ("failures.shed", "count"),
    ("trace.overhead", "ratio"),
];

/// Metric values by name. Every name of the run's list must be set
/// exactly once, to a finite number.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Layer metrics of layers the workload does not use: zero.
    pub fn zero_unset(&mut self, list: &[(&'static str, &str)]) {
        for (name, _) in list {
            self.0.entry(name).or_insert(0.0);
        }
    }
}

/// Failure counts by reason, as the per-layer `failures.*` metrics.
pub fn failure_metrics(m: &mut Metrics, t: &Tally) {
    let count = |prefix: &str| -> f64 {
        t.by_reason
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    };
    m.set("failures.wrong_value", count("wrong_value"));
    m.set("failures.aborted", count("aborted"));
    m.set("failures.short_depth", count("short_depth"));
    m.set("failures.shed", count("shed"));
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `list` with its unit.
pub fn result_json(
    correct: bool,
    tally: &Tally,
    m: &Metrics,
    list: &[(&'static str, &'static str)],
) -> String {
    assert_eq!(m.0.len(), list.len(), "metrics outside the list: {m:?}");
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = m
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} not set"));
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 0.5 + i as f64);
        }
        let mut t = Tally::default();
        t.record(None);
        let line = result_json(true, &t, &m, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 4.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = text.matches("\"name\"").count();
        let workloads = text.matches("\"why\"").count();
        assert_eq!(declared - workloads, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
