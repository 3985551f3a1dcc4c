//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;

use crate::backend::METHODS;
use crate::trace::json_string;

/// End-to-end metrics (untraced runs), with units. Every workload reports
/// every one of them; see the README for what each means per workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// Experiments of the paper grid, as named in `results.json`.
pub const EXPERIMENTS: [&str; 11] = [
    "table1", "table2", "table3", "table4", "table5", "figure1", "figure2", "figure3", "figure4",
    "figure5", "figure6",
];

/// DCT block sizes the low-frequency projection probe times (Figure 3's
/// sweep).
pub const DCT_DIMS: [usize; 4] = [4, 8, 16, 32];

/// Batch sizes of the `nn` and `serve` probes.
pub const PROBE_BATCHES: [usize; 3] = [1, 8, 32];

/// Per-layer metrics (traced run), with units, named `<module>.<what>`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for name in ["busy_s", "idle_s", "critical_node_s", "tail_s"] {
        add(format!("scheduler.{name}"), "s");
    }
    add("defenses.train_s".into(), "s");
    add("defenses.train_max_s".into(), "s");
    add("defenses.cache_store_ms".into(), "ms");
    add("defenses.cache_load_ms".into(), "ms");
    for experiment in EXPERIMENTS {
        add(format!("experiments.{experiment}_s"), "s");
    }
    add("attacks.artifact_s".into(), "s");
    add("attacks.rp2_iter_ms".into(), "ms");
    add("attacks.rp2_lowfreq_iter_ms".into(), "ms");
    add("attacks.pgd_step_ms".into(), "ms");
    for dim in DCT_DIMS {
        add(format!("signal.lowfreq_project_us.d{dim}"), "us");
    }
    add("signal.dct2d_us".into(), "us");
    for path in ["forward", "input_grad", "param_grad"] {
        for batch in PROBE_BATCHES {
            add(format!("nn.{path}_ms.b{batch}"), "ms");
        }
    }
    for method in METHODS {
        add(format!("tensor.{method}_ms"), "ms");
        add(format!("tensor.{method}_calls"), "count");
    }
    add("journal.append_ms.p50".into(), "ms");
    add("journal.append_ms.p99".into(), "ms");
    add("data.dataset_s".into(), "s");
    add("serve.submit_us.p99".into(), "us");
    for batch in PROBE_BATCHES {
        add(format!("serve.batch_ms.b{batch}"), "ms");
    }
    add("serve.restarts".into(), "count");
    add("loadgen.late_ms.p99".into(), "ms");
    add("loadgen.steady_samples".into(), "count");
    add("loadgen.saturated_rps".into(), "1/s");
    add("trace.overhead_s".into(), "s");
    out
}

/// Values collected for one declared metric set.
#[derive(Debug)]
pub struct Metrics {
    declared: Vec<(String, &'static str)>,
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// The end-to-end set.
    pub fn end_to_end() -> Self {
        Metrics {
            declared: END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
            values: BTreeMap::new(),
        }
    }

    /// The per-layer set.
    pub fn per_layer() -> Self {
        Metrics {
            declared: per_layer(),
            values: BTreeMap::new(),
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name this set does not declare (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.declared.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name.to_string(), value);
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`,
    /// with every declared metric in declaration order.
    ///
    /// # Errors
    ///
    /// Names the first declared metric that was never set or is not a
    /// finite number.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.declared.len());
        for (name, unit) in &self.declared {
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            body.push(format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric or workload name: starts with a
    /// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: 1–16 characters of
    /// `[A-Za-z0-9_/%.-]`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let mut all: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        all.extend(per_layer());
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
    }

    #[test]
    fn metric_counts_stay_within_the_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().len()));
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn name_validation_rejects_bad_names() {
        assert!(valid_name("nn.forward_ms.b32"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("seconds-per-request"));
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut m = Metrics::end_to_end();
        assert!(m.result_line(true, 1, 0).is_err());
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        let line = m.result_line(true, 3, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    /// `BENCHMARK.json` must declare exactly these metrics, in this order.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory alone, outside the repository
        };
        let declared = |section: &str| -> Vec<(String, String)> {
            let value = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
            let serde::Value::Seq(items) = value.get_field(section).expect("section").clone()
            else {
                panic!("{section} is not a list");
            };
            items
                .iter()
                .map(|item| {
                    let field = |key: &str| match item.get_field(key) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{section}.{key}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let expect = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            declared("end_to_end"),
            expect(
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect()
            )
        );
        assert_eq!(declared("per_layer"), expect(per_layer()));
    }
}
