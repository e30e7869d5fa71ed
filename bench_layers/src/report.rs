//! Metric names, units and result rendering: the `workload metric value
//! unit` lines a person reads and the one-line JSON result a script
//! parses.

use std::collections::BTreeMap;

use serde_json::Value;

/// End-to-end metrics, reported by every workload in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("mean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload in a traced run. A layer
/// a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("configs.resolve_us.p50", "us"),
    ("configs.resolve_us.p99", "us"),
    ("search.enumerate_us.p50", "us"),
    ("search.explore_us.p50", "us"),
    ("search.explore_us.p99", "us"),
    ("search.rank_us.p50", "us"),
    ("search.run_self_us.p50", "us"),
    ("search.explore_ns_per_candidate", "ns"),
    ("search.cand_per_s", "1/s"),
    ("search.pruned_ratio", "ratio"),
    ("search.kept_ratio", "ratio"),
    ("memory.rejected_ratio", "ratio"),
    ("infer.enumerate_us.p50", "us"),
    ("infer.explore_us.p50", "us"),
    ("infer.rank_us.p50", "us"),
    ("infer.explore_ns_per_point", "ns"),
    ("infer.points_per_s", "1/s"),
    ("infer.pruned_ratio", "ratio"),
    ("infer.kv_rejected_ratio", "ratio"),
    ("infer.weights_rejected_ratio", "ratio"),
    ("report.render_us.p50", "us"),
    ("report.render_us.p99", "us"),
    ("report.bytes_per_op", "bytes"),
    ("serve.queue_us.mean", "us"),
    ("serve.handler_us.mean", "us"),
    ("serve.handler_us.estimate.p50", "us"),
    ("serve.handler_us.search.p50", "us"),
    ("serve.handler_us.sweep.p50", "us"),
    ("serve.handler_us.resilience.p50", "us"),
    ("serve.handler_us.infer.p50", "us"),
    ("serve.handler_us.recommend.p50", "us"),
    ("serve.transport_share", "ratio"),
    ("serve.queue.depth.max", "count"),
    ("serve.in_flight.max", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.pool.warm_checkout_ratio", "ratio"),
    ("client.connections_per_request", "ratio"),
    ("gen.late_ms.p50", "ms"),
    ("gen.late_ms.p99", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.gap_ratio", "ratio"),
];

/// The values one workload measured, by metric name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `name`. Panics on a name outside both tables: a typo here
    /// would otherwise silently report 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric `{name}`"
        );
        self.0.insert(name, value);
    }

    /// Every per-layer metric of a traced run, or every end-to-end metric
    /// of an untraced one, in table order, with its unit.
    pub fn rows(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|(name, unit)| (*name, self.0.get(name).copied().unwrap_or(0.0), *unit))
            .collect()
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (search ops or HTTP requests) attempted.
    pub attempted: u64,
    /// Operations that failed: errors, non-200 responses, unanswered
    /// requests and failed output checks.
    pub failed: u64,
    /// Whether every output check passed. A non-200 response or a wrong
    /// body is a failed check; an unanswered request is only a failure.
    pub correct: bool,
    /// The first few failure messages, for stderr.
    pub errors: Vec<String>,
    /// FNV-1a over the ranked rows, and how many distinct inputs it
    /// covers (search workloads).
    pub digest: Option<(u64, usize)>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// A run that could not even set up: nothing attempted counts.
    pub fn setup_failed(error: String) -> Outcome {
        Outcome {
            attempted: 1,
            failed: 1,
            correct: false,
            errors: vec![format!("set-up failed: {error}")],
            ..Outcome::default()
        }
    }

    /// Count one failed output check.
    pub fn wrong(&mut self, error: String) {
        self.correct = false;
        self.fail(error);
    }

    /// Count one failure that is not a wrong output (e.g. a request the
    /// server did not answer in time).
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// The `workload metric value unit` lines.
    pub fn lines(&self, workload: &str, traced: bool) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .rows(traced)
            .into_iter()
            .map(|(name, value, unit)| format!("{workload} {name} {value} {unit}"))
            .collect();
        out.push(format!("{workload} attempted {} count", self.attempted));
        out.push(format!("{workload} failed {} count", self.failed));
        if let Some(digest) = self.digest_text() {
            out.push(format!("{workload} outputs_digest {digest} fnv1a64/inputs"));
        }
        out
    }

    /// The digest as `HEX/INPUTS`.
    pub fn digest_text(&self) -> Option<String> {
        self.digest.map(|(d, n)| format!("{d:016x}/{n}"))
    }

    /// The one-line JSON result: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn json_line(&self, traced: bool) -> String {
        serde_json::to_string(&self.to_value(traced)).expect("result serializes")
    }

    pub fn to_value(&self, traced: bool) -> Value {
        let metrics = Value::Object(
            self.metrics
                .rows(traced)
                .into_iter()
                .map(|(name, value, unit)| {
                    (
                        name.to_string(),
                        serde_json::json!({ "value": value, "unit": unit }),
                    )
                })
                .collect(),
        );
        serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = bench_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::new();
        outcome.attempted = 3;
        outcome.metrics.set("p50_ms", 1.25);
        let doc: Value = serde_json::from_str(&outcome.json_line(false)).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc["metrics"].as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(doc["metrics"]["p50_ms"]["value"].as_f64(), Some(1.25));
        assert_eq!(doc["metrics"]["p50_ms"]["unit"], "ms");
        let traced: Value = serde_json::from_str(&outcome.json_line(true)).unwrap();
        assert_eq!(
            traced["metrics"].as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_names_are_refused() {
        Metrics::default().set("p50_msec", 1.0);
    }
}
