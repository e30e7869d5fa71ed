//! The canonical machine-readable artifacts for estimates, searches,
//! sweeps and recommendations.
//!
//! Both front-ends — the `amped` CLI's `--json` paths and the
//! `amped-serve` HTTP endpoints — render their responses through these
//! builders, which is what makes a server response *byte-identical* to the
//! equivalent CLI invocation (pinned by the CLI's differential test). Keep
//! any schema change here, in one place, so the two front-ends cannot
//! drift apart.

use amped_core::{CorrelatedReport, Estimate, ResilienceReport};
use amped_infer::InferEstimate;
use amped_search::{
    serving_pareto_front, Candidate, Recommendation, SearchStats, ServingCandidate,
    ServingSearchStats, Sweep,
};
use serde_json::Value;

/// Stamp the scenario-schema version onto a top-level JSON artifact, as
/// its first key. Every versioned document a front-end emits — estimate,
/// search, recommend — carries the same `schema_version` the `schema`
/// command and `/v1/schema` endpoint report, so a consumer can tell which
/// scenario contract produced it.
fn with_schema_version(value: Value) -> Value {
    match value {
        Value::Object(mut entries) => {
            entries.insert(
                0,
                (
                    "schema_version".to_string(),
                    Value::Str(amped_configs::schema::SCHEMA_VERSION.to_string()),
                ),
            );
            Value::Object(entries)
        }
        other => other,
    }
}

/// A versioned object artifact built from owned entries, in order. Each
/// value moves into the document; `json!` would serialize, and so deep-copy,
/// a `Value` given to it, which is too much for ranked rows.
fn versioned<const N: usize>(entries: [(&str, Value); N]) -> Value {
    with_schema_version(Value::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    ))
}

/// The estimate artifact: the [`Estimate`] document, or an
/// `{ "estimate": ..., "resilience": ... }` bundle when a
/// checkpoint/restart expectation is layered on top. Either shape leads
/// with `schema_version`.
pub fn estimate_value(estimate: &Estimate, resilience: Option<&ResilienceReport>) -> Value {
    with_schema_version(match resilience {
        Some(report) => {
            serde_json::json!({ "estimate": estimate, "resilience": report })
        }
        None => serde_json::to_value(estimate),
    })
}

/// One ranked search row. `backend` reports which cost model priced the
/// row: `"sim"` after a simulator-refinement pass, `"analytical"`
/// otherwise.
pub fn search_row(c: &Candidate) -> Value {
    let backend = if c.refined.is_some() { "sim" } else { "analytical" };
    serde_json::json!({
        "tp": [c.parallelism.tp_intra(), c.parallelism.tp_inter()],
        "pp": [c.parallelism.pp_intra(), c.parallelism.pp_inter()],
        "dp": [c.parallelism.dp_intra(), c.parallelism.dp_inter()],
        "days": c.ranking_estimate().days(),
        "tflops_per_gpu": c.ranking_estimate().tflops_per_gpu,
        "fits_memory": c.fits_memory,
        "backend": backend,
        "expected_days": c.resilience.as_ref().map(|r| r.expected_days()),
    })
}

/// The search artifact: the top `top` ranked rows.
pub fn search_rows(results: &[Candidate], top: usize) -> Value {
    Value::Array(results.iter().take(top).map(search_row).collect())
}

/// The full search artifact: the ranked rows plus the memory-rejection
/// accounting, naming which capacity inequality each rejected mapping
/// first failed. Both front-ends (`amped search --json` and
/// `/v1/search`) render through this builder.
pub fn search_value(results: &[Candidate], top: usize, stats: &SearchStats) -> Value {
    versioned([
        ("rows", search_rows(results, top)),
        (
            "memory_rejected",
            serde_json::json!({
                "total": stats.memory_rejected.total(),
                "weights": stats.memory_rejected.weights,
                "gradients": stats.memory_rejected.gradients,
                "optimizer": stats.memory_rejected.optimizer,
                "activations": stats.memory_rejected.activations,
            }),
        ),
    ])
}

/// The recommend artifact: the winning mapping with its alternatives,
/// lint findings and knob leverage.
pub fn recommend_value(rec: &Recommendation) -> Value {
    let alternatives: Vec<Value> = rec.alternatives.iter().map(search_row).collect();
    let diagnostics: Vec<String> = rec.diagnostics.iter().map(|d| d.to_string()).collect();
    let tornado: Vec<Value> = rec
        .tornado
        .iter()
        .map(|r| serde_json::json!({ "knob": r.knob.name(), "speedup": r.speedup() }))
        .collect();
    with_schema_version(serde_json::json!({
        "best": search_row(&rec.best),
        "microbatches": rec.best.estimate.num_microbatches,
        "alternatives": alternatives,
        "margin": rec.margin(),
        "diagnostics": diagnostics,
        "top_knob": rec.top_knob().map(|k| k.name()),
        "tornado": tornado,
    }))
}

/// The infer artifact: the [`InferEstimate`] document with a leading
/// `schema_version` — what `amped infer --json` and `POST /v1/infer`
/// return, byte-identically.
pub fn infer_value(estimate: &InferEstimate) -> Value {
    with_schema_version(serde_json::to_value(estimate))
}

/// One ranked serving-search row.
pub fn serving_row(c: &ServingCandidate, pareto: bool) -> Value {
    serde_json::json!({
        "tp": [c.parallelism.tp_intra(), c.parallelism.tp_inter()],
        "pp": [c.parallelism.pp_intra(), c.parallelism.pp_inter()],
        "dp": [c.parallelism.dp_intra(), c.parallelism.dp_inter()],
        "batch": c.batch,
        "ttft_s": c.estimate.ttft,
        "tpot_s": c.estimate.tpot,
        "request_latency_s": c.estimate.request_latency,
        "tokens_per_sec": c.estimate.tokens_per_sec,
        "memory_bytes": c.estimate.memory_total(),
        "fits_memory": c.fits_memory,
        "pareto": pareto,
    })
}

/// The serving-search artifact: the top `top` latency-ranked rows (each
/// flagged with its latency/throughput/memory Pareto-front membership,
/// computed over the full kept set) plus the KV-capacity rejection
/// accounting. Both front-ends (`amped search --workload infer --json`
/// and `/v1/search?workload=infer`) render through this builder.
pub fn serving_search_value(
    results: &[ServingCandidate],
    top: usize,
    stats: &ServingSearchStats,
) -> Value {
    let front = serving_pareto_front(results);
    let on_front =
        |c: &ServingCandidate| front.iter().any(|f| std::ptr::eq::<ServingCandidate>(*f, c));
    let rows = results
        .iter()
        .take(top)
        .map(|c| serving_row(c, on_front(c)))
        .collect();
    versioned([
        ("workload", Value::Str("infer".to_string())),
        ("rows", Value::Array(rows)),
        (
            "memory_rejected",
            serde_json::json!({
                "total": stats.memory_rejected.total(),
                "weights": stats.memory_rejected.weights,
                "kv_cache": stats.memory_rejected.kv_cache,
            }),
        ),
    ])
}

/// The resilience artifact: the estimate bundled with the
/// checkpoint/restart expectation and — when a failure-domain tree priced
/// the scenario — the correlated accounting (placement blast radii, fatal
/// and elastic rates, shrink overhead). Without a correlated report the
/// shape is byte-identical to [`estimate_value`] with a resilience
/// report, so scenarios that never mention failure domains keep their
/// exact historical artifact. Leads with `schema_version` either way.
pub fn resilience_value(
    estimate: &Estimate,
    report: &ResilienceReport,
    correlated: Option<&CorrelatedReport>,
) -> Value {
    with_schema_version(match correlated {
        None => serde_json::json!({ "estimate": estimate, "resilience": report }),
        Some(c) => serde_json::json!({
            "estimate": estimate,
            "resilience": report,
            "correlated": c,
        }),
    })
}

/// The sweep JSON artifact: the CSV grid and the per-batch winners as
/// structured rows, led by `schema_version` — what `sweep --json` and
/// `/v1/sweep?json=true` return.
pub fn sweep_value(sweep: &Sweep) -> Value {
    let winners: Vec<Value> = sweep
        .winners()
        .into_iter()
        .map(|(batch, winner)| serde_json::json!({ "batch": batch, "winner": winner }))
        .collect();
    with_schema_version(serde_json::json!({
        "csv": sweep.to_csv(),
        "winners": winners,
    }))
}

/// The sweep artifact: the CSV grid plus the per-batch winner line, as the
/// CLI has always printed it (text, not JSON — sweeps are spreadsheets).
pub fn sweep_text(sweep: &Sweep) -> String {
    let mut out = sweep.to_csv();
    out.push_str("\n\nwinners: ");
    for (b, w) in sweep.winners() {
        out.push_str(&format!("{b}:{w} "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_core::TrainingConfig;
    use amped_search::SearchEngine;

    fn fixture() -> (
        amped_core::TransformerModel,
        amped_core::AcceleratorSpec,
        amped_core::SystemSpec,
    ) {
        let model = amped_core::TransformerModel::builder("artifact-test")
            .layers(8)
            .hidden_size(512)
            .heads(8)
            .seq_len(128)
            .vocab_size(2000)
            .build()
            .unwrap();
        let accel = amped_core::AcceleratorSpec::builder("A100")
            .frequency_hz(1.41e9)
            .cores(108)
            .mac_units(4, 512, 8)
            .nonlin_units(192, 4, 32)
            .memory(80e9, 2.0e12)
            .build()
            .unwrap();
        let system = amped_core::SystemSpec::new(
            1,
            8,
            amped_core::Link::new(5e-6, 2.4e12),
            amped_core::Link::new(1e-5, 2e11),
            8,
        )
        .unwrap();
        (model, accel, system)
    }

    #[test]
    fn estimate_value_is_bare_serialization_plus_leading_schema_version() {
        let (model, accel, system) = fixture();
        let p = amped_core::Parallelism::builder().tp(8, 1).build().unwrap();
        let est = amped_core::Estimator::new(&model, &accel, &system, &p)
            .estimate(&TrainingConfig::new(64, 10).unwrap())
            .unwrap();
        let value = estimate_value(&est, None);
        // The document is the bare Estimate with one extra leading key.
        let Value::Object(entries) = &value else {
            panic!("estimate artifact must be an object");
        };
        assert_eq!(entries[0].0, "schema_version");
        assert_eq!(
            entries[0].1.as_str(),
            Some(amped_configs::schema::SCHEMA_VERSION)
        );
        let bare = serde_json::to_value(&est);
        let Value::Object(bare_entries) = &bare else {
            panic!("estimate serializes to an object");
        };
        assert_eq!(&entries[1..], bare_entries.as_slice());
    }

    #[test]
    fn every_json_artifact_leads_with_the_schema_version() {
        let (model, accel, system) = fixture();
        let training = TrainingConfig::new(64, 10).unwrap();
        let (results, stats) = SearchEngine::new(&model, &accel, &system)
            .with_memory_filter(true)
            .search_with_stats(&training)
            .unwrap();
        let rec = SearchEngine::new(&model, &accel, &system)
            .with_memory_filter(true)
            .recommend(&training)
            .unwrap()
            .expect("fixture has a feasible mapping");
        for value in [
            search_value(&results, 3, &stats),
            recommend_value(&rec),
        ] {
            let Value::Object(entries) = value else {
                panic!("artifact must be an object");
            };
            assert_eq!(entries[0].0, "schema_version");
        }
    }

    #[test]
    fn resilience_value_without_domains_is_the_historical_estimate_bundle() {
        let (model, accel, system) = fixture();
        let p = amped_core::Parallelism::builder().tp(8, 1).build().unwrap();
        let est = amped_core::Estimator::new(&model, &accel, &system, &p)
            .estimate(&TrainingConfig::new(64, 10).unwrap())
            .unwrap();
        let report = amped_core::ResilienceParams::new(4380.0 * 3600.0, 8)
            .unwrap()
            .with_restart(300.0)
            .report(est.total_time.get())
            .unwrap();
        let plain = serde_json::to_string(&resilience_value(&est, &report, None)).unwrap();
        let historical = serde_json::to_string(&estimate_value(&est, Some(&report))).unwrap();
        assert_eq!(plain, historical);

        // With a domain tree, the artifact gains a `correlated` section and
        // still leads with the schema version.
        let tree = amped_core::FailureDomainTree::new(8, 4, 2)
            .unwrap()
            .with_rack_mtbf(720.0 * 3600.0);
        let placement = amped_core::DomainPlacement::replica_major(8, 1, 1, 1, &tree);
        let params = amped_core::ResilienceParams::new(4380.0 * 3600.0, 8)
            .unwrap()
            .with_restart(300.0);
        let corr = amped_core::CorrelatedResilience::new(params, tree, placement)
            .unwrap()
            .report(est.total_time.get())
            .unwrap();
        let value = resilience_value(&est, &corr.flat_report(), Some(&corr));
        let Value::Object(entries) = &value else {
            panic!("resilience artifact must be an object");
        };
        assert_eq!(entries[0].0, "schema_version");
        let text = serde_json::to_string_pretty(&value).unwrap();
        for key in ["\"correlated\"", "\"placement\"", "\"fatal_rate_per_s\""] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn sweep_value_leads_with_the_version_and_structures_the_winners() {
        let (model, accel, system) = fixture();
        let engine = SearchEngine::new(&model, &accel, &system);
        let p = amped_core::Parallelism::builder().tp(8, 1).build().unwrap();
        let sweep = amped_search::Sweep::run(
            &engine,
            &[("tp8".to_string(), p)],
            &[64, 128],
            10,
        )
        .unwrap();
        let value = sweep_value(&sweep);
        let Value::Object(entries) = &value else {
            panic!("sweep artifact must be an object");
        };
        assert_eq!(entries[0].0, "schema_version");
        let csv = value.get("csv").and_then(Value::as_str).unwrap();
        assert!(csv.starts_with("batch,tp8"), "{csv}");
        let winners = value.get("winners").and_then(Value::as_array).unwrap();
        assert_eq!(winners.len(), 2);
        assert_eq!(winners[0].get("winner").and_then(Value::as_str), Some("tp8"));
    }

    #[test]
    fn search_rows_take_top_and_name_the_backend() {
        let (model, accel, system) = fixture();
        let results = SearchEngine::new(&model, &accel, &system)
            .search(&TrainingConfig::new(64, 10).unwrap())
            .unwrap();
        assert!(results.len() > 2);
        let rows = search_rows(&results, 2);
        let text = serde_json::to_string_pretty(&rows).unwrap();
        assert_eq!(text.matches("\"backend\"").count(), 2);
        assert!(text.contains("\"analytical\""));
    }

    #[test]
    fn search_value_bundles_rows_with_rejection_accounting() {
        let (model, accel, system) = fixture();
        let training = TrainingConfig::new(64, 10).unwrap();
        let (results, stats) = SearchEngine::new(&model, &accel, &system)
            .with_memory_filter(true)
            .search_with_stats(&training)
            .unwrap();
        let doc = search_value(&results, 3, &stats);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        for key in [
            "\"rows\"",
            "\"memory_rejected\"",
            "\"weights\"",
            "\"gradients\"",
            "\"optimizer\"",
            "\"activations\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert_eq!(text.matches("\"backend\"").count(), 3.min(results.len()));
    }

    #[test]
    fn infer_value_is_bare_serialization_plus_leading_schema_version() {
        let (model, accel, system) = fixture();
        let p = amped_core::Parallelism::builder().tp(8, 1).build().unwrap();
        let scenario = amped_core::Scenario::new(model, accel, system, p);
        let est = amped_infer::InferEstimator::new(&scenario)
            .estimate(&amped_infer::InferenceConfig::new(128, 32, 2).unwrap())
            .unwrap();
        let value = infer_value(&est);
        let Value::Object(entries) = &value else {
            panic!("infer artifact must be an object");
        };
        assert_eq!(entries[0].0, "schema_version");
        assert_eq!(
            entries[0].1.as_str(),
            Some(amped_configs::schema::SCHEMA_VERSION)
        );
        let bare = serde_json::to_value(&est);
        let Value::Object(bare_entries) = &bare else {
            panic!("infer estimate serializes to an object");
        };
        assert_eq!(&entries[1..], bare_entries.as_slice());
    }

    #[test]
    fn serving_search_value_bundles_rows_with_kv_accounting() {
        let (model, accel, system) = fixture();
        let request = amped_infer::InferenceConfig::new(128, 32, 1).unwrap();
        let (results, stats) = amped_search::ServingSearch::new(&model, &accel, &system)
            .search_with_stats(&request)
            .unwrap();
        assert!(!results.is_empty());
        let doc = serving_search_value(&results, 3, &stats);
        let Value::Object(entries) = &doc else {
            panic!("serving artifact must be an object");
        };
        assert_eq!(entries[0].0, "schema_version");
        let text = serde_json::to_string_pretty(&doc).unwrap();
        for key in [
            "\"workload\"",
            "\"rows\"",
            "\"ttft_s\"",
            "\"tpot_s\"",
            "\"tokens_per_sec\"",
            "\"memory_rejected\"",
            "\"kv_cache\"",
            "\"pareto\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        // The latency winner leads and sits on the Pareto front.
        let rows = doc.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows[0].get("pareto"), Some(&Value::Bool(true)));
    }

    #[test]
    fn recommend_value_carries_the_evidence() {
        let (model, accel, system) = fixture();
        let rec = SearchEngine::new(&model, &accel, &system)
            .with_memory_filter(true)
            .recommend(&TrainingConfig::new(64, 10).unwrap())
            .unwrap()
            .expect("fixture has a feasible mapping");
        let text = serde_json::to_string_pretty(&recommend_value(&rec)).unwrap();
        for key in ["\"best\"", "\"alternatives\"", "\"diagnostics\"", "\"tornado\""] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
