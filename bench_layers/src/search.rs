//! The two search workloads: closed loop, one caller, each operation the
//! CLI's `--json` path minus argv parsing — resolve the scenario, run the
//! search engine, build the artifact, render it. No shared cache pool, so
//! every operation starts cold, like one CLI run.

use std::sync::Arc;
use std::time::Instant;

use amped_configs::pipeline::{Resolution, ScenarioDraft, Source};
use amped_obs::Observer;
use amped_search::{EnumerationOptions, SearchEngine, ServingSearch, ServingSweepOptions};

use crate::inputs::{self, SearchInput};
use crate::report::{Metrics, Outcome};
use crate::stats::{fnv1a, ratio, Samples, FNV_OFFSET};
use crate::{peak_rss_mb, Budget, SpanSink, SETUP_REPEATS};

/// Rows per artifact: the CLI's default `--top`.
const TOP: usize = 10;

/// Candidate accounting of one operation, from the engine's own stats.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    generated: u64,
    pruned: u64,
    kept: u64,
    /// Training: memory-rejected mappings. Serving: weight-rejected points.
    rejected_weights: u64,
    /// Serving only: KV-cache-rejected points.
    rejected_kv: u64,
}

impl Counts {
    fn rejected(&self) -> u64 {
        self.rejected_weights + self.rejected_kv
    }

    fn add(&mut self, other: &Counts) {
        self.generated += other.generated;
        self.pruned += other.pruned;
        self.kept += other.kept;
        self.rejected_weights += other.rejected_weights;
        self.rejected_kv += other.rejected_kv;
    }
}

/// When each stage of one operation ended.
struct Stamps {
    resolved: Instant,
    search_start: Instant,
    searched: Instant,
    rendered: Instant,
}

/// Wall-clock split of one traced operation, microseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    op: f64,
    resolve: f64,
    search: f64,
    enumerate: f64,
    explore: f64,
    rank: f64,
    render: f64,
    generated: u64,
}

/// What one operation produced.
struct OpResult {
    op_us: f64,
    layers: Option<Layers>,
    counts: Counts,
    bytes: usize,
    rows_hash: u64,
}

fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Build and resolve the scenario draft, as the CLI does for a scenario
/// file: defaults, the command's base overlay, then the document.
fn resolve(body: &str, base: Option<serde_json::Value>) -> Result<Resolution, String> {
    let mut draft = ScenarioDraft::new();
    if let Some(doc) = base {
        draft
            .push(Source::Defaults, doc)
            .map_err(|e| e.to_string())?;
    }
    draft
        .push_json(Source::File, body)
        .map_err(|e| e.to_string())?;
    draft.resolve().map_err(|e| e.to_string())
}

fn train_op(
    body: &str,
    prune: bool,
    memory_filter: bool,
    obs: Option<&Arc<Observer>>,
) -> Result<(Stamps, Counts, String), String> {
    let r = resolve(body, None)?;
    let resolved = Instant::now();
    let s = &r.scenario;
    let mut engine = SearchEngine::new(&s.model, &s.accelerator, &s.system)
        .with_precision(s.precision)
        .with_efficiency(s.efficiency.clone())
        .with_engine_options(s.options)
        .with_enumeration(EnumerationOptions::default())
        .with_pruning(prune)
        .with_memory_filter(memory_filter);
    if let Some(o) = obs {
        engine = engine.with_observer(Arc::clone(o));
    }
    let search_start = Instant::now();
    let (results, stats) = engine
        .search_with_stats(&s.training)
        .map_err(|e| e.to_string())?;
    let searched = Instant::now();
    let value = amped_report::artifacts::search_value(&results, TOP, &stats);
    let text = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    let rendered = Instant::now();
    if !results
        .windows(2)
        .all(|w| w[0].objective_time() <= w[1].objective_time())
    {
        return Err("search rows are not sorted by objective time".into());
    }
    let counts = Counts {
        generated: stats.generated,
        pruned: stats.pruned,
        kept: stats.kept,
        rejected_weights: stats.memory_rejected.total(),
        rejected_kv: 0,
    };
    Ok((
        Stamps {
            resolved,
            search_start,
            searched,
            rendered,
        },
        counts,
        text,
    ))
}

fn serving_op(
    body: &str,
    prune: bool,
    max_batch: usize,
    obs: Option<&Arc<Observer>>,
) -> Result<(Stamps, Counts, String), String> {
    let r = resolve(body, Some(serde_json::json!({ "inference": {} })))?;
    let s = &r.scenario;
    let request = s
        .inference
        .ok_or("serving scenario resolved without an inference section")?
        .params()
        .map_err(|e| e.to_string())?;
    let resolved = Instant::now();
    let mut engine = ServingSearch::new(&s.model, &s.accelerator, &s.system)
        .with_precision(s.precision)
        .with_sweep(ServingSweepOptions {
            max_batch,
            ..ServingSweepOptions::default()
        })
        .with_pruning(prune);
    if let Some(o) = obs {
        engine = engine.with_observer(Arc::clone(o));
    }
    let search_start = Instant::now();
    let (results, stats) = engine
        .search_with_stats(&request)
        .map_err(|e| e.to_string())?;
    let searched = Instant::now();
    let value = amped_report::artifacts::serving_search_value(&results, TOP, &stats);
    let text = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    let rendered = Instant::now();
    if !results
        .windows(2)
        .all(|w| w[0].objective_time() <= w[1].objective_time())
    {
        return Err("serving rows are not sorted by request latency".into());
    }
    let counts = Counts {
        generated: stats.generated,
        pruned: stats.pruned,
        kept: stats.kept,
        rejected_weights: stats.memory_rejected.weights,
        rejected_kv: stats.memory_rejected.kv_cache,
    };
    Ok((
        Stamps {
            resolved,
            search_start,
            searched,
            rendered,
        },
        counts,
        text,
    ))
}

/// Run and check one operation. With `sink`, the operation is traced: an
/// observer rides along in the engine for its phase spans, and every
/// layer boundary becomes a span.
fn run_op(input: &SearchInput, sink: Option<&mut SpanSink>) -> Result<OpResult, String> {
    let obs_epoch = Instant::now();
    let obs = sink.is_some().then(|| Arc::new(Observer::new()));
    let start = Instant::now();
    let (stamps, counts, text) = match input {
        SearchInput::Train {
            body,
            prune,
            memory_filter,
        } => train_op(body, *prune, *memory_filter, obs.as_ref())?,
        SearchInput::Serving {
            body,
            prune,
            max_batch,
        } => serving_op(body, *prune, *max_batch, obs.as_ref())?,
    };
    let op_us = us(start, stamps.rendered);

    // Output checks, outside the timed region.
    if counts.generated != counts.pruned + counts.kept + counts.rejected() {
        return Err(format!(
            "candidate accounting does not balance: generated {} != pruned {} + kept {} + rejected {}",
            counts.generated,
            counts.pruned,
            counts.kept,
            counts.rejected()
        ));
    }
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("artifact does not re-parse: {e}"))?;
    let first_key = doc
        .as_object()
        .and_then(|o| o.first())
        .map(|(k, _)| k.as_str());
    if first_key != Some("schema_version") {
        return Err("artifact does not lead with schema_version".into());
    }
    let rows = serde_json::to_string(&doc["rows"]).map_err(|e| e.to_string())?;
    let rows_hash = fnv1a(FNV_OFFSET, rows.as_bytes());

    let layers = match (sink, obs) {
        (Some(sink), Some(obs)) => Some(record_layers(
            sink, &obs, obs_epoch, start, &stamps, &counts,
        )),
        _ => None,
    };
    Ok(OpResult {
        op_us,
        layers,
        counts,
        bytes: text.len(),
        rows_hash,
    })
}

/// The layer split of one traced operation, and its spans: the
/// benchmark's own spans at each layer boundary plus the engine's phase
/// spans, moved onto the benchmark's clock.
fn record_layers(
    sink: &mut SpanSink,
    obs: &Observer,
    obs_epoch: Instant,
    start: Instant,
    t: &Stamps,
    counts: &Counts,
) -> Layers {
    let mut layers = Layers {
        op: us(start, t.rendered),
        resolve: us(start, t.resolved),
        search: us(t.search_start, t.searched),
        render: us(t.searched, t.rendered),
        generated: counts.generated,
        ..Layers::default()
    };
    let mut events = vec![
        sink.event("op", start, t.rendered),
        sink.event("configs.resolve", start, t.resolved),
        sink.event("search", t.search_start, t.searched),
        sink.event("report.render", t.searched, t.rendered),
    ];
    let offset = sink.offset_us(obs_epoch);
    for mut e in obs.trace_events().into_iter().filter(|e| e.cat == "phase") {
        // Training phases are `search.*`, serving phases `infer.search.*`.
        let phase = e.name.rsplit('.').next().unwrap_or_default();
        let slot = match phase {
            "enumerate" => &mut layers.enumerate,
            "explore" => &mut layers.explore,
            "rank" => &mut layers.rank,
            _ => continue,
        };
        *slot += e.dur_us;
        e.ts_us += offset;
        events.push(e);
    }
    sink.push_op(events);
    layers
}

/// One set-up pass: generate the inputs and run the untimed warm-up
/// operations.
fn setup(seed: u64, serving: bool) -> Result<Vec<SearchInput>, String> {
    let inputs = if serving {
        inputs::serving_inputs(seed)
    } else {
        inputs::train_inputs(seed)
    };
    for input in inputs::warmup_inputs(serving) {
        run_op(&input, None)?;
    }
    Ok(inputs)
}

/// Run a search workload. Traced runs alternate untraced and traced
/// operations, so the tracing overhead is measured on the same inputs
/// under the same conditions.
pub fn run(seed: u64, serving: bool, budget: Budget, mut sink: Option<&mut SpanSink>) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        match setup(seed, serving) {
            Ok(v) => inputs = v,
            Err(e) => return Outcome::setup_failed(e),
        }
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut outcome = Outcome::new();
    let tracing = sink.is_some();
    let mut untraced_us = Vec::new();
    let mut all_us = 0.0;
    let mut traced: Vec<Layers> = Vec::new();
    let mut totals = Counts::default();
    let mut bytes = Vec::new();
    // Each input's rows hash from its first run; later passes must repeat it.
    let mut first_hash: Vec<Option<u64>> = vec![None; inputs.len()];

    let start = Instant::now();
    let mut i = 0usize;
    while budget.more(i, start) {
        let slot = i % inputs.len();
        let traced_op = tracing && i % 2 == 1;
        i += 1;
        outcome.attempted += 1;
        let r = match run_op(
            &inputs[slot],
            if traced_op { sink.as_deref_mut() } else { None },
        ) {
            Ok(r) => r,
            Err(e) => {
                outcome.wrong(format!("op {}: {e}", i - 1));
                continue;
            }
        };
        match first_hash[slot] {
            None => first_hash[slot] = Some(r.rows_hash),
            Some(h) if h != r.rows_hash => {
                outcome.wrong(format!(
                    "op {}: ranked rows differ from the same input's first run",
                    i - 1
                ));
            }
            Some(_) => {}
        }
        match r.layers {
            Some(l) => traced.push(l),
            None => untraced_us.push(r.op_us),
        }
        all_us += r.op_us;
        bytes.push(r.bytes as f64);
        totals.add(&r.counts);
    }

    // The digest covers the ranked rows of the inputs reached, in input
    // order; the pruning counters stay out because they depend on timing.
    let reached: Vec<u64> = first_hash.iter().map_while(|h| *h).collect();
    outcome.digest = Some((
        reached
            .iter()
            .fold(FNV_OFFSET, |h, x| fnv1a(h, &x.to_le_bytes())),
        reached.len(),
    ));

    let untraced = Samples::new(untraced_us);
    let m = &mut outcome.metrics;
    if !tracing {
        m.set("setup_s", Samples::new(setups).q(0.5));
        m.set("p50_ms", untraced.q(0.5) / 1e3);
        m.set("p99_ms", untraced.q(0.99) / 1e3);
        m.set("mean_ms", untraced.mean() / 1e3);
        m.set("peak_rss_mb", peak_rss_mb());
        return outcome;
    }
    layer_metrics(
        m,
        serving,
        &traced,
        &untraced,
        all_us,
        &totals,
        &Samples::new(bytes),
    );
    outcome
}

fn layer_metrics(
    m: &mut Metrics,
    serving: bool,
    traced: &[Layers],
    untraced: &Samples,
    all_us: f64,
    totals: &Counts,
    bytes: &Samples,
) {
    let col = |f: fn(&Layers) -> f64| Samples::new(traced.iter().map(f).collect());
    let op = col(|l| l.op);
    let resolve = col(|l| l.resolve);
    let search = col(|l| l.search);
    let render = col(|l| l.render);
    let enumerate = col(|l| l.enumerate);
    let explore = col(|l| l.explore);
    let rank = col(|l| l.rank);
    let traced_generated: u64 = traced.iter().map(|l| l.generated).sum();
    let ns_per = if traced_generated == 0 {
        0.0
    } else {
        explore.sum() * 1e3 / traced_generated as f64
    };
    let per_s = if all_us > 0.0 {
        totals.generated as f64 / all_us * 1e6
    } else {
        0.0
    };

    m.set("configs.resolve_us.p50", resolve.q(0.5));
    m.set("configs.resolve_us.p99", resolve.q(0.99));
    if serving {
        m.set("infer.enumerate_us.p50", enumerate.q(0.5));
        m.set("infer.explore_us.p50", explore.q(0.5));
        m.set("infer.rank_us.p50", rank.q(0.5));
        m.set("infer.explore_ns_per_point", ns_per);
        m.set("infer.points_per_s", per_s);
        m.set("infer.pruned_ratio", ratio(totals.pruned, totals.generated));
        m.set(
            "infer.kv_rejected_ratio",
            ratio(totals.rejected_kv, totals.generated),
        );
        m.set(
            "infer.weights_rejected_ratio",
            ratio(totals.rejected_weights, totals.generated),
        );
    } else {
        let run_self = col(|l| (l.search - l.enumerate - l.explore - l.rank).max(0.0));
        m.set("search.enumerate_us.p50", enumerate.q(0.5));
        m.set("search.explore_us.p50", explore.q(0.5));
        m.set("search.explore_us.p99", explore.q(0.99));
        m.set("search.rank_us.p50", rank.q(0.5));
        m.set("search.run_self_us.p50", run_self.q(0.5));
        m.set("search.explore_ns_per_candidate", ns_per);
        m.set("search.cand_per_s", per_s);
        m.set(
            "search.pruned_ratio",
            ratio(totals.pruned, totals.generated),
        );
        m.set("search.kept_ratio", ratio(totals.kept, totals.generated));
        m.set(
            "memory.rejected_ratio",
            ratio(totals.rejected(), totals.kept + totals.rejected()),
        );
    }
    m.set("report.render_us.p50", render.q(0.5));
    m.set("report.render_us.p99", render.q(0.99));
    m.set("report.bytes_per_op", bytes.mean());
    if untraced.len() > 0 {
        m.set("trace.overhead_ratio", op.q(0.5) / untraced.q(0.5) - 1.0);
    }
    if op.sum() > 0.0 {
        m.set(
            "trace.gap_ratio",
            1.0 - (resolve.sum() + search.sum() + render.sum()) / op.sum(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    #[test]
    fn every_generated_scenario_resolves() {
        for seed in [1, 2] {
            for input in inputs::train_inputs(seed)
                .iter()
                .chain(&inputs::serving_inputs(seed))
            {
                let (body, base) = match input {
                    SearchInput::Train { body, .. } => (body, None),
                    SearchInput::Serving { body, .. } => {
                        (body, Some(serde_json::json!({ "inference": {} })))
                    }
                };
                if let Err(e) = resolve(body, base) {
                    panic!("{body}: {e}");
                }
            }
        }
    }

    #[test]
    fn few_op_smoke_of_both_search_workloads() {
        for serving in [false, true] {
            let outcome = run(3, serving, Budget::Ops(4), None);
            assert!(
                outcome.correct && outcome.failed == 0,
                "{:?}",
                outcome.errors
            );
            assert_eq!(outcome.attempted, 4);
            let rows = outcome.metrics.rows(false);
            assert!(rows.iter().all(|(_, v, _)| *v > 0.0), "{rows:?}");
            assert_eq!(outcome.digest.unwrap().1, 4);

            let mut sink = SpanSink::new(0);
            let traced = run(3, serving, Budget::Ops(4), Some(&mut sink));
            assert!(traced.correct, "{:?}", traced.errors);
            let rows: std::collections::BTreeMap<_, _> = traced
                .metrics
                .rows(true)
                .into_iter()
                .map(|(n, v, _)| (n, v))
                .collect();
            assert_eq!(rows.len(), PER_LAYER.len());
            assert!(rows["configs.resolve_us.p50"] > 0.0);
            assert!(rows["report.bytes_per_op"] > 0.0);
            let explore = if serving {
                "infer.explore_us.p50"
            } else {
                "search.explore_us.p50"
            };
            assert!(rows[explore] > 0.0);
            assert!(!sink.events().is_empty());
            // The same seed reaches the same ranked rows, traced or not.
            assert_eq!(traced.digest, outcome.digest);
        }
    }
}
