//! The operation layer: the one execute step behind every command the
//! `amped` CLI and the HTTP service share.
//!
//! AMPeD answers a few questions: what one mapping costs (`estimate`,
//! `infer`), which mapping is best (`search`, `recommend`, `sweep`) and
//! what failures add (`resilience`). Each is an [`Op`], and both
//! transports run it through the same three calls:
//!
//! 1. [`Params::read`] parses the execution parameters (`--top`,
//!    `?prune`, `--goodput`, ...) through the [`FlagReader`] seam the
//!    scenario flags already use, with one error spelling;
//! 2. [`Op::resolve`] stacks the op's base overlay, the preset, the
//!    scenario file or request body and the flags into a [`Resolution`]
//!    (the resolve step of [`amped_configs::pipeline`]);
//! 3. [`Op::execute`] configures the engines, prices the resolved
//!    scenario and returns a typed [`Outcome`]; [`Outcome::artifact`] maps
//!    it to its versioned [`amped_report::artifacts`] JSON document.
//!
//! What stays in a transport is only its own concern. The CLI reads
//! `--config` files, owns the `--metrics-out`/`--trace-out`/`-v` session,
//! renders text tables and replays `resilience --seed`; the service
//! checks for an empty body, answers `?resolved=true`, maps errors to
//! HTTP statuses and folds per-request observers into its process
//! observer. A response body is byte-identical to the CLI's `--json`
//! stdout because there is one path, not because a test compares two.

use std::str::FromStr;
use std::sync::Arc;

use amped_configs::pipeline::{FlagReader, FlagSet, Resolution, ScenarioDraft, Source};
use amped_configs::scenario::{FailureDomainsSection, ResilienceSection, ResolvedScenario};
use amped_core::{
    AnalyticalBackend, CachePool, CorrelatedReport, CorrelatedResilience, CostBackend, Error,
    Estimate, InferenceConfig, ObservedBackend, Parallelism, ResilienceReport, Result,
    DEFAULT_NODE_MTBF_HOURS,
};
use amped_infer::{AnalyticalInferBackend, InferBackend, InferEstimate, ObservedInferBackend};
use amped_memory::{MemoryModel, OptimizerSpec};
use amped_obs::Observer;
use amped_search::{
    placement_for, Candidate, DomainGoodput, GoodputOptions, PlacementChoice, Recommendation,
    SearchEngine, SearchStats, ServingCandidate, ServingSearch, ServingSearchStats,
    ServingSweepOptions, Sweep,
};
use amped_sim::SimBackend;
use serde_json::Value;

/// A command both transports answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `amped estimate` / `POST /v1/estimate`.
    Estimate,
    /// `amped infer` / `POST /v1/infer`.
    Infer,
    /// `amped search` / `POST /v1/search`.
    Search,
    /// `amped search --workload infer` / `POST /v1/search?workload=infer`.
    ServingSearch,
    /// `amped recommend` / `POST /v1/recommend`.
    Recommend,
    /// `amped sweep` / `POST /v1/sweep`.
    Sweep,
    /// `amped resilience` / `POST /v1/resilience`.
    Resilience,
}

/// A cost backend named by `--backend` / `?backend=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// The closed-form model ([`AnalyticalBackend`]).
    Analytical,
    /// The discrete-event simulator ([`SimBackend`]).
    Sim,
}

/// How to run an op, as opposed to the scenario it runs on: the
/// execution parameters, under the CLI's flag names (`--top 5`) and the
/// same names as query parameters (`?top=5`).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// `prune`: branch-and-bound pruning for search.
    prune: bool,
    /// `top`: rows a search renders.
    top: usize,
    /// `memory-filter`: drop search candidates that do not fit memory.
    memory_filter: bool,
    /// `refine-sim`: re-rank the analytical top K through the simulator.
    refine_sim: usize,
    /// `backend`: the explicitly selected cost backend, if any.
    backend: Option<Backend>,
    /// `goodput[=HOURS]`: rank search/recommend by expected time under
    /// failures at this per-node MTBF (`None` = goodput off).
    goodput_hours: Option<f64>,
    /// `restart`: restart cost after a failure, seconds (goodput).
    restart_s: Option<f64>,
    /// `ckpt-gbps`: checkpoint write bandwidth per device, Gbit/s.
    ckpt_gbps: f64,
    /// `ckpt-interval`: fixed checkpoint interval, seconds.
    ckpt_interval_s: Option<f64>,
    /// `max-serve-batch`: top of the serving search's batch ladder.
    max_serve_batch: usize,
}

/// Parse `--key` / `?key=` as `T` when given: the one parse function, and
/// error spelling, for every execution parameter.
///
/// # Errors
///
/// Returns [`Error::Usage`] (`invalid value for --{key}: {v}`) when the
/// value does not parse.
pub fn parsed<T: FromStr>(reader: &dyn FlagReader, key: &str) -> Result<Option<T>> {
    reader
        .value(key)
        .map(|v| {
            v.parse()
                .map_err(|_| Error::usage(format!("invalid value for --{key}: {v}")))
        })
        .transpose()
}

impl Params {
    /// Read every execution parameter once, before the scenario
    /// resolves (the goodput MTBF shapes the resolve step).
    ///
    /// `goodput` given bare (`--goodput`, `?goodput`, `?goodput=true`)
    /// selects the six-month default MTBF.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Usage`] for values that do not parse and for an
    /// unknown backend.
    pub fn read(reader: &dyn FlagReader) -> Result<Params> {
        let goodput_hours = match reader.value("goodput").as_deref() {
            None if !reader.switch("goodput") => None,
            None | Some("" | "true") => Some(DEFAULT_NODE_MTBF_HOURS),
            Some(_) => parsed(reader, "goodput")?,
        };
        let backend = match reader.value("backend").as_deref() {
            None => None,
            Some("analytical") => Some(Backend::Analytical),
            Some("sim") => Some(Backend::Sim),
            Some(other) => {
                return Err(Error::usage(format!(
                    "unknown backend `{other}`; use analytical|sim"
                )))
            }
        };
        Ok(Params {
            prune: reader.switch("prune"),
            top: parsed(reader, "top")?.unwrap_or(10),
            memory_filter: reader.switch("memory-filter"),
            refine_sim: parsed(reader, "refine-sim")?.unwrap_or(0),
            backend,
            goodput_hours,
            restart_s: parsed(reader, "restart")?,
            ckpt_gbps: parsed(reader, "ckpt-gbps")?.unwrap_or(16.0),
            ckpt_interval_s: parsed(reader, "ckpt-interval")?,
            max_serve_batch: parsed(reader, "max-serve-batch")?.unwrap_or(64),
        })
    }
}

/// What a transport lends an op besides its inputs. Both are passive:
/// outcomes are bit-identical with or without them.
#[derive(Debug)]
pub struct Context {
    /// Records what the op did (the CLI's observability session, or the
    /// service's per-request observer).
    pub observer: Option<Arc<Observer>>,
    /// A process-wide estimate-cache pool (the service's).
    pub pool: Option<Arc<CachePool>>,
}

/// The typed result of an op, before rendering.
#[derive(Debug)]
pub enum Outcome {
    /// One priced mapping, plus its expected time under failures when the
    /// scenario carries a resilience section.
    Estimate {
        /// The fault-free estimate.
        estimate: Estimate,
        /// The checkpoint/restart expectation.
        resilience: Option<ResilienceReport>,
        /// The name of the backend that priced it.
        backend: &'static str,
    },
    /// One priced serving request.
    Infer {
        /// The serving estimate.
        estimate: InferEstimate,
        /// The request shape it priced.
        config: InferenceConfig,
        /// The name of the backend that priced it.
        backend: &'static str,
    },
    /// The ranked training mappings.
    Search {
        /// Candidates, best first.
        results: Vec<Candidate>,
        /// The pass's candidate accounting.
        stats: SearchStats,
        /// Rows to render.
        top: usize,
        /// Whether the ranking is by expected time under failures.
        goodput: bool,
    },
    /// The ranked serving points.
    ServingSearch {
        /// Points, best first.
        results: Vec<ServingCandidate>,
        /// The pass's accounting.
        stats: ServingSearchStats,
        /// Rows to render.
        top: usize,
        /// The request shape swept.
        request: InferenceConfig,
    },
    /// The recommended mapping with its evidence.
    Recommend(Box<Recommendation>),
    /// The canonical mappings across the batch ladder.
    Sweep(Sweep),
    /// One priced mapping under failures.
    Resilience {
        /// The fault-free estimate.
        estimate: Estimate,
        /// The (flat) expected-time report.
        report: ResilienceReport,
        /// The correlated report when failure domains are configured.
        correlated: Option<CorrelatedReport>,
        /// The name of the backend that priced it.
        backend: &'static str,
    },
}

impl Outcome {
    /// The versioned JSON artifact: the `--json` stdout of the CLI and
    /// the body of the service's response.
    #[must_use]
    pub fn artifact(&self) -> Value {
        use amped_report::artifacts as a;
        match self {
            Outcome::Estimate {
                estimate,
                resilience,
                ..
            } => a::estimate_value(estimate, resilience.as_ref()),
            Outcome::Infer { estimate, .. } => a::infer_value(estimate),
            Outcome::Search {
                results,
                stats,
                top,
                ..
            } => a::search_value(results, *top, stats),
            Outcome::ServingSearch {
                results,
                stats,
                top,
                ..
            } => a::serving_search_value(results, *top, stats),
            Outcome::Recommend(rec) => a::recommend_value(rec),
            Outcome::Sweep(sweep) => a::sweep_value(sweep),
            Outcome::Resilience {
                estimate,
                report,
                correlated,
                ..
            } => a::resilience_value(estimate, report, correlated.as_ref()),
        }
    }
}

impl Op {
    /// The op behind a shared command or endpoint name (`search` reads
    /// `workload`: train | infer); `None` for a command only the CLI has.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Usage`] for an unknown workload.
    pub fn for_command(command: &str, reader: &dyn FlagReader) -> Result<Option<Op>> {
        Ok(Some(match command {
            "estimate" => Op::Estimate,
            "infer" => Op::Infer,
            "search" => match reader.value("workload").as_deref().unwrap_or("train") {
                "train" => Op::Search,
                "infer" => Op::ServingSearch,
                other => {
                    return Err(Error::usage(format!(
                        "unknown workload `{other}`; use train|infer"
                    )))
                }
            },
            "recommend" => Op::Recommend,
            "sweep" => Op::Sweep,
            "resilience" => Op::Resilience,
            _ => return Ok(None),
        }))
    }

    /// Resolve this op's scenario from `reader`'s flags and `file` (a
    /// scenario file's text or a request body), over the op's base
    /// overlay and with the flag families it prices.
    ///
    /// # Errors
    ///
    /// Propagates the pipeline's typed errors.
    pub fn resolve(
        self,
        params: &Params,
        reader: &dyn FlagReader,
        file: Option<&str>,
    ) -> Result<Resolution> {
        let (set, base) = match self {
            Op::Estimate => (FlagSet::with_resilience(), None),
            Op::Sweep => (FlagSet::default(), None),
            // An empty section brings in the serde defaults, which
            // presets, files and flags override through the layering.
            Op::Infer | Op::ServingSearch => (
                FlagSet::with_inference(),
                Some(serde_json::json!({ "inference": {} })),
            ),
            Op::Resilience => (
                FlagSet::with_failure_domains(),
                Some(mtbf_overlay(DEFAULT_NODE_MTBF_HOURS)),
            ),
            // With goodput on, the failure-domain flags are live and a
            // default-MTBF base satisfies the domain section's
            // prerequisite.
            Op::Search | Op::Recommend => match params.goodput_hours {
                Some(hours) => (
                    FlagSet {
                        failure_domains: true,
                        ..FlagSet::default()
                    },
                    Some(mtbf_overlay(hours)),
                ),
                None => (FlagSet::default(), None),
            },
        };
        resolve(reader, file, set, base)
    }

    /// Price the resolved scenario.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Usage`] when the scenario lacks a section the op
    /// needs or no mapping fits memory (`recommend`), and propagates the
    /// engines' typed errors.
    pub fn execute(self, s: &ResolvedScenario, params: &Params, ctx: &Context) -> Result<Outcome> {
        match self {
            Op::Estimate => {
                let (estimate, backend) = evaluate(s, params.backend, ctx)?;
                let resilience = s
                    .resilience
                    .map(|section| expected_time_report(s, &section, estimate.total_time.get()))
                    .transpose()?;
                Ok(Outcome::Estimate { estimate, resilience, backend })
            }
            Op::Infer => {
                let config = inference(s, "infer")?;
                let backend: Box<dyn InferBackend> = match &ctx.observer {
                    Some(o) => Box::new(ObservedInferBackend::new(
                        Box::new(AnalyticalInferBackend),
                        Arc::clone(o),
                    )),
                    None => Box::new(AnalyticalInferBackend),
                };
                let estimate = backend.evaluate(&s.to_scenario(), &config)?;
                Ok(Outcome::Infer { estimate, config, backend: backend.name() })
            }
            Op::Search => {
                let engine = ranking_engine(s, params, ctx)?
                    .with_pruning(params.prune)
                    .with_memory_filter(params.memory_filter);
                let (results, stats) = engine.search_with_stats(&s.training)?;
                let goodput = params.goodput_hours.is_some();
                Ok(Outcome::Search { results, stats, top: params.top, goodput })
            }
            Op::ServingSearch => {
                let request = inference(s, "search --workload infer")?;
                let mut engine = ServingSearch::new(&s.model, &s.accelerator, &s.system)
                    .with_precision(s.precision)
                    .with_sweep(ServingSweepOptions {
                        max_batch: params.max_serve_batch,
                        ..ServingSweepOptions::default()
                    })
                    .with_pruning(params.prune);
                if let Some(o) = &ctx.observer {
                    engine = engine.with_observer(Arc::clone(o));
                }
                let (results, stats) = engine.search_with_stats(&request)?;
                Ok(Outcome::ServingSearch { results, stats, top: params.top, request })
            }
            // Always memory-filtered and never pruned, so the
            // alternatives and margin are the true runner-ups.
            Op::Recommend => match ranking_engine(s, params, ctx)?
                .with_memory_filter(true)
                .recommend(&s.training)?
            {
                Some(rec) => Ok(Outcome::Recommend(Box::new(rec))),
                None => Err(Error::usage(
                    "no memory-feasible mapping; shard more (TP/PP), enable recomputation, or use bigger devices",
                )),
            },
            Op::Sweep => {
                let engine = engine(s, ctx);
                let mappings = sweep_mappings(s)?;
                let base = s.training.global_batch();
                let batches: Vec<usize> = [1usize, 2, 4].iter().map(|m| base * m).collect();
                let n = s.training.num_batches();
                // The default analytical sweep tunes microbatches per
                // cell; an explicit backend prices the mappings exactly
                // as constructed.
                let sweep = match params.backend {
                    None => Sweep::run(&engine, &mappings, &batches, n),
                    Some(b) => {
                        let backend = cost_backend(b, ctx);
                        Sweep::run_backend(&engine, backend.as_ref(), &mappings, &batches, n)
                    }
                }?;
                Ok(Outcome::Sweep(sweep))
            }
            Op::Resilience => {
                let (estimate, backend) = evaluate(s, params.backend, ctx)?;
                let section = s
                    .resilience
                    .ok_or_else(|| Error::usage("resilience needs an MTBF"))?;
                // A `failure_domains` section layers correlated rack/pod
                // outages and elastic recovery on the flat model.
                let fault_free = estimate.total_time.get();
                let correlated = correlated_report(s, &section, fault_free)?;
                let report = match &correlated {
                    Some(c) => c.flat_report(),
                    None => expected_time_report(s, &section, fault_free)?,
                };
                Ok(Outcome::Resilience { estimate, report, correlated, backend })
            }
        }
    }
}

/// Resolve a scenario through the layered pipeline: built-in defaults <
/// `base` (a command's own defaults) < preset < `file` < flags. This is
/// the one scenario-draft stacking; the CLI's own commands use it too.
///
/// # Errors
///
/// Propagates the pipeline's typed errors, naming the layer at fault.
pub fn resolve(
    reader: &dyn FlagReader,
    file: Option<&str>,
    set: FlagSet,
    base: Option<Value>,
) -> Result<Resolution> {
    let mut draft = ScenarioDraft::new();
    if let Some(doc) = base {
        draft.push(Source::Defaults, doc)?;
    }
    if let Some(name) = reader.value("preset") {
        draft.preset(&name)?;
    }
    if let Some(json) = file {
        draft.push_json(Source::File, json)?;
    }
    draft.flags(reader, set)?;
    draft.resolve()
}

/// Pretty-print a serializable value, mapping the (practically
/// unreachable) serializer failure to a typed error.
///
/// # Errors
///
/// Returns a typed error if serialization fails.
pub fn to_json<T: serde::Serialize>(value: &T) -> Result<String> {
    serde_json::to_string_pretty(value).map_err(|e| Error::invalid("json", e.to_string()))
}

fn mtbf_overlay(hours: f64) -> Value {
    serde_json::json!({ "resilience": { "node_mtbf_hours": hours } })
}

/// The request shape of the scenario's `inference` section.
fn inference(s: &ResolvedScenario, command: &str) -> Result<InferenceConfig> {
    s.inference
        .ok_or_else(|| Error::usage(format!("{command} needs an inference section")))?
        .params()
}

/// The cost backend `kind`, recording into the context's observer when
/// there is one.
fn cost_backend(kind: Backend, ctx: &Context) -> Box<dyn CostBackend> {
    match (kind, &ctx.observer) {
        (Backend::Analytical, None) => Box::new(AnalyticalBackend),
        (Backend::Analytical, Some(o)) => Box::new(ObservedBackend::new(
            Box::new(AnalyticalBackend),
            Arc::clone(o),
        )),
        (Backend::Sim, None) => Box::new(SimBackend::new()),
        (Backend::Sim, Some(o)) => Box::new(SimBackend::new().with_observer(Arc::clone(o))),
    }
}

/// Price the scenario through `backend` (analytical when `None`) and name
/// the backend that did. With a pool, the analytical path evaluates
/// against a pool lease — bit-identical to a fresh cache, since the
/// memoized sub-results are exact — and records the lease's traffic as
/// `serve.cache.*`.
fn evaluate(
    s: &ResolvedScenario,
    backend: Option<Backend>,
    ctx: &Context,
) -> Result<(Estimate, &'static str)> {
    let scenario = s.to_scenario();
    let kind = backend.unwrap_or(Backend::Analytical);
    if let (Backend::Analytical, Some(pool)) = (kind, &ctx.pool) {
        let mut lease = pool.checkout(scenario.cache_context_key());
        let estimate = AnalyticalBackend.evaluate_with_cache(&mut lease, &scenario, &s.training);
        if let Some(obs) = &ctx.observer {
            let (hits, misses) = lease.stats_delta();
            obs.add("serve.cache.hits", hits);
            obs.add("serve.cache.misses", misses);
            obs.add("serve.cache.lookups", hits + misses);
        }
        return Ok((estimate?, AnalyticalBackend.name()));
    }
    let backend = cost_backend(kind, ctx);
    Ok((backend.evaluate(&scenario, &s.training)?, backend.name()))
}

/// The scenario's search engine with the context attached.
fn engine<'a>(s: &'a ResolvedScenario, ctx: &Context) -> SearchEngine<'a> {
    let mut engine = SearchEngine::new(&s.model, &s.accelerator, &s.system)
        .with_precision(s.precision)
        .with_efficiency(s.efficiency.clone())
        .with_engine_options(s.options);
    if let Some(o) = &ctx.observer {
        engine = engine.with_observer(Arc::clone(o));
    }
    if let Some(pool) = &ctx.pool {
        engine = engine.with_cache_pool(Arc::clone(pool));
    }
    engine
}

/// [`engine`] plus what search and recommend rank by: the simulator
/// refinement depth and, with goodput on, the expected-time objective.
fn ranking_engine<'a>(
    s: &'a ResolvedScenario,
    params: &Params,
    ctx: &Context,
) -> Result<SearchEngine<'a>> {
    let engine = engine(s, ctx).with_refine_sim(params.refine_sim);
    Ok(match params.goodput_hours {
        Some(hours) => engine.with_goodput(goodput_options(s, params, hours)?),
        None => engine,
    })
}

/// The goodput options for search/recommend: the MTBF, restart and
/// checkpoint parameters, plus the scenario's `failure_domains` section
/// when one resolved.
fn goodput_options(s: &ResolvedScenario, params: &Params, hours: f64) -> Result<GoodputOptions> {
    let mut opts = GoodputOptions::new(hours * 3600.0);
    opts.restart_s = params.restart_s.unwrap_or(opts.restart_s);
    opts.ckpt_write_bytes_per_s = params.ckpt_gbps * 1e9 / 8.0;
    opts.interval_s = params.ckpt_interval_s;
    if let Some(fd) = &s.failure_domains {
        opts = opts.with_failure_domains(DomainGoodput {
            tree: fd.tree(s.system.num_nodes())?,
            elastic: Some(fd.elastic()?),
            placement: placement_choice(fd)?,
        });
    }
    Ok(opts)
}

/// The canonical inter-node strategies at the scenario's node shape, TP
/// filling the node: DP across nodes, PP across nodes, and TP across
/// node pairs, where each tiles the model and cluster.
fn sweep_mappings(s: &ResolvedScenario) -> Result<Vec<(String, Parallelism)>> {
    let per_node = s.system.accels_per_node();
    let nodes = s.system.num_nodes();
    let dp = Parallelism::builder()
        .tp(per_node, 1)
        .dp(1, nodes)
        .build()?;
    let mut mappings = vec![("dp-inter".to_string(), dp)];
    if nodes > 1 {
        let pp_x = nodes.min(s.model.num_layers());
        if nodes.is_multiple_of(pp_x) {
            let pp = Parallelism::builder()
                .tp(per_node, 1)
                .pp(1, pp_x)
                .dp(1, nodes / pp_x)
                .build()?;
            mappings.push(("pp-inter".into(), pp));
        }
        if s.model.num_heads() >= 2 * per_node && nodes.is_multiple_of(2) {
            let tp = Parallelism::builder()
                .tp(per_node, 2)
                .dp(1, nodes / 2)
                .build()?;
            mappings.push(("tp-inter2".into(), tp));
        }
    }
    Ok(mappings)
}

/// The bytes each device writes per checkpoint: its weight + optimizer
/// shard under this scenario's mapping.
fn per_device_ckpt_bytes(s: &ResolvedScenario) -> f64 {
    let ub = s.parallelism.microbatch_size(s.training.global_batch());
    let n_ub = s.parallelism.num_microbatches(s.training.global_batch());
    MemoryModel::new(&s.model, &s.parallelism)
        .with_precision(s.precision)
        .with_optimizer(OptimizerSpec::adam_mixed_precision())
        .footprint(ub, n_ub)
        .checkpoint_bytes()
}

/// The checkpoint/restart expected-time report for a run whose fault-free
/// duration is `fault_free_s`.
fn expected_time_report(
    s: &ResolvedScenario,
    section: &ResilienceSection,
    fault_free_s: f64,
) -> Result<ResilienceReport> {
    section
        .params(s.system.num_nodes(), per_device_ckpt_bytes(s))?
        .report(fault_free_s)
}

/// The parsed `placement` spelling of a `failure_domains` section.
fn placement_choice(fd: &FailureDomainsSection) -> Result<PlacementChoice> {
    PlacementChoice::parse(&fd.placement).ok_or_else(|| {
        Error::usage(format!(
            "unknown layout `{}`; use auto, replica-major or stage-major",
            fd.placement
        ))
    })
}

/// The correlated expected-time report when the scenario carries a
/// `failure_domains` section: the rack/pod tree, this mapping's
/// deterministic placement onto it, and elastic recovery, priced over the
/// independent node-failure base. `None` without a section.
fn correlated_report(
    s: &ResolvedScenario,
    section: &ResilienceSection,
    fault_free_s: f64,
) -> Result<Option<CorrelatedReport>> {
    let Some(fd) = &s.failure_domains else {
        return Ok(None);
    };
    let tree = fd.tree(s.system.num_nodes())?;
    let placement = placement_for(&s.parallelism, &s.system, &tree, placement_choice(fd)?);
    let base = section.params(s.system.num_nodes(), per_device_ckpt_bytes(s))?;
    let params = CorrelatedResilience::new(base, tree, placement)?.with_elastic(fd.elastic()?);
    Ok(Some(params.report(fault_free_s)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Query-parameter semantics: a bare key is present with an empty
    /// value and switches on.
    struct Query<'a>(&'a [(&'a str, &'a str)]);

    impl FlagReader for Query<'_> {
        fn value(&self, key: &str) -> Option<String> {
            self.0
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        }

        fn switch(&self, key: &str) -> bool {
            self.value(key)
                .is_some_and(|v| !matches!(v.as_str(), "false" | "0"))
        }
    }

    fn read(query: &[(&str, &str)]) -> Result<Params> {
        Params::read(&Query(query))
    }

    #[test]
    fn goodput_is_off_bare_true_or_hours() {
        assert_eq!(read(&[]).unwrap().goodput_hours, None);
        for bare in ["", "true"] {
            let hours = read(&[("goodput", bare)]).unwrap().goodput_hours;
            assert_eq!(hours, Some(DEFAULT_NODE_MTBF_HOURS), "goodput={bare}");
        }
        assert_eq!(
            read(&[("goodput", "1000")]).unwrap().goodput_hours,
            Some(1000.0)
        );
    }

    #[test]
    fn every_parameter_error_has_one_spelling() {
        for (key, value) in [
            ("top", "lots"),
            ("refine-sim", "-1"),
            ("goodput", "soon"),
            ("ckpt-interval", "x"),
            ("max-serve-batch", "big"),
        ] {
            let err = read(&[(key, value)]).unwrap_err();
            assert!(matches!(err, Error::Usage { .. }), "{err:?}");
            assert_eq!(
                err.to_string(),
                format!("usage: invalid value for --{key}: {value}")
            );
        }
        let err = read(&[("backend", "bogus")]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "usage: unknown backend `bogus`; use analytical|sim"
        );
    }

    #[test]
    fn search_reads_its_workload() {
        let op = |q| Op::for_command("search", &Query(q));
        assert_eq!(op(&[]).unwrap(), Some(Op::Search));
        assert_eq!(
            op(&[("workload", "infer")]).unwrap(),
            Some(Op::ServingSearch)
        );
        assert!(op(&[("workload", "batch")]).is_err());
        assert_eq!(Op::for_command("simulate", &Query(&[])).unwrap(), None);
    }
}
