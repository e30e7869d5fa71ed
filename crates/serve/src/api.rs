//! The query API: pure request → response handlers.
//!
//! Each handler resolves its scenario through the same layered pipeline
//! as the CLI ([`amped_configs::pipeline`]): built-in defaults, then a
//! `?preset=` scenario preset, then the JSON body (the scenario-file
//! layer), then scenario query parameters under the CLI's flag names
//! (`?model=`, `?nodes=`, `?tp=`, ...). The resolved scenario is priced
//! and rendered as the *same* artifact the CLI's `--json` path produces
//! for the equivalent invocation — both front-ends go through
//! [`amped_report::artifacts`], and the CLI's differential test pins the
//! byte-identity (of resolved scenarios, artifacts, and error messages).
//! Execution query parameters keep the CLI's flag names too (`top`,
//! `jobs`, `prune`, `refine-sim`, `memory-filter`, `backend`), and
//! `?resolved=true` returns the provenance-annotated resolved scenario
//! instead of pricing it — the CLI's `--dump-resolved`.
//!
//! Handlers are deliberately free of transport and threading concerns:
//! they take a parsed [`Request`] and return a [`Response`], so they are
//! directly testable and the server's worker pool stays a thin shell.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use amped_configs::pipeline::{FlagReader, FlagSet, Resolution, ScenarioDraft, Source};
use amped_configs::scenario::{FailureDomainsSection, ResilienceSection, ResolvedScenario};
use amped_core::{
    AnalyticalBackend, CachePool, CorrelatedReport, CorrelatedResilience, CostBackend, Error,
    ResilienceReport, Result, DEFAULT_NODE_MTBF_HOURS,
};
use amped_memory::{MemoryModel, OptimizerSpec};
use amped_obs::Observer;
use amped_infer::{AnalyticalInferBackend, InferBackend};
use amped_search::{
    placement_for, DomainGoodput, EnumerationOptions, GoodputOptions, PlacementChoice,
    SearchEngine, ServingSearch, ServingSweepOptions, Sweep,
};
use amped_sim::SimBackend;

use crate::http::{Request, Response};

/// Shared immutable state every request handler sees.
#[derive(Debug)]
pub struct ServiceState {
    /// The process-wide estimate-cache pool: repeated and overlapping
    /// queries over the same scenario context reuse memoized sub-results.
    pub pool: Arc<CachePool>,
    /// The process-wide observer behind `/v1/metrics`. Per-request
    /// observers are folded into it (counters add, gauges max, histogram
    /// buckets add) so the process keeps no unbounded per-request records.
    pub observer: Arc<Observer>,
    /// Requests currently inside the server (parsed and not yet
    /// answered), behind the `serve.http.in_flight` gauge.
    pub in_flight: AtomicU64,
}

impl ServiceState {
    /// Fresh state with an empty pool and observer.
    #[must_use]
    pub fn new() -> Self {
        ServiceState {
            pool: Arc::new(CachePool::new()),
            observer: Arc::new(Observer::new()),
            in_flight: AtomicU64::new(0),
        }
    }
}

impl Default for ServiceState {
    fn default() -> Self {
        Self::new()
    }
}

/// The queued (compute-bearing) endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/estimate`
    Estimate,
    /// `POST /v1/infer`
    Infer,
    /// `POST /v1/search`
    Search,
    /// `POST /v1/sweep`
    Sweep,
    /// `POST /v1/resilience`
    Resilience,
    /// `POST /v1/recommend`
    Recommend,
}

impl Endpoint {
    /// The endpoint for a request path, if it is a compute endpoint.
    #[must_use]
    pub fn from_path(path: &str) -> Option<Endpoint> {
        match path {
            "/v1/estimate" => Some(Endpoint::Estimate),
            "/v1/infer" => Some(Endpoint::Infer),
            "/v1/search" => Some(Endpoint::Search),
            "/v1/sweep" => Some(Endpoint::Sweep),
            "/v1/resilience" => Some(Endpoint::Resilience),
            "/v1/recommend" => Some(Endpoint::Recommend),
            _ => None,
        }
    }

    /// The short name used in metrics series (`serve.http.<name>.*`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Estimate => "estimate",
            Endpoint::Infer => "infer",
            Endpoint::Search => "search",
            Endpoint::Sweep => "sweep",
            Endpoint::Resilience => "resilience",
            Endpoint::Recommend => "recommend",
        }
    }
}

/// Handle one compute request: parse, price, render. Never panics on bad
/// input — every typed error becomes the HTTP status of its kind with the
/// exact message the CLI would print.
pub fn handle(state: &ServiceState, endpoint: Endpoint, req: &Request) -> Response {
    let outcome = match endpoint {
        Endpoint::Estimate => estimate(state, req),
        Endpoint::Infer => infer(state, req),
        Endpoint::Search => search(state, req),
        Endpoint::Sweep => sweep(state, req),
        Endpoint::Resilience => resilience(state, req),
        Endpoint::Recommend => recommend(state, req),
    };
    match outcome {
        Ok(response) => response,
        Err(e) => Response::error(status_for(&e), &e.to_string()),
    }
}

/// The HTTP status for a typed error: bad input is the client's fault
/// (400, mirroring the CLI's exit code 2 for usage errors), I/O is ours.
fn status_for(e: &Error) -> u16 {
    match e {
        Error::Io { .. } => 500,
        _ => 400,
    }
}

/// Scenario query parameters read through the same [`FlagReader`] seam
/// as the CLI's flags, so `?nodes=4` and `--nodes 4` take one code path.
struct QueryReader<'a>(&'a Request);

impl FlagReader for QueryReader<'_> {
    fn value(&self, key: &str) -> Option<String> {
        self.0.query_param(key).map(String::from)
    }

    fn switch(&self, key: &str) -> bool {
        param_switch(self.0, key)
    }
}

/// Resolve this request's scenario through the layered pipeline:
/// built-in defaults < `base` overlay < `?preset=` < JSON body < scenario
/// query parameters. The body is required (it may be `{}` when the
/// scenario comes entirely from presets and parameters) so that an empty
/// POST stays an explicit, early error.
fn resolution(
    req: &Request,
    set: FlagSet,
    base: Option<serde_json::Value>,
) -> Result<Resolution> {
    if req.body.trim().is_empty() {
        return Err(Error::usage(
            "request body must be a scenario JSON document",
        ));
    }
    let mut draft = ScenarioDraft::new();
    if let Some(doc) = base {
        draft.push(Source::Defaults, doc)?;
    }
    if let Some(name) = req.query_param("preset") {
        draft.preset(name)?;
    }
    draft.push_json(Source::File, &req.body)?;
    draft.flags(&QueryReader(req), set)?;
    draft.resolve()
}

/// The `?resolved=true` response: the provenance-annotated resolved
/// scenario instead of a priced artifact (the CLI's `--dump-resolved`).
fn dump_resolved(req: &Request, r: &Resolution) -> Option<Result<Response>> {
    param_switch(req, "resolved").then(|| Ok(Response::json(to_json(&r.dump_value())?)))
}

/// Parse query parameter `key` as `T`, or `default` when absent —
/// `Args::parse_or` for the query string.
fn param_or<T: std::str::FromStr>(req: &Request, key: &str, default: T) -> Result<T> {
    match req.query_param(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            Error::usage(format!("invalid value for query parameter `{key}`: {v}"))
        }),
    }
}

/// Whether boolean query parameter `key` is set (`?prune`, `?prune=true`).
fn param_switch(req: &Request, key: &str) -> bool {
    match req.query_param(key) {
        None => false,
        Some(v) => !matches!(v, "false" | "0"),
    }
}

/// The cost backend selected by the `backend` query parameter
/// (analytical when absent) — the CLI's `--backend`.
fn backend_for(req: &Request) -> Result<Box<dyn CostBackend>> {
    match req.query_param("backend").unwrap_or("analytical") {
        "analytical" => Ok(Box::new(AnalyticalBackend)),
        "sim" => Ok(Box::new(SimBackend::new())),
        other => Err(Error::usage(format!(
            "unknown backend `{other}`; use analytical|sim"
        ))),
    }
}

/// The bytes each device writes per checkpoint: its weight + optimizer
/// shard under this scenario's mapping (the CLI's `per_device_ckpt_bytes`).
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

/// The parsed `placement` spelling of a `failure_domains` section (the
/// CLI's `placement_choice`, byte-identical error included).
fn placement_choice(fd: &FailureDomainsSection) -> Result<PlacementChoice> {
    PlacementChoice::parse(&fd.placement).ok_or_else(|| {
        Error::usage(format!(
            "unknown layout `{}`; use auto, replica-major or stage-major",
            fd.placement
        ))
    })
}

/// The correlated expected-time report when the scenario carries a
/// `failure_domains` section — the CLI's `correlated_report`, so both
/// front-ends price the same tree, placement and elastic recovery.
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

/// The `?goodput=` MTBF in hours: the parameter's value when it carries
/// one, the six-month default when it is bare (`?goodput` / `?goodput=true`,
/// the CLI's valueless `--goodput`).
fn goodput_mtbf_hours(req: &Request) -> Result<f64> {
    match req.query_param("goodput") {
        None | Some("") | Some("true") => Ok(DEFAULT_NODE_MTBF_HOURS),
        Some(v) => v.parse().map_err(|_| {
            Error::usage(format!("invalid value for query parameter `goodput`: {v}"))
        }),
    }
}

/// The `?goodput=` expected-time options for search/recommend — the CLI's
/// `goodput_options` over query parameters, including the scenario's
/// `failure_domains` section when one resolved.
fn goodput_options(req: &Request, s: &ResolvedScenario) -> Result<GoodputOptions> {
    let mut opts = GoodputOptions::new(goodput_mtbf_hours(req)? * 3600.0);
    opts.restart_s = param_or(req, "restart", opts.restart_s)?;
    let gbps: f64 = param_or(req, "ckpt-gbps", 16.0)?;
    opts.ckpt_write_bytes_per_s = gbps * 1e9 / 8.0;
    if let Some(v) = req.query_param("ckpt-interval") {
        opts.interval_s = Some(v.parse().map_err(|_| {
            Error::usage(format!("invalid value for query parameter `ckpt-interval`: {v}"))
        })?);
    }
    if let Some(fd) = &s.failure_domains {
        opts = opts.with_failure_domains(DomainGoodput {
            tree: fd.tree(s.system.num_nodes())?,
            elastic: Some(fd.elastic()?),
            placement: placement_choice(fd)?,
        });
    }
    Ok(opts)
}

/// Price the scenario through the selected backend. The analytical path
/// evaluates against a pool lease — bit-identical to a fresh cache (the
/// memoized sub-results are exact), which is what lets the pool make
/// repeat queries cheap without perturbing any response byte.
fn evaluate(state: &ServiceState, req: &Request, s: &ResolvedScenario) -> Result<amped_core::Estimate> {
    let scenario = s.to_scenario();
    match req.query_param("backend").unwrap_or("analytical") {
        "analytical" => {
            let mut lease = state.pool.checkout(scenario.cache_context_key());
            let estimate = AnalyticalBackend.evaluate_with_cache(&mut lease, &scenario, &s.training);
            let (hits, misses) = lease.stats_delta();
            state.observer.add("serve.cache.hits", hits);
            state.observer.add("serve.cache.misses", misses);
            state.observer.add("serve.cache.lookups", hits + misses);
            estimate
        }
        _ => backend_for(req)?.evaluate(&scenario, &s.training),
    }
}

fn estimate(state: &ServiceState, req: &Request) -> Result<Response> {
    let r = resolution(req, FlagSet::with_resilience(), None)?;
    if let Some(dump) = dump_resolved(req, &r) {
        return dump;
    }
    let s = &r.scenario;
    let estimate = evaluate(state, req, s)?;
    // A resilience section in the scenario layers the analytical
    // checkpoint/restart model on top of the fault-free estimate, exactly
    // as the CLI's `estimate` path does.
    let report = match &s.resilience {
        Some(section) => Some(expected_time_report(s, section, estimate.total_time.get())?),
        None => None,
    };
    let value = amped_report::artifacts::estimate_value(&estimate, report.as_ref());
    Ok(Response::json(to_json(&value)?))
}

fn infer(_state: &ServiceState, req: &Request) -> Result<Response> {
    // Same empty-section base as the CLI's `infer` command: the serde
    // defaults apply identically, so the two front-ends price the same
    // request byte for byte.
    let base = serde_json::json!({ "inference": {} });
    let r = resolution(req, FlagSet::with_inference(), Some(base))?;
    if let Some(dump) = dump_resolved(req, &r) {
        return dump;
    }
    let s = &r.scenario;
    let section = s
        .inference
        .ok_or_else(|| Error::usage("infer needs an inference section"))?;
    let config = section.params()?;
    let estimate = AnalyticalInferBackend.evaluate(&s.to_scenario(), &config)?;
    let value = amped_report::artifacts::infer_value(&estimate);
    Ok(Response::json(to_json(&value)?))
}

/// `?workload=infer` on `/v1/search`: the serving-mapping sweep, the
/// CLI's `search --workload infer`.
fn search_infer(state: &ServiceState, req: &Request) -> Result<Response> {
    let base = serde_json::json!({ "inference": {} });
    let r = resolution(req, FlagSet::with_inference(), Some(base))?;
    if let Some(dump) = dump_resolved(req, &r) {
        return dump;
    }
    let s = &r.scenario;
    let section = s
        .inference
        .ok_or_else(|| Error::usage("search --workload infer needs an inference section"))?;
    let request = section.params()?;
    let observer = Arc::new(Observer::new());
    let engine = ServingSearch::new(&s.model, &s.accelerator, &s.system)
        .with_precision(s.precision)
        .with_sweep(ServingSweepOptions {
            max_batch: param_or(req, "max-serve-batch", 64)?,
            ..ServingSweepOptions::default()
        })
        .with_parallelism(param_or(req, "jobs", 0)?)
        .with_pruning(param_switch(req, "prune"))
        .with_observer(Arc::clone(&observer));
    let (results, stats) = engine.search_with_stats(&request)?;
    state.observer.absorb(&observer);
    let top: usize = param_or(req, "top", 10)?;
    let value = amped_report::artifacts::serving_search_value(&results, top, &stats);
    Ok(Response::json(to_json(&value)?))
}

fn resilience(state: &ServiceState, req: &Request) -> Result<Response> {
    // Same default-MTBF overlay as the CLI's resilience command: it sits
    // just above the built-in defaults, so presets, the body, and query
    // parameters all override it through the normal layering.
    let base = serde_json::json!({
        "resilience": { "node_mtbf_hours": DEFAULT_NODE_MTBF_HOURS }
    });
    let r = resolution(req, FlagSet::with_failure_domains(), Some(base))?;
    if let Some(dump) = dump_resolved(req, &r) {
        return dump;
    }
    let s = &r.scenario;
    let estimate = evaluate(state, req, s)?;
    let section = s
        .resilience
        .ok_or_else(|| Error::usage("resilience needs an MTBF"))?;
    // A `failure_domains` section layers correlated rack/pod outages and
    // elastic recovery on the flat model, exactly as the CLI does.
    let correlated = correlated_report(s, &section, estimate.total_time.get())?;
    let report = match &correlated {
        Some(c) => c.flat_report(),
        None => expected_time_report(s, &section, estimate.total_time.get())?,
    };
    let value =
        amped_report::artifacts::resilience_value(&estimate, &report, correlated.as_ref());
    Ok(Response::json(to_json(&value)?))
}

/// The search engine for one request, configured exactly as the CLI's
/// `search` command configures it from flags, plus the shared cache pool
/// and a per-request observer (both passive: rankings are bit-identical
/// with or without them, at any worker count).
fn engine_for<'a>(
    state: &ServiceState,
    req: &Request,
    s: &'a ResolvedScenario,
    observer: &Arc<Observer>,
) -> Result<SearchEngine<'a>> {
    Ok(SearchEngine::new(&s.model, &s.accelerator, &s.system)
        .with_precision(s.precision)
        .with_efficiency(s.efficiency.clone())
        .with_engine_options(s.options)
        .with_enumeration(EnumerationOptions::default())
        .with_parallelism(param_or(req, "jobs", 0)?)
        .with_pruning(param_switch(req, "prune"))
        .with_memory_filter(param_switch(req, "memory-filter"))
        .with_refine_sim(param_or(req, "refine-sim", 0)?)
        .with_cache_pool(Arc::clone(&state.pool))
        .with_observer(Arc::clone(observer)))
}

fn search(state: &ServiceState, req: &Request) -> Result<Response> {
    // `?workload=infer` switches to the serving-mapping sweep — the
    // CLI's `--workload infer`, byte-identical error message included.
    match req.query_param("workload").unwrap_or("train") {
        "train" => {}
        "infer" => return search_infer(state, req),
        other => {
            return Err(Error::usage(format!(
                "unknown workload `{other}`; use train|infer"
            )))
        }
    }
    // `?goodput[=HOURS]` ranks by expected time under failures — the
    // CLI's `--goodput`. With it on, the failure-domain query parameters
    // are live and a default-MTBF resilience base satisfies the domain
    // section's prerequisite through the normal layering.
    let goodput_on = req.query_param("goodput").is_some();
    let mtbf_hours = goodput_mtbf_hours(req)?;
    let set = FlagSet {
        failure_domains: goodput_on,
        ..FlagSet::default()
    };
    let base = goodput_on.then(|| {
        serde_json::json!({
            "resilience": { "node_mtbf_hours": mtbf_hours }
        })
    });
    let r = resolution(req, set, base)?;
    if let Some(dump) = dump_resolved(req, &r) {
        return dump;
    }
    let s = &r.scenario;
    let observer = Arc::new(Observer::new());
    let mut engine = engine_for(state, req, s, &observer)?;
    if goodput_on {
        engine = engine.with_goodput(goodput_options(req, s)?);
    }
    let (results, stats) = engine.search_with_stats(&s.training)?;
    state.observer.absorb(&observer);
    let top: usize = param_or(req, "top", 10)?;
    let value = amped_report::artifacts::search_value(&results, top, &stats);
    Ok(Response::json(to_json(&value)?))
}

fn recommend(state: &ServiceState, req: &Request) -> Result<Response> {
    // `?goodput[=HOURS]` wires in exactly as on search: the
    // recommendation rides on the same ranking.
    let goodput_on = req.query_param("goodput").is_some();
    let mtbf_hours = goodput_mtbf_hours(req)?;
    let set = FlagSet {
        failure_domains: goodput_on,
        ..FlagSet::default()
    };
    let base = goodput_on.then(|| {
        serde_json::json!({
            "resilience": { "node_mtbf_hours": mtbf_hours }
        })
    });
    let r = resolution(req, set, base)?;
    if let Some(dump) = dump_resolved(req, &r) {
        return dump;
    }
    let s = &r.scenario;
    let observer = Arc::new(Observer::new());
    // `recommend` always filters to memory-feasible mappings (the CLI
    // does the same); `jobs` and `refine-sim` plumb through.
    let mut engine = engine_for(state, req, s, &observer)?.with_memory_filter(true);
    if goodput_on {
        engine = engine.with_goodput(goodput_options(req, s)?);
    }
    let outcome = engine.recommend(&s.training)?;
    state.observer.absorb(&observer);
    match outcome {
        Some(rec) => {
            let value = amped_report::artifacts::recommend_value(&rec);
            Ok(Response::json(to_json(&value)?))
        }
        None => Err(Error::usage(
            "no memory-feasible mapping; shard more (TP/PP), enable recomputation, or use bigger devices",
        )),
    }
}

fn sweep(state: &ServiceState, req: &Request) -> Result<Response> {
    let r = resolution(req, FlagSet::default(), None)?;
    if let Some(dump) = dump_resolved(req, &r) {
        return dump;
    }
    let s = &r.scenario;
    // Compare the canonical inter-node strategies at the scenario's node
    // shape, TP filling the node, across a batch ladder — the CLI's sweep.
    let per_node = s.system.accels_per_node();
    let nodes = s.system.num_nodes();
    let mut mappings: Vec<(String, amped_core::Parallelism)> = Vec::new();
    let dp = amped_core::Parallelism::builder()
        .tp(per_node, 1)
        .dp(1, nodes)
        .build()?;
    mappings.push(("dp-inter".into(), dp));
    if nodes > 1 {
        let pp_x = nodes.min(s.model.num_layers());
        if nodes % pp_x == 0 {
            let pp = amped_core::Parallelism::builder()
                .tp(per_node, 1)
                .pp(1, pp_x)
                .dp(1, nodes / pp_x)
                .build()?;
            mappings.push(("pp-inter".into(), pp));
        }
        if s.model.num_heads() >= 2 * per_node && nodes % 2 == 0 {
            let tp = amped_core::Parallelism::builder()
                .tp(per_node, 2)
                .dp(1, nodes / 2)
                .build()?;
            mappings.push(("tp-inter2".into(), tp));
        }
    }
    let base = s.training.global_batch();
    let batches: Vec<usize> = [1usize, 2, 4].iter().map(|m| base * m).collect();
    let observer = Arc::new(Observer::new());
    let engine = SearchEngine::new(&s.model, &s.accelerator, &s.system)
        .with_precision(s.precision)
        .with_efficiency(s.efficiency.clone())
        .with_engine_options(s.options)
        .with_parallelism(param_or(req, "jobs", 0)?)
        .with_cache_pool(Arc::clone(&state.pool))
        .with_observer(Arc::clone(&observer));
    let sweep = match req.query_param("backend") {
        None => Sweep::run(&engine, &mappings, &batches, s.training.num_batches()),
        Some(_) => {
            let backend = backend_for(req)?;
            Sweep::run_backend(
                &engine,
                backend.as_ref(),
                &mappings,
                &batches,
                s.training.num_batches(),
            )
        }
    }?;
    state.observer.absorb(&observer);
    // `?json=true` returns the versioned sweep artifact — the CLI's
    // `sweep --json`; the default stays the historical CSV text.
    if param_switch(req, "json") {
        let value = amped_report::artifacts::sweep_value(&sweep);
        return Ok(Response::json(to_json(&value)?));
    }
    Ok(Response::text(amped_report::artifacts::sweep_text(&sweep)))
}

/// Pretty-print a serializable value (the CLI's `to_json`).
fn to_json<T: serde::Serialize>(value: &T) -> Result<String> {
    serde_json::to_string_pretty(value).map_err(|e| Error::invalid("json", e.to_string()))
}
