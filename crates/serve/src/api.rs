//! The query API: the HTTP transport over [`crate::ops`].
//!
//! Every compute endpoint is one shared [`Op`](crate::ops::Op), run
//! exactly as the CLI runs it: the query string is the flag layer (the
//! CLI's flag names, `?model=`, `?nodes=`, `?top=`, `?prune`, ...), the
//! JSON body is the scenario-file layer, and the op's outcome renders as
//! the artifact the CLI's `--json` prints. What this module adds is only
//! HTTP: the [`Endpoint`] table, the [`ServiceState`] every request
//! shares, reading query parameters, the empty-body check,
//! `?resolved=true` (the CLI's `--dump-resolved`), the sweep's text
//! default, status mapping, and folding each request's observer into the
//! process observer.
//!
//! Handlers are deliberately free of transport and threading concerns:
//! they take a parsed [`Request`] and return a [`Response`], so they are
//! directly testable and the server's worker pool stays a thin shell.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use amped_configs::pipeline::FlagReader;
use amped_core::{CachePool, Error, Result};
use amped_obs::Observer;

use crate::http::{Request, Response};
use crate::ops::{to_json, Context, Op, Outcome, Params};

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

    /// The short name: the CLI command the endpoint answers (its
    /// [`Op`]) and its metrics prefix (`serve.http.<name>.*`).
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
    match run(state, endpoint, req) {
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

/// Query parameters read through the same [`FlagReader`] seam as the
/// CLI's flags, so `?nodes=4` and `--nodes 4` take one code path.
struct QueryReader<'a>(&'a Request);

impl FlagReader for QueryReader<'_> {
    fn value(&self, key: &str) -> Option<String> {
        self.0.query_param(key).map(String::from)
    }

    /// `?prune` and `?prune=true` are on; `?prune=false` and `?prune=0`
    /// are off.
    fn switch(&self, key: &str) -> bool {
        self.0
            .query_param(key)
            .is_some_and(|v| !matches!(v, "false" | "0"))
    }
}

/// Run the endpoint's op over the request: the body is the scenario-file
/// layer, the query string the flag layer. The body is required (it may be
/// `{}` when the scenario comes entirely from presets and parameters) so
/// that an empty POST stays an explicit, early error.
fn run(state: &ServiceState, endpoint: Endpoint, req: &Request) -> Result<Response> {
    let reader = QueryReader(req);
    let op =
        Op::for_command(endpoint.name(), &reader)?.expect("every compute endpoint is a shared op");
    if req.body.trim().is_empty() {
        return Err(Error::usage(
            "request body must be a scenario JSON document",
        ));
    }
    let params = Params::read(&reader)?;
    let r = op.resolve(&params, &reader, Some(&req.body))?;
    // `?resolved=true` returns the provenance-annotated resolved scenario
    // instead of pricing it (the CLI's `--dump-resolved`).
    if reader.switch("resolved") {
        return Ok(Response::json(to_json(&r.dump_value())?));
    }
    let observer = Arc::new(Observer::new());
    let ctx = Context {
        observer: Some(Arc::clone(&observer)),
        pool: Some(Arc::clone(&state.pool)),
    };
    let outcome = op.execute(&r.scenario, &params, &ctx)?;
    state.observer.absorb(&observer);
    match &outcome {
        // The sweep answers its historical CSV text unless `?json=true`
        // asks for the artifact (the CLI's `sweep --json`).
        Outcome::Sweep(sweep) if !reader.switch("json") => {
            Ok(Response::text(amped_report::artifacts::sweep_text(sweep)))
        }
        _ => Ok(Response::json(to_json(&outcome.artifact())?)),
    }
}
