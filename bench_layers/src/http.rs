//! The two HTTP workloads: an in-process `amped-serve` server on an
//! ephemeral port, driven open loop by Poisson arrivals from a seeded
//! schedule. Two sender threads (this host's core count) pull the next due
//! request from the shared schedule, each over at most one connection.
//! Latency runs from the due time, so a stalled sender charges its wait to
//! every request queued behind it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amped_core::Result as AmpedResult;
use amped_obs::TraceEvent;
use amped_serve::api::{self, Endpoint, ServiceState};
use amped_serve::{ServeConfig, ServeSummary, Server, ServerHandle};

use crate::client::{self, Conn, Exchange, Failure};
use crate::inputs::{self, Arrival, HttpRequest};
use crate::report::{Metrics, Outcome};
use crate::stats::{ratio, Samples};
use crate::{peak_rss_mb, Budget, SpanSink, SETUP_REPEATS};

/// Offered load of http-estimate, requests per second.
pub const ESTIMATE_RATE: f64 = 60.0;
/// Offered load of http-mixed, requests per second.
pub const MIXED_RATE: f64 = 40.0;
/// A request unanswered this long after its due time has failed.
const CENSOR: Duration = Duration::from_secs(1);
/// Latency recorded for a failed request, milliseconds.
const CENSORED_MS: f64 = 1000.0;
/// Sender threads, and so the most connections open at once.
const SENDERS: usize = 2;
/// Every this-many-th request is re-answered in-process and compared.
const CHECK_EVERY: usize = 50;

const ENDPOINTS: [&str; 6] = [
    "estimate",
    "infer",
    "search",
    "sweep",
    "resilience",
    "recommend",
];

/// A running server and what is needed to stop it.
struct Live {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    handle: ServerHandle,
    thread: JoinHandle<AmpedResult<ServeSummary>>,
}

impl Live {
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Set-up: bind, wait for the first `/v1/health` 200, then one warm-up
/// pass over the repeated templates so the cache pool holds their
/// contexts.
fn start(templates: &[HttpRequest]) -> Result<Live, String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let live = Live {
        addr,
        state: server.state(),
        handle: server.handle(),
        thread: std::thread::spawn(move || server.run()),
    };
    match warm(&live, templates) {
        Ok(()) => Ok(live),
        Err(e) => {
            let _ = live.stop();
            Err(e)
        }
    }
}

fn warm(live: &Live, templates: &[HttpRequest]) -> Result<(), String> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        match client::get(live.addr, "/v1/health", Duration::from_secs(1)) {
            Ok(reply) if reply.status == 200 => break,
            _ if Instant::now() > give_up => return Err("server never became healthy".into()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let mut conn = Conn::new(live.addr);
    for t in templates {
        let ex = conn
            .exchange(&t.to_bytes(), Instant::now() + Duration::from_secs(30))
            .map_err(|f| format!("warm-up {}: {f:?}", t.target()))?;
        if ex.reply.status != 200 {
            return Err(format!(
                "warm-up {} answered {}: {}",
                t.target(),
                ex.reply.status,
                ex.reply.body
            ));
        }
    }
    Ok(())
}

/// One sent request, times in seconds from the start of the window.
#[derive(Debug, Clone, Default)]
struct Sent {
    index: usize,
    sender: usize,
    due: f64,
    start: f64,
    connected: Option<f64>,
    written: f64,
    first_byte: f64,
    /// When the answer completed; `None` when it never came in time.
    done: Option<f64>,
    status: u16,
    /// Kept only for requests the check pass re-answers.
    body: Option<String>,
    error: Option<String>,
}

/// Latency from due time to answer, milliseconds, or the censoring value
/// when the answer came later than [`CENSOR`] after the due time (or not
/// at all). The flag says whether the request was censored.
fn latency_ms(due: f64, done: Option<f64>) -> (f64, bool) {
    match done {
        Some(t) if t - due <= CENSOR.as_secs_f64() => ((t - due) * 1e3, false),
        _ => (CENSORED_MS, true),
    }
}

/// How late the generator sent a request, milliseconds (never negative).
fn late_ms(due: f64, start: f64) -> f64 {
    ((start - due) * 1e3).max(0.0)
}

/// One sender thread: pull the next due request, wait for its due time,
/// send it and record what happened.
fn sender(
    id: usize,
    addr: SocketAddr,
    schedule: &[Arrival],
    next: &AtomicUsize,
    t0: Instant,
) -> (Vec<Sent>, u64) {
    let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let mut conn = Conn::new(addr);
    let mut out = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(arrival) = schedule.get(index) else {
            break;
        };
        let due = t0 + Duration::from_secs_f64(arrival.due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let start = Instant::now();
        let mut sent = Sent {
            index,
            sender: id,
            due: arrival.due_s,
            start: secs(start),
            ..Sent::default()
        };
        match conn.exchange(&arrival.request.to_bytes(), due + CENSOR) {
            Ok(Exchange {
                reply,
                connected,
                written,
                first_byte,
                done,
            }) => {
                sent.connected = connected.map(secs);
                sent.written = secs(written);
                sent.first_byte = secs(first_byte);
                sent.done = Some(secs(done));
                sent.status = reply.status;
                if index.is_multiple_of(CHECK_EVERY) || reply.status != 200 {
                    sent.body = Some(reply.body);
                }
            }
            Err(Failure::Censored) => sent.error = Some("unanswered 1 s after its due time".into()),
            Err(Failure::Transport(e)) => sent.error = Some(e),
        }
        out.push(sent);
    }
    (out, conn.connects)
}

/// Server-side books at one instant.
#[derive(Debug, Clone, Default)]
struct Books {
    queue_sum: u64,
    queue_count: u64,
    handler_sum: u64,
    counters: std::collections::BTreeMap<String, u64>,
    checkouts: u64,
    warm_checkouts: u64,
}

impl Books {
    fn take(state: &ServiceState) -> Books {
        let mut b = Books {
            counters: state.observer.counters(),
            checkouts: state.pool.checkouts(),
            warm_checkouts: state.pool.warm_checkouts(),
            ..Books::default()
        };
        for ep in ENDPOINTS {
            let queue = state
                .observer
                .histogram(&format!("serve.http.{ep}.queue_us"));
            let handler = state
                .observer
                .histogram(&format!("serve.http.{ep}.handler_us"));
            b.queue_sum += queue.sum();
            b.queue_count += queue.count();
            b.handler_sum += handler.sum();
        }
        b
    }

    fn delta(&self, before: &Books, name: &str) -> u64 {
        let get = |b: &Books| b.counters.get(name).copied().unwrap_or(0);
        get(self).saturating_sub(get(before))
    }
}

/// Re-answer every [`CHECK_EVERY`]-th request in-process on a fresh
/// service state and require byte-identical bodies; and require every
/// answered request to be a 200.
fn check(schedule: &[Arrival], sent: &[Sent], outcome: &mut Outcome) {
    let fresh = ServiceState::new();
    for s in sent {
        let request = &schedule[s.index].request;
        if let Some(error) = &s.error {
            outcome.fail(format!("request {} {}: {error}", s.index, request.target()));
            continue;
        }
        if latency_ms(s.due, s.done).1 {
            outcome.fail(format!(
                "request {} answered more than 1 s after its due time",
                s.index
            ));
            continue;
        }
        if s.status != 200 {
            outcome.wrong(format!(
                "request {} {} answered {}: {}",
                s.index,
                request.target(),
                s.status,
                s.body.as_deref().unwrap_or_default()
            ));
            continue;
        }
        if !s.index.is_multiple_of(CHECK_EVERY) {
            continue;
        }
        let Some(endpoint) = Endpoint::from_path(request.path) else {
            outcome.wrong(format!(
                "request {}: no endpoint for {}",
                s.index, request.path
            ));
            continue;
        };
        let expected = api::handle(&fresh, endpoint, &request.to_service());
        if s.body.as_deref() != Some(expected.body.as_str()) {
            outcome.wrong(format!(
                "request {} {}: body differs from the in-process answer",
                s.index,
                request.target()
            ));
        }
    }
}

/// Run an HTTP workload.
pub fn run(seed: u64, mixed: bool, budget: Budget, sink: Option<&mut SpanSink>) -> Outcome {
    let templates = if mixed {
        inputs::mixed_templates()
    } else {
        inputs::estimate_templates()
    };
    let rate = if mixed { MIXED_RATE } else { ESTIMATE_RATE };
    let (seconds, max_requests) = match budget {
        Budget::Seconds(s) => (s, usize::MAX),
        Budget::Ops(n) => (f64::INFINITY, n),
    };

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for rep in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let started = start(&templates);
        setups.push(t0.elapsed().as_secs_f64());
        match started {
            // Each repetition after the first replaces the previous server;
            // the last one serves the measured window.
            Ok(l) => {
                if let Some(old) = live.replace(l) {
                    if let Err(e) = Live::stop(old) {
                        return Outcome::setup_failed(e);
                    }
                }
            }
            Err(e) => {
                if let Some(old) = live.take() {
                    let _ = old.stop();
                }
                return Outcome::setup_failed(format!("repetition {rep}: {e}"));
            }
        }
    }
    let live = live.expect("at least one set-up repetition");

    let schedule = inputs::schedule(seed, mixed, rate, seconds, max_requests);
    let before = Books::take(&live.state);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let (mut sent, connects) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..SENDERS)
            .map(|id| {
                let (schedule, next) = (&schedule, &next);
                scope.spawn(move || sender(id, live.addr, schedule, next, t0))
            })
            .collect();
        let mut all = Vec::new();
        let mut connects = 0;
        for w in workers {
            let (s, c) = w.join().expect("sender thread panicked");
            all.extend(s);
            connects += c;
        }
        (all, connects)
    });
    let after = Books::take(&live.state);
    sent.sort_by_key(|s| s.index);

    let mut outcome = Outcome::new();
    outcome.attempted = schedule.len() as u64;
    check(&schedule, &sent, &mut outcome);

    let latencies = Samples::new(sent.iter().map(|s| latency_ms(s.due, s.done).0).collect());
    let m = &mut outcome.metrics;
    match sink {
        None => {
            m.set("setup_s", Samples::new(setups).q(0.5));
            m.set("p50_ms", latencies.q(0.5));
            m.set("p99_ms", latencies.q(0.99));
            m.set("mean_ms", latencies.mean());
            m.set("peak_rss_mb", peak_rss_mb());
        }
        Some(sink) => {
            layer_metrics(m, &live.state, &before, &after, &sent, connects);
            record_spans(sink, &sent);
        }
    }
    if let Err(e) = live.stop() {
        outcome.wrong(e);
    }
    outcome
}

fn layer_metrics(
    m: &mut Metrics,
    state: &ServiceState,
    before: &Books,
    after: &Books,
    sent: &[Sent],
    connects: u64,
) {
    let queue_n = after.queue_count - before.queue_count;
    let queue_us = after.queue_sum - before.queue_sum;
    let handler_us = after.handler_sum - before.handler_sum;
    // Client time from the first byte sent to the last byte read, over
    // answered requests: what the server's queue and handler split.
    let client_us: f64 = sent
        .iter()
        .filter_map(|s| s.done.map(|d| (d - s.start) * 1e6))
        .sum();
    let transport = if client_us > 0.0 {
        1.0 - (queue_us + handler_us) as f64 / client_us
    } else {
        0.0
    };
    let mean = |sum: u64| {
        if queue_n == 0 {
            0.0
        } else {
            sum as f64 / queue_n as f64
        }
    };
    m.set("serve.queue_us.mean", mean(queue_us));
    m.set("serve.handler_us.mean", mean(handler_us));
    for (ep, name) in ENDPOINTS.iter().zip([
        "serve.handler_us.estimate.p50",
        "serve.handler_us.infer.p50",
        "serve.handler_us.search.p50",
        "serve.handler_us.sweep.p50",
        "serve.handler_us.resilience.p50",
        "serve.handler_us.recommend.p50",
    ]) {
        let h = state
            .observer
            .histogram(&format!("serve.http.{ep}.handler_us"));
        m.set(name, h.quantile(0.5).unwrap_or(0.0));
    }
    m.set("serve.transport_share", transport);
    // No layer owns the transport, so it is this workload's unattributed
    // share of client time.
    m.set("trace.gap_ratio", transport);
    let gauges = state.observer.gauges();
    m.set(
        "serve.queue.depth.max",
        gauges.get("serve.queue.depth.max").copied().unwrap_or(0.0),
    );
    m.set(
        "serve.in_flight.max",
        gauges
            .get("serve.http.in_flight.max")
            .copied()
            .unwrap_or(0.0),
    );
    // Pool traffic from both the estimate path and search workers.
    let hits = after.delta(before, "serve.cache.hits") + after.delta(before, "search.cache.hits");
    let lookups =
        after.delta(before, "serve.cache.lookups") + after.delta(before, "search.cache.lookups");
    m.set("serve.cache.hit_ratio", ratio(hits, lookups));
    m.set(
        "serve.pool.warm_checkout_ratio",
        ratio(
            after.warm_checkouts - before.warm_checkouts,
            after.checkouts - before.checkouts,
        ),
    );
    m.set(
        "client.connections_per_request",
        ratio(connects, sent.len() as u64),
    );
    let late = Samples::new(sent.iter().map(|s| late_ms(s.due, s.start)).collect());
    m.set("gen.late_ms.p50", late.q(0.5));
    m.set("gen.late_ms.p99", late.q(0.99));
    // Spans are built afterwards from timestamps every run takes, so a
    // traced run sends exactly what an untraced one does.
    m.set("trace.overhead_ratio", 0.0);

    let generated = after.delta(before, "search.candidates.generated");
    m.set(
        "search.pruned_ratio",
        ratio(after.delta(before, "search.candidates.pruned"), generated),
    );
    m.set(
        "search.kept_ratio",
        ratio(after.delta(before, "search.candidates.kept"), generated),
    );
    m.set(
        "memory.rejected_ratio",
        ratio(
            after.delta(before, "search.candidates.memory_rejected"),
            after.delta(before, "search.candidates.evaluated"),
        ),
    );
    m.set(
        "infer.pruned_ratio",
        ratio(
            after.delta(before, "infer.search.candidates.pruned"),
            after.delta(before, "infer.search.candidates.generated"),
        ),
    );
}

/// Client-side spans of the first requests: the generator's lateness,
/// then connect, write, wait for the first byte, and read.
fn record_spans(sink: &mut SpanSink, sent: &[Sent]) {
    for s in sent {
        let mut events = Vec::new();
        let mut span = |name: &str, from: f64, to: f64| {
            if to > from {
                events.push(TraceEvent {
                    name: name.to_string(),
                    cat: "client".into(),
                    ts_us: from * 1e6,
                    dur_us: (to - from) * 1e6,
                    pid: 0,
                    tid: s.sender as u64,
                });
            }
        };
        let Some(done) = s.done else { continue };
        span("gen.late", s.due, s.start);
        span("request", s.start, done);
        let sent_from = s.connected.unwrap_or(s.start);
        span("client.connect", s.start, sent_from);
        span("client.write", sent_from, s.written);
        span("client.wait", s.written, s.first_byte);
        span("client.read", s.first_byte, done);
        sink.push_op(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    #[test]
    fn censoring_and_lateness_on_synthetic_timestamps() {
        assert_eq!(latency_ms(2.0, Some(2.25)), (250.0, false));
        assert_eq!(latency_ms(2.0, Some(3.0)), (1000.0, false));
        assert_eq!(latency_ms(2.0, Some(3.0001)), (CENSORED_MS, true));
        assert_eq!(latency_ms(2.0, None), (CENSORED_MS, true));
        // A sender that starts late charges the wait to the request.
        assert!((latency_ms(1.0, Some(1.5)).0 - 500.0).abs() < 1e-9);
        assert!((late_ms(1.0, 1.2) - 200.0).abs() < 1e-9);
        assert_eq!(late_ms(1.0, 0.999), 0.0);

        let arrivals = inputs::schedule(1, false, 100.0, 1.0, 3);
        let sent: Vec<Sent> = (0..3)
            .map(|i| Sent {
                index: i,
                due: arrivals[i].due_s,
                start: arrivals[i].due_s,
                done: (i != 1).then_some(arrivals[i].due_s + 0.01),
                status: 200,
                error: (i == 1).then(|| "unanswered".to_string()),
                ..Sent::default()
            })
            .collect();
        let mut outcome = Outcome::new();
        // Request 0 is re-answered in-process, and has no recorded body.
        check(&arrivals, &sent, &mut outcome);
        assert_eq!(outcome.failed, 2);
        assert!(!outcome.correct);
    }

    #[test]
    fn every_generated_request_answers_200_in_process() {
        let state = ServiceState::new();
        let mixed = inputs::schedule(1, true, 100.0, 1.0, 60);
        let requests = inputs::mixed_templates()
            .into_iter()
            .chain(inputs::estimate_templates())
            .chain(mixed.into_iter().map(|a| a.request));
        for r in requests {
            let endpoint = Endpoint::from_path(r.path).unwrap();
            let response = api::handle(&state, endpoint, &r.to_service());
            assert_eq!(
                response.status,
                200,
                "{} {}: {}",
                r.target(),
                r.body,
                response.body
            );
        }
    }

    #[test]
    fn few_op_smoke_of_both_http_workloads() {
        for mixed in [false, true] {
            let outcome = run(5, mixed, Budget::Ops(6), None);
            assert!(
                outcome.correct && outcome.failed == 0,
                "{:?}",
                outcome.errors
            );
            assert_eq!(outcome.attempted, 6);
            let rows = outcome.metrics.rows(false);
            assert!(rows.iter().all(|(_, v, _)| *v > 0.0), "{rows:?}");

            let mut sink = SpanSink::new(0);
            let traced = run(5, mixed, Budget::Ops(6), Some(&mut sink));
            assert!(traced.correct, "{:?}", traced.errors);
            let rows: std::collections::BTreeMap<_, _> = traced
                .metrics
                .rows(true)
                .into_iter()
                .map(|(n, v, _)| (n, v))
                .collect();
            assert_eq!(rows.len(), PER_LAYER.len());
            assert!(rows["serve.handler_us.estimate.p50"] > 0.0);
            assert!(rows["client.connections_per_request"] > 0.0);
            assert!(!sink.events().is_empty());
        }
    }
}
