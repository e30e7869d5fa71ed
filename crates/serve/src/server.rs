//! The daemon: accept loop, bounded job queue, worker pool, shutdown.
//!
//! # Threading model
//!
//! One accept loop blocks in `accept()`. Each accepted connection gets a
//! connection thread that serves its requests in turn (HTTP/1.1
//! keep-alive, see [`crate::http`]): it parses a request and either
//! answers it inline (health, metrics, shutdown — these must respond even
//! under full load) or enqueues a job on the bounded queue and waits on
//! the job's result slot. A fixed pool of worker threads drains the queue
//! and runs the actual pricing. This split keeps slow model evaluations
//! from ever blocking liveness probes, and makes backpressure a queue
//! property instead of a thread-count one.
//!
//! # Backpressure contract
//!
//! The queue holds at most `queue_depth` jobs. A request arriving at a
//! full queue is refused immediately with `429 Too Many Requests` and a
//! `Retry-After` header — never buffered unboundedly, never silently
//! dropped. A job that waits longer than `timeout_ms` from enqueue is
//! answered `504 Gateway Timeout`; if it is still queued when its deadline
//! passes, workers skip pricing it entirely.
//!
//! # Shutdown
//!
//! SIGINT/SIGTERM (when enabled), `POST /v1/shutdown`, or
//! [`ServerHandle::shutdown`] set one flag and then connect to the
//! listener, which wakes the blocked accept. The accept loop drops that
//! connection and stops taking new ones, the queue closes (drain
//! semantics: queued jobs still run), connections idle between requests
//! are closed, a response in progress is still written (with
//! `Connection: close`), workers finish and exit, and [`Server::run`]
//! returns a [`ServeSummary`] of the session.

use std::collections::VecDeque;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use amped_core::{Error, Result};
use amped_obs::Observer;

use crate::access::{AccessEntry, AccessLog};
use crate::api::{self, Endpoint, ServiceState};
use crate::http::{self, Request, Response};

/// Read/write timeouts on accepted connections, so a stalled peer can
/// never wedge a connection thread across shutdown. The read timeout also
/// closes a kept-alive connection left idle this long.
const STREAM_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the signal watcher checks for SIGINT/SIGTERM: the bound on
/// signal-to-shutdown latency, off every request's path.
const SIGNAL_POLL: Duration = Duration::from_millis(10);

/// Give-up time for the self-connect that wakes the accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server configuration (the CLI's `serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8750` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Worker threads pricing requests (0 = one per available CPU).
    pub jobs: usize,
    /// Bounded queue depth; requests beyond it are refused with 429.
    pub queue_depth: usize,
    /// Per-request deadline measured from enqueue, milliseconds.
    pub timeout_ms: u64,
    /// Install a SIGINT/SIGTERM handler for graceful shutdown. The CLI
    /// sets this; in-process tests leave it off and use
    /// [`ServerHandle::shutdown`] instead.
    pub handle_sigint: bool,
    /// Append a structured JSON access log line per answered request to
    /// this file (the CLI's `--access-log <path>`).
    pub access_log: Option<String>,
    /// Mirror access log lines to stderr (the CLI's `serve -v`).
    pub verbose: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8750".to_string(),
            jobs: 0,
            queue_depth: 64,
            timeout_ms: 30_000,
            handle_sigint: false,
            access_log: None,
            verbose: false,
        }
    }
}

/// What one server session did, reported when [`Server::run`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Compute requests received (excludes health/metrics).
    pub received: u64,
    /// Requests priced and answered.
    pub completed: u64,
    /// Requests refused by backpressure (429).
    pub rejected: u64,
    /// Requests that hit their deadline (504).
    pub timeouts: u64,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} request(s): {} completed, {} rejected, {} timed out",
            self.received, self.completed, self.rejected, self.timeouts
        )
    }
}

/// A remote control for a running server (cloneable, thread-safe).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    /// Where a self-connect reaches the listener.
    addr: SocketAddr,
}

impl ServerHandle {
    /// Ask the server to shut down gracefully (idempotent).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop blocked in `accept()`: it sees the flag and
        // drops this connection. Once the listener is gone the connect
        // just fails.
        let _ = TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The listener's address as a client reaches it: an unspecified bind IP
/// (`0.0.0.0`, `::`) becomes loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// One queued compute request.
struct Job {
    endpoint: Endpoint,
    request: Request,
    slot: Arc<ResultSlot>,
    enqueued: Instant,
    deadline: Instant,
    timing: Arc<JobTiming>,
}

/// Per-job telemetry the worker writes and the connection thread reads
/// back for the access log: queue-wait and handler microseconds.
#[derive(Debug, Default)]
struct JobTiming {
    queue_us: AtomicU64,
    handler_us: AtomicU64,
}

/// The rendezvous between a connection thread and the worker pricing its
/// job.
struct ResultSlot {
    cell: Mutex<Option<Response>>,
    ready: Condvar,
}

impl ResultSlot {
    fn new() -> Self {
        ResultSlot {
            cell: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fulfill(&self, response: Response) {
        *self.cell.lock().expect("result slot poisoned") = Some(response);
        self.ready.notify_all();
    }

    /// Wait until the response arrives or `deadline` passes.
    fn wait_until(&self, deadline: Instant) -> Option<Response> {
        let mut cell = self.cell.lock().expect("result slot poisoned");
        loop {
            if let Some(response) = cell.take() {
                return Some(response);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timed_out) = self
                .ready
                .wait_timeout(cell, deadline - now)
                .expect("result slot poisoned");
            cell = next;
            if timed_out.timed_out() && cell.is_none() {
                return None;
            }
        }
    }
}

/// The bounded, closable job queue.
struct JobQueue {
    inner: Mutex<QueueInner>,
    available: Condvar,
    capacity: usize,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue a job, returning the new depth; `None` when the queue is
    /// full or closed (the backpressure path).
    fn push(&self, job: Job) -> Option<usize> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        if inner.closed || inner.jobs.len() >= self.capacity {
            return None;
        }
        inner.jobs.push_back(job);
        let depth = inner.jobs.len();
        drop(inner);
        self.available.notify_one();
        Some(depth)
    }

    /// Dequeue the next job, blocking; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .expect("job queue poisoned");
        }
    }

    /// Refuse new jobs; queued ones still drain (graceful shutdown).
    fn close(&self) {
        self.inner.lock().expect("job queue poisoned").closed = true;
        self.available.notify_all();
    }
}

/// SIGINT/SIGTERM handling in pure std: a C `signal` registration that
/// flips a process-global flag [`watch_signals`] polls. Confined here so
/// the rest of the crate stays free of unsafe code.
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    #[allow(unsafe_code)]
    pub fn install() {
        extern "C" fn on_signal(_sig: i32) {
            TRIGGERED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: registering an async-signal-safe handler (one relaxed
        // atomic store) for SIGINT/SIGTERM; `signal` is in libc, which std
        // already links.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}

    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }
}

/// The HTTP daemon. Bind, then [`Server::run`] until shutdown.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    state: Arc<ServiceState>,
    handle: ServerHandle,
}

impl Server {
    /// Bind the listener (without accepting yet).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Server> {
        let io_err = |e: std::io::Error| Error::io(&config.addr, e.to_string());
        let listener = TcpListener::bind(&config.addr).map_err(io_err)?;
        let addr = wake_addr(listener.local_addr().map_err(io_err)?);
        Ok(Server {
            listener,
            config,
            state: Arc::new(ServiceState::new()),
            handle: ServerHandle {
                shutdown: Arc::new(AtomicBool::new(false)),
                addr,
            },
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the socket has no local address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| Error::io(&self.config.addr, e.to_string()))
    }

    /// The shared service state (pool + observer), for tests and metrics.
    #[must_use]
    pub fn state(&self) -> Arc<ServiceState> {
        Arc::clone(&self.state)
    }

    /// A handle that can shut the server down from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Serve until shutdown (signal, `POST /v1/shutdown`, or
    /// [`ServerHandle::shutdown`]), then drain and summarize.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the listener fails to accept (after
    /// draining what was already accepted).
    pub fn run(self) -> Result<ServeSummary> {
        let workers = if self.config.jobs == 0 {
            std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
        } else {
            self.config.jobs
        };
        let queue = Arc::new(JobQueue::new(self.config.queue_depth));
        let timeout = Duration::from_millis(self.config.timeout_ms.max(1));
        let access = Arc::new(AccessLog::from_config(
            self.config.access_log.as_deref(),
            self.config.verbose,
        )?);

        let watcher = self.config.handle_sigint.then(|| {
            signal::install();
            let handle = self.handle.clone();
            std::thread::spawn(move || watch_signals(&handle))
        });
        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&self.state);
            worker_handles.push(std::thread::spawn(move || worker_loop(&queue, &state)));
        }

        // Each connection thread owns its stream; the loop keeps only a
        // weak reference, so a finished connection closes at once and a
        // live one can still be reached at drain.
        let mut connections: Vec<(std::thread::JoinHandle<()>, Weak<TcpStream>)> = Vec::new();
        let accepted = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.handle.shutdown.store(true, Ordering::SeqCst);
                    break Err(Error::io(&self.config.addr, e.to_string()));
                }
            };
            // Every shutdown path sets the flag before its self-connect
            // wakes this accept; that connection, and any other arriving
            // after the flag, is dropped unanswered.
            if self.handle.is_shutting_down() {
                break Ok(());
            }
            // Responses go out in one write each; don't let Nagle hold
            // one back waiting for the client's delayed ACK.
            let _ = stream.set_nodelay(true);
            let stream = Arc::new(stream);
            let weak = Arc::downgrade(&stream);
            let state = Arc::clone(&self.state);
            let queue = Arc::clone(&queue);
            let handle = self.handle.clone();
            let access = Arc::clone(&access);
            let thread = std::thread::spawn(move || {
                handle_connection(
                    &stream,
                    &state,
                    &queue,
                    &handle,
                    timeout,
                    access.as_ref().as_ref(),
                );
            });
            connections.retain(|(thread, _)| !thread.is_finished());
            connections.push((thread, weak));
        };

        // Graceful drain: no new jobs, queued ones finish, then workers
        // exit and every waiting connection gets its answer. Closing the
        // read side ends connections idle between requests at once; one
        // mid-request still writes its response.
        queue.close();
        for (_, stream) in &connections {
            if let Some(stream) = stream.upgrade() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for (thread, _) in connections {
            let _ = thread.join();
        }
        for handle in worker_handles.into_iter().chain(watcher) {
            let _ = handle.join();
        }
        accepted?;

        let counters = self.state.observer.counters();
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        Ok(ServeSummary {
            received: count("serve.requests.received"),
            completed: count("serve.requests.completed"),
            rejected: count("serve.requests.rejected"),
            timeouts: count("serve.requests.timeout"),
        })
    }
}

/// Worker: drain the queue, price jobs, fulfill slots. A panicking
/// handler answers 500 instead of taking the worker down. Queue-wait and
/// handler time are recorded per endpoint into the split latency
/// histograms (`serve.http.{name}.queue_us` / `.handler_us`) and stored
/// on the job for the access log.
fn worker_loop(queue: &JobQueue, state: &ServiceState) {
    while let Some(job) = queue.pop() {
        if Instant::now() >= job.deadline {
            // The connection thread has already answered 504; don't burn
            // worker time pricing a response nobody will read.
            state.observer.add("serve.requests.expired_in_queue", 1);
            job.slot.fulfill(Response::error(504, "request timed out in queue"));
            continue;
        }
        let obs = &state.observer;
        let queue_us = job.enqueued.elapsed().as_micros() as u64;
        job.timing.queue_us.store(queue_us, Ordering::Relaxed);
        obs.observe(
            &format!("serve.http.{}.queue_us", job.endpoint.name()),
            queue_us,
        );
        let handler_start = Instant::now();
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            api::handle(state, job.endpoint, &job.request)
        }))
        .unwrap_or_else(|_| Response::error(500, "internal error: request handler panicked"));
        let handler_us = handler_start.elapsed().as_micros() as u64;
        job.timing.handler_us.store(handler_us, Ordering::Relaxed);
        obs.observe(
            &format!("serve.http.{}.handler_us", job.endpoint.name()),
            handler_us,
        );
        job.slot.fulfill(response);
    }
}

/// Decrements the in-flight count when a request's handling ends,
/// whatever exit path it takes.
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Bump the status-class counters (`serve.http.status.{2xx,3xx,4xx,5xx}`)
/// plus the individually-tracked backpressure (429) and deadline (504)
/// statuses for one written response.
fn count_status(obs: &Observer, status: u16) {
    let class = match status {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    };
    obs.add(&format!("serve.http.status.{class}"), 1);
    if status == 429 {
        obs.add("serve.http.status.429", 1);
    }
    if status == 504 {
        obs.add("serve.http.status.504", 1);
    }
}

/// Connection thread: serve requests off one connection in turn — parse,
/// route, write the response, then account for it (status class
/// counters, in-flight gauge, access log) — until the client or the
/// server closes it. The connection closes after a request without
/// keep-alive, a malformed request, or any response written once
/// shutdown has begun. All accounting is passive — response bytes never
/// depend on it.
fn handle_connection(
    stream: &TcpStream,
    state: &ServiceState,
    queue: &JobQueue,
    handle: &ServerHandle,
    timeout: Duration,
    access: Option<&AccessLog>,
) {
    let _ = stream.set_read_timeout(Some(STREAM_TIMEOUT));
    let _ = stream.set_write_timeout(Some(STREAM_TIMEOUT));
    let mut stream = stream;
    // Bytes read but not yet parsed: the start of a pipelined request.
    let mut pending = Vec::new();
    loop {
        let incoming = match http::read_request(&mut stream, &mut pending) {
            Ok(Ok(incoming)) => incoming,
            Ok(Err(error_response)) => {
                // Malformed request: no endpoint to attribute, but the
                // status classes still count it. The framing is lost, so
                // the connection closes.
                count_status(&state.observer, error_response.status);
                let _ = http::write_response(&mut stream, &error_response, true);
                return;
            }
            // The peer closed, vanished or idled out, or the server is
            // draining: nobody left to answer.
            Err(_) => return,
        };
        let in_flight = state.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        let _guard = InFlightGuard(&state.in_flight);
        state
            .observer
            .gauge_max("serve.http.in_flight.max", in_flight as f64);
        let request = &incoming.request;
        let routed = route(state, queue, handle, timeout, request);
        count_status(&state.observer, routed.response.status);
        let close = !incoming.keep_alive || handle.is_shutting_down();
        let written = http::write_response(&mut stream, &routed.response, close);
        if let Some(log) = access {
            log.log(&AccessEntry {
                method: &request.method,
                endpoint: &request.path,
                status: routed.response.status,
                bytes: routed.response.body.len(),
                queue_us: routed.queue_us,
                handler_us: routed.handler_us,
            });
        }
        if close || written.is_err() {
            return;
        }
    }
}

/// Turn SIGINT/SIGTERM into the same flag-and-wake as every other shutdown
/// path. The handler itself only flips a flag: the interrupted `accept`
/// restarts (`signal` installs with `SA_RESTART`), and the signal may
/// land on any thread.
fn watch_signals(handle: &ServerHandle) {
    while !handle.is_shutting_down() {
        if signal::triggered() {
            handle.shutdown();
            return;
        }
        std::thread::sleep(SIGNAL_POLL);
    }
}

/// A routed response plus the telemetry the access log reports for it.
struct Routed {
    response: Response,
    /// Microseconds waited in the bounded queue (0 for inline endpoints
    /// and refused requests).
    queue_us: u64,
    /// Microseconds the handler ran (inline handlers measured directly,
    /// queued ones reported back by the worker).
    handler_us: u64,
}

impl Routed {
    /// An inline answer: no queue wait, handler time measured from `start`.
    fn inline(response: Response, start: Instant) -> Routed {
        Routed {
            response,
            queue_us: 0,
            handler_us: start.elapsed().as_micros() as u64,
        }
    }
}

/// Route one parsed request. Health, metrics and shutdown answer inline —
/// they must work even when the queue is saturated; compute endpoints go
/// through the bounded queue.
fn route(
    state: &ServiceState,
    queue: &JobQueue,
    handle: &ServerHandle,
    timeout: Duration,
    request: &Request,
) -> Routed {
    let start = Instant::now();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/health") => {
            let _timer = state.observer.timer("serve.http.health");
            Routed::inline(
                Response::json(
                    serde_json::to_string_pretty(&serde_json::json!({ "status": "ok" }))
                        .expect("health body serializes"),
                ),
                start,
            )
        }
        ("GET", "/v1/schema") => {
            let _timer = state.observer.timer("serve.http.schema");
            // The self-describing scenario schema, from the same single
            // source of truth the CLI's `schema` command prints.
            Routed::inline(
                Response::json(
                    serde_json::to_string_pretty(&amped_configs::schema::schema_value())
                        .expect("schema body serializes"),
                ),
                start,
            )
        }
        ("GET", "/v1/metrics") => {
            let _timer = state.observer.timer("serve.http.metrics");
            // Snapshot pool-wide cache state and the in-flight count into
            // gauges so the report carries them alongside the counters.
            let pool = &state.pool;
            let obs = &state.observer;
            obs.gauge_set("serve.cache.pool.contexts", pool.contexts() as f64);
            obs.gauge_set("serve.cache.pool.shelved", pool.shelved() as f64);
            obs.gauge_set("serve.cache.pool.checkouts", pool.checkouts() as f64);
            obs.gauge_set(
                "serve.cache.pool.warm_checkouts",
                pool.warm_checkouts() as f64,
            );
            obs.gauge_set(
                "serve.http.in_flight",
                state.in_flight.load(Ordering::Relaxed) as f64,
            );
            // `?format=prometheus` renders the same registries as text
            // exposition format; the JSON run report stays the default.
            let response = if request.query_param("format") == Some("prometheus") {
                Response::text(amped_obs::prometheus_exposition(obs))
            } else {
                Response::json(obs.report("serve").to_json())
            };
            Routed::inline(response, start)
        }
        ("POST", "/v1/shutdown") => {
            handle.shutdown();
            Routed::inline(
                Response::json(
                    serde_json::to_string_pretty(
                        &serde_json::json!({ "status": "shutting down" }),
                    )
                    .expect("shutdown body serializes"),
                ),
                start,
            )
        }
        (method, path) => match Endpoint::from_path(path) {
            None => Routed::inline(
                Response::error(404, &format!("unknown path `{path}`")),
                start,
            ),
            Some(_) if method != "POST" => Routed::inline(
                Response::error(405, &format!("{path} requires POST")),
                start,
            ),
            Some(endpoint) => dispatch_job(state, queue, timeout, endpoint, request),
        },
    }
}

/// Enqueue a compute request and wait for its answer (or its deadline).
fn dispatch_job(
    state: &ServiceState,
    queue: &JobQueue,
    timeout: Duration,
    endpoint: Endpoint,
    request: &Request,
) -> Routed {
    let obs = &state.observer;
    let _timer = obs.timer(&format!("serve.http.{}", endpoint.name()));
    obs.add("serve.requests.received", 1);
    let slot = Arc::new(ResultSlot::new());
    let enqueued = Instant::now();
    let deadline = enqueued + timeout;
    let timing = Arc::new(JobTiming::default());
    let job = Job {
        endpoint,
        request: request.clone(),
        slot: Arc::clone(&slot),
        enqueued,
        deadline,
        timing: Arc::clone(&timing),
    };
    match queue.push(job) {
        None => {
            obs.add("serve.requests.rejected", 1);
            let mut response =
                Response::error(429, "queue full; retry shortly or lower request rate");
            response.retry_after = Some(1);
            Routed {
                response,
                queue_us: 0,
                handler_us: 0,
            }
        }
        Some(depth) => {
            obs.gauge_max("serve.queue.depth.max", depth as f64);
            // Exactly one of completed/rejected/timeout per request, all
            // counted here, so `received` always balances against them.
            let response = match slot.wait_until(deadline) {
                Some(response) => {
                    obs.add("serve.requests.completed", 1);
                    response
                }
                None => {
                    obs.add("serve.requests.timeout", 1);
                    Response::error(504, "request deadline exceeded")
                }
            };
            Routed {
                response,
                queue_us: timing.queue_us.load(Ordering::Relaxed),
                handler_us: timing.handler_us.load(Ordering::Relaxed),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_reaches_an_unspecified_bind_through_loopback() {
        let wake = |addr: &str| wake_addr(addr.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:8750"), "127.0.0.1:8750");
        assert_eq!(wake("[::]:8750"), "[::1]:8750");
        assert_eq!(wake("192.0.2.7:8750"), "192.0.2.7:8750");
        assert_eq!(wake("127.0.0.1:0"), "127.0.0.1:0");
    }
}
