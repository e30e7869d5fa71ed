//! Concurrent stress and lifecycle tests against an in-process server.
//!
//! Pins the service's concurrency contract: many clients hammering mixed
//! endpoints never deadlock, a saturated queue visibly refuses work with
//! 429, identical queries answer byte-identically regardless of which
//! worker (and how warm a cache) served them, and after a graceful drain
//! the metrics counters balance exactly. Every shutdown path returns from
//! `Server::run` within a second, even with a kept-alive client idle.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use common::{at_eof, connect, exchange, request, start, SCENARIO};

#[test]
fn mixed_concurrent_load_is_deadlock_free_and_consistent() {
    let server = start(2, 64, 30_000);
    let addr = server.addr;

    let threads = 4;
    let per_thread = 4;
    let barrier = Arc::new(Barrier::new(threads));
    let estimate_bodies: Arc<std::sync::Mutex<Vec<String>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            let bodies = Arc::clone(&estimate_bodies);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    let (target, expect_json) = if (t + i) % 2 == 0 {
                        ("/v1/estimate", true)
                    } else {
                        ("/v1/search?top=3&jobs=1", true)
                    };
                    let (status, body) = request(addr, "POST", target, SCENARIO);
                    assert_eq!(status, 200, "{target}: {body}");
                    if expect_json {
                        serde_json::from_str::<serde_json::Value>(&body)
                            .unwrap_or_else(|e| panic!("{target} returned invalid JSON: {e}"));
                    }
                    if target == "/v1/estimate" {
                        bodies.lock().unwrap().push(body);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    // Identical queries answer identically — any worker, any cache warmth.
    let bodies = estimate_bodies.lock().unwrap();
    assert!(bodies.len() > 1);
    assert!(
        bodies.iter().all(|b| b == &bodies[0]),
        "estimate responses diverged under concurrency"
    );

    // Liveness endpoints answer inline even while computing.
    let (status, body) = request(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");

    let (status, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let report: serde_json::Value = serde_json::from_str(&metrics).expect("metrics JSON");
    let counters = &report["counters"];
    let n = |key: &str| counters.get(key).and_then(serde_json::Value::as_u64).unwrap_or(0);
    // The shared pool was exercised and its books balance.
    assert_eq!(
        n("serve.cache.lookups"),
        n("serve.cache.hits") + n("serve.cache.misses"),
        "{counters:?}"
    );
    assert_eq!(
        n("search.cache.lookups"),
        n("search.cache.hits") + n("search.cache.misses"),
        "{counters:?}"
    );
    assert!(n("serve.cache.lookups") > 0, "{counters:?}");
    assert!(n("search.cache.lookups") > 0, "{counters:?}");
    // Repeat identical estimates hit the warm pool.
    assert!(n("serve.cache.hits") > 0, "{counters:?}");

    // The per-endpoint latency telemetry balances exactly: for each
    // compute endpoint the whole-request timer histogram, the queue-wait
    // histogram and the handler histogram all saw the same requests — no
    // request gained or lost a sample anywhere in the split, at any
    // worker count.
    let histograms = &report["histograms"];
    let hcount = |name: &str| {
        histograms
            .get(name)
            .and_then(|h| h.get("count"))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("histogram `{name}` missing: {histograms:?}"))
    };
    let mut handled = 0;
    for endpoint in ["estimate", "search"] {
        let requests = hcount(&format!("serve.http.{endpoint}.us"));
        assert!(requests > 0, "{histograms:?}");
        assert_eq!(hcount(&format!("serve.http.{endpoint}.queue_us")), requests);
        assert_eq!(hcount(&format!("serve.http.{endpoint}.handler_us")), requests);
        handled += requests;
    }
    assert_eq!(handled, (threads * per_thread) as u64);
    // Every handled request also landed in exactly one status class
    // (+1 for the health probe answered above; the metrics response
    // itself is counted only after this report rendered).
    assert_eq!(n("serve.http.status.2xx"), handled + 1, "{counters:?}");

    let summary = server.stop();
    assert_eq!(summary.received, summary.completed + summary.rejected + summary.timeouts);
    assert_eq!(summary.received, (threads * per_thread) as u64);
    assert_eq!(summary.rejected, 0, "queue depth 64 never saturates here");
}

#[test]
fn saturated_queue_engages_backpressure() {
    // One worker, a one-slot queue: a burst must overflow.
    let server = start(1, 1, 30_000);
    let addr = server.addr;

    let mut rejected = 0usize;
    let mut completed = 0usize;
    for _round in 0..20 {
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let rejections = Arc::new(AtomicUsize::new(0));
        let successes = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let rejections = Arc::clone(&rejections);
                let successes = Arc::clone(&successes);
                std::thread::spawn(move || {
                    barrier.wait();
                    let (status, body) =
                        request(addr, "POST", "/v1/search?top=3&jobs=1", SCENARIO);
                    match status {
                        200 => {
                            successes.fetch_add(1, Ordering::SeqCst);
                        }
                        429 => {
                            // The backpressure contract: a JSON error body
                            // and a Retry-After hint.
                            assert!(body.contains("queue full"), "{body}");
                            rejections.fetch_add(1, Ordering::SeqCst);
                        }
                        other => panic!("unexpected status {other}: {body}"),
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread");
        }
        rejected += rejections.load(Ordering::SeqCst);
        completed += successes.load(Ordering::SeqCst);
        if rejected > 0 {
            break;
        }
    }
    assert!(rejected > 0, "burst of 8 on a 1-slot queue never overflowed");
    assert!(completed > 0, "saturation must not starve everyone");

    let summary = server.stop();
    assert_eq!(summary.rejected, rejected as u64, "{summary}");
    assert_eq!(summary.received, summary.completed + summary.rejected + summary.timeouts);
}

#[test]
fn malformed_and_unknown_requests_get_typed_errors() {
    let server = start(1, 8, 30_000);
    let addr = server.addr;

    // Unknown path.
    let (status, body) = request(addr, "POST", "/v1/frobnicate", SCENARIO);
    assert_eq!(status, 404, "{body}");

    // Known path, wrong method.
    let (status, body) = request(addr, "GET", "/v1/estimate", "");
    assert_eq!(status, 405, "{body}");

    // Empty body.
    let (status, body) = request(addr, "POST", "/v1/estimate", "");
    assert_eq!(status, 400);
    assert!(body.contains("scenario JSON document"), "{body}");

    // Malformed JSON: the configs-layer message names the problem.
    let (status, body) = request(addr, "POST", "/v1/estimate", "{ not json");
    assert_eq!(status, 400);
    assert!(body.contains("malformed"), "{body}");

    // Unknown section.
    let bad = SCENARIO.replacen("\"model\"", "\"modell\"", 1);
    let (status, body) = request(addr, "POST", "/v1/estimate", &bad);
    assert_eq!(status, 400);
    assert!(body.contains("unknown section `modell`"), "{body}");

    // Bad query parameter.
    let (status, body) = request(addr, "POST", "/v1/search?top=lots", SCENARIO);
    assert_eq!(status, 400);
    assert!(body.contains("invalid value for --top: lots"), "{body}");

    // Bad backend.
    let (status, body) = request(addr, "POST", "/v1/estimate?backend=bogus", SCENARIO);
    assert_eq!(status, 400);
    assert!(body.contains("unknown backend `bogus`"), "{body}");

    // Errors are not compute failures: nothing counts as completed work
    // beyond what actually priced.
    let summary = server.stop();
    assert_eq!(summary.received, summary.completed + summary.rejected + summary.timeouts);
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let server = start(1, 8, 30_000);
    let addr = server.addr;

    let (status, body) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"), "{body}");

    let summary = server.join();
    assert_eq!(summary.received, 0);
}

#[test]
fn tiny_timeout_answers_504_without_wedging() {
    // A deadline a search cannot meet: the client gets 504, the server
    // stays healthy and drains cleanly. The work is real and large: a
    // 64-node cluster enumerates hundreds of mappings over a deep
    // microbatch ladder, and the analytical top 8 are re-priced through the
    // discrete-event simulator — safely over the 1 ms deadline however fast
    // the pricing kernel gets.
    let server = start(1, 8, 1);
    let addr = server.addr;
    let heavy = SCENARIO
        .replace("\"nodes\": 2, \"accels_per_node\": 4", "\"nodes\": 64, \"accels_per_node\": 8")
        .replace("\"dp\": [4, 2]", "\"dp\": [8, 64]")
        .replace("\"global_batch\": 64", "\"global_batch\": 65536");
    let mut saw_timeout = false;
    for _ in 0..10 {
        let (status, _body) = request(addr, "POST", "/v1/search?jobs=1&refine-sim=8", &heavy);
        assert!(status == 200 || status == 504, "unexpected status {status}");
        if status == 504 {
            saw_timeout = true;
            break;
        }
    }
    assert!(saw_timeout, "a 1 ms deadline never expired");
    let (status, _) = request(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200, "server must stay live after timeouts");
    let summary = server.stop();
    assert!(summary.timeouts > 0, "{summary}");
    assert_eq!(summary.received, summary.completed + summary.rejected + summary.timeouts);
}

/// The longest a shutdown may take to return from `Server::run` when no
/// request is in progress.
const SHUTDOWN_BOUND: Duration = Duration::from_secs(1);

fn assert_balanced(summary: amped_serve::ServeSummary) {
    assert_eq!(
        summary.received,
        summary.completed + summary.rejected + summary.timeouts,
        "{summary}"
    );
}

#[test]
fn handle_shutdown_wakes_an_idle_accept() {
    let server = start(1, 8, 30_000);
    // One answered probe proves the loop runs; it then blocks in accept
    // with nothing to accept.
    let (status, _) = request(server.addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    let t0 = Instant::now();
    let summary = server.stop();
    assert!(t0.elapsed() < SHUTDOWN_BOUND, "took {:?}", t0.elapsed());
    assert_eq!(summary.received, 0);
    assert_balanced(summary);
}

#[test]
fn handle_shutdown_does_not_wait_on_an_idle_kept_alive_connection() {
    let server = start(1, 8, 30_000);
    let mut client = connect(server.addr);
    let reply = exchange(&mut client, "POST", "/v1/estimate", SCENARIO);
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(!reply.closes(), "{}", reply.head);

    // The client holds the connection open and sends nothing more.
    let t0 = Instant::now();
    let summary = server.stop();
    assert!(t0.elapsed() < SHUTDOWN_BOUND, "took {:?}", t0.elapsed());
    assert!(at_eof(&mut client), "drain must close the idle connection");
    assert_eq!(summary.received, 1);
    assert_eq!(summary.completed, 1);
    assert_balanced(summary);
}

#[test]
fn shutdown_endpoint_on_a_kept_alive_connection() {
    let server = start(1, 8, 30_000);
    let mut client = connect(server.addr);
    let reply = exchange(&mut client, "POST", "/v1/estimate", SCENARIO);
    assert_eq!(reply.status, 200, "{}", reply.body);

    let t0 = Instant::now();
    let reply = exchange(&mut client, "POST", "/v1/shutdown", "");
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains("shutting down"), "{}", reply.body);
    assert!(reply.closes(), "{}", reply.head);
    assert!(at_eof(&mut client));
    let summary = server.join();
    assert!(t0.elapsed() < SHUTDOWN_BOUND, "took {:?}", t0.elapsed());
    assert_eq!(summary.received, 1);
    assert_eq!(summary.completed, 1);
    assert_balanced(summary);
}
