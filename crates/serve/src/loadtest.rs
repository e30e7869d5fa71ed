//! The load-test driver behind `amped loadtest`: replay N concurrent
//! clients of mixed traffic against a live server and measure what the
//! service actually delivers.
//!
//! Each client keeps one HTTP/1.1 connection open and cycles through the
//! compute endpoints on it (estimate, search, sweep, resilience — offset
//! per client so the mix is concurrent, not phased), timing every request
//! wall-to-wall on the client side into the same lock-free
//! [`amped_obs::Histogram`] the server uses internally. Reusing the
//! connection keeps TCP set-up out of the measured latency.
//! The report carries per-endpoint latency quantiles, overall request
//! rate, error and backpressure (429) rates, and the server's cache hit
//! rate computed from `serve.cache.*` counter deltas between two
//! `/v1/metrics` snapshots — so a warm pool shows up as a measured
//! number, not an assumption. Rendered to `BENCH_serve.json` with
//! `schema_version` stamped first, like every versioned artifact.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amped_core::{Error, Result};
use amped_obs::{HistogramSummary, Observer};

/// The fixed endpoint mix each client cycles through.
const MIX: [(&str, &str); 4] = [
    ("estimate", "/v1/estimate"),
    ("search", "/v1/search?top=3"),
    ("sweep", "/v1/sweep"),
    ("resilience", "/v1/resilience"),
];

/// Load-test shape: where to aim and how hard to push.
#[derive(Debug, Clone)]
pub struct LoadTestConfig {
    /// Target server address, e.g. `127.0.0.1:8750`.
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client sends.
    pub requests_per_client: usize,
    /// Scenario preset every request carries (`?preset=`).
    pub preset: String,
    /// Scenario JSON body every request posts (`{}` = preset only).
    pub body: String,
}

impl Default for LoadTestConfig {
    fn default() -> Self {
        LoadTestConfig {
            addr: "127.0.0.1:8750".to_string(),
            clients: 4,
            requests_per_client: 8,
            preset: "dev-small".to_string(),
            body: "{}".to_string(),
        }
    }
}

/// What one load-test run measured.
#[derive(Debug, Clone)]
pub struct LoadTestReport {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client sent.
    pub requests_per_client: usize,
    /// Total requests attempted.
    pub requests: u64,
    /// Wall-clock duration of the request phase, seconds.
    pub duration_s: f64,
    /// Requests per second over the run.
    pub req_per_sec: f64,
    /// Responses per status class (`2xx`, `4xx`, ...) plus exact `429`
    /// and `504` counts and `transport` failures.
    pub status: BTreeMap<String, u64>,
    /// Fraction of requests that failed: any `4xx`/`5xx` other than
    /// backpressure `429`, plus transport failures.
    pub error_rate: f64,
    /// Fraction of requests refused by backpressure (`429`).
    pub rejected_429_rate: f64,
    /// Server-side `serve.cache.hits` delta over the run.
    pub cache_hits: u64,
    /// Server-side `serve.cache.lookups` delta over the run.
    pub cache_lookups: u64,
    /// `cache_hits / cache_lookups` (0 when no lookups happened).
    pub cache_hit_rate: f64,
    /// Client-observed latency summary per endpoint, microseconds —
    /// the same shape as a run report's `histograms` section.
    pub endpoints: BTreeMap<String, HistogramSummary>,
}

/// Run the load test against a live server.
///
/// # Errors
///
/// Returns [`Error::Io`] when the server cannot be reached for the
/// initial metrics snapshot, and [`Error::Usage`] for a zero-sized run.
pub fn run(config: &LoadTestConfig) -> Result<LoadTestReport> {
    if config.clients == 0 || config.requests_per_client == 0 {
        return Err(Error::usage(
            "loadtest needs at least one client and one request per client",
        ));
    }
    let before = cache_counters(&config.addr)?;
    let stats = Arc::new(Observer::new());

    let started = Instant::now();
    let mut handles = Vec::with_capacity(config.clients);
    for client in 0..config.clients {
        let stats = Arc::clone(&stats);
        let config = config.clone();
        handles.push(std::thread::spawn(move || {
            let mut conn = Conn::new(&config.addr);
            for i in 0..config.requests_per_client {
                // Offset the cycle per client so every endpoint sees
                // concurrent traffic from the first tick.
                let (name, target) = MIX[(client + i) % MIX.len()];
                let sep = if target.contains('?') { '&' } else { '?' };
                let target = format!("{target}{sep}preset={}", config.preset);
                let t0 = Instant::now();
                match conn.request("POST", &target, &config.body) {
                    Ok((status, _body)) => {
                        let us = t0.elapsed().as_micros() as u64;
                        stats.observe(name, us);
                        count_status(&stats, status);
                    }
                    Err(_) => stats.add("status.transport", 1),
                }
            }
        }));
    }
    for handle in handles {
        let _ = handle.join();
    }
    let duration_s = started.elapsed().as_secs_f64();

    let after = cache_counters(&config.addr)?;
    let counters = stats.counters();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let requests = (config.clients * config.requests_per_client) as u64;
    let errors =
        count("status.4xx") - count("status.429") + count("status.5xx") + count("status.transport");
    let cache_hits = after.0.saturating_sub(before.0);
    let cache_lookups = after.1.saturating_sub(before.1);

    let mut status = BTreeMap::new();
    for (name, value) in &counters {
        if let Some(class) = name.strip_prefix("status.") {
            status.insert(class.to_string(), *value);
        }
    }

    Ok(LoadTestReport {
        clients: config.clients,
        requests_per_client: config.requests_per_client,
        requests,
        duration_s,
        req_per_sec: requests as f64 / duration_s.max(1e-9),
        status,
        error_rate: errors as f64 / requests as f64,
        rejected_429_rate: count("status.429") as f64 / requests as f64,
        cache_hits,
        cache_lookups,
        cache_hit_rate: if cache_lookups > 0 {
            cache_hits as f64 / cache_lookups as f64
        } else {
            0.0
        },
        endpoints: stats.histograms(),
    })
}

impl LoadTestReport {
    /// The versioned `BENCH_serve.json` document, `schema_version` first.
    /// The `endpoints` section uses the run-report histogram-summary
    /// shape, so `amped_report::histogram_table` renders it directly.
    #[must_use]
    pub fn to_value(&self) -> serde_json::Value {
        let endpoints = serde_json::Value::Object(
            self.endpoints
                .iter()
                .map(|(name, h)| (name.clone(), summary_value(h)))
                .collect(),
        );
        let status = serde_json::Value::Object(
            self.status
                .iter()
                .map(|(class, n)| (class.clone(), serde_json::Value::Int(*n as i64)))
                .collect(),
        );
        serde_json::json!({
            "schema_version": amped_configs::schema::SCHEMA_VERSION,
            "benchmark": "serve.loadtest",
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "requests": self.requests,
            "duration_s": self.duration_s,
            "req_per_sec": self.req_per_sec,
            "error_rate": self.error_rate,
            "rejected_429_rate": self.rejected_429_rate,
            "status": status,
            "cache": {
                "hits": self.cache_hits,
                "lookups": self.cache_lookups,
                "hit_rate": self.cache_hit_rate,
            },
            "endpoints": endpoints,
        })
    }
}

/// One histogram summary in the run-report JSON shape.
fn summary_value(h: &HistogramSummary) -> serde_json::Value {
    serde_json::json!({
        "count": h.count,
        "sum": h.sum,
        "min": h.min,
        "max": h.max,
        "p50": h.p50,
        "p90": h.p90,
        "p99": h.p99,
        "p999": h.p999,
    })
}

/// Bump per-class (and exact 429/504) status counters on the client-side
/// stats observer — the mirror of the server's own accounting.
fn count_status(stats: &Observer, status: u16) {
    let class = match status {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    };
    stats.add(&format!("status.{class}"), 1);
    if status == 429 {
        stats.add("status.429", 1);
    }
    if status == 504 {
        stats.add("status.504", 1);
    }
}

/// The server's `(serve.cache.hits, serve.cache.lookups)` counters right
/// now, via `GET /v1/metrics` (absent counters read as 0).
fn cache_counters(addr: &str) -> Result<(u64, u64)> {
    let (status, body) = Conn::new(addr).request("GET", "/v1/metrics", "")?;
    if status != 200 {
        return Err(Error::io(
            addr,
            format!("metrics snapshot failed with status {status}"),
        ));
    }
    let doc: serde_json::Value = serde_json::from_str(&body)
        .map_err(|e| Error::io(addr, format!("metrics snapshot is not JSON: {e}")))?;
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
    };
    Ok((counter("serve.cache.hits"), counter("serve.cache.lookups")))
}

/// A minimal HTTP/1.1 client connection over `std::net`: opened on first
/// use, kept alive across requests while the server allows it, responses
/// framed by `Content-Length`. A failed exchange drops the connection, and
/// the next request opens a new one.
struct Conn<'a> {
    addr: &'a str,
    stream: Option<TcpStream>,
}

impl<'a> Conn<'a> {
    fn new(addr: &'a str) -> Self {
        Conn { addr, stream: None }
    }

    /// Send one request and return `(status, body)`.
    fn request(&mut self, method: &str, target: &str, body: &str) -> Result<(u16, String)> {
        let addr = self.addr;
        let io_err = |e: std::io::Error| Error::io(addr, e.to_string());
        let stream = match &mut self.stream {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(addr).map_err(io_err)?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .map_err(io_err)?;
                // Requests leave in one write; don't let Nagle delay them.
                stream.set_nodelay(true).map_err(io_err)?;
                self.stream.insert(stream)
            }
        };
        let request = format!(
            "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let reply = stream
            .write_all(request.as_bytes())
            .map_err(io_err)
            .and_then(|()| read_response(stream, addr));
        match &reply {
            Ok((_, _, keep_alive)) if *keep_alive => {}
            _ => self.stream = None,
        }
        reply.map(|(status, body, _)| (status, body))
    }
}

/// Read one `Content-Length`-framed response: `(status, body, keep_alive)`,
/// where `keep_alive` is false when the server announced
/// `Connection: close`.
fn read_response<R: Read>(stream: &mut R, addr: &str) -> Result<(u16, String, bool)> {
    let io_err = |e: std::io::Error| Error::io(addr, e.to_string());
    let malformed = |what: &str| Error::io(addr, format!("malformed response: {what}"));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut fill = |buf: &mut Vec<u8>| -> Result<()> {
        let n = stream.read(&mut chunk).map_err(io_err)?;
        if n == 0 {
            return Err(malformed("connection closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..n]);
        Ok(())
    };
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        fill(&mut buf)?;
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let mut length = None;
    let mut keep_alive = true;
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = value.trim().parse::<usize>().ok();
        } else if name.trim().eq_ignore_ascii_case("connection") {
            keep_alive = !value.trim().eq_ignore_ascii_case("close");
        }
    }
    let body_end = length
        .and_then(|n| n.checked_add(head_end + 4))
        .ok_or_else(|| malformed("no usable Content-Length"))?;
    while buf.len() < body_end {
        fill(&mut buf)?;
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..body_end]).into_owned();
    Ok((status, body, keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_framed_by_content_length() {
        let read = |wire: &[u8]| read_response(&mut &wire[..], "test");
        assert_eq!(
            read(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}").unwrap(),
            (200, "{}".to_string(), true)
        );
        assert_eq!(
            read(b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 3\r\nConnection: close\r\n\r\nxyz")
                .unwrap(),
            (429, "xyz".to_string(), false)
        );
        assert!(read(b"HTTP/1.1 200 OK\r\n\r\nbody").is_err());
        assert!(read(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nbody").is_err());
    }

    #[test]
    fn zero_sized_runs_are_rejected() {
        let config = LoadTestConfig {
            clients: 0,
            ..LoadTestConfig::default()
        };
        assert!(run(&config).is_err());
    }

    #[test]
    fn report_value_leads_with_schema_version() {
        let report = LoadTestReport {
            clients: 2,
            requests_per_client: 4,
            requests: 8,
            duration_s: 0.5,
            req_per_sec: 16.0,
            status: BTreeMap::from([("2xx".to_string(), 8)]),
            error_rate: 0.0,
            rejected_429_rate: 0.0,
            cache_hits: 6,
            cache_lookups: 8,
            cache_hit_rate: 0.75,
            endpoints: BTreeMap::from([(
                "estimate".to_string(),
                HistogramSummary {
                    count: 2,
                    sum: 30,
                    min: 10,
                    max: 20,
                    p50: 10.0,
                    p90: 20.0,
                    p99: 20.0,
                    p999: 20.0,
                },
            )]),
        };
        let value = report.to_value();
        let entries = value.as_object().expect("object");
        assert_eq!(entries[0].0, "schema_version");
        let text = serde_json::to_string_pretty(&value).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["endpoints"]["estimate"]["count"], 2);
        assert_eq!(doc["cache"]["hit_rate"].as_f64(), Some(0.75));
        assert_eq!(doc["req_per_sec"].as_f64(), Some(16.0));
    }
}
