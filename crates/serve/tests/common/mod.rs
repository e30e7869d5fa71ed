//! Shared fixtures for the in-process server tests: a server on an
//! ephemeral port, and raw-socket clients that frame responses either by
//! EOF (one request per connection) or by `Content-Length` (kept-alive
//! connections).

#![allow(dead_code)] // each test binary uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use amped_serve::{ServeConfig, ServeSummary, Server, ServerHandle};

pub const SCENARIO: &str = r#"{
    "model": { "preset": "mingpt-85m" },
    "accelerator": { "preset": "v100" },
    "system": { "nodes": 2, "accels_per_node": 4,
                "intra_gbps": 2400.0, "inter_gbps": 100.0, "nics_per_node": 1 },
    "parallelism": { "dp": [4, 2] },
    "training": { "global_batch": 64, "num_batches": 10 }
}"#;

/// A running in-process server plus everything a test needs to talk to it
/// and take it down.
pub struct TestServer {
    pub addr: SocketAddr,
    pub handle: ServerHandle,
    pub thread: std::thread::JoinHandle<amped_core::Result<ServeSummary>>,
}

pub fn start(jobs: usize, queue_depth: usize, timeout_ms: u64) -> TestServer {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        queue_depth,
        timeout_ms,
        handle_sigint: false,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        thread,
    }
}

impl TestServer {
    /// Shut down through the handle and return the session summary.
    pub fn stop(self) -> ServeSummary {
        self.handle.shutdown();
        self.join()
    }

    /// Wait for [`Server::run`] to return.
    pub fn join(self) -> ServeSummary {
        self.thread
            .join()
            .expect("server thread joins")
            .expect("server run succeeds")
    }
}

/// One raw HTTP exchange on a fresh connection that asks the server to
/// close after answering, so reading to EOF frames the response. Returns
/// `(status, body)`.
pub fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

/// A request with no `Connection` header: HTTP/1.1 keeps it open.
pub fn keep_alive(method: &str, target: &str, body: &str) -> String {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A client connection to `addr` whose reads give up after 5 s, so a
/// server that fails to answer or close fails the test instead of
/// hanging it.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

/// One `Content-Length`-framed response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// The header block, status line included.
    pub head: String,
    pub body: String,
}

impl Reply {
    /// The server announced it will close the connection.
    pub fn closes(&self) -> bool {
        self.head
            .lines()
            .any(|l| l.eq_ignore_ascii_case("connection: close"))
    }
}

/// Read one response framed by its `Content-Length`. Bytes past it (the
/// next pipelined response) stay in `pending`.
pub fn read_reply(stream: &mut TcpStream, pending: &mut Vec<u8>) -> Reply {
    let mut chunk = [0u8; 8192];
    let mut fill = |pending: &mut Vec<u8>| {
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed mid-response");
        pending.extend_from_slice(&chunk[..n]);
    };
    let head_end = loop {
        if let Some(pos) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        fill(pending);
    };
    let head = String::from_utf8(pending[..head_end].to_vec()).expect("UTF-8 head");
    let length: usize = head
        .lines()
        .find_map(|l| {
            l.split_once(':')
                .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        })
        .map(|(_, v)| v.trim().parse().expect("numeric Content-Length"))
        .expect("every response carries Content-Length");
    let body_end = head_end + 4 + length;
    while pending.len() < body_end {
        fill(pending);
    }
    let body = String::from_utf8(pending[head_end + 4..body_end].to_vec()).expect("UTF-8 body");
    pending.drain(..body_end);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    Reply { status, head, body }
}

/// Send one request on a kept-alive connection and read its response.
pub fn exchange(stream: &mut TcpStream, method: &str, target: &str, body: &str) -> Reply {
    stream
        .write_all(keep_alive(method, target, body).as_bytes())
        .expect("write request");
    read_reply(stream, &mut Vec::new())
}

/// The server closed the connection: the next read sees EOF.
pub fn at_eof(stream: &mut TcpStream) -> bool {
    matches!(stream.read(&mut [0u8; 64]), Ok(0))
}
