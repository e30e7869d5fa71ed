//! HTTP/1.1 persistent-connection tests against an in-process server.
//!
//! Pins the transport contract: an HTTP/1.1 connection carries many
//! requests, each answered `Content-Length`-framed and byte-identical to
//! the same request on a fresh connection; pipelined requests are
//! answered in order; and `Connection: close`, HTTP/1.0 and malformed
//! requests get `Connection: close` and then EOF.

mod common;

use std::io::Write;

use common::{at_eof, connect, exchange, keep_alive, read_reply, request, start, SCENARIO};

#[test]
fn one_connection_carries_many_requests() {
    let server = start(2, 16, 30_000);
    let cases = [
        ("POST", "/v1/estimate", SCENARIO),
        ("GET", "/v1/health", ""),
        ("POST", "/v1/search?top=3&jobs=1", SCENARIO),
        ("POST", "/v1/frobnicate", ""),
        ("POST", "/v1/estimate", SCENARIO),
    ];
    let mut client = connect(server.addr);
    for (method, target, body) in cases {
        let kept = exchange(&mut client, method, target, body);
        assert!(!kept.closes(), "{target}: {}", kept.head);
        let (status, fresh) = request(server.addr, method, target, body);
        assert_eq!(kept.status, status, "{target}: {}", kept.body);
        assert_eq!(kept.body, fresh, "{target}: kept-alive answer differs");
    }
    let summary = server.stop();
    assert_eq!(summary.received, 6);
    assert_eq!(summary.completed, 6);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start(2, 16, 30_000);
    let mut client = connect(server.addr);
    let burst = keep_alive("POST", "/v1/estimate", SCENARIO) + &keep_alive("GET", "/v1/health", "");
    client.write_all(burst.as_bytes()).expect("one write");

    let mut pending = Vec::new();
    let first = read_reply(&mut client, &mut pending);
    let second = read_reply(&mut client, &mut pending);
    assert!(pending.is_empty(), "nothing follows the second response");
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(
        first.body,
        request(server.addr, "POST", "/v1/estimate", SCENARIO).1
    );
    assert_eq!(second.status, 200);
    assert!(second.body.contains("\"ok\""), "{}", second.body);
    server.stop();
}

#[test]
fn close_requests_get_connection_close_then_eof() {
    let server = start(1, 8, 30_000);
    for raw in [
        "GET /v1/health HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
        "GET /v1/health HTTP/1.0\r\n\r\n",
        "GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    ] {
        let mut client = connect(server.addr);
        client.write_all(raw.as_bytes()).expect("write");
        let reply = read_reply(&mut client, &mut Vec::new());
        assert_eq!(reply.status, 200, "{raw:?}");
        assert!(reply.closes(), "{raw:?}: {}", reply.head);
        assert!(at_eof(&mut client), "{raw:?}: connection left open");
    }
    server.stop();
}

#[test]
fn malformed_requests_get_400_then_close() {
    let server = start(1, 8, 30_000);
    for raw in [
        "GARBAGE\r\n\r\n",
        "POST /v1/estimate HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
    ] {
        let mut client = connect(server.addr);
        client.write_all(raw.as_bytes()).expect("write");
        let reply = read_reply(&mut client, &mut Vec::new());
        assert_eq!(reply.status, 400, "{raw:?}");
        assert!(reply.closes(), "{raw:?}: {}", reply.head);
        assert!(at_eof(&mut client), "{raw:?}: connection left open");
    }
    let summary = server.stop();
    assert_eq!(summary.received, 0);
}
