//! A minimal HTTP/1.1 codec over any `Read`/`Write` byte stream.
//!
//! The server speaks exactly the subset its API needs: persistent
//! connections (HTTP/1.1 keep-alive by default; `Connection: close` or an
//! HTTP/1.0 request ends the connection after its answer), a request line
//! with an optional query string, `Content-Length`-framed bodies on both
//! sides, and a fixed set of status codes. Bytes read past one request's
//! body belong to the next request and are carried in a per-connection
//! buffer, so pipelined requests are answered in order. Hand-rolled on
//! `std` to match the workspace's no-external-deps policy — this is a
//! codec, not a general web server.

use std::io::{ErrorKind, Read, Write};

/// Largest accepted header block (16 KiB) — far beyond anything the API's
/// clients send; a guard against garbage, not a tunable.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Largest accepted body (8 MiB) — generous for inline-spec scenarios.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was given).
    pub body: String,
}

impl Request {
    /// The last value given for query parameter `key`, if any.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A request read off a connection, plus whether the connection may carry
/// another request after this one is answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incoming {
    /// The parsed request.
    pub request: Request,
    /// `true` for an HTTP/1.1 request without `Connection: close`.
    pub keep_alive: bool,
}

/// One response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// `Retry-After` header in seconds (backpressure responses only).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A `200 OK` JSON response.
    #[must_use]
    pub fn json(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A `200 OK` plain-text response.
    #[must_use]
    pub fn text(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    /// An error response with a `{ "error": ... }` JSON body.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: serde_json::to_string_pretty(&serde_json::json!({ "error": message }))
                .expect("error body serializes"),
            retry_after: None,
        }
    }
}

/// The reason phrase for every status the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Read and parse the next request off a connection.
///
/// `pending` holds the bytes already read from this connection but not
/// yet parsed; the caller keeps one buffer per connection across calls.
/// Whatever follows this request's body (a pipelined next request) is left
/// in it.
///
/// `Ok(Err(response))` is a malformed request the caller should answer
/// with the prepared error response and then close the connection;
/// `Err(_)` is a transport failure (the peer vanished, or closed between
/// requests) where no response can be delivered at all.
pub fn read_request<R: Read>(
    stream: &mut R,
    pending: &mut Vec<u8>,
) -> std::io::Result<Result<Incoming, Response>> {
    // Accumulate until the blank line ending the header block, scanning
    // only bytes not already searched.
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_header_end(&pending[scanned..]) {
            break scanned + pos;
        }
        if pending.len() > MAX_HEADER_BYTES {
            return Ok(Err(Response::error(400, "request header block too large")));
        }
        scanned = pending.len().saturating_sub(3);
        fill(stream, pending)?;
    };
    let head = match parse_head(&pending[..header_end]) {
        Ok(head) => head,
        Err(response) => return Ok(Err(response)),
    };

    // The body: whatever followed the header block, then the remainder.
    let body_start = header_end + 4;
    let body_end = body_start + head.content_length;
    while pending.len() < body_end {
        fill(stream, pending)?;
    }
    let body = String::from_utf8(pending[body_start..body_end].to_vec());
    pending.drain(..body_end);
    let Ok(body) = body else {
        return Ok(Err(Response::error(400, "request body is not UTF-8")));
    };

    Ok(Ok(Incoming {
        request: Request {
            method: head.method,
            path: head.path,
            query: head.query,
            body,
        },
        keep_alive: head.keep_alive,
    }))
}

/// Append the next read's bytes to `pending`; EOF before a whole request
/// is an `UnexpectedEof` error.
fn fill<R: Read>(stream: &mut R, pending: &mut Vec<u8>) -> std::io::Result<()> {
    let mut chunk = [0u8; 8 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed before a whole request arrived",
                ))
            }
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The request line and the headers the server acts on.
struct Head {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    content_length: usize,
    keep_alive: bool,
}

/// Parse a header block (without its terminating blank line).
fn parse_head(block: &[u8]) -> Result<Head, Response> {
    let text = std::str::from_utf8(block)
        .map_err(|_| Response::error(400, "request headers are not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(Response::error(400, "malformed request line"));
    };
    // Only HTTP/1.1 keeps the connection open by default.
    let mut keep_alive = parts.next() == Some("HTTP/1.1");

    let mut content_length: usize = 0;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| Response::error(400, "malformed Content-Length header"))?;
        } else if name.eq_ignore_ascii_case("connection")
            && value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("close"))
        {
            keep_alive = false;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(413, "request body too large"));
    }

    let (path, query) = parse_target(target);
    Ok(Head {
        method: method.to_string(),
        path,
        query,
        content_length,
        keep_alive,
    })
}

/// Write one `Content-Length`-framed response and flush it. `close` adds
/// `Connection: close`: the server ends the connection after this answer.
pub fn write_response<W: Write>(
    stream: &mut W,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    if close {
        head.push_str("Connection: close\r\n");
    }
    if let Some(seconds) = response.retry_after {
        head.push_str(&format!("Retry-After: {seconds}\r\n"));
    }
    head.push_str("\r\n");
    // Head and body leave in one write: a second small write would wait
    // on Nagle until the client's delayed ACK of the first.
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(response.body.as_bytes());
    stream.write_all(&bytes)?;
    stream.flush()
}

/// The position of the `\r\n\r\n` ending the header block.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Split a request target into its path and decoded query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn targets_split_into_path_and_query() {
        let (path, query) = parse_target("/v1/search?top=5&jobs=2&prune");
        assert_eq!(path, "/v1/search");
        assert_eq!(
            query,
            vec![
                ("top".to_string(), "5".to_string()),
                ("jobs".to_string(), "2".to_string()),
                ("prune".to_string(), String::new()),
            ]
        );
        let (path, query) = parse_target("/v1/health");
        assert_eq!(path, "/v1/health");
        assert!(query.is_empty());
    }

    #[test]
    fn query_param_returns_the_last_value() {
        let req = Request {
            method: "POST".into(),
            path: "/v1/search".into(),
            query: vec![
                ("top".into(), "5".into()),
                ("top".into(), "7".into()),
            ],
            body: String::new(),
        };
        assert_eq!(req.query_param("top"), Some("7"));
        assert_eq!(req.query_param("jobs"), None);
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
    }

    /// A reader handing out its bytes in chunks of the given sizes, in
    /// turn — a peer whose segments split the stream anywhere.
    struct Split<'a> {
        data: &'a [u8],
        sizes: Vec<usize>,
        next: usize,
    }

    impl Read for Split<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let step = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            let n = step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn whole(data: &[u8]) -> Split<'_> {
        Split {
            data,
            sizes: vec![usize::MAX],
            next: 0,
        }
    }

    fn parse_all(reader: &mut impl Read, count: usize) -> (Vec<Incoming>, Vec<u8>) {
        let mut pending = Vec::new();
        let parsed = (0..count)
            .map(|_| read_request(reader, &mut pending).unwrap().unwrap())
            .collect();
        (parsed, pending)
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let cases: [(&str, bool); 6] = [
            ("GET / HTTP/1.1\r\n\r\n", true),
            ("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", true),
            ("GET / HTTP/1.1\r\nconnection: Close\r\n\r\n", false),
            (
                "GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n",
                false,
            ),
            ("GET / HTTP/1.0\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", false),
        ];
        for (raw, keep_alive) in cases {
            let (parsed, _) = parse_all(&mut whole(raw.as_bytes()), 1);
            assert_eq!(parsed[0].keep_alive, keep_alive, "{raw:?}");
        }
    }

    #[test]
    fn pipelined_bytes_stay_pending_for_the_next_request() {
        let raw = b"POST /v1/estimate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /v1/health HTTP/1.1\r\n\r\nGET /v1/met";
        let mut reader = whole(raw);
        let (parsed, pending) = parse_all(&mut reader, 2);
        assert_eq!(parsed[0].request.body, "{}");
        assert_eq!(parsed[1].request.path, "/v1/health");
        assert_eq!(pending, b"GET /v1/met");
    }

    #[test]
    fn malformed_requests_and_clean_closes_are_told_apart() {
        let status = |raw: &[u8]| {
            read_request(&mut whole(raw), &mut Vec::new())
                .unwrap()
                .expect_err("malformed")
                .status
        };
        assert_eq!(status(b"GARBAGE\r\n\r\n"), 400);
        assert_eq!(status(b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n"), 400);
        assert_eq!(
            status(b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"),
            413
        );
        assert_eq!(
            status(b"POST / HTTP/1.1\r\nContent-Length: 1\r\n\r\n\xff"),
            400
        );
        assert_eq!(status(&[b'a'; MAX_HEADER_BYTES + 10]), 400);
        // A close between requests, or inside one, is a transport error.
        for raw in [
            &b""[..],
            b"GET / HTTP/1.1\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{",
        ] {
            let err = read_request(&mut whole(raw), &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn responses_are_length_framed_and_close_only_when_asked() {
        let mut response = Response::error(429, "queue full");
        response.retry_after = Some(1);
        let mut kept = Vec::new();
        write_response(&mut kept, &response, false).unwrap();
        let kept = String::from_utf8(kept).unwrap();
        let (head, body) = kept.split_once("\r\n\r\n").unwrap();
        assert!(
            head.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{head}"
        );
        assert!(
            head.contains(&format!("Content-Length: {}\r\n", body.len())),
            "{head}"
        );
        assert!(head.ends_with("Retry-After: 1"), "{head}");
        assert!(!head.contains("Connection"), "{head}");
        assert_eq!(body, response.body);

        let mut closing = Vec::new();
        write_response(&mut closing, &Response::json("{}".into()), true).unwrap();
        assert!(String::from_utf8(closing)
            .unwrap()
            .ends_with("Content-Length: 2\r\nConnection: close\r\n\r\n{}"));
    }

    /// Render a request the way a client would put it on the wire.
    fn render(request: &Request, http10: bool, close: bool) -> Vec<u8> {
        let mut target = request.path.clone();
        for (i, (k, v)) in request.query.iter().enumerate() {
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(&format!("{k}={v}"));
        }
        let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let connection = if close { "Connection: close\r\n" } else { "" };
        format!(
            "{} {target} {version}\r\nHost: test\r\n{connection}Content-Length: {}\r\n\r\n{}",
            request.method,
            request.body.len(),
            request.body
        )
        .into_bytes()
    }

    fn request_strategy() -> impl Strategy<Value = (Request, bool, bool)> {
        (
            0usize..3,
            "/v1/[a-z]{1,10}",
            prop::collection::vec(("[a-z]{1,5}", "[a-z0-9,.]{0,5}"), 0..4),
            "[a-z0-9 {}:,é€\"]{0,300}",
            0usize..4,
        )
            .prop_map(|(method, path, query, body, flags)| {
                let request = Request {
                    method: ["GET", "POST", "PUT"][method].to_string(),
                    path,
                    query,
                    body,
                };
                (request, flags & 1 == 1, flags & 2 == 2)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Two requests pipelined back to back parse identically however
        /// the byte stream is split into reads — mid-line, mid-header,
        /// mid-body, even inside a multi-byte UTF-8 character — and match
        /// what was sent.
        #[test]
        fn split_reads_parse_identically(
            first in request_strategy(),
            second in request_strategy(),
            sizes in prop::collection::vec(1usize..40, 1..16),
        ) {
            let sent = [first, second];
            let mut wire = Vec::new();
            for (request, http10, close) in &sent {
                wire.extend(render(request, *http10, *close));
            }
            let (at_once, rest) = parse_all(&mut whole(&wire), 2);
            prop_assert!(rest.is_empty());
            let mut split = Split { data: &wire, sizes, next: 0 };
            let (piecewise, rest) = parse_all(&mut split, 2);
            prop_assert!(rest.is_empty());
            prop_assert_eq!(&piecewise, &at_once);
            for (parsed, (request, http10, close)) in piecewise.iter().zip(&sent) {
                prop_assert_eq!(&parsed.request, request);
                prop_assert_eq!(parsed.keep_alive, !http10 && !close);
            }
        }
    }
}
