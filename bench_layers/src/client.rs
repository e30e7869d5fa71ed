//! The load generator's HTTP/1.1 client: `Content-Length` framing, and a
//! connection that is reused unless the response says `Connection:
//! close` — so a server that learns keep-alive shows its gain without a
//! benchmark edit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One framed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// The server will close the connection after this response.
    pub close: bool,
}

/// Why reading a response failed.
#[derive(Debug)]
pub enum ReplyError {
    /// The peer closed before sending a byte: a kept-alive connection the
    /// server had already dropped. Safe to retry on a new connection.
    Closed,
    /// The read deadline passed.
    TimedOut,
    /// Bytes arrived but do not frame as an HTTP response.
    Malformed(String),
    Io(std::io::Error),
}

impl std::fmt::Display for ReplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplyError::Closed => write!(f, "connection closed before the response"),
            ReplyError::TimedOut => write!(f, "timed out"),
            ReplyError::Malformed(m) => write!(f, "malformed response: {m}"),
            ReplyError::Io(e) => write!(f, "{e}"),
        }
    }
}

fn read_some<R: Read>(r: &mut R, chunk: &mut [u8]) -> Result<usize, ReplyError> {
    loop {
        match r.read(chunk) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(ReplyError::TimedOut)
            }
            Err(e) => return Err(ReplyError::Io(e)),
        }
    }
}

/// Read one response: the header block, then exactly `Content-Length`
/// body bytes (or, without one, everything up to a close). Returns the
/// reply and when its first byte arrived.
pub fn read_reply<R: Read>(r: &mut R) -> Result<(Reply, Instant), ReplyError> {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let mut first_byte = None;
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = read_some(r, &mut chunk)?;
        if n == 0 {
            return Err(if buf.is_empty() {
                ReplyError::Closed
            } else {
                ReplyError::Malformed("closed inside the header block".into())
            });
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReplyError::Malformed("header block is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ReplyError::Malformed("bad status line".into()))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| ReplyError::Malformed("bad Content-Length".into()))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = buf.split_off(head_end + 4);
    match length {
        Some(n) => {
            while body.len() < n {
                let got = read_some(r, &mut chunk)?;
                if got == 0 {
                    return Err(ReplyError::Malformed("closed inside the body".into()));
                }
                body.extend_from_slice(&chunk[..got]);
            }
            body.truncate(n);
        }
        None if close => loop {
            let got = read_some(r, &mut chunk)?;
            if got == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..got]);
        },
        None => {
            return Err(ReplyError::Malformed(
                "no Content-Length on a kept-alive response".into(),
            ))
        }
    }
    let body =
        String::from_utf8(body).map_err(|_| ReplyError::Malformed("body is not UTF-8".into()))?;
    Ok((
        Reply {
            status,
            body,
            close,
        },
        first_byte.expect("a header block was read"),
    ))
}

/// Timestamps and result of one request/response exchange.
#[derive(Debug)]
pub struct Exchange {
    pub reply: Reply,
    /// When the connection was established, if this exchange opened one.
    pub connected: Option<Instant>,
    pub written: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

/// Why an exchange failed.
#[derive(Debug)]
pub enum Failure {
    /// No answer by the deadline.
    Censored,
    Transport(String),
}

/// One client connection slot: reused across requests while the server
/// keeps it open.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Connections opened so far.
    pub connects: u64,
}

fn remaining(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            connects: 0,
        }
    }

    /// Send `request` and read its response, giving up at `deadline`. A
    /// reused connection the server has dropped is retried once on a new
    /// one.
    pub fn exchange(&mut self, request: &[u8], deadline: Instant) -> Result<Exchange, Failure> {
        let reused = self.stream.is_some();
        match self.attempt(request, deadline) {
            Err(Attempt::Stale) if reused => self.attempt(request, deadline),
            other => other,
        }
        .map_err(|a| match a {
            Attempt::Stale => Failure::Transport("connection closed before the response".into()),
            Attempt::Failed(f) => f,
        })
    }

    fn attempt(&mut self, request: &[u8], deadline: Instant) -> Result<Exchange, Attempt> {
        let censored = || Attempt::Failed(Failure::Censored);
        let mut connected = None;
        if self.stream.is_none() {
            let budget = remaining(deadline).ok_or_else(censored)?;
            let stream = TcpStream::connect_timeout(&self.addr, budget).map_err(|e| {
                if e.kind() == std::io::ErrorKind::TimedOut {
                    censored()
                } else {
                    Attempt::Failed(Failure::Transport(format!("connect: {e}")))
                }
            })?;
            let _ = stream.set_nodelay(true);
            self.connects += 1;
            connected = Some(Instant::now());
            self.stream = Some(stream);
        }
        let result = self.send_and_read(request, deadline);
        match &result {
            Ok((reply, _, _)) if !reply.close => {}
            _ => self.stream = None,
        }
        result.map(|(reply, written, first_byte)| Exchange {
            reply,
            connected,
            written,
            first_byte,
            done: Instant::now(),
        })
    }

    fn send_and_read(
        &mut self,
        request: &[u8],
        deadline: Instant,
    ) -> Result<(Reply, Instant, Instant), Attempt> {
        let censored = || Attempt::Failed(Failure::Censored);
        let stream = self.stream.as_mut().expect("connected above");
        stream
            .set_write_timeout(Some(remaining(deadline).ok_or_else(censored)?))
            .map_err(|e| Attempt::Failed(Failure::Transport(e.to_string())))?;
        // A write that fails on a kept-alive connection means the server
        // dropped it; nothing was answered, so it is safe to retry.
        stream.write_all(request).map_err(|_| Attempt::Stale)?;
        let written = Instant::now();
        stream
            .set_read_timeout(Some(remaining(deadline).ok_or_else(censored)?))
            .map_err(|e| Attempt::Failed(Failure::Transport(e.to_string())))?;
        match read_reply(stream) {
            Ok((reply, first_byte)) => Ok((reply, written, first_byte)),
            Err(ReplyError::Closed) => Err(Attempt::Stale),
            Err(ReplyError::TimedOut) => Err(censored()),
            Err(e) => Err(Attempt::Failed(Failure::Transport(e.to_string()))),
        }
    }
}

enum Attempt {
    /// The connection was dead before anything was answered.
    Stale,
    Failed(Failure),
}

/// A one-shot `GET`, for health probes.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<Reply, Failure> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    Conn::new(addr)
        .exchange(request.as_bytes(), Instant::now() + timeout)
        .map(|ex| ex.reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader handing out at most `step` bytes per call.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn parse(data: &[u8], step: usize) -> Result<Reply, ReplyError> {
        read_reply(&mut Trickle { data, step }).map(|(r, _)| r)
    }

    #[test]
    fn frames_by_content_length_with_and_without_close() {
        let closing = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        let kept = b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\nRetry-After: 1\r\n\r\n{}TRAILING";
        for step in [1, 3, 4096] {
            let r = parse(closing, step).unwrap();
            assert_eq!(
                r,
                Reply {
                    status: 200,
                    body: "hello".into(),
                    close: true
                }
            );
            // Bytes past Content-Length belong to the next response.
            let r = parse(kept, step).unwrap();
            assert_eq!(
                r,
                Reply {
                    status: 429,
                    body: "{}".into(),
                    close: false
                }
            );
        }
    }

    #[test]
    fn close_without_length_reads_to_eof_and_keep_alive_requires_length() {
        let r = parse(b"HTTP/1.1 200 OK\r\nConnection: Close\r\n\r\nall of it", 2).unwrap();
        assert_eq!(r.body, "all of it");
        assert!(r.close);
        assert!(matches!(
            parse(b"HTTP/1.1 200 OK\r\n\r\nbody", 64),
            Err(ReplyError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_and_empty_responses_are_told_apart() {
        assert!(matches!(parse(b"", 8), Err(ReplyError::Closed)));
        assert!(matches!(
            parse(b"HTTP/1.1 200 OK\r\nContent-", 8),
            Err(ReplyError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", 8),
            Err(ReplyError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"SPDY\r\n\r\n", 8),
            Err(ReplyError::Malformed(_))
        ));
    }
}
