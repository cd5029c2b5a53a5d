//! Minimal HTTP/1.1 request/response handling over raw [`TcpStream`]s.
//!
//! Exactly the subset the service needs: persistent connections (RFC 9112
//! §9.3) with the `Connection` header, JSON bodies, `Content-Length`
//! framing, and — the robustness headline — a hard wall-clock deadline on
//! the *entire* read. Per-`recv` socket timeouts alone do not stop a
//! byte-dribbling client (each byte resets the timer); here every read
//! also re-checks the message's overall deadline, so a client that trickles
//! one byte per second is disconnected when the deadline lapses, not when
//! it finishes.
//!
//! A connection carries a sequence of messages, so each side reads it
//! through a [`Reader`] that keeps whatever arrived past the end of one
//! message (the start of a pipelined next one) for the next read. A
//! connection that ends before the first byte of a message is
//! [`ReadError::Closed`]: no message, and nothing to answer.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on message head (start line + headers) bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard cap on request body bytes; larger bodies answer `413`.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request: method, path, raw body, and whether the connection
/// ends with it.
#[derive(Debug)]
pub struct Request {
    /// Uppercased request method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included verbatim.
    pub path: String,
    /// Raw request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// The connection cannot carry another request: the client sent
    /// `Connection: close`, spoke a version other than HTTP/1.1, or framed
    /// the body with a `Transfer-Encoding` this reader does not parse.
    pub close: bool,
}

/// Why reading a message failed, mapped by the server to a status code.
#[derive(Debug)]
pub enum ReadError {
    /// The connection ended — closed or reset by the peer, or shut down by
    /// this side — before the first byte of a message. Nothing was asked,
    /// so nothing is answered or counted.
    Closed,
    /// The read deadline lapsed before the full message arrived (`408`).
    Deadline,
    /// The message head or body exceeded its size cap (`413`).
    TooLarge,
    /// The bytes are not a parseable HTTP/1.1 message (`400`).
    Malformed(String),
    /// The connection failed mid-read (no response possible).
    Io(std::io::Error),
}

/// The read side of one connection: bytes read off the socket and not yet
/// consumed by a message.
#[derive(Debug, Default)]
pub struct Reader {
    pending: Vec<u8>,
}

/// A message split at its blank line: the start line, the header lines,
/// and the body.
struct Message {
    head: String,
    body: Vec<u8>,
}

impl Message {
    /// The start line and the `(lowercased name, trimmed value)` headers.
    fn lines(&self) -> (&str, impl Iterator<Item = (String, &str)>) {
        let mut lines = self.head.split("\r\n");
        let start = lines.next().unwrap_or("");
        let headers = lines.filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim()))
        });
        (start, headers)
    }
}

impl Reader {
    /// Reads the next request, enforcing the size caps and a deadline of
    /// `limit` from `start` over the whole transfer (dribble-proof).
    pub fn read_request(
        &mut self,
        stream: &TcpStream,
        start: Instant,
        limit: Duration,
    ) -> Result<Request, ReadError> {
        let message = self.read_message(stream, start, limit, "request", Some(MAX_BODY_BYTES))?;
        let (start_line, headers) = message.lines();
        let mut parts = start_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
            .to_ascii_uppercase();
        let path = parts
            .next()
            .ok_or_else(|| ReadError::Malformed("request line has no path".into()))?
            .to_string();
        let mut close = parts.next() != Some("HTTP/1.1");
        for (name, value) in headers {
            close |= (name == "connection" && lists_close(value)) || name == "transfer-encoding";
        }
        Ok(Request {
            method,
            path,
            body: message.body,
            close,
        })
    }

    /// Reads the next response under a deadline of `limit` from `start`.
    pub fn read_response(
        &mut self,
        stream: &TcpStream,
        start: Instant,
        limit: Duration,
    ) -> Result<Response, ReadError> {
        let message = self.read_message(stream, start, limit, "response", None)?;
        let (status_line, headers) = message.lines();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ReadError::Malformed(format!("bad status line `{status_line}`")))?;
        let headers = headers
            .map(|(name, value)| (name, value.to_string()))
            .collect();
        Ok(Response {
            status,
            headers,
            body: message.body,
        })
    }

    /// Blocks until the first byte of the next message is at hand (at once
    /// when one already arrived past the last message). `false` when the
    /// connection ends, or stays silent for `idle`, first.
    pub fn await_message(&mut self, stream: &TcpStream, idle: Duration) -> bool {
        !self.pending.is_empty()
            || matches!(self.fill(stream, Instant::now(), idle), Ok(n) if n > 0)
    }

    /// Reads one `kind` of message: the head up to its blank line, then a
    /// body of its `Content-Length` (over `body_cap`, when given, is
    /// `TooLarge`). Bytes past the body stay pending for the next message.
    fn read_message(
        &mut self,
        stream: &TcpStream,
        start: Instant,
        limit: Duration,
        kind: &str,
        body_cap: Option<usize>,
    ) -> Result<Message, ReadError> {
        let head_end = loop {
            if let Some(i) = find_blank_line(&self.pending) {
                break i;
            }
            if self.pending.len() > MAX_HEAD_BYTES {
                return Err(ReadError::TooLarge);
            }
            let first = self.pending.is_empty();
            match self.fill(stream, start, limit) {
                Ok(0) if first => return Err(ReadError::Closed),
                Ok(0) => return Err(ReadError::Malformed("connection closed mid-head".into())),
                Ok(_) => {}
                Err(ReadError::Io(e)) if first && ended(&e) => return Err(ReadError::Closed),
                Err(e) => return Err(e),
            }
        };
        let head = self
            .pending
            .get(..head_end)
            .ok_or_else(|| ReadError::Malformed("head marker out of range".into()))?;
        let head = std::str::from_utf8(head)
            .map_err(|_| ReadError::Malformed(format!("{kind} head is not UTF-8")))?
            .to_string();
        let mut message = Message {
            head,
            body: Vec::new(),
        };
        // RFC 9112 §6.3: a Content-Length that is not all digits, or
        // repeats that disagree, leave the framing invalid.
        let mut content_length = None;
        for (name, value) in message.lines().1 {
            if name == "content-length" {
                let n = value
                    .parse::<usize>()
                    .ok()
                    .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                    .ok_or_else(|| ReadError::Malformed("bad Content-Length".into()))?;
                if content_length.is_some_and(|seen| seen != n) {
                    return Err(ReadError::Malformed("conflicting Content-Length".into()));
                }
                content_length = Some(n);
            }
        }
        let content_length = content_length.unwrap_or(0);
        if body_cap.is_some_and(|cap| content_length > cap) {
            return Err(ReadError::TooLarge);
        }

        let body_start = head_end + 4;
        let end = body_start
            .checked_add(content_length)
            .ok_or(ReadError::TooLarge)?;
        while self.pending.len() < end {
            if self.fill(stream, start, limit)? == 0 {
                return Err(ReadError::Malformed("connection closed mid-body".into()));
            }
        }
        let next = self.pending.split_off(end);
        message.body = std::mem::replace(&mut self.pending, next).split_off(body_start);
        Ok(message)
    }

    /// One deadline-aware socket read appended to the pending bytes: arms
    /// the socket timeout to what is left of `limit` since `start`, retries
    /// spurious wake-ups while the deadline holds, and fails with
    /// [`ReadError::Deadline`] once it lapses. Returns the bytes read (0 on
    /// orderly close).
    fn fill(
        &mut self,
        mut stream: &TcpStream,
        start: Instant,
        limit: Duration,
    ) -> Result<usize, ReadError> {
        let mut chunk = [0u8; 4096];
        loop {
            let elapsed = start.elapsed();
            if elapsed >= limit {
                return Err(ReadError::Deadline);
            }
            stream
                .set_read_timeout(Some((limit - elapsed).max(Duration::from_millis(1))))
                .map_err(ReadError::Io)?;
            match stream.read(&mut chunk) {
                Ok(n) => {
                    self.pending
                        .extend_from_slice(chunk.get(..n).unwrap_or_default());
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }
}

/// Whether an I/O error means the peer ended the connection.
pub(crate) fn ended(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe
    )
}

/// Whether a `Connection` header value lists the `close` option.
fn lists_close(value: &str) -> bool {
    value
        .split(',')
        .any(|option| option.trim().eq_ignore_ascii_case("close"))
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes a complete HTTP/1.1 response with a JSON body. `keep` says
/// whether the connection carries another request afterwards
/// (`connection: keep-alive`) or ends with this response (`connection:
/// close`); `extra_headers` are emitted verbatim. Head and body go out in
/// one write, so no part of the response waits on Nagle.
pub fn write_response(
    mut stream: &TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep: bool,
) -> std::io::Result<()> {
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        body.len(),
        if keep { "keep-alive" } else { "close" }
    );
    for (name, value) in extra_headers {
        message.push_str(name);
        message.push_str(": ");
        message.push_str(value);
        message.push_str("\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    stream.write_all(message.as_bytes())
}

/// A parsed HTTP/1.1 response (client side).
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Lowercased `(name, value)` header pairs.
    pub headers: Vec<(String, String)>,
    /// Raw response body.
    pub body: Vec<u8>,
}

impl Response {
    /// The first header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server ends the connection after this response
    /// (`Connection: close`).
    pub fn closes(&self) -> bool {
        self.header("connection").is_some_and(lists_close)
    }
}

/// Reads one response from a connection that carries nothing else, under
/// an overall deadline; bytes past it are dropped.
pub fn read_response(stream: &mut TcpStream, deadline: Duration) -> Result<Response, ReadError> {
    Reader::default().read_response(stream, Instant::now(), deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected loopback pair: (client side, server side).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn bytes_past_a_body_start_the_next_request() {
        let (mut client, server) = pair();
        client
            .write_all(b"POST /a HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /b HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n")
            .unwrap();
        let mut reader = Reader::default();
        let limit = Duration::from_secs(5);
        let first = reader.read_request(&server, Instant::now(), limit).unwrap();
        assert_eq!((first.method.as_str(), first.path.as_str()), ("POST", "/a"));
        assert_eq!(first.body, b"hi");
        assert!(!first.close);
        assert!(
            reader.await_message(&server, limit),
            "the second is at hand"
        );
        let second = reader.read_request(&server, Instant::now(), limit).unwrap();
        assert_eq!(second.path, "/b");
        assert!(second.close, "`close` is found in an option list");
        drop(client);
        assert!(!reader.await_message(&server, limit));
        assert!(matches!(
            reader.read_request(&server, Instant::now(), limit),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn a_close_mid_message_is_malformed_and_an_old_version_closes() {
        let (mut client, server) = pair();
        client
            .write_all(b"GET / HTTP/1.0\r\n\r\nGET /x HT")
            .unwrap();
        drop(client);
        let mut reader = Reader::default();
        let limit = Duration::from_secs(5);
        let request = reader.read_request(&server, Instant::now(), limit).unwrap();
        assert!(request.close, "HTTP/1.0 does not persist by default");
        assert!(matches!(
            reader.read_request(&server, Instant::now(), limit),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn content_lengths_that_differ_or_are_signed_are_malformed() {
        let read = |message: &[u8]| {
            let (mut client, server) = pair();
            client.write_all(message).unwrap();
            Reader::default().read_request(&server, Instant::now(), Duration::from_secs(5))
        };
        for message in [
            &b"POST / HTTP/1.1\r\ncontent-length: 2\r\nContent-Length: 3\r\n\r\nhi!"[..],
            b"POST / HTTP/1.1\r\ncontent-length: +2\r\n\r\nhi",
        ] {
            assert!(
                matches!(read(message), Err(ReadError::Malformed(_))),
                "{}",
                String::from_utf8_lossy(message)
            );
        }
        let agreeing = read(b"POST / HTTP/1.1\r\ncontent-length: 2\r\nContent-Length: 2\r\n\r\nhi");
        assert_eq!(agreeing.unwrap().body, b"hi");
    }

    #[test]
    fn a_silent_connection_idles_out() {
        let (_client, server) = pair();
        let started = Instant::now();
        assert!(!Reader::default().await_message(&server, Duration::from_millis(50)));
        assert!(started.elapsed() >= Duration::from_millis(50));
    }
}
