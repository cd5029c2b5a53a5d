//! Minimal HTTP/1.1 request/response handling over raw [`TcpStream`]s.
//!
//! Exactly the subset the service needs: one request per connection, JSON
//! bodies, `Content-Length` framing, and — the robustness headline — a hard
//! wall-clock deadline on the *entire* read. Per-`recv` socket timeouts
//! alone do not stop a byte-dribbling client (each byte resets the timer);
//! here every read also re-checks the request's overall deadline, so a
//! client that trickles one byte per second is disconnected when the
//! deadline lapses, not when it finishes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on request head (request line + headers) bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard cap on request body bytes; larger bodies answer `413`.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request: method, path, and raw body.
#[derive(Debug)]
pub struct Request {
    /// Uppercased request method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included verbatim.
    pub path: String,
    /// Raw request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why reading a request failed, mapped by the server to a status code.
#[derive(Debug)]
pub enum ReadError {
    /// The read deadline lapsed before the full request arrived (`408`).
    Deadline,
    /// The request head or body exceeded its size cap (`413`).
    TooLarge,
    /// The bytes are not a parseable HTTP/1.1 request (`400`).
    Malformed(String),
    /// The connection failed mid-read (no response possible).
    Io(std::io::Error),
}

/// Reads one HTTP/1.1 request from `stream`, enforcing `deadline` over the
/// whole transfer (dribble-proof) and the head/body size caps.
pub fn read_request(stream: &mut TcpStream, deadline: Duration) -> Result<Request, ReadError> {
    let start = Instant::now();
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];

    // Head: read until the blank line, re-arming a short socket timeout per
    // recv so the overall deadline is observed within ~100ms.
    let head_end = loop {
        if let Some(i) = find_blank_line(&buf) {
            break i;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge);
        }
        let filled = read_some(stream, &mut chunk, start, deadline)?;
        if filled.is_empty() {
            return Err(ReadError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(filled);
    };

    let head_bytes = buf
        .get(..head_end)
        .ok_or_else(|| ReadError::Malformed("head marker out of range".into()))?;
    let head = std::str::from_utf8(head_bytes)
        .map_err(|_| ReadError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line has no path".into()))?
        .to_string();

    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| ReadError::Malformed("bad Content-Length".into()))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }

    // Body: whatever followed the blank line, then read to length.
    let mut body = buf.get(head_end + 4..).unwrap_or_default().to_vec();
    while body.len() < content_length {
        let filled = read_some(stream, &mut chunk, start, deadline)?;
        if filled.is_empty() {
            return Err(ReadError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(filled);
    }
    body.truncate(content_length);

    Ok(Request { method, path, body })
}

/// One deadline-aware socket read: arms a short per-recv timeout, retries
/// on spurious timeouts while the overall deadline holds, and fails with
/// [`ReadError::Deadline`] once it lapses. Returns the filled prefix of
/// `chunk` (empty on orderly close), so callers never index the buffer.
fn read_some<'c>(
    stream: &mut TcpStream,
    chunk: &'c mut [u8],
    start: Instant,
    deadline: Duration,
) -> Result<&'c [u8], ReadError> {
    loop {
        let elapsed = start.elapsed();
        if elapsed >= deadline {
            return Err(ReadError::Deadline);
        }
        let leash = (deadline - elapsed).min(Duration::from_millis(100));
        stream
            .set_read_timeout(Some(leash.max(Duration::from_millis(1))))
            .map_err(ReadError::Io)?;
        match stream.read(chunk) {
            Ok(n) => return Ok(chunk.get(..n).unwrap_or(&[])),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes a complete HTTP/1.1 response with a JSON body and closes framing
/// (`Connection: close`). `extra_headers` are emitted verbatim. Head and
/// body go out in one write, so no part of the response waits on Nagle.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        message.push_str(name);
        message.push_str(": ");
        message.push_str(value);
        message.push_str("\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
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
}

/// Reads a full response from `stream` under an overall deadline (the
/// server closes after one response, so read-to-length then verify).
pub fn read_response(stream: &mut TcpStream, deadline: Duration) -> Result<Response, ReadError> {
    let start = Instant::now();
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_blank_line(&buf) {
            break i;
        }
        let filled = read_some(stream, &mut chunk, start, deadline)?;
        if filled.is_empty() {
            return Err(ReadError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(filled);
    };
    let head_bytes = buf
        .get(..head_end)
        .ok_or_else(|| ReadError::Malformed("head marker out of range".into()))?;
    let head = std::str::from_utf8(head_bytes)
        .map_err(|_| ReadError::Malformed("response head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ReadError::Malformed(format!("bad status line `{status_line}`")))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| ReadError::Malformed("bad Content-Length".into()))?;
        }
        headers.push((name, value));
    }
    let mut body = buf.get(head_end + 4..).unwrap_or_default().to_vec();
    while body.len() < content_length {
        let filled = read_some(stream, &mut chunk, start, deadline)?;
        if filled.is_empty() {
            return Err(ReadError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(filled);
    }
    body.truncate(content_length);
    Ok(Response {
        status,
        headers,
        body,
    })
}
