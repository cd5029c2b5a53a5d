//! A retrying client for the analysis service, used by the
//! `projtile-query` binary and the integration suite.
//!
//! A client keeps its connection between calls (HTTP/1.1 persistent
//! connections): a call takes the kept connection, or opens its own when
//! there is none, and hands it back afterwards unless the server said
//! `Connection: close`. So concurrent calls on one client never share a
//! socket, and at most one connection stays open between calls. A kept
//! connection that turns out to be closed before any byte of its response
//! arrives — the server idled it out, drained, or closed it to make room
//! for a newcomer, and processed nothing it sent — is replaced by one fresh
//! connection within the same attempt: no retry is counted and no backoff
//! slept. Any caller that sends more than one request through one client
//! pays connect, accept and the server's handoff once; a one-shot call
//! pays them as on a fresh connection.
//!
//! Transient failures — connection refused, `503` shed, read deadline —
//! are retried with exponential backoff plus deterministic xorshift
//! jitter (so simultaneous clients decorrelate without a clock or OS
//! entropy dependency). A `503`'s `Retry-After` header, when present,
//! overrides the computed backoff for that attempt. Non-transient answers
//! (`400`, `404`, `500`, …) surface immediately: retrying a malformed
//! request cannot fix it, and the engine recomputes deterministically, so
//! replaying a `500`-answered request after a panic is *safe* but not
//! automatic.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use projtile_core::engine::{AnalysisResult, Query};
use projtile_loopnest::LoopNest;
use serde::{json, Deserialize, Serialize, Value};

use crate::http::{ended, ReadError, Reader, Response};

/// Retry policy for [`Client`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Total attempts before giving up (min 1).
    pub max_attempts: usize,
    /// Backoff before the second attempt; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff (also caps honored `Retry-After`).
    pub max_backoff: Duration,
    /// Per-attempt deadline for reading the full response.
    pub response_deadline: Duration,
    /// Seed for the deterministic jitter stream (same seed, same jitter).
    pub jitter_seed: u64,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            max_attempts: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            response_deadline: Duration::from_secs(30),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Why a client call failed after exhausting its retry budget (or hitting
/// a non-retryable answer).
#[derive(Debug)]
pub enum ClientError {
    /// Every attempt failed with a transient error; the payload is the
    /// last one observed.
    Exhausted(String),
    /// The server answered with a non-transient error status.
    Status(u16, String),
    /// The server's bytes were not a valid response for this protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted(last) => {
                write!(f, "retries exhausted; last error: {last}")
            }
            ClientError::Status(code, body) => write!(f, "server answered {code}: {body}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Where a client's [`Client::analyze`] calls spent their time, summed over
/// every call so far. Next to the server's stage histograms this splits a
/// round trip end to end: `exchange` contains `connect` and the server's
/// `request_latency` (accept, or a kept connection's first request byte,
/// to the last byte written), and the rest of it is delivery (wake-ups and
/// bytes on the wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTimings {
    /// `analyze` calls that reached the server and got a `200`.
    pub analyses: u64,
    /// Serializing the request body.
    pub encode: Duration,
    /// Sending the request to the last response byte read, retries and
    /// connects included.
    pub exchange: Duration,
    /// Inside `TcpStream::connect`: zero for a call on a kept connection.
    pub connect: Duration,
    /// Parsing and deserializing the response body.
    pub decode: Duration,
}

/// A client bound to one server address. Cheap to construct; it keeps one
/// connection between calls (see the module docs).
#[derive(Debug)]
pub struct Client {
    addr: String,
    retry: RetryConfig,
    jitter: AtomicU64,
    /// Running [`ClientTimings`] sums: calls, then encode, exchange,
    /// connect and decode nanoseconds.
    timings: [AtomicU64; 5],
    /// The connection the last call left open, if any. A call takes it
    /// out, so no two calls share it.
    kept: Mutex<Option<Connection>>,
}

/// One open connection with the bytes read past its last response.
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    reader: Reader,
}

/// How one request on one connection failed.
enum Failed {
    /// The connection ended before the first byte of a response arrived:
    /// the server answered nothing on it.
    Ended,
    /// Any other transient failure, described.
    Transient(String),
}

impl Connection {
    /// Sends `message` and reads the response under `deadline`.
    fn exchange(&mut self, message: &[u8], deadline: Duration) -> Result<Response, Failed> {
        if let Err(e) = (&self.stream).write_all(message) {
            return Err(if ended(&e) {
                Failed::Ended
            } else {
                Failed::Transient(format!("send: {e}"))
            });
        }
        let read = self
            .reader
            .read_response(&self.stream, Instant::now(), deadline);
        read.map_err(|e| match e {
            ReadError::Closed => Failed::Ended,
            ReadError::Deadline => Failed::Transient("response deadline exceeded".to_string()),
            ReadError::TooLarge => Failed::Transient("oversized response".to_string()),
            ReadError::Malformed(msg) => Failed::Transient(format!("malformed response: {msg}")),
            ReadError::Io(e) => Failed::Transient(format!("read: {e}")),
        })
    }
}

impl Client {
    /// A client with the default retry policy.
    pub fn new(addr: impl Into<String>) -> Client {
        Client::with_retry(addr, RetryConfig::default())
    }

    /// A client with an explicit retry policy.
    pub fn with_retry(addr: impl Into<String>, retry: RetryConfig) -> Client {
        let jitter = AtomicU64::new(retry.jitter_seed.max(1));
        Client {
            addr: addr.into(),
            retry,
            jitter,
            timings: Default::default(),
            kept: Mutex::new(None),
        }
    }

    /// The running sums of this client's `analyze` phases.
    pub fn timings(&self) -> ClientTimings {
        let [analyses, encode, exchange, connect, decode] =
            self.timings.each_ref().map(|t| t.load(Ordering::Relaxed));
        ClientTimings {
            analyses,
            encode: Duration::from_nanos(encode),
            exchange: Duration::from_nanos(exchange),
            connect: Duration::from_nanos(connect),
            decode: Duration::from_nanos(decode),
        }
    }

    /// Analyzes `queries` against `nest`, returning per-query outcomes in
    /// input order (engine errors ride as `Err(message)` entries).
    pub fn analyze(
        &self,
        nest: &LoopNest,
        queries: &[Query],
    ) -> Result<Vec<Result<AnalysisResult, String>>, ClientError> {
        let started = Instant::now();
        let body = request_body(nest, queries);
        let encoded = Instant::now();
        let mut connect = Duration::ZERO;
        let response = self.request("POST", "/analyze", &body, &mut connect)?;
        let exchanged = Instant::now();
        let decoded = decode_results(&response);
        let phases = [
            1,
            (encoded - started).as_nanos() as u64,
            (exchanged - encoded).as_nanos() as u64,
            connect.as_nanos() as u64,
            exchanged.elapsed().as_nanos() as u64,
        ];
        for (sum, add) in self.timings.iter().zip(phases) {
            sum.fetch_add(add, Ordering::Relaxed);
        }
        decoded
    }

    /// Fetches the `/metrics` document.
    pub fn metrics(&self) -> Result<Value, ClientError> {
        let response = self.request("GET", "/metrics", "", &mut Duration::default())?;
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| ClientError::Protocol("metrics body is not UTF-8".to_string()))?;
        json::parse(text).map_err(|e| ClientError::Protocol(format!("metrics body: {e}")))
    }

    /// Fetches the `/trace` document (the recorded query trace; an empty
    /// document when the server runs without `--trace-capacity`).
    pub fn trace(&self) -> Result<Value, ClientError> {
        let response = self.request("GET", "/trace", "", &mut Duration::default())?;
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| ClientError::Protocol("trace body is not UTF-8".to_string()))?;
        json::parse(text).map_err(|e| ClientError::Protocol(format!("trace body: {e}")))
    }

    /// Health check; `Ok` means the server answered `200`.
    pub fn healthz(&self) -> Result<(), ClientError> {
        self.request("GET", "/healthz", "", &mut Duration::default())
            .map(|_| ())
    }

    /// Asks the server to drain gracefully.
    pub fn drain(&self) -> Result<(), ClientError> {
        self.request("POST", "/admin/drain", "", &mut Duration::default())
            .map(|_| ())
    }

    /// One logical request with the retry loop: connect failures, read
    /// deadlines, and `503` answers back off and retry; anything else
    /// returns (success) or surfaces (client/server error). Time spent
    /// connecting is added to `connect`.
    fn request(
        &self,
        method: &str,
        path: &str,
        body: &str,
        connect: &mut Duration,
    ) -> Result<Response, ClientError> {
        // Head and body in one write: one syscall, and no Nagle wait.
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        message.push_str(body);
        let attempts = self.retry.max_attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt, &last));
            }
            match self.attempt(message.as_bytes(), connect) {
                Ok(response) if response.status == 503 => {
                    last = format!(
                        "503 ({})",
                        response.header("retry-after").unwrap_or("no retry-after")
                    );
                }
                Ok(response) if response.status == 200 => return Ok(response),
                Ok(response) => {
                    let body = String::from_utf8_lossy(&response.body).into_owned();
                    return Err(ClientError::Status(response.status, body));
                }
                Err(transient) => last = transient,
            }
        }
        Err(ClientError::Exhausted(last))
    }

    /// A single send-read attempt, on the kept connection when there is
    /// one and on a fresh connection otherwise or when the kept one ended
    /// unanswered; `Err` is a transient failure description.
    fn attempt(&self, message: &[u8], connect: &mut Duration) -> Result<Response, String> {
        let deadline = self.retry.response_deadline;
        let kept = self.kept.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(mut conn) = kept {
            match conn.exchange(message, deadline) {
                Err(Failed::Ended) => {}
                outcome => return self.finish(conn, outcome),
            }
        }
        let started = Instant::now();
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        *connect += started.elapsed();
        // Requests and responses go out in one write each; on a connection
        // that stays open, Nagle would hold back the tail of one that the
        // socket splits until the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let mut conn = Connection {
            stream,
            reader: Reader::default(),
        };
        let outcome = conn.exchange(message, deadline);
        self.finish(conn, outcome)
    }

    /// Keeps `conn` for the next call after a response that leaves it
    /// open, replacing any connection a concurrent call kept meanwhile.
    fn finish(
        &self,
        conn: Connection,
        outcome: Result<Response, Failed>,
    ) -> Result<Response, String> {
        match outcome {
            Ok(response) => {
                if !response.closes() {
                    let displaced = self
                        .kept
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .replace(conn);
                    drop(displaced);
                }
                Ok(response)
            }
            Err(Failed::Ended) => Err("connection closed before a response".to_string()),
            Err(Failed::Transient(msg)) => Err(msg),
        }
    }

    /// Backoff before retry number `attempt` (≥ 1): a `Retry-After` from
    /// the previous answer when present, otherwise exponential growth from
    /// the base — either way jittered and capped.
    fn backoff(&self, attempt: usize, last: &str) -> Duration {
        let advised = last
            .strip_prefix("503 (")
            .and_then(|rest| rest.strip_suffix(')'))
            .and_then(|secs| secs.parse::<u64>().ok())
            .map(Duration::from_secs)
            // `Retry-After: 0` means "no advice", not "hammer immediately".
            .filter(|d| !d.is_zero());
        let base = advised.unwrap_or_else(|| {
            self.retry
                .base_backoff
                .saturating_mul(1u32 << (attempt - 1).min(16) as u32)
        });
        let capped = base.min(self.retry.max_backoff);
        // xorshift64*: deterministic per-client jitter in [0, capped/2].
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        let half = capped.as_millis().max(2) as u64 / 2;
        capped + Duration::from_millis(x.checked_rem(half.max(1)).unwrap_or(0))
    }
}

/// The `/analyze` body `{"nest":…,"queries":[…]}`, written straight from
/// the values: the bytes printing its `Value` tree gives.
fn request_body(nest: &LoopNest, queries: &[Query]) -> String {
    let mut body = String::from("{\"nest\":");
    nest.write_json(&mut body);
    body.push_str(",\"queries\":");
    queries.write_json(&mut body);
    body.push('}');
    body
}

/// One query's outcome in an `/analyze` response.
type Outcome = Result<AnalysisResult, String>;

/// The per-query outcomes of an `/analyze` response, read from the body
/// without a tree; a body the stream refuses goes through [`tree_results`],
/// so every error is the tree decode's.
fn decode_results(response: &Response) -> Result<Vec<Outcome>, ClientError> {
    let text = std::str::from_utf8(&response.body)
        .map_err(|_| ClientError::Protocol("response body is not UTF-8".to_string()))?;
    read_results(text).or_else(|_| tree_results(text))
}

/// `{"results":[{"ok": answer} | {"err": message}, …]}` read token by
/// token. What it accepts, [`tree_results`] accepts with the same outcomes:
/// the first of a repeated key counts, `ok` wins over `err`, other keys
/// are dropped.
fn read_results(text: &str) -> Result<Vec<Outcome>, serde::Error> {
    let mut r = json::Reader::new(text);
    let mut results = None;
    r.object(|r, key| {
        if key != "results" || results.is_some() {
            return r.skip();
        }
        let mut entries = Vec::new();
        r.array(|r| {
            let (mut ok, mut err) = (None, None);
            r.object(|r, key| {
                match &*key {
                    "ok" if ok.is_none() => ok = Some(AnalysisResult::read_json(r)?),
                    "err" if err.is_none() => err = Some(String::read_json(r)?),
                    _ => r.skip()?,
                }
                Ok(())
            })?;
            entries.push(match (ok, err) {
                (Some(answer), _) => Ok(answer),
                (None, Some(msg)) => Err(msg),
                (None, None) => return Err(serde::Error::custom("an entry without a result")),
            });
            Ok(())
        })?;
        results = Some(entries);
        Ok(())
    })?;
    r.end()?;
    results.ok_or_else(|| serde::Error::custom("no `results` array"))
}

/// The per-query outcomes of an `/analyze` response, through a `Value`
/// tree.
fn tree_results(text: &str) -> Result<Vec<Outcome>, ClientError> {
    let doc =
        json::parse(text).map_err(|e| ClientError::Protocol(format!("response body: {e}")))?;
    let entries = match doc.field("results") {
        Ok(Value::Array(entries)) => entries,
        _ => {
            return Err(ClientError::Protocol(
                "response lacks a `results` array".to_string(),
            ))
        }
    };
    entries
        .iter()
        .map(|entry| {
            if let Ok(ok) = entry.field("ok") {
                return AnalysisResult::deserialize(ok)
                    .map(Ok)
                    .map_err(|e| ClientError::Protocol(format!("result entry: {e}")));
            }
            match entry.field("err") {
                Ok(Value::String(msg)) => Ok(Err(msg.clone())),
                _ => Err(ClientError::Protocol(
                    "result entry has neither `ok` nor `err`".to_string(),
                )),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use projtile_loopnest::builders;

    #[test]
    fn request_bodies_are_the_printed_tree() {
        let nest = builders::random_projective(3, 10, 4, (1, 256));
        let queries = [
            Query::EnumeratedBound { cache_size: 64 },
            Query::Slice {
                cache_size: 64,
                axis: 9,
                lo_bound: 1,
                hi_bound: 64,
            },
        ];
        for queries in [&queries[..], &queries[..1], &[]] {
            let tree = json::to_string(&Value::Object(vec![
                ("nest".to_string(), nest.serialize()),
                (
                    "queries".to_string(),
                    Value::Array(queries.iter().map(Serialize::serialize).collect()),
                ),
            ]));
            assert_eq!(request_body(&nest, queries), tree);
        }
    }

    #[test]
    fn backoff_grows_and_honors_retry_after() {
        let client = Client::new("127.0.0.1:1");
        let b1 = client.backoff(1, "connect: refused");
        let b3 = client.backoff(3, "connect: refused");
        assert!(b3 > b1, "backoff grows: {b1:?} vs {b3:?}");
        let advised = client.backoff(1, "503 (2)");
        assert!(
            advised >= Duration::from_secs(2),
            "Retry-After floor: {advised:?}"
        );
        let capped = client.backoff(16, "connect: refused");
        assert!(
            capped <= RetryConfig::default().max_backoff * 3 / 2,
            "cap plus jitter: {capped:?}"
        );
    }

    #[test]
    fn jitter_stream_is_deterministic_per_seed() {
        let a = Client::new("x");
        let b = Client::new("x");
        for attempt in 1..5 {
            assert_eq!(a.backoff(attempt, ""), b.backoff(attempt, ""));
        }
    }
}
