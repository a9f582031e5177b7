//! Minimal HTTP/1.1 for the release server: request parsing with
//! keep-alive over `std::net::TcpStream`, response writing, and the flat
//! view of the shared JSON reader for request bodies.
//!
//! The workspace is offline-vendored (no hyper, no serde), so this layer
//! implements exactly the subset the server needs: `GET`/`POST`, header
//! parsing, bodies framed by one `Content-Length` (a repeated one or any
//! `Transfer-Encoding` is refused), persistent connections, and JSON
//! bodies that are a single flat object of string / number / boolean /
//! null values.
//!
//! The parser is written for a hostile peer: every malformed input maps
//! to a typed [`Reject`] carrying the right 4xx status (431 for oversized
//! heads or too many headers, 413 for oversized bodies, 400 for
//! everything structurally wrong) — never a panic, never an unbounded
//! buffer. Caps: 16 KiB head, 64 headers, 1 MiB body.

use dpbench_core::json::{self, Value};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD: usize = 16 << 10;
/// Largest accepted request body.
pub const MAX_BODY: usize = 1 << 20;
/// Most header lines accepted per request.
pub const MAX_HEADERS: usize = 64;

/// A request the parser refuses to serve: the status and error code the
/// connection should answer with before closing. Parsing is total — any
/// byte stream either yields requests, needs more bytes, or rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// HTTP status (400/413/431).
    pub status: u16,
    /// Stable machine-readable error code for the JSON body.
    pub code: &'static str,
    /// Human detail.
    pub detail: String,
}

impl Reject {
    fn new(status: u16, code: &'static str, detail: impl Into<String>) -> Self {
        Self {
            status,
            code,
            detail: detail.into(),
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request path (query strings are not used by this API).
    pub path: String,
    /// Headers with lowercased names.
    pub headers: HashMap<String, String>,
    /// Raw body bytes (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// True when the client asked to close the connection after this
    /// request (`Connection: close`); HTTP/1.1 defaults to keep-alive.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Try to parse one complete request from the front of `buf`, draining
/// the consumed bytes on success. `Ok(None)` means more bytes are needed
/// (and the bytes so far are within every cap); `Err` is a typed
/// [`Reject`] the connection must answer and then close on — after a
/// reject the buffer is poisoned (a hostile prefix makes every later
/// byte untrustworthy), so no resynchronization is attempted.
pub fn try_parse(buf: &mut Vec<u8>) -> Result<Option<Request>, Reject> {
    let mut scratch = Vec::new();
    try_parse_with(buf, &mut scratch)
}

/// [`try_parse`] with a caller-owned body buffer: on success the parsed
/// request's `body` takes over `scratch`'s allocation (scratch is left
/// empty); hand it back afterwards with `mem::take(&mut req.body)` so a
/// keep-alive connection reuses one body allocation across requests
/// instead of allocating per request.
pub fn try_parse_with(buf: &mut Vec<u8>, scratch: &mut Vec<u8>) -> Result<Option<Request>, Reject> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(Reject::new(
                431,
                "header_too_large",
                format!("request head exceeds {} KiB", MAX_HEAD >> 10),
            ));
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD {
        return Err(Reject::new(
            431,
            "header_too_large",
            format!("request head exceeds {} KiB", MAX_HEAD >> 10),
        ));
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| Reject::new(400, "bad_request", "non-UTF-8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p),
        _ => {
            return Err(Reject::new(
                400,
                "bad_request_line",
                format!("bad request line {request_line:?}"),
            ))
        }
    };
    // A split/continued request line ("GET /x HTTP/1.1 extra") is how
    // request-smuggling probes hide a second path; exactly three tokens
    // or nothing.
    if parts.next().is_some() {
        return Err(Reject::new(
            400,
            "bad_request_line",
            format!("trailing tokens on request line {request_line:?}"),
        ));
    }
    let mut headers = HashMap::new();
    let mut n_headers = 0_usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        n_headers += 1;
        if n_headers > MAX_HEADERS {
            return Err(Reject::new(
                431,
                "too_many_headers",
                format!("more than {MAX_HEADERS} header lines"),
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Reject::new(
                400,
                "bad_header",
                format!("bad header line {line:?}"),
            ));
        };
        // RFC 7230 §3.2.4: no whitespace between a field name and its
        // colon, and no folded line; a fold starts with SP or HTAB, so its
        // name holds whitespace too. A front proxy that reads
        // `Content-Length ` as another header, or a fold as part of the
        // previous value, frames the body differently.
        if name.contains([' ', '\t']) {
            return Err(Reject::new(
                400,
                "bad_header",
                format!("{line:?}: whitespace in a header name or a folded line"),
            ));
        }
        let name = name.to_ascii_lowercase();
        // One body framing: a single `Content-Length`. A second one, or a
        // `Transfer-Encoding`, is how request smuggling makes two parsers
        // disagree about where a body ends.
        if name == "transfer-encoding" || (name == "content-length" && headers.contains_key(&name))
        {
            return Err(Reject::new(
                400,
                "bad_content_length",
                format!("{line:?}: a body is framed by exactly one Content-Length"),
            ));
        }
        headers.insert(name, value.trim().to_string());
    }
    let content_length: usize = match headers.get("content-length") {
        None => 0,
        // Strict digits-only: `usize::parse` would accept a leading `+`,
        // and a negative/garbage length must be a clean 400 — a
        // disagreement about body length is how desync attacks start.
        Some(v) if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) => {
            return Err(Reject::new(
                400,
                "bad_content_length",
                format!("Content-Length {v:?} is not a non-negative integer"),
            ))
        }
        Some(v) => v.parse().map_err(|_| {
            Reject::new(
                400,
                "bad_content_length",
                format!("Content-Length {v:?} overflows"),
            )
        })?,
    };
    if content_length > MAX_BODY {
        return Err(Reject::new(
            413,
            "body_too_large",
            format!("request body exceeds {} MiB", MAX_BODY >> 20),
        ));
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None); // body not fully arrived yet
    }
    scratch.clear();
    scratch.extend_from_slice(&buf[body_start..body_start + content_length]);
    let body = std::mem::take(scratch);
    let req = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    };
    buf.drain(..body_start + content_length);
    Ok(Some(req))
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Serialize one complete `application/json` response (head + body) into
/// `out` without any I/O — the event-driven scheduler appends into a
/// per-connection output buffer it flushes nonblockingly, so responses
/// survive a peer that stalls mid-read. `close` sets the `Connection`
/// header; `retry_after_s` adds `Retry-After: N`, the contractual half of
/// load shedding and rate limiting (a 429/503 without a retry hint just
/// teaches clients to hammer).
pub fn write_response_into(
    out: &mut Vec<u8>,
    status: u16,
    body: &str,
    close: bool,
    retry_after_s: Option<u64>,
) {
    out.reserve(128 + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    if let Some(s) = retry_after_s {
        let _ = write!(out, "Retry-After: {s}\r\n");
    }
    out.extend_from_slice(if close {
        b"Connection: close\r\n\r\n"
    } else {
        b"Connection: keep-alive\r\n\r\n"
    });
    out.extend_from_slice(body.as_bytes());
}

/// Canonical reason phrase for the statuses this API emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

// ---------------------------------------------------------------------------
// Flat JSON object parsing (request bodies)
// ---------------------------------------------------------------------------

/// A JSON scalar — the only value kind the release API accepts (the
/// request schema is deliberately flat).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string (escapes decoded).
    Str(String),
    /// A JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }
}

/// Parse one flat JSON object (`{"k": scalar, ...}`) into a map — the
/// flat view of the shared [`json`] reader. Nested objects and arrays
/// are rejected with a clear message (the release API has no nested
/// request fields, and refusing them beats half-parsing), and a number
/// must be plain JSON digits, not a bare token like `inf`.
pub fn parse_object(s: &str) -> Result<HashMap<String, JsonValue>, String> {
    let mut map = HashMap::new();
    for (key, value) in json::Object::parse(s)?.into_fields() {
        let value = match value {
            Value::Str(s) => JsonValue::Str(s.into_owned()),
            Value::Bool(b) => JsonValue::Bool(b),
            Value::Null => JsonValue::Null,
            Value::Num(text) => {
                let digits = text
                    .bytes()
                    .all(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
                match text.parse() {
                    Ok(v) if digits => JsonValue::Num(v),
                    _ => return Err(format!("bad number {text:?}")),
                }
            }
            Value::Arr(_) | Value::Obj(_) => {
                return Err("nested objects/arrays are not accepted by this API".into())
            }
        };
        map.insert(key.into_owned(), value);
    }
    Ok(map)
}

/// One-shot HTTP client for tests, drills, and the bench binary: connect,
/// send `method path` with an optional JSON body, return (status, body).
/// Uses `Connection: close`, so every call is a fresh connection.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad response status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A persistent keep-alive HTTP/1.1 client connection for load
/// generation and tests: send any number of requests (pipelining
/// allowed — `send` never reads), then collect responses in order with
/// `recv`. Responses are framed by `Content-Length`, so leftover bytes
/// after one response stay buffered for the next.
pub struct ClientConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl ClientConn {
    /// Connect with TCP_NODELAY and a read deadline (default 30 s).
    pub fn connect(addr: &str) -> io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(ClientConn {
            stream,
            rbuf: Vec::new(),
        })
    }

    /// Write one keep-alive request; does not wait for the response.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<()> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: serve\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()
    }

    /// Block until the next in-order response arrives; returns
    /// `(status, body)`.
    pub fn recv(&mut self) -> io::Result<(u16, String)> {
        loop {
            if let Some(resp) = self.parse_buffered()? {
                return Ok(resp);
            }
            self.fill()?;
        }
    }

    /// One round trip: send, then wait for the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Read more bytes into `rbuf`; passing the read deadline is an error.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0_u8; 16 << 10];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            Ok(n) => {
                self.rbuf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Pop one complete response off the front of `rbuf`, if present.
    fn parse_buffered(&mut self) -> io::Result<Option<(u16, String)>> {
        let Some(head_end) = find_head_end(&self.rbuf) else {
            return Ok(None);
        };
        let head = String::from_utf8_lossy(&self.rbuf[..head_end]).into_owned();
        let status: u16 = head
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "bad response status line")
            })?;
        let content_length = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .unwrap_or(0);
        let total = head_end + 4 + content_length;
        if self.rbuf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8_lossy(&self.rbuf[head_end + 4..total]).into_owned();
        self.rbuf.drain(..total);
        Ok(Some((status, body)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_keepalive_requests_from_buffer() {
        let mut buf = Vec::new();
        buf.extend_from_slice(
            b"POST /v1/release HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcdGET /v1/status HTTP/1.1\r\n\r\n",
        );
        let first = try_parse(&mut buf).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/v1/release");
        assert_eq!(first.body, b"abcd");
        assert!(!first.wants_close());
        let second = try_parse(&mut buf).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/v1/status");
        assert!(second.body.is_empty());
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_request_returns_none_and_keeps_bytes() {
        let mut buf = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec();
        assert!(try_parse(&mut buf).unwrap().is_none());
        assert!(!buf.is_empty());
        buf.extend_from_slice(b"defghij");
        let req = try_parse(&mut buf).unwrap().unwrap();
        assert_eq!(req.body, b"abcdefghij");
    }

    #[test]
    fn oversized_head_is_a_431() {
        let mut buf = vec![b'A'; MAX_HEAD + 1];
        let rej = try_parse(&mut buf).unwrap_err();
        assert_eq!(rej.status, 431);
        // A complete head that is itself oversized is also refused.
        let mut buf = b"GET /x HTTP/1.1\r\n".to_vec();
        buf.extend_from_slice(&vec![b'a'; MAX_HEAD]);
        buf.extend_from_slice(b": v\r\n\r\n");
        assert_eq!(try_parse(&mut buf).unwrap_err().status, 431);
    }

    #[test]
    fn oversized_header_count_is_a_431() {
        let mut buf = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            buf.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        buf.extend_from_slice(b"\r\n");
        let rej = try_parse(&mut buf).unwrap_err();
        assert_eq!((rej.status, rej.code), (431, "too_many_headers"));
        // Exactly the cap is still fine.
        let mut buf = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS {
            buf.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        buf.extend_from_slice(b"\r\n");
        assert!(try_parse(&mut buf).unwrap().is_some());
    }

    #[test]
    fn hostile_content_length_values_are_400s() {
        for bad in [
            "-1",
            "+5",
            "4e2",
            "0x10",
            "",
            "9999999999999999999999999",
            "5\r\nContent-Length: 12",
            "2\r\nTransfer-Encoding: chunked",
        ] {
            let mut buf = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n").into_bytes();
            let rej = try_parse(&mut buf).unwrap_err();
            assert_eq!(rej.status, 400, "Content-Length {bad:?}");
            assert_eq!(rej.code, "bad_content_length", "Content-Length {bad:?}");
        }
        // Oversized (but well-formed) body length is a 413, not a 400.
        let mut buf = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        )
        .into_bytes();
        assert_eq!(try_parse(&mut buf).unwrap_err().status, 413);
    }

    #[test]
    fn whitespace_before_a_colon_or_a_folded_line_is_a_400() {
        for head in [
            "Content-Length : 5",
            "Content-Length\t: 5",
            "Content Length: 5",
            "X-A: 1\r\n folded: 5",
            "X-A: 1\r\n\tContent-Length: 5",
            " Content-Length: 5",
        ] {
            let mut buf = format!("POST /x HTTP/1.1\r\n{head}\r\n\r\nhello").into_bytes();
            let rej = try_parse(&mut buf).unwrap_err();
            assert_eq!((rej.status, rej.code), (400, "bad_header"), "{head:?}");
        }
        // Whitespace around the value is optional and still allowed.
        let mut buf = b"POST /x HTTP/1.1\r\nContent-Length:5 \r\n\r\nhello".to_vec();
        assert_eq!(try_parse(&mut buf).unwrap().unwrap().body, b"hello");
    }

    #[test]
    fn split_request_line_is_a_400() {
        for line in [
            "GET /x HTTP/1.1 HTTP/1.1",
            "GET /x HTTP/1.1 smuggled",
            "GET /x",
            "GET",
            "",
            "gar bage here",
        ] {
            let mut buf = format!("{line}\r\n\r\n").into_bytes();
            let rej = try_parse(&mut buf).unwrap_err();
            assert_eq!(rej.status, 400, "request line {line:?}");
        }
    }

    #[test]
    fn garbage_interleaved_after_a_valid_request_rejects() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GET /v1/status HTTP/1.1\r\n\r\n\x00\xff garbage\r\n\r\n");
        let first = try_parse(&mut buf).unwrap().unwrap();
        assert_eq!(first.path, "/v1/status");
        // The pipelined garbage that follows must reject, not hang or parse.
        assert!(try_parse(&mut buf).is_err());
    }

    #[test]
    fn parse_object_accepts_flat_scalars_and_whitespace() {
        let m = parse_object(
            "{\n  \"tenant\": \"alice\",\n  \"eps\": 0.25,\n  \"slo\": true,\n  \"note\": null\n}",
        )
        .unwrap();
        assert_eq!(m["tenant"].as_str(), Some("alice"));
        assert_eq!(m["eps"].as_f64(), Some(0.25));
        assert_eq!(m["slo"], JsonValue::Bool(true));
        assert_eq!(m["note"], JsonValue::Null);
    }

    #[test]
    fn parse_object_decodes_escapes() {
        let m = parse_object(r#"{"k":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(m["k"].as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn try_parse_with_recycles_the_body_allocation() {
        let mut scratch = Vec::with_capacity(4096);
        scratch.extend_from_slice(b"stale bytes from the last request");
        let cap_before = scratch.capacity();
        let mut buf = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd".to_vec();
        let mut req = try_parse_with(&mut buf, &mut scratch).unwrap().unwrap();
        assert_eq!(req.body, b"abcd", "stale scratch content must not leak");
        assert!(scratch.is_empty(), "request took over the scratch buffer");
        // The serve loop hands the allocation back for the next request.
        scratch = std::mem::take(&mut req.body);
        assert_eq!(scratch.capacity(), cap_before, "allocation is recycled");
    }

    #[test]
    fn parse_object_rejects_nesting_and_trailing_garbage() {
        assert!(parse_object(r#"{"k":{"x":1}}"#).is_err());
        assert!(parse_object(r#"{"k":[1]}"#).is_err());
        assert!(parse_object(r#"{"k":1} extra"#).is_err());
        assert!(parse_object(r#"{"k":}"#).is_err());
        for bare in ["inf", "NaN", "tru", "nullx", "1x"] {
            let body = format!("{{\"k\":{bare}}}");
            assert!(parse_object(&body).is_err(), "accepted {body}");
        }
    }
}
