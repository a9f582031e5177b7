//! Open-loop HTTP load generator: one thread, a few keep-alive
//! connections, Poisson arrivals from the seed.
//!
//! Requests are sent at their scheduled times whatever the server is
//! doing, and each latency is timed from the scheduled send time, so a
//! stall is charged to every request it delays. When every connection
//! has a request in flight, the next one is pipelined onto the
//! least-loaded connection. How late the generator itself ran (the lag
//! between a request's scheduled and actual send) is recorded, so a
//! phase where the generator fell behind can be discarded instead of
//! reported as server latency.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn syscall(num: i64, ...) -> i64;
}

/// `struct sched_attr` (`SCHED_ATTR_SIZE_VER1`).
#[repr(C)]
struct SchedAttr {
    size: u32,
    policy: u32,
    flags: u64,
    nice: i32,
    priority: u32,
    runtime: u64,
    deadline: u64,
    period: u64,
    util_min: u32,
    util_max: u32,
}

#[cfg(target_arch = "x86_64")]
const SYS_SCHED_SETATTR: i64 = 314;
#[cfg(target_arch = "aarch64")]
const SYS_SCHED_SETATTR: i64 = 274;

/// Make the calling thread wake on time: a 1 ns timer slack and, where
/// the kernel supports custom time slices for normal tasks, the shortest
/// slice, so a due send preempts a busy server thread instead of waiting
/// out its slice. Changes no priority or CPU share. Returns what took
/// effect.
pub fn prompt_wakeups() -> String {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes plain integers and affects only
    // the calling thread.
    let slack = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) } == 0;
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    let slice = {
        let attr = SchedAttr {
            size: std::mem::size_of::<SchedAttr>() as u32,
            policy: 0,
            flags: 0,
            nice: 0,
            priority: 0,
            runtime: 100_000,
            deadline: 0,
            period: 0,
            util_min: 0,
            util_max: 0,
        };
        // SAFETY: `attr` is a valid, initialized `struct sched_attr`
        // whose `size` field names its length; pid 0 is this thread.
        unsafe { syscall(SYS_SCHED_SETATTR, 0i64, &attr as *const SchedAttr, 0u64) == 0 }
    };
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let slice = false;
    format!("timer slack 1ns: {slack}, 100us slice: {slice}")
}

/// Wait until a socket is ready or `timeout` passes (nanosecond
/// resolution, unlike `poll(2)`'s milliseconds).
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `PollFd`
    // (layout-compatible with `struct pollfd`) whose length is passed as
    // `nfds`; `ts` outlives the call; a null sigmask leaves the signal
    // mask unchanged.
    unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `POST /v1/release` spending `eps`.
    Release { eps: f64 },
    /// `GET /v1/tenants/:id/budget`.
    Read,
    /// `GET /v1/status`.
    Status,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Seconds after the phase starts.
    pub at: f64,
    pub kind: Kind,
    /// The whole HTTP/1.1 request.
    pub bytes: Vec<u8>,
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    Status(u16),
    Body(String),
    Timeout,
    Connection,
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: Kind,
    /// Latency from the scheduled send time, ms.
    pub latency_ms: f64,
    /// Latency from the actual send time, ms.
    pub service_ms: f64,
    /// The handler time a release response reports, ms.
    pub handler_ms: Option<f64>,
    pub failure: Option<Failure>,
}

/// Everything one phase measured.
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Scheduled-to-actual send delay of every request, ms.
    pub lags_ms: Vec<f64>,
    /// Share of the phase the generator spent working rather than
    /// waiting for sockets or the clock.
    pub busy_frac: f64,
    pub offered_rps: f64,
    pub achieved_rps: f64,
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Start of the unparsed bytes in `rbuf`; parsed responses are
    /// dropped from the front once per fill instead of once each.
    rpos: usize,
    inflight: VecDeque<(usize, Instant)>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            rpos: 0,
            inflight: VecDeque::new(),
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read what has arrived; `Err` when the peer closed or failed.
    fn fill(&mut self) -> io::Result<()> {
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
        let mut chunk = [0u8; 64 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Split one complete response off the read buffer: (status, body).
    fn next_response(&mut self) -> Option<(u16, Vec<u8>)> {
        let buf = &self.rbuf[self.rpos..];
        let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
        let head = std::str::from_utf8(&buf[..head_end]).ok()?;
        let status = head.split_ascii_whitespace().nth(1)?.parse().ok()?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        let end = head_end + 4 + len;
        if buf.len() < end {
            return None;
        }
        let body = buf[head_end + 4..end].to_vec();
        self.rpos += end;
        Some((status, body))
    }
}

/// Judges a 200 body, returning the handler time it reports, if any.
pub type BodyCheck = dyn Fn(&Req, &[u8]) -> Result<Option<f64>, String>;

/// A pool of at most `n` keep-alive connections, reused across phases.
pub struct Pool {
    addr: String,
    conns: Vec<Conn>,
}

impl Pool {
    pub fn connect(addr: &str, n: usize) -> io::Result<Pool> {
        let conns = (0..n.max(1))
            .map(|_| Conn::open(addr))
            .collect::<io::Result<_>>()?;
        Ok(Pool {
            addr: addr.to_string(),
            conns,
        })
    }

    /// Send `reqs` on schedule and collect every response. `check` judges
    /// a 200 body and returns the handler time it reports, if any.
    /// Requests unanswered `timeout` after the last scheduled send fail.
    pub fn run(&mut self, reqs: &[Req], timeout: Duration, check: &BodyCheck) -> io::Result<Phase> {
        let start = Instant::now() + Duration::from_millis(2);
        let due = |r: &Req| start + Duration::from_secs_f64(r.at);
        let mut samples: Vec<Option<Sample>> = vec![None; reqs.len()];
        let mut lags_ms = Vec::with_capacity(reqs.len());
        let mut busy = Duration::ZERO;
        let mut last_recv = start;
        let mut next = 0usize;
        let last_due = reqs.last().map_or(start, due);
        let deadline = last_due + timeout;
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.conns.len());
        let mut answered: Vec<(usize, Instant, Instant, u16, Vec<u8>)> = Vec::new();
        loop {
            let woke = Instant::now();
            send_due(&mut self.conns, reqs, &mut next, &due, &mut lags_ms);
            for i in 0..self.conns.len() {
                let conn = &mut self.conns[i];
                let alive = conn.fill();
                let now = Instant::now();
                while let Some((status, body)) = conn.next_response() {
                    let Some((idx, sent)) = conn.inflight.pop_front() else {
                        break;
                    };
                    answered.push((idx, sent, now, status, body));
                }
                if alive.is_err() {
                    // The server dropped the connection: everything in
                    // flight on it failed; carry on over a fresh one.
                    for (idx, _) in conn.inflight.drain(..) {
                        samples[idx] = Some(failed(&reqs[idx], Failure::Connection));
                    }
                    self.conns[i] = Conn::open(&self.addr)?;
                }
            }
            // Judge the answers, sending anything that fell due meanwhile
            // first: checking bodies must not make the generator late.
            for (idx, sent, recv, status, body) in answered.drain(..) {
                send_due(&mut self.conns, reqs, &mut next, &due, &mut lags_ms);
                last_recv = last_recv.max(recv);
                let req = &reqs[idx];
                let (handler_ms, failure) = if status != 200 {
                    (None, Some(Failure::Status(status)))
                } else {
                    match check(req, &body) {
                        Ok(h) => (h, None),
                        Err(e) => (None, Some(Failure::Body(e))),
                    }
                };
                samples[idx] = Some(Sample {
                    kind: req.kind,
                    latency_ms: (recv - due(req)).as_secs_f64() * 1e3,
                    service_ms: (recv - sent).as_secs_f64() * 1e3,
                    handler_ms,
                    failure,
                });
            }
            let now = Instant::now();
            busy += now - woke;
            let idle = self.conns.iter().all(|c| c.inflight.is_empty());
            if next == reqs.len() && idle {
                break;
            }
            if now >= deadline {
                for conn in &mut self.conns {
                    for (idx, _) in conn.inflight.drain(..) {
                        samples[idx] = Some(failed(&reqs[idx], Failure::Timeout));
                    }
                    // A connection with unanswered requests cannot be
                    // reused: their late responses would be misattributed.
                    *conn = Conn::open(&self.addr)?;
                }
                break;
            }
            let until = if next < reqs.len() {
                due(&reqs[next])
            } else {
                deadline
            };
            fds.clear();
            fds.extend(self.conns.iter().map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.wbuf.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            }));
            wait(&mut fds, until.saturating_duration_since(Instant::now()));
        }
        let span = (last_due - start).as_secs_f64().max(1e-9);
        let wall = (last_recv.max(last_due) - start).as_secs_f64().max(1e-9);
        Ok(Phase {
            samples: samples
                .into_iter()
                .map(|s| s.expect("every request settled"))
                .collect(),
            lags_ms,
            busy_frac: busy.as_secs_f64() / wall,
            offered_rps: reqs.len() as f64 / span,
            achieved_rps: reqs.len() as f64 / wall,
        })
    }
}

/// Enqueue and write every request that is due, on the least-loaded
/// connection.
fn send_due(
    conns: &mut [Conn],
    reqs: &[Req],
    next: &mut usize,
    due: &dyn Fn(&Req) -> Instant,
    lags_ms: &mut Vec<f64>,
) {
    let now = Instant::now();
    while *next < reqs.len() && due(&reqs[*next]) <= now {
        let conn = conns
            .iter_mut()
            .min_by_key(|c| c.inflight.len())
            .expect("at least one connection");
        conn.wbuf.extend_from_slice(&reqs[*next].bytes);
        // A write error surfaces as a failed read on the next fill.
        let _ = conn.flush();
        let sent = Instant::now();
        lags_ms.push((sent - due(&reqs[*next])).as_secs_f64() * 1e3);
        conn.inflight.push_back((*next, sent));
        *next += 1;
    }
}

fn failed(req: &Req, failure: Failure) -> Sample {
    Sample {
        kind: req.kind,
        latency_ms: f64::INFINITY,
        service_ms: f64::INFINITY,
        handler_ms: None,
        failure: Some(failure),
    }
}

/// True when `b` is one syntactically valid JSON value.
pub fn valid_json(b: &[u8]) -> bool {
    let mut i = 0;
    let ok = value(b, &mut i);
    skip_ws(b, &mut i);
    ok && i == b.len()
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\n' | b'\r' | b'\t') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> bool {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => seq(b, i, b'}', true),
        Some(b'[') => seq(b, i, b']', false),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, i),
        _ => false,
    }
}

/// An object (`keyed`) or array body after its opening bracket.
fn seq(b: &[u8], i: &mut usize, close: u8, keyed: bool) -> bool {
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&close) {
        *i += 1;
        return true;
    }
    loop {
        if keyed {
            skip_ws(b, i);
            if !string(b, i) {
                return false;
            }
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return false;
            }
            *i += 1;
        }
        if !value(b, i) {
            return false;
        }
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(c) if *c == close => {
                *i += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> bool {
    if b.get(*i) != Some(&b'"') {
        return false;
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return true;
            }
            b'\\' => *i += if b.get(*i + 1) == Some(&b'u') { 6 } else { 2 },
            c if c < 0x20 => return false,
            _ => *i += 1,
        }
    }
    false
}

fn literal(b: &[u8], i: &mut usize, word: &[u8]) -> bool {
    let ok = b[*i..].starts_with(word);
    *i += word.len();
    ok
}

fn number(b: &[u8], i: &mut usize) -> bool {
    let digits = |i: &mut usize| {
        let s = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > s
    };
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    if !digits(i) {
        return false;
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(i) {
            return false;
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        return digits(i);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_validator_accepts_and_rejects() {
        for ok in [
            r#"{"a":1,"b":[1.5,-2e3,true,null],"c":{"d":"x\"y"}}"#,
            "[]",
            "{}",
            " 0 ",
        ] {
            assert!(valid_json(ok.as_bytes()), "{ok}");
        }
        for bad in [
            r#"{"a":1,}"#,
            "[1 2]",
            r#"{"a"}"#,
            "01x",
            "",
            r#"{"a":tru}"#,
            "[1,",
        ] {
            assert!(!valid_json(bad.as_bytes()), "{bad}");
        }
    }
}
