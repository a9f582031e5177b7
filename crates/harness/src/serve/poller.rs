//! Readiness shim for the release server: a raw `epoll(7)` binding plus
//! the [`TimerWheel`] that makes deadline reaping exact instead of
//! cadence-quantized.
//!
//! The workspace vendors no libc crate, so — in the style of
//! `shutdown.rs`'s `signal(2)` binding — the syscalls are bound directly
//! with `extern "C"` declarations against the platform libc that std
//! already links. No new dependencies. epoll is Linux-only, and Linux is
//! the only target the server is built and tested on: elsewhere
//! [`Poller::new`] returns `ErrorKind::Unsupported`, so `dpbench serve`
//! refuses to start.
//!
//! ## Semantics
//!
//! Registrations are **one-shot**: an fd armed with [`Poller::register`]
//! or [`Poller::rearm`] delivers at most one event and is then disarmed
//! until re-armed. That is what makes a single poller safe to `wait` on
//! from many worker threads at once — the kernel hands each readiness
//! event to exactly one waiter, so two workers can never service the
//! same connection concurrently. Events may be *spurious* (readiness
//! that yields zero bytes); callers must tolerate `WouldBlock`.
//!
//! Every wakeup, dispatched event, spurious wakeup, and timer fire is
//! counted ([`Poller::stats`]) and exposed in `/v1/status` under
//! `"poller"` so a saturation run is explainable from the status
//! endpoint.

use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Token reserved for the poller's internal wake pipe; user tokens must
/// stay below it.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Read/write interest for one registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
}

/// One readiness event, tagged with the registration's token.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (includes hangup/error — a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// Monotonic counters, snapshot via [`Poller::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PollerStats {
    /// `wait` calls that returned (with or without events).
    pub wakeups: u64,
    /// Events handed to workers.
    pub events: u64,
    /// Wakeups that carried no events and fired no timers.
    pub spurious: u64,
    /// Timer-wheel entries that came due and were acted on.
    pub timer_fires: u64,
    /// Currently registered fds.
    pub registered: u64,
}

#[derive(Default)]
struct Counters {
    wakeups: AtomicU64,
    events: AtomicU64,
    spurious: AtomicU64,
    timer_fires: AtomicU64,
    registered: AtomicU64,
}

/// The readiness poller — one epoll instance: register nonblocking fds
/// under tokens, then `wait` from any number of worker threads.
pub struct Poller {
    epoll: epoll::Epoll,
    counters: Counters,
}

impl Poller {
    /// Open the epoll instance and its wake pipe. Off Linux this is an
    /// `Unsupported` error.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epoll: epoll::Epoll::new()?,
            counters: Counters::default(),
        })
    }

    /// Register `fd` under `token` with one-shot `interest`. The token
    /// must be unique among live registrations and below [`WAKE_TOKEN`].
    pub fn register(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert!(token < WAKE_TOKEN);
        self.epoll.register(fd, token, interest)?;
        self.counters.registered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Re-arm an existing registration (after its one-shot fired).
    pub fn rearm(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.rearm(fd, token, interest)
    }

    /// Remove a registration entirely (before closing the fd).
    pub fn deregister(&self, fd: i32) {
        if self.epoll.deregister(fd) {
            self.counters.registered.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Block until readiness, `timeout`, or a [`Poller::wake`]. Appends
    /// events to `out` (which the caller should clear first). Multiple
    /// threads may wait concurrently; each event goes to exactly one.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        let before = out.len();
        let r = self.epoll.wait(out, timeout);
        self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
        let n = (out.len() - before) as u64;
        if n > 0 {
            self.counters.events.fetch_add(n, Ordering::Relaxed);
        }
        r
    }

    /// Interrupt one in-flight `wait` (the shutdown path).
    pub fn wake(&self) {
        self.epoll.wake();
    }

    /// Record a wakeup that carried no events and fired no timers.
    pub fn note_spurious(&self) {
        self.counters.spurious.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` timer-wheel entries coming due.
    pub fn note_timer_fires(&self, n: u64) {
        self.counters.timer_fires.fetch_add(n, Ordering::Relaxed);
    }

    /// Counter snapshot for `/v1/status`.
    pub fn stats(&self) -> PollerStats {
        PollerStats {
            wakeups: self.counters.wakeups.load(Ordering::Relaxed),
            events: self.counters.events.load(Ordering::Relaxed),
            spurious: self.counters.spurious.load(Ordering::Relaxed),
            timer_fires: self.counters.timer_fires.load(Ordering::Relaxed),
            registered: self.counters.registered.load(Ordering::Relaxed),
        }
    }
}

/// Clamp a `Duration` to a nonzero poll-style millisecond timeout
/// (rounding a sub-millisecond wait *up* so a 0 never busy-spins).
#[cfg(target_os = "linux")]
fn timeout_ms(timeout: Duration) -> i32 {
    if timeout.is_zero() {
        return 0;
    }
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    ms.max(1)
}

// ---------------------------------------------------------------------------
// The self-pipe used to interrupt a blocked wait.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod pipe {
    use std::io;

    const O_NONBLOCK: i32 = 0o4000;
    const O_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// A nonblocking, close-on-exec self-pipe: `notify` makes the read
    /// end readable.
    pub struct WakePipe {
        pub r: i32,
        pub w: i32,
    }

    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            let mut fds = [0_i32; 2];
            // SAFETY: `fds` is a writable array of the two ints pipe2(2)
            // fills in.
            if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(WakePipe {
                r: fds[0],
                w: fds[1],
            })
        }

        pub fn notify(&self) {
            let byte = 1_u8;
            // A full pipe already guarantees the next wait wakes.
            let _ = unsafe { write(self.w, &byte, 1) };
        }

        /// Drain pending wake bytes (called when the wake token fires so
        /// stale wakes don't spin).
        pub fn drain(&self) {
            let mut sink = [0_u8; 64];
            while unsafe { read(self.r, sink.as_mut_ptr(), sink.len()) } > 0 {}
        }
    }

    impl Drop for WakePipe {
        fn drop(&mut self) {
            unsafe {
                close(self.r);
                close(self.w);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// epoll binding (Linux)
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll {
    use super::pipe::WakePipe;
    use super::{timeout_ms, Event, Interest, WAKE_TOKEN};
    use std::io;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const MAX_EVENTS: usize = 64;

    /// `struct epoll_event` — packed on x86_64 (kernel ABI), natural
    /// alignment elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP | EPOLLONESHOT;
        if interest.read {
            bits |= EPOLLIN;
        }
        if interest.write {
            bits |= EPOLLOUT;
        }
        bits
    }

    fn ctl(epfd: i32, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        if unsafe { epoll_ctl(epfd, op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub struct Epoll {
        epfd: i32,
        pub wake: WakePipe,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let wake = WakePipe::new()?;
            // The wake pipe is level-triggered and NOT one-shot: a wake
            // byte keeps firing until drained at the top of a wait.
            ctl(epfd, EPOLL_CTL_ADD, wake.r, EPOLLIN, WAKE_TOKEN)?;
            Ok(Epoll { epfd, wake })
        }

        pub fn register(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            ctl(self.epfd, EPOLL_CTL_ADD, fd, interest_bits(interest), token)
        }

        pub fn rearm(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            ctl(self.epfd, EPOLL_CTL_MOD, fd, interest_bits(interest), token)
        }

        pub fn deregister(&self, fd: i32) -> bool {
            ctl(self.epfd, EPOLL_CTL_DEL, fd, 0, 0).is_ok()
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    MAX_EVENTS as i32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // counted as a (spurious) wakeup
                }
                return Err(e);
            }
            for ev in events.iter().take(n as usize) {
                let (bits, token) = (ev.events, ev.data);
                if token == WAKE_TOKEN {
                    self.wake.drain();
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }

        pub fn wake(&self) {
            self.wake.notify();
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

/// No epoll off Linux: `new` refuses, so no value of this type exists
/// and the other methods are statically unreachable.
#[cfg(not(target_os = "linux"))]
mod epoll {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    pub enum Epoll {}

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "dpbench serve needs Linux epoll(7)",
            ))
        }

        pub fn register(&self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            match *self {}
        }

        pub fn rearm(&self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            match *self {}
        }

        pub fn deregister(&self, _fd: i32) -> bool {
            match *self {}
        }

        pub fn wait(&self, _out: &mut Vec<Event>, _timeout: Duration) -> io::Result<()> {
            match *self {}
        }

        pub fn wake(&self) {
            match *self {}
        }
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// Deadline timers keyed by token: arm on park, cancel on take, pop the
/// due set after each poller wakeup. Re-arming a token supersedes its
/// previous deadline; cancellation is O(1) with stale heap entries
/// dropped lazily. `next_deadline` is what makes reaping *exact*: the
/// worker's wait timeout is the distance to the earliest live deadline,
/// not a fixed cadence.
pub struct TimerWheel {
    inner: Mutex<WheelInner>,
}

struct WheelInner {
    /// Min-heap of (deadline, token, gen); entries whose gen no longer
    /// matches `live[token]` are stale and skipped.
    heap: BinaryHeap<std::cmp::Reverse<(Instant, u64, u64)>>,
    /// The currently-armed generation per token.
    live: HashMap<u64, u64>,
    next_gen: u64,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> TimerWheel {
        TimerWheel {
            inner: Mutex::new(WheelInner {
                heap: BinaryHeap::new(),
                live: HashMap::new(),
                next_gen: 0,
            }),
        }
    }

    /// Arm (or re-arm) `token` to fire at `at`. Any previous deadline
    /// for the token is superseded.
    pub fn arm(&self, token: u64, at: Instant) {
        let mut w = self.inner.lock().expect("timer wheel poisoned");
        w.next_gen += 1;
        let gen = w.next_gen;
        w.live.insert(token, gen);
        w.heap.push(std::cmp::Reverse((at, token, gen)));
    }

    /// Cancel `token`'s pending deadline (no-op if none).
    pub fn cancel(&self, token: u64) {
        self.inner
            .lock()
            .expect("timer wheel poisoned")
            .live
            .remove(&token);
    }

    /// The earliest live deadline, if any (stale entries pruned).
    pub fn next_deadline(&self) -> Option<Instant> {
        let mut w = self.inner.lock().expect("timer wheel poisoned");
        loop {
            let &std::cmp::Reverse((at, token, gen)) = w.heap.peek()?;
            if w.live.get(&token) == Some(&gen) {
                return Some(at);
            }
            w.heap.pop();
        }
    }

    /// Pop every token whose deadline is `<= now` into `out`, earliest
    /// first. Fired tokens are disarmed (re-arm to keep watching).
    pub fn pop_due(&self, now: Instant, out: &mut Vec<u64>) {
        let mut w = self.inner.lock().expect("timer wheel poisoned");
        while let Some(&std::cmp::Reverse((at, token, gen))) = w.heap.peek() {
            if w.live.get(&token) != Some(&gen) {
                w.heap.pop();
                continue;
            }
            if at > now {
                break;
            }
            w.heap.pop();
            w.live.remove(&token);
            out.push(token);
        }
    }

    /// Number of live (non-stale) timers.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("timer wheel poisoned").live.len()
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn timers_fire_in_expiry_order() {
        let wheel = TimerWheel::new();
        let base = Instant::now();
        wheel.arm(3, t(base, 30));
        wheel.arm(1, t(base, 10));
        wheel.arm(2, t(base, 20));
        assert_eq!(wheel.next_deadline(), Some(t(base, 10)));
        let mut due = Vec::new();
        wheel.pop_due(t(base, 25), &mut due);
        assert_eq!(due, vec![1, 2], "earliest first, only the due ones");
        assert_eq!(wheel.next_deadline(), Some(t(base, 30)));
        wheel.pop_due(t(base, 30), &mut due);
        assert_eq!(due, vec![1, 2, 3]);
        assert!(wheel.is_empty());
        assert_eq!(wheel.next_deadline(), None);
    }

    #[test]
    fn rearm_supersedes_the_previous_deadline() {
        let wheel = TimerWheel::new();
        let base = Instant::now();
        wheel.arm(7, t(base, 10));
        wheel.arm(7, t(base, 50)); // pushed out: the 10 ms entry is stale
        let mut due = Vec::new();
        wheel.pop_due(t(base, 20), &mut due);
        assert!(due.is_empty(), "superseded deadline must not fire");
        assert_eq!(wheel.next_deadline(), Some(t(base, 50)));
        wheel.pop_due(t(base, 50), &mut due);
        assert_eq!(due, vec![7], "fires exactly once at the new deadline");

        // Re-arm to an *earlier* instant also wins.
        wheel.arm(7, t(base, 100));
        wheel.arm(7, t(base, 60));
        assert_eq!(wheel.next_deadline(), Some(t(base, 60)));
    }

    #[test]
    fn cancellation_on_close_drops_the_timer() {
        let wheel = TimerWheel::new();
        let base = Instant::now();
        wheel.arm(1, t(base, 10));
        wheel.arm(2, t(base, 15));
        wheel.cancel(1);
        assert_eq!(wheel.len(), 1);
        assert_eq!(
            wheel.next_deadline(),
            Some(t(base, 15)),
            "stale head is pruned"
        );
        let mut due = Vec::new();
        wheel.pop_due(t(base, 60), &mut due);
        assert_eq!(due, vec![2], "cancelled token never fires");
        // Cancelling an unknown token is a no-op.
        wheel.cancel(99);
    }

    #[test]
    fn fired_timers_disarm_until_rearmed() {
        let wheel = TimerWheel::new();
        let base = Instant::now();
        wheel.arm(5, t(base, 5));
        let mut due = Vec::new();
        wheel.pop_due(t(base, 10), &mut due);
        assert_eq!(due, vec![5]);
        due.clear();
        wheel.pop_due(t(base, 1000), &mut due);
        assert!(due.is_empty(), "a fired timer stays quiet until re-armed");
        wheel.arm(5, t(base, 20));
        wheel.pop_due(t(base, 25), &mut due);
        assert_eq!(due, vec![5]);
    }

    /// The poller actually delivers readiness for a real socket pair.
    #[cfg(target_os = "linux")]
    #[test]
    fn delivers_readiness_for_a_socketpair() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .register(server_side.as_raw_fd(), 42, Interest::READ)
            .unwrap();
        assert_eq!(poller.stats().registered, 1);

        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = false;
        while Instant::now() < deadline && !got {
            events.clear();
            poller
                .wait(&mut events, Duration::from_millis(100))
                .unwrap();
            for ev in &events {
                if ev.token == 42 {
                    assert!(ev.readable);
                    got = true;
                }
            }
        }
        assert!(got, "epoll never delivered readiness");
        poller.deregister(server_side.as_raw_fd());
        assert_eq!(poller.stats().registered, 0);
        assert!(poller.stats().wakeups >= 1);
    }

    /// `wake` interrupts a blocked wait promptly (the shutdown path).
    #[cfg(target_os = "linux")]
    #[test]
    fn wake_interrupts_a_blocked_wait() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let p2 = std::sync::Arc::clone(&poller);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            p2.wake();
        });
        let t0 = Instant::now();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(10)).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "wake did not interrupt the wait"
        );
        waker.join().unwrap();
    }

    /// Both wake-pipe ends carry the flags the listener and the epoll fd
    /// already have: nonblocking, so a full pipe never stalls `wake`, and
    /// close-on-exec, so the pipe never leaks into a child process an
    /// embedding program spawns.
    #[cfg(target_os = "linux")]
    #[test]
    fn wake_pipe_is_nonblocking_and_close_on_exec() {
        const F_GETFD: i32 = 1;
        const F_GETFL: i32 = 3;
        const FD_CLOEXEC: i32 = 1;
        const O_NONBLOCK: i32 = 0o4000;
        extern "C" {
            fn fcntl(fd: i32, cmd: i32, ...) -> i32;
        }
        let poller = Poller::new().unwrap();
        let pipe = &poller.epoll.wake;
        for fd in [pipe.r, pipe.w] {
            // SAFETY: F_GETFD and F_GETFL take no third argument and
            // only read the descriptor's flags.
            let (fd_flags, status_flags) = unsafe { (fcntl(fd, F_GETFD), fcntl(fd, F_GETFL)) };
            assert!(
                fd_flags >= 0 && status_flags >= 0,
                "fcntl failed on fd {fd}"
            );
            assert!(fd_flags & FD_CLOEXEC != 0, "fd {fd} not close-on-exec");
            assert!(status_flags & O_NONBLOCK != 0, "fd {fd} not nonblocking");
        }
    }
}
