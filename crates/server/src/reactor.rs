//! The event-driven TCP front-end: nonblocking sockets multiplexed by a
//! pluggable readiness backend (`poll(2)` everywhere, edge-triggered
//! `epoll(7)` on Linux), request pipelining with strict per-connection
//! response order, and a fixed executor pool running queries
//! (DESIGN.md §13–14).
//!
//! ## Shape
//!
//! One reactor thread owns every socket. It accepts, reads, frames
//! (text lines and binary frames interleave freely — see
//! `FrameBuf`), and dispatches: control requests (`PING`, `STATS`,
//! `DEADLINE`…) are answered inline; query and `BATCH` requests become
//! jobs on a [`Condvar`] queue drained by `executors` worker threads,
//! each calling [`BatchEngine::run_with`] and serializing the responses
//! off the reactor thread. Completions return through a mutex-guarded
//! vector plus a one-byte doorbell on a [`UnixStream::pair`], so a
//! sleeping wait learns of finished work immediately.
//!
//! The exception is a cheap lone query. The hand-off above (a `Condvar`
//! wake, the doorbell, two context switches) costs more than an n = 1
//! k-n-match answer, so the reactor keeps a fixed table of each query
//! *shape*'s measured engine time (kind, k, n or n0/n1, ε, `PLANNER`
//! mode) and runs a single-query job itself when its shape's average is
//! below `INLINE_BELOW`, through the same `run_job` the executors
//! call. `BATCH` and maintenance jobs, shapes never measured, and shapes
//! measured at or above the line always hand off, and at most
//! `INLINE_PER_ITERATION` of engine time runs inline per loop
//! iteration, so expensive work keeps the executor pool's parallelism
//! and a flood of cheap queries still reaches it.
//!
//! ## Backends
//!
//! `Poller` hides the readiness mechanism behind one event-shaped
//! API. The `poll(2)` backend keeps its fd array **incrementally** —
//! connections register once and only interest changes touch the set —
//! and is the portable correctness oracle. The Linux `epoll` backend
//! registers each fd once, edge-triggered (`EPOLLIN | EPOLLOUT |
//! EPOLLRDHUP | EPOLLET`), so interest never changes after registration
//! and each iteration costs O(ready), not O(connections). Every event
//! carries a slab token (`index << 32 | generation`); a recycled slot
//! fails the generation check, so stale events never touch a new
//! connection. Answers are bit-identical across backends by
//! construction: the same encode path fills the same frames, and the
//! `SlotQueue` releases them in the same order.
//!
//! ## Write path
//!
//! Responses are encoded **once**, by the executor (or inline for
//! control responses), into pooled reference-counted frames
//! (`FrameRc`). The reactor never copies response bytes again: ready
//! frames move from the `SlotQueue` into the connection's outgoing
//! frame queue and are flushed with `writev`, up to `sys::MAX_IOV`
//! frames per call, resuming mid-frame after partial writes
//! (`advance_written`). Closed connections hand their frames and read
//! buffers back to the server-wide `BufferPool`, so steady-state
//! connection churn allocates nothing on this path.
//!
//! ## Ordering guarantee
//!
//! Every request occupies one `SlotQueue` slot in arrival order, and
//! bytes leave strictly from the head — a pipelined client gets its
//! responses in exactly the order it sent requests, even when the
//! executor pool finishes them out of order or the reactor answers a
//! later one inline. `DEADLINE`/`FAILFAST`/
//! `PLANNER` are applied at parse time, so each pipelined batch runs
//! under the options that preceded it in the stream.
//!
//! ## Drain
//!
//! [`ShutdownHandle::shutdown`] flips the flag and pokes the listener
//! with a loopback connect; the listener becomes readable and the wait
//! returns immediately — no timeout rounds. The reactor then stops
//! accepting and parsing, appends one `ERR shutdown` slot behind each
//! connection's in-flight requests (one shared farewell frame per
//! encoding — the refcounted pool's cheapest trick), flushes, and
//! closes. Drain latency on idle connections is a handful of wakeups,
//! not timeout rounds (the graceful-drain test budgets 10ms). While
//! draining, every live connection is serviced each iteration —
//! O(ready) would skip write-blocked peers whose flush-grace expiry
//! must still be evaluated.

use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use knmatch_core::{
    BatchEngine, BatchOptions, BatchOutcome, BatchQuery, KnMatchError, PlannerMode, VersionWriter,
};

use crate::conn::{advance_written, BufferPool, FrameBuf, FrameRc, InFrame, SlotQueue, Wire};
use crate::fault::{FaultInjector, FaultTransport, WriteFault};
use crate::protocol::{
    batch_frame_count, batch_limit_message, decode_request_frame, encode_response_frame,
    encode_response_line, error_response, immutable_engine_error, parse_query, parse_request,
    with_retry_after, BinRequest, ErrorKind, ReactorKind, Request, Response, ServerExtras,
    StatsReport, StatsSnapshot, BATCH_FRAME, MAX_BATCH, MAX_FRAME, MAX_LINE, QUERY_FRAME,
};
use crate::server::{ReactorChoice, ServerConfig, Shared, ShutdownHandle};

/// Most requests one connection may have in flight (slots occupied,
/// responses unwritten) before the reactor stops reading from it —
/// pipelining backpressure, not an error.
pub const MAX_PIPELINE: usize = 1024;

/// After this much drain time, a connection whose responses are all
/// ready but unflushable (peer stopped reading) is closed anyway.
/// Connections with queries still executing are always waited for.
const DRAIN_FLUSH_GRACE: Duration = Duration::from_secs(2);

/// The wait used when nothing has a deadline: one wakeup an hour is
/// close enough to "sleep forever" while keeping the millisecond
/// conversion comfortably in `poll`'s `i32` range. Every state change
/// that matters arrives as an event — completions ring the waker,
/// shutdown pokes the listener, peers make sockets readable — so an
/// idle reactor genuinely sleeps instead of ticking.
const WAIT_FOREVER: Duration = Duration::from_secs(3600);

/// A lone query whose shape's measured engine time averages below this
/// runs on the reactor thread instead of paying the executor hand-off.
/// Traced on a 2-vCPU VM: the benchmark's `lowcost` n = 1 query
/// executes in 4.5–10.3 µs and the hand-off adds 12–15 µs to its round
/// trip, while the workloads that should keep the executors execute in
/// 34–55 µs (`ingest-mixed`), 84–103 µs (`disk-smallpool`) and 427–529
/// µs mean (`plan-mixed`). DESIGN.md §13.
const INLINE_BELOW: Duration = Duration::from_micros(20);

/// Most engine time one reactor loop iteration spends on inline queries
/// (at least a 32-deep window of 8 µs answers). Past it, cheap queries
/// hand off for the rest of the iteration, so a flood over many
/// connections still reaches the executors and other sockets keep being
/// serviced.
const INLINE_PER_ITERATION: Duration = Duration::from_millis(1);

/// Slots of the reactor's shape-cost table.
const SHAPE_SLOTS: usize = 64;

/// The thinnest possible `poll(2)` / `writev(2)` binding. The workspace
/// links no external crates, but std already links the platform C
/// library on every unix target, so declaring the symbols we need is
/// fine — this module and [`epoll`] are the only `unsafe` in the crate,
/// each kept to single syscalls behind safe slice-in/slice-out wrappers.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// Readable (or: a connection is ready to accept).
    pub const POLLIN: i16 = 0x001;
    /// Writable without blocking.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition (always reported; never requested).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (always reported; never requested).
    pub const POLLHUP: i16 = 0x010;
    /// Invalid fd (always reported; never requested).
    pub const POLLNVAL: i16 = 0x020;

    /// Most frames one `writev` call gathers. Comfortably under every
    /// platform's `IOV_MAX` (≥ 1024), and enough that a deep pipeline
    /// still flushes in a handful of syscalls.
    pub const MAX_IOV: usize = 64;

    /// `struct pollfd` — identical layout on every unix libc.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        /// The fd to watch.
        pub fd: RawFd,
        /// Requested events.
        pub events: i16,
        /// Kernel-reported events.
        pub revents: i16,
    }

    /// `struct iovec` — `writev`'s gather descriptor. The C field is a
    /// `void *`, but a const pointer has the same layout and `writev`
    /// only reads.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct IoVec {
        base: *const u8,
        len: usize,
    }

    /// `nfds_t`: `unsigned long` on linux libcs, `unsigned int` on the
    /// BSD family.
    #[cfg(any(target_os = "macos", target_os = "freebsd", target_os = "netbsd"))]
    type NfdsT = u32;
    #[cfg(not(any(target_os = "macos", target_os = "freebsd", target_os = "netbsd")))]
    type NfdsT = std::ffi::c_ulong;

    extern "C" {
        #[link_name = "poll"]
        fn c_poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
        #[link_name = "writev"]
        fn c_writev(fd: RawFd, iov: *const IoVec, iovcnt: i32) -> isize;
    }

    /// Waits until an fd in `fds` has events or `timeout` passes.
    /// Returns the number of fds with `revents` set (0 on timeout or
    /// `EINTR`, which callers treat as an idle tick).
    ///
    /// # Errors
    ///
    /// The syscall's errno, except `EINTR`.
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is a valid exclusively-borrowed slice of
        // `#[repr(C)]` structs matching `struct pollfd`; the kernel
        // writes only within `fds.len()` entries' `revents` fields.
        let rc = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }

    /// Gathers up to [`MAX_IOV`] buffers into one `writev(2)` call.
    /// Returns the bytes written, which may stop anywhere — including
    /// mid-buffer; the caller resumes from that exact offset.
    ///
    /// # Errors
    ///
    /// The syscall's errno (`WouldBlock` and `Interrupted` included —
    /// the caller's flush loop handles both).
    pub fn writev(fd: RawFd, bufs: &[&[u8]]) -> io::Result<usize> {
        let mut iovs = [IoVec {
            base: std::ptr::null(),
            len: 0,
        }; MAX_IOV];
        let n = bufs.len().min(MAX_IOV);
        for (iov, buf) in iovs.iter_mut().zip(&bufs[..n]) {
            iov.base = buf.as_ptr();
            iov.len = buf.len();
        }
        // SAFETY: every iovec points into one of the caller's live
        // `bufs` slices, which outlive the call; the kernel only reads
        // from them.
        let rc = unsafe { c_writev(fd, iovs.as_ptr(), n as i32) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as usize)
    }
}

/// The equally thin `epoll(7)` binding, Linux only (`poll` remains the
/// portable oracle). Registration is edge-triggered and permanent:
/// `epoll_ctl` runs once per fd lifetime, never per iteration.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod epoll {
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// Readable.
    pub const EPOLLIN: u32 = 0x001;
    /// Writable.
    pub const EPOLLOUT: u32 = 0x004;
    /// Error condition (always reported).
    pub const EPOLLERR: u32 = 0x008;
    /// Peer hung up (always reported).
    pub const EPOLLHUP: u32 = 0x010;
    /// Peer shut down its write half — with edge triggering this must
    /// be requested explicitly or a half-close can go unnoticed.
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// Edge-triggered: one event per readiness *transition*.
    pub const EPOLLET: u32 = 1 << 31;

    /// `epoll_ctl` ops.
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;

    const EPOLL_CLOEXEC: i32 = 0x80000;

    /// `struct epoll_event`. The kernel ABI packs it on x86-64 only;
    /// fields are copied out, never borrowed, so the unaligned layout
    /// stays an implementation detail.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Debug, Clone, Copy)]
    pub struct EpollEvent {
        /// Readiness bits.
        pub events: u32,
        /// The caller's token, returned verbatim.
        pub data: u64,
    }

    extern "C" {
        #[link_name = "epoll_create1"]
        fn c_epoll_create1(flags: i32) -> i32;
        #[link_name = "epoll_ctl"]
        fn c_epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        #[link_name = "epoll_wait"]
        fn c_epoll_wait(epfd: RawFd, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        #[link_name = "close"]
        fn c_close(fd: i32) -> i32;
    }

    /// An owned epoll instance, closed on drop.
    #[derive(Debug)]
    pub struct EpollFd(RawFd);

    impl EpollFd {
        /// Creates the instance (`EPOLL_CLOEXEC`).
        ///
        /// # Errors
        ///
        /// The syscall's errno — `Auto` backend selection falls back to
        /// `poll` on any failure.
        pub fn new() -> io::Result<EpollFd> {
            // SAFETY: plain syscall, no pointers.
            let fd = unsafe { c_epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollFd(fd))
        }

        /// Adds or deletes `fd` from the interest set.
        ///
        /// # Errors
        ///
        /// The syscall's errno.
        pub fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events, data };
            // SAFETY: `ev` is a live `#[repr(C)]` value for the call's
            // duration; `DEL` ignores the pointer.
            let rc = unsafe { c_epoll_ctl(self.0, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Waits for events, filling `buf` from the front. Returns the
        /// count (0 on timeout or `EINTR`).
        ///
        /// # Errors
        ///
        /// The syscall's errno, except `EINTR`.
        pub fn wait(&self, buf: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: `buf` is a valid exclusively-borrowed slice; the
            // kernel writes at most `buf.len()` entries.
            let rc = unsafe { c_epoll_wait(self.0, buf.as_mut_ptr(), buf.len() as i32, ms) };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            Ok(rc as usize)
        }
    }

    impl Drop for EpollFd {
        fn drop(&mut self) {
            // SAFETY: the fd is owned by this value and still open.
            unsafe { c_close(self.0) };
        }
    }
}

/// Token of the executor-doorbell socket.
const TOKEN_WAKER: u64 = u64::MAX;
/// Token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Slab token of a connection: slot index in the high 32 bits, the
/// generation's low half in the low 32. A recycled slot carries a new
/// generation, so events from the previous occupant fail the check and
/// never touch the new connection.
fn conn_token(idx: usize, gen: u64) -> u64 {
    ((idx as u64) << 32) | (gen & 0xFFFF_FFFF)
}

/// One readiness event, copied out of the backend before dispatch so
/// slab mutation while handling events can't alias the backend's set.
struct Event {
    token: u64,
    readable: bool,
}

/// The incremental `poll(2)` fd set: registration and interest updates
/// touch single entries; nothing is rebuilt per iteration.
struct PollSet {
    fds: Vec<sys::PollFd>,
    tokens: Vec<u64>,
    index: HashMap<u64, usize>,
}

impl PollSet {
    fn new() -> PollSet {
        PollSet {
            fds: Vec::new(),
            tokens: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn add(&mut self, fd: RawFd, token: u64, events: i16) {
        self.index.insert(token, self.fds.len());
        self.fds.push(sys::PollFd {
            fd,
            events,
            revents: 0,
        });
        self.tokens.push(token);
    }

    fn set(&mut self, token: u64, events: i16) {
        if let Some(&pos) = self.index.get(&token) {
            self.fds[pos].events = events;
        }
    }

    fn remove(&mut self, token: u64) {
        let Some(pos) = self.index.remove(&token) else {
            return;
        };
        self.fds.swap_remove(pos);
        self.tokens.swap_remove(pos);
        if pos < self.tokens.len() {
            self.index.insert(self.tokens[pos], pos);
        }
    }
}

fn poll_events(read: bool, write: bool) -> i16 {
    let mut events = 0i16;
    if read {
        events |= sys::POLLIN;
    }
    if write {
        events |= sys::POLLOUT;
    }
    events
}

/// The epoll backend: one instance plus a reusable event buffer.
#[cfg(target_os = "linux")]
struct EpollSet {
    ep: epoll::EpollFd,
    buf: Vec<epoll::EpollEvent>,
}

/// The pluggable readiness backend. An enum, not a trait object: both
/// variants are known at compile time and the per-event cost stays a
/// jump, not a vtable load.
enum Poller {
    Poll(PollSet),
    #[cfg(target_os = "linux")]
    Epoll(EpollSet),
}

impl Poller {
    /// Resolves a [`ReactorChoice`] to a live backend. `Auto` prefers
    /// epoll and falls back to poll if the instance can't be created
    /// (or the platform isn't Linux).
    ///
    /// # Errors
    ///
    /// `Epoll` requested off-Linux (`Unsupported`) or `epoll_create1`
    /// failing.
    fn new(choice: ReactorChoice) -> io::Result<Poller> {
        match choice {
            ReactorChoice::Poll => Ok(Poller::Poll(PollSet::new())),
            ReactorChoice::Epoll => Poller::epoll(),
            ReactorChoice::Auto => {
                Ok(Poller::epoll().unwrap_or_else(|_| Poller::Poll(PollSet::new())))
            }
        }
    }

    #[cfg(target_os = "linux")]
    fn epoll() -> io::Result<Poller> {
        Ok(Poller::Epoll(EpollSet {
            ep: epoll::EpollFd::new()?,
            buf: vec![epoll::EpollEvent { events: 0, data: 0 }; 1024],
        }))
    }

    #[cfg(not(target_os = "linux"))]
    fn epoll() -> io::Result<Poller> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll requires linux; use the poll or auto reactor",
        ))
    }

    fn kind(&self) -> ReactorKind {
        match self {
            Poller::Poll(_) => ReactorKind::Poll,
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => ReactorKind::Epoll,
        }
    }

    /// Registers a read-only fd (listener, doorbell).
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failing (the poll backend cannot fail).
    fn add_input(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        match self {
            Poller::Poll(p) => {
                p.add(fd, token, sys::POLLIN);
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.ep.ctl(
                epoll::EPOLL_CTL_ADD,
                fd,
                epoll::EPOLLIN | epoll::EPOLLET,
                token,
            ),
        }
    }

    /// Registers a connection. Poll starts read-only (write interest
    /// follows the flush state via [`Poller::set_interest`]); epoll
    /// registers the full edge-triggered set once and never again.
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failing.
    fn add_conn(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        match self {
            Poller::Poll(p) => {
                p.add(fd, token, poll_events(true, false));
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.ep.ctl(
                epoll::EPOLL_CTL_ADD,
                fd,
                epoll::EPOLLIN | epoll::EPOLLOUT | epoll::EPOLLRDHUP | epoll::EPOLLET,
                token,
            ),
        }
    }

    /// Updates level-triggered interest (poll). A no-op under epoll:
    /// edge-triggered registration already covers both directions, and
    /// the reactor's state machine ignores events it didn't ask for.
    fn set_interest(&mut self, token: u64, read: bool, write: bool) {
        match self {
            Poller::Poll(p) => p.set(token, poll_events(read, write)),
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => {}
        }
    }

    /// Deregisters a closing fd.
    fn remove(&mut self, fd: RawFd, token: u64) {
        match self {
            Poller::Poll(p) => {
                let _ = fd;
                p.remove(token);
            }
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => {
                // Best-effort: closing the fd removes it anyway.
                let _ = e.ep.ctl(epoll::EPOLL_CTL_DEL, fd, 0, 0);
            }
        }
    }

    /// Waits for readiness and copies the events out. Error/hangup
    /// conditions fold into `readable` — the read path observes the
    /// EOF or error and closes the connection.
    ///
    /// # Errors
    ///
    /// Fatal wait errors (`EINTR` is an empty round, not an error).
    fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        out.clear();
        match self {
            Poller::Poll(p) => {
                // Stale revents would double-report after an EINTR round.
                for pf in p.fds.iter_mut() {
                    pf.revents = 0;
                }
                sys::poll(&mut p.fds, timeout)?;
                for (pf, &token) in p.fds.iter().zip(&p.tokens) {
                    if pf.revents == 0 {
                        continue;
                    }
                    let readable = pf.revents
                        & (sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL)
                        != 0;
                    out.push(Event { token, readable });
                }
            }
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => {
                let n = e.ep.wait(&mut e.buf, timeout)?;
                for ev in &e.buf[..n] {
                    let (events, token) = (ev.events, ev.data);
                    let readable = events
                        & (epoll::EPOLLIN | epoll::EPOLLERR | epoll::EPOLLHUP | epoll::EPOLLRDHUP)
                        != 0;
                    out.push(Event { token, readable });
                }
            }
        }
        Ok(())
    }
}

/// A request's query slots, in request order: the parsed queries kept
/// contiguous so the engine borrows them as one slice, and the slots
/// answered before execution (parse errors, shed members) by position.
#[derive(Default)]
struct Slots {
    queries: Vec<BatchQuery>,
    /// `(position, response)`, positions ascending.
    answered: Vec<(usize, Response)>,
}

impl Slots {
    /// Parsed queries only.
    fn parsed(queries: Vec<BatchQuery>) -> Slots {
        Slots {
            queries,
            answered: Vec::new(),
        }
    }

    /// A shed batch: every one of `count` slots answered `resp`.
    fn shed(count: usize, resp: &Response) -> Slots {
        Slots {
            queries: Vec::new(),
            answered: (0..count).map(|i| (i, resp.clone())).collect(),
        }
    }

    /// Appends the next slot.
    fn push(&mut self, slot: Result<BatchQuery, Response>) {
        match slot {
            Ok(query) => self.queries.push(query),
            Err(resp) => self.answered.push((self.len(), resp)),
        }
    }

    fn len(&self) -> usize {
        self.queries.len() + self.answered.len()
    }
}

/// What the inline rule keys a query's measured cost on: its kind, its
/// size parameters and the connection's planner override — never its
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    /// 0 `KNM`, 1 `FREQ`, 2 `EPS`.
    kind: u8,
    k: usize,
    /// `n`, or `n0` for `FREQ`.
    n: usize,
    /// `n1` for `FREQ`, the ε bits for `EPS`.
    extra: u64,
    planner: Option<PlannerMode>,
}

impl Shape {
    fn of(query: &BatchQuery, planner: Option<PlannerMode>) -> Shape {
        let (kind, k, n, extra) = match *query {
            BatchQuery::KnMatch { k, n, .. } => (0, k, n, 0),
            BatchQuery::Frequent { k, n0, n1, .. } => (1, k, n0, n1 as u64),
            BatchQuery::EpsMatch { eps, n, .. } => (2, 0, n, eps.to_bits()),
        };
        Shape {
            kind,
            k,
            n,
            extra,
            planner,
        }
    }

    fn slot(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish() as usize % SHAPE_SLOTS
    }
}

/// The measured engine time of recently seen query shapes: a fixed
/// direct-mapped table of `(shape, EWMA)`, α = ¼. A colliding shape
/// overwrites the slot, so a shape is forgotten (and hands off again)
/// rather than priced by another's samples. Fixed size, no allocation,
/// owned by the reactor thread alone.
struct ShapeCosts([Option<(Shape, Duration)>; SHAPE_SLOTS]);

impl ShapeCosts {
    fn new() -> ShapeCosts {
        ShapeCosts([None; SHAPE_SLOTS])
    }

    /// The shape's average engine time, if it was measured.
    fn get(&self, shape: Shape) -> Option<Duration> {
        match self.0[shape.slot()] {
            Some((s, avg)) if s == shape => Some(avg),
            _ => None,
        }
    }

    /// Folds one measured run into the shape's average (the first run
    /// is the average).
    fn record(&mut self, shape: Shape, took: Duration) {
        let slot = &mut self.0[shape.slot()];
        let avg = match *slot {
            Some((s, avg)) if s == shape => (avg * 3 + took) / 4,
            _ => took,
        };
        *slot = Some((shape, avg));
    }
}

/// One executor work unit: a request's query slots, snapshotted options,
/// and the routing needed to land the serialized responses back in the
/// right connection's slot.
struct Job {
    conn: usize,
    gen: u64,
    seq: u64,
    wire: Wire,
    trailer: bool,
    opts: BatchOptions,
    /// Parseable slots — this job's weight against the global in-flight
    /// budget, released when its completion lands.
    cost: u64,
    slots: Slots,
    /// The shape of a lone query (not a `BATCH`), whose engine time the
    /// completion reports to the reactor's cost table.
    shape: Option<Shape>,
    /// Run the mutable engine's maintenance (run compaction) on the
    /// executor instead of any queries — `slots` is empty and the
    /// completion writes no bytes. Queued against the writing
    /// connection, so the merge backpressures the writer while readers
    /// keep executing on the other workers.
    maintenance: bool,
}

/// An executed job: the pooled frame holding its serialized responses
/// plus the counter deltas the reactor applies on receipt.
struct Completion {
    conn: usize,
    gen: u64,
    seq: u64,
    bytes: FrameRc,
    queries: u64,
    errors: u64,
    timeouts: u64,
    /// The job's in-flight budget weight to release.
    cost: u64,
    /// Queries answered `deadline exceeded` without running because the
    /// propagated absolute deadline had already passed at pickup.
    cancels: u64,
    /// A lone query's shape and its measured engine time; `None` when
    /// the job was a batch, maintenance, or never reached the engine.
    measured: Option<(Shape, Duration)>,
}

/// The executor pool's job queue (`Mutex<VecDeque>` + `Condvar`; closed
/// flag ends the workers).
struct JobQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut s = self.state.lock().unwrap();
        s.0.push_back(job);
        drop(s);
        self.cv.notify_one();
    }

    /// Blocks for the next job; `None` once closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(job) = s.0.pop_front() {
                return Some(job);
            }
            if s.1 {
                return None;
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// The executors' doorbell into a sleeping wait: one byte down a
/// `UnixStream::pair` (the reactor polls the nonblocking other end),
/// deduplicated so a burst of completions costs one syscall.
struct Waker {
    tx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

/// Serializes `resp` in the request's encoding.
fn emit(resp: &Response, wire: Wire, out: &mut Vec<u8>) {
    match wire {
        Wire::Text => encode_response_line(resp, out),
        Wire::Binary => encode_response_frame(resp, out),
    }
}

/// Executor thread body: run jobs until the queue closes.
fn executor_loop<E: BatchEngine + Sync>(
    engine: &E,
    queue: &JobQueue,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
    pool: &BufferPool,
) {
    while let Some(job) = queue.pop() {
        let comp = run_job(engine, job, pool);
        completions.lock().unwrap().push(comp);
        waker.wake();
    }
}

/// Runs one job's parsed queries as a single engine batch and
/// serializes one response per slot (slot order) into one pooled frame,
/// plus the `DONE` trailer for batches. This is the only encode of
/// these bytes; the reactor writes them straight from the frame. The
/// executors and the reactor's inline path both run jobs through here.
fn run_job<E: BatchEngine + Sync>(engine: &E, job: Job, pool: &BufferPool) -> Completion {
    if job.maintenance {
        // Off-reactor run compaction for mutable engines. Failures are
        // deliberately swallowed: maintenance is best-effort and will be
        // re-requested by the next write that finds it due.
        if let Some(w) = engine.writer() {
            let _ = w.maintain();
        }
    }
    // A batch whose propagated absolute deadline passed while it queued
    // is doomed: every query would fail the engine's deadline precheck
    // anyway, so skip the engine and synthesize the same responses.
    // (Queries the engine would have rejected for *validation* reasons
    // report `deadline exceeded` instead on this path — an acceptable
    // divergence, since which error an expired batch sees is inherently
    // timing-dependent.)
    let expired = job.opts.deadline_at.is_some_and(|at| Instant::now() >= at);
    let (outcomes, measured) = if expired {
        (Vec::new(), None)
    } else {
        let started = Instant::now();
        let outcomes = engine.run_with(&job.slots.queries, &job.opts);
        (outcomes, job.shape.map(|s| (s, started.elapsed())))
    };
    let total = job.slots.len();
    let mut outcomes = outcomes.into_iter();
    let mut answered = job.slots.answered.into_iter().peekable();
    let (mut ok, mut failed, mut timeouts, mut cancels) = (0u64, 0u64, 0u64, 0u64);
    let bytes = pool.frame(|out| {
        for pos in 0..total {
            let response = match answered.next_if(|(at, _)| *at == pos) {
                Some((_, pre)) => pre,
                None if expired => {
                    cancels += 1;
                    error_response(&KnMatchError::DeadlineExceeded)
                }
                None => match outcomes.next().expect("one outcome per parsed query") {
                    Ok(outcome) => Response::Answer(outcome.into_answer()),
                    Err(e) => error_response(&e),
                },
            };
            match &response {
                Response::Answer(_) => ok += 1,
                Response::Error { kind, .. } => {
                    failed += 1;
                    if *kind == ErrorKind::Timeout {
                        timeouts += 1;
                    }
                }
                _ => failed += 1,
            }
            emit(&response, job.wire, out);
        }
        if job.trailer {
            emit(&Response::Done { ok, failed }, job.wire, out);
        }
    });
    Completion {
        conn: job.conn,
        gen: job.gen,
        seq: job.seq,
        bytes,
        queries: total as u64,
        errors: failed,
        timeouts,
        cost: job.cost,
        cancels,
        measured,
    }
}

/// A text `BATCH <count>` whose query lines are still streaming in.
struct TextBatch {
    remaining: usize,
    slots: Slots,
    /// The batch was admitted while the server was over its in-flight
    /// budget: every arriving line is answered `ERR overloaded` without
    /// being parsed (the cheap-reject path), keeping the stream in sync.
    shed: bool,
}

/// Reactor-side state of one connection.
struct ConnState {
    stream: TcpStream,
    frames: FrameBuf,
    queue: SlotQueue,
    /// Ready frames staged for `writev`, head partially written up to
    /// `out_pos`. Frames move here from `queue` without copying.
    out: VecDeque<FrameRc>,
    out_pos: usize,
    opts: BatchOptions,
    stats: StatsSnapshot,
    batch: Option<TextBatch>,
    last_wire: Wire,
    closing: bool,
    /// Reading stopped on pipeline backpressure; bytes may be buffered
    /// (socket or decoder) with no future edge to announce them. The
    /// service loop resumes the read as soon as the queue has room.
    read_paused: bool,
    /// A readable event arrived for this service round.
    ev_read: bool,
    /// Already on this iteration's service list.
    touched: bool,
    /// Already on the fault-retry list: a synthetic fault consumed a
    /// readiness edge that the kernel will never re-report.
    fault_pending: bool,
    /// Last interest told to the poll backend (read, write).
    interest: (bool, bool),
    /// Last read or write progress on the socket — the idle-eviction
    /// clock.
    last_activity: Instant,
    gen: u64,
}

/// The TCP server over one batch engine: text lines and binary frames
/// on one port, multiplexed by `poll(2)` or Linux `epoll` per
/// [`ServerConfig::reactor`].
pub struct EventServer<E> {
    engine: E,
    listener: TcpListener,
    cfg: ServerConfig,
    shared: Arc<Shared>,
}

impl<E: BatchEngine + Sync> EventServer<E> {
    /// Binds `addr` and wraps `engine`; serving starts with
    /// [`serve`](EventServer::serve).
    ///
    /// # Errors
    ///
    /// Socket errors from bind/local-addr resolution.
    pub fn bind<A: ToSocketAddrs>(
        engine: E,
        addr: A,
        cfg: ServerConfig,
    ) -> io::Result<EventServer<E>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(EventServer {
            engine,
            listener,
            cfg,
            shared: Arc::new(Shared::new(addr)),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle that stops this server from another thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle(self.shared.clone())
    }

    /// Server-lifetime counters so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.totals.snapshot()
    }

    /// The event-loop counters behind `STATS`'s reactor/robustness
    /// extras (peak connections, shed/evicted/cancelled totals, …).
    pub fn extras(&self) -> ServerExtras {
        self.shared.totals.extras()
    }

    /// The served engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Runs the reactor until a `SHUTDOWN` request or a
    /// [`ShutdownHandle`] stops it, then drains (see module docs) and
    /// returns.
    ///
    /// # Errors
    ///
    /// Backend creation (`--reactor epoll` off-Linux is
    /// [`io::ErrorKind::Unsupported`]) and fatal listener/wait errors;
    /// per-connection failures close that connection.
    pub fn serve(&self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let poller = Poller::new(self.cfg.reactor)?;
        self.shared
            .totals
            .reactor_backend
            .store(poller.kind().code() as u64, Ordering::Relaxed);
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        let waker = Waker {
            tx: wake_tx,
            pending: AtomicBool::new(false),
        };
        let queue = JobQueue::new();
        let completions: Mutex<Vec<Completion>> = Mutex::new(Vec::new());
        let pool = BufferPool::new();
        let executors = if self.cfg.executors == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.cfg.executors
        };
        let fault = self.cfg.fault.map(FaultInjector::new);
        let max_inflight = if self.cfg.max_inflight == 0 {
            self.cfg.max_connections.saturating_mul(MAX_PIPELINE)
        } else {
            self.cfg.max_inflight
        };
        let result = thread::scope(|scope| {
            for _ in 0..executors {
                scope.spawn(|| executor_loop(&self.engine, &queue, &completions, &waker, &pool));
            }
            let result = Reactor {
                engine: &self.engine,
                cfg: &self.cfg,
                shared: &self.shared,
                listener: &self.listener,
                queue: &queue,
                pool: &pool,
                poller,
                conns: Vec::new(),
                free: Vec::new(),
                live: 0,
                next_gen: 0,
                draining: false,
                drain_since: None,
                fault: fault.as_ref(),
                fault_retry: Vec::new(),
                inflight: 0,
                max_inflight,
                costs: ShapeCosts::new(),
                inline_spent: Duration::ZERO,
            }
            .run(&wake_rx, &waker, &completions);
            queue.close();
            result
        });
        // Executors are joined: recycle completions nobody collected
        // (jobs of connections that died mid-drain outlive the reactor
        // loop), then hold the pool to its no-leak invariant — every
        // frame and read buffer ever issued came back. A clean drain
        // that fails this check has lost buffers somewhere.
        for comp in std::mem::take(&mut *completions.lock().unwrap()) {
            pool.recycle_frame(comp.bytes);
        }
        if result.is_ok() {
            let (fi, fr, vi, vr) = pool.ledger();
            assert!(
                fi == fr && vi == vr,
                "buffer pool leak after drain: {fi} frames issued / {fr} returned, \
                 {vi} read buffers issued / {vr} returned"
            );
        }
        result
    }
}

struct Reactor<'a, E> {
    engine: &'a E,
    cfg: &'a ServerConfig,
    shared: &'a Shared,
    listener: &'a TcpListener,
    queue: &'a JobQueue,
    pool: &'a BufferPool,
    poller: Poller,
    conns: Vec<Option<ConnState>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
    draining: bool,
    drain_since: Option<Instant>,
    /// Seeded chaos hooks (`ServerConfig::fault`); `None` costs one
    /// branch per read/flush.
    fault: Option<&'a FaultInjector>,
    /// Connections owed a service round because a synthetic fault
    /// consumed a readiness edge the kernel will never re-report
    /// (deduplicated via [`ConnState::fault_pending`]). While non-empty
    /// the wait timeout is zero.
    fault_retry: Vec<usize>,
    /// Parseable queries submitted to the executors and not yet
    /// completed, across all connections.
    inflight: usize,
    /// Admission ceiling on `inflight`; queries past it are shed with
    /// `ERR overloaded` before their payload is parsed.
    max_inflight: usize,
    /// Measured engine time per query shape, from every completion.
    costs: ShapeCosts,
    /// Engine time spent on inline queries this loop iteration, against
    /// [`INLINE_PER_ITERATION`].
    inline_spent: Duration,
}

impl<'a, E: BatchEngine + Sync> Reactor<'a, E> {
    fn run(
        mut self,
        wake_rx: &UnixStream,
        waker: &Waker,
        completions: &Mutex<Vec<Completion>>,
    ) -> io::Result<()> {
        self.poller.add_input(wake_rx.as_raw_fd(), TOKEN_WAKER)?;
        self.poller
            .add_input(self.listener.as_raw_fd(), TOKEN_LISTENER)?;
        let mut events: Vec<Event> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            if !self.draining && self.shared.is_shutdown() {
                self.begin_drain();
            }
            if self.draining && self.live == 0 {
                return Ok(());
            }

            let timeout = self.wait_timeout();
            self.poller.wait(&mut events, timeout)?;
            self.inline_spent = Duration::ZERO;
            self.shared
                .totals
                .poll_iterations
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .totals
                .events_dispatched
                .fetch_add(events.len() as u64, Ordering::Relaxed);

            // Route events to their slots; work happens after the whole
            // set is translated (dispatch may close or open slots).
            touched.clear();
            // Fault retries first: a synthetic stall consumed a readiness
            // edge the kernel will never re-report, so these connections
            // are serviced unconditionally (`ev_read` forced — a retried
            // read that finds nothing is a no-op).
            for idx in std::mem::take(&mut self.fault_retry) {
                let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                c.fault_pending = false;
                c.ev_read = true;
                if !c.touched {
                    c.touched = true;
                    touched.push(idx);
                }
            }
            let mut saw_wake = false;
            let mut saw_accept = false;
            for ev in &events {
                match ev.token {
                    TOKEN_WAKER => saw_wake = true,
                    TOKEN_LISTENER => saw_accept = true,
                    token => {
                        let idx = (token >> 32) as usize;
                        let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                            continue;
                        };
                        if c.gen & 0xFFFF_FFFF != token & 0xFFFF_FFFF {
                            // A previous occupant's stale event.
                            continue;
                        }
                        if ev.readable {
                            c.ev_read = true;
                        }
                        if !c.touched {
                            c.touched = true;
                            touched.push(idx);
                        }
                    }
                }
            }

            // Doorbell first: drain the byte(s), re-arm, then take the
            // completions — executors push before ringing, so everything
            // signalled is visible now.
            if saw_wake {
                loop {
                    match (&mut (&*wake_rx)).read(&mut scratch) {
                        Ok(0) => break,
                        Ok(_) => continue,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }
            waker.pending.store(false, Ordering::SeqCst);
            let finished = std::mem::take(&mut *completions.lock().unwrap());
            for comp in finished {
                let idx = comp.conn;
                if self.apply(comp) {
                    let c = self.conns[idx].as_mut().expect("apply hit a live conn");
                    if !c.touched {
                        c.touched = true;
                        touched.push(idx);
                    }
                }
            }

            if saw_accept {
                self.accept_ready();
            }

            if self.draining {
                // O(ready) is suspended during drain: write-blocked
                // peers produce no events, but their flush-grace expiry
                // must still be evaluated every round.
                for idx in 0..self.conns.len() {
                    let Some(c) = self.conns[idx].as_mut() else {
                        continue;
                    };
                    if !c.touched {
                        c.touched = true;
                        touched.push(idx);
                    }
                }
            }

            let flush_expired = self
                .drain_since
                .is_some_and(|t| t.elapsed() > DRAIN_FLUSH_GRACE);
            for &idx in &touched {
                self.service_conn(idx, &mut scratch, flush_expired);
            }

            if !self.draining {
                if let Some(idle) = self.cfg.idle_timeout {
                    self.evict_idle(idle);
                }
            }
        }
    }

    /// How long the next wait may sleep. Adaptive: pending fault
    /// retries demand an immediate round, drain keeps its short tick
    /// (write-blocked peers produce no events but their flush grace
    /// must be re-evaluated), an armed idle timeout wakes exactly at
    /// the earliest eviction deadline, and an idle reactor with none of
    /// those sleeps until an event arrives.
    fn wait_timeout(&self) -> Duration {
        if !self.fault_retry.is_empty() {
            return Duration::ZERO;
        }
        if self.draining {
            return Duration::from_millis(5);
        }
        match self.next_idle_deadline() {
            Some(at) => at
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1)),
            None => WAIT_FOREVER,
        }
    }

    /// The earliest instant any connection becomes evictable, when the
    /// idle timeout is armed.
    fn next_idle_deadline(&self) -> Option<Instant> {
        let idle = self.cfg.idle_timeout?;
        self.conns
            .iter()
            .flatten()
            .filter_map(|c| c.last_activity.checked_add(idle))
            .min()
    }

    /// Closes connections whose sockets made no progress for `idle` —
    /// the slow-peer eviction path. A peer that is only waiting on our
    /// own executors is never evicted: its socket goes quiet through no
    /// fault of its own, and the pending completion will move bytes.
    fn evict_idle(&mut self, idle: Duration) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(c) = self.conns[idx].as_ref() else {
                continue;
            };
            if c.queue.has_inflight() {
                continue;
            }
            if now.duration_since(c.last_activity) >= idle {
                self.shared
                    .totals
                    .conns_evicted
                    .fetch_add(1, Ordering::Relaxed);
                self.close_conn(idx);
            }
        }
    }

    /// Shutdown observed: stop accepting and parsing, queue `ERR
    /// shutdown` behind every connection's in-flight slots. The
    /// farewell is encoded once per wire encoding and shared across
    /// connections by refcount.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_since = Some(Instant::now());
        let pool = self.pool;
        let shared = self.shared;
        let shutdown = Response::Error {
            kind: ErrorKind::Shutdown,
            message: "server draining".into(),
        };
        let mut farewell: [Option<FrameRc>; 2] = [None, None];
        for slot in self.conns.iter_mut() {
            let Some(c) = slot else { continue };
            if c.closing {
                continue;
            }
            c.batch = None;
            let wire = c.last_wire;
            let which = match wire {
                Wire::Text => 0,
                Wire::Binary => 1,
            };
            let frame = farewell[which]
                .get_or_insert_with(|| pool.frame(|b| emit(&shutdown, wire, b)))
                .clone();
            c.stats.errors += 1;
            shared.totals.errors.fetch_add(1, Ordering::Relaxed);
            c.queue.push_ready(frame);
            c.closing = true;
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // A vanished client or transient error must not stop the
                // server; the next tick retries.
                Err(_) => break,
            };
            if self.draining || self.shared.is_shutdown() {
                // Shutdown poke or a straggler (the flag may be set a
                // tick before `begin_drain` runs): dropping it closes
                // the socket; the server no longer serves, and the poke
                // never pollutes the connection counters.
                continue;
            }
            if self.shared.active.load(Ordering::SeqCst) >= self.cfg.max_connections {
                self.reject_busy(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let now_active = self.shared.active.fetch_add(1, Ordering::SeqCst) as u64 + 1;
            self.shared
                .totals
                .connections
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .totals
                .conns_peak
                .fetch_max(now_active, Ordering::Relaxed);
            let gen = self.next_gen;
            self.next_gen += 1;
            let fd = stream.as_raw_fd();
            let conn = ConnState {
                stream,
                frames: FrameBuf::with_buf(self.pool.vec()),
                queue: SlotQueue::new(),
                out: VecDeque::new(),
                out_pos: 0,
                opts: BatchOptions::default(),
                stats: StatsSnapshot {
                    connections: 1,
                    ..StatsSnapshot::default()
                },
                batch: None,
                last_wire: Wire::Text,
                closing: false,
                read_paused: false,
                ev_read: false,
                touched: false,
                fault_pending: false,
                interest: (true, false),
                last_activity: Instant::now(),
                gen,
            };
            self.live += 1;
            let idx = match self.free.pop() {
                Some(i) => {
                    self.conns[i] = Some(conn);
                    i
                }
                None => {
                    self.conns.push(Some(conn));
                    self.conns.len() - 1
                }
            };
            // Registered once; readiness already pending (a client that
            // connected and wrote) surfaces on the next wait for both
            // backends.
            if self.poller.add_conn(fd, conn_token(idx, gen)).is_err() {
                self.close_conn(idx);
            }
        }
    }

    /// Best-effort `ERR busy` on an over-limit accept, then close. The
    /// socket was never registered, so a plain blocking-ish write is
    /// fine: a fresh socket's send buffer is empty, so this one write
    /// lands (or the peer is gone; either way the connection closes).
    fn reject_busy(&self, mut stream: TcpStream) {
        let mut bytes = Vec::new();
        emit(
            &Response::Error {
                kind: ErrorKind::Busy,
                message: with_retry_after(
                    "connection limit reached",
                    self.cfg.retry_after.as_millis() as u64,
                ),
            },
            Wire::Text,
            &mut bytes,
        );
        if stream.write(&bytes).is_ok() {
            self.shared
                .totals
                .bytes_out
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        self.shared.totals.errors.fetch_add(1, Ordering::Relaxed);
        self.shared
            .totals
            .retries_observed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Tears a connection down: deregisters the fd and returns every
    /// buffer — read buffer, staged frames, queued frames — to the pool
    /// so steady-state connection churn allocates nothing.
    fn close_conn(&mut self, idx: usize) {
        if let Some(mut c) = self.conns[idx].take() {
            self.poller
                .remove(c.stream.as_raw_fd(), conn_token(idx, c.gen));
            while let Some(frame) = c.out.pop_front() {
                self.pool.recycle_frame(frame);
            }
            c.queue.recycle_into(self.pool);
            self.pool.recycle_vec(c.frames.reclaim());
            self.free.push(idx);
            self.live -= 1;
            self.shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Lands a completion in its connection's slot (discarded
    /// when the connection died first — `gen` guards slab reuse).
    /// Returns whether it landed, so the caller can service the conn.
    fn apply(&mut self, comp: Completion) -> bool {
        // The budget weight releases unconditionally — the executor work
        // happened whether or not the connection survived it — and so
        // does the measurement.
        self.inflight = self.inflight.saturating_sub(comp.cost as usize);
        if let Some((shape, took)) = comp.measured {
            self.costs.record(shape, took);
        }
        if comp.cancels > 0 {
            self.shared
                .totals
                .deadline_cancels
                .fetch_add(comp.cancels, Ordering::Relaxed);
        }
        let pool = self.pool;
        let Some(c) = self.conns.get_mut(comp.conn).and_then(Option::as_mut) else {
            pool.recycle_frame(comp.bytes);
            return false;
        };
        if c.gen != comp.gen {
            pool.recycle_frame(comp.bytes);
            return false;
        }
        c.stats.queries += comp.queries;
        c.stats.errors += comp.errors;
        c.stats.timeouts += comp.timeouts;
        let t = &self.shared.totals;
        t.queries.fetch_add(comp.queries, Ordering::Relaxed);
        t.errors.fetch_add(comp.errors, Ordering::Relaxed);
        t.timeouts.fetch_add(comp.timeouts, Ordering::Relaxed);
        match c.queue.complete(comp.seq, comp.bytes) {
            Ok(()) => true,
            Err(frame) => {
                pool.recycle_frame(frame);
                false
            }
        }
    }

    /// Runs one touched connection through its read → flush cycle until
    /// it makes no more progress: read any announced input, flush ready
    /// frames, and resume a backpressure-paused read once the flush
    /// frees pipeline room (edge-triggered backends get no second
    /// readable event for bytes that already arrived). Ends by syncing
    /// interest for the level-triggered backend.
    fn service_conn(&mut self, idx: usize, scratch: &mut [u8], flush_expired: bool) {
        loop {
            let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            c.touched = false;
            let ev_read = std::mem::take(&mut c.ev_read);
            if !c.closing {
                if c.read_paused {
                    if c.queue.len() < MAX_PIPELINE {
                        c.read_paused = false;
                        // Buffered frames first — they arrived before
                        // whatever is still in the socket.
                        self.dispatch_frames(idx);
                        let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                            return;
                        };
                        if !c.closing && !c.read_paused {
                            self.read_conn(idx, scratch);
                        }
                    }
                } else if ev_read {
                    self.read_conn(idx, scratch);
                }
            }
            if !self.pump_conn(idx, flush_expired) {
                return;
            }
            let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            if !c.closing && c.read_paused && c.queue.len() < MAX_PIPELINE {
                // The flush freed pipeline room; go read the rest.
                continue;
            }
            break;
        }
        self.refresh_interest(idx);
    }

    /// Syncs the poll backend's level-triggered interest with the
    /// connection's state (no-op under epoll). Read interest drops
    /// while paused or closing; write interest follows staged frames.
    fn refresh_interest(&mut self, idx: usize) {
        let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let want = (!c.closing && !c.read_paused, !c.out.is_empty());
        if want == c.interest {
            return;
        }
        c.interest = want;
        let token = conn_token(idx, c.gen);
        self.poller.set_interest(token, want.0, want.1);
    }

    /// Reads until `WouldBlock`, EOF, or backpressure, feeding the frame
    /// decoder and dispatching complete frames.
    fn read_conn(&mut self, idx: usize, scratch: &mut [u8]) {
        loop {
            let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            if c.closing {
                return;
            }
            if c.queue.len() >= MAX_PIPELINE {
                c.read_paused = true;
                return;
            }
            // Faults route through the transport wrapper: short reads
            // deliver one byte (the loop keeps draining, so no edge is
            // lost — the decoder just sees torn input), stalls surface
            // as a synthetic `WouldBlock` that must schedule a fault
            // retry (data may remain with no future edge), resets close.
            let (result, stalled) = {
                let mut transport = FaultTransport::new(&mut c.stream, self.fault);
                let result = transport.read(scratch);
                (result, transport.stalled)
            };
            match result {
                Ok(0) => {
                    // EOF: a half-closed peer ends the conversation
                    // (unwritten responses drop).
                    self.close_conn(idx);
                    return;
                }
                Ok(n) => {
                    c.stats.bytes_in += n as u64;
                    c.last_activity = Instant::now();
                    self.shared
                        .totals
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                    c.frames.extend(&scratch[..n]);
                    self.dispatch_frames(idx);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if stalled && !c.fault_pending {
                        c.fault_pending = true;
                        self.fault_retry.push(idx);
                    }
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
    }

    /// Drains every complete frame buffered on `idx`, pausing the read
    /// side when the pipeline limit is reached.
    fn dispatch_frames(&mut self, idx: usize) {
        loop {
            let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            if c.closing {
                return;
            }
            if c.queue.len() >= MAX_PIPELINE {
                c.read_paused = true;
                return;
            }
            let Some(frame) = c.frames.next_frame() else {
                return;
            };
            self.dispatch_one(idx, frame);
        }
    }

    fn dispatch_one(&mut self, idx: usize, frame: InFrame) {
        // A shed text BATCH consumes its lines unparsed: every arriving
        // line (whatever its shape) is answered `ERR overloaded`, so the
        // stream stays in sync at zero parse cost.
        if self.conn_mut(idx).batch.as_ref().is_some_and(|b| b.shed) {
            if matches!(frame, InFrame::Binary { .. } | InFrame::BinaryOversized) {
                self.shared
                    .totals
                    .frames_binary
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.note_shed(1);
            let resp = self.overloaded_response();
            self.batch_slot(idx, Err(resp));
            return;
        }
        match frame {
            InFrame::Binary { kind, payload } => {
                self.shared
                    .totals
                    .frames_binary
                    .fetch_add(1, Ordering::Relaxed);
                let c = self.conn_mut(idx);
                if c.batch.is_some() {
                    // A binary frame cannot be a text BATCH's query line.
                    self.batch_slot(
                        idx,
                        Err(Response::Error {
                            kind: ErrorKind::Parse,
                            message: "binary frame inside a text BATCH".into(),
                        }),
                    );
                    return;
                }
                c.last_wire = Wire::Binary;
                // A binary batch is checked and admitted on its count
                // prefix alone, before the payload is decoded.
                let batch = if kind == BATCH_FRAME {
                    batch_frame_count(&payload)
                } else {
                    None
                };
                if let Some(count) = batch {
                    if !self.batch_within_limit(idx, count, Wire::Binary) {
                        return;
                    }
                }
                // Admission control on the kind byte: queries past the
                // budget are shed; a binary batch sheds whole.
                if self.overloaded() {
                    if kind == QUERY_FRAME {
                        self.note_shed(1);
                        let resp = self.overloaded_response();
                        self.ready_response(idx, Wire::Binary, &resp);
                        return;
                    }
                    if let Some(count) = batch {
                        self.note_shed(count as u64);
                        let resp = self.overloaded_response();
                        self.submit_job(idx, Slots::shed(count, &resp), true, Wire::Binary);
                        return;
                    }
                }
                match decode_request_frame(kind, &payload) {
                    Err(e) => self.ready_error(idx, Wire::Binary, ErrorKind::Parse, e.0),
                    Ok(BinRequest::One(req)) => self.handle_request(idx, req, Wire::Binary),
                    Ok(BinRequest::Batch(queries)) => {
                        self.submit_job(idx, Slots::parsed(queries), true, Wire::Binary);
                    }
                }
            }
            InFrame::BinaryOversized => {
                self.shared
                    .totals
                    .frames_binary
                    .fetch_add(1, Ordering::Relaxed);
                let oversized = Response::Error {
                    kind: ErrorKind::Oversized,
                    message: format!("binary frame exceeds {MAX_FRAME} bytes"),
                };
                if self.conn_mut(idx).batch.is_some() {
                    self.batch_slot(idx, Err(oversized));
                } else {
                    self.conn_mut(idx).last_wire = Wire::Binary;
                    self.ready_response(idx, Wire::Binary, &oversized);
                }
            }
            InFrame::Text(line) => {
                if self.conn_mut(idx).batch.is_some() {
                    let slot = match parse_query(&line) {
                        Ok(q) => Ok(q),
                        Err(e) => Err(Response::Error {
                            kind: ErrorKind::Parse,
                            message: e.0,
                        }),
                    };
                    self.batch_slot(idx, slot);
                    return;
                }
                self.conn_mut(idx).last_wire = Wire::Text;
                // Admission control on the verb, before the coordinates
                // are parsed (control verbs always pass).
                if self.overloaded()
                    && matches!(line.split(' ').next(), Some("KNM" | "FREQ" | "EPS"))
                {
                    self.note_shed(1);
                    let resp = self.overloaded_response();
                    self.ready_response(idx, Wire::Text, &resp);
                    return;
                }
                match parse_request(&line) {
                    Err(e) => self.ready_error(idx, Wire::Text, ErrorKind::Parse, e.0),
                    Ok(req) => self.handle_request(idx, req, Wire::Text),
                }
            }
            InFrame::TextOversized => {
                let oversized = Response::Error {
                    kind: ErrorKind::Oversized,
                    message: format!("request line exceeds {MAX_LINE} bytes"),
                };
                if self.conn_mut(idx).batch.is_some() {
                    self.batch_slot(idx, Err(oversized));
                } else {
                    self.conn_mut(idx).last_wire = Wire::Text;
                    self.ready_response(idx, Wire::Text, &oversized);
                }
            }
        }
    }

    fn handle_request(&mut self, idx: usize, req: Request, wire: Wire) {
        match req {
            Request::Query(q) => self.submit_job(idx, Slots::parsed(vec![q]), false, wire),
            Request::Batch(count) => {
                if !self.batch_within_limit(idx, count, wire) {
                    return;
                }
                if count == 0 {
                    self.submit_job(idx, Slots::default(), true, wire);
                } else {
                    // Admission is decided at the header: a batch opened
                    // past the budget sheds every line it announces.
                    let shed = self.overloaded();
                    self.conn_mut(idx).batch = Some(TextBatch {
                        remaining: count,
                        slots: Slots::parsed(Vec::with_capacity(count.min(1024))),
                        shed,
                    });
                }
            }
            Request::Deadline(ms) => {
                let c = self.conn_mut(idx);
                c.opts.deadline = (ms > 0).then(|| Duration::from_millis(ms));
                self.ready_response(idx, wire, &Response::Deadline(ms));
            }
            Request::FailFast(on) => {
                self.conn_mut(idx).opts.fail_fast = on;
                self.ready_response(idx, wire, &Response::FailFast(on));
            }
            Request::Planner(mode) => {
                self.conn_mut(idx).opts.planner = Some(mode);
                self.ready_response(idx, wire, &Response::Planner(mode));
            }
            Request::Stats => {
                let response = Response::Stats(StatsReport {
                    conn: self.conn_mut(idx).stats,
                    server: self.shared.totals.snapshot(),
                    plans: self.engine.plan_counts(),
                    extras: Some(self.shared.totals.extras()),
                    version: self.engine.writer().map(|w| w.version_stats().into()),
                });
                self.ready_response(idx, wire, &response);
            }
            Request::Ping => self.ready_response(idx, wire, &Response::Pong),
            Request::Quit => {
                self.ready_response(idx, wire, &Response::Bye);
                self.conn_mut(idx).closing = true;
            }
            Request::Shutdown => {
                self.ready_response(idx, wire, &Response::ShuttingDown);
                self.conn_mut(idx).closing = true;
                // Sets the flag; the reactor observes it at the top of
                // the next tick and drains every other connection.
                self.shared.request_shutdown();
            }
            // The write verbs run inline on the reactor thread: writes
            // arriving on any number of connections are serialized by
            // construction (one reactor), publish is a short lock + Arc
            // swap, and in-flight snapshots keep answering at their
            // pinned epoch. Only run *compaction* is pushed to the
            // executor pool (see `submit_maintenance`).
            Request::Insert { key, point } => {
                self.write_verb(idx, wire, |w| w.insert(key, &point).map(Response::Inserted))
            }
            Request::Delete(key) => {
                self.write_verb(idx, wire, |w| w.remove(key).map(Response::Deleted))
            }
            Request::Epoch => {
                let response = match self.engine.writer() {
                    None => immutable_engine_error(),
                    Some(w) => {
                        let s = w.version_stats();
                        Response::Epoch {
                            epoch: s.epoch,
                            live: s.live as u64,
                            delta: s.delta_len as u64,
                            runs: s.runs as u64,
                        }
                    }
                };
                self.ready_response(idx, wire, &response);
            }
            Request::Seal => {
                let response = match self.engine.writer() {
                    None => immutable_engine_error(),
                    Some(w) => match w.seal() {
                        Ok(epoch) => Response::Sealed(epoch),
                        Err(e) => error_response(&e),
                    },
                };
                self.ready_response(idx, wire, &response);
            }
        }
    }

    /// Answers an `INSERT` or `DELETE` with `op` run on the engine's
    /// writer (`ERR query` on a read-only engine), then schedules run
    /// compaction when the write left the index due for it.
    fn write_verb(
        &mut self,
        idx: usize,
        wire: Wire,
        op: impl FnOnce(&dyn VersionWriter) -> Result<Response, KnMatchError>,
    ) {
        let engine = self.engine;
        let Some(w) = engine.writer() else {
            return self.ready_response(idx, wire, &immutable_engine_error());
        };
        let response = op(w).unwrap_or_else(|e| error_response(&e));
        self.ready_response(idx, wire, &response);
        if w.needs_maintenance() {
            self.submit_maintenance(idx, wire);
        }
    }

    /// Adds one slot to the open text batch, submitting the batch when
    /// its last line arrived.
    fn batch_slot(&mut self, idx: usize, slot: Result<BatchQuery, Response>) {
        let c = self.conn_mut(idx);
        let batch = c.batch.as_mut().expect("batch in progress");
        batch.slots.push(slot);
        batch.remaining -= 1;
        if batch.remaining == 0 {
            let batch = c.batch.take().expect("batch in progress");
            let wire = c.last_wire;
            self.submit_job(idx, batch.slots, true, wire);
        }
    }

    /// Sequences a job on the connection and hands it to the executors
    /// — or, for a lone query whose shape measured cheap, runs it here
    /// and lands the completion at once (module docs, "Shape").
    fn submit_job(&mut self, idx: usize, slots: Slots, trailer: bool, wire: Wire) {
        let c = self.conns[idx].as_mut().expect("live connection");
        let (seq, gen) = (c.queue.push_waiting(), c.gen);
        let mut opts = c.opts.clone();
        // Stamp arrival as the absolute deadline: executor queue wait
        // counts against the budget, so a doomed batch cancels at
        // pickup instead of burning an executor (`checked_add` — an
        // absurd duration means "no deadline", mirroring `arm`).
        opts.deadline_at = opts.deadline.and_then(|d| Instant::now().checked_add(d));
        let shape = match slots.queries.as_slice() {
            [query] if !trailer => Some(Shape::of(query, opts.planner)),
            _ => None,
        };
        let cost = slots.queries.len() as u64;
        self.inflight += cost as usize;
        self.note_depth(idx);
        let job = Job {
            conn: idx,
            gen,
            seq,
            wire,
            trailer,
            opts,
            cost,
            slots,
            shape,
            maintenance: false,
        };
        if !self.runs_inline(shape) {
            return self.queue.push(job);
        }
        let comp = run_job(self.engine, job, self.pool);
        if let Some((_, took)) = comp.measured {
            self.inline_spent += took;
        }
        self.shared
            .totals
            .jobs_inline
            .fetch_add(1, Ordering::Relaxed);
        // The caller is servicing this connection; its flush follows.
        self.apply(comp);
    }

    /// Whether a job of `shape` runs on the reactor thread: a lone
    /// query, its shape measured below [`INLINE_BELOW`], and this
    /// iteration's inline time still under [`INLINE_PER_ITERATION`].
    fn runs_inline(&self, shape: Option<Shape>) -> bool {
        self.inline_spent < INLINE_PER_ITERATION
            && shape
                .and_then(|s| self.costs.get(s))
                .is_some_and(|avg| avg < INLINE_BELOW)
    }

    /// Schedules one maintenance step of the mutable engine on the
    /// executor pool, sequenced on the writing connection's queue: the
    /// reactor thread never merges runs, and readers on other
    /// connections keep flowing while the merge builds. The completion
    /// carries zero response bytes.
    fn submit_maintenance(&mut self, idx: usize, wire: Wire) {
        let c = self.conns[idx].as_mut().expect("live connection");
        let seq = c.queue.push_waiting();
        self.queue.push(Job {
            conn: idx,
            gen: c.gen,
            seq,
            wire,
            trailer: false,
            opts: BatchOptions::default(),
            cost: 0,
            slots: Slots::default(),
            shape: None,
            maintenance: true,
        });
    }

    /// Opens and completes a slot with a control response encoded into
    /// a pooled frame, tallying error counters inline (the executor
    /// path tallies its own).
    fn ready_response(&mut self, idx: usize, wire: Wire, resp: &Response) {
        let frame = self.pool.frame(|bytes| emit(resp, wire, bytes));
        if let Response::Error { kind, .. } = resp {
            let c = self.conns[idx].as_mut().expect("live connection");
            c.stats.errors += 1;
            self.shared.totals.errors.fetch_add(1, Ordering::Relaxed);
            if *kind == ErrorKind::Timeout {
                c.stats.timeouts += 1;
                self.shared.totals.timeouts.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.conns[idx]
            .as_mut()
            .expect("live connection")
            .queue
            .push_ready(frame);
        self.note_depth(idx);
    }

    fn ready_error(&mut self, idx: usize, wire: Wire, kind: ErrorKind, message: String) {
        self.ready_response(idx, wire, &Response::Error { kind, message });
    }

    /// Answers `ERR proto` to a `BATCH` announcing more than [`MAX_BATCH`]
    /// members, in either encoding; `true` when `count` is within it.
    fn batch_within_limit(&mut self, idx: usize, count: usize, wire: Wire) -> bool {
        if count <= MAX_BATCH {
            return true;
        }
        self.ready_error(idx, wire, ErrorKind::Proto, batch_limit_message(count));
        false
    }

    fn note_depth(&mut self, idx: usize) {
        let depth = self.conns[idx]
            .as_ref()
            .expect("live connection")
            .queue
            .len() as u64;
        self.shared
            .totals
            .pipeline_depth_max
            .fetch_max(depth, Ordering::Relaxed);
    }

    fn conn_mut(&mut self, idx: usize) -> &mut ConnState {
        self.conns[idx].as_mut().expect("live connection")
    }

    /// Whether the global in-flight budget is exhausted.
    fn overloaded(&self) -> bool {
        self.inflight >= self.max_inflight
    }

    /// The load-shedding reply: `ERR overloaded` carrying the backoff
    /// hint, so well-behaved clients retry after [`ServerConfig::retry_after`].
    fn overloaded_response(&self) -> Response {
        Response::Error {
            kind: ErrorKind::Overloaded,
            message: with_retry_after("server overloaded", self.cfg.retry_after.as_millis() as u64),
        }
    }

    /// Counts `n` shed queries; each shed reply carries a retry hint.
    fn note_shed(&self, n: u64) {
        let t = &self.shared.totals;
        t.queries_shed.fetch_add(n, Ordering::Relaxed);
        t.retries_observed.fetch_add(n, Ordering::Relaxed);
    }

    /// Flushes one connection: moves ready head frames from the slot
    /// queue into the outgoing queue (no copy — the frames themselves
    /// move) and gathers them into `writev` calls until the socket
    /// blocks or everything is written. Partial writes resume exactly
    /// where the kernel stopped, mid-frame included. Returns `false`
    /// when the connection was closed.
    fn pump_conn(&mut self, idx: usize, flush_expired: bool) -> bool {
        let shared = self.shared;
        let pool = self.pool;
        let fault = self.fault;
        let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return false;
        };
        // One write-side fault decision per flush attempt, rolled only
        // when there might be something to flush. A stall skips the
        // flush entirely (delayed flush); a short write truncates it to
        // a few head-frame bytes (torn reply). Both leave bytes pending
        // with no future readiness edge under edge triggering, so both
        // end on the fault-retry list.
        let decision = match fault {
            Some(inj) if !(c.out.is_empty() && c.queue.is_empty()) => inj.write_fault(),
            _ => WriteFault::None,
        };
        let mut fault_stop = matches!(decision, WriteFault::Stall);
        let budget = match decision {
            WriteFault::Short { max_bytes } => Some(max_bytes),
            _ => None,
        };
        let mut gone = false;
        while !fault_stop {
            while c.out.len() < sys::MAX_IOV {
                let Some(frame) = c.queue.pop_ready() else {
                    break;
                };
                if frame.bytes.is_empty() {
                    pool.recycle_frame(frame);
                    continue;
                }
                let len = frame.bytes.len() as u64;
                c.stats.bytes_out += len;
                shared.totals.bytes_out.fetch_add(len, Ordering::Relaxed);
                c.out.push_back(frame);
            }
            if c.out.is_empty() {
                if c.closing && c.queue.is_empty() {
                    gone = true;
                }
                break;
            }
            let mut bufs: [&[u8]; sys::MAX_IOV] = [&[]; sys::MAX_IOV];
            let mut n_bufs = 0;
            if let Some(cap) = budget {
                // Torn write: at most `cap` bytes of the head frame.
                let head = c.out.front().expect("out is non-empty");
                let end = (c.out_pos + cap).min(head.bytes.len());
                bufs[0] = &head.bytes[c.out_pos..end];
                n_bufs = 1;
            } else {
                for (i, frame) in c.out.iter().take(sys::MAX_IOV).enumerate() {
                    let start = if i == 0 { c.out_pos } else { 0 };
                    bufs[n_bufs] = &frame.bytes[start..];
                    n_bufs += 1;
                }
            }
            shared.totals.writev_calls.fetch_add(1, Ordering::Relaxed);
            match sys::writev(c.stream.as_raw_fd(), &bufs[..n_bufs]) {
                Ok(0) => {
                    gone = true;
                    break;
                }
                Ok(n) => {
                    c.last_activity = Instant::now();
                    advance_written(&mut c.out, &mut c.out_pos, n, pool);
                    if budget.is_some() {
                        fault_stop = true;
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // During drain, give up on peers that stopped
                    // reading once every response is ready and the
                    // grace period passed.
                    if flush_expired && !c.queue.has_inflight() {
                        gone = true;
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    gone = true;
                    break;
                }
            }
        }
        if gone {
            self.close_conn(idx);
            return false;
        }
        if fault_stop && !c.fault_pending {
            c.fault_pending = true;
            self.fault_retry.push(idx);
        }
        true
    }
}
