//! What the server is configured with and shares with its handles: the
//! [`ServerConfig`] knobs, the [`ReactorChoice`] readiness backend
//! selector, the server-lifetime counters behind `STATS`, and the
//! cooperative [`ShutdownHandle`]. Platform-independent on purpose —
//! the flag grammar in [`config`](crate::config) parses into these on
//! every host, while the one server that consumes them,
//! [`EventServer`](crate::EventServer), needs a unix readiness syscall
//! (DESIGN.md §13).

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::protocol::{ReactorKind, ServerExtras, StatsSnapshot};

/// Which readiness backend the server should run. Defined on every
/// platform so `ServerConfig` keeps one shape; only Linux can actually
/// satisfy `Epoll`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReactorChoice {
    /// `epoll` where the platform offers it, `poll(2)` everywhere else.
    #[default]
    Auto,
    /// The portable `poll(2)` backend — the correctness oracle.
    Poll,
    /// The Linux edge-triggered `epoll(7)` backend; binding fails with
    /// [`std::io::ErrorKind::Unsupported`] elsewhere.
    Epoll,
}

impl std::fmt::Display for ReactorChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReactorChoice::Auto => "auto",
            ReactorChoice::Poll => "poll",
            ReactorChoice::Epoll => "epoll",
        })
    }
}

impl std::str::FromStr for ReactorChoice {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "auto" => Ok(ReactorChoice::Auto),
            "poll" => Ok(ReactorChoice::Poll),
            "epoll" => Ok(ReactorChoice::Epoll),
            other => Err(format!(
                "unknown reactor {other:?} (expected poll|epoll|auto)"
            )),
        }
    }
}

/// Tuning knobs of [`EventServer::bind`](crate::EventServer::bind).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections served; the next accept is answered with
    /// `ERR busy` and closed.
    pub max_connections: usize,
    /// Executor threads queries run on (0 = one per available core).
    pub executors: usize,
    /// Readiness backend.
    pub reactor: ReactorChoice,
    /// Per-connection idle timeout: a connection making no read or
    /// write progress for this long is evicted (counted in
    /// `conns_evicted`). `None` (default) never evicts — idle keepalive
    /// connections are legal.
    pub idle_timeout: Option<Duration>,
    /// Global in-flight query budget across all connections; queries
    /// past it are answered `ERR overloaded` before their payload is
    /// parsed. `0` (default) sizes the budget automatically as
    /// `max_connections` times the per-connection pipeline cap — the
    /// bound the per-connection backpressure already implied, now
    /// enforced globally.
    pub max_inflight: usize,
    /// The `retry-after-ms` hint attached to `ERR busy` and
    /// `ERR overloaded` replies — how long a well-behaved client should
    /// back off before retrying.
    pub retry_after: Duration,
    /// Seeded network fault injection on the server's connection I/O
    /// (chaos testing). `None` (default) disables every hook; the
    /// steady-state cost of the disabled hooks is one branch per
    /// read/flush.
    pub fault: Option<crate::fault::NetFaultConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            executors: 0,
            reactor: ReactorChoice::Auto,
            idle_timeout: None,
            max_inflight: 0,
            retry_after: Duration::from_millis(100),
            fault: None,
        }
    }
}

/// Monotone server-lifetime counters, updated live by every connection.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) queries: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) connections: AtomicU64,
    pub(crate) conns_peak: AtomicU64,
    pub(crate) pipeline_depth_max: AtomicU64,
    pub(crate) frames_binary: AtomicU64,
    /// [`ReactorKind`] wire code; written once when a front-end starts.
    pub(crate) reactor_backend: AtomicU64,
    pub(crate) poll_iterations: AtomicU64,
    pub(crate) events_dispatched: AtomicU64,
    pub(crate) writev_calls: AtomicU64,
    pub(crate) conns_evicted: AtomicU64,
    pub(crate) queries_shed: AtomicU64,
    pub(crate) retries_observed: AtomicU64,
    pub(crate) deadline_cancels: AtomicU64,
    pub(crate) jobs_inline: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn extras(&self) -> ServerExtras {
        ServerExtras {
            conns_peak: self.conns_peak.load(Ordering::Relaxed),
            pipeline_depth_max: self.pipeline_depth_max.load(Ordering::Relaxed),
            frames_binary: self.frames_binary.load(Ordering::Relaxed),
            reactor_backend: u8::try_from(self.reactor_backend.load(Ordering::Relaxed))
                .ok()
                .and_then(|code| ReactorKind::from_code(code).ok())
                .unwrap_or_default(),
            poll_iterations: self.poll_iterations.load(Ordering::Relaxed),
            events_dispatched: self.events_dispatched.load(Ordering::Relaxed),
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            conns_evicted: self.conns_evicted.load(Ordering::Relaxed),
            queries_shed: self.queries_shed.load(Ordering::Relaxed),
            retries_observed: self.retries_observed.load(Ordering::Relaxed),
            deadline_cancels: self.deadline_cancels.load(Ordering::Relaxed),
            jobs_inline: self.jobs_inline.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the reactor, its executors, and
/// [`ShutdownHandle`]s.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) totals: Counters,
    pub(crate) addr: SocketAddr,
}

impl Shared {
    pub(crate) fn new(addr: SocketAddr) -> Shared {
        Shared {
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            totals: Counters::default(),
            addr,
        }
    }

    /// Flips the shutdown flag and pokes the listener with a loopback
    /// connect (ignored if the listener is already gone): the listener
    /// turns readable, so the reactor's wait returns immediately —
    /// drain latency is wakeup-bound, not timeout-bound.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A clonable handle that stops a running
/// [`EventServer::serve`](crate::EventServer::serve) loop — the
/// process's SIGTERM path calls this from any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(pub(crate) std::sync::Arc<Shared>);

impl ShutdownHandle {
    /// Initiates drain: stop accepting, let in-flight requests finish,
    /// close connections, return from `serve`.
    pub fn shutdown(&self) {
        self.0.request_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.is_shutdown()
    }
}
