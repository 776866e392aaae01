//! Helpers shared by the served-path suites (each integration test is
//! its own crate, so not every suite uses every helper).
#![allow(dead_code)]

use std::net::SocketAddr;
use std::thread;

use knmatch_core::BatchEngine;
use knmatch_server::{
    EventServer, ReactorChoice, ServerConfig, ServerExtras, ShutdownHandle, StatsSnapshot,
};

/// The readiness backends this host can run: `poll` everywhere, plus
/// `epoll` on Linux.
pub fn backends() -> Vec<ReactorChoice> {
    if cfg!(target_os = "linux") {
        vec![ReactorChoice::Poll, ReactorChoice::Epoll]
    } else {
        vec![ReactorChoice::Poll]
    }
}

/// [`ServerConfig::default`] on the given readiness backend.
pub fn on(reactor: ReactorChoice) -> ServerConfig {
    ServerConfig {
        reactor,
        ..ServerConfig::default()
    }
}

/// Fires shutdown when dropped, so an assertion failure inside a test
/// body unblocks the scoped server thread instead of deadlocking the
/// `thread::scope` join.
struct ShutdownGuard(ShutdownHandle);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Binds an ephemeral-port server over `engine`, runs `f` against it,
/// shuts down, and returns the final counters plus the reactor extras.
/// `serve` itself asserts the buffer-pool leak ledger balances after the
/// drain, so every test through here checks "zero leaks" for free.
pub fn with_server<E, F>(engine: E, cfg: ServerConfig, f: F) -> (StatsSnapshot, ServerExtras)
where
    E: BatchEngine + Sync,
    F: FnOnce(SocketAddr),
{
    let server = EventServer::bind(engine, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    thread::scope(|s| {
        let serving = s.spawn(|| server.serve().expect("serve"));
        {
            let _guard = ShutdownGuard(server.handle());
            f(addr);
        }
        serving.join().expect("server thread");
    });
    (server.stats(), server.extras())
}
