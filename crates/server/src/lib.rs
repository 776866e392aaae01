//! # knmatch-server
//!
//! A std-only TCP front-end for batch k-n-match queries (DESIGN.md
//! §11, §13): a newline-delimited text [`protocol`] with a compact
//! binary frame alternative, one pipelined [`EventServer`] (unix only;
//! readiness via `poll(2)` or Linux edge-triggered `epoll`) written
//! against the [`BatchEngine`](knmatch_core::BatchEngine) trait (so the
//! run-list — default, sharded or mutable — planned and disk backends
//! share one serving path), a blocking [`Client`] with a pipelined mode, and the
//! [`EngineConfig`] flag grammar shared with the CLI. Non-unix hosts
//! keep everything but the server itself.
//!
//! ```no_run
//! # #[cfg(unix)] {
//! use knmatch_core::BatchQuery;
//! use knmatch_server::{Client, EngineConfig, EventServer, ServerConfig};
//!
//! let engine = EngineConfig::default().open("data.csv").unwrap();
//! let server = EventServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! std::thread::spawn(move || {
//!     let mut client = Client::connect(addr).unwrap();
//!     let reply = client
//!         .run_batch(&[BatchQuery::KnMatch { query: vec![0.5; 4], k: 2, n: 2 }])
//!         .unwrap();
//!     println!("{:?}", reply.answers[0]);
//!     handle.shutdown();
//! });
//! server.serve().unwrap(); // returns after the drain completes
//! # }
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the reactor's `poll(2)`/`writev(2)` and
// Linux `epoll(7)` bindings are the only narrowly-scoped
// `#[allow(unsafe_code)]` modules in the crate.
#![deny(unsafe_code)]

pub mod client;
pub mod config;
pub(crate) mod conn;
pub mod fault;
pub mod planner_engine;
pub mod protocol;
#[cfg(unix)]
pub mod reactor;
// Only the (unix) reactor constructs the shared state.
#[cfg_attr(not(unix), allow(dead_code))]
pub mod server;

pub use client::{
    run_with_options, BatchReply, Client, ClientError, EpochInfo, RequestOptions, RetryPolicy,
    RetryingClient, ServedError,
};
pub use config::{
    server_config_from_args, AnyEngine, AnyOutcome, Backend, EngineConfig, EngineConfigBuilder,
    DEFAULT_POOL_PAGES,
};
pub use fault::{FaultInjector, FaultTransport, NetFaultConfig};
pub use planner_engine::{PlannedEngine, PLAN_FRACTION_SAMPLE};
pub use protocol::{
    BinRequest, ErrorKind, ProtoError, ReactorKind, Request, Response, ServerExtras, StatsReport,
    StatsSnapshot, VersionCounters, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_BATCH, MAX_FRAME, MAX_LINE,
};
#[cfg(unix)]
pub use reactor::{EventServer, MAX_PIPELINE};
pub use server::{ReactorChoice, ServerConfig, ShutdownHandle};
