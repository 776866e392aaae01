//! The newline-delimited text protocol spoken between `knmatch serve` and
//! its clients (DESIGN.md §11).
//!
//! One request per line, one response line per request (a `BATCH` request
//! is followed by its query lines and answered by one response line per
//! query plus a `DONE` trailer). Everything is UTF-8 text; floats are
//! rendered with Rust's shortest round-trip `Display`, so a value parsed
//! back with `str::parse::<f64>` is bit-identical to the one the server
//! computed — the cross-check tests compare served answers to direct
//! engine calls with `==`, not with a tolerance.
//!
//! ## Requests
//!
//! ```text
//! KNM <k> <n> <v,v,...>          k-n-match
//! FREQ <k> <n0> <n1> <v,v,...>   frequent k-n-match over n ∈ [n0, n1]
//! EPS <eps> <n> <v,v,...>        ε-n-match
//! BATCH <count>                  next <count> lines are query lines
//! DEADLINE <ms>                  per-query budget for later queries (0 clears)
//! FAILFAST <0|1>                 fail-fast for later BATCH runs
//! PLANNER <mode>                 backend choice for later queries
//!                                (auto|ad|vafile|scan|igrid; planner-capable
//!                                engines only — others ignore it)
//! STATS                          connection + server counters
//! PING                           liveness probe
//! QUIT                           close this connection
//! SHUTDOWN                       drain and stop the whole server
//! INSERT <key> <v,v,...>         upsert one point (mutable engines only)
//! DELETE <key>                   remove one point (mutable engines only)
//! EPOCH                          current version counters
//! SEAL                           seal the write delta into a run
//! ```
//!
//! ## Responses
//!
//! ```text
//! OK KNM <n> <pid:diff,...|->
//! OK EPS <n> <pid:diff,...|->
//! OK FREQ <n0> <n1> <pid:count,...|-> <n=pid:diff,...;...|->
//! OK DEADLINE <ms> | OK FAILFAST <0|1> | OK PLANNER <mode>
//! OK PONG | OK BYE | OK SHUTDOWN
//! OK INSERT <epoch> | OK DELETE <epoch> | OK SEAL <epoch>
//! OK EPOCH <epoch> <live> <delta> <runs>
//! OK STATS <conn six counters> <server six counters> [optional groups]
//! DONE <ok> <failed>
//! ERR <kind> <message...>
//! ```
//!
//! A `STATS` line is twelve mandatory labelled counters (the connection
//! and server scopes) followed by optional labelled groups, each
//! declared once in [`STATS_GROUPS`](self) and rendered/parsed/encoded
//! from that single table: the four plan counters (`plans_ad= …`,
//! cost-based planner routing), the reactor extras (`conns_peak= …`,
//! split into the legacy three-counter group, the backend group and the
//! robustness group so lines from older servers still parse), and the
//! version counters of a mutable engine (`epoch= live= delta= runs=
//! tombstones= writes= merges=`). Groups are self-describing through
//! their leading label, so every historical field count
//! (12/15/16/19/23/27) and the new version-bearing shapes parse with
//! the same walk.
//!
//! ## Binary frames
//!
//! Alongside the text protocol the same [`Request`]/[`Response`] values
//! travel as length-prefixed binary frames (DESIGN.md §13), sniffed per
//! frame on the first byte: [`FRAME_MAGIC`] (`0xA7`) never starts a text
//! line, so one connection may freely interleave text lines and binary
//! frames. Frame layout:
//!
//! ```text
//! +-------+------+-------------+----------------------+
//! | magic | kind | len u32 LE  | payload (len bytes)  |
//! +-------+------+-------------+----------------------+
//! ```
//!
//! Floats cross as `f64::to_bits` little-endian words, so binary answers
//! are bit-identical to direct engine results by construction — no
//! formatting or parsing on the hot path. Binary requests get binary
//! responses; the `ERR` taxonomy is shared with the text protocol. A
//! frame whose `len` exceeds [`MAX_FRAME`] is drained and answered with
//! `ERR oversized`, mirroring the [`MAX_LINE`] rule for text.
//!
//! `ERR` kinds: `parse` (malformed request), `query` (validation or
//! storage failure), `timeout` (deadline exceeded), `cancelled`
//! (fail-fast), `oversized` (line longer than [`MAX_LINE`]), `busy`
//! (connection limit), `proto` (valid verb, unusable arguments, e.g. a
//! `BATCH` count over [`MAX_BATCH`]), `shutdown` (server is draining).
//! Errors never close the connection except `busy` and `shutdown`.

use std::fmt::Write as _;

use knmatch_core::{
    BatchAnswer, BatchQuery, FrequentEntry, FrequentResult, KnMatchError, KnMatchResult,
    MatchEntry, PlanTally, PlannerMode,
};

/// Longest accepted request line in bytes (newline excluded). Longer
/// lines are drained and answered with `ERR oversized` — they never
/// poison the connection or the process.
pub const MAX_LINE: usize = 64 * 1024;

/// Largest accepted `BATCH <count>`. A bigger count is answered with
/// `ERR proto` before any query line is read.
pub const MAX_BATCH: usize = 65_536;

/// A malformed or unrepresentable protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

/// The error categories of an `ERR` response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line did not parse.
    Parse,
    /// The query failed validation or execution.
    Query,
    /// The query ran past its deadline.
    Timeout,
    /// The query was cancelled by a fail-fast batch.
    Cancelled,
    /// The request line exceeded [`MAX_LINE`].
    Oversized,
    /// The server's connection limit was reached; the connection closes.
    Busy,
    /// A structurally valid request with unusable arguments.
    Proto,
    /// The server is draining; the connection closes.
    Shutdown,
    /// The server shed this query under load; the connection stays open
    /// and the request may be retried (the message carries a
    /// `retry-after-ms=<N>` hint, see [`retry_after_ms`]).
    Overloaded,
}

impl ErrorKind {
    /// The wire token of this kind.
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Query => "query",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Busy => "busy",
            ErrorKind::Proto => "proto",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Overloaded => "overloaded",
        }
    }

    /// Parses a wire token back into a kind.
    pub fn from_token(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "parse" => ErrorKind::Parse,
            "query" => ErrorKind::Query,
            "timeout" => ErrorKind::Timeout,
            "cancelled" => ErrorKind::Cancelled,
            "oversized" => ErrorKind::Oversized,
            "busy" => ErrorKind::Busy,
            "proto" => ErrorKind::Proto,
            "shutdown" => ErrorKind::Shutdown,
            "overloaded" => ErrorKind::Overloaded,
            _ => return None,
        })
    }

    /// The category a failed query's [`KnMatchError`] maps to.
    pub fn of_error(e: &KnMatchError) -> ErrorKind {
        match e {
            KnMatchError::DeadlineExceeded => ErrorKind::Timeout,
            KnMatchError::Cancelled => ErrorKind::Cancelled,
            _ => ErrorKind::Query,
        }
    }
}

/// Appends a machine-readable retry hint to an `ERR busy`/`ERR
/// overloaded` message. Old clients see plain prose; new clients pull
/// the hint back out with [`retry_after_ms`] and use it as a backoff
/// floor — the hint rides inside the message so the wire shape of `ERR`
/// lines and frames is unchanged.
pub fn with_retry_after(message: &str, ms: u64) -> String {
    format!("{message}; retry-after-ms={ms}")
}

/// Extracts the `retry-after-ms=<N>` hint from an error message, if the
/// server attached one (see [`with_retry_after`]).
pub fn retry_after_ms(message: &str) -> Option<u64> {
    message
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("retry-after-ms=")?.parse().ok())
}

/// One six-counter scope of a `STATS` response: queries answered, error
/// responses, deadline timeouts, bytes read, bytes written, connections
/// accepted (always 1 for the per-connection scope).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Query lines answered (each `BATCH` member counts once).
    pub queries: u64,
    /// `ERR` responses written (any kind).
    pub errors: u64,
    /// `ERR timeout` responses among the errors.
    pub timeouts: u64,
    /// Request bytes read, newlines included.
    pub bytes_in: u64,
    /// Response bytes written, newlines included.
    pub bytes_out: u64,
    /// Connections accepted.
    pub connections: u64,
}

impl StatsSnapshot {
    fn render(&self, out: &mut String) {
        let _ = write!(
            out,
            "queries={} errors={} timeouts={} bytes_in={} bytes_out={} connections={}",
            self.queries,
            self.errors,
            self.timeouts,
            self.bytes_in,
            self.bytes_out,
            self.connections
        );
    }

    fn parse(fields: &[&str]) -> Result<StatsSnapshot, ProtoError> {
        let labels = [
            "queries",
            "errors",
            "timeouts",
            "bytes_in",
            "bytes_out",
            "connections",
        ];
        if fields.len() != labels.len() {
            return Err(err("STATS scope needs 6 counters"));
        }
        let mut vals = [0u64; 6];
        for (i, (field, label)) in fields.iter().zip(labels).enumerate() {
            let v = field
                .strip_prefix(label)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| err(format!("expected {label}=<u64>, got {field:?}")))?;
            vals[i] = parse_u64(v, label)?;
        }
        Ok(StatsSnapshot {
            queries: vals[0],
            errors: vals[1],
            timeouts: vals[2],
            bytes_in: vals[3],
            bytes_out: vals[4],
            connections: vals[5],
        })
    }
}

/// Which readiness backend a server's front-end is built on, reported in
/// `STATS` so clients, tests and benches can label results per backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReactorKind {
    /// No reactor running: what a bound server reports before `serve`
    /// picks its backend (wire code 0).
    #[default]
    None,
    /// The portable `poll(2)` event loop.
    Poll,
    /// The Linux edge-triggered `epoll(7)` event loop.
    Epoll,
}

impl ReactorKind {
    /// Wire code carried by the binary `STATS` frame (and stored in the
    /// server's atomic counter block).
    pub(crate) fn code(self) -> u8 {
        match self {
            ReactorKind::None => 0,
            ReactorKind::Poll => 1,
            ReactorKind::Epoll => 2,
        }
    }

    fn from_code(code: u8) -> Result<ReactorKind, ProtoError> {
        Ok(match code {
            0 => ReactorKind::None,
            1 => ReactorKind::Poll,
            2 => ReactorKind::Epoll,
            other => return Err(err(format!("unknown reactor code {other}"))),
        })
    }
}

impl std::fmt::Display for ReactorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReactorKind::None => "none",
            ReactorKind::Poll => "poll",
            ReactorKind::Epoll => "epoll",
        })
    }
}

impl std::str::FromStr for ReactorKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "none" => Ok(ReactorKind::None),
            "poll" => Ok(ReactorKind::Poll),
            "epoll" => Ok(ReactorKind::Epoll),
            other => Err(format!(
                "unknown reactor backend {other:?} (expected none|poll|epoll)"
            )),
        }
    }
}

/// The server-scope reactor counters appended to `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerExtras {
    /// Most connections simultaneously open over the server's lifetime.
    pub conns_peak: u64,
    /// Deepest per-connection pipeline observed (requests in flight on
    /// one connection, responses not yet written).
    pub pipeline_depth_max: u64,
    /// Binary frames received (complete or oversized-drained).
    pub frames_binary: u64,
    /// Readiness backend the front-end is running.
    pub reactor_backend: ReactorKind,
    /// Reactor loop iterations (wait syscalls issued).
    pub poll_iterations: u64,
    /// Readiness events handed to the loop across all iterations. Under
    /// `epoll` this tracks the *active* set — `events_dispatched /
    /// poll_iterations` stays proportional to ready connections, not
    /// total connections.
    pub events_dispatched: u64,
    /// `writev(2)` calls issued by the vectored flush path.
    pub writev_calls: u64,
    /// Connections evicted by the per-connection idle timeout (slow or
    /// stalled peers making no read/write progress).
    pub conns_evicted: u64,
    /// Queries answered `ERR overloaded` by the global in-flight budget
    /// before their payload was parsed.
    pub queries_shed: u64,
    /// Retry-prompting replies issued — `ERR busy` and `ERR overloaded`
    /// responses carrying a `retry-after-ms` hint. Each such reply tells
    /// a well-behaved client to back off and retry, so the counter
    /// tracks the retries the server asked for.
    pub retries_observed: u64,
    /// Jobs whose propagated absolute deadline had already expired when
    /// an executor picked them up: every query in the job is answered
    /// `ERR timeout` without touching the engine.
    pub deadline_cancels: u64,
}

/// The version counters of a mutable (epoch-versioned) engine, appended
/// to `STATS` by servers running one (see `knmatch serve --mutable`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionCounters {
    /// Current epoch (bumped by every insert/delete).
    pub epoch: u64,
    /// Live points visible at the current epoch.
    pub live: u64,
    /// Rows in the unsealed write delta.
    pub delta: u64,
    /// Sealed immutable runs.
    pub runs: u64,
    /// Tombstones across all sealed runs.
    pub tombstones: u64,
    /// Writes accepted (inserts plus deletes) over the engine lifetime.
    pub writes: u64,
    /// Run compactions completed.
    pub merges: u64,
}

impl From<knmatch_core::VersionStats> for VersionCounters {
    fn from(s: knmatch_core::VersionStats) -> Self {
        VersionCounters {
            epoch: s.epoch,
            live: s.live as u64,
            delta: s.delta_len as u64,
            runs: s.runs as u64,
            tombstones: s.tombstones as u64,
            writes: s.inserts + s.removes,
            merges: s.merges,
        }
    }
}

// ---------------------------------------------------------------------------
// The STATS field table
// ---------------------------------------------------------------------------
//
// Every *optional* group of a STATS response — its text labels, its
// binary flag bit, its field order — is declared once here. The text
// renderer, text parser, binary encoder and binary decoder all walk
// this table, so a new group (like the version counters) is one table
// entry plus its flag constant, and the four codecs cannot drift.

/// The flattened payload of a `STATS` response while it is being
/// rendered or parsed: every group's fields at rest, plus a presence
/// bitmask using the binary flag bits.
#[derive(Debug, Default)]
struct StatsBody {
    conn: StatsSnapshot,
    server: StatsSnapshot,
    present: u8,
    plans: PlanTally,
    extras: ServerExtras,
    version: VersionCounters,
}

/// How one labelled field reads and writes its slot in [`StatsBody`].
enum FieldKind {
    /// A plain `u64` counter (`label=<u64>` in text, LE `u64` in binary).
    Counter {
        get: fn(&StatsBody) -> u64,
        set: fn(&mut StatsBody, u64),
    },
    /// The reactor-backend token (`label=<none|poll|epoll>` in text, one
    /// code byte in binary).
    Backend {
        get: fn(&StatsBody) -> ReactorKind,
        set: fn(&mut StatsBody, ReactorKind),
    },
}

/// One labelled field of a `STATS` group.
struct StatsField {
    label: &'static str,
    kind: FieldKind,
}

/// One optional `STATS` group: its binary flag bit, the flags that must
/// accompany it, and its fields in wire order. A group's presence on the
/// text wire is announced by its first field's label.
struct StatsGroup {
    flag: u8,
    requires: u8,
    fields: &'static [StatsField],
}

const fn counter(
    label: &'static str,
    get: fn(&StatsBody) -> u64,
    set: fn(&mut StatsBody, u64),
) -> StatsField {
    StatsField {
        label,
        kind: FieldKind::Counter { get, set },
    }
}

/// Every optional group, in wire order. The extras split into three
/// groups (legacy counters, backend, robustness) purely so lines and
/// frames from older servers — which omit the later groups — still
/// parse; all three land in one [`ServerExtras`].
const STATS_GROUPS: &[StatsGroup] = &[
    StatsGroup {
        flag: STATS_HAS_PLANS,
        requires: 0,
        fields: &[
            counter("plans_ad", |b| b.plans.ad, |b, v| b.plans.ad = v),
            counter(
                "plans_vafile",
                |b| b.plans.vafile,
                |b, v| b.plans.vafile = v,
            ),
            counter("plans_scan", |b| b.plans.scan, |b, v| b.plans.scan = v),
            counter("plans_igrid", |b| b.plans.igrid, |b, v| b.plans.igrid = v),
        ],
    },
    StatsGroup {
        flag: STATS_HAS_EXTRAS,
        requires: 0,
        fields: &[
            counter(
                "conns_peak",
                |b| b.extras.conns_peak,
                |b, v| b.extras.conns_peak = v,
            ),
            counter(
                "pipeline_depth_max",
                |b| b.extras.pipeline_depth_max,
                |b, v| b.extras.pipeline_depth_max = v,
            ),
            counter(
                "frames_binary",
                |b| b.extras.frames_binary,
                |b, v| b.extras.frames_binary = v,
            ),
        ],
    },
    StatsGroup {
        flag: STATS_HAS_REACTOR,
        requires: STATS_HAS_EXTRAS,
        fields: &[
            StatsField {
                label: "reactor_backend",
                kind: FieldKind::Backend {
                    get: |b| b.extras.reactor_backend,
                    set: |b, v| b.extras.reactor_backend = v,
                },
            },
            counter(
                "poll_iterations",
                |b| b.extras.poll_iterations,
                |b, v| b.extras.poll_iterations = v,
            ),
            counter(
                "events_dispatched",
                |b| b.extras.events_dispatched,
                |b, v| b.extras.events_dispatched = v,
            ),
            counter(
                "writev_calls",
                |b| b.extras.writev_calls,
                |b, v| b.extras.writev_calls = v,
            ),
        ],
    },
    StatsGroup {
        flag: STATS_HAS_ROBUST,
        requires: STATS_HAS_EXTRAS,
        fields: &[
            counter(
                "conns_evicted",
                |b| b.extras.conns_evicted,
                |b, v| b.extras.conns_evicted = v,
            ),
            counter(
                "queries_shed",
                |b| b.extras.queries_shed,
                |b, v| b.extras.queries_shed = v,
            ),
            counter(
                "retries_observed",
                |b| b.extras.retries_observed,
                |b, v| b.extras.retries_observed = v,
            ),
            counter(
                "deadline_cancels",
                |b| b.extras.deadline_cancels,
                |b, v| b.extras.deadline_cancels = v,
            ),
        ],
    },
    StatsGroup {
        flag: STATS_HAS_VERSION,
        requires: 0,
        fields: &[
            counter("epoch", |b| b.version.epoch, |b, v| b.version.epoch = v),
            counter("live", |b| b.version.live, |b, v| b.version.live = v),
            counter("delta", |b| b.version.delta, |b, v| b.version.delta = v),
            counter("runs", |b| b.version.runs, |b, v| b.version.runs = v),
            counter(
                "tombstones",
                |b| b.version.tombstones,
                |b, v| b.version.tombstones = v,
            ),
            counter("writes", |b| b.version.writes, |b, v| b.version.writes = v),
            counter("merges", |b| b.version.merges, |b, v| b.version.merges = v),
        ],
    },
];

/// Every flag bit claimed by some group — the mask unknown binary flags
/// are checked against.
const STATS_KNOWN_FLAGS: u8 = {
    let mut mask = 0u8;
    let mut i = 0;
    while i < STATS_GROUPS.len() {
        mask |= STATS_GROUPS[i].flag;
        i += 1;
    }
    mask
};

impl StatsBody {
    /// Flattens a [`Response::Stats`]'s fields. A present extras value
    /// always announces all three extras groups — the renderers emit
    /// every field they know; only *parsers* tolerate elision.
    fn from_parts(
        conn: &StatsSnapshot,
        server: &StatsSnapshot,
        plans: &Option<PlanTally>,
        extras: &Option<ServerExtras>,
        version: &Option<VersionCounters>,
    ) -> StatsBody {
        let mut body = StatsBody {
            conn: *conn,
            server: *server,
            ..StatsBody::default()
        };
        if let Some(p) = plans {
            body.present |= STATS_HAS_PLANS;
            body.plans = *p;
        }
        if let Some(x) = extras {
            body.present |= STATS_HAS_EXTRAS | STATS_HAS_REACTOR | STATS_HAS_ROBUST;
            body.extras = *x;
        }
        if let Some(v) = version {
            body.present |= STATS_HAS_VERSION;
            body.version = *v;
        }
        body
    }

    /// Rebuilds the [`Response::Stats`] option fields. Partially present
    /// extras groups (legacy senders) collapse into one [`ServerExtras`]
    /// with the missing counters at their defaults.
    fn into_response(self) -> Response {
        Response::Stats {
            conn: self.conn,
            server: self.server,
            plans: (self.present & STATS_HAS_PLANS != 0).then_some(self.plans),
            extras: (self.present & STATS_HAS_EXTRAS != 0).then_some(self.extras),
            version: (self.present & STATS_HAS_VERSION != 0).then_some(self.version),
        }
    }
}

/// Renders the whole `STATS` payload (after `OK STATS `) from the table.
fn render_stats_text(out: &mut String, body: &StatsBody) {
    body.conn.render(out);
    out.push(' ');
    body.server.render(out);
    for group in STATS_GROUPS {
        if body.present & group.flag == 0 {
            continue;
        }
        for field in group.fields {
            match field.kind {
                FieldKind::Counter { get, .. } => {
                    let _ = write!(out, " {}={}", field.label, get(body));
                }
                FieldKind::Backend { get, .. } => {
                    let _ = write!(out, " {}={}", field.label, get(body));
                }
            }
        }
    }
}

/// Parses the fields after `OK STATS`: twelve mandatory counters, then
/// the optional groups in table order, each announced by its leading
/// label. Leftover fields that announce no group are an error, as is a
/// group whose prerequisites are absent.
fn parse_stats_text(rest: &[&str]) -> Result<Response, ProtoError> {
    if rest.len() < 12 {
        return Err(err("STATS needs at least 12 counters"));
    }
    let mut body = StatsBody {
        conn: StatsSnapshot::parse(&rest[..6])?,
        server: StatsSnapshot::parse(&rest[6..12])?,
        ..StatsBody::default()
    };
    let mut i = 12;
    for group in STATS_GROUPS {
        let lead = group.fields[0].label;
        let announced = rest
            .get(i)
            .and_then(|f| f.split_once('='))
            .is_some_and(|(label, _)| label == lead);
        if !announced {
            continue;
        }
        if body.present & group.requires != group.requires {
            return Err(err(format!(
                "STATS group led by {lead}= requires an absent earlier group"
            )));
        }
        if rest.len() - i < group.fields.len() {
            return Err(err(format!(
                "STATS group led by {lead}= needs {} fields",
                group.fields.len()
            )));
        }
        for field in group.fields {
            let v = rest[i]
                .strip_prefix(field.label)
                .and_then(|r| r.strip_prefix('='))
                .ok_or_else(|| {
                    err(format!(
                        "expected {}=<value>, got {:?}",
                        field.label, rest[i]
                    ))
                })?;
            match field.kind {
                FieldKind::Counter { set, .. } => set(&mut body, parse_u64(v, field.label)?),
                FieldKind::Backend { set, .. } => set(&mut body, v.parse().map_err(err)?),
            }
            i += 1;
        }
        body.present |= group.flag;
    }
    if i != rest.len() {
        return Err(err(format!("unexpected STATS field {:?}", rest[i])));
    }
    Ok(body.into_response())
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `KNM` / `FREQ` / `EPS`: run one query.
    Query(BatchQuery),
    /// `BATCH <count>`: the next `count` lines are query lines, run as
    /// one engine batch.
    Batch(usize),
    /// `DEADLINE <ms>`: set the per-query budget (0 clears it).
    Deadline(u64),
    /// `FAILFAST <0|1>`: toggle fail-fast for later batches.
    FailFast(bool),
    /// `PLANNER <mode>`: set the backend choice for later queries on this
    /// connection (planner-capable engines only; others ignore it).
    Planner(PlannerMode),
    /// `STATS`: report counters.
    Stats,
    /// `PING`: liveness probe.
    Ping,
    /// `QUIT`: close this connection.
    Quit,
    /// `SHUTDOWN`: drain and stop the server.
    Shutdown,
    /// `INSERT <key> <coords>`: upsert one point under `key` (mutable
    /// engines only; read-only servers answer `ERR query`).
    Insert {
        /// The key to store the point under.
        key: u32,
        /// The point's coordinates.
        point: Vec<f64>,
    },
    /// `DELETE <key>`: remove the point under `key` (mutable engines
    /// only).
    Delete(u32),
    /// `EPOCH`: report the mutable engine's version counters.
    Epoch,
    /// `SEAL`: seal the mutable engine's write delta into a run.
    Seal,
}

/// A parsed response line.
// One `Response` exists per line being encoded or decoded — it is
// never stored in bulk — so the size of the rare `Stats` variant
// (three optional counter groups) does not justify boxing it.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OK KNM` / `OK EPS` / `OK FREQ`: a query answer.
    Answer(BatchAnswer),
    /// `ERR <kind> <message>`.
    Error {
        /// The error category.
        kind: ErrorKind,
        /// Human-readable detail (single line).
        message: String,
    },
    /// `DONE <ok> <failed>`: the trailer after a batch's responses.
    Done {
        /// Queries answered with `OK`.
        ok: u64,
        /// Queries answered with `ERR`.
        failed: u64,
    },
    /// `OK DEADLINE <ms>`.
    Deadline(u64),
    /// `OK FAILFAST <0|1>`.
    FailFast(bool),
    /// `OK PLANNER <mode>`.
    Planner(PlannerMode),
    /// `OK STATS <connection scope> <server scope> [plan counters]`.
    Stats {
        /// This connection's counters.
        conn: StatsSnapshot,
        /// Server-lifetime counters.
        server: StatsSnapshot,
        /// Server-lifetime plan-choice counters, present when the served
        /// engine has a cost-based planner.
        plans: Option<PlanTally>,
        /// Server-lifetime reactor counters, present on servers that
        /// track them (absent only on pre-reactor servers).
        extras: Option<ServerExtras>,
        /// Version counters, present when the served engine is mutable.
        version: Option<VersionCounters>,
    },
    /// `OK PONG`.
    Pong,
    /// `OK BYE` (connection closing normally).
    Bye,
    /// `OK SHUTDOWN` (server draining; connection closing).
    ShuttingDown,
    /// `OK INSERT <epoch>`: the insert landed; this is the new epoch.
    Inserted(u64),
    /// `OK DELETE <epoch>`: the delete landed; this is the new epoch.
    Deleted(u64),
    /// `OK EPOCH <epoch> <live> <delta> <runs>`.
    Epoch {
        /// Current epoch.
        epoch: u64,
        /// Live points at that epoch.
        live: u64,
        /// Rows in the unsealed write delta.
        delta: u64,
        /// Sealed immutable runs.
        runs: u64,
    },
    /// `OK SEAL <epoch>`: the delta was sealed (current epoch echoed).
    Sealed(u64),
}

fn parse_u64(s: &str, what: &str) -> Result<u64, ProtoError> {
    s.parse()
        .map_err(|_| err(format!("{what}: expected unsigned integer, got {s:?}")))
}

fn parse_usize(s: &str, what: &str) -> Result<usize, ProtoError> {
    s.parse()
        .map_err(|_| err(format!("{what}: expected unsigned integer, got {s:?}")))
}

fn parse_f64(s: &str, what: &str) -> Result<f64, ProtoError> {
    s.parse()
        .map_err(|_| err(format!("{what}: expected float, got {s:?}")))
}

fn parse_coords(s: &str) -> Result<Vec<f64>, ProtoError> {
    s.split(',')
        .map(|v| parse_f64(v, "coordinate"))
        .collect::<Result<Vec<f64>, _>>()
}

/// Parses one request line (no trailing newline). The line must already
/// be within [`MAX_LINE`]; the server's line reader enforces that before
/// parsing.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let line = line.trim_end_matches('\r');
    let mut it = line.splitn(2, ' ');
    let verb = it.next().unwrap_or("");
    let rest = it.next().unwrap_or("");
    match verb {
        "KNM" | "FREQ" | "EPS" => parse_query(line).map(Request::Query),
        "BATCH" => Ok(Request::Batch(parse_usize(rest.trim(), "BATCH count")?)),
        "DEADLINE" => Ok(Request::Deadline(parse_u64(rest.trim(), "DEADLINE ms")?)),
        "FAILFAST" => match rest.trim() {
            "0" => Ok(Request::FailFast(false)),
            "1" => Ok(Request::FailFast(true)),
            other => Err(err(format!("FAILFAST takes 0 or 1, got {other:?}"))),
        },
        "PLANNER" => rest
            .trim()
            .parse::<PlannerMode>()
            .map(Request::Planner)
            .map_err(err),
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "INSERT" => match rest.trim().split_once(' ') {
            Some((key, coords)) => Ok(Request::Insert {
                key: key.parse().map_err(|_| err(format!("bad key {key:?}")))?,
                point: parse_coords(coords.trim())?,
            }),
            None => Err(err("INSERT takes <key> <coords>")),
        },
        "DELETE" => Ok(Request::Delete(
            rest.trim()
                .parse()
                .map_err(|_| err(format!("bad key {:?}", rest.trim())))?,
        )),
        "EPOCH" => Ok(Request::Epoch),
        "SEAL" => Ok(Request::Seal),
        "" => Err(err("empty request line")),
        other => Err(err(format!("unknown verb {other:?}"))),
    }
}

/// Parses a query line (`KNM` / `FREQ` / `EPS` only) — the grammar of the
/// lines following a `BATCH` request.
pub fn parse_query(line: &str) -> Result<BatchQuery, ProtoError> {
    let line = line.trim_end_matches('\r');
    let fields: Vec<&str> = line.split(' ').filter(|f| !f.is_empty()).collect();
    match fields.as_slice() {
        ["KNM", k, n, coords] => Ok(BatchQuery::KnMatch {
            query: parse_coords(coords)?,
            k: parse_usize(k, "k")?,
            n: parse_usize(n, "n")?,
        }),
        ["FREQ", k, n0, n1, coords] => Ok(BatchQuery::Frequent {
            query: parse_coords(coords)?,
            k: parse_usize(k, "k")?,
            n0: parse_usize(n0, "n0")?,
            n1: parse_usize(n1, "n1")?,
        }),
        ["EPS", eps, n, coords] => Ok(BatchQuery::EpsMatch {
            query: parse_coords(coords)?,
            eps: parse_f64(eps, "eps")?,
            n: parse_usize(n, "n")?,
        }),
        [verb, ..] if matches!(*verb, "KNM" | "FREQ" | "EPS") => Err(err(format!(
            "{verb}: wrong field count (want {})",
            if *verb == "FREQ" {
                "FREQ <k> <n0> <n1> <coords>"
            } else if *verb == "KNM" {
                "KNM <k> <n> <coords>"
            } else {
                "EPS <eps> <n> <coords>"
            }
        ))),
        _ => Err(err("expected a KNM, FREQ or EPS query line")),
    }
}

pub(crate) fn render_coords(out: &mut String, coords: &[f64]) {
    for (i, v) in coords.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
}

/// Renders a [`BatchQuery`] as its request line (no newline).
pub fn format_query(q: &BatchQuery) -> String {
    let mut out = String::new();
    match q {
        BatchQuery::KnMatch { query, k, n } => {
            let _ = write!(out, "KNM {k} {n} ");
            render_coords(&mut out, query);
        }
        BatchQuery::Frequent { query, k, n0, n1 } => {
            let _ = write!(out, "FREQ {k} {n0} {n1} ");
            render_coords(&mut out, query);
        }
        BatchQuery::EpsMatch { query, eps, n } => {
            let _ = write!(out, "EPS {eps} {n} ");
            render_coords(&mut out, query);
        }
    }
    out
}

fn render_entries(out: &mut String, entries: &[MatchEntry]) {
    if entries.is_empty() {
        out.push('-');
        return;
    }
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", e.pid, e.diff);
    }
}

fn parse_entries(s: &str) -> Result<Vec<MatchEntry>, ProtoError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|pair| {
            let (pid, diff) = pair
                .split_once(':')
                .ok_or_else(|| err(format!("expected pid:diff, got {pair:?}")))?;
            Ok(MatchEntry {
                pid: pid.parse().map_err(|_| err(format!("bad pid {pid:?}")))?,
                diff: parse_f64(diff, "diff")?,
            })
        })
        .collect()
}

/// Renders a [`Response`] as its wire line (no newline).
pub fn format_response(r: &Response) -> String {
    let mut out = String::new();
    match r {
        Response::Answer(BatchAnswer::KnMatch(res)) => {
            let _ = write!(out, "OK KNM {} ", res.n);
            render_entries(&mut out, &res.entries);
        }
        Response::Answer(BatchAnswer::EpsMatch(res)) => {
            let _ = write!(out, "OK EPS {} ", res.n);
            render_entries(&mut out, &res.entries);
        }
        Response::Answer(BatchAnswer::Frequent(res)) => {
            let _ = write!(out, "OK FREQ {} {} ", res.range.0, res.range.1);
            if res.entries.is_empty() {
                out.push('-');
            } else {
                for (i, e) in res.entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", e.pid, e.count);
                }
            }
            out.push(' ');
            if res.per_n.is_empty() {
                out.push('-');
            } else {
                for (i, level) in res.per_n.iter().enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    let _ = write!(out, "{}=", level.n);
                    render_entries(&mut out, &level.entries);
                }
            }
        }
        Response::Error { kind, message } => {
            // Newlines inside the message would desynchronise the stream.
            let msg = message.replace(['\n', '\r'], " ");
            let _ = write!(out, "ERR {} {msg}", kind.token());
        }
        Response::Done { ok, failed } => {
            let _ = write!(out, "DONE {ok} {failed}");
        }
        Response::Deadline(ms) => {
            let _ = write!(out, "OK DEADLINE {ms}");
        }
        Response::FailFast(on) => {
            let _ = write!(out, "OK FAILFAST {}", u8::from(*on));
        }
        Response::Planner(mode) => {
            let _ = write!(out, "OK PLANNER {mode}");
        }
        Response::Stats {
            conn,
            server,
            plans,
            extras,
            version,
        } => {
            out.push_str("OK STATS ");
            let body = StatsBody::from_parts(conn, server, plans, extras, version);
            render_stats_text(&mut out, &body);
        }
        Response::Pong => out.push_str("OK PONG"),
        Response::Bye => out.push_str("OK BYE"),
        Response::ShuttingDown => out.push_str("OK SHUTDOWN"),
        Response::Inserted(epoch) => {
            let _ = write!(out, "OK INSERT {epoch}");
        }
        Response::Deleted(epoch) => {
            let _ = write!(out, "OK DELETE {epoch}");
        }
        Response::Epoch {
            epoch,
            live,
            delta,
            runs,
        } => {
            let _ = write!(out, "OK EPOCH {epoch} {live} {delta} {runs}");
        }
        Response::Sealed(epoch) => {
            let _ = write!(out, "OK SEAL {epoch}");
        }
    }
    out
}

/// Parses one response line (no trailing newline) — the client half of
/// the protocol.
pub fn parse_response(line: &str) -> Result<Response, ProtoError> {
    let line = line.trim_end_matches('\r');
    let fields: Vec<&str> = line.split(' ').collect();
    match fields.as_slice() {
        ["OK", "KNM", n, entries] => Ok(Response::Answer(BatchAnswer::KnMatch(KnMatchResult {
            n: parse_usize(n, "n")?,
            entries: parse_entries(entries)?,
        }))),
        ["OK", "EPS", n, entries] => Ok(Response::Answer(BatchAnswer::EpsMatch(KnMatchResult {
            n: parse_usize(n, "n")?,
            entries: parse_entries(entries)?,
        }))),
        ["OK", "FREQ", n0, n1, ranked, levels] => {
            let entries = if *ranked == "-" {
                Vec::new()
            } else {
                ranked
                    .split(',')
                    .map(|pair| {
                        let (pid, count) = pair
                            .split_once(':')
                            .ok_or_else(|| err(format!("expected pid:count, got {pair:?}")))?;
                        Ok(FrequentEntry {
                            pid: pid.parse().map_err(|_| err(format!("bad pid {pid:?}")))?,
                            count: count
                                .parse()
                                .map_err(|_| err(format!("bad count {count:?}")))?,
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?
            };
            let per_n = if *levels == "-" {
                Vec::new()
            } else {
                levels
                    .split(';')
                    .map(|level| {
                        let (n, entries) = level
                            .split_once('=')
                            .ok_or_else(|| err(format!("expected n=entries, got {level:?}")))?;
                        Ok(KnMatchResult {
                            n: parse_usize(n, "level n")?,
                            entries: parse_entries(entries)?,
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?
            };
            Ok(Response::Answer(BatchAnswer::Frequent(FrequentResult {
                range: (parse_usize(n0, "n0")?, parse_usize(n1, "n1")?),
                entries,
                per_n,
            })))
        }
        ["ERR", kind, message @ ..] => Ok(Response::Error {
            kind: ErrorKind::from_token(kind)
                .ok_or_else(|| err(format!("unknown ERR kind {kind:?}")))?,
            message: message.join(" "),
        }),
        ["DONE", ok, failed] => Ok(Response::Done {
            ok: parse_u64(ok, "DONE ok")?,
            failed: parse_u64(failed, "DONE failed")?,
        }),
        ["OK", "DEADLINE", ms] => Ok(Response::Deadline(parse_u64(ms, "ms")?)),
        ["OK", "FAILFAST", v] => match *v {
            "0" => Ok(Response::FailFast(false)),
            "1" => Ok(Response::FailFast(true)),
            other => Err(err(format!("OK FAILFAST takes 0 or 1, got {other:?}"))),
        },
        ["OK", "PLANNER", mode] => mode
            .parse::<PlannerMode>()
            .map(Response::Planner)
            .map_err(err),
        ["OK", "STATS", rest @ ..] if rest.len() >= 12 => parse_stats_text(rest),
        ["OK", "PONG"] => Ok(Response::Pong),
        ["OK", "BYE"] => Ok(Response::Bye),
        ["OK", "SHUTDOWN"] => Ok(Response::ShuttingDown),
        ["OK", "INSERT", epoch] => Ok(Response::Inserted(parse_u64(epoch, "epoch")?)),
        ["OK", "DELETE", epoch] => Ok(Response::Deleted(parse_u64(epoch, "epoch")?)),
        ["OK", "EPOCH", epoch, live, delta, runs] => Ok(Response::Epoch {
            epoch: parse_u64(epoch, "epoch")?,
            live: parse_u64(live, "live")?,
            delta: parse_u64(delta, "delta")?,
            runs: parse_u64(runs, "runs")?,
        }),
        ["OK", "SEAL", epoch] => Ok(Response::Sealed(parse_u64(epoch, "epoch")?)),
        _ => Err(err(format!("unparseable response line {line:?}"))),
    }
}

/// Renders a failed query slot: the `ERR` response carrying the
/// [`KnMatchError`]'s category and display message.
pub fn error_response(e: &KnMatchError) -> Response {
    Response::Error {
        kind: ErrorKind::of_error(e),
        message: e.to_string(),
    }
}

/// The `ERR` response every write verb earns on a read-only engine
/// (one without a [`BatchEngine::writer`](knmatch_core::BatchEngine::writer)).
pub fn immutable_engine_error() -> Response {
    Response::Error {
        kind: ErrorKind::Query,
        message: "engine is immutable (serve with --mutable)".into(),
    }
}

// ---------------------------------------------------------------------------
// Binary frame codec
// ---------------------------------------------------------------------------

/// First byte of every binary frame. Text lines start with an ASCII verb
/// (`K`, `F`, `E`, `B`, `D`, `P`, `S`, `Q`, `O`) or a digit, never 0xA7,
/// so one sniffed byte routes each frame.
pub const FRAME_MAGIC: u8 = 0xA7;

/// Bytes before the payload: magic, kind, `len` as `u32` little-endian.
pub const FRAME_HEADER_LEN: usize = 6;

/// Largest accepted binary payload (64 MiB — a full [`MAX_BATCH`] of
/// wide queries fits with headroom). Bigger frames are drained and
/// answered with `ERR oversized`, like over-[`MAX_LINE`] text lines.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Request frame kinds. `REQ_QUERY` / `REQ_BATCH` are crate-visible so
/// the reactor's admission control can shed on the kind byte without
/// decoding the payload.
pub(crate) const REQ_QUERY: u8 = 0x01;
pub(crate) const REQ_BATCH: u8 = 0x02;
const REQ_DEADLINE: u8 = 0x03;
const REQ_FAILFAST: u8 = 0x04;
const REQ_PLANNER: u8 = 0x05;
const REQ_STATS: u8 = 0x06;
const REQ_PING: u8 = 0x07;
const REQ_QUIT: u8 = 0x08;
const REQ_SHUTDOWN: u8 = 0x09;
const REQ_INSERT: u8 = 0x0A;
const REQ_DELETE: u8 = 0x0B;
const REQ_EPOCH: u8 = 0x0C;
const REQ_SEAL: u8 = 0x0D;

/// Response frame kinds (high bit set).
const RESP_ANSWER: u8 = 0x81;
const RESP_ERR: u8 = 0x82;
const RESP_DONE: u8 = 0x83;
const RESP_DEADLINE: u8 = 0x84;
const RESP_FAILFAST: u8 = 0x85;
const RESP_PLANNER: u8 = 0x86;
const RESP_STATS: u8 = 0x87;
const RESP_PONG: u8 = 0x88;
const RESP_BYE: u8 = 0x89;
const RESP_SHUTDOWN: u8 = 0x8A;
const RESP_INSERT: u8 = 0x8B;
const RESP_DELETE: u8 = 0x8C;
const RESP_EPOCH: u8 = 0x8D;
const RESP_SEAL: u8 = 0x8E;

/// Tags inside query and answer payloads.
const TAG_KNM: u8 = 0x01;
const TAG_FREQ: u8 = 0x02;
const TAG_EPS: u8 = 0x03;

/// `STATS` payload flag bits. `STATS_HAS_REACTOR` extends the extras
/// group with the backend kind and its event counters, and
/// `STATS_HAS_ROBUST` with the overload/eviction counters; neither
/// appears without `STATS_HAS_EXTRAS`.
const STATS_HAS_PLANS: u8 = 0x01;
const STATS_HAS_EXTRAS: u8 = 0x02;
const STATS_HAS_REACTOR: u8 = 0x04;
const STATS_HAS_ROBUST: u8 = 0x08;
const STATS_HAS_VERSION: u8 = 0x10;

/// A decoded binary request. Binary `BATCH` frames are self-contained
/// (the queries travel inside the frame), unlike the text protocol where
/// `BATCH <count>` announces follow-up lines — hence the distinct shape.
#[derive(Debug, Clone, PartialEq)]
pub enum BinRequest {
    /// Every verb except `BATCH`, mapped onto the text [`Request`].
    One(Request),
    /// A self-contained batch: run as one engine batch, answered by one
    /// response frame per query plus a `DONE` trailer frame.
    Batch(Vec<BatchQuery>),
}

fn planner_code(mode: PlannerMode) -> u8 {
    match mode {
        PlannerMode::Auto => 0,
        PlannerMode::Ad => 1,
        PlannerMode::VaFile => 2,
        PlannerMode::Scan => 3,
        PlannerMode::IGrid => 4,
    }
}

fn planner_from_code(code: u8) -> Result<PlannerMode, ProtoError> {
    Ok(match code {
        0 => PlannerMode::Auto,
        1 => PlannerMode::Ad,
        2 => PlannerMode::VaFile,
        3 => PlannerMode::Scan,
        4 => PlannerMode::IGrid,
        other => return Err(err(format!("unknown planner code {other}"))),
    })
}

fn error_code(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::Parse => 0,
        ErrorKind::Query => 1,
        ErrorKind::Timeout => 2,
        ErrorKind::Cancelled => 3,
        ErrorKind::Oversized => 4,
        ErrorKind::Busy => 5,
        ErrorKind::Proto => 6,
        ErrorKind::Shutdown => 7,
        ErrorKind::Overloaded => 8,
    }
}

fn error_from_code(code: u8) -> Result<ErrorKind, ProtoError> {
    Ok(match code {
        0 => ErrorKind::Parse,
        1 => ErrorKind::Query,
        2 => ErrorKind::Timeout,
        3 => ErrorKind::Cancelled,
        4 => ErrorKind::Oversized,
        5 => ErrorKind::Busy,
        6 => ErrorKind::Proto,
        7 => ErrorKind::Shutdown,
        8 => ErrorKind::Overloaded,
        other => return Err(err(format!("unknown error code {other}"))),
    })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_coords(out: &mut Vec<u8>, coords: &[f64]) {
    put_u32(out, coords.len() as u32);
    for &v in coords {
        put_f64(out, v);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_entries(out: &mut Vec<u8>, entries: &[MatchEntry]) {
    put_u32(out, entries.len() as u32);
    for e in entries {
        put_u32(out, e.pid);
        put_f64(out, e.diff);
    }
}

fn put_snapshot(out: &mut Vec<u8>, s: &StatsSnapshot) {
    for v in [
        s.queries,
        s.errors,
        s.timeouts,
        s.bytes_in,
        s.bytes_out,
        s.connections,
    ] {
        put_u64(out, v);
    }
}

fn put_query(out: &mut Vec<u8>, q: &BatchQuery) {
    match q {
        BatchQuery::KnMatch { query, k, n } => {
            out.push(TAG_KNM);
            put_u32(out, *k as u32);
            put_u32(out, *n as u32);
            put_coords(out, query);
        }
        BatchQuery::Frequent { query, k, n0, n1 } => {
            out.push(TAG_FREQ);
            put_u32(out, *k as u32);
            put_u32(out, *n0 as u32);
            put_u32(out, *n1 as u32);
            put_coords(out, query);
        }
        BatchQuery::EpsMatch { query, eps, n } => {
            out.push(TAG_EPS);
            put_f64(out, *eps);
            put_u32(out, *n as u32);
            put_coords(out, query);
        }
    }
}

/// Bounded little-endian reader over one frame payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(err("truncated binary payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn coords(&mut self) -> Result<Vec<f64>, ProtoError> {
        let n = self.u32()? as usize;
        // The length claim must be covered by actual payload bytes before
        // any allocation — a forged count cannot balloon memory.
        if self.remaining() < n * 8 {
            return Err(err("coordinate count exceeds payload"));
        }
        (0..n).map(|_| self.f64()).collect()
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("non-UTF-8 string in binary frame"))
    }

    fn entries(&mut self) -> Result<Vec<MatchEntry>, ProtoError> {
        let n = self.u32()? as usize;
        if self.remaining() < n * 12 {
            return Err(err("entry count exceeds payload"));
        }
        (0..n)
            .map(|_| {
                Ok(MatchEntry {
                    pid: self.u32()?,
                    diff: self.f64()?,
                })
            })
            .collect()
    }

    fn snapshot(&mut self) -> Result<StatsSnapshot, ProtoError> {
        Ok(StatsSnapshot {
            queries: self.u64()?,
            errors: self.u64()?,
            timeouts: self.u64()?,
            bytes_in: self.u64()?,
            bytes_out: self.u64()?,
            connections: self.u64()?,
        })
    }

    fn query(&mut self) -> Result<BatchQuery, ProtoError> {
        match self.u8()? {
            TAG_KNM => Ok(BatchQuery::KnMatch {
                k: self.u32()? as usize,
                n: self.u32()? as usize,
                query: self.coords()?,
            }),
            TAG_FREQ => Ok(BatchQuery::Frequent {
                k: self.u32()? as usize,
                n0: self.u32()? as usize,
                n1: self.u32()? as usize,
                query: self.coords()?,
            }),
            TAG_EPS => Ok(BatchQuery::EpsMatch {
                eps: self.f64()?,
                n: self.u32()? as usize,
                query: self.coords()?,
            }),
            other => Err(err(format!("unknown query tag {other}"))),
        }
    }

    fn done(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(err("trailing bytes in binary payload"))
        }
    }
}

fn begin_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    out.push(FRAME_MAGIC);
    out.push(kind);
    out.extend_from_slice(&[0; 4]);
    out.len()
}

fn end_frame(out: &mut [u8], body: usize) {
    let len = (out.len() - body) as u32;
    out[body - 4..body].copy_from_slice(&len.to_le_bytes());
}

/// Appends one single-query request frame (the binary `KNM`/`FREQ`/`EPS`).
pub fn encode_query_frame(q: &BatchQuery, out: &mut Vec<u8>) {
    let body = begin_frame(out, REQ_QUERY);
    put_query(out, q);
    end_frame(out, body);
}

/// Appends one self-contained binary `BATCH` frame carrying `queries`.
pub fn encode_batch_frame(queries: &[BatchQuery], out: &mut Vec<u8>) {
    let body = begin_frame(out, REQ_BATCH);
    put_u32(out, queries.len() as u32);
    for q in queries {
        put_query(out, q);
    }
    end_frame(out, body);
}

/// Appends one request frame for any non-`BATCH` request.
///
/// # Errors
///
/// [`Request::Batch`] has no binary form (its count-only shape announces
/// text lines); use [`encode_batch_frame`] instead.
pub fn encode_request_frame(req: &Request, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    match req {
        Request::Query(q) => encode_query_frame(q, out),
        Request::Batch(_) => {
            return Err(err(
                "text BATCH header has no binary frame; use encode_batch_frame",
            ))
        }
        Request::Deadline(ms) => {
            let body = begin_frame(out, REQ_DEADLINE);
            put_u64(out, *ms);
            end_frame(out, body);
        }
        Request::FailFast(on) => {
            let body = begin_frame(out, REQ_FAILFAST);
            out.push(u8::from(*on));
            end_frame(out, body);
        }
        Request::Planner(mode) => {
            let body = begin_frame(out, REQ_PLANNER);
            out.push(planner_code(*mode));
            end_frame(out, body);
        }
        Request::Stats => {
            let body = begin_frame(out, REQ_STATS);
            end_frame(out, body);
        }
        Request::Ping => {
            let body = begin_frame(out, REQ_PING);
            end_frame(out, body);
        }
        Request::Quit => {
            let body = begin_frame(out, REQ_QUIT);
            end_frame(out, body);
        }
        Request::Shutdown => {
            let body = begin_frame(out, REQ_SHUTDOWN);
            end_frame(out, body);
        }
        Request::Insert { key, point } => {
            let body = begin_frame(out, REQ_INSERT);
            put_u32(out, *key);
            put_coords(out, point);
            end_frame(out, body);
        }
        Request::Delete(key) => {
            let body = begin_frame(out, REQ_DELETE);
            put_u32(out, *key);
            end_frame(out, body);
        }
        Request::Epoch => {
            let body = begin_frame(out, REQ_EPOCH);
            end_frame(out, body);
        }
        Request::Seal => {
            let body = begin_frame(out, REQ_SEAL);
            end_frame(out, body);
        }
    }
    Ok(())
}

/// Decodes a request frame's `kind` and `payload` (header already
/// stripped by the frame reader).
///
/// # Errors
///
/// Unknown kinds, truncated or oversized payload claims, a batch count
/// over [`MAX_BATCH`].
pub fn decode_request_frame(kind: u8, payload: &[u8]) -> Result<BinRequest, ProtoError> {
    let mut c = Cur::new(payload);
    let req = match kind {
        REQ_QUERY => BinRequest::One(Request::Query(c.query()?)),
        REQ_BATCH => {
            let count = c.u32()? as usize;
            if count > MAX_BATCH {
                return Err(err(format!("batch of {count} exceeds limit {MAX_BATCH}")));
            }
            // Each query costs at least its tag byte; reject forged counts
            // before reserving anything.
            if count > c.remaining() {
                return Err(err("batch count exceeds payload"));
            }
            let mut queries = Vec::with_capacity(count);
            for _ in 0..count {
                queries.push(c.query()?);
            }
            BinRequest::Batch(queries)
        }
        REQ_DEADLINE => BinRequest::One(Request::Deadline(c.u64()?)),
        REQ_FAILFAST => BinRequest::One(Request::FailFast(match c.u8()? {
            0 => false,
            1 => true,
            other => return Err(err(format!("FAILFAST takes 0 or 1, got {other}"))),
        })),
        REQ_PLANNER => BinRequest::One(Request::Planner(planner_from_code(c.u8()?)?)),
        REQ_STATS => BinRequest::One(Request::Stats),
        REQ_PING => BinRequest::One(Request::Ping),
        REQ_QUIT => BinRequest::One(Request::Quit),
        REQ_SHUTDOWN => BinRequest::One(Request::Shutdown),
        REQ_INSERT => BinRequest::One(Request::Insert {
            key: c.u32()?,
            point: c.coords()?,
        }),
        REQ_DELETE => BinRequest::One(Request::Delete(c.u32()?)),
        REQ_EPOCH => BinRequest::One(Request::Epoch),
        REQ_SEAL => BinRequest::One(Request::Seal),
        other => return Err(err(format!("unknown request frame kind {other:#04x}"))),
    };
    c.done()?;
    Ok(req)
}

/// Appends one response frame.
pub fn encode_response_frame(r: &Response, out: &mut Vec<u8>) {
    match r {
        Response::Answer(answer) => {
            let body = begin_frame(out, RESP_ANSWER);
            match answer {
                BatchAnswer::KnMatch(res) => {
                    out.push(TAG_KNM);
                    put_u32(out, res.n as u32);
                    put_entries(out, &res.entries);
                }
                BatchAnswer::EpsMatch(res) => {
                    out.push(TAG_EPS);
                    put_u32(out, res.n as u32);
                    put_entries(out, &res.entries);
                }
                BatchAnswer::Frequent(res) => {
                    out.push(TAG_FREQ);
                    put_u32(out, res.range.0 as u32);
                    put_u32(out, res.range.1 as u32);
                    put_u32(out, res.entries.len() as u32);
                    for e in &res.entries {
                        put_u32(out, e.pid);
                        put_u32(out, e.count);
                    }
                    put_u32(out, res.per_n.len() as u32);
                    for level in &res.per_n {
                        put_u32(out, level.n as u32);
                        put_entries(out, &level.entries);
                    }
                }
            }
            end_frame(out, body);
        }
        Response::Error { kind, message } => {
            let body = begin_frame(out, RESP_ERR);
            out.push(error_code(*kind));
            put_str(out, message);
            end_frame(out, body);
        }
        Response::Done { ok, failed } => {
            let body = begin_frame(out, RESP_DONE);
            put_u64(out, *ok);
            put_u64(out, *failed);
            end_frame(out, body);
        }
        Response::Deadline(ms) => {
            let body = begin_frame(out, RESP_DEADLINE);
            put_u64(out, *ms);
            end_frame(out, body);
        }
        Response::FailFast(on) => {
            let body = begin_frame(out, RESP_FAILFAST);
            out.push(u8::from(*on));
            end_frame(out, body);
        }
        Response::Planner(mode) => {
            let body = begin_frame(out, RESP_PLANNER);
            out.push(planner_code(*mode));
            end_frame(out, body);
        }
        Response::Stats {
            conn,
            server,
            plans,
            extras,
            version,
        } => {
            let body = begin_frame(out, RESP_STATS);
            let sb = StatsBody::from_parts(conn, server, plans, extras, version);
            out.push(sb.present);
            put_snapshot(out, &sb.conn);
            put_snapshot(out, &sb.server);
            for group in STATS_GROUPS {
                if sb.present & group.flag == 0 {
                    continue;
                }
                for field in group.fields {
                    match field.kind {
                        FieldKind::Counter { get, .. } => put_u64(out, get(&sb)),
                        FieldKind::Backend { get, .. } => out.push(get(&sb).code()),
                    }
                }
            }
            end_frame(out, body);
        }
        Response::Pong => {
            let body = begin_frame(out, RESP_PONG);
            end_frame(out, body);
        }
        Response::Bye => {
            let body = begin_frame(out, RESP_BYE);
            end_frame(out, body);
        }
        Response::ShuttingDown => {
            let body = begin_frame(out, RESP_SHUTDOWN);
            end_frame(out, body);
        }
        Response::Inserted(epoch) => {
            let body = begin_frame(out, RESP_INSERT);
            put_u64(out, *epoch);
            end_frame(out, body);
        }
        Response::Deleted(epoch) => {
            let body = begin_frame(out, RESP_DELETE);
            put_u64(out, *epoch);
            end_frame(out, body);
        }
        Response::Epoch {
            epoch,
            live,
            delta,
            runs,
        } => {
            let body = begin_frame(out, RESP_EPOCH);
            for v in [*epoch, *live, *delta, *runs] {
                put_u64(out, v);
            }
            end_frame(out, body);
        }
        Response::Sealed(epoch) => {
            let body = begin_frame(out, RESP_SEAL);
            put_u64(out, *epoch);
            end_frame(out, body);
        }
    }
}

/// Decodes a response frame's `kind` and `payload`.
///
/// # Errors
///
/// Unknown kinds or malformed payloads.
pub fn decode_response_frame(kind: u8, payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cur::new(payload);
    let resp = match kind {
        RESP_ANSWER => Response::Answer(match c.u8()? {
            TAG_KNM => BatchAnswer::KnMatch(KnMatchResult {
                n: c.u32()? as usize,
                entries: c.entries()?,
            }),
            TAG_EPS => BatchAnswer::EpsMatch(KnMatchResult {
                n: c.u32()? as usize,
                entries: c.entries()?,
            }),
            TAG_FREQ => {
                let range = (c.u32()? as usize, c.u32()? as usize);
                let n_ranked = c.u32()? as usize;
                if c.remaining() < n_ranked * 8 {
                    return Err(err("ranked count exceeds payload"));
                }
                let entries = (0..n_ranked)
                    .map(|_| {
                        Ok(FrequentEntry {
                            pid: c.u32()?,
                            count: c.u32()?,
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                let n_levels = c.u32()? as usize;
                if c.remaining() < n_levels * 8 {
                    return Err(err("level count exceeds payload"));
                }
                let per_n = (0..n_levels)
                    .map(|_| {
                        Ok(KnMatchResult {
                            n: c.u32()? as usize,
                            entries: c.entries()?,
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                BatchAnswer::Frequent(FrequentResult {
                    range,
                    entries,
                    per_n,
                })
            }
            other => return Err(err(format!("unknown answer tag {other}"))),
        }),
        RESP_ERR => Response::Error {
            kind: error_from_code(c.u8()?)?,
            message: c.string()?,
        },
        RESP_DONE => Response::Done {
            ok: c.u64()?,
            failed: c.u64()?,
        },
        RESP_DEADLINE => Response::Deadline(c.u64()?),
        RESP_FAILFAST => Response::FailFast(match c.u8()? {
            0 => false,
            1 => true,
            other => return Err(err(format!("OK FAILFAST takes 0 or 1, got {other}"))),
        }),
        RESP_PLANNER => Response::Planner(planner_from_code(c.u8()?)?),
        RESP_STATS => {
            let flags = c.u8()?;
            if flags & !STATS_KNOWN_FLAGS != 0 {
                return Err(err(format!("unknown STATS flags {flags:#04x}")));
            }
            for group in STATS_GROUPS {
                if flags & group.flag != 0 && flags & group.requires != group.requires {
                    return Err(err("STATS group present without its required group"));
                }
            }
            let mut sb = StatsBody {
                present: flags,
                conn: c.snapshot()?,
                server: c.snapshot()?,
                ..StatsBody::default()
            };
            for group in STATS_GROUPS {
                if flags & group.flag == 0 {
                    continue;
                }
                for field in group.fields {
                    match field.kind {
                        FieldKind::Counter { set, .. } => set(&mut sb, c.u64()?),
                        FieldKind::Backend { set, .. } => {
                            set(&mut sb, ReactorKind::from_code(c.u8()?)?)
                        }
                    }
                }
            }
            sb.into_response()
        }
        RESP_PONG => Response::Pong,
        RESP_BYE => Response::Bye,
        RESP_SHUTDOWN => Response::ShuttingDown,
        RESP_INSERT => Response::Inserted(c.u64()?),
        RESP_DELETE => Response::Deleted(c.u64()?),
        RESP_EPOCH => Response::Epoch {
            epoch: c.u64()?,
            live: c.u64()?,
            delta: c.u64()?,
            runs: c.u64()?,
        },
        RESP_SEAL => Response::Sealed(c.u64()?),
        other => return Err(err(format!("unknown response frame kind {other:#04x}"))),
    };
    c.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_query(q: BatchQuery) {
        let line = format_query(&q);
        assert_eq!(parse_query(&line).unwrap(), q);
        assert_eq!(parse_request(&line).unwrap(), Request::Query(q));
    }

    #[test]
    fn query_lines_roundtrip() {
        roundtrip_query(BatchQuery::KnMatch {
            query: vec![1.5, -2.25, 1.0 / 3.0],
            k: 2,
            n: 3,
        });
        roundtrip_query(BatchQuery::Frequent {
            query: vec![0.1, f64::MIN_POSITIVE, 1e300],
            k: 1,
            n0: 1,
            n1: 3,
        });
        roundtrip_query(BatchQuery::EpsMatch {
            query: vec![0.0, -0.0],
            eps: 0.125,
            n: 1,
        });
    }

    #[test]
    fn responses_roundtrip() {
        let answers = [
            Response::Answer(BatchAnswer::KnMatch(KnMatchResult {
                n: 2,
                entries: vec![
                    MatchEntry { pid: 3, diff: 0.5 },
                    MatchEntry {
                        pid: 7,
                        diff: 1.0 / 3.0,
                    },
                ],
            })),
            Response::Answer(BatchAnswer::EpsMatch(KnMatchResult {
                n: 1,
                entries: Vec::new(),
            })),
            Response::Answer(BatchAnswer::Frequent(FrequentResult {
                range: (1, 2),
                entries: vec![FrequentEntry { pid: 4, count: 2 }],
                per_n: vec![
                    KnMatchResult {
                        n: 1,
                        entries: vec![MatchEntry { pid: 4, diff: 0.25 }],
                    },
                    KnMatchResult {
                        n: 2,
                        entries: Vec::new(),
                    },
                ],
            })),
            Response::Error {
                kind: ErrorKind::Timeout,
                message: "query deadline exceeded".into(),
            },
            Response::Done { ok: 3, failed: 1 },
            Response::Deadline(250),
            Response::FailFast(true),
            Response::Planner(PlannerMode::VaFile),
            Response::Stats {
                conn: StatsSnapshot {
                    queries: 1,
                    errors: 2,
                    timeouts: 3,
                    bytes_in: 4,
                    bytes_out: 5,
                    connections: 1,
                },
                server: StatsSnapshot::default(),
                plans: None,
                extras: None,
                version: None,
            },
            Response::Stats {
                conn: StatsSnapshot::default(),
                server: StatsSnapshot::default(),
                plans: Some(PlanTally {
                    ad: 10,
                    vafile: 4,
                    scan: 2,
                    igrid: 0,
                }),
                extras: None,
                version: None,
            },
            Response::Stats {
                conn: StatsSnapshot::default(),
                server: StatsSnapshot::default(),
                plans: None,
                extras: Some(ServerExtras {
                    conns_peak: 4096,
                    pipeline_depth_max: 32,
                    frames_binary: 900,
                    reactor_backend: ReactorKind::Epoll,
                    poll_iterations: 120_000,
                    events_dispatched: 480_000,
                    writev_calls: 33_000,
                    conns_evicted: 3,
                    queries_shed: 41,
                    retries_observed: 44,
                    deadline_cancels: 5,
                }),
                version: None,
            },
            Response::Stats {
                conn: StatsSnapshot::default(),
                server: StatsSnapshot::default(),
                plans: Some(PlanTally {
                    ad: 1,
                    vafile: 2,
                    scan: 3,
                    igrid: 4,
                }),
                extras: Some(ServerExtras {
                    conns_peak: 7,
                    pipeline_depth_max: 8,
                    frames_binary: 9,
                    reactor_backend: ReactorKind::Poll,
                    poll_iterations: 10,
                    events_dispatched: 11,
                    writev_calls: 12,
                    ..ServerExtras::default()
                }),
                version: None,
            },
            Response::Stats {
                conn: StatsSnapshot::default(),
                server: StatsSnapshot::default(),
                plans: None,
                extras: None,
                version: Some(VersionCounters {
                    epoch: 31,
                    live: 900,
                    delta: 12,
                    runs: 3,
                    tombstones: 7,
                    writes: 40,
                    merges: 2,
                }),
            },
            Response::Stats {
                conn: StatsSnapshot::default(),
                server: StatsSnapshot::default(),
                plans: Some(PlanTally {
                    ad: 1,
                    vafile: 0,
                    scan: 0,
                    igrid: 0,
                }),
                extras: Some(ServerExtras::default()),
                version: Some(VersionCounters {
                    epoch: 5,
                    ..VersionCounters::default()
                }),
            },
            Response::Pong,
            Response::Bye,
            Response::ShuttingDown,
            Response::Inserted(17),
            Response::Deleted(18),
            Response::Epoch {
                epoch: 19,
                live: 20,
                delta: 21,
                runs: 22,
            },
            Response::Sealed(23),
        ];
        for r in answers {
            let line = format_response(&r);
            assert_eq!(parse_response(&line).unwrap(), r, "line {line:?}");
        }
    }

    #[test]
    fn write_verbs_parse() {
        assert_eq!(
            parse_request("INSERT 7 0.5,-1.25,3").unwrap(),
            Request::Insert {
                key: 7,
                point: vec![0.5, -1.25, 3.0],
            }
        );
        assert_eq!(parse_request("DELETE 9").unwrap(), Request::Delete(9));
        assert_eq!(parse_request("EPOCH").unwrap(), Request::Epoch);
        assert_eq!(parse_request("SEAL").unwrap(), Request::Seal);
    }

    #[test]
    fn planner_requests_roundtrip() {
        for mode in [
            PlannerMode::Auto,
            PlannerMode::Ad,
            PlannerMode::VaFile,
            PlannerMode::Scan,
            PlannerMode::IGrid,
        ] {
            assert_eq!(
                parse_request(&format!("PLANNER {mode}")).unwrap(),
                Request::Planner(mode)
            );
        }
    }

    #[test]
    fn error_messages_with_newlines_stay_one_line() {
        let r = Response::Error {
            kind: ErrorKind::Query,
            message: "multi\nline\r\nmessage".into(),
        };
        let line = format_response(&r);
        assert!(!line.contains('\n') && !line.contains('\r'));
        assert!(matches!(
            parse_response(&line).unwrap(),
            Response::Error {
                kind: ErrorKind::Query,
                ..
            }
        ));
    }

    #[test]
    fn error_kind_mapping() {
        assert_eq!(
            ErrorKind::of_error(&KnMatchError::DeadlineExceeded),
            ErrorKind::Timeout
        );
        assert_eq!(
            ErrorKind::of_error(&KnMatchError::Cancelled),
            ErrorKind::Cancelled
        );
        assert_eq!(
            ErrorKind::of_error(&KnMatchError::EmptyDataset),
            ErrorKind::Query
        );
        for kind in [
            ErrorKind::Parse,
            ErrorKind::Query,
            ErrorKind::Timeout,
            ErrorKind::Cancelled,
            ErrorKind::Oversized,
            ErrorKind::Busy,
            ErrorKind::Proto,
            ErrorKind::Shutdown,
            ErrorKind::Overloaded,
        ] {
            assert_eq!(ErrorKind::from_token(kind.token()), Some(kind));
            assert_eq!(error_from_code(error_code(kind)).unwrap(), kind);
        }
    }

    #[test]
    fn retry_after_hint_roundtrips_through_the_message() {
        let msg = with_retry_after("server overloaded", 250);
        assert_eq!(retry_after_ms(&msg), Some(250));
        // The hint survives the text wire inside an ERR line.
        let line = format_response(&Response::Error {
            kind: ErrorKind::Overloaded,
            message: msg.clone(),
        });
        match parse_response(&line).unwrap() {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert_eq!(retry_after_ms(&message), Some(250));
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        // Hint-free and malformed messages yield no hint.
        assert_eq!(retry_after_ms("connection limit reached"), None);
        assert_eq!(retry_after_ms("retry-after-ms=soon"), None);
    }

    /// Splits one encoded frame back into (kind, payload), checking the
    /// header along the way — the tests' stand-in for the frame reader.
    fn split_frame(bytes: &[u8]) -> (u8, &[u8]) {
        assert_eq!(bytes[0], FRAME_MAGIC);
        let len = u32::from_le_bytes(bytes[2..6].try_into().unwrap()) as usize;
        assert_eq!(bytes.len(), FRAME_HEADER_LEN + len, "frame length header");
        (bytes[1], &bytes[FRAME_HEADER_LEN..])
    }

    #[test]
    fn binary_requests_roundtrip() {
        let requests = [
            Request::Query(BatchQuery::KnMatch {
                query: vec![1.5, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0],
                k: 2,
                n: 3,
            }),
            Request::Query(BatchQuery::Frequent {
                query: vec![f64::NAN, 1e300],
                k: 1,
                n0: 1,
                n1: 2,
            }),
            Request::Query(BatchQuery::EpsMatch {
                query: vec![0.25],
                eps: 0.125,
                n: 1,
            }),
            Request::Deadline(250),
            Request::FailFast(true),
            Request::Planner(PlannerMode::IGrid),
            Request::Stats,
            Request::Ping,
            Request::Quit,
            Request::Shutdown,
            Request::Insert {
                key: 41,
                point: vec![0.5, -1.5, 1.0 / 3.0],
            },
            Request::Delete(42),
            Request::Epoch,
            Request::Seal,
        ];
        for req in requests {
            let mut bytes = Vec::new();
            encode_request_frame(&req, &mut bytes).unwrap();
            let (kind, payload) = split_frame(&bytes);
            let got = decode_request_frame(kind, payload).unwrap();
            // NaN breaks PartialEq; compare the re-encoded bytes instead,
            // which is the bit-exactness claim anyway.
            let round = match got {
                BinRequest::One(r) => {
                    let mut b = Vec::new();
                    encode_request_frame(&r, &mut b).unwrap();
                    b
                }
                BinRequest::Batch(_) => unreachable!("no batch encoded"),
            };
            assert_eq!(round, bytes);
        }
    }

    #[test]
    fn binary_batch_roundtrips_bit_exactly() {
        let queries = vec![
            BatchQuery::KnMatch {
                query: vec![0.1, 0.2, 0.3],
                k: 4,
                n: 2,
            },
            BatchQuery::EpsMatch {
                query: vec![-0.0, f64::INFINITY],
                eps: 1e-300,
                n: 1,
            },
        ];
        let mut bytes = Vec::new();
        encode_batch_frame(&queries, &mut bytes);
        let (kind, payload) = split_frame(&bytes);
        match decode_request_frame(kind, payload).unwrap() {
            BinRequest::Batch(got) => assert_eq!(got, queries),
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn binary_responses_roundtrip() {
        let responses = [
            Response::Answer(BatchAnswer::KnMatch(KnMatchResult {
                n: 2,
                entries: vec![
                    MatchEntry { pid: 3, diff: 0.5 },
                    MatchEntry {
                        pid: 7,
                        diff: 1.0 / 3.0,
                    },
                ],
            })),
            Response::Answer(BatchAnswer::EpsMatch(KnMatchResult {
                n: 1,
                entries: Vec::new(),
            })),
            Response::Answer(BatchAnswer::Frequent(FrequentResult {
                range: (1, 2),
                entries: vec![FrequentEntry { pid: 4, count: 2 }],
                per_n: vec![
                    KnMatchResult {
                        n: 1,
                        entries: vec![MatchEntry { pid: 4, diff: 0.25 }],
                    },
                    KnMatchResult {
                        n: 2,
                        entries: Vec::new(),
                    },
                ],
            })),
            Response::Error {
                kind: ErrorKind::Oversized,
                message: "frame too large".into(),
            },
            Response::Done { ok: 3, failed: 1 },
            Response::Deadline(0),
            Response::FailFast(false),
            Response::Planner(PlannerMode::Auto),
            Response::Stats {
                conn: StatsSnapshot {
                    queries: 1,
                    errors: 2,
                    timeouts: 3,
                    bytes_in: 4,
                    bytes_out: 5,
                    connections: 1,
                },
                server: StatsSnapshot::default(),
                plans: Some(PlanTally {
                    ad: 9,
                    vafile: 8,
                    scan: 7,
                    igrid: 6,
                }),
                extras: Some(ServerExtras {
                    conns_peak: 11,
                    pipeline_depth_max: 12,
                    frames_binary: 13,
                    reactor_backend: ReactorKind::Epoll,
                    poll_iterations: 14,
                    events_dispatched: 15,
                    writev_calls: 16,
                    conns_evicted: 17,
                    queries_shed: 18,
                    retries_observed: 19,
                    deadline_cancels: 20,
                }),
                version: Some(VersionCounters {
                    epoch: 21,
                    live: 22,
                    delta: 23,
                    runs: 24,
                    tombstones: 25,
                    writes: 26,
                    merges: 27,
                }),
            },
            Response::Pong,
            Response::Bye,
            Response::ShuttingDown,
            Response::Inserted(31),
            Response::Deleted(32),
            Response::Epoch {
                epoch: 33,
                live: 34,
                delta: 35,
                runs: 36,
            },
            Response::Sealed(37),
        ];
        for r in responses {
            let mut bytes = Vec::new();
            encode_response_frame(&r, &mut bytes);
            let (kind, payload) = split_frame(&bytes);
            assert_eq!(decode_response_frame(kind, payload).unwrap(), r);
        }
    }

    #[test]
    fn binary_decode_rejects_malice() {
        // Unknown kinds.
        assert!(decode_request_frame(0x7F, &[]).is_err());
        assert!(decode_response_frame(0x20, &[]).is_err());
        // Batch count claiming more queries than bytes.
        let mut forged = Vec::new();
        put_u32(&mut forged, 1_000_000);
        assert!(decode_request_frame(REQ_BATCH, &forged).is_err());
        // Coordinate count claiming more floats than bytes.
        let mut coords = vec![TAG_KNM];
        put_u32(&mut coords, 1);
        put_u32(&mut coords, 1);
        put_u32(&mut coords, u32::MAX);
        assert!(decode_request_frame(REQ_QUERY, &coords).is_err());
        // Trailing garbage after a well-formed payload.
        let mut ping = Vec::new();
        encode_request_frame(&Request::Ping, &mut ping).unwrap();
        assert!(decode_request_frame(ping[1], &[0u8]).is_err());
        // Truncated payloads at every length of a valid query frame.
        let mut q = Vec::new();
        encode_query_frame(
            &BatchQuery::KnMatch {
                query: vec![1.0, 2.0],
                k: 1,
                n: 1,
            },
            &mut q,
        );
        let (kind, payload) = split_frame(&q);
        for cut in 0..payload.len() {
            assert!(
                decode_request_frame(kind, &payload[..cut]).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn stats_parse_accepts_every_field_shape() {
        // 12, 15, 16, 19, 23 and 27 fields all parse; label prefixes
        // disambiguate the 15-, 16-, 19- and 23-field shapes.
        let base = Response::Stats {
            conn: StatsSnapshot::default(),
            server: StatsSnapshot::default(),
            plans: None,
            extras: None,
            version: None,
        };
        let line = format_response(&base);
        assert_eq!(parse_response(&line).unwrap(), base);
        // A 15-field line whose 13th field claims to be plans is rejected
        // rather than misread.
        let bad = format!("{line} plans_ad=1 plans_vafile=2 plans_scan=3");
        assert!(parse_response(&bad).is_err());
        // A legacy 15-field line (three-counter extras from a pre-backend
        // server) still parses; the backend fields default.
        let legacy = format!("{line} conns_peak=4 pipeline_depth_max=2 frames_binary=1");
        match parse_response(&legacy).unwrap() {
            Response::Stats { extras, .. } => assert_eq!(
                extras,
                Some(ServerExtras {
                    conns_peak: 4,
                    pipeline_depth_max: 2,
                    frames_binary: 1,
                    ..ServerExtras::default()
                })
            ),
            other => panic!("expected STATS, got {other:?}"),
        }
        // The 19-field shape stays ambiguous on count alone: plans plus
        // legacy extras, or no plans plus full extras. Labels decide.
        let plans_form = format!(
            "{line} plans_ad=1 plans_vafile=2 plans_scan=3 plans_igrid=4 \
             conns_peak=4 pipeline_depth_max=2 frames_binary=1"
        );
        match parse_response(&plans_form).unwrap() {
            Response::Stats { plans, extras, .. } => {
                assert!(plans.is_some());
                assert_eq!(extras.unwrap().reactor_backend, ReactorKind::None);
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        let backend_form = format!(
            "{line} conns_peak=4 pipeline_depth_max=2 frames_binary=1 \
             reactor_backend=epoll poll_iterations=5 events_dispatched=6 writev_calls=7"
        );
        match parse_response(&backend_form).unwrap() {
            Response::Stats { plans, extras, .. } => {
                assert!(plans.is_none());
                assert_eq!(extras.unwrap().reactor_backend, ReactorKind::Epoll);
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        // An unknown backend token is rejected, not defaulted.
        let unknown = format!(
            "{line} conns_peak=4 pipeline_depth_max=2 frames_binary=1 \
             reactor_backend=kqueue poll_iterations=5 events_dispatched=6 writev_calls=7"
        );
        assert!(parse_response(&unknown).is_err());
        // A pre-robustness 23-field line (plans plus 7-field extras)
        // still parses; the robustness counters default to zero.
        let legacy_23 = format!(
            "{line} plans_ad=1 plans_vafile=2 plans_scan=3 plans_igrid=4 \
             conns_peak=4 pipeline_depth_max=2 frames_binary=1 \
             reactor_backend=poll poll_iterations=5 events_dispatched=6 writev_calls=7"
        );
        match parse_response(&legacy_23).unwrap() {
            Response::Stats { plans, extras, .. } => {
                assert!(plans.is_some());
                let x = extras.unwrap();
                assert_eq!(x.writev_calls, 7);
                assert_eq!((x.conns_evicted, x.queries_shed), (0, 0));
                assert_eq!((x.retries_observed, x.deadline_cancels), (0, 0));
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        // 23 fields without plans is the no-plans robustness shape — the
        // same count as the legacy plans form, split by the labels.
        let robust_23 = format!(
            "{line} conns_peak=4 pipeline_depth_max=2 frames_binary=1 \
             reactor_backend=epoll poll_iterations=5 events_dispatched=6 writev_calls=7 \
             conns_evicted=8 queries_shed=9 retries_observed=10 deadline_cancels=11"
        );
        match parse_response(&robust_23).unwrap() {
            Response::Stats { plans, extras, .. } => {
                assert!(plans.is_none());
                let x = extras.unwrap();
                assert_eq!(x.reactor_backend, ReactorKind::Epoll);
                assert_eq!((x.conns_evicted, x.queries_shed), (8, 9));
                assert_eq!((x.retries_observed, x.deadline_cancels), (10, 11));
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        // The full 27-field shape must carry plans.
        let full = Response::Stats {
            conn: StatsSnapshot::default(),
            server: StatsSnapshot::default(),
            plans: Some(PlanTally {
                ad: 1,
                vafile: 2,
                scan: 3,
                igrid: 4,
            }),
            extras: Some(ServerExtras {
                conns_evicted: 8,
                queries_shed: 9,
                retries_observed: 10,
                deadline_cancels: 11,
                ..ServerExtras::default()
            }),
            version: None,
        };
        let full_line = format_response(&full);
        assert_eq!(parse_response(&full_line).unwrap(), full);
        // The version group composes with every earlier group and also
        // stands alone after the mandatory twelve.
        let versioned =
            format!("{full_line} epoch=3 live=40 delta=5 runs=2 tombstones=1 writes=9 merges=1");
        match parse_response(&versioned).unwrap() {
            Response::Stats { version, plans, .. } => {
                assert!(plans.is_some());
                assert_eq!(
                    version,
                    Some(VersionCounters {
                        epoch: 3,
                        live: 40,
                        delta: 5,
                        runs: 2,
                        tombstones: 1,
                        writes: 9,
                        merges: 1,
                    })
                );
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        let lone = format!("{line} epoch=1 live=2 delta=3 runs=4 tombstones=0 writes=5 merges=0");
        match parse_response(&lone).unwrap() {
            Response::Stats {
                plans,
                extras,
                version,
                ..
            } => {
                assert!(plans.is_none() && extras.is_none());
                assert_eq!(version.unwrap().live, 2);
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        // A truncated version group is rejected, as is a trailing field
        // that announces no group.
        assert!(parse_response(&format!("{line} epoch=1 live=2")).is_err());
        assert!(parse_response(&format!("{line} bogus=1")).is_err());
    }

    /// Binary STATS frames from pre-robustness servers (extras group
    /// without the `STATS_HAS_ROBUST` flag, or without the reactor
    /// group) still decode; the missing counters default to zero.
    #[test]
    fn binary_stats_accepts_legacy_flag_combos() {
        let conn = StatsSnapshot {
            queries: 5,
            ..StatsSnapshot::default()
        };
        let server = StatsSnapshot::default();
        for reactor in [false, true] {
            let mut payload = Vec::new();
            let mut flags = STATS_HAS_EXTRAS;
            if reactor {
                flags |= STATS_HAS_REACTOR;
            }
            payload.push(flags);
            put_snapshot(&mut payload, &conn);
            put_snapshot(&mut payload, &server);
            for v in [11u64, 12, 13] {
                put_u64(&mut payload, v);
            }
            if reactor {
                payload.push(ReactorKind::Poll.code());
                for v in [14u64, 15, 16] {
                    put_u64(&mut payload, v);
                }
            }
            match decode_response_frame(RESP_STATS, &payload).unwrap() {
                Response::Stats { extras, .. } => {
                    let x = extras.unwrap();
                    assert_eq!(x.conns_peak, 11);
                    assert_eq!(x.writev_calls, if reactor { 16 } else { 0 });
                    assert_eq!((x.conns_evicted, x.queries_shed), (0, 0));
                    assert_eq!((x.retries_observed, x.deadline_cancels), (0, 0));
                }
                other => panic!("expected STATS, got {other:?}"),
            }
        }
        // The robust group without the extras group stays rejected.
        let mut bad = Vec::new();
        bad.push(STATS_HAS_ROBUST);
        put_snapshot(&mut bad, &conn);
        put_snapshot(&mut bad, &server);
        assert!(decode_response_frame(RESP_STATS, &bad).is_err());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in [
            "",
            "BOGUS 1 2",
            "KNM 1 2",
            "KNM x 2 1,2",
            "KNM 1 2 1,abc",
            "FREQ 1 2 1,2",
            "EPS -s 1 1,2",
            "BATCH many",
            "FAILFAST 2",
            "DEADLINE soon",
            "PLANNER fastest",
            "PLANNER",
            "INSERT",
            "INSERT 5",
            "INSERT x 1,2",
            "INSERT 5 1,abc",
            "DELETE",
            "DELETE x",
        ] {
            assert!(parse_request(line).is_err(), "line {line:?}");
        }
        for line in ["", "OK", "OK KNM 1", "OK KNM x -", "ERR nope msg", "DONE 1"] {
            assert!(parse_response(line).is_err(), "line {line:?}");
        }
    }
}
