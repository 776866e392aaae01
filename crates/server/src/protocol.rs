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
//! Every verb whose request and reply carry at most a scalar or a fixed
//! run of counters is one row of [`VERBS`](self): its tokens, its binary
//! frame kinds and its argument shapes. The text parser and renderer and
//! the binary encoder and decoder all walk that table; only the
//! structured payloads (queries, batches, `INSERT`, answers, `ERR` and
//! `STATS`) have hand-written codecs.
//!
//! A `STATS` line is labelled counters in groups, each declared once in
//! [`STATS_GROUPS`](self) and rendered/parsed/encoded from that table:
//! the two mandatory six-counter scopes (connection, then server),
//! then the optional groups — the four plan counters (`plans_ad= …`,
//! cost-based planner routing), the reactor extras (`conns_peak= …`)
//! and the version counters of a mutable engine (`epoch= live= delta=
//! runs= tombstones= writes= merges=`). An optional group announces
//! itself on the text wire by its leading label and in binary by its
//! flag bit.
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
//! `ERR oversized`, mirroring the [`MAX_LINE`] rule for text. Counts that
//! a text line can spell past `u32::MAX` (`k`, `n`, `n0`, `n1`) saturate
//! at `u32::MAX` in a frame, so both encodings fail the same validation.
//!
//! `ERR` kinds: `parse` (malformed request), `query` (validation or
//! storage failure), `timeout` (deadline exceeded), `cancelled`
//! (fail-fast), `oversized` (line longer than [`MAX_LINE`]), `busy`
//! (connection limit), `proto` (valid verb, unusable arguments, e.g. a
//! `BATCH` count over [`MAX_BATCH`], in either encoding), `shutdown`
//! (server is draining). Errors never close the connection except
//! `busy` and `shutdown`.

use std::io::Write as _;

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

// ---------------------------------------------------------------------------
// Enum tokens and codes
// ---------------------------------------------------------------------------

/// The binary code of `v`: its index in a `(value, token)` table.
fn code_of<T: PartialEq>(table: &[(T, &str)], v: T) -> u8 {
    let i = table.iter().position(|(t, _)| *t == v);
    i.expect("every value has a table row") as u8
}

/// The text token of `v` in a `(value, token)` table.
fn token_of<T: PartialEq>(table: &[(T, &'static str)], v: T) -> &'static str {
    table[usize::from(code_of(table, v))].1
}

fn from_token<T: Copy>(table: &[(T, &str)], s: &str) -> Option<T> {
    table.iter().find(|(_, tok)| *tok == s).map(|&(t, _)| t)
}

fn from_code<T: Copy>(table: &[(T, &str)], code: u8, what: &str) -> Result<T, ProtoError> {
    let entry = table.get(usize::from(code));
    entry
        .map(|&(t, _)| t)
        .ok_or_else(|| err(format!("unknown {what} code {code}")))
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

/// Every `ERR` kind with its text token; a kind's binary code is its
/// index.
const ERROR_KINDS: &[(ErrorKind, &str)] = &[
    (ErrorKind::Parse, "parse"),
    (ErrorKind::Query, "query"),
    (ErrorKind::Timeout, "timeout"),
    (ErrorKind::Cancelled, "cancelled"),
    (ErrorKind::Oversized, "oversized"),
    (ErrorKind::Busy, "busy"),
    (ErrorKind::Proto, "proto"),
    (ErrorKind::Shutdown, "shutdown"),
    (ErrorKind::Overloaded, "overloaded"),
];

impl ErrorKind {
    /// The wire token of this kind.
    pub fn token(self) -> &'static str {
        token_of(ERROR_KINDS, self)
    }

    /// Parses a wire token back into a kind.
    pub fn from_token(s: &str) -> Option<ErrorKind> {
        from_token(ERROR_KINDS, s)
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

/// Which readiness backend a server's front-end is built on, reported in
/// `STATS` so clients, tests and benches can label results per backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReactorKind {
    /// No reactor running: what a bound server reports before `serve`
    /// picks its backend.
    #[default]
    None,
    /// The portable `poll(2)` event loop.
    Poll,
    /// The Linux edge-triggered `epoll(7)` event loop.
    Epoll,
}

/// Every backend with its text token; a backend's binary code (carried
/// by the binary `STATS` frame and stored in the server's atomic counter
/// block) is its index.
const REACTOR_KINDS: &[(ReactorKind, &str)] = &[
    (ReactorKind::None, "none"),
    (ReactorKind::Poll, "poll"),
    (ReactorKind::Epoll, "epoll"),
];

impl ReactorKind {
    pub(crate) fn code(self) -> u8 {
        code_of(REACTOR_KINDS, self)
    }

    pub(crate) fn from_code(code: u8) -> Result<ReactorKind, ProtoError> {
        from_code(REACTOR_KINDS, code, "reactor")
    }
}

impl std::fmt::Display for ReactorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(token_of(REACTOR_KINDS, *self))
    }
}

impl std::str::FromStr for ReactorKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        from_token(REACTOR_KINDS, s)
            .ok_or_else(|| format!("unknown reactor backend {s:?} (expected none|poll|epoll)"))
    }
}

/// The planner modes in binary-code order (a mode's code is its index);
/// their text spelling is [`PlannerMode`]'s own `Display` / `FromStr`.
const PLANNER_MODES: [PlannerMode; 5] = [
    PlannerMode::Auto,
    PlannerMode::Ad,
    PlannerMode::VaFile,
    PlannerMode::Scan,
    PlannerMode::IGrid,
];

fn planner_code(mode: PlannerMode) -> u8 {
    let i = PLANNER_MODES.iter().position(|&m| m == mode);
    i.expect("every mode has a code") as u8
}

fn planner_from_code(code: u8) -> Result<PlannerMode, ProtoError> {
    let mode = PLANNER_MODES.get(usize::from(code)).copied();
    mode.ok_or_else(|| err(format!("unknown planner code {code}")))
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
    /// Single-query jobs the reactor ran itself because their shape's
    /// measured engine time was below the executor hand-off; the rest
    /// of `queries` ran on the executors.
    pub jobs_inline: u64,
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

/// A `STATS` reply: the connection and server scopes, plus each optional
/// counter group the server tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// This connection's counters.
    pub conn: StatsSnapshot,
    /// Server-lifetime counters.
    pub server: StatsSnapshot,
    /// Server-lifetime plan-choice counters, present when the served
    /// engine has a cost-based planner.
    pub plans: Option<PlanTally>,
    /// Server-lifetime reactor and robustness counters, present on
    /// servers that track them.
    pub extras: Option<ServerExtras>,
    /// Version counters, present when the served engine is mutable.
    pub version: Option<VersionCounters>,
}

// ---------------------------------------------------------------------------
// The STATS field table
// ---------------------------------------------------------------------------
//
// Every group of a STATS response — its text labels, its binary flag
// bit, its field order — is declared once here. The text renderer, text
// parser, binary encoder and binary decoder all walk this table, so a
// new group is one table entry, and the four codecs cannot drift.

/// How one labelled field reads and writes its slot in a
/// [`StatsReport`]; writing a field of an optional group makes the group
/// present.
enum FieldKind {
    /// A plain `u64` counter (`label=<u64>` in text, LE `u64` in binary).
    Counter {
        get: fn(&StatsReport) -> u64,
        set: fn(&mut StatsReport, u64),
    },
    /// The reactor-backend token (`label=<none|poll|epoll>` in text, one
    /// code byte in binary).
    Backend {
        get: fn(&StatsReport) -> ReactorKind,
        set: fn(&mut StatsReport, ReactorKind),
    },
}

/// One labelled field of a `STATS` group.
struct StatsField {
    label: &'static str,
    kind: FieldKind,
}

/// One `STATS` group: its binary flag bit (0 for the mandatory scopes),
/// whether a report carries it, and its fields in wire order. An
/// optional group's presence on the text wire is announced by its first
/// field's label.
struct StatsGroup {
    flag: u8,
    has: fn(&StatsReport) -> bool,
    fields: &'static [StatsField],
}

/// A counter field: `scope.field` of a mandatory scope, or
/// `group?.field` of an optional group, labelled with the field's name
/// unless a label is given.
macro_rules! counter {
    ($scope:ident . $field:ident) => {
        counter!(@ stringify!($field), |b| b.$scope.$field, |b, v| b.$scope.$field = v)
    };
    ($group:ident ? . $field:ident) => {
        counter!(stringify!($field), $group?.$field)
    };
    ($label:expr, $group:ident ? . $field:ident) => {
        counter!(
            @ $label,
            |b| b.$group.unwrap_or_default().$field,
            |b, v| b.$group.get_or_insert_with(Default::default).$field = v
        )
    };
    (@ $label:expr, $get:expr, $set:expr) => {
        StatsField {
            label: $label,
            kind: FieldKind::Counter { get: $get, set: $set },
        }
    };
}

/// Every group, in wire order.
const STATS_GROUPS: &[StatsGroup] = &[
    StatsGroup {
        flag: 0,
        has: |_| true,
        fields: &[
            counter!(conn.queries),
            counter!(conn.errors),
            counter!(conn.timeouts),
            counter!(conn.bytes_in),
            counter!(conn.bytes_out),
            counter!(conn.connections),
        ],
    },
    StatsGroup {
        flag: 0,
        has: |_| true,
        fields: &[
            counter!(server.queries),
            counter!(server.errors),
            counter!(server.timeouts),
            counter!(server.bytes_in),
            counter!(server.bytes_out),
            counter!(server.connections),
        ],
    },
    StatsGroup {
        flag: 0x01,
        has: |r| r.plans.is_some(),
        fields: &[
            counter!("plans_ad", plans?.ad),
            counter!("plans_vafile", plans?.vafile),
            counter!("plans_scan", plans?.scan),
            counter!("plans_igrid", plans?.igrid),
        ],
    },
    StatsGroup {
        flag: 0x02,
        has: |r| r.extras.is_some(),
        fields: &[
            counter!(extras?.conns_peak),
            counter!(extras?.pipeline_depth_max),
            counter!(extras?.frames_binary),
            StatsField {
                label: "reactor_backend",
                kind: FieldKind::Backend {
                    get: |b| b.extras.unwrap_or_default().reactor_backend,
                    set: |b, v| {
                        b.extras
                            .get_or_insert_with(Default::default)
                            .reactor_backend = v
                    },
                },
            },
            counter!(extras?.poll_iterations),
            counter!(extras?.events_dispatched),
            counter!(extras?.writev_calls),
            counter!(extras?.conns_evicted),
            counter!(extras?.queries_shed),
            counter!(extras?.retries_observed),
            counter!(extras?.deadline_cancels),
            counter!(extras?.jobs_inline),
        ],
    },
    StatsGroup {
        flag: 0x10,
        has: |r| r.version.is_some(),
        fields: &[
            counter!(version?.epoch),
            counter!(version?.live),
            counter!(version?.delta),
            counter!(version?.runs),
            counter!(version?.tombstones),
            counter!(version?.writes),
            counter!(version?.merges),
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

/// The binary flags of the optional groups `r` carries.
fn stats_flags(r: &StatsReport) -> u8 {
    let present = STATS_GROUPS.iter().filter(|g| (g.has)(r));
    present.fold(0, |flags, g| flags | g.flag)
}

/// The fields of the groups a `flags` byte carries, in wire order.
fn stats_fields(flags: u8) -> impl Iterator<Item = &'static StatsField> {
    STATS_GROUPS
        .iter()
        .filter(move |g| g.flag == 0 || flags & g.flag != 0)
        .flat_map(|g| g.fields)
}

/// Renders the whole `STATS` payload (after `OK STATS`) from the table.
fn render_stats_text(out: &mut Vec<u8>, r: &StatsReport) {
    for field in stats_fields(stats_flags(r)) {
        let _ = match field.kind {
            FieldKind::Counter { get, .. } => write!(out, " {}={}", field.label, get(r)),
            FieldKind::Backend { get, .. } => write!(out, " {}={}", field.label, get(r)),
        };
    }
}

/// Parses the fields after `OK STATS`: the mandatory scopes, then the
/// optional groups in table order, each announced by its leading label.
/// Leftover fields that announce no group are an error.
fn parse_stats_text(rest: &[&str]) -> Result<StatsReport, ProtoError> {
    let mut report = StatsReport::default();
    let mut i = 0;
    for group in STATS_GROUPS {
        let lead = group.fields[0].label;
        let announced = rest
            .get(i)
            .and_then(|f| f.split_once('='))
            .is_some_and(|(label, _)| label == lead);
        if group.flag != 0 && !announced {
            continue;
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
                FieldKind::Counter { set, .. } => set(&mut report, parse_u64(v, field.label)?),
                FieldKind::Backend { set, .. } => set(&mut report, v.parse().map_err(err)?),
            }
            i += 1;
        }
    }
    if i != rest.len() {
        return Err(err(format!("unexpected STATS field {:?}", rest[i])));
    }
    Ok(report)
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
    /// `OK STATS <connection scope> <server scope> [optional groups]`.
    Stats(StatsReport),
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

// ---------------------------------------------------------------------------
// The verb table
// ---------------------------------------------------------------------------

/// The argument a table message carries after its token.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Nothing.
    Unit,
    /// One `u64`: decimal text, 8 LE bytes.
    U64,
    /// A flag: `0`/`1` in text, one byte in binary.
    Bool,
    /// A planner mode: its name in text, its code byte in binary.
    Mode,
    /// A point key: decimal text, 4 LE bytes.
    Key,
    /// A fixed run of up to [`MAX_RUN`] `u64`s, space-separated in text.
    Run(usize),
}

/// The longest [`Shape::Run`] any verb carries.
const MAX_RUN: usize = 4;

/// A value of some [`Shape`]; a run keeps its length beside its words.
#[derive(Debug, Clone, Copy)]
enum Arg {
    Unit,
    U64(u64),
    Bool(bool),
    Mode(PlannerMode),
    Key(u32),
    Run(usize, [u64; MAX_RUN]),
}

impl Arg {
    fn run(words: &[u64]) -> Arg {
        let mut w = [0; MAX_RUN];
        w[..words.len()].copy_from_slice(words);
        Arg::Run(words.len(), w)
    }
}

/// One request or reply of a [`Verb`]: its text token, its binary frame
/// kind, its argument shape, and the enum variant it maps to (`build`
/// from a parsed argument; `pick` the argument back out, `None` when the
/// value is another variant).
struct Msg<T> {
    token: &'static str,
    kind: u8,
    shape: Shape,
    build: fn(Arg) -> T,
    pick: fn(&T) -> Option<Arg>,
}

/// One verb: its request and its reply. `None` marks a half with a
/// hand-written codec.
struct Verb {
    request: Option<Msg<Request>>,
    reply: Option<Msg<Response>>,
}

/// One half of a [`VERBS`] row: `custom`, or `(token kind Variant)`
/// with an optional `(Shape)` argument or `{ fields }` run of `u64`s.
macro_rules! msg {
    ($T:ident custom) => {
        None
    };
    ($T:ident ($token:literal $kind:literal $V:ident)) => {
        Some(Msg {
            token: $token,
            kind: $kind,
            shape: Shape::Unit,
            build: |_| $T::$V,
            pick: |m| matches!(m, $T::$V).then_some(Arg::Unit),
        })
    };
    ($T:ident ($token:literal $kind:literal $V:ident($S:ident))) => {
        Some(Msg {
            token: $token,
            kind: $kind,
            shape: Shape::$S,
            build: |a| match a {
                Arg::$S(v) => $T::$V(v),
                other => unreachable!("{other:?} is not a {}", stringify!($S)),
            },
            pick: |m| match m {
                $T::$V(v) => Some(Arg::$S(*v)),
                _ => None,
            },
        })
    };
    ($T:ident ($token:literal $kind:literal $V:ident { $($f:ident),+ })) => {
        Some(Msg {
            token: $token,
            kind: $kind,
            shape: Shape::Run([$(stringify!($f)),+].len()),
            build: |a| {
                let Arg::Run(_, w) = a else {
                    unreachable!("{a:?} is not a run");
                };
                let mut w = w.into_iter();
                $T::$V { $($f: w.next().unwrap_or_default()),+ }
            },
            pick: |m| match m {
                $T::$V { $($f),+ } => Some(Arg::run(&[$(*$f),+])),
                _ => None,
            },
        })
    };
}

macro_rules! verbs {
    ($($request:tt => $reply:tt,)*) => {
        &[$(Verb { request: msg!(Request $request), reply: msg!(Response $reply) }),*]
    };
}

/// Every verb, declared once. Text parse and render and binary encode
/// and decode all walk this table; adding a verb whose arguments fit a
/// [`Shape`] is one row here plus its `Request`/`Response` variants.
const VERBS: &[Verb] = verbs! {
    ("DEADLINE" 0x03 Deadline(U64)) => ("OK DEADLINE" 0x84 Deadline(U64)),
    ("FAILFAST" 0x04 FailFast(Bool)) => ("OK FAILFAST" 0x85 FailFast(Bool)),
    ("PLANNER" 0x05 Planner(Mode)) => ("OK PLANNER" 0x86 Planner(Mode)),
    ("STATS" 0x06 Stats) => custom,
    ("PING" 0x07 Ping) => ("OK PONG" 0x88 Pong),
    ("QUIT" 0x08 Quit) => ("OK BYE" 0x89 Bye),
    ("SHUTDOWN" 0x09 Shutdown) => ("OK SHUTDOWN" 0x8A ShuttingDown),
    custom => ("OK INSERT" 0x8B Inserted(U64)),
    ("DELETE" 0x0B Delete(Key)) => ("OK DELETE" 0x8C Deleted(U64)),
    ("EPOCH" 0x0C Epoch) => ("OK EPOCH" 0x8D Epoch { epoch, live, delta, runs }),
    ("SEAL" 0x0D Seal) => ("OK SEAL" 0x8E Sealed(U64)),
    custom => ("DONE" 0x83 Done { ok, failed }),
};

fn requests() -> impl Iterator<Item = &'static Msg<Request>> {
    VERBS.iter().filter_map(|v| v.request.as_ref())
}

fn replies() -> impl Iterator<Item = &'static Msg<Response>> {
    VERBS.iter().filter_map(|v| v.reply.as_ref())
}

/// The table message `v` is, with its argument.
fn find<T: 'static>(
    mut msgs: impl Iterator<Item = &'static Msg<T>>,
    v: &T,
) -> (&'static Msg<T>, Arg) {
    msgs.find_map(|m| Some((m, (m.pick)(v)?)))
        .expect("every variant without a hand-written codec has a row in VERBS")
}

/// The table message whose token starts `line`, with the rest of the
/// line after the token.
fn find_token<T: 'static>(
    mut msgs: impl Iterator<Item = &'static Msg<T>>,
    line: &str,
) -> Option<(&'static Msg<T>, &str)> {
    msgs.find_map(|m| {
        let rest = line.strip_prefix(m.token)?;
        (rest.is_empty() || rest.starts_with(' ')).then_some((m, rest))
    })
}

impl<T> Msg<T> {
    /// Parses the text fields after the token.
    fn parse(&self, rest: &str) -> Result<T, ProtoError> {
        let mut fields = rest.split_whitespace();
        let mut next = || {
            fields
                .next()
                .ok_or_else(|| err(format!("{}: missing argument", self.token)))
        };
        let arg = match self.shape {
            Shape::Unit => Arg::Unit,
            Shape::U64 => Arg::U64(parse_u64(next()?, self.token)?),
            Shape::Bool => Arg::Bool(match next()? {
                "0" => false,
                "1" => true,
                other => return Err(err(format!("{} takes 0 or 1, got {other:?}", self.token))),
            }),
            Shape::Mode => Arg::Mode(next()?.parse().map_err(err)?),
            Shape::Key => {
                let key = next()?;
                Arg::Key(key.parse().map_err(|_| err(format!("bad key {key:?}")))?)
            }
            Shape::Run(n) => {
                let mut w = [0; MAX_RUN];
                for v in &mut w[..n] {
                    *v = parse_u64(next()?, self.token)?;
                }
                Arg::Run(n, w)
            }
        };
        match fields.next() {
            Some(extra) => Err(err(format!("{}: unexpected field {extra:?}", self.token))),
            None => Ok((self.build)(arg)),
        }
    }

    /// Renders the token and `arg` (no newline).
    fn render(&self, arg: Arg, out: &mut Vec<u8>) {
        out.extend_from_slice(self.token.as_bytes());
        let _ = match arg {
            Arg::Unit => Ok(()),
            Arg::U64(v) => write!(out, " {v}"),
            Arg::Bool(on) => write!(out, " {}", u8::from(on)),
            Arg::Mode(mode) => write!(out, " {mode}"),
            Arg::Key(key) => write!(out, " {key}"),
            Arg::Run(n, w) => w[..n].iter().try_for_each(|v| write!(out, " {v}")),
        };
    }

    /// Decodes the frame payload.
    fn decode(&self, c: &mut Cur<'_>) -> Result<T, ProtoError> {
        let arg = match self.shape {
            Shape::Unit => Arg::Unit,
            Shape::U64 => Arg::U64(c.u64()?),
            Shape::Bool => Arg::Bool(match c.u8()? {
                0 => false,
                1 => true,
                other => return Err(err(format!("{} takes 0 or 1, got {other}", self.token))),
            }),
            Shape::Mode => Arg::Mode(planner_from_code(c.u8()?)?),
            Shape::Key => Arg::Key(c.u32()?),
            Shape::Run(n) => {
                let mut w = [0; MAX_RUN];
                for v in &mut w[..n] {
                    *v = c.u64()?;
                }
                Arg::Run(n, w)
            }
        };
        Ok((self.build)(arg))
    }

    /// Appends the whole frame carrying `arg`.
    fn encode(&self, arg: Arg, out: &mut Vec<u8>) {
        let body = begin_frame(out, self.kind);
        match arg {
            Arg::Unit => {}
            Arg::U64(v) => put_u64(out, v),
            Arg::Bool(on) => out.push(u8::from(on)),
            Arg::Mode(mode) => out.push(planner_code(mode)),
            Arg::Key(key) => put_u32(out, key),
            Arg::Run(n, w) => w[..n].iter().for_each(|&v| put_u64(out, v)),
        }
        end_frame(out, body);
    }
}

// ---------------------------------------------------------------------------
// Text codec
// ---------------------------------------------------------------------------

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
    let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
    match verb {
        "KNM" | "FREQ" | "EPS" => parse_query(line).map(Request::Query),
        "BATCH" => Ok(Request::Batch(parse_usize(rest.trim(), "BATCH count")?)),
        "INSERT" => match rest.trim().split_once(' ') {
            Some((key, coords)) => Ok(Request::Insert {
                key: key.parse().map_err(|_| err(format!("bad key {key:?}")))?,
                point: parse_coords(coords.trim())?,
            }),
            None => Err(err("INSERT takes <key> <coords>")),
        },
        "" => Err(err("empty request line")),
        _ => match find_token(requests(), line) {
            Some((msg, rest)) => msg.parse(rest),
            None => Err(err(format!("unknown verb {verb:?}"))),
        },
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

fn render_coords(out: &mut Vec<u8>, coords: &[f64]) {
    for (i, v) in coords.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        let _ = write!(out, "{v}");
    }
}

/// Appends a [`BatchQuery`]'s request line, newline included.
pub fn encode_query_line(q: &BatchQuery, out: &mut Vec<u8>) {
    let coords = match q {
        BatchQuery::KnMatch { query, k, n } => {
            let _ = write!(out, "KNM {k} {n} ");
            query
        }
        BatchQuery::Frequent { query, k, n0, n1 } => {
            let _ = write!(out, "FREQ {k} {n0} {n1} ");
            query
        }
        BatchQuery::EpsMatch { query, eps, n } => {
            let _ = write!(out, "EPS {eps} {n} ");
            query
        }
    };
    render_coords(out, coords);
    out.push(b'\n');
}

/// Appends one request line, newline included — the text counterpart of
/// [`encode_request_frame`].
pub fn encode_request_line(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Query(q) => return encode_query_line(q, out),
        Request::Batch(count) => {
            let _ = write!(out, "BATCH {count}");
        }
        Request::Insert { key, point } => {
            let _ = write!(out, "INSERT {key} ");
            render_coords(out, point);
        }
        _ => {
            let (msg, arg) = find(requests(), req);
            msg.render(arg, out);
        }
    }
    out.push(b'\n');
}

/// Renders a [`BatchQuery`] as its request line (no newline).
pub fn format_query(q: &BatchQuery) -> String {
    let mut out = Vec::new();
    encode_query_line(q, &mut out);
    out.pop();
    String::from_utf8(out).expect("query lines are ASCII")
}

fn render_entries(out: &mut Vec<u8>, entries: &[MatchEntry]) {
    if entries.is_empty() {
        out.push(b'-');
        return;
    }
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(b',');
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

/// Appends one response line, newline included — the text counterpart
/// of [`encode_response_frame`].
pub fn encode_response_line(r: &Response, out: &mut Vec<u8>) {
    match r {
        Response::Answer(BatchAnswer::KnMatch(res)) => {
            let _ = write!(out, "OK KNM {} ", res.n);
            render_entries(out, &res.entries);
        }
        Response::Answer(BatchAnswer::EpsMatch(res)) => {
            let _ = write!(out, "OK EPS {} ", res.n);
            render_entries(out, &res.entries);
        }
        Response::Answer(BatchAnswer::Frequent(res)) => {
            let _ = write!(out, "OK FREQ {} {} ", res.range.0, res.range.1);
            if res.entries.is_empty() {
                out.push(b'-');
            }
            for (i, e) in res.entries.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}{}:{}", e.pid, e.count);
            }
            out.push(b' ');
            if res.per_n.is_empty() {
                out.push(b'-');
            }
            for (i, level) in res.per_n.iter().enumerate() {
                let sep = if i > 0 { ";" } else { "" };
                let _ = write!(out, "{sep}{}=", level.n);
                render_entries(out, &level.entries);
            }
        }
        Response::Error { kind, message } => {
            let _ = write!(out, "ERR {} ", kind.token());
            // Newlines inside the message would desynchronise the stream.
            let start = out.len();
            out.extend_from_slice(message.as_bytes());
            for b in &mut out[start..] {
                if matches!(*b, b'\n' | b'\r') {
                    *b = b' ';
                }
            }
        }
        Response::Stats(report) => {
            out.extend_from_slice(b"OK STATS");
            render_stats_text(out, report);
        }
        _ => {
            let (msg, arg) = find(replies(), r);
            msg.render(arg, out);
        }
    }
    out.push(b'\n');
}

/// Renders a [`Response`] as its wire line (no newline).
pub fn format_response(r: &Response) -> String {
    let mut out = Vec::new();
    encode_response_line(r, &mut out);
    out.pop();
    String::from_utf8(out).expect("the line encoder writes UTF-8")
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
        ["OK", "STATS", rest @ ..] => parse_stats_text(rest).map(Response::Stats),
        _ => match find_token(replies(), line) {
            Some((msg, rest)) => msg.parse(rest),
            None => Err(err(format!("unparseable response line {line:?}"))),
        },
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

/// The `ERR proto` message for a `BATCH` announcing more than
/// [`MAX_BATCH`] members, in either encoding.
pub(crate) fn batch_limit_message(count: usize) -> String {
    format!("BATCH count {count} exceeds {MAX_BATCH}")
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

/// Frame kinds of the hand-written codecs; every other kind is declared
/// in [`VERBS`]. The query and batch kinds are crate-visible so the
/// reactor's admission control can shed on the kind byte without
/// decoding the payload.
pub(crate) const QUERY_FRAME: u8 = 0x01;
pub(crate) const BATCH_FRAME: u8 = 0x02;
const INSERT_FRAME: u8 = 0x0A;
const ANSWER_FRAME: u8 = 0x81;
const ERR_FRAME: u8 = 0x82;
const STATS_FRAME: u8 = 0x87;

/// Tags inside query and answer payloads.
const TAG_KNM: u8 = 0x01;
const TAG_FREQ: u8 = 0x02;
const TAG_EPS: u8 = 0x03;

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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A `usize` count (`k`, `n`, …) as a `u32` field, saturating: a count
/// past `u32::MAX` stays out of range instead of wrapping to a small,
/// valid one.
fn put_count(out: &mut Vec<u8>, v: usize) {
    put_u32(out, u32::try_from(v).unwrap_or(u32::MAX));
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

fn put_query(out: &mut Vec<u8>, q: &BatchQuery) {
    match q {
        BatchQuery::KnMatch { query, k, n } => {
            out.push(TAG_KNM);
            put_count(out, *k);
            put_count(out, *n);
            put_coords(out, query);
        }
        BatchQuery::Frequent { query, k, n0, n1 } => {
            out.push(TAG_FREQ);
            put_count(out, *k);
            put_count(out, *n0);
            put_count(out, *n1);
            put_coords(out, query);
        }
        BatchQuery::EpsMatch { query, eps, n } => {
            out.push(TAG_EPS);
            put_f64(out, *eps);
            put_count(out, *n);
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
    let body = begin_frame(out, QUERY_FRAME);
    put_query(out, q);
    end_frame(out, body);
}

/// Appends one self-contained binary `BATCH` frame carrying `queries`.
pub fn encode_batch_frame(queries: &[BatchQuery], out: &mut Vec<u8>) {
    let body = begin_frame(out, BATCH_FRAME);
    put_u32(out, queries.len() as u32);
    for q in queries {
        put_query(out, q);
    }
    end_frame(out, body);
}

/// The member count a binary `BATCH` payload announces, read without
/// decoding the members (admission control and the batch limit).
pub(crate) fn batch_frame_count(payload: &[u8]) -> Option<usize> {
    Some(Cur::new(payload).u32().ok()? as usize)
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
        Request::Insert { key, point } => {
            let body = begin_frame(out, INSERT_FRAME);
            put_u32(out, *key);
            put_coords(out, point);
            end_frame(out, body);
        }
        _ => {
            let (msg, arg) = find(requests(), req);
            msg.encode(arg, out);
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
        QUERY_FRAME => BinRequest::One(Request::Query(c.query()?)),
        BATCH_FRAME => {
            let count = c.u32()? as usize;
            if count > MAX_BATCH {
                return Err(err(batch_limit_message(count)));
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
        INSERT_FRAME => BinRequest::One(Request::Insert {
            key: c.u32()?,
            point: c.coords()?,
        }),
        _ => match requests().find(|m| m.kind == kind) {
            Some(msg) => BinRequest::One(msg.decode(&mut c)?),
            None => return Err(err(format!("unknown request frame kind {kind:#04x}"))),
        },
    };
    c.done()?;
    Ok(req)
}

/// Appends one response frame.
pub fn encode_response_frame(r: &Response, out: &mut Vec<u8>) {
    match r {
        Response::Answer(answer) => {
            let body = begin_frame(out, ANSWER_FRAME);
            match answer {
                BatchAnswer::KnMatch(res) => {
                    out.push(TAG_KNM);
                    put_count(out, res.n);
                    put_entries(out, &res.entries);
                }
                BatchAnswer::EpsMatch(res) => {
                    out.push(TAG_EPS);
                    put_count(out, res.n);
                    put_entries(out, &res.entries);
                }
                BatchAnswer::Frequent(res) => {
                    out.push(TAG_FREQ);
                    put_count(out, res.range.0);
                    put_count(out, res.range.1);
                    put_u32(out, res.entries.len() as u32);
                    for e in &res.entries {
                        put_u32(out, e.pid);
                        put_u32(out, e.count);
                    }
                    put_u32(out, res.per_n.len() as u32);
                    for level in &res.per_n {
                        put_count(out, level.n);
                        put_entries(out, &level.entries);
                    }
                }
            }
            end_frame(out, body);
        }
        Response::Error { kind, message } => {
            let body = begin_frame(out, ERR_FRAME);
            out.push(code_of(ERROR_KINDS, *kind));
            put_str(out, message);
            end_frame(out, body);
        }
        Response::Stats(report) => {
            let body = begin_frame(out, STATS_FRAME);
            let flags = stats_flags(report);
            out.push(flags);
            for field in stats_fields(flags) {
                match field.kind {
                    FieldKind::Counter { get, .. } => put_u64(out, get(report)),
                    FieldKind::Backend { get, .. } => out.push(get(report).code()),
                }
            }
            end_frame(out, body);
        }
        _ => {
            let (msg, arg) = find(replies(), r);
            msg.encode(arg, out);
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
        ANSWER_FRAME => Response::Answer(match c.u8()? {
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
        ERR_FRAME => Response::Error {
            kind: from_code(ERROR_KINDS, c.u8()?, "error")?,
            message: c.string()?,
        },
        STATS_FRAME => {
            let flags = c.u8()?;
            if flags & !STATS_KNOWN_FLAGS != 0 {
                return Err(err(format!("unknown STATS flags {flags:#04x}")));
            }
            let mut report = StatsReport::default();
            for field in stats_fields(flags) {
                match field.kind {
                    FieldKind::Counter { set, .. } => set(&mut report, c.u64()?),
                    FieldKind::Backend { set, .. } => {
                        set(&mut report, ReactorKind::from_code(c.u8()?)?)
                    }
                }
            }
            Response::Stats(report)
        }
        _ => match replies().find(|m| m.kind == kind) {
            Some(msg) => msg.decode(&mut c)?,
            None => return Err(err(format!("unknown response frame kind {kind:#04x}"))),
        },
    };
    c.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

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

    /// One request line of every variant, with the binary frame the
    /// codecs wrote before the verb table existed (empty: the variant has
    /// no binary form).
    const REQUEST_PINS: &[(&str, &str)] = &[
        (
            "KNM 3 2 0.5,-1.25,0.3333333333333333",
            "a7012500000001030000000200000003000000000000000000e03f\
             000000000000f4bf555555555555d53f",
        ),
        (
            "FREQ 2 1 2 0.25,1.5",
            "a701210000000202000000010000000200000002000000000000000000d03f\
             000000000000f83f",
        ),
        (
            "EPS 0.125 1 -0,0.75",
            "a7012100000003000000000000c03f010000000200000000000000000000\
             80000000000000e83f",
        ),
        ("BATCH 3", ""),
        ("DEADLINE 250", "a70308000000fa00000000000000"),
        ("FAILFAST 1", "a7040100000001"),
        ("PLANNER vafile", "a7050100000002"),
        ("STATS", "a70600000000"),
        ("PING", "a70700000000"),
        ("QUIT", "a70800000000"),
        ("SHUTDOWN", "a70900000000"),
        (
            "INSERT 41 0.5,-1.5",
            "a70a180000002900000002000000000000000000e03f000000000000f8bf",
        ),
        ("DELETE 42", "a70b040000002a000000"),
        ("EPOCH", "a70c00000000"),
        ("SEAL", "a70d00000000"),
    ];

    /// One response line of every variant, pinned the same way. The one
    /// change since: the binary `STATS` flags byte folds the three extras
    /// bits `0x0E` into `0x02` (`1f` → `13` in the second `STATS` frame).
    const RESPONSE_PINS: &[(&str, &str)] = &[
        (
            "OK KNM 2 3:0.5,7:0.3333333333333333",
            "a7812100000001020000000200000003000000000000000000e03f07000000\
             555555555555d53f",
        ),
        ("OK EPS 1 -", "a78109000000030100000000000000"),
        (
            "OK FREQ 1 2 4:2 1=4:0.25;2=-",
            "a7813500000002010000000200000001000000040000000200000002000000\
             010000000100000004000000000000000000d03f0200000000000000",
        ),
        (
            "ERR overloaded server overloaded; retry-after-ms=25",
            "a782290000000824000000736572766572206f7665726c6f616465643b20\
             72657472792d61667465722d6d733d3235",
        ),
        ("DONE 3 1", "a7831000000003000000000000000100000000000000"),
        ("OK DEADLINE 250", "a78408000000fa00000000000000"),
        ("OK FAILFAST 0", "a7850100000000"),
        ("OK PLANNER igrid", "a7860100000004"),
        (
            "OK STATS queries=1 errors=2 timeouts=3 bytes_in=4 bytes_out=5 connections=1 \
             queries=6 errors=7 timeouts=8 bytes_in=9 bytes_out=10 connections=11",
            "a78761000000000100000000000000020000000000000003000000000000\
             000400000000000000050000000000000001000000000000000600000000\
             000000070000000000000008000000000000000900000000000000\
             0a000000000000000b00000000000000",
        ),
        (
            "OK STATS queries=0 errors=0 timeouts=0 bytes_in=0 bytes_out=0 connections=0 \
             queries=0 errors=0 timeouts=0 bytes_in=0 bytes_out=0 connections=0 \
             plans_ad=1 plans_vafile=2 plans_scan=3 plans_igrid=4 \
             conns_peak=5 pipeline_depth_max=6 frames_binary=7 reactor_backend=epoll \
             poll_iterations=8 events_dispatched=9 writev_calls=10 \
             conns_evicted=11 queries_shed=12 retries_observed=13 deadline_cancels=14 \
             jobs_inline=15 epoch=16 live=17 delta=18 runs=19 tombstones=20 writes=21 merges=22",
            "a7871201000013\
             000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000\
             0100000000000000020000000000000003000000000000000400000000000000\
             05000000000000000600000000000000070000000000000002\
             08000000000000000900000000000000\
             0a000000000000000b000000000000000c000000000000000d00000000000000\
             0e000000000000000f00000000000000\
             1000000000000000110000000000000012000000000000001300000000000000\
             140000000000000015000000000000001600000000000000",
        ),
        ("OK PONG", "a78800000000"),
        ("OK BYE", "a78900000000"),
        ("OK SHUTDOWN", "a78a00000000"),
        ("OK INSERT 17", "a78b080000001100000000000000"),
        ("OK DELETE 18", "a78c080000001200000000000000"),
        (
            "OK EPOCH 19 20 21 22",
            "a78d20000000130000000000000014000000000000001500000000000000\
             1600000000000000",
        ),
        ("OK SEAL 23", "a78e080000001700000000000000"),
    ];

    fn pinned_requests() -> impl Iterator<Item = Request> {
        REQUEST_PINS
            .iter()
            .map(|(line, _)| parse_request(line).unwrap())
    }

    fn pinned_responses() -> impl Iterator<Item = Response> {
        RESPONSE_PINS
            .iter()
            .map(|(line, _)| parse_response(line).unwrap())
    }

    /// `STATS` with its optional groups alone and combined, the extras
    /// partly defaulted.
    fn stats_shapes() -> Vec<Response> {
        vec![
            Response::Stats(StatsReport {
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
            }),
            Response::Stats(StatsReport {
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
            }),
            Response::Stats(StatsReport {
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
            }),
            Response::Stats(StatsReport {
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
            }),
        ]
    }

    #[test]
    fn responses_roundtrip() {
        for r in pinned_responses().chain(stats_shapes()) {
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
            assert_eq!(
                from_code(ERROR_KINDS, code_of(ERROR_KINDS, kind), "error").unwrap(),
                kind
            );
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
        let special = [
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
        ];
        let pinned = pinned_requests().filter(|r| !matches!(r, Request::Batch(_)));
        for req in pinned.chain(special) {
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
        for r in pinned_responses().chain(stats_shapes()) {
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
        assert!(decode_request_frame(BATCH_FRAME, &forged).is_err());
        // Coordinate count claiming more floats than bytes.
        let mut coords = vec![TAG_KNM];
        put_u32(&mut coords, 1);
        put_u32(&mut coords, 1);
        put_u32(&mut coords, u32::MAX);
        assert!(decode_request_frame(QUERY_FRAME, &coords).is_err());
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
        // The mandatory twelve alone, and each optional group announced
        // by its leading label, alone or together.
        let base = Response::Stats(StatsReport {
            conn: StatsSnapshot::default(),
            server: StatsSnapshot::default(),
            plans: None,
            extras: None,
            version: None,
        });
        let line = format_response(&base);
        assert_eq!(parse_response(&line).unwrap(), base);
        // A group cut short is rejected rather than misread.
        let bad = format!("{line} plans_ad=1 plans_vafile=2 plans_scan=3");
        assert!(parse_response(&bad).is_err());
        let extras = "conns_peak=4 pipeline_depth_max=2 frames_binary=1 \
             reactor_backend=epoll poll_iterations=5 events_dispatched=6 writev_calls=7 \
             conns_evicted=8 queries_shed=9 retries_observed=10 deadline_cancels=11 \
             jobs_inline=12";
        match parse_response(&format!("{line} {extras}")).unwrap() {
            Response::Stats(StatsReport { plans, extras, .. }) => {
                assert!(plans.is_none());
                let x = extras.unwrap();
                assert_eq!(x.reactor_backend, ReactorKind::Epoll);
                assert_eq!((x.conns_evicted, x.queries_shed), (8, 9));
                assert_eq!((x.retries_observed, x.deadline_cancels), (10, 11));
                assert_eq!(x.jobs_inline, 12);
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        // An unknown backend token is rejected, not defaulted.
        let unknown = format!("{line} {}", extras.replace("epoll", "kqueue"));
        assert!(parse_response(&unknown).is_err());
        // The full 28-field shape must carry plans.
        let full = Response::Stats(StatsReport {
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
                jobs_inline: 12,
                ..ServerExtras::default()
            }),
            version: None,
        });
        let full_line = format_response(&full);
        assert_eq!(parse_response(&full_line).unwrap(), full);
        // The version group composes with every earlier group and also
        // stands alone after the mandatory twelve.
        let versioned =
            format!("{full_line} epoch=3 live=40 delta=5 runs=2 tombstones=1 writes=9 merges=1");
        match parse_response(&versioned).unwrap() {
            Response::Stats(StatsReport { version, plans, .. }) => {
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
            Response::Stats(StatsReport {
                plans,
                extras,
                version,
                ..
            }) => {
                assert!(plans.is_none() && extras.is_none());
                assert_eq!(version.unwrap().live, 2);
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        // A truncated version group is rejected, as is a trailing field
        // that announces no group, and a short or mislabelled scope.
        assert!(parse_response(&format!("{line} epoch=1 live=2")).is_err());
        assert!(parse_response(&format!("{line} bogus=1")).is_err());
        assert!(parse_response("OK STATS queries=1 errors=2").is_err());
        assert!(parse_response(&line.replacen("errors=", "errs=", 1)).is_err());
    }

    /// Binary STATS frames with flag bits outside the declared groups
    /// are rejected, including the bits the pre-table extras split used
    /// (0x04 backend, 0x08 robustness).
    #[test]
    fn binary_stats_accepts_legacy_flag_combos() {
        let mut payload = Vec::new();
        encode_response_frame(
            &Response::Stats(StatsReport {
                conn: StatsSnapshot {
                    queries: 5,
                    ..StatsSnapshot::default()
                },
                server: StatsSnapshot::default(),
                plans: None,
                extras: Some(ServerExtras::default()),
                version: None,
            }),
            &mut payload,
        );
        let (kind, body) = split_frame(&payload);
        assert_eq!(body[0], 0x02);
        assert!(decode_response_frame(kind, body).is_ok());
        for flags in [0x04, 0x08, 0x02 | 0x04, 0x02 | 0x08] {
            let mut bad = body.to_vec();
            bad[0] = flags;
            assert!(decode_response_frame(kind, &bad).is_err(), "{flags:#04x}");
        }
        // An extras flag without the extras counters is truncated.
        let mut bare = body[..1 + 96].to_vec();
        bare[0] = 0x02;
        assert!(decode_response_frame(kind, &bare).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every pinned line parses to a value that encodes back to the same
    /// line and to the pinned frame, which decodes to the same value; the
    /// pins cover every variant.
    #[test]
    fn wire_bytes_are_pinned() {
        let mut variants = HashSet::new();
        for (line, frame) in REQUEST_PINS {
            let req = parse_request(line).unwrap();
            variants.insert(std::mem::discriminant(&req));
            let mut text = Vec::new();
            encode_request_line(&req, &mut text);
            assert_eq!(text, format!("{line}\n").into_bytes());
            let mut bytes = Vec::new();
            if frame.is_empty() {
                assert!(encode_request_frame(&req, &mut bytes).is_err());
                continue;
            }
            encode_request_frame(&req, &mut bytes).unwrap();
            assert_eq!(hex(&bytes), *frame, "{line}");
            let (kind, payload) = split_frame(&bytes);
            assert_eq!(
                decode_request_frame(kind, payload).unwrap(),
                BinRequest::One(req)
            );
        }
        assert_eq!(variants.len(), 13, "one pin per Request variant");
        let mut batch = Vec::new();
        encode_batch_frame(
            &[BatchQuery::KnMatch {
                query: vec![0.5],
                k: 1,
                n: 1,
            }],
            &mut batch,
        );
        assert_eq!(
            hex(&batch),
            "a702190000000100000001010000000100000001000000000000000000e03f"
        );

        let mut variants = HashSet::new();
        for (line, frame) in RESPONSE_PINS {
            let resp = parse_response(line).unwrap();
            variants.insert(std::mem::discriminant(&resp));
            assert_eq!(format_response(&resp), *line);
            let mut bytes = Vec::new();
            encode_response_frame(&resp, &mut bytes);
            assert_eq!(hex(&bytes), *frame, "{line}");
            let (kind, payload) = split_frame(&bytes);
            assert_eq!(decode_response_frame(kind, payload).unwrap(), resp);
        }
        assert_eq!(variants.len(), 14, "one pin per Response variant");
    }

    /// A count past `u32::MAX` saturates in a binary frame instead of
    /// wrapping to a small valid one, so it fails validation exactly as
    /// its text spelling does.
    #[test]
    fn binary_counts_saturate_past_u32() {
        let huge = u32::MAX as usize + 2;
        let max = u32::MAX as usize;
        for (q, want) in [
            (
                BatchQuery::KnMatch {
                    query: vec![0.5],
                    k: huge,
                    n: huge,
                },
                BatchQuery::KnMatch {
                    query: vec![0.5],
                    k: max,
                    n: max,
                },
            ),
            (
                BatchQuery::Frequent {
                    query: vec![0.5],
                    k: huge,
                    n0: huge,
                    n1: huge,
                },
                BatchQuery::Frequent {
                    query: vec![0.5],
                    k: max,
                    n0: max,
                    n1: max,
                },
            ),
            (
                BatchQuery::EpsMatch {
                    query: vec![0.5],
                    eps: 0.5,
                    n: huge,
                },
                BatchQuery::EpsMatch {
                    query: vec![0.5],
                    eps: 0.5,
                    n: max,
                },
            ),
        ] {
            let mut bytes = Vec::new();
            encode_query_frame(&q, &mut bytes);
            let (kind, payload) = split_frame(&bytes);
            assert_eq!(
                decode_request_frame(kind, payload).unwrap(),
                BinRequest::One(Request::Query(want))
            );
        }
    }

    /// Every frame kind and text token names one message.
    #[test]
    fn verb_table_declares_each_kind_and_token_once() {
        let mut kinds: Vec<u8> = requests().map(|m| m.kind).collect();
        kinds.extend(replies().map(|m| m.kind));
        kinds.extend([
            QUERY_FRAME,
            BATCH_FRAME,
            INSERT_FRAME,
            ANSWER_FRAME,
            ERR_FRAME,
            STATS_FRAME,
        ]);
        let mut tokens: Vec<&str> = requests().map(|m| m.token).collect();
        tokens.extend(replies().map(|m| m.token));
        let (nk, nt) = (kinds.len(), tokens.len());
        kinds.sort_unstable();
        kinds.dedup();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!((kinds.len(), tokens.len()), (nk, nt));
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
