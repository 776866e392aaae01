//! A blocking client for the text protocol and its binary frame
//! sibling — the other half of the conversation the
//! [`EventServer`](crate::EventServer) holds,
//! used by `knmatch client`, the cross-check tests and the benches.
//!
//! The receive path sniffs each response's first byte, so one client
//! can mix text lines and binary frames on the same connection (the
//! servers do the same for requests). [`Client::set_binary`] switches
//! what *this* client sends; [`Client::run_pipelined`] keeps a window
//! of requests in flight against the event-loop server.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use knmatch_core::{BatchAnswer, BatchQuery, PlannerMode};
use knmatch_data::rng::Rng64;

use crate::protocol::{
    decode_response_frame, encode_batch_frame, encode_query_frame, encode_query_line,
    encode_request_frame, encode_request_line, parse_response, retry_after_ms, ErrorKind,
    ProtoError, Request, Response, StatsReport, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME,
};

/// A failure reported by the server for one query (`ERR` line), as
/// opposed to a transport failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedError {
    /// The error category.
    pub kind: ErrorKind,
    /// The server's message.
    pub message: String,
}

impl std::fmt::Display for ServedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.token(), self.message)
    }
}

impl std::error::Error for ServedError {}

/// A transport- or protocol-level client failure: the conversation
/// itself broke (socket error, unparseable or out-of-order response).
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes did not parse as a response line.
    Proto(ProtoError),
    /// A parseable response of the wrong shape for what was asked.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// The outcome of one [`Client::run_batch`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReply {
    /// One entry per submitted query, in submission order: the answer or
    /// the server-reported error.
    pub answers: Vec<Result<BatchAnswer, ServedError>>,
    /// The `DONE` trailer's success count.
    pub ok: u64,
    /// The `DONE` trailer's failure count.
    pub failed: u64,
}

/// The `OK EPOCH` reply: a point-in-time view of a mutable engine's
/// version state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochInfo {
    /// Current epoch (bumped by every publishing write).
    pub epoch: u64,
    /// Live points at that epoch.
    pub live: u64,
    /// Rows in the unsealed write delta.
    pub delta: u64,
    /// Sealed immutable runs.
    pub runs: u64,
}

/// Every per-request knob the clients expose, in one struct: what used
/// to be scattered across [`Client::set_binary`] /
/// [`Client::set_deadline_ms`] / [`Client::set_fail_fast`] /
/// [`Client::set_planner`], the `run_batch` / `run_pipelined` split,
/// and [`RetryingClient`]'s policy. [`Client::run`] and the one-call
/// [`run_with_options`] consume it; the older methods remain as thin
/// wrappers over specific corners of this struct.
///
/// Every field defaults to `None` — "leave the connection as it is, run
/// one plain batch, don't retry".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestOptions {
    /// `Some(on)` switches the request encoding before running;
    /// `None` keeps the connection's current setting.
    pub binary: Option<bool>,
    /// `Some(depth)` submits individually pipelined requests with at
    /// most `depth` in flight; `None` submits one `BATCH`.
    pub pipeline: Option<usize>,
    /// `Some(ms)` sets the per-query deadline first (0 clears it).
    pub deadline_ms: Option<u64>,
    /// `Some(on)` toggles fail-fast for the batch first.
    pub fail_fast: Option<bool>,
    /// `Some(mode)` sets the planner route first.
    pub planner: Option<PlannerMode>,
    /// `Some(policy)` rides out transient faults by reconnecting,
    /// backing off and resending. Honoured by [`run_with_options`] and
    /// [`RetryingClient`]; a lone [`Client::run`] cannot reconnect and
    /// ignores it.
    pub retry: Option<RetryPolicy>,
}

impl RequestOptions {
    /// Sets the request encoding.
    pub fn binary(mut self, on: bool) -> Self {
        self.binary = Some(on);
        self
    }

    /// Pipelines individual requests with at most `depth` in flight.
    pub fn pipeline(mut self, depth: usize) -> Self {
        self.pipeline = Some(depth);
        self
    }

    /// Sets the per-query deadline (0 clears it).
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Toggles batch fail-fast.
    pub fn fail_fast(mut self, on: bool) -> Self {
        self.fail_fast = Some(on);
        self
    }

    /// Sets the planner route.
    pub fn planner(mut self, mode: PlannerMode) -> Self {
        self.planner = Some(mode);
        self
    }

    /// Retries transient faults under `policy`.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }
}

/// One connection to a `knmatch serve` process.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`).
    ///
    /// # Errors
    ///
    /// Socket errors from connect.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            binary: false,
        })
    }

    /// Switches request encoding: `true` sends compact binary frames
    /// instead of text lines. Responses are sniffed either way, so this
    /// can be toggled mid-connection.
    pub fn set_binary(&mut self, on: bool) {
        self.binary = on;
    }

    /// Sets a socket read timeout so a stuck server surfaces as an error
    /// instead of a hang. `None` blocks forever (the default).
    ///
    /// # Errors
    ///
    /// Socket errors from the setsockopt.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends `req` and reads its one response: `Ok(Err)` is a served
    /// `ERR`; any other response goes through `expect`, which refuses a
    /// wrong shape with [`unexpected`].
    fn call<T>(
        &mut self,
        req: &Request,
        expect: impl FnOnce(Response) -> Result<T, ClientError>,
    ) -> Result<Result<T, ServedError>, ClientError> {
        let mut bytes = Vec::new();
        if self.binary {
            encode_request_frame(req, &mut bytes)?;
        } else {
            encode_request_line(req, &mut bytes);
        }
        self.writer.write_all(&bytes)?;
        self.reply(expect)
    }

    /// [`call`](Client::call) for a control verb whose only good reply
    /// is `want`; a served `ERR` is unexpected too.
    fn control(&mut self, req: &Request, want: Response) -> Result<(), ClientError> {
        let reply = self.call(req, |r| {
            if r == want {
                Ok(())
            } else {
                Err(unexpected(r))
            }
        })?;
        reply.map_err(|e| ClientError::Unexpected(e.to_string()))
    }

    /// Reads one response the way [`call`](Client::call) does.
    fn reply<T>(
        &mut self,
        expect: impl FnOnce(Response) -> Result<T, ClientError>,
    ) -> Result<Result<T, ServedError>, ClientError> {
        match self.recv()? {
            Response::Error { kind, message } => Ok(Err(ServedError { kind, message })),
            r => expect(r).map(Ok),
        }
    }

    /// Reads one response, sniffing the first byte for the frame magic
    /// (binary) versus anything else (a text line).
    fn recv(&mut self) -> Result<Response, ClientError> {
        let first = {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            buf[0]
        };
        if first == FRAME_MAGIC {
            let mut header = [0u8; FRAME_HEADER_LEN];
            self.reader.read_exact(&mut header)?;
            let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]) as usize;
            if len > MAX_FRAME {
                return Err(ClientError::Proto(ProtoError(format!(
                    "response frame of {len} bytes exceeds {MAX_FRAME}"
                ))));
            }
            let mut payload = vec![0u8; len];
            self.reader.read_exact(&mut payload)?;
            return Ok(decode_response_frame(header[1], &payload)?);
        }
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        if !line.ends_with('\n') {
            // read_line only returns a newline-less line at EOF: the
            // server died mid-response. Truncation is a transport
            // failure (retryable), not a protocol one.
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            )));
        }
        Ok(parse_response(line.trim_end_matches(['\n', '\r']))?)
    }

    /// Liveness probe (`PING` → `OK PONG`).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.control(&Request::Ping, Response::Pong)
    }

    /// Sets the per-query deadline for this connection's later queries
    /// (0 clears it).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn set_deadline_ms(&mut self, ms: u64) -> Result<(), ClientError> {
        self.control(&Request::Deadline(ms), Response::Deadline(ms))
    }

    /// Toggles fail-fast for this connection's later batches.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn set_fail_fast(&mut self, on: bool) -> Result<(), ClientError> {
        self.control(&Request::FailFast(on), Response::FailFast(on))
    }

    /// Sets the planner route for this connection's later queries
    /// (`PLANNER <auto|ad|vafile|scan|igrid>`). Engines without a planner
    /// accept and ignore it.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn set_planner(&mut self, mode: PlannerMode) -> Result<(), ClientError> {
        self.control(&Request::Planner(mode), Response::Planner(mode))
    }

    /// Runs one query, returning the answer or the server-reported
    /// per-query error.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn query(
        &mut self,
        q: &BatchQuery,
    ) -> Result<Result<BatchAnswer, ServedError>, ClientError> {
        let mut burst = Vec::new();
        self.push_query(q, &mut burst);
        self.writer.write_all(&burst)?;
        self.reply(answer)
    }

    /// Appends one query request to `burst` in the selected encoding.
    fn push_query(&self, q: &BatchQuery, burst: &mut Vec<u8>) {
        if self.binary {
            encode_query_frame(q, burst);
        } else {
            encode_query_line(q, burst);
        }
    }

    /// Runs `queries` with every knob drawn from `opts`: applies the
    /// connection-scoped options it carries (binary framing, deadline,
    /// fail-fast, planner — each only when `Some`), then submits the
    /// whole slice — as one `BATCH` by default, or as individually
    /// pipelined requests when [`RequestOptions::pipeline`] is set (the
    /// servers guarantee response order, see DESIGN.md §13; the
    /// pipelined path has no `DONE` trailer, so `ok`/`failed` are
    /// counted client-side).
    ///
    /// [`RequestOptions::retry`] is ignored here — a lone connection
    /// cannot reconnect. Use [`run_with_options`] or a
    /// [`RetryingClient`] for the retry loop.
    ///
    /// # Errors
    ///
    /// Transport failures or an out-of-shape response stream.
    pub fn run(
        &mut self,
        queries: &[BatchQuery],
        opts: &RequestOptions,
    ) -> Result<BatchReply, ClientError> {
        self.apply(opts)?;
        let Some(depth) = opts.pipeline else {
            self.send_batch(queries)?;
            return self.recv_batch(queries.len());
        };
        let depth = depth.max(1);
        let mut answers = Vec::with_capacity(queries.len());
        let mut sent = 0;
        let mut burst = Vec::new();
        while answers.len() < queries.len() {
            burst.clear();
            while sent < queries.len() && sent - answers.len() < depth {
                self.push_query(&queries[sent], &mut burst);
                sent += 1;
            }
            if !burst.is_empty() {
                self.writer.write_all(&burst)?;
            }
            answers.push(self.reply(answer)?);
        }
        let ok = answers.iter().filter(|a| a.is_ok()).count() as u64;
        let failed = answers.len() as u64 - ok;
        Ok(BatchReply {
            answers,
            ok,
            failed,
        })
    }

    /// Applies the connection-scoped options `opts` carries (encoding,
    /// deadline, fail-fast, planner — each only when `Some`).
    fn apply(&mut self, opts: &RequestOptions) -> Result<(), ClientError> {
        if let Some(on) = opts.binary {
            self.set_binary(on);
        }
        if let Some(ms) = opts.deadline_ms {
            self.set_deadline_ms(ms)?;
        }
        if let Some(on) = opts.fail_fast {
            self.set_fail_fast(on)?;
        }
        if let Some(mode) = opts.planner {
            self.set_planner(mode)?;
        }
        Ok(())
    }

    /// Runs `queries` as individually pipelined requests with at most
    /// `depth` in flight, returning the per-query results in submission
    /// order. Thin wrapper over [`run`](Client::run) with
    /// [`RequestOptions::pipeline`] set.
    ///
    /// # Errors
    ///
    /// Transport failures or an out-of-shape response stream.
    pub fn run_pipelined(
        &mut self,
        queries: &[BatchQuery],
        depth: usize,
    ) -> Result<Vec<Result<BatchAnswer, ServedError>>, ClientError> {
        self.run(queries, &RequestOptions::default().pipeline(depth))
            .map(|reply| reply.answers)
    }

    /// Submits `queries` as one `BATCH`, pipelining all query lines in a
    /// single write, and collects the per-query responses plus the `DONE`
    /// trailer. Thin wrapper over [`run`](Client::run) with default
    /// options.
    ///
    /// # Errors
    ///
    /// Transport failures or an out-of-shape response stream.
    pub fn run_batch(&mut self, queries: &[BatchQuery]) -> Result<BatchReply, ClientError> {
        self.run(queries, &RequestOptions::default())
    }

    /// Writes `queries` as one batch request without waiting for the
    /// responses — pair with [`recv_batch`](Client::recv_batch) to
    /// pipeline whole batches.
    ///
    /// # Errors
    ///
    /// Socket errors from the write.
    pub fn send_batch(&mut self, queries: &[BatchQuery]) -> Result<(), ClientError> {
        if self.binary {
            let mut frame = Vec::new();
            encode_batch_frame(queries, &mut frame);
            self.writer.write_all(&frame)?;
            return Ok(());
        }
        let mut frame = Vec::new();
        encode_request_line(&Request::Batch(queries.len()), &mut frame);
        for q in queries {
            encode_query_line(q, &mut frame);
        }
        self.writer.write_all(&frame)?;
        Ok(())
    }

    /// Collects the `count` per-query responses and `DONE` trailer of
    /// one in-flight batch.
    ///
    /// # Errors
    ///
    /// Transport failures or an out-of-shape response stream.
    pub fn recv_batch(&mut self, count: usize) -> Result<BatchReply, ClientError> {
        let mut answers = Vec::with_capacity(count);
        for _ in 0..count {
            answers.push(self.reply(answer)?);
        }
        match self.recv()? {
            Response::Done { ok, failed } => Ok(BatchReply {
                answers,
                ok,
                failed,
            }),
            other => Err(ClientError::Unexpected(format!(
                "expected DONE, got {other:?}"
            ))),
        }
    }

    /// The complete `STATS` response as one [`StatsReport`]: connection
    /// and server counters, the plan tally, the reactor extras, and the
    /// version counters (each optional group `None` when the server does
    /// not track it).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn stats_report(&mut self) -> Result<StatsReport, ClientError> {
        let report = self.call(&Request::Stats, |r| match r {
            Response::Stats(report) => Ok(report),
            r => Err(unexpected(r)),
        })?;
        report.map_err(|e| ClientError::Unexpected(e.to_string()))
    }

    /// Upserts one point under `key` (`INSERT` — mutable servers only),
    /// returning the post-write epoch or the server-reported error.
    ///
    /// Writes go through a plain [`Client`] on purpose: they are not
    /// resend-safe, so [`RetryingClient`] does not wrap them.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn insert(
        &mut self,
        key: u32,
        point: &[f64],
    ) -> Result<Result<u64, ServedError>, ClientError> {
        let req = Request::Insert {
            key,
            point: point.to_vec(),
        };
        self.call(&req, |r| match r {
            Response::Inserted(epoch) => Ok(epoch),
            r => Err(unexpected(r)),
        })
    }

    /// Removes the point under `key` (`DELETE` — mutable servers only),
    /// returning the post-write epoch or the server-reported error.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn delete(&mut self, key: u32) -> Result<Result<u64, ServedError>, ClientError> {
        self.call(&Request::Delete(key), |r| match r {
            Response::Deleted(epoch) => Ok(epoch),
            r => Err(unexpected(r)),
        })
    }

    /// Fetches the mutable engine's version state (`EPOCH`).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn epoch(&mut self) -> Result<Result<EpochInfo, ServedError>, ClientError> {
        self.call(&Request::Epoch, |r| match r {
            Response::Epoch {
                epoch,
                live,
                delta,
                runs,
            } => Ok(EpochInfo {
                epoch,
                live,
                delta,
                runs,
            }),
            r => Err(unexpected(r)),
        })
    }

    /// Seals the mutable engine's write delta into an immutable run
    /// (`SEAL`), returning the epoch after the seal.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn seal(&mut self) -> Result<Result<u64, ServedError>, ClientError> {
        self.call(&Request::Seal, |r| match r {
            Response::Sealed(epoch) => Ok(epoch),
            r => Err(unexpected(r)),
        })
    }

    /// Asks the server to drain and stop, consuming this connection.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        self.control(&Request::Shutdown, Response::ShuttingDown)
    }

    /// Closes the connection politely (`QUIT` → `OK BYE`).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.control(&Request::Quit, Response::Bye)
    }

    /// Sends raw bytes down the socket — the fuzz tests' hook for
    /// malformed and truncated frames. Not part of the polite API.
    ///
    /// # Errors
    ///
    /// Socket errors from the write.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads one raw response line — the fuzz tests' counterpart to
    /// [`send_raw`](Client::send_raw).
    ///
    /// # Errors
    ///
    /// Socket errors, or `UnexpectedEof` when the server closed.
    pub fn recv_response(&mut self) -> Result<Response, ClientError> {
        self.recv()
    }
}

/// A response of the wrong shape for what was asked.
fn unexpected(r: Response) -> ClientError {
    ClientError::Unexpected(format!("{r:?}"))
}

/// The `expect` of a query's [`Client::reply`]: an answer.
fn answer(r: Response) -> Result<BatchAnswer, ClientError> {
    match r {
        Response::Answer(a) => Ok(a),
        r => Err(unexpected(r)),
    }
}

/// How a [`RetryingClient`] reacts to transient failures: how many
/// retries, how long to wait for each response, and the shape of the
/// backoff between attempts.
///
/// Backoff is *decorrelated jitter*: each sleep is drawn uniformly from
/// `[backoff_base, prev_sleep * 3]` and clamped to `backoff_cap`, so
/// concurrent clients spread out instead of retrying in lockstep. When
/// the server's error carried a `retry-after-ms` hint, the hint is a
/// floor on the sleep. The jitter stream is seeded, so a given client
/// replays the same sleeps run over run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub retries: u32,
    /// Socket read timeout per response; a server stalled past this
    /// surfaces as an [`ClientError::Io`] and is retried on a fresh
    /// connection. `None` waits forever.
    pub timeout: Option<Duration>,
    /// Smallest sleep between attempts.
    pub backoff_base: Duration,
    /// Largest sleep between attempts.
    pub backoff_cap: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            timeout: Some(Duration::from_secs(10)),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

/// A [`Client`] wrapper that rides out transient faults: socket errors
/// reconnect and resend (safe because every request is a pure read),
/// and `ERR overloaded` / `ERR busy` replies back off and retry,
/// honouring the server's `retry-after-ms` hint as a floor.
///
/// Connection-scoped options (binary framing, `DEADLINE`, `FAILFAST`,
/// `PLANNER`) are recorded here and replayed onto every fresh
/// connection, so a mid-session reconnect is invisible to the caller.
#[derive(Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<Client>,
    rng: Rng64,
    prev_backoff: Duration,
    retries_used: u64,
    /// The connection-scoped options, replayed after every reconnect.
    opts: RequestOptions,
}

impl RetryingClient {
    /// Resolves `addr` and prepares a client; the first connection is
    /// made lazily by the first request (so connect failures get the
    /// retry loop too).
    ///
    /// # Errors
    ///
    /// Address resolution failures.
    pub fn connect<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> io::Result<RetryingClient> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Ok(RetryingClient {
            addr,
            policy,
            conn: None,
            rng: Rng64::new(policy.seed),
            prev_backoff: Duration::ZERO,
            retries_used: 0,
            opts: RequestOptions::default(),
        })
    }

    /// Retries spent so far, across all requests.
    pub fn retries_used(&self) -> u64 {
        self.retries_used
    }

    /// Records the request encoding; applied immediately and replayed on
    /// reconnect.
    pub fn set_binary(&mut self, on: bool) {
        self.opts.binary = Some(on);
        self.replay();
    }

    /// Records the per-query deadline (0 clears); replayed on reconnect.
    pub fn set_deadline_ms(&mut self, ms: u64) {
        self.opts.deadline_ms = Some(ms);
        self.replay();
    }

    /// Records fail-fast for later batches; replayed on reconnect.
    pub fn set_fail_fast(&mut self, on: bool) {
        self.opts.fail_fast = Some(on);
        self.replay();
    }

    /// Records the planner mode; replayed on reconnect.
    pub fn set_planner(&mut self, mode: PlannerMode) {
        self.opts.planner = Some(mode);
        self.replay();
    }

    /// Applies the recorded options to a live connection. If it refuses
    /// the round trip it is dropped, and the options take effect on the
    /// next (replayed) connection.
    fn replay(&mut self) {
        if let Some(c) = self.conn.as_mut() {
            if c.apply(&self.opts).is_err() {
                self.conn = None;
            }
        }
    }

    fn ensure_conn(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let mut c = Client::connect(self.addr)?;
            c.set_timeout(self.policy.timeout)?;
            c.apply(&self.opts)?;
            self.conn = Some(c);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// The next decorrelated-jitter sleep, floored by the server's
    /// `retry-after-ms` hint when one was given. Split from the sleep
    /// itself so tests can pin the sequence.
    fn next_backoff(&mut self, hint_ms: Option<u64>) -> Duration {
        let base = self.policy.backoff_base;
        let prev = self.prev_backoff.max(base);
        let span = (prev * 3).saturating_sub(base);
        let mut sleep = base + span.mul_f64(self.rng.next_f64());
        sleep = sleep.min(self.policy.backoff_cap);
        if let Some(ms) = hint_ms {
            sleep = sleep.max(Duration::from_millis(ms));
        }
        self.prev_backoff = sleep;
        sleep
    }

    fn backoff(&mut self, hint_ms: Option<u64>) {
        let sleep = self.next_backoff(hint_ms);
        if !sleep.is_zero() {
            thread::sleep(sleep);
        }
    }

    /// `true` when the reply is pure shed/busy noise worth retrying: at
    /// least one answer and every answer an `overloaded`/`busy` error.
    /// (The event loop sheds whole batches at admission, so a shed reply
    /// is all-or-nothing; a mixed reply is real work and returned as-is.)
    fn all_shed(reply: &BatchReply) -> bool {
        !reply.answers.is_empty()
            && reply.answers.iter().all(|a| {
                matches!(
                    a,
                    Err(e) if matches!(e.kind, ErrorKind::Overloaded | ErrorKind::Busy)
                )
            })
    }

    /// The largest `retry-after-ms` hint across a shed reply's errors.
    fn shed_hint(reply: &BatchReply) -> Option<u64> {
        reply
            .answers
            .iter()
            .filter_map(|a| a.as_ref().err())
            .filter_map(|e| retry_after_ms(&e.message))
            .max()
    }

    /// Runs `queries` as one batch, retrying transient failures per the
    /// policy. Socket errors drop the connection and resend everything
    /// on a fresh one — safe because queries never mutate server state.
    ///
    /// # Errors
    ///
    /// The final attempt's failure once retries are exhausted, or any
    /// non-retryable failure (a protocol error, an unexpected response).
    pub fn run_batch(&mut self, queries: &[BatchQuery]) -> Result<BatchReply, ClientError> {
        let mut attempt = 0u32;
        let mut hint: Option<u64> = None;
        loop {
            if attempt > 0 {
                self.retries_used += 1;
                self.backoff(hint.take());
            }
            let result = self.ensure_conn().and_then(|c| c.run_batch(queries));
            match result {
                Ok(reply) => {
                    if attempt < self.policy.retries && Self::all_shed(&reply) {
                        hint = Self::shed_hint(&reply);
                        attempt += 1;
                        continue;
                    }
                    return Ok(reply);
                }
                Err(ClientError::Io(_)) if attempt < self.policy.retries => {
                    self.conn = None;
                    attempt += 1;
                }
                Err(e) => {
                    if matches!(e, ClientError::Io(_)) {
                        self.conn = None;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Runs one query with the same retry loop as
    /// [`run_batch`](RetryingClient::run_batch).
    ///
    /// # Errors
    ///
    /// The final attempt's failure once retries are exhausted, or any
    /// non-retryable failure.
    pub fn query(
        &mut self,
        q: &BatchQuery,
    ) -> Result<Result<BatchAnswer, ServedError>, ClientError> {
        let mut attempt = 0u32;
        let mut hint: Option<u64> = None;
        loop {
            if attempt > 0 {
                self.retries_used += 1;
                self.backoff(hint.take());
            }
            let result = self.ensure_conn().and_then(|c| c.query(q));
            match result {
                Ok(Err(e))
                    if attempt < self.policy.retries
                        && matches!(e.kind, ErrorKind::Overloaded | ErrorKind::Busy) =>
                {
                    hint = retry_after_ms(&e.message);
                    if e.kind == ErrorKind::Busy {
                        // Busy is a farewell: the server closes right
                        // after sending it, so don't reuse the socket.
                        self.conn = None;
                    }
                    attempt += 1;
                }
                Ok(answer) => return Ok(answer),
                Err(ClientError::Io(_)) if attempt < self.policy.retries => {
                    self.conn = None;
                    attempt += 1;
                }
                Err(e) => {
                    if matches!(e, ClientError::Io(_)) {
                        self.conn = None;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Fetches the full counter report, version group included (no
    /// retry value in wrapping this, but keeps harnesses on one client
    /// type).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn stats_report(&mut self) -> Result<StatsReport, ClientError> {
        self.ensure_conn().and_then(Client::stats_report)
    }

    /// Closes the connection if one is open (`QUIT` best-effort).
    pub fn close(&mut self) {
        if let Some(c) = self.conn.take() {
            c.quit().ok();
        }
    }
}

/// Connects to `addr` and runs `queries` with every knob drawn from
/// `opts` — the one-call front-end over [`Client`] and
/// [`RetryingClient`].
///
/// With [`RequestOptions::retry`] set, transient faults reconnect, back
/// off and resend the whole batch; [`RequestOptions::pipeline`] is
/// ignored on that path (a reconnect mid-window would re-run requests
/// whose responses were already consumed, so retrying only resends
/// all-or-nothing batches). Without `retry`, this is one plain
/// [`Client::run`]. Either way the connection is closed politely before
/// returning an answer.
///
/// # Errors
///
/// Connect failures, transport failures, or an out-of-shape response
/// stream (after the retry budget, when one was given).
pub fn run_with_options<A: ToSocketAddrs>(
    addr: A,
    queries: &[BatchQuery],
    opts: &RequestOptions,
) -> Result<BatchReply, ClientError> {
    match opts.retry {
        Some(policy) => {
            let mut c = RetryingClient::connect(addr, policy)?;
            c.opts = *opts;
            let reply = c.run_batch(queries)?;
            c.close();
            Ok(reply)
        }
        None => {
            let mut c = Client::connect(addr)?;
            let reply = c.run(queries, opts)?;
            c.quit().ok();
            Ok(reply)
        }
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            retries: 5,
            timeout: None,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            seed: 42,
        }
    }

    fn client(policy: RetryPolicy) -> RetryingClient {
        RetryingClient::connect("127.0.0.1:1", policy).unwrap()
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let mut a = client(policy());
        let mut b = client(policy());
        let mut prev = Duration::ZERO;
        for _ in 0..32 {
            let s = a.next_backoff(None);
            assert_eq!(s, b.next_backoff(None), "seeded streams must agree");
            assert!(s >= a.policy.backoff_base, "below base: {s:?}");
            assert!(s <= a.policy.backoff_cap, "above cap: {s:?}");
            // Decorrelated jitter: bounded by 3x the previous sleep.
            let ceiling = (prev.max(a.policy.backoff_base) * 3).min(a.policy.backoff_cap);
            assert!(s <= ceiling, "{s:?} above decorrelated ceiling {ceiling:?}");
            prev = s;
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = client(policy());
        let mut b = client(RetryPolicy {
            seed: 43,
            ..policy()
        });
        let same = (0..16)
            .filter(|_| a.next_backoff(None) == b.next_backoff(None))
            .count();
        assert!(same < 16, "distinct seeds produced identical jitter");
    }

    #[test]
    fn retry_after_hint_floors_the_sleep() {
        let mut c = client(policy());
        let s = c.next_backoff(Some(400));
        assert!(s >= Duration::from_millis(400), "hint not honoured: {s:?}");
        assert!(s <= c.policy.backoff_cap);
        // The floored value feeds the next ceiling, so backoff keeps
        // growing from the hint rather than collapsing back to base.
        let next = c.next_backoff(None);
        assert!(next <= Duration::from_millis(1200).min(c.policy.backoff_cap));
    }

    #[test]
    fn all_shed_requires_unanimous_overload() {
        let shed = |kind: ErrorKind| {
            Err(ServedError {
                kind,
                message: crate::protocol::with_retry_after("server overloaded", 25),
            })
        };
        let reply = BatchReply {
            answers: vec![shed(ErrorKind::Overloaded), shed(ErrorKind::Busy)],
            ok: 0,
            failed: 2,
        };
        assert!(RetryingClient::all_shed(&reply));
        assert_eq!(RetryingClient::shed_hint(&reply), Some(25));

        let mixed = BatchReply {
            answers: vec![
                shed(ErrorKind::Overloaded),
                Err(ServedError {
                    kind: ErrorKind::Query,
                    message: "k exceeds rows".into(),
                }),
            ],
            ok: 0,
            failed: 2,
        };
        assert!(!RetryingClient::all_shed(&mixed));
        assert!(!RetryingClient::all_shed(&BatchReply {
            answers: vec![],
            ok: 0,
            failed: 0,
        }));
    }
}
