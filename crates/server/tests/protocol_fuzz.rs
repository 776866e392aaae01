//! Protocol fuzzing: a seeded in-repo PRNG throws malformed, truncated,
//! and oversized frames at a live server. The invariant under test is
//! that the process never dies and that well-formed queries still get
//! correct answers afterwards — on the same connection where the
//! protocol allows it, and on a fresh connection otherwise.
//!
//! Everything is seeded (`knmatch_data::rng::seeded`), so a passing run
//! is reproducible, not lucky.
#![cfg(unix)]

mod common;

use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use common::{backends, on, with_server};
use knmatch_core::{BatchAnswer, BatchEngine, BatchOutcome, BatchQuery};
use knmatch_data::rng::{seeded, Rng64};
use knmatch_data::uniform;
use knmatch_server::{Backend, Client, EngineConfig, ErrorKind, Response, ServerConfig, MAX_LINE};

const SEED: u64 = 0x000F_0225_FA57;
const ROUNDS: usize = 24;

fn build_engine() -> knmatch_server::AnyEngine {
    let ds = uniform(120, 3, 0xDA7A);
    EngineConfig {
        workers: 2,
        backend: Backend::Memory,
        planner: None,
        ..EngineConfig::default()
    }
    .build_in_memory(&ds)
}

/// The well-formed probe sent after every garbage bout, plus the answer
/// the engine gives when asked directly.
fn probe_and_expected(engine: &knmatch_server::AnyEngine) -> (BatchQuery, BatchAnswer) {
    let probe = BatchQuery::KnMatch {
        query: vec![0.5, 0.25, 0.75],
        k: 4,
        n: 2,
    };
    let direct = engine
        .run(std::slice::from_ref(&probe))
        .pop()
        .expect("one slot")
        .expect("valid probe")
        .into_answer();
    (probe, direct)
}

/// One garbage payload, by round-robin over the interesting shapes.
fn garbage(rng: &mut Rng64, round: usize) -> Vec<u8> {
    match round % 6 {
        // Raw binary noise: arbitrary bytes, newline-terminated so the
        // server sees it as (several) complete lines.
        0 => {
            let len = rng.range_usize(1..2048);
            let mut bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            bytes.push(b'\n');
            bytes
        }
        // A known verb with mangled operands.
        1 => {
            let verbs = ["KNM", "FREQ", "EPS", "BATCH", "DEADLINE", "FAILFAST"];
            let verb = verbs[rng.range_usize(0..verbs.len())];
            let junk: String = (0..rng.range_usize(1..40))
                .map(|_| (b'!' + (rng.next_u64() % 90) as u8) as char)
                .collect();
            format!("{verb} {junk}\n").into_bytes()
        }
        // A truncated but syntactically plausible query line.
        2 => {
            let full = format!(
                "KNM {} {} 0.1,0.2,0.3\n",
                rng.range_usize(1..9),
                rng.range_usize(1..4)
            );
            let cut = rng.range_usize(1..full.len());
            let mut bytes = full.as_bytes()[..cut].to_vec();
            bytes.push(b'\n');
            bytes
        }
        // An oversized line: longer than MAX_LINE, drained server-side.
        3 => {
            let mut bytes = vec![b'x'; MAX_LINE + rng.range_usize(1..4096)];
            bytes.push(b'\n');
            bytes
        }
        // A batch header that lies about its size (the body is cut off
        // by the connection close that follows the bout).
        4 => {
            let n = rng.range_usize(3..200);
            let supplied = rng.range_usize(0..2);
            let mut frame = format!("BATCH {n}\n");
            for _ in 0..supplied {
                frame.push_str("KNM 2 1 0.4,0.4,0.4\n");
            }
            frame.into_bytes()
        }
        // A batch over the size cap, or a header that is not a number.
        _ => {
            if rng.next_bool() {
                format!("BATCH {}\n", knmatch_server::MAX_BATCH + 1).into_bytes()
            } else {
                b"BATCH many\n".to_vec()
            }
        }
    }
}

/// Drains whatever the server sends until EOF or a short timeout; the
/// content is irrelevant, only that the server keeps emitting parseable
/// responses (or closes) rather than wedging.
fn drain(client: &mut Client) {
    client.set_timeout(Some(Duration::from_millis(100))).ok();
    while client.recv_response().is_ok() {}
}

fn assert_healthy(addr: SocketAddr, probe: &BatchQuery, expected: &BatchAnswer, round: usize) {
    let mut client = Client::connect(addr).expect("connect health probe");
    client
        .ping()
        .unwrap_or_else(|e| panic!("round {round}: ping after garbage: {e:?}"));
    let got = client
        .query(probe)
        .unwrap_or_else(|e| panic!("round {round}: probe transport: {e:?}"))
        .unwrap_or_else(|e| panic!("round {round}: probe rejected: {e}"));
    assert_eq!(
        &got, expected,
        "round {round}: answer drifted after garbage"
    );
    client.quit().expect("quit");
}

/// `ROUNDS` rounds of `bouts(rng, round)` — each payload sent on its own
/// connection, which is then abandoned mid-stream: the server must
/// survive EOF at any protocol state and still answer a well-formed
/// query correctly after every round.
fn fuzz_rounds(cfg: ServerConfig, seed: u64, bouts: impl Fn(&mut Rng64, usize) -> Vec<Vec<u8>>) {
    let reactor = cfg.reactor;
    let engine = build_engine();
    let (probe, expected) = probe_and_expected(&engine);
    let (stats, _) = with_server(engine, cfg, |addr| {
        let mut rng = seeded(seed);
        for round in 0..ROUNDS {
            for payload in bouts(&mut rng, round) {
                let mut attacker = Client::connect(addr).expect("connect attacker");
                attacker.send_raw(&payload).expect("send garbage");
                drain(&mut attacker);
            }
            assert_healthy(addr, &probe, &expected, round);
        }
    });
    assert!(
        stats.errors > 0,
        "fuzz rounds should have drawn ERR responses under {reactor}"
    );
}

#[test]
fn fuzzed_frames_never_take_the_server_down() {
    for reactor in backends() {
        fuzz_rounds(on(reactor), SEED, |rng, round| vec![garbage(rng, round)]);
    }
}

/// Same-connection recovery: after an in-protocol error the connection
/// itself stays usable — an oversized line or a malformed verb yields
/// ERR, and the next line is processed normally.
#[test]
fn connection_recovers_after_in_protocol_errors() {
    for reactor in backends() {
        recovers_in_protocol_on(on(reactor));
    }
}

fn recovers_in_protocol_on(cfg: ServerConfig) {
    let engine = build_engine();
    let (probe, expected) = probe_and_expected(&engine);
    with_server(engine, cfg, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).ok();

        // Unknown verb → ERR parse, connection lives.
        client.send_raw(b"FLY 1 2 3\n").expect("send");
        match client.recv_response().expect("response") {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Parse),
            other => panic!("expected ERR parse, got {other:?}"),
        }

        // A planner mode that is not served → ERR parse naming the ones
        // that are, spelled in text and as binary code 4; connection lives.
        let igrid_text: &[u8] = b"PLANNER igrid\n";
        let igrid_frame: &[u8] = &[0xA7, 0x05, 1, 0, 0, 0, 4];
        for (bytes, names) in [
            (igrid_text, "auto|ad|vafile|scan"),
            (igrid_frame, "planner code 4"),
        ] {
            client.send_raw(bytes).expect("send");
            match client.recv_response().expect("response") {
                Response::Error { kind, message } => {
                    assert_eq!(kind, ErrorKind::Parse);
                    assert!(message.contains(names), "{message}");
                }
                other => panic!("expected ERR parse, got {other:?}"),
            }
        }

        // Oversized line → ERR oversized, connection lives.
        let mut big = vec![b'z'; MAX_LINE + 17];
        big.push(b'\n');
        client.send_raw(&big).expect("send oversized");
        match client.recv_response().expect("response") {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Oversized),
            other => panic!("expected ERR oversized, got {other:?}"),
        }

        // A batch mixing malformed and valid lines answers every slot
        // in order and still sends the DONE trailer.
        client
            .send_raw(b"BATCH 3\nKNM 4 2 0.5,0.25,0.75\nnot a query\nKNM 4 2 0.5,0.25,0.75\n")
            .expect("send mixed batch");
        match client.recv_response().expect("slot 0") {
            Response::Answer(a) => assert_eq!(a, expected),
            other => panic!("expected answer, got {other:?}"),
        }
        match client.recv_response().expect("slot 1") {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Parse),
            other => panic!("expected ERR parse, got {other:?}"),
        }
        match client.recv_response().expect("slot 2") {
            Response::Answer(a) => assert_eq!(a, expected),
            other => panic!("expected answer, got {other:?}"),
        }
        match client.recv_response().expect("trailer") {
            Response::Done { ok, failed } => {
                assert_eq!(ok, 2);
                assert_eq!(failed, 1);
            }
            other => panic!("expected DONE, got {other:?}"),
        }

        // And the ordinary client path still works on this connection.
        let got = client.query(&probe).expect("transport").expect("answer");
        assert_eq!(got, expected);
        client.quit().expect("quit");
    });
}

/// One malformed binary payload per round: unknown kinds, truncated
/// frames, forged lengths and counts, magic followed by junk.
fn binary_garbage(rng: &mut Rng64, round: usize) -> Vec<u8> {
    use knmatch_server::protocol::encode_request_frame;
    use knmatch_server::{Request, FRAME_MAGIC, MAX_FRAME};
    match round % 6 {
        // Unknown frame kind with a small random payload.
        0 => {
            let len = rng.range_usize(0..32);
            let mut bytes = vec![FRAME_MAGIC, 0x7E];
            bytes.extend_from_slice(&(len as u32).to_le_bytes());
            bytes.extend((0..len).map(|_| (rng.next_u64() & 0xFF) as u8));
            bytes
        }
        // A header declaring a frame over the cap; the server must
        // answer ERR oversized without allocating the claimed bytes.
        1 => {
            let mut bytes = vec![FRAME_MAGIC, 0x02];
            bytes.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
            bytes
        }
        // A valid query frame truncated mid-payload (the close after the
        // bout leaves it forever incomplete).
        2 => {
            let mut frame = Vec::new();
            encode_request_frame(
                &Request::Query(BatchQuery::KnMatch {
                    query: vec![0.1, 0.2, 0.3],
                    k: 2,
                    n: 1,
                }),
                &mut frame,
            )
            .expect("encode");
            let cut = rng.range_usize(1..frame.len());
            frame.truncate(cut);
            frame
        }
        // Magic plus a plausible length over random junk: a complete
        // frame whose payload does not decode.
        3 => {
            let len = rng.range_usize(1..64);
            let mut bytes = vec![FRAME_MAGIC, 0x01];
            bytes.extend_from_slice(&(len as u32).to_le_bytes());
            bytes.extend((0..len).map(|_| (rng.next_u64() & 0xFF) as u8));
            bytes
        }
        // A well-formed binary PING chased by text noise on the same
        // stream: encodings interleave at frame granularity.
        4 => {
            let mut bytes = Vec::new();
            encode_request_frame(&Request::Ping, &mut bytes).expect("encode");
            bytes.extend_from_slice(b"??? not a verb ???\n");
            bytes
        }
        // A batch frame whose count field lies (u32::MAX entries in a
        // four-byte payload).
        _ => {
            let mut bytes = vec![FRAME_MAGIC, 0x02, 4, 0, 0, 0];
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            bytes
        }
    }
}

/// Seeded malformed *binary* frames, each bout chased by a text one
/// (encodings share the line path), never take the server down, and
/// correct answers keep flowing — under every readiness backend the
/// host offers.
#[test]
fn event_server_survives_binary_garbage() {
    for reactor in backends() {
        fuzz_rounds(on(reactor), SEED ^ 0xB1AA, |rng, round| {
            vec![binary_garbage(rng, round), garbage(rng, round)]
        });
    }
}

/// Frames split at arbitrary syscall boundaries reassemble exactly: a
/// mixed text/binary request stream delivered a few bytes at a time
/// yields the same responses, in order, as one large write.
#[test]
fn split_writes_reassemble_across_syscall_boundaries() {
    use knmatch_server::protocol::{encode_batch_frame, encode_request_frame, format_query};
    use knmatch_server::Request;

    for reactor in backends() {
        let engine = build_engine();
        let (probe, expected) = probe_and_expected(&engine);
        with_server(engine, on(reactor), |addr| {
            // The whole conversation as one byte stream: binary PING, text
            // PING, a binary batch of two probes, a text probe.
            let mut stream = Vec::new();
            encode_request_frame(&Request::Ping, &mut stream).expect("encode");
            stream.extend_from_slice(b"PING\n");
            encode_batch_frame(&[probe.clone(), probe.clone()], &mut stream);
            stream.extend_from_slice(format_query(&probe).as_bytes());
            stream.push(b'\n');

            let mut client = Client::connect(addr).expect("connect");
            client.set_timeout(Some(Duration::from_secs(30))).ok();
            let mut rng = seeded(SEED ^ 0x5717);
            let mut sent = 0;
            let mut chunks = 0;
            while sent < stream.len() {
                let n = rng.range_usize(1..8).min(stream.len() - sent);
                client
                    .send_raw(&stream[sent..sent + n])
                    .expect("send chunk");
                sent += n;
                chunks += 1;
                if chunks % 8 == 0 {
                    // Give the reactor a chance to observe a partial frame.
                    thread::sleep(Duration::from_millis(1));
                }
            }

            match client.recv_response().expect("binary pong") {
                Response::Pong => {}
                other => panic!("expected PONG, got {other:?}"),
            }
            match client.recv_response().expect("text pong") {
                Response::Pong => {}
                other => panic!("expected PONG, got {other:?}"),
            }
            for slot in 0..2 {
                match client.recv_response().expect("batch slot") {
                    Response::Answer(a) => assert_eq!(a, expected, "slot {slot}"),
                    other => panic!("expected answer, got {other:?}"),
                }
            }
            match client.recv_response().expect("trailer") {
                Response::Done { ok, failed } => assert_eq!((ok, failed), (2, 0)),
                other => panic!("expected DONE, got {other:?}"),
            }
            match client.recv_response().expect("text answer") {
                Response::Answer(a) => assert_eq!(a, expected),
                other => panic!("expected answer, got {other:?}"),
            }
            client.quit().expect("quit");
        });
    }
}

/// The reverse split: a slow *reader*. Twenty large pipelined batches
/// are sent while nothing is read, so the server's socket buffer fills
/// and `writev` returns partial counts mid-iovec; the resumed flush must
/// still deliver every response byte-exactly and in order.
#[test]
fn slow_reader_forces_partial_writev_resume() {
    const BATCHES: usize = 20;

    for reactor in backends() {
        let engine = build_engine();
        let queries: Vec<BatchQuery> = (0..100)
            .map(|i| BatchQuery::KnMatch {
                query: vec![
                    0.005 * i as f64,
                    1.0 - 0.005 * i as f64,
                    0.3 + 0.003 * i as f64,
                ],
                k: 8,
                n: 3,
            })
            .collect();
        let expected: Vec<BatchAnswer> = engine
            .run(&queries)
            .into_iter()
            .map(|r| r.expect("valid query").into_answer())
            .collect();
        let cfg = ServerConfig {
            executors: 2,
            ..on(reactor)
        };
        with_server(engine, cfg, |addr| {
            let mut client = Client::connect(addr).expect("connect");
            client.set_binary(true);
            client.set_timeout(Some(Duration::from_secs(30))).ok();
            for _ in 0..BATCHES {
                client.send_batch(&queries).expect("send batch");
            }
            // Let the executors finish and the reactor hit WouldBlock
            // against the unread socket before the first read.
            thread::sleep(Duration::from_millis(100));
            for batch in 0..BATCHES {
                let reply = client.recv_batch(queries.len()).expect("recv batch");
                assert_eq!(
                    (reply.ok, reply.failed),
                    (queries.len() as u64, 0),
                    "batch {batch} under {reactor}"
                );
                for (slot, (got, want)) in reply.answers.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        got.as_ref().expect("answer"),
                        want,
                        "batch {batch} slot {slot} under {reactor}"
                    );
                }
            }
            let report = client.stats_report().expect("stats");
            let extras = report.extras.expect("event server reports extras");
            assert!(
                extras.writev_calls > 0,
                "responses must flush through writev under {reactor}"
            );
            client.quit().expect("quit");
        });
    }
}
