//! Protocol-v2 connection multiplexing: many requests in flight on one
//! TCP connection, demultiplexed by request id.
//!
//! The invariants under test:
//!
//! * **Depth** — a pipelined client sustains at least four requests in
//!   flight on a single connection (the acceptance floor for the v2
//!   transport), and the answers stay bitwise-correct even when waited
//!   out of submission order.
//! * **Equivalence** — pipelined v2 scores are bitwise-identical to the
//!   serial v1 protocol and to the in-process frozen model.
//! * **Compatibility** — a hand-rolled v1 peer (no Hello handshake, v1
//!   frame headers) still gets v1-framed, decodable responses from the
//!   multiplexed server.
//! * **Coalescing** — concurrent single-session requests reach the
//!   replica's engine together and share one micro-batch.

mod common;

use std::io::Write as _;
use std::net::TcpStream;

use common::{guard, sess, session_pool, ToyModel};
use embsr_net::frame::{self, Frame, FrameKind};
use embsr_net::{wire, NetClient, Server, ServerConfig, VERSION, VERSION_V1};
use embsr_obs::{metrics, trace};
use embsr_serve::{
    EngineConfig, FrozenModel, ScoreBatch, SubmitOptions, TopK, METRIC_BATCH_SESSIONS,
};

const NUM_ITEMS: usize = 24;

fn start_server(replicas: usize, seed: u64) -> (Server, FrozenModel<ToyModel>) {
    let frozen = FrozenModel::freeze(ToyModel::new(NUM_ITEMS, seed), 16);
    let server = Server::start(
        &frozen,
        move || ToyModel::new(NUM_ITEMS, seed),
        ServerConfig {
            replicas,
            engine: EngineConfig {
                workers: 1,
                max_batch: 16,
                flush_deadline_us: 200,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    (server, frozen)
}

fn assert_bitwise(expected: &[Vec<f32>], got: &[Vec<f32>], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: row count");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(e.len(), g.len(), "{what}: row width");
        for (a, b) in e.iter().zip(g) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} != {b}");
        }
    }
}

#[test]
fn one_connection_sustains_four_in_flight_and_completes_out_of_order() {
    let _g = guard();
    let (server, frozen) = start_server(1, 21);
    let sessions = session_pool(12, NUM_ITEMS as u32, 9);

    // Precompute expected rows in-process (the frozen model is not Sync;
    // after submission the test only compares).
    let batches: Vec<Vec<embsr_sessions::Session>> =
        (0..6).map(|i| sessions[i * 2..i * 2 + 2].to_vec()).collect();
    let expected: Vec<Vec<Vec<f32>>> = batches.iter().map(|b| frozen.score_batch(b)).collect();

    // Hold the lone replica's dispatch so submissions pile up in flight.
    assert!(server.set_replica_delay_us(0, 20_000));

    let client = NetClient::connect(server.addr()).expect("connect");
    assert_eq!(client.proto_version(), VERSION, "handshake negotiates v2");

    let pendings: Vec<_> = batches
        .iter()
        .map(|b| {
            client.submit_score(
                &ScoreBatch {
                    sessions: b.clone(),
                },
                SubmitOptions::default(),
            )
        })
        .collect();
    assert!(
        client.in_flight() >= 4,
        "single connection holds >=4 in flight, got {}",
        client.in_flight()
    );

    // Heal the replica and drain in REVERSE submission order: the demux
    // must hand each waiter its own response regardless of wait order.
    assert!(server.set_replica_delay_us(0, 0));
    for (i, pending) in pendings.into_iter().enumerate().rev() {
        let resp = pending.wait().expect("pipelined request succeeds");
        assert_bitwise(&expected[i], &resp.scores, "out-of-order drain");
    }
    assert_eq!(client.in_flight(), 0, "all requests drained");
    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_v2_matches_serial_v1_and_direct_scores_bitwise() {
    let _g = guard();
    let (server, frozen) = start_server(2, 17);
    let sessions = session_pool(20, NUM_ITEMS as u32, 5);

    let batches: Vec<Vec<embsr_sessions::Session>> =
        (0..5).map(|i| sessions[i * 4..i * 4 + 4].to_vec()).collect();
    let direct: Vec<Vec<Vec<f32>>> = batches.iter().map(|b| frozen.score_batch(b)).collect();

    // Pipelined v2: submit everything, then wait.
    let v2 = NetClient::connect(server.addr()).expect("v2 connect");
    assert_eq!(v2.proto_version(), VERSION);
    let pendings: Vec<_> = batches
        .iter()
        .map(|b| {
            v2.submit_score(
                &ScoreBatch {
                    sessions: b.clone(),
                },
                SubmitOptions::default(),
            )
        })
        .collect();
    let v2_scores: Vec<Vec<Vec<f32>>> = pendings
        .into_iter()
        .map(|p| p.wait().expect("v2 scores").scores)
        .collect();

    // Serial v1: the compatibility client never pipelines.
    let v1 = NetClient::connect_v1(server.addr()).expect("v1 connect");
    assert_eq!(v1.proto_version(), VERSION_V1);
    assert_eq!(v1.in_flight(), 0, "v1 mode is strictly serial");
    for (i, b) in batches.iter().enumerate() {
        let resp = v1
            .score(
                &ScoreBatch {
                    sessions: b.clone(),
                },
                SubmitOptions::default(),
            )
            .expect("v1 scores");
        assert_bitwise(&direct[i], &resp.scores, "v1 vs direct");
        assert_bitwise(&v2_scores[i], &resp.scores, "v1 vs pipelined v2");
    }
    for (i, got) in v2_scores.iter().enumerate() {
        assert_bitwise(&direct[i], got, "pipelined v2 vs direct");
    }
    server.shutdown();
}

#[test]
fn raw_v1_peer_without_hello_gets_v1_framed_responses() {
    let _g = guard();
    let (server, frozen) = start_server(2, 31);
    let batch = vec![sess(3, &[1, 4, 2]), sess(8, &[5])];
    let expected = frozen.score_batch(&batch);

    // A legacy peer: raw TCP, v1 frame headers, no Hello handshake.
    let mut stream = TcpStream::connect(server.addr()).expect("tcp connect");
    let span = trace::root("net_request");
    let payload = wire::encode_score_request(
        &ScoreBatch {
            sessions: batch.clone(),
        },
        SubmitOptions::default(),
        span.ctx(),
    );
    let req = Frame::versioned(VERSION_V1, FrameKind::ScoreRequest, 77, payload);
    frame::write_frame(&mut stream, &req).expect("write v1 frame");
    stream.flush().expect("flush");

    let resp = frame::read_frame(&mut stream).expect("read response frame");
    assert_eq!(resp.version, VERSION_V1, "server echoes the peer's version");
    assert_eq!(resp.kind, FrameKind::ScoreResponse);
    assert_eq!(resp.request_id, 77, "response carries the request id");
    let decoded = wire::decode_score_response(&resp.payload).expect("v1 payload decodes");
    assert_bitwise(&expected, &decoded.scores, "raw v1 peer");
    server.shutdown();
}

#[test]
fn submit_and_blocking_calls_interleave_on_one_connection() {
    let _g = guard();
    let (server, frozen) = start_server(2, 41);
    let sessions = session_pool(8, NUM_ITEMS as u32, 2);

    let batch_a = sessions[..3].to_vec();
    let batch_b = sessions[3..6].to_vec();
    let want_a = frozen.score_batch(&batch_a);
    let want_b = frozen.score_batch(&batch_b);
    let want_k = frozen.score_batch(&batch_a);

    let client = NetClient::connect(server.addr()).expect("connect");

    // A pending score left in flight must not disturb blocking calls on
    // the same connection, in either API shape.
    let pending = client.submit_score(
        &ScoreBatch {
            sessions: batch_a.clone(),
        },
        SubmitOptions::default(),
    );
    let blocking = client
        .score(
            &ScoreBatch { sessions: batch_b },
            SubmitOptions::default(),
        )
        .expect("blocking score amid pending");
    assert_bitwise(&want_b, &blocking.scores, "blocking amid pending");

    let top = client
        .top_k(
            &TopK {
                sessions: batch_a.clone(),
                k: 3,
            },
            SubmitOptions::default(),
        )
        .expect("top-k amid pending");
    assert_eq!(top.items.len(), batch_a.len());
    for (row, items) in want_k.iter().zip(&top.items) {
        let best = items.first().expect("k >= 1");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(best.score.to_bits(), max.to_bits(), "top-1 matches argmax");
    }

    let resp = pending.wait().expect("pending resolves after later calls");
    assert_bitwise(&want_a, &resp.scores, "pending resolved late");
    server.shutdown();
}

#[test]
fn pipelined_single_session_requests_coalesce_into_one_engine_batch() {
    let _g = guard();
    let seed = 51;
    let frozen = FrozenModel::freeze(ToyModel::new(NUM_ITEMS, seed), 16);
    // One replica whose engine holds an underfull batch open for 200ms:
    // every request pipelined below arrives well inside that window.
    let server = Server::start(
        &frozen,
        move || ToyModel::new(NUM_ITEMS, seed),
        ServerConfig {
            replicas: 1,
            engine: EngineConfig {
                workers: 1,
                max_batch: 8,
                flush_deadline_us: 200_000,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let sessions = session_pool(8, NUM_ITEMS as u32, 4);
    let expected = frozen.score_batch(&sessions);

    metrics::reset_all();
    metrics::set_enabled(true);
    let client = NetClient::connect(server.addr()).expect("connect");
    let pendings: Vec<_> = sessions
        .iter()
        .map(|s| {
            client.submit_score(
                &ScoreBatch {
                    sessions: vec![s.clone()],
                },
                SubmitOptions::default(),
            )
        })
        .collect();
    let rows: Vec<Vec<f32>> = pendings
        .into_iter()
        .map(|p| {
            let mut resp = p.wait().expect("pipelined request succeeds");
            assert_eq!(resp.scores.len(), 1, "one row per single-session request");
            resp.scores.remove(0)
        })
        .collect();
    let widest = metrics::histogram(METRIC_BATCH_SESSIONS).max();
    metrics::set_enabled(false);
    drop(client);
    server.shutdown();

    assert_bitwise(&expected, &rows, "coalesced singles vs in-process batch");
    assert!(
        widest.is_some_and(|b| b > 2),
        "8 concurrent single-session requests must share a micro-batch, widest was {widest:?}"
    );
}
