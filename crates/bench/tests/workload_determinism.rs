//! The workload harness's first guarantee: sessions are deterministic
//! state machines.
//!
//! (a) the same (seed, config) produces byte-identical `(request, reply)`
//!     transcripts — on a warm server (caches populated) and on a freshly
//!     built identical catalog alike;
//! (b) a different seed produces a different request stream;
//! (c) every reply the server gives a session matches the reply recomputed
//!     through direct [`vdx_core::DataExplorer`] calls on the same catalog
//!     (and drill-down `REFINE`s narrow monotonically).

use std::collections::HashSet;
use std::time::Duration;

use vdx_bench::workload::{Session, SessionKind, SessionSpace};
use vdx_core::{DataExplorer, ExplorerConfig};
use vdx_server::protocol::{self, Request};
use vdx_server::testkit::{self, TestServer};
use vdx_server::{ConnConfig, ServerConfig};

const PARTICLES: usize = 300;
const TIMESTEPS: usize = 3;
const SESSIONS: usize = 9;

fn spawn(tag: &str) -> TestServer {
    testkit::spawn_tiny_server(
        tag,
        PARTICLES,
        TIMESTEPS,
        8,
        ServerConfig {
            conn: ConnConfig {
                workers: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

fn space() -> SessionSpace {
    SessionSpace::for_steps((0..TIMESTEPS).collect())
}

fn session_seed(master: u64, i: usize) -> u64 {
    master ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run `SESSIONS` sessions (kinds round-robin) in-process against the
/// server's dispatch and return the full `(request, reply)` transcript.
fn run_transcript(server: &TestServer, master: u64) -> Vec<(String, String)> {
    let space = space();
    let mut out = Vec::new();
    for i in 0..SESSIONS {
        let kind = SessionKind::ALL[i % SessionKind::ALL.len()];
        let mut session = Session::new(kind, session_seed(master, i), &space, Duration::ZERO);
        let mut prev: Option<String> = None;
        while let Some(op) = session.next_op(prev.as_deref()) {
            let (reply, _) = server.state().handle_line(&op.line);
            out.push((op.line, reply.clone()));
            prev = Some(reply);
        }
        assert!(!session.aborted(), "session {i} hit an ERR reply");
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_transcripts() {
    let server = spawn("wd_same_a");
    let cold = run_transcript(&server, 42);
    assert!(cold.len() >= SESSIONS * 2, "sessions were trivially short");

    // Second pass on the same server: QueryCache and PlanCache are warm
    // now, yet every reply must still be byte-identical.
    let warm = run_transcript(&server, 42);
    assert_eq!(cold, warm, "warm caches changed a reply byte");

    // A freshly generated identical catalog on a second server gives the
    // same transcript again — nothing depends on process or cache state.
    let other = spawn("wd_same_b");
    let fresh = run_transcript(&other, 42);
    assert_eq!(cold, fresh, "an identical catalog diverged");

    server.shutdown_and_clean();
    other.shutdown_and_clean();
}

#[test]
fn different_seeds_give_different_request_streams() {
    let server = spawn("wd_diff");
    let a: Vec<String> = run_transcript(&server, 1)
        .into_iter()
        .map(|(req, _)| req)
        .collect();
    let b: Vec<String> = run_transcript(&server, 2)
        .into_iter()
        .map(|(req, _)| req)
        .collect();
    assert_ne!(a, b, "independent seeds must not replay the same stream");
    server.shutdown_and_clean();
}

/// Recompute the reply a request should get through the public explorer
/// API — the same oracle style `concurrent_clients` uses.
fn oracle_reply(ex: &DataExplorer, line: &str) -> String {
    match protocol::parse_request(line).expect("harness emits well-formed requests") {
        Request::Ping => "OK\tPONG".to_string(),
        Request::Info => protocol::info_reply(&ex.steps()),
        Request::Select { step, query } => {
            protocol::ids_reply("SELECT", &ex.select(step, &query).unwrap().ids)
        }
        Request::Refine { step, ids, query } => {
            let expr = fastbit::parse_query(&query).unwrap();
            let refined = ex.refine_ids(step, &ids, &expr).unwrap();
            let input: HashSet<u64> = ids.iter().copied().collect();
            assert!(
                refined.iter().all(|id| input.contains(id)),
                "REFINE must narrow monotonically: {line:?}"
            );
            protocol::ids_reply("REFINE", &refined)
        }
        Request::Hist {
            step,
            column,
            bins,
            condition,
        } => protocol::hist_reply(
            &ex.histogram1d(step, &column, bins, condition.as_deref())
                .unwrap(),
        ),
        Request::Track { ids } => protocol::track_reply(&ex.track(&ids).unwrap()),
        other => panic!("session emitted an out-of-vocabulary request: {other:?}"),
    }
}

#[test]
fn server_replies_match_the_direct_explorer_oracle() {
    let (catalog, dir) = testkit::tiny_catalog("wd_oracle", PARTICLES, TIMESTEPS, 8);
    let server = testkit::spawn_server(
        catalog.clone(),
        dir,
        ServerConfig {
            conn: ConnConfig {
                workers: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let ex = DataExplorer::from_catalog(catalog, ExplorerConfig::default());

    let transcript = run_transcript(&server, 7);
    let mut selects = 0;
    let mut refines = 0;
    let mut tracks = 0;
    for (request, reply) in &transcript {
        assert_eq!(
            reply,
            &oracle_reply(&ex, request),
            "server reply diverged from the explorer oracle for {request:?}"
        );
        match request.split('\t').next().unwrap() {
            "SELECT" => selects += 1,
            "REFINE" => refines += 1,
            "TRACK" => tracks += 1,
            _ => {}
        }
    }
    // The round-robin mix must actually have exercised the dependent ops.
    assert!(selects > 0 && refines > 0 && tracks > 0, "{transcript:?}");
    server.shutdown_and_clean();
}
