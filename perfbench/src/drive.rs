//! The closed-loop load generator: one thread and one connection per
//! client, each replaying its seeded sessions back to back with no think
//! time until the phase's deadline.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use vdx_server::framing::busy_reply;
use vdx_server::Client;

use crate::trace::Recorder;
use crate::workload::{Materializer, Session};

/// How a request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An `OK` reply.
    Ok,
    /// An `ERR` reply other than admission control.
    Err,
    /// `ERR busy`: refused by admission control.
    Busy,
    /// The connection failed; no reply.
    Transport,
}

/// One request of a timed phase. The reply is kept as a hash and length,
/// which is all the oracle needs, so long runs stay small in memory.
#[derive(Debug, Clone)]
pub struct Record {
    /// The request line.
    pub line: String,
    /// How it ended.
    pub status: Status,
    /// Client-observed latency.
    pub latency: Duration,
    /// [`fnv1a`] of the reply line.
    pub hash: u64,
    /// Reply length in bytes.
    pub len: usize,
}

impl Record {
    /// Record `reply` as the answer to `line`.
    pub fn new(line: String, reply: &str, latency: Duration) -> Record {
        let status = if reply.starts_with("OK") {
            Status::Ok
        } else if reply == busy_reply() {
            Status::Busy
        } else {
            Status::Err
        };
        Record {
            line,
            status,
            latency,
            hash: fnv1a(reply.as_bytes()),
            len: reply.len(),
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The outcome of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Records per connection, in the order sent.
    pub conns: Vec<Vec<Record>>,
    /// Wall time from the common start to the last connection's end.
    pub elapsed: Duration,
    /// Per connection, the first session not started (where a later phase
    /// continues the stream).
    pub next_session: Vec<usize>,
    /// Whether a connection ran out of planned sessions before the deadline.
    pub exhausted: bool,
}

impl Phase {
    /// Every record, connection by connection.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.conns.iter().flatten()
    }

    /// Requests that got a reply, per second of the phase.
    pub fn ops_per_s(&self) -> f64 {
        let done = self
            .records()
            .filter(|r| r.status != Status::Transport)
            .count();
        done as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// What one connection thread returns.
struct ConnResult {
    records: Vec<Record>,
    elapsed: Duration,
    next_session: usize,
    exhausted: bool,
}

fn run_conn(
    addr: SocketAddr,
    sessions: &[Session],
    first: usize,
    run_for: Duration,
    barrier: &Barrier,
    traced: bool,
) -> ConnResult {
    let mut client = Client::connect(addr);
    barrier.wait();
    let started = Instant::now();
    let mut records = Vec::new();
    let mut recorder = Recorder::new(traced);
    let mut materializer = Materializer::default();
    let mut next = first;
    'sessions: while next < sessions.len() {
        if started.elapsed() >= run_for {
            break;
        }
        materializer.reset();
        next += 1;
        for planned in &sessions[next - 1] {
            if started.elapsed() >= run_for {
                break 'sessions;
            }
            let Some(line) = materializer.line(planned) else {
                continue;
            };
            let Ok(conn) = client.as_mut() else {
                break 'sessions;
            };
            let sent = Instant::now();
            let root = recorder.open("client_request");
            let reply = conn.request(&line);
            recorder.close(root);
            let latency = sent.elapsed();
            match reply {
                Ok(reply) => {
                    materializer.observe(&line, &reply);
                    records.push(Record::new(line, &reply, latency));
                }
                Err(_) => {
                    records.push(Record {
                        line,
                        status: Status::Transport,
                        latency,
                        hash: 0,
                        len: 0,
                    });
                    client = Err(std::io::Error::other("connection failed"));
                    break 'sessions;
                }
            }
            recorder.finish_request();
        }
    }
    if let Err(e) = &client {
        if records.is_empty() {
            // Could not connect at all: one failed request, so the run fails.
            eprintln!("perfbench: connect {addr}: {e}");
            records.push(Record {
                line: "CONNECT".to_string(),
                status: Status::Transport,
                latency: Duration::ZERO,
                hash: 0,
                len: 0,
            });
        }
    }
    ConnResult {
        elapsed: started.elapsed(),
        exhausted: next >= sessions.len() && started.elapsed() < run_for,
        records,
        next_session: next,
    }
}

/// Run one closed-loop phase: connection `c` replays `streams[c]` from
/// session `first[c]` until `run_for` has passed. With `traced`, each
/// request is wrapped in a client-side span of the benchmark's recorder.
pub fn closed_loop(
    addr: SocketAddr,
    streams: &[Vec<Session>],
    first: &[usize],
    run_for: Duration,
    traced: bool,
) -> Phase {
    let barrier = Barrier::new(streams.len());
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(first)
            .map(|(sessions, &first)| {
                let barrier = &barrier;
                scope.spawn(move || run_conn(addr, sessions, first, run_for, barrier, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for r in results {
        phase.elapsed = phase.elapsed.max(r.elapsed);
        phase.exhausted |= r.exhausted;
        phase.next_session.push(r.next_session);
        phase.conns.push(r.records);
    }
    phase
}

/// Send `lines` in order over one connection, returning every reply.
pub fn send_all(addr: SocketAddr, lines: &[String]) -> Result<Vec<String>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    lines
        .iter()
        .map(|line| client.request(line).map_err(|e| format!("{line}: {e}")))
        .collect()
}
