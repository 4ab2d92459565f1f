//! `vdx-workload`: the production workload harness (see `docs/WORKLOAD.md`).
//!
//! Drives a mixed population of browse / drill-down / tracker sessions
//! against a `vdx-server` — either one it self-hosts over a generated
//! catalog (the default) or an external one via `--addr` — then checks the
//! declared SLOs, reconciles client counts against the server's own
//! STATS/METRICS, and writes `BENCH_workload_mixed.json` (+ CSV).
//!
//! Usage:
//! ```text
//! cargo run --release -p vdx-bench --bin vdx-workload -- \
//!     [--addr HOST:PORT | --particles N --timesteps N --workers N --queue-depth N] \
//!     [--shards N [--replicas R]] \
//!     [--sessions N] [--arrival-rps F] [--think-ms F] [--seed N] \
//!     [--mix B:D:T] [--out DIR] [--json NAME]
//! ```
//!
//! With `--shards N` the harness self-hosts a sharded cluster instead of a
//! single server: N replica groups of R backends each behind a `vdx-router`
//! coordinator (see `docs/CLUSTER.md`), and the sessions drive the router.
//! Reconciliation still balances exactly against the *router's* STATS and
//! METRICS — the router counts one client-facing request per session op
//! regardless of how many backend requests the scatter-gather layer
//! absorbed, so the same client==server identity holds on a cluster.
//!
//! Exit status: `0` all SLOs pass and counts reconcile; `1` an SLO was
//! violated; `2` client/server counts diverged or the run itself failed.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vdx_bench::catalog_workload;
use vdx_bench::workload::{self, SessionMix, SessionSpace, SloSet, WorkloadConfig};
use vdx_server::testkit::spawn_cluster;
use vdx_server::{Client, ConnConfig, RouterConfig, Server, ServerConfig};

struct Args {
    addr: Option<SocketAddr>,
    particles: usize,
    timesteps: usize,
    conn: ConnConfig,
    shards: usize,
    replicas: usize,
    sessions: usize,
    arrival_rps: f64,
    think_ms: f64,
    seed: u64,
    mix: SessionMix,
    out: PathBuf,
    json: String,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let mix = get("--mix")
        .map(|v| {
            let parts: Vec<u32> = v.split(':').filter_map(|s| s.parse().ok()).collect();
            assert_eq!(parts.len(), 3, "--mix wants BROWSE:DRILL:TRACKER weights");
            SessionMix {
                browse: parts[0],
                drill_down: parts[1],
                tracker: parts[2],
            }
        })
        .unwrap_or_default();
    let defaults = ConnConfig::default();
    Args {
        addr: get("--addr").map(|v| v.parse().expect("--addr HOST:PORT")),
        particles: get("--particles")
            .and_then(|v| v.parse().ok())
            .unwrap_or(8_000),
        timesteps: get("--timesteps").and_then(|v| v.parse().ok()).unwrap_or(6),
        conn: ConnConfig {
            workers: get("--workers")
                .and_then(|v| v.parse().ok())
                .unwrap_or(defaults.workers),
            queue_depth: get("--queue-depth")
                .and_then(|v| v.parse().ok())
                .unwrap_or(defaults.queue_depth),
            ..defaults
        },
        shards: get("--shards").and_then(|v| v.parse().ok()).unwrap_or(0),
        replicas: get("--replicas").and_then(|v| v.parse().ok()).unwrap_or(1),
        sessions: get("--sessions").and_then(|v| v.parse().ok()).unwrap_or(40),
        arrival_rps: get("--arrival-rps")
            .and_then(|v| v.parse().ok())
            .unwrap_or(40.0),
        think_ms: get("--think-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4.0),
        seed: get("--seed").and_then(|v| v.parse().ok()).unwrap_or(42),
        mix,
        out: get("--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("experiments")),
        json: get("--json").unwrap_or_else(|| "BENCH_workload_mixed.json".to_string()),
    }
}

/// Ask the server which timesteps it serves (`INFO` reply field 3).
fn discover_steps(addr: SocketAddr) -> Vec<usize> {
    let mut client = Client::connect(addr).expect("connect for INFO");
    let reply = client.request("INFO").expect("INFO round trip");
    let _ = client.request("QUIT");
    let steps: Vec<usize> = reply
        .split('\t')
        .nth(3)
        .unwrap_or("")
        .split(',')
        .filter_map(|s| s.parse().ok())
        .collect();
    assert!(!steps.is_empty(), "server reported no timesteps: {reply:?}");
    steps
}

fn main() {
    let args = parse_args();

    // Self-host unless pointed at an external server.
    let mut hosted = None;
    let mut hosted_cluster = None;
    let addr = match (args.addr, args.shards) {
        (Some(addr), _) => addr,
        (None, 0) => {
            let (catalog, _dir) = catalog_workload("workload", args.particles, args.timesteps);
            let server = Server::bind(
                Arc::new(catalog),
                "127.0.0.1:0",
                ServerConfig {
                    conn: args.conn,
                    ..Default::default()
                },
            )
            .expect("bind workload server");
            let (handle, join) = server.spawn();
            let addr = handle.addr();
            hosted = Some((handle, join));
            addr
        }
        (None, shards) => {
            // Cluster topology: N shard groups of R replicas behind a
            // router; the sessions (and the reconciliation) talk only to
            // the router.
            let cluster = spawn_cluster(
                "workload_cluster",
                args.particles,
                args.timesteps,
                32,
                shards,
                args.replicas.max(1),
                ServerConfig::default(),
                RouterConfig {
                    conn: args.conn,
                    ..Default::default()
                },
            );
            let addr = cluster.addr();
            hosted_cluster = Some(cluster);
            addr
        }
    };

    let config = WorkloadConfig {
        sessions: args.sessions,
        arrival_rps: args.arrival_rps,
        mix: args.mix,
        think: Duration::from_secs_f64(args.think_ms / 1_000.0),
        seed: args.seed,
        space: SessionSpace::for_steps(discover_steps(addr)),
    };
    let topology = match (args.addr, args.shards) {
        (Some(_), _) => "external".to_string(),
        (None, 0) => "single".to_string(),
        (None, shards) => format!("{shards}x{} cluster", args.replicas.max(1)),
    };
    println!(
        "# vdx-workload: {} sessions @ {}/s (mix {}:{}:{}), think {}ms, seed {}, topology {topology}, addr {addr}",
        config.sessions,
        config.arrival_rps,
        config.mix.browse,
        config.mix.drill_down,
        config.mix.tracker,
        args.think_ms,
        config.seed,
    );

    let outcome = match workload::run(addr, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("workload run failed: {e}");
            std::process::exit(2);
        }
    };
    let slos = SloSet::ci_default();
    let report = workload::evaluate(&slos, &outcome);

    let records = workload::report::build_records(&outcome, &report);
    let json =
        workload::report::write_json(&args.out, &args.json, &records).expect("write workload JSON");
    let csv_name = args.json.replace(".json", ".csv");
    let csv =
        workload::report::write_csv(&args.out, &csv_name, &records).expect("write workload CSV");
    print!("{}", workload::report::render_summary(&outcome, &report));
    println!("# wrote {} and {}", json.display(), csv.display());

    if let Some((handle, join)) = hosted {
        handle.shutdown();
        join.join().expect("server run loop").expect("server exit");
    }
    if let Some(cluster) = hosted_cluster {
        println!(
            "# cluster: forwards={} fanouts={} failovers={} shard_unavailable={}",
            cluster.router.state().forwards(),
            cluster.router.state().fanouts(),
            cluster.router.state().failovers(),
            cluster.router.state().shard_unavailable(),
        );
        cluster.shutdown_and_clean();
    }

    if let Err(e) = outcome.reconciled() {
        eprintln!("reconciliation failed: {e}");
        std::process::exit(2);
    }
    if !report.pass {
        std::process::exit(1);
    }
}
