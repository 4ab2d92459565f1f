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
//! Every flag's value must parse (`--mix` wants three weights with a
//! nonzero total), and a flag the usage line does not name is refused.
//!
//! Exit status: `0` all SLOs pass and counts reconcile; `1` an SLO was
//! violated; `2` the arguments were refused, client/server counts diverged
//! or the run itself failed.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vdx_bench::catalog_workload;
use vdx_bench::workload::{self, SessionMix, SessionSpace, SloSet, WorkloadConfig};
use vdx_server::cli::{check_args, optional_flag, parsed_flag};
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

const USAGE: &str = "vdx-workload [--addr HOST:PORT] [--particles N] [--timesteps N] [--workers N] [--queue-depth N] [--shards N] [--replicas R] [--sessions N] [--arrival-rps F] [--think-ms F] [--seed N] [--mix B:D:T] [--out DIR] [--json NAME]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    check_args(USAGE, argv)?;
    let defaults = ConnConfig::default();
    Ok(Args {
        addr: optional_flag(argv, "--addr")?,
        particles: parsed_flag(argv, "--particles", 8_000)?,
        timesteps: parsed_flag(argv, "--timesteps", 6)?,
        conn: ConnConfig {
            workers: parsed_flag(argv, "--workers", defaults.workers)?,
            queue_depth: parsed_flag(argv, "--queue-depth", defaults.queue_depth)?,
            ..defaults
        },
        shards: parsed_flag(argv, "--shards", 0)?,
        replicas: parsed_flag(argv, "--replicas", 1)?,
        sessions: parsed_flag(argv, "--sessions", 40)?,
        arrival_rps: parsed_flag(argv, "--arrival-rps", 40.0)?,
        think_ms: parsed_flag(argv, "--think-ms", 4.0)?,
        seed: parsed_flag(argv, "--seed", 42)?,
        mix: parsed_flag(argv, "--mix", SessionMix::default())?,
        out: parsed_flag(argv, "--out", PathBuf::from("experiments"))?,
        json: parsed_flag(argv, "--json", "BENCH_workload_mixed.json".to_string())?,
    })
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("vdx-workload: {message}");
            std::process::exit(2);
        }
    };

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
