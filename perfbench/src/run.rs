//! One benchmark invocation: set up, drive, check, report.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datastore::Catalog;
use vdx_server::{Router, RouterConfig, Server, ServerHandle};

use crate::catalog::{self, Generated};
use crate::drive::{self, fnv1a, Phase, Record, Status};
use crate::host::{self, Host};
use crate::oracle::{Mismatch, Oracle};
use crate::probe;
use crate::report::{self, metric, Metric};
use crate::stats::{self, median, quantile};
use crate::trace::{Composed, Recorder};
use crate::workload::{self, Op, Scale, Session, Workload};

/// Client connections (and load-generator threads): the core count of the
/// reference machine, so the generator never oversubscribes it.
const CONNECTIONS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// `sweep` exists to miss the dataset cache: its hit ratio must stay
/// below this ceiling, and its query-cache hit ratio below
/// [`SWEEP_QC_HIT_CEILING`].
const SWEEP_DS_HIT_CEILING: f64 = 0.5;

/// Query-cache hit ratio ceiling of `sweep` (≈ 0 by construction).
const SWEEP_QC_HIT_CEILING: f64 = 0.01;

/// Requests of the timed phase the traced run replays through the
/// composition.
const REPLAY_CAP: usize = 400;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the catalog and of every session plan.
    pub seed: u64,
    /// Length of the measurement.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Root of the checkout; every file the run writes is under
    /// `<root>/perfbench/out`.
    pub root: PathBuf,
    /// Data scale (the workload's own unless overridden, as tests do).
    pub scale: Scale,
    /// Set-ups per run.
    pub setup_reps: usize,
    /// The `perfbench` executable, started as the server host.
    pub host_exe: PathBuf,
}

impl Options {
    /// Options for `workload` at its own scale, run from the checkout at
    /// `root` with `host_exe` as the host.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        root: PathBuf,
        host_exe: PathBuf,
    ) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            root,
            scale: workload.scale(),
            setup_reps: SETUP_REPS,
            host_exe,
        }
    }

    fn out_dir(&self) -> PathBuf {
        self.root.join("perfbench").join("out")
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every reply matched the oracle and every count reconciled.
    pub correct: bool,
    /// Requests sent in timed phases.
    pub attempted: u64,
    /// Requests that failed, were refused, or got a wrong reply.
    pub failed: u64,
    /// The metrics of the final line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (manifest, shares, checks).
    pub report: Vec<String>,
    /// Every request line of the timed phase, per connection.
    pub lines: Vec<Vec<String>>,
}

/// One finished set-up: a generated catalog, a running host, warm caches.
struct Setup {
    generated: Generated,
    host: Host,
    run_dir: PathBuf,
    cache_bytes: usize,
    setup_s: f64,
    store_write_s: f64,
}

fn expect_ok(replies: &[String], what: &str) -> Result<(), String> {
    match replies.iter().find(|r| !r.starts_with("OK")) {
        Some(bad) => Err(format!("{what}: {bad}")),
        None => Ok(()),
    }
}

/// Generate, start the host, fill the store through `WARM`, warm caches.
fn setup_once(opts: &Options, run_dir: &Path) -> Result<Setup, String> {
    let started = Instant::now();
    let generated = catalog::generate(&run_dir.join("catalog"), opts.scale, opts.seed)?;
    let cache_bytes = (generated.raw_bytes as f64 * opts.workload.cache_share()) as usize;
    let host = Host::start(
        &opts.host_exe,
        opts.workload,
        &generated.dir,
        &host::store_dir(run_dir),
        cache_bytes,
    )?;
    let warm = Instant::now();
    expect_ok(&drive::send_all(host.front, &["WARM".to_string()])?, "WARM")?;
    let store_write_s = warm.elapsed().as_secs_f64();
    if opts.workload.drills_down() {
        let overview = workload::overview_lines(opts.scale.timesteps);
        expect_ok(&drive::send_all(host.front, &overview)?, "warm-up")?;
    }
    Ok(Setup {
        generated,
        host,
        run_dir: run_dir.to_path_buf(),
        cache_bytes,
        setup_s: started.elapsed().as_secs_f64(),
        store_write_s,
    })
}

/// Run `opts.setup_reps` set-ups, keeping the last one running. Returns it
/// with the per-rep `(setup_s, generate_s, index_build_s, store_write_s)`.
fn setup(opts: &Options, base: &Path) -> Result<(Setup, Vec<[f64; 4]>), String> {
    let mut reps = Vec::new();
    for rep in 0..opts.setup_reps.max(1) {
        let run_dir = base.join(format!("rep{rep}"));
        let s = setup_once(opts, &run_dir)?;
        reps.push([
            s.setup_s,
            s.generated.generate_s,
            s.generated.index_build_s,
            s.store_write_s,
        ]);
        if rep + 1 == opts.setup_reps.max(1) {
            return Ok((s, reps));
        }
        s.host.stop()?;
        std::fs::remove_dir_all(&run_dir).ok();
    }
    unreachable!("at least one set-up runs")
}

/// Sessions planned per connection: far more than a run can use.
fn sessions_for(seconds: f64) -> usize {
    (400.0 * seconds.max(1.0)) as usize
}

/// The plans of every connection.
pub fn plan(opts: &Options, space: &workload::Space) -> Vec<Vec<Session>> {
    (0..CONNECTIONS)
        .map(|c| {
            workload::plan_stream(
                opts.workload,
                opts.seed,
                c,
                space,
                sessions_for(opts.seconds),
            )
        })
        .collect()
}

/// An in-process server over the run's catalog: the `handle_line`
/// reference of the traced run and the single-server reference of
/// `cluster`. It reads the segments the host wrote (linked into one store
/// directory for `cluster`).
fn local_server(setup: &Setup, opts: &Options) -> Result<Server, String> {
    let store = host::store_dir(&setup.run_dir);
    let local_store = if opts.workload == Workload::Cluster {
        let merged = setup.run_dir.join("local-store");
        std::fs::create_dir_all(&merged).map_err(|e| format!("local store: {e}"))?;
        for seg in probe::segment_files(&store) {
            let name = seg.file_name().expect("segment file name");
            std::fs::hard_link(&seg, merged.join(name))
                .or_else(|_| std::fs::copy(&seg, merged.join(name)).map(|_| ()))
                .map_err(|e| format!("link segment: {e}"))?;
        }
        merged
    } else {
        store
    };
    let catalog = host::open_with_store(&setup.generated.dir, &local_store)?;
    Server::bind(
        Arc::new(catalog),
        "127.0.0.1:0",
        host::server_config(setup.cache_bytes),
    )
    .map_err(|e| format!("bind local server: {e}"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Client-side end-to-end metrics of a timed phase.
fn end_to_end(phase: &Phase, setup_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let all: Vec<f64> = phase.records().map(|r| ms(r.latency)).collect();
    let of = |op: Op| -> Vec<f64> {
        phase
            .records()
            .filter(|r| Op::of_line(&r.line) == op)
            .map(|r| ms(r.latency))
            .collect()
    };
    let op_p50 = |name, op| {
        let v = of(op);
        metric(name, "ms", median(&v), v.len())
    };
    vec![
        metric("ops_per_s", "1/s", phase.ops_per_s(), all.len()),
        metric("p50_ms", "ms", median(&all), all.len()),
        metric("p99_ms", "ms", quantile(&all, 0.99), all.len()),
        op_p50("select_p50_ms", Op::Select),
        op_p50("refine_p50_ms", Op::Refine),
        op_p50("hist_p50_ms", Op::Hist),
        op_p50("track_p50_ms", Op::Track),
        metric("setup_s", "s", median(setup_s), setup_s.len()),
        metric("peak_rss_mb", "MiB", peak_rss_mb, 1),
    ]
}

/// Records of every connection, interleaved round-robin, at most `cap`.
fn interleaved(phase: &Phase, cap: usize) -> Vec<&Record> {
    let longest = phase.conns.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| phase.conns.iter().filter_map(move |c| c.get(i)))
        .take(cap)
        .collect()
}

/// Per-layer numbers of the traced replay.
#[derive(Debug, Default)]
struct Replay {
    layer_us: std::collections::HashMap<&'static str, Vec<f64>>,
    compile_us: Vec<f64>,
    self_sum_us: Vec<f64>,
    handle_line_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    loads_per_track: Vec<f64>,
    mismatches: Vec<Mismatch>,
    requests: usize,
}

/// Replay the timed phase's stream through the traced composition and the
/// in-process server, checking both against the recorded replies, and write
/// the span trees to `trace_path`.
fn replay(
    phase: &Phase,
    catalog: Arc<Catalog>,
    local: &ServerHandle,
    opts: &Options,
    cache_bytes: usize,
    trace_path: &Path,
) -> Result<Replay, String> {
    let composed = Composed::new(catalog, &host::server_config(cache_bytes));
    composed.warm()?;
    let (warm, _) = local.state().handle_line("WARM");
    expect_ok(&[warm], "local WARM")?;
    let mut rec = Recorder::new(true);
    if opts.workload.drills_down() {
        for line in workload::overview_lines(opts.scale.timesteps) {
            composed.dispatch(&mut rec, &line);
            local.state().handle_line(&line);
        }
    }
    let mut out = Replay::default();
    let mut jsonl = String::new();
    for record in interleaved(phase, REPLAY_CAP) {
        let reply = composed.dispatch(&mut rec, &record.line);
        let started = Instant::now();
        let (served, _) = local.state().handle_line(&record.line);
        let handle_us = started.elapsed().as_secs_f64() * 1e6;
        let tree = rec.trees().last().expect("dispatch records a tree");
        let identical =
            fnv1a(reply.as_bytes()) == record.hash && reply.len() == record.len && served == reply;
        if !identical {
            out.mismatches.push(Mismatch {
                line: record.line.chars().take(120).collect(),
                why: "composed reply differs from the server's".to_string(),
            });
        }
        // A layer's self time per request, summed over its spans (a
        // request parses its line and then its query, for instance).
        let own = tree.self_ns();
        let mut per_layer: Vec<(&'static str, u64)> = Vec::new();
        for (span, own_ns) in tree.spans.iter().zip(&own) {
            match per_layer.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, sum)) => *sum += own_ns,
                None => per_layer.push((span.name, *own_ns)),
            }
            if span.name == "plan" && span.hit == Some(false) {
                out.compile_us.push(span.dur_ns() as f64 / 1e3);
            }
        }
        for (name, ns) in per_layer {
            out.layer_us.entry(name).or_default().push(ns as f64 / 1e3);
        }
        for (name, n) in &tree.counts {
            if *name == "loads" {
                out.loads_per_track.push(*n as f64);
            }
        }
        out.self_sum_us.push(own.iter().sum::<u64>() as f64 / 1e3);
        out.handle_line_us.push(handle_us);
        out.reply_bytes.push(reply.len() as f64);
        out.requests += 1;
        let extra = format!(",\"handle_line_us\":{handle_us:.3},\"identical\":{identical}");
        jsonl.push_str(&tree.to_json(&record.line, &extra));
        jsonl.push('\n');
    }
    std::fs::write(trace_path, jsonl)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    Ok(out)
}

/// Run the benchmark described by `opts`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let out_dir = opts.out_dir();
    let base = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
    let result = run_in(opts, &base, &out_dir);
    std::fs::remove_dir_all(&base).ok();
    result
}

fn run_in(opts: &Options, base: &Path, out_dir: &Path) -> Result<Outcome, String> {
    let w = opts.workload;
    let (setup, reps) = setup(opts, base)?;
    let column = |i: usize| reps.iter().map(|r| r[i]).collect::<Vec<f64>>();
    let streams = plan(opts, &setup.generated.space);
    let front = setup.host.front;
    // Servers whose caches the workload exercises: the backends behind a
    // router, or the server itself.
    let cached: Vec<SocketAddr> = if setup.host.backends.is_empty() {
        vec![front]
    } else {
        setup.host.backends.clone()
    };
    let run_for = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });

    let front_before = stats::snapshot_all(&[front])?;
    let cached_before = stats::snapshot_all(&cached)?;
    let phase = drive::closed_loop(front, &streams, &[0; CONNECTIONS], run_for, false);
    let peak_rss_mb = setup.host.peak_rss_mb()?;
    let front_d = stats::deltas(front_before, stats::snapshot_all(&[front])?);
    let cached_d = stats::deltas(cached_before, stats::snapshot_all(&cached)?);

    let mut report = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    if phase.exhausted {
        problems.push("a connection ran out of planned sessions".to_string());
    }

    // Traced-run probes that need the live servers.
    let mut traced = None;
    let local = if opts.trace || w == Workload::Cluster {
        Some(local_server(&setup, opts)?)
    } else {
        None
    };
    if opts.trace {
        let local = local.as_ref().expect("traced runs build a local server");
        let traced_phase = drive::closed_loop(front, &streams, &phase.next_session, run_for, true);
        let overview = workload::overview_lines(opts.scale.timesteps);
        let steps = opts.scale.timesteps;
        // The shard owning the step a per-step request line names.
        let owner = |line: &str| {
            line.split('\t')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .map(|step| shard_owner(steps, step))
        };
        let probe_lines = vec!["PING".to_string(), overview[0].clone()];
        // Behind a router, the server answering the overview line directly.
        let rtt_addr = match owner(&overview[0]) {
            Some(g) if w == Workload::Cluster => setup.host.backends[g],
            _ => front,
        };
        let net_rtt = probe::net_rtt_us(rtt_addr, &local.handle(), &probe_lines)?;
        let hops = if w == Workload::Cluster {
            let backends = &setup.host.backends;
            let (forwarded, fanned) = hop_lines(&phase);
            // A router in this process over the same shards: its
            // `handle_line` is the router's work without its own socket.
            let router = in_process_router(backends, steps)?.handle();
            let dispatch = |line: &str| {
                let started = Instant::now();
                router.state().handle_line(line);
                Ok(started.elapsed().as_secs_f64() * 1e6)
            };
            [
                probe::hop_us(probe::wire(front)?, backends, &forwarded, owner)?,
                probe::hop_us(probe::wire(front)?, backends, &fanned, |_| None)?,
                probe::hop_us(dispatch, backends, &forwarded, owner)?,
            ]
        } else {
            Default::default()
        };
        traced = Some((traced_phase, net_rtt, hops));
    }
    let Setup {
        generated,
        host,
        run_dir,
        cache_bytes,
        ..
    } = setup;
    host.stop()?;

    // Traced replay through the composition.
    let mut replay_out = None;
    if opts.trace {
        let local = local.as_ref().expect("traced runs build a local server");
        let store = if w == Workload::Cluster {
            run_dir.join("local-store")
        } else {
            host::store_dir(&run_dir)
        };
        let catalog = Arc::new(host::open_with_store(&generated.dir, &store)?);
        let trace_path = out_dir.join(format!("trace-{}-seed{}.jsonl", w.name(), opts.seed));
        let r = replay(
            &phase,
            catalog,
            &local.handle(),
            opts,
            cache_bytes,
            &trace_path,
        )?;
        report.push(format!(
            "trace {} span trees of {} written to {}",
            r.requests,
            w.name(),
            trace_path.display()
        ));
        replay_out = Some(r);
    }

    // The oracle. A request fails when it got no OK reply or a wrong one.
    let mut oracle = Oracle::new(&generated.dir, local.as_ref().map(Server::handle))?;
    let mut phases = vec![&phase];
    if let Some((traced_phase, ..)) = &traced {
        phases.push(traced_phase);
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut mismatches: Vec<Mismatch> = Vec::new();
    for p in phases {
        let wrong = oracle.check(p.records());
        let mut is_wrong = vec![false; p.records().count()];
        for (i, m) in wrong {
            is_wrong[i] = true;
            mismatches.push(m);
        }
        for (r, wrong) in p.records().zip(is_wrong) {
            attempted += 1;
            failed += u64::from(wrong || r.status != Status::Ok);
        }
    }
    let resident_bytes = oracle.resident_bytes()?;

    // Reconciliation and the properties each workload exists for.
    let tally = stats::tally(&phase);
    problems.extend(stats::reconcile(&tally, &front_d));
    let qc_hit = cached_d.share("qc_hits", "qc_misses");
    let ds_hit = cached_d.share("ds_hits", "ds_misses");
    let ds_misses = cached_d.sum("ds_misses");
    report.push(format!(
        "shares server.qc_hit_ratio={qc_hit:.4} datastore.ds_hit_ratio={ds_hit:.4} ds_misses={ds_misses} (timed phase)"
    ));
    match w {
        Workload::Explore | Workload::Cluster if ds_misses != 0.0 => problems.push(format!(
            "{} must not miss the dataset cache after warm-up, missed {ds_misses}",
            w.name()
        )),
        Workload::Sweep => {
            if ds_hit >= SWEEP_DS_HIT_CEILING {
                problems.push(format!(
                    "sweep dataset-cache hit ratio {ds_hit:.3} is not below {SWEEP_DS_HIT_CEILING}"
                ));
            }
            if qc_hit >= SWEEP_QC_HIT_CEILING {
                problems.push(format!(
                    "sweep query-cache hit ratio {qc_hit:.3} is not below {SWEEP_QC_HIT_CEILING}"
                ));
            }
            if (resident_bytes as f64) < 2.0 * cache_bytes as f64 {
                problems.push(format!(
                    "sweep catalog ({resident_bytes} resident bytes) is not twice the cache budget ({cache_bytes} bytes)"
                ));
            }
        }
        _ => {}
    }

    let replay_mismatches = replay_out.as_ref().map_or(0, |r| r.mismatches.len());
    failed += replay_mismatches as u64;
    for m in mismatches
        .iter()
        .chain(replay_out.iter().flat_map(|r| r.mismatches.iter()))
        .take(5)
    {
        report.push(format!("MISMATCH {}: {}", m.why, m.line));
    }
    let error_frac = failed as f64 / attempted.max(1) as f64;
    report.push(format!(
        "checks error_frac={error_frac} ({failed} of {attempted}), oracle mismatches={}, replay mismatches={replay_mismatches}, reconciliation drifts={}",
        mismatches.len(),
        problems.len()
    ));
    report.extend(problems.iter().map(|p| format!("PROBLEM {p}")));
    let phase_n = phase.records().count();
    if phase_n < 1000 && !opts.trace {
        report.push(format!(
            "WARNING only {phase_n} requests: p99 has fewer than 10 samples beyond it"
        ));
    }

    report.insert(0, manifest(opts, &generated, cache_bytes, resident_bytes));

    let metrics = if let (Some(r), Some((traced_phase, net_rtt, hops))) = (&replay_out, &traced) {
        let store_probe =
            probe::store_probe(&host::store_dir(&run_dir), &run_dir.join("probe-store"), 8)?;
        let layer = |name: &str| r.layer_us.get(name).cloned().unwrap_or_default();
        let med = |name: &'static str, v: Vec<f64>| metric(name, "us", median(&v), v.len());
        let core =
            |op: Op| oracle.timings[Op::ALL.iter().position(|&o| o == op).expect("op")].clone();
        let ops = phase_n as f64;
        let overhead = 100.0 * (phase.ops_per_s() - traced_phase.ops_per_s()) / phase.ops_per_s();
        vec![
            med("server.net_rtt_us", net_rtt.clone()),
            metric(
                "server.busy_rejections",
                "count",
                front_d.sum("busy_rejections"),
                1,
            ),
            med("server.parse_us", layer("parse")),
            med("server.serialize_us", layer("serialize")),
            metric(
                "server.reply_bytes",
                "bytes",
                median(&r.reply_bytes),
                r.reply_bytes.len(),
            ),
            med("server.dispatch_self_us", layer("request")),
            metric("server.qc_hit_ratio", "ratio", qc_hit, ops as usize),
            med("fastbit.compile_us", r.compile_us.clone()),
            metric(
                "fastbit.plan_hit_ratio",
                "ratio",
                cached_d.share("plan_cache_hits", "plan_cache_misses"),
                ops as usize,
            ),
            med("fastbit.evaluate_us", layer("evaluate")),
            metric(
                "fastbit.range_enc_share",
                "ratio",
                cached_d.share("enc_range_queries", "enc_equality_queries"),
                ops as usize,
            ),
            med("fastbit.hist_us", layer("hist")),
            med("core.select_us", core(Op::Select)),
            med("core.refine_us", core(Op::Refine)),
            med("core.hist_us", core(Op::Hist)),
            med("core.track_us", core(Op::Track)),
            med("datastore.select_ids_us", layer("select_ids")),
            med("pipeline.track_us", layer("track")),
            metric(
                "pipeline.loads_per_track",
                "count",
                mean(&r.loads_per_track),
                r.loads_per_track.len(),
            ),
            metric("datastore.ds_hit_ratio", "ratio", ds_hit, ops as usize),
            metric(
                "datastore.ds_evictions_per_op",
                "count",
                cached_d.sum("ds_evictions") / ops.max(1.0),
                ops as usize,
            ),
            med("datastore.load_us", layer("load")),
            med("datastore.segment_read_us", store_probe.read_us.clone()),
            med("datastore.decode_us", store_probe.decode_us.clone()),
            metric(
                "datastore.segment_bytes_per_load",
                "bytes",
                median(&store_probe.bytes),
                store_probe.bytes.len(),
            ),
            metric(
                "datastore.stored_per_raw_byte",
                "ratio",
                store_probe.total_bytes as f64 / generated.raw_bytes.max(1) as f64,
                1,
            ),
            med("datastore.save_us", store_probe.save_us.clone()),
            med("cluster.hop_us", hops[0].clone()),
            med("cluster.fanout_hop_us", hops[1].clone()),
            med("cluster.router_dispatch_us", hops[2].clone()),
            metric(
                "cluster.backend_requests_per_op",
                "count",
                if w == Workload::Cluster {
                    Op::ALL
                        .iter()
                        .map(|op| cached_d.sum(&format!("{}_count", op.name())))
                        .sum::<f64>()
                        / ops.max(1.0)
                } else {
                    0.0
                },
                ops as usize,
            ),
            metric(
                "cluster.failovers",
                "count",
                front_d.sum("cluster_failovers"),
                1,
            ),
            metric("setup.generate_s", "s", median(&column(1)), reps.len()),
            metric("setup.index_build_s", "s", median(&column(2)), reps.len()),
            metric("setup.store_write_s", "s", median(&column(3)), reps.len()),
            metric("obs.trace_overhead_pct", "%", overhead, 2),
            med("trace.self_sum_us", r.self_sum_us.clone()),
            med("trace.handle_line_us", r.handle_line_us.clone()),
        ]
    } else {
        end_to_end(&phase, &column(0), peak_rss_mb)
    };

    let correct = failed == 0 && problems.is_empty();
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report,
        lines: phase
            .conns
            .iter()
            .map(|c| c.iter().map(|r| r.line.clone()).collect())
            .collect(),
    })
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A router bound in this process (never run: it is driven through its
/// `handle_line`) over the host's shard servers, with the host's map.
fn in_process_router(backends: &[SocketAddr], timesteps: usize) -> Result<Router, String> {
    let steps: Vec<usize> = (0..timesteps).collect();
    Router::bind(
        host::shard_map(&steps, backends),
        "127.0.0.1:0",
        RouterConfig::default(),
    )
    .map_err(|e| format!("bind in-process router: {e}"))
}

/// The shard group owning `step` in a catalog of `timesteps` steps.
fn shard_owner(timesteps: usize, step: usize) -> usize {
    let steps: Vec<usize> = (0..timesteps).collect();
    host::shard_steps(&steps)
        .iter()
        .position(|owned| owned.contains(&step))
        .unwrap_or(0)
}

/// Lines of the timed phase to probe the router hop with: up to 100
/// forwarded `SELECT`/`HIST` lines and up to 30 fanned-out `TRACK` lines
/// plus `INFO`.
fn hop_lines(phase: &Phase) -> (Vec<String>, Vec<String>) {
    let mut forwarded = Vec::new();
    let mut fanned = vec!["INFO".to_string(); 10];
    for r in phase.records().filter(|r| r.status == Status::Ok) {
        match Op::of_line(&r.line) {
            Op::Select | Op::Hist if forwarded.len() < 100 => forwarded.push(r.line.clone()),
            Op::Track if fanned.len() < 40 => fanned.push(r.line.clone()),
            _ => {}
        }
    }
    (forwarded, fanned)
}

/// The environment manifest line.
fn manifest(
    opts: &Options,
    generated: &Generated,
    cache_bytes: usize,
    resident_bytes: u64,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "manifest {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"connections\": {CONNECTIONS}, \"profile\": \"{profile}\", \"particles\": {}, \"timesteps\": {}, \"catalog_disk_bytes\": {}, \"catalog_resident_bytes\": {resident_bytes}, \"cache_budget_bytes\": {cache_bytes}, \"setup_reps\": {}, \"git_rev\": {}}}",
        report::json_str(opts.workload.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.scale.particles,
        opts.scale.timesteps,
        generated.raw_bytes,
        opts.setup_reps,
        report::json_str(&report::git_rev(&opts.root)),
    )
}
