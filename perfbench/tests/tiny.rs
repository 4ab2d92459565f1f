//! The benchmark's own tests, at a tiny scale.

use std::path::PathBuf;

use perfbench::catalog;
use perfbench::drive::Record;
use perfbench::oracle::Oracle;
use perfbench::run::{self, Options};
use perfbench::workload::{plan_stream, Scale, Workload};

const TINY: Scale = Scale {
    particles: 2_000,
    timesteps: 6,
};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn tiny(workload: Workload, seed: u64, trace: bool, root: &str) -> Options {
    let mut opts = Options::new(
        workload,
        seed,
        0.4,
        trace,
        fresh_dir(root),
        PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    );
    opts.scale = TINY;
    opts.setup_reps = 1;
    opts
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start
        ..text[start..]
            .find(']')
            .map(|e| start + e)
            .expect("list end")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\": \"")).expect("key") + key.len() + 5;
                entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(outcome: &run::Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    let e2e = run::run(&tiny(Workload::Explore, 3, false, "e2e")).expect("run");
    assert!(e2e.correct, "{:?}", e2e.report);
    assert_eq!(reported(&e2e), declared("end_to_end"));
    assert!(
        e2e.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        e2e.metrics
    );

    let traced = run::run(&tiny(Workload::Cluster, 3, true, "traced")).expect("run");
    assert!(traced.correct, "{:?}", traced.report);
    assert_eq!(reported(&traced), declared("per_layer"));
    let trace = out_file("traced", "trace-cluster-seed3.jsonl");
    let trees = std::fs::read_to_string(trace).expect("span trees written");
    assert!(trees.lines().count() > 0);
    assert!(trees.lines().all(|l| l.contains("\"identical\":true")));
}

fn out_file(root: &str, name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(root)
        .join("perfbench/out")
        .join(name)
}

#[test]
fn sweep_runs_correct_at_tiny_scale() {
    let mut opts = tiny(Workload::Sweep, 5, false, "sweep");
    opts.scale = Scale {
        particles: 2_000,
        timesteps: 16,
    };
    let outcome = run::run(&opts).expect("run");
    assert!(outcome.correct, "{:?}", outcome.report);
    assert_eq!(outcome.failed, 0);
}

#[test]
fn the_oracle_catches_a_corrupted_reply() {
    let dir = fresh_dir("oracle").join("catalog");
    let generated = catalog::generate(&dir, TINY, 9).expect("generate");
    let mut oracle = Oracle::new(&generated.dir, None).expect("oracle");
    let line = "SELECT\t5\tpx > 0".to_string();
    let reply = oracle.expected(&line);
    assert!(reply.starts_with("OK\tSELECT\t"), "{reply}");
    let good = Record::new(line.clone(), &reply, Default::default());
    assert!(oracle.check([&good].into_iter()).is_empty());

    // Flip the last digit of the reply.
    let mut corrupted = reply.clone().into_bytes();
    let last = corrupted.len() - 1;
    corrupted[last] = if corrupted[last] == b'1' { b'2' } else { b'1' };
    let bad = Record::new(
        line.clone(),
        std::str::from_utf8(&corrupted).expect("ascii"),
        Default::default(),
    );
    let truncated = Record::new(line, &reply[..reply.len() - 2], Default::default());
    let wrong = oracle.check([&good, &bad, &truncated].into_iter());
    assert_eq!(
        wrong.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        vec![1, 2],
        "{wrong:?}"
    );
}

#[test]
fn the_same_seed_sends_the_same_request_stream() {
    let dir = fresh_dir("plans");
    let space = catalog::generate(&dir.join("catalog"), TINY, 4)
        .expect("generate")
        .space;
    for w in Workload::ALL {
        assert_eq!(
            plan_stream(w, 4, 0, &space, 50),
            plan_stream(w, 4, 0, &space, 50)
        );
        assert_ne!(
            plan_stream(w, 4, 0, &space, 50),
            plan_stream(w, 5, 0, &space, 50)
        );
        assert_ne!(
            plan_stream(w, 4, 0, &space, 50),
            plan_stream(w, 4, 1, &space, 50)
        );
    }

    // Two full runs: the lines each connection sent agree on their common
    // prefix (run lengths differ with timing; the lines may not).
    let a = run::run(&tiny(Workload::Explore, 4, false, "stream-a")).expect("run");
    let b = run::run(&tiny(Workload::Explore, 4, false, "stream-b")).expect("run");
    for (la, lb) in a.lines.iter().zip(&b.lines) {
        let n = la.len().min(lb.len());
        assert!(n > 20, "runs too short to compare: {n}");
        assert_eq!(la[..n], lb[..n]);
    }
}
