//! The `vdx-workload` command line refuses what it cannot honour: a value
//! that does not parse, a flag its usage line does not name, or a bad
//! `--addr` exits non-zero with the flag named on stderr instead of
//! running with defaults.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vdx-workload"))
        .args(args)
        .output()
        .expect("run vdx-workload")
}

fn rejected(args: &[&str], message: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert!(stderr.contains(message), "{args:?}: stderr {stderr:?}");
}

#[test]
fn unparseable_values_unknown_flags_and_bad_addresses_are_rejected() {
    rejected(&["--particles", "abc"], "--particles: cannot parse `abc`");
    rejected(&["--addr", "nowhere"], "--addr: cannot parse `nowhere`");
    rejected(&["--mix", "1:2"], "--mix: cannot parse `1:2`");
    rejected(&["--mix", "0:0:0"], "--mix: cannot parse `0:0:0`");
    rejected(&["--particle", "4000"], "unknown argument `--particle`");
    rejected(&["--seed"], "--seed needs a value");
}

#[test]
fn the_ci_cluster_invocation_still_parses() {
    // Pointed at a closed local port, a well-formed command line gets past
    // argument parsing and fails only when it tries to connect.
    let out = run(&[
        "--addr",
        "127.0.0.1:1",
        "--shards",
        "3",
        "--replicas",
        "2",
        "--particles",
        "4000",
        "--out",
        "unused",
        "--json",
        "BENCH_workload_cluster.json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        !stderr.contains("vdx-workload:"),
        "refused at parse: {stderr:?}"
    );
    assert!(stderr.contains("connect for INFO"), "stderr {stderr:?}");
}
