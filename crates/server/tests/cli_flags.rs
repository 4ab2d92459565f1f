//! The `vdx-server` command line refuses what it cannot honour: a flag its
//! usage line does not name, or a value that does not parse, exits non-zero
//! with the flag named on stderr instead of silently serving defaults.

use std::process::Command;

fn rejected(args: &[&str], named: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_vdx-server"))
        .args(args)
        .output()
        .expect("run vdx-server");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} was accepted");
    assert!(stderr.contains(named), "{args:?}: stderr {stderr:?}");
}

#[test]
fn unknown_flags_and_unparseable_values_are_rejected() {
    rejected(&["serve", "--io-mode", "threaded"], "--io-mode");
    rejected(&["serve", "--index-accel"], "--index-accel");
    rejected(&["serve", "--workers", "abc"], "--workers");
    rejected(&["route", "--queue-depth", "-1"], "--queue-depth");
    rejected(&["smoke", "--workers", "2"], "--workers");
    rejected(&["serve", "--dir"], "--dir");
}
