//! `perfbench --workload <explore|sweep|cluster> --seed N --seconds S --trace 0|1`
//!
//! Run from the root of a checkout. Prints a manifest, the checks and one
//! line per metric with its unit and sample count, then the result as one
//! JSON object on the last line. Exits nonzero when any reply is wrong or
//! any count fails to reconcile. (`perfbench host …` is the server host
//! process the benchmark starts itself.)

use std::process::ExitCode;

use perfbench::report;
use perfbench::run::{self, Options};
use perfbench::workload::Workload;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let value = flag(args, name).ok_or(format!("missing {name}"))?;
    value.parse().map_err(|_| format!("bad {name} {value}"))
}

fn workload(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    Workload::parse(name).ok_or(format!("unknown workload {name} (explore|sweep|cluster)"))
}

fn host(args: &[String]) -> Result<(), String> {
    let path = |name| {
        flag(args, name)
            .map(std::path::Path::new)
            .ok_or(format!("missing {name}"))
    };
    perfbench::host::serve(
        workload(args)?,
        path("--catalog")?,
        path("--store")?,
        parsed(args, "--cache-bytes")?,
    )
}

fn bench(args: &[String]) -> Result<bool, String> {
    let trace: u8 = parsed(args, "--trace")?;
    let seconds: f64 = parsed(args, "--seconds")?;
    if trace > 1 || seconds.is_nan() || seconds <= 0.0 {
        return Err("--trace takes 0 or 1 and --seconds a positive number".to_string());
    }
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let opts = Options::new(
        workload(args)?,
        parsed(args, "--seed")?,
        seconds,
        trace == 1,
        root,
        exe,
    );
    let outcome = run::run(&opts)?;
    for line in &outcome.report {
        println!("{line}");
    }
    print!("{}", report::metric_lines(&outcome.metrics));
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("host") {
        host(&args[1..]).map(|()| true)
    } else {
        bench(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
