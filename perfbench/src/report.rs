//! Named metrics, the environment manifest, and the result line.

use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Build a metric; a value that could not be measured reports as 0.
pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        samples,
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        )
        .expect("write");
    }
    out.push_str("}}");
    out
}

/// One human-readable line per metric, with its sample count.
pub fn metric_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        writeln!(
            out,
            "metric {:<32} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        )
        .expect("write");
    }
    out
}

/// The commit the checkout was made from, when it is a git work tree.
pub fn git_rev(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|r| r.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[metric("p50_ms", "ms", 1.25, 10)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(metric("x", "ms", f64::NAN, 0).value, 0.0);
        assert_eq!(json_str("a\"b\tc"), "\"a\\\"b\\tc\"");
    }
}
