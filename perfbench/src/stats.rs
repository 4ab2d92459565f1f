//! Order statistics, `STATS` snapshots, and the exact reconciliation of
//! client-side counts against the server's counters.

use std::collections::HashMap;
use std::net::SocketAddr;

use vdx_server::Client;

use crate::drive::{Phase, Status};
use crate::workload::Op;

/// The `q`-quantile of `values` by nearest rank (`NaN` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A `STATS` reply as a field map.
pub type Snapshot = HashMap<String, String>;

/// Take a `STATS` snapshot of the server at `addr`.
pub fn snapshot(addr: SocketAddr) -> Result<Snapshot, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS from {addr}: {e}"))
}

/// A numeric `STATS` field (0 when absent or not a number, like `-`).
pub fn field(snapshot: &Snapshot, key: &str) -> f64 {
    snapshot
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Snapshots of one or more servers taken before and after a phase.
#[derive(Debug, Default)]
pub struct Deltas {
    /// `(before, after)` per server.
    pub pairs: Vec<(Snapshot, Snapshot)>,
}

impl Deltas {
    /// The change of `key` summed over every server.
    pub fn sum(&self, key: &str) -> f64 {
        self.pairs
            .iter()
            .map(|(b, a)| field(a, key) - field(b, key))
            .sum()
    }

    /// `num / (num + other)` of summed deltas (0 when both are 0).
    pub fn share(&self, num: &str, other: &str) -> f64 {
        let (n, o) = (self.sum(num), self.sum(other));
        if n + o == 0.0 {
            0.0
        } else {
            n / (n + o)
        }
    }
}

/// Snapshot every server in `addrs`.
pub fn snapshot_all(addrs: &[SocketAddr]) -> Result<Vec<Snapshot>, String> {
    addrs.iter().map(|&a| snapshot(a)).collect()
}

/// Pair up before/after snapshots.
pub fn deltas(before: Vec<Snapshot>, after: Vec<Snapshot>) -> Deltas {
    Deltas {
        pairs: before.into_iter().zip(after).collect(),
    }
}

/// Client-side tallies of a phase.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// `(ok, err)` per op, in [`Op::ALL`] order.
    pub per_op: [(u64, u64); 4],
    /// `ERR busy` replies.
    pub busy: u64,
}

/// Count a phase's outcomes per op.
pub fn tally(phase: &Phase) -> Tally {
    let mut t = Tally::default();
    for r in phase.records() {
        let i = Op::ALL
            .iter()
            .position(|&op| op == Op::of_line(&r.line))
            .expect("every op is listed");
        match r.status {
            Status::Ok => t.per_op[i].0 += 1,
            Status::Err => t.per_op[i].1 += 1,
            Status::Busy => t.busy += 1,
            // No reply reached the client; the server may or may not have
            // counted it, and the request already counts as failed.
            Status::Transport => {}
        }
    }
    t
}

/// Every difference between the client's tallies and the front server's
/// (or router's) `STATS` deltas over the same phase. Empty when they
/// reconcile exactly.
pub fn reconcile(tally: &Tally, front: &Deltas) -> Vec<String> {
    let mut drift = Vec::new();
    let mut check = |what: String, client: u64, server: f64| {
        if client as f64 != server {
            drift.push(format!("{what}: client {client}, server {server}"));
        }
    };
    for (i, op) in Op::ALL.iter().enumerate() {
        let (ok, err) = tally.per_op[i];
        check(
            format!("{} ok", op.name()),
            ok,
            front.sum(&format!("{}_count", op.name())),
        );
        check(
            format!("{} err", op.name()),
            err,
            front.sum(&format!("{}_errors", op.name())),
        );
    }
    check("busy".to_string(), tally.busy, front.sum("busy_rejections"));
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn reconcile_reports_every_drift() {
        let snap = |pairs: &[(&str, &str)]| -> Snapshot {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        let front = Deltas {
            pairs: vec![(
                snap(&[("select_count", "10")]),
                snap(&[("select_count", "13"), ("hist_count", "2")]),
            )],
        };
        let mut t = Tally::default();
        t.per_op[0] = (3, 0);
        t.per_op[2] = (2, 0);
        assert!(reconcile(&t, &front).is_empty());
        t.per_op[2] = (1, 0);
        assert_eq!(reconcile(&t, &front), vec!["hist ok: client 1, server 2"]);
    }
}
