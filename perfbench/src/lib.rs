//! `perfbench` — the repository benchmark.
//!
//! One command generates a catalog from a seed, starts `vdx-server` (or a
//! router over three shard servers) in a host process of its own, and drives
//! one named workload over two client connections in a closed loop. Every
//! reply is re-checked against direct `DataExplorer` calls, client counts are
//! reconciled against the server's `STATS` deltas, and the end-to-end metrics
//! are printed by name and unit. A traced run (`--trace 1`) replays the same
//! seeded request stream through a composition of the layers' public calls,
//! timed span by span, and prints the per-layer metrics instead.
//!
//! See `perfbench/README.md` for how to run it and read its output.

pub mod catalog;
pub mod drive;
pub mod host;
pub mod oracle;
pub mod probe;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
