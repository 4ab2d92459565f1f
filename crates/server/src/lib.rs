//! `vdx-server` — the serving layer over a VDX timestep catalog.
//!
//! The paper's workflow is interactive: one analyst, one process, repeated
//! queries against preprocessed WAH indexes. This crate turns that loop into
//! a long-lived service so many concurrent clients share one resident copy
//! of the hot data:
//!
//! * [`server::Server`] — a `TcpListener` answering a line-delimited
//!   protocol ([`protocol`]) with select / refine / histogram / track /
//!   info / stats operations and graceful shutdown, through the
//!   [`event_loop`] reactor: sockets are multiplexed nonblocking, a
//!   connection holds a buffer rather than a thread, and requests are
//!   pipelined under admission control over the capped [`framing`] layer.
//! * [`datastore::DatasetCache`] (layer 1) — sharded, byte-budgeted LRU of
//!   loaded datasets, so a hot timestep's columns and indexes are read from
//!   disk once.
//! * [`query_cache::QueryCache`] (layer 2) — memoized reply payloads keyed
//!   by `(step, normalized query)` via [`fastbit::QueryExpr::cache_key`], so
//!   a repeated query shape skips index evaluation entirely.
//! * [`metrics::ServerMetrics`] — per-verb request counts and latency
//!   quantiles, registered (alongside every cache/store/engine collector)
//!   in one [`obs::Registry`] surfaced through the `STATS` key=value fields
//!   and the `METRICS` Prometheus text exposition.
//! * [`obs::Tracer`] — sampled per-request span traces with per-stage
//!   timings (`TRACE LAST` / `TRACE <id>`) and a slow-query ring
//!   (`SLOWLOG`), configured by `--trace-sample` and `--slow-ms`.
//! * [`cluster::Router`] — multi-node scale-out: a scatter-gather
//!   coordinator speaking the same wire protocol, partitioning timesteps
//!   across replica groups of backend servers by a deterministic
//!   [`cluster::ShardMap`], merging replies exactly and failing over
//!   between replicas (pinned byte-identical to a single server by the
//!   distributed differential suite; see `docs/CLUSTER.md`).
//! * [`client::Client`] — a blocking client used by the CLI query mode, the
//!   CI smoke driver and the tests.
//! * [`testkit`] — shared test/bench support: tiny generated catalogs,
//!   disposable servers and concurrent client drivers, reused by this
//!   crate's integration suites and the `vdx-bench` workload harness.

#![deny(missing_docs)]

pub mod client;
pub mod cluster;
pub mod event_loop;
pub mod framing;
pub mod metrics;
pub mod protocol;
pub mod query_cache;
pub mod server;
pub mod service;
pub mod testkit;

pub use client::{parse_stats, Client};
pub use cluster::{Router, RouterConfig, RouterHandle, RouterState, ShardMap};
pub use metrics::{ConnMetrics, OpMetrics, ServerMetrics};
pub use protocol::Request;
pub use query_cache::{QueryCache, QueryCacheStats};
pub use server::{Server, ServerConfig, ServerHandle, ServerState};
pub use service::{ConnConfig, LineService};
