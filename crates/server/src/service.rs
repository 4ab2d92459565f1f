//! The connection-service seam shared by the single-process server and the
//! cluster router.
//!
//! Both [`crate::Server`] and the scatter-gather router
//! ([`crate::cluster::Router`]) speak the same line protocol through the
//! same connection layer, the [`crate::event_loop`] reactor. This module is
//! the seam between "what a request line means" and "how bytes move":
//! anything implementing [`LineService`] is served by the event loop, with
//! capped framing, idle/write-stall timeouts, pipelining, admission control
//! and [`ConnMetrics`] accounting all handled there — so the router inherits the hardened connection
//! machinery instead of reimplementing it. [`ConnConfig`] holds the
//! transport limits and their defaults for both.

use crate::framing;
use crate::metrics::ConnMetrics;

/// A request-line handler servable by the connection layer.
///
/// Implementations must be cheap to call concurrently: the layer invokes
/// [`LineService::handle_line`] from a pool of worker threads.
pub trait LineService: Send + Sync + 'static {
    /// Serve one request line; returns the reply and whether the connection
    /// should close after the reply is written.
    fn handle_line(&self, line: &str) -> (String, bool);

    /// The connection-layer metrics this service reports into.
    fn conn_metrics(&self) -> &ConnMetrics;

    /// True once a graceful shutdown has been requested; the accept loop
    /// stops and in-flight work drains.
    fn shutdown_requested(&self) -> bool;
}

/// Connection-layer limits: the transport settings of both
/// [`crate::ServerConfig`] and [`crate::cluster::RouterConfig`].
#[derive(Debug, Clone)]
pub struct ConnConfig {
    /// Worker threads serving request lines (at least 1).
    pub workers: usize,
    /// Hard cap on one request line in bytes (newline excluded). An
    /// oversized line is answered with `ERR line too long …` and the
    /// connection closes.
    pub max_line_bytes: usize,
    /// Close connections idle longer than this (milliseconds) with a typed
    /// `ERR idle timeout …` reply; `0` disables the idle timeout.
    pub idle_timeout_ms: u64,
    /// Close connections whose peer accepts no reply bytes for this long
    /// (milliseconds); `0` disables the write-stall timeout.
    pub write_timeout_ms: u64,
    /// Pipelining depth: complete request lines buffered per connection
    /// before the reactor pauses reading from it (at least 1).
    pub max_pipeline: usize,
    /// Admission control: requests dispatched-but-unfinished across all
    /// connections before new ones are refused with `ERR busy` (at least 1).
    pub queue_depth: usize,
    /// Hard cap on one connection's buffered unsent reply bytes; a peer
    /// that reads slower than it queries is disconnected at this point.
    pub write_buf_limit: usize,
}

impl Default for ConnConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_line_bytes: framing::MAX_REQUEST_LINE_BYTES,
            idle_timeout_ms: 300_000,
            write_timeout_ms: 30_000,
            max_pipeline: 128,
            queue_depth: 1024,
            write_buf_limit: 64 << 20,
        }
    }
}
