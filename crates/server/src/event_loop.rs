//! The event-loop connection layer: one reactor thread owns every socket.
//!
//! A connection holds a buffer, not a thread. A worker never blocks on a
//! socket for a connection's lifetime, so idle clients cannot starve the
//! worker pool and a fresh `PING` never waits behind clients that aren't
//! asking anything:
//!
//! * The **reactor** thread runs a level-triggered readiness loop
//!   ([`polling::Poller`] — epoll on Linux, kqueue on the BSDs) over the
//!   listener and every connection socket, all nonblocking. It owns each
//!   connection's read buffer (incremental line framing via
//!   [`framing::LineSplitter`]), write buffer, and pipeline queue.
//! * **Workers** never touch sockets. They receive complete request lines
//!   over an `mpsc` channel, run [`LineService::handle_line`] — so a reply
//!   over the wire is byte-identical to an in-process call — and push the
//!   reply back to the reactor through a completion channel plus a
//!   [`polling::Waker`]. The loop is generic over the [`LineService`], so
//!   the single-process server and the cluster router share it unchanged.
//!
//! Scheduling and bounds:
//!
//! * **Pipelining** — a client may write many request lines without waiting
//!   for replies. Requests from one connection execute strictly one at a
//!   time and in arrival order (so replies are trivially in request order
//!   and multi-line replies such as `METRICS` never interleave); pipelining
//!   buys the *queueing*, not reordering. Once a connection has
//!   `max_pipeline` lines waiting, the reactor drops its read interest —
//!   backpressure by deferred reads, never unbounded buffering.
//! * **Admission control** — at most `queue_depth` requests may be
//!   dispatched-and-unfinished across all connections. Past that, a request
//!   is answered `ERR busy …` directly by the reactor (counted in
//!   `busy_rejections`; it never reaches a worker, the tracer, or the
//!   per-verb metrics).
//! * **Fairness** — the worker channel is FIFO over *requests*, not
//!   connections, and one connection can occupy at most one worker, so an
//!   open-range `HIST` cannot starve another client's `PING` as long as a
//!   second worker exists.
//! * **Hardening** — request lines over `max_line_bytes` earn
//!   `ERR line too long …` and a close; connections idle past
//!   `idle_timeout_ms` earn `ERR idle timeout …` and a close; a peer that
//!   stops reading replies for `write_timeout_ms` (or buffers more than
//!   `write_buf_limit` unsent bytes) is disconnected and counted in
//!   `connection_errors`.
//!
//! Shutdown is graceful: the `SHUTDOWN` verb (or
//! [`crate::ServerHandle::shutdown`]) flips the shared flag and wakes the
//! reactor, which stops accepting, lets dispatched requests finish, flushes
//! every reply, and joins the workers — bounded by a drain deadline so a
//! wedged peer cannot hold the process open.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use polling::{Event, Interest, Poller, Waker};

use crate::framing::{self, LineRead, LineSplitter};
use crate::metrics::ConnMetrics;
use crate::service::{ConnConfig, LineService};

/// Token of the accept socket in the poller.
const LISTENER_TOKEN: u64 = 0;
/// Token of the worker-completion waker pipe.
const WAKER_TOKEN: u64 = 1;
/// First token handed to a client connection (monotonic, never reused).
const FIRST_CONN_TOKEN: u64 = 2;
/// Upper bound on one poll wait; timeouts are enforced on this cadence.
const TICK: Duration = Duration::from_millis(100);
/// How long a graceful shutdown waits for in-flight requests and unflushed
/// replies before closing the remaining connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// A complete request line handed to the worker pool.
struct Job {
    token: u64,
    line: String,
}

/// A finished request on its way back to the reactor.
struct Done {
    token: u64,
    reply: String,
    close: bool,
}

/// One queued item on a connection: either a request line waiting for
/// dispatch, or a reactor-generated teardown reply (line too long) that
/// must be written *in queue order* and then close the connection.
enum PendingItem {
    Request(String),
    Teardown(String),
}

/// Per-connection state — the "buffer, not a thread".
struct Conn {
    stream: TcpStream,
    splitter: LineSplitter,
    pending: VecDeque<PendingItem>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// One request from this connection is running on a worker.
    dispatched: bool,
    /// Finish writing `write_buf`, then close.
    closing: bool,
    /// Remove this connection at the next reap.
    dead: bool,
    /// The peer half-closed (or shutdown stopped reads); no more requests.
    read_closed: bool,
    last_activity: Instant,
    last_write_progress: Instant,
    interest: Interest,
}

/// Limits copied out of [`ConnConfig`], normalized for the loop.
struct Limits {
    max_line: usize,
    idle: Option<Duration>,
    idle_ms: u64,
    write_stall: Option<Duration>,
    max_pipeline: usize,
    queue_depth: usize,
    write_buf_limit: usize,
}

impl Limits {
    fn from_config(config: &ConnConfig) -> Limits {
        Limits {
            max_line: config.max_line_bytes,
            idle: (config.idle_timeout_ms > 0)
                .then(|| Duration::from_millis(config.idle_timeout_ms)),
            idle_ms: config.idle_timeout_ms,
            write_stall: (config.write_timeout_ms > 0)
                .then(|| Duration::from_millis(config.write_timeout_ms)),
            max_pipeline: config.max_pipeline.max(1),
            queue_depth: config.queue_depth.max(1),
            write_buf_limit: config.write_buf_limit.max(1),
        }
    }
}

struct Reactor<S: LineService> {
    poller: Poller,
    listener: TcpListener,
    state: Arc<S>,
    limits: Limits,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Requests dispatched to workers and not yet completed (the admission
    /// control gauge; only the reactor thread touches it).
    queued: usize,
    job_tx: mpsc::Sender<Job>,
}

/// Run the event loop until a graceful shutdown completes. Generic over
/// the [`LineService`], so the single-process server and the cluster router
/// share one reactor implementation.
pub(crate) fn run<S: LineService>(
    listener: TcpListener,
    state: Arc<S>,
    config: &ConnConfig,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    let waker = Arc::new(Waker::new(&poller, WAKER_TOKEN)?);

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|_| {
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let waker = Arc::clone(&waker);
            let state = Arc::clone(&state);
            std::thread::spawn(move || loop {
                // Take the next request, releasing the lock before running
                // it so other workers keep draining the queue.
                let next = job_rx.lock().recv();
                match next {
                    Ok(job) => {
                        let (reply, close) = state.handle_line(&job.line);
                        let token = job.token;
                        if done_tx
                            .send(Done {
                                token,
                                reply,
                                close,
                            })
                            .is_err()
                        {
                            break;
                        }
                        waker.wake();
                    }
                    Err(_) => break,
                }
            })
        })
        .collect();
    drop(done_tx);

    let mut reactor = Reactor {
        poller,
        listener,
        state,
        limits: Limits::from_config(config),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        queued: 0,
        job_tx,
    };

    let mut events: Vec<Event> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        reactor.poller.wait(&mut events, Some(TICK))?;
        let mut accept_ready = false;
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => accept_ready = true,
                WAKER_TOKEN => waker.drain(),
                token => {
                    if ev.readable {
                        reactor.read_conn(token);
                    }
                    if ev.writable {
                        reactor.flush_conn(token);
                    }
                }
            }
        }
        while let Ok(done) = done_rx.try_recv() {
            reactor.complete(done);
        }
        let shutting = reactor.state.shutdown_requested();
        if shutting && drain_deadline.is_none() {
            // Stop accepting; existing connections finish what they have
            // queued (and get their replies) but take nothing new.
            drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
            let _ = reactor.poller.deregister(reactor.listener.as_raw_fd());
            for conn in reactor.conns.values_mut() {
                conn.read_closed = true;
            }
        }
        if accept_ready && !shutting {
            reactor.accept_ready();
        }
        reactor.sweep();
        if let Some(deadline) = drain_deadline {
            if reactor.conns.is_empty() || Instant::now() >= deadline {
                break;
            }
        }
    }

    // Close whatever the drain deadline left behind, then release the
    // workers by dropping the job channel.
    for (_, conn) in reactor.conns.drain() {
        let _ = reactor.poller.deregister(conn.stream.as_raw_fd());
        reactor.state.conn_metrics().note_closed();
    }
    drop(reactor);
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

impl<S: LineService> Reactor<S> {
    /// Accept every connection the listener has ready.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.next_token += 1;
                    self.state.conn_metrics().note_accepted();
                    let now = Instant::now();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            splitter: LineSplitter::new(self.limits.max_line),
                            pending: VecDeque::new(),
                            write_buf: Vec::new(),
                            write_pos: 0,
                            dispatched: false,
                            closing: false,
                            dead: false,
                            read_closed: false,
                            last_activity: now,
                            last_write_progress: now,
                            interest: Interest::READ,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Drain a readable socket into the connection's splitter and queue the
    /// complete lines it framed.
    fn read_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead || conn.closing || conn.read_closed {
            return;
        }
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.splitter.extend(&buf[..n]);
                    if !extract_lines(conn, self.state.conn_metrics(), self.limits.max_line) {
                        break;
                    }
                    if conn.pending.len() >= self.limits.max_pipeline {
                        // Backpressure: leave the rest in the kernel buffer;
                        // level-triggered polling re-reports it once the
                        // pipeline drains and read interest returns.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.state.conn_metrics().note_error();
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.read_closed {
            // An unterminated final line before EOF is still a request.
            match conn.splitter.finish_eof() {
                Some(LineRead::Line(line)) if !line.is_empty() => {
                    conn.pending.push_back(PendingItem::Request(line));
                }
                Some(LineRead::TooLong) => {
                    self.state.conn_metrics().note_line_too_long();
                    self.state.conn_metrics().note_error();
                    conn.pending
                        .push_back(PendingItem::Teardown(framing::line_too_long_reply(
                            self.limits.max_line,
                        )));
                }
                _ => {}
            }
        }
    }

    /// Fold a finished request back into its connection.
    fn complete(&mut self, done: Done) {
        self.queued -= 1;
        let Some(conn) = self.conns.get_mut(&done.token) else {
            return; // connection died while its request ran
        };
        conn.dispatched = false;
        conn.last_activity = Instant::now();
        append_reply(conn, &done.reply);
        if done.close {
            // QUIT/SHUTDOWN discard any pipelined requests behind them: the
            // connection serves nothing after a closing reply.
            conn.closing = true;
            conn.pending.clear();
        }
    }

    /// Dispatch the connection's next queued item, if it is allowed one.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !conn.dispatched && !conn.closing && !conn.dead {
            let Some(item) = conn.pending.pop_front() else {
                break;
            };
            match item {
                PendingItem::Request(line) => {
                    if self.queued >= self.limits.queue_depth {
                        // Admission control: refuse in order, right here —
                        // the request never reaches a worker.
                        self.state.conn_metrics().note_busy_rejection();
                        append_reply(conn, &framing::busy_reply());
                        continue;
                    }
                    if self.job_tx.send(Job { token, line }).is_ok() {
                        self.queued += 1;
                        conn.dispatched = true;
                    } else {
                        conn.dead = true;
                    }
                }
                PendingItem::Teardown(reply) => {
                    append_reply(conn, &reply);
                    conn.closing = true;
                    conn.pending.clear();
                }
            }
        }
        if conn.read_closed && !conn.dispatched && !conn.closing && conn.pending.is_empty() {
            conn.closing = true;
        }
    }

    /// Write as much buffered reply as the socket accepts.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    self.state.conn_metrics().note_error();
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_write_progress = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.state.conn_metrics().note_error();
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.write_pos >= conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
            if conn.closing {
                conn.dead = true;
            }
        } else if conn.write_buf.len() - conn.write_pos > self.limits.write_buf_limit {
            // The peer reads slower than it queries; cut it loose rather
            // than buffer without bound.
            self.state.conn_metrics().note_error();
            conn.dead = true;
        }
    }

    /// Enforce the idle and write-stall timeouts on one connection.
    fn check_timeouts(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        if let Some(stall) = self.limits.write_stall {
            if conn.write_pos < conn.write_buf.len()
                && now.duration_since(conn.last_write_progress) >= stall
            {
                self.state.conn_metrics().note_error();
                conn.dead = true;
                return;
            }
        }
        if let Some(idle) = self.limits.idle {
            let quiescent = !conn.dispatched
                && !conn.closing
                && conn.pending.is_empty()
                && conn.write_buf.is_empty();
            if quiescent && now.duration_since(conn.last_activity) >= idle {
                self.state.conn_metrics().note_idle_disconnect();
                append_reply(conn, &framing::idle_timeout_reply(self.limits.idle_ms));
                conn.closing = true;
            }
        }
    }

    /// Reconcile the poller's interest with what the connection needs now.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        let want = Interest {
            read: !conn.read_closed
                && !conn.closing
                && conn.pending.len() < self.limits.max_pipeline,
            write: conn.write_pos < conn.write_buf.len(),
        };
        if want != conn.interest
            && self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// One pass over every connection: dispatch, time out, flush, retarget
    /// interest, and reap the dead. Cheap per-connection when nothing
    /// changed, and run at least every [`TICK`].
    fn sweep(&mut self) {
        let now = Instant::now();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.pump(token);
            self.check_timeouts(token, now);
            self.flush_conn(token);
            self.update_interest(token);
        }
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.dead)
            .map(|(t, _)| *t)
            .collect();
        for token in dead {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
                self.state.conn_metrics().note_closed();
            }
        }
    }
}

/// Queue `reply` (plus the protocol's line terminator) on the connection's
/// write buffer. Replies may themselves contain newlines (`METRICS`); the
/// bytes go out contiguously because the connection runs one request at a
/// time.
fn append_reply(conn: &mut Conn, reply: &str) {
    if conn.write_buf.is_empty() {
        conn.last_write_progress = Instant::now();
    }
    conn.write_buf.extend_from_slice(reply.as_bytes());
    conn.write_buf.push(b'\n');
}

/// Pull every complete line out of the splitter into the pending queue.
/// Returns `false` when the connection overflowed the line cap and is now
/// tearing down.
fn extract_lines(conn: &mut Conn, metrics: &ConnMetrics, max_line: usize) -> bool {
    while let Some(read) = conn.splitter.next_line() {
        match read {
            LineRead::Line(line) => {
                if line.is_empty() {
                    continue; // the protocol skips empty lines, no reply
                }
                conn.pending.push_back(PendingItem::Request(line));
            }
            LineRead::TooLong => {
                metrics.note_line_too_long();
                metrics.note_error();
                conn.pending
                    .push_back(PendingItem::Teardown(framing::line_too_long_reply(
                        max_line,
                    )));
                conn.read_closed = true;
                return false;
            }
            LineRead::Eof => unreachable!("LineSplitter never reports Eof"),
        }
    }
    true
}
