//! The line frontend: one nonblocking epoll thread that serves every
//! connection of `mwc-server` and of `mwc-router`.
//!
//! # Shape
//!
//! ```text
//!                ┌────────────────── frontend (1 thread) ──────────────────┐
//!  accept ──────▶│ connection table; beyond max_connections: one refusal   │
//!  readable ────▶│ newline framing: line cap, UTF-8, trailing line at EOF  │
//!                │ parse → Handler::handle                                 │
//!                │   answered inline ─────────────┐ (control plane)        │
//!                │   deferred: move-only Reply ───┼──────────────▶ workers │
//!  eventfd ─────▶│ completion mailbox ─▶ sequence ┘   (server: admission   │
//!  writable ────▶│ bounded write buffers, one write    queue; router:      │
//!                │ per flush, TCP_NODELAY              relay threads)      │
//!                └─────────────────────────────────────────────────────────┘
//! ```
//!
//! Each binary plugs in one [`Handler`]. It answers a parsed request line
//! on the loop thread ([`Handled::Inline`]) or turns the request's
//! [`Slot`] into a [`Reply`] and hands both to its own workers
//! ([`Handled::Deferred`]).
//!
//! * **Pipelining** — every request line gets a per-connection sequence
//!   number at parse time; responses are flushed strictly in that order,
//!   whatever order workers (or coalescing windows) finish in. A client
//!   may write any number of requests ahead and match responses by `id`
//!   — order makes the matching trivial. At most
//!   [`Limits::max_unanswered`] of one connection's requests await their
//!   responses at a time (the router's is 1); further lines wait, read
//!   or not, until one is answered.
//! * **Readiness** — level-triggered epoll. Read interest is armed while
//!   the connection is serveable; write interest only while its write
//!   buffer is non-empty (the classic LT pattern, no spurious wakeups).
//! * **Backpressure** — each connection's write buffer is bounded by
//!   [`Limits::max_write_buffer`]: handling and reading the connection's
//!   lines pause at half the cap, and a client that still lets the
//!   backlog cross the cap (it is not reading its responses) is
//!   disconnected rather than buffered without bound. Reading also
//!   pauses at the unanswered limit, so a pipelining client cannot queue
//!   work without bound.
//! * **Wakeup** — workers publish `(token, seq, line)` completions into
//!   a mailbox and signal an eventfd, which re-arms write interest from
//!   the loop thread; workers never touch sockets or epoll state.
//! * **Failure isolation** — a [`Reply`] dropped unanswered (a worker
//!   unwinding from a panic drops the one it holds) answers `internal`
//!   in its sequence slot, so later pipelined responses still flush and
//!   the drain still finishes.
//! * **Drain** — on shutdown the loop stops accepting and reading, and
//!   exits once every deferred request's response has been flushed (a
//!   bounded grace period caps how long unreachable clients can hold the
//!   drain hostage).
//!
//! The response path keeps the single-write + `TCP_NODELAY` discipline:
//! responses ready at the same time leave in one `write`, so the Nagle/
//! delayed-ACK ~40 ms interaction cannot re-enter.
//!
//! Serving is Linux-only: elsewhere [`spawn`] returns
//! [`std::io::ErrorKind::Unsupported`].

#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
use std::os::unix::io::AsRawFd;

use crate::error::ServiceError;
use crate::json::Json;
use crate::metrics::Metrics;
#[cfg(target_os = "linux")]
use crate::net::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::protocol::{error_response, ok_response, parse_request, Request};

/// The per-connection outbound byte cap: the server's default, and the
/// router's fixed cap.
pub(crate) const DEFAULT_MAX_WRITE_BUFFER: usize = 8 << 20;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a finished drain waits for unreachable clients to accept
/// their last bytes before abandoning them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// The connection limits a binary's config hands the frontend.
pub(crate) struct Limits {
    /// Connections beyond this get one `too_many_connections` line.
    pub(crate) max_connections: usize,
    /// Hard cap on a request line's length, in bytes.
    pub(crate) max_line_bytes: usize,
    /// Per-connection outbound byte cap.
    pub(crate) max_write_buffer: usize,
    /// Requests of one connection that may await their responses at
    /// once: the frontend handles none of the connection's further lines,
    /// and reads no more of them, until one is answered.
    pub(crate) max_unanswered: u64,
    /// The `epoll_wait` timeout: how quickly the loop notices shutdown.
    pub(crate) poll_interval: Duration,
}

/// What a binary plugs into the frontend.
pub(crate) trait Handler: Send + 'static {
    /// Where the frontend counts requests, connections and responses.
    fn metrics(&self) -> &Metrics;
    /// Whether the binary is shutting down: the loop then drains.
    fn shutting_down(&self) -> bool;
    /// Starts the binary's shutdown (called if the loop itself fails).
    fn begin_shutdown(&self);
    /// Answers one parsed request line (`line` is its raw text). A
    /// handler that returns [`Handled::Deferred`] has called
    /// [`Slot::defer`] and handed the [`Reply`] to a worker.
    fn handle(&self, request: Request, line: &str, slot: Slot<'_>) -> Handled;
}

/// What a [`Handler`] did with a request.
pub(crate) enum Handled {
    /// Answered on the loop thread: the line, and whether it is a
    /// success (for the ok/error counters).
    Inline(String, bool),
    /// Answered on the loop thread with the connection's last line (a
    /// `shutdown` acknowledgement): lines after it are discarded and
    /// the connection closes once it has flushed.
    Close(String),
    /// Handed to a worker with its [`Reply`].
    Deferred,
}

/// A request's place in its connection's response sequence, before the
/// handler decides how to answer it.
pub(crate) struct Slot<'a> {
    shared: &'a Arc<LoopShared>,
    token: u64,
    seq: u64,
}

impl Slot<'_> {
    /// Turns the slot into a [`Reply`] a worker can answer from any
    /// thread. `id` is the request's id, for the `internal` answer the
    /// reply sends if it is dropped unanswered.
    pub(crate) fn defer(self, id: &Option<Json>) -> Reply {
        self.shared.outstanding.fetch_add(1, Ordering::SeqCst);
        Reply {
            shared: Arc::clone(self.shared),
            token: self.token,
            seq: self.seq,
            id: id.clone(),
            answered: false,
        }
    }
}

/// The move-only handle that answers one deferred request. Dropping it
/// unanswered answers `internal` (non-retryable) in its sequence slot.
pub(crate) struct Reply {
    shared: Arc<LoopShared>,
    token: u64,
    seq: u64,
    id: Option<Json>,
    answered: bool,
}

impl Reply {
    /// Publishes the response line; `ok` feeds the ok/error counters.
    pub(crate) fn send(mut self, line: String, ok: bool) {
        self.answered = true;
        self.shared.complete(self.token, self.seq, line, ok);
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.answered {
            let err = ServiceError::Internal("the request was dropped unanswered".to_string());
            let line = error_response(&self.id, &err);
            self.shared.complete(self.token, self.seq, line, false);
        }
    }
}

/// The `shutdown` acknowledgement line. Callers set their shutdown flag
/// *before* answering with it.
pub(crate) fn shutdown_ack(id: &Option<Json>) -> String {
    ok_response(id, vec![("stopping", Json::Bool(true))])
}

/// Best-effort `id` recovery from a line that failed request parsing, so
/// even error responses correlate when the JSON itself was well-formed.
fn salvage_id(line: &str) -> Option<Json> {
    crate::json::parse(line).ok()?.get("id").cloned()
}

/// One worker-produced response, addressed by connection token and the
/// per-connection sequence number the request was assigned at parse.
struct Completion {
    token: u64,
    seq: u64,
    line: String,
    ok: bool,
}

/// State shared between the loop thread and the workers: the completion
/// mailbox, its eventfd doorbell, and the count of deferred requests
/// whose completions the loop has not yet collected (the drain barrier).
struct LoopShared {
    completions: Mutex<Vec<Completion>>,
    #[cfg(target_os = "linux")]
    wake: EventFd,
    outstanding: AtomicU64,
}

impl LoopShared {
    /// Publishes a response line and rings the loop's doorbell. Never
    /// panics (it runs in `Reply::drop`, possibly while unwinding), and
    /// never blocks beyond the mailbox mutex.
    fn complete(&self, token: u64, seq: u64, line: String, ok: bool) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Completion {
                token,
                seq,
                line,
                ok,
            });
        #[cfg(target_os = "linux")]
        self.wake.signal();
    }
}

/// Starts the frontend thread serving `listener` through `handler`.
/// Returns [`ErrorKind::Unsupported`] off Linux.
#[cfg(target_os = "linux")]
pub(crate) fn spawn<H: Handler>(
    handler: H,
    listener: TcpListener,
    limits: Limits,
    thread_name: &str,
) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let shared = Arc::new(LoopShared {
        completions: Mutex::new(Vec::new()),
        wake: EventFd::new()?,
        outstanding: AtomicU64::new(0),
    });
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
    epoll.add(shared.wake.raw(), TOKEN_WAKE, EPOLLIN)?;
    let el = EventLoop {
        handler,
        limits,
        shared,
        epoll,
        listener: Some(listener),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        scratch: vec![0u8; 64 << 10],
    };
    std::thread::Builder::new()
        .name(thread_name.to_string())
        .spawn(move || el.run())
}

/// Starts the frontend thread serving `listener` through `handler`.
/// Returns [`ErrorKind::Unsupported`] off Linux.
#[cfg(not(target_os = "linux"))]
pub(crate) fn spawn<H: Handler>(
    _handler: H,
    _listener: TcpListener,
    _limits: Limits,
    _thread_name: &str,
) -> std::io::Result<JoinHandle<()>> {
    Err(std::io::Error::new(
        ErrorKind::Unsupported,
        "serving requires linux: the frontend is an epoll event loop",
    ))
}

struct Conn {
    stream: TcpStream,
    /// Partial-frame reassembly: bytes read but not yet newline-framed.
    read_buf: Vec<u8>,
    /// Bytes queued for the socket; `out_cursor` marks how far the
    /// kernel has accepted them.
    out_buf: Vec<u8>,
    out_cursor: usize,
    /// Completed responses waiting for earlier sequence numbers.
    ready: BTreeMap<u64, String>,
    /// Next sequence number to assign to an incoming request line.
    next_seq: u64,
    /// Next sequence number to append to `out_buf`.
    next_flush: u64,
    /// Interest set currently registered with epoll.
    interest: u32,
    read_closed: bool,
    close_after_flush: bool,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out_buf.len() - self.out_cursor
    }

    /// Every assigned request has been answered and every answer written.
    fn fully_flushed(&self) -> bool {
        self.backlog() == 0 && self.next_flush == self.next_seq
    }

    /// Moves contiguous completed responses into the write buffer.
    fn sequence(&mut self) {
        while let Some(line) = self.ready.remove(&self.next_flush) {
            self.out_buf.extend_from_slice(line.as_bytes());
            self.out_buf.push(b'\n');
            self.next_flush += 1;
        }
    }

    /// Whether the connection's next line may be handled: it is not
    /// closing, its unwritten backlog is under half the cap, and fewer
    /// than `max_unanswered` of its requests await their responses.
    fn takes_lines(&self, limits: &Limits) -> bool {
        !self.close_after_flush
            && self.backlog() < limits.max_write_buffer / 2
            && self.next_seq - self.next_flush < limits.max_unanswered
    }

    /// Whether reading from this connection must wait: its peer closed,
    /// or it takes no lines for now.
    fn reads_paused(&self, limits: &Limits) -> bool {
        self.read_closed || !self.takes_lines(limits)
    }
}

#[cfg(target_os = "linux")]
struct EventLoop<H> {
    handler: H,
    limits: Limits,
    shared: Arc<LoopShared>,
    epoll: Epoll,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    scratch: Vec<u8>,
}

#[cfg(target_os = "linux")]
impl<H: Handler> EventLoop<H> {
    fn run(mut self) {
        if let Err(e) = self.serve() {
            // Readiness failed (epoll_wait): leave a trace and stop the
            // binary rather than dying silently.
            eprintln!("frontend event loop failed: {e}");
            self.handler.begin_shutdown();
        }
    }

    fn serve(&mut self) -> std::io::Result<()> {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
        // The wait timeout doubles as the shutdown poll.
        let poll_ms = self.limits.poll_interval.as_millis().clamp(1, 1000) as i32;
        let mut flush_deadline: Option<Instant> = None;
        loop {
            let n = self.epoll.wait(&mut events, poll_ms)?;
            let metrics = self.handler.metrics();
            metrics.loop_wakeups.fetch_add(1, Ordering::Relaxed);
            if n > 0 {
                metrics.loop_events.fetch_add(n as u64, Ordering::Relaxed);
            }
            for ev in &events[..n] {
                let token = { ev.data };
                let bits = { ev.events };
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.shared.wake.drain(),
                    _ => self.conn_event(token, bits),
                }
            }
            self.drain_completions();
            if !self.handler.shutting_down() {
                continue;
            }
            if let Some(l) = self.listener.take() {
                // Stop accepting (the listener closes, so late dials are
                // refused at the TCP level) and schedule every connection
                // to close once its in-flight responses have flushed.
                self.epoll.delete(l.as_raw_fd());
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.close_after_flush = true;
                    }
                    self.pump(token);
                }
            }
            // Deferred work drains through the workers; once their
            // completions are all collected, only unflushed bytes keep
            // connections (and the loop) alive.
            if self.shared.outstanding.load(Ordering::SeqCst) == 0 {
                let done: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.fully_flushed())
                    .map(|(t, _)| *t)
                    .collect();
                for token in done {
                    self.drop_conn(token);
                }
                let deadline = *flush_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                if self.conns.is_empty() || Instant::now() >= deadline {
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.drop_conn(token); // abandon unreachable clients
                    }
                    return Ok(());
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        while let Some(listener) = self.listener.as_ref() {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.handler.shutting_down() {
                        continue; // dropped: the drain is in progress
                    }
                    if self.conns.len() >= self.limits.max_connections {
                        self.refuse(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP)
                        .is_err()
                    {
                        continue;
                    }
                    // The connection table is the authoritative source of
                    // the live-connections gauge.
                    let metrics = self.handler.metrics();
                    metrics.connections_total.fetch_add(1, Ordering::Relaxed);
                    metrics.connections_live.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            read_buf: Vec::new(),
                            out_buf: Vec::new(),
                            out_cursor: 0,
                            ready: BTreeMap::new(),
                            next_seq: 0,
                            next_flush: 0,
                            interest: EPOLLIN | EPOLLRDHUP,
                            read_closed: false,
                            close_after_flush: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => {
                    // A persistent accept error (e.g. EMFILE) must not
                    // busy-spin: back off briefly.
                    std::thread::sleep(Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    /// One `too_many_connections` error line on a connection beyond the
    /// limit, then close.
    fn refuse(&self, mut stream: TcpStream) {
        let metrics = self.handler.metrics();
        metrics.overload_total.fetch_add(1, Ordering::Relaxed);
        metrics.error_total.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        let line = error_response(
            &None,
            &ServiceError::TooManyConnections {
                limit: self.limits.max_connections,
            },
        );
        let mut buf = line.into_bytes();
        buf.push(b'\n');
        let _ = stream.write_all(&buf);
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        if !self.conns.contains_key(&token) {
            return; // stale readiness for a dropped connection
        }
        if bits & (EPOLLHUP | EPOLLERR) != 0 {
            // Reset or failed: no response can reach the client any
            // more. (Epoll reports these whatever the interest set, so
            // a connection whose reads are paused must go now.)
            self.drop_conn(token);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.handle_readable(token);
        }
        if bits & EPOLLOUT != 0 {
            self.pump(token);
        }
    }

    fn handle_readable(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Backpressure: a paused connection stops being read until
            // it drains (level-triggered epoll re-reports the pending
            // bytes once `pump` re-arms read interest).
            if conn.reads_paused(&self.limits) {
                return;
            }
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // A trailing line without its newline still counts.
                    conn.read_closed = true;
                    self.pump(token);
                    return;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&self.scratch[..n]);
                    self.pump(token);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
    }

    /// Handles the complete lines in the connection's read buffer while
    /// it takes lines, and once its peer has closed, a trailing
    /// newline-free line too; the rest stays buffered. Lines after a
    /// closing answer (a `shutdown` ack, a too-long line) on the same
    /// connection are discarded — framing intent is gone.
    fn process_buffered(&mut self, token: u64) {
        let max = self.limits.max_line_bytes;
        let (buf, eof) = match self.conns.get_mut(&token) {
            Some(c) => (std::mem::take(&mut c.read_buf), c.read_closed),
            None => return,
        };
        let mut start = 0;
        loop {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if conn.close_after_flush {
                return; // remainder discarded
            }
            if !conn.takes_lines(&self.limits) {
                break;
            }
            let rest = &buf[start..];
            match rest.iter().position(|&b| b == b'\n') {
                Some(pos) if pos > max => return self.reject_too_long(token),
                Some(pos) => {
                    start += pos + 1;
                    self.handle_line(token, &rest[..pos]);
                }
                None if rest.len() > max => return self.reject_too_long(token),
                None => {
                    if eof && !rest.is_empty() {
                        start = buf.len();
                        self.handle_line(token, rest);
                    }
                    break;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            if !conn.close_after_flush {
                conn.read_buf = buf;
                conn.read_buf.drain(..start);
            }
        }
    }

    /// A line crossed `max_line_bytes`: answer `bad_request` and close
    /// once flushed — framing is lost.
    fn reject_too_long(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.close_after_flush = true;
        }
        let err = ServiceError::BadRequest(format!(
            "request line exceeds {} bytes",
            self.limits.max_line_bytes
        ));
        self.reject(token, error_response(&None, &err));
    }

    /// Answers a line that never became a request (too long, not UTF-8,
    /// unparseable) with `bad_request`.
    fn reject(&mut self, token: u64, line: String) {
        let metrics = self.handler.metrics();
        metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        metrics.bad_request_total.fetch_add(1, Ordering::Relaxed);
        let seq = self.assign_seq(token);
        self.complete_local(token, seq, line, false);
    }

    fn assign_seq(&mut self, token: u64) -> u64 {
        let conn = self.conns.get_mut(&token).expect("seq for live conn");
        let seq = conn.next_seq;
        conn.next_seq += 1;
        seq
    }

    fn handle_line(&mut self, token: u64, bytes: &[u8]) {
        let Ok(line) = std::str::from_utf8(bytes) else {
            let err = ServiceError::BadRequest("request line is not UTF-8".to_string());
            return self.reject(token, error_response(&None, &err));
        };
        if line.trim().is_empty() {
            return;
        }
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => return self.reject(token, error_response(&salvage_id(line), &e)),
        };
        self.handler
            .metrics()
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        let seq = self.assign_seq(token);
        let slot = Slot {
            shared: &self.shared,
            token,
            seq,
        };
        match self.handler.handle(request, line, slot) {
            Handled::Inline(response, ok) => self.complete_local(token, seq, response, ok),
            Handled::Close(response) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.close_after_flush = true;
                }
                self.complete_local(token, seq, response, true);
            }
            Handled::Deferred => {
                if let Some(conn) = self.conns.get(&token) {
                    self.handler
                        .metrics()
                        .pipeline_peak
                        .fetch_max(conn.next_seq - conn.next_flush, Ordering::Relaxed);
                }
            }
        }
    }

    /// A response produced on the loop thread itself: counted, then
    /// sequenced (the `pump` that handled its line writes it).
    fn complete_local(&mut self, token: u64, seq: u64, line: String, ok: bool) {
        count_response(self.handler.metrics(), ok);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.ready.insert(seq, line);
            conn.sequence();
        }
    }

    /// Collects worker completions. Completions for connections that
    /// died in the meantime are discarded (their work already ran — only
    /// the response has nowhere to go), but still release the drain
    /// barrier.
    fn drain_completions(&mut self) {
        let batch: Vec<Completion> = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        if batch.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
        for c in batch {
            self.shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            count_response(self.handler.metrics(), c.ok);
            if let Some(conn) = self.conns.get_mut(&c.token) {
                conn.ready.insert(c.seq, c.line);
                touched.push(c.token);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.pump(token);
        }
    }

    /// Serves the connection: handles the buffered lines it takes and
    /// flushes its completed responses, repeating while that lets more
    /// lines in; then settles its fate: slow-client cap,
    /// close-after-flush, interest re-arming.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.sequence();
            let seq_before = conn.next_seq;
            self.process_buffered(token);
            if !self.flush(token) {
                return;
            }
            match self.conns.get(&token) {
                Some(conn) if conn.next_seq != seq_before => continue,
                Some(_) => break,
                None => return,
            }
        }
        let conn = self.conns.get(&token).expect("conn vanished mid-pump");
        if conn.backlog() > self.limits.max_write_buffer {
            // The client is not reading its responses; cut it loose
            // instead of buffering without bound.
            self.handler
                .metrics()
                .slow_client_disconnects
                .fetch_add(1, Ordering::Relaxed);
            self.drop_conn(token);
            return;
        }
        if conn.fully_flushed() && (conn.close_after_flush || conn.read_closed) {
            self.drop_conn(token);
            return;
        }
        self.update_interest(token);
    }

    /// Writes as much of the connection's backlog as the socket accepts.
    /// Returns false if the connection is gone (a failed write drops it).
    fn flush(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut dead = false;
        if conn.backlog() > 0 {
            let t = Instant::now();
            loop {
                match conn.stream.write(&conn.out_buf[conn.out_cursor..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_cursor += n;
                        if conn.out_cursor == conn.out_buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            self.handler.metrics().record_stage("write", t.elapsed());
            if conn.out_cursor == conn.out_buf.len() {
                conn.out_buf.clear();
                conn.out_cursor = 0;
            } else if conn.out_cursor > 64 << 10 {
                // Reclaim written bytes without quadratic shifting on
                // every partial write.
                conn.out_buf.drain(..conn.out_cursor);
                conn.out_cursor = 0;
            }
        }
        if dead {
            self.drop_conn(token);
        }
        !dead
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = 0u32;
        if !conn.reads_paused(&self.limits) {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.backlog() > 0 {
            want |= EPOLLOUT;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.delete(conn.stream.as_raw_fd());
            self.handler
                .metrics()
                .connections_live
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn count_response(metrics: &Metrics, ok: bool) {
    let counter = if ok {
        &metrics.ok_total
    } else {
        &metrics.error_total
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::AtomicBool;

    use crate::protocol::Command;

    /// A handler whose `burn` requests go to a helper thread that drops
    /// the reply unanswered after `ms` milliseconds — what a worker
    /// unwinding from a panic does to the reply it holds.
    struct Dropper {
        metrics: Metrics,
        shutdown: AtomicBool,
    }

    impl Handler for Arc<Dropper> {
        fn metrics(&self) -> &Metrics {
            &self.metrics
        }

        fn shutting_down(&self) -> bool {
            self.shutdown.load(Ordering::SeqCst)
        }

        fn begin_shutdown(&self) {
            self.shutdown.store(true, Ordering::SeqCst);
        }

        fn handle(&self, request: Request, _line: &str, slot: Slot<'_>) -> Handled {
            match request.command {
                Command::Burn { ms } => {
                    let reply = slot.defer(&request.id);
                    std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(ms));
                        drop(reply);
                    });
                    Handled::Deferred
                }
                Command::Shutdown => {
                    self.begin_shutdown();
                    Handled::Close(shutdown_ack(&request.id))
                }
                _ => Handled::Inline(ok_response(&request.id, vec![]), true),
            }
        }
    }

    fn start() -> (Arc<Dropper>, std::net::SocketAddr, JoinHandle<()>) {
        let handler = Arc::new(Dropper {
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let limits = Limits {
            max_connections: 8,
            max_line_bytes: 1 << 10,
            max_write_buffer: DEFAULT_MAX_WRITE_BUFFER,
            max_unanswered: 2,
            poll_interval: Duration::from_millis(10),
        };
        let thread = spawn(Arc::clone(&handler), listener, limits, "frontend-test").unwrap();
        (handler, addr, thread)
    }

    /// A client connection whose reads fail instead of hanging when an
    /// answer never comes.
    fn connect(addr: std::net::SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    fn joins_within(thread: JoinHandle<()>, limit: Duration) {
        let deadline = Instant::now() + limit;
        while !thread.is_finished() {
            assert!(Instant::now() < deadline, "the drain did not finish");
            std::thread::sleep(Duration::from_millis(5));
        }
        thread.join().unwrap();
    }

    /// A reply dropped unanswered answers `internal` in its own slot, the
    /// response pipelined behind it still flushes, and so does the
    /// shutdown ack behind both.
    #[test]
    fn dropped_reply_answers_internal_in_its_slot() {
        let (handler, addr, thread) = start();
        let mut stream = connect(addr);
        stream
            .write_all(
                b"{\"cmd\":\"burn\",\"ms\":50,\"id\":1}\n{\"cmd\":\"ping\",\"id\":2}\n\
                  {\"cmd\":\"shutdown\",\"id\":3}\n",
            )
            .unwrap();
        let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        let first = crate::json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("id").and_then(Json::as_u64), Some(1));
        let error = first.get("error").unwrap();
        assert_eq!(error.get("code").and_then(Json::as_str), Some("internal"));
        assert_eq!(error.get("retryable").and_then(Json::as_bool), Some(false));
        assert!(lines[1].contains("\"id\":2") && lines[1].contains("\"ok\":true"));
        assert!(lines[2].contains("\"stopping\":true"));
        joins_within(thread, DRAIN_GRACE);
        assert_eq!(handler.metrics.error_total.load(Ordering::Relaxed), 1);
    }

    /// Lines past the connection's unanswered limit (2 here) wait, read
    /// or not: the `ping` behind two held `burn`s is handled only once
    /// they are answered, and all three answers come back in order.
    #[test]
    fn lines_past_the_unanswered_limit_wait_for_an_answer() {
        let (handler, addr, thread) = start();
        let mut stream = connect(addr);
        stream
            .write_all(
                b"{\"cmd\":\"burn\",\"ms\":1000,\"id\":1}\n\
                  {\"cmd\":\"burn\",\"ms\":1000,\"id\":2}\n{\"cmd\":\"ping\",\"id\":3}\n",
            )
            .unwrap();
        let handled = || handler.metrics.requests_total.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(5);
        while handled() < 2 {
            assert!(Instant::now() < deadline, "burns never handled");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(handled(), 2, "the ping was handled past the limit");
        let mut reader = BufReader::new(stream);
        for id in 1..=3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(&format!("\"id\":{id}")), "{id}: {line}");
        }
        assert_eq!(handled(), 3);
        handler.begin_shutdown();
        joins_within(thread, DRAIN_GRACE);
    }

    /// A shutdown that arrives while a reply is still held finishes its
    /// drain once the holder drops it: the client sees `internal`, then
    /// EOF, well inside the drain grace.
    #[test]
    fn drain_finishes_when_a_held_reply_is_dropped() {
        let (handler, addr, thread) = start();
        let mut stream = connect(addr);
        stream
            .write_all(b"{\"cmd\":\"burn\",\"ms\":300,\"id\":\"held\"}\n")
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while handler.metrics.pipeline_peak.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "burn never deferred");
            std::thread::sleep(Duration::from_millis(5));
        }
        handler.begin_shutdown();
        let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("\"internal\"") && lines[0].contains("\"held\""));
        joins_within(thread, DRAIN_GRACE);
    }
}
