//! The TCP front end: accepts connections, parses HTTP requests, routes
//! them through the [`Scheduler`], and exposes health, metrics, and
//! admin endpoints.
//!
//! Routes:
//!
//! | Route | Method | Body | Response |
//! |---|---|---|---|
//! | `/classify` | POST | one wire-format raster | `{"class": k}` |
//! | `/classify_batch` | POST | `{"rasters": [...]}` | `{"classes": [...]}` |
//! | `/healthz`, `/healthz/live` | GET | — | liveness: `{"status": "ok", ...}` |
//! | `/healthz/ready` | GET | — | readiness: `"ok"` or `"degraded"` |
//! | `/metrics` | GET | — | Prometheus text format |
//! | `/admin/reload` | POST | `{"path": "..."}` (optional) | hot checkpoint reload |
//! | `/admin/trace/export` | GET | — | Chrome trace-event JSON (Perfetto-loadable) |
//! | `/admin/trace/<id>` | GET | — | one trace's spans as JSON; `404` if evicted/unknown |
//!
//! # Readiness-based connection handling
//!
//! The front end is a single poll thread (an [`epoll`](crate::poll)
//! interest set over the nonblocking listener plus every accepted
//! connection) feeding a bounded handler pool
//! ([`ServerConfig::handler_threads`]). An idle keep-alive or streaming
//! connection costs one registered file descriptor — not a parked
//! thread. When a connection becomes readable its state (buffered
//! reader, protocol position) is handed to a handler thread, which
//! serves every request already buffered and then re-arms the
//! descriptor. Binary streaming connections run the same way through the
//! resumable [`StreamConn`] state machine — one frame per step, never a
//! thread parked per stream.
//!
//! Every `/classify` and `/classify_batch` response carries an
//! `X-Trace-Id` header (while tracing is enabled); the named trace's
//! per-stage spans — parse / queue-wait / batch-wait / inference /
//! serialize, plus the per-layer forward spans — stay retrievable from
//! the flight recorder until overwritten. Requests slower than
//! [`ServerConfig::slow_trace_ms`] dump their stage breakdown to stderr
//! and bump `snn_slow_requests_total`.
//!
//! Admission control: a full scheduler queue answers `503` with a
//! `Retry-After` header instead of buffering; oversized bodies and
//! rasters answer `413`/`400` before any allocation proportional to the
//! claimed size. Requests may carry an `X-Deadline-Ms` header (or
//! inherit [`ServerConfig::default_deadline_ms`]); work that expires
//! before execution is shed and answered `504`. Connections past
//! [`ServerConfig::max_connections`] are answered `503` and then closed
//! **gracefully**: the response is flushed, the write half is shut down,
//! and the unread request bytes are drained (bounded) before the socket
//! drops — so the client reads the `503` instead of `ECONNRESET` from an
//! RST triggered by discarding unread data.
//!
//! `/admin/reload` builds a fresh [`Engine`] from a checkpoint on a
//! handler thread — off the worker path — verifies its integrity
//! trailer and shape, and atomically swaps it into the scheduler's one
//! engine slot ([`Scheduler::swap_engine`]). A bad checkpoint
//! answers `400`, a shape mismatch or concurrent reload answers `409`,
//! and in every failure case the old engine keeps serving untouched.

use crate::http::{self, HttpError, Request, Response};
use crate::metrics::{ServeMetrics, Stage};
use crate::poll::{Poller, Waker, EVENT_READABLE_OR_CLOSED};
use crate::scheduler::{BatchPolicy, EngineSwapError, Scheduler, SubmitError, TicketError};
use crate::stream::{StreamConfig, StreamConn, StreamRouter};
use crate::{wire, FaultPlan};
use snn_core::{SpikeRaster, WireRaster};
use snn_engine::{CheckpointError, Engine};
use snn_json::{Json, JsonError, Kind, Reader};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Poller token for the waker's receive half.
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Read/write timeout on accepted sockets: a handler thread blocks at
/// most this long on a half-sent request or an unread response.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Bounds for draining unread request bytes before a server-initiated
/// close (see [`drain_before_close`]).
const DRAIN_LIMIT_BYTES: usize = 64 * 1024;
const DRAIN_TIMEOUT: Duration = Duration::from_millis(250);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` for an ephemeral port (tests, CI).
    pub addr: String,
    /// Micro-batching policy for the embedded [`Scheduler`].
    pub policy: BatchPolicy,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum accepted raster area (`steps × channels`) per sample —
    /// checked against the *declared* dimensions, with `channels` held
    /// to the model's input width, before the raster is materialized, so
    /// a hostile payload cannot trigger a huge allocation.
    pub max_raster_cells: usize,
    /// Maximum samples in one `/classify_batch` request.
    pub max_batch_request: usize,
    /// Maximum simultaneously open connections; excess connections are
    /// answered `503` and closed gracefully (the client reads the `503`,
    /// not a connection reset) instead of registering ever more
    /// descriptors.
    pub max_connections: usize,
    /// Request-handler pool size (`0` = default of 64). The pool is fed
    /// only by *readable* connections, so this bounds handler threads
    /// regardless of how many connections are open.
    pub handler_threads: usize,
    /// Default checkpoint for `POST /admin/reload` when the request body
    /// names none.
    pub checkpoint_path: Option<String>,
    /// Deadline applied to requests that carry no `X-Deadline-Ms` header
    /// (`None` = no deadline).
    pub default_deadline_ms: Option<u64>,
    /// How long after a caught worker panic `/healthz/ready` keeps
    /// reporting `degraded`.
    pub degraded_window: Duration,
    /// Requests whose end-to-end wall clock exceeds this many
    /// milliseconds dump their per-stage span breakdown to stderr and
    /// increment `snn_slow_requests_total` (`None` = never dump).
    pub slow_trace_ms: Option<u64>,
    /// Test-only deterministic fault injection threaded into the
    /// scheduler and the connection-registration path (see
    /// [`FaultPlan`]); `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
    /// Resident-session limits and sticky-worker settings for the binary
    /// streaming protocol (see [`StreamConfig`]).
    pub stream: StreamConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy::default(),
            max_body_bytes: 4 * 1024 * 1024,
            max_raster_cells: 1 << 22,
            max_batch_request: 1024,
            max_connections: 1024,
            handler_threads: 0,
            checkpoint_path: None,
            default_deadline_ms: None,
            degraded_window: Duration::from_secs(2),
            slow_trace_ms: None,
            faults: None,
            stream: StreamConfig::default(),
        }
    }
}

/// Shared per-server state the connection handlers route against.
struct Ctx {
    scheduler: Arc<Scheduler>,
    config: ServerConfig,
    /// Serializes `/admin/reload`: a second concurrent reload answers
    /// `409` instead of racing the first.
    reload_busy: AtomicBool,
}

/// Where a connection is in its protocol, preserved across poller
/// wakeups.
enum Proto {
    /// Nothing read yet: the first buffered byte picks HTTP vs stream.
    Unknown,
    Http,
    Stream(StreamConn),
}

/// One accepted connection's resumable state. Owned by the poll thread's
/// idle map while parked, by exactly one handler thread while readable —
/// the one-shot interest registration enforces the handoff.
struct Conn {
    id: u64,
    /// Raw fd of the registered socket (`writer`'s descriptor); used by
    /// the poll thread for re-arm and deregistration.
    fd: i32,
    /// Buffered reader over its own duplicated handle; buffered bytes
    /// survive parking, and level-triggered interest re-fires for bytes
    /// that arrived between the last read and the re-arm.
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    proto: Proto,
}

/// A unit handed to the handler pool.
enum Work {
    /// A readable parked connection (already removed from the idle map).
    Ready(Conn),
    /// A connection refused at accept time (over capacity, or its poller
    /// registration failed): answer `message` with a `503` and close
    /// gracefully. Never registered, so there is nothing to deregister.
    Reject {
        stream: TcpStream,
        message: &'static str,
    },
}

/// What a handler decided about a connection after serving everything
/// readable.
enum Outcome {
    /// Park it back in the idle map and re-arm its descriptor.
    Park,
    /// Deregister and drop it.
    Close,
}

/// State shared between the poll thread, the handler pool, and the
/// [`ServerHandle`].
struct Shared {
    shutting_down: AtomicBool,
    /// Connection registry: duplicated handles for the capacity check
    /// and for force-closing stragglers at shutdown. An entry exists for
    /// exactly the connections currently owned by the server — inserted
    /// before poller registration, removed on registration failure
    /// (never leak a capacity slot) and on close.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Parked connections awaiting readiness, keyed by poller token.
    idle: Mutex<HashMap<u64, Conn>>,
    /// Tokens whose descriptors the poll thread should re-arm.
    rearm: Mutex<Vec<u64>>,
    /// Connections to deregister and drop. Descriptor closes funnel
    /// through the poll thread *after* `Poller::delete`, so a recycled
    /// fd number can never collide with a stale registration.
    dead: Mutex<Vec<Conn>>,
    /// Handlers currently servicing work; shutdown's grace period waits
    /// for this to reach zero before force-closing sockets.
    busy: AtomicU64,
    waker: Waker,
}

impl Shared {
    /// Parks a serviced connection and asks the poll thread to re-arm it.
    fn park(&self, conn: Conn) {
        let id = conn.id;
        self.idle.lock().expect("idle map").insert(id, conn);
        self.rearm.lock().expect("rearm list").push(id);
        self.waker.wake();
    }

    /// Releases a connection: frees its capacity slot immediately and
    /// hands the descriptor to the poll thread for deregistration.
    fn close(&self, conn: Conn) {
        self.conns.lock().expect("conn registry").remove(&conn.id);
        self.dead.lock().expect("dead list").push(conn);
        self.waker.wake();
    }
}

/// A running server; dropping it (or calling
/// [`shutdown`](ServerHandle::shutdown)) stops accepting, drains
/// in-flight work, and joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    metrics: Arc<ServeMetrics>,
    shared: Arc<Shared>,
    poll: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("engine", &self.ctx.scheduler.engine())
            .finish_non_exhaustive()
    }
}

/// Starts a server for `engine` with the given configuration.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the poller
/// setup error.
pub fn serve(engine: Engine, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let mut poller = Poller::new()?;
    let (waker, waker_rx) = Waker::new()?;
    poller.add(listener.as_raw_fd(), LISTENER_TOKEN, false)?;
    poller.add(waker_rx.as_raw_fd(), WAKER_TOKEN, false)?;

    let metrics = Arc::new(ServeMetrics::new());
    let scheduler = Arc::new(Scheduler::start_with_streams(
        engine,
        config.policy,
        Arc::clone(&metrics),
        config.faults.clone(),
        config.stream,
    ));
    let n_handlers = if config.handler_threads == 0 {
        64
    } else {
        config.handler_threads
    };
    let ctx = Arc::new(Ctx {
        scheduler,
        config,
        reload_busy: AtomicBool::new(false),
    });
    let shared = Arc::new(Shared {
        shutting_down: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        idle: Mutex::new(HashMap::new()),
        rearm: Mutex::new(Vec::new()),
        dead: Mutex::new(Vec::new()),
        busy: AtomicU64::new(0),
        waker,
    });

    // Handler pool behind a shared receiver: whichever handler is idle
    // picks up the next readable connection.
    let (work_tx, work_rx) = mpsc::channel::<Work>();
    let work_rx = Arc::new(Mutex::new(work_rx));
    let mut handlers = Vec::with_capacity(n_handlers);
    for i in 0..n_handlers {
        let ctx = Arc::clone(&ctx);
        let shared = Arc::clone(&shared);
        let work_rx = Arc::clone(&work_rx);
        handlers.push(
            std::thread::Builder::new()
                .name(format!("snn-serve-handler-{i}"))
                .spawn(move || handler_loop(&ctx, &shared, &work_rx))
                .expect("spawn handler thread"),
        );
    }

    let poll = {
        let ctx = Arc::clone(&ctx);
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("snn-serve-poll".into())
            .spawn(move || poll_loop(&listener, poller, &waker_rx, &ctx, &shared, &work_tx))
            .expect("spawn poll thread")
    };

    Ok(ServerHandle {
        addr,
        ctx,
        metrics,
        shared,
        poll: Some(poll),
        handlers,
    })
}

/// The poll thread: owns the poller and the listener, accepts and
/// registers connections, dispatches readable ones to the handler pool,
/// and services handler requests (re-arm, deregister) funneled through
/// [`Shared`]. It is the only thread that mutates poller interest, which
/// keeps the fallback backend lock-free and makes
/// deregister-before-close a strict ordering.
fn poll_loop(
    listener: &TcpListener,
    mut poller: Poller,
    waker_rx: &TcpStream,
    ctx: &Ctx,
    shared: &Shared,
    work_tx: &Sender<Work>,
) {
    let mut next_id: u64 = 0;
    let mut events: Vec<(u64, u32)> = Vec::new();
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        events.clear();
        if poller.wait(&mut events, 100).is_err() {
            // Pathological poller failure: back off instead of spinning.
            std::thread::sleep(Duration::from_millis(10));
        }
        for &(token, bits) in &events {
            match token {
                WAKER_TOKEN => Waker::drain(waker_rx),
                LISTENER_TOKEN => {
                    accept_ready(listener, &mut poller, ctx, shared, work_tx, &mut next_id);
                }
                id if bits & EVENT_READABLE_OR_CLOSED != 0 => {
                    let conn = shared.idle.lock().expect("idle map").remove(&id);
                    if let Some(conn) = conn {
                        shared.busy.fetch_add(1, Ordering::SeqCst);
                        if work_tx.send(Work::Ready(conn)).is_err() {
                            shared.busy.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                }
                _ => {}
            }
        }
        // Handler requests, funneled here so all interest mutation and
        // every registered-descriptor close happens on this thread.
        let rearm: Vec<u64> = shared.rearm.lock().expect("rearm list").drain(..).collect();
        for id in rearm {
            let fd = shared
                .idle
                .lock()
                .expect("idle map")
                .get(&id)
                .map(|conn| conn.fd);
            let Some(fd) = fd else { continue };
            if poller.rearm(fd, id).is_err() {
                // Registration lost; the connection can never be woken
                // again, so release it.
                let conn = shared.idle.lock().expect("idle map").remove(&id);
                if let Some(conn) = conn {
                    shared.conns.lock().expect("conn registry").remove(&id);
                    let _ = poller.delete(conn.fd);
                    discard(conn, ctx.scheduler.streams());
                }
            }
        }
        let dead: Vec<Conn> = shared.dead.lock().expect("dead list").drain(..).collect();
        for conn in dead {
            let _ = poller.delete(conn.fd);
            discard(conn, ctx.scheduler.streams());
        }
    }
    // Exiting drops the listener (stops accepting) and `work_tx` (idle
    // handlers see a closed channel and exit after draining the queue).
}

/// Accepts until the listener would block, applying connection-level
/// admission control and poller registration.
fn accept_ready(
    listener: &TcpListener,
    poller: &mut Poller,
    ctx: &Ctx,
    shared: &Shared,
    work_tx: &Sender<Work>,
    next_id: &mut u64,
) {
    let metrics = ctx.scheduler.metrics();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return, // transient accept failure; retry next wait
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
        stream.set_write_timeout(Some(IO_TIMEOUT)).ok();
        // Connection-level admission control: refuse past the cap rather
        // than growing the interest set without bound.
        if shared.conns.lock().expect("conn registry").len() >= ctx.config.max_connections {
            metrics.rejected_over_capacity.inc();
            let _ = work_tx.send(Work::Reject {
                stream,
                message: "too many connections",
            });
            continue;
        }
        let id = *next_id;
        *next_id += 1;
        match register_conn(stream, id, poller, shared, ctx.config.faults.as_deref()) {
            Ok(conn) => {
                shared.idle.lock().expect("idle map").insert(id, conn);
            }
            Err(stream) => {
                metrics.conn_register_failures_total.inc();
                let _ = work_tx.send(Work::Reject {
                    stream,
                    message: "connection setup failed, retry later",
                });
            }
        }
    }
}

/// Inserts the connection into the registry and registers it with the
/// poller. On *any* failure after the registry insert the entry is
/// removed again and the stream handed back for a `503` — an entry
/// without a live registration would permanently consume a
/// `max_connections` slot.
fn register_conn(
    stream: TcpStream,
    id: u64,
    poller: &mut Poller,
    shared: &Shared,
    faults: Option<&FaultPlan>,
) -> Result<Conn, TcpStream> {
    let (registry, reader) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(registry), Ok(reader)) => (registry, reader),
        _ => return Err(stream),
    };
    shared
        .conns
        .lock()
        .expect("conn registry")
        .insert(id, registry);
    let fd = stream.as_raw_fd();
    let added = if faults.is_some_and(|plan| plan.injects_register_failure(id)) {
        Err(io::Error::other("injected registration failure"))
    } else {
        poller.add(fd, id, true)
    };
    if added.is_err() {
        shared.conns.lock().expect("conn registry").remove(&id);
        return Err(stream);
    }
    Ok(Conn {
        id,
        fd,
        reader: BufReader::new(reader),
        writer: stream,
        proto: Proto::Unknown,
    })
}

/// One handler thread: pulls readable connections (and accept-time
/// rejects) off the shared queue until the poll thread drops the sender.
fn handler_loop(ctx: &Ctx, shared: &Shared, work_rx: &Mutex<Receiver<Work>>) {
    loop {
        let work = {
            let rx = work_rx.lock().expect("work receiver");
            rx.recv()
        };
        match work {
            Ok(Work::Ready(conn)) => {
                service(conn, ctx, shared);
                shared.busy.fetch_sub(1, Ordering::SeqCst);
            }
            Ok(Work::Reject { stream, message }) => reject(stream, message),
            Err(_) => return,
        }
    }
}

/// Answers a refused connection with `503` and closes it gracefully, so
/// the client observes the response rather than a connection reset
/// caused by closing a socket with unread request bytes.
fn reject(mut stream: TcpStream, message: &'static str) {
    let _ = Response::error(503, message)
        .with_header("Retry-After", "1")
        .write_to(&mut stream, false);
    let mut reader = stream.try_clone().ok();
    if let Some(reader) = reader.as_mut() {
        drain_before_close(reader, &stream);
    }
}

/// Half-closes and drains a connection the server decided to terminate
/// while request bytes may still be unread (over-capacity rejects, `413`
/// / `400` / `501` protocol errors). Closing with unread data makes the
/// kernel send RST — the client then sees `ECONNRESET` instead of the
/// response we just wrote, and a retrying client cannot distinguish
/// "overloaded, back off" from a crash. Shutting down the write half
/// first and reading to EOF (bounded in bytes and time) lets the
/// response reach the client before the descriptor drops.
fn drain_before_close<R: Read>(reader: &mut R, stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DRAIN_TIMEOUT));
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let mut drained = 0usize;
    let mut buf = [0u8; 4096];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => return, // client saw our FIN and closed
            Ok(n) => {
                drained += n;
                if drained >= DRAIN_LIMIT_BYTES || Instant::now() >= deadline {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Services one readable connection: resolves its protocol on first
/// contact, serves everything buffered, then parks or closes it.
fn service(mut conn: Conn, ctx: &Ctx, shared: &Shared) {
    let outcome = loop {
        match conn.proto {
            Proto::Unknown => {
                // One-byte dispatch: the stream protocol's magic starts
                // with `0x7F`, which never begins an HTTP method, so
                // peeking the buffered reader routes the connection
                // without consuming anything.
                match conn.reader.fill_buf() {
                    Ok([]) => break Outcome::Close, // closed before sending anything
                    Ok(buf) if buf[0] == wire::MAGIC[0] => {
                        conn.proto = Proto::Stream(StreamConn::new());
                    }
                    Ok(_) => conn.proto = Proto::Http,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        break Outcome::Park; // spurious wakeup
                    }
                    Err(_) => break Outcome::Close,
                }
            }
            Proto::Http => break service_http(&mut conn, ctx),
            Proto::Stream(_) => break service_stream(&mut conn, ctx),
        }
    };
    match outcome {
        Outcome::Park => shared.park(conn),
        Outcome::Close => shared.close(conn),
    }
}

/// Serves HTTP requests until the connection has no more buffered input
/// (park), closes cleanly, or errors.
fn service_http(conn: &mut Conn, ctx: &Ctx) -> Outcome {
    let metrics = ctx.scheduler.metrics();
    loop {
        let request = match http::read_request(&mut conn.reader, ctx.config.max_body_bytes) {
            Ok(Some(request)) => request,
            Ok(None) => return Outcome::Close, // clean close
            Err(HttpError::Io(_)) => return Outcome::Close,
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                // The body was not read; the connection is out of sync,
                // so answer and close.
                metrics.requests_total.inc();
                let resp = Response::error(
                    413,
                    &format!("body of {declared} bytes exceeds limit of {limit}"),
                );
                count_response(metrics, resp.status);
                return close_gracefully(conn, resp);
            }
            Err(HttpError::Malformed(msg)) => {
                metrics.requests_total.inc();
                let resp = Response::error(400, &format!("malformed request: {msg}"));
                count_response(metrics, resp.status);
                return close_gracefully(conn, resp);
            }
            Err(HttpError::Unsupported(msg)) => {
                // `Transfer-Encoding` and friends: the body framing was
                // not consumed, so continuing would desync the stream —
                // answer and close.
                metrics.requests_total.inc();
                let resp = Response::error(501, &msg);
                count_response(metrics, resp.status);
                return close_gracefully(conn, resp);
            }
        };
        metrics.requests_total.inc();
        let started = Instant::now();
        let keep_alive = request.keep_alive;
        let response = route(&request, ctx);
        count_response(metrics, response.status);
        metrics
            .request_latency_us
            .observe(started.elapsed().as_micros() as u64);
        if response.write_to(&mut conn.writer, keep_alive).is_err() || !keep_alive {
            return Outcome::Close;
        }
        if conn.reader.buffer().is_empty() {
            // No pipelined request buffered; bytes that raced in at the
            // socket re-fire the level-triggered interest on re-arm.
            return Outcome::Park;
        }
    }
}

/// Writes a connection-terminating error response, then drains the
/// unread request so the close is graceful (see [`drain_before_close`]).
fn close_gracefully(conn: &mut Conn, resp: Response) -> Outcome {
    let _ = resp.write_to(&mut conn.writer, false);
    drain_before_close(&mut conn.reader, &conn.writer);
    Outcome::Close
}

/// Steps a binary streaming connection through every buffered frame.
fn service_stream(conn: &mut Conn, ctx: &Ctx) -> Outcome {
    let router = ctx.scheduler.streams();
    let Conn {
        reader,
        writer,
        proto,
        ..
    } = conn;
    let Proto::Stream(stream_conn) = proto else {
        return Outcome::Close;
    };
    loop {
        match stream_conn.step(reader, writer, router) {
            Ok(true) | Err(_) => return Outcome::Close,
            Ok(false) => {
                if reader.buffer().is_empty() {
                    return Outcome::Park;
                }
            }
        }
    }
}

/// Releases whatever protocol state a dropped connection still holds
/// (an open streaming session's resident state, in particular).
fn discard(mut conn: Conn, router: &StreamRouter) {
    if let Proto::Stream(stream_conn) = &mut conn.proto {
        stream_conn.finish(router);
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics instance (`/metrics` renders the same one).
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The embedded scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.ctx.scheduler
    }

    /// Gracefully shuts the server down:
    ///
    /// 1. stop accepting new connections (the poll thread is woken and
    ///    joined; dropping its work sender winds down the handler pool);
    /// 2. drain the scheduler — every already-admitted sample is still
    ///    classified and answered;
    /// 3. give busy handlers a short grace period to finish writing,
    ///    then force-close every remaining socket, join the handlers,
    ///    and release any parked connections' resident state.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.waker.wake();
        if let Some(handle) = self.poll.take() {
            let _ = handle.join();
        }
        // Drain in-flight batches: handlers holding tickets get their
        // answers and write their responses.
        self.ctx.scheduler.shutdown();
        // Grace period for busy handlers to finish writing, then
        // force-close whatever is left (parked keep-alive connections).
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if self.shared.busy.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for (_, stream) in self.shared.conns.lock().expect("conn registry").drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in std::mem::take(&mut self.handlers) {
            let _ = handle.join();
        }
        // The poll thread is gone, so parked and pending-dead
        // connections are reclaimed here; streaming sessions release
        // their resident state.
        let router = self.ctx.scheduler.streams();
        for (_, conn) in self.shared.idle.lock().expect("idle map").drain() {
            discard(conn, router);
        }
        for conn in self.shared.dead.lock().expect("dead list").drain(..) {
            discard(conn, router);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn count_response(metrics: &ServeMetrics, status: u16) {
    match status {
        200..=299 => metrics.responses_ok.inc(),
        400..=499 => metrics.responses_client_error.inc(),
        _ => metrics.responses_server_error.inc(),
    }
}

/// Dispatches one parsed request to its route handler.
fn route(request: &Request, ctx: &Ctx) -> Response {
    match (request.method.as_str(), request.path()) {
        ("POST", "/classify") => classify(request, ctx, false),
        ("POST", "/classify_batch") => classify(request, ctx, true),
        ("POST", "/admin/reload") => admin_reload(&request.body, ctx),
        ("GET", "/healthz" | "/healthz/live") => liveness(ctx),
        ("GET", "/healthz/ready") => readiness(ctx),
        ("GET", "/metrics") => Response::text(200, ctx.scheduler.metrics().render()),
        ("GET", "/admin/trace/export") => trace_export(request),
        ("GET", path) if path.strip_prefix("/admin/trace/").is_some() => {
            trace_lookup(path.strip_prefix("/admin/trace/").unwrap_or(""))
        }
        (_, "/classify" | "/classify_batch" | "/admin/reload") => Response::error(405, "use POST"),
        (_, "/healthz" | "/healthz/live" | "/healthz/ready" | "/metrics") => {
            Response::error(405, "use GET")
        }
        (_, path) if path.starts_with("/admin/trace/") => Response::error(405, "use GET"),
        _ => Response::error(404, "unknown route"),
    }
}

/// `GET /admin/trace/export` — the whole flight recorder (or one trace,
/// with `?trace=<id>`) as Chrome trace-event JSON, loadable directly in
/// Perfetto / `chrome://tracing`.
fn trace_export(request: &Request) -> Response {
    let filter = request
        .target
        .split_once('?')
        .map(|(_, query)| query)
        .and_then(|query| {
            query
                .split('&')
                .find_map(|pair| pair.strip_prefix("trace="))
        });
    let events = match filter {
        Some(raw) => match parse_trace_id(raw) {
            Some(id) => snn_obs::trace_events(id),
            None => return Response::error(404, "unknown trace id"),
        },
        None => snn_obs::snapshot(),
    };
    Response::json(200, snn_obs::chrome_trace_json(&events))
}

/// `GET /admin/trace/<id>` — one trace's spans as JSON. Unknown,
/// malformed, and evicted ids all answer a clean `404`; this route never
/// panics on hostile input.
fn trace_lookup(raw_id: &str) -> Response {
    let Some(trace) = parse_trace_id(raw_id) else {
        return Response::error(404, "unknown trace id");
    };
    let events = snn_obs::trace_events(trace);
    if events.is_empty() {
        return Response::error(404, "unknown trace id");
    }
    let spans: Vec<String> = events
        .iter()
        .map(|e| {
            format!(
                "{{\"span\": {}, \"parent\": {}, \"name\": {}, \"thread\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"duration_ns\": {}, \"payload\": {}}}",
                e.span,
                e.parent,
                Json::from(e.name),
                e.thread,
                e.start_ns,
                e.end_ns,
                e.duration_ns(),
                e.payload,
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"trace\": \"{trace:016x}\", \"spans\": [{}]}}",
            spans.join(", ")
        ),
    )
}

/// Parses a 1–16 hex-digit trace id; anything else is `None` (routes
/// answer 404, never 500).
fn parse_trace_id(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if raw.is_empty() || raw.len() > 16 || !raw.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(raw, 16).ok().filter(|&id| id != 0)
}

/// Decodes a `POST /classify` body (one wire-format raster) or, with
/// `batch`, a `POST /classify_batch` body (`{"rasters": [...]}`) for a
/// model `n_in` channels wide, in one pass over its bytes: no JSON tree
/// is built, and each raster's events go straight into its builder.
///
/// A bad body is answered `400` for the first of these faults, in this
/// order: invalid UTF-8; a JSON grammar error anywhere in the body; a
/// missing `rasters` array, or more rasters than
/// [`ServerConfig::max_batch_request`]; then, raster by raster, a
/// declared area above [`ServerConfig::max_raster_cells`] (checked
/// before any allocation proportional to it), a width other than
/// `n_in`, and the raster's own faults ([`WireRaster::into_raster`]).
///
/// # Errors
///
/// The response the route answers with.
pub fn decode_rasters(
    body: &[u8],
    batch: bool,
    config: &ServerConfig,
    n_in: usize,
) -> Result<Vec<SpikeRaster>, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| Response::error(400, "body is not valid utf-8"))?;
    let mut reader = Reader::new(text);
    let mut decoder = RasterDecoder {
        config,
        n_in,
        rasters: Vec::new(),
        fault: None,
    };
    let declared = if batch {
        decoder.read_batch(&mut reader)
    } else {
        decoder.read_raster(&mut reader).map(|()| Some(1))
    };
    let declared = declared
        .and_then(|declared| reader.finish().map(|()| declared))
        .map_err(|e| Response::error(400, &format!("invalid json: {e}")))?;
    match declared {
        None => return Err(Response::error(400, "missing \"rasters\" array")),
        Some(n) if n > config.max_batch_request => {
            return Err(Response::error(
                400,
                &format!(
                    "batch of {n} samples exceeds limit of {}",
                    config.max_batch_request
                ),
            ))
        }
        Some(_) => {}
    }
    match decoder.fault {
        Some(response) => Err(response),
        None => Ok(decoder.rasters),
    }
}

/// [`decode_rasters`]' state: the rasters decoded so far, or the answer
/// to the first one that failed (later ones are only checked against the
/// grammar).
struct RasterDecoder<'c> {
    config: &'c ServerConfig,
    n_in: usize,
    rasters: Vec<SpikeRaster>,
    fault: Option<Response>,
}

impl RasterDecoder<'_> {
    /// Reads a `/classify_batch` body, decoding the rasters of its first
    /// `rasters` member up to the batch limit; returns that member's
    /// length, or `None` if it is missing or not an array.
    fn read_batch(&mut self, reader: &mut Reader<'_>) -> Result<Option<usize>, JsonError> {
        if reader.peek() != Some(Kind::Object) {
            reader.skip()?;
            return Ok(None);
        }
        reader.begin_object()?;
        let (mut seen, mut declared) = (false, None);
        while let Some(key) = reader.next_key()? {
            if key != "rasters" || std::mem::replace(&mut seen, true) {
                reader.skip()?;
                continue;
            }
            if reader.peek() != Some(Kind::Array) {
                reader.skip()?;
                continue;
            }
            reader.begin_array()?;
            let mut n = 0;
            while reader.next_item()? {
                if n < self.config.max_batch_request {
                    self.read_raster(reader)?;
                } else {
                    reader.skip()?;
                }
                n += 1;
            }
            declared = Some(n);
        }
        Ok(declared)
    }

    /// Decodes the raster at the cursor, unless an earlier one failed.
    fn read_raster(&mut self, reader: &mut Reader<'_>) -> Result<(), JsonError> {
        if self.fault.is_some() {
            return reader.skip();
        }
        let wire = WireRaster::read(reader)?;
        match check_raster(wire, self.config, self.n_in) {
            Ok(raster) => self.rasters.push(raster),
            Err(response) => self.fault = Some(response),
        }
        Ok(())
    }
}

/// Checks one declared raster and builds it. The declared-size cap and
/// the input width come before any proportional allocation: with the
/// width fixed, the cap also bounds `steps`, and so the raster's
/// per-step offsets.
fn check_raster(
    wire: WireRaster,
    config: &ServerConfig,
    n_in: usize,
) -> Result<SpikeRaster, Response> {
    let steps = wire.steps().unwrap_or(0);
    let declared = wire.channels().unwrap_or(0);
    if steps.saturating_mul(declared) > config.max_raster_cells {
        return Err(Response::error(
            400,
            &format!(
                "raster of {steps}x{declared} cells exceeds limit of {} cells",
                config.max_raster_cells
            ),
        ));
    }
    if wire.channels().is_some_and(|c| c != n_in) {
        return Err(Response::error(
            400,
            &format!("raster has {declared} channels, model expects {n_in}"),
        ));
    }
    wire.into_raster()
        .map_err(|e| Response::error(400, &format!("invalid raster: {e}")))
}

/// Resolves the request's execution deadline: `X-Deadline-Ms` header if
/// present (must be a positive integer), else the configured default.
fn request_deadline(request: &Request, ctx: &Ctx) -> Result<Option<Instant>, Response> {
    let ms = match request.header("x-deadline-ms") {
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Some(ms),
            _ => {
                return Err(Response::error(
                    400,
                    &format!("invalid X-Deadline-Ms value {raw:?}"),
                ))
            }
        },
        None => ctx.config.default_deadline_ms,
    };
    Ok(ms.map(|ms| Instant::now() + Duration::from_millis(ms)))
}

fn submit_error_response(err: SubmitError) -> Response {
    match err {
        SubmitError::QueueFull => Response::error(503, "admission queue full, retry later")
            .with_header("Retry-After", "1"),
        SubmitError::ShuttingDown => Response::error(503, "server shutting down"),
    }
}

fn ticket_error_response(err: TicketError) -> Response {
    match err {
        TicketError::Expired => Response::error(504, "deadline exceeded"),
        // A supervised execution failure is transient (the session was
        // respawned) and job-specific, not a load signal: 503 so the
        // client retries, but no Retry-After floor slowing it down.
        TicketError::Failed => Response::error(503, "execution failed, retry later"),
        TicketError::Lost | TicketError::Timeout => Response::error(500, "worker failed"),
    }
}

/// Per-request trace state: the minted trace id, the root span every
/// stage span parents under, and the request's start time. `None` while
/// tracing is globally disabled — the untraced path does no
/// observability work at all beyond one relaxed atomic load.
struct RequestTrace {
    trace: u64,
    root: u64,
    start_ns: u64,
}

impl RequestTrace {
    fn begin() -> Option<Self> {
        if !snn_obs::enabled() {
            return None;
        }
        Some(Self {
            trace: snn_obs::next_trace_id(),
            root: snn_obs::next_span_id(),
            start_ns: snn_obs::now_ns(),
        })
    }

    /// Records one request-stage span (parented under the root) and
    /// feeds the matching `snn_stage_seconds` histogram.
    fn stage(&self, metrics: &ServeMetrics, stage: Stage, name: &'static str, start_ns: u64) {
        let end_ns = snn_obs::now_ns();
        snn_obs::record_span_parts(
            self.trace,
            snn_obs::next_span_id(),
            self.root,
            name,
            start_ns,
            end_ns,
            0,
        );
        metrics.observe_stage(stage, end_ns.saturating_sub(start_ns) / 1_000);
    }

    /// Closes the root span, applies the slow-request dump policy, and
    /// stamps the response with its `X-Trace-Id` header.
    fn finish(self, ctx: &Ctx, response: Response) -> Response {
        let end_ns = snn_obs::now_ns();
        snn_obs::record_span_parts(
            self.trace,
            self.root,
            0,
            "request",
            self.start_ns,
            end_ns,
            u64::from(response.status),
        );
        let total_ns = end_ns.saturating_sub(self.start_ns);
        if let Some(threshold_ms) = ctx.config.slow_trace_ms {
            if total_ns / 1_000_000 >= threshold_ms {
                let metrics = ctx.scheduler.metrics();
                metrics.slow_requests_total.inc();
                let stages: Vec<String> = snn_obs::trace_events(self.trace)
                    .iter()
                    .filter(|e| e.span != self.root)
                    .map(|e| format!("{}={}us", e.name, e.duration_ns() / 1_000))
                    .collect();
                eprintln!(
                    "slow request trace={:016x} total={}us status={} {}",
                    self.trace,
                    total_ns / 1_000,
                    response.status,
                    stages.join(" "),
                );
            }
        }
        response.with_header("X-Trace-Id", format!("{:016x}", self.trace))
    }
}

/// `POST /classify` (the body is one raster, answered `{"class": k}`) and
/// `POST /classify_batch` (a `rasters` array, answered `{"classes":
/// [...]}`). Each sample flows through the scheduler, so a batch shares
/// admission control and may be collated with other requests' samples.
fn classify(request: &Request, ctx: &Ctx, batch: bool) -> Response {
    let trace = RequestTrace::begin();
    let response = classify_traced(request, ctx, batch, trace.as_ref());
    match trace {
        Some(t) => t.finish(ctx, response),
        None => response,
    }
}

fn classify_traced(
    request: &Request,
    ctx: &Ctx,
    batch: bool,
    trace: Option<&RequestTrace>,
) -> Response {
    let metrics = ctx.scheduler.metrics();
    let parse_start = trace.map_or(0, |t| t.start_ns);
    let n_in = ctx.scheduler.engine().network().n_in();
    let parsed = match decode_rasters(&request.body, batch, &ctx.config, n_in) {
        Ok(rasters) => rasters,
        Err(resp) => return resp,
    };
    if let Some(t) = trace {
        t.stage(metrics, Stage::Parse, "parse", parse_start);
    }
    let deadline = match request_deadline(request, ctx) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    // All samples share the request's trace: their queue-wait /
    // batch-wait / inference spans parent under the one root span, so
    // `/admin/trace/<id>` shows the whole fan-out.
    let (trace_id, root) = trace.map_or((0, 0), |t| (t.trace, t.root));
    // All-or-nothing admission keeps the response shape simple: a batch
    // either gets `classes` for every sample or a single 503.
    let mut tickets = Vec::with_capacity(parsed.len());
    for raster in parsed {
        match ctx
            .scheduler
            .submit_traced(raster, deadline, trace_id, root)
        {
            Ok(t) => tickets.push(t),
            Err(e) => {
                // Already-submitted samples still run (their tickets are
                // dropped; workers ignore the dead receivers).
                return submit_error_response(e);
            }
        }
    }
    let mut classes = Vec::with_capacity(tickets.len());
    for ticket in tickets {
        match ticket.wait() {
            Ok(class) => classes.push(class),
            Err(e) => return ticket_error_response(e),
        }
    }
    let serialize_start = trace.map_or(0, |_| snn_obs::now_ns());
    let body = if batch {
        let classes: Vec<String> = classes.iter().map(|c| c.to_string()).collect();
        format!("{{\"classes\": [{}]}}", classes.join(", "))
    } else {
        format!("{{\"class\": {}}}", classes[0])
    };
    let resp = Response::json(200, body);
    if let Some(t) = trace {
        t.stage(metrics, Stage::Serialize, "serialize", serialize_start);
    }
    resp
}

/// `POST /admin/reload` — hot checkpoint reload. The new engine is built
/// on a handler thread (inference workers never stall on it),
/// integrity-verified by the checkpoint loader, shape-checked, and then
/// atomically swapped into the scheduler's engine slot. On any failure
/// the old engine keeps serving.
fn admin_reload(body: &[u8], ctx: &Ctx) -> Response {
    let metrics = ctx.scheduler.metrics();
    let path = match reload_path(body, ctx) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    if ctx.reload_busy.swap(true, Ordering::SeqCst) {
        return Response::error(409, "reload already in flight");
    }
    metrics.reload_in_flight.inc();
    let response = match load_and_swap(&path, ctx) {
        Ok(()) => {
            metrics.reloads_total.inc();
            Response::json(
                200,
                format!(
                    "{{\"status\": \"reloaded\", \"path\": {}}}",
                    Json::from(path.as_str())
                ),
            )
        }
        Err(resp) => {
            metrics.reload_failures_total.inc();
            resp
        }
    };
    metrics.reload_in_flight.dec();
    ctx.reload_busy.store(false, Ordering::SeqCst);
    response
}

fn reload_path(body: &[u8], ctx: &Ctx) -> Result<String, Response> {
    let from_body = if body.is_empty() {
        None
    } else {
        let text = std::str::from_utf8(body)
            .map_err(|_| Response::error(400, "body is not valid utf-8"))?;
        let doc =
            Json::parse(text).map_err(|e| Response::error(400, &format!("invalid json: {e}")))?;
        doc.get("path").and_then(Json::as_str).map(str::to_string)
    };
    from_body
        .or_else(|| ctx.config.checkpoint_path.clone())
        .ok_or_else(|| {
            Response::error(
                400,
                "no checkpoint path: pass {\"path\": ...} or configure checkpoint_path",
            )
        })
}

fn load_and_swap(path: &str, ctx: &Ctx) -> Result<(), Response> {
    let running = ctx.scheduler.engine();
    let engine = Engine::load(path)
        .map_err(|e: CheckpointError| Response::error(400, &format!("checkpoint rejected: {e}")))?
        .backend(running.backend())
        .threads(running.threads())
        .build();
    ctx.scheduler.swap_engine(engine).map_err(|e| match e {
        EngineSwapError::ShapeMismatch { .. } => Response::error(409, &format!("{e}")),
    })
}

/// `GET /healthz` and `/healthz/live` — liveness: the process is up and
/// routing requests. Never reports `degraded`; restart decisions belong
/// to readiness consumers, not liveness ones.
fn liveness(ctx: &Ctx) -> Response {
    let metrics = ctx.scheduler.metrics();
    Response::json(
        200,
        format!(
            "{{\"status\": \"ok\", \"backend\": \"{}\", \"queue_depth\": {}}}",
            ctx.scheduler.engine().backend().label(),
            metrics.queue_depth.get(),
        ),
    )
}

/// `GET /healthz/ready` — readiness: `degraded` while a hot reload is in
/// flight or a worker panic was caught within the configured window, so
/// load balancers can steer traffic away while the server heals, without
/// the process getting restarted (it is still live).
fn readiness(ctx: &Ctx) -> Response {
    let metrics = ctx.scheduler.metrics();
    let reload_in_flight = metrics.reload_in_flight.get() > 0;
    let recent_panic = ctx
        .scheduler
        .last_panic_age()
        .is_some_and(|age| age <= ctx.config.degraded_window);
    let status = if reload_in_flight || recent_panic {
        "degraded"
    } else {
        "ok"
    };
    Response::json(
        200,
        format!(
            "{{\"status\": \"{status}\", \"reload_in_flight\": {reload_in_flight}, \
             \"recent_worker_panic\": {recent_panic}, \"queue_depth\": {}}}",
            metrics.queue_depth.get(),
        ),
    )
}

/// Convenience: serve on `addr` with an explicit policy and default
/// limits.
///
/// # Errors
///
/// Propagates the bind error.
pub fn serve_at(engine: Engine, addr: &str, policy: BatchPolicy) -> io::Result<ServerHandle> {
    serve(
        engine,
        ServerConfig {
            addr: addr.to_string(),
            policy,
            ..ServerConfig::default()
        },
    )
}
