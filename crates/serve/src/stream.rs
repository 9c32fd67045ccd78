//! Resident-state streaming sessions behind the binary wire protocol:
//! sticky worker routing, per-connection state accounting, eviction, and
//! fault containment.
//!
//! A streaming connection owns a server-side
//! [`StreamSession`] whose membrane and trace
//! state stays resident between event chunks. That state pins a session
//! to the worker that holds it — so unlike the stateless micro-batching
//! path, streams use **sticky scheduling**: the [`StreamRouter`] assigns
//! each session to `worker = session_id % workers` at open, and every
//! later frame routes to the same worker's queue. Per-worker FIFO order
//! keeps `EVENTS`/`TICK`/`READOUT` sequenced without any locking on the
//! hot path, and a session never hops workers mid-stream.
//!
//! Resident state is a capacity liability, so the router accounts for it
//! explicitly:
//!
//! * a **hard cap** on resident sessions
//!   ([`StreamConfig::max_resident`]) — at the cap, an open first
//!   reclaims sessions idle past
//!   [`idle_timeout`](StreamConfig::idle_timeout), then the
//!   least-recently-active session older than
//!   [`lru_grace`](StreamConfig::lru_grace); if nothing is evictable the
//!   open is refused with a typed `CAPACITY` frame (the binary-protocol
//!   equivalent of HTTP 429);
//! * an evicted session answers its next frame with a typed `EVICTED`
//!   frame — never a silently blank, reopened stream.
//!
//! Fault containment extends the PR 6 supervision contract to resident
//! state: a stream worker panic (injected or real) **quarantines every
//! session resident on that worker** — their state is dropped, the panic
//! is noted so `/healthz/ready` degrades, and each affected stream's
//! next synchronous frame answers a typed `SESSION_LOST` error. A hot
//! engine reload ([`Scheduler::swap_engine`](crate::Scheduler::swap_engine))
//! bumps the router's engine generation; sessions opened against the old
//! engine are invalidated lazily at their next frame, also as
//! `SESSION_LOST`. In both cases the client must reopen and replay — the
//! server never answers a readout from state it cannot vouch for.

use crate::metrics::ServeMetrics;
use crate::scheduler::{EngineSlot, Supervision};
use crate::wire::{self, ErrorCode, Frame, Reply, WireError};
use crate::FaultPlan;
use snn_engine::{StreamError, StreamSession};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-worker command-queue depth; a saturated worker backpressures the
/// connection threads feeding it instead of buffering unboundedly.
const WORKER_QUEUE: usize = 64;

/// Resident-stream policy knobs ([`ServerConfig::stream`](crate::ServerConfig)).
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Hard cap on simultaneously resident sessions; opens past it are
    /// refused with a typed `CAPACITY` frame once nothing is evictable.
    pub max_resident: usize,
    /// Sessions idle at least this long are reclaimed when an open needs
    /// room.
    pub idle_timeout: Duration,
    /// Minimum idle age before a session may be LRU-evicted under
    /// capacity pressure — an actively streaming session is never torn
    /// down mid-chunk just because someone else wants in.
    pub lru_grace: Duration,
    /// Server-side cap on a session's pending-step horizon (clients may
    /// request less in `HELLO`, never more).
    pub max_pending_steps: usize,
    /// Maximum timesteps one `TICK` frame may commit — bounds the
    /// compute a single frame can demand.
    pub max_advance: u32,
    /// Dedicated stream worker threads (`0` = default of 2).
    pub workers: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            max_resident: 256,
            idle_timeout: Duration::from_secs(60),
            lru_grace: Duration::from_millis(250),
            max_pending_steps: 4096,
            max_advance: 1 << 16,
            workers: 0,
        }
    }
}

/// A typed stream failure: the wire [`ErrorCode`] plus the
/// human-readable detail, exactly what an `ERROR` frame carries.
pub type StreamFailure = (ErrorCode, String);

fn session_lost(why: &str) -> StreamFailure {
    (ErrorCode::SessionLost, format!("session lost: {why}"))
}

fn evicted(why: &str) -> StreamFailure {
    (ErrorCode::Evicted, format!("session evicted: {why}"))
}

fn map_stream_error(e: &StreamError) -> StreamFailure {
    let code = match e {
        StreamError::ChannelOutOfRange { .. } => ErrorCode::ChannelRange,
        StreamError::EventBeforeFrontier { .. } => ErrorCode::EventInPast,
        StreamError::HorizonExceeded { .. } => ErrorCode::Horizon,
    };
    (code, e.to_string())
}

/// Lifecycle state of a session in the routing registry.
#[derive(Clone, Copy)]
enum SessionState {
    Active,
    /// Resident state was invalidated; the reason goes into the
    /// `SESSION_LOST` frame.
    Lost(&'static str),
    /// Reclaimed by idle timeout or LRU pressure; the reason goes into
    /// the `EVICTED` frame.
    Evicted(&'static str),
}

/// Routing metadata for one session. The registry is authoritative;
/// worker-resident maps are derived state.
struct Meta {
    worker: usize,
    last_active: Instant,
    state: SessionState,
}

/// One session resident on a worker thread.
struct Resident {
    sess: StreamSession,
    /// Engine generation the session was opened against; a mismatch
    /// after a hot reload invalidates the session.
    generation: u64,
    /// Per-session command counter — the deterministic sequence key for
    /// stream fault injection.
    cmd_seq: u64,
    /// First feed/tick error, latched until the next synchronous frame.
    error: Option<StreamFailure>,
}

/// Commands on a worker's sticky queue. `Feed`/`Tick` carry no reply
/// channel (the wire protocol pipelines them unacknowledged); the
/// synchronous commands rendezvous through one-shot channels.
enum Cmd {
    Open {
        id: u64,
        max_pending: usize,
        reply: Sender<(u32, u32)>,
    },
    Feed {
        id: u64,
        events: Vec<(u16, u16)>,
        at: Instant,
    },
    Tick {
        id: u64,
        advance: u32,
        at: Instant,
    },
    Readout {
        id: u64,
        reply: Sender<Result<(u32, u64), StreamFailure>>,
    },
    Reset {
        id: u64,
        reply: Sender<Result<(), StreamFailure>>,
    },
    Close {
        id: u64,
        reply: Option<Sender<Result<(), StreamFailure>>>,
    },
    Evict {
        id: u64,
    },
}

/// The sticky stream scheduler: owns the stream worker threads, the
/// session registry, and the eviction policy. Created by — and reachable
/// through — the [`Scheduler`](crate::Scheduler::streams), whose engine
/// slot every stream worker serves from, so a hot reload reaches new
/// sessions and batches alike.
pub struct StreamRouter {
    cfg: StreamConfig,
    slot: Arc<EngineSlot>,
    generation: Arc<AtomicU64>,
    metrics: Arc<ServeMetrics>,
    registry: Arc<Mutex<HashMap<u64, Meta>>>,
    next_id: AtomicU64,
    senders: Mutex<Option<Vec<SyncSender<Cmd>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    n_workers: usize,
}

impl std::fmt::Debug for StreamRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamRouter")
            .field("workers", &self.n_workers)
            .field("resident", &self.metrics.stream_sessions_resident.get())
            .finish_non_exhaustive()
    }
}

impl StreamRouter {
    pub(crate) fn start(
        cfg: StreamConfig,
        slot: Arc<EngineSlot>,
        metrics: Arc<ServeMetrics>,
        supervision: Arc<Supervision>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let n_workers = match cfg.workers {
            0 => 2,
            n => n,
        };
        let generation = Arc::new(AtomicU64::new(0));
        let registry: Arc<Mutex<HashMap<u64, Meta>>> = Arc::new(Mutex::new(HashMap::new()));
        let mut senders = Vec::with_capacity(n_workers);
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let (tx, rx) = mpsc::sync_channel::<Cmd>(WORKER_QUEUE);
            senders.push(tx);
            let slot = Arc::clone(&slot);
            let generation = Arc::clone(&generation);
            let metrics = Arc::clone(&metrics);
            let registry = Arc::clone(&registry);
            let supervision = Arc::clone(&supervision);
            let faults = faults.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("snn-stream-worker-{i}"))
                    .spawn(move || {
                        stream_worker_loop(
                            &rx,
                            &slot,
                            &generation,
                            &metrics,
                            &registry,
                            &supervision,
                            faults.as_deref(),
                        )
                    })
                    .expect("spawn stream worker thread"),
            );
        }
        Self {
            cfg,
            slot,
            generation,
            metrics,
            registry,
            next_id: AtomicU64::new(0),
            senders: Mutex::new(Some(senders)),
            workers: Mutex::new(workers),
            n_workers,
        }
    }

    /// The active policy.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// Marks every currently resident session as belonging to a previous
    /// engine generation. Invalidation is lazy: each stale session is
    /// dropped — and its registry entry marked lost — at its next frame,
    /// so a reload never blocks on streams and a stream never reads the
    /// new engine with old-state residue.
    pub(crate) fn note_reload(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Stops admission and joins the stream workers. Resident sessions
    /// are simply dropped — by the time this runs the server has stopped
    /// accepting connections, and late frames answer `SESSION_LOST`.
    pub(crate) fn shutdown(&self) {
        *self.senders.lock().expect("stream senders poisoned") = None;
        let mut workers = self.workers.lock().expect("stream worker handles");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Opens a resident session, evicting idle/LRU sessions if the cap
    /// requires it. Returns `(session_id, n_in, n_out)`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Shape`] if `n_in` disagrees with the serving model,
    /// [`ErrorCode::Capacity`] if the resident cap is reached and nothing
    /// is evictable, [`ErrorCode::SessionLost`] if the router is shutting
    /// down.
    pub fn open(&self, n_in: u32, max_pending: u32) -> Result<(u64, u32, u32), StreamFailure> {
        let model_in = {
            let pool = self.slot.read().expect("engine slot poisoned");
            pool.engine().network().n_in() as u32
        };
        if n_in != model_in {
            return Err((
                ErrorCode::Shape,
                format!("model expects {model_in} input channels, HELLO declared {n_in}"),
            ));
        }
        self.make_room()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let worker = (id as usize) % self.n_workers;
        let max_pending = if max_pending == 0 {
            self.cfg.max_pending_steps
        } else {
            (max_pending as usize).min(self.cfg.max_pending_steps)
        };
        self.registry
            .lock()
            .expect("stream registry poisoned")
            .insert(
                id,
                Meta {
                    worker,
                    last_active: Instant::now(),
                    state: SessionState::Active,
                },
            );
        let (reply_tx, reply_rx) = mpsc::channel();
        let sent = self.send(
            worker,
            Cmd::Open {
                id,
                max_pending,
                reply: reply_tx,
            },
        );
        let opened = sent.and_then(|()| {
            reply_rx
                .recv()
                .map_err(|_| session_lost("stream worker died while opening"))
        });
        match opened {
            Ok((n_in, n_out)) => Ok((id, n_in, n_out)),
            Err(e) => {
                self.registry
                    .lock()
                    .expect("stream registry poisoned")
                    .remove(&id);
                Err(e)
            }
        }
    }

    /// Forwards an unacknowledged `EVENTS` chunk to the session's sticky
    /// worker.
    ///
    /// # Errors
    ///
    /// Immediate routing failures only ([`ErrorCode::SessionLost`] /
    /// [`ErrorCode::Evicted`]); decode errors inside the chunk are
    /// latched worker-side and surface at the next synchronous frame.
    pub fn feed(&self, id: u64, events: Vec<(u16, u16)>) -> Result<(), StreamFailure> {
        let worker = self.check(id)?;
        self.send(
            worker,
            Cmd::Feed {
                id,
                events,
                at: Instant::now(),
            },
        )
    }

    /// Forwards an unacknowledged `TICK` to the session's sticky worker.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Protocol`] if `advance` exceeds
    /// [`StreamConfig::max_advance`], plus the routing failures of
    /// [`feed`](Self::feed).
    pub fn tick(&self, id: u64, advance: u32) -> Result<(), StreamFailure> {
        if advance > self.cfg.max_advance {
            return Err((
                ErrorCode::Protocol,
                format!(
                    "TICK advance {advance} exceeds per-frame cap {}",
                    self.cfg.max_advance
                ),
            ));
        }
        let worker = self.check(id)?;
        self.send(
            worker,
            Cmd::Tick {
                id,
                advance,
                at: Instant::now(),
            },
        )
    }

    /// Classifies everything committed so far: `(class, steps)`.
    ///
    /// # Errors
    ///
    /// Any latched feed error (typed), or
    /// [`ErrorCode::SessionLost`] / [`ErrorCode::Evicted`] if the
    /// resident state is gone.
    pub fn readout(&self, id: u64) -> Result<(u32, u64), StreamFailure> {
        let worker = self.check(id)?;
        let (reply_tx, reply_rx) = mpsc::channel();
        self.send(
            worker,
            Cmd::Readout {
                id,
                reply: reply_tx,
            },
        )?;
        reply_rx
            .recv()
            .map_err(|_| session_lost("stream worker panicked during readout"))?
    }

    /// Clears the session's resident state and counters, keeping it open.
    ///
    /// # Errors
    ///
    /// As [`readout`](Self::readout).
    pub fn reset(&self, id: u64) -> Result<(), StreamFailure> {
        let worker = self.check(id)?;
        let (reply_tx, reply_rx) = mpsc::channel();
        self.send(
            worker,
            Cmd::Reset {
                id,
                reply: reply_tx,
            },
        )?;
        reply_rx
            .recv()
            .map_err(|_| session_lost("stream worker panicked during reset"))?
    }

    /// Closes the session, surfacing any latched feed error first.
    ///
    /// # Errors
    ///
    /// As [`readout`](Self::readout).
    pub fn close(&self, id: u64) -> Result<(), StreamFailure> {
        let worker = self.check(id)?;
        let (reply_tx, reply_rx) = mpsc::channel();
        self.send(
            worker,
            Cmd::Close {
                id,
                reply: Some(reply_tx),
            },
        )?;
        reply_rx
            .recv()
            .map_err(|_| session_lost("stream worker panicked during close"))?
    }

    /// The sticky worker a live session is pinned to. Stable for the
    /// session's whole life — sticky scheduling never migrates resident
    /// state (asserted by the no-migration test).
    pub fn session_worker(&self, id: u64) -> Option<usize> {
        self.registry
            .lock()
            .expect("stream registry poisoned")
            .get(&id)
            .map(|m| m.worker)
    }

    /// Best-effort cleanup when a connection ends, however it ends.
    /// Idempotent; never blocks on the worker.
    pub fn finish(&self, id: u64) {
        let worker = self
            .registry
            .lock()
            .expect("stream registry poisoned")
            .remove(&id)
            .map(|m| m.worker);
        if let Some(worker) = worker {
            let _ = self.send(worker, Cmd::Close { id, reply: None });
        }
    }

    /// Registry gate every frame passes through: refreshes the LRU clock
    /// and refuses frames for lost/evicted sessions with their typed
    /// reason.
    fn check(&self, id: u64) -> Result<usize, StreamFailure> {
        let mut reg = self.registry.lock().expect("stream registry poisoned");
        match reg.get_mut(&id) {
            None => Err(session_lost("unknown session")),
            Some(meta) => match meta.state {
                SessionState::Active => {
                    meta.last_active = Instant::now();
                    Ok(meta.worker)
                }
                SessionState::Lost(why) => Err(session_lost(why)),
                SessionState::Evicted(why) => Err(evicted(why)),
            },
        }
    }

    fn send(&self, worker: usize, cmd: Cmd) -> Result<(), StreamFailure> {
        let tx = {
            let guard = self.senders.lock().expect("stream senders poisoned");
            let Some(senders) = guard.as_ref() else {
                return Err(session_lost("server shutting down"));
            };
            senders[worker].clone()
        };
        tx.send(cmd).map_err(|_| session_lost("stream worker gone"))
    }

    /// Eviction policy, run before each open: reclaim idle sessions,
    /// then — if still at the cap — the least-recently-active session
    /// older than the LRU grace period.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Capacity`] if the cap is reached and no session is
    /// evictable.
    fn make_room(&self) -> Result<(), StreamFailure> {
        let now = Instant::now();
        let mut evictions: Vec<(u64, usize)> = Vec::new();
        {
            let mut reg = self.registry.lock().expect("stream registry poisoned");
            for (&id, meta) in reg.iter_mut() {
                if matches!(meta.state, SessionState::Active)
                    && now.duration_since(meta.last_active) >= self.cfg.idle_timeout
                {
                    meta.state = SessionState::Evicted("idle timeout");
                    evictions.push((id, meta.worker));
                }
            }
            let active = reg
                .values()
                .filter(|m| matches!(m.state, SessionState::Active))
                .count();
            if active >= self.cfg.max_resident {
                let victim = reg
                    .iter()
                    .filter(|(_, m)| {
                        matches!(m.state, SessionState::Active)
                            && now.duration_since(m.last_active) >= self.cfg.lru_grace
                    })
                    .min_by_key(|(_, m)| m.last_active)
                    .map(|(&id, _)| id);
                let Some(id) = victim else {
                    self.metrics.stream_rejected_capacity_total.inc();
                    return Err((
                        ErrorCode::Capacity,
                        format!(
                            "resident session cap {} reached and nothing is evictable",
                            self.cfg.max_resident
                        ),
                    ));
                };
                let meta = reg.get_mut(&id).expect("victim vanished under lock");
                meta.state = SessionState::Evicted("least-recently-used under capacity pressure");
                evictions.push((id, meta.worker));
            }
        }
        for (id, worker) in evictions {
            self.metrics.stream_evictions_total.inc();
            let _ = self.send(worker, Cmd::Evict { id });
        }
        Ok(())
    }
}

/// Marks `id` lost in the registry with `why`; the worker calls this as
/// it drops resident state.
fn mark_lost(
    registry: &Mutex<HashMap<u64, Meta>>,
    metrics: &ServeMetrics,
    id: u64,
    why: &'static str,
) {
    if let Some(meta) = registry
        .lock()
        .expect("stream registry poisoned")
        .get_mut(&id)
    {
        meta.state = SessionState::Lost(why);
    }
    metrics.stream_sessions_lost_total.inc();
    metrics.stream_sessions_resident.dec();
}

/// The typed failure a sync command answers when the worker holds no
/// state for the session: derived from the registry so the client hears
/// the real reason (lost vs evicted), not a generic unknown-session.
fn failure_for(registry: &Mutex<HashMap<u64, Meta>>, id: u64) -> StreamFailure {
    let reg = registry.lock().expect("stream registry poisoned");
    match reg.get(&id).map(|m| m.state) {
        Some(SessionState::Lost(why)) => session_lost(why),
        Some(SessionState::Evicted(why)) => evicted(why),
        _ => session_lost("no resident state for session"),
    }
}

fn stream_worker_loop(
    rx: &Receiver<Cmd>,
    slot: &EngineSlot,
    generation: &AtomicU64,
    metrics: &ServeMetrics,
    registry: &Mutex<HashMap<u64, Meta>>,
    supervision: &Supervision,
    faults: Option<&FaultPlan>,
) {
    let mut sessions: HashMap<u64, Resident> = HashMap::new();
    while let Ok(cmd) = rx.recv() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            process_cmd(
                cmd,
                &mut sessions,
                slot,
                generation,
                metrics,
                registry,
                faults,
            );
        }));
        if outcome.is_err() {
            // Supervision: a panic mid-command may have left any resident
            // membrane state half-stepped, so quarantine *everything* on
            // this worker. Each stream's next synchronous frame answers a
            // typed SESSION_LOST — never a possibly-wrong readout.
            metrics.worker_panics_total.inc();
            supervision.note_panic();
            for (id, _) in sessions.drain() {
                mark_lost(
                    registry,
                    metrics,
                    id,
                    "worker panicked; resident state quarantined",
                );
            }
        }
    }
}

/// Generation gate + fault hook shared by every per-session command.
/// Returns the resident entry, or `None` after dropping a stale one.
fn gate<'a>(
    sessions: &'a mut HashMap<u64, Resident>,
    generation: &AtomicU64,
    metrics: &ServeMetrics,
    registry: &Mutex<HashMap<u64, Meta>>,
    faults: Option<&FaultPlan>,
    id: u64,
) -> Option<&'a mut Resident> {
    let current = generation.load(Ordering::SeqCst);
    if sessions.get(&id).is_some_and(|e| e.generation != current) {
        sessions.remove(&id);
        mark_lost(
            registry,
            metrics,
            id,
            "engine hot-reloaded; resident state invalidated",
        );
        return None;
    }
    let entry = sessions.get_mut(&id)?;
    entry.cmd_seq += 1;
    if let Some(plan) = faults {
        plan.apply_stream(id.wrapping_shl(32) | (entry.cmd_seq & 0xFFFF_FFFF));
    }
    Some(entry)
}

#[allow(clippy::too_many_lines)]
fn process_cmd(
    cmd: Cmd,
    sessions: &mut HashMap<u64, Resident>,
    slot: &EngineSlot,
    generation: &AtomicU64,
    metrics: &ServeMetrics,
    registry: &Mutex<HashMap<u64, Meta>>,
    faults: Option<&FaultPlan>,
) {
    match cmd {
        Cmd::Open {
            id,
            max_pending,
            reply,
        } => {
            // Generation first, engine second: `Scheduler::swap_engine`
            // stores the new engine and then bumps the generation, so a
            // reload landing between these two reads tags the session
            // with the old generation (a spurious SESSION_LOST at its
            // next frame) and can never tag old weights with the new one.
            let opened_at = generation.load(Ordering::SeqCst);
            let engine = {
                let pool = slot.read().expect("engine slot poisoned");
                pool.engine().clone()
            };
            let sess = StreamSession::new(&engine).with_max_pending(max_pending);
            let shape = (sess.n_in() as u32, sess.n_out() as u32);
            sessions.insert(
                id,
                Resident {
                    sess,
                    generation: opened_at,
                    cmd_seq: 0,
                    error: None,
                },
            );
            metrics.stream_sessions_resident.inc();
            let _ = reply.send(shape);
        }
        Cmd::Feed { id, events, at } => {
            let Some(entry) = gate(sessions, generation, metrics, registry, faults, id) else {
                return;
            };
            if entry.error.is_some() {
                return;
            }
            let n = events.len() as u64;
            let deltas: Vec<(usize, usize)> = events
                .iter()
                .map(|&(dt, ch)| (dt as usize, ch as usize))
                .collect();
            match entry.sess.feed_events(&deltas) {
                Ok(()) => metrics.stream_events_total.add(n),
                Err(e) => entry.error = Some(map_stream_error(&e)),
            }
            metrics
                .stream_chunk_latency_us
                .observe(at.elapsed().as_micros() as u64);
        }
        Cmd::Tick { id, advance, at } => {
            let Some(entry) = gate(sessions, generation, metrics, registry, faults, id) else {
                return;
            };
            if entry.error.is_some() {
                return;
            }
            entry.sess.advance(advance as usize);
            metrics
                .stream_chunk_latency_us
                .observe(at.elapsed().as_micros() as u64);
        }
        Cmd::Readout { id, reply } => {
            let Some(entry) = gate(sessions, generation, metrics, registry, faults, id) else {
                let _ = reply.send(Err(failure_for(registry, id)));
                return;
            };
            let result = match entry.error.take() {
                Some(err) => Err(err),
                None => Ok((entry.sess.readout() as u32, entry.sess.steps() as u64)),
            };
            let _ = reply.send(result);
        }
        Cmd::Reset { id, reply } => {
            let Some(entry) = gate(sessions, generation, metrics, registry, faults, id) else {
                let _ = reply.send(Err(failure_for(registry, id)));
                return;
            };
            let result = match entry.error.take() {
                Some(err) => Err(err),
                None => {
                    entry.sess.reset();
                    Ok(())
                }
            };
            let _ = reply.send(result);
        }
        Cmd::Close { id, reply } => {
            let latched = sessions.get_mut(&id).and_then(|e| e.error.take());
            if sessions.remove(&id).is_some() {
                metrics.stream_sessions_resident.dec();
            }
            if let Some(reply) = reply {
                let _ = reply.send(match latched {
                    Some(err) => Err(err),
                    None => Ok(()),
                });
            }
        }
        Cmd::Evict { id } => {
            if sessions.remove(&id).is_some() {
                metrics.stream_sessions_resident.dec();
            }
        }
    }
}

/// Lifecycle position of a [`StreamConn`].
enum ConnState {
    /// Nothing consumed yet: the magic preamble and `HELLO` come first.
    Start,
    /// Session open; frames route to its sticky worker.
    Open(u64),
    /// Stream over (cleanly or not); further steps are no-ops.
    Closed,
}

/// A resumable streaming-connection state machine.
///
/// The readiness-based server cannot park a thread inside a blocking
/// per-connection loop, so the protocol logic lives here instead: each
/// [`step`](StreamConn::step) consumes **one frame** and returns whether
/// the stream is finished, letting a handler thread process exactly the
/// frames that have arrived and then re-arm the connection in the
/// poller. [`handle_stream_connection`] is the blocking composition of
/// steps over one transport.
pub struct StreamConn {
    state: ConnState,
    /// Routing failures on unacknowledged frames, deferred to the next
    /// synchronous frame — mirroring how worker-side feed errors latch.
    deferred: Option<StreamFailure>,
    /// Reused frame-payload buffer.
    payload: Vec<u8>,
}

impl Default for StreamConn {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamConn {
    /// A connection that has consumed nothing yet.
    pub fn new() -> Self {
        Self {
            state: ConnState::Start,
            deferred: None,
            payload: Vec::new(),
        }
    }

    /// Consumes one frame (or the preamble + `HELLO` on the first call)
    /// and returns `true` when the stream is over. Whatever ends the
    /// stream — `CLOSE`, EOF, a typed error reply, or a transport
    /// failure — the session's registry entry is released before
    /// returning, so an abandoned connection never leaks resident state.
    ///
    /// # Errors
    ///
    /// Only transport failures while *writing* replies; read failures
    /// mean the client is gone and end the stream cleanly.
    pub fn step<R: BufRead, W: Write>(
        &mut self,
        reader: &mut R,
        writer: &mut W,
        router: &StreamRouter,
    ) -> io::Result<bool> {
        let result = self.step_inner(reader, writer, router);
        if !matches!(result, Ok(false)) {
            self.finish(router);
        }
        result
    }

    /// Releases the session (registry entry + resident state) if one is
    /// open. Idempotent; the cleanup path for connections that die
    /// outside [`step`](Self::step).
    pub fn finish(&mut self, router: &StreamRouter) {
        if let ConnState::Open(id) = self.state {
            router.finish(id);
        }
        self.state = ConnState::Closed;
    }

    fn step_inner<R: BufRead, W: Write>(
        &mut self,
        reader: &mut R,
        writer: &mut W,
        router: &StreamRouter,
    ) -> io::Result<bool> {
        let id = match self.state {
            ConnState::Closed => return Ok(true),
            ConnState::Open(id) => id,
            ConnState::Start => {
                match wire::read_magic(reader) {
                    Ok(()) => {}
                    Err(WireError::Io(_)) => return Ok(true),
                    Err(e) => {
                        reply_error(writer, ErrorCode::BadFrame, &e.to_string())?;
                        return Ok(true);
                    }
                }
                let Some(first) = read_frame(reader, writer, &mut self.payload)? else {
                    return Ok(true);
                };
                let Frame::Hello { n_in, max_pending } = first else {
                    reply_error(writer, ErrorCode::Protocol, "first frame must be HELLO")?;
                    return Ok(true);
                };
                let (id, n_in, n_out) = match router.open(n_in, max_pending) {
                    Ok(opened) => opened,
                    Err((code, msg)) => {
                        reply_error(writer, code, &msg)?;
                        return Ok(true);
                    }
                };
                self.state = ConnState::Open(id);
                Reply::HelloOk {
                    session_id: id,
                    n_in,
                    n_out,
                }
                .write_to(writer)?;
                return Ok(false);
            }
        };
        let Some(frame) = read_frame(reader, writer, &mut self.payload)? else {
            return Ok(true);
        };
        match frame {
            Frame::Hello { .. } => {
                reply_error(writer, ErrorCode::Protocol, "HELLO repeated mid-stream")?;
                Ok(true)
            }
            Frame::Events(events) => {
                if self.deferred.is_none() {
                    self.deferred = router.feed(id, events).err();
                }
                Ok(false)
            }
            Frame::Tick { advance } => {
                if self.deferred.is_none() {
                    self.deferred = router.tick(id, advance).err();
                }
                Ok(false)
            }
            Frame::Readout => {
                if let Some((code, msg)) = self.deferred.take() {
                    reply_error(writer, code, &msg)?;
                    return Ok(true);
                }
                match router.readout(id) {
                    Ok((class, steps)) => {
                        Reply::Readout { class, steps }.write_to(writer)?;
                        Ok(false)
                    }
                    Err((code, msg)) => {
                        reply_error(writer, code, &msg)?;
                        Ok(true)
                    }
                }
            }
            Frame::Reset => {
                if let Some((code, msg)) = self.deferred.take() {
                    reply_error(writer, code, &msg)?;
                    return Ok(true);
                }
                match router.reset(id) {
                    Ok(()) => {
                        Reply::Ok.write_to(writer)?;
                        Ok(false)
                    }
                    Err((code, msg)) => {
                        reply_error(writer, code, &msg)?;
                        Ok(true)
                    }
                }
            }
            Frame::Close => {
                if let Some((code, msg)) = self.deferred.take() {
                    reply_error(writer, code, &msg)?;
                    return Ok(true);
                }
                match router.close(id) {
                    Ok(()) => Reply::Ok.write_to(writer)?,
                    Err((code, msg)) => reply_error(writer, code, &msg)?,
                }
                Ok(true)
            }
        }
    }
}

/// Serves one binary streaming connection: validates the [`wire::MAGIC`]
/// preamble, opens a session on the first `HELLO`, then shuttles frames
/// between the transport and the session's sticky worker until `CLOSE`,
/// EOF, or a typed error (after which the server closes the connection).
///
/// Generic over the transport so tests can drive it with in-memory
/// buffers. This is the blocking composition of [`StreamConn::step`];
/// the readiness-based server drives the same state machine frame by
/// frame instead.
///
/// # Errors
///
/// Only transport failures while *writing* replies; read failures mean
/// the client is gone and end the stream cleanly.
pub fn handle_stream_connection<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    router: &StreamRouter,
) -> io::Result<()> {
    let mut conn = StreamConn::new();
    loop {
        match conn.step(reader, writer, router) {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads and parses one frame. `Ok(None)` means the stream is over —
/// clean EOF, a torn connection, or a malformed frame that was already
/// answered with a typed `ERROR`.
fn read_frame<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    payload: &mut Vec<u8>,
) -> io::Result<Option<Frame>> {
    match wire::read_raw_frame(reader, payload) {
        Ok(None) => Ok(None),
        Ok(Some(ty)) => match Frame::parse(ty, payload) {
            Ok(frame) => Ok(Some(frame)),
            Err(e) => {
                reply_error(writer, ErrorCode::BadFrame, &e.to_string())?;
                Ok(None)
            }
        },
        Err(WireError::Io(_)) => Ok(None),
        Err(e) => {
            reply_error(writer, ErrorCode::BadFrame, &e.to_string())?;
            Ok(None)
        }
    }
}

fn reply_error(w: &mut impl Write, code: ErrorCode, message: &str) -> io::Result<()> {
    Reply::Error {
        code,
        message: message.to_string(),
    }
    .write_to(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{Network, NeuronKind, SpikeRaster};
    use snn_engine::{Engine, SessionPool};
    use snn_neuron::NeuronParams;
    use snn_tensor::Rng;
    use std::io::{BufReader, Cursor};
    use std::sync::RwLock;

    fn engine() -> Engine {
        let mut rng = Rng::seed_from(11);
        let net = Network::mlp(
            &[6, 12, 4],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        );
        Engine::from_network(net).build()
    }

    struct Rig {
        router: StreamRouter,
        metrics: Arc<ServeMetrics>,
    }

    fn rig_with(cfg: StreamConfig, faults: Option<Arc<FaultPlan>>) -> Rig {
        let metrics = Arc::new(ServeMetrics::new());
        let router = StreamRouter::start(
            cfg,
            Arc::new(RwLock::new(Arc::new(SessionPool::new(engine())))),
            Arc::clone(&metrics),
            Arc::new(Supervision::new()),
            faults,
        );
        Rig { router, metrics }
    }

    fn rig(cfg: StreamConfig) -> Rig {
        rig_with(cfg, None)
    }

    fn raster() -> SpikeRaster {
        SpikeRaster::from_events(10, 6, &[(0, 1), (2, 3), (2, 4), (7, 0), (9, 5)])
    }

    #[test]
    fn streamed_readout_matches_session_classify() {
        let r = rig(StreamConfig::default());
        let (id, n_in, n_out) = r.router.open(6, 0).unwrap();
        assert_eq!((n_in, n_out), (6, 4));
        let input = raster();
        let deltas: Vec<(u16, u16)> = input
            .delta_events()
            .iter()
            .map(|&(dt, ch)| (dt as u16, ch as u16))
            .collect();
        r.router.feed(id, deltas).unwrap();
        r.router.tick(id, input.steps() as u32).unwrap();
        let (class, steps) = r.router.readout(id).unwrap();
        assert_eq!(steps, input.steps() as u64);
        let expected = engine().session().classify(&input) as u32;
        assert_eq!(class, expected);
        assert_eq!(r.metrics.stream_sessions_resident.get(), 1);
        assert_eq!(r.metrics.stream_events_total.get(), 5);
        r.router.close(id).unwrap();
        assert_eq!(r.metrics.stream_sessions_resident.get(), 0);
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let r = rig(StreamConfig::default());
        let err = r.router.open(7, 0).unwrap_err();
        assert_eq!(err.0, ErrorCode::Shape);
    }

    #[test]
    fn feed_errors_latch_until_readout() {
        let r = rig(StreamConfig::default());
        let (id, _, _) = r.router.open(6, 0).unwrap();
        // channel 6 is out of range for a 6-input model
        r.router.feed(id, vec![(0, 6)]).unwrap();
        let err = r.router.readout(id).unwrap_err();
        assert_eq!(err.0, ErrorCode::ChannelRange);
    }

    #[test]
    fn oversized_tick_is_rejected_at_the_router() {
        let cfg = StreamConfig {
            max_advance: 8,
            ..StreamConfig::default()
        };
        let r = rig(cfg);
        let (id, _, _) = r.router.open(6, 0).unwrap();
        let err = r.router.tick(id, 9).unwrap_err();
        assert_eq!(err.0, ErrorCode::Protocol);
        r.router.tick(id, 8).unwrap();
        assert_eq!(r.router.readout(id).unwrap(), (0, 8));
    }

    #[test]
    fn capacity_evicts_lru_then_refuses() {
        let cfg = StreamConfig {
            max_resident: 2,
            lru_grace: Duration::ZERO,
            ..StreamConfig::default()
        };
        let r = rig(cfg);
        let (a, _, _) = r.router.open(6, 0).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let (b, _, _) = r.router.open(6, 0).unwrap();
        // At the cap: the third open evicts `a`, the least recently active.
        let (c, _, _) = r.router.open(6, 0).unwrap();
        assert_eq!(r.metrics.stream_evictions_total.get(), 1);
        let err = r.router.readout(a).unwrap_err();
        assert_eq!(err.0, ErrorCode::Evicted);
        assert!(r.router.readout(b).is_ok());
        assert!(r.router.readout(c).is_ok());

        // With no grace-eligible victims, opens are refused typed.
        let strict = rig(StreamConfig {
            max_resident: 1,
            lru_grace: Duration::from_secs(3600),
            ..StreamConfig::default()
        });
        strict.router.open(6, 0).unwrap();
        let err = strict.router.open(6, 0).unwrap_err();
        assert_eq!(err.0, ErrorCode::Capacity);
        assert_eq!(strict.metrics.stream_rejected_capacity_total.get(), 1);
    }

    #[test]
    fn idle_sessions_are_reclaimed_on_open_pressure() {
        let cfg = StreamConfig {
            max_resident: 1,
            idle_timeout: Duration::from_millis(1),
            lru_grace: Duration::from_secs(3600),
            ..StreamConfig::default()
        };
        let r = rig(cfg);
        let (a, _, _) = r.router.open(6, 0).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        // `a` is idle past the timeout, so the open reclaims it even
        // though the LRU grace period would protect it.
        let (b, _, _) = r.router.open(6, 0).unwrap();
        assert_eq!(r.router.readout(a).unwrap_err().0, ErrorCode::Evicted);
        assert!(r.router.readout(b).is_ok());
    }

    #[test]
    fn hot_reload_invalidates_resident_sessions() {
        let r = rig(StreamConfig::default());
        let (id, _, _) = r.router.open(6, 0).unwrap();
        r.router.feed(id, vec![(0, 1)]).unwrap();
        r.router.note_reload();
        let err = r.router.readout(id).unwrap_err();
        assert_eq!(err.0, ErrorCode::SessionLost);
        assert!(err.1.contains("hot-reload"), "{}", err.1);
        assert_eq!(r.metrics.stream_sessions_lost_total.get(), 1);
        assert_eq!(r.metrics.stream_sessions_resident.get(), 0);
        // New sessions on the new generation work immediately.
        let (fresh, _, _) = r.router.open(6, 0).unwrap();
        assert!(r.router.readout(fresh).is_ok());
    }

    #[test]
    fn injected_panic_quarantines_the_workers_residents() {
        crate::fault::silence_injected_panics();
        let faults = Arc::new(FaultPlan::seeded(7).with_stream_panic_rate(1.0));
        let cfg = StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        };
        let r = rig_with(cfg, Some(faults));
        let (a, _, _) = r.router.open(6, 0).unwrap();
        let (b, _, _) = r.router.open(6, 0).unwrap();
        // The first command after open panics the worker; both residents
        // on it are quarantined.
        r.router.feed(a, vec![(0, 1)]).unwrap();
        let err = r.router.readout(a).unwrap_err();
        assert_eq!(err.0, ErrorCode::SessionLost);
        let err = r.router.readout(b).unwrap_err();
        assert_eq!(err.0, ErrorCode::SessionLost);
        assert!(r.metrics.worker_panics_total.get() >= 1);
        assert_eq!(r.metrics.stream_sessions_lost_total.get(), 2);
        assert_eq!(r.metrics.stream_sessions_resident.get(), 0);
    }

    #[test]
    fn sticky_sessions_never_migrate_workers() {
        let cfg = StreamConfig {
            workers: 4,
            ..StreamConfig::default()
        };
        let r = rig(cfg);
        let input = raster();
        let deltas: Vec<(u16, u16)> = input
            .delta_events()
            .iter()
            .map(|&(dt, ch)| (dt as u16, ch as u16))
            .collect();
        let expected = engine().session().classify(&input) as u32;
        let mut seen_workers = std::collections::HashSet::new();
        for _ in 0..8 {
            let (id, _, _) = r.router.open(6, 0).unwrap();
            let worker = r.router.session_worker(id).unwrap();
            seen_workers.insert(worker);
            // Many frames: the session must stay pinned to its worker
            // across every one of them, and its resident state must keep
            // accumulating coherently.
            for (i, chunk) in deltas.chunks(2).enumerate() {
                r.router.feed(id, chunk.to_vec()).unwrap();
                assert_eq!(r.router.session_worker(id), Some(worker), "chunk {i}");
            }
            r.router.tick(id, input.steps() as u32).unwrap();
            let (class, steps) = r.router.readout(id).unwrap();
            assert_eq!(steps, input.steps() as u64);
            assert_eq!(class, expected, "worker {worker} must serve same model");
            assert_eq!(r.router.session_worker(id), Some(worker));
            r.router.close(id).unwrap();
        }
        // Round-robin session ids cover all 4 workers.
        assert_eq!(seen_workers.len(), 4, "every worker held sessions");
    }

    #[test]
    fn connection_handler_speaks_the_wire_protocol() {
        let r = rig(StreamConfig::default());
        let input = raster();
        let deltas: Vec<(u16, u16)> = input
            .delta_events()
            .iter()
            .map(|&(dt, ch)| (dt as u16, ch as u16))
            .collect();

        let mut request = Vec::new();
        request.extend_from_slice(&wire::MAGIC);
        for frame in [
            Frame::Hello {
                n_in: 6,
                max_pending: 0,
            },
            Frame::Events(deltas),
            Frame::Tick {
                advance: input.steps() as u32,
            },
            Frame::Readout,
            Frame::Reset,
            Frame::Close,
        ] {
            frame.write_to(&mut request).unwrap();
        }

        let mut reader = BufReader::new(Cursor::new(request));
        let mut response = Vec::new();
        handle_stream_connection(&mut reader, &mut response, &r.router).unwrap();

        let mut replies = BufReader::new(&response[..]);
        let hello = Reply::read_from(&mut replies).unwrap().unwrap();
        assert!(matches!(
            hello,
            Reply::HelloOk {
                n_in: 6,
                n_out: 4,
                ..
            }
        ));
        let expected = engine().session().classify(&input) as u32;
        assert_eq!(
            Reply::read_from(&mut replies).unwrap().unwrap(),
            Reply::Readout {
                class: expected,
                steps: input.steps() as u64,
            }
        );
        assert_eq!(Reply::read_from(&mut replies).unwrap().unwrap(), Reply::Ok); // RESET
        assert_eq!(Reply::read_from(&mut replies).unwrap().unwrap(), Reply::Ok); // CLOSE
        assert!(Reply::read_from(&mut replies).unwrap().is_none());
        assert_eq!(r.metrics.stream_sessions_resident.get(), 0);
    }

    #[test]
    fn connection_handler_rejects_non_hello_start() {
        let r = rig(StreamConfig::default());
        let mut request = Vec::new();
        request.extend_from_slice(&wire::MAGIC);
        Frame::Readout.write_to(&mut request).unwrap();
        let mut reader = BufReader::new(Cursor::new(request));
        let mut response = Vec::new();
        handle_stream_connection(&mut reader, &mut response, &r.router).unwrap();
        let reply = Reply::read_from(&mut BufReader::new(&response[..]))
            .unwrap()
            .unwrap();
        assert!(matches!(
            reply,
            Reply::Error {
                code: ErrorCode::Protocol,
                ..
            }
        ));
    }

    #[test]
    fn disconnect_without_close_releases_the_session() {
        let r = rig(StreamConfig::default());
        let mut request = Vec::new();
        request.extend_from_slice(&wire::MAGIC);
        Frame::Hello {
            n_in: 6,
            max_pending: 0,
        }
        .write_to(&mut request)
        .unwrap();
        Frame::Events(vec![(0, 1)]).write_to(&mut request).unwrap();
        // ...and the client vanishes (EOF, no CLOSE).
        let mut reader = BufReader::new(Cursor::new(request));
        let mut response = Vec::new();
        handle_stream_connection(&mut reader, &mut response, &r.router).unwrap();
        r.router.shutdown();
        assert_eq!(r.metrics.stream_sessions_resident.get(), 0);
    }
}
