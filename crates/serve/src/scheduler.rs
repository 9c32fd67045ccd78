//! The dynamic micro-batching scheduler: the core of the serving
//! subsystem.
//!
//! Requests arrive one at a time; batched inference is where the
//! throughput lives. This module bridges the two with the same
//! discipline production model servers use:
//!
//! * acceptors [`submit`](Scheduler::submit) single samples into a
//!   **bounded** admission queue — a full queue fails fast
//!   ([`SubmitError::QueueFull`] → HTTP 503 + `Retry-After`) instead of
//!   growing without bound;
//! * a **collator** thread drains the queue into micro-batches under a
//!   `max_batch` / `max_wait` policy: a batch is dispatched as soon as it
//!   reaches [`BatchPolicy::max_batch`] samples, or when
//!   [`BatchPolicy::max_wait`] has elapsed since its first sample —
//!   so an idle server stays a low-latency server and a loaded server
//!   degrades into a high-throughput one;
//! * a pool of **workers** executes batches on
//!   [`SessionPool`]-checked-out sessions (warm, allocation-free
//!   buffers), delivering each sample's class back through its
//!   [`Ticket`].
//!
//! Because every sample is classified independently by a deterministic
//! [`Session`](snn_engine::Session) hot path, predictions are a pure
//! function of the input raster: **how the scheduler happened to batch a
//! request can never change its answer** (property-tested in
//! `tests/proptests.rs`).
//!
//! # Fault tolerance
//!
//! The scheduler is also the fault-containment boundary of the server:
//!
//! * **Worker supervision** — each job executes inside
//!   [`catch_unwind`]. A panic poisons the
//!   session (its buffers are quarantined, not recycled — see
//!   [`Session::poison`](snn_engine::Session::poison)), the
//!   worker respawns a fresh session from the pool and retries the job
//!   once; a second panic surfaces as [`TicketError::Failed`] (HTTP 503)
//!   for that one request while the worker, the batch, and the process
//!   keep going. Panic/quarantine/retry counts are exported in
//!   `/metrics`.
//! * **Deadline shedding** — [`submit_with_deadline`](Scheduler::submit_with_deadline)
//!   attaches a deadline; the collator sheds already-expired jobs before
//!   dispatch and workers re-check right before execution, so a backed-up
//!   queue spends no inference time on answers nobody is waiting for
//!   ([`TicketError::Expired`] → HTTP 504).
//! * **Hot engine swap** — the worker pool runs against an atomically
//!   swappable [`SessionPool`]. [`swap_engine`](Scheduler::swap_engine)
//!   installs a freshly built engine; in-flight batches finish on the old
//!   pool (their `Arc` keeps it alive), new batches pick up the new one,
//!   and the old pool's warm buffers drain as the references drop. No
//!   queue is paused and no request is dropped.
//! * **Deterministic fault injection** — a test-only
//!   [`FaultPlan`] hook
//!   ([`start_with_streams`](Scheduler::start_with_streams)) injects seeded
//!   panics/latency at the supervision boundary, which is how all of the
//!   above is exercised in tests and `bench_serve --soak`.
//!
//! [`shutdown`](Scheduler::shutdown) is graceful by construction:
//! admission closes first, then the collator drains every already-queued
//! sample into final batches and the workers finish them, so no accepted
//! request is ever dropped without a response.

use crate::fault::FaultPlan;
use crate::metrics::{ServeMetrics, Stage};
use crate::stream::{StreamConfig, StreamRouter};
use snn_core::SpikeRaster;
use snn_engine::{Engine, SessionPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Attempts a job gets before its panic is surfaced to the client: the
/// first execution plus one supervised retry on a fresh session.
const MAX_JOB_ATTEMPTS: u32 = 2;

/// Micro-batching policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Dispatch a batch as soon as it holds this many samples.
    pub max_batch: usize,
    /// Dispatch a partial batch once this much time has passed since its
    /// first sample was collected.
    pub max_wait: Duration,
    /// Admission-queue capacity; a full queue rejects new submissions
    /// ([`SubmitError::QueueFull`]) instead of buffering unboundedly.
    pub queue_capacity: usize,
    /// Worker threads executing batches (`0` = one per available core).
    pub workers: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            workers: 0,
        }
    }
}

impl BatchPolicy {
    /// Single-request serving: every sample is its own batch. The
    /// baseline the `bench_serve` load generator compares against.
    pub fn single() -> Self {
        Self {
            max_batch: 1,
            ..Self::default()
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is full — retry later (HTTP 503 +
    /// `Retry-After`).
    QueueFull,
    /// The scheduler is shutting down and no longer admits work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue full"),
            SubmitError::ShuttingDown => write!(f, "scheduler shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why [`Scheduler::swap_engine`] refused the replacement engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSwapError {
    /// The replacement's input/output widths differ from the serving
    /// engine's — clients would silently get answers from a different
    /// problem.
    ShapeMismatch {
        /// (inputs, outputs) of the engine currently serving.
        current: (usize, usize),
        /// (inputs, outputs) of the rejected replacement.
        offered: (usize, usize),
    },
}

impl std::fmt::Display for EngineSwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineSwapError::ShapeMismatch { current, offered } => write!(
                f,
                "engine shape mismatch: serving {}x{}, offered {}x{}",
                current.0, current.1, offered.0, offered.1
            ),
        }
    }
}

impl std::error::Error for EngineSwapError {}

/// What the worker reports back for a job that produced no class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The job's deadline passed before it was executed; the work was
    /// shed.
    Expired,
    /// Every supervised execution attempt panicked.
    Failed,
}

/// One queued sample: the raster, its bookkeeping, and the channel its
/// class is delivered through.
struct Job {
    /// Global admission sequence number — the key fault injection
    /// schedules by.
    seq: u64,
    raster: SpikeRaster,
    submitted_at: Instant,
    deadline: Option<Instant>,
    result_tx: mpsc::Sender<Result<usize, JobError>>,
    /// Trace this job belongs to; `0` = untraced, and every tracing
    /// branch downstream is skipped entirely.
    trace: u64,
    /// Root request span the stage spans parent under.
    parent_span: u64,
    /// [`snn_obs::now_ns`] at submission (for the queue-wait span).
    submitted_ns: u64,
    /// [`snn_obs::now_ns`] when the collator picked the job up (for the
    /// batch-wait span); stamped by the collator.
    collated_ns: u64,
}

impl Job {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Why a [`Ticket`] could not be redeemed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketError {
    /// The executing worker died without answering. An accepted job is
    /// otherwise always answered, including across graceful shutdown and
    /// supervised worker panics.
    Lost,
    /// [`Ticket::wait_timeout`] gave up before the answer arrived.
    Timeout,
    /// The job's deadline expired before execution; it was shed without
    /// running (HTTP 504).
    Expired,
    /// Every supervised execution attempt panicked; the request failed
    /// while the server kept serving (HTTP 503, retryable).
    Failed,
}

impl std::fmt::Display for TicketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TicketError::Lost => write!(f, "worker died before answering"),
            TicketError::Timeout => write!(f, "timed out waiting for the answer"),
            TicketError::Expired => write!(f, "deadline expired before execution"),
            TicketError::Failed => write!(f, "execution failed after supervised retries"),
        }
    }
}

impl std::error::Error for TicketError {}

/// The receipt for an accepted submission; redeem it with
/// [`wait`](Ticket::wait).
#[derive(Debug)]
pub struct Ticket {
    result_rx: mpsc::Receiver<Result<usize, JobError>>,
}

impl Ticket {
    fn resolve(result: Result<Result<usize, JobError>, TicketError>) -> Result<usize, TicketError> {
        match result {
            Ok(Ok(class)) => Ok(class),
            Ok(Err(JobError::Expired)) => Err(TicketError::Expired),
            Ok(Err(JobError::Failed)) => Err(TicketError::Failed),
            Err(e) => Err(e),
        }
    }

    /// Blocks until the sample's predicted class is available.
    ///
    /// # Errors
    ///
    /// [`TicketError::Expired`] if the job was shed at its deadline,
    /// [`TicketError::Failed`] if every supervised execution attempt
    /// panicked, [`TicketError::Lost`] if the executing worker died
    /// without answering.
    pub fn wait(self) -> Result<usize, TicketError> {
        Self::resolve(self.result_rx.recv().map_err(|_| TicketError::Lost))
    }

    /// Like [`wait`](Self::wait), but gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// As [`wait`](Self::wait), plus [`TicketError::Timeout`] on expiry.
    pub fn wait_timeout(self, timeout: Duration) -> Result<usize, TicketError> {
        Self::resolve(self.result_rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TicketError::Timeout,
            RecvTimeoutError::Disconnected => TicketError::Lost,
        }))
    }
}

/// Supervision state shared between the workers (batch and stream) and
/// the health endpoint: when the last worker panic happened, as
/// milliseconds since scheduler start (`u64::MAX` = never).
pub(crate) struct Supervision {
    started: Instant,
    last_panic_ms: AtomicU64,
}

impl Supervision {
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            last_panic_ms: AtomicU64::new(u64::MAX),
        }
    }

    pub(crate) fn note_panic(&self) {
        let ms = self.started.elapsed().as_millis() as u64;
        self.last_panic_ms.store(ms, Ordering::Relaxed);
    }

    fn last_panic_age(&self) -> Option<Duration> {
        let ms = self.last_panic_ms.load(Ordering::Relaxed);
        if ms == u64::MAX {
            return None;
        }
        Some(
            self.started
                .elapsed()
                .saturating_sub(Duration::from_millis(ms)),
        )
    }
}

/// The swappable engine slot the workers serve from. Workers take the
/// read lock only long enough to clone the inner `Arc`, so a pending
/// write (hot reload) never waits on inference.
pub(crate) type EngineSlot = RwLock<Arc<SessionPool>>;

/// The running micro-batching scheduler: one bounded admission queue,
/// one collator thread, a pool of [`BatchPolicy::workers`] batch
/// workers, and one hot-swappable engine slot, which the
/// [`StreamRouter`]'s workers serve from too.
///
/// # Examples
///
/// ```
/// use snn_core::{Network, NeuronKind, SpikeRaster};
/// use snn_engine::Engine;
/// use snn_neuron::NeuronParams;
/// use snn_serve::{BatchPolicy, Scheduler};
/// use snn_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let net = Network::mlp(&[4, 8, 2], NeuronKind::Adaptive,
///                        NeuronParams::paper_defaults(), &mut rng);
/// let scheduler = Scheduler::start(
///     Engine::from_network(net).build(),
///     BatchPolicy { max_batch: 8, workers: 2, ..BatchPolicy::default() },
/// );
/// let input = SpikeRaster::from_events(10, 4, &[(0, 1), (5, 3)]);
/// let ticket = scheduler.submit(input).unwrap();
/// let class = ticket.wait().unwrap();
/// assert!(class < 2);
/// scheduler.shutdown();
/// ```
pub struct Scheduler {
    queue_tx: Mutex<Option<SyncSender<Job>>>,
    engine_slot: Arc<EngineSlot>,
    collator: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    metrics: Arc<ServeMetrics>,
    supervision: Arc<Supervision>,
    stream: StreamRouter,
    seq: AtomicU64,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("engine", &self.engine())
            .field("queue_depth", &self.metrics.queue_depth.get())
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Starts the collator and worker threads over `engine`, reporting
    /// into a fresh [`ServeMetrics`], with no fault plan and the default
    /// [`StreamConfig`].
    pub fn start(engine: Engine, policy: BatchPolicy) -> Self {
        Self::start_with_streams(
            engine,
            policy,
            Arc::new(ServeMetrics::new()),
            None,
            StreamConfig::default(),
        )
    }

    /// The full constructor: reports into shared `metrics` (the HTTP
    /// server passes the instance its `/metrics` endpoint renders),
    /// injects a deterministic [`FaultPlan`] at the worker supervision
    /// boundary (the test-only hook behind the chaos suite and
    /// `bench_serve --soak`; production paths pass `None` and never
    /// consult the plan), and runs the [`StreamRouter`] (the binary
    /// streaming protocol's sticky scheduler, reachable via
    /// [`streams`](Self::streams)) under `stream_cfg`.
    pub fn start_with_streams(
        engine: Engine,
        policy: BatchPolicy,
        metrics: Arc<ServeMetrics>,
        faults: Option<Arc<FaultPlan>>,
        stream_cfg: StreamConfig,
    ) -> Self {
        let max_batch = policy.max_batch.max(1);
        let max_wait = policy.max_wait;
        let n_workers = match policy.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let supervision = Arc::new(Supervision::new());
        let engine_slot = Arc::new(RwLock::new(Arc::new(SessionPool::new(engine))));
        let (queue_tx, queue_rx) = mpsc::sync_channel::<Job>(policy.queue_capacity.max(1));
        // Rendezvous dispatch: the collator hands a batch directly to a
        // free worker. While every worker is busy the collator blocks
        // here — meanwhile submissions pile up in the admission queue, so
        // the *next* batch is larger. That is the adaptive part of
        // dynamic batching: batch size tracks load with no tuning.
        let (dispatch_tx, dispatch_rx) = mpsc::sync_channel::<Vec<Job>>(0);
        let dispatch_rx = Arc::new(Mutex::new(dispatch_rx));

        let collator = {
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("snn-serve-collator".to_string())
                .spawn(move || collate(queue_rx, dispatch_tx, max_batch, max_wait, &metrics))
                .expect("spawn collator thread")
        };

        let workers = (0..n_workers)
            .map(|i| {
                let rx = Arc::clone(&dispatch_rx);
                let slot = Arc::clone(&engine_slot);
                let metrics = Arc::clone(&metrics);
                let supervision = Arc::clone(&supervision);
                let faults = faults.clone();
                std::thread::Builder::new()
                    .name(format!("snn-serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&rx, &slot, &metrics, &supervision, faults.as_deref())
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        let stream = StreamRouter::start(
            stream_cfg,
            Arc::clone(&engine_slot),
            Arc::clone(&metrics),
            Arc::clone(&supervision),
            faults,
        );

        Self {
            queue_tx: Mutex::new(Some(queue_tx)),
            engine_slot,
            collator: Mutex::new(Some(collator)),
            workers: Mutex::new(workers),
            metrics,
            supervision,
            stream,
            seq: AtomicU64::new(0),
        }
    }

    /// The sticky router for resident-state streaming sessions (the
    /// binary wire protocol's scheduler-side counterpart).
    pub fn streams(&self) -> &StreamRouter {
        &self.stream
    }

    /// The metrics instance the scheduler reports into.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The engine currently being served (a cheap clone of the shared
    /// handle; it stays valid across [`swap_engine`](Self::swap_engine),
    /// it just stops being the one new batches use).
    pub fn engine(&self) -> Engine {
        self.engine_slot
            .read()
            .expect("engine slot poisoned")
            .engine()
            .clone()
    }

    /// Time since a worker last caught a panic, if any ever did — the
    /// readiness endpoint reports `degraded` while this is recent.
    pub fn last_panic_age(&self) -> Option<Duration> {
        self.supervision.last_panic_age()
    }

    /// Atomically replaces the serving engine — the hot-reload primitive.
    ///
    /// In-flight batches finish on the old engine (their clone of the
    /// session pool keeps it alive); every batch dispatched after the
    /// swap runs on the new one. The old pool's warm buffers are freed as
    /// the last in-flight reference drops. No request is paused, dropped,
    /// or answered by a half-swapped engine.
    ///
    /// # Errors
    ///
    /// [`EngineSwapError::ShapeMismatch`] if the replacement's
    /// input/output widths differ from the current engine's; the old
    /// engine keeps serving.
    pub fn swap_engine(&self, engine: Engine) -> Result<(), EngineSwapError> {
        let current = self.engine();
        let cur_shape = (current.network().n_in(), current.network().n_out());
        let new_shape = (engine.network().n_in(), engine.network().n_out());
        if cur_shape != new_shape {
            return Err(EngineSwapError::ShapeMismatch {
                current: cur_shape,
                offered: new_shape,
            });
        }
        let fresh = Arc::new(SessionPool::new(engine));
        *self.engine_slot.write().expect("engine slot poisoned") = fresh;
        // Resident streams opened against the old engine are invalidated
        // by policy: each answers a typed SESSION_LOST at its next frame
        // instead of silently continuing on weights it never fed.
        self.stream.note_reload();
        Ok(())
    }

    /// Submits one sample for classification.
    ///
    /// Never blocks: admission either succeeds immediately or fails with
    /// the reason the caller should surface ([`SubmitError::QueueFull`]
    /// → backpressure, [`SubmitError::ShuttingDown`] → connection
    /// draining).
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(&self, raster: SpikeRaster) -> Result<Ticket, SubmitError> {
        self.submit_with_deadline(raster, None)
    }

    /// Like [`submit`](Self::submit), with a deadline: if it passes
    /// before the sample is executed, the work is shed (no inference
    /// time spent) and the ticket resolves to [`TicketError::Expired`].
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit_with_deadline(
        &self,
        raster: SpikeRaster,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        self.submit_traced(raster, deadline, 0, 0)
    }

    /// Like [`submit_with_deadline`](Self::submit_with_deadline), but
    /// tags the job with an `snn-obs` trace: the collator and worker
    /// stamp queue-wait / batch-wait / inference spans under
    /// `parent_span`, and the per-layer forward hooks inherit the trace
    /// through the worker's thread-local context. `trace = 0` (what the
    /// plain submit paths pass) disables all of it for this job.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit_traced(
        &self,
        raster: SpikeRaster,
        deadline: Option<Instant>,
        trace: u64,
        parent_span: u64,
    ) -> Result<Ticket, SubmitError> {
        let (result_tx, result_rx) = mpsc::channel();
        let traced = trace != 0 && snn_obs::enabled();
        let job = Job {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            raster,
            submitted_at: Instant::now(),
            deadline,
            result_tx,
            trace: if traced { trace } else { 0 },
            parent_span,
            submitted_ns: if traced { snn_obs::now_ns() } else { 0 },
            collated_ns: 0,
        };
        let guard = self.queue_tx.lock().expect("queue sender poisoned");
        let Some(tx) = guard.as_ref() else {
            self.metrics.rejected_shutting_down.inc();
            return Err(SubmitError::ShuttingDown);
        };
        // Increment the gauge *before* the send: the matching decrement
        // (collator recv) happens-after this send, so the pair can never
        // invert (a post-send increment would race the decrement and
        // drift the gauge upward forever).
        self.metrics.queue_depth.inc();
        match tx.try_send(job) {
            Ok(()) => {
                self.metrics.jobs_total.inc();
                Ok(Ticket { result_rx })
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.queue_depth.dec();
                self.metrics.rejected_queue_full.inc();
                Err(SubmitError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.queue_depth.dec();
                self.metrics.rejected_shutting_down.inc();
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Gracefully shuts down: closes admission, lets the collator drain
    /// every queued sample into final batches, waits for the workers to
    /// answer them, and joins all threads. Every ticket issued before
    /// the call still resolves.
    pub fn shutdown(&self) {
        // Dropping the queue sender is the shutdown signal: the collator
        // keeps receiving buffered jobs until the queue is empty, then
        // sees the disconnect and exits, dropping its dispatch sender,
        // which in turn terminates the workers once the last batch is
        // done.
        *self.queue_tx.lock().expect("queue sender poisoned") = None;
        if let Some(handle) = self.collator.lock().expect("collator handle").take() {
            let _ = handle.join();
        }
        for handle in self.workers.lock().expect("worker handles").drain(..) {
            let _ = handle.join();
        }
        // Stream workers drain their queues and exit; resident sessions
        // are dropped (clean shutdown does not depend on clients closing).
        self.stream.shutdown();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answers a job's ticket. A dropped receiver (client went away) is not
/// an error; the work is already done.
fn deliver(job: &Job, result: Result<usize, JobError>) {
    let _ = job.result_tx.send(result);
}

/// Stamps a just-collated job: closes its queue-wait span and records
/// the pickup time the worker's batch-wait span starts from. A no-op
/// for untraced jobs.
fn note_collated(job: &mut Job, metrics: &ServeMetrics) {
    if job.trace == 0 {
        return;
    }
    let now = snn_obs::now_ns();
    job.collated_ns = now;
    snn_obs::record_span_parts(
        job.trace,
        snn_obs::next_span_id(),
        job.parent_span,
        "queue_wait",
        job.submitted_ns,
        now,
        0,
    );
    metrics.observe_stage(
        Stage::QueueWait,
        now.saturating_sub(job.submitted_ns) / 1000,
    );
}

/// Collator loop: drain the admission queue into micro-batches under the
/// `max_batch` / `max_wait` policy, shedding expired jobs before
/// dispatch.
fn collate(
    queue_rx: Receiver<Job>,
    dispatch_tx: SyncSender<Vec<Job>>,
    max_batch: usize,
    max_wait: Duration,
    metrics: &ServeMetrics,
) {
    loop {
        // Block for the first sample of the next batch; a disconnect
        // with an empty queue is the shutdown signal.
        let Ok(mut first) = queue_rx.recv() else {
            return;
        };
        metrics.queue_depth.dec();
        note_collated(&mut first, metrics);
        let mut batch = Vec::with_capacity(max_batch);
        batch.push(first);
        let deadline = Instant::now() + max_wait;
        let mut disconnected = false;
        while batch.len() < max_batch {
            // try_recv first: under load the queue is never empty, so the
            // common case collects without touching the clock or parking.
            match queue_rx.try_recv() {
                Ok(mut job) => {
                    metrics.queue_depth.dec();
                    note_collated(&mut job, metrics);
                    batch.push(job);
                    continue;
                }
                Err(mpsc::TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
                Err(mpsc::TryRecvError::Empty) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match queue_rx.recv_timeout(deadline - now) {
                Ok(mut job) => {
                    metrics.queue_depth.dec();
                    note_collated(&mut job, metrics);
                    batch.push(job);
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // Shed expired work before it costs a worker anything: answer
        // those tickets 504 now and dispatch only live jobs.
        let now = Instant::now();
        batch.retain(|job| {
            if job.expired(now) {
                metrics.jobs_expired_total.inc();
                deliver(job, Err(JobError::Expired));
                return false;
            }
            true
        });
        if !batch.is_empty() {
            metrics.batches_total.inc();
            metrics.batch_size.observe(batch.len() as u64);
            if dispatch_tx.send(batch).is_err() {
                // Workers are gone (only happens if they all panicked
                // outside supervision); nothing left to do but stop.
                return;
            }
        }
        if disconnected {
            return;
        }
    }
}

/// Worker loop: take a batch, classify each sample on a pooled session,
/// deliver each result through its ticket. Panics are caught per job;
/// see the module docs for the supervision contract.
fn worker_loop(
    dispatch_rx: &Mutex<Receiver<Vec<Job>>>,
    engine_slot: &EngineSlot,
    metrics: &ServeMetrics,
    supervision: &Supervision,
    faults: Option<&FaultPlan>,
) {
    loop {
        // Standard shared-receiver pattern: the lock is held only while
        // waiting for a batch, so exactly one idle worker parks on the
        // channel and the rest park on the mutex.
        let batch = {
            let rx = dispatch_rx.lock().expect("dispatch receiver poisoned");
            match rx.recv() {
                Ok(batch) => batch,
                Err(_) => return, // collator gone and channel drained
            }
        };
        // Clone the pool handle and release the slot immediately: a hot
        // reload swapping the slot mid-batch never waits on this batch,
        // and this batch finishes coherently on the engine it started
        // with.
        let pool = Arc::clone(&engine_slot.read().expect("engine slot poisoned"));
        let mut session = pool.acquire();
        let batch_len = batch.len() as u64;
        for job in batch {
            // Deadlines are re-checked at execution: a job can expire
            // between collation and its turn within the batch.
            if job.expired(Instant::now()) {
                metrics.jobs_expired_total.inc();
                deliver(&job, Err(JobError::Expired));
                continue;
            }
            // For traced jobs: close the batch-wait span (collated →
            // execution starts, payload = batch occupancy) and open the
            // inference span whose ID the per-layer forward hooks will
            // parent under via the thread-local context.
            let exec_span = if job.trace != 0 {
                let start = snn_obs::now_ns();
                snn_obs::record_span_parts(
                    job.trace,
                    snn_obs::next_span_id(),
                    job.parent_span,
                    "batch_wait",
                    job.collated_ns,
                    start,
                    batch_len,
                );
                metrics.observe_stage(
                    Stage::BatchWait,
                    start.saturating_sub(job.collated_ns) / 1000,
                );
                Some((snn_obs::next_span_id(), start))
            } else {
                None
            };
            let mut attempt = 0u32;
            let result = loop {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = faults {
                        plan.apply(job.seq, attempt);
                    }
                    let _ctx = exec_span.map(|(span, _)| snn_obs::with_trace(job.trace, span));
                    session.classify(&job.raster)
                }));
                match outcome {
                    Ok(class) => break Ok(class),
                    Err(_) => {
                        // Supervision: count it, quarantine the possibly
                        // half-updated session buffers, respawn a fresh
                        // session, and retry the job in place.
                        metrics.worker_panics_total.inc();
                        supervision.note_panic();
                        session.poison();
                        metrics.sessions_quarantined_total.inc();
                        session = pool.acquire();
                        attempt += 1;
                        if attempt >= MAX_JOB_ATTEMPTS {
                            break Err(JobError::Failed);
                        }
                        metrics.jobs_retried_total.inc();
                    }
                }
            };
            if result.is_ok() {
                metrics
                    .job_latency_us
                    .observe(job.submitted_at.elapsed().as_micros() as u64);
                if let Some((span, start)) = exec_span {
                    let end = snn_obs::now_ns();
                    snn_obs::record_span_parts(
                        job.trace,
                        span,
                        job.parent_span,
                        "inference",
                        start,
                        end,
                        batch_len,
                    );
                    metrics.observe_stage(Stage::Inference, end.saturating_sub(start) / 1000);
                }
            }
            deliver(&job, result);
        }
    }
}
