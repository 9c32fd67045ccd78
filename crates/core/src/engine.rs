//! Batched inference: the serving surface of the workspace.
//!
//! The paper is an algorithm–hardware *codesign*: the same trained
//! network must run identically as an event-driven software model, as a
//! dense reference, and as a quantized RRAM crossbar. Only two of those
//! are different arithmetic; a crossbar deployment is a weight transform
//! (`snn_hardware::deploy` returns the crossbars' *effective* network),
//! so it runs as an ordinary engine over that network. The serving stack
//! is therefore closed:
//!
//! * [`Backend`] — how a rollout forms each step's synaptic drive:
//!   event-driven [`Sparse`](Backend::Sparse) kernels or the
//!   [`Dense`](Backend::Dense) reference.
//! * [`Engine`] — a shared [`Network`], a [`Backend`] and a thread
//!   policy (built via [`Engine::from_network`] or from a checkpoint via
//!   [`Engine::load`]). It fans batched work across workers with the
//!   same fixed-chunk discipline as the trainer, so results are
//!   **deterministic for any thread count**.
//! * [`Session`] — a single-worker handle owning the reusable forward,
//!   scratch and count/probability buffers; after the first call
//!   its [`infer`](Session::infer) / [`classify`](Session::classify) hot
//!   path performs **zero per-sample heap allocations**. A
//!   [`SessionPool`] hands out sessions whose buffers come back on drop.
//!
//! # Examples
//!
//! ```
//! use snn_core::engine::{Backend, Engine};
//! use snn_core::{Network, NeuronKind, SpikeRaster};
//! use snn_neuron::NeuronParams;
//! use snn_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let net = Network::mlp(&[4, 12, 3], NeuronKind::Adaptive,
//!                        NeuronParams::paper_defaults(), &mut rng);
//! let engine = Engine::from_network(net)
//!     .backend(Backend::Sparse)
//!     .threads(2)
//!     .build();
//! let inputs: Vec<SpikeRaster> = (0..5)
//!     .map(|i| SpikeRaster::from_events(10, 4, &[(i, i % 4), (i + 2, 0)]))
//!     .collect();
//! let preds = engine.classify_batch(&inputs);
//! assert_eq!(preds.len(), 5);
//!
//! // Latency path: one session, reused buffers.
//! let mut session = engine.session();
//! let (class, probs) = session.classify_with_probs(&inputs[0]);
//! assert_eq!(class, preds[0]);
//! assert_eq!(probs.len(), 3);
//! ```

use crate::checkpoint::{self, CheckpointError};
use crate::scratch::ScratchSpace;
use crate::{Forward, Network, SpikeRaster};
use snn_tensor::stats;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Samples per evaluation chunk: the unit of parallel work distribution
/// for [`Engine::classify_batch`] / [`Engine::evaluate`]. Fixed (never
/// derived from the thread count) so the partition — and therefore every
/// observable result — is identical no matter how many workers run, the
/// same discipline as the trainer's `GRAD_CHUNK`.
pub const BATCH_CHUNK: usize = 8;

/// How a rollout forms each step's synaptic drive `W·k[t]` — the only
/// difference between the event-driven path and the dense reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Event-driven: decay the previous drive and add the weight columns
    /// of this step's input spikes (the production path, default).
    #[default]
    Sparse,
    /// Dense reference: a full matrix–vector product over the input
    /// trace every step. It orders the floating-point reductions
    /// differently, so potentials may differ from the event-driven path
    /// by a few ULPs.
    Dense,
}

impl Backend {
    /// Short name for reports: `"sparse"` or `"dense"`.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sparse => "sparse",
            Backend::Dense => "dense",
        }
    }
}

/// Configures and builds an [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    net: Network,
    backend: Backend,
    threads: usize,
}

impl EngineBuilder {
    /// Selects the backend (default [`Backend::Sparse`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Worker threads for batched calls; `0` (default) means one per
    /// available core. Results are identical for any value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builds the engine, moving the network behind a shared pointer.
    pub fn build(self) -> Engine {
        Engine {
            net: Arc::new(self.net),
            backend: self.backend,
            threads: self.threads,
        }
    }
}

/// A network, a [`Backend`] and a thread policy: the long-lived serving
/// object.
///
/// Cheap to clone (the network is shared); create one per model and hand
/// out [`Session`]s to workers, or call the batched entry points
/// directly.
#[derive(Clone)]
pub struct Engine {
    net: Arc<Network>,
    backend: Backend,
    threads: usize,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &self.backend)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts a builder from an in-memory network.
    pub fn from_network(net: Network) -> EngineBuilder {
        EngineBuilder {
            net,
            backend: Backend::default(),
            threads: 0,
        }
    }

    /// Starts a builder from a JSON checkpoint (see
    /// [`crate::checkpoint`] module).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the file cannot be read or
    /// parsed.
    pub fn load(path: impl AsRef<Path>) -> Result<EngineBuilder, CheckpointError> {
        Ok(Self::from_network(checkpoint::load(path)?))
    }

    /// The network the engine evaluates (for a crossbar deployment, the
    /// effective post-quantization weights).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The arithmetic the engine runs.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The configured worker-thread count (`0` = one per core).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one input through the backend into caller-owned buffers (the
    /// inference rollout behind every [`Session`] call).
    ///
    /// An inference pass fills only each layer's `o` record; `pre`, `v`
    /// and the input rasters stay empty. BPTT needs `v`, `o` and the
    /// rasters: train from [`Network::forward_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `input.channels()` differs from the network input width.
    pub fn forward_into(&self, input: &SpikeRaster, fwd: &mut Forward, scratch: &mut ScratchSpace) {
        self.net.infer_rollout(self.backend, input, fwd, scratch);
    }

    /// Opens a session: a single-worker handle with private reusable
    /// buffers. Sessions are independent; open one per worker.
    pub fn session(&self) -> Session<'_> {
        Session::new(&self.net, self.backend)
    }

    /// Opens a stateful streaming session: membrane and trace state stay
    /// resident between event chunks, and the rollout is bitwise
    /// identical to replaying the concatenated raster through
    /// [`session`](Self::session). See [`crate::stream`].
    pub fn stream_session(&self) -> crate::stream::StreamSession {
        crate::stream::StreamSession::new(self)
    }

    /// Classifies a batch, fanning chunks of [`BATCH_CHUNK`] samples
    /// across the configured workers. Predictions come back in input
    /// order and are bitwise identical for any thread count.
    pub fn classify_batch(&self, inputs: &[SpikeRaster]) -> Vec<usize> {
        let mut out = vec![0usize; inputs.len()];
        let input_at = |i| &inputs[i];
        classify_indexed(&self.net, self.backend, &input_at, self.threads, &mut out);
        out
    }

    /// Classification accuracy over labelled data (parallel, chunked,
    /// deterministic — see [`classify_batch`](Self::classify_batch)).
    pub fn evaluate(&self, data: &[(SpikeRaster, usize)]) -> f32 {
        evaluate(&self.net, self.backend, data, self.threads)
    }
}

/// Warm buffer sets a [`SessionPool`] parks between checkouts.
type Idle = Arc<Mutex<Vec<Buffers>>>;

/// A session's reusable buffers, and the pool they return to on drop.
///
/// The return trip lives here rather than on [`Session`], which keeps
/// `Session` free of a destructor: a plain session's borrow of its
/// engine ends at its last use, as a borrow does.
struct Buffers {
    fwd: Forward,
    scratch: ScratchSpace,
    counts: Vec<f32>,
    probs: Vec<f32>,
    /// `Some` while checked out of a pool and not poisoned.
    home: Option<Idle>,
}

impl Buffers {
    fn new() -> Self {
        Self {
            fwd: Forward::empty(),
            scratch: ScratchSpace::new(),
            counts: Vec::new(),
            probs: Vec::new(),
            home: None,
        }
    }
}

impl Drop for Buffers {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            // A poisoned mutex just drops the buffers: the next acquire
            // would panic anyway, and Drop must not.
            if let Ok(mut idle) = home.lock() {
                idle.push(std::mem::replace(self, Buffers::new()));
            }
        }
    }
}

/// A single worker's inference handle: owns every reusable buffer the
/// hot path needs, so once warm its calls make **zero per-sample heap
/// allocations** (pinned by the `zero_alloc` integration test in
/// `snn-engine`).
///
/// One worker, one session: every hot-path method takes `&mut self`, so
/// a session can never serve two inputs concurrently — workers each open
/// their own. Sessions borrow their network, so they are cheap to create
/// per batch; long-lived servers that open sessions per request should
/// check warm buffers out of a [`SessionPool`] instead: a session from
/// [`SessionPool::acquire`] returns its buffers to the pool on drop,
/// unless [`poison`](Self::poison) was called.
pub struct Session<'e> {
    net: &'e Network,
    backend: Backend,
    buf: Buffers,
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("backend", &self.backend)
            .field("pooled", &self.buf.home.is_some())
            .finish_non_exhaustive()
    }
}

impl<'e> Session<'e> {
    /// A session over a borrowed network with fresh buffers.
    pub(crate) fn new(net: &'e Network, backend: Backend) -> Self {
        Self {
            net,
            backend,
            buf: Buffers::new(),
        }
    }

    /// Runs one input and returns the per-layer forward cache (valid
    /// until the next call on this session). An inference pass fills
    /// only each layer's `o` record; `pre` and `v` stay empty.
    pub fn infer(&mut self, input: &SpikeRaster) -> &Forward {
        self.net.infer_rollout(
            self.backend,
            input,
            &mut self.buf.fwd,
            &mut self.buf.scratch,
        );
        &self.buf.fwd
    }

    /// Runs one input and returns the output spike raster the rollout
    /// wrote (valid until the next call on this session).
    pub fn infer_raster(&mut self, input: &SpikeRaster) -> &SpikeRaster {
        self.infer(input);
        self.buf.scratch.spikes.last().expect("empty network")
    }

    /// Predicted class (argmax of output spike counts).
    pub fn classify(&mut self, input: &SpikeRaster) -> usize {
        self.infer(input);
        self.buf.fwd.spike_counts_into(&mut self.buf.counts);
        stats::argmax(&self.buf.counts).unwrap_or(0)
    }

    /// Predicted class plus softmax probabilities over the output spike
    /// counts (borrowed from the session's buffer).
    pub fn classify_with_probs(&mut self, input: &SpikeRaster) -> (usize, &[f32]) {
        let class = self.classify(input);
        stats::softmax_into(&self.buf.counts, &mut self.buf.probs);
        (class, &self.buf.probs)
    }

    /// The forward cache of the most recent call: each layer's `o`
    /// record, with `pre` and `v` empty (see [`infer`](Self::infer)).
    pub fn last_output(&self) -> &Forward {
        &self.buf.fwd
    }

    /// Marks the session's buffers as unrecoverable: a pooled session
    /// discards them on drop instead of returning them to the pool, which
    /// lazily allocates a fresh set on the next
    /// [`acquire`](SessionPool::acquire).
    ///
    /// Call this after catching a panic that unwound through an inference
    /// call on this session — the buffers may be in a half-updated state,
    /// and recycling them would leak the corruption into later requests.
    pub fn poison(&mut self) {
        self.buf.home = None;
    }
}

/// A shared, thread-safe pool of warm session buffers over one
/// [`Engine`] — the serving-layer primitive behind `snn-serve`'s worker
/// pool.
///
/// [`acquire`](Self::acquire) checks out a [`Session`]; dropping it
/// returns its buffers to the pool, so a server that serves requests from
/// arbitrary worker threads still performs zero per-sample allocations
/// once every checkout path is warm. The pool never blocks: if all
/// buffers are checked out, `acquire` creates a fresh set (the pool grows
/// to the peak concurrency and then stops allocating).
///
/// # Examples
///
/// ```
/// use snn_core::engine::{Engine, SessionPool};
/// use snn_core::{Network, NeuronKind, SpikeRaster};
/// use snn_neuron::NeuronParams;
/// use snn_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let net = Network::mlp(&[4, 8, 2], NeuronKind::Adaptive,
///                        NeuronParams::paper_defaults(), &mut rng);
/// let pool = SessionPool::new(Engine::from_network(net).build());
/// let input = SpikeRaster::from_events(10, 4, &[(1, 2), (4, 0)]);
/// let class = pool.acquire().classify(&input);
/// assert!(class < 2);
/// assert_eq!(pool.idle(), 1); // buffers came back on drop
/// ```
pub struct SessionPool {
    engine: Engine,
    idle: Idle,
}

impl fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionPool")
            .field("engine", &self.engine)
            .field("idle", &self.idle())
            .finish()
    }
}

impl SessionPool {
    /// Creates an empty pool over an engine.
    pub fn new(engine: Engine) -> Self {
        Self {
            engine,
            idle: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The engine the pool serves.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of idle buffer sets currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.idle.lock().expect("session pool poisoned").len()
    }

    /// Checks out a session, reusing warm buffers when any are idle.
    pub fn acquire(&self) -> Session<'_> {
        let idle = self.idle.lock().expect("session pool poisoned").pop();
        let mut buf = idle.unwrap_or_else(Buffers::new);
        buf.home = Some(Arc::clone(&self.idle));
        Session {
            net: &self.engine.net,
            backend: self.engine.backend,
            buf,
        }
    }
}

/// [`Engine::evaluate`] over a borrowed network: the trainer evaluates
/// through this, so the workspace has one evaluation code path and never
/// clones a network to evaluate it.
pub(crate) fn evaluate(
    net: &Network,
    backend: Backend,
    data: &[(SpikeRaster, usize)],
    threads: usize,
) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut preds = vec![0usize; data.len()];
    classify_indexed(net, backend, &|i| &data[i].0, threads, &mut preds);
    let correct = preds
        .iter()
        .zip(data)
        .filter(|(p, (_, label))| *p == label)
        .count();
    correct as f32 / data.len() as f32
}

/// Shared batched-classification core: fixed [`BATCH_CHUNK`] partition,
/// static round-robin chunk ownership (chunk `c` belongs to worker
/// `c % workers`), predictions written straight into disjoint slices of
/// `out` — no per-sample allocation, results independent of `threads`
/// (`0` means one worker per core).
fn classify_indexed<'d, F>(
    net: &Network,
    backend: Backend,
    input_at: &F,
    threads: usize,
    out: &mut [usize],
) where
    F: Fn(usize) -> &'d SpikeRaster + Sync,
{
    let n = out.len();
    let n_chunks = n.div_ceil(BATCH_CHUNK).max(1);
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(1, |cores| cores.get()),
        t => t,
    }
    .clamp(1, n_chunks);
    if workers == 1 || n < 2 * BATCH_CHUNK {
        let mut session = Session::new(net, backend);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = session.classify(input_at(i));
        }
        return;
    }
    let mut per_worker: Vec<Vec<(usize, &mut [usize])>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (c, slice) in out.chunks_mut(BATCH_CHUNK).enumerate() {
        per_worker[c % workers].push((c, slice));
    }
    std::thread::scope(|scope| {
        for chunks in per_worker {
            scope.spawn(move || {
                let mut session = Session::new(net, backend);
                for (c, slice) in chunks {
                    let base = c * BATCH_CHUNK;
                    for (j, slot) in slice.iter_mut().enumerate() {
                        *slot = session.classify(input_at(base + j));
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NeuronKind;
    use snn_neuron::NeuronParams;
    use snn_tensor::Rng;

    fn small_net(seed: u64) -> Network {
        let mut rng = Rng::seed_from(seed);
        Network::mlp(
            &[6, 14, 4],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        )
    }

    fn random_inputs(n: usize, seed: u64) -> Vec<SpikeRaster> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut r = SpikeRaster::zeros(12, 6);
                for t in 0..12 {
                    for c in 0..6 {
                        if rng.coin(0.2) {
                            r.set(t, c, true);
                        }
                    }
                }
                r
            })
            .collect()
    }

    #[test]
    fn builder_selects_backends() {
        let net = small_net(1);
        let sparse = Engine::from_network(net.clone()).build();
        assert_eq!(sparse.backend().label(), "sparse");
        let dense = Engine::from_network(net).backend(Backend::Dense).build();
        assert_eq!(dense.backend().label(), "dense");
        assert_eq!(format!("{:?}", Backend::Dense), "Dense");
    }

    #[test]
    fn sparse_and_dense_backends_agree_on_predictions() {
        let net = small_net(2);
        let inputs = random_inputs(20, 3);
        let sparse = Engine::from_network(net.clone()).build();
        let dense = Engine::from_network(net).backend(Backend::Dense).build();
        assert_eq!(
            sparse.classify_batch(&inputs),
            dense.classify_batch(&inputs)
        );
    }

    #[test]
    fn classify_batch_is_identical_for_any_thread_count() {
        let net = small_net(4);
        let inputs = random_inputs(37, 5);
        let reference = Engine::from_network(net.clone())
            .threads(1)
            .build()
            .classify_batch(&inputs);
        for threads in [2, 3, 4, 16] {
            let engine = Engine::from_network(net.clone()).threads(threads).build();
            assert_eq!(
                engine.classify_batch(&inputs),
                reference,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn session_matches_batched_results_and_network_classify() {
        let net = small_net(6);
        let inputs = random_inputs(10, 7);
        let engine = Engine::from_network(net.clone()).build();
        let batched = engine.classify_batch(&inputs);
        let mut session = engine.session();
        let mut borrowed = Session::new(&net, Backend::Sparse);
        for (input, &expected) in inputs.iter().zip(&batched) {
            assert_eq!(session.classify(input), expected);
            assert_eq!(borrowed.classify(input), expected);
        }
        let (class, probs) = session.classify_with_probs(&inputs[0]);
        assert_eq!(class, batched[0]);
        assert_eq!(probs.len(), 4);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn session_infer_raster_reuses_buffer() {
        let net = small_net(8);
        let inputs = random_inputs(3, 9);
        let engine = Engine::from_network(net.clone()).build();
        let mut session = engine.session();
        let expected = net.forward(&inputs[0]).output_raster();
        assert_eq!(session.infer_raster(&inputs[0]), &expected);
        // Second call with a different input must overwrite, not append.
        let expected2 = net.forward(&inputs[1]).output_raster();
        assert_eq!(session.infer_raster(&inputs[1]), &expected2);
    }

    #[test]
    fn evaluate_scores_known_labels() {
        let net = small_net(10);
        let inputs = random_inputs(24, 11);
        let engine = Engine::from_network(net.clone()).threads(3).build();
        let preds = engine.classify_batch(&inputs);
        let data: Vec<(SpikeRaster, usize)> =
            inputs.iter().cloned().zip(preds.iter().cloned()).collect();
        assert_eq!(engine.evaluate(&data), 1.0);
        let wrong: Vec<(SpikeRaster, usize)> =
            data.iter().map(|(r, l)| (r.clone(), (l + 1) % 4)).collect();
        assert_eq!(engine.evaluate(&wrong), 0.0);
        assert_eq!(engine.evaluate(&[]), 0.0);
    }

    #[test]
    fn engine_load_roundtrips_checkpoint() {
        let net = small_net(12);
        let path = std::env::temp_dir().join("neurosnn_engine_load_test.json");
        checkpoint::save(&net, &path).unwrap();
        let engine = Engine::load(&path)
            .unwrap()
            .backend(Backend::Sparse)
            .build();
        let _ = std::fs::remove_file(&path);
        let inputs = random_inputs(6, 13);
        let direct = Engine::from_network(net).build();
        assert_eq!(
            engine.classify_batch(&inputs),
            direct.classify_batch(&inputs)
        );
    }

    #[test]
    fn plain_session_borrow_ends_at_last_use() {
        // Compiles only while a session's drop never reads its borrow:
        // callers may move the engine's owner before the session leaves
        // scope.
        let engine = Engine::from_network(small_net(23)).build();
        let mut session = engine.session();
        let class = session.classify(&random_inputs(1, 24)[0]);
        drop(engine);
        assert!(class < 4);
    }

    #[test]
    fn engine_and_pool_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<SessionPool>();
        assert_send_sync::<Session<'_>>();
    }

    #[test]
    fn pooled_sessions_match_plain_sessions_and_recycle_buffers() {
        let net = small_net(16);
        let inputs = random_inputs(6, 17);
        let engine = Engine::from_network(net).build();
        let expected = engine.classify_batch(&inputs);
        let pool = SessionPool::new(engine);
        assert_eq!(pool.idle(), 0);
        {
            let mut a = pool.acquire();
            let mut b = pool.acquire();
            for (input, &want) in inputs.iter().zip(&expected) {
                assert_eq!(a.classify(input), want);
                assert_eq!(b.classify(input), want);
            }
            let (class, probs) = a.classify_with_probs(&inputs[0]);
            assert_eq!(class, expected[0]);
            assert_eq!(probs.len(), 4);
        }
        // Both buffer sets returned; the next checkout reuses one.
        assert_eq!(pool.idle(), 2);
        let mut warm = pool.acquire();
        assert_eq!(pool.idle(), 1);
        assert_eq!(warm.classify(&inputs[0]), expected[0]);
        assert_eq!(pool.engine().backend().label(), "sparse");
    }

    #[test]
    fn pool_serves_concurrent_workers() {
        let net = small_net(18);
        let inputs = random_inputs(16, 19);
        let engine = Engine::from_network(net).build();
        let expected = engine.classify_batch(&inputs);
        let pool = SessionPool::new(engine);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let (pool, inputs, expected) = (&pool, &inputs, &expected);
                scope.spawn(move || {
                    let mut session = pool.acquire();
                    for (input, &want) in inputs.iter().zip(expected) {
                        assert_eq!(session.classify(input), want, "worker {worker}");
                    }
                });
            }
        });
        assert!(pool.idle() >= 1 && pool.idle() <= 4);
    }

    #[test]
    fn poisoned_session_buffers_are_quarantined_not_recycled() {
        let net = small_net(21);
        let inputs = random_inputs(2, 22);
        let engine = Engine::from_network(net).build();
        let expected = engine.classify_batch(&inputs);
        let pool = SessionPool::new(engine);
        {
            let mut session = pool.acquire();
            session.classify(&inputs[0]);
            session.poison();
        }
        // The poisoned buffers were discarded, not parked.
        assert_eq!(pool.idle(), 0);
        // The pool respawns a fresh set and keeps serving correctly.
        let mut fresh = pool.acquire();
        assert_eq!(fresh.classify(&inputs[1]), expected[1]);
        drop(fresh);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn borrowed_network_is_a_sparse_backend() {
        let net = small_net(14);
        let inputs = random_inputs(9, 15);
        let mut via_trait = vec![0; inputs.len()];
        classify_indexed(&net, Backend::Sparse, &|i| &inputs[i], 2, &mut via_trait);
        let via_engine = Engine::from_network(net).build().classify_batch(&inputs);
        assert_eq!(via_trait, via_engine);
    }
}
