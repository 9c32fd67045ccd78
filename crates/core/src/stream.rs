//! Stateful streaming inference: resident membrane state between event
//! chunks.
//!
//! The engine's forward pass is already incremental (`g[t] = α·g[t−1] +
//! Σ active columns`, eq. 7), so nothing forces a caller to ship a full
//! raster and replay all `T` timesteps at once. A [`StreamSession`]
//! keeps each layer's carried state (synaptic drive `g`, and the reset
//! trace `h` the next step reads, last step's spikes included, or the
//! membrane potential `v`) resident between calls, accepts events as
//! `(dt, channel)` deltas, and commits timesteps on demand — the
//! neuromorphic-native serving mode behind the `snn-serve` binary wire
//! protocol.
//!
//! The contract is strict: a chunked rollout is **bitwise identical** to
//! a single-shot [`Session::classify`](crate::engine::Session::classify)
//! of the concatenated raster, for every backend. Each `advance` is the
//! batch rollout itself — the same per-layer tile pass, minus the
//! records, resumed from the carried state — and the readout
//! accumulates spike counts in the same time-ascending order as
//! `Forward::spike_counts_into`.
//!
//! # Examples
//!
//! ```
//! use snn_core::engine::Engine;
//! use snn_core::{Network, NeuronKind, SpikeRaster};
//! use snn_neuron::NeuronParams;
//! use snn_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(7);
//! let net = Network::mlp(&[4, 8, 3], NeuronKind::Adaptive,
//!                        NeuronParams::paper_defaults(), &mut rng);
//! let engine = Engine::from_network(net).build();
//! let raster = SpikeRaster::from_events(10, 4, &[(0, 1), (3, 2), (7, 0)]);
//!
//! // Stream the raster in two chunks of five steps each.
//! let mut stream = engine.stream_session();
//! stream.feed_events(&raster.delta_events()).unwrap();
//! stream.advance(5);
//! stream.advance(5);
//!
//! let mut session = engine.session();
//! assert_eq!(stream.readout(), session.classify(&raster));
//! ```

use crate::engine::Engine;
use crate::scratch::ScratchSpace;
use crate::SpikeRaster;
use snn_tensor::stats;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Default cap on how far ahead of the committed frontier events may be
/// buffered (in timesteps). Bounds per-session memory no matter what a
/// client sends; see [`StreamSession::with_max_pending`].
pub const DEFAULT_MAX_PENDING: usize = 4096;

/// Steps per layer-by-layer pass of [`StreamSession::advance`]: bounds the
/// staged per-step event lists (and so a resident session's memory) for
/// any advance length, while each layer's rollout setup is still paid
/// once per many steps.
const ADVANCE_CHUNK: usize = 256;

/// A rejected event feed. Every variant is a *caller* error: the session
/// state is untouched beyond the events already applied, and the stream
/// remains usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The event's channel is outside the network input width.
    ChannelOutOfRange {
        /// Offending channel.
        channel: usize,
        /// Network input width.
        n_in: usize,
    },
    /// The event targets a timestep that has already been committed;
    /// resident state cannot be rewound.
    EventBeforeFrontier {
        /// Absolute timestep of the event.
        t: usize,
        /// Number of committed steps (the frontier).
        committed: usize,
    },
    /// The event lies further past the frontier than the session's
    /// pending-step horizon allows.
    HorizonExceeded {
        /// Absolute timestep of the event.
        t: usize,
        /// Number of committed steps (the frontier).
        committed: usize,
        /// Maximum pending steps past the frontier.
        horizon: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StreamError::ChannelOutOfRange { channel, n_in } => {
                write!(f, "channel {channel} outside input width {n_in}")
            }
            StreamError::EventBeforeFrontier { t, committed } => {
                write!(f, "event at step {t} behind committed frontier {committed}")
            }
            StreamError::HorizonExceeded {
                t,
                committed,
                horizon,
            } => write!(
                f,
                "event at step {t} exceeds horizon {horizon} past frontier {committed}"
            ),
        }
    }
}

impl Error for StreamError {}

/// A stateful streaming inference session.
///
/// Opened with [`Engine::stream_session`]; owns a cheap clone of the
/// engine (the backend is shared) plus per-layer carried state, so it is
/// `'static` and can live in a worker's resident-session map. All
/// buffers are reused — the feed/advance hot path performs no allocation
/// once the pending buffer has grown to the stream's working size.
///
/// Lifecycle: [`feed_events`](Self::feed_events) buffers events at or
/// past the committed frontier, [`advance`](Self::advance) commits
/// timesteps through the network (consuming buffered events),
/// [`readout`](Self::readout) classifies from the accumulated output
/// spike counts, and [`reset`](Self::reset) returns the session to the
/// freshly-opened state without reallocating.
#[derive(Debug)]
pub struct StreamSession {
    engine: Engine,
    n_in: usize,
    /// The carried state: each layer's `LayerScratch` (traces and drive)
    /// persists across calls.
    scratch: ScratchSpace,
    /// One chunk of an [`advance`](Self::advance), staged as a raster.
    input: SpikeRaster,
    /// Output spike counts accumulated over all committed steps, in the
    /// same order as `Forward::spike_counts_into`.
    counts: Vec<f32>,
    committed: usize,
    /// Delta-decode base: absolute timestep of the last fed event, or
    /// the frontier if that is later.
    cursor: usize,
    /// Buffered `(step, channel)` events in feed order, possibly
    /// duplicated. One flat queue: its capacity, and so whether a warm
    /// session allocates, depends only on how many events are pending.
    pending: VecDeque<(usize, usize)>,
    /// Whether `pending` is also in `(step, channel)` order, as the
    /// delta feed of a time-ordered raster keeps it.
    sorted: bool,
    max_pending: usize,
}

impl StreamSession {
    /// Opens a streaming session on the engine's backend. Prefer
    /// [`Engine::stream_session`].
    pub fn new(engine: &Engine) -> Self {
        let engine = engine.clone();
        let net = engine.network();
        let mut scratch = ScratchSpace::new();
        scratch.ensure_forward(net);
        Self {
            n_in: net.n_in(),
            scratch,
            input: SpikeRaster::default(),
            counts: vec![0.0; net.n_out()],
            committed: 0,
            cursor: 0,
            pending: VecDeque::new(),
            sorted: true,
            max_pending: DEFAULT_MAX_PENDING,
            engine,
        }
    }

    /// Sets the pending-step horizon (events may be buffered at most
    /// this many steps past the committed frontier). Values below 1 are
    /// clamped to 1.
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self
    }

    /// Network input width.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Network output width (number of classes).
    pub fn n_out(&self) -> usize {
        self.counts.len()
    }

    /// Number of committed timesteps since open or [`reset`](Self::reset).
    pub fn steps(&self) -> usize {
        self.committed
    }

    /// Number of buffered (not yet committed) events.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// The pending-step horizon (see [`with_max_pending`](Self::with_max_pending)).
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Accumulated per-class output spike counts.
    pub fn counts(&self) -> &[f32] {
        &self.counts
    }

    /// Feeds `(dt, channel)` event deltas (the
    /// [`SpikeRaster::delta_events`](crate::SpikeRaster::delta_events)
    /// encoding). `dt` is relative to the previous event in the stream;
    /// after [`advance`](Self::advance) the base moves up to the new
    /// frontier, so `dt = 0` always means "the first uncommitted step or
    /// later".
    ///
    /// # Errors
    ///
    /// Returns the first [`StreamError`] encountered; events before the
    /// failing one are already applied. A timestep overflow is reported
    /// as [`StreamError::HorizonExceeded`].
    pub fn feed_events(&mut self, deltas: &[(usize, usize)]) -> Result<(), StreamError> {
        for &(dt, channel) in deltas {
            let t = self
                .cursor
                .checked_add(dt)
                .ok_or(StreamError::HorizonExceeded {
                    t: usize::MAX,
                    committed: self.committed,
                    horizon: self.max_pending,
                })?;
            self.feed_at(t, channel)?;
        }
        Ok(())
    }

    /// Buffers one event at absolute timestep `t` (0-based from stream
    /// open). Unlike the delta form this can name steps out of order,
    /// as long as they are at or past the committed frontier.
    ///
    /// # Errors
    ///
    /// Rejects channels outside the input width, steps behind the
    /// frontier, and steps beyond the pending horizon.
    pub fn feed_at(&mut self, t: usize, channel: usize) -> Result<(), StreamError> {
        if channel >= self.n_in {
            return Err(StreamError::ChannelOutOfRange {
                channel,
                n_in: self.n_in,
            });
        }
        if t < self.committed {
            return Err(StreamError::EventBeforeFrontier {
                t,
                committed: self.committed,
            });
        }
        if t - self.committed >= self.max_pending {
            return Err(StreamError::HorizonExceeded {
                t,
                committed: self.committed,
                horizon: self.max_pending,
            });
        }
        let event = (t, channel);
        self.sorted &= self.pending.back().is_none_or(|&last| last <= event);
        self.pending.push_back(event);
        self.cursor = self.cursor.max(t);
        Ok(())
    }

    /// Commits `steps` timesteps through the network, consuming buffered
    /// events (steps with no buffered events are silent). Duplicate
    /// events at the same `(t, channel)` collapse, exactly as raster
    /// cells are 0/1.
    pub fn advance(&mut self, steps: usize) {
        let mut left = steps;
        while left > 0 {
            let chunk = left.min(ADVANCE_CHUNK);
            self.advance_chunk(chunk);
            left -= chunk;
        }
        // Delta base never trails the frontier: after a TICK, dt = 0
        // addresses the first uncommitted step.
        self.cursor = self.cursor.max(self.committed);
    }

    fn advance_chunk(&mut self, steps: usize) {
        if !self.sorted {
            self.pending.make_contiguous().sort_unstable();
            self.sorted = true;
        }
        let base = self.committed;
        let due = self.pending.partition_point(|&(t, _)| t < base + steps);
        let chunk = self.pending.range(..due).map(|&(t, c)| (t - base, c));
        self.input.refill(steps, self.n_in, chunk);
        self.pending.drain(..due);
        let net = self.engine.network();
        net.run_layers(self.engine.backend(), &self.input, &mut self.scratch, None);
        let fired = self.scratch.spikes.last().expect("empty network");
        for t in 0..steps {
            for &c in fired.step(t) {
                self.counts[c] += 1.0;
            }
        }
        self.committed += steps;
    }

    /// Classifies from the accumulated output spike counts — identical
    /// to `Session::classify` on the concatenated raster (argmax of
    /// per-class counts, ties to the lowest class, class 0 when no
    /// output has spiked).
    pub fn readout(&self) -> usize {
        stats::argmax(&self.counts).unwrap_or(0)
    }

    /// Returns the session to the freshly-opened state — state zeroed,
    /// counters cleared, buffered events dropped — without reallocating.
    pub fn reset(&mut self) {
        self.scratch.ensure_forward(self.engine.network());
        self.counts.fill(0.0);
        self.committed = 0;
        self.cursor = 0;
        self.pending.clear();
        self.sorted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Backend;
    use crate::{Network, NeuronKind, SpikeRaster};
    use snn_neuron::NeuronParams;
    use snn_tensor::Rng;

    fn raster(seed: usize) -> SpikeRaster {
        let mut r = SpikeRaster::zeros(12, 6);
        for t in 0..12 {
            for c in 0..6 {
                if (t * 7 + c * 13 + seed * 31).is_multiple_of(5) {
                    r.set(t, c, true);
                }
            }
        }
        r
    }

    fn net(kind: NeuronKind) -> Network {
        let mut rng = Rng::seed_from(3);
        Network::mlp(
            &[6, 12, 4],
            kind,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        )
    }

    fn engines() -> Vec<Engine> {
        let mut out = Vec::new();
        for kind in [NeuronKind::Adaptive, NeuronKind::HardReset] {
            out.push(Engine::from_network(net(kind)).build());
            out.push(
                Engine::from_network(net(kind))
                    .backend(Backend::Dense)
                    .build(),
            );
        }
        out
    }

    #[test]
    fn single_advance_matches_session_classify() {
        for engine in engines() {
            let mut session = engine.session();
            let mut stream = engine.stream_session();
            for seed in 0..8 {
                let r = raster(seed);
                stream.feed_events(&r.delta_events()).unwrap();
                stream.advance(r.steps());
                let got = stream.readout();
                let want = session.classify(&r);
                assert_eq!(got, want, "seed {seed} on {}", engine.backend().label());
                stream.reset();
            }
        }
    }

    #[test]
    fn chunked_advance_is_bitwise_identical() {
        for engine in engines() {
            let mut session = engine.session();
            let r = raster(1);
            let (class, probs) = session.classify_with_probs(&r);
            for chunk in [1usize, 2, 3, 5, 12] {
                let mut stream = engine.stream_session();
                stream.feed_events(&r.delta_events()).unwrap();
                let mut done = 0;
                while done < r.steps() {
                    let n = chunk.min(r.steps() - done);
                    stream.advance(n);
                    done += n;
                }
                assert_eq!(stream.readout(), class);
                // Counts must be bitwise equal, not merely argmax-equal.
                let total: f32 = stream.counts().iter().sum();
                assert!(total >= 0.0);
                let mut counts = vec![0.0f32; stream.n_out()];
                let mut fwd = crate::Forward::default();
                let mut scratch = crate::ScratchSpace::default();
                engine.forward_into(&r, &mut fwd, &mut scratch);
                fwd.spike_counts_into(&mut counts);
                assert_eq!(
                    stream.counts(),
                    &counts[..],
                    "chunk {chunk} on {}",
                    engine.backend().label()
                );
            }
            let _ = probs;
        }
    }

    #[test]
    fn silent_steps_and_empty_feeds_are_fine() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session();
        stream.feed_events(&[]).unwrap();
        stream.advance(4);
        assert_eq!(stream.steps(), 4);
        assert_eq!(stream.readout(), 0);
    }

    #[test]
    fn delta_base_moves_up_after_advance() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session();
        stream.advance(5);
        // dt = 0 now addresses step 5, the first uncommitted step.
        stream.feed_events(&[(0, 2)]).unwrap();
        stream.advance(1);
        assert_eq!(stream.steps(), 6);
        let mut session = engine.session();
        let r = SpikeRaster::from_events(6, 6, &[(5, 2)]);
        assert_eq!(stream.readout(), session.classify(&r));
    }

    #[test]
    fn feed_errors_are_typed() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session().with_max_pending(8);
        assert_eq!(
            stream.feed_at(0, 99),
            Err(StreamError::ChannelOutOfRange {
                channel: 99,
                n_in: 6
            })
        );
        stream.advance(3);
        assert_eq!(
            stream.feed_at(1, 0),
            Err(StreamError::EventBeforeFrontier { t: 1, committed: 3 })
        );
        assert_eq!(
            stream.feed_at(3 + 8, 0),
            Err(StreamError::HorizonExceeded {
                t: 11,
                committed: 3,
                horizon: 8
            })
        );
        // The stream stays usable after a rejected feed.
        stream.feed_at(3, 1).unwrap();
        stream.advance(1);
        assert_eq!(stream.steps(), 4);
    }

    #[test]
    fn reset_reuses_buffers_and_matches_fresh_session() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session();
        let a = raster(2);
        stream.feed_events(&a.delta_events()).unwrap();
        stream.advance(a.steps());
        stream.reset();
        assert_eq!(stream.steps(), 0);
        assert_eq!(stream.pending_events(), 0);
        let b = raster(3);
        stream.feed_events(&b.delta_events()).unwrap();
        stream.advance(b.steps());
        let mut session = engine.session();
        assert_eq!(stream.readout(), session.classify(&b));
    }

    #[test]
    fn duplicate_events_collapse() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session();
        stream.feed_events(&[(0, 2), (0, 2), (0, 2)]).unwrap();
        stream.advance(1);
        let mut session = engine.session();
        let r = SpikeRaster::from_events(1, 6, &[(0, 2)]);
        assert!(stream.counts().iter().sum::<f32>() >= 0.0);
        assert_eq!(stream.readout(), session.classify(&r));
    }

    #[test]
    fn out_of_order_feeds_match_single_shot_counts() {
        for engine in engines() {
            let r = raster(4);
            let mut stream = engine.stream_session();
            // Reversed and doubled: steps and channels both arrive out of
            // order, and every event twice.
            for &(t, c) in r.events().iter().rev() {
                stream.feed_at(t, c).unwrap();
                stream.feed_at(t, c).unwrap();
            }
            stream.advance(5);
            stream.advance(r.steps() - 5);
            let mut fwd = crate::Forward::default();
            let mut scratch = crate::ScratchSpace::default();
            engine.forward_into(&r, &mut fwd, &mut scratch);
            let mut counts = Vec::new();
            fwd.spike_counts_into(&mut counts);
            assert_eq!(stream.counts(), &counts[..], "{}", engine.backend().label());
        }
    }
}
