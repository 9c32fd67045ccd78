//! Spike-train containers and kernel methods.
//!
//! A spike train is a sequence of time-shifted Dirac deltas; to compare
//! two of them the paper maps trains to continuous traces with the kernel
//! `f[t] = e^{−t/τm} − e^{−t/τs}` and measures the squared trace distance
//! (eqs. 15–16, after Park et al.). This module provides the
//! [`SpikeRaster`] event list used throughout the workspace plus those
//! kernel utilities.

use snn_json::{Json, JsonError, Kind, Reader};
use snn_tensor::lanes;
use std::fmt;

/// Binary spike tensor of `steps` timesteps × `channels` spike trains,
/// stored as events: per timestep, the strictly ascending ids of the
/// channels that spike (compressed rows).
///
/// `raster.step(t)` is the network input at time `t` in the form the
/// event-driven kernels consume, so a timestep costs work per event, not
/// per channel. Every constructor builds this canonical form, so two
/// rasters holding the same events compare equal however the events
/// were listed.
///
/// # Examples
///
/// ```
/// use snn_core::SpikeRaster;
///
/// let mut r = SpikeRaster::zeros(5, 3);
/// r.set(2, 1, true);
/// assert_eq!(r.spike_count(), 1);
/// assert_eq!(r.step(2), &[1]);
/// assert_eq!(r, SpikeRaster::from_events(5, 3, &[(2, 1), (2, 1)]));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct SpikeRaster {
    channels: usize,
    /// `offsets[t]..offsets[t + 1]` indexes `ids` for step `t`; there
    /// are `steps + 1` entries and the first is 0.
    offsets: Vec<usize>,
    /// Concatenated per-step channel ids.
    ids: Vec<usize>,
}

impl SpikeRaster {
    /// Creates an empty raster of `steps × channels`.
    pub fn zeros(steps: usize, channels: usize) -> Self {
        Self {
            channels,
            offsets: vec![0; steps + 1],
            ids: Vec::new(),
        }
    }

    /// Builds a raster from `(t, channel)` event pairs in any order;
    /// repeated events collapse, and events outside the raster are
    /// ignored (event-camera crops routinely produce a few).
    pub fn from_events(steps: usize, channels: usize, events: &[(usize, usize)]) -> Self {
        let mut r = Self::default();
        let in_range = |&(t, c): &(usize, usize)| t < steps && c < channels;
        r.refill(steps, channels, events.iter().copied().filter(in_range));
        r
    }

    /// Refills as a `steps × channels` raster from in-range `(t, c)`
    /// events in any order (read twice), reusing the buffers; repeated
    /// events collapse.
    pub(crate) fn refill<I>(&mut self, steps: usize, channels: usize, events: I)
    where
        I: Iterator<Item = (usize, usize)> + Clone,
    {
        // A counting sort by step, then each step's few ids sorted and
        // deduplicated in place: close to linear in the events, which
        // matters because the dataset generators build every sample here.
        self.channels = channels;
        let (offsets, ids) = (&mut self.offsets, &mut self.ids);
        offsets.clear();
        offsets.resize(steps + 1, 0);
        for (t, c) in events.clone() {
            debug_assert!(c < channels, "channel {c} out of range {channels}");
            offsets[t + 1] += 1;
        }
        for t in 0..steps {
            offsets[t + 1] += offsets[t];
        }
        ids.clear();
        ids.resize(offsets[steps], 0);
        // `offsets[t]` is step t's write cursor, so afterwards it holds
        // the step's end: shift the offsets back into place.
        for (t, c) in events {
            ids[offsets[t]] = c;
            offsets[t] += 1;
        }
        offsets.copy_within(..steps, 1);
        offsets[0] = 0;
        let mut kept = 0;
        for t in 0..steps {
            let (lo, hi) = (offsets[t], offsets[t + 1]);
            ids[lo..hi].sort_unstable();
            offsets[t] = kept;
            for i in lo..hi {
                if kept == offsets[t] || ids[kept - 1] != ids[i] {
                    ids[kept] = ids[i];
                    kept += 1;
                }
            }
        }
        offsets[steps] = kept;
        ids.truncate(kept);
    }

    /// Refills as a `steps × channels` raster from fire bits laid out
    /// tile-major, as `lanes::tile_rollout` writes them: bit `i` of
    /// `bits[k·steps + t]` is channel `k·TILE + i` at step `t`. Reuses the
    /// buffers.
    pub(crate) fn refill_from_fire_bits(&mut self, steps: usize, channels: usize, bits: &[u64]) {
        let tiles = channels.div_ceil(lanes::TILE);
        debug_assert_eq!(bits.len(), tiles * steps, "fire bits for {steps} steps");
        self.channels = channels;
        self.offsets.clear();
        self.offsets.push(0);
        self.ids.clear();
        for t in 0..steps {
            for k in 0..tiles {
                let mut b = bits[k * steps + t];
                while b != 0 {
                    self.ids.push(k * lanes::TILE + b.trailing_zeros() as usize);
                    b &= b - 1;
                }
            }
            self.offsets.push(self.ids.len());
        }
    }

    /// Per-step boundaries into [`ids`](Self::ids): step `t`'s events
    /// are `ids()[offsets()[t]..offsets()[t + 1]]`.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Concatenated per-step channel ids.
    pub(crate) fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Number of timesteps.
    pub fn steps(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of channels (spike trains).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The channels that spike at time `t`, strictly ascending.
    ///
    /// # Panics
    ///
    /// Panics if `t >= steps`.
    pub fn step(&self, t: usize) -> &[usize] {
        assert!(t < self.steps(), "step {t} out of range {}", self.steps());
        &self.ids[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Whether channel `c` spikes at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, t: usize, c: usize) -> bool {
        assert!(
            t < self.steps() && c < self.channels,
            "({t},{c}) out of range"
        );
        self.step(t).binary_search(&c).is_ok()
    }

    /// Sets or clears the spike at `(t, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, t: usize, c: usize, spike: bool) {
        assert!(
            t < self.steps() && c < self.channels,
            "({t},{c}) out of range"
        );
        let start = self.offsets[t];
        match (self.step(t).binary_search(&c), spike) {
            (Err(i), true) => {
                self.ids.insert(start + i, c);
                self.offsets[t + 1..].iter_mut().for_each(|o| *o += 1);
            }
            (Ok(i), false) => {
                self.ids.remove(start + i);
                self.offsets[t + 1..].iter_mut().for_each(|o| *o -= 1);
            }
            _ => {}
        }
    }

    /// Total number of spikes.
    pub fn spike_count(&self) -> usize {
        self.ids.len()
    }

    /// Per-channel spike counts (the rate-coding summary).
    pub fn channel_counts(&self) -> Vec<f32> {
        let mut counts = vec![0.0; self.channels];
        for &c in &self.ids {
            counts[c] += 1.0;
        }
        counts
    }

    /// Mean firing rate over all trains (spikes per channel per step).
    pub fn mean_rate(&self) -> f32 {
        let cells = self.steps() * self.channels;
        if cells == 0 {
            return 0.0;
        }
        self.spike_count() as f32 / cells as f32
    }

    /// Spike events as `(t, channel)` pairs in time order.
    pub fn events(&self) -> Vec<(usize, usize)> {
        (0..self.steps())
            .flat_map(|t| self.step(t).iter().map(move |&c| (t, c)))
            .collect()
    }

    /// One channel as a 0/1 time series.
    ///
    /// # Panics
    ///
    /// Panics if `c >= channels`.
    pub fn channel(&self, c: usize) -> Vec<f32> {
        assert!(
            c < self.channels,
            "channel {c} out of range {}",
            self.channels
        );
        (0..self.steps())
            .map(|t| if self.get(t, c) { 1.0 } else { 0.0 })
            .collect()
    }

    /// Serializes to the event-list wire format used by the network
    /// serving layer (`snn-serve`): `{"steps": T, "channels": C,
    /// "events": [[t, c], …]}`. Events are emitted in time order, so the
    /// output is deterministic and diff-friendly.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("steps", Json::from(self.steps())),
            ("channels", Json::from(self.channels)),
            (
                "events",
                Json::Arr(
                    self.events()
                        .into_iter()
                        .map(|(t, c)| Json::Arr(vec![Json::from(t), Json::from(c)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes the wire format written by [`to_json`](Self::to_json);
    /// events may come in any order, and repeats collapse.
    ///
    /// Unlike [`from_events`](Self::from_events) (which tolerates
    /// out-of-range event-camera crops), the wire format is strict: an
    /// event outside `steps × channels` is a protocol error, as are
    /// missing or non-integer fields — a serving endpoint must reject
    /// malformed payloads loudly rather than silently dropping spikes.
    /// [`WireRaster::read`] decodes the same format straight from a
    /// document's bytes, with the same checks and messages.
    ///
    /// The raster holds `steps + 1` offsets, so a caller decoding
    /// untrusted input bounds `steps` before calling this.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        WireRaster::from_tree(v).into_raster()
    }

    /// Encodes the raster as `(dt, channel)` event deltas — the payload
    /// of the binary streaming wire format (`snn-serve` `EVENTS`
    /// frames). `dt` is the timestep delta from the previous event (the
    /// first event's delta is from step 0), so a time-ordered event
    /// stream needs only small non-negative integers regardless of the
    /// raster length.
    pub fn delta_events(&self) -> Vec<(usize, usize)> {
        let mut prev = 0usize;
        self.events()
            .into_iter()
            .map(|(t, c)| {
                let dt = t - prev;
                prev = t;
                (dt, c)
            })
            .collect()
    }

    /// Rebuilds a raster from `(dt, channel)` deltas written by
    /// [`delta_events`](Self::delta_events); channels within a step may
    /// come in any order, and repeats collapse. Like
    /// [`from_json`](Self::from_json) this is the strict wire-format
    /// decoder: an event that lands outside `steps × channels` is a
    /// protocol error, not a droppable crop artefact.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first out-of-range
    /// event.
    pub fn from_delta_events(
        steps: usize,
        channels: usize,
        deltas: &[(usize, usize)],
    ) -> Result<Self, String> {
        let mut events = Vec::with_capacity(deltas.len());
        let mut t = 0usize;
        for (i, &(dt, c)) in deltas.iter().enumerate() {
            t = t
                .checked_add(dt)
                .ok_or_else(|| format!("event {i}: timestep overflow"))?;
            if t >= steps || c >= channels {
                return Err(format!(
                    "event {i} at ({t},{c}) outside {steps}x{channels} raster"
                ));
            }
            events.push((t, c));
        }
        Ok(Self::from_events(steps, channels, &events))
    }

    /// Renders a textual raster plot (`time →` on x, channels on y),
    /// used by the figure harnesses. Channels are downsampled to at most
    /// `max_rows` rows.
    pub fn render_ascii(&self, max_rows: usize) -> String {
        let rows = self.channels.min(max_rows.max(1));
        let group = self.channels.div_ceil(rows.max(1));
        let mut out = String::new();
        for r in (0..rows).rev() {
            let band = r * group..((r + 1) * group).min(self.channels);
            for t in 0..self.steps() {
                let any = self.step(t).iter().any(|c| band.contains(c));
                out.push(if any { '|' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

impl Clone for SpikeRaster {
    fn clone(&self) -> Self {
        Self {
            channels: self.channels,
            offsets: self.offsets.clone(),
            ids: self.ids.clone(),
        }
    }

    /// Copies `source` into this raster's buffers, allocating only when
    /// they are too small.
    fn clone_from(&mut self, source: &Self) {
        self.channels = source.channels;
        self.offsets.clone_from(&source.offsets);
        self.ids.clone_from(&source.ids);
    }
}

impl Default for SpikeRaster {
    /// The empty raster, [`zeros(0, 0)`](SpikeRaster::zeros).
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl fmt::Display for SpikeRaster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpikeRaster({} steps x {} channels, {} spikes)",
            self.steps(),
            self.channels,
            self.spike_count()
        )
    }
}

/// A wire-format raster as its document declares it, before any check:
/// the first `"steps"`, `"channels"` and `"events"` members of a
/// `{"steps": T, "channels": C, "events": [[t, c], …]}` object, in
/// whatever order they come. Later repeats of a member are ignored, and
/// a value that is not an object declares none of them.
///
/// [`read`](Self::read) takes it from a [`Reader`], so a server can
/// check the declared size before it allocates for it;
/// [`into_raster`](Self::into_raster) then validates and builds the
/// raster, exactly as [`SpikeRaster::from_json`] does from a tree.
///
/// # Examples
///
/// ```
/// use snn_core::{SpikeRaster, WireRaster};
/// use snn_json::Reader;
///
/// let mut reader = Reader::new(r#"{"events": [[2, 1]], "steps": 4, "channels": 3}"#);
/// let wire = WireRaster::read(&mut reader).unwrap();
/// reader.finish().unwrap();
/// assert_eq!((wire.steps(), wire.channels()), (Some(4), Some(3)));
/// assert_eq!(wire.into_raster().unwrap(), SpikeRaster::from_events(4, 3, &[(2, 1)]));
/// ```
#[derive(Debug, Default)]
pub struct WireRaster {
    steps: Option<usize>,
    channels: Option<usize>,
    /// The `"events"` array's leading `[t, c]` pairs, up to the first
    /// malformed event; `None` if the member is missing or no array.
    events: Option<Vec<(usize, usize)>>,
    /// What is wrong with event `events.len()`, if anything.
    malformed: Option<EventFault>,
}

/// Why an event is not a `[t, c]` pair of integers.
#[derive(Debug, Clone, Copy)]
enum EventFault {
    NotPair,
    Time,
    Channel,
}

impl WireRaster {
    /// The first `"steps"` member, if it is a non-negative integer.
    pub fn steps(&self) -> Option<usize> {
        self.steps
    }

    /// The first `"channels"` member, if it is a non-negative integer.
    pub fn channels(&self) -> Option<usize> {
        self.channels
    }

    /// Reads the value at the reader's cursor as a wire raster. Its
    /// events are stored as they come (no `steps`-sized allocation) and
    /// stop at the first malformed one; the rest of the value is still
    /// checked against the grammar.
    ///
    /// # Errors
    ///
    /// The reader's [`JsonError`] where the document breaks the grammar.
    pub fn read(reader: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut wire = Self::default();
        if reader.peek() != Some(Kind::Object) {
            reader.skip()?;
            return Ok(wire);
        }
        reader.begin_object()?;
        let mut seen = [false; 3];
        while let Some(key) = reader.next_key()? {
            let member = ["steps", "channels", "events"]
                .iter()
                .position(|&k| k == key);
            match member {
                Some(i) if !std::mem::replace(&mut seen[i], true) => match i {
                    0 => wire.steps = read_usize(reader)?,
                    1 => wire.channels = read_usize(reader)?,
                    _ => wire.read_events(reader)?,
                },
                _ => reader.skip()?,
            }
        }
        Ok(wire)
    }

    fn read_events(&mut self, reader: &mut Reader<'_>) -> Result<(), JsonError> {
        if reader.peek() != Some(Kind::Array) {
            return reader.skip();
        }
        reader.begin_array()?;
        let mut events = Vec::new();
        while reader.next_item()? {
            if self.malformed.is_some() {
                reader.skip()?;
                continue;
            }
            match read_event(reader)? {
                Ok(event) => events.push(event),
                Err(fault) => self.malformed = Some(fault),
            }
        }
        self.events = Some(events);
        Ok(())
    }

    /// Collects the members from a parsed tree, by the rules of
    /// [`read`](Self::read).
    fn from_tree(v: &Json) -> Self {
        let mut wire = Self {
            steps: v.get("steps").and_then(Json::as_usize),
            channels: v.get("channels").and_then(Json::as_usize),
            ..Self::default()
        };
        let Some(items) = v.get("events").and_then(Json::as_array) else {
            return wire;
        };
        let mut events = Vec::with_capacity(items.len());
        for item in items {
            match tree_event(item) {
                Ok(event) => events.push(event),
                Err(fault) => {
                    wire.malformed = Some(fault);
                    break;
                }
            }
        }
        wire.events = Some(events);
        wire
    }

    /// Validates the declared raster and builds it.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation: a missing or
    /// non-integer `steps` or `channels`, dimensions that overflow, a
    /// missing or non-array `events`, then the first event, by index,
    /// that is not a `[t, c]` pair of integers or lies outside the
    /// raster.
    pub fn into_raster(self) -> Result<SpikeRaster, String> {
        let steps = self.steps.ok_or("missing or non-integer \"steps\"")?;
        let channels = self.channels.ok_or("missing or non-integer \"channels\"")?;
        steps
            .checked_add(1)
            .and(steps.checked_mul(channels))
            .ok_or_else(|| format!("raster dimensions {steps}x{channels} overflow"))?;
        let events = self.events.ok_or("missing or non-array \"events\"")?;
        if let Some(i) = events
            .iter()
            .position(|&(t, c)| t >= steps || c >= channels)
        {
            let (t, c) = events[i];
            return Err(format!(
                "event {i} at ({t},{c}) outside {steps}x{channels} raster"
            ));
        }
        if let Some(fault) = self.malformed {
            let i = events.len();
            return Err(match fault {
                EventFault::NotPair => format!("event {i} is not a [t, c] pair"),
                EventFault::Time => format!("event {i}: non-integer time"),
                EventFault::Channel => format!("event {i}: non-integer channel"),
            });
        }
        let mut raster = SpikeRaster::default();
        raster.refill(steps, channels, events.iter().copied());
        Ok(raster)
    }
}

/// A number member as the tree path reads it (`Json::as_usize`), or
/// `None` for any other value, which is skipped.
fn read_usize(reader: &mut Reader<'_>) -> Result<Option<usize>, JsonError> {
    if reader.peek() == Some(Kind::Number) {
        Ok(Json::Num(reader.number()?).as_usize())
    } else {
        reader.skip()?;
        Ok(None)
    }
}

/// One `[t, c]` event; any other value is skipped whole.
fn read_event(reader: &mut Reader<'_>) -> Result<Result<(usize, usize), EventFault>, JsonError> {
    if reader.peek() != Some(Kind::Array) {
        reader.skip()?;
        return Ok(Err(EventFault::NotPair));
    }
    reader.begin_array()?;
    let (mut len, mut t, mut c) = (0, None, None);
    while reader.next_item()? {
        match len {
            0 => t = read_usize(reader)?,
            1 => c = read_usize(reader)?,
            _ => reader.skip()?,
        }
        len += 1;
    }
    Ok(event_from(len, t, c))
}

fn tree_event(item: &Json) -> Result<(usize, usize), EventFault> {
    match item.as_array() {
        Some(pair) => event_from(
            pair.len(),
            pair.first().and_then(Json::as_usize),
            pair.get(1).and_then(Json::as_usize),
        ),
        None => Err(EventFault::NotPair),
    }
}

/// The pair check comes first, then the time, then the channel.
fn event_from(
    len: usize,
    t: Option<usize>,
    c: Option<usize>,
) -> Result<(usize, usize), EventFault> {
    match (len, t, c) {
        (2, Some(t), Some(c)) => Ok((t, c)),
        (2, None, _) => Err(EventFault::Time),
        (2, _, None) => Err(EventFault::Channel),
        _ => Err(EventFault::NotPair),
    }
}

/// The double-exponential kernel `f[t] = e^{−t/τm} − e^{−t/τs}` of eq. 15.
///
/// With Table I values `τm = 4`, `τs = 1` this is a smooth bump that
/// rises on the fast time constant and decays on the slow one, giving a
/// differentiable notion of "a spike happened around here".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceKernel {
    /// Slow (membrane) time constant `τm`.
    pub tau_m: f32,
    /// Fast (synaptic) time constant `τs`.
    pub tau_s: f32,
}

impl TraceKernel {
    /// Paper Table I values `τm = 4`, `τs = 1`.
    pub fn paper_defaults() -> Self {
        Self {
            tau_m: 4.0,
            tau_s: 1.0,
        }
    }

    /// Kernel value at lag `t ≥ 0`.
    pub fn eval(&self, t: f32) -> f32 {
        if t < 0.0 {
            return 0.0;
        }
        (-t / self.tau_m).exp() - (-t / self.tau_s).exp()
    }

    /// Convolves a 0/1 spike train with the kernel, producing the
    /// continuous trace `f ∗ S`. Runs in O(T) using the two-exponential
    /// decomposition.
    pub fn trace(&self, train: &[f32]) -> Vec<f32> {
        let am = (-1.0 / self.tau_m).exp();
        let as_ = (-1.0 / self.tau_s).exp();
        let mut m = 0.0f32;
        let mut s = 0.0f32;
        let mut out = Vec::with_capacity(train.len());
        for &x in train {
            // f[0] = 0, so the spike at time t contributes from t onward
            // with value a^{lag} - b^{lag}; implement as two leaky
            // integrators fed *after* scaling.
            m = am * m + x;
            s = as_ * s + x;
            out.push(m - s);
        }
        out
    }
}

impl Default for TraceKernel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Van Rossum-style distance between two spike trains (paper eq. 15):
/// `D = 1/(2T) Σ_t (f∗Si − f∗Sj)²`.
///
/// # Panics
///
/// Panics if the trains have different lengths.
pub fn van_rossum_distance(kernel: TraceKernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "spike trains must have equal length");
    if a.is_empty() {
        return 0.0;
    }
    let ta = kernel.trace(a);
    let tb = kernel.trace(b);
    let sum: f32 = ta.iter().zip(&tb).map(|(x, y)| (x - y).powi(2)).sum();
    sum / (2.0 * a.len() as f32)
}

/// Total van Rossum distance between two rasters, summed over channels
/// (paper eq. 16).
///
/// # Panics
///
/// Panics if the rasters have different shapes.
pub fn raster_distance(kernel: TraceKernel, a: &SpikeRaster, b: &SpikeRaster) -> f32 {
    assert_eq!(a.steps(), b.steps(), "rasters must have equal steps");
    assert_eq!(
        a.channels(),
        b.channels(),
        "rasters must have equal channels"
    );
    (0..a.channels())
        .map(|c| van_rossum_distance(kernel, &a.channel(c), &b.channel(c)))
        .sum()
}

/// Summary statistics of a single spike train.
///
/// Inter-spike-interval (ISI) statistics are the standard way to
/// characterise firing regularity: a coefficient of variation (CV) near
/// 0 means clock-like firing, near 1 means Poisson-like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Number of spikes.
    pub count: usize,
    /// Mean firing rate (spikes per step).
    pub rate: f32,
    /// Mean inter-spike interval (0 when fewer than two spikes).
    pub mean_isi: f32,
    /// Coefficient of variation of the ISI (0 when fewer than three
    /// spikes).
    pub cv_isi: f32,
    /// Time of the first spike, if any.
    pub first_spike: Option<usize>,
}

/// Computes [`TrainStats`] for one 0/1 spike train.
pub fn train_stats(train: &[f32]) -> TrainStats {
    let times: Vec<usize> = train
        .iter()
        .enumerate()
        .filter(|(_, &x)| x != 0.0)
        .map(|(t, _)| t)
        .collect();
    let count = times.len();
    let rate = if train.is_empty() {
        0.0
    } else {
        count as f32 / train.len() as f32
    };
    let isis: Vec<f32> = times.windows(2).map(|w| (w[1] - w[0]) as f32).collect();
    let mean_isi = if isis.is_empty() {
        0.0
    } else {
        isis.iter().sum::<f32>() / isis.len() as f32
    };
    let cv_isi = if isis.len() < 2 || mean_isi == 0.0 {
        0.0
    } else {
        let var = isis.iter().map(|x| (x - mean_isi).powi(2)).sum::<f32>() / isis.len() as f32;
        var.sqrt() / mean_isi
    };
    TrainStats {
        count,
        rate,
        mean_isi,
        cv_isi,
        first_spike: times.first().copied(),
    }
}

/// Pairwise spike-time synchrony between two rasters: the fraction of
/// spikes in `a` that have a spike in the same channel of `b` within
/// `±window` steps. 1.0 means every spike is matched.
///
/// # Panics
///
/// Panics if the rasters have different shapes.
pub fn synchrony(a: &SpikeRaster, b: &SpikeRaster, window: usize) -> f32 {
    assert_eq!(a.steps(), b.steps(), "step mismatch");
    assert_eq!(a.channels(), b.channels(), "channel mismatch");
    let events = a.events();
    if events.is_empty() {
        return 0.0;
    }
    let matched = events
        .iter()
        .filter(|&&(t, c)| {
            let lo = t.saturating_sub(window);
            let hi = (t + window).min(a.steps().saturating_sub(1));
            (lo..=hi).any(|s| b.get(s, c))
        })
        .count();
    matched as f32 / events.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_stats_regular_train() {
        // Spikes every 4 steps: CV = 0, mean ISI = 4.
        let mut train = vec![0.0f32; 20];
        for t in (0..20).step_by(4) {
            train[t] = 1.0;
        }
        let s = train_stats(&train);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean_isi, 4.0);
        assert_eq!(s.cv_isi, 0.0);
        assert_eq!(s.first_spike, Some(0));
        assert!((s.rate - 0.25).abs() < 1e-6);
    }

    #[test]
    fn train_stats_irregular_has_positive_cv() {
        let mut train = vec![0.0f32; 30];
        for &t in &[0usize, 1, 9, 10, 25] {
            train[t] = 1.0;
        }
        let s = train_stats(&train);
        assert!(
            s.cv_isi > 0.5,
            "irregular ISIs should have high CV, got {}",
            s.cv_isi
        );
    }

    #[test]
    fn train_stats_empty_and_single() {
        let s = train_stats(&[0.0; 10]);
        assert_eq!(s.count, 0);
        assert_eq!(s.first_spike, None);
        let mut one = vec![0.0f32; 10];
        one[3] = 1.0;
        let s = train_stats(&one);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_isi, 0.0);
        assert_eq!(s.first_spike, Some(3));
    }

    #[test]
    fn synchrony_identical_is_one() {
        let r = SpikeRaster::from_events(10, 3, &[(1, 0), (5, 2), (9, 1)]);
        assert_eq!(synchrony(&r, &r, 0), 1.0);
    }

    #[test]
    fn synchrony_window_tolerance() {
        let a = SpikeRaster::from_events(20, 1, &[(5, 0)]);
        let b = SpikeRaster::from_events(20, 1, &[(7, 0)]);
        assert_eq!(synchrony(&a, &b, 0), 0.0);
        assert_eq!(synchrony(&a, &b, 1), 0.0);
        assert_eq!(synchrony(&a, &b, 2), 1.0);
    }

    #[test]
    fn synchrony_empty_is_zero() {
        let a = SpikeRaster::zeros(5, 2);
        let b = SpikeRaster::from_events(5, 2, &[(0, 0)]);
        assert_eq!(synchrony(&a, &b, 1), 0.0);
    }

    #[test]
    fn raster_set_get_roundtrip() {
        let mut r = SpikeRaster::zeros(4, 3);
        r.set(1, 2, true);
        assert!(r.get(1, 2));
        r.set(1, 2, false);
        assert!(!r.get(1, 2));
    }

    #[test]
    fn from_events_ignores_out_of_range() {
        let r = SpikeRaster::from_events(3, 2, &[(0, 0), (2, 1), (5, 0), (0, 9)]);
        assert_eq!(r.spike_count(), 2);
    }

    #[test]
    fn events_roundtrip() {
        let events = vec![(0, 1), (2, 0), (3, 4)];
        let r = SpikeRaster::from_events(5, 5, &events);
        assert_eq!(r.events(), events);
        // Any order, with repeats, builds the same raster, through
        // `from_events` or through `set`.
        let r = SpikeRaster::from_events(6, 5, &[(0, 1), (0, 3), (2, 0), (5, 4)]);
        let shuffled = [(5, 4), (0, 3), (2, 0), (0, 1), (0, 3), (5, 4), (5, 4)];
        assert_eq!(SpikeRaster::from_events(6, 5, &shuffled), r);
        let mut set = SpikeRaster::zeros(6, 5);
        for &(t, c) in &shuffled {
            set.set(t, c, true);
        }
        assert_eq!(set, r);
        assert_eq!(r.step(0), &[1, 3]);
    }

    #[test]
    fn default_is_the_empty_raster() {
        let r = SpikeRaster::default();
        assert_eq!(r, SpikeRaster::zeros(0, 0));
        assert_eq!((r.steps(), r.channels(), r.spike_count()), (0, 0, 0));
        assert_eq!(r.mean_rate(), 0.0);
    }

    #[test]
    fn channel_counts_match_manual() {
        let r = SpikeRaster::from_events(4, 2, &[(0, 0), (1, 0), (3, 1)]);
        assert_eq!(r.channel_counts(), vec![2.0, 1.0]);
        assert!((r.mean_rate() - 3.0 / 8.0).abs() < 1e-7);
    }

    #[test]
    fn kernel_is_zero_at_origin_and_positive_after() {
        let k = TraceKernel::paper_defaults();
        assert_eq!(k.eval(0.0), 0.0);
        assert!(k.eval(1.0) > 0.0);
        assert!(k.eval(50.0) < 1e-4);
    }

    #[test]
    fn trace_matches_direct_convolution() {
        let k = TraceKernel::paper_defaults();
        let train = [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let fast = k.trace(&train);
        // Direct O(T²) convolution: sum over spikes s ≤ t of f[t−s].
        // Note our recursive trace treats a spike at s as contributing
        // a^{t-s+1}−b^{t-s+1}? No: m[t] = Σ_s a^{t−s} x[s], so trace[t]
        // = Σ_s (a^{t−s} − b^{t−s}) x[s] = Σ f_geom[t−s]x[s] where
        // f_geom[0] = 0 only when a=b... check against that formula.
        let am = (-1.0f32 / 4.0).exp();
        let as_ = (-1.0f32 / 1.0).exp();
        for t in 0..train.len() {
            let direct: f32 = (0..=t)
                .map(|s| (am.powi((t - s) as i32) - as_.powi((t - s) as i32)) * train[s])
                .sum();
            assert!(
                (fast[t] - direct).abs() < 1e-5,
                "t={t}: {} vs {direct}",
                fast[t]
            );
        }
    }

    #[test]
    fn distance_zero_for_identical_trains() {
        let k = TraceKernel::paper_defaults();
        let t = [0.0, 1.0, 0.0, 1.0];
        assert_eq!(van_rossum_distance(k, &t, &t), 0.0);
    }

    #[test]
    fn distance_grows_with_time_shift() {
        let k = TraceKernel::paper_defaults();
        let steps = 40;
        let base = SpikeRaster::from_events(steps, 1, &[(10, 0)]);
        let mut prev = 0.0;
        for shift in [1usize, 3, 8, 20] {
            let shifted = SpikeRaster::from_events(steps, 1, &[(10 + shift, 0)]);
            let d = raster_distance(k, &base, &shifted);
            assert!(d > prev, "shift {shift}: {d} should exceed {prev}");
            prev = d;
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let k = TraceKernel::paper_defaults();
        let a = [1.0, 0.0, 0.0, 1.0, 0.0];
        let b = [0.0, 0.0, 1.0, 0.0, 1.0];
        assert!((van_rossum_distance(k, &a, &b) - van_rossum_distance(k, &b, &a)).abs() < 1e-7);
    }

    #[test]
    fn distance_triangle_like_monotonicity() {
        // More differing spikes → larger distance.
        let k = TraceKernel::paper_defaults();
        let empty = vec![0.0; 30];
        let mut one = empty.clone();
        one[5] = 1.0;
        let mut two = one.clone();
        two[20] = 1.0;
        assert!(van_rossum_distance(k, &empty, &two) > van_rossum_distance(k, &empty, &one));
    }

    #[test]
    fn wire_json_roundtrips() {
        let r = SpikeRaster::from_events(9, 4, &[(0, 3), (2, 0), (8, 1)]);
        let doc = r.to_json().to_string();
        let back = SpikeRaster::from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, r);
        let empty = SpikeRaster::zeros(3, 2);
        let back = SpikeRaster::from_json(&Json::parse(&empty.to_json().to_string()).unwrap());
        assert_eq!(back.unwrap(), empty);
        // Any event order, with repeats, decodes to the same raster.
        let doc =
            r#"{"steps": 9, "channels": 4, "events": [[8, 1], [2, 0], [0, 3], [8, 1], [2, 0]]}"#;
        let back = SpikeRaster::from_json(&Json::parse(doc).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn wire_json_rejects_malformed_payloads() {
        for (src, why) in [
            (r#"{"channels": 2, "events": []}"#, "steps"),
            (r#"{"steps": 2, "channels": 2}"#, "events"),
            (r#"{"steps": 2, "channels": 2, "events": [[0]]}"#, "pair"),
            (
                r#"{"steps": 2, "channels": 2, "events": [[0, 5]]}"#,
                "outside",
            ),
            (
                r#"{"steps": 2, "channels": 2, "events": [[3, 0]]}"#,
                "outside",
            ),
            (
                r#"{"steps": 2, "channels": 2, "events": [[0.5, 0]]}"#,
                "non-integer",
            ),
        ] {
            let err = SpikeRaster::from_json(&Json::parse(src).unwrap()).unwrap_err();
            assert!(err.contains(why), "{src}: {err}");
        }
    }

    #[test]
    fn delta_events_roundtrip() {
        let r = SpikeRaster::from_events(12, 5, &[(0, 1), (0, 4), (3, 0), (3, 2), (11, 3)]);
        let deltas = r.delta_events();
        assert_eq!(deltas, vec![(0, 1), (0, 4), (3, 0), (0, 2), (8, 3)]);
        let back = SpikeRaster::from_delta_events(12, 5, &deltas).unwrap();
        assert_eq!(back, r);
        let empty = SpikeRaster::zeros(4, 3);
        let back = SpikeRaster::from_delta_events(4, 3, &empty.delta_events()).unwrap();
        assert_eq!(back, empty);
        // Channels out of order within a step, and repeated events.
        let shuffled = [(0, 4), (0, 1), (0, 4), (3, 2), (0, 0), (0, 2), (8, 3)];
        let back = SpikeRaster::from_delta_events(12, 5, &shuffled).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn delta_events_rejects_out_of_range() {
        let err = SpikeRaster::from_delta_events(3, 2, &[(0, 0), (3, 1)]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        let err = SpikeRaster::from_delta_events(3, 2, &[(0, 2)]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        let err = SpikeRaster::from_delta_events(3, 2, &[(1, 0), (usize::MAX, 0)]).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn ascii_render_has_expected_shape() {
        let r = SpikeRaster::from_events(10, 4, &[(3, 0)]);
        let art = r.render_ascii(4);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == 10));
        assert!(lines[3].contains('|')); // channel 0 is the bottom row
    }

    #[test]
    fn ascii_render_of_zero_channels_is_empty() {
        assert_eq!(SpikeRaster::zeros(5, 0).render_ascii(4), "");
        assert_eq!(SpikeRaster::zeros(0, 3).render_ascii(2), "\n\n");
    }

    #[test]
    fn display_summarises() {
        let r = SpikeRaster::from_events(5, 2, &[(1, 1)]);
        let s = r.to_string();
        assert!(s.contains("5 steps"));
        assert!(s.contains("1 spikes"));
    }
}
