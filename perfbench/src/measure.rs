//! The benchmark's own arithmetic: medians and tail percentiles, failure
//! accounting, block rates, the unattributed remainder, the circuit
//! energy estimate, peak memory and the host-speed calibration loop.

use snn_hardware::{power, CircuitParams};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A tail percentile is reported only where at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median by linear interpolation between the two middle values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

/// A nearest-rank tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile actually reported (the requested one, or lower).
    pub quantile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly after that rank.
    pub beyond: usize,
    /// Samples in total.
    pub count: usize,
}

/// The `target` quantile by nearest rank, lowered where needed so that
/// at least [`MIN_BEYOND`] samples lie beyond it: with `n` samples the
/// rank is `min(ceil(target·n), n − MIN_BEYOND)`, floored at 1.
///
/// # Panics
///
/// Panics on an empty slice or a target outside `(0, 1]`.
pub fn tail_percentile(values: &[f64], target: f64) -> Tail {
    assert!(!values.is_empty(), "percentile of no values");
    assert!(
        target > 0.0 && target <= 1.0,
        "target {target} not in (0, 1]"
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let wanted = (target * n as f64).ceil() as usize;
    let rank = wanted.min(n.saturating_sub(MIN_BEYOND)).max(1);
    Tail {
        quantile: rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: n - rank,
        count: n,
    }
}

/// Samples per block of [`blocked_tail`]: enough that a block's 99th
/// percentile has [`MIN_BEYOND`] samples beyond it.
pub const TAIL_BLOCK: usize = 100 * MIN_BEYOND;

/// A tail percentile taken block by block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedTail {
    /// The median of the blocks' tails.
    pub value: f64,
    /// Each block's tail, in completion order.
    pub per_block: Vec<f64>,
    /// The first block's tail, as evidence of rank and sample count.
    pub block: Tail,
}

/// The tail of a typical stretch of the run: `values`, in completion
/// order, are cut into consecutive blocks of at least [`TAIL_BLOCK`]
/// samples, and the result is the median over blocks of each block's
/// [`tail_percentile`]. A burst of host noise confined to a minority of
/// blocks then leaves the figure alone. With fewer than two blocks'
/// worth of samples it is the tail of the whole sample.
///
/// # Panics
///
/// Panics on an empty slice or a target outside `(0, 1]`.
pub fn blocked_tail(values: &[f64], target: f64) -> BlockedTail {
    let blocks = (values.len() / TAIL_BLOCK).max(1);
    let tails: Vec<Tail> = (0..blocks)
        .map(|b| {
            let block = &values[b * values.len() / blocks..(b + 1) * values.len() / blocks];
            tail_percentile(block, target)
        })
        .collect();
    let per_block: Vec<f64> = tails.iter().map(|t| t.value).collect();
    BlockedTail {
        value: median(&per_block),
        per_block,
        block: tails[0],
    }
}

/// Operations attempted and failed. A refused request, a transport
/// error and a wrong answer all count as failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, refused or answered wrongly.
    pub failed: u64,
    /// The subset of `failed` that returned a wrong answer.
    pub wrong: u64,
}

impl Tally {
    /// Records one answered operation: `got` is the answer, `None` when
    /// the operation failed or was refused.
    pub fn answer(&mut self, got: Option<usize>, expected: usize) {
        self.attempted += 1;
        match got {
            Some(class) if class == expected => {}
            Some(_) => {
                self.failed += 1;
                self.wrong += 1;
            }
            None => self.failed += 1,
        }
    }

    /// Records one operation that either succeeded or failed.
    pub fn outcome(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Failed operations divided by operations attempted (0 when nothing
    /// was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 − error_rate`: the share of operations that succeeded.
    pub fn success_rate(&self) -> f64 {
        1.0 - self.error_rate()
    }
}

/// A stretch of a measured phase: operations `ops`, in completion
/// order, that finished between `start` and `end` seconds into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Indices of the block's operations.
    pub ops: Range<usize>,
    /// When the previous block's last operation finished, in s.
    pub start: f64,
    /// When this block's last operation finished, in s.
    pub end: f64,
    /// Samples the block's operations carried.
    pub samples: usize,
}

impl Block {
    /// Samples per second over the block.
    pub fn rate(&self) -> f64 {
        self.samples as f64 / (self.end - self.start)
    }
}

/// Cuts the operations of a phase into `blocks` runs of equal length:
/// `done` holds, for each operation in completion order, its completion
/// time in seconds since the phase began and the samples it carried.
///
/// # Panics
///
/// Panics if there are fewer operations than blocks, or no blocks.
pub fn blocks(done: &[(f64, usize)], blocks: usize) -> Vec<Block> {
    assert!(blocks > 0, "no blocks");
    assert!(
        done.len() >= blocks,
        "{} operations for {blocks} blocks",
        done.len()
    );
    let mut out = Vec::with_capacity(blocks);
    let (mut lo, mut start) = (0, 0.0);
    for b in 1..=blocks {
        let hi = b * done.len() / blocks;
        let end = done[hi - 1].0;
        out.push(Block {
            ops: lo..hi,
            start,
            end,
            samples: done[lo..hi].iter().map(|&(_, s)| s).sum(),
        });
        (lo, start) = (hi, end);
    }
    out
}

/// The blocks whose rates and latencies the end-to-end metrics take:
/// those in which the host stole at most [`QUIET_STEAL_PCT`] of CPU
/// time, or, when that leaves fewer than half, the half in which it
/// stole least. A block without a reading counts as quiet.
pub fn quiet_blocks(steal_pct: &[Option<f64>]) -> Vec<usize> {
    let share = |b: usize| steal_pct[b].unwrap_or(0.0);
    let n = steal_pct.len();
    let quiet: Vec<usize> = (0..n).filter(|&b| share(b) <= QUIET_STEAL_PCT).collect();
    if 2 * quiet.len() >= n {
        return quiet;
    }
    let mut least: Vec<usize> = (0..n).collect();
    least.sort_by(|&a, &b| share(a).total_cmp(&share(b)).then(a.cmp(&b)));
    least.truncate(n.div_ceil(2));
    least.sort_unstable();
    least
}

/// The share of `total` that `parts` leave unattributed, in percent.
/// Negative when the parts overlap or were measured slower than the
/// whole.
pub fn unattributed_pct(total: f64, parts: &[f64]) -> f64 {
    100.0 * (total - parts.iter().sum::<f64>()) / total
}

/// How much slower `traced` ran than `untraced`, in percent of the
/// untraced rate.
pub fn overhead_pct(untraced_rate: f64, traced_rate: f64) -> f64 {
    100.0 * (untraced_rate - traced_rate) / untraced_rate
}

/// Simulated energy, in nJ, of one layer's circuits over one sample of
/// `steps` steps, whose synapses each see `spikes_per_synapse` input
/// spikes on average. The power model takes whole spike counts and is
/// linear in them, so a fractional mean interpolates exactly between
/// the floor and ceiling counts (the method of the `hw_power_area`
/// harness).
///
/// # Panics
///
/// Panics if `steps` is 0 or the spike rate is negative.
pub fn layer_energy_nj(
    steps: usize,
    spikes_per_synapse: f64,
    neurons: usize,
    synapse_filters: usize,
) -> f64 {
    assert!(steps > 0, "zero-step sample");
    assert!(spikes_per_synapse >= 0.0, "negative spike rate");
    let params = CircuitParams::paper();
    let lo = spikes_per_synapse.floor().min((steps - 1) as f64) as usize;
    let frac = spikes_per_synapse - lo as f64;
    let a = power::estimate_layer(steps, lo, neurons, synapse_filters, &params);
    let b = power::estimate_layer(steps, lo + 1, neurons, synapse_filters, &params);
    1e9 * (a.energy_j + frac * (b.energy_j - a.energy_j))
}

/// Peak resident set size of this process (`VmHWM`), in MB (2^20 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A probe window whose steal share is at most this, in percent, finds
/// the host quiet.
pub const QUIET_STEAL_PCT: f64 = 2.0;

/// Jiffies the host stole from this machine's CPUs, and all jiffies,
/// summed over CPUs since boot (the `cpu` line of `/proc/stat`).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse::<u64>().ok())
        .collect::<Option<Vec<_>>>()?;
    // user nice system idle iowait irq softirq steal; the guest times
    // after these are already counted in user and nice.
    let first = fields.get(..8)?;
    Some((first[7], first.iter().sum()))
}

/// The share of CPU time, in percent, the host stole between two
/// [`cpu_jiffies`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.1.saturating_sub(before.1).max(1);
    100.0 * after.0.saturating_sub(before.0) as f64 / all as f64
}

/// Waits, for at most `cap`, until the host stops taking this machine's
/// CPUs away: each probe keeps `threads` threads busy for `window` and
/// reads the steal share, and the wait ends at the first probe of at
/// most [`QUIET_STEAL_PCT`]. An idle machine has nothing to steal, so
/// the probe must be busy. Returns the seconds waited and the last
/// probe's steal share, `None` without `/proc/stat`.
pub fn wait_for_quiet_host(threads: usize, window: Duration, cap: Duration) -> (f64, Option<f64>) {
    let start = Instant::now();
    let mut last = None;
    while start.elapsed() < cap {
        let Some(before) = cpu_jiffies() else { break };
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let end = Instant::now() + window;
                    let mut x = 1u64;
                    while Instant::now() < end {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                    std::hint::black_box(x);
                });
            }
        });
        let Some(after) = cpu_jiffies() else { break };
        let pct = steal_pct(before, after);
        last = Some(pct);
        if pct <= QUIET_STEAL_PCT {
            break;
        }
    }
    (start.elapsed().as_secs_f64(), last)
}

/// How often [`trace_steal`] reads `/proc/stat`.
const STEAL_SAMPLE: Duration = Duration::from_millis(100);

/// [`cpu_jiffies`] readings taken while a phase ran.
#[derive(Debug, Clone, Default)]
pub struct StealTrace {
    readings: Vec<(Instant, (u64, u64))>,
}

impl StealTrace {
    /// The steal share, in percent, from the last reading at or before
    /// `from` to the first at or after `to`; `None` without two
    /// distinct readings.
    pub fn pct(&self, from: Instant, to: Instant) -> Option<f64> {
        let before = self.readings.iter().rev().find(|r| r.0 <= from);
        let after = self.readings.iter().find(|r| r.0 >= to);
        let before = before.or(self.readings.first())?;
        let after = after.or(self.readings.last())?;
        (after.0 > before.0).then(|| steal_pct(before.1, after.1))
    }
}

/// Runs `phase` while a thread reads [`cpu_jiffies`] every
/// [`STEAL_SAMPLE`], so that each stretch of the phase can be told
/// apart by how much CPU time the host stole during it.
pub fn trace_steal<T>(phase: impl FnOnce() -> T) -> (T, StealTrace) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut trace = StealTrace::default();
            loop {
                if let Some(reading) = cpu_jiffies() {
                    trace.readings.push((Instant::now(), reading));
                }
                if done.load(Ordering::Acquire) {
                    return trace;
                }
                std::thread::sleep(STEAL_SAMPLE);
            }
        });
        let out = phase();
        done.store(true, Ordering::Release);
        (out, sampler.join().expect("steal sampler panicked"))
    })
}

/// Times a fixed integer and floating-point loop, in ms: the median of
/// five repetitions. It reads the host's speed at one moment, so a slow
/// host can be told from a slow commit; it never scales a metric.
pub fn calibration_ms() -> f64 {
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0.0f32;
        for _ in 0..2_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999 + (x >> 40) as f32;
        }
        std::hint::black_box((x, acc));
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        let tail = tail_percentile(&values, 0.99);
        assert_eq!(tail.quantile, 0.99);
        assert_eq!(tail.value, 1980.0);
        assert_eq!(tail.beyond, 20);
        assert_eq!(tail.count, 2000);
    }

    #[test]
    fn p99_is_lowered_when_the_sample_is_small() {
        // 500 samples: ceil(0.99 · 500) = 495 leaves only 5 beyond, so
        // the rank drops to 490 and the quantile reported is 0.98.
        let values: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        let tail = tail_percentile(&values, 0.99);
        assert_eq!(tail.value, 490.0);
        assert_eq!(tail.beyond, MIN_BEYOND);
        assert!((tail.quantile - 0.98).abs() < 1e-12);
        // At exactly 1000 samples the true p99 has ten beyond it.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = tail_percentile(&values, 0.99);
        assert_eq!((tail.value, tail.beyond), (990.0, 10));
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_minimum() {
        let tail = tail_percentile(&[5.0, 7.0, 6.0], 0.99);
        assert_eq!((tail.value, tail.beyond), (5.0, 2));
    }

    #[test]
    fn blocked_tail_is_the_median_of_block_tails() {
        // Three blocks of 1000; the middle one has a burst of slow
        // samples that moves the pooled p99 but not the median block.
        let mut values: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for v in &mut values[1000..1100] {
            *v += 5000.0;
        }
        let tail = blocked_tail(&values, 0.99);
        assert_eq!(tail.per_block, vec![989.0, 5089.0, 989.0]);
        assert_eq!(tail.value, 989.0);
        assert_eq!((tail.block.count, tail.block.beyond), (1000, 10));
        assert!(tail_percentile(&values, 0.99).value > 5000.0);
        // Under two blocks' worth it is the plain tail.
        let few: Vec<f64> = (1..=1999).map(f64::from).collect();
        assert_eq!(
            blocked_tail(&few, 0.99).value,
            tail_percentile(&few, 0.99).value
        );
        assert_eq!(blocked_tail(&few, 0.99).per_block.len(), 1);
    }

    #[test]
    fn wrong_answers_count_as_failures() {
        let mut tally = Tally::default();
        tally.answer(Some(3), 3);
        tally.answer(Some(2), 3);
        tally.answer(None, 1);
        tally.answer(Some(1), 1);
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 2,
                wrong: 1
            }
        );
        assert_eq!(tally.error_rate(), 0.5);
        assert_eq!(tally.success_rate(), 0.5);
        let mut total = Tally::default();
        total.outcome(true);
        total.merge(tally);
        assert_eq!((total.attempted, total.failed), (5, 2));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn blocks_split_by_operation_count() {
        // Four ops of 2 samples, finishing at 1, 2, 4 and 8 s.
        let done = [(1.0, 2), (2.0, 2), (4.0, 2), (8.0, 2)];
        let halves = blocks(&done, 2);
        assert_eq!((halves[1].ops.clone(), halves[1].start), (2..4, 2.0));
        let rates: Vec<f64> = halves.iter().map(Block::rate).collect();
        assert_eq!(rates, vec![2.0, 4.0 / 6.0]);
        assert_eq!(blocks(&done, 1)[0].rate(), 1.0);
    }

    #[test]
    fn quiet_blocks_drop_the_stolen_ones() {
        let quiet = [Some(0.0), Some(5.0), None, Some(1.5)];
        assert_eq!(quiet_blocks(&quiet), vec![0, 2, 3]);
        // Only one quiet block of four: the half with least steal.
        let stolen = [Some(9.0), Some(3.0), Some(25.0), Some(0.5)];
        assert_eq!(quiet_blocks(&stolen), vec![1, 3]);
    }

    #[test]
    fn steal_trace_spans_the_readings_around_an_interval() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let trace = StealTrace {
            readings: vec![(at(0), (0, 0)), (at(100), (0, 200)), (at(200), (10, 400))],
        };
        assert_eq!(trace.pct(at(0), at(100)), Some(0.0));
        assert_eq!(trace.pct(at(150), at(200)), Some(5.0));
        assert_eq!(trace.pct(at(50), at(300)), Some(2.5));
        assert_eq!(StealTrace::default().pct(at(0), at(1)), None);
        let (value, trace) = trace_steal(|| 7);
        assert_eq!(value, 7);
        assert!(!trace.readings.is_empty());
    }

    #[test]
    fn unattributed_remainder_is_the_share_left_over() {
        assert_eq!(unattributed_pct(10.0, &[6.0, 3.0]), 10.0);
        assert_eq!(unattributed_pct(4.0, &[3.0, 2.0]), -25.0);
        assert_eq!(overhead_pct(200.0, 150.0), 25.0);
    }

    #[test]
    fn energy_matches_the_paper_reference_circuit() {
        // One neuron and one synapse filter over the paper's reference
        // workload: 300 steps with 14 input spikes, 3.329 nJ.
        let e = layer_energy_nj(power::REFERENCE_STEPS, 14.0, 1, 1);
        assert!((e - 3.329).abs() < 0.005, "energy {e} nJ");
        let exact = power::estimate(300, 14, &CircuitParams::paper()).energy_j * 1e9;
        assert_eq!(e, exact);
    }

    #[test]
    fn fractional_rates_interpolate_linearly() {
        let lo = layer_energy_nj(100, 2.0, 400, 700);
        let hi = layer_energy_nj(100, 3.0, 400, 700);
        let mid = layer_energy_nj(100, 2.25, 400, 700);
        assert!((mid - (lo + 0.25 * (hi - lo))).abs() < 1e-9);
        // Silence leaves the static floor, scaled to the layer.
        let idle = layer_energy_nj(100, 0.0, 3, 1);
        let floor = power::P_STATIC_W * 100.0 * 10e-9 * 2.0 * 1e9;
        assert!((idle / floor - 1.0).abs() < 1e-6, "idle {idle} vs {floor}");
    }

    #[test]
    fn steal_share_is_stolen_over_all_jiffies() {
        assert_eq!(steal_pct((10, 1000), (15, 1200)), 2.5);
        assert_eq!(steal_pct((10, 1000), (10, 1000)), 0.0);
    }

    #[test]
    fn calibration_and_rss_read_something() {
        assert!(calibration_ms() > 0.0);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(cpu_jiffies().is_some_and(|(steal, all)| steal <= all && all > 0));
    }
}
