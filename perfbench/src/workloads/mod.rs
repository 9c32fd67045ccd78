//! The three workloads, and the streaming path that the `serve_http`
//! traced run times. Each workload runs a fixed amount of work in a
//! closed loop, checks every answer, and fills a [`RunResult`].

pub mod http;
pub mod infer;
pub mod stream;
pub mod train;

use crate::measure::{
    blocked_tail, blocks, median, peak_rss_mb, quiet_blocks, tail_percentile, StealTrace, Tally,
};
use crate::setting::Activity;
use crate::{secs, RunResult};
use snn_core::{Forward, Network, ScratchSpace, SpikeRaster};
use snn_json::Json;
use snn_serve::Client;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Blocks the measured phase is cut into. `samples_per_s` is the median
/// of the quiet blocks' rates, and `latency_p50_ms` the median latency
/// in them (see [`quiet_blocks`]), so a stretch in which the host took
/// the CPUs away moves neither.
pub const BLOCKS: usize = 16;

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// The measured phase of an untraced run.
pub struct Measured<'a> {
    /// Seconds of each timed set-up.
    pub setup_s: &'a [f64],
    /// Every measured operation.
    pub phase: &'a Phase,
    /// The host's steal over the phase.
    pub steal: &'a StealTrace,
    /// What one latency sample times.
    pub latency_of: &'static str,
    /// `train_loss` for this workload.
    pub loss: f64,
    /// Layer activity behind `energy_nj_per_sample`.
    pub activity: &'a Activity,
}

/// Fills every end-to-end metric except `success_rate`, which `main`
/// sets from the final tally.
///
/// The 99th-percentile latency goes to the report, not the metrics: on
/// a shared two-vCPU host it moves with the time the host steals, by
/// 30-60 % between runs of the same code, beyond any bound a metric may
/// have.
pub fn end_to_end(result: &mut RunResult, m: Measured<'_>) {
    let Phase {
        start,
        ref done,
        ref latency_ms,
    } = *m.phase;
    let blocks = blocks(done, BLOCKS);
    let at = |s: f64| start + Duration::from_secs_f64(s);
    let steal: Vec<Option<f64>> = blocks
        .iter()
        .map(|b| m.steal.pct(at(b.start), at(b.end)))
        .collect();
    let quiet = quiet_blocks(&steal);
    let rates: Vec<f64> = blocks.iter().map(|b| b.rate()).collect();
    let quiet_rates: Vec<f64> = quiet.iter().map(|&b| rates[b]).collect();
    let quiet_latency_ms: Vec<f64> = quiet
        .iter()
        .flat_map(|&b| latency_ms[blocks[b].ops.clone()].iter().copied())
        .collect();
    let tail = blocked_tail(latency_ms, 0.99);
    let pooled = tail_percentile(latency_ms, 0.99);
    let samples: usize = done.iter().map(|&(_, s)| s).sum();
    let elapsed = done.last().map_or(0.0, |&(t, _)| t);
    result.set("setup_s", median(m.setup_s));
    result.set("samples_per_s", median(&quiet_rates));
    result.set("latency_p50_ms", median(&quiet_latency_ms));
    result.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    result.set("train_loss", m.loss);
    result.set("energy_nj_per_sample", m.activity.total_energy_nj());
    result.note(
        "measured",
        Json::obj(vec![
            ("samples", Json::Num(samples as f64)),
            ("operations", Json::Num(done.len() as f64)),
            ("seconds", Json::Num(elapsed)),
            ("mean_samples_per_s", Json::Num(samples as f64 / elapsed)),
            ("block_samples_per_s", nums(&rates)),
            (
                "block_steal_pct",
                Json::Arr(
                    steal
                        .iter()
                        .map(|p| p.map_or(Json::Null, Json::Num))
                        .collect(),
                ),
            ),
            (
                "quiet_blocks",
                Json::Arr(quiet.iter().map(|&b| Json::Num(b as f64)).collect()),
            ),
            ("all_blocks_latency_p50_ms", Json::Num(median(latency_ms))),
            ("setup_s", nums(m.setup_s)),
            ("latency_of", Json::Str(m.latency_of.to_string())),
            ("latency_samples", Json::Num(latency_ms.len() as f64)),
            ("latency_p99_ms", Json::Num(tail.value)),
            ("latency_tail_per_block_ms", nums(&tail.per_block)),
            (
                "latency_tail_block_samples",
                Json::Num(tail.block.count as f64),
            ),
            ("latency_tail_quantile", Json::Num(tail.block.quantile)),
            (
                "latency_tail_beyond_per_block",
                Json::Num(tail.block.beyond as f64),
            ),
            ("latency_p99_pooled_ms", Json::Num(pooled.value)),
            ("activity_samples", Json::Num(m.activity.samples() as f64)),
        ]),
    );
}

/// Sets the per-layer activity metrics of a traced run: spikes, SynOps
/// and simulated energy of each layer.
pub fn layer_activity(result: &mut RunResult, activity: &Activity) {
    const SPIKES: [&str; 3] = [
        "core.layer0.spikes",
        "core.layer1.spikes",
        "core.layer2.spikes",
    ];
    const SYNOPS: [&str; 3] = [
        "core.layer0.synops",
        "core.layer1.synops",
        "core.layer2.synops",
    ];
    const ENERGY: [&str; 3] = [
        "hardware.layer0.energy_nj",
        "hardware.layer1.energy_nj",
        "hardware.layer2.energy_nj",
    ];
    for l in 0..activity.layers().min(SPIKES.len()) {
        result.set(SPIKES[l], activity.spikes(l));
        result.set(SYNOPS[l], activity.synops(l));
        result.set(ENERGY[l], activity.energy_nj(l));
    }
}

/// Mean time of `Network::forward_into` (the record-writing rollout) on
/// one thread over `inputs`, in µs.
pub fn forward_us(net: &Network, inputs: &[SpikeRaster]) -> f64 {
    let mut fwd = Forward::empty();
    let mut scratch = ScratchSpace::new();
    net.forward_into(&inputs[0], &mut fwd, &mut scratch);
    let start = Instant::now();
    for input in inputs {
        net.forward_into(input, &mut fwd, &mut scratch);
    }
    1e6 * secs(start) / inputs.len() as f64
}

/// Runs `f`, adding its seconds to `total` when `timed`. This is the
/// traced run's per-call timer; running the same calls with it off shows
/// what it costs (`bench.trace_overhead_pct`).
pub fn lap<T>(timed: bool, total: &mut f64, f: impl FnOnce() -> T) -> T {
    if !timed {
        return f();
    }
    let t = Instant::now();
    let out = f();
    *total += secs(t);
    out
}

/// Whether the timed pass (`true`) or the plain one runs first in round
/// `round`: they take turns, so neither always finds the caches the
/// other warmed.
pub fn pass_order(round: usize) -> [bool; 2] {
    if round.is_multiple_of(2) {
        [true, false]
    } else {
        [false, true]
    }
}

/// A measured phase's operations, in completion order.
pub struct Phase {
    /// When the phase began.
    pub start: Instant,
    /// `(completion time in s since start, samples)` of every operation.
    pub done: Vec<(f64, usize)>,
    /// Latency of every operation, in ms.
    pub latency_ms: Vec<f64>,
}

impl Phase {
    /// Operations per second over the whole phase.
    pub fn rate(&self) -> f64 {
        self.done.len() as f64 / self.done.last().map_or(f64::NAN, |d| d.0)
    }
}

/// Runs `per_conn` operations back to back on every connection at once,
/// one client thread per connection; connection `k` takes operation
/// indices `k, k + conns, …`. `op` performs one operation and records
/// its outcome; the phase times each call of it.
pub fn closed_loop<C: Send>(
    conns: &mut [C],
    per_conn: usize,
    tally: &mut Tally,
    op: impl Fn(&mut C, usize, &mut Tally) + Sync,
) -> Phase {
    let stride = conns.len();
    let barrier = Barrier::new(stride);
    let start = Instant::now();
    let outs: Vec<(Vec<(f64, f64)>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                let (barrier, op) = (&barrier, &op);
                scope.spawn(move || {
                    let mut ops = Vec::with_capacity(per_conn);
                    let mut tally = Tally::default();
                    barrier.wait();
                    for j in 0..per_conn {
                        let t = Instant::now();
                        op(conn, k + j * stride, &mut tally);
                        ops.push((secs(start), secs(t) * 1e3));
                    }
                    (ops, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut ops = Vec::with_capacity(per_conn * stride);
    for (thread_ops, t) in outs {
        ops.extend(thread_ops);
        tally.merge(t);
    }
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    Phase {
        start,
        done: ops.iter().map(|&(at, _)| (at, 1)).collect(),
        latency_ms: ops.iter().map(|&(_, ms)| ms).collect(),
    }
}

/// Polls `GET /healthz/ready` until the server first answers `ok`.
pub fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.ready() {
            Ok(status) if status == "ok" => return Ok(()),
            _ if Instant::now() > deadline => return Err("server never became ready".into()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}
