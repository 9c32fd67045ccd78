//! The binary streaming path of `snn_serve::serve`, timed from the
//! `serve_http` traced run against the same server (one port speaks
//! both protocols). One connection per core holds one resident session;
//! for each sample the client sends pre-encoded `EVENTS` + `TICK(T)` +
//! `READOUT`, waits for the readout, then sends `RESET` and waits for
//! its `OK`.
//!
//! It is not a workload of its own. Its two round trips per sample made
//! it two to three times as sensitive as the other workloads to the CPU
//! time a shared host steals, and in every ten-run set that met a steal
//! episode its throughput and latency spread beyond any bound a metric
//! may have. Its layers are still timed here.

use super::closed_loop;
use crate::cores;
use crate::measure::{mean, Tally};
use crate::secs;
use snn_core::engine::Engine;
use snn_core::SpikeRaster;
use snn_serve::wire::{self, Frame, Reply};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Sample cycles per connection before timing.
const WARMUP: usize = 16;
/// Sample cycles, and lone `RESET` round trips, timed over the wire.
const TRACE_CYCLES: usize = 6000;
/// Passes over the samples when timing the layers in-process.
const TRACE_PASSES: usize = 2;
/// Events that fit one `EVENTS` frame.
const EVENTS_PER_FRAME: usize = (wire::MAX_FRAME_PAYLOAD - 4) / 4;

/// One client connection holding one resident session.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr, n_in: u32) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut hello = wire::MAGIC.to_vec();
        Frame::Hello {
            n_in,
            max_pending: 0,
        }
        .write_to(&mut hello)
        .map_err(|e| e.to_string())?;
        writer.write_all(&hello).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        match conn.reply() {
            Some(Reply::HelloOk { .. }) => Ok(conn),
            other => Err(format!("stream open: {other:?}")),
        }
    }

    fn reply(&mut self) -> Option<Reply> {
        Reply::read_from(&mut self.reader).ok().flatten()
    }

    /// One sample cycle; `None` if any step of it failed.
    fn cycle(&mut self, sample: &[u8], reset: &[u8], steps: u64) -> Option<usize> {
        self.writer.write_all(sample).ok()?;
        let class = match self.reply()? {
            Reply::Readout { class, steps: s } if s == steps => class as usize,
            _ => return None,
        };
        self.reset(reset).then_some(class)
    }

    /// One `RESET` round trip.
    fn reset(&mut self, reset: &[u8]) -> bool {
        self.writer.write_all(reset).is_ok() && matches!(self.reply(), Some(Reply::Ok))
    }
}

/// The frames of one sample cycle, before `RESET`.
fn sample_frames(input: &SpikeRaster) -> Vec<Frame> {
    let deltas: Vec<(u16, u16)> = input
        .delta_events()
        .into_iter()
        .map(|(dt, c)| (dt as u16, c as u16))
        .collect();
    let mut frames: Vec<Frame> = deltas
        .chunks(EVENTS_PER_FRAME)
        .map(|chunk| Frame::Events(chunk.to_vec()))
        .collect();
    frames.push(Frame::Tick {
        advance: input.steps() as u32,
    });
    frames.push(Frame::Readout);
    frames
}

fn encode(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        frame.write_to(&mut bytes).expect("writing to a Vec");
    }
    bytes
}

/// What the streaming path's parts take per sample, in µs.
pub struct StreamParts {
    /// Client-timed mean of one sample cycle.
    pub end_to_end_us: f64,
    /// `StreamSession::feed_events` + `advance` + `readout` + `reset`.
    pub session_us: f64,
    /// `Frame::write_to` + `Frame::read_from` on the cycle's frames.
    pub wire_us: f64,
    /// Client-timed mean of a lone `RESET` round trip.
    pub null_us: f64,
    /// Sample cycles per second over the wire.
    pub cycles_per_s: f64,
}

/// Times the streaming path of the server at `addr`: a closed loop of
/// sample cycles with every readout checked against `expected`, lone
/// `RESET` round trips, then `StreamSession` and the wire codec
/// in-process on the same samples.
///
/// # Errors
///
/// A message if a connection cannot be opened or warmed up.
pub fn trace(
    addr: SocketAddr,
    engine: &Engine,
    inputs: &[SpikeRaster],
    expected: &[usize],
    tally: &mut Tally,
) -> Result<StreamParts, String> {
    let samples: Vec<Vec<u8>> = inputs.iter().map(|r| encode(&sample_frames(r))).collect();
    let reset = encode(&[Frame::Reset]);
    let steps = inputs[0].steps() as u64;
    let n_in = engine.network().n_in() as u32;
    let mut conns = (0..cores())
        .map(|_| Conn::open(addr, n_in))
        .collect::<Result<Vec<_>, _>>()?;
    for (k, conn) in conns.iter_mut().enumerate() {
        for i in 0..WARMUP {
            let sample = &samples[(k + i * cores()) % samples.len()];
            conn.cycle(sample, &reset, steps)
                .ok_or("stream warm-up cycle failed")?;
        }
    }
    let per_conn = TRACE_CYCLES / conns.len();
    let served = closed_loop(&mut conns, per_conn, tally, |conn, i, tally| {
        let idx = i % samples.len();
        tally.answer(conn.cycle(&samples[idx], &reset, steps), expected[idx]);
    });
    let null = closed_loop(&mut conns, per_conn, tally, |conn, _, tally| {
        tally.outcome(conn.reset(&reset));
    });
    drop(conns);

    let deltas: Vec<_> = inputs.iter().map(SpikeRaster::delta_events).collect();
    let mut session = engine.stream_session();
    let (mut session_s, mut wire_s) = (0.0, 0.0);
    let mut bytes = Vec::new();
    let rounds = TRACE_PASSES * inputs.len();
    for round in 0..rounds {
        let i = round % inputs.len();
        let mut frames = sample_frames(&inputs[i]);
        frames.push(Frame::Reset);
        let t = Instant::now();
        let fed = session.feed_events(&deltas[i]);
        session.advance(steps as usize);
        let class = session.readout();
        session.reset();
        session_s += secs(t);
        tally.answer(fed.ok().map(|()| class), expected[i]);
        let t = Instant::now();
        bytes.clear();
        let written = frames.iter().all(|f| f.write_to(&mut bytes).is_ok());
        let mut reader: &[u8] = &bytes;
        let mut decoded = Vec::with_capacity(frames.len());
        while let Ok(Some(frame)) = Frame::read_from(&mut reader) {
            decoded.push(frame);
        }
        wire_s += secs(t);
        tally.outcome(written && decoded == frames);
    }
    let n = rounds as f64;
    Ok(StreamParts {
        end_to_end_us: 1e3 * mean(&served.latency_ms),
        session_us: 1e6 * session_s / n,
        wire_us: 1e6 * wire_s / n,
        null_us: 1e3 * mean(&null.latency_ms),
        cycles_per_s: served.rate(),
    })
}
