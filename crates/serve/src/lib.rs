//! **snn-serve** — dependency-free network serving for the neurosnn
//! workspace: a hand-rolled HTTP/1.1 front end on [`std::net`] with a
//! **dynamic micro-batching scheduler** between the sockets and the
//! [`Engine`](snn_engine::Engine).
//!
//! Real traffic arrives one request at a time, but the engine's
//! throughput lives in batches. This crate closes that gap the way
//! production model servers do:
//!
//! * **Acceptors** parse JSON spike rasters (the
//!   [`SpikeRaster::to_json`](snn_core::SpikeRaster::to_json) wire
//!   format) off persistent connections and submit them to a **bounded
//!   admission queue** — a full queue answers `503` + `Retry-After`
//!   (backpressure) instead of growing without bound.
//! * A **collator** drains the queue into micro-batches without ever
//!   holding one: it takes the next sample plus whatever else is already
//!   queued, up to [`BatchPolicy::max_batch`], and hands the batch to the
//!   next free worker. Idle servers answer a lone request at once;
//!   loaded servers batch up automatically, because arrivals queue while
//!   every worker is busy.
//! * **Workers** execute batches on
//!   [`SessionPool`](snn_engine::SessionPool)-checked-out sessions —
//!   warm, allocation-free buffers on either
//!   [`Backend`](snn_engine::Backend) (sparse or dense), over a software
//!   network or a deployed crossbar's effective one.
//! * `/healthz` (+ `/healthz/live`, `/healthz/ready`) and `/metrics`
//!   expose liveness, readiness (`degraded` during reloads and after
//!   worker panics), and the counters and latency/batch-size histograms
//!   in [`ServeMetrics`].
//! * [`ServerHandle::shutdown`] is graceful: admission closes, queued
//!   samples drain through final batches, and every accepted request is
//!   answered before threads join.
//!
//! The serving layer is also **fault-tolerant**: workers run under
//! `catch_unwind` supervision (panicked sessions are quarantined and the
//! job retried on a fresh one), `POST /admin/reload` hot-swaps in a new
//! checkpoint without dropping in-flight requests, per-request deadlines
//! shed expired work before it costs inference time, and the
//! [`Retrier`] client wrapper adds seeded jittered backoff with a retry
//! budget. All of it is exercised deterministically through
//! [`FaultPlan`] (seeded panic/latency/corruption schedules) by the
//! chaos tests and `bench_serve --soak`.
//!
//! Because each sample is classified independently on a deterministic
//! session, **predictions never depend on how the scheduler happened to
//! batch them** (property-tested).
//!
//! # Examples
//!
//! Serve a model over loopback and call it:
//!
//! ```
//! use snn_core::{Network, NeuronKind, SpikeRaster};
//! use snn_engine::Engine;
//! use snn_neuron::NeuronParams;
//! use snn_serve::{serve_at, BatchPolicy, Client};
//! use snn_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let net = Network::mlp(&[4, 8, 2], NeuronKind::Adaptive,
//!                        NeuronParams::paper_defaults(), &mut rng);
//! let server = serve_at(
//!     Engine::from_network(net).build(),
//!     "127.0.0.1:0",
//!     BatchPolicy::default(),
//! ).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! assert_eq!(client.healthz().unwrap(), "ok");
//! let input = SpikeRaster::from_events(10, 4, &[(0, 1), (5, 3)]);
//! let class = client.classify(&input).unwrap();
//! assert!(class < 2);
//! server.shutdown();
//! ```
//!
//! Or drive the scheduler directly, without sockets:
//!
//! ```
//! use snn_core::{Network, NeuronKind, SpikeRaster};
//! use snn_engine::Engine;
//! use snn_neuron::NeuronParams;
//! use snn_serve::{BatchPolicy, Scheduler};
//! use snn_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(1);
//! let net = Network::mlp(&[3, 6, 2], NeuronKind::Adaptive,
//!                        NeuronParams::paper_defaults(), &mut rng);
//! let scheduler = Scheduler::start(
//!     Engine::from_network(net).build(),
//!     BatchPolicy { max_batch: 4, workers: 1, ..BatchPolicy::default() },
//! );
//! let tickets: Vec<_> = (0..8)
//!     .map(|t| {
//!         let input = SpikeRaster::from_events(6, 3, &[(t % 6, t % 3)]);
//!         scheduler.submit(input).unwrap()
//!     })
//!     .collect();
//! for ticket in tickets {
//!     assert!(ticket.wait().unwrap() < 2);
//! }
//! scheduler.shutdown();
//! ```

pub mod client;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod scheduler;
pub mod server;
pub mod stream;
pub mod wire;

pub use client::{Client, ClientError, Retrier, RetryPolicy, StreamClient, StreamClientError};
pub use fault::{silence_injected_panics, FaultPlan, INJECTED_PANIC};
pub use metrics::{escape_label_value, Counter, Gauge, Histogram, ServeMetrics, Stage};
pub use scheduler::{
    BatchPolicy, EngineSwapError, JobError, Scheduler, SubmitError, Ticket, TicketError,
};
pub use server::{serve, serve_at, ServerConfig, ServerHandle};
pub use stream::{StreamConfig, StreamRouter};
pub use wire::{ErrorCode, Frame, Reply, WireError};

/// Appends `s` as a JSON string literal (with escaping) to `out`.
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push_str(&snn_json::Json::from(s).to_string());
}
