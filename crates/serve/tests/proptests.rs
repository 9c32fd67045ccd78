//! Property tests for the serving subsystem: predictions must be a pure
//! function of the input — independent of batch policy, worker count,
//! and submission interleaving.

use proptest::prelude::*;
use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_engine::Engine;
use snn_neuron::NeuronParams;
use snn_serve::{BatchPolicy, Scheduler};
use snn_tensor::Rng;
use std::time::Duration;

fn net_from_seed(seed: u64) -> Network {
    let mut rng = Rng::seed_from(seed);
    Network::mlp(
        &[5, 10, 3],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng,
    )
}

fn rasters_strategy(n: usize) -> impl Strategy<Value = Vec<SpikeRaster>> {
    proptest::collection::vec(proptest::collection::vec(any::<bool>(), 12 * 5), 1..n).prop_map(
        |samples| {
            samples
                .into_iter()
                .map(|bits| {
                    let mut r = SpikeRaster::zeros(12, 5);
                    for (i, b) in bits.into_iter().enumerate() {
                        if b {
                            r.set(i / 5, i % 5, true);
                        }
                    }
                    r
                })
                .collect()
        },
    )
}

fn run_through(scheduler: &Scheduler, inputs: &[SpikeRaster]) -> Vec<usize> {
    let tickets: Vec<_> = inputs
        .iter()
        .map(|r| scheduler.submit(r.clone()).expect("admitted"))
        .collect();
    tickets
        .into_iter()
        .map(|t| {
            t.wait_timeout(Duration::from_secs(60))
                .expect("scheduler answered")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same request set produces the same predictions no matter how
    /// the scheduler happens to batch it: single-sample batches, odd
    /// mid-size batches with several racing workers, and full-width
    /// batches all match the engine's direct `classify_batch`.
    #[test]
    fn predictions_are_independent_of_batching(
        seed in 0u64..12,
        inputs in rasters_strategy(24),
    ) {
        let net = net_from_seed(seed);
        let reference = Engine::from_network(net.clone()).build().classify_batch(&inputs);
        for policy in [
            BatchPolicy { max_batch: 1, workers: 1, ..BatchPolicy::default() },
            BatchPolicy { max_batch: 3, workers: 4, ..BatchPolicy::default() },
            BatchPolicy { max_batch: 64, workers: 2, ..BatchPolicy::default() },
        ] {
            let scheduler = Scheduler::start(
                Engine::from_network(net.clone()).build(),
                policy,
            );
            let got = run_through(&scheduler, &inputs);
            scheduler.shutdown();
            prop_assert_eq!(
                &got,
                &reference,
                "policy max_batch={} workers={}",
                policy.max_batch,
                policy.workers
            );
        }
    }
}
