//! The workloads and metrics the benchmark runs and prints. Their names
//! and units come from `BENCHMARK.json`, compiled in. This module adds
//! only what that file has no field for: for each per-layer metric, the
//! end-to-end metrics and workloads a change to that layer should move,
//! and the workloads whose end-to-end metrics it should leave alone.

use snn_json::Json;

/// The benchmark definition at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Workload names and metric `(name, unit)` pairs, in `BENCHMARK.json`
/// order.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, printed by every untraced run.
    pub end_to_end: Vec<(String, String)>,
    /// Per-layer metrics, printed by every traced run.
    pub per_layer: Vec<(String, String)>,
}

fn entries(doc: &Json, list: &str, second: &str) -> Result<Vec<(String, String)>, String> {
    let field = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: a {list} entry has no {key}"))
    };
    doc.get(list)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .map(|entry| Ok((field(entry, "name")?, field(entry, second)?)))
        .collect()
}

impl Catalogue {
    /// Reads the compiled-in `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message if the file does not parse or lacks a list or field.
    pub fn load() -> Result<Catalogue, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Catalogue {
            workloads: entries(&doc, "workloads", "why")?
                .into_iter()
                .map(|(name, _)| name)
                .collect(),
            end_to_end: entries(&doc, "end_to_end", "unit")?,
            per_layer: entries(&doc, "per_layer", "unit")?,
        })
    }

    /// The metrics a run in this mode prints.
    pub fn metrics(&self, trace: bool) -> &[(String, String)] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// For each per-layer metric: the end-to-end metrics a change to it
/// should move, the workloads on which it should move them, and the
/// workloads whose end-to-end metrics it should leave alone. Lists are
/// comma-separated; `all` means every workload. A traced run prints
/// this table in its report. The streaming path's three layers are
/// timed in the `serve_http` traced run, but no workload runs that path
/// end to end, so they name no metric to move.
#[rustfmt::skip]
pub const SHOULD_MOVE: [(&str, &str, &str, &str); 33] = [
    ("data.generate_ms", "setup_s", "all", ""),
    ("core.network.forward_us", "samples_per_s", "train_shd", "serve_http"),
    ("core.network.record_kb", "samples_per_s", "infer_shd", "train_shd"),
    ("core.layer0.spikes", "energy_nj_per_sample", "infer_shd", ""),
    ("core.layer1.spikes", "energy_nj_per_sample", "infer_shd", ""),
    ("core.layer2.spikes", "energy_nj_per_sample", "infer_shd", ""),
    ("core.layer0.synops", "samples_per_s", "train_shd,infer_shd", ""),
    ("core.layer1.synops", "samples_per_s", "train_shd,infer_shd", ""),
    ("core.layer2.synops", "samples_per_s", "train_shd,infer_shd", ""),
    ("core.train.loss_us", "samples_per_s", "train_shd", "infer_shd,serve_http"),
    ("core.train.backward_us", "samples_per_s", "train_shd", "infer_shd,serve_http"),
    ("core.train.backward_density", "samples_per_s,train_loss", "train_shd", ""),
    ("core.train.optimizer_us", "samples_per_s", "train_shd", ""),
    ("core.train.thread_scaling", "samples_per_s", "train_shd", ""),
    ("core.engine.session_us", "samples_per_s,latency_p50_ms", "infer_shd,serve_http", "train_shd"),
    ("core.engine.thread_scaling", "samples_per_s", "infer_shd", "serve_http"),
    ("json.parse_us", "latency_p50_ms", "serve_http", ""),
    ("core.spike.from_json_us", "latency_p50_ms", "serve_http", ""),
    ("serve.http.request_kb", "latency_p50_ms", "serve_http", ""),
    ("serve.scheduler.roundtrip_us", "latency_p50_ms", "serve_http", ""),
    ("serve.scheduler.wait_us", "latency_p50_ms", "serve_http", "infer_shd"),
    ("serve.scheduler.mean_batch", "samples_per_s", "serve_http", ""),
    ("serve.scheduler.rejected", "success_rate", "serve_http", ""),
    ("serve.http.transport_us", "latency_p50_ms", "serve_http", ""),
    ("serve.null_roundtrip_us", "latency_p50_ms", "serve_http", ""),
    ("core.stream.sample_us", "", "", "serve_http"),
    ("serve.wire.sample_us", "", "", "serve_http"),
    ("serve.stream.transport_us", "", "", "serve_http"),
    ("hardware.layer0.energy_nj", "energy_nj_per_sample", "infer_shd", ""),
    ("hardware.layer1.energy_nj", "energy_nj_per_sample", "infer_shd", ""),
    ("hardware.layer2.energy_nj", "energy_nj_per_sample", "infer_shd", ""),
    ("bench.unattributed_pct", "", "all", ""),
    ("bench.trace_overhead_pct", "", "all", ""),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let c = Catalogue::load().unwrap();
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|(name, _)| name.as_str())
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
    }

    #[test]
    fn should_move_covers_every_layer_and_names_known_targets() {
        let c = Catalogue::load().unwrap();
        let layers: Vec<&str> = c.per_layer.iter().map(|(name, _)| name.as_str()).collect();
        let mapped: Vec<&str> = SHOULD_MOVE.iter().map(|row| row.0).collect();
        assert_eq!(mapped, layers);
        let known = |list: &str, names: &[&str]| {
            list.split(',')
                .filter(|n| !n.is_empty() && *n != "all")
                .all(|n| names.contains(&n))
        };
        let metrics: Vec<&str> = c.end_to_end.iter().map(|(n, _)| n.as_str()).collect();
        let workloads: Vec<&str> = c.workloads.iter().map(String::as_str).collect();
        for (name, moves, on, not_on) in SHOULD_MOVE {
            assert!(known(moves, &metrics), "{name} moves an unknown metric");
            assert!(known(on, &workloads), "{name} names an unknown workload");
            assert!(
                known(not_on, &workloads),
                "{name} names an unknown workload"
            );
        }
    }
}
