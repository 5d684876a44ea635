//! The benchmark's metric catalogue and its result line.
//!
//! The end-to-end and per-layer tables here are the names `BENCHMARK.json`
//! declares; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction of a metric, for the human-readable report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of untraced runs (`--trace 0`), every workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Lower),
    spec("fit_s", "s", Lower),
    spec("synth_rows_per_s", "rows/s", Higher),
    spec("serve_rows_per_s", "rows/s", Higher),
    spec("fetch_p10_ms", "ms", Lower),
    spec("fetch_p90_ms", "ms", Lower),
    spec("comm_payload_kib", "KiB", Lower),
    spec("resemblance", "score", Higher),
    spec("peak_rss_mib", "MiB", Lower),
    spec("ok_share", "fraction", Higher),
];

/// Metrics of the traced run (`--trace 1`).
pub const PER_LAYER: &[Spec] = &[
    spec("tabular.batch_ms", "ms", Lower),
    spec("nn.gemm_gflops", "GFLOP/s", Higher),
    spec("nn.gather_scatter_ms", "ms", Lower),
    spec("nn.kernel_share.ae", "fraction", Higher),
    spec("nn.kernel_share.ddpm", "fraction", Higher),
    spec("nn.kernel_share.sample", "fraction", Higher),
    spec("nn.workspace_misses_per_step", "count", Lower),
    spec("models.ae_step_ms.max", "ms", Lower),
    spec("models.ae_step_ms.median", "ms", Lower),
    spec("models.ae_enc_fwd_ms", "ms", Lower),
    spec("models.ae_dec_loss_bwd_ms", "ms", Lower),
    spec("models.ae_enc_bwd_ms", "ms", Lower),
    spec("models.ae_adam_ms", "ms", Lower),
    spec("models.encode_us_per_row", "us", Lower),
    spec("models.decode_us_per_row", "us", Lower),
    spec("diffusion.train_step_ms", "ms", Lower),
    spec("diffusion.sample_us_per_row", "us", Lower),
    spec("distributed.ae_phase_s", "s", Lower),
    spec("distributed.upload_wait_s", "s", Lower),
    spec("distributed.latent_phase_s", "s", Lower),
    spec("distributed.sample_phase_s", "s", Lower),
    spec("distributed.decode_phase_s", "s", Lower),
    spec("distributed.synth_other_s", "s", Lower),
    spec("distributed.messages", "count", Lower),
    spec("distributed.retransmits", "count", Lower),
    spec("serve.sample_ms_per_page", "ms", Lower),
    spec("serve.wire_ms_per_page", "ms", Lower),
    spec("serve.scaling_2v1", "ratio", Higher),
    spec("serve.rejections", "count", Lower),
    spec("serve.control_bytes_per_row", "B", Lower),
    spec("checkpoint.load_s", "s", Lower),
    spec("observe.trace_overhead", "ratio", Lower),
    spec("observe.unattributed_share", "fraction", Lower),
];

/// Values measured by one run, keyed by metric name. A metric the run
/// never set is absent: the workload does not exercise it.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Human-readable table of `specs`, one metric per line, marking the
/// ones this workload does not exercise as absent.
pub fn render_table(specs: &[Spec], values: &Values) -> String {
    let mut out = String::new();
    for s in specs {
        let arrow = match s.better {
            Lower => "lower is better",
            Higher => "higher is better",
        };
        match values.get(s.name) {
            Some(v) => {
                let _ = writeln!(out, "  {:<32} {:>16.6} {:<9} ({arrow})", s.name, v, s.unit);
            }
            None => {
                let _ = writeln!(out, "  {:<32} {:>16} {:<9}", s.name, "absent", s.unit);
            }
        }
    }
    out
}

/// Declared metrics of `specs` whose measured value is NaN or infinite:
/// a measurement that went wrong.
pub fn non_finite(specs: &[Spec], values: &Values) -> Vec<String> {
    specs
        .iter()
        .filter_map(|s| values.get(s.name).filter(|v| !v.is_finite()).map(|v| (s.name, v)))
        .map(|(name, v)| format!("metric {name} is not finite ({v})"))
        .collect()
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `specs` with its unit. The format demands a number for each metric, so
/// a metric the workload does not exercise is written as 0 (the table
/// above the line says "absent"), as is a non-finite value (which
/// [`non_finite`] reports and which makes the run incorrect).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Values,
) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|s| {
            let v = values.get(s.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", s.name, s.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(s.name.len() <= 64 && s.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(s.unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let Ok(json) = std::fs::read_to_string("../BENCHMARK.json") else {
            panic!("BENCHMARK.json must sit next to the benchmark directory");
        };
        let declared = json.matches("\"name\"").count();
        // Three workloads plus every metric.
        assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
        for s in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", s.name, s.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn the_result_line_carries_every_metric() {
        let mut values = Values::default();
        values.set("setup_s", 0.25);
        values.set("fit_s", f64::NAN);
        let line = result_line(true, 3, 0, END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"fit_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(non_finite(END_TO_END, &values).len(), 1);
        for s in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{", s.name)));
        }
        let table = render_table(END_TO_END, &values);
        assert!(table.contains("absent"));
    }
}
