//! Table V: feature-correlation differences between real and synthetic data
//! for the top three models (TabDDPM, LatentDiff, SiloFuse) on Cardio
//! (easy) and Intrusion (hard). The paper renders heatmaps; we print the
//! mean |Δ| per model plus an ASCII shading of the difference matrix
//! (darker glyph = larger difference = worse).

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_bench::{emit_report, parse_cli, run_config_for, TextTable};
use silofuse_core::baselines::build_synthesizer;
use silofuse_core::pipeline::DatasetRun;
use silofuse_core::ModelKind;
use silofuse_metrics::correlation_difference;
use silofuse_observe::cli::TracedRun;
use silofuse_observe::note;
use silofuse_tabular::profiles;
use std::fmt::Write as _;

fn shade(v: f64) -> char {
    // 0 → light, 1 → dark.
    const RAMP: [char; 6] = ['.', ':', '-', '=', '#', '@'];
    let idx = ((v * RAMP.len() as f64).floor() as usize).min(RAMP.len() - 1);
    RAMP[idx]
}

fn main() {
    let mut opts = parse_cli(&["--quick", "--seed", "--datasets", "--trace", "--expose"]);
    let trace = TracedRun::start("table5", "bench", opts.trace, opts.expose.as_deref());
    if opts.datasets.is_none() {
        opts.datasets = Some(vec!["Cardio".into(), "Intrusion".into()]);
    }
    let models = [ModelKind::SiloFuse, ModelKind::LatentDiff, ModelKind::TabDdpm];

    let mut report = format!(
        "Table V — Feature-correlation differences |corr(real) - corr(synth)|; seed {}\n\
         (mean |Δ| over column pairs; lower is better; ASCII heatmap @=worst)\n\n",
        opts.seed
    );
    let mut summary = TextTable::new(&["Dataset", "SiloFuse", "LatentDiff", "TabDDPM"]);

    for name in opts.datasets.clone().unwrap() {
        let profile = match profiles::profile_by_name(&name) {
            Some(p) => p,
            None => {
                note!("unknown dataset {name}");
                continue;
            }
        };
        let cfg = run_config_for(&profile, &opts, 0);
        let run = DatasetRun::prepare(&profile, &cfg);
        let mut row = vec![profile.name.to_string()];
        for kind in models {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ kind as u64);
            let mut model =
                build_synthesizer(kind, &cfg.budget, cfg.n_clients, cfg.strategy, cfg.seed);
            model.fit(&run.train, &mut rng);
            let synth = model.synthesize(cfg.synth_rows, &mut rng);
            let diff = correlation_difference(&run.train, &synth);
            row.push(format!("{:.4}", diff.mean_abs_diff));
            note!(
                "[table5] {:<10} {:<10} mean |Δ| = {:.4}",
                profile.name,
                kind.name(),
                diff.mean_abs_diff
            );

            let _ = writeln!(
                report,
                "{} / {} (mean |Δ| {:.4}):",
                profile.name,
                kind.name(),
                diff.mean_abs_diff
            );
            let d = diff.dim;
            for i in 0..d {
                let line: String = (0..d).map(|j| shade(diff.matrix[i * d + j])).collect();
                let _ = writeln!(report, "  {line}");
            }
            report.push('\n');
        }
        summary.row(row);
    }

    report.push_str("Summary (mean |Δ|, lower better):\n\n");
    report.push_str(&summary.render());
    report.push_str(
        "\nExpected shape (paper): SiloFuse ≈ LatentDiff on both datasets; TabDDPM is\n\
         slightly better on the simple dataset (Cardio) but visibly darker (worse) on\n\
         the sparse, high-cardinality Intrusion.\n",
    );
    emit_report("table5", &report);
    trace.finish();
}
