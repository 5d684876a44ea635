//! Combined sweep: trains each (model, dataset) pair once and emits Tables
//! III (resemblance), IV (utility), and VI (privacy, top-3 models) from the
//! same runs.

use silofuse_bench::{cell, emit_report, parse_cli, run_config_for, selected_profiles, TextTable};
use silofuse_core::pipeline::{evaluate_model, mean_std, DatasetRun};
use silofuse_core::ModelKind;
use silofuse_observe::cli::TracedRun;
use silofuse_observe::note;

fn main() {
    let opts = parse_cli(&["--quick", "--trials", "--seed", "--datasets", "--trace", "--expose"]);
    let trace = TracedRun::start("sweep", "bench", opts.trace, opts.expose.as_deref());
    let profiles = selected_profiles(&opts);
    let models = ModelKind::all();
    let privacy_models = [ModelKind::TabDdpm, ModelKind::LatentDiff, ModelKind::SiloFuse];

    let mut res = vec![vec![(0.0, 0.0); profiles.len()]; models.len()];
    let mut util = vec![vec![(0.0, 0.0); profiles.len()]; models.len()];
    let mut priv_scores = vec![vec![(0.0, 0.0); profiles.len()]; privacy_models.len()];

    for (d, profile) in profiles.iter().enumerate() {
        for (m, &kind) in models.iter().enumerate() {
            let with_privacy = privacy_models.contains(&kind);
            let mut res_t = Vec::new();
            let mut util_t = Vec::new();
            let mut priv_t = Vec::new();
            for trial in 0..opts.trials {
                let cfg = run_config_for(profile, &opts, trial);
                let run = DatasetRun::prepare(profile, &cfg);
                let trial_span = silofuse_observe::span("trial");
                let s = evaluate_model(kind, &run, &cfg, with_privacy);
                let elapsed = trial_span.stop();
                res_t.push(s.resemblance.composite);
                util_t.push(s.utility.score);
                if let Some(p) = s.privacy {
                    priv_t.push(p.composite);
                }
                note!(
                    "[sweep] {:<10} {:<11} trial {} | res {:>5.1} util {:>5.1}{} | {:.1}s",
                    profile.name,
                    kind.name(),
                    trial,
                    s.resemblance.composite,
                    s.utility.score,
                    s.privacy.map(|p| format!(" priv {:>5.1}", p.composite)).unwrap_or_default(),
                    elapsed.as_secs_f64()
                );
            }
            res[m][d] = mean_std(&res_t);
            util[m][d] = mean_std(&util_t);
            if with_privacy {
                let pm = privacy_models.iter().position(|&k| k == kind).unwrap();
                priv_scores[pm][d] = mean_std(&priv_t);
            }
        }
    }

    type ScoreRow = Vec<(f64, f64)>;
    let render = |title: &str,
                  rows: &[(&str, &ScoreRow)],
                  with_ppd: Option<(&ScoreRow, Vec<&ScoreRow>)>|
     -> String {
        let mut header = vec!["Model"];
        header.extend(profiles.iter().map(|p| p.name));
        let mut table = TextTable::new(&header);
        for (name, scores) in rows {
            let mut row = vec![name.to_string()];
            row.extend(scores.iter().map(|&(m, s)| cell(m, s)));
            table.row(row);
        }
        if let Some((silofuse, gans)) = with_ppd {
            let mut ppd = vec!["PPD (vs GAN)".to_string()];
            for d in 0..profiles.len() {
                let best_gan = gans.iter().map(|g| g[d].0).fold(f64::NEG_INFINITY, f64::max);
                ppd.push(format!("{:+.1}", silofuse[d].0 - best_gan));
            }
            table.row(ppd);
        }
        format!("{title}\n\n{}", table.render())
    };

    let model_rows: Vec<(&str, &Vec<(f64, f64)>)> =
        models.iter().enumerate().map(|(m, k)| (k.name(), &res[m])).collect();
    let silofuse_idx = models.iter().position(|&k| k == ModelKind::SiloFuse).unwrap();
    let gan_rows: Vec<&Vec<(f64, f64)>> = models
        .iter()
        .enumerate()
        .filter(|(_, &k)| matches!(k, ModelKind::GanConv | ModelKind::GanLinear))
        .map(|(i, _)| &res[i])
        .collect();
    let t3 = render(
        &format!(
            "Table III — Resemblance Scores (0-100); {} trial(s), seed {}",
            opts.trials, opts.seed
        ),
        &model_rows,
        Some((&res[silofuse_idx], gan_rows)),
    );
    emit_report("table3", &t3);

    let util_rows: Vec<(&str, &Vec<(f64, f64)>)> =
        models.iter().enumerate().map(|(m, k)| (k.name(), &util[m])).collect();
    let gan_rows_u: Vec<&Vec<(f64, f64)>> = models
        .iter()
        .enumerate()
        .filter(|(_, &k)| matches!(k, ModelKind::GanConv | ModelKind::GanLinear))
        .map(|(i, _)| &util[i])
        .collect();
    let t4 = render(
        &format!("Table IV — Utility Scores (0-100); {} trial(s), seed {}", opts.trials, opts.seed),
        &util_rows,
        Some((&util[silofuse_idx], gan_rows_u)),
    );
    emit_report("table4", &t4);

    let priv_rows: Vec<(&str, &Vec<(f64, f64)>)> =
        privacy_models.iter().enumerate().map(|(m, k)| (k.name(), &priv_scores[m])).collect();
    let t6 = render(
        &format!(
            "Table VI — Privacy Scores (0-100, higher = safer); {} trial(s), seed {}",
            opts.trials, opts.seed
        ),
        &priv_rows,
        None,
    );
    emit_report("table6", &t6);
    trace.finish();
}
