//! Theorem 1 (latent irreversibility), empirically: a coordinator holding
//! only the uploaded latents cannot reconstruct client features, while the
//! client's private decoder can — and attacker power grows only with
//! *leaked auxiliary pairs*, which the protocol never provides.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_bench::{emit_report, parse_cli, run_config_for, TextTable};
use silofuse_core::pipeline::DatasetRun;
use silofuse_distributed::privacy::{
    blind_attacker_reconstruction, decoder_reconstruction, knn_attacker_reconstruction,
    reconstruction_error,
};
use silofuse_models::{AutoencoderConfig, TabularAutoencoder};
use silofuse_observe::cli::TracedRun;
use silofuse_observe::note;
use silofuse_tabular::profiles;

fn main() {
    let mut opts = parse_cli(&["--quick", "--seed", "--datasets", "--trace", "--expose"]);
    let trace = TracedRun::start("theorem1", "bench", opts.trace, opts.expose.as_deref());
    if opts.datasets.is_none() {
        opts.datasets = Some(vec!["Loan".into(), "Diabetes".into()]);
    }

    let mut report = format!(
        "Theorem 1 — latent irreversibility, empirical companion; seed {}\n\
         (normalized reconstruction error: numeric RMSE in std units +\n\
         categorical error rate; lower = better reconstruction)\n\n",
        opts.seed
    );
    let mut table = TextTable::new(&[
        "Dataset",
        "decoder (legit)",
        "blind attacker",
        "kNN +16 leaked rows",
        "kNN +25% leaked",
    ]);

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
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ae = TabularAutoencoder::new(
            &run.train,
            AutoencoderConfig {
                hidden_dim: cfg.budget.hidden_dim,
                lr: 2e-3,
                seed: cfg.seed,
                ..Default::default()
            },
        );
        ae.fit(&run.train, cfg.budget.ae_steps * 2, cfg.budget.batch_size, &mut rng);
        let latents = ae.encode(&run.train);

        let err_decoder =
            reconstruction_error(&run.train, &decoder_reconstruction(&mut ae, &run.train));
        let err_blind =
            reconstruction_error(&run.train, &blind_attacker_reconstruction(&run.train));
        let err_knn16 = reconstruction_error(
            &run.train,
            &knn_attacker_reconstruction(&latents, &run.train, 16),
        );
        let err_knn25 = reconstruction_error(
            &run.train,
            &knn_attacker_reconstruction(&latents, &run.train, run.train.n_rows() / 4),
        );
        note!(
            "[theorem1] {:<10} decoder {err_decoder:.3} blind {err_blind:.3} knn16 {err_knn16:.3} knn25% {err_knn25:.3}",
            profile.name
        );
        table.row(vec![
            profile.name.to_string(),
            format!("{err_decoder:.3}"),
            format!("{err_blind:.3}"),
            format!("{err_knn16:.3}"),
            format!("{err_knn25:.3}"),
        ]);
    }

    report.push_str(&table.render());
    report.push_str(
        "\nReading: the privately-held decoder reconstructs far below the blind\n\
         attacker's error. An attacker with latents but NO decoder and NO (latent,\n\
         feature) pairs cannot beat the blind bound (Lemmas 1-2: the pre-image is\n\
         unidentifiable); reconstruction only improves with leaked auxiliary pairs,\n\
         which SiloFuse's protocol never transmits.\n",
    );
    emit_report("theorem1", &report);
    trace.finish();
}
