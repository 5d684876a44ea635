//! Fig. 11: robustness of SiloFuse to the number of clients (4 vs 8) and
//! to permuted feature assignments (default vs shuffled with the paper's
//! seed 12343), on Heloc, Loan, and Churn — reporting resemblance and
//! utility per configuration.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_bench::{cell, emit_report, parse_cli, run_config_for, TextTable};
use silofuse_core::pipeline::{mean_std, DatasetRun};
use silofuse_core::{SiloFuse, SiloFuseConfig};
use silofuse_metrics::{resemblance, utility, ResemblanceConfig, UtilityConfig};
use silofuse_observe::cli::TracedRun;
use silofuse_observe::note;
use silofuse_tabular::partition::{PartitionStrategy, PAPER_PERMUTATION_SEED};
use silofuse_tabular::profiles;

fn main() {
    let mut opts =
        parse_cli(&["--quick", "--trials", "--seed", "--datasets", "--trace", "--expose"]);
    let trace = TracedRun::start("fig11", "bench", opts.trace, opts.expose.as_deref());
    if opts.datasets.is_none() {
        opts.datasets = Some(vec!["Heloc".into(), "Loan".into(), "Churn".into()]);
    }
    let configs: [(usize, PartitionStrategy, &str); 4] = [
        (4, PartitionStrategy::Default, "4 clients/default"),
        (4, PartitionStrategy::Permuted { seed: PAPER_PERMUTATION_SEED }, "4 clients/permuted"),
        (8, PartitionStrategy::Default, "8 clients/default"),
        (8, PartitionStrategy::Permuted { seed: PAPER_PERMUTATION_SEED }, "8 clients/permuted"),
    ];

    let mut report = format!(
        "Fig. 11 — SiloFuse robustness to client count and feature permutation;\n\
         {} trial(s), seed {} (permutation seed {})\n\n",
        opts.trials, opts.seed, PAPER_PERMUTATION_SEED
    );
    let mut table = TextTable::new(&["Dataset", "Configuration", "Resemblance", "Utility"]);

    for name in opts.datasets.clone().unwrap() {
        let profile = match profiles::profile_by_name(&name) {
            Some(p) => p,
            None => {
                note!("unknown dataset {name}");
                continue;
            }
        };
        for &(n_clients, strategy, label) in &configs {
            let mut res_trials = Vec::new();
            let mut util_trials = Vec::new();
            for trial in 0..opts.trials {
                let mut cfg = run_config_for(&profile, &opts, trial);
                cfg.n_clients = n_clients;
                cfg.strategy = strategy;
                let run = DatasetRun::prepare(&profile, &cfg);
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ n_clients as u64);
                let mut model = SiloFuse::new(SiloFuseConfig {
                    n_clients,
                    strategy,
                    model: cfg.budget.latent_config(cfg.seed),
                });
                model.fit(&run.train, &mut rng);
                let synth = model.synthesize(cfg.synth_rows, &mut rng);
                let r = resemblance(
                    &run.train,
                    &synth,
                    &ResemblanceConfig { seed: cfg.seed, ..Default::default() },
                );
                let u = utility(
                    &run.train,
                    &synth,
                    &run.holdout,
                    &UtilityConfig { seed: cfg.seed, ..Default::default() },
                );
                res_trials.push(r.composite);
                util_trials.push(u.score);
            }
            let (rm, rs) = mean_std(&res_trials);
            let (um, us) = mean_std(&util_trials);
            note!(
                "[fig11] {:<8} {:<20} resemblance {:.1} utility {:.1}",
                profile.name,
                label,
                rm,
                um
            );
            table.row(vec![
                profile.name.to_string(),
                label.to_string(),
                cell(rm, rs),
                cell(um, us),
            ]);
        }
    }

    report.push_str(&table.render());
    report.push_str(
        "\nExpected shape (paper): scores stay close to their 4-client/default level\n\
         across all four configurations — centralizing the latents lets the DDPM\n\
         recover cross-feature links regardless of how features are assigned. Isolated\n\
         deviations (paper: Loan resemblance at 8 clients/permuted) are within a few\n\
         points.\n",
    );
    emit_report("fig11", &report);
    trace.finish();
}
