//! Fig. 10: bytes communicated during training — SiloFuse (stacked, one
//! round) vs E2EDistr (per-iteration activations + gradients) on Abalone
//! (few features) and Intrusion (many), at 50k / 500k / 5M iterations.
//!
//! SiloFuse's cost is *measured* directly (it does not depend on the
//! iteration count). E2EDistr's per-iteration cost is measured over a real
//! run of the protocol and extrapolated to the paper's iteration counts —
//! running 5M actual iterations would only multiply the same constant.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_bench::{emit_report, human_bytes, net_config, parse_cli, run_config_for, TextTable};
use silofuse_core::pipeline::DatasetRun;
use silofuse_distributed::e2e_distr::E2eDistributed;
use silofuse_distributed::stacked::SiloFuseModel;
use silofuse_observe::cli::TracedRun;
use silofuse_observe::note;
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::profiles;

const ITERATIONS: [u64; 3] = [50_000, 500_000, 5_000_000];

fn main() {
    let mut opts = parse_cli(&[
        "--quick",
        "--seed",
        "--datasets",
        "--trace",
        "--expose",
        "--faults",
        "--retry-deadline",
        "--retry-max-backoff",
        "--checkpoint-dir",
        "--checkpoint-every",
        "--resume",
    ]);
    let trace = TracedRun::start("fig10", "bench", opts.trace, opts.expose.as_deref());
    if opts.datasets.is_none() {
        opts.datasets = Some(vec!["Abalone".into(), "Intrusion".into()]);
    }

    let net = net_config(&opts);
    let mut report = format!(
        "Fig. 10 — Bytes communicated during training, SiloFuse vs E2EDistr;\n\
         4 clients, seed {}{}\n\n",
        opts.seed,
        match &opts.faults {
            Some(plan) => format!(", link faults {plan:?}"),
            None => String::new(),
        }
    );

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
        let plan = PartitionPlan::new(run.train.n_cols(), 4, PartitionStrategy::Default);
        let partitions = plan.split(&run.train);

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let model_cfg = cfg.budget.latent_config(cfg.seed);
        let sf_ckpt = silofuse_bench::checkpointer(&opts, &format!("fig10-{name}-stacked"));
        let stacked = SiloFuseModel::try_fit_with_checkpoints(
            &partitions,
            model_cfg,
            &net,
            sf_ckpt.as_ref(),
            &mut rng,
        )
        .unwrap_or_else(|e| panic!("SiloFuse training failed: {e}"));
        let sf_stats = stacked.comm_stats();
        let sf_bytes = sf_stats.total_bytes();

        // Short measured E2EDistr run for the per-iteration constant.
        let mut short = model_cfg;
        short.ae_steps = 20;
        short.diffusion_steps = 20;
        let e2e_ckpt = silofuse_bench::checkpointer(&opts, &format!("fig10-{name}-e2e"));
        let e2e = E2eDistributed::try_fit_with_checkpoints(
            &partitions,
            short,
            &net,
            e2e_ckpt.as_ref(),
            &mut rng,
        )
        .unwrap_or_else(|e| panic!("E2EDistr training failed: {e}"));
        let per_iter = e2e.bytes_per_iteration();

        report.push_str(&format!(
            "{} ({} training rows, {} features, latent width {}):\n",
            profile.name,
            run.train.n_rows(),
            run.train.n_cols(),
            run.train.n_cols()
        ));
        let mut table =
            TextTable::new(&["iterations", "SiloFuse (measured)", "E2EDistr (measured/iter x N)"]);
        for iters in ITERATIONS {
            table.row(vec![
                iters.to_string(),
                human_bytes(sf_bytes as f64),
                human_bytes(per_iter * iters as f64),
            ]);
        }
        report.push_str(&table.render());
        report.push_str(&format!(
            "SiloFuse rounds: {} | E2EDistr: {} per iteration, O(#iterations) total\n",
            sf_stats.rounds,
            human_bytes(per_iter)
        ));
        // Retransmitted bytes are recovery overhead, not protocol payload:
        // they are ledgered separately so the Fig. 10 numbers above stay
        // comparable between clean and faulty runs.
        if opts.faults.is_some() {
            let e2e_stats = e2e.comm_stats();
            report.push_str(&format!(
                "fault recovery overhead (excluded above): SiloFuse {} retransmits ({} + {} acks), \
                 E2EDistr {} retransmits ({} + {} acks)\n",
                sf_stats.retransmits,
                human_bytes(sf_stats.bytes_retried as f64),
                human_bytes(sf_stats.bytes_ack as f64),
                e2e_stats.retransmits,
                human_bytes(e2e_stats.bytes_retried as f64),
                human_bytes(e2e_stats.bytes_ack as f64),
            ));
        }
        report.push('\n');
        note!(
            "[fig10] {:<10} SiloFuse {} fixed vs E2EDistr {}/iter",
            profile.name,
            human_bytes(sf_bytes as f64),
            human_bytes(per_iter)
        );
    }

    report.push_str(
        "Expected shape (paper): SiloFuse's cost is flat in the iteration count —\n\
         the latents travel once — while E2EDistr grows linearly and exceeds SiloFuse\n\
         by orders of magnitude at 5M iterations. A naive distributed TabDDPM would be\n\
         worse still: it would ship one-hot features inflated per Table II.\n",
    );
    emit_report("fig10", &report);
    trace.finish();
}
