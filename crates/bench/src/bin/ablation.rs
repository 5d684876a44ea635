//! Ablations of SiloFuse's design choices (DESIGN.md §3), beyond the
//! paper's own tables:
//!
//! 1. **Latent noising** (the conclusion's DP-style future-work knob):
//!    resemblance and attribute-inference resistance vs client-side noise.
//! 2. **Diffusion parameterization**: the paper's x0-prediction (Eq. 5) vs
//!    standard noise-prediction on latents.
//! 3. **Latent standardisation**: the latent-diffusion scale trick on/off.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_bench::{emit_report, parse_cli, run_config_for, TextTable};
use silofuse_core::pipeline::DatasetRun;
use silofuse_core::{SiloFuse, SiloFuseConfig};
use silofuse_metrics::{privacy, resemblance, PrivacyConfig, ResemblanceConfig};
use silofuse_observe::cli::TracedRun;
use silofuse_observe::note;
use silofuse_tabular::profiles;

fn main() {
    let mut opts = parse_cli(&["--quick", "--seed", "--datasets", "--trace", "--expose"]);
    let trace = TracedRun::start("ablation", "bench", opts.trace, opts.expose.as_deref());
    if opts.datasets.is_none() {
        opts.datasets = Some(vec!["Loan".into()]);
    }
    let name = opts.datasets.clone().unwrap()[0].clone();
    let profile = profiles::profile_by_name(&name).expect("known dataset");
    let cfg = run_config_for(&profile, &opts, 0);
    let run = DatasetRun::prepare(&profile, &cfg);

    let mut report = format!(
        "Ablation study on {} ({} rows, seed {})\n",
        profile.name,
        run.train.n_rows(),
        opts.seed
    );

    let evaluate = |model_cfg: silofuse_core::models::LatentDiffConfig,
                    with_privacy: bool|
     -> (f64, Option<f64>) {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xab1a);
        let mut model = SiloFuse::new(SiloFuseConfig {
            n_clients: cfg.n_clients,
            strategy: cfg.strategy,
            model: model_cfg,
        });
        model.fit(&run.train, &mut rng);
        let synth = model.synthesize(cfg.synth_rows, &mut rng);
        let r = resemblance(
            &run.train,
            &synth,
            &ResemblanceConfig { seed: cfg.seed, ..Default::default() },
        );
        let p = with_privacy.then(|| {
            privacy(&run.train, &synth, &PrivacyConfig { seed: cfg.seed, ..Default::default() })
                .attribute_inference
        });
        (r.composite, p)
    };

    // --- Ablation 1: client-side latent noise.
    report.push_str("\n[1] Client-side latent noising (DP-style knob):\n\n");
    let mut t1 = TextTable::new(&["noise std", "resemblance", "attr-inference resistance"]);
    for noise in [0.0f32, 0.1, 0.25, 0.5, 1.0] {
        let mut model_cfg = cfg.budget.latent_config(cfg.seed);
        model_cfg.latent_noise_std = noise;
        let (res, p) = evaluate(model_cfg, true);
        note!("[ablation] noise {noise:>4}: resemblance {res:.1} privacy {:?}", p);
        t1.row(vec![format!("{noise:.2}"), format!("{res:.1}"), format!("{:.1}", p.unwrap())]);
    }
    report.push_str(&t1.render());
    report.push_str(
        "Expected: resemblance degrades monotonically-ish with noise while attack\n\
         resistance trends upward — the privacy/quality tradeoff of §V-F.\n",
    );

    // --- Ablation 2: x0- vs noise-prediction.
    report.push_str("\n[2] Diffusion parameterization on latents:\n\n");
    let mut t2 = TextTable::new(&["objective", "resemblance"]);
    for (label, predict_noise) in [("predict-x0 (paper Eq. 5)", false), ("predict-noise", true)] {
        let mut model_cfg = cfg.budget.latent_config(cfg.seed);
        model_cfg.predict_noise = predict_noise;
        let (res, _) = evaluate(model_cfg, false);
        note!("[ablation] {label}: resemblance {res:.1}");
        t2.row(vec![label.to_string(), format!("{res:.1}")]);
    }
    report.push_str(&t2.render());

    // --- Ablation 3: latent standardisation.
    report.push_str("\n[3] Latent standardisation before diffusion:\n\n");
    let mut t3 = TextTable::new(&["scaler", "resemblance"]);
    for (label, scale) in [("standardised (default)", true), ("raw latents", false)] {
        let mut model_cfg = cfg.budget.latent_config(cfg.seed);
        model_cfg.scale_latents = scale;
        let (res, _) = evaluate(model_cfg, false);
        note!("[ablation] scaler={scale}: resemblance {res:.1}");
        t3.row(vec![label.to_string(), format!("{res:.1}")]);
    }
    report.push_str(&t3.render());
    report.push_str(
        "\nDiffusion assumes roughly unit-scale inputs; unscaled latents typically cost\n\
         several resemblance points, which is why both SiloFuse and LatentDiff apply\n\
         the scale trick here.\n",
    );

    emit_report("ablation", &report);
    trace.finish();
}
