//! The `stacked-loan` and `stacked-churn` workloads: SiloFuse's stacked
//! protocol (Algorithm 1, then Algorithm 2) through the public
//! `SiloFuse::try_fit` / `try_synthesize` facade, four silos with the
//! default partition, at `TrainBudget::standard()` shapes.

use crate::attrib::{self, Region};
use crate::check::{check_table, fingerprint, CheckError, Ledger};
use crate::probes::{self, AeProbe};
use crate::report::Values;
use crate::stats::{highest, lowest, median, percentile, rows_per_s};
use crate::{Outcome, Seeds, JOB_ROWS, PAGES_PER_JOB, PAGE_ROWS};
use rand::{rngs::StdRng, SeedableRng};
use silofuse_core::distributed::CommStats;
use silofuse_core::metrics::{resemblance, ResemblanceConfig};
use silofuse_core::tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_core::tabular::{profiles, Table};
use silofuse_core::{SiloFuse, SiloFuseConfig, TrainBudget};
use silofuse_observe as observe;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

const SILOS: usize = 4;

/// Sizes of one stacked run, scaled to the run length.
#[derive(Debug, Clone)]
pub struct Plan {
    pub profile: &'static str,
    pub train_rows: usize,
    pub ae_steps: usize,
    pub diffusion_steps: usize,
    /// Fit cycles: each sets up, fits a fresh model, synthesizes one job
    /// in one call, then serves its share of the paged jobs.
    pub cycles: usize,
    /// Jobs requested in all, each as `PAGES_PER_JOB` page-sized
    /// `try_synthesize` calls.
    pub jobs: usize,
    /// Repetitions in one timed set-up block: one set-up alone is a
    /// millisecond or two.
    pub setup_reps: usize,
}

impl Plan {
    /// Sizes a run of about `seconds`. Fits are short and repeated so that
    /// the fastest of them is one the host did not slow down; step counts
    /// keep the standard budget's AE:DDPM ratio (400:500).
    pub fn new(profile: &'static str, seconds: f64) -> Self {
        let standard = TrainBudget::standard();
        let ae_steps = ((40.0 * crate::scale(seconds)) as usize).max(8);
        Self {
            profile,
            train_rows: 1024,
            ae_steps,
            diffusion_steps: ae_steps * standard.diffusion_steps / standard.ae_steps,
            cycles: 4,
            jobs: crate::jobs_per_requester(seconds, 1),
            setup_reps: 10,
        }
    }

    /// The traced run's passes fit once and make a quarter of the jobs:
    /// per-layer metrics need neither repetitions nor page percentiles.
    fn traced(&self) -> Self {
        Self { cycles: 1, jobs: (self.jobs / 4).max(2), ..self.clone() }
    }

    /// The same shapes at a few steps and one job, to warm the process up.
    fn warm_up(&self) -> Self {
        Self { ae_steps: 8, diffusion_steps: 10, cycles: 1, jobs: 1, setup_reps: 1, ..self.clone() }
    }

    /// Indices of the paged jobs cycle `cycle` serves.
    fn jobs_of(&self, cycle: usize) -> Range<usize> {
        cycle * self.jobs / self.cycles..(cycle + 1) * self.jobs / self.cycles
    }

    fn config(&self, seed: u64) -> SiloFuseConfig {
        let mut model = TrainBudget::standard().latent_config(seed);
        model.ae_steps = self.ae_steps;
        model.diffusion_steps = self.diffusion_steps;
        SiloFuseConfig { n_clients: SILOS, strategy: PartitionStrategy::Default, model }
    }
}

/// Everything one pass measured and produced.
struct Pass {
    /// Seconds per set-up, one value per timed block.
    setup_s: Vec<f64>,
    /// Wall time of each fit.
    fit_s: Vec<f64>,
    /// Wall time of each fit's one `try_synthesize` call of a whole job.
    synth_s: Vec<f64>,
    /// Wall time of each page call, in call order.
    page_s: Vec<f64>,
    /// Wall time of each paged job, from its first request to its last
    /// page.
    job_s: Vec<f64>,
    /// The Fig. 10 ledger of the first model after its fit and its
    /// one-call synthesis.
    comm: Option<CommStats>,
    train: Table,
    partitions: Vec<Table>,
    /// The one-call synthesis output of each fit.
    synthetic: Vec<Table>,
    pages: Vec<Table>,
}

/// The training table and its silo partitions; the seed fixes both.
fn inputs(plan: &Plan, seeds: &Seeds) -> (Table, Vec<Table>) {
    let profile = profiles::profile_by_name(plan.profile).expect("known dataset profile");
    let train = profile.generate(plan.train_rows, seeds.data);
    let partitions =
        PartitionPlan::new(train.n_cols(), SILOS, PartitionStrategy::Default).split(&train);
    (train, partitions)
}

/// One timed block of set-up repetitions (data generation, partitioning,
/// model construction): the last repetition's model and the seconds per
/// repetition.
fn setup_block(plan: &Plan, seeds: &Seeds) -> (SiloFuse, f64) {
    let config = plan.config(seeds.model);
    let span = observe::span("bench.setup");
    let mut model = None;
    for _ in 0..plan.setup_reps {
        std::hint::black_box(inputs(plan, seeds));
        model = Some(SiloFuse::new(config));
    }
    let per_rep = span.stop().as_secs_f64() / plan.setup_reps as f64;
    (model.expect("at least one set-up repetition"), per_rep)
}

/// Runs the workload once. Every public call is wrapped in a `bench.*`
/// span, which records only when tracing is on and times either way.
fn pass(plan: &Plan, seeds: &Seeds, ledger: &mut Ledger) -> Pass {
    let (train, partitions) = inputs(plan, seeds);
    let mut out = Pass {
        setup_s: Vec::new(),
        fit_s: Vec::new(),
        synth_s: Vec::new(),
        page_s: Vec::new(),
        job_s: Vec::new(),
        comm: None,
        train,
        partitions,
        synthetic: Vec::new(),
        pages: Vec::new(),
    };
    // One generator for the whole pass: each cycle fits a different model
    // of the same shapes.
    let mut rng = StdRng::seed_from_u64(seeds.fit);
    for cycle in 0..plan.cycles {
        let (mut model, setup_s) = setup_block(plan, seeds);
        out.setup_s.push(setup_s);
        let span = observe::span("bench.fit");
        let fitted = model.try_fit(&out.train, &mut rng);
        out.fit_s.push(span.stop().as_secs_f64());
        if ledger.op("try_fit", fitted).is_none() {
            return out;
        }
        let span = observe::span("bench.synthesize");
        let got = model.try_synthesize(JOB_ROWS, &mut rng);
        out.synth_s.push(span.stop().as_secs_f64());
        if let Some(table) = ledger.op("try_synthesize", got) {
            out.synthetic.push(table);
        }
        if cycle == 0 {
            out.comm = Some(model.comm_stats());
        }

        // A closed loop with one requester: each page is asked for after
        // the previous one arrived. A set-up block runs before each job,
        // outside its timing, so set-up samples spread over the run too.
        for _ in plan.jobs_of(cycle) {
            out.setup_s.push(setup_block(plan, seeds).1);
            let start = Instant::now();
            for _ in 0..PAGES_PER_JOB {
                let span = observe::span("bench.page");
                let got = model.try_synthesize(PAGE_ROWS, &mut rng);
                out.page_s.push(span.stop().as_secs_f64());
                if let Some(table) = ledger.op("try_synthesize", got) {
                    out.pages.push(table);
                }
            }
            out.job_s.push(start.elapsed().as_secs_f64());
        }
    }
    out
}

/// Output checks, the fingerprint and (given a metric seed) the
/// resemblance score of the one-call syntheses together, all outside the
/// timed regions.
fn verify(pass: &Pass, ledger: &mut Ledger, score_seed: Option<u64>) -> (f64, u64) {
    let schema = pass.train.schema();
    let mut all_ok = !pass.synthetic.is_empty();
    for table in &pass.synthetic {
        let checked = check_table(table, schema, JOB_ROWS);
        all_ok &= checked.is_ok();
        ledger.check("synthetic table", checked);
    }
    for page in &pass.pages {
        ledger.check("page", check_table(page, schema, PAGE_ROWS));
    }
    let mut score = f64::NAN;
    if let (true, Some(seed)) = (all_ok, score_seed) {
        let synthetic = Table::concat_rows(&pass.synthetic.iter().collect::<Vec<_>>());
        let _span = observe::span("bench.resemblance");
        let cfg = ResemblanceConfig { seed, ..Default::default() };
        score = resemblance(&pass.train, &synthetic, &cfg).composite;
    }
    (score, fingerprint(pass.synthetic.iter().chain(&pass.pages)))
}

/// Rows per second of each timed call that produced `rows` rows.
fn rates(rows: usize, seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|&s| rows_per_s(rows, s)).collect()
}

fn end_to_end(pass: &Pass, score: f64, values: &mut Values) {
    values.set("setup_s", lowest(&pass.setup_s));
    values.set("fit_s", lowest(&pass.fit_s));
    values.set("synth_rows_per_s", highest(&rates(JOB_ROWS, &pass.synth_s)));
    values.set("serve_rows_per_s", highest(&rates(JOB_ROWS, &pass.job_s)));
    let page_ms: Vec<f64> = pass.page_s.iter().map(|s| s * 1e3).collect();
    values.set("fetch_p10_ms", percentile(&page_ms, 10.0));
    values.set("fetch_p90_ms", percentile(&page_ms, 90.0));
    let payload = pass.comm.map_or(f64::NAN, |c| c.total_bytes() as f64 / 1024.0);
    values.set("comm_payload_kib", payload);
    values.set("resemblance", score);
}

/// Runs the workload: untraced, or (with `trace`) a short warm-up, then
/// untraced, then traced with telemetry on, then the layer probes.
pub fn run(plan: &Plan, seeds: &Seeds, trace: bool) -> Outcome {
    let mut ledger = Ledger::default();
    let mut values = Values::default();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "plan: {} rows={} silos={SILOS} cycles={} of set-up, fit (ae_steps={} \
         diffusion_steps={}) and one try_synthesize of {JOB_ROWS} rows; jobs={}x{JOB_ROWS} rows \
         as {PAGES_PER_JOB} try_synthesize pages of {PAGE_ROWS}; set-up blocks of {}",
        plan.profile,
        plan.train_rows,
        plan.cycles,
        plan.ae_steps,
        plan.diffusion_steps,
        plan.jobs,
        plan.setup_reps
    );

    if !trace {
        let untraced = pass(plan, seeds, &mut ledger);
        let (score, print) = verify(&untraced, &mut ledger, Some(seeds.metric));
        let _ = writeln!(report, "fingerprint: {print:016x}");
        let _ = writeln!(report, "{}", spread_line(&untraced));
        end_to_end(&untraced, score, &mut values);
        return Outcome { values, ledger, report };
    }

    // The warm-up puts the untraced and the traced pass after it on an
    // equal footing, so their ratio is the cost of tracing.
    let plan = &plan.traced();
    let warm = pass(&plan.warm_up(), seeds, &mut ledger);
    verify(&warm, &mut ledger, None);
    let untraced = pass(plan, seeds, &mut ledger);
    let (_, print) = verify(&untraced, &mut ledger, None);
    let _ = writeln!(report, "traced passes: {} jobs\nfingerprint: {print:016x}", plan.jobs);
    let hub = observe::init_scoped("pipebench", "bench");
    let traced = pass(plan, seeds, &mut ledger);
    let (_, traced_print) = verify(&traced, &mut ledger, None);
    ledger.check(
        "traced output equals untraced output",
        if traced_print == print {
            Ok(())
        } else {
            Err(CheckError::Mismatch("fingerprints differ".into()))
        },
    );
    let cfg = plan.config(seeds.model).model;
    let probe = probes::stacked(&cfg, &untraced.partitions, PAGE_ROWS, &hub, &mut report);
    attribute(&untraced, &traced, &probe, &hub, &mut values, &mut report);
    observe::shutdown();
    Outcome { values, ledger, report }
}

/// Per-layer metrics of a traced stacked run.
fn attribute(
    untraced: &Pass,
    traced: &Pass,
    probe: &probes::StackedProbe,
    hub: &observe::TelemetryHub,
    values: &mut Values,
    report: &mut String,
) {
    let bench = attrib::spans_of(hub, "bench");
    let coord = attrib::spans_of(hub, "coordinator");
    let silo_phase: Vec<f64> = (0..SILOS)
        .map(|i| {
            let spans = attrib::spans_of(hub, &format!("silo{i}"));
            attrib::path_time(&spans, "ae-train") + attrib::path_time(&spans, "encode")
        })
        .collect();
    let ae_phase: Vec<f64> = (0..SILOS)
        .map(|i| attrib::path_time(&attrib::spans_of(hub, &format!("silo{i}")), "ae-train"))
        .collect();
    let (_, slow_ae) = attrib::slowest(&ae_phase).expect("four silos");
    let (critical_silo, critical) = attrib::slowest(&silo_phase).expect("four silos");

    // The traced plan fits once and synthesizes once in one call.
    let fit_wall = attrib::path_time(&bench, "bench.fit");
    let synth_wall = attrib::path_time(&bench, "bench.synthesize");
    let pages_wall = attrib::path_time(&bench, "bench.page");
    let upload_wait = attrib::path_time(&coord, "bench.fit/comm-wait");
    let latent = attrib::path_time(&coord, "bench.fit/latent-train");
    let sample = attrib::path_time(&coord, "bench.synthesize/sample");
    let decode = attrib::path_time(&coord, "bench.synthesize/decode");
    let region = |name, wall_s, root| Region {
        name,
        wall_s,
        lanes: 1.0,
        attributed_s: attrib::child_time(&coord, root),
    };
    let regions = [
        region("fit", fit_wall, "bench.fit"),
        region("synth", synth_wall, "bench.synthesize"),
        region("pages", pages_wall, "bench.page"),
    ];

    values.set("distributed.ae_phase_s", slow_ae);
    values.set("distributed.upload_wait_s", upload_wait);
    values.set("distributed.latent_phase_s", latent);
    values.set("distributed.sample_phase_s", sample);
    values.set("distributed.decode_phase_s", decode);
    values.set("distributed.synth_other_s", (synth_wall - sample - decode).max(0.0));
    if let Some(comm) = traced.comm {
        values.set("distributed.messages", (comm.messages_up + comm.messages_down) as f64);
        values.set("distributed.retransmits", comm.retransmits as f64);
    }
    let total = |p: &Pass| {
        p.fit_s.iter().sum::<f64>() + p.synth_s.iter().sum::<f64>() + p.job_s.iter().sum::<f64>()
    };
    values.set("observe.trace_overhead", total(traced) / total(untraced));
    values.set("observe.unattributed_share", attrib::unattributed_share(&regions));

    // The probed layer costs, on the silo whose probed step is slowest.
    let slow: &AeProbe = &probe.silos[probe.slowest];
    let steps: Vec<f64> = probe.silos.iter().map(|s| s.step_ms).collect();
    values.set("tabular.batch_ms", slow.batch_ms);
    values.set("models.ae_step_ms.max", steps.iter().copied().fold(f64::NAN, f64::max));
    values.set("models.ae_step_ms.median", median(&steps));
    values.set("models.ae_enc_fwd_ms", probe.split.enc_fwd_ms);
    values.set("models.ae_dec_loss_bwd_ms", probe.split.dec_loss_bwd_ms);
    values.set("models.ae_enc_bwd_ms", probe.split.enc_bwd_ms);
    values.set("models.ae_adam_ms", probe.split.adam_ms);
    values.set("nn.gather_scatter_ms", slow.gather_scatter_ms);
    values.set("nn.kernel_share.ae", slow.kernel_share);
    values.set(
        "models.encode_us_per_row",
        probe.silos.iter().map(|s| s.encode_us_per_row).fold(f64::NAN, f64::max),
    );
    values.set("models.decode_us_per_row", probe.silos.iter().map(|s| s.decode_us_per_row).sum());
    probe.shared.set(values);

    let _ = writeln!(report, "\nphase attribution (traced pass):");
    let _ = writeln!(
        report,
        "  fit {:.3} s = coordinator comm-wait {:.3} s (silos training) + latent-train {:.3} s + residual {:.3} s",
        fit_wall,
        upload_wait,
        latent,
        regions[0].unattributed_s()
    );
    for (i, (ae, both)) in ae_phase.iter().zip(&silo_phase).enumerate() {
        let cols = untraced.partitions[i].n_cols();
        let width = probe.silos[i].head_width;
        let _ = writeln!(
            report,
            "  silo{i}: {cols} columns, decoder head {width} wide, sparse={} ae-train {ae:.3} s, ae-train+encode {both:.3} s{}",
            probe.silos[i].sparse,
            if i == critical_silo { "  <- critical path" } else { "" }
        );
    }
    let _ = writeln!(
        report,
        "  critical silo{critical_silo} {critical:.3} s covers {:.0}% of the coordinator's upload wait",
        100.0 * critical / upload_wait.max(f64::MIN_POSITIVE)
    );
    let _ = writeln!(
        report,
        "  one try_synthesize of {JOB_ROWS} rows: {synth_wall:.3} s = sample {sample:.3} s + decode {decode:.3} s + other {:.3} s",
        (synth_wall - sample - decode).max(0.0),
    );
    for r in &regions {
        let _ = writeln!(
            report,
            "  region {:<6} wall {:.3} s, unattributed {:.1}%",
            r.name,
            r.wall_s,
            100.0 * r.unattributed_s() / (r.wall_s * r.lanes).max(f64::MIN_POSITIVE)
        );
    }
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let _ = writeln!(
        report,
        "  trace overhead (both passes after a warm-up): fit {:.3}x synth {:.3}x pages {:.3}x",
        sum(&traced.fit_s) / sum(&untraced.fit_s),
        sum(&traced.synth_s) / sum(&untraced.synth_s),
        sum(&traced.job_s) / sum(&untraced.job_s)
    );
}

/// How far the run's repetitions spread: the slowest against the fastest
/// fit, one-call synthesis, paged job and set-up block. A wide spread is
/// the host slowing the run down part of the time.
fn spread_line(pass: &Pass) -> String {
    let ratio = |v: &[f64]| highest(v) / lowest(v);
    format!(
        "repetitions (slowest / fastest): {} fits {:.2}x, {} one-call syntheses {:.2}x, {} paged jobs {:.2}x, {} set-up blocks {:.2}x; median page {:.1} ms",
        pass.fit_s.len(),
        ratio(&pass.fit_s),
        pass.synth_s.len(),
        ratio(&pass.synth_s),
        pass.job_s.len(),
        ratio(&pass.job_s),
        pass.setup_s.len(),
        ratio(&pass.setup_s),
        median(&pass.page_s) * 1e3
    )
}
