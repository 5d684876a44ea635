//! The `serve-loan` workload: a server restart followed by paged fetches.
//!
//! A preparation step fits a Loan `LatentDiff` through
//! `ModelRegistry::open` over an empty checkpoint directory (its wall time
//! is `fit_s`). The timed part is a series of restarts: each reopens the
//! registry over those checkpoints, starts a `SynthesisServer` with the
//! default `ServeConfig`, connects the tenants, and has each tenant fetch
//! one job. The loop is closed: each tenant connection waits for its page
//! before asking for the next, and the server rejects excess load instead
//! of queueing it.

use crate::attrib::{self, Region};
use crate::check::{check_table, fingerprint, table_bytes, wire_rounded, CheckError, Ledger};
use crate::report::Values;
use crate::stats::{highest, lowest, median, percentile, rows_per_s};
use crate::{Outcome, Seeds};
use silofuse_core::distributed::ServeRejectCode;
use silofuse_core::metrics::{resemblance, ResemblanceConfig};
use silofuse_core::tabular::{profiles, Table};
use silofuse_core::{
    ModelRegistry, ModelSpec, ServeConfig, ServeError, SynthesisServer, TenantClient, TrainBudget,
};
use silofuse_observe as observe;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

const MODEL: &str = "loan";
const JOB_ROWS: u32 = crate::JOB_ROWS as u32;
const PAGE_ROWS: u32 = crate::PAGE_ROWS as u32;
const PAGES_PER_JOB: u32 = crate::PAGES_PER_JOB as u32;

/// Sizes of one serve run, scaled to the run length.
#[derive(Debug, Clone)]
pub struct Plan {
    pub train_rows: usize,
    pub ae_steps: usize,
    pub diffusion_steps: usize,
    /// Tenant connections in the timed loop: 2, one per core of the
    /// 2-core host the workload is sized for.
    pub tenants: usize,
    /// Restarts: each reopens the registry and starts a server, then
    /// every tenant fetches one job, the job numbered by the cycle.
    pub cycles: usize,
    /// Tenant 0's jobs in this many evenly spaced cycles: sampled directly
    /// too, checked byte-exact against their pages, and scored.
    pub fixed_jobs: usize,
    /// Fits of the served model's spec: the preparation fit, whose model
    /// is served, then refits spread over the cycles, so that `fit_s` is
    /// the fastest of several.
    pub fits: usize,
    /// Jobs of the single-tenant loop the traced run adds.
    pub solo_jobs: usize,
}

impl Plan {
    pub fn new(seconds: f64) -> Self {
        let standard = TrainBudget::standard();
        // Each fit trains a fifth of the standard budget and keeps its
        // AE:DDPM ratio (400:500).
        let fits = 3;
        let ae_steps = ((standard.ae_steps as f64 * crate::scale(seconds) / 5.0) as usize).max(8);
        let tenants = 2;
        Self {
            train_rows: 1024,
            ae_steps,
            diffusion_steps: ae_steps * standard.diffusion_steps / standard.ae_steps,
            tenants,
            cycles: crate::jobs_per_requester(seconds, tenants),
            fixed_jobs: 5,
            fits,
            solo_jobs: 4,
        }
    }

    /// The traced run's passes make a quarter of the cycles (but one per
    /// fixed job) and no refits: per-layer metrics need no page
    /// percentiles and no repetitions.
    fn traced(&self) -> Self {
        Self { cycles: (self.cycles / 4).max(self.fixed_jobs), fits: 1, ..self.clone() }
    }

    /// Whether tenant 0's job in `cycle` is a fixed job.
    fn is_fixed(&self, cycle: usize) -> bool {
        (0..self.fixed_jobs).any(|k| k * self.cycles / self.fixed_jobs == cycle)
    }

    /// Whether a refit runs before `cycle`.
    fn is_refit(&self, cycle: usize) -> bool {
        (1..self.fits).any(|k| k * self.cycles / self.fits == cycle)
    }

    fn spec(&self, seeds: &Seeds) -> ModelSpec {
        let mut budget = TrainBudget::standard();
        budget.ae_steps = self.ae_steps;
        budget.diffusion_steps = self.diffusion_steps;
        ModelSpec::new(MODEL, "Loan", self.train_rows, seeds.model, budget)
    }

    /// Checkpoint cadence: only each phase's entry and final state.
    fn every(&self) -> u64 {
        self.ae_steps.max(self.diffusion_steps) as u64
    }
}

fn job_id(seeds: &Seeds, tenant: usize, k: usize) -> u64 {
    seeds.job.wrapping_add(((tenant as u64) << 32) | k as u64)
}

/// One served page and where it belongs.
struct Page {
    tenant: usize,
    job: usize,
    index: u32,
    table: Table,
}

/// What a closed loop of tenants measured.
#[derive(Default)]
struct Loop {
    wall_s: f64,
    fetch_ms: Vec<f64>,
    pages: Vec<Page>,
    rejections: u64,
    errors: Vec<String>,
}

impl Loop {
    /// Adds `other`'s time, pages and failures to this loop's.
    fn absorb(&mut self, other: Loop) {
        self.wall_s += other.wall_s;
        self.fetch_ms.extend(other.fetch_ms);
        self.pages.extend(other.pages);
        self.rejections += other.rejections;
        self.errors.extend(other.errors);
    }
}

/// Runs `clients` concurrently, each fetching jobs `jobs` page by page and
/// backing off on `Overloaded`; returns when every tenant is done.
fn closed_loop(clients: Vec<TenantClient>, seeds: &Seeds, jobs: Range<usize>) -> Loop {
    let model = clients[0].model_id(MODEL).expect("the served model is cataloged");
    let start = Instant::now();
    let results: Vec<Loop> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(tenant, client)| {
                let jobs = jobs.clone();
                scope.spawn(move || {
                    let mut out = Loop::default();
                    for k in jobs {
                        let job = job_id(seeds, tenant, k);
                        for index in 0..PAGES_PER_JOB {
                            let first = u64::from(index * PAGE_ROWS);
                            let asked = Instant::now();
                            let mut backoff = Duration::from_millis(2);
                            loop {
                                let span = observe::span("bench.fetch");
                                let got = client.fetch(model, job, first, PAGE_ROWS);
                                drop(span);
                                match got {
                                    Ok(table) => {
                                        out.fetch_ms.push(asked.elapsed().as_secs_f64() * 1e3);
                                        out.pages.push(Page { tenant, job: k, index, table });
                                        break;
                                    }
                                    Err(ServeError::Rejected {
                                        code: ServeRejectCode::Overloaded,
                                        ..
                                    }) => {
                                        out.rejections += 1;
                                        std::thread::sleep(backoff);
                                        backoff = (backoff * 2).min(Duration::from_millis(64));
                                    }
                                    Err(e) => {
                                        out.errors.push(format!("fetch job {k} page {index}: {e}"));
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect()
    });
    let mut all = Loop { wall_s: start.elapsed().as_secs_f64(), ..Loop::default() };
    for r in results {
        all.absorb(r);
    }
    all
}

/// One fit of the served spec: `ModelRegistry::open` over an empty
/// directory trains the model and writes its checkpoints into `dir`.
/// Returns its wall time.
fn prepare(plan: &Plan, seeds: &Seeds, dir: &Path, ledger: &mut Ledger) -> Option<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let span = observe::span("bench.prep-fit");
    let fitted = ModelRegistry::open(Some(dir), plan.every(), &[plan.spec(seeds)]);
    let fit_s = span.stop().as_secs_f64();
    ledger.op("ModelRegistry::open (fit)", fitted).map(|_| fit_s)
}

/// Samples one page outside any timed region: the preparation fit warmed
/// the process up for training, this does it for sampling.
fn warm_up(plan: &Plan, seeds: &Seeds, dir: &Path, ledger: &mut Ledger) {
    let sampled =
        ModelRegistry::open(Some(dir), plan.every(), &[plan.spec(seeds)]).and_then(|registry| {
            let model = registry.model_id(MODEL).expect("the served model is cataloged");
            registry.sample(model, !seeds.job, 0, PAGE_ROWS)
        });
    ledger.op("warm-up sample", sampled);
}

/// Everything one pass measured and produced; the last cycle's server is
/// still up.
struct Pass {
    /// Wall time of each fit of the served spec.
    fit_s: Vec<f64>,
    /// Wall time of each restart.
    setup_s: Vec<f64>,
    /// Wall time of each fixed job's direct `ModelRegistry::sample`.
    synth_s: Vec<f64>,
    /// Each fixed job's number and its direct sample.
    direct: Vec<(usize, Table)>,
    /// Every cycle's fetches together; `wall_s` sums the cycles' loops.
    serve: Loop,
    /// Rows per second delivered to all tenants in each cycle.
    cycle_rates: Vec<f64>,
    /// Control-ledger bytes of every cycle's server.
    bytes_control: u64,
    server: Option<SynthesisServer>,
}

/// Restarts the server over the prepared checkpoints and serves one job
/// per tenant, `plan.cycles` times, refitting the spec into a spare
/// directory between some cycles.
fn pass(plan: &Plan, seeds: &Seeds, dir: &Path, ledger: &mut Ledger) -> Pass {
    let specs = [plan.spec(seeds)];
    let spare = dir.with_extension("refit");
    let mut out = Pass {
        fit_s: Vec::new(),
        setup_s: Vec::new(),
        synth_s: Vec::new(),
        direct: Vec::new(),
        serve: Loop::default(),
        cycle_rates: Vec::new(),
        bytes_control: 0,
        server: None,
    };
    for cycle in 0..plan.cycles {
        // The previous cycle's connections closed when its loop ended;
        // shut its server down first, as a restart would.
        if let Some(server) = out.server.take() {
            out.bytes_control += server.comm_stats().bytes_control;
            server.shutdown();
        }
        if plan.is_refit(cycle) {
            out.fit_s.extend(prepare(plan, seeds, &spare, ledger));
            let _ = std::fs::remove_dir_all(&spare);
        }
        let span = observe::span("bench.setup");
        let started = ModelRegistry::open(Some(dir), plan.every(), &specs)
            .and_then(|registry| SynthesisServer::new(registry, ServeConfig::default()));
        let started = started.map(|mut server| {
            let clients: Vec<TenantClient> =
                (0..plan.tenants).map(|t| server.connect(&format!("t{t}"))).collect();
            (clients, server)
        });
        out.setup_s.push(span.stop().as_secs_f64());
        let Some((clients, server)) = ledger.op("registry reload and server start", started) else {
            return out;
        };
        if plan.is_fixed(cycle) {
            sample_job(server.registry(), seeds, cycle, &mut out, ledger);
        }
        let span = observe::span("bench.serve");
        let served = closed_loop(clients, seeds, cycle..cycle + 1);
        drop(span);
        out.cycle_rates.push(rows_per_s(rows_served(&served), served.wall_s));
        out.serve.absorb(served);
        out.server = Some(server);
    }
    if let Some(server) = &out.server {
        out.bytes_control += server.comm_stats().bytes_control;
    }
    out
}

/// Samples tenant 0's job `k` whole through `ModelRegistry::sample`,
/// timed.
fn sample_job(
    registry: &ModelRegistry,
    seeds: &Seeds,
    k: usize,
    out: &mut Pass,
    ledger: &mut Ledger,
) {
    let model = registry.model_id(MODEL).expect("the served model is cataloged");
    let span = observe::span("bench.sample");
    let table = registry.sample(model, job_id(seeds, 0, k), 0, JOB_ROWS);
    out.synth_s.push(span.stop().as_secs_f64());
    if let Some(table) = ledger.op(&format!("ModelRegistry::sample job {k}"), table) {
        out.direct.push((k, table));
    }
}

/// Page checks, the byte-exact pagination check, the fingerprint and
/// (with `score`) the resemblance score, all outside the timed regions.
fn verify(plan: &Plan, seeds: &Seeds, pass: &Pass, ledger: &mut Ledger, score: bool) -> (f64, u64) {
    for e in &pass.serve.errors {
        ledger.op::<(), _>("fetch", Err(e));
    }
    for _ in 0..pass.serve.rejections {
        ledger.rejected("fetch");
    }
    let train = profiles::loan().generate(plan.train_rows, seeds.model);
    let schema = train.schema();
    // Each delivered page is one successful fetch, then one check.
    ledger.attempted += pass.serve.pages.len() as u64;
    for page in &pass.serve.pages {
        ledger.check("page", check_table(&page.table, schema, PAGE_ROWS as usize));
    }
    for (k, direct) in &pass.direct {
        ledger.check("direct job", check_table(direct, schema, JOB_ROWS as usize));
        let mut pages: Vec<&Page> =
            pass.serve.pages.iter().filter(|p| p.tenant == 0 && p.job == *k).collect();
        pages.sort_by_key(|p| p.index);
        // The row grid carries f32: a page holds the direct sample's
        // numerics rounded to f32, and its codes exactly.
        let same = pages.len() == PAGES_PER_JOB as usize
            && pages.iter().all(|p| p.table.schema() == direct.schema())
            && table_bytes(&Table::concat_rows(
                &pages.iter().map(|p| &p.table).collect::<Vec<_>>(),
            )) == table_bytes(&wire_rounded(direct));
        ledger.check(
            "pages concatenate to the whole job",
            if same {
                Ok(())
            } else {
                Err(CheckError::Mismatch(format!(
                    "job {k}: pages differ from one ModelRegistry::sample call"
                )))
            },
        );
    }
    let direct: Vec<&Table> = pass.direct.iter().map(|(_, t)| t).collect();
    let mut resembles = f64::NAN;
    if score && !direct.is_empty() && direct.iter().all(|t| t.schema() == schema) {
        let scored = Table::concat_rows(&direct);
        let _span = observe::span("bench.resemblance");
        let cfg = ResemblanceConfig { seed: seeds.metric, ..Default::default() };
        resembles = resemblance(&train, &scored, &cfg).composite;
    }
    let mut pages: Vec<&Page> = pass.serve.pages.iter().collect();
    pages.sort_by_key(|p| (p.tenant, p.job, p.index));
    let print = fingerprint(direct.into_iter().chain(pages.iter().map(|p| &p.table)));
    (resembles, print)
}

fn rows_served(l: &Loop) -> usize {
    l.pages.len() * PAGE_ROWS as usize
}

fn end_to_end(pass: &Pass, score: f64, values: &mut Values) {
    values.set("setup_s", lowest(&pass.setup_s));
    values.set("fit_s", lowest(&pass.fit_s));
    let rates: Vec<f64> = pass.synth_s.iter().map(|&s| rows_per_s(JOB_ROWS as usize, s)).collect();
    values.set("synth_rows_per_s", highest(&rates));
    values.set("serve_rows_per_s", highest(&pass.cycle_rates));
    values.set("fetch_p10_ms", percentile(&pass.serve.fetch_ms, 10.0));
    values.set("fetch_p90_ms", percentile(&pass.serve.fetch_ms, 90.0));
    values.set("comm_payload_kib", pass.bytes_control as f64 / 1024.0);
    values.set("resemblance", score);
}

/// How far the run's repetitions spread: the slowest against the fastest
/// fit, restart, direct job sample and cycle. A wide spread is the host
/// slowing the run down part of the time.
fn spread_line(pass: &Pass) -> String {
    let ratio = |v: &[f64]| highest(v) / lowest(v);
    format!(
        "repetitions (slowest / fastest): {} fits {:.2}x, {} restarts {:.2}x, {} direct job samples {:.2}x, {} cycles' rows/s {:.2}x; median fetch {:.1} ms",
        pass.fit_s.len(),
        ratio(&pass.fit_s),
        pass.setup_s.len(),
        ratio(&pass.setup_s),
        pass.synth_s.len(),
        ratio(&pass.synth_s),
        pass.cycle_rates.len(),
        ratio(&pass.cycle_rates),
        median(&pass.serve.fetch_ms)
    )
}

fn shutdown(pass: &mut Pass) {
    if let Some(server) = pass.server.take() {
        server.shutdown();
    }
}

/// Single-tenant loop on the traced server: the baseline for wire cost
/// and scaling.
struct Solo {
    rows_per_s: f64,
    fetch_ms: f64,
    /// Median direct `ModelRegistry::sample` of a page on this thread.
    sample_ms: f64,
    /// Mean fetch time per page the server spent outside its sampling
    /// spans: admission, the grid codec and transport.
    wire_ms: f64,
}

/// One tenant alone, each fetched page followed by a direct
/// `ModelRegistry::sample` of the same range of another job. The wire cost
/// is what the client waited beyond the server's own sampling of the same
/// pages: a direct sample on another thread differs from the server's by
/// more than the wire costs.
fn solo(
    plan: &Plan,
    seeds: &Seeds,
    pass: &mut Pass,
    hub: &observe::TelemetryHub,
    ledger: &mut Ledger,
) -> Option<Solo> {
    let server = pass.server.as_mut()?;
    let client = server.connect("solo");
    let registry = server.registry();
    let model = client.model_id(MODEL)?;
    let (mut fetch_ms, mut sample_ms) = (Vec::new(), Vec::new());
    for k in 0..plan.solo_jobs {
        let job = job_id(seeds, plan.tenants, k);
        for index in 0..PAGES_PER_JOB {
            let first = u64::from(index * PAGE_ROWS);
            let start = Instant::now();
            let page = client.fetch(model, job, first, PAGE_ROWS);
            fetch_ms.push(start.elapsed().as_secs_f64() * 1e3);
            ledger.op("solo fetch", page);
            let start = Instant::now();
            let page = registry.sample(model, !job, first, PAGE_ROWS);
            sample_ms.push(start.elapsed().as_secs_f64() * 1e3);
            ledger.op("direct page", page);
        }
    }
    let spans = attrib::spans_of(hub, "tenant-solo");
    let sampling_ms = 1e3
        * (attrib::path_time(&spans, "serve.job/sample")
            + attrib::path_time(&spans, "serve.job/decode"));
    let pages = fetch_ms.len() as f64;
    Some(Solo {
        rows_per_s: rows_per_s(
            fetch_ms.len() * PAGE_ROWS as usize,
            fetch_ms.iter().sum::<f64>() / 1e3,
        ),
        fetch_ms: median(&fetch_ms),
        sample_ms: median(&sample_ms),
        wire_ms: (fetch_ms.iter().sum::<f64>() - sampling_ms) / pages,
    })
}

/// Runs the workload: the preparation fit, then untraced serving, or
/// (with `trace`) the traced run.
pub fn run(plan: &Plan, seeds: &Seeds, trace: bool, scratch: &Path) -> Outcome {
    let mut ledger = Ledger::default();
    let mut values = Values::default();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "plan: Loan rows={} {} fits of ae_steps={} diffusion_steps={}, cycles={} of restart and \
         one job per tenant, tenants={} job={JOB_ROWS} rows as {PAGES_PER_JOB} pages of \
         {PAGE_ROWS}, {} fixed jobs sampled directly",
        plan.train_rows,
        plan.fits,
        plan.ae_steps,
        plan.diffusion_steps,
        plan.cycles,
        plan.tenants,
        plan.fixed_jobs,
    );
    let dir = scratch.join(format!("serve-{}-{}", seeds.root, std::process::id()));

    if let Some(fit_s) = prepare(plan, seeds, &dir, &mut ledger) {
        if trace {
            traced_run(plan, seeds, &dir, &mut ledger, &mut values, &mut report);
        } else {
            let mut untraced = pass(plan, seeds, &dir, &mut ledger);
            untraced.fit_s.insert(0, fit_s);
            let (score, print) = verify(plan, seeds, &untraced, &mut ledger, true);
            let _ = writeln!(report, "fingerprint: {print:016x}");
            let _ = writeln!(report, "{}", spread_line(&untraced));
            shutdown(&mut untraced);
            end_to_end(&untraced, score, &mut values);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(dir.with_extension("refit"));
    Outcome { values, ledger, report }
}

/// A warm-up, an untraced pass and the single-tenant loop, then a traced
/// pass over the same checkpoints and the layer probes.
fn traced_run(
    plan: &Plan,
    seeds: &Seeds,
    dir: &Path,
    ledger: &mut Ledger,
    values: &mut Values,
    report: &mut String,
) {
    // After the warm-up, the untraced and the traced pass both run warm,
    // so their ratio is the cost of tracing.
    let plan = &plan.traced();
    warm_up(plan, seeds, dir, ledger);
    let mut untraced = pass(plan, seeds, dir, ledger);
    let (_, print) = verify(plan, seeds, &untraced, ledger, false);
    let _ = writeln!(
        report,
        "traced passes: {} cycles of one job per tenant\nfingerprint: {print:016x}",
        plan.cycles
    );
    shutdown(&mut untraced);

    let hub = observe::init_scoped("pipebench", "bench");
    let mut traced = pass(plan, seeds, dir, ledger);
    let (_, traced_print) = verify(plan, seeds, &traced, ledger, false);
    ledger.check(
        "traced output equals untraced output",
        if traced_print == print {
            Ok(())
        } else {
            Err(CheckError::Mismatch("fingerprints differ".into()))
        },
    );
    let solo = solo(plan, seeds, &mut traced, &hub, ledger);
    if let Some(server) = &traced.server {
        let train = profiles::loan().generate(plan.train_rows, seeds.model);
        let cfg = plan.spec(seeds).budget.latent_config(seeds.model);
        let (shared, decode_us) =
            crate::probes::serve(&cfg, &train, server.registry(), PAGE_ROWS, &hub, report);
        shared.set(values);
        values.set("models.decode_us_per_row", decode_us);
    }
    shutdown(&mut traced);
    attribute(plan, &untraced, &traced, solo.as_ref(), &hub, values, report);
    observe::shutdown();
}

fn attribute(
    plan: &Plan,
    untraced: &Pass,
    traced: &Pass,
    solo: Option<&Solo>,
    hub: &observe::TelemetryHub,
    values: &mut Values,
    report: &mut String,
) {
    let bench = attrib::spans_of(hub, "bench");
    let serve_wall = attrib::path_time(&bench, "bench.serve");
    let jobs: f64 = (0..plan.tenants)
        .map(|t| attrib::path_time(&attrib::spans_of(hub, &format!("tenant-t{t}")), "serve.job"))
        .sum();
    let region = Region {
        name: "serve",
        wall_s: serve_wall,
        lanes: plan.tenants as f64,
        attributed_s: jobs,
    };
    values.set(
        "observe.unattributed_share",
        attrib::unattributed_share(std::slice::from_ref(&region)),
    );
    let total =
        |p: &Pass| p.setup_s.iter().sum::<f64>() + p.synth_s.iter().sum::<f64>() + p.serve.wall_s;
    values.set("observe.trace_overhead", total(traced) / total(untraced));

    let (load_s, loads) = attrib::named_time(hub, "checkpoint.load");
    values.set("checkpoint.load_s", load_s / plan.cycles as f64);
    values.set("serve.rejections", (untraced.serve.rejections + traced.serve.rejections) as f64);
    let rows = rows_served(&untraced.serve);
    values.set("serve.control_bytes_per_row", untraced.bytes_control as f64 / rows as f64);
    // Traced like the single-tenant loop it is compared with.
    let two = rows_per_s(rows_served(&traced.serve), traced.serve.wall_s);

    let _ = writeln!(report, "\nphase attribution (traced pass):");
    let _ = writeln!(
        report,
        "  serve loop {:.3} s x {} tenants: serve.job spans cover {:.3} s, unattributed {:.1}%",
        serve_wall,
        plan.tenants,
        jobs,
        100.0 * region.unattributed_s() / (region.wall_s * region.lanes)
    );
    let _ = writeln!(
        report,
        "  setup: {loads} checkpoint loads, {:.4} s per registry reload",
        load_s / plan.cycles as f64
    );
    let _ = writeln!(
        report,
        "  trace overhead (both passes after a warm-up): setup {:.3}x sample {:.3}x serve {:.3}x",
        traced.setup_s.iter().sum::<f64>() / untraced.setup_s.iter().sum::<f64>(),
        traced.synth_s.iter().sum::<f64>() / untraced.synth_s.iter().sum::<f64>(),
        traced.serve.wall_s / untraced.serve.wall_s
    );
    if let Some(solo) = solo {
        values.set("serve.sample_ms_per_page", solo.sample_ms);
        values.set("serve.wire_ms_per_page", solo.wire_ms.max(0.0));
        values.set("serve.scaling_2v1", two / solo.rows_per_s);
        let _ = writeln!(
            report,
            "  one tenant: fetch {:.3} ms/page (median), wire {:.3} ms/page beyond the server's sampling ({:.1}% of the mean fetch); direct ModelRegistry::sample on this thread {:.3} ms; {:.0} rows/s alone, {:.0} rows/s with {} tenants",
            solo.fetch_ms,
            solo.wire_ms,
            // The mean fetch is a page's rows at the loop's rate.
            100.0 * solo.wire_ms * solo.rows_per_s / (1e3 * f64::from(PAGE_ROWS)),
            solo.sample_ms,
            solo.rows_per_s,
            two,
            plan.tenants
        );
    }
}
