//! Instrumentation-overhead benchmark: the per-call cost of the
//! `observe` free functions with telemetry disabled (the production hot
//! path) and enabled, plus the end-to-end overhead of running a small
//! 3-silo stacked fit + synthesis traced vs untraced. Writes
//! `BENCH_observe.json` so the overhead trajectory accumulates across
//! commits, and asserts the traced synthesis stays under the recorded
//! bound — instrumentation that slows the pipeline down materially is a
//! regression, not a feature.
//!
//! Usage: `cargo run --release -p silofuse-bench --bin observe --
//! [--quick] [--seed S] [--threads N]`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_bench::parse_cli;
use silofuse_distributed::stacked::SiloFuseModel;
use silofuse_models::latentdiff::LatentDiffConfig;
use silofuse_models::AutoencoderConfig;
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::profiles;

/// Traced synthesis must stay under this multiple of the untraced wall
/// clock (best-of-reps). Generous against CI noise; the measured ratio
/// is typically within a few percent of 1.0.
const SYNTH_OVERHEAD_BOUND: f64 = 2.0;

/// Best-of-`reps` ns/op for `iters` calls of `op`.
fn time_op(iters: u64, reps: usize, mut op: impl FnMut(u64)) -> f64 {
    let mut best = u64::MAX;
    for _ in 0..=reps {
        // First pass doubles as warmup (included: it can only raise
        // `best`, never fake a win).
        let start = Instant::now();
        for i in 0..iters {
            op(i);
        }
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best as f64 / iters as f64
}

/// One fixed-seed 3-silo stacked fit + synthesis; returns wall nanos.
fn run_synthesis(seed: u64) -> u64 {
    let table = profiles::loan().generate(96, seed);
    let parts = PartitionPlan::new(table.n_cols(), 3, PartitionStrategy::Default).split(&table);
    let config = LatentDiffConfig {
        ae: AutoencoderConfig { hidden_dim: 48, lr: 1e-3, seed, ..Default::default() },
        ddpm_hidden: 48,
        timesteps: 20,
        ae_steps: 16,
        diffusion_steps: 16,
        batch_size: 32,
        inference_steps: 5,
        seed,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let mut model = SiloFuseModel::fit(&parts, config, &mut rng);
    let out = model.synthesize_partitioned(64, 0, &mut rng);
    black_box(&out);
    start.elapsed().as_nanos() as u64
}

/// The micro-op suite, timed once per telemetry mode.
fn micro_suite(iters: u64, reps: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("count", time_op(iters, reps, |i| silofuse_observe::count("bench.counter", i & 1))),
        ("gauge", time_op(iters, reps, |i| silofuse_observe::gauge("bench.gauge", i as f64))),
        ("record", time_op(iters, reps, |i| silofuse_observe::record("bench.hist", i as f64))),
        (
            "span",
            time_op(iters, reps, |_| {
                let _g = silofuse_observe::span("bench.span");
            }),
        ),
        (
            "ctx_for_send",
            time_op(iters, reps, |_| {
                black_box(silofuse_observe::trace::ctx_for_send());
            }),
        ),
        (
            "scope_enter",
            time_op(iters, reps, |_| {
                let _g = silofuse_observe::scope("bench-actor");
            }),
        ),
    ]
}

fn main() {
    let opts = parse_cli();
    // Overhead numbers must come from a telemetry-free baseline, so this
    // bench manages its own init/shutdown instead of honoring --trace.
    silofuse_observe::shutdown();

    let reps = if opts.quick { 2 } else { 5 };
    let iters: u64 = if opts.quick { 200_000 } else { 1_000_000 };
    let synth_reps = if opts.quick { 2 } else { 3 };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Micro ops, disabled: the cost every production call site pays when
    // nobody asked for telemetry.
    let disabled = micro_suite(iters, reps);

    // Micro ops, enabled, inside an actor scope (the expensive path).
    let _ = silofuse_observe::init_scoped("bench-observe-micro", "bench");
    let enabled = {
        let _scope = silofuse_observe::scope("silo0");
        micro_suite(iters, reps)
    };
    silofuse_observe::shutdown();

    // End-to-end: the same fixed-seed stacked run, untraced vs traced.
    let mut untraced_ns = u64::MAX;
    for _ in 0..synth_reps {
        untraced_ns = untraced_ns.min(run_synthesis(opts.seed));
    }
    let mut traced_ns = u64::MAX;
    for _ in 0..synth_reps {
        let _ = silofuse_observe::init_scoped("bench-observe-synth", "bench");
        traced_ns = traced_ns.min(run_synthesis(opts.seed));
        silofuse_observe::shutdown();
    }
    let ratio = traced_ns as f64 / untraced_ns.max(1) as f64;

    let mut report = silofuse_bench::TextTable::new(&["op", "disabled", "enabled"]);
    let mut json = String::from("{\n  \"bench\": \"observe\",\n");
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"threads\": {},", silofuse_nn::backend::threads());
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"results\": [\n");
    for ((name, off), (_, on)) in disabled.iter().zip(&enabled) {
        report.row(vec![name.to_string(), format!("{off:.1} ns"), format!("{on:.1} ns")]);
        let _ = writeln!(
            json,
            "    {{\"op\": \"{name}\", \"disabled_ns_per_op\": {off:.2}, \
             \"enabled_ns_per_op\": {on:.2}}},"
        );
    }
    let _ = writeln!(
        json,
        "    {{\"op\": \"synthesis\", \"untraced_ns\": {untraced_ns}, \
         \"traced_ns\": {traced_ns}, \"overhead_ratio\": {ratio:.4}, \
         \"bound\": {SYNTH_OVERHEAD_BOUND}}}"
    );
    json.push_str("  ]\n}\n");

    let content = format!(
        "Instrumentation overhead — observe free functions, seed {}, {iters} iters\n\
         (best-of-reps; 'disabled' is the production path with no telemetry installed)\n\n{}\n\
         3-silo stacked fit+synthesis: untraced {:.1} ms, traced {:.1} ms \
         ({:.3}x, bound {SYNTH_OVERHEAD_BOUND}x)\n",
        opts.seed,
        report.render(),
        untraced_ns as f64 / 1e6,
        traced_ns as f64 / 1e6,
        ratio,
    );
    silofuse_bench::emit_report("observe", &content);

    if let Err(e) = std::fs::write("BENCH_observe.json", &json) {
        eprintln!("warning: could not write BENCH_observe.json: {e}");
    } else {
        eprintln!("[observe] BENCH_observe.json written");
    }

    assert!(
        ratio < SYNTH_OVERHEAD_BOUND,
        "traced synthesis is {ratio:.3}x untraced (bound {SYNTH_OVERHEAD_BOUND}x)"
    );
}
