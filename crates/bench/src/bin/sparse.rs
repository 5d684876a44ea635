//! Sparse-vs-dense categorical path benchmark: autoencoder training
//! throughput through the sparse index+value representation against the
//! dense one-hot oracle, across the paper's categorical-heavy schemas and
//! the synthetic high-cardinality profile family. Every timed shape is
//! first *gated* on bit-identity (weights and latents must match the dense
//! oracle exactly), then rows/sec and peak encoded-batch bytes for both
//! paths are recorded into `BENCH_sparse.json`.
//!
//! Usage: `cargo run --release -p silofuse-bench --bin sparse --
//! [--quick] [--threads N] [--seed S]`. `--threads` picks the worker
//! count for the parallel legs (default 4 when left at 1).

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_bench::parse_cli;
use silofuse_models::{AutoencoderConfig, TabularAutoencoder};
use silofuse_tabular::profiles::profile_by_name;
use silofuse_tabular::sparse::dense_batch_bytes;
use silofuse_tabular::table::Table;
use silofuse_tabular::SparsePolicy;

const HIDDEN: usize = 64;

fn cfg(seed: u64, encoding: SparsePolicy) -> AutoencoderConfig {
    AutoencoderConfig { hidden_dim: HIDDEN, seed, encoding, ..Default::default() }
}

/// One full training leg: fresh model, `steps` minibatch steps. Model
/// construction is inside the timed region for both paths, and the first
/// layer draws the same number of init samples either way, so the
/// comparison stays apples-to-apples.
fn fit_leg(table: &Table, seed: u64, encoding: SparsePolicy, steps: usize, batch: usize) -> f32 {
    let mut ae = TabularAutoencoder::new(table, cfg(seed, encoding));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf17);
    ae.fit(table, steps, batch, &mut rng)
}

/// Best-of-`reps` wall time in nanoseconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> u64 {
    f(); // warmup outside the timed loop
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

fn main() {
    let opts = parse_cli();
    silofuse_bench::init_trace("sparse", &opts);
    let configured = silofuse_nn::backend::threads();
    let threads = if configured > 1 { configured } else { 4 };
    let reps = if opts.quick { 2 } else { 3 };
    let steps = if opts.quick { 4 } else { 10 };
    let rows = if opts.quick { 192 } else { 512 };
    let batches: &[usize] = if opts.quick { &[64] } else { &[32, 128] };

    // The Table II schemas that cross the Auto threshold plus the
    // synthetic 10k-way profile — exactly the set the sparse path serves
    // in production. Quick mode keeps the three widths that span the
    // range.
    let profile_names: &[&str] = if opts.quick {
        &["Heloc", "Churn", "HighCard10k"]
    } else {
        &["Adult", "Heloc", "Intrusion", "Churn", "HighCard10k"]
    };

    // A >1-thread pool on a 1-core container only measures scheduler
    // noise, so the multi-thread leg is clamped to the host and the clamp
    // recorded so a missing leg is not read as a regression.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_counts = vec![1usize];
    if threads.min(host_cpus) > 1 {
        thread_counts.push(threads.min(host_cpus));
    } else if threads > 1 {
        eprintln!(
            "[sparse] note: host grants only {host_cpus} CPU(s); \
             skipping the {threads}-thread timing leg"
        );
    }

    let mut json = String::from("{\n  \"bench\": \"sparse\",\n");
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"train_steps\": {steps},");
    let _ = writeln!(json, "  \"hidden_dim\": {HIDDEN},");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"requested_threads\": {threads},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"results\": [\n");

    let mut report = silofuse_bench::TextTable::new(&[
        "dataset",
        "width",
        "batch",
        "threads",
        "dense rows/s",
        "sparse rows/s",
        "speedup",
        "dense batch",
        "sparse batch",
        "mem ratio",
    ]);

    let mut records = Vec::new();
    for name in profile_names {
        let profile = profile_by_name(name).unwrap_or_else(|| panic!("unknown profile {name}"));
        let table = profile.generate(rows, opts.seed ^ 0xda7a);
        let width = table.schema().one_hot_width();

        for &batch in batches {
            let batch_rows = batch.min(rows);
            for &t in &thread_counts {
                silofuse_nn::backend::set_threads(t);

                // Bit-identity gate on this exact shape: a sparse path
                // that drifts from the dense oracle would break
                // crash-resume and cross-silo reproducibility, so the
                // timing below is meaningless unless this holds.
                {
                    let mut sparse =
                        TabularAutoencoder::new(&table, cfg(opts.seed, SparsePolicy::Sparse));
                    let mut dense =
                        TabularAutoencoder::new(&table, cfg(opts.seed, SparsePolicy::Dense));
                    assert!(sparse.uses_sparse() && !dense.uses_sparse());
                    let mut rng_s = StdRng::seed_from_u64(opts.seed ^ 0xf17);
                    let mut rng_d = StdRng::seed_from_u64(opts.seed ^ 0xf17);
                    let loss_s = sparse.fit(&table, steps, batch, &mut rng_s);
                    let loss_d = dense.fit(&table, steps, batch, &mut rng_d);
                    assert_eq!(
                        loss_s.to_bits(),
                        loss_d.to_bits(),
                        "{name} batch {batch} threads {t}: sparse loss != dense loss"
                    );
                    assert_eq!(
                        sparse.export_weights(),
                        dense.export_weights(),
                        "{name} batch {batch} threads {t}: sparse weights != dense oracle"
                    );
                    assert_eq!(
                        sparse.encode(&table),
                        dense.encode(&table),
                        "{name} batch {batch} threads {t}: sparse latents != dense oracle"
                    );
                }

                let t_dense = best_of(reps, || {
                    let _ = fit_leg(&table, opts.seed, SparsePolicy::Dense, steps, batch);
                });
                let t_sparse = best_of(reps, || {
                    let _ = fit_leg(&table, opts.seed, SparsePolicy::Sparse, steps, batch);
                });
                let trained_rows = (steps * batch_rows) as f64;
                let dense_rps = trained_rows / (t_dense as f64 / 1e9);
                let sparse_rps = trained_rows / (t_sparse as f64 / 1e9);
                let speedup = t_dense as f64 / t_sparse.max(1) as f64;

                // Peak encoded-batch footprint: the sparse batch holds one
                // f32 per numeric slot and one u32 per categorical column;
                // the dense oracle holds the full rows × one-hot-width
                // buffer.
                let sparse_bytes = {
                    let mut ae =
                        TabularAutoencoder::new(&table, cfg(opts.seed, SparsePolicy::Sparse));
                    let mut rng = StdRng::seed_from_u64(opts.seed);
                    ae.fit(&table, 1, batch, &mut rng);
                    ae.sparse_batch_bytes().expect("sparse path active")
                };
                let dense_bytes = dense_batch_bytes(batch_rows, width);
                let mem_ratio = dense_bytes as f64 / sparse_bytes.max(1) as f64;

                if sparse_rps < dense_rps {
                    eprintln!(
                        "[sparse] WARNING: sparse slower than dense at \
                         {name} batch={batch} threads={t}"
                    );
                }
                eprintln!(
                    "[sparse] {name:>12}  width {width:>5}  batch {batch:>4}  threads {t}  \
                     dense {dense_rps:>8.0} rows/s  sparse {sparse_rps:>8.0} rows/s  \
                     {speedup:>5.2}x  mem {mem_ratio:>6.1}x"
                );
                report.row(vec![
                    name.to_string(),
                    width.to_string(),
                    batch.to_string(),
                    t.to_string(),
                    format!("{dense_rps:.0}"),
                    format!("{sparse_rps:.0}"),
                    format!("{speedup:.2}x"),
                    silofuse_bench::human_bytes(dense_bytes as f64),
                    silofuse_bench::human_bytes(sparse_bytes as f64),
                    format!("{mem_ratio:.1}x"),
                ]);
                records.push(format!(
                    "    {{\"dataset\": \"{name}\", \"one_hot_width\": {width}, \
                     \"rows\": {rows}, \"batch\": {batch}, \"threads\": {t}, \
                     \"dense_ns\": {t_dense}, \"sparse_ns\": {t_sparse}, \
                     \"dense_rows_per_s\": {dense_rps:.1}, \
                     \"sparse_rows_per_s\": {sparse_rps:.1}, \"speedup\": {speedup:.3}, \
                     \"dense_batch_bytes\": {dense_bytes}, \
                     \"sparse_batch_bytes\": {sparse_bytes}, \
                     \"mem_ratio\": {mem_ratio:.1}, \
                     \"bit_identical\": true, \"sparse_not_slower\": {}}}",
                    sparse_rps >= dense_rps
                ));
            }
        }
        silofuse_nn::backend::set_threads(1);
    }
    json.push_str(&records.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let content = format!(
        "Sparse categorical path — index+value batches vs the dense one-hot \
         oracle; seed {}, {} reps, {} train steps, hidden {}\n\
         (best-of-reps wall clock; every shape gated on bit-identity first)\n\n{}",
        opts.seed,
        reps,
        steps,
        HIDDEN,
        report.render()
    );
    silofuse_bench::emit_report("sparse", &content);

    if let Err(e) = std::fs::write("BENCH_sparse.json", &json) {
        eprintln!("warning: could not write BENCH_sparse.json: {e}");
    } else {
        eprintln!("[sparse] BENCH_sparse.json written");
    }
    silofuse_bench::finish_trace();
}
