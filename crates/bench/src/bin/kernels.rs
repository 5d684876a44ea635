//! Dense-kernel benchmark: `Reference` vs `Parallel` backend on the gemm
//! variants plus the hot elementwise kernels, at the shapes the training
//! stack actually runs. Verifies bit-identity between the backends on every
//! timed shape (at 1, 2, and 4 workers) before timing, gates throughput
//! against per-ISA GFLOP/s floors and the `gemm_transpose`-vs-`gemm` packing
//! ratio, then writes `BENCH_kernels.json` so the perf trajectory
//! accumulates across commits.
//!
//! Usage: `cargo run --release -p silofuse-bench --bin kernels -- [--quick]
//! [--threads N] [--seed S]`. `--threads` picks the worker count for the
//! parallel side (default 4 when left at 1, since the kernels themselves are
//! identical at any worker count); the timed leg is clamped to the CPUs the
//! host actually grants, and both the requested and effective counts are
//! recorded in the JSON.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use silofuse_bench::parse_cli;
use silofuse_nn::backend::{Backend, Parallel, Reference};
use silofuse_nn::simd::{self, SimdLevel};
use silofuse_observe::cli::TracedRun;
use silofuse_observe::note;

/// One timed kernel invocation family at one shape.
struct Case {
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

/// Multiply-adds for the gemm variants (used for GFLOP/s; elementwise
/// kernels report element counts instead).
fn madds(c: &Case) -> u64 {
    (c.m * c.k * c.n) as u64
}

/// Deterministic pseudo-random data; magnitudes vary so float summation
/// order matters and bit-identity checks are meaningful.
fn noise(n: usize, mut state: u64) -> Vec<f32> {
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0
        })
        .collect()
}

/// Runs `kernel` once through `be` into `out`.
fn run_case(be: &dyn Backend, c: &Case, a: &[f32], b: &[f32], out: &mut [f32]) {
    match c.kernel {
        // A is m×k, B is k×n, out m×n.
        "gemm" => be.gemm(c.m, c.k, c.n, a, b, out),
        // A is m×k, B is n×k (interpreted transposed), out m×n.
        "gemm_transpose" => be.gemm_transpose(c.m, c.k, c.n, a, b, out),
        // A is k×m, B is k×n, out m×n (k plays the reduced dimension).
        "transpose_gemm" => be.transpose_gemm(c.k, c.m, c.n, a, b, out),
        other => panic!("unknown kernel {other}"),
    }
}

/// Input lengths for `kernel` at shape `c`: (len_a, len_b, len_out).
fn lens(c: &Case) -> (usize, usize, usize) {
    match c.kernel {
        "gemm" => (c.m * c.k, c.k * c.n, c.m * c.n),
        "gemm_transpose" => (c.m * c.k, c.n * c.k, c.m * c.n),
        "transpose_gemm" => (c.k * c.m, c.k * c.n, c.m * c.n),
        other => panic!("unknown kernel {other}"),
    }
}

/// Best-of-`reps` wall time in nanoseconds for one backend on one case.
fn time_case(
    be: &dyn Backend,
    c: &Case,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    reps: usize,
) -> u64 {
    // One warmup run outside the timed loop.
    run_case(be, c, a, b, out);
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        run_case(be, c, a, b, out);
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// Minimum acceptable single-run GFLOP/s for the timed parallel leg, per
/// detected SIMD level. Floors are deliberately 3-4x below what the packed
/// kernels measure on commodity hardware so they catch a fallback to the
/// naive loops (an order of magnitude slower), not scheduler jitter. The
/// scalar fallback has no floor: its job is bit-exactness, not throughput.
fn gflops_floor(level: SimdLevel) -> Option<f64> {
    match level {
        SimdLevel::Scalar => None,
        SimdLevel::Sse2 => Some(2.0),
        SimdLevel::Avx2 => Some(6.0),
        SimdLevel::Avx512 => Some(8.0),
    }
}

fn main() {
    let opts = parse_cli(&["--quick", "--seed", "--trace", "--expose"]);
    let trace = TracedRun::start("kernels", "bench", opts.trace, opts.expose.as_deref());
    let configured = silofuse_nn::backend::threads();
    let requested_threads = if configured > 1 { configured } else { 4 };
    // Parallel speedup is bounded by the cores the host actually grants;
    // clamp the timed leg so an oversubscribed box does not measure
    // scheduler noise, and record both counts so a clamped run is not read
    // as a regression.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = requested_threads.min(host_cpus).max(1);
    if threads < requested_threads {
        note!(
            "[kernels] note: host grants only {host_cpus} CPU(s); \
             clamping timed leg from {requested_threads} to {threads} thread(s)"
        );
    }
    let simd_level = simd::level();
    let reference = Reference;
    let parallel = Parallel::new(threads);
    let reps = if opts.quick { 3 } else { 7 };

    let sizes: &[usize] = if opts.quick { &[128, 256] } else { &[128, 256, 512] };
    let mut cases = Vec::new();
    for &s in sizes {
        for kernel in ["gemm", "gemm_transpose", "transpose_gemm"] {
            cases.push(Case { kernel, m: s, k: s, n: s });
        }
    }
    // A tall-skinny shape like a training minibatch (batch × features ·
    // features × hidden), to show the row-partitioning still pays off when
    // rows are plentiful and columns are not.
    cases.push(Case { kernel: "gemm", m: 4096, k: 64, n: 64 });
    // Churn's silo-0 decoder head, 2 946 outputs wide: on a 192-row
    // training batch its forward, input gradient and weight gradient, and
    // its forward on a 1 024-row decode chunk.
    cases.push(Case { kernel: "gemm", m: 192, k: 128, n: 2946 });
    cases.push(Case { kernel: "gemm_transpose", m: 192, k: 2946, n: 128 });
    cases.push(Case { kernel: "transpose_gemm", m: 128, k: 192, n: 2946 });
    cases.push(Case { kernel: "gemm", m: 1024, k: 128, n: 2946 });

    let mut json = String::from("{\n  \"bench\": \"kernels\",\n");
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"simd\": \"{}\",", simd_level.name());
    let _ = writeln!(json, "  \"requested_threads\": {requested_threads},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"results\": [\n");

    let parallel_col = format!("parallel x{threads}");
    let mut report = silofuse_bench::TextTable::new(&[
        "kernel",
        "shape",
        "reference",
        parallel_col.as_str(),
        "speedup",
        "GFLOP/s (par)",
    ]);

    // Per-square-size GFLOP/s, to gate gemm_transpose against gemm: the
    // B-panel packing step must keep the transposed product within 2x of
    // the straight one (the pre-packing gap was 4-8x).
    let mut gemm_gflops: HashMap<usize, f64> = HashMap::new();
    let mut gt_gflops: HashMap<usize, f64> = HashMap::new();

    let mut gemm512_speedup = None;
    for (i, c) in cases.iter().enumerate() {
        let (la, lb, lo) = lens(c);
        let a = noise(la, opts.seed ^ 0x9e37_79b9 ^ i as u64);
        let b = noise(lb, opts.seed ^ 0x85eb_ca6b ^ (i as u64) << 8);
        let mut out_ref = vec![0.0f32; lo];
        let mut out_par = vec![0.0f32; lo];

        // Bit-identity gate, at every worker count the suite runs with: a
        // fast parallel kernel that drifts from the reference would silently
        // break crash-resume reproducibility.
        run_case(&reference, c, &a, &b, &mut out_ref);
        for workers in [1usize, 2, 4] {
            let be = Parallel::new(workers);
            out_par.fill(0.0);
            run_case(&be, c, &a, &b, &mut out_par);
            let identical = out_ref.iter().zip(&out_par).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                identical,
                "{} {}x{}x{}: parallel(x{workers}) != reference",
                c.kernel, c.m, c.k, c.n
            );
        }

        let t_ref = time_case(&reference, c, &a, &b, &mut out_ref, reps);
        let t_par = time_case(&parallel, c, &a, &b, &mut out_par, reps);
        let speedup = t_ref as f64 / t_par.max(1) as f64;
        let gflops = 2.0 * madds(c) as f64 / t_par.max(1) as f64; // madds are fused mul+add
        if c.kernel == "gemm" && c.m == 512 && c.k == 512 && c.n == 512 {
            gemm512_speedup = Some(speedup);
        }
        if c.m == c.k && c.k == c.n {
            match c.kernel {
                "gemm" => {
                    gemm_gflops.insert(c.m, gflops);
                }
                "gemm_transpose" => {
                    gt_gflops.insert(c.m, gflops);
                }
                _ => {}
            }
        }
        // Throughput floor: a packed SIMD kernel that regresses to naive
        // loops loses an order of magnitude; fail loudly instead of letting
        // the JSON quietly record the regression.
        if let Some(floor) = gflops_floor(simd_level) {
            assert!(
                gflops >= floor,
                "{} {}x{}x{}: {gflops:.2} GFLOP/s below the {floor:.1} floor for {}",
                c.kernel,
                c.m,
                c.k,
                c.n,
                simd_level.name()
            );
        }

        let shape = format!("{}x{}x{}", c.m, c.k, c.n);
        note!(
            "[kernels] {:<15} {:<12} ref {:>9.2}ms  par {:>9.2}ms  {:>5.2}x  {:>7.2} GF/s",
            c.kernel,
            shape,
            t_ref as f64 / 1e6,
            t_par as f64 / 1e6,
            speedup,
            gflops
        );
        report.row(vec![
            c.kernel.to_string(),
            shape.clone(),
            format!("{:.2} ms", t_ref as f64 / 1e6),
            format!("{:.2} ms", t_par as f64 / 1e6),
            format!("{speedup:.2}x"),
            format!("{gflops:.2}"),
        ]);

        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"reference_ns\": {}, \"parallel_ns\": {}, \"threads\": {}, \
             \"speedup\": {:.3}, \"parallel_gflops\": {:.3}, \"bit_identical\": true}}{}",
            c.kernel,
            c.m,
            c.k,
            c.n,
            t_ref,
            t_par,
            threads,
            speedup,
            gflops,
            if i + 1 == cases.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    // Packing-ratio gate: gemm_transpose must stay within 2x of gemm at
    // every square size. Skipped on the scalar fallback, which keeps the
    // old strided loops by design.
    if simd_level != SimdLevel::Scalar {
        for (&size, &g) in &gemm_gflops {
            let gt = gt_gflops.get(&size).copied().unwrap_or(0.0);
            assert!(
                gt >= 0.5 * g,
                "gemm_transpose at {size}^3 is {gt:.2} GFLOP/s, \
                 more than 2x slower than gemm ({g:.2})"
            );
            note!("[kernels] gemm_transpose/gemm ratio at {size}^3: {:.2} (gate: >= 0.50)", gt / g);
        }
    }

    let content = format!(
        "Kernel benchmark — Reference vs Parallel backend; seed {}, {} reps, SIMD {}\n\
         (best-of-reps wall clock; every shape verified bit-identical at 1/2/4 workers\n\
         before timing)\n\n{}",
        opts.seed,
        reps,
        simd_level.name(),
        report.render()
    );
    silofuse_bench::emit_report("kernels", &content);

    if let Err(e) = std::fs::write("BENCH_kernels.json", &json) {
        note!("warning: could not write BENCH_kernels.json: {e}");
    } else {
        note!("[kernels] BENCH_kernels.json written");
    }

    if let Some(s) = gemm512_speedup {
        note!("[kernels] 512x512x512 gemm speedup at {threads} threads: {s:.2}x");
    }
    if host_cpus < requested_threads {
        note!(
            "[kernels] note: host grants only {host_cpus} CPU(s); \
             multi-thread scaling is core-bound, not kernel-bound"
        );
    }
    trace.finish();
}
