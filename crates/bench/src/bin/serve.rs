//! Serving benchmark: multi-tenant synthesis throughput and latency
//! through the full `silofuse-serve` path — admission control, chunked
//! streaming over the reliable transport, cursor pagination — at 1, 2 and
//! 4 concurrent tenants of one shared model. Each tenant thread runs a
//! fixed number of paginated jobs (two cursor fetches per job) and retries
//! typed `Overloaded` rejections with exponential back-off, exactly as a
//! real client would. Reports jobs/sec plus p50/p99 per-job latency and
//! the rejection count at each level, and the 2-vs-1-tenant throughput
//! ratio, then writes `BENCH_serve.json` with the host's core count so the
//! serving-performance trajectory accumulates across commits.
//!
//! Usage: `cargo run --release -p silofuse-bench --bin serve -- [--quick]
//! [--seed S] [--threads N]`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use silofuse_bench::parse_cli;
use silofuse_core::{
    ModelRegistry, ModelSpec, ServeConfig, ServeError, SynthesisServer, TrainBudget,
};
use silofuse_distributed::ServeRejectCode;

/// One measured tenant level.
struct Level {
    tenants: usize,
    jobs_per_tenant: usize,
    rows_per_job: u32,
    elapsed_ns: u64,
    latencies_ns: Vec<u64>,
    rejections: u64,
    bytes_control: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs `jobs_per_tenant` paginated jobs on each of `tenants` concurrent
/// tenant connections against a freshly-started server over `registry`'s
/// spec, and measures per-job wall time.
fn run_level(
    specs: &[ModelSpec],
    tenants: usize,
    jobs_per_tenant: usize,
    rows_per_job: u32,
    chunk_rows: usize,
) -> Result<Level, ServeError> {
    let registry = ModelRegistry::open(None, 50, specs)?;
    let config =
        ServeConfig { max_in_flight: 2, per_tenant_max: 1, chunk_rows, ..ServeConfig::default() };
    let mut server = SynthesisServer::new(registry, config)?;

    let clients: Vec<_> = (0..tenants).map(|t| server.connect(&format!("tenant-{t}"))).collect();

    let start = Instant::now();
    let mut handles = Vec::new();
    for (t, client) in clients.into_iter().enumerate() {
        handles.push(std::thread::spawn(move || -> Result<(Vec<u64>, u64), ServeError> {
            let model = client.model_id("loan").expect("loan is cataloged");
            let mut latencies = Vec::with_capacity(jobs_per_tenant);
            let mut rejections = 0u64;
            for j in 0..jobs_per_tenant {
                let job = ((t as u64) << 32) | j as u64;
                let job_start = Instant::now();
                // A job is one logical request served as two cursor
                // fetches — the pagination shape real clients use.
                let half = rows_per_job / 2;
                for (cursor, rows) in [(0u64, half), (u64::from(half), rows_per_job - half)] {
                    let mut backoff = Duration::from_millis(2);
                    loop {
                        match client.fetch(model, job, cursor, rows) {
                            Ok(table) => {
                                assert_eq!(table.n_rows(), rows as usize);
                                break;
                            }
                            Err(ServeError::Rejected {
                                code: ServeRejectCode::Overloaded, ..
                            }) => {
                                rejections += 1;
                                std::thread::sleep(backoff);
                                backoff = (backoff * 2).min(Duration::from_millis(64));
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                latencies.push(job_start.elapsed().as_nanos() as u64);
            }
            Ok((latencies, rejections))
        }));
    }

    let mut latencies_ns = Vec::new();
    let mut rejections = 0u64;
    for handle in handles {
        let (lat, rej) = handle.join().expect("tenant thread panicked")?;
        latencies_ns.extend(lat);
        rejections += rej;
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let bytes_control = server.comm_stats().bytes_control;
    server.shutdown();
    latencies_ns.sort_unstable();

    Ok(Level {
        tenants,
        jobs_per_tenant,
        rows_per_job,
        elapsed_ns,
        latencies_ns,
        rejections,
        bytes_control,
    })
}

fn main() {
    let opts = parse_cli();

    let budget =
        if opts.quick { TrainBudget::quick().scaled_down(4) } else { TrainBudget::quick() };
    let train_rows = if opts.quick { 128 } else { 512 };
    let rows_per_job: u32 = if opts.quick { 256 } else { 1024 };
    let jobs_per_tenant = if opts.quick { 3 } else { 6 };
    let chunk_rows = if opts.quick { 64 } else { 256 };
    let specs = vec![ModelSpec::new("loan", "Loan", train_rows, opts.seed, budget)];

    let mut report = silofuse_bench::TextTable::new(&[
        "tenants",
        "jobs",
        "rows/job",
        "jobs/s",
        "p50 ms",
        "p99 ms",
        "rejections",
        "control B",
    ]);
    let mut levels = Vec::new();
    for tenants in [1usize, 2, 4] {
        match run_level(&specs, tenants, jobs_per_tenant, rows_per_job, chunk_rows) {
            Ok(level) => {
                let jobs = level.latencies_ns.len();
                let jobs_per_s = jobs as f64 / (level.elapsed_ns as f64 / 1e9);
                let p50 = percentile(&level.latencies_ns, 0.50);
                let p99 = percentile(&level.latencies_ns, 0.99);
                eprintln!(
                    "[serve] {tenants} tenant(s): {jobs} jobs  {jobs_per_s:>6.2} jobs/s  \
                     p50 {:>7.1} ms  p99 {:>7.1} ms  {} rejection(s)",
                    p50 as f64 / 1e6,
                    p99 as f64 / 1e6,
                    level.rejections,
                );
                report.row(vec![
                    tenants.to_string(),
                    jobs.to_string(),
                    level.rows_per_job.to_string(),
                    format!("{jobs_per_s:.2}"),
                    format!("{:.1}", p50 as f64 / 1e6),
                    format!("{:.1}", p99 as f64 / 1e6),
                    level.rejections.to_string(),
                    level.bytes_control.to_string(),
                ]);
                levels.push(level);
            }
            Err(e) => {
                eprintln!("[serve] {tenants} tenant(s): FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    let jobs_per_s = |tenants: usize| {
        levels
            .iter()
            .find(|l| l.tenants == tenants)
            .map(|l| l.latencies_ns.len() as f64 / (l.elapsed_ns as f64 / 1e9))
    };
    let scaling_2v1 = jobs_per_s(2).zip(jobs_per_s(1)).map_or(0.0, |(two, one)| two / one);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("[serve] 2 vs 1 tenant throughput: {scaling_2v1:.2}x on {host_cpus} host CPU(s)");

    let mut json = String::from("{\n  \"bench\": \"serve\",\n");
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"threads\": {},", silofuse_nn::backend::threads());
    let _ = writeln!(json, "  \"chunk_rows\": {chunk_rows},");
    let _ = writeln!(json, "  \"max_in_flight\": 2,");
    let _ = writeln!(json, "  \"per_tenant_max\": 1,");
    let _ = writeln!(json, "  \"scaling_2v1\": {scaling_2v1:.3},");
    json.push_str("  \"results\": [\n");
    let records: Vec<String> = levels
        .iter()
        .map(|level| {
            let jobs = level.latencies_ns.len();
            let jobs_per_s = jobs as f64 / (level.elapsed_ns as f64 / 1e9);
            format!(
                "    {{\"tenants\": {}, \"jobs\": {jobs}, \"jobs_per_tenant\": {}, \
                 \"rows_per_job\": {}, \"elapsed_ns\": {}, \"jobs_per_s\": {jobs_per_s:.3}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"rejections\": {}, \"bytes_control\": {}}}",
                level.tenants,
                level.jobs_per_tenant,
                level.rows_per_job,
                level.elapsed_ns,
                percentile(&level.latencies_ns, 0.50),
                percentile(&level.latencies_ns, 0.99),
                level.rejections,
                level.bytes_control,
            )
        })
        .collect();
    json.push_str(&records.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let content = format!(
        "Serve — multi-tenant synthesis service throughput; Loan model, seed {}, \
         max_in_flight 2, per_tenant_max 1, chunk_rows {chunk_rows}, \
         two cursor fetches per job, Overloaded retried with back-off; \
         {host_cpus} host CPU(s), 2 vs 1 tenant throughput {scaling_2v1:.2}x\n\n{}",
        opts.seed,
        report.render()
    );
    silofuse_bench::emit_report("serve", &content);

    if let Err(e) = std::fs::write("BENCH_serve.json", &json) {
        eprintln!("warning: could not write BENCH_serve.json: {e}");
    } else {
        eprintln!("[serve] BENCH_serve.json written");
    }
}
