//! SiloFuse pipeline benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipebench/Cargo.toml -- \
//!     --workload stacked-loan|stacked-churn|serve-loan --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` runs the workload untraced
//! and reports the end-to-end metrics; `--trace 1` runs it untraced, then
//! again with the program's telemetry on, then probes each layer, and
//! reports the per-layer metrics. The last line of standard output is the
//! JSON result; the lines above it are the human-readable report.
//! `pipebench/README.md` documents the workloads and every metric.

mod attrib;
mod check;
mod host;
mod probes;
mod report;
mod serve;
mod stacked;
mod stats;

use check::Ledger;
use report::Values;
use std::path::Path;

const USAGE: &str = "usage: pipebench --workload stacked-loan|stacked-churn|serve-loan|all \
                     --seed N --seconds S --trace 0|1";

/// Scratch space for checkpoints, inside the checkout.
const SCRATCH: &str = ".bench_build/pipebench-scratch";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    StackedLoan,
    StackedChurn,
    ServeLoan,
}

impl Workload {
    const ALL: [Workload; 3] = [Self::StackedLoan, Self::StackedChurn, Self::ServeLoan];

    fn name(self) -> &'static str {
        match self {
            Self::StackedLoan => "stacked-loan",
            Self::StackedChurn => "stacked-churn",
            Self::ServeLoan => "serve-loan",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Seeds of one run, all derived from the benchmark's `--seed`; the
/// program only ever sees the inputs they generate.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub root: u64,
    pub data: u64,
    pub model: u64,
    pub fit: u64,
    pub job: u64,
    pub metric: u64,
}

impl Seeds {
    fn derive(root: u64) -> Self {
        let mix = |stream: u64| {
            let mut z = root ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Self { root, data: mix(1), model: mix(2), fit: mix(3), job: mix(4), metric: mix(5) }
    }
}

/// Rows of one synthesis job. Every workload requests its rows as jobs of
/// this size, each fetched as `JOB_ROWS / PAGE_ROWS` pages of `PAGE_ROWS`.
pub const JOB_ROWS: usize = 1024;
pub const PAGE_ROWS: usize = 256;
pub const PAGES_PER_JOB: usize = JOB_ROWS / PAGE_ROWS;

/// Run length relative to the calibrated 30 s, clamped to sane sizes.
pub fn scale(seconds: f64) -> f64 {
    (seconds / 30.0).clamp(0.05, 3.0)
}

/// Percentiles of page latency the benchmark reports.
pub const PAGE_PERCENTILES: [f64; 2] = [10.0, 90.0];

/// Jobs each of `requesters` closed-loop clients makes in a run of
/// `seconds`: enough pages between them for every reported percentile,
/// more on longer runs.
pub fn jobs_per_requester(seconds: f64, requesters: usize) -> usize {
    let min_pages =
        PAGE_PERCENTILES.iter().map(|&p| stats::samples_for_percentile(p)).max().unwrap_or(1);
    let pages = min_pages.max((min_pages as f64 * scale(seconds)) as usize);
    pages.div_ceil(PAGES_PER_JOB * requesters)
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub values: Values,
    pub ledger: Ledger,
    pub report: String,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(workload) = args.workload else {
        run_all(&args);
    };
    let seeds = Seeds::derive(args.seed);
    let facts = host::HostFacts::collect(args.seed);
    let scratch = Path::new(SCRATCH);
    let (started, steal_before) = (std::time::Instant::now(), host::steal_s());

    let mut outcome = match workload {
        Workload::StackedLoan => {
            stacked::run(&stacked::Plan::new("Loan", args.seconds), &seeds, args.trace)
        }
        Workload::StackedChurn => {
            stacked::run(&stacked::Plan::new("Churn", args.seconds), &seeds, args.trace)
        }
        Workload::ServeLoan => {
            serve::run(&serve::Plan::new(args.seconds), &seeds, args.trace, scratch)
        }
    };
    let _ = std::fs::remove_dir(scratch);

    let ledger = &outcome.ledger;
    let specs = if args.trace { report::PER_LAYER } else { report::END_TO_END };
    if !args.trace {
        outcome.values.set("peak_rss_mib", host::peak_rss_mib());
        outcome.values.set("ok_share", ledger.ok_share());
    }
    println!(
        "pipebench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("host: {}", facts.render());
    println!(
        "host steal: {:.2} s of CPU time taken by the hypervisor during this run's {:.1} s",
        host::steal_s() - steal_before,
        started.elapsed().as_secs_f64()
    );
    print!("{}", outcome.report);
    println!(
        "operations: {} attempted, {} failed, fail_share {}",
        ledger.attempted,
        ledger.failed,
        ledger.fail_share()
    );
    for m in &ledger.messages {
        println!("  failure: {m}");
    }
    println!("{} metrics:", if args.trace { "per-layer" } else { "end-to-end" });
    print!("{}", report::render_table(specs, &outcome.values));

    let problems = report::non_finite(specs, &outcome.values);
    for p in &problems {
        println!("  problem: {p}");
    }
    let correct = ledger.wrong == 0 && problems.is_empty();
    let line =
        report::result_line(correct, ledger.attempted, ledger.failed, specs, &outcome.values);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// Runs every workload with the same arguments, each in its own process
/// so peak RSS stays per workload; exits non-zero if any of them failed.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate the benchmark executable: {e}");
        std::process::exit(2);
    });
    let mut code = 0;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => code = s.code().unwrap_or(1).max(1),
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                code = 2;
            }
        }
    }
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_command_line_parses() {
        let a = parse_args(&argv("--workload serve-loan --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args { workload: Some(Workload::ServeLoan), seed: 7, seconds: 20.0, trace: true }
        );
        let all = parse_args(&argv("--workload all --seed 7 --seconds 20")).unwrap();
        assert_eq!((all.workload, all.trace), (None, false));
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 20")).is_err());
        assert!(parse_args(&argv("--workload serve-loan --seed 7 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload serve-loan --seed 7 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-loan --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }

    #[test]
    fn every_run_has_pages_for_p10_and_p90() {
        // 101 pages at the calibrated length, rounded up to whole jobs: 26
        // jobs for one requester, 13 each for two.
        assert_eq!(jobs_per_requester(30.0, 1), 26);
        assert_eq!(jobs_per_requester(30.0, 2), 13);
        for (seconds, requesters) in [(1.0, 1), (1.0, 2), (30.0, 3), (90.0, 2)] {
            let pages = jobs_per_requester(seconds, requesters) * requesters * PAGES_PER_JOB;
            for p in PAGE_PERCENTILES {
                assert!(stats::supports_percentile(pages, p), "{seconds} s, {requesters}, p{p}");
            }
        }
        assert_eq!(jobs_per_requester(60.0, 1), 51);
    }

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let a = Seeds::derive(1);
        let b = Seeds::derive(1);
        let c = Seeds::derive(2);
        assert_eq!((a.data, a.model, a.job), (b.data, b.model, b.job));
        assert_ne!(a.data, c.data);
        let all = [a.data, a.model, a.fit, a.job, a.metric];
        for (i, x) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|y| y != x));
        }
    }
}
