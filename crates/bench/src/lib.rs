//! # silofuse-bench
//!
//! Experiment harness reproducing every table and figure of the SiloFuse
//! paper's evaluation (§V).
//!
//! Each experiment is a binary:
//!
//! | target | reproduces |
//! |---|---|
//! | `table2` | Table II — dataset statistics & one-hot expansion |
//! | `sweep`  | Tables III, IV and VI — resemblance, utility and privacy scores, 7 models × 9 datasets, from one training pass |
//! | `table5` | Table V — correlation-difference matrices |
//! | `table7` | Table VII — privacy vs denoising steps |
//! | `fig10`  | Fig. 10 — communication bytes vs iterations |
//! | `fig11`  | Fig. 11 — robustness to #clients & feature permutation |
//! | `theorem1` | Theorem 1 — latent irreversibility, empirically |
//! | `ablation` | ablations of SiloFuse's design choices (DESIGN.md §3) |
//!
//! Two more bins gate what no test can: `kernels` (per-ISA GFLOP/s floors
//! and the `gemm_transpose`-to-`gemm` ratio, written to
//! `BENCH_kernels.json`) and `observe` (the traced-synthesis overhead
//! bound, written to `BENCH_observe.json`).
//!
//! Each bin accepts only the flags it reads, among `--quick` (smoke-test
//! sizes), `--trials N`, `--datasets Loan,Adult,...`, `--seed S` and
//! `--trace`; `--threads N` works everywhere. Reports are written to
//! `target/experiments/<name>.txt` and printed.

use silofuse_checkpoint::Checkpointer;
use silofuse_core::pipeline::RunConfig;
use silofuse_distributed::{FaultPlan, NetConfig};
use silofuse_observe::cli::print;
use silofuse_observe::note;
use silofuse_tabular::profiles::{
    all_profiles, high_cardinality_profiles, profile_by_name, DatasetProfile,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Smoke-test sizes (seconds instead of minutes).
    pub quick: bool,
    /// Trials per cell (paper: 5).
    pub trials: usize,
    /// Dataset name filter (None = all nine).
    pub datasets: Option<Vec<String>>,
    /// Master seed.
    pub seed: u64,
    /// Collect run telemetry (spans, metrics, events) and write a JSONL
    /// trace under `target/experiments/telemetry/`.
    pub trace: bool,
    /// Periodically flush a Prometheus-text-format metrics snapshot to
    /// this path (`--expose FILE`). Implies `--trace`.
    pub expose: Option<String>,
    /// Seeded link-fault plan for the distributed models
    /// (`--faults drop=0.05,delay=10ms,seed=7`). None = perfect network.
    pub faults: Option<FaultPlan>,
    /// Bounded-receive lease of the reliable transport
    /// (`--retry-deadline 250ms`). None = the policy default.
    pub retry_deadline: Option<Duration>,
    /// Retransmission backoff cap (`--retry-max-backoff 2s`).
    /// None = the policy default.
    pub retry_max_backoff: Option<Duration>,
    /// Directory for crash-safe training checkpoints (`--checkpoint-dir`).
    /// None = checkpointing off.
    pub checkpoint_dir: Option<String>,
    /// Checkpoint cadence in training steps (`--checkpoint-every`).
    pub checkpoint_every: u64,
    /// Resume the distributed runs from the latest checkpoints in
    /// `checkpoint_dir` (`--resume`).
    pub resume: bool,
    /// Worker threads for the dense-kernel backend (`--threads N`).
    /// None keeps the backend's configured count: `SILOFUSE_THREADS`, or
    /// one worker per available core when that is unset. 1 = serial SIMD
    /// kernels; results are bit-identical at every thread count.
    pub threads: Option<usize>,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            quick: false,
            trials: 1,
            datasets: None,
            seed: 17,
            trace: false,
            expose: None,
            faults: None,
            retry_deadline: None,
            retry_max_backoff: None,
            checkpoint_dir: None,
            checkpoint_every: 50,
            resume: false,
            threads: None,
        }
    }
}

/// The network configuration implied by `--faults` (default: perfect
/// links), with `--retry-deadline` / `--retry-max-backoff` applied on top.
pub fn net_config(opts: &CliOptions) -> NetConfig {
    let mut net = match &opts.faults {
        Some(plan) => NetConfig::faulty(plan.clone()),
        None => NetConfig::default(),
    };
    if let Some(d) = opts.retry_deadline {
        net.retry.recv_deadline = d;
    }
    if let Some(d) = opts.retry_max_backoff {
        net.retry.max_backoff = d;
    }
    net
}

/// The crash-safe checkpointer implied by `--checkpoint-dir`,
/// `--checkpoint-every`, and `--resume`, scoped under `tag` so concurrent
/// experiments (or datasets within one) don't clobber each other's files.
/// None when checkpointing is off.
pub fn checkpointer(opts: &CliOptions, tag: &str) -> Option<Checkpointer> {
    let dir = opts.checkpoint_dir.as_ref()?;
    let scoped = PathBuf::from(dir).join(tag);
    Some(Checkpointer::new(scoped, opts.checkpoint_every).with_resume(opts.resume))
}

/// Every flag an experiment bin can read, with its value placeholder.
const FLAGS: [(&str, &str); 13] = [
    ("--quick", ""),
    ("--trace", ""),
    ("--expose", " FILE"),
    ("--trials", " N"),
    ("--seed", " S"),
    ("--datasets", " A,B"),
    ("--faults", " drop=0.05,delay=10ms,seed=7"),
    ("--retry-deadline", " DUR"),
    ("--retry-max-backoff", " DUR"),
    ("--checkpoint-dir", " D"),
    ("--checkpoint-every", " N"),
    ("--resume", ""),
    ("--threads", " N"),
];

/// The usage line for a bin that reads the flags `reads`.
fn usage(reads: &[&str]) -> String {
    let supported: Vec<String> = FLAGS
        .iter()
        .filter(|(flag, _)| *flag == "--threads" || reads.contains(flag))
        .map(|(flag, value)| format!("{flag}{value}"))
        .collect();
    format!("supported: {}", supported.join(" "))
}

/// Parses `std::env::args()` into [`CliOptions`] for a bin that reads the
/// flags `reads` (plus `--threads`, which every bin accepts), then
/// applies `--threads` (only when given) to the backend.
///
/// On a malformed argument, or a flag the bin does not read, this prints
/// the error and the usage line and exits with status 2, before any work
/// runs. So does a malformed `SILOFUSE_THREADS` or `SILOFUSE_SIMD` (see
/// [`silofuse_nn::backend::check_env`]), with the values it accepts.
pub fn parse_cli(reads: &[&str]) -> CliOptions {
    let opts = parse_args(std::env::args().skip(1), reads).unwrap_or_else(|e| {
        note!("error: {e}\n{}", usage(reads));
        std::process::exit(2)
    });
    if let Err(e) = silofuse_nn::backend::check_env() {
        note!("error: {e}");
        std::process::exit(2)
    }
    if let Some(n) = opts.threads {
        silofuse_nn::backend::set_threads(n);
    }
    opts
}

/// Parses command-line arguments (without the program name) into
/// [`CliOptions`] for a bin that reads the flags `reads` (plus
/// `--threads`). Touches no global state.
///
/// # Errors
/// A message naming the offending argument: an unknown flag, a flag the
/// bin does not read, a missing or malformed value, a `--datasets` name
/// that matches no profile, or `--resume` without `--checkpoint-dir`.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    reads: &[&str],
) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg != "--threads" && !reads.contains(&arg.as_str()) {
            return Err(if FLAGS.iter().any(|(flag, _)| *flag == arg) {
                format!("this binary does not read {arg}")
            } else {
                format!("unknown argument {arg}")
            });
        }
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--trace" => opts.trace = true,
            "--expose" => {
                opts.expose = Some(value("a file path")?);
                opts.trace = true;
            }
            "--trials" => {
                opts.trials = value("a positive integer")?
                    .parse()
                    .map_err(|_| "--trials needs a positive integer".to_string())?;
            }
            "--seed" => {
                opts.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--datasets" => {
                let list = value("a comma-separated list")?;
                let names: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
                if let Some(bad) = names.iter().find(|n| profile_by_name(n).is_none()) {
                    let valid: Vec<&str> = all_profiles()
                        .into_iter()
                        .chain(high_cardinality_profiles())
                        .map(|p| p.name)
                        .collect();
                    return Err(format!(
                        "--datasets: unknown dataset '{bad}'; valid names: {}",
                        valid.join(", ")
                    ));
                }
                opts.datasets = Some(names);
            }
            "--faults" => {
                opts.faults = Some(FaultPlan::parse(&value("a spec like drop=0.05,seed=7")?)?);
            }
            "--retry-deadline" => {
                let v = value("a duration like 250ms")?;
                opts.retry_deadline = Some(
                    silofuse_distributed::faults::parse_duration(&v)
                        .map_err(|e| format!("--retry-deadline: {e}"))?,
                );
            }
            "--retry-max-backoff" => {
                let v = value("a duration like 2s")?;
                opts.retry_max_backoff = Some(
                    silofuse_distributed::faults::parse_duration(&v)
                        .map_err(|e| format!("--retry-max-backoff: {e}"))?,
                );
            }
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value("a path")?),
            "--checkpoint-every" => {
                opts.checkpoint_every = value("a positive integer")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--checkpoint-every needs a positive integer")?;
            }
            "--resume" => opts.resume = true,
            "--threads" => {
                opts.threads = Some(
                    value("a positive integer")?
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("--threads needs a positive integer")?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir to load from".into());
    }
    Ok(opts)
}

/// The datasets selected by the CLI options, in Table II order.
pub fn selected_profiles(opts: &CliOptions) -> Vec<DatasetProfile> {
    let all = all_profiles();
    match &opts.datasets {
        None => all,
        Some(names) => all
            .into_iter()
            .filter(|p| names.iter().any(|n| n.eq_ignore_ascii_case(p.name)))
            .collect(),
    }
}

/// The run configuration for a dataset under the CLI options.
///
/// Wide datasets (large one-hot width) get proportionally fewer steps and
/// rows so the full 7×9 sweep stays CPU-tractable; the scaling is uniform
/// across models, preserving the comparisons.
pub fn run_config_for(profile: &DatasetProfile, opts: &CliOptions, trial: usize) -> RunConfig {
    let seed = opts.seed ^ (trial as u64).wrapping_mul(0x9e37_79b9);
    let mut cfg = if opts.quick { RunConfig::quick(seed) } else { RunConfig::standard(seed) };
    let width = profile.one_hot_width();
    let scale = if width > 1000 {
        6
    } else if width > 200 {
        3
    } else if width > 80 {
        2
    } else {
        1
    };
    cfg.budget = cfg.budget.scaled_down(scale);
    if width > 1000 {
        cfg.train_rows = cfg.train_rows.min(768);
        cfg.synth_rows = cfg.synth_rows.min(768);
        cfg.budget.batch_size = cfg.budget.batch_size.min(128);
    }
    cfg
}

/// Formats a `mean ± std` cell like the paper's tables.
pub fn cell(mean: f64, std: f64) -> String {
    format!("{mean:.1}±{std:.2}")
}

/// A simple fixed-width text table builder.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given header.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..ncols {
                let _ = write!(line, "{:<w$}", cells[c], w = widths[c] + 2);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Writes a report to `target/experiments/<name>.txt`, then prints it. A
/// closed stdout (`table2 | head -1`) still leaves the file written; any
/// other stdout write error ends the bin with exit code 1.
pub fn emit_report(name: &str, content: &str) {
    let dir = PathBuf::from("target/experiments");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, content) {
            note!("warning: could not write {}: {e}", path.display());
        } else {
            note!("[report written to {}]", path.display());
        }
    }
    if let Err(e) = print(&mut std::io::stdout(), &format!("{content}\n")) {
        note!("error: {e}");
        std::process::exit(1);
    }
}

/// Human-readable byte formatting.
pub fn human_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = b;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args` for a bin that reads the flags `reads`.
    fn parse_for(args: &[&str], reads: &[&str]) -> Result<CliOptions, String> {
        parse_args(args.iter().map(|a| a.to_string()), reads)
    }

    /// Parses `args` for a bin that reads every flag.
    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_for(args, &FLAGS.map(|(flag, _)| flag))
    }

    #[test]
    fn threads_stay_unset_unless_the_flag_is_given() {
        assert_eq!(parse(&[]).expect("no arguments parse").threads, None);
        assert_eq!(parse(&["--quick"]).expect("valid").threads, None);
        assert_eq!(parse(&["--threads", "3"]).expect("valid").threads, Some(3));
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads"]).is_err());
    }

    #[test]
    fn unknown_dataset_names_are_rejected_with_the_valid_list() {
        let err = parse(&["--datasets", "Lona"]).expect_err("a misspelled name must not parse");
        assert!(err.contains("'Lona'"), "{err}");
        for p in all_profiles() {
            assert!(err.contains(p.name), "{err} should list {}", p.name);
        }
        let err = parse(&["--datasets", "Loan,Chrun"]).expect_err("one bad name is enough");
        assert!(err.contains("'Chrun'"), "{err}");

        let opts = parse(&["--datasets", "loan, Churn"]).expect("known names, any case");
        let names: Vec<&str> = selected_profiles(&opts).iter().map(|p| p.name).collect();
        assert_eq!(names, ["Loan", "Churn"]);
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        assert!(parse(&["--modle"]).unwrap_err().contains("--modle"));
        assert!(parse(&["--precision", "f16"]).unwrap_err().contains("--precision"));
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--resume"]).is_err());
        assert!(parse(&["--checkpoint-dir", "d", "--resume"]).is_ok());

        // A known flag the bin does not read is an error too, not silently
        // ignored: `table2` reads only these three, plus `--threads`.
        let table2 = ["--datasets", "--trace", "--expose"];
        let err = parse_for(&["--faults", "drop=0.1"], &table2).unwrap_err();
        assert_eq!(err, "this binary does not read --faults");
        assert!(parse_for(&["--trials", "9"], &table2).is_err());
        assert!(parse_for(&["--checkpoint-dir", "d", "--resume"], &table2).is_err());
        assert!(parse_for(&["--datasets", "Loan", "--threads", "2"], &table2).is_ok());
        assert_eq!(usage(&table2), "supported: --trace --expose FILE --datasets A,B --threads N");
    }

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new(&["Model", "Score"]);
        t.row(vec!["SiloFuse".into(), "91.0".into()]);
        t.row(vec!["GAN".into(), "64.0".into()]);
        let s = t.render();
        assert!(s.contains("SiloFuse"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn run_config_scales_with_width() {
        let opts = CliOptions::default();
        let churn = silofuse_tabular::profiles::churn();
        let loan = silofuse_tabular::profiles::loan();
        let c = run_config_for(&churn, &opts, 0);
        let l = run_config_for(&loan, &opts, 0);
        assert!(c.budget.ae_steps < l.budget.ae_steps);
        assert!(c.train_rows <= 768);
    }

    #[test]
    fn selected_profiles_filters_by_name() {
        let opts = CliOptions {
            datasets: Some(vec!["loan".into(), "HELOC".into()]),
            ..Default::default()
        };
        let sel = selected_profiles(&opts);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512.0), "512.00 B");
        assert_eq!(human_bytes(2048.0), "2.00 KiB");
        assert!(human_bytes(5e9).ends_with("GiB"));
    }
}
