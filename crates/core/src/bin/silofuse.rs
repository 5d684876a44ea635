//! `silofuse` — command-line synthetic data tool.
//!
//! ```text
//! silofuse generate  --profile Loan --rows 1000 --out data.csv
//! silofuse synth     --input real.csv --rows 2000 --out synth.csv
//!                    [--model silofuse|latentdiff|tabddpm|gan-linear|gan-conv]
//!                    [--clients 4] [--quick] [--seed 42]
//! silofuse evaluate  --real real.csv --synth synth.csv [--holdout holdout.csv]
//! silofuse inspect   --input data.csv
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_core::distributed::faults::parse_duration;
use silofuse_core::{
    build_synthesizer_with_net, Checkpointer, DegradePolicy, FaultPlan, ModelKind, ModelRegistry,
    ModelSpec, NetConfig, ServeConfig, ServeError, SiloFuse, SiloFuseConfig, SupervisorConfig,
    SynthesisServer, TrainBudget,
};
use silofuse_metrics::{
    privacy, resemblance, utility, PrivacyConfig, ResemblanceConfig, UtilityConfig,
};
use silofuse_observe::cli::{print, TracedRun};
use silofuse_observe::note;
use silofuse_tabular::csv::{read_csv, read_csv_as, write_csv, CsvTable};
use silofuse_tabular::partition::PartitionStrategy;
use silofuse_tabular::profiles;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, run, flags) = match parse_args(&args) {
        Ok(Invocation::Run { command, run, flags }) => (command, run, flags),
        Ok(Invocation::Help) => {
            let help = print(&mut std::io::stdout(), &format!("{USAGE}\n"));
            return exit_code(&mut std::io::stderr(), help);
        }
        Err(e) => {
            note!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = silofuse_nn::backend::check_env() {
        note!("error: {e}");
        return ExitCode::from(2);
    }
    match flags.get("threads").map(|v| v.parse::<usize>()) {
        None => {}
        Some(Ok(n)) if n > 0 => silofuse_nn::backend::set_threads(n),
        Some(_) => {
            note!("error: --threads needs a positive integer\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let trace = TracedRun::start(
        &format!("silofuse-{command}"),
        "cli",
        flags.contains_key("trace"),
        flags.get("expose").map(String::as_str),
    );
    let result = run(&flags).and_then(|text| print(&mut std::io::stdout(), &text));
    trace.finish();
    exit_code(&mut std::io::stderr(), result)
}

/// The exit code of a command's `result`, reporting an error on `stderr`.
/// A closed stderr loses the message but not the code.
fn exit_code(stderr: &mut impl Write, result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let _ = print(stderr, &format!("error: {e}\n"));
            ExitCode::FAILURE
        }
    }
}

/// `silofuse trace-report [--input <run.trace.jsonl>]`: load a merged
/// causal trace (default: the most recent one under the telemetry
/// directory) and print its critical-path breakdown.
fn cmd_trace_report(flags: &Flags) -> Result<String, String> {
    let path = match flags.get("input") {
        Some(p) => std::path::PathBuf::from(p),
        None => latest_trace_file()?,
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = silofuse_observe::trace::parse_trace_jsonl(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    note!("[trace-report] {}", path.display());
    Ok(silofuse_observe::trace::render_report(&report))
}

/// The most recently modified `*.trace.jsonl` under the telemetry dir.
fn latest_trace_file() -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(silofuse_observe::export::TELEMETRY_DIR);
    let entries = std::fs::read_dir(dir).map_err(|e| {
        format!("{}: {e} (run something with --trace first, or pass --input)", dir.display())
    })?;
    let mut best: Option<(std::time::SystemTime, std::path::PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.file_name().is_some_and(|n| n.to_string_lossy().ends_with(".trace.jsonl")) {
            continue;
        }
        let modified = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if best.as_ref().is_none_or(|(t, _)| modified > *t) {
            best = Some((modified, path));
        }
    }
    best.map(|(_, p)| p).ok_or_else(|| {
        format!("no *.trace.jsonl under {} — run with --trace, or pass --input", dir.display())
    })
}

const USAGE: &str = "silofuse — cross-silo synthetic tabular data (SiloFuse, ICDE 2024)

USAGE:
  silofuse generate --profile <Name> --rows <N> --out <file.csv> [--seed S]
      Emit a benchmark dataset (Loan, Adult, Cardio, Abalone, Churn,
      Diabetes, Cover, Intrusion, Heloc) with paper-matched schema.

  silofuse synth --input <real.csv> --rows <N> --out <synth.csv>
      [--model silofuse|latentdiff|tabddpm|gan-linear|gan-conv|e2e|e2e-distr]
      [--clients M] [--quick] [--seed S] [--faults SPEC]
      [--degrade fail-fast|quorum|best-effort] [--quorum K]
      [--heartbeat-every N] [--retry-deadline DUR] [--retry-max-backoff DUR]
      [--checkpoint-dir D] [--checkpoint-every N] [--resume]
      Fit a synthesizer on the CSV (schema inferred) and write synthetic rows.
      --faults injects seeded link faults into the distributed models, e.g.
      `--faults drop=0.05,delay=10ms,dup=0.02,seed=7`; the transport retries
      with exponential backoff and reports retransmits separately. Adding
      `crash_at=<phase>:<step>[,crash_client=i]` kills that node mid-run;
      `partition_at=n[,rejoin_at=r,partition_client=i]` cuts a link at its
      n-th upstream transmission (healing at the r-th, if given).
      --checkpoint-dir makes every training phase write crash-safe
      checkpoints (CRC-checked, atomically renamed) every N steps (default
      50); with --resume a relaunched run continues from the latest
      checkpoint, bit-identical to an uninterrupted run. e2e cannot
      checkpoint, and rejects these three flags.
      --degrade picks the supervision policy for dead silos: `fail-fast`
      (default) aborts with a typed error, `quorum` continues while at
      least K silos survive (requires --quorum K), `best-effort` while any
      survive. Dead silos' columns are MASKED in the output (withheld,
      never imputed). --heartbeat-every N makes each silo emit a liveness
      beat every N logical ticks (training steps / synthesis chunks);
      heartbeats ride a separate control-byte ledger, so Fig. 10 payload
      accounting is unchanged. --retry-deadline and --retry-max-backoff
      (e.g. 250ms, 2s) tune the transport's bounded-receive lease and
      retransmission backoff cap.

  silofuse serve [--models Loan,Adult] [--train-rows N] [--tenants T]
      [--jobs-per-tenant J] [--fetch-rows R] [--chunk-rows C]
      [--max-in-flight M] [--per-tenant Q] [--quick] [--seed S]
      [--checkpoint-dir D] [--checkpoint-every N] [--threads T]
      Run the in-process multi-tenant synthesis service: fit (or reload
      bit-identically from D's checkpoints) one model per profile, then
      serve T concurrent tenants J paginated jobs each. Load beyond the
      admission bounds is rejected with a typed Overloaded answer, never
      queued; a rejected tenant backs off and retries. Rows stream in
      C-row chunks; any cursor split of a job returns bytes identical to
      one big fetch, even across a restart.

  silofuse evaluate --real <real.csv> --synth <synth.csv>
      [--holdout <holdout.csv>] [--seed S]
      Score resemblance (+ utility when a holdout is given) and privacy.
      The synthetic and holdout files are read with the real file's
      columns and category labels.

  silofuse inspect --input <data.csv>
      Print the inferred schema and Table II-style statistics.

  silofuse trace-report [--input <run.trace.jsonl>]
      Print the critical-path breakdown of a merged causal trace written
      by a --trace run (default: the most recent one under
      target/experiments/telemetry/).

  Any command also accepts --trace: collect span/metric/event telemetry
  per actor (cli, coordinator, silo0..), print each actor's span tree,
  and write target/experiments/telemetry/<run>.jsonl plus the merged
  causal trace <run>.trace.jsonl.

  Any command also accepts --expose <file>: periodically flush a
  Prometheus-text-format snapshot of all metrics to <file> (atomic
  tmp+rename; implies --trace).

  Any command also accepts --threads N: run the dense kernels on N worker
  threads (default: SILOFUSE_THREADS, else one per available core; 1 =
  serial SIMD kernels). Outputs are bit-identical at every thread count,
  so --threads is purely a speed knob. SILOFUSE_SIMD
  (auto|avx512|avx2|sse2|scalar) caps the SIMD level the same way. Any
  other value of either variable is an error (exit code 2).

  Any command also accepts --help (or -h): print this text. Any other
  flag a command does not read is an error (exit code 2).";

type Flags = HashMap<String, String>;

/// A command's entry point; it returns what to print on stdout.
type CommandFn = fn(&Flags) -> Result<String, String>;

/// What the command line asks for.
#[derive(Debug)]
enum Invocation {
    /// Run `command`'s entry point with its flags.
    Run { command: String, run: CommandFn, flags: Flags },
    /// Print the usage and exit 0.
    Help,
}

/// Flags every command accepts on top of its own.
const GLOBAL_FLAGS: &[&str] = &["trace", "expose", "threads"];

/// Flags that take no value.
const SWITCHES: &[&str] = &["quick", "trace", "resume"];

/// `command`'s entry point and the flags it reads, or `None` for an
/// unknown command.
fn lookup(command: &str) -> Option<(CommandFn, &'static [&'static str])> {
    let entry: (CommandFn, &[&str]) = match command {
        "generate" => (cmd_generate, &["profile", "rows", "seed", "out"]),
        "synth" => (
            cmd_synth,
            &[
                "input",
                "out",
                "rows",
                "seed",
                "clients",
                "model",
                "quick",
                "faults",
                "retry-deadline",
                "retry-max-backoff",
                "quorum",
                "heartbeat-every",
                "degrade",
                "checkpoint-dir",
                "checkpoint-every",
                "resume",
            ],
        ),
        "serve" => (
            cmd_serve,
            &[
                "models",
                "train-rows",
                "tenants",
                "jobs-per-tenant",
                "fetch-rows",
                "seed",
                "checkpoint-dir",
                "checkpoint-every",
                "quick",
                "max-in-flight",
                "per-tenant",
                "chunk-rows",
            ],
        ),
        "evaluate" => (cmd_evaluate, &["real", "synth", "seed", "holdout"]),
        "inspect" => (cmd_inspect, &["input"]),
        "trace-report" => (cmd_trace_report, &["input"]),
        _ => return None,
    };
    Some(entry)
}

/// Splits the arguments into a command and its flags.
///
/// `help`, `--help` or `-h` in place of the command or of a flag asks for
/// the usage.
///
/// # Errors
/// A missing or unknown command, a bare word where a flag belongs, a flag
/// the command does not read, or a flag without its value.
fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(Invocation::Help);
    }
    let (run, known) = lookup(command).ok_or_else(|| format!("unknown command `{command}`"))?;
    let mut flags = Flags::new();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Invocation::Help);
        }
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{arg}`"));
        };
        if !known.contains(&name) && !GLOBAL_FLAGS.contains(&name) {
            return Err(format!("unknown flag --{name} for {command}"));
        }
        let value = if SWITCHES.contains(&name) {
            "true".to_string()
        } else {
            iter.next().ok_or_else(|| format!("--{name} needs a value"))?.clone()
        };
        flags.insert(name.to_string(), value);
    }
    Ok(Invocation::Run { command: command.clone(), run, flags })
}

fn required<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(String::as_str).ok_or_else(|| format!("missing --{name}"))
}

fn parse_num<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name}: invalid value `{v}`")),
    }
}

/// Reads the CSV at `path`, inferring its schema, or, given `like`, with
/// `like`'s schema and vocabularies.
fn load_csv(path: &str, like: Option<&CsvTable>) -> Result<CsvTable, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match like {
        None => read_csv(&text),
        Some(like) => read_csv_as(&text, like),
    }
    .map_err(|e| format!("{path}: {e}"))
}

/// [`load_csv`] for a table a model trains on or a metric scores: a file
/// with a header and no rows is an error naming it, never a model fitted
/// on nothing or a metric's panic.
fn load_rows(path: &str, like: Option<&CsvTable>) -> Result<CsvTable, String> {
    let csv = load_csv(path, like)?;
    if csv.table.n_rows() == 0 {
        return Err(format!("{path}: no data rows, only a header"));
    }
    Ok(csv)
}

fn cmd_generate(flags: &Flags) -> Result<String, String> {
    let name = required(flags, "profile")?;
    let rows: usize = parse_num(flags, "rows", 1000)?;
    let seed: u64 = parse_num(flags, "seed", 42)?;
    let out = required(flags, "out")?;
    let profile = profiles::profile_by_name(name)
        .ok_or_else(|| format!("unknown profile `{name}`; see `silofuse --help`"))?;
    let table = profile.generate(rows, seed);
    // Emit string labels for categorical codes so re-importing the CSV
    // infers the same schema (bare integers would re-infer as numeric).
    let vocabularies: Vec<Option<Vec<String>>> = table
        .schema()
        .columns()
        .iter()
        .map(|meta| match meta.kind {
            silofuse_tabular::ColumnKind::Categorical { cardinality } => {
                Some((0..cardinality).map(|c| format!("{}_v{c}", meta.name)).collect())
            }
            silofuse_tabular::ColumnKind::Numeric => None,
        })
        .collect();
    std::fs::write(out, write_csv(&table, Some(&vocabularies)))
        .map_err(|e| format!("{out}: {e}"))?;
    Ok(format!("wrote {rows} rows x {} columns of {} to {out}\n", table.n_cols(), profile.name))
}

fn cmd_serve(flags: &Flags) -> Result<String, String> {
    let models_arg = flags.get("models").map(String::as_str).unwrap_or("Loan");
    let train_rows: usize = parse_num(flags, "train-rows", 512)?;
    let tenants: usize = parse_num(flags, "tenants", 2)?;
    let jobs: usize = parse_num(flags, "jobs-per-tenant", 4)?;
    let fetch_rows: u32 = parse_num(flags, "fetch-rows", 1024)?;
    let seed: u64 = parse_num(flags, "seed", 42)?;
    let every: u64 = parse_num(flags, "checkpoint-every", 50)?;
    if tenants == 0 || jobs == 0 {
        return Err("--tenants and --jobs-per-tenant must be at least 1".into());
    }
    let budget =
        if flags.contains_key("quick") { TrainBudget::quick() } else { TrainBudget::standard() };
    let specs: Vec<ModelSpec> = models_arg
        .split(',')
        .map(|p| ModelSpec::new(p.trim().to_lowercase(), p.trim(), train_rows, seed, budget))
        .collect();
    let dir = flags.get("checkpoint-dir").map(std::path::PathBuf::from);
    if let Some(d) = &dir {
        note!("registry checkpoints under {} (resume on)", d.display());
    }
    note!("opening registry: {} model(s), {train_rows} training rows each...", specs.len());
    let registry = ModelRegistry::open(dir.as_deref(), every, &specs).map_err(|e| e.to_string())?;
    let model_count = registry.len();
    let config = ServeConfig {
        max_in_flight: parse_num(flags, "max-in-flight", 4)?,
        per_tenant_max: parse_num(flags, "per-tenant", 2)?,
        chunk_rows: parse_num(flags, "chunk-rows", 2048)?,
        net: NetConfig::default(),
    };
    let mut server = SynthesisServer::new(registry, config).map_err(|e| e.to_string())?;
    note!(
        "serving {model_count} model(s): {tenants} tenant(s) x {jobs} job(s) x {fetch_rows} rows"
    );
    let started = std::time::Instant::now();
    let workers: Vec<_> = (0..tenants)
        .map(|t| {
            let client = server.connect(&format!("tenant{t}"));
            std::thread::spawn(move || {
                let (mut rows_ok, mut jobs_ok, mut rejections) = (0u64, 0u64, 0u64);
                for j in 0..jobs {
                    let model = ((t + j) % model_count) as u32;
                    let job = (t as u64) << 32 | j as u64;
                    // Paginate each job in two cursor fetches to exercise
                    // the resumable path; overload answers back off and
                    // retry instead of queueing server-side.
                    let half = fetch_rows / 2;
                    let mut fetched = 0u32;
                    let mut backoff = Duration::from_millis(2);
                    while fetched < fetch_rows {
                        let take = if fetched == 0 { half.max(1) } else { fetch_rows - fetched };
                        match client.fetch(model, job, u64::from(fetched), take) {
                            Ok(part) => fetched += part.n_rows() as u32,
                            Err(ServeError::Rejected { .. }) => {
                                rejections += 1;
                                std::thread::sleep(backoff);
                                backoff = (backoff * 2).min(Duration::from_millis(64));
                            }
                            Err(e) => {
                                note!("tenant{t} job {j}: {e}");
                                return (rows_ok, jobs_ok, rejections);
                            }
                        }
                    }
                    rows_ok += u64::from(fetched);
                    jobs_ok += 1;
                }
                (rows_ok, jobs_ok, rejections)
            })
        })
        .collect();
    let (mut rows_ok, mut jobs_ok, mut rejections) = (0u64, 0u64, 0u64);
    for worker in workers {
        let (r, k, x) = worker.join().map_err(|_| "tenant thread panicked".to_string())?;
        rows_ok += r;
        jobs_ok += k;
        rejections += x;
    }
    let elapsed = started.elapsed();
    let stats = server.comm_stats();
    server.shutdown();
    Ok(format!(
        "served {jobs_ok} job(s) / {rows_ok} rows to {tenants} tenant(s) in {:.2}s \
         ({:.1} jobs/s); {rejections} overload rejection(s) answered typed, \
         {} control-plane bytes on the wire\n",
        elapsed.as_secs_f64(),
        jobs_ok as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.bytes_control,
    ))
}

fn model_kind(name: &str) -> Result<ModelKind, String> {
    Ok(match name {
        "silofuse" => ModelKind::SiloFuse,
        "latentdiff" => ModelKind::LatentDiff,
        "tabddpm" => ModelKind::TabDdpm,
        "gan-linear" => ModelKind::GanLinear,
        "gan-conv" => ModelKind::GanConv,
        "e2e" => ModelKind::E2e,
        "e2e-distr" => ModelKind::E2eDistr,
        other => return Err(format!("unknown model `{other}`")),
    })
}

/// Builds the crash-safe checkpointer requested by `--checkpoint-dir`,
/// `--checkpoint-every`, and `--resume`, or `None` when checkpointing is
/// off. `--resume`/`--checkpoint-every` without a directory is an error.
fn checkpointer_from_flags(flags: &Flags) -> Result<Option<Checkpointer>, String> {
    let every: u64 = parse_num(flags, "checkpoint-every", 50)?;
    match flags.get("checkpoint-dir") {
        Some(dir) => {
            if every == 0 {
                return Err("--checkpoint-every must be at least 1".into());
            }
            note!(
                "checkpointing every {every} steps to {dir}{}",
                if flags.contains_key("resume") { " (resuming)" } else { "" }
            );
            let ck = Checkpointer::new(dir, every).with_resume(flags.contains_key("resume"));
            // Crash debris from a previous run's interrupted atomic write
            // must be cleared before any load can trip over it.
            let swept = ck.sweep_stale_tmp().map_err(|e| e.to_string())?;
            if swept > 0 {
                note!("swept {swept} stale .tmp checkpoint file(s)");
            }
            Ok(Some(ck))
        }
        None if flags.contains_key("resume") => {
            Err("--resume needs --checkpoint-dir to load from".into())
        }
        None if flags.contains_key("checkpoint-every") => {
            Err("--checkpoint-every needs --checkpoint-dir to write to".into())
        }
        None => Ok(None),
    }
}

fn cmd_synth(flags: &Flags) -> Result<String, String> {
    let input = required(flags, "input")?;
    let out = required(flags, "out")?;
    let rows: usize = parse_num(flags, "rows", 1000)?;
    let seed: u64 = parse_num(flags, "seed", 42)?;
    let clients: usize = parse_num(flags, "clients", 4)?;
    let kind = model_kind(flags.get("model").map(String::as_str).unwrap_or("silofuse"))?;
    if !kind.checkpoints() {
        let asked = ["checkpoint-dir", "checkpoint-every", "resume"];
        if let Some(flag) = asked.into_iter().find(|f| flags.contains_key(*f)) {
            return Err(format!(
                "--{flag} only applies to models that checkpoint, not {}",
                kind.name()
            ));
        }
    }
    let budget =
        if flags.contains_key("quick") { TrainBudget::quick() } else { TrainBudget::standard() };
    let mut net = match flags.get("faults") {
        None => NetConfig::default(),
        Some(spec) => {
            let plan = FaultPlan::parse(spec)?;
            if !kind.is_distributed() {
                return Err(format!(
                    "--faults only applies to distributed models, not {}",
                    kind.name()
                ));
            }
            note!("injecting link faults: {spec}");
            NetConfig::faulty(plan)
        }
    };
    if let Some(v) = flags.get("retry-deadline") {
        net.retry.recv_deadline =
            parse_duration(v).map_err(|e| format!("--retry-deadline: {e}"))?;
    }
    if let Some(v) = flags.get("retry-max-backoff") {
        net.retry.max_backoff =
            parse_duration(v).map_err(|e| format!("--retry-max-backoff: {e}"))?;
    }
    let quorum: usize = parse_num(flags, "quorum", 0)?;
    let heartbeat_every: u64 = parse_num(flags, "heartbeat-every", 0)?;
    if flags.contains_key("degrade") || heartbeat_every > 0 {
        if !kind.is_distributed() {
            return Err(format!(
                "--degrade/--heartbeat-every only apply to distributed models, not {}",
                kind.name()
            ));
        }
        let policy = match flags.get("degrade") {
            None => DegradePolicy::FailFast,
            Some(v) => DegradePolicy::parse(v, quorum)?,
        };
        net.supervision = SupervisorConfig::new(policy, heartbeat_every);
        note!(
            "supervision: policy={}, heartbeat every {heartbeat_every} ticks",
            net.supervision.policy.name()
        );
    }

    let ckpt = checkpointer_from_flags(flags)?;

    let csv = load_rows(input, None)?;
    let clients = clients.min(csv.table.n_cols()).max(1);
    let silos = if kind.is_distributed() { format!(", {clients} clients") } else { String::new() };
    note!(
        "fitting {} on {} ({} rows x {} cols{silos})...",
        kind.name(),
        input,
        csv.table.n_rows(),
        csv.table.n_cols()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    if net.supervision.policy.degrades() {
        // A degrading run can end with dead silos, whose columns are
        // masked rather than imputed — the generic Synthesizer interface
        // cannot express that, so route through the SiloFuse facade.
        if !matches!(kind, ModelKind::SiloFuse) {
            return Err(format!(
                "--degrade quorum/best-effort applies to --model silofuse, not {}",
                kind.name()
            ));
        }
        let cfg = SiloFuseConfig {
            n_clients: clients,
            strategy: PartitionStrategy::Default,
            model: budget.latent_config(seed),
        };
        let mut model = SiloFuse::with_net(cfg, net);
        if let Some(ckpt) = ckpt {
            model.set_checkpointer(ckpt);
        }
        model.try_fit(&csv.table, &mut rng).map_err(|e| format!("training failed: {e}"))?;
        let (synth, masked) = model
            .try_synthesize_degraded(rows, &mut rng)
            .map_err(|e| format!("synthesis failed: {e}"))?;
        if !masked.is_empty() {
            note!(
                "WARNING: {} of {} columns MASKED (their silos died; values are withheld, never imputed): {}",
                masked.len(),
                csv.table.n_cols(),
                masked.join(", ")
            );
        }
        // Vocabularies follow the surviving columns by original name.
        let vocabularies: Vec<Option<Vec<String>>> = synth
            .schema()
            .columns()
            .iter()
            .map(|meta| {
                csv.table.schema().index_of(&meta.name).and_then(|i| csv.vocabularies[i].clone())
            })
            .collect();
        std::fs::write(out, write_csv(&synth, Some(&vocabularies)))
            .map_err(|e| format!("{out}: {e}"))?;
        return Ok(format!(
            "wrote {rows} synthetic rows ({} of {} columns) to {out}\n",
            synth.n_cols(),
            csv.table.n_cols()
        ));
    }
    let mut model =
        build_synthesizer_with_net(kind, &budget, clients, PartitionStrategy::Default, seed, net);
    if let Some(ckpt) = ckpt {
        model.set_checkpointer(ckpt);
    }
    model.try_fit(&csv.table, &mut rng).map_err(|e| format!("training failed: {e}"))?;
    let synth = model.synthesize(rows, &mut rng);
    std::fs::write(out, write_csv(&synth, Some(&csv.vocabularies)))
        .map_err(|e| format!("{out}: {e}"))?;
    Ok(format!("wrote {rows} synthetic rows to {out}\n"))
}

fn cmd_evaluate(flags: &Flags) -> Result<String, String> {
    let real = load_rows(required(flags, "real")?, None)?;
    // Read against the real table, so a label has one code in both and a
    // category the synthetic rows never produce scores as lost resemblance.
    let synth = load_rows(required(flags, "synth")?, Some(&real))?;
    let holdout = flags.get("holdout").map(|path| load_rows(path, Some(&real))).transpose()?;
    let seed: u64 = parse_num(flags, "seed", 42)?;
    let mut out = String::new();

    let r =
        resemblance(&real.table, &synth.table, &ResemblanceConfig { seed, ..Default::default() });
    let _ = writeln!(out, "resemblance (0-100, higher better):");
    let _ = writeln!(out, "  column similarity        {:.1}", r.column_similarity);
    let _ = writeln!(out, "  correlation similarity   {:.1}", r.correlation_similarity);
    let _ = writeln!(out, "  jensen-shannon           {:.1}", r.jensen_shannon);
    let _ = writeln!(out, "  kolmogorov-smirnov       {:.1}", r.kolmogorov_smirnov);
    let _ = writeln!(out, "  propensity               {:.1}", r.propensity);
    let _ = writeln!(out, "  COMPOSITE                {:.1}", r.composite);

    if let Some(holdout) = holdout {
        let u = utility(
            &real.table,
            &synth.table,
            &holdout.table,
            &UtilityConfig { seed, ..Default::default() },
        );
        let _ = writeln!(out, "utility (train-on-synthetic / test-on-real): {:.1}", u.score);
    }

    let p = privacy(&real.table, &synth.table, &PrivacyConfig { seed, ..Default::default() });
    let _ = writeln!(out, "privacy (0-100, higher = safer):");
    let _ = writeln!(out, "  singling-out             {:.1}", p.singling_out);
    let _ = writeln!(out, "  linkability              {:.1}", p.linkability);
    let _ = writeln!(out, "  attribute inference      {:.1}", p.attribute_inference);
    let _ = writeln!(out, "  COMPOSITE                {:.1}", p.composite);
    Ok(out)
}

fn cmd_inspect(flags: &Flags) -> Result<String, String> {
    let input = required(flags, "input")?;
    let csv = load_csv(input, None)?;
    let s = csv.table.schema();
    let mut out = format!(
        "{input}: {} rows, {} columns ({} categorical, {} numeric)\n\
         one-hot width {} ({:.2}x expansion)\n",
        csv.table.n_rows(),
        s.width(),
        s.categorical_count(),
        s.numeric_count(),
        s.one_hot_width(),
        s.expansion_factor()
    );
    for (meta, vocab) in s.columns().iter().zip(&csv.vocabularies) {
        let kind = match (&meta.kind, vocab) {
            (silofuse_tabular::ColumnKind::Numeric, _) => "numeric".to_string(),
            (silofuse_tabular::ColumnKind::Categorical { cardinality }, Some(v)) => {
                let preview: Vec<&str> = v.iter().take(4).map(String::as_str).collect();
                format!(
                    "categorical ({cardinality} classes: {}{})",
                    preview.join(", "),
                    if v.len() > 4 { ", ..." } else { "" }
                )
            }
            _ => "categorical".to_string(),
        };
        let _ = writeln!(out, "  {:<24} {kind}", meta.name);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    fn parse(line: &str) -> Result<Invocation, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        let err = parse("synth --input real.csv --out s.csv --modle gan-linear").unwrap_err();
        assert_eq!(err, "unknown flag --modle for synth");
        // Flags removed from the program are unknown like any other.
        let err = parse("generate --profile Loan --out x.csv --precision f16").unwrap_err();
        assert_eq!(err, "unknown flag --precision for generate");
        let err = parse("synth --input real.csv --out s.csv --encoding dense").unwrap_err();
        assert_eq!(err, "unknown flag --encoding for synth");
        // A flag another command reads is still unknown here.
        assert!(parse("generate --profile Loan --out x.csv --model silofuse").is_err());
        assert!(parse("inspect --input x.csv --quick").is_err());
        assert!(parse("bogus --input x.csv").is_err());
        assert!(parse("").is_err());
    }

    /// E2E cannot checkpoint: each checkpoint flag is an error before any
    /// work, and the checkpoint directory is never created.
    #[test]
    fn checkpoint_flags_are_rejected_for_a_model_that_cannot_checkpoint() {
        let dir = std::env::temp_dir().join(format!("silofuse-e2e-ckpt-{}", std::process::id()));
        let ckpt_dir = format!("--checkpoint-dir {}", dir.display());
        for extra in [ckpt_dir.as_str(), "--checkpoint-every 5", "--resume"] {
            let line =
                format!("synth --input missing.csv --rows 16 --out x.csv --model e2e {extra}");
            let Ok(Invocation::Run { flags, .. }) = parse(&line) else {
                panic!("{line} does not parse");
            };
            let err = cmd_synth(&flags).unwrap_err();
            assert!(
                err.contains("only applies to models that checkpoint, not E2E"),
                "{line}: {err}"
            );
        }
        assert!(!dir.exists());
    }

    #[test]
    fn help_prints_the_usage_instead_of_an_error() {
        for line in ["synth --help", "synth -h", "generate --profile Loan -h", "help", "--help"] {
            assert!(matches!(parse(line), Ok(Invocation::Help)), "{line}");
        }
    }

    /// A writer whose every write fails with `kind`.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_ends_quietly_and_other_write_errors_are_reported() {
        assert_eq!(print(&mut Failing(ErrorKind::BrokenPipe), "rows\n"), Ok(()));
        let err = print(&mut Failing(ErrorKind::PermissionDenied), "rows\n").unwrap_err();
        assert!(err.starts_with("writing to stdout: "), "{err}");
        let mut written = Vec::new();
        assert_eq!(print(&mut written, "rows\n"), Ok(()));
        assert_eq!(written, b"rows\n");
    }

    #[test]
    fn a_closed_stderr_loses_the_error_message_but_not_the_exit_code() {
        let code = exit_code(&mut Failing(ErrorKind::BrokenPipe), Err("no such profile".into()));
        assert_eq!(code, ExitCode::FAILURE);
        let mut written = Vec::new();
        assert_eq!(exit_code(&mut written, Err("no such profile".into())), ExitCode::FAILURE);
        assert_eq!(written, b"error: no such profile\n");
        assert_eq!(exit_code(&mut Failing(ErrorKind::BrokenPipe), Ok(())), ExitCode::SUCCESS);
    }

    #[test]
    fn every_flag_set_ci_and_the_readme_pass_still_parses() {
        for line in [
            // CI
            "generate --profile Loan --rows 512 --seed 1 --out loan.csv",
            "synth --input loan.csv --rows 256 --quick --seed 7 --out synth.csv",
            "serve --quick --tenants 3 --max-in-flight 2 --per-tenant 1",
            "synth --input loan.csv --rows 100 --out degraded.csv --clients 3 --quick \
             --faults partition_at=0,partition_client=1 \
             --degrade quorum --quorum 2 --heartbeat-every 5",
            "synth --input loan.csv --rows 100 --out synth.csv --model silofuse --clients 3 \
             --quick --trace --expose metrics.prom",
            "trace-report",
            // README
            "evaluate --real real.csv --synth synth.csv",
            "inspect --input real.csv",
            "serve --models Loan,Adult --tenants 4 --quick",
            "synth --input real.csv --rows 500 --out synth.csv --checkpoint-dir ckpts \
             --checkpoint-every 100 --resume",
            "synth --input real.csv --out synth.csv --threads 8",
        ] {
            let parsed = parse(line);
            assert!(matches!(parsed, Ok(Invocation::Run { .. })), "{line}: {parsed:?}");
        }
    }
}
