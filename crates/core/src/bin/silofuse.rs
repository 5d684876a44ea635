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
use silofuse_tabular::csv::{read_csv, write_csv, CsvTable};
use silofuse_tabular::partition::PartitionStrategy;
use silofuse_tabular::profiles;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, run, flags) = match parse_args(&args) {
        Ok(Invocation::Run { command, run, flags }) => (command, run, flags),
        Ok(Invocation::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match flags.get("threads").map(|v| v.parse::<usize>()) {
        None => {}
        Some(Ok(n)) if n > 0 => silofuse_nn::backend::set_threads(n),
        Some(_) => {
            eprintln!("error: --threads needs a positive integer\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if flags.contains_key("trace") || flags.contains_key("expose") {
        let _ = silofuse_observe::init_scoped(&format!("silofuse-{command}"), "cli");
    }
    let flusher = flags.get("expose").map(|path| {
        eprintln!("[trace] exposing Prometheus snapshots at {path}");
        silofuse_observe::expose::Flusher::start(path.clone(), Duration::from_millis(500))
    });
    let result = run(&flags);
    finish_trace(flusher);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints each actor's span tree and writes the per-scope telemetry
/// JSONL plus the merged causal trace when `--trace` is on; stops the
/// Prometheus flusher (final snapshot) when `--expose` started one.
fn finish_trace(flusher: Option<silofuse_observe::expose::Flusher>) {
    let Some(hub) = silofuse_observe::hub() else { return };
    for scope in hub.scopes() {
        if scope.span_rows().is_empty() {
            continue;
        }
        eprintln!(
            "\n[trace] span tree for actor '{}' of run '{}':\n{}",
            scope.actor(),
            hub.run(),
            scope.render_span_tree()
        );
    }
    match silofuse_observe::export::write_jsonl_hub(&hub) {
        Ok(path) => eprintln!("[trace] telemetry written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write telemetry: {e}"),
    }
    match silofuse_observe::trace::write_trace_jsonl(&hub) {
        Ok(path) => eprintln!("[trace] merged causal trace written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write trace: {e}"),
    }
    if let Some(flusher) = flusher {
        let path = flusher.path().to_path_buf();
        match flusher.stop() {
            Ok(true) => eprintln!("[trace] final Prometheus snapshot at {}", path.display()),
            Ok(false) => {}
            Err(e) => eprintln!("warning: could not write snapshot: {e}"),
        }
    }
    silofuse_observe::shutdown();
}

/// `silofuse trace-report [--input <run.trace.jsonl>]`: load a merged
/// causal trace (default: the most recent one under the telemetry
/// directory) and print its critical-path breakdown.
fn cmd_trace_report(flags: &Flags) -> Result<(), String> {
    let path = match flags.get("input") {
        Some(p) => std::path::PathBuf::from(p),
        None => latest_trace_file()?,
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = silofuse_observe::trace::parse_trace_jsonl(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("[trace-report] {}", path.display());
    print!("{}", silofuse_observe::trace::render_report(&report));
    Ok(())
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
        if best.as_ref().map_or(true, |(t, _)| modified > *t) {
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
      checkpoint, bit-identical to an uninterrupted run.
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
  so --threads is purely a speed knob. SILOFUSE_SIMD (auto|sse2|scalar)
  caps the SIMD level the same way.

  Any command also accepts --help (or -h): print this text. Any other
  flag a command does not read is an error (exit code 2).

  `synth` also accepts --encoding auto|dense|sparse: how categorical
  batches reach the autoencoders and the linear GAN discriminator. `auto`
  (default) switches to the sparse index+value path when the schema's
  one-hot expansion is at least 4x (e.g. Churn's 2932-way column);
  `dense` forces the one-hot oracle; `sparse` forces the sparse path.
  Both paths train bit-identically, so the flag is purely a
  speed/memory knob.";

type Flags = HashMap<String, String>;

/// A command's entry point.
type CommandFn = fn(&Flags) -> Result<(), String>;

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
                "encoding",
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

fn load_csv(path: &str) -> Result<CsvTable, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    read_csv(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
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
    println!("wrote {rows} rows x {} columns of {} to {out}", table.n_cols(), profile.name);
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
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
        eprintln!("registry checkpoints under {} (resume on)", d.display());
    }
    eprintln!("opening registry: {} model(s), {train_rows} training rows each...", specs.len());
    let registry = ModelRegistry::open(dir.as_deref(), every, &specs).map_err(|e| e.to_string())?;
    let model_count = registry.len();
    let config = ServeConfig {
        max_in_flight: parse_num(flags, "max-in-flight", 4)?,
        per_tenant_max: parse_num(flags, "per-tenant", 2)?,
        chunk_rows: parse_num(flags, "chunk-rows", 2048)?,
        net: NetConfig::default(),
    };
    let mut server = SynthesisServer::new(registry, config).map_err(|e| e.to_string())?;
    eprintln!(
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
                                eprintln!("tenant{t} job {j}: {e}");
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
    println!(
        "served {jobs_ok} job(s) / {rows_ok} rows to {tenants} tenant(s) in {:.2}s \
         ({:.1} jobs/s); {rejections} overload rejection(s) answered typed, \
         {} control-plane bytes on the wire",
        elapsed.as_secs_f64(),
        jobs_ok as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.bytes_control,
    );
    Ok(())
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
            eprintln!(
                "checkpointing every {every} steps to {dir}{}",
                if flags.contains_key("resume") { " (resuming)" } else { "" }
            );
            let ck = Checkpointer::new(dir, every).with_resume(flags.contains_key("resume"));
            // Crash debris from a previous run's interrupted atomic write
            // must be cleared before any load can trip over it.
            let swept = ck.sweep_stale_tmp().map_err(|e| e.to_string())?;
            if swept > 0 {
                eprintln!("swept {swept} stale .tmp checkpoint file(s)");
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

fn cmd_synth(flags: &Flags) -> Result<(), String> {
    let input = required(flags, "input")?;
    let out = required(flags, "out")?;
    let rows: usize = parse_num(flags, "rows", 1000)?;
    let seed: u64 = parse_num(flags, "seed", 42)?;
    let clients: usize = parse_num(flags, "clients", 4)?;
    let kind = model_kind(flags.get("model").map(String::as_str).unwrap_or("silofuse"))?;
    let mut budget =
        if flags.contains_key("quick") { TrainBudget::quick() } else { TrainBudget::standard() };
    if let Some(v) = flags.get("encoding") {
        budget.encoding = silofuse_tabular::SparsePolicy::parse(v)
            .ok_or_else(|| format!("--encoding needs auto, dense, or sparse, got `{v}`"))?;
    }
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
            eprintln!("injecting link faults: {spec}");
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
        eprintln!(
            "supervision: policy={}, heartbeat every {heartbeat_every} ticks",
            net.supervision.policy.name()
        );
    }

    let ckpt = checkpointer_from_flags(flags)?;

    let csv = load_csv(input)?;
    let clients = clients.min(csv.table.n_cols()).max(1);
    eprintln!(
        "fitting {} on {} ({} rows x {} cols, {} clients)...",
        kind.name(),
        input,
        csv.table.n_rows(),
        csv.table.n_cols(),
        clients
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
            eprintln!(
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
        println!(
            "wrote {rows} synthetic rows ({} of {} columns) to {out}",
            synth.n_cols(),
            csv.table.n_cols()
        );
        return Ok(());
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
    println!("wrote {rows} synthetic rows to {out}");
    Ok(())
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let real = load_csv(required(flags, "real")?)?;
    let synth = load_csv(required(flags, "synth")?)?;
    let seed: u64 = parse_num(flags, "seed", 42)?;
    if real.table.schema() != synth.table.schema() {
        return Err("real and synthetic schemas differ (column names/kinds must match)".into());
    }

    let r =
        resemblance(&real.table, &synth.table, &ResemblanceConfig { seed, ..Default::default() });
    println!("resemblance (0-100, higher better):");
    println!("  column similarity        {:.1}", r.column_similarity);
    println!("  correlation similarity   {:.1}", r.correlation_similarity);
    println!("  jensen-shannon           {:.1}", r.jensen_shannon);
    println!("  kolmogorov-smirnov       {:.1}", r.kolmogorov_smirnov);
    println!("  propensity               {:.1}", r.propensity);
    println!("  COMPOSITE                {:.1}", r.composite);

    if let Some(holdout_path) = flags.get("holdout") {
        let holdout = load_csv(holdout_path)?;
        let u = utility(
            &real.table,
            &synth.table,
            &holdout.table,
            &UtilityConfig { seed, ..Default::default() },
        );
        println!("utility (train-on-synthetic / test-on-real): {:.1}", u.score);
    }

    let p = privacy(&real.table, &synth.table, &PrivacyConfig { seed, ..Default::default() });
    println!("privacy (0-100, higher = safer):");
    println!("  singling-out             {:.1}", p.singling_out);
    println!("  linkability              {:.1}", p.linkability);
    println!("  attribute inference      {:.1}", p.attribute_inference);
    println!("  COMPOSITE                {:.1}", p.composite);
    Ok(())
}

fn cmd_inspect(flags: &Flags) -> Result<(), String> {
    let input = required(flags, "input")?;
    let csv = load_csv(input)?;
    let s = csv.table.schema();
    println!(
        "{input}: {} rows, {} columns ({} categorical, {} numeric)",
        csv.table.n_rows(),
        s.width(),
        s.categorical_count(),
        s.numeric_count()
    );
    println!("one-hot width {} ({:.2}x expansion)", s.one_hot_width(), s.expansion_factor());
    for (meta, vocab) in s.columns().iter().zip(&csv.vocabularies) {
        match (&meta.kind, vocab) {
            (silofuse_tabular::ColumnKind::Numeric, _) => {
                println!("  {:<24} numeric", meta.name);
            }
            (silofuse_tabular::ColumnKind::Categorical { cardinality }, Some(v)) => {
                let preview: Vec<&str> = v.iter().take(4).map(String::as_str).collect();
                println!(
                    "  {:<24} categorical ({cardinality} classes: {}{})",
                    meta.name,
                    preview.join(", "),
                    if v.len() > 4 { ", ..." } else { "" }
                );
            }
            _ => println!("  {:<24} categorical", meta.name),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Invocation, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        let err = parse("synth --input real.csv --out s.csv --modle gan-linear").unwrap_err();
        assert_eq!(err, "unknown flag --modle for synth");
        let err = parse("generate --profile Loan --out x.csv --precision f16").unwrap_err();
        assert_eq!(err, "unknown flag --precision for generate");
        // A flag another command reads is still unknown here.
        assert!(parse("generate --profile Loan --out x.csv --model silofuse").is_err());
        assert!(parse("inspect --input x.csv --quick").is_err());
        assert!(parse("bogus --input x.csv").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn help_prints_the_usage_instead_of_an_error() {
        for line in ["synth --help", "synth -h", "generate --profile Loan -h", "help", "--help"] {
            assert!(matches!(parse(line), Ok(Invocation::Help)), "{line}");
        }
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
            "synth --input real.csv --out synth.csv --threads 8 --encoding sparse",
        ] {
            let parsed = parse(line);
            assert!(matches!(parsed, Ok(Invocation::Run { .. })), "{line}: {parsed:?}");
        }
    }
}
