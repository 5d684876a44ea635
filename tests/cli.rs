//! The `silofuse` binary's boundary checks. A `SILOFUSE_SIMD` or
//! `SILOFUSE_THREADS` value the kernels would not understand is a usage
//! error (exit code 2, the accepted values named) before any work runs,
//! never a silent fallback to the default level or worker count. A CSV
//! with a header and no rows is an error (exit code 1, the file named)
//! before any model trains or any metric scores it.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `silofuse` with `args`, the kernel variables cleared and then
/// `env` set.
fn run(env: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_silofuse"));
    cmd.args(args).env_remove("SILOFUSE_SIMD").env_remove("SILOFUSE_THREADS");
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("the silofuse binary runs")
}

/// A path under the temp dir, unique to this test process and `name`,
/// with no file at it.
fn temp_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("silofuse-cli-{}-{name}", std::process::id()));
    std::fs::remove_file(&path).ok();
    path.to_string_lossy().into_owned()
}

/// Runs `silofuse generate` with `env` set, writing to a fresh path that
/// the caller checks for; returns the output and that path.
fn generate_with(env: &[(&str, &str)], tag: &str) -> (Output, PathBuf) {
    let out = temp_path(&format!("{tag}.csv"));
    let output = run(env, &["generate", "--profile", "Loan", "--rows", "5", "--out", &out]);
    (output, PathBuf::from(out))
}

/// Writes a 40-row Loan CSV and a copy of its header line alone; returns
/// their paths.
fn loan_and_header_only(tag: &str) -> (String, String) {
    let loan = temp_path(&format!("{tag}-loan.csv"));
    let output = run(&[], &["generate", "--profile", "Loan", "--rows", "40", "--out", &loan]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let text = std::fs::read_to_string(&loan).expect("generate wrote the CSV");
    let header = temp_path(&format!("{tag}-header.csv"));
    std::fs::write(&header, format!("{}\n", text.lines().next().expect("a header line")))
        .expect("write the header-only CSV");
    (loan, header)
}

#[test]
fn malformed_environment_is_a_usage_error_before_any_work() {
    let cases = [
        ("SILOFUSE_SIMD", "avx-2", "scalar, sse2, avx2, avx512 or auto"),
        ("SILOFUSE_SIMD", "sse4", "scalar, sse2, avx2, avx512 or auto"),
        ("SILOFUSE_THREADS", "four", "a whole number"),
        ("SILOFUSE_THREADS", "-1", "a whole number"),
    ];
    for (i, (key, value, accepted)) in cases.into_iter().enumerate() {
        let (output, out) = generate_with(&[(key, value)], &format!("bad{i}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{key}={value}: {stderr}");
        assert!(stderr.contains(key) && stderr.contains(accepted), "{key}={value}: {stderr}");
        assert!(!out.exists(), "{key}={value}: the command ran");
    }
}

#[test]
fn accepted_environment_values_run() {
    for (i, env) in [
        [("SILOFUSE_SIMD", "AVX2"), ("SILOFUSE_THREADS", "1")],
        [("SILOFUSE_SIMD", "scalar"), ("SILOFUSE_THREADS", "0")],
        [("SILOFUSE_SIMD", ""), ("SILOFUSE_THREADS", "")],
    ]
    .into_iter()
    .enumerate()
    {
        let (output, out) = generate_with(&env, &format!("ok{i}"));
        assert!(output.status.success(), "{env:?}: {}", String::from_utf8_lossy(&output.stderr));
        assert!(out.exists(), "{env:?}: no output written");
        std::fs::remove_file(&out).ok();
    }
}

#[test]
fn synth_rejects_a_table_without_rows_before_training() {
    let (loan, loan_header) = loan_and_header_only("synth");
    let bare_header = temp_path("synth-bare.csv");
    std::fs::write(&bare_header, "a,b").expect("write the bare header");
    for input in [&loan_header, &bare_header] {
        let out = temp_path("synth-out.csv");
        let output = run(
            &[],
            &["synth", "--input", input, "--rows", "8", "--quick", "--seed", "7", "--out", &out],
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{input}: {stderr}");
        assert!(stderr.contains(input.as_str()) && stderr.contains("no data rows"), "{stderr}");
        assert!(!stderr.contains("fitting"), "{input}: training started: {stderr}");
        assert!(!std::path::Path::new(&out).exists(), "{input}: wrote {out}");
    }
    for path in [loan, loan_header, bare_header] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn evaluate_rejects_a_table_without_rows_before_scoring() {
    let (loan, header) = loan_and_header_only("evaluate");
    let cases: [&[&str]; 3] = [
        &["--real", &loan, "--synth", &header],
        &["--real", &header, "--synth", &header],
        &["--real", &loan, "--synth", &loan, "--holdout", &header],
    ];
    for flags in cases {
        let output = run(&[], &[&["evaluate"], flags].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(header.as_str()) && stderr.contains("no data rows"), "{stderr}");
        assert!(output.stdout.is_empty(), "{flags:?}: a metric was printed");
    }
    for path in [loan, header] {
        std::fs::remove_file(path).ok();
    }
}
