//! The `silofuse` binary's environment checks: a `SILOFUSE_SIMD` or
//! `SILOFUSE_THREADS` value the kernels would not understand is a usage
//! error (exit code 2, the accepted values named) before any work runs,
//! never a silent fallback to the default level or worker count.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `silofuse generate` with `env` set, writing to a fresh path that
/// the caller checks for; returns the output and that path.
fn generate_with(env: &[(&str, &str)], tag: &str) -> (Output, PathBuf) {
    let out = std::env::temp_dir().join(format!("silofuse-cli-{tag}-{}.csv", std::process::id()));
    std::fs::remove_file(&out).ok();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_silofuse"));
    cmd.args(["generate", "--profile", "Loan", "--rows", "5", "--out"]).arg(&out);
    cmd.env_remove("SILOFUSE_SIMD").env_remove("SILOFUSE_THREADS");
    for (key, value) in env {
        cmd.env(key, value);
    }
    (cmd.output().expect("the silofuse binary runs"), out)
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
