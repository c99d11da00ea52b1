//! `repro` command-line contract: bad arguments are usage errors (exit 2),
//! never silently ignored.

use std::process::Command;

/// Runs `repro` with `args` (and `LTSE_JOBS` unset) and returns its exit
/// code.
fn repro_exit(args: &[&str]) -> i32 {
    repro_exit_with_jobs_env(args, None)
}

/// Runs `repro` with `args` and `LTSE_JOBS` set to `jobs_env` (or unset)
/// and returns its exit code.
fn repro_exit_with_jobs_env(args: &[&str], jobs_env: Option<&str>) -> i32 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).env_remove("LTSE_JOBS");
    if let Some(v) = jobs_env {
        cmd.env("LTSE_JOBS", v);
    }
    let out = cmd.output().expect("spawn repro");
    out.status.code().expect("repro exited by signal")
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &["--quik", "table1"][..],
        &["--no-cache", "table1"],
        &["--cache-dir", "/tmp/x", "table1"],
        &["--jobs", "0", "table1"],
        &["--quick", "table1", "table2"],
    ] {
        assert_eq!(repro_exit(args), 2, "repro {args:?}");
    }
}

#[test]
fn known_flags_run() {
    assert_eq!(repro_exit(&["--quick", "--jobs", "1", "table1"]), 0);
}

#[test]
fn malformed_jobs_env_is_a_usage_error() {
    for v in ["abc", "0"] {
        assert_eq!(
            repro_exit_with_jobs_env(&["--quick", "table1"], Some(v)),
            2,
            "LTSE_JOBS={v}"
        );
    }
    // A well-formed value runs, and `--jobs` overrides the variable.
    assert_eq!(repro_exit_with_jobs_env(&["--quick", "table1"], Some("1")), 0);
    assert_eq!(
        repro_exit_with_jobs_env(&["--quick", "--jobs", "1", "table1"], Some("abc")),
        0
    );
}
