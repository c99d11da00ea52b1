//! `repro` command-line contract: bad arguments are usage errors (exit 2),
//! never silently ignored.

use std::process::Command;

/// Runs `repro` with `args` and returns its exit code.
fn repro_exit(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
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
