//! The `repro` binary's upfront validation: a request that cannot run
//! fails with usage before any experiment starts.

use std::process::Command;

#[test]
fn one_sample_cpa_is_rejected_before_anything_runs() {
    // `fig6` comes first on the command line: it must not run either.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig6", "cpa", "--rounds", "1", "--samples", "1", "--no-plot"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cpa needs --samples 2 or more"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "ran before validating: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
