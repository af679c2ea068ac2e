//! The `repro` binary's command-line contract: a request that cannot run
//! fails with usage before any experiment starts, and `--live-out`
//! writes one fresh document per run and fails the run when it cannot.

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

/// Runs a small `repro dpa` with its live document at `live_out`.
fn dpa_live(live_out: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["dpa", "--rounds", "1", "--samples", "48", "--quiet", "--live-out", live_out])
        .output()
        .expect("run repro")
}

#[test]
fn live_out_truncates_its_file_to_one_document() {
    let path = std::env::temp_dir().join(format!("emask-repro-live-{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let mut documents = Vec::new();
    for _ in 0..2 {
        let out = dpa_live(path_str);
        assert!(out.status.success(), "{out:?}");
        documents.push(std::fs::read_to_string(&path).expect("live document"));
    }
    let _ = std::fs::remove_file(&path);
    assert_eq!(documents[1], documents[0], "a second run must replace the document, not append");
    let lines: Vec<&str> = documents[1].lines().collect();
    let headers = lines.iter().filter(|l| l.contains(r#""event":"campaign_started""#)).count();
    assert_eq!(headers, 2, "one campaign per policy: {lines:?}");
    assert!(lines[0].starts_with(r#"{"event":"campaign_started","#), "{lines:?}");
    let last = lines[lines.len() - 1];
    assert!(last.starts_with(r#"{"event":"campaign_completed","#), "{last}");
    assert!(last.contains(r#""dropped_events":0,"#), "{last}");
}

#[test]
fn an_unwritable_live_document_fails_the_run() {
    let out = dpa_live("/dev/full");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("live event stream failed"), "{stderr}");
}
