//! The `repro` binary under supervision (`--deadline-ms`, `--max-retries`),
//! run as a child process.

use std::process::Command;

/// Runs `repro` with `args`; returns its exit code and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn missed_deadline_quarantines_and_writes_no_csv() {
    let dir = std::env::temp_dir().join(format!("agemul-cli-{}", std::process::id()));
    let csv = dir.to_str().expect("utf-8 temp dir");
    let (code, stderr) = repro(&["--quick", "--deadline-ms", "1", "--csv", csv, "mc"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("experiment mc quarantined: deadline exceeded"),
        "{stderr}"
    );
    let written = std::fs::read_dir(&dir).map_or(0, |entries| entries.count());
    assert_eq!(written, 0, "{}", dir.display());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervised_summary_prints_the_attempt_time() {
    let (code, stderr) = repro(&["--quick", "--deadline-ms", "60000", "chaos"]);
    assert_eq!(code, Some(0), "{stderr}");
    let secs: Option<f64> = stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("chaos")?.trim().strip_prefix("ok ("))
        .and_then(|t| t.strip_suffix("s)")?.parse().ok());
    assert!(secs.is_some_and(|s| s > 0.0), "{stderr}");
}

#[test]
fn max_retries_above_the_cap_is_a_usage_error() {
    for args in [
        &["--max-retries", "11", "mc"][..],
        &["serve", "--max-retries", "11"],
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--max-retries must be at most 10"),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}
