//! The `repro` binary run as a child process: supervision flags
//! (`--deadline-ms`, `--max-retries`, `--resume`), CSV output, and
//! `repro query`'s request validation.

use std::path::Path;
use std::process::Command;

use agemul_harness::Checkpoint;

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

/// The sorted `(file name, bytes)` pairs of every CSV in `dir`.
fn csv_set(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut set: Vec<_> = std::fs::read_dir(dir)
        .expect("csv dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("file name");
            (
                name.to_string_lossy().into_owned(),
                std::fs::read(&path).expect("read csv"),
            )
        })
        .collect();
    set.sort();
    set
}

#[test]
fn deadline_and_retry_flags_leave_the_csvs_unchanged() {
    let root = std::env::temp_dir().join(format!("agemul-cli-csv-{}", std::process::id()));
    let (plain, budgeted) = (root.join("plain"), root.join("budgeted"));
    let ids = ["table1", "fig13", "fig15"];
    let spawn = |flags: &[&str], dir: &Path| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(flags)
            .arg("--csv")
            .arg(dir)
            .args(ids)
            .output()
            .expect("run repro")
    };
    // The two runs are independent processes; overlap them.
    let runs = std::thread::scope(|s| {
        let a = s.spawn(|| spawn(&["--quick"], &plain));
        let b = spawn(
            &["--quick", "--max-retries", "0", "--deadline-ms", "60000"],
            &budgeted,
        );
        [a.join().expect("plain run"), b]
    });
    for out in &runs {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let (a, b) = (csv_set(&plain), csv_set(&budgeted));
    std::fs::remove_dir_all(&root).ok();
    assert!(a.len() >= ids.len(), "{a:?}");
    assert!(a == b, "CSV sets differ");
}

#[test]
fn query_rejects_what_the_server_decoder_rejects_before_connecting() {
    // Port 1 never answers; the request must be refused before any
    // connection attempt, with the decoder's message naming the field.
    let base = ["query", "--addr", "127.0.0.1:1", "--kind", "CB"];
    for (flags, field) in [
        (&["--op", "profile", "--width", "1000"][..], "width"),
        (
            &[
                "--op", "fleet", "--width", "8", "--nodes", "4", "--epochs", "99999999",
            ],
            "epochs",
        ),
    ] {
        let args: Vec<&str> = base.iter().chain(flags).copied().collect();
        let (code, stderr) = repro(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("{field} must be in")), "{stderr}");
        assert!(!stderr.contains("connect"), "{stderr}");
    }
}

/// Runs `repro --quick --csv <csv> --resume <ckpt> table1 fig7`; returns
/// its stderr after asserting success.
fn quick_resumable(csv: &Path, ckpt: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--quick")
        .arg("--csv")
        .arg(csv)
        .arg("--resume")
        .arg(ckpt)
        .args(["table1", "fig7"])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stderr}");
    stderr
}

#[test]
fn resumed_run_writes_the_csvs_of_an_uninterrupted_one() {
    let root = std::env::temp_dir().join(format!("agemul-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("temp dir");
    let ckpt = root.join("ck.json");
    let (a, b) = (root.join("a"), root.join("b"));
    let first = quick_resumable(&a, &ckpt);
    assert!(!first.contains("(resumed)"), "{first}");

    // Cut the checkpoint to its first experiment, as a kill after
    // `table1` leaves it.
    let mut ck = Checkpoint::load(&ckpt, None).expect("checkpoint");
    assert_eq!(ck.entries.len(), 2);
    ck.entries.truncate(1);
    ck.save_atomic(&ckpt).expect("save cut checkpoint");

    let resumed = quick_resumable(&b, &ckpt);
    assert_eq!(resumed.matches("(resumed)").count(), 1, "{resumed}");
    assert!(
        resumed
            .lines()
            .any(|l| l.trim().starts_with("table1") && l.ends_with("ok (resumed)")),
        "{resumed}"
    );
    let (a, b) = (csv_set(&a), csv_set(&b));
    std::fs::remove_dir_all(&root).ok();
    assert!(a.len() >= 2, "{a:?}");
    assert!(a == b, "CSV sets differ");
}

#[test]
fn resume_into_a_missing_directory_is_a_usage_error() {
    let missing = std::env::temp_dir()
        .join(format!("agemul-cli-missing-{}", std::process::id()))
        .join("ck.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--quick")
        .arg("--resume")
        .arg(&missing)
        .args(["table1", "fig7"])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--resume: directory"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    // No experiment ran.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!missing.parent().unwrap().exists());
}
