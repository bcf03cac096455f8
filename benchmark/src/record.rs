//! Result rows: one JSON object per run, appended to a JSONL file with the
//! provenance needed to compare runs later (commit, core count, seed,
//! workload, schema version, traced or not). Rows are only ever appended.

use std::io::Write as _;
use std::path::Path;

use agemul_conformance::Json;

use crate::metrics::{end_to_end, unit_of, Readings};

/// Version of the row layout; bump it when a field changes meaning.
pub const SCHEMA: &str = "agemul-benchmark/1";

/// One metric as stored in a row.
#[derive(Clone, Debug, PartialEq)]
pub struct RowMetric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: u64,
    pub detail: String,
}

/// One run's result row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub schema: String,
    pub commit: String,
    pub nproc: u64,
    pub seed: u64,
    pub workload: String,
    pub traced: bool,
    pub seconds: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: Vec<RowMetric>,
}

impl Row {
    /// The metrics of `readings` in catalogue-independent row form.
    pub fn metrics_from(readings: &Readings) -> Vec<RowMetric> {
        readings
            .iter()
            .map(|(name, r)| RowMetric {
                name: name.to_string(),
                value: r.value,
                unit: unit_of(name).unwrap_or("").to_string(),
                samples: r.samples,
                detail: r.detail.clone(),
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.clone())),
                    ("samples".to_string(), Json::UInt(m.samples)),
                    ("detail".to_string(), Json::Str(m.detail.clone())),
                ];
                // End-to-end rows carry their direction and bound, so a
                // comparison of old rows needs no other file.
                if let Some(def) = end_to_end(&m.name) {
                    fields.push(("better".into(), Json::Str(def.better.label().into())));
                    fields.push(("bound".into(), Json::Num(def.bound)));
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(self.schema.clone())),
            ("commit".into(), Json::Str(self.commit.clone())),
            ("nproc".into(), Json::UInt(self.nproc)),
            ("seed".into(), Json::UInt(self.seed)),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("traced".into(), Json::Bool(self.traced)),
            ("seconds".into(), Json::Num(self.seconds)),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Parses a row written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Row, String> {
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row field {k:?} missing or not a string"))
        };
        let u64_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("row field {k:?} missing or not an integer"))
        };
        let bool_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("row field {k:?} missing or not a bool"))
        };
        let schema = str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!("row schema {schema:?}, expected {SCHEMA:?}"));
        }
        let digest = u64::from_str_radix(&str_field("digest")?, 16)
            .map_err(|e| format!("row digest: {e}"))?;
        let Some(Json::Obj(pairs)) = v.get("metrics") else {
            return Err("row field \"metrics\" missing or not an object".into());
        };
        let mut metrics = Vec::with_capacity(pairs.len());
        for (name, m) in pairs {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name}: no value"))?;
            metrics.push(RowMetric {
                name: name.clone(),
                value,
                unit: m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                samples: m.get("samples").and_then(Json::as_u64).unwrap_or(0),
                detail: m.get("detail").and_then(Json::as_str).unwrap_or("").into(),
            });
        }
        Ok(Row {
            schema,
            commit: str_field("commit")?,
            nproc: u64_field("nproc")?,
            seed: u64_field("seed")?,
            workload: str_field("workload")?,
            traced: bool_field("traced")?,
            seconds: v
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("row field \"seconds\" missing")?,
            correct: bool_field("correct")?,
            attempted: u64_field("attempted")?,
            failed: u64_field("failed")?,
            digest,
            metrics,
        })
    }

    /// The value of metric `name`, if the row has it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Appends `row` as one line to the JSONL file at `path`.
///
/// # Errors
///
/// File open or write failures.
pub fn append(path: &Path, row: &Row) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", row.to_json())?;
    file.flush()
}

/// Reads every row of a JSONL file.
///
/// # Errors
///
/// Read failures and the first malformed line (with its line number).
pub fn read_all(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            Json::parse(line)
                .and_then(|v| Row::from_json(&v))
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// The checked-out commit, read from `.git` in the working directory
/// without starting a process; `unknown` outside a git checkout.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores available to this process.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// last CPU it may run on, and returns that CPU. The standard library
/// cannot set an affinity, so this asks `taskset` (util-linux) to.
///
/// # Errors
///
/// No `/proc`, or `taskset` missing or refusing.
pub fn pin_to_one_cpu() -> Result<u32, String> {
    let status = std::fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("/proc/thread-self/status: {e}"))?;
    let cpu = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().rsplit([',', '-']).next()?.parse::<u32>().ok())
        .ok_or("no Cpus_allowed_list in /proc/thread-self/status")?;
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let link =
        std::fs::read_link("/proc/thread-self").map_err(|e| format!("/proc/thread-self: {e}"))?;
    let tid = link
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or("no thread id in /proc/thread-self")?;
    let done = std::process::Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), tid])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if done.success() {
        Ok(cpu)
    } else {
        Err(format!("taskset: {done}"))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_through_jsonl() {
        let mut readings = Readings::default();
        readings.set("work_per_s", 1234.5678, 40);
        readings.set_detail("tail_ms", 41.25, 4000, "p99".into());
        readings.set("setup_s", 0.8127, 3);
        let row = Row {
            schema: SCHEMA.into(),
            commit: "0123abcd".into(),
            nproc: 2,
            seed: u64::MAX,
            workload: "serve-open".into(),
            traced: false,
            seconds: 10.0,
            correct: true,
            attempted: 1000,
            failed: 0,
            digest: 0xfeed_beef_0000_0001,
            metrics: Row::metrics_from(&readings),
        };
        let dir = std::env::temp_dir().join(format!("agemul-bench-rows-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.jsonl");
        let _ = std::fs::remove_file(&path);
        append(&path, &row).unwrap();
        append(&path, &row).unwrap();
        let back = read_all(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back, vec![row.clone(), row], "rows append, never replace");
        assert_eq!(back[0].value("tail_ms"), Some(41.25));
        let text = back[0].to_json().to_string();
        assert!(text.contains("\"bound\":0.24"), "{text}");
    }

    #[test]
    fn foreign_schema_is_refused() {
        let v = Json::parse("{\"schema\":\"other/9\"}").unwrap();
        assert!(Row::from_json(&v).unwrap_err().contains("schema"));
    }
}
