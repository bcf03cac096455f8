//! Crash-safe completed-work ledgers.
//!
//! A [`Checkpoint`] is the on-disk snapshot of a supervised run: which
//! cases finished (with their serialized evidence) and which were
//! quarantined. Snapshots are written atomically — serialize to a sibling
//! temp file, then `rename(2)` over the target, so a crash mid-write
//! leaves either the previous snapshot or a stray temp file, never a torn
//! document — and carry a CRC32 over the payload so bit rot or truncation
//! that survives the JSON parser is still rejected.
//!
//! The document layout (schema [`SCHEMA`]):
//!
//! ```json
//! {"schema":"agemul-harness-ckpt/1","crc":<u32 of payload text>,
//!  "payload":{"run_key":"...","total":N,"entries":[
//!    {"index":0,"label":"baseline","retries":0,"status":"done","value":{...}},
//!    {"index":3,"label":"poison","retries":0,"status":"quarantined",
//!     "reason":"panic: ..."}]}}
//! ```
//!
//! Entries are decoded by field name and unknown keys are ignored, so a
//! document that still carries the `engine` and `degraded` keys of the
//! retired Level→Event fallback loads unchanged under the same schema.
//!
//! `run_key` fingerprints the work (design, workload, case list); a resume
//! against a checkpoint whose key differs is refused rather than silently
//! merging foreign results.

use std::fmt;
use std::path::Path;

use agemul::Json;

/// Schema tag every checkpoint document must carry.
pub const SCHEMA: &str = "agemul-harness-ckpt/1";

/// IEEE CRC32 (polynomial `0xEDB88320`, bit-reflected) of `bytes`.
///
/// Tiny bitwise implementation — checkpoints are kilobytes, so a lookup
/// table would be noise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Why a checkpoint could not be saved, loaded, or trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (message rendered from the `std::io::Error`).
    Io {
        /// Rendered cause.
        message: String,
    },
    /// The file is not a well-formed checkpoint document (JSON syntax or
    /// missing/mistyped fields) — truncation usually lands here.
    Parse {
        /// What the parser or decoder rejected.
        message: String,
    },
    /// The document declares a schema this build does not understand.
    Schema {
        /// The schema string found in the file.
        found: String,
    },
    /// The payload's CRC32 does not match the recorded one — bit rot or a
    /// hand-edited file.
    Checksum {
        /// CRC recorded in the document.
        expected: u32,
        /// CRC recomputed over the payload.
        found: u32,
    },
    /// The checkpoint describes a different run (workload, design, or case
    /// list) than the one resuming.
    RunMismatch {
        /// The resuming run's key.
        expected: String,
        /// The key recorded in the file.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { message } => write!(f, "i/o failure: {message}"),
            CheckpointError::Parse { message } => write!(f, "malformed checkpoint: {message}"),
            CheckpointError::Schema { found } => {
                write!(
                    f,
                    "unsupported checkpoint schema {found:?} (want {SCHEMA:?})"
                )
            }
            CheckpointError::Checksum { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: recorded {expected:#010x}, computed {found:#010x}"
            ),
            CheckpointError::RunMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run: resuming {expected:?}, file has {found:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One case's recorded outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum CaseStatus {
    /// The case completed; `value` is its serialized evidence.
    Done {
        /// Worker-defined evidence (a profile, a rendered report, …).
        value: Json,
    },
    /// The case was poisoned (panic) or exhausted its deadline/retry
    /// budget; it produced no evidence.
    Quarantined {
        /// Panic message or budget report.
        reason: String,
    },
}

/// One completed or quarantined case in the ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseRecord {
    /// 0-based case index within the run.
    pub index: usize,
    /// Human-readable case label (fault label, period, seed, …).
    pub label: String,
    /// Retries spent before the final attempt (0 = first try succeeded).
    pub retries: u32,
    /// The recorded outcome.
    pub status: CaseStatus,
}

/// A snapshot of a supervised run's completed work.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the work (design + workload + case list).
    pub run_key: String,
    /// Total number of cases in the run.
    pub total: usize,
    /// Completed/quarantined cases, in case-index order.
    pub entries: Vec<CaseRecord>,
}

impl Checkpoint {
    /// Serializes the snapshot to its on-disk document (schema + CRC +
    /// payload), as a single deterministic line of JSON.
    pub fn to_document(&self) -> String {
        let payload = self.payload_json();
        let crc = crc32(payload.to_string().as_bytes());
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("crc".into(), Json::UInt(u64::from(crc))),
            ("payload".into(), payload),
        ])
        .to_string()
    }

    fn payload_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|r| {
                let mut pairs = vec![
                    ("index".into(), Json::UInt(r.index as u64)),
                    ("label".into(), Json::Str(r.label.clone())),
                    ("retries".into(), Json::UInt(u64::from(r.retries))),
                ];
                match &r.status {
                    CaseStatus::Done { value } => {
                        pairs.push(("status".into(), Json::Str("done".into())));
                        pairs.push(("value".into(), value.clone()));
                    }
                    CaseStatus::Quarantined { reason } => {
                        pairs.push(("status".into(), Json::Str("quarantined".into())));
                        pairs.push(("reason".into(), Json::Str(reason.clone())));
                    }
                }
                Json::Obj(pairs)
            })
            .collect();
        Json::Obj(vec![
            ("run_key".into(), Json::Str(self.run_key.clone())),
            ("total".into(), Json::UInt(self.total as u64)),
            ("entries".into(), Json::Arr(entries)),
        ])
    }

    /// Parses a document produced by [`to_document`](Self::to_document),
    /// verifying schema and CRC.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] for syntax or structural problems,
    /// [`CheckpointError::Schema`] for unknown schemas, and
    /// [`CheckpointError::Checksum`] when the payload does not hash to the
    /// recorded CRC.
    pub fn from_document(text: &str) -> Result<Self, CheckpointError> {
        let parse_err = |message| CheckpointError::Parse { message };
        let doc = Json::parse(text).map_err(parse_err)?;
        let schema = doc.get_str("schema").map_err(parse_err)?;
        if schema != SCHEMA {
            return Err(CheckpointError::Schema {
                found: schema.to_string(),
            });
        }
        let expected = doc.get_u32("crc").map_err(parse_err)?;
        let payload = doc
            .get("payload")
            .ok_or_else(|| parse_err("missing payload field".into()))?;
        let found = crc32(payload.to_string().as_bytes());
        if found != expected {
            return Err(CheckpointError::Checksum { expected, found });
        }
        Self::decode_payload(payload)
    }

    fn decode_payload(payload: &Json) -> Result<Self, CheckpointError> {
        let entry = |e: &Json| -> Result<CaseRecord, String> {
            let status = match e.get_str("status")? {
                "done" => CaseStatus::Done {
                    value: e.get("value").ok_or("done entry missing value")?.clone(),
                },
                "quarantined" => CaseStatus::Quarantined {
                    reason: e.get_str("reason")?.to_string(),
                },
                other => return Err(format!("entry has unknown status {other:?}")),
            };
            Ok(CaseRecord {
                index: e.get_u64("index")? as usize,
                label: e.get_str("label")?.to_string(),
                retries: e.get_u32("retries")?,
                status,
            })
        };
        let decode = || -> Result<Self, String> {
            Ok(Checkpoint {
                run_key: payload.get_str("run_key")?.to_string(),
                total: payload.get_u64("total")? as usize,
                entries: payload
                    .get_arr("entries")?
                    .iter()
                    .map(entry)
                    .collect::<Result<_, _>>()?,
            })
        };
        decode().map_err(|message| CheckpointError::Parse { message })
    }

    /// Writes the snapshot atomically: serialize to `<path>.tmp`, then
    /// rename over `path`. A reader never observes a torn document.
    ///
    /// Chaos failpoints: `ckpt/write_tmp` (ENOSPC-like failure, or a torn
    /// temp file — a prefix lands on disk and the write errors) and
    /// `ckpt/rename` (the commit rename fails, leaving the temp file). Both
    /// fault shapes leave the previous generation at `path` untouched.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the temp write or the rename fails.
    pub fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let doc = self.to_document();
        if agemul_chaos::armed() {
            let ctx = path.to_string_lossy();
            if let Some(shot) = agemul_chaos::hit("ckpt/write_tmp", &ctx) {
                if shot.kind == agemul_chaos::FaultKind::Torn {
                    // ENOSPC mid-write: a strict prefix of the document
                    // reaches the temp file before the failure.
                    let cut = (shot.entropy as usize) % doc.len().max(1);
                    let _ = std::fs::write(&tmp, &doc.as_bytes()[..cut]);
                    return Err(CheckpointError::Io {
                        message: "chaos: injected torn temp write (ENOSPC mid-write)".into(),
                    });
                }
                return Err(CheckpointError::Io {
                    message: "chaos: injected temp-write failure (ENOSPC)".into(),
                });
            }
        }
        std::fs::write(&tmp, doc).map_err(io_err)?;
        if agemul_chaos::armed()
            && agemul_chaos::hit("ckpt/rename", &path.to_string_lossy()).is_some()
        {
            // The temp file stays behind, exactly as a real rename failure
            // would leave it; the previous generation at `path` survives.
            return Err(CheckpointError::Io {
                message: "chaos: injected rename failure".into(),
            });
        }
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Loads and verifies a snapshot; with `expected_run_key`, also refuses
    /// checkpoints recorded for a different run.
    ///
    /// Chaos failpoint: `ckpt/read` corrupts the read-back bytes (bit
    /// flip, truncation) or fails the read outright, modelling bit rot and
    /// media faults; the schema/CRC envelope must convert every such
    /// corruption into a typed refusal, never a silently-wrong snapshot.
    ///
    /// # Errors
    ///
    /// Every [`CheckpointError`] variant is reachable: I/O, parse, schema,
    /// checksum, and run-key mismatch.
    pub fn load(path: &Path, expected_run_key: Option<&str>) -> Result<Self, CheckpointError> {
        let mut bytes = std::fs::read(path).map_err(io_err)?;
        if agemul_chaos::armed() {
            if let Some(shot) = agemul_chaos::hit("ckpt/read", &path.to_string_lossy()) {
                match shot.kind {
                    agemul_chaos::FaultKind::BitFlip if !bytes.is_empty() => {
                        let bit = (shot.entropy as usize) % (bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                    agemul_chaos::FaultKind::Torn => {
                        let cut = (shot.entropy as usize) % (bytes.len() + 1);
                        bytes.truncate(cut);
                    }
                    _ => {
                        return Err(CheckpointError::Io {
                            message: "chaos: injected read failure".into(),
                        });
                    }
                }
            }
        }
        let text = String::from_utf8(bytes).map_err(|e| CheckpointError::Parse {
            message: format!("checkpoint is not UTF-8: {e}"),
        })?;
        let ck = Self::from_document(&text)?;
        if let Some(expected) = expected_run_key {
            if ck.run_key != expected {
                return Err(CheckpointError::RunMismatch {
                    expected: expected.to_string(),
                    found: ck.run_key,
                });
            }
        }
        Ok(ck)
    }
}

fn io_err(e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkpoint() -> Checkpoint {
        Checkpoint {
            run_key: "cb4x4/42".into(),
            total: 3,
            entries: vec![
                CaseRecord {
                    index: 0,
                    label: "baseline".into(),
                    retries: 0,
                    status: CaseStatus::Done {
                        value: Json::Obj(vec![("x".into(), Json::UInt(7))]),
                    },
                },
                CaseRecord {
                    index: 2,
                    label: "poison".into(),
                    retries: 2,
                    status: CaseStatus::Quarantined {
                        reason: "panic: boom".into(),
                    },
                },
            ],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn document_round_trips() {
        let ck = checkpoint();
        let doc = ck.to_document();
        assert_eq!(Checkpoint::from_document(&doc).unwrap(), ck);
        // Serialization is deterministic.
        assert_eq!(doc, checkpoint().to_document());
    }

    #[test]
    fn truncated_document_is_rejected() {
        let doc = checkpoint().to_document();
        for cut in [1, doc.len() / 2, doc.len() - 1] {
            let err = Checkpoint::from_document(&doc[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Parse { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flip_is_rejected_by_checksum() {
        let doc = checkpoint().to_document();
        // Flip a character inside the payload (the label "baseline").
        let flipped = doc.replace("baseline", "basemine");
        let err = Checkpoint::from_document(&flipped).unwrap_err();
        assert!(matches!(err, CheckpointError::Checksum { .. }), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc = checkpoint()
            .to_document()
            .replace(SCHEMA, "agemul-harness-ckpt/999");
        let err = Checkpoint::from_document(&doc).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Schema { ref found } if found.ends_with("/999")),
            "{err}"
        );
    }

    #[test]
    fn save_is_atomic_and_load_checks_run_key() {
        let dir = std::env::temp_dir().join(format!("agemul-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let ck = checkpoint();
        ck.save_atomic(&path).unwrap();
        // No temp residue, and the loaded snapshot matches.
        assert!(!path.with_extension("json.tmp").exists());
        assert_eq!(Checkpoint::load(&path, Some("cb4x4/42")).unwrap(), ck);
        let err = Checkpoint::load(&path, Some("other")).unwrap_err();
        assert!(matches!(err, CheckpointError::RunMismatch { .. }));
        let missing = Checkpoint::load(&dir.join("absent.json"), None).unwrap_err();
        assert!(matches!(missing, CheckpointError::Io { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }
}
