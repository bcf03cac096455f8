//! Supervised execution of a single service request.
//!
//! A resident server (`agemul-serve`) runs each incoming request under the
//! same protections as a batch case: panic isolation, a cooperative
//! deadline via [`CancelToken`](agemul::CancelToken), and bounded retry.
//! [`run_request_supervised`] runs
//! that one case directly — no run key, no ledger, no checkpoint (a
//! request is retried by its client, not resumed from disk) — and returns
//! its [`CaseRecord`].

use agemul::Json;

use crate::checkpoint::CaseRecord;
use crate::supervisor::{run_case, Attempt, CaseError, SupervisorConfig};

/// Runs one request under full supervision and returns its record.
///
/// `worker` is invoked with each [`Attempt`] (deadline token installed
/// per `config`, exactly as in a batch run); a panicking or
/// budget-exhausted request comes back as
/// [`CaseStatus::Quarantined`](crate::CaseStatus) rather than as an `Err`,
/// so the caller can render a structured failure response instead of
/// dying. The record's label is `request`.
///
/// # Example
///
/// ```
/// use agemul::Json;
/// use agemul_harness::{run_request_supervised, CaseStatus, SupervisorConfig};
///
/// let record = run_request_supervised(&SupervisorConfig::default(), &|attempt| {
///     Ok(Json::UInt(u64::from(attempt.retry)))
/// });
/// assert!(matches!(record.status, CaseStatus::Done { .. }));
/// ```
pub fn run_request_supervised<W>(config: &SupervisorConfig, worker: &W) -> CaseRecord
where
    W: Fn(&Attempt) -> Result<Json, CaseError>,
{
    run_case(config, 0, "request", worker)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    use super::*;
    use crate::CaseStatus;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            retry_backoff: Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn successful_request_returns_done_record() {
        let record = run_request_supervised(&cfg(), &|a: &Attempt| Ok(Json::UInt(a.index as u64)));
        assert_eq!(record.label, "request");
        assert_eq!(record.retries, 0);
        assert_eq!(
            record.status,
            CaseStatus::Done {
                value: Json::UInt(0)
            }
        );
    }

    #[test]
    fn panicking_request_is_quarantined_not_propagated() {
        let record = run_request_supervised(&cfg(), &|_: &Attempt| -> Result<Json, CaseError> {
            panic!("request poison")
        });
        assert!(
            matches!(&record.status, CaseStatus::Quarantined { reason } if reason.contains("request poison"))
        );
    }

    #[test]
    fn deadline_overrun_retries_then_succeeds() {
        let attempts = AtomicU32::new(0);
        let record = run_request_supervised(
            &SupervisorConfig {
                max_retries: 1,
                ..cfg()
            },
            &|a: &Attempt| {
                attempts.fetch_add(1, Ordering::Relaxed);
                if a.retry == 0 {
                    Err(CaseError::Cancelled)
                } else {
                    Ok(Json::Str("retried".into()))
                }
            },
        );
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        assert_eq!(record.retries, 1);
        assert!(matches!(record.status, CaseStatus::Done { .. }));
    }
}
