//! Deadline budgets, end to end: a generous per-attempt deadline threads
//! its token through the gate-level simulator without costing a retry.
//! Panic quarantine is pinned by the supervisor's unit tests, and its
//! survival across checkpoint and resume by `chaos_checkpoint.rs`.

mod common;

use std::time::Duration;

use agemul_harness::{Resume, SupervisorConfig};
use common::{config, Workloads};

#[test]
fn generous_deadline_completes_without_retries_or_degradation() {
    let w = Workloads::new(8, 4, 16);
    let ledger = w
        .run_with(
            SupervisorConfig {
                deadline: Some(Duration::from_secs(60)),
                ..config()
            },
            None,
            Resume::Fresh,
        )
        .unwrap();
    assert!(ledger.quarantined().is_empty());
    assert_eq!(w.take_evaluated(), 4);
    for rec in &ledger.records {
        assert_eq!(rec.retries, 0);
    }
    // The same run without a deadline records the same values.
    assert_eq!(w.run(None, Resume::Fresh).unwrap(), ledger);
}
