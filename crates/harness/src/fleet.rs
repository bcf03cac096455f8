//! Supervised fleet simulations: one case per policy scenario.
//!
//! A fleet study compares routing and retirement policies over the same
//! seeded datacenter — round-robin against least-loaded against
//! aging-aware, sometimes with a rejuvenation rotation stacked on top.
//! Each scenario is an independent multi-epoch discrete-event campaign
//! (the profiling sweeps dominate its cost), which is exactly the
//! supervisor's case shape: checkpointed by scenario index, deadline-
//! bounded through the kernels' cooperative cancellation, and — because
//! `agemul-fleet` pins its event log byte-identical across
//! [`SimEngine::Level`](agemul::SimEngine::Level) and
//! [`SimEngine::Event`](agemul::SimEngine::Event) — safely degradable to
//! the reference engine without perturbing the comparison.
//!
//! Scenario evidence is the [`FleetSummary`] JSON codec, which is
//! lossless, so a killed study resumed with [`Resume::Attempt`] assembles
//! exactly the summaries an uninterrupted run would.

use std::path::Path;

use agemul::{Json, MultiplierDesign};
use agemul_aging::BtiModel;
use agemul_fleet::{FleetCampaign, FleetConfig, FleetSim, FleetSummary};

use crate::campaign::fnv1a64;
use crate::supervisor::{Attempt, CaseError, Resume, RunLedger, Supervisor, SupervisorConfig};
use crate::HarnessError;

/// One named fleet scenario: a policy/configuration point in the study.
#[derive(Clone, Debug)]
pub struct FleetScenario {
    /// Human-readable scenario label (shows up in ledger case labels and
    /// result tables), e.g. `"aging-aware+rotation"`.
    pub label: String,
    /// The full campaign configuration for this scenario.
    pub config: FleetConfig,
}

impl FleetScenario {
    /// A labelled scenario.
    pub fn new(label: impl Into<String>, config: FleetConfig) -> Self {
        FleetScenario {
            label: label.into(),
            config,
        }
    }
}

/// A supervised fleet study: one summary per scenario that completed,
/// plus the raw ledger.
#[derive(Clone, Debug)]
pub struct SupervisedFleet {
    /// Completed scenarios as `(scenario index, summary)`, ascending.
    /// Quarantined scenarios are absent; check `ledger.quarantined()`
    /// before treating the study as complete.
    pub summaries: Vec<(usize, FleetSummary)>,
    /// The full per-case execution record.
    pub ledger: RunLedger,
}

impl SupervisedFleet {
    /// The summary for scenario `index`, if it completed.
    pub fn summary(&self, index: usize) -> Option<&FleetSummary> {
        self.summaries
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, s)| s)
    }
}

/// Fingerprints a fleet study: the design and every result-determining
/// knob of every scenario. Two runs share a key exactly when every
/// scenario's summary is interchangeable.
pub fn fleet_run_key(design: &MultiplierDesign, scenarios: &[FleetScenario]) -> String {
    let kind = design.kind();
    let mut h = fnv1a64(0, kind.label().as_bytes());
    h = fnv1a64(h, &(design.width() as u64).to_le_bytes());
    for s in scenarios {
        h = fnv1a64(h, s.label.as_bytes());
        let c = &s.config;
        for word in [
            c.nodes as u64,
            c.epochs as u64,
            c.ops_per_epoch as u64,
            c.seed,
            c.sigma.to_bits(),
            c.years_per_epoch.to_bits(),
            c.burn_in_years.to_bits(),
            c.trace.tag(),
            u64::from(c.skip),
            c.cycle_ns.to_bits(),
            c.guardband.to_bits(),
            c.quorum as u64,
            u64::from(c.error_penalty_cycles),
        ] {
            h = fnv1a64(h, &word.to_le_bytes());
        }
        for word in c.policy.fingerprint_words() {
            h = fnv1a64(h, &word.to_le_bytes());
        }
    }
    format!(
        "fleet/{}{}x{}/{}scenarios/{h:016x}",
        kind.label(),
        design.width(),
        design.width(),
        scenarios.len(),
    )
}

/// Runs a fleet policy study under supervision, one case per scenario.
///
/// Primary attempts use the levelized kernel with the plan-reuse corner
/// profiler inside `agemul-fleet`'s profile sweep; the degradation
/// attempt replays the scenario on the event-driven reference engine.
/// The fleet layer pins both engines to byte-identical event logs, so a
/// ledger mixing engines still assembles one coherent study.
///
/// Quarantined scenarios are omitted from the summaries and listed by the
/// ledger's [`quarantined`](RunLedger::quarantined); the whole study fails with
/// [`HarnessError::NoUsableCases`] only if *every* scenario was
/// quarantined.
///
/// # Errors
///
/// Checkpoint I/O failures, decode failures on recovered evidence, and
/// the all-quarantined case above.
pub fn run_fleet_supervised(
    design: &MultiplierDesign,
    bti: &BtiModel,
    scenarios: &[FleetScenario],
    config: &SupervisorConfig,
    checkpoint: Option<&Path>,
    resume: Resume,
) -> Result<SupervisedFleet, HarnessError> {
    let labels = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| format!("scenario {i} ({})", s.label))
        .collect();
    let supervisor = Supervisor::new(fleet_run_key(design, scenarios), labels, config.clone());

    let worker = |attempt: &Attempt| -> Result<Json, CaseError> {
        let scenario = &scenarios[attempt.index];
        let campaign = FleetCampaign::new(design, bti, scenario.config.clone())
            .map_err(|e| CaseError::from_error(&e))?;
        let summary = FleetSim::new(&campaign)
            .run(attempt.engine, attempt.cancel.as_ref())
            .map_err(|e| CaseError::from_error(&e))?;
        Ok(summary.to_json())
    };
    let ledger = supervisor.run(&worker, checkpoint, resume)?;

    let summaries = ledger.decode(.., FleetSummary::from_json)?;
    if summaries.is_empty() && !scenarios.is_empty() {
        return Err(HarnessError::NoUsableCases);
    }
    Ok(SupervisedFleet { summaries, ledger })
}

#[cfg(test)]
mod tests {
    use agemul::SimEngine;
    use agemul_circuits::MultiplierKind;
    use agemul_fleet::{FleetPolicy, RoutingPolicy};
    use agemul_logic::Technology;

    use super::*;
    use crate::checkpoint::Checkpoint;

    fn bti() -> BtiModel {
        BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.132)
    }

    fn scenarios() -> Vec<FleetScenario> {
        RoutingPolicy::ALL
            .into_iter()
            .map(|routing| {
                let mut config = FleetConfig::new(3, 2, 48, 0x0A6E_0005);
                config.policy = FleetPolicy::baseline(routing);
                config.years_per_epoch = 1.5;
                FleetScenario::new(config.policy.label(), config)
            })
            .collect()
    }

    fn sup() -> SupervisorConfig {
        SupervisorConfig {
            retry_backoff: std::time::Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }

    /// The supervised study assembles exactly the unsupervised summaries.
    #[test]
    fn supervised_matches_unsupervised_run() {
        let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let bti = bti();
        let scenarios = scenarios();
        let supervised =
            run_fleet_supervised(&design, &bti, &scenarios, &sup(), None, Resume::Fresh).unwrap();
        assert!(supervised.ledger.quarantined().is_empty());
        assert_eq!(supervised.summaries.len(), scenarios.len());
        for (i, scenario) in scenarios.iter().enumerate() {
            let campaign = FleetCampaign::new(&design, &bti, scenario.config.clone()).unwrap();
            let mut sim = FleetSim::new(&campaign);
            let direct = sim.run(SimEngine::Level, None).unwrap();
            assert_eq!(supervised.summary(i), Some(&direct));
        }
    }

    /// Kill → resume: a checkpoint truncated mid-study resumes to the same
    /// summaries, recomputing only the missing scenarios.
    #[test]
    fn truncated_checkpoint_resumes_identically() {
        let dir = std::env::temp_dir().join(format!("agemul-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt.json");

        let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let bti = bti();
        let scenarios = scenarios();
        let first = run_fleet_supervised(
            &design,
            &bti,
            &scenarios,
            &sup(),
            Some(&path),
            Resume::Fresh,
        )
        .unwrap();

        let key = fleet_run_key(&design, &scenarios);
        let mut ck = Checkpoint::load(&path, Some(&key)).unwrap();
        ck.entries.truncate(1);
        ck.save_atomic(&path).unwrap();

        let resumed = run_fleet_supervised(
            &design,
            &bti,
            &scenarios,
            &sup(),
            Some(&path),
            Resume::Require,
        )
        .unwrap();
        assert_eq!(resumed.summaries, first.summaries);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The run key pins every result-determining knob: nudging a seed or a
    /// policy changes it; an identical study does not.
    #[test]
    fn run_key_tracks_study_identity() {
        let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let a = scenarios();
        let b = scenarios();
        assert_eq!(fleet_run_key(&design, &a), fleet_run_key(&design, &b));

        let mut c = scenarios();
        c[0].config.seed ^= 1;
        assert_ne!(fleet_run_key(&design, &a), fleet_run_key(&design, &c));

        let mut d = scenarios();
        d[2].config.policy = FleetPolicy::with_rotation(RoutingPolicy::AgingAware, 2, 0.25);
        assert_ne!(fleet_run_key(&design, &a), fleet_run_key(&design, &d));
    }
}
