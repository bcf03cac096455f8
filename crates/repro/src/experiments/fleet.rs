//! `fleet` — datacenter-scale routing-policy study over aging multipliers.
//!
//! The paper evaluates one multiplier aging in isolation; deployed
//! silicon ages in fleets, where a scheduler chooses which instance
//! serves each operation. This experiment runs the `agemul-fleet`
//! discrete-event simulator over a datacenter of divergently aged
//! instances (per-node process corners, utilization-proportional BTI
//! aging, per-node AHL + Razor, retirement/down-clock policies) and
//! compares routing policies on the same seeded workload:
//!
//! * **round-robin** — the oblivious baseline; spreads load evenly, so
//!   the oldest instances hit the retirement cliff first and the fleet
//!   loses quorum;
//! * **least-loaded** — balances queue depth, not health;
//! * **aging-aware** — routes to the least-degraded half of the fleet
//!   (by each node's profiled workload max delay), offloading marginal
//!   instances before they start throwing Razor errors;
//! * **aging-aware + rotation** — stacks a rejuvenation rotation on top
//!   (periodic rest epochs with partial BTI recovery).
//!
//! The experiment *asserts* the headline claim — aging-aware routing
//! reaches a strictly later quorum-loss epoch than round-robin — and
//! fails loudly if the separation ever regresses.
//!
//! Conventions (also in `EXPERIMENTS.md`): base seed `0x0A6E_0005`; node
//! corner seeds are SplitMix64-derived from the base XOR a corner salt
//! (decorrelating corners from trace streams); epoch traces are derived
//! per `(trace, seed, epoch)`; the cycle is anchored at the fresh
//! one-cycle-eligible workload max (zeros ≥ skip) times a 5 % guardband,
//! per the AHL contract — two-cycle operations need not fit. Scenarios
//! poll the context's deadline token; the event
//! log's FNV-1a fingerprint per scenario is recorded as the replay
//! witness.

use std::time::Instant;

use agemul_circuits::MultiplierKind;
use agemul_fleet::{
    FleetCampaign, FleetConfig, FleetPolicy, FleetSim, FleetSummary, RoutingPolicy,
};

use super::skips;
use crate::{Context, Report, Result, Table};

/// Fleet campaign base seed (the workspace seed family: `0x0A6E_0001`
/// uniform workloads, `0x0A6E_0002` Monte Carlo corners).
const FLEET_SEED: u64 = 0x0A6E_0005;

/// Multiplier instances in the fleet. Sized so the majority quorum (3/4)
/// breaks after two retirements — small enough to profile quickly, large
/// enough that routing decisions matter.
const FLEET_NODES: usize = 4;

/// Simulated years of utilization-proportional aging per epoch at fair
/// share.
const YEARS_PER_EPOCH: f64 = 0.5;

/// Rejuvenation rotation for the stacked scenario: every third epoch one
/// node rests and recovers a quarter-year of BTI stress.
const ROTATION_EPOCHS: u32 = 3;
const ROTATION_RECOVERY_YEARS: f64 = 0.25;

fn scenarios(epochs: usize, ops: usize) -> Vec<FleetConfig> {
    let policies = [
        FleetPolicy::baseline(RoutingPolicy::RoundRobin),
        FleetPolicy::baseline(RoutingPolicy::LeastLoaded),
        FleetPolicy::baseline(RoutingPolicy::AgingAware),
        FleetPolicy::with_rotation(
            RoutingPolicy::AgingAware,
            ROTATION_EPOCHS,
            ROTATION_RECOVERY_YEARS,
        ),
    ];
    policies
        .into_iter()
        .map(|policy| {
            let mut config = FleetConfig::new(FLEET_NODES, epochs, ops, FLEET_SEED);
            config.skip = skips(16)[0];
            config.years_per_epoch = YEARS_PER_EPOCH;
            config.policy = policy;
            config
        })
        .collect()
}

fn lifetime_cell(s: &FleetSummary) -> String {
    match s.lifetime_epochs {
        Some(e) => e.to_string(),
        None => format!(">{}", s.epochs),
    }
}

pub(super) fn fleet_study(
    ctx: &mut Context,
    epochs: usize,
    ops: usize,
    demand_separation: bool,
    id: &str,
) -> Result<Report> {
    let skip = skips(16)[0];
    let design = ctx.design(MultiplierKind::ColumnBypass, 16)?;

    let t0 = Instant::now();
    let summaries = scenarios(epochs, ops)
        .into_iter()
        .map(|config| {
            let campaign = FleetCampaign::new(&design, ctx.bti(), config)?;
            FleetSim::new(&campaign).run(ctx.cancel())
        })
        .collect::<std::result::Result<Vec<FleetSummary>, _>>()?;
    let elapsed = t0.elapsed().as_secs_f64();

    let mut report = Report::new(
        id,
        format!(
            "16×16 A-VLCB fleet of {FLEET_NODES} instances, {epochs} epochs × {ops} ops, \
             Skip-{skip}, {YEARS_PER_EPOCH} years/epoch at fair share: quorum-loss lifetime \
             by routing policy"
        ),
    );
    let mut t = Table::new(
        "fleet lifetime by routing policy",
        &[
            "policy",
            "lifetime_epochs",
            "retired_nodes",
            "completed_ops",
            "dropped_ops",
            "errors",
            "undetected",
            "two_cycle_ops",
            "throughput_ops_per_us",
            "log_hash",
        ],
    );
    for s in &summaries {
        t.row(&[
            s.policy.clone(),
            lifetime_cell(s),
            s.retired_nodes.to_string(),
            s.completed_ops.to_string(),
            s.dropped_ops.to_string(),
            s.errors.to_string(),
            s.undetected.to_string(),
            s.two_cycle_ops.to_string(),
            format!("{:.3}", s.throughput_ops_per_us),
            format!("{:#018x}", s.log_hash),
        ]);
    }

    let round_robin = &summaries[0];
    let aging_aware = &summaries[2];
    if demand_separation {
        // The headline claim, enforced: aging-aware routing must keep the
        // fleet above quorum strictly longer than oblivious round-robin.
        // `lifetime_or_censored` maps a censored run (no quorum loss
        // within the horizon) to the horizon itself, so censored
        // aging-aware beats any in-horizon round-robin loss.
        if aging_aware.lifetime_or_censored() <= round_robin.lifetime_or_censored() {
            return Err(format!(
                "fleet: aging-aware routing did not extend fleet lifetime over round-robin \
                 ({} vs {} epochs)",
                lifetime_cell(aging_aware),
                lifetime_cell(round_robin),
            )
            .into());
        }
    }

    t.note(format!(
        "base seed {FLEET_SEED:#010x}; corner seeds SplitMix64(base ^ salt, node); epoch \
         traces derived per (trace, seed, epoch); uniform trace; cycle anchored at the fresh \
         one-cycle-eligible max × 1.05"
    ));
    t.note(format!(
        "quorum {} of {FLEET_NODES} (majority); retirement at 600 errors/10k ops or any \
         undetected error; down-clock 5% at 250 errors/10k (max 2); rotation rests one node \
         every {ROTATION_EPOCHS} epochs recovering {ROTATION_RECOVERY_YEARS} years",
        FLEET_NODES / 2 + 1
    ));
    t.note(format!(
        "log_hash is the event log's FNV-1a replay witness (byte-identical across \
         Level/Event engines); evaluated in {elapsed:.1}s"
    ));
    report.push(t);
    Ok(report)
}

/// `fleet` — quorum-loss lifetime of a 16×16 A-VLCB fleet under four
/// routing/rejuvenation policies on the same seeded workload (see the
/// module docs for conventions).
///
/// # Errors
///
/// Propagates campaign failures (including cancellation), and fails if
/// aging-aware routing does not reach a strictly later quorum-loss epoch
/// than round-robin.
pub fn fleet(ctx: &mut Context) -> Result<Report> {
    let epochs = ctx.scale().fleet_epochs();
    let ops = ctx.scale().fleet_ops_per_epoch();
    fleet_study(ctx, epochs, ops, true, "fleet")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// The study is a pure function of its seeds: two runs at the same
    /// configuration render cell-identical tables. (A miniature horizon —
    /// the lifetime-separation assertion is exercised by the full-scale
    /// `repro fleet` run, not here.)
    #[test]
    fn study_is_reproducible() {
        let mut ctx_a = Context::new(Scale::Quick);
        let a = fleet_study(&mut ctx_a, 2, 48, false, "fleet-test").unwrap();
        let mut ctx_b = Context::new(Scale::Quick);
        let b = fleet_study(&mut ctx_b, 2, 48, false, "fleet-test").unwrap();

        assert_eq!(a.tables.len(), 1);
        let (ta, tb) = (&a.tables[0], &b.tables[0]);
        assert_eq!(ta.row_count(), 4, "one row per policy scenario");
        assert_eq!(ta.row_count(), tb.row_count());
        for r in 0..ta.row_count() {
            for c in 0..10 {
                assert_eq!(ta.cell(r, c), tb.cell(r, c), "row {r} col {c}");
            }
        }
    }
}
