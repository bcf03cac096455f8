//! The fleet simulator: campaign configuration, the per-epoch
//! discrete-event loop, and checkpoint/resume.
//!
//! # Model
//!
//! A **campaign** fixes everything seed-derived and immutable: the design,
//! the resolved cycle anchor, the per-gate BTI stress probabilities of the
//! reference workload, and the shared [`ProfileCache`]. A **sim** is the
//! mutable fleet state evolving over epochs. Each epoch:
//!
//! 1. every non-retired node recomputes its delay profile — corner
//!    variation × BTI factors at the node's *effective age*, snapped onto
//!    the shared 1/4096 grid, re-timed through a plan-reuse
//!    [`CornerProfiler`] behind the cache;
//! 2. the epoch's trace arrivals flow through the [`EventQueue`]; the
//!    routing policy picks a node per arrival, the node's persistent AHL
//!    classifies the operation, the Razor bank checks it, and the cycle
//!    accounting matches [`agemul::run_engine`] exactly;
//! 3. at the boundary, the health policy retires / down-clocks / rests
//!    nodes, and every node's effective age advances **in proportion to
//!    its utilization** — the feedback loop that makes aging-aware routing
//!    a wear-leveling problem.
//!
//! # Determinism
//!
//! The entire run is a pure function of the campaign configuration: trace
//! generation is seeded per epoch, every routing tie-break ends in the
//! node id, the event order is total (`(time_fs, seq)`), and floats are
//! only ever produced by the same code path in the same order. The
//! replayable **event log** (arrivals, routing decisions, completions,
//! policy actions, encoded as fixed-width bytes) is the witness: resumed
//! and uninterrupted runs must produce identical bytes, which
//! `tests/replay_equiv.rs` pins.

use std::sync::Arc;

use agemul::{
    quantize_factors, CancelToken, CoreError, CornerProfiler, CycleDecision, DetectOutcome, Json,
    MultiplierDesign, PatternProfile, ProfileCache, RazorBank, RazorConfig,
};
use agemul_aging::{stress_probabilities, BtiModel, VariationModel};

use crate::event::{fnv1a64, Event, EventKind, EventQueue};
use crate::node::{NodeCounters, NodeState, NodeStatus};
use crate::policy::{route, FleetPolicy, RoutingPolicy};
use crate::trace::{epoch_seed, epoch_trace, trace_pairs, TraceKind};

/// Femtoseconds per nanosecond.
const FS_PER_NS: f64 = 1.0e6;

/// Femtoseconds per microsecond (throughput reporting).
const FS_PER_US: f64 = 1.0e9;

/// Utilization clamp for the age-advance law: a node can age at most this
/// many times faster than nominal in one epoch, however overloaded.
const MAX_UTILIZATION: f64 = 3.0;

/// Snapshot schema identifier.
const SNAPSHOT_SCHEMA: &str = "agemul-fleet-snapshot-v1";

/// Salt decorrelating node-corner seeds from epoch-trace seeds derived
/// from the same base.
const CORNER_SALT: u64 = 0xF1EE_7000_C0DE_0001;

/// Configuration of one fleet scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetConfig {
    /// Fleet size.
    pub nodes: usize,
    /// Campaign length in epochs.
    pub epochs: usize,
    /// Operations per epoch trace.
    pub ops_per_epoch: usize,
    /// Base seed: traces, per-node corners, and every derived stream.
    pub seed: u64,
    /// Lognormal σ of per-gate time-zero variation (per-node corners).
    pub sigma: f64,
    /// Nominal BTI age advance per epoch at fair-share utilization,
    /// years.
    pub years_per_epoch: f64,
    /// Heterogeneous burn-in: node `i` starts at
    /// `burn_in_years · i / (nodes − 1)` years of effective age (a fleet
    /// deployed in waves, not all at once).
    pub burn_in_years: f64,
    /// Workload flavour.
    pub trace: TraceKind,
    /// Routing + health policy.
    pub policy: FleetPolicy,
    /// AHL base skip threshold.
    pub skip: u32,
    /// Clock period, nanoseconds. `<= 0` anchors it at campaign build
    /// time: the fresh nominal max delay of the epoch-0 trace's
    /// *one-cycle-eligible* operations (judged zeros ≥ `skip`) ×
    /// [`guardband`](Self::guardband) — the AHL contract, where two-cycle
    /// operations need not fit in one period and aging pushes marginal
    /// one-cycle paths past it.
    pub cycle_ns: f64,
    /// Anchor guardband over the fresh observed max delay.
    pub guardband: f64,
    /// Fleet lifetime quorum: the campaign's lifetime metric is the first
    /// epoch count at which fewer than `quorum` nodes remain active. `0`
    /// resolves to a majority (`nodes / 2 + 1`).
    pub quorum: usize,
    /// Extra cycles charged per Razor-detected violation (paper: 3).
    pub error_penalty_cycles: u32,
}

impl FleetConfig {
    /// A scenario over `nodes` nodes for `epochs` epochs of
    /// `ops_per_epoch` operations, with the workspace defaults: uniform
    /// trace, round-robin baseline policy, σ 0.05, half a year of BTI per
    /// epoch, one year of burn-in spread, Skip-7, anchored cycle with a
    /// 5 % guardband, majority quorum.
    pub fn new(nodes: usize, epochs: usize, ops_per_epoch: usize, seed: u64) -> Self {
        FleetConfig {
            nodes,
            epochs,
            ops_per_epoch,
            seed,
            sigma: 0.05,
            years_per_epoch: 0.5,
            burn_in_years: 1.0,
            trace: TraceKind::Uniform,
            policy: FleetPolicy::baseline(RoutingPolicy::RoundRobin),
            skip: 7,
            cycle_ns: 0.0,
            guardband: 1.05,
            quorum: 0,
            error_penalty_cycles: 3,
        }
    }
}

/// The derived corner seed of node `id` — the fleet analogue of the Monte
/// Carlo campaign's corner-seed finalizer, salted so node corners never
/// collide with epoch trace streams derived from the same base seed.
pub fn node_corner_seed(base: u64, id: u32) -> u64 {
    epoch_seed(base ^ CORNER_SALT, id as usize)
}

/// Everything immutable a fleet scenario shares across epochs.
pub struct FleetCampaign<'a> {
    design: &'a MultiplierDesign,
    config: FleetConfig,
    bti: BtiModel,
    variation: VariationModel,
    /// Per-gate signal-high probabilities of the reference workload — the
    /// BTI stress input, shared by every node and age.
    p_high: Vec<f64>,
    cache: ProfileCache,
    nominal_cycle_fs: u64,
    epoch_span_fs: u64,
    fingerprint: u64,
}

impl<'a> FleetCampaign<'a> {
    /// Prepares a campaign: resolves the cycle anchor from the epoch-0
    /// trace under fresh nominal delays, derives the reference workload's
    /// BTI stress probabilities, and resolves the lifetime quorum.
    ///
    /// # Errors
    ///
    /// Propagates profiling/statistics errors from the design layer.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid configuration (zero nodes,
    /// epochs, or operations; non-finite or negative rates; a guardband
    /// below 1; a quorum above the fleet size) — these are programmer
    /// errors, mirroring `McConfig`.
    pub fn new(
        design: &'a MultiplierDesign,
        bti: &BtiModel,
        mut config: FleetConfig,
    ) -> Result<Self, CoreError> {
        assert!(config.nodes > 0, "a fleet needs at least one node");
        assert!(config.epochs > 0, "a campaign needs at least one epoch");
        assert!(
            config.ops_per_epoch > 0,
            "an epoch needs at least one operation"
        );
        assert!(
            config.sigma.is_finite() && config.sigma >= 0.0,
            "sigma must be finite and non-negative, got {}",
            config.sigma
        );
        assert!(
            config.years_per_epoch.is_finite() && config.years_per_epoch >= 0.0,
            "years_per_epoch must be finite and non-negative"
        );
        assert!(
            config.burn_in_years.is_finite() && config.burn_in_years >= 0.0,
            "burn_in_years must be finite and non-negative"
        );
        assert!(
            config.guardband.is_finite() && config.guardband >= 1.0,
            "guardband must be finite and at least 1, got {}",
            config.guardband
        );
        assert!(
            config.quorum <= config.nodes,
            "quorum {} exceeds fleet size {}",
            config.quorum,
            config.nodes
        );

        // The reference workload — epoch 0's trace — anchors the cycle
        // and supplies the stress statistics every aging factor derives
        // from. Arrival spacing is irrelevant to operands, so any
        // positive placeholder cycle works here.
        let reference = epoch_trace(
            config.trace,
            config.seed,
            0,
            config.ops_per_epoch,
            design.width(),
            1_000_000,
        );
        let pairs = trace_pairs(&reference);
        if config.cycle_ns <= 0.0 {
            let fresh = design.profile(&pairs, None)?;
            let one_cycle_max = fresh
                .records()
                .iter()
                .filter(|r| r.zeros >= config.skip)
                .map(|r| r.delay_ns)
                .fold(0.0, f64::max);
            let anchor = if one_cycle_max > 0.0 {
                one_cycle_max
            } else {
                fresh.max_delay_ns()
            };
            config.cycle_ns = anchor * config.guardband;
        }
        assert!(
            config.cycle_ns.is_finite() && config.cycle_ns > 0.0,
            "resolved cycle must be finite and positive"
        );
        if config.quorum == 0 {
            config.quorum = config.nodes / 2 + 1;
        }
        let stats = design.workload_stats(&pairs)?;
        let p_high = stress_probabilities(design.circuit().netlist(), &stats);

        let nominal_cycle_fs = (config.cycle_ns * FS_PER_NS).round() as u64;
        let epoch_span_fs = (config.ops_per_epoch as u64 + 16) * nominal_cycle_fs;
        let fingerprint = config_fingerprint(design, &config);
        let variation = VariationModel::new(config.sigma);
        Ok(FleetCampaign {
            design,
            config,
            bti: bti.clone(),
            variation,
            p_high,
            cache: ProfileCache::new(),
            nominal_cycle_fs,
            epoch_span_fs,
            fingerprint,
        })
    }

    /// The resolved configuration (cycle anchor and quorum filled in).
    #[inline]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The design under simulation.
    #[inline]
    pub fn design(&self) -> &'a MultiplierDesign {
        self.design
    }

    /// The campaign's profile cache (hit/miss/eviction telemetry).
    #[inline]
    pub fn cache(&self) -> &ProfileCache {
        &self.cache
    }

    /// The nominal (anchor) cycle in femtoseconds.
    #[inline]
    pub fn nominal_cycle_fs(&self) -> u64 {
        self.nominal_cycle_fs
    }

    /// The resolved-configuration fingerprint embedded in snapshots.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Profiles one node at one effective age: corner variation × BTI at
    /// `age_years`, grid-quantized, evaluated through the cache. A cache
    /// miss re-times the worker's plan-reuse profiler (`slot`, lazily
    /// compiled once per worker).
    ///
    /// # Errors
    ///
    /// Propagates delay-pipeline and simulation errors, including
    /// cancellation.
    pub fn node_profile(
        &self,
        slot: &mut Option<CornerProfiler<'a>>,
        corner_seed: u64,
        age_years: f64,
        pairs: &[(u64, u64)],
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<PatternProfile>, CoreError> {
        let netlist = self.design.circuit().netlist();
        let mut aged = self.p_high.clone();
        self.bti.delay_factors_in_place(age_years, &mut aged);
        let mut composed = self.variation.factors(netlist, corner_seed);
        for (v, bti) in composed.iter_mut().zip(&aged) {
            *v *= bti;
        }
        let factors = quantize_factors(&composed);
        let delays = self.design.delay_assignment(Some(&factors))?;
        self.cache
            .get_or_insert_with(self.design, &delays, pairs, || {
                if slot.is_none() {
                    let nominal = self.design.delay_assignment(None)?;
                    *slot = Some(self.design.corner_profiler(&nominal));
                }
                match slot.as_mut() {
                    Some(profiler) => {
                        profiler.retime(&delays);
                        profiler.profile(pairs, cancel)
                    }
                    None => unreachable!("slot was just populated"),
                }
            })
    }
}

/// Fingerprint over every result-determining configuration field (floats
/// by bit pattern, the design by architecture label and width).
fn config_fingerprint(design: &MultiplierDesign, config: &FleetConfig) -> u64 {
    let mut words: Vec<u64> = vec![
        fnv1a64(design.kind().label().as_bytes()),
        design.width() as u64,
        config.nodes as u64,
        config.epochs as u64,
        config.ops_per_epoch as u64,
        config.seed,
        config.sigma.to_bits(),
        config.years_per_epoch.to_bits(),
        config.burn_in_years.to_bits(),
        config.trace.tag(),
        u64::from(config.skip),
        config.cycle_ns.to_bits(),
        config.guardband.to_bits(),
        config.quorum as u64,
        u64::from(config.error_penalty_cycles),
    ];
    words.extend(config.policy.fingerprint_words());
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Log-record framing tags.
const REC_EVENT: u8 = 0x10;
const REC_ROUTE: u8 = 0x11;
const REC_DROP: u8 = 0x12;
const REC_POLICY: u8 = 0x13;

/// How an executed operation was classified — the routing-record class
/// byte in the event log.
const CLASS_ONE_CYCLE_OK: u8 = 1;
const CLASS_ONE_CYCLE_ERROR: u8 = 2;
const CLASS_UNDETECTED: u8 = 3;
const CLASS_TWO_CYCLES: u8 = 4;

/// Policy-action tags in the event log.
const ACTION_REST: u8 = 1;
const ACTION_WAKE: u8 = 2;
const ACTION_DOWNCLOCK: u8 = 3;
const ACTION_RETIRE: u8 = 4;

/// The replayable event log: a fixed-width byte encoding of every popped
/// event, routing decision, drop, and policy action. Byte equality
/// between two logs is the replay-identity criterion;
/// [`hash`](Self::hash) is the compact fingerprint reports carry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventLog {
    bytes: Vec<u8>,
    records: u64,
}

impl EventLog {
    fn append_event(&mut self, event: &Event) {
        self.bytes.push(REC_EVENT);
        event.encode(&mut self.bytes);
        self.records += 1;
    }

    fn append_route(&mut self, node: u32, cycles: u32, class: u8) {
        self.bytes.push(REC_ROUTE);
        self.bytes.extend_from_slice(&node.to_le_bytes());
        self.bytes.extend_from_slice(&cycles.to_le_bytes());
        self.bytes.push(class);
        self.records += 1;
    }

    fn append_drop(&mut self, op: u32) {
        self.bytes.push(REC_DROP);
        self.bytes.extend_from_slice(&op.to_le_bytes());
        self.records += 1;
    }

    fn append_policy(&mut self, epoch: u32, action: u8, node: u32) {
        self.bytes.push(REC_POLICY);
        self.bytes.extend_from_slice(&epoch.to_le_bytes());
        self.bytes.push(action);
        self.bytes.extend_from_slice(&node.to_le_bytes());
        self.records += 1;
    }

    /// The raw encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// FNV-1a fingerprint of the encoded bytes.
    pub fn hash(&self) -> u64 {
        fnv1a64(&self.bytes)
    }
}

/// One running fleet: the mutable state a campaign evolves over epochs.
pub struct FleetSim<'a, 'b> {
    campaign: &'b FleetCampaign<'a>,
    nodes: Vec<NodeState>,
    epoch: u32,
    rr_cursor: u32,
    log: EventLog,
    completed_ops: u64,
    dropped_ops: u64,
    last_completion_fs: u64,
    lifetime_epoch: Option<u32>,
}

impl<'a, 'b> FleetSim<'a, 'b> {
    /// A fresh fleet at epoch zero: node `i` gets its derived corner
    /// seed, its burn-in age along the deployment ramp, and the nominal
    /// cycle.
    pub fn new(campaign: &'b FleetCampaign<'a>) -> Self {
        let config = campaign.config();
        let nodes = (0..config.nodes as u32)
            .map(|id| {
                let age = if config.nodes > 1 {
                    config.burn_in_years * f64::from(id) / (config.nodes as f64 - 1.0)
                } else {
                    0.0
                };
                NodeState::new(
                    id,
                    node_corner_seed(config.seed, id),
                    age,
                    campaign.nominal_cycle_fs,
                    config.skip,
                )
            })
            .collect();
        FleetSim {
            campaign,
            nodes,
            epoch: 0,
            rr_cursor: 0,
            log: EventLog::default(),
            completed_ops: 0,
            dropped_ops: 0,
            last_completion_fs: 0,
            lifetime_epoch: None,
        }
    }

    /// Epochs completed so far.
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The event log accumulated since construction (or resume — a
    /// restored sim starts with an empty log, and resume-identity
    /// compares `prefix ++ suffix` against the uninterrupted log).
    #[inline]
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The current node states, in id order.
    #[inline]
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// Runs one epoch: refresh profiles, replay the trace through the
    /// event queue, apply the health policy, advance ages.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors (including cancellation) from the
    /// per-node refresh sweep.
    pub fn run_epoch(&mut self, cancel: Option<&CancelToken>) -> Result<(), CoreError> {
        let campaign = self.campaign;
        let config = campaign.config();
        let epoch = self.epoch;

        // 1. Rejuvenation rotation: at each rotation boundary the next
        // node in id order rests for this epoch — never the last active
        // node.
        if config.policy.rotation_epochs > 0 && epoch.is_multiple_of(config.policy.rotation_epochs)
        {
            let active = self
                .nodes
                .iter()
                .filter(|n| n.status == NodeStatus::Active)
                .count();
            if active > 1 {
                let id = (epoch / config.policy.rotation_epochs) as usize % self.nodes.len();
                if self.nodes[id].status == NodeStatus::Active {
                    self.nodes[id].status = NodeStatus::Resting;
                    self.log.append_policy(epoch, ACTION_REST, id as u32);
                }
            }
        }
        let routable_at_start = self.nodes.iter().filter(|n| n.is_routable()).count().max(1);

        // 2. This epoch's trace.
        let trace = epoch_trace(
            config.trace,
            config.seed,
            epoch as usize,
            config.ops_per_epoch,
            campaign.design().width(),
            campaign.nominal_cycle_fs,
        );
        let pairs = trace_pairs(&trace);

        // 3. Refresh every non-retired node's profile at its current
        // effective age, sharing one plan-reuse profiler slot.
        let mut slot = None;
        let mut profiles: Vec<Option<Arc<PatternProfile>>> = vec![None; self.nodes.len()];
        for node in self
            .nodes
            .iter_mut()
            .filter(|n| n.status != NodeStatus::Retired)
        {
            let profile = campaign.node_profile(
                &mut slot,
                node.corner_seed,
                node.age_years,
                &pairs,
                cancel,
            )?;
            node.profile_max_delay_ns = profile.max_delay_ns();
            profiles[node.id as usize] = Some(profile);
        }

        // 4. The discrete-event loop.
        let razor = RazorBank::new(2 * campaign.design().width(), RazorConfig::paper());
        let epoch_base = u64::from(epoch) * campaign.epoch_span_fs;
        let mut queue = EventQueue::new();
        for (i, op) in trace.iter().enumerate() {
            queue.push(epoch_base + op.at_fs, EventKind::Arrival { op: i as u32 });
        }
        while let Some(event) = queue.pop() {
            self.log.append_event(&event);
            match event.kind {
                EventKind::Arrival { op } => {
                    match route(&config.policy, &self.nodes, &mut self.rr_cursor) {
                        None => {
                            self.dropped_ops += 1;
                            self.log.append_drop(op);
                        }
                        Some(id) => {
                            // Only active nodes are routable, and step 3
                            // profiled every node that is not retired.
                            let Some(profile) = &profiles[id as usize] else {
                                return Err(CoreError::InvalidConfig {
                                    reason: format!("node {id} routed without a current profile"),
                                });
                            };
                            let rec = profile.records()[op as usize];
                            let node = &mut self.nodes[id as usize];
                            let cycle_ns = node.cycle_ns();
                            // Exactly `run_engine`'s accounting, with the
                            // node's own AHL and (possibly stretched)
                            // cycle.
                            let (cycles, class) = match node.ahl.decide(rec.zeros) {
                                CycleDecision::OneCycle => {
                                    match razor.check(rec.delay_ns, cycle_ns) {
                                        DetectOutcome::Ok => {
                                            node.counters.one_cycle_ops += 1;
                                            node.ahl.record(false);
                                            (1u64, CLASS_ONE_CYCLE_OK)
                                        }
                                        DetectOutcome::Error => {
                                            node.counters.one_cycle_ops += 1;
                                            node.counters.errors += 1;
                                            node.epoch_errors += 1;
                                            node.ahl.record(true);
                                            (
                                                1 + u64::from(config.error_penalty_cycles),
                                                CLASS_ONE_CYCLE_ERROR,
                                            )
                                        }
                                        DetectOutcome::Undetected => {
                                            node.counters.one_cycle_ops += 1;
                                            node.counters.undetected += 1;
                                            node.epoch_undetected += 1;
                                            node.ahl.record(false);
                                            (1u64, CLASS_UNDETECTED)
                                        }
                                    }
                                }
                                CycleDecision::TwoCycles => {
                                    node.counters.two_cycle_ops += 1;
                                    node.ahl.record(false);
                                    (2u64, CLASS_TWO_CYCLES)
                                }
                            };
                            let start = event.time_fs.max(node.busy_until_fs);
                            let busy = cycles * node.cycle_fs;
                            let finish = start + busy;
                            node.busy_until_fs = finish;
                            node.counters.ops += 1;
                            node.counters.cycles += cycles;
                            node.counters.busy_fs += busy;
                            node.epoch_ops += 1;
                            self.log.append_route(id, cycles as u32, class);
                            queue.push(finish, EventKind::Completion { node: id, op });
                        }
                    }
                }
                EventKind::Completion { .. } => {
                    self.completed_ops += 1;
                    self.last_completion_fs = self.last_completion_fs.max(event.time_fs);
                }
            }
        }

        // 5. The epoch-boundary policy step, in id order: health
        // decisions on this epoch's window, then utilization-proportional
        // aging, then the window resets.
        let fair = config.ops_per_epoch as f64 / routable_at_start as f64;
        for id in 0..self.nodes.len() {
            let node = &mut self.nodes[id];
            match node.status {
                NodeStatus::Retired => {}
                NodeStatus::Resting => {
                    node.age_years = (node.age_years - config.policy.rest_recovery_years).max(0.0);
                    node.status = NodeStatus::Active;
                    self.log.append_policy(epoch, ACTION_WAKE, id as u32);
                }
                NodeStatus::Active => {
                    if node.epoch_ops > 0 {
                        let err10k = node.epoch_errors as f64 * 10_000.0 / node.epoch_ops as f64;
                        if node.epoch_undetected > 0 || err10k > config.policy.retire_error_per_10k
                        {
                            node.status = NodeStatus::Retired;
                            node.retired_at_epoch = Some(epoch);
                            self.log.append_policy(epoch, ACTION_RETIRE, id as u32);
                        } else if err10k > config.policy.downclock_error_per_10k
                            && node.downclocks < config.policy.max_downclocks
                        {
                            node.cycle_fs +=
                                node.cycle_fs * u64::from(config.policy.downclock_percent) / 100;
                            node.downclocks += 1;
                            self.log.append_policy(epoch, ACTION_DOWNCLOCK, id as u32);
                        }
                    }
                    if node.status != NodeStatus::Retired {
                        let util = (node.epoch_ops as f64 / fair).min(MAX_UTILIZATION);
                        node.age_years += config.years_per_epoch * util;
                    }
                }
            }
            node.reset_epoch_window();
        }

        // 6. Lifetime quorum check.
        let active = self
            .nodes
            .iter()
            .filter(|n| n.status == NodeStatus::Active)
            .count();
        if self.lifetime_epoch.is_none() && active < config.quorum {
            self.lifetime_epoch = Some(epoch + 1);
        }
        self.epoch += 1;
        Ok(())
    }

    /// Runs the remaining epochs of the campaign and returns the summary.
    ///
    /// # Errors
    ///
    /// Propagates the first epoch failure.
    pub fn run(&mut self, cancel: Option<&CancelToken>) -> Result<FleetSummary, CoreError> {
        while (self.epoch as usize) < self.campaign.config().epochs {
            self.run_epoch(cancel)?;
        }
        Ok(self.summary())
    }

    /// Serializes the sim at an epoch boundary. The snapshot embeds the
    /// campaign fingerprint, so restoring under a different configuration
    /// fails loudly rather than silently diverging.
    pub fn snapshot(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SNAPSHOT_SCHEMA.into())),
            ("fingerprint".into(), Json::UInt(self.campaign.fingerprint)),
            ("epoch".into(), Json::UInt(u64::from(self.epoch))),
            ("rr_cursor".into(), Json::UInt(u64::from(self.rr_cursor))),
            ("completed_ops".into(), Json::UInt(self.completed_ops)),
            ("dropped_ops".into(), Json::UInt(self.dropped_ops)),
            (
                "last_completion_fs".into(),
                Json::UInt(self.last_completion_fs),
            ),
            (
                "lifetime_epoch".into(),
                match self.lifetime_epoch {
                    Some(e) => Json::UInt(u64::from(e)),
                    None => Json::Null,
                },
            ),
            (
                "nodes".into(),
                Json::Arr(self.nodes.iter().map(NodeState::to_json).collect()),
            ),
        ])
    }

    /// Reconstructs a sim from a [`snapshot`](Self::snapshot) taken under
    /// the same campaign configuration. The restored sim's event log
    /// starts empty: resume-identity is asserted as
    /// `log-at-snapshot ++ resumed-log == uninterrupted-log`.
    ///
    /// # Errors
    ///
    /// Rejects schema or fingerprint mismatches and malformed fields.
    pub fn restore(campaign: &'b FleetCampaign<'a>, snapshot: &Json) -> Result<Self, String> {
        let decode = || {
            let schema = snapshot.get_str("schema")?;
            if schema != SNAPSHOT_SCHEMA {
                return Err(format!("schema {schema:?} is not {SNAPSHOT_SCHEMA:?}"));
            }
            let fingerprint = snapshot.get_u64("fingerprint")?;
            if fingerprint != campaign.fingerprint {
                return Err(format!(
                    "fingerprint {:#x} does not match campaign {:#x} — \
                     refusing to resume under a different configuration",
                    fingerprint, campaign.fingerprint
                ));
            }
            let nodes_json = snapshot.get_arr("nodes")?;
            if nodes_json.len() != campaign.config.nodes {
                return Err(format!(
                    "{} nodes, campaign expects {}",
                    nodes_json.len(),
                    campaign.config.nodes
                ));
            }
            let nodes = nodes_json
                .iter()
                .map(|v| NodeState::from_json(v, campaign.config.skip))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(FleetSim {
                campaign,
                nodes,
                epoch: snapshot.get_u32("epoch")?,
                rr_cursor: snapshot.get_u32("rr_cursor")?,
                log: EventLog::default(),
                completed_ops: snapshot.get_u64("completed_ops")?,
                dropped_ops: snapshot.get_u64("dropped_ops")?,
                last_completion_fs: snapshot.get_u64("last_completion_fs")?,
                lifetime_epoch: snapshot.get_opt_u32("lifetime_epoch")?,
            })
        };
        decode().map_err(|e: String| format!("snapshot: {e}"))
    }

    /// The campaign summary at the current epoch.
    pub fn summary(&self) -> FleetSummary {
        let config = self.campaign.config();
        let mut totals = NodeCounters::default();
        for node in &self.nodes {
            totals.ops += node.counters.ops;
            totals.one_cycle_ops += node.counters.one_cycle_ops;
            totals.two_cycle_ops += node.counters.two_cycle_ops;
            totals.errors += node.counters.errors;
            totals.undetected += node.counters.undetected;
            totals.cycles += node.counters.cycles;
            totals.busy_fs += node.counters.busy_fs;
        }
        let makespan_fs = self.last_completion_fs;
        let throughput = if makespan_fs > 0 {
            self.completed_ops as f64 / (makespan_fs as f64 / FS_PER_US)
        } else {
            0.0
        };
        FleetSummary {
            policy: config.policy.label(),
            trace: config.trace.label().to_string(),
            nodes: config.nodes,
            epochs: self.epoch,
            quorum: config.quorum,
            completed_ops: self.completed_ops,
            dropped_ops: self.dropped_ops,
            cycles: totals.cycles,
            one_cycle_ops: totals.one_cycle_ops,
            two_cycle_ops: totals.two_cycle_ops,
            errors: totals.errors,
            undetected: totals.undetected,
            recovery_cycles: totals.recovery_cycles(config.error_penalty_cycles),
            retired_nodes: self
                .nodes
                .iter()
                .filter(|n| n.status == NodeStatus::Retired)
                .count(),
            lifetime_epochs: self.lifetime_epoch,
            makespan_fs,
            throughput_ops_per_us: throughput,
            log_records: self.log.records,
            log_hash: self.log.hash(),
            node_reports: self.nodes.iter().map(NodeReport::of).collect(),
        }
    }
}

/// One node's line in a [`FleetSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Node id.
    pub id: u32,
    /// Effective BTI age at the end of the run, years.
    pub age_years: f64,
    /// Final status label.
    pub status: String,
    /// Epoch of retirement, if retired.
    pub retired_at_epoch: Option<u32>,
    /// Down-clock actions applied.
    pub downclocks: u32,
    /// Final clock period, femtoseconds.
    pub cycle_fs: u64,
    /// Cumulative execution counters.
    pub counters: NodeCounters,
}

impl NodeReport {
    fn of(node: &NodeState) -> Self {
        NodeReport {
            id: node.id,
            age_years: node.age_years,
            status: node.status.label().to_string(),
            retired_at_epoch: node.retired_at_epoch,
            downclocks: node.downclocks,
            cycle_fs: node.cycle_fs,
            counters: node.counters,
        }
    }

    /// Serializes the report (lossless floats).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".into(), Json::UInt(u64::from(self.id))),
            ("age_years".into(), Json::Num(self.age_years)),
            ("status".into(), Json::Str(self.status.clone())),
            ("downclocks".into(), Json::UInt(u64::from(self.downclocks))),
            ("cycle_fs".into(), Json::UInt(self.cycle_fs)),
        ];
        pairs.extend(self.counters.json_pairs());
        if let Some(epoch) = self.retired_at_epoch {
            pairs.push(("retired_at_epoch".into(), Json::UInt(u64::from(epoch))));
        }
        Json::Obj(pairs)
    }

    /// Deserializes a [`to_json`](Self::to_json) report.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<NodeReport, String> {
        let decode = || {
            Ok(NodeReport {
                id: v.get_u32("id")?,
                age_years: v.get_f64("age_years")?,
                status: v.get_str("status")?.to_string(),
                retired_at_epoch: v.get_opt_u32("retired_at_epoch")?,
                downclocks: v.get_u32("downclocks")?,
                cycle_fs: v.get_u64("cycle_fs")?,
                counters: NodeCounters::from_json(v)?,
            })
        };
        decode().map_err(|e: String| format!("node report: {e}"))
    }
}

/// The outcome of one fleet campaign — what the repro experiment tables
/// and the resident server's `fleet` op report.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSummary {
    /// Scenario policy label.
    pub policy: String,
    /// Trace label.
    pub trace: String,
    /// Fleet size.
    pub nodes: usize,
    /// Epochs run.
    pub epochs: u32,
    /// Resolved lifetime quorum.
    pub quorum: usize,
    /// Operations completed fleet-wide.
    pub completed_ops: u64,
    /// Arrivals dropped (no routable node).
    pub dropped_ops: u64,
    /// Total cycles consumed fleet-wide.
    pub cycles: u64,
    /// One-cycle operations fleet-wide.
    pub one_cycle_ops: u64,
    /// Two-cycle operations fleet-wide.
    pub two_cycle_ops: u64,
    /// Razor-detected violations fleet-wide.
    pub errors: u64,
    /// Undetected violations fleet-wide.
    pub undetected: u64,
    /// Error-recovery cycles fleet-wide (penalty × errors).
    pub recovery_cycles: u64,
    /// Nodes retired by the health policy.
    pub retired_nodes: usize,
    /// First epoch count at which the active fleet fell below quorum
    /// (`None`: survived the whole campaign).
    pub lifetime_epochs: Option<u32>,
    /// Timestamp of the last completion, femtoseconds.
    pub makespan_fs: u64,
    /// Completed operations per simulated microsecond.
    pub throughput_ops_per_us: f64,
    /// Event-log records written.
    pub log_records: u64,
    /// Event-log FNV-1a fingerprint — the replay-identity witness.
    pub log_hash: u64,
    /// Per-node reports, in id order.
    pub node_reports: Vec<NodeReport>,
}

impl FleetSummary {
    /// The lifetime metric with censoring resolved: campaigns that never
    /// broke quorum report the full epoch count they survived.
    pub fn lifetime_or_censored(&self) -> u32 {
        self.lifetime_epochs.unwrap_or(self.epochs)
    }

    /// Serializes the summary (lossless floats and u64s).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("policy".into(), Json::Str(self.policy.clone())),
            ("trace".into(), Json::Str(self.trace.clone())),
            ("nodes".into(), Json::UInt(self.nodes as u64)),
            ("epochs".into(), Json::UInt(u64::from(self.epochs))),
            ("quorum".into(), Json::UInt(self.quorum as u64)),
            ("completed_ops".into(), Json::UInt(self.completed_ops)),
            ("dropped_ops".into(), Json::UInt(self.dropped_ops)),
            ("cycles".into(), Json::UInt(self.cycles)),
            ("one_cycle_ops".into(), Json::UInt(self.one_cycle_ops)),
            ("two_cycle_ops".into(), Json::UInt(self.two_cycle_ops)),
            ("errors".into(), Json::UInt(self.errors)),
            ("undetected".into(), Json::UInt(self.undetected)),
            ("recovery_cycles".into(), Json::UInt(self.recovery_cycles)),
            (
                "retired_nodes".into(),
                Json::UInt(self.retired_nodes as u64),
            ),
            (
                "lifetime_epochs".into(),
                match self.lifetime_epochs {
                    Some(e) => Json::UInt(u64::from(e)),
                    None => Json::Null,
                },
            ),
            ("makespan_fs".into(), Json::UInt(self.makespan_fs)),
            (
                "throughput_ops_per_us".into(),
                Json::Num(self.throughput_ops_per_us),
            ),
            ("log_records".into(), Json::UInt(self.log_records)),
            ("log_hash".into(), Json::UInt(self.log_hash)),
            (
                "node_reports".into(),
                Json::Arr(self.node_reports.iter().map(NodeReport::to_json).collect()),
            ),
        ])
    }

    /// Deserializes a [`to_json`](Self::to_json) summary.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<FleetSummary, String> {
        let decode = || {
            Ok(FleetSummary {
                policy: v.get_str("policy")?.to_string(),
                trace: v.get_str("trace")?.to_string(),
                nodes: v.get_u64("nodes")? as usize,
                epochs: v.get_u32("epochs")?,
                quorum: v.get_u64("quorum")? as usize,
                completed_ops: v.get_u64("completed_ops")?,
                dropped_ops: v.get_u64("dropped_ops")?,
                cycles: v.get_u64("cycles")?,
                one_cycle_ops: v.get_u64("one_cycle_ops")?,
                two_cycle_ops: v.get_u64("two_cycle_ops")?,
                errors: v.get_u64("errors")?,
                undetected: v.get_u64("undetected")?,
                recovery_cycles: v.get_u64("recovery_cycles")?,
                retired_nodes: v.get_u64("retired_nodes")? as usize,
                lifetime_epochs: v.get_opt_u32("lifetime_epochs")?,
                makespan_fs: v.get_u64("makespan_fs")?,
                throughput_ops_per_us: v.get_f64("throughput_ops_per_us")?,
                log_records: v.get_u64("log_records")?,
                log_hash: v.get_u64("log_hash")?,
                node_reports: v
                    .get_arr("node_reports")?
                    .iter()
                    .map(NodeReport::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            })
        };
        decode().map_err(|e: String| format!("fleet summary: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agemul_circuits::MultiplierKind;

    fn design() -> MultiplierDesign {
        MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap()
    }

    fn bti() -> BtiModel {
        BtiModel::reference()
    }

    fn quick_config() -> FleetConfig {
        let mut config = FleetConfig::new(4, 2, 96, 0x0A6E_0005);
        config.years_per_epoch = 1.0;
        config
    }

    #[test]
    fn repeated_runs_are_identical() {
        let design = design();
        let bti = bti();
        let run = || {
            let campaign = FleetCampaign::new(&design, &bti, quick_config()).unwrap();
            let mut sim = FleetSim::new(&campaign);
            let summary = sim.run(None).unwrap();
            (sim.log().bytes().to_vec(), summary)
        };
        let (log_a, summary_a) = run();
        let (log_b, summary_b) = run();
        assert_eq!(log_a, log_b, "event logs must be byte-identical");
        assert_eq!(summary_a, summary_b);
        assert!(summary_a.completed_ops > 0);
    }

    #[test]
    fn cycle_identity_holds_per_node_and_fleet_wide() {
        let design = design();
        let bti = bti();
        let campaign = FleetCampaign::new(&design, &bti, quick_config()).unwrap();
        let mut sim = FleetSim::new(&campaign);
        let summary = sim.run(None).unwrap();
        let penalty = u64::from(campaign.config().error_penalty_cycles);
        for report in &summary.node_reports {
            let c = &report.counters;
            assert_eq!(
                c.cycles,
                c.one_cycle_ops + 2 * c.two_cycle_ops + penalty * c.errors,
                "node {}",
                report.id
            );
        }
        assert_eq!(
            summary.cycles,
            summary.one_cycle_ops + 2 * summary.two_cycle_ops + penalty * summary.errors
        );
        assert_eq!(summary.recovery_cycles, penalty * summary.errors);
    }

    #[test]
    fn snapshot_resumes_to_the_same_state() {
        let design = design();
        let bti = bti();
        let campaign = FleetCampaign::new(&design, &bti, quick_config()).unwrap();

        let mut uninterrupted = FleetSim::new(&campaign);
        uninterrupted.run_epoch(None).unwrap();
        let snapshot = uninterrupted.snapshot();
        let prefix = uninterrupted.log().bytes().to_vec();
        uninterrupted.run_epoch(None).unwrap();

        let mut resumed = FleetSim::restore(&campaign, &snapshot).unwrap();
        resumed.run_epoch(None).unwrap();

        let mut stitched = prefix;
        stitched.extend_from_slice(resumed.log().bytes());
        assert_eq!(
            stitched,
            uninterrupted.log().bytes(),
            "resumed log must continue the uninterrupted byte stream"
        );
        let a = uninterrupted.summary();
        let mut b = resumed.summary();
        // The resumed sim's log counters cover only the suffix; everything
        // else must match exactly.
        b.log_records = a.log_records;
        b.log_hash = a.log_hash;
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_rejects_a_different_campaign() {
        let design = design();
        let bti = bti();
        let campaign = FleetCampaign::new(&design, &bti, quick_config()).unwrap();
        let sim = FleetSim::new(&campaign);
        let snapshot = sim.snapshot();

        let mut other_config = quick_config();
        other_config.seed ^= 1;
        let other = FleetCampaign::new(&design, &bti, other_config).unwrap();
        let err = match FleetSim::restore(&other, &snapshot) {
            Ok(_) => panic!("restore under a different campaign must fail"),
            Err(e) => e,
        };
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn summary_round_trips_through_json() {
        let design = design();
        let bti = bti();
        let campaign = FleetCampaign::new(&design, &bti, quick_config()).unwrap();
        let mut sim = FleetSim::new(&campaign);
        let summary = sim.run(None).unwrap();
        let back = FleetSummary::from_json(&summary.to_json()).unwrap();
        assert_eq!(back, summary);
    }
}
