//! Aging-aware variable-latency multiplier with Adaptive Hold Logic.
//!
//! This crate is the Rust realization of the architecture proposed in
//! *"Aging-Aware Reliable Multiplier Design With Adaptive Hold Logic"*
//! (Lin, Cho, Yang — IEEE TVLSI; first presented at SOCC 2012): a column-
//! or row-bypassing multiplier wrapped in Razor flip-flops and an **AHL**
//! circuit that predicts, from the number of zeros in the judged operand,
//! whether each multiplication can finish in one short clock cycle or needs
//! two — and that *re-tunes itself* as NBTI/PBTI aging slows the array.
//!
//! # Architecture map (paper Fig. 8)
//!
//! | Paper component | Here |
//! |---|---|
//! | column-/row-bypassing multiplier | [`MultiplierDesign`] (gate-level, from `agemul-circuits`) |
//! | 2m Razor flip-flops | [`RazorBank`] |
//! | AHL: two judging blocks | [`JudgingBlock`] (behavioural) / `agemul_circuits::zeros_at_least` (gate-level, for area) |
//! | AHL: aging indicator + mux + D-FF | [`Ahl`] |
//! | input flip-flops + clock gating | cycle accounting in [`run_engine`] |
//!
//! # Workflow
//!
//! 1. Build a [`MultiplierDesign`] (kind × width) — delays come from the
//!    workspace-calibrated [`calibrated_delay_model`], pinned so the 16×16
//!    array multiplier's critical path is the paper's 1.32 ns.
//! 2. Generate a workload with [`PatternSet`] and profile it with
//!    [`MultiplierDesign::profile`] — an event-driven timing simulation
//!    that records each operation's sensitized path delay and judged zero
//!    count (optionally under aged per-gate delays from `agemul-aging`).
//! 3. Replay the profile through [`run_engine`] under any
//!    [`EngineConfig`] (cycle period, skip number, adaptive vs traditional
//!    hold logic) to obtain [`RunMetrics`]: average latency, error counts,
//!    cycle breakdowns.
//! 4. Price the architecture with [`area_report`] and its energy with
//!    [`energy_report`].
//!
//! # Example
//!
//! ```no_run
//! use agemul::{
//!     run_engine, EngineConfig, MultiplierDesign, PatternSet,
//! };
//! use agemul_circuits::MultiplierKind;
//!
//! let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
//! let patterns = PatternSet::uniform(16, 10_000, 42);
//! let profile = design.profile(patterns.pairs(), None)?;
//!
//! let config = EngineConfig::adaptive(0.9, 7);
//! let metrics = run_engine(&profile, &config);
//! println!("avg latency {:.3} ns", metrics.avg_latency_ns());
//! # Ok::<(), agemul::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod aging_sweep;
mod ahl;
mod ahl_netlist;
mod area;
mod cache;
mod calibrate;
mod design;
mod energy;
mod engine;
mod error;
mod json;
mod judging;
mod metrics;
mod montecarlo;
mod patterns;
mod profile;
mod razor;
mod sweep;
mod validate;

pub use aging_sweep::{AgingSweep, SweepCounters};
pub use ahl::{Ahl, AhlConfig, AhlState, CycleDecision};
pub use ahl_netlist::GateLevelAhl;
pub use area::{area_report, Architecture, AreaReport};
pub use cache::{
    quantize_factor, quantize_factors, CacheEntry, ProfileCache, ProfileKey, ShardStats,
    AGING_FACTOR_GRID, SHARD_COUNT as CACHE_SHARD_COUNT,
};
pub use calibrate::{calibrated_delay_model, measure_critical_delay, PAPER_AM16_CRITICAL_NS};
pub use design::{CornerProfiler, LaneWidth, MultiplierDesign, SimEngine};
pub use energy::{energy_report, EnergyInputs};
pub use engine::{run_engine, run_engine_traced, run_fixed_latency, EngineConfig, EngineTrace};
pub use error::CoreError;
pub use json::Json;
pub use judging::{count_zeros, JudgingBlock};
pub use metrics::RunMetrics;
pub use montecarlo::{CornerOutcome, McConfig, McReport, MonteCarloCampaign, YearOutcome};
pub use patterns::PatternSet;
pub use profile::{PatternProfile, PatternRecord};
pub use razor::{DetectOutcome, RazorBank, RazorConfig};
pub use sweep::PeriodSweep;
pub use validate::cycle_accurate_run;

pub use agemul_netlist::CancelToken;
