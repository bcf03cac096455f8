//! NBTI/PBTI aging models and per-gate delay degradation.
//!
//! The paper's reliability story rests on bias temperature instability: a
//! pMOS transistor under negative bias (NBTI) — or, on 32 nm high-k/metal
//! gate processes, an nMOS under positive bias (PBTI) — accumulates
//! interface traps that raise its threshold voltage and slow the gate. This
//! crate reproduces the analytic chain the paper uses in place of silicon:
//!
//! 1. [`BtiModel`] — the reaction–diffusion framework of Eqs. (1)–(2):
//!    `ΔVth(t) ≈ α(S) · K_DC · tⁿ`, with `K_DC` assembled from the 32 nm
//!    technology constants ([`agemul_logic::Technology`]) and `α(S) = Sⁿ`
//!    capturing the ac stress/recovery duty cycle (effective stress time
//!    `S·t` under the RD model).
//! 2. The **alpha-power law** translating ΔVth into a gate-delay growth
//!    factor: `delay ∝ (V_DD − V_th)^{−α}`.
//! 3. [`aging_factors`] — per-gate-instance factors for a whole netlist,
//!    using workload-measured signal probabilities: NBTI stresses a gate's
//!    pull-up network while its output is high, PBTI the pull-down while it
//!    is low, and both transition edges matter, so the factor averages the
//!    two. The result plugs straight into
//!    [`agemul_netlist::DelayAssignment::with_factors`].
//! 4. [`electromigration`] — the paper's §V outlook: a simple
//!    current-density wire-aging extension that composes multiplicatively
//!    with BTI.
//!
//! The free constant `A` of Eq. (2) is fixed by [`BtiModel::calibrated`]
//! so that a reference gate (signal probability 0.5) degrades by the
//! paper's observed ≈13 % over seven years (Fig. 7).
//!
//! # Example
//!
//! ```
//! use agemul_aging::BtiModel;
//! use agemul_logic::Technology;
//!
//! let model = BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.13);
//! let f7 = model.delay_factor(7.0, 0.5);
//! assert!((f7 - 1.13).abs() < 1e-9);
//! assert!(model.delay_factor(1.0, 0.5) < f7); // monotone in time
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bti;
pub mod electromigration;
mod stress;
mod variation;

pub use bti::{BtiModel, SECONDS_PER_YEAR};
pub use stress::{aging_factors, stress_probabilities, worst_gate_factor};
pub use variation::VariationModel;
