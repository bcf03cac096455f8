//! The differential oracle: one case, every engine, full-state diffs.

use std::fmt;

use agemul_logic::{GateKind, Logic};
use agemul_netlist::{
    BatchSim, BlockSim, EventSim, FaultOverlay, FuncSim, LevelSim, NetId, Netlist, NetlistError,
    PatternTiming, Topology,
};

use crate::case::Case;
use crate::gen::input_vector;

/// Inter-pattern gap used by the waveform-identity axis; generous enough
/// that traces from consecutive steps never interleave.
const TRACE_GAP_FS: u64 = 1_000_000_000;

/// An evaluation engine participating in the differential oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineId {
    /// The crate's independent topological interpreter (see
    /// [`reference_eval`]).
    Reference,
    /// [`FuncSim`] — zero-delay scalar sweep.
    Func,
    /// [`BatchSim`] — 64-lane bit-parallel sweep.
    Batch,
    /// [`EventSim`] — event-driven femtosecond timing.
    Event,
    /// [`LevelSim`] — levelized incremental timing kernel.
    Level,
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineId::Reference => "reference",
            EngineId::Func => "FuncSim",
            EngineId::Batch => "BatchSim",
            EngineId::Event => "EventSim",
            EngineId::Level => "LevelSim",
        })
    }
}

/// One disagreement between two engines on one case.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// First engine of the mismatched pair.
    pub left: EngineId,
    /// Second engine of the mismatched pair.
    pub right: EngineId,
    /// Workload step at which the disagreement surfaced.
    pub step: usize,
    /// Where in the compared state the values differ (net, timing field,
    /// trace index, …).
    pub site: String,
    /// The two values, rendered.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {} @ step {}: {} ({})",
            self.left, self.right, self.step, self.site, self.detail
        )
    }
}

/// Evaluates `n` for one input assignment with an independent topological
/// interpreter — the oracle the four production engines are diffed
/// against.
///
/// Semantics mirror [`FuncSim`]: constants, then inputs, then gates in
/// builder order (topological by construction), every net passed through
/// the overlay's scalar view as it settles. The implementation shares no
/// code with the engines — it reads the [`Netlist`] directly rather than
/// going through a compiled plan, so a plan-compilation bug cannot hide
/// from it.
///
/// `sabotage` inverts the output of every gate of the given kind *before*
/// overlay coercion. It exists for the shrinker's own validation: an
/// intentionally wrong oracle is an injected eval bug whose minimal repro
/// is known by construction (one gate of that kind).
pub fn reference_eval(
    n: &Netlist,
    inputs: &[Logic],
    overlay: Option<&FaultOverlay>,
    sabotage: Option<GateKind>,
) -> Vec<Logic> {
    let coerce = |idx: usize, v: Logic| match overlay {
        Some(o) => o.apply_scalar(idx, v),
        None => v,
    };
    let mut values = vec![Logic::X; n.net_count()];
    for (idx, value) in values.iter_mut().enumerate() {
        if let Some(level) = n.const_level(NetId::from_index(idx)) {
            *value = coerce(idx, level);
        }
    }
    for (&net, &v) in n.inputs().iter().zip(inputs) {
        values[net.index()] = coerce(net.index(), v);
    }
    let mut scratch = Vec::new();
    for gate in n.gates() {
        scratch.clear();
        scratch.extend(gate.inputs().iter().map(|i| values[i.index()]));
        let mut out = gate.kind().eval(&scratch);
        if sabotage == Some(gate.kind()) {
            out = !out;
        }
        values[gate.output().index()] = coerce(gate.output().index(), out);
    }
    values
}

/// Runs `case` through every engine pairing and returns all observed
/// divergences (empty = full conformance).
///
/// The axes, in order:
///
/// 1. [`FuncSim`] vs [`reference_eval`] on every net, every step — clean,
///    and again under the case's overlay when a fault is present;
/// 2. [`BatchSim`] (all lanes, clean and overlay) vs the per-step scalar
///    results — the overlay masks lane 0 only, so lane 0 of each batch
///    compares against the faulted scalar run and the other lanes against
///    the clean one; the same axis then re-runs at 256 lanes
///    ([`BlockSim<4>`](BlockSim)), where the overlay's 64-bit mask
///    replicates per chunk (lane `i` of a block is faulted iff bit
///    `i % 64` is set);
/// 3. [`EventSim`] vs [`LevelSim`] in lockstep — identical
///    [`PatternTiming`] (femtosecond-derived fields compare with `==`),
///    identical values on every net, identical cumulative per-gate toggle
///    counters — through a clean phase, an overlay phase, and a
///    post-detach phase; the clean phase also cross-checks [`EventSim`]
///    against [`FuncSim`] wherever both values are defined;
/// 4. waveform identity: a pristine traced [`EventSim`] against one that
///    first ran the workload faulted and then detached the overlay —
///    detaching must restore the exact femtosecond trace.
///
/// # Errors
///
/// Returns the underlying [`NetlistError`] if the case is malformed
/// (it never is for generated cases).
pub fn check_case(case: &Case) -> Result<Vec<Divergence>, NetlistError> {
    let n = case.netlist();
    let topo = n.topology()?;
    let delays = case.delays(&n);
    let overlay = case.overlay(&n);
    let patterns: Vec<Vec<Logic>> = case
        .workload
        .iter()
        .map(|&w| input_vector(w, case.inputs))
        .collect();
    let zeros = input_vector(0, case.inputs);
    let mut divs = Vec::new();

    // Axis 1: FuncSim vs the independent reference interpreter.
    let mut fsim = FuncSim::new(&n, &topo);
    for (step, pattern) in patterns.iter().enumerate() {
        fsim.eval(pattern)?;
        diff_values(
            &mut divs,
            EngineId::Func,
            EngineId::Reference,
            step,
            fsim.values(),
            &reference_eval(&n, pattern, None, None),
        );
        if let Some(o) = &overlay {
            fsim.eval_with_overlay(pattern, o)?;
            diff_values(
                &mut divs,
                EngineId::Func,
                EngineId::Reference,
                step,
                fsim.values(),
                &reference_eval(&n, pattern, Some(o), None),
            );
        }
    }

    // Axis 2: BatchSim lanes vs per-step scalar results.
    let mut batch = BatchSim::new(&n, &topo);
    for (chunk_idx, chunk) in patterns.chunks(64).enumerate() {
        for pass in 0..if overlay.is_some() { 2 } else { 1 } {
            let faulted_pass = pass == 1;
            if faulted_pass {
                batch.eval_batch_with_overlay(chunk, overlay.as_ref().expect("pass gated"))?;
            } else {
                batch.eval_batch(chunk)?;
            }
            for (lane, pattern) in chunk.iter().enumerate() {
                let step = chunk_idx * 64 + lane;
                // The overlay's lane mask is 1: only lane 0 of each batch
                // call sees the fault.
                if faulted_pass && lane == 0 {
                    fsim.eval_with_overlay(pattern, overlay.as_ref().expect("pass gated"))?;
                } else {
                    fsim.eval(pattern)?;
                }
                for idx in 0..n.net_count() {
                    let b = batch.value(NetId::from_index(idx), lane);
                    let f = fsim.values()[idx];
                    if b != f {
                        divs.push(Divergence {
                            left: EngineId::Batch,
                            right: EngineId::Func,
                            step,
                            site: format!(
                                "net {idx} (lane {lane}{})",
                                if faulted_pass { ", overlay" } else { "" }
                            ),
                            detail: format!("{b:?} vs {f:?}"),
                        });
                    }
                }
            }
        }
    }

    // Axis 2, wide lanes: the same lanes-vs-scalar diff at 256 lanes,
    // sampling the width-generic kernel the wide profiling path uses.
    wide_batch_axis::<4>(&mut divs, &n, &topo, &patterns, overlay.as_ref(), &mut fsim)?;

    // Axis 3: EventSim vs LevelSim in lockstep, clean → overlay → detach.
    let mut esim = EventSim::new(&n, &topo, delays.clone());
    let mut lsim = LevelSim::new(&n, &topo, delays.clone());
    lockstep_phase(
        &mut divs,
        &mut esim,
        &mut lsim,
        &n,
        &zeros,
        &patterns,
        "clean",
        Some(&mut fsim),
    )?;
    if let Some(o) = &overlay {
        esim.set_fault_overlay(o.clone());
        lsim.set_fault_overlay(o.clone());
        lockstep_phase(
            &mut divs, &mut esim, &mut lsim, &n, &zeros, &patterns, "overlay", None,
        )?;
        esim.clear_fault_overlay();
        lsim.clear_fault_overlay();
        lockstep_phase(
            &mut divs,
            &mut esim,
            &mut lsim,
            &n,
            &zeros,
            &patterns,
            "detached",
            Some(&mut fsim),
        )?;
    }

    // Axis 4: attaching and then detaching an overlay must restore the
    // exact femtosecond waveform of a pristine run.
    if let Some(o) = &overlay {
        let mut pristine = EventSim::new(&n, &topo, delays.clone());
        pristine.enable_tracing(TRACE_GAP_FS);
        let mut recovered = EventSim::new(&n, &topo, delays);
        recovered.set_fault_overlay(o.clone());
        recovered.settle(&zeros)?;
        for pattern in &patterns {
            recovered.step(pattern)?;
        }
        recovered.clear_fault_overlay();
        recovered.enable_tracing(TRACE_GAP_FS);

        pristine.settle(&zeros)?;
        recovered.settle(&zeros)?;
        for (step, pattern) in patterns.iter().enumerate() {
            let tp = pristine.step(pattern)?;
            let tr = recovered.step(pattern)?;
            diff_timing(&mut divs, step, "post-detach trace run", &tp, &tr);
        }
        let (pt, rt) = (pristine.trace(), recovered.trace());
        if pt.len() != rt.len() {
            divs.push(Divergence {
                left: EngineId::Event,
                right: EngineId::Event,
                step: patterns.len(),
                site: "trace length".into(),
                detail: format!("pristine {} events vs recovered {}", pt.len(), rt.len()),
            });
        }
        for (i, (p, r)) in pt.iter().zip(rt).enumerate() {
            if p != r {
                divs.push(Divergence {
                    left: EngineId::Event,
                    right: EngineId::Event,
                    step: patterns.len(),
                    site: format!("trace[{i}]"),
                    detail: format!(
                        "pristine ({} fs, net {}, {:?}) vs recovered ({} fs, net {}, {:?})",
                        p.time_fs,
                        p.net.index(),
                        p.value,
                        r.time_fs,
                        r.net.index(),
                        r.value
                    ),
                });
            }
        }
    }

    Ok(divs)
}

/// The wide-lane replay of axis 2: a `64 × W`-lane [`BlockSim`] sweep over
/// the workload (clean, and under the overlay when present) diffed
/// lane-by-lane against the scalar [`FuncSim`]. The case overlay's lane
/// mask is 1, which a block replicates per 64-lane chunk, so every lane
/// with `lane % 64 == 0` of a faulted pass compares against the faulted
/// scalar run and all others against the clean one.
fn wide_batch_axis<const W: usize>(
    divs: &mut Vec<Divergence>,
    n: &Netlist,
    topo: &Topology,
    patterns: &[Vec<Logic>],
    overlay: Option<&FaultOverlay>,
    fsim: &mut FuncSim<'_>,
) -> Result<(), NetlistError> {
    let mut batch = BlockSim::<W>::new(n, topo);
    let lanes = BlockSim::<W>::LANES;
    for (chunk_idx, chunk) in patterns.chunks(lanes).enumerate() {
        for pass in 0..if overlay.is_some() { 2 } else { 1 } {
            let faulted_pass = pass == 1;
            if faulted_pass {
                batch.eval_batch_with_overlay(chunk, overlay.expect("pass gated"))?;
            } else {
                batch.eval_batch(chunk)?;
            }
            for (lane, pattern) in chunk.iter().enumerate() {
                let step = chunk_idx * lanes + lane;
                if faulted_pass && lane % 64 == 0 {
                    fsim.eval_with_overlay(pattern, overlay.expect("pass gated"))?;
                } else {
                    fsim.eval(pattern)?;
                }
                for idx in 0..n.net_count() {
                    let b = batch.value(NetId::from_index(idx), lane);
                    let f = fsim.values()[idx];
                    if b != f {
                        divs.push(Divergence {
                            left: EngineId::Batch,
                            right: EngineId::Func,
                            step,
                            site: format!(
                                "net {idx} (W={W} lane {lane}{})",
                                if faulted_pass { ", overlay" } else { "" }
                            ),
                            detail: format!("{b:?} vs {f:?}"),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Settles both timing kernels and steps them through `patterns`,
/// asserting full-state identity after every step. When `fsim` is given
/// (fault-free phases), [`EventSim`] settled values are additionally
/// cross-checked against [`FuncSim`] wherever both are defined — a
/// defined functional value implies controlling inputs that force the
/// same level through the event simulator's tri-state hold.
#[allow(clippy::too_many_arguments)]
fn lockstep_phase(
    divs: &mut Vec<Divergence>,
    esim: &mut EventSim<'_>,
    lsim: &mut LevelSim<'_>,
    n: &Netlist,
    zeros: &[Logic],
    patterns: &[Vec<Logic>],
    phase: &str,
    mut fsim: Option<&mut FuncSim<'_>>,
) -> Result<(), NetlistError> {
    esim.settle(zeros)?;
    lsim.settle(zeros)?;
    for (step, pattern) in patterns.iter().enumerate() {
        let te = esim.step(pattern)?;
        let tl = lsim.step(pattern)?;
        diff_timing(divs, step, phase, &te, &tl);
        for idx in 0..n.net_count() {
            let net = NetId::from_index(idx);
            let (e, l) = (esim.value(net), lsim.value(net));
            if e != l {
                divs.push(Divergence {
                    left: EngineId::Event,
                    right: EngineId::Level,
                    step,
                    site: format!("net {idx} ({phase})"),
                    detail: format!("{e:?} vs {l:?}"),
                });
            }
        }
        if esim.gate_toggle_counts() != lsim.gate_toggle_counts() {
            divs.push(Divergence {
                left: EngineId::Event,
                right: EngineId::Level,
                step,
                site: format!("gate_toggle_counts ({phase})"),
                detail: format!(
                    "{:?} vs {:?}",
                    esim.gate_toggle_counts(),
                    lsim.gate_toggle_counts()
                ),
            });
        }
        if let Some(f) = fsim.as_deref_mut() {
            f.eval(pattern)?;
            for idx in 0..n.net_count() {
                let net = NetId::from_index(idx);
                let (e, fv) = (esim.value(net), f.value(net));
                if e.is_known() && fv.is_known() && e != fv {
                    divs.push(Divergence {
                        left: EngineId::Event,
                        right: EngineId::Func,
                        step,
                        site: format!("net {idx} ({phase}, both defined)"),
                        detail: format!("{e:?} vs {fv:?}"),
                    });
                }
            }
        }
    }
    Ok(())
}

fn diff_timing(
    divs: &mut Vec<Divergence>,
    step: usize,
    phase: &str,
    te: &PatternTiming,
    tl: &PatternTiming,
) {
    if te != tl {
        divs.push(Divergence {
            left: EngineId::Event,
            right: EngineId::Level,
            step,
            site: format!("PatternTiming ({phase})"),
            detail: format!("{te:?} vs {tl:?}"),
        });
    }
}

fn diff_values(
    divs: &mut Vec<Divergence>,
    left: EngineId,
    right: EngineId,
    step: usize,
    got: &[Logic],
    want: &[Logic],
) {
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            divs.push(Divergence {
                left,
                right,
                step,
                site: format!("net {idx}"),
                detail: format!("{g:?} vs {w:?}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_conform() {
        for seed in 0..16 {
            let divs = check_case(&Case::generate(seed)).unwrap();
            assert!(divs.is_empty(), "seed {seed}: {divs:?}");
        }
    }

    #[test]
    fn sabotage_is_visible_to_the_oracle() {
        // Some small seed must produce a circuit where a sabotaged XOR
        // reference disagrees with FuncSim (an inverted known value).
        let visible = (0..64).map(Case::generate).any(|case| {
            let n = case.netlist();
            let topo = n.topology().unwrap();
            let mut fsim = FuncSim::new(&n, &topo);
            let pattern = input_vector(case.workload[0], case.inputs);
            fsim.eval(&pattern).unwrap();
            fsim.values() != reference_eval(&n, &pattern, None, Some(GateKind::Xor))
        });
        assert!(visible);
    }
}
