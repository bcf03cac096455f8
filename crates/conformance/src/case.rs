//! Seeded conformance cases: a netlist recipe, workload, delay
//! assignment, and optional fault, replayable from JSON.

use agemul_logic::DelayModel;
use agemul_netlist::{DelayAssignment, FaultKind, FaultOverlay, GateId, NetId, Netlist};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::gen::{build_netlist, GateRecipe, GEN_INPUTS};
use agemul::Json;

/// The delay-assignment axis of a case.
#[derive(Clone, Debug, PartialEq)]
pub enum DelaySpec {
    /// Fresh silicon: nominal per-kind delays.
    Uniform,
    /// Aged silicon: per-gate BTI factors, optionally with one extra
    /// hot-spot inflation on top (the "one gate ages much faster" shape
    /// the guardband experiments probe).
    Aged {
        /// Multiplicative delay factors, cycled over gates
        /// (`factors[g % factors.len()]`) so the spec survives shrinking.
        factors: Vec<f64>,
        /// Optional hot spot: (gate pick modulo gate count, extra factor).
        hot: Option<(u16, f64)>,
    },
}

/// The fault axis of a case: one injected net fault, lane 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultCase {
    /// Faulted net, reduced modulo the case's net count.
    pub net_pick: u16,
    /// Stuck-at-0 / stuck-at-1 / flip.
    pub kind: FaultKind,
}

/// One self-contained conformance case.
///
/// A case pins down everything the differential oracle needs: the circuit
/// (as [`GateRecipe`]s, so it shrinks structurally), the input sequence
/// (64-bit words expanded LSB-first onto the primary inputs), the delay
/// assignment, and an optional fault. Cases are value types — [`Case::generate`]
/// is a pure function of the seed, and the JSON form replays bit-exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    /// The seed this case was generated from (0 for hand-built cases);
    /// carried into artifacts for traceability.
    pub seed: u64,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Gate recipes, applied in order (see [`crate::gen`]).
    pub gates: Vec<GateRecipe>,
    /// Input-pattern sequence; word `i`'s low bits drive step `i`.
    pub workload: Vec<u64>,
    /// Delay assignment for the timing engines.
    pub delay: DelaySpec,
    /// Optional injected fault.
    pub fault: Option<FaultCase>,
}

impl Case {
    /// Generates the case for `seed` — deterministic, so the conformance
    /// gate's coverage is reproducible from the seed alone.
    pub fn generate(seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let gate_count = 1 + (rng.gen::<u64>() % 40) as usize;
        let gates: Vec<GateRecipe> = (0..gate_count)
            .map(|_| GateRecipe {
                kind_sel: rng.gen::<u32>() as u8,
                picks: [
                    rng.gen::<u32>() as u16,
                    rng.gen::<u32>() as u16,
                    rng.gen::<u32>() as u16,
                ],
            })
            .collect();
        let workload: Vec<u64> = (0..2 + (rng.gen::<u64>() % 7) as usize)
            .map(|_| rng.gen::<u64>())
            .collect();
        let delay = match rng.gen::<u32>() % 3 {
            0 => DelaySpec::Uniform,
            sel => {
                let factors: Vec<f64> = (0..gate_count)
                    .map(|_| 0.5 + 3.5 * rng.gen::<f64>())
                    .collect();
                let hot =
                    (sel == 2).then(|| (rng.gen::<u32>() as u16, 1.0 + 19.0 * rng.gen::<f64>()));
                DelaySpec::Aged { factors, hot }
            }
        };
        let fault = rng.gen_bool(0.5).then(|| FaultCase {
            net_pick: rng.gen::<u32>() as u16,
            kind: match rng.gen::<u32>() % 3 {
                0 => FaultKind::StuckAt0,
                1 => FaultKind::StuckAt1,
                _ => FaultKind::Flip,
            },
        });
        Case {
            seed,
            inputs: GEN_INPUTS,
            gates,
            workload,
            delay,
            fault,
        }
    }

    /// Builds the case's netlist.
    pub fn netlist(&self) -> Netlist {
        build_netlist(&self.gates, self.inputs)
    }

    /// Resolves the case's delay assignment against `n`.
    pub fn delays(&self, n: &Netlist) -> DelayAssignment {
        let model = DelayModel::nominal();
        match &self.delay {
            DelaySpec::Uniform => DelayAssignment::uniform(n, &model),
            DelaySpec::Aged { factors, hot } => {
                if factors.is_empty() || n.gate_count() == 0 {
                    return DelayAssignment::uniform(n, &model);
                }
                let per_gate: Vec<f64> = (0..n.gate_count())
                    .map(|g| factors[g % factors.len()])
                    .collect();
                let mut d = DelayAssignment::with_factors(n, &model, &per_gate)
                    .expect("factor vector is sized to the gate count");
                if let Some((pick, factor)) = *hot {
                    d.inflate(GateId::from_index(pick as usize % n.gate_count()), factor);
                }
                d
            }
        }
    }

    /// Resolves the case's fault (if any) into an overlay on `n`, lane 0.
    pub fn overlay(&self, n: &Netlist) -> Option<FaultOverlay> {
        self.fault.map(|f| {
            let mut overlay = FaultOverlay::new(n);
            let net = NetId::from_index(f.net_pick as usize % n.net_count());
            overlay
                .add(net, f.kind, 1)
                .expect("net index is in range and the lane mask is non-empty");
            overlay
        })
    }

    /// Serializes the case as a single-line JSON document.
    pub fn to_json(&self) -> String {
        let delay = match &self.delay {
            DelaySpec::Uniform => Json::Obj(vec![("mode".into(), Json::Str("uniform".into()))]),
            DelaySpec::Aged { factors, hot } => {
                let mut pairs = vec![
                    ("mode".into(), Json::Str("aged".into())),
                    (
                        "factors".into(),
                        Json::Arr(factors.iter().map(|&f| Json::Num(f)).collect()),
                    ),
                ];
                if let Some((pick, factor)) = *hot {
                    pairs.push((
                        "hot".into(),
                        Json::Obj(vec![
                            ("gate".into(), Json::UInt(u64::from(pick))),
                            ("factor".into(), Json::Num(factor)),
                        ]),
                    ));
                }
                Json::Obj(pairs)
            }
        };
        let fault = match self.fault {
            None => Json::Null,
            Some(f) => Json::Obj(vec![
                ("net".into(), Json::UInt(u64::from(f.net_pick))),
                (
                    "kind".into(),
                    Json::Str(
                        match f.kind {
                            FaultKind::StuckAt0 => "stuck0",
                            FaultKind::StuckAt1 => "stuck1",
                            FaultKind::Flip => "flip",
                        }
                        .into(),
                    ),
                ),
            ]),
        };
        Json::Obj(vec![
            ("seed".into(), Json::UInt(self.seed)),
            ("inputs".into(), Json::UInt(self.inputs as u64)),
            (
                "gates".into(),
                Json::Arr(
                    self.gates
                        .iter()
                        .map(|g| {
                            Json::Obj(vec![
                                ("kind".into(), Json::UInt(u64::from(g.kind_sel))),
                                (
                                    "picks".into(),
                                    Json::Arr(
                                        g.picks.iter().map(|&p| Json::UInt(u64::from(p))).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "workload".into(),
                Json::Arr(self.workload.iter().map(|&w| Json::UInt(w)).collect()),
            ),
            ("delay".into(), delay),
            ("fault".into(), fault),
        ])
        .to_string()
    }

    /// Parses a case back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema error.
    pub fn from_json(text: &str) -> Result<Case, String> {
        let doc = Json::parse(text)?;
        let seed = doc.get_u64("seed")?;
        let inputs = doc.get_u64("inputs")? as usize;
        let gates = doc
            .get_arr("gates")?
            .iter()
            .map(|g| {
                let kind_sel = g.get_u64("kind")? as u8;
                let picks = g.get_arr("picks")?;
                if picks.len() != 3 {
                    return Err("gate 'picks' must have 3 entries".to_string());
                }
                let mut p = [0u16; 3];
                for (slot, v) in p.iter_mut().zip(picks) {
                    *slot = v.as_u64().ok_or("non-integer pick")? as u16;
                }
                Ok(GateRecipe { kind_sel, picks: p })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let workload = doc
            .get_arr("workload")?
            .iter()
            .map(|w| {
                w.as_u64()
                    .ok_or_else(|| "non-integer workload word".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let delay_doc = doc.get("delay").ok_or("missing 'delay'")?;
        let delay = match delay_doc.get_str("mode")? {
            "uniform" => DelaySpec::Uniform,
            "aged" => {
                let factors = delay_doc
                    .get_arr("factors")?
                    .iter()
                    .map(|f| f.as_f64().ok_or_else(|| "non-numeric factor".to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                let hot = match delay_doc.get("hot") {
                    None => None,
                    Some(h) => Some((h.get_u64("gate")? as u16, h.get_f64("factor")?)),
                };
                DelaySpec::Aged { factors, hot }
            }
            _ => return Err("unknown delay mode".into()),
        };
        let fault = match doc.get("fault") {
            None | Some(Json::Null) => None,
            Some(f) => Some(FaultCase {
                net_pick: f.get_u64("net")? as u16,
                kind: match f.get_str("kind")? {
                    "stuck0" => FaultKind::StuckAt0,
                    "stuck1" => FaultKind::StuckAt1,
                    "flip" => FaultKind::Flip,
                    _ => return Err("unknown fault kind".into()),
                },
            }),
        };
        Ok(Case {
            seed,
            inputs,
            gates,
            workload,
            delay,
            fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Case::generate(7), Case::generate(7));
        assert_ne!(Case::generate(7), Case::generate(8));
    }

    #[test]
    fn json_round_trips_every_axis() {
        for seed in 0..64 {
            let case = Case::generate(seed);
            let back = Case::from_json(&case.to_json()).unwrap();
            assert_eq!(back, case, "seed {seed} failed to round-trip");
        }
    }

    #[test]
    fn delays_survive_gate_removal() {
        let mut case = Case::generate(11);
        case.delay = DelaySpec::Aged {
            factors: vec![1.5, 2.0, 2.5],
            hot: Some((9, 4.0)),
        };
        case.gates.truncate(2);
        let n = case.netlist();
        let d = case.delays(&n);
        assert_eq!(d.len(), n.gate_count());
    }

    #[test]
    fn empty_factor_list_falls_back_to_uniform() {
        let mut case = Case::generate(3);
        case.delay = DelaySpec::Aged {
            factors: vec![],
            hot: Some((0, 5.0)),
        };
        let n = case.netlist();
        assert_eq!(
            case.delays(&n),
            DelayAssignment::uniform(&n, &DelayModel::nominal())
        );
    }
}
