//! Delta-debugging reduction of divergent cases.
//!
//! When the oracle flags a case, a 40-gate 7-step repro is nearly useless
//! for debugging a kernel. [`shrink_case`] runs classic ddmin over the
//! gate list, then over the workload, then a handful of targeted
//! simplifications (drop the fault, flatten the delays, zero the input
//! words), re-checking the caller's failure predicate at every step — the
//! result is a local minimum: removing any single gate or input word makes
//! the failure disappear.

use crate::case::{Case, DelaySpec};
use crate::oracle::Divergence;
use agemul::Json;

/// Reduces `case` to a locally minimal one that still satisfies `fails`.
///
/// `fails` must return `true` for the input case (the shrinker only
/// navigates inside the failing region); it is invoked many times, so keep
/// it as cheap as a single oracle run. The gate list shrinks first —
/// recipes reference inputs modulo the nets built so far, so any
/// subsequence of the gate list is still a well-formed circuit — then the
/// workload, then the delay/fault axes.
pub fn shrink_case(case: &Case, fails: &mut dyn FnMut(&Case) -> bool) -> Case {
    debug_assert!(fails(case), "shrink_case needs a failing starting point");
    let mut best = case.clone();

    // ddmin over gates, to a fixpoint (removing one chunk can enable
    // removing another that was previously load-bearing).
    loop {
        let before = best.gates.len();
        best = ddmin_list(
            &best,
            fails,
            |c| c.gates.len(),
            |c, keep| {
                let mut next = c.clone();
                next.gates = keep.iter().map(|&i| c.gates[i]).collect();
                next
            },
        );
        if best.gates.len() == before {
            break;
        }
    }

    // ddmin over workload words; an empty workload checks nothing, so
    // always keep at least one word.
    best = ddmin_list(
        &best,
        fails,
        |c| c.workload.len(),
        |c, keep| {
            let mut next = c.clone();
            next.workload = keep.iter().map(|&i| c.workload[i]).collect();
            if next.workload.is_empty() {
                next.workload.push(c.workload[0]);
            }
            next
        },
    );

    // Targeted simplifications: each applied only if the failure survives.
    let simplifications: [fn(&Case) -> Case; 3] = [
        |c| {
            let mut next = c.clone();
            next.fault = None;
            next
        },
        |c| {
            let mut next = c.clone();
            next.delay = DelaySpec::Uniform;
            next
        },
        |c| {
            let mut next = c.clone();
            next.workload.iter_mut().for_each(|w| *w = 0);
            next
        },
    ];
    for simplify in simplifications {
        let candidate = simplify(&best);
        if candidate != best && fails(&candidate) {
            best = candidate;
        }
    }
    best
}

/// One ddmin pass over an indexed list axis of the case: tries dropping
/// chunks of decreasing size until single-element removal no longer helps.
fn ddmin_list(
    case: &Case,
    fails: &mut dyn FnMut(&Case) -> bool,
    len: fn(&Case) -> usize,
    rebuild: fn(&Case, &[usize]) -> Case,
) -> Case {
    let mut best = case.clone();
    let mut chunk = len(&best).div_ceil(2).max(1);
    while chunk >= 1 {
        let mut progressed = false;
        let mut start = 0;
        while start < len(&best) {
            let keep: Vec<usize> = (0..len(&best))
                .filter(|&i| i < start || i >= start + chunk)
                .collect();
            if keep.len() < len(&best) {
                let candidate = rebuild(&best, &keep);
                // The rebuild may re-add elements to keep the axis
                // non-empty; only a strictly smaller candidate counts as
                // progress, or a length-1 axis would loop forever.
                if len(&candidate) < len(&best) && fails(&candidate) {
                    best = candidate;
                    progressed = true;
                    // Indices shifted; retry from the same offset.
                    continue;
                }
            }
            start += chunk;
        }
        if chunk == 1 && !progressed {
            break;
        }
        if !progressed {
            chunk /= 2;
        }
    }
    best
}

/// Renders a minimized case and its divergences as a replayable JSON
/// artifact (parse the `case` field back with [`Case::from_json`]).
pub fn repro_artifact(case: &Case, divergences: &[Divergence]) -> String {
    let doc = Json::Obj(vec![
        (
            "format".into(),
            Json::Str("agemul-conformance-repro/1".into()),
        ),
        (
            "case".into(),
            Json::parse(&case.to_json()).expect("Case::to_json emits valid JSON"),
        ),
        (
            "divergences".into(),
            Json::Arr(
                divergences
                    .iter()
                    .map(|d| {
                        Json::Obj(vec![
                            ("left".into(), Json::Str(d.left.to_string())),
                            ("right".into(), Json::Str(d.right.to_string())),
                            ("step".into(), Json::UInt(d.step as u64)),
                            ("site".into(), Json::Str(d.site.clone())),
                            ("detail".into(), Json::Str(d.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agemul_logic::GateKind;

    #[test]
    fn shrinks_to_a_single_guilty_gate() {
        // Failure predicate: the case contains at least one XOR gate.
        // The minimum for that predicate is exactly one gate.
        let mut fails = |c: &Case| c.gates.iter().any(|g| g.kind() == GateKind::Xor);
        let case = (0..64)
            .map(Case::generate)
            .find(|c| fails(c))
            .expect("some small seed generates an XOR");
        let small = shrink_case(&case, &mut fails);
        assert_eq!(small.gates.len(), 1);
        assert_eq!(small.gates[0].kind(), GateKind::Xor);
        assert_eq!(small.workload.len(), 1);
        assert_eq!(small.fault, None);
        assert_eq!(small.delay, DelaySpec::Uniform);
    }

    #[test]
    fn artifact_case_replays() {
        let case = Case::generate(5);
        let artifact = repro_artifact(&case, &[]);
        let doc = Json::parse(&artifact).unwrap();
        let replayed = Case::from_json(&doc.get("case").unwrap().to_string()).unwrap();
        assert_eq!(replayed, case);
    }
}
