//! `compare A.jsonl B.jsonl`: parent (A) against change (B), per workload
//! and metric, by the rule of alternating pairs: medians and quartiles of
//! each side, the share of pairs the change won, and a label —
//! *regressed* when the change's median is worse by more than the bound,
//! *unresolved* when either side's quartile spread is wider than the bound
//! (unless every change run beats every parent run), *ok* otherwise.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::metrics::{end_to_end, median, quartiles, Better, END_TO_END, PER_LAYER};
use crate::record::{read_all, Row};

/// How one (workload, metric) pair compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges change values `b` against parent values `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worse > bound {
        return Verdict::Regressed;
    }
    let spread = |v: &[f64], m: f64| quartiles(v).map_or(0.0, |q| (q[2] - q[0]) / m);
    let all_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if spread(a, ma).max(spread(b, mb)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Pairs `(a[i], b[i])` in run order the change won, and pairs compared.
fn wins(a: &[f64], b: &[f64], better: Better) -> (usize, usize) {
    let won = a
        .iter()
        .zip(b)
        .filter(|(x, y)| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
        .count();
    (won, a.len().min(b.len()))
}

fn fmt_side(v: &[f64]) -> String {
    let q = quartiles(v).unwrap_or([median(v); 3]);
    format!("{:.4} [{:.4}, {:.4}] n={}", median(v), q[0], q[2], v.len())
}

/// Values of `metric` over `rows` of `workload`, in file order.
fn values(rows: &[Row], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.value(metric))
        .collect()
}

/// Digests per seed of one workload's rows.
fn digests(rows: &[Row], workload: &str) -> BTreeMap<u64, BTreeSet<u64>> {
    let mut out: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for r in rows.iter().filter(|r| r.workload == workload) {
        out.entry(r.seed).or_default().insert(r.digest);
    }
    out
}

/// Prints the comparison; returns whether anything regressed or any digest
/// differs.
///
/// # Errors
///
/// Unreadable or malformed row files.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_all(a_path)?, read_all(b_path)?);
    let workloads: BTreeSet<&str> = a
        .iter()
        .map(|r| r.workload.as_str())
        .filter(|w| b.iter().any(|r| r.workload == *w))
        .collect();
    if workloads.is_empty() {
        return Err("the two files share no workload".into());
    }
    let mut bad = false;
    for w in workloads {
        println!("{w}");
        for m in END_TO_END {
            let (va, vb) = (values(&a, w, false, m.name), values(&b, w, false, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let def = end_to_end(m.name).expect("catalogued");
            let verdict = judge(&va, &vb, def.better, def.bound);
            let (won, pairs) = wins(&va, &vb, def.better);
            let change = 100.0 * (median(&vb) / median(&va) - 1.0);
            println!(
                "  {:<12} A {}  B {}  {change:+.1}%  won {won}/{pairs}  bound {:.0}%  {}",
                m.name,
                fmt_side(&va),
                fmt_side(&vb),
                100.0 * def.bound,
                verdict.label()
            );
            bad |= verdict == Verdict::Regressed;
        }
        for (name, unit) in PER_LAYER {
            let (va, vb) = (values(&a, w, true, name), values(&b, w, true, name));
            if va.is_empty() || vb.is_empty() || (median(&va) == 0.0 && median(&vb) == 0.0) {
                continue;
            }
            println!(
                "  {name:<26} A {}  B {}  {unit}",
                fmt_side(&va),
                fmt_side(&vb)
            );
        }
        let (da, db) = (digests(&a, w), digests(&b, w));
        for (seed, sa) in &da {
            let Some(sb) = db.get(seed) else { continue };
            let same = sa.len() == 1 && sa == sb;
            println!(
                "  digest seed {seed}: {}",
                if same { "same" } else { "DIFFERENT" }
            );
            bad |= !same;
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 20 % slower against a 10 % bound.
        let slow: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&parent, &slow, Better::Lower, 0.1),
            Verdict::Regressed
        );
        // Higher-is-better: the same numbers are an improvement.
        assert_eq!(judge(&parent, &slow, Better::Higher, 0.1), Verdict::Ok);
        // Within the bound and tight: ok.
        let same: Vec<f64> = parent.iter().map(|x| x * 1.02).collect();
        assert_eq!(judge(&parent, &same, Better::Lower, 0.1), Verdict::Ok);
        // Spread wider than the bound: unresolved, not unchanged.
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge(&parent, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let noisy_fast = [50.0, 80.0, 60.0, 90.0, 55.0];
        assert_eq!(judge(&parent, &noisy_fast, Better::Lower, 0.1), Verdict::Ok);
        assert_eq!(wins(&parent, &noisy_fast, Better::Lower), (5, 5));
    }
}
