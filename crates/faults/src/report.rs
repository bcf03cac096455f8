//! Machine-readable campaign reports.

use agemul::Json;

/// The campaign taxonomy: what the architecture did with one fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// The fault never became observable: no corrupted product (logic
    /// faults) / no new timing violation (delay faults).
    Masked,
    /// The fault surfaced as Razor-detected timing errors — every affected
    /// operation was caught and re-executed, and the AHL saw the error
    /// stream. Only delay faults can earn this class: Razor watches
    /// transition timing, not values.
    Detected,
    /// The fault corrupted results without tripping Razor: a
    /// stable-but-wrong product (stuck-at/flip), or a transition past the
    /// shadow window.
    Silent,
}

impl FaultClass {
    /// Lower-case display/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Masked => "masked",
            FaultClass::Detected => "detected",
            FaultClass::Silent => "silent",
        }
    }
}

/// One fault's classification under one engine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultOutcome {
    /// The fault's display label (see `FaultSpec::label`).
    pub label: String,
    /// The classification.
    pub class: FaultClass,
    /// Operations whose product deviated from `a × b` (logic faults; zero
    /// for delay faults, which never corrupt values).
    pub corrupted_ops: u64,
    /// 0-based workload index of the first corrupted operation, if any.
    pub first_corrupted_op: Option<u64>,
    /// Razor-detected errors beyond the fault-free baseline's (delay
    /// faults).
    pub excess_errors: u64,
    /// Undetected timing violations beyond the baseline's (delay faults
    /// under a shrunken shadow window).
    pub excess_undetected: u64,
    /// 1-based operation at which the AHL's aging indicator engaged under
    /// this fault, if it did — the adaptation latency observable.
    pub aged_at_op: Option<u64>,
    /// Average-latency overhead vs the fault-free baseline, percent
    /// (re-execution penalties plus any re-tuned two-cycle predictions).
    pub latency_overhead_pct: f64,
}

/// A full campaign classification: configuration echo, baseline anchors,
/// and one [`FaultOutcome`] per injected fault (in injection order).
///
/// Derives `PartialEq` so identity guarantees (cached ≡ uncached
/// preparation) are directly assertable on whole reports.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Multiplier architecture label (e.g. `CB`, `RB`).
    pub kind: String,
    /// Operand width in bits.
    pub width: usize,
    /// Workload length (operations per fault).
    pub operations: u64,
    /// Engine clock period, nanoseconds.
    pub cycle_ns: f64,
    /// Engine skip threshold.
    pub skip: u32,
    /// Razor shadow window as a fraction of the cycle.
    pub window_factor: f64,
    /// Adaptive (two judging blocks) vs traditional hold logic.
    pub adaptive: bool,
    /// Razor errors of the fault-free baseline replay.
    pub baseline_errors: u64,
    /// Average latency of the fault-free baseline replay, nanoseconds.
    pub baseline_avg_latency_ns: f64,
    /// Per-fault classifications, in injection order.
    pub outcomes: Vec<FaultOutcome>,
}

impl CampaignReport {
    /// Number of faults classified [`FaultClass::Masked`].
    pub fn masked(&self) -> usize {
        self.count(FaultClass::Masked)
    }

    /// Number of faults classified [`FaultClass::Detected`].
    pub fn detected(&self) -> usize {
        self.count(FaultClass::Detected)
    }

    /// Number of faults classified [`FaultClass::Silent`].
    pub fn silent(&self) -> usize {
        self.count(FaultClass::Silent)
    }

    fn count(&self, class: FaultClass) -> usize {
        self.outcomes.iter().filter(|o| o.class == class).count()
    }

    /// Detection coverage over the faults that *manifested*:
    /// `detected / (detected + silent)`. Masked faults are excluded — the
    /// architecture was never asked to catch them. Reports `1.0` when no
    /// fault manifested.
    pub fn coverage(&self) -> f64 {
        let detected = self.detected();
        let manifested = detected + self.silent();
        if manifested == 0 {
            1.0
        } else {
            detected as f64 / manifested as f64
        }
    }

    /// The report as one JSON object: the campaign parameters, a
    /// `summary` of the class counts and coverage, and one `faults` entry
    /// per outcome.
    pub fn to_json(&self) -> Json {
        fn uint(n: impl Into<u64>) -> Json {
            Json::UInt(n.into())
        }
        fn opt(v: Option<u64>) -> Json {
            v.map_or(Json::Null, Json::UInt)
        }
        fn obj(pairs: Vec<(&str, Json)>) -> Json {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
        }
        let faults = self
            .outcomes
            .iter()
            .map(|o| {
                obj(vec![
                    ("label", Json::Str(o.label.clone())),
                    ("class", Json::Str(o.class.label().into())),
                    ("corrupted_ops", uint(o.corrupted_ops)),
                    ("first_corrupted_op", opt(o.first_corrupted_op)),
                    ("excess_errors", uint(o.excess_errors)),
                    ("excess_undetected", uint(o.excess_undetected)),
                    ("aged_at_op", opt(o.aged_at_op)),
                    ("latency_overhead_pct", Json::Num(o.latency_overhead_pct)),
                ])
            })
            .collect();
        obj(vec![
            ("kind", Json::Str(self.kind.clone())),
            ("width", uint(self.width as u64)),
            ("operations", uint(self.operations)),
            ("cycle_ns", Json::Num(self.cycle_ns)),
            ("skip", uint(self.skip)),
            ("window_factor", Json::Num(self.window_factor)),
            ("adaptive", Json::Bool(self.adaptive)),
            ("baseline_errors", uint(self.baseline_errors)),
            (
                "baseline_avg_latency_ns",
                Json::Num(self.baseline_avg_latency_ns),
            ),
            (
                "summary",
                obj(vec![
                    ("masked", uint(self.masked() as u64)),
                    ("detected", uint(self.detected() as u64)),
                    ("silent", uint(self.silent() as u64)),
                    ("coverage", Json::Num(self.coverage())),
                ]),
            ),
            ("faults", Json::Arr(faults)),
        ])
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fault campaign: {} {}x{} | period {} ns, skip {}, window {}x, {} | {} ops/fault",
            self.kind,
            self.width,
            self.width,
            self.cycle_ns,
            self.skip,
            self.window_factor,
            if self.adaptive {
                "adaptive"
            } else {
                "traditional"
            },
            self.operations,
        )?;
        writeln!(
            f,
            "  {} faults: {} masked, {} detected, {} silent (coverage {:.0}%)",
            self.outcomes.len(),
            self.masked(),
            self.detected(),
            self.silent(),
            100.0 * self.coverage(),
        )?;
        for o in &self.outcomes {
            writeln!(
                f,
                "  {:<18} {:<9} corrupted {:<5} err +{:<5} undet +{:<4} aged@{:<6} lat {:+.2}%",
                o.label,
                o.class.label(),
                o.corrupted_ops,
                o.excess_errors,
                o.excess_undetected,
                o.aged_at_op.map_or_else(|| "-".into(), |x| x.to_string()),
                o.latency_overhead_pct,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(label: &str, class: FaultClass) -> FaultOutcome {
        FaultOutcome {
            label: label.to_string(),
            class,
            corrupted_ops: 0,
            first_corrupted_op: None,
            excess_errors: 0,
            excess_undetected: 0,
            aged_at_op: None,
            latency_overhead_pct: 0.0,
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            kind: "CB".to_string(),
            width: 16,
            operations: 100,
            cycle_ns: 0.95,
            skip: 7,
            window_factor: 1.0,
            adaptive: true,
            baseline_errors: 2,
            baseline_avg_latency_ns: 1.25,
            outcomes: vec![
                outcome("sa0@n1", FaultClass::Masked),
                outcome("sa1@n2", FaultClass::Silent),
                outcome("slow@g3x1.50", FaultClass::Detected),
                outcome("slow@g4x1.80", FaultClass::Detected),
            ],
        }
    }

    #[test]
    fn counts_and_coverage() {
        let r = report();
        assert_eq!((r.masked(), r.detected(), r.silent()), (1, 2, 1));
        assert!((r.coverage() - 2.0 / 3.0).abs() < 1e-12);

        let empty = CampaignReport {
            outcomes: Vec::new(),
            ..report()
        };
        assert_eq!(empty.coverage(), 1.0);
    }

    #[test]
    fn json_is_well_formed() {
        let r = report();
        let j = Json::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(j.get_str("kind"), Ok("CB"));
        assert_eq!(j.get_u64("width"), Ok(16));
        assert_eq!(j.get_f64("cycle_ns"), Ok(0.95));
        assert_eq!(j.get_bool("adaptive"), Ok(true));
        let summary = j.get("summary").unwrap();
        for (key, count) in [("masked", 1), ("detected", 2), ("silent", 1)] {
            assert_eq!(summary.get_u64(key), Ok(count), "{key}");
        }
        let faults = j.get_arr("faults").unwrap();
        assert_eq!(faults.len(), 4);
        assert_eq!(faults[2].get_str("label"), Ok("slow@g3x1.50"));
        assert_eq!(faults[2].get_str("class"), Ok("detected"));
        assert_eq!(faults[0].get("first_corrupted_op"), Some(&Json::Null));
    }

    #[test]
    fn display_lists_every_fault() {
        let r = report();
        let text = r.to_string();
        assert_eq!(text.lines().count(), 2 + r.outcomes.len());
        assert!(text.contains("coverage 67%"));
    }
}
