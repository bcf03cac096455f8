//! The metric catalogue, the readings a run collects, and the order
//! statistics every metric is computed with.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

impl Better {
    /// The label used in `BENCHMARK.json` and result rows.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric. Each workload reports all of them; what a unit
/// of work is differs per workload (see the README).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.24,
    },
];

/// Every per-layer metric with its unit. Layers a workload never calls
/// report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.generate_ms", "ms"),
    ("netlist.topology_ms", "ms"),
    ("netlist.plan_us", "us"),
    ("netlist.settle_us", "us"),
    ("netlist.step_us", "us"),
    ("netlist.events_per_step", "count"),
    ("netlist.toggles_per_step", "count"),
    ("netlist.retime_us", "us"),
    ("netlist.verify_us", "us"),
    ("netlist.stats_ms", "ms"),
    ("aging.factors_ms", "ms"),
    ("aging.variation_ms", "ms"),
    ("core.profile_ms", "ms"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.sweep_year_ms", "ms"),
    ("core.sweep_reuse_ratio", "ratio"),
    ("core.cone_resims", "count"),
    ("core.cascade_resims", "count"),
    ("core.engine_us", "us"),
    ("core.mc_corner_ms", "ms"),
    ("serve.hit_us_p50", "us"),
    ("serve.hit_us_p99", "us"),
    ("serve.client_wait_ms_p99", "ms"),
    ("serve.shed", "count"),
    ("serve.light_p50_ms", "ms"),
    ("serve.light_p99_ms", "ms"),
    ("serve.slo_attain", "ratio"),
    ("bench.generator_lag_ms_p99", "ms"),
    ("bench.attributed_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

/// The end-to-end definition of `name`, if it is one.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Unit of any catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name).map(|m| m.unit).or_else(|| {
        PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| *unit)
    })
}

/// One measured value, with how many samples it rests on and, for tails,
/// which percentile it is.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub samples: u64,
    pub detail: String,
}

/// The readings of one run, keyed by catalogued metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Readings(BTreeMap<&'static str, Reading>);

impl Readings {
    /// Per-layer readings with every catalogued layer metric at 0, so a
    /// workload only sets the layers it exercises.
    pub fn layer_defaults() -> Self {
        let mut r = Readings::default();
        for (name, _) in PER_LAYER {
            r.set(name, 0.0, 0);
        }
        r
    }

    /// Records `value` over `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue (a bug in this program).
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        self.set_detail(name, value, samples, String::new());
    }

    /// Records `value` with a detail note (e.g. the percentile of a tail).
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue (a bug in this program).
    pub fn set_detail(&mut self, name: &str, value: f64, samples: u64, detail: String) {
        let key = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        // A NaN or infinity cannot be written as JSON; a degenerate
        // division reads as "no measurement".
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(
            key,
            Reading {
                value,
                samples,
                detail,
            },
        );
    }

    /// The reading for `name`.
    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.0.get(name)
    }

    /// All readings, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Reading)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps float error in p/100 from pushing an exact rank up.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of ascending `sorted`, capped at `cap`, that has
/// at least [`MIN_BEYOND`] samples above its nearest rank, as
/// `(percentile, value)`; `None` below `MIN_BEYOND + 1` samples.
pub fn tail(sorted: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    // Rank r = ceil(p·n/100) leaves n − r samples beyond; the largest p
    // with r ≤ n − MIN_BEYOND is 100·(n − MIN_BEYOND)/n.
    let p = (100.0 * (n - MIN_BEYOND) as f64 / n as f64).min(cap);
    // Whole or tenth percentiles read better and never raise the rank.
    let p = (p * 10.0).floor() / 10.0;
    Some((p, percentile(sorted, p)))
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so spreads here match the ones an outside check derives.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Sets `p50_ms` (the median) and `tail_ms` (the highest percentile, up to
/// p99, with [`MIN_BEYOND`] samples beyond it; the maximum when there are
/// too few samples for that) from ascending latencies in seconds.
pub fn latency_readings(readings: &mut Readings, sorted_secs: &[f64]) {
    let n = sorted_secs.len() as u64;
    readings.set("p50_ms", median(sorted_secs) * 1e3, n);
    let (p, v) = tail(sorted_secs, 99.0).unwrap_or((100.0, percentile(sorted_secs, 100.0)));
    readings.set_detail("tail_ms", v * 1e3, n, format!("p{p}"));
}

/// FNV-1a digest of a workload's simulated outputs, fed value by value.
#[derive(Clone, Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are digested by bit pattern, so any numerical drift shows.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        agemul_fleet::fnv1a64(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10], 99.0), None);
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&sorted, 99.0), Some((99.0, 990.0)));
        // 200 samples support p95 at most: rank 190 leaves 10 beyond.
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, v) = tail(&sorted, 99.0).unwrap();
        assert_eq!((p, v), (95.0, 190.0));
        let beyond = sorted.iter().filter(|&&x| x > v).count();
        assert_eq!(beyond, MIN_BEYOND);
        // Odd counts round the percentile down, never the rank up.
        for n in 11..400usize {
            let sorted: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let (_, v) = tail(&sorted, 99.0).unwrap();
            let beyond = sorted.iter().filter(|&&x| x > v).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    }

    #[test]
    fn latency_readings_pool_every_sample() {
        let mut r = Readings::default();
        // 40 operations: p75 is the highest percentile with 10 beyond.
        let sorted: Vec<f64> = (1..=40).map(|x| f64::from(x) * 1e-3).collect();
        latency_readings(&mut r, &sorted);
        assert!((r.get("p50_ms").unwrap().value - 20.5).abs() < 1e-9);
        let tail = r.get("tail_ms").unwrap();
        assert!((tail.value - 30.0).abs() < 1e-9);
        assert_eq!((tail.samples, tail.detail.as_str()), (40, "p75"));
        // Too few samples for a tail: the maximum, labelled p100.
        latency_readings(&mut r, &[0.001, 0.002, 0.004]);
        assert_eq!(r.get("tail_ms").unwrap().detail, "p100");
        assert!((r.get("tail_ms").unwrap().value - 4.0).abs() < 1e-9);
    }
}
