//! Fault-campaign throughput: lane-masked preparation and replay.
//!
//! Two costs matter for campaign scaling: `Campaign::prepare` (gate-level
//! simulation — one batch sweep per 64 logic faults, one levelized timed
//! profile per delay fault) and `Campaign::run` (pure engine replay, spent
//! once per point of a skip × window sweep). The delay-fault case threads
//! a warm [`ProfileCache`] through preparation, measuring the steady-state
//! sweep workflow: the baseline and each inflated delay assignment are
//! profiled once per design/workload (the cold cost is tracked by the
//! `profile/*` benches), and every re-preparation after that replays
//! memoized profiles.
//!
//! Run with `cargo bench -p agemul-bench --bench faults`; set
//! `CRITERION_JSON=<file>` to append machine-readable results (see
//! `BENCH_sim.json` at the workspace root).

use criterion::{criterion_group, criterion_main, Criterion};

use agemul::EngineConfig;
use agemul_bench::Fixture;
use agemul_faults::{Campaign, FaultSpec};

fn bench_campaign(c: &mut Criterion) {
    let fixture = Fixture::column_bypass_16(256);
    let pairs = fixture.patterns.pairs();
    let mut g = c.benchmark_group("faults");

    // 32 logic faults: half a lane-masked batch chunk + the baseline.
    let logic: Vec<FaultSpec> = FaultSpec::sample(&fixture.design, pairs.len(), 64, 0xFA17)
        .into_iter()
        .filter(FaultSpec::is_logic)
        .take(32)
        .collect();
    g.bench_function("prepare_32_logic_faults_256ops", |b| {
        b.iter(|| Campaign::prepare(&fixture.design, pairs, &logic, None, None).unwrap())
    });

    // 4 delay faults: the baseline plus four inflated-assignment profiles,
    // memoized across re-preparations by the shared cache.
    let delay: Vec<FaultSpec> = FaultSpec::sample(&fixture.design, pairs.len(), 16, 0xFA17)
        .into_iter()
        .filter(|f| !f.is_logic())
        .collect();
    // Fill the cache before timing, so every sample measures the warm
    // path (the first preparation profiles five assignments; every later
    // one hits).
    let cache = agemul::ProfileCache::new();
    Campaign::prepare(&fixture.design, pairs, &delay, Some(&cache), None).unwrap();
    g.bench_function("prepare_4_delay_faults_256ops", |b| {
        b.iter(|| Campaign::prepare(&fixture.design, pairs, &delay, Some(&cache), None).unwrap())
    });

    // Replay cost of one sweep point over a mixed prepared campaign.
    let mixed = FaultSpec::sample(&fixture.design, pairs.len(), 24, 0xFA17);
    let campaign = Campaign::prepare(&fixture.design, pairs, &mixed, None, None).unwrap();
    g.bench_function("run_24_fault_replay", |b| {
        let cfg = EngineConfig::adaptive(0.95, 7);
        b.iter(|| campaign.run(&cfg))
    });
    g.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
