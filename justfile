# Developer entry points. `just verify` is the pre-merge gate; its step
# list lives in scripts/verify.sh only, which also runs without `just`.
verify:
	scripts/verify.sh

fmt-check:
	cargo fmt --all -- --check

clippy:
	cargo clippy --workspace --all-targets --all-features -- -D warnings

# Tier-1 gate: release build + full test suite, then the benchmark
# package's own tests (a separate package under `benchmark/`, outside the
# workspace; they include serve-open's served ≡ in-process check).
test:
	cargo build --release --workspace
	cargo test -q --workspace
	cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Tests again with the parallel fan-out compiled in.
test-parallel:
	cargo test -q -p agemul -p agemul-faults -p agemul-repro -p agemul-harness -p agemul-fleet --features parallel

# Crash-safety soak: run a supervised fault campaign, SIGKILL it mid-run,
# resume from the surviving checkpoint, and require the resumed report to
# be byte-identical to an uninterrupted run — serial and parallel.
soak-smoke:
	scripts/soak_smoke.sh
	scripts/soak_smoke.sh --features parallel

# Quick fault-campaign smoke: regenerates the `faults` experiment at reduced
# scale so a broken overlay or classifier fails the gate, not the archive.
fault-smoke:
	cargo run --release -p agemul-repro -- --quick faults

# Conformance smoke: 200 fixed-seed cases through the differential oracle
# (func/batch/event/level, with fault overlays and traced replays) plus
# the metamorphic invariants on the paper architectures. Divergent cases
# are shrunk to minimal JSON repros and fail the gate.
conformance:
	cargo run --release -p agemul-repro -- --quick conformance

# Monte Carlo campaign smoke: the reduced-scale seeded `mc` experiment
# (it asserts AHL yield ≥ baseline yield at every lifetime point).
mc-smoke:
	cargo run --release -p agemul-repro -- --quick mc

# Resident-service smoke: loadgen spawns an in-process agemul-serve,
# drives a brief concurrent run, and exits nonzero unless there were zero
# error responses, a nonzero cache hit rate, and a clean shutdown.
serve-smoke:
	cargo run --release -p agemul-serve --bin loadgen -- --smoke

# Full service load test: ≥100k ops over 300 design/workload combos;
# appends serve/warm_p50|warm_p99|cold_p50 to BENCH_sim.json and writes
# results/serve__loadgen.csv.
serve-loadgen:
	cargo run --release -p agemul-serve --bin loadgen

# Scalar-vs-batch simulator benches; see BENCH_sim.json for the record.
bench-sim:
	cargo bench -p agemul-bench --bench batch_sim

# Profiling-path benches: event-driven vs levelized vs memoized, plus the
# wide-lane verification rows.
bench-profile:
	cargo bench -p agemul-bench --bench profile

# Monte Carlo corner-switch benches: plan-reuse re-timing vs from-scratch
# kernel construction (the ≥10× marginal-cost target) plus end-to-end
# campaign rows; see the `mc/*` rows in BENCH_sim.json for the record.
bench-mc:
	cargo bench -p agemul-bench --bench mc

# Fleet policy smoke: the reduced-scale `fleet` experiment (it asserts
# aging-aware lifetime strictly exceeds round-robin).
fleet-smoke:
	cargo run --release -p agemul-repro -- --quick fleet

# Chaos/overload smoke: the reduced-scale `chaos` experiment — seeded
# fault schedules over the checkpoint, transport, and cache/single-flight
# seams and the overload-shedding probe. It fails on any invariant
# violation (corrupt checkpoint load, non-identical resume, cached error,
# wedged server, or an untyped/slow shed answer).
chaos-smoke:
	cargo run --release -p agemul-repro -- --quick chaos

# Full chaos soak: ≥1000 seeded schedules across all seams; writes
# results/chaos__soak.csv and exits nonzero on any violation.
chaos-soak:
	cargo run --release -p agemul-serve --bin chaos_soak -- --schedules 1000 --csv results/chaos__soak.csv

# Fleet campaign throughput benches: ops/sec scaling with node count plus
# the routing-policy overhead pair; see the `fleet/*` rows in
# BENCH_sim.json for the record.
bench-fleet:
	cargo bench -p agemul-bench --bench fleet
