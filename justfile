# Developer entry points. `just verify` is the pre-merge gate; it is also
# available as `scripts/verify.sh` for environments without `just`.

# Format check + clippy (all features, warnings fatal) + full test suite +
# a quick fault-injection campaign smoke run + the timing-kernel
# equivalence smoke + the incremental-vs-full re-profiling equivalence +
# the seeded cross-engine conformance smoke + the incremental sweep smoke
# + the supervised kill/resume soak smoke + the resident-service smoke
# + the seeded Monte Carlo campaign smoke + the fleet replay/policy smoke
# + the deterministic chaos/overload smoke.
verify: fmt-check clippy test fault-smoke timing-equiv incremental-equiv conformance sweep-smoke soak-smoke serve-smoke mc-smoke fleet-smoke chaos-smoke

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

# Timing-kernel equivalence smoke: the levelized kernel must reproduce the
# event-driven reference bit-for-bit on an 8×8 column-bypass workload.
timing-equiv:
	cargo test -q -p agemul --test level_equiv timing_equiv_smoke_cb8

# Incremental-vs-full equivalence: the AgingSweep year stepper must be
# byte-identical to from-scratch profiling, the quantized cache key must
# agree with the sweep's diff threshold, and the repro sweep drivers must
# emit identical tables.
incremental-equiv:
	cargo test -q -p agemul aging_sweep
	cargo test -q -p agemul sub_threshold_aging_step_hits_coherently
	cargo test -q -p agemul-repro incremental_and_baseline_drivers_agree

# Incremental sweep smoke: the 7-year × 17-period driver study at reduced
# scale. The experiment itself asserts the sweep counters (exactly one
# full profile per design, dirty-cone re-simulations present, the period
# axis answered by factor identity) and re-derives its final year from
# scratch, failing on any divergence.
sweep-smoke:
	cargo run --release -p agemul-repro -- --quick --incremental sweep

# Conformance smoke: 200 fixed-seed cases through the differential oracle
# (func/batch/event/level, with fault overlays and traced replays) plus
# the metamorphic invariants on the paper architectures. Divergent cases
# are shrunk to minimal JSON repros and fail the gate.
conformance:
	cargo run --release -p agemul-repro -- --quick conformance

# Monte Carlo campaign smoke: the supervised driver must resume
# byte-identically from a truncated checkpoint (harness property), the
# retimed path must match from-scratch kernels bit for bit (campaign
# property), and the reduced-scale seeded `mc` experiment must run end to
# end (it asserts AHL yield ≥ baseline yield at every lifetime point).
mc-smoke:
	cargo test -q -p agemul-harness truncated_checkpoint_resumes_identically
	cargo test -q -p agemul campaign_matches_from_scratch_per_cell
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

# Aging-sweep driver benches: incremental vs from-scratch over the
# 7-year × 17-period grid; see BENCH_sim.json for the record.
bench-sweep:
	cargo bench -p agemul-bench --bench sweep

# Monte Carlo corner-switch benches: plan-reuse re-timing vs from-scratch
# kernel construction (the ≥10× marginal-cost target) plus end-to-end
# campaign rows; see the `mc/*` rows in BENCH_sim.json for the record.
bench-mc:
	cargo bench -p agemul-bench --bench mc

# Fleet replay/policy smoke: the discrete-event log must replay
# byte-identically (golden FNV-1a digests, serial and with the parallel
# fan-out compiled in), a truncated fleet checkpoint must resume to the
# identical study, and the reduced-scale `fleet` experiment must run end
# to end (it asserts aging-aware lifetime strictly exceeds round-robin).
fleet-smoke:
	cargo test -q -p agemul-fleet --test replay_equiv
	cargo test -q -p agemul-fleet --test replay_equiv --features parallel
	cargo test -q -p agemul-harness fleet
	cargo run --release -p agemul-repro -- --quick fleet

# Chaos/overload smoke: the fault-schedule engine's unit suite plus the
# reduced-scale `chaos` experiment — seeded fault schedules over the
# checkpoint, transport, and cache/single-flight seams and the
# overload-shedding probe. The experiment fails on any invariant
# violation (corrupt checkpoint load, non-identical resume, cached error,
# wedged server, or an untyped/slow shed answer).
chaos-smoke:
	cargo test -q -p agemul-chaos
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
