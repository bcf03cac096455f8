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

# Scalar-vs-batch simulator benches; see BENCH_sim.json for the record.
bench-sim:
	cargo bench -p agemul-bench --bench batch_sim

# Raw timing-kernel stepping benches (`level_sim/*`): event-driven vs
# levelized. The full profiling path is the benchmark's profile-cold workload.
bench-profile:
	cargo bench -p agemul-bench --bench profile

# Monte Carlo corner-switch benches: plan-reuse re-timing vs from-scratch
# kernel construction (the ≥10× marginal-cost target); the full campaign is
# the benchmark's mc-yield workload. See `mc/*` in BENCH_sim.json.
bench-mc:
	cargo bench -p agemul-bench --bench mc

# Full chaos soak: ≥1000 seeded schedules across all seams; writes
# results/chaos__soak.csv and exits nonzero on any violation.
chaos-soak:
	cargo run --release -p agemul-serve --bin chaos_soak -- --schedules 1000 --csv results/chaos__soak.csv

# Fleet campaign throughput benches: ops/sec scaling with node count plus
# the routing-policy overhead pair; see the `fleet/*` rows in
# BENCH_sim.json for the record.
bench-fleet:
	cargo bench -p agemul-bench --bench fleet

# Reads BENCH_sim.json: each id's newest row against the newest earlier
# row from another commit on the same nproc; exits nonzero when one is
# >10 % slower beyond the summed stddevs. Not part of `verify`: timings on
# a shared host are not a gate.
bench-check:
	scripts/bench_check.py
