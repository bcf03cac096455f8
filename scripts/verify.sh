#!/usr/bin/env bash
# Pre-merge gate, mirroring `just verify`: format check, clippy with all
# features and fatal warnings, then the tier-1 build + test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --all-features -- -D warnings
cargo build --release --workspace
cargo test -q --workspace
# The benchmark package's own tests (outside the workspace).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Fault-campaign smoke: a reduced-scale end-to-end injection run.
cargo run --release -p agemul-repro -- --quick faults >/dev/null
# Timing-kernel equivalence smoke: LevelSim vs EventSim on an 8×8
# column-bypass workload (bit-identical profiles).
cargo test -q -p agemul --test level_equiv timing_equiv_smoke_cb8
# Incremental-vs-full equivalence: AgingSweep byte-identity, quantized
# cache-key coherence, and repro sweep-driver table agreement.
cargo test -q -p agemul aging_sweep
cargo test -q -p agemul sub_threshold_aging_step_hits_coherently
cargo test -q -p agemul-repro incremental_and_baseline_drivers_agree
# Conformance smoke: 200 fixed-seed cases through the cross-engine
# differential oracle + the metamorphic invariants; divergences shrink to
# minimal JSON repros and fail the gate.
cargo run --release -p agemul-repro -- --quick conformance >/dev/null
# Incremental sweep smoke: the experiment asserts its own sweep counters
# and re-derives the final year from scratch, failing on divergence.
cargo run --release -p agemul-repro -- --quick --incremental sweep >/dev/null
# Supervised kill/resume soak: SIGKILL a checkpointed campaign mid-run,
# resume, and require byte-identical results — serial and parallel.
scripts/soak_smoke.sh
scripts/soak_smoke.sh --features parallel
# Resident-service smoke: loadgen against an in-process agemul-serve;
# fails on any error response, zero hit rate, or unclean shutdown.
cargo run --release -p agemul-serve --bin loadgen -- --smoke
# Monte Carlo campaign smoke: supervised checkpoint/resume byte-identity,
# retimed-vs-from-scratch cell identity, and the reduced-scale seeded `mc`
# experiment (asserts AHL yield ≥ baseline at every lifetime point).
cargo test -q -p agemul-harness truncated_checkpoint_resumes_identically
cargo test -q -p agemul campaign_matches_from_scratch_per_cell
cargo run --release -p agemul-repro -- --quick mc >/dev/null
# Fleet replay/policy smoke: golden-pinned event-log replay identity
# (serial and parallel), supervised fleet checkpoint/resume identity, and
# the reduced-scale seeded `fleet` experiment (asserts aging-aware
# lifetime strictly exceeds round-robin).
cargo test -q -p agemul-fleet --test replay_equiv
cargo test -q -p agemul-fleet --test replay_equiv --features parallel
cargo test -q -p agemul-harness fleet
cargo run --release -p agemul-repro -- --quick fleet >/dev/null
# Chaos/overload smoke: the fault-schedule engine's unit suite plus the
# reduced-scale `chaos` experiment (seeded fault schedules over the
# checkpoint, transport, and cache/single-flight seams and the
# overload-shedding probe; fails on any invariant violation).
cargo test -q -p agemul-chaos
cargo run --release -p agemul-repro -- --quick chaos >/dev/null
