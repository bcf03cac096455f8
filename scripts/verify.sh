#!/usr/bin/env bash
# Pre-merge gate; `just verify` runs this script, so the step list lives
# here only. Every step is fatal.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --all-features -- -D warnings
# Rustdoc with warnings denied: no broken or private intra-doc links.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# Tier-1: release build + the whole workspace suite. It already holds the
# timing-kernel (Level ≡ Event) equivalence tests, the aging sweep's
# byte-identity to from-scratch profiles, supervised resume identity, the
# fleet replay goldens, and the chaos engine's unit suite.
cargo build --release --workspace
cargo test -q --workspace
# The benchmark package's own tests (outside the workspace; they include
# serve-open's served ≡ in-process check).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Every reduced-scale experiment, each CSV checked against its pinned
# digest in results/quick.digests. The experiments also assert their own
# claims: fault classification, the 200-case cross-engine conformance gate
# (divergences shrink to JSON repros), AHL yield ≥ baseline (mc),
# aging-aware fleet lifetime > round-robin, and zero chaos-schedule
# violations.
scripts/quick_digests.sh
# Supervised kill/resume soak: SIGKILL a checkpointed campaign mid-run,
# resume, and require byte-identical results.
scripts/soak_smoke.sh
# Resident-service smoke: loadgen against an in-process agemul-serve;
# fails on any error response, zero hit rate, or unclean shutdown.
cargo run --release -p agemul-serve --bin loadgen -- --smoke
