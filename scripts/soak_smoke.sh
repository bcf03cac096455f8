#!/usr/bin/env bash
# Kill/resume soak smoke: run a supervised fault campaign to completion,
# run it again stalled and SIGKILL it mid-flight, resume from the surviving
# checkpoint, and require the resumed report to be byte-identical to the
# uninterrupted one. Exercises the real crash path — a hard kill between
# checkpoint writes — not a simulated truncation.
#
# Usage: scripts/soak_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p agemul-harness --bin soak >/dev/null
SOAK=target/release/soak

WORK=$(mktemp -d "${TMPDIR:-/tmp}/agemul-soak.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# Reference: uninterrupted run (poison case included, so quarantine is
# also part of the compared surface).
"$SOAK" --ckpt "$WORK/ref.ckpt" --out "$WORK/ref.json" --poison >/dev/null

# Victim: same campaign with a 150 ms stall before every case, killed
# hard mid-run. `--stall-ms` only slows the run down; it does not change
# any computed value.
"$SOAK" --ckpt "$WORK/victim.ckpt" --out "$WORK/victim.json" --poison --stall-ms 150 \
    >/dev/null 2>&1 &
VICTIM=$!
sleep 0.6
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true

if [[ ! -f "$WORK/victim.ckpt" ]]; then
    echo "soak-smoke: FAIL — no checkpoint survived the kill (window too narrow?)" >&2
    exit 1
fi
if [[ -f "$WORK/victim.json" ]]; then
    echo "soak-smoke: FAIL — victim finished before the kill; raise --stall-ms" >&2
    exit 1
fi

DONE_BEFORE=$(grep -o '"index"' "$WORK/victim.ckpt" | wc -l)
echo "soak-smoke: killed mid-run with $DONE_BEFORE case(s) checkpointed"

# Resume from the survivor and demand byte identity with the reference.
"$SOAK" --ckpt "$WORK/victim.ckpt" --out "$WORK/victim.json" --poison --require >/dev/null

if ! cmp -s "$WORK/ref.json" "$WORK/victim.json"; then
    echo "soak-smoke: FAIL — resumed report differs from uninterrupted run" >&2
    diff "$WORK/ref.json" "$WORK/victim.json" >&2 || true
    exit 1
fi
echo "soak-smoke: PASS — resumed report byte-identical to uninterrupted run"
