#!/usr/bin/env bash
# Pins the quick-scale outputs: the sha256 of every CSV that
# `repro --quick --csv DIR all` writes, with `#` comment lines stripped,
# must match results/quick.digests.
#
#   scripts/quick_digests.sh                 run the experiments, then compare
#   scripts/quick_digests.sh DIR             compare an existing CSV dump
#   scripts/quick_digests.sh --write [DIR]   regenerate results/quick.digests
#
# When it runs the experiments itself, the run is also the kill/resume
# check: `repro --resume` is SIGKILLed as soon as its checkpoint holds a
# finished experiment, then resumed into the same directory. The resumed
# run must restore at least one experiment, and the digests must match.
#
# chaos__chaos_soak_by_seam.csv is left out: its `injected` column counts
# transport faults per live-socket read, which depends on timing.
set -euo pipefail
cd "$(dirname "$0")/.."

write=0
if [ "${1:-}" = --write ]; then
    write=1
    shift
fi
dir=${1:-}
if [ -z "$dir" ]; then
    dir=$(mktemp -d)
    victim=
    # Never leave the victim running, whatever ends the script.
    trap '[ -z "$victim" ] || kill -9 "$victim" 2>/dev/null || true; rm -rf "$dir"' EXIT
    cargo build --release -p agemul-repro --bin repro >/dev/null
    repro=("${CARGO_TARGET_DIR:-target}/release/repro" --quick --resume "$dir/ckpt" --csv "$dir" all)
    "${repro[@]}" >/dev/null 2>"$dir/victim.log" &
    victim=$!
    # The checkpoint is renamed into place whole, after the first
    # experiment finishes.
    while [ ! -f "$dir/ckpt" ] && kill -0 "$victim" 2>/dev/null; do
        sleep 0.05
    done
    kill -9 "$victim" 2>/dev/null || true
    status=0
    wait "$victim" 2>/dev/null || status=$?
    victim=
    if [ "$status" -ne 137 ]; then
        echo "quick digests: FAIL — the run ended (status $status) before the kill" >&2
        cat "$dir/victim.log" >&2
        exit 1
    fi
    "${repro[@]}" >/dev/null 2>"$dir/resume.log" || {
        cat "$dir/resume.log" >&2
        exit 1
    }
    resumed=$(grep -c '(resumed)$' "$dir/resume.log" || true)
    if [ "$resumed" -lt 1 ]; then
        echo "quick digests: FAIL — the resumed run restored no experiment" >&2
        exit 1
    fi
    echo "quick digests: killed the run with a checkpoint on disk; $resumed experiment(s) resumed"
fi

digests() {
    for f in "$dir"/*.csv; do
        name=$(basename "$f")
        [ "$name" = chaos__chaos_soak_by_seam.csv ] && continue
        printf '%s  %s\n' "$(sed '/^#/d' "$f" | sha256sum | cut -d' ' -f1)" "$name"
    done
}

pinned=results/quick.digests
if [ "$write" = 1 ]; then
    {
        echo "# sha256 of each \`repro --quick --csv DIR all\` CSV, \`#\` lines stripped."
        echo "# Regenerate with scripts/quick_digests.sh --write (chaos soak CSV excluded)."
        digests
    } >"$pinned"
    echo "wrote $pinned"
else
    diff <(sed '/^#/d' "$pinned") <(digests)
    echo "quick digests: OK ($(sed '/^#/d' "$pinned" | wc -l) CSVs)"
fi
