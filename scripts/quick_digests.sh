#!/usr/bin/env bash
# Pins the quick-scale outputs: the sha256 of every CSV that
# `repro --quick --csv DIR all` writes, with `#` comment lines stripped,
# must match results/quick.digests.
#
#   scripts/quick_digests.sh                 run the experiments, then compare
#   scripts/quick_digests.sh DIR             compare an existing CSV dump
#   scripts/quick_digests.sh --write [DIR]   regenerate results/quick.digests
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
    trap 'rm -rf "$dir"' EXIT
    cargo run --release -p agemul-repro -- --quick --csv "$dir" all >/dev/null
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
