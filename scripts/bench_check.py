#!/usr/bin/env python3
"""Flags timing regressions in the benchmark ledger.

    scripts/bench_check.py [LEDGER]      (default: BENCH_sim.json)

The ledger holds one JSON object per line, as the criterion stub appends
them: `id`, `ns_per_iter`, `stddev_ns`, and (on newer rows) `commit` and
`nproc`. For every id, the newest row is compared with the newest earlier
row that has the same id and `nproc` and a different `commit`. The newer
row is `regressed` when it is slower by more than 10 % and by more than the
two rows' summed `stddev_ns`, and `ok` otherwise. Rows without a `commit`
are skipped, and so is an id with no earlier row to compare with.

Exits 1 if any id regressed. Timings on a shared host swing widely, so this
is a tool for reading the ledger, not a merge gate.
"""

import json
import sys

# A newer row this much slower (and slower by more than the summed
# standard deviations) counts as a regression.
SLOWER = 1.10


def load(path):
    with open(path, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return [r for r in rows if r.get("commit")]


def baseline(rows, newest):
    """The newest row before `newest` with its id and nproc, other commit."""
    new = rows[newest]
    for row in reversed(rows[:newest]):
        if (
            row["id"] == new["id"]
            and row.get("nproc") == new.get("nproc")
            and row["commit"] != new["commit"]
        ):
            return row
    return None


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_sim.json"
    rows = load(path)
    newest = {}
    for i, row in enumerate(rows):
        newest[row["id"]] = i
    regressed = 0
    for id_, i in sorted(newest.items()):
        old = baseline(rows, i)
        if old is None:
            continue
        new = rows[i]
        delta = new["ns_per_iter"] - old["ns_per_iter"]
        slower = (
            new["ns_per_iter"] > SLOWER * old["ns_per_iter"]
            and delta > old["stddev_ns"] + new["stddev_ns"]
        )
        regressed += slower
        print(
            f"{'regressed' if slower else 'ok':<9}  {id_}  "
            f"{new['ns_per_iter'] / 1e6:.3f} ms ({new['commit']}) vs "
            f"{old['ns_per_iter'] / 1e6:.3f} ms ({old['commit']}): "
            f"{100 * delta / old['ns_per_iter']:+.1f} %"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
