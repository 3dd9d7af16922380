"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py results/base results/change

Each argument is a directory of run records written by `suite.py` (or
`run.py --out`).  For every workload and end-to-end metric it prints the
median and quartiles of both sets and the change of the median, counted
positive when the metric got worse.  Verdicts, with the bounds of
BENCHMARK.json:

* WORSE      -- the median worsened by more than the bound;
* unresolved -- a set's spread (q3 - q1) / median is wider than the bound,
                and not every run of the change beats every run of the base;
* ok         -- neither.

For the exact workloads it also compares the result digest of each seed
present in both sets: a changed digest means changed exact results.
Exits 1 if any metric is WORSE or any digest changed.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from common import BenchError, load_spec, quartiles


def load_set(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def verdict(metric: dict, base: list[float], new: list[float]) -> tuple[str, float]:
    """(verdict, change of the median as a share of the base median, + is worse)."""
    sign = 1 if metric["better"] == "lower" else -1
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = sign * (nm - bm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    if spread > metric["bound"]:
        all_better = all(sign * (n - b) < 0 for n in new for b in base)
        return ("better" if all_better else "unresolved"), change
    return ("WORSE" if change > metric["bound"] else "ok"), change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    try:
        spec = load_spec(os.getcwd())
    except BenchError as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    base, new = load_set(args.base), load_set(args.change)
    flagged = False
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"\n{name}: missing from {'base' if name not in base else 'change'}")
            continue
        print(f"\n{name}: {len(base[name])} base run(s), {len(new[name])} change run(s)")
        for m in spec["end_to_end"]:
            bv = [r["result"]["metrics"][m["name"]]["value"] for r in base[name]]
            nv = [r["result"]["metrics"][m["name"]]["value"] for r in new[name]]
            v, change = verdict(m, bv, nv)
            flagged |= v == "WORSE"
            b1, bm, b3 = quartiles(bv)
            n1, nm, n3 = quartiles(nv)
            print(f"  {m['name']:<12} {m['unit']:<6} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"change {nm:.6g} [{n1:.6g}, {n3:.6g}]  {100 * change:+.1f}% worse  "
                  f"bound {100 * m['bound']:.0f}%  {v}")
        failed = [sum(r["result"]["failed"] for r in s[name]) for s in (base, new)]
        print(f"  failed ops: base {failed[0]}, change {failed[1]}")
        base_digests = {r["seed"]: r.get("digest") for r in base[name] if r.get("digest")}
        for r in new[name]:
            d = r.get("digest")
            if d and r["seed"] in base_digests:
                same = d == base_digests[r["seed"]]
                flagged |= not same
                print(f"  digest seed {r['seed']}: {'same' if same else 'CHANGED'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
