"""Run every workload of the benchmark, over one or more seeds, and print
each end-to-end metric by name, with its unit.

    python3 perfbench/suite.py --out results/base --seeds 1,2,3
    python3 perfbench/suite.py --out results/base --trace

Each run is a separate `perfbench/run.py` process started from the root of
the checkout, so peak memory is per workload.  Every run's full record goes
to `<out>/<workload>-s<seed>-t<trace>.json`; `perfbench/compare.py` reads
two such directories.  With several seeds the summary gives the median,
the quartiles and their spread (q3 - q1) / median against the metric's
bound; WIDE marks a spread above a third of the bound.  Exits 1 if any run
failed or reported incorrect output.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import BenchError, load_spec, quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 900


def run_one(root, out_dir, workload, seed, seconds, trace) -> dict | None:
    path = os.path.join(out_dir, f"{workload}-s{seed}-t{int(trace)}.json")
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out", path]
    p = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        print(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def summarize(spec, records, trace: bool) -> None:
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    by_workload: dict[str, list] = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, runs in by_workload.items():
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} run(s), {attempted} ops, {failed} failed, "
              f"correct={correct}")
        digests = sorted({r.get("digest") for r in runs if r.get("digest")})
        for d in digests:
            seeds = [r["seed"] for r in runs if r.get("digest") == d]
            print(f"  digest {d} (seed {', '.join(map(str, seeds))})")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            line = f"  {m['name']:<40} {med:>12.6g} {m['unit']:<10}"
            if len(values) > 1:
                spread = (q3 - q1) / med if med else float("inf")
                line += f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
                if "bound" in m:
                    line += f" (bound {m['bound']}{', WIDE' if 3 * spread > m['bound'] else ''})"
            print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="directory for the run records")
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    ap.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        spec = load_spec(root)
    except BenchError as e:
        print(f"suite: {e}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    records, ok = [], True
    for seed in (int(s) for s in args.seeds.split(",")):
        for name in names:
            rec = run_one(root, args.out, name, seed, seconds, args.trace)
            if rec is None:
                ok = False
                continue
            res = rec["result"]
            ok &= res["correct"]
            print(f"{name} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']}", flush=True)
            records.append(rec)
    summarize(spec, records, args.trace)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
