"""Size sweep: the per-stage table of the ROADMAP baseline, reproduced.

    python3 perfbench/sweep.py [--sizes 7,17,41,81]

Input: the rounded regular n-gon of radius 1000 (odd n), rational backend.
Stages: build_plane, central equidistant, evolute, containment of the
involute (samples=2), 8 exact involute steps, check_trace of those steps,
and run_verify (samples=2, iterate_steps=8); plus the largest numerator or
denominator bit-length in M(8).  Each stage reports the median of up to
three repeats.  Sizes above SLOW_N give every stage a STAGE_BUDGET_S
budget: a stage that overruns is cut and reported as over budget, and the
stages that need its result are skipped.  This is a report, not a gated
workload; run it from the root of a checkout.
"""
from __future__ import annotations

import argparse
import os
import signal
import statistics
import sys
import time

from common import BenchError, use_checkout

SLOW_N = 41
STAGE_BUDGET_S = 5.0
REPEATS = 3
REPEAT_BUDGET_S = 1.0
STAGES = ("build_plane", "central", "evolute", "containment", "iterate8",
          "check_trace", "run_verify")


class OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise OverBudget


def timed(fn, budget: float | None):
    """(median seconds, last result) of up to REPEATS calls of fn."""
    times, result = [], None
    while len(times) < REPEATS and sum(times) < REPEAT_BUDGET_S:
        if budget is not None:
            signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return statistics.median(times), result


def sweep_one(n: int) -> dict:
    from cwpoly import ConvexPolygon, build_plane, central_equidistant, evolute, involute
    from cwpoly.evolute import containment_check
    from cwpoly.iterate import check_trace, convex_parent_of_m, iterate_involutes
    from cwpoly.verify import run_verify
    from workloads import kgon

    poly = ConvexPolygon.from_points(kgon(n))
    budget = STAGE_BUDGET_S if n > SLOW_N else None
    row: dict = {"n": n, "seconds": {}, "skipped": {}}
    done: dict = {}

    def stage(name, needs, fn):
        missing = [s for s in needs if s not in done]
        if missing:
            row["skipped"][name] = f"needs {', '.join(missing)}"
            return
        try:
            row["seconds"][name], done[name] = timed(fn, budget)
        except OverBudget:
            row["skipped"][name] = f"over {STAGE_BUDGET_S:g} s"

    stage("build_plane", (), lambda: build_plane(poly))
    plane = done.get("build_plane")
    stage("central", ("build_plane",), lambda: central_equidistant(plane))
    stage("evolute", ("build_plane",),
          lambda: evolute(plane.P.vertices, plane.U, plane.V, plane.backend))
    if "central" in done:
        ce = done["central"]
        inv = involute(ce, plane.V)
        parent = convex_parent_of_m(ce.M, plane.U, plane.backend)
        stage("containment", ("central",), lambda: containment_check(inv.N, parent, samples=2))
    stage("iterate8", ("build_plane",),
          lambda: iterate_involutes(plane, max_steps=8, tol=1e-300))
    trace = done.get("iterate8")
    stage("check_trace", ("iterate8",), lambda: check_trace(trace, plane))
    stage("run_verify", ("build_plane",),
          lambda: run_verify(plane, samples=2, iterate_steps=8))
    if trace is not None:
        row["bits_k8"] = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                             for p in trace.final.M for c in (p.x, p.y))
    row["checks_ok"] = (all(c.ok for c in done["check_trace"]) if "check_trace" in done
                        else None)
    return row


def _fmt(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    return f"{1e3 * seconds:.3g} ms" if seconds < 1 else f"{seconds:.3g} s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="7,17,41,81", help="comma-separated odd n")
    args = ap.parse_args(argv)
    try:
        use_checkout(os.getcwd())
    except BenchError as e:
        print(f"sweep: {e}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    rows = []
    print("| n | " + " | ".join(STAGES) + " | bits at k=8 |")
    print("|---|" + "---:|" * (len(STAGES) + 1))
    for n in (int(s) for s in args.sizes.split(",")):
        row = sweep_one(n)
        rows.append(row)
        cells = [_fmt(row["seconds"].get(s)) if s in row["seconds"]
                 else row["skipped"].get(s, "-") for s in STAGES]
        print(f"| {n} | " + " | ".join(cells) + f" | {row.get('bits_k8', '-')} |", flush=True)
    bad = [r["n"] for r in rows if r["checks_ok"] is False]
    if bad:
        print(f"sweep: check_trace failed at n = {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
