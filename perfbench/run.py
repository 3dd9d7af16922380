"""Run one cwpoly benchmark workload and print its result line.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
One process, no threads, a closed loop with one client: each op starts when
the previous one ends.  Set-up makes the inputs from the seed (SETUP_REPS
times; the median time is `setup_s`), one warm-up op runs untimed, then ops
run until `--seconds` have passed, at least MIN_OPS ops are done and the input
mix has completed a whole cycle.  Every op's output is checked.  Times are
paced (see Pace): scaled to a reference machine speed measured between ops.

With `--trace 0` the result carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it runs a fixed list of ops under the
tracer and carries the per-layer metrics instead.  The last line of
standard output is the result object; lines before it starting with `#`
are for people.  `--out FILE` also writes the full record (environment,
digest, failures) as JSON.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

from common import BenchError, cli_env, env_block, load_spec, quantile, use_checkout

MIN_OPS = 100           # so that at least ten timed ops lie beyond p90
SETUP_REPS = 5
SETUP_PACE_SAMPLES = 5  # reference samples taken before and after each set-up
HARD_LIMIT_S = 120.0    # a run stops here whatever its op count
STARTUP_REPS = 5
PACE_EVERY_S = 0.05     # in-process ops share a reference sample at most this old
PACE_WINDOW_S = 0.5     # samples this close to an op set its pace
# reference task times on the 2-vCPU x86-64 machine the bounds were set on,
# when it ran fastest; they fix the unit of the paced times
FRACTION_REF_S = 0.00077
START_REF_S = 0.045


def _note(text: str) -> None:
    print(f"# {text}", flush=True)


def fraction_task() -> float:
    """Seconds for a fixed bit of Fraction arithmetic (best of three)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc = acc * Fraction(3, 5) + Fraction(i * 7919 % 1009, i * 104729 % 997 + 1)
        best = min(best, time.perf_counter() - t0)
    return best


def time_process(argv: list[str], env: dict, cwd: str) -> float:
    """Seconds for one child process, from its start to its end."""
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


BARE_START = [sys.executable, "-c", "pass"]


class Pace:
    """Samples of a fixed reference task, taken between ops, that take the
    machine's speed out of the op times.

    A machine shared with other work can swing in speed by 2x within
    seconds.  The ops and a reference task run beside them slow down
    together, so the ratio of their times varies far less than either time
    alone.  An op is reported as its wall time times
    ref_s / (median of the samples taken within PACE_WINDOW_S of it): its
    time at the reference speed.  The median over a window, not the nearest
    sample, keeps the jitter of single samples out of single long ops.  The
    reference must be code the benchmarked program cannot change: Fraction
    arithmetic for in-process ops, a bare interpreter start for ops that
    start the CLI.
    """

    def __init__(self, task, ref_s: float, every_s: float):
        self.task, self.ref_s, self.every_s = task, ref_s, every_s
        self.times: list[float] = []
        self.samples: list[float] = []

    def tick(self) -> None:
        """Take a sample if the last one is older than every_s."""
        if not self.times or time.perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def sample(self) -> None:
        value = self.task()
        self.times.append(time.perf_counter())
        self.samples.append(value)

    def scale(self, t0: float, dt: float) -> float:
        """Factor for an op that ran from t0 for dt seconds."""
        lo = bisect.bisect_left(self.times, t0 - PACE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t0 + dt + PACE_WINDOW_S)
        return self.ref_s / statistics.median(self.samples[lo:hi])


def make_inputs(wl, seed: int, pace: Pace | None = None):
    """Set up SETUP_REPS times; (inputs, [(seconds, start)], whether every
    set-up agreed).  A set-up is short, so the pace is sampled several
    times on each side of it: one sample alone is too noisy."""
    def sample():
        for _ in range(SETUP_PACE_SAMPLES if pace else 0):
            pace.sample()

    times, pools = [], []
    for _ in range(SETUP_REPS):
        sample()
        t0 = time.perf_counter()
        pools.append(wl.inputs(seed))
        times.append((time.perf_counter() - t0, t0))
    sample()
    return pools[-1], times, all(p == pools[0] for p in pools)


def attempt(wl, x, run):
    """Run one op and check it; returns (seconds, Outcome)."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        result = run(x)
    except Exception as e:  # a raising op is a failed op, not a crashed run
        return time.perf_counter() - t0, Outcome(False, False, f"raised {e!r}"[:300])
    elapsed = time.perf_counter() - t0
    return elapsed, wl.check(x, result)


class Tally:
    """Counts of attempted, failed and wrong ops, with the first few failures."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.examples: list[str] = []

    def add(self, i: int, out) -> None:
        self.attempted += 1
        if not out.ok:
            self.failed += 1
            self.wrong += out.wrong
            if len(self.examples) < 5:
                self.examples.append(f"op {i}: {'WRONG ' if out.wrong else ''}{out.detail}")


def timed_run(wl, pool, seconds: float, pace: Pace, min_ops: int = MIN_OPS):
    """The measured loop; returns ([(seconds, start, passed)], tally, digest)."""
    tally = Tally()
    ops = []
    digest = hashlib.sha256() if wl.digest else None
    t_start = time.perf_counter()
    i = 0
    while True:
        x = pool[i % len(pool)]
        pace.tick()
        t0 = time.perf_counter()
        dt, out = attempt(wl, x, wl.run)
        ops.append((dt, t0, out.ok))
        tally.add(i, out)
        if digest is not None and i < len(pool):
            digest.update(out.record.encode() + b"\n")
        i += 1
        now = time.perf_counter() - t_start
        if now >= HARD_LIMIT_S:
            _note(f"stopped at the {HARD_LIMIT_S:.0f} s limit after {i} ops")
            break
        if i % wl.cycle == 0 and i >= min_ops and now >= seconds:
            break
    pace.sample()
    digest_hex = digest.hexdigest() if digest is not None and i >= len(pool) else None
    return ops, tally, digest_hex


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _time_metrics(setup, ops) -> dict:
    """Set-up and op metrics from [(seconds, ...)], [(seconds, ..., passed)]."""
    lat = [dt for dt, *_, ok in ops if ok] or [dt for dt, *_ in ops]
    passed = sum(1 for *_, ok in ops if ok)
    return {
        "setup_s": statistics.median(dt for dt, _ in setup),
        "op_p50_s": quantile(lat, 0.5),
        "op_p90_s": quantile(lat, 0.9),
        "ops_per_s": passed / sum(dt for dt, *_ in ops),
    }


def end_to_end(wl, pool, setup, setup_pace: Pace, op_pace: Pace, seconds: float):
    ops, tally, digest = timed_run(wl, pool, seconds, op_pace)
    metrics = _time_metrics([(dt * setup_pace.scale(t0, dt), t0) for dt, t0 in setup],
                            [(dt * op_pace.scale(t0, dt), t0, ok) for dt, t0, ok in ops])
    metrics["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    metrics["peak_rss_mb"] = peak_rss_mb(children=wl.subprocess_ops)
    extra = {"failed_ratio": tally.failed / tally.attempted, "digest": digest,
             "pace_samples": len(op_pace.samples),
             **{f"wall_{name}": v for name, v in _time_metrics(setup, ops).items()}}
    return metrics, tally, extra


def per_layer(wl, pool, src, workdir):
    import tracer

    ops = [pool[i % len(pool)] for i in range(wl.trace_ops)]
    counts = {"steps": 0, "kernel_steps": 0, "bits": 0}

    def on_trace(trace):
        counts["steps"] += len(trace.steps) - 1
        if trace.backend.exact:
            for p in trace.final.M:
                for c in (p.x, p.y):
                    counts["bits"] = max(counts["bits"], abs(c.numerator).bit_length(),
                                         c.denominator.bit_length())

    def on_kernel(result):
        counts["kernel_steps"] += result[0]

    # each op runs untraced, then traced, so drift in machine speed cancels
    # out of the overhead ratio
    tr = tracer.Tracer({"iterate.iterate_involutes": on_trace,
                        "kernels.iterate_float": on_kernel})
    tally = Tally()
    untraced = traced = 0.0
    attempt(wl, ops[0], wl.run_traced)  # warm-up
    for i, x in enumerate(ops):
        untraced += attempt(wl, x, wl.run_traced)[0]
        with tr:
            dt, out = attempt(wl, x, wl.run_traced)
        traced += dt
        tally.add(i, out)

    metrics = {}
    for name, (calls, self_s) in tr.stats.items():
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.calls"] = calls
    steps = counts["steps"]
    metrics["iterate.diameter_sq.calls_per_step"] = (
        tr.stats["iterate.diameter_sq"][0] / steps if steps else 0.0)
    metrics["iterate.bits_max"] = counts["bits"]
    metrics["kernels.steps"] = counts["kernel_steps"]
    metrics["kernels.us_per_step"] = (
        1e6 * tr.stats["kernels.iterate_float"][1] / counts["kernel_steps"]
        if counts["kernel_steps"] else 0.0)
    metrics["core.chord_count.calls_per_op"] = tr.stats["core.chord_count"][0] / len(ops)
    env = cli_env(src)

    def median_time(argv):
        return statistics.median(time_process(argv, env, workdir) for _ in range(STARTUP_REPS))

    start = median_time(BARE_START)
    imported = median_time([sys.executable, "-c", "import cwpoly.cli"])
    metrics["cli.interp_start_s"] = start
    metrics["cli.import_s"] = imported - start
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics, tally, {"traced_ops": len(ops), "traced_s": traced, "untraced_s": untraced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record as JSON to this file")
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        spec = load_spec(root)
        src = use_checkout(root)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        try:
            wl = workloads.make(args.workload, workdir, src)
        except ValueError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 2
        env = env_block(root, args.seed)
        # one CPU for the run and its children, so that the pace samples
        # see the same CPU as the ops they pace
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        setup_pace = Pace(fraction_task, FRACTION_REF_S, 0.0)
        pool, setup, same = make_inputs(wl, args.seed, setup_pace)
        if args.trace:
            metrics, tally, extra = per_layer(wl, pool, src, workdir)
            wanted = spec["per_layer"]
        else:
            if wl.subprocess_ops:
                env_cli = cli_env(src)
                op_pace = Pace(lambda: time_process(BARE_START, env_cli, workdir),
                               START_REF_S, 0.0)
            else:
                op_pace = Pace(fraction_task, FRACTION_REF_S, PACE_EVERY_S)
            attempt(wl, pool[0], wl.run)  # warm-up: byte-code caches, lazy imports
            metrics, tally, extra = end_to_end(wl, pool, setup, setup_pace, op_pace,
                                               args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(names))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": same and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    _note(f"{wl.name} seed={args.seed} trace={args.trace} attempted={tally.attempted} "
          f"failed={tally.failed} wrong={tally.wrong} set-ups agree={same}")
    for line in tally.examples:
        _note(f"failed {line}")
    for k, v in extra.items():
        _note(f"{k} = {v}")
    _note("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        for m in wanted:
            _note(f"{m['name']:<12} {metrics[m['name']]:.6g} {m['unit']}")
    if args.out:
        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "result": result,
                  "failures": tally.examples, **extra}
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
