"""The four benchmark workloads.

A workload turns a seed into a pool of raw inputs (set-up), runs one op on
one input (the timed part) and checks the op's output (untimed).  Inputs
are plain coordinate lists or document paths, so every op starts from the
same data a user would hand the package.  Input properties follow the op
index with period `cycle`, and timed runs stop on a whole cycle, so every
run holds the same mix of sizes.

Check outcomes:
* ok     -- the op completed and the program's own verdict passed;
* wrong  -- the output contradicts a check the benchmark makes itself.  A
            wrong op also counts as failed, and makes the run incorrect;
* neither -- the program raised or reported a failing verdict: a failed op.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

from common import cli_env

from cwpoly import ball, cli, core, fuzz, iterate, verify
from cwpoly.backend import FLOAT

# checks run_verify makes on every valid polygon; a report without them
# stopped early without saying so
VERIFY_CORE_IDS = ("cw.constant_width", "cw.barbier", "areas.signed_gap",
                   "containment.involute_in_central", "iterate.ledger")

CLI_TIMEOUT_S = 60


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False
    detail: str = ""
    record: str = ""  # exact results folded into the run's digest


def kgon(k: int, radius: int = 1000) -> list[tuple[int, int]]:
    """Regular k-gon of the given radius, rounded to integer coordinates."""
    return [(round(radius * math.cos(2 * math.pi * j / k)),
             round(radius * math.sin(2 * math.pi * j / k))) for j in range(k)]


def random_points(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Vertices of a seeded random polygon whose norm has exactly n directions."""
    plane = fuzz.random_cw_plane(rng, n, n)
    poly = core.ConvexPolygon.from_points(plane.P.vertices)
    return [(int(p.x), int(p.y)) for p in poly.vertices]


# sizes of the random polygons of the exact workloads, cycling with the nine
# random slots of every ten ops.  n = 6 is listed three times so that the
# median op falls inside one size class, not on the step between two
EXACT_SIZES = (3, 4, 5, 6, 6, 6, 7, 8, 9)
# sizes of the random polygons of float-converge; nine values, so n repeats
# every ten ops like the K-gon slot
FLOAT_SIZES = tuple(range(4, 13))


def mixed_pool(seed: int, size: int, n_values, kgons) -> list[tuple[list, int]]:
    """(points, n) pairs: random polygons cycling through n_values, with every
    tenth entry a rounded regular K-gon cycling through kgons."""
    rng = random.Random(seed)
    out = []
    j = 0
    for i in range(size):
        if i % 10 == 9:
            k = kgons[(i // 10) % len(kgons)]
            out.append((kgon(k), k))
        else:
            n = n_values[j % len(n_values)]
            out.append((random_points(rng, n), n))
            j += 1
    return out


class Workload:
    name = ""
    cycle = 1        # input properties repeat with this period
    pool_size = 1    # inputs made by one set-up
    trace_ops = 1    # ops in the traced run
    digest = False   # whether op records form a result digest
    subprocess_ops = False  # whether each op runs in a child process

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def run_traced(self, x):
        """The op as the traced run makes it (in-process)."""
        return self.run(x)

    def check(self, x, result) -> Outcome:
        raise NotImplementedError


class ExactVerify(Workload):
    """build_plane + run_verify with the CLI defaults, rational backend."""

    name = "exact-verify"
    cycle = 20
    pool_size = 100
    trace_ops = 20
    digest = True

    def inputs(self, seed):
        return mixed_pool(seed, self.pool_size, EXACT_SIZES, (7, 11))

    def run(self, x):
        pts, _ = x
        plane = ball.build_plane(core.ConvexPolygon.from_points(pts))
        return plane, verify.run_verify(plane, samples=16, iterate_steps=8)

    def check(self, x, result):
        plane, report = result
        ids = {c.check_id for c in report.checks}
        missing = [c for c in VERIFY_CORE_IDS if c not in ids]
        # each check's `actual` carries its exact values (the signed-area gap,
        # sample and chord counts), so a changed result changes the digest
        record = ";".join(f"{c.check_id}={int(c.ok)}:{c.actual}" for c in report.checks)
        if plane.n != x[1] or missing:
            return Outcome(False, True, f"n={plane.n} (expected {x[1]}), missing {missing}",
                           record)
        bad = [c.check_id for c in report.checks if not c.ok]
        return Outcome(not bad, False, f"failed checks {bad}" if bad else "", record)


class ExactLedger(Workload):
    """build_plane + 16 exact involute steps + check_trace."""

    name = "exact-ledger"
    cycle = 20
    pool_size = 100
    trace_ops = 20
    digest = True
    steps = 16

    def inputs(self, seed):
        return mixed_pool(seed, self.pool_size, EXACT_SIZES, (9, 11))

    def run(self, x):
        pts, _ = x
        plane = ball.build_plane(core.ConvexPolygon.from_points(pts))
        trace = iterate.iterate_involutes(plane, max_steps=self.steps, tol=1e-300)
        return plane, trace, iterate.check_trace(trace, plane)

    def check(self, x, result):
        plane, trace, checks = result
        s = trace.steps
        record = "|".join(f"{t.k}:{t.sa_m}:{t.sa_n}:{t.gap_mn}:{t.gap_nm}" for t in s)
        record += "|" + ";".join(f"{c.check_id}={int(c.ok)}:{c.detail}" for c in checks)
        # the stored gaps must telescope the stored areas, independently of
        # check_trace, which recomputes areas from the polygons
        telescopes = all(s[k - 1].sa_m - s[k].sa_m == s[k].gap_mn + s[k].gap_nm
                         for k in range(1, len(s)))
        if plane.n != x[1] or not telescopes or trace.sumsquares != trace.sa0 - s[-1].sa_m:
            return Outcome(False, True, f"n={plane.n} (expected {x[1]}), "
                                        f"ledger telescopes: {telescopes}", record)
        bad = [c.check_id for c in checks if not c.ok]
        if len(s) != self.steps + 1 or bad:
            return Outcome(False, False, f"{len(s) - 1} steps, failed checks {bad}", record)
        return Outcome(True, record=record)


class FloatConverge(Workload):
    """Float plane, iterate_involutes with its defaults, check_trace.

    The coordinate scale cycles through 1e-3, 1 and 1e3.  Inputs at 1e3
    expose the absolute tolerance of the float backend; they are kept, and
    their failures are counted, not hidden.
    """

    name = "float-converge"
    cycle = 60
    pool_size = 120
    trace_ops = 60
    scales = (1e-3, 1.0, 1e3)

    def inputs(self, seed):
        pool = mixed_pool(seed, self.pool_size, FLOAT_SIZES, (41, 81))
        out = []
        for i, (pts, _) in enumerate(pool):
            s = self.scales[i % len(self.scales)]
            out.append(([(x * s, y * s) for x, y in pts], s))
        return out

    def run(self, x):
        pts, _ = x
        poly = core.ConvexPolygon.from_points(pts, FLOAT)
        plane = ball.build_plane(poly)
        trace = iterate.iterate_involutes(plane)
        return poly, trace, iterate.check_trace(trace, plane)

    def check(self, x, result):
        poly, trace, checks = result
        bad = [c.check_id for c in checks if not c.ok]
        if not trace.converged or bad:
            return Outcome(False, False, f"converged={trace.converged}, failed checks {bad}")
        # the central point lies inside the polygon
        pts, scale = x
        o = trace.O
        v = poly.vertices
        tol = 1e-9 * scale * scale
        inside = all(core.det(v[(i + 1) % len(v)] - v[i], o - v[i]) >= -tol
                     for i in range(len(v)))
        if not inside:
            return Outcome(False, True, f"central point {o} outside the polygon")
        return Outcome(True)


class CliCold(Workload):
    """One `python -m cwpoly.cli` process per op, alternating `verify` and
    `iterate --backend float --svg --csv` on small seeded documents."""

    name = "cli-cold"
    cycle = 4  # two ops per document, n alternating between documents
    subprocess_ops = True
    pool_size = 40
    trace_ops = 20

    def __init__(self, workdir: str, src: str):
        self.workdir = workdir
        self.env = cli_env(src)
        self.svg = os.path.join(workdir, "out.svg")
        self.csv = os.path.join(workdir, "out.csv")

    def inputs(self, seed):
        rng = random.Random(seed)
        pool = []
        for d in range(self.pool_size // 2):
            pts = random_points(rng, 3 + d % 2)
            path = os.path.join(self.workdir, f"doc{d}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"name": f"doc{d}", "vertices": pts}, f)
            pool.append(("verify", path, tuple(pts)))
            pool.append(("iterate", path, tuple(pts)))
        return pool

    def argv(self, x) -> list[str]:
        kind, path, _ = x
        if kind == "verify":
            return ["verify", path]
        return ["iterate", path, "--backend", "float", "--svg", self.svg, "--csv", self.csv]

    def _clear(self):
        for p in (self.svg, self.csv):
            if os.path.exists(p):
                os.remove(p)

    def run(self, x):
        self._clear()
        p = subprocess.run([sys.executable, "-m", "cwpoly.cli"] + self.argv(x),
                           cwd=self.workdir, env=self.env, capture_output=True,
                           text=True, timeout=CLI_TIMEOUT_S)
        return p.returncode, p.stdout, p.stderr

    def run_traced(self, x):
        self._clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(self.argv(x))
            except SystemExit as e:
                rc = e.code
        return rc, out.getvalue(), err.getvalue()

    def check(self, x, result):
        rc, out, err = result
        if rc != 0:
            return Outcome(False, False, f"exit {rc}: {err.strip()[-200:]}")
        try:
            doc = json.loads(out)
        except ValueError:
            return Outcome(False, True, "exit 0 but stdout is not JSON")
        if x[0] == "verify":
            s = doc["summary"]
            if s["total"] != len(doc["checks"]) or s["passed"] + s["failed"] != s["total"]:
                return Outcome(False, True, f"inconsistent summary {s}")
            return Outcome(s["failed"] == 0, False,
                           f"{s['failed']} checks failed" if s["failed"] else "")
        try:
            with open(self.svg, encoding="utf-8") as f:
                svg = f.read()
            with open(self.csv, encoding="utf-8") as f:
                rows = f.read().splitlines()
        except OSError as e:
            return Outcome(False, True, f"exit 0 but side output missing: {e}")
        if "<svg" not in svg or rows[:1] != ["k,SA_M,SA_N,diameter"] \
                or len(rows) != len(doc["steps"]) + 1:
            return Outcome(False, True, "SVG or CSV does not match the JSON result")
        bad = [c["check_id"] for c in doc["checks"] if not c["pass"]]
        return Outcome(doc["converged"] and not bad, False,
                       f"converged={doc['converged']}, failed checks {bad}")


NAMES = ("exact-verify", "exact-ledger", "float-converge", "cli-cold")


def make(name: str, workdir: str, src: str) -> Workload:
    if name == "cli-cold":
        return CliCold(workdir, src)
    for cls in (ExactVerify, ExactLedger, FloatConverge):
        if cls.name == name:
            return cls()
    raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(NAMES)})")
