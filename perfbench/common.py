"""Shared pieces of the cwpoly benchmark: the checkout layout, the metric
spec in BENCHMARK.json, the environment block and order statistics.

Nothing here imports cwpoly, so these helpers work before the package
source has been located.
"""
from __future__ import annotations

import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def use_checkout(root: str) -> str:
    """Make `import cwpoly` load the checkout's source, and nothing else;
    returns the absolute path of that source."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "cwpoly", "__init__.py")):
        raise BenchError(f"no cwpoly source under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import cwpoly

    where = os.path.dirname(os.path.abspath(cwpoly.__file__))
    if where != os.path.join(src, "cwpoly"):
        raise BenchError(f"cwpoly was imported from {where}, not from {src}")
    return src


def load_spec(root: str) -> dict:
    """BENCHMARK.json of the checkout: workloads and metric names, units, bounds."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def cli_env(src: str) -> dict:
    """Environment for `python -m cwpoly.cli`: the package on an absolute path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def git_rev(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    env = dict(os.environ)
    # never let git look above the checkout
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.path.abspath(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_block(root: str, seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_rev": git_rev(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density.

    A plain order statistic jumps when the quantile sits on the step between
    two groups of inputs, as p90 does when one op in ten is a large polygon;
    this estimate moves smoothly with the sample.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Simpson's rule over each interval ((i-1)/n, i/n)
    weights = [density((i - 1) / n) + 4 * density((i - 0.5) / n) + density(i / n)
               for i in range(1, n + 1)]
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total
