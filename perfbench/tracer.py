"""Call spans around the public functions of cwpoly, recorded from outside.

Tracer replaces each traced function by a wrapper in every cwpoly module
namespace that holds the same object (`verify`, `cli` and the package
`__init__` import names directly, so patching the defining module alone
would miss those calls).  Each wrapper counts calls and adds its self time:
its duration minus the time spent in traced functions it called.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

TARGETS = {
    "core": ("chord_count", "mixed_area", "polygon_area", "minkowski_sum"),
    "ball": ("build_plane",),
    "cw": ("central_equidistant", "alphas_of", "betas_of", "equidistant",
           "half_arc_length", "half_area_identity", "v_length"),
    "evolute": ("evolute", "dual_involute", "edge_world_coeffs", "containment_check"),
    "iterate": ("iterate_involutes", "diameter_sq", "check_trace"),
    "kernels": ("iterate_float",),
    "verify": ("run_verify",),
    "docio": ("load_polygon", "dump_json"),
    "svgout": ("render_svg",),
    "cli": ("main",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class Tracer:
    """Context manager; `stats[name]` is [calls, self seconds], summed over
    every `with` block the tracer is used in.

    `observe` maps a traced name to a callback that receives each return
    value of that function, for counts that live in results.
    """

    def __init__(self, observe=None):
        self.stats = {name: [0, 0.0] for name in NAMES}
        self.observe = observe or {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        seen = self.observe.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                children = stack.pop()
                stats[0] += 1
                stats[1] += dur - children
                if stack:
                    stack[-1] += dur
            if seen is not None:
                seen(result)
            return result

        return wrapper

    def __enter__(self):
        homes = {mod: importlib.import_module(f"cwpoly.{mod}") for mod in TARGETS}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cwpoly" or name.startswith("cwpoly.")]
        for mod, fns in TARGETS.items():
            home = homes[mod]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()
        return False
