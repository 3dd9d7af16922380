"""The names the benchmark's per-layer tracer patches exist in the package."""
import importlib
import importlib.util
from pathlib import Path

from cwpoly import iterate, iterate_involutes, kernels


def _tracer_module():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    for mod, names in _tracer_module().TARGETS.items():
        module = importlib.import_module(f"cwpoly.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"cwpoly.{mod}.{name}"


def test_traced_ladder_counts_steps(triangle_plane):
    # the tracer times the ladder as kernels.iterate_float and reads the
    # number of steps taken from the first element of its result
    assert kernels.iterate_float is iterate._ladder
    results = []
    with _tracer_module().Tracer(observe={"kernels.iterate_float": results.append}) as tr:
        trace = iterate_involutes(triangle_plane, max_steps=5, tol=1e-300)
    assert tr.stats["kernels.iterate_float"][0] == 1
    assert len(results) == 1 and results[0][0] == len(trace.steps) - 1 == 5
