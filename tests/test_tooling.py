"""The names the benchmark's per-layer tracer patches exist in the package,
the tracer sees the ladder's public functions, the size sweep runs, a
``backend`` parameter appears only where a backend is chosen, printed or
checked, and the containers store only their data."""
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import cwpoly
from cwpoly import (CenteredBall, CentralEquidistant, ConvexPolygon, Evolute, Involute,
                    IterationTrace, MinkowskiPlane, PairedPolygon, iterate, iterate_involutes,
                    kernels)

from conftest import float_copy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
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


def test_tracer_sees_the_ladder(quad_plane):
    # each step of the ladder calls the public functions, so the tracer
    # counts them: per step two diameters and one dual involute; the exact
    # ladder carries its coefficients, so the central equidistant's alphas
    # are the only alpha ladder solved
    with _tracer_module().Tracer() as tr:
        iterate_involutes(quad_plane, max_steps=5, tol=1e-300)
    calls = {name: stat[0] for name, stat in tr.stats.items()}
    assert calls["iterate.diameter_sq"] == 12
    assert calls["evolute.dual_involute"] == 5
    assert calls["cw.alphas_of"] == 1


def test_sweep_times_every_stage(monkeypatch):
    # the per-stage sweep calls evolute(points, U, V, backend) and
    # convex_parent_of_m(M, U, backend); on the 5-gon every stage runs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sweep = importlib.import_module("sweep")
    row = sweep.sweep_one(5)
    assert set(row["seconds"]) == set(sweep.STAGES) and not row["skipped"]
    assert row["checks_ok"] is True


def test_cli_imports_only_the_standard_library(run_python):
    # the package has no runtime dependency: a fresh interpreter that
    # imports the CLI, as every cold `cw` process does, loads no top-level
    # module but cwpoly and the standard library's
    out = run_python("-c", "import sys; before = set(sys.modules); import cwpoly.cli; "
                           "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    assert out.returncode == 0, out.stderr
    new = out.stdout.split()
    assert "cwpoly" in new
    assert [m for m in new if m != "cwpoly" and m not in sys.stdlib_module_names] == []


def test_backend_parameters_only_where_a_backend_is_chosen_stored_printed_or_checked():
    # a helper handed a frame, a framed value or a point list it frames
    # reads the backend from the denominator, so it takes no backend, and
    # no container stores one
    found = set()
    for info in pkgutil.iter_modules(cwpoly.__path__):
        module = importlib.import_module(f"cwpoly.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{key}", value) for key, value in vars(obj).items()]
            for qualname, fn in members:
                fn = getattr(fn, "__func__", fn)  # a classmethod's function
                if inspect.isfunction(fn) and "backend" in inspect.signature(fn).parameters:
                    found.add(f"{info.name}.{qualname}")
    assert found == {
        # chosen: parsed, converted or generated on the backend asked for
        "backend.parse_scalar", "core.vec", "core.ConvexPolygon.from_points",
        "docio.load_document", "docio.load_paired", "docio.load_polygon",
        "fuzz.random_convex_polygon", "fuzz.random_cw_plane", "fuzz.random_centered_ball",
        # printed
        "docio.points_json", "docio.document_json", "verify._s", "verify.Report.__init__",
        # checked against a ball
        "core.CenteredBall.own_backend", "evolute.evolute", "iterate.convex_parent_of_m",
        # handed bare scalars
        "cw.ladder_cusps",
    }


def test_containers_store_only_their_data():
    # backend, n and degenerate are read from the frame of each container's
    # polygon (a trace's backend from M(0), a plane's from P), so they are
    # not fields, and no constructor accepts them
    fields = {
        ConvexPolygon: ["vertices", "notes"],
        PairedPolygon: ["vertices"],
        CenteredBall: ["vertices"],
        MinkowskiPlane: ["P", "U", "V", "a"],
        CentralEquidistant: ["M", "alphas", "betas"],
        Evolute: ["E", "mus"],
        Involute: ["N", "betas"],
        IterationTrace: ["steps", "O", "radius", "converged", "sumsquares", "sa0", "stop_reason"],
    }
    assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in fields} == fields
    assert sum(map(len, fields.values())) == 22


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_ladder_solves_each_coefficient_ladder_on_n_slots(quad_plane, monkeypatch, exact):
    # every M(k) and N(k) is doubled and every ball of the ladder is
    # symmetric, so each edge-coefficient solve covers n slots, not 2n.
    # The central equidistant's alphas are solved once; then per step
    # check_trace solves the alphas of M(k) and of N(k), and the float
    # ladder solves them again, while the exact ladder carries them: 2
    # solves per step exact, 4 float
    plane = quad_plane if exact else float_copy(quad_plane, 1.0)
    sizes = []
    solve = CenteredBall.edge_coeffs

    def spy(ball, wxs, wys, den):
        out = solve(ball, wxs, wys, den)
        sizes.append(len(out.nums))
        return out

    monkeypatch.setattr(CenteredBall, "edge_coeffs", spy)
    n = plane.n
    trace = iterate_involutes(plane, max_steps=3, tol=1e-300)
    assert all(c.ok for c in iterate.check_trace(trace, plane))
    assert len(trace.steps) == 4
    assert sizes == [n] * (1 + (2 if exact else 4) * 3)
