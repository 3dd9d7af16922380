"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All rational-backend criteria demand exact equality (tolerance zero); the
float-only convergence criterion uses the stated 1e-6 diameter threshold.
"""
import json
import random
import time
from fractions import Fraction as F

from cwpoly import (
    ConvexPolygon,
    PairedPolygon,
    Vec2,
    ball_from_dual,
    build_plane,
    central_equidistant,
    chakerian_invariant,
    check_trace,
    containment_check,
    cusps_of_central,
    dual_ball,
    equidistant,
    evolute,
    evolute_cusps,
    half_arc_length,
    half_area_identity,
    involute,
    iterate_involutes,
    min_convex_c,
    polygon_area,
    signed_area,
    signed_area_gap,
    v_length,
)
from cwpoly.fuzz import random_centered_ball, random_cw_plane, random_rational
from cwpoly.iterate import convex_parent_of_m


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def _planes(seed: int, count: int):
    rng = random.Random(seed)
    return [random_cw_plane(rng) for _ in range(count)]


def test_criterion_01_triangle_golden_walkthrough():
    plane = build_plane(ConvexPolygon.from_points([(0, 0), (1, 0), (0, 1)]), F(1, 2))
    ce = central_equidistant(plane)
    inv = involute(ce, plane.V)
    ev = evolute(plane.P.vertices, plane.U, plane.V)

    grid = [(0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)]
    ok = [(p.x, p.y) for p in plane.U.vertices] == [(F(a), F(b)) for a, b in grid]
    grid_v = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    ok &= [(p.x, p.y) for p in plane.V.vertices] == [(F(a), F(b)) for a, b in grid_v]
    medial = [(F(0), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 2), F(0))] * 2
    ok &= [(p.x, p.y) for p in ce.M] == medial
    ok &= ce.alphas == [F(1, 2), F(-1, 2)] * 3
    ok &= ce.betas == [F(1, 4), F(-1, 4)] * 3
    area_u = polygon_area(plane.U.vertices)
    ok &= area_u == 3
    lv = v_length(plane.P.vertices, plane.V, closed=True)
    ok &= lv == 3 == 2 * F(1, 2) * area_u
    sa_m, sa_n = signed_area(ce.M), signed_area(inv.N)
    gap = signed_area_gap(ce.betas, plane.V)
    ok &= sa_m == F(1, 4) and sa_n == F(1, 16)
    ok &= sa_m - sa_n == gap == F(3, 16)
    ok &= all(ev.mus[i] + ev.mus[i + 3] == 1 for i in range(3))
    _report(1, "triangle golden walkthrough", bool(ok))


def test_criterion_02_barbier_exact_1000():
    rng = random.Random(1002)
    bad = 0
    t0 = time.time()
    for _ in range(1000):
        plane = random_cw_plane(rng)
        ce = central_equidistant(plane)
        c = random_rational(rng, 0, 2)
        expected = 2 * c * polygon_area(plane.U.vertices)
        actual = v_length(equidistant(ce, plane.U, c).vertices, plane.V, closed=True)
        if expected != actual:
            bad += 1
    _report(2, "Barbier exact on 1000 random CW polygons", bad == 0,
            f"({time.time() - t0:.1f}s)")


def test_criterion_03_duality_involution_1000():
    rng = random.Random(1003)
    bad = 0
    for _ in range(1000):
        ball = random_centered_ball(rng, rng.randint(2, 8))
        v = dual_ball(ball)
        if ball_from_dual(v).vertices != ball.vertices:
            bad += 1
            continue
        w = dual_ball(v)
        m = 2 * ball.n
        if any(w.vertices[i] != ball.vertices[(i + ball.n + 1) % m] for i in range(m)):
            bad += 1
    _report(3, "duality involution exact on 1000 centered polygons", bad == 0)


def test_criterion_04_defining_forms_agree():
    bad = 0
    for plane in _planes(1004, 400):
        ce = central_equidistant(plane)
        ev = evolute(plane.P.vertices, plane.U, plane.V)
        inv = involute(ce, plane.V)
        m = 2 * plane.n
        for i in range(m):
            e1 = plane.P.vertices[i] - plane.U.vertices[i] * ev.mus[i]
            e2 = plane.P.vertices[(i + 1) % m] - plane.U.vertices[(i + 1) % m] * ev.mus[i]
            n1 = ce.M[i] + plane.V.vertices[i] * ce.betas[i]
            n2 = ce.M[(i + 1) % m] + plane.V.vertices[i] * ce.betas[(i + 1) % m]
            if e1 != e2 or e1 != ev.E[i] or n1 != n2 or n1 != inv.N[i]:
                bad += 1
    _report(4, "evolute/involute defining forms agree (400 instances)", bad == 0)


def test_criterion_05_signed_area_chain_200x16():
    t0 = time.time()
    bad = []
    for idx, plane in enumerate(_planes(1005, 200)):
        trace = iterate_involutes(plane, max_steps=16, tol=1e-300)
        results = check_trace(trace, plane)
        if not all(c.ok for c in results):
            bad.append((idx, [c.check_id for c in results if not c.ok]))
    _report(5, "signed-area chain and sum-of-squares over 200 x 16 steps",
            not bad, f"({time.time() - t0:.1f}s){' ' + str(bad[:3]) if bad else ''}")


def test_criterion_06_containment_200():
    t0 = time.time()
    failures = []
    for idx, plane in enumerate(_planes(1006, 200)):
        ce = central_equidistant(plane)
        inv = involute(ce, plane.V)
        parent = convex_parent_of_m(ce.M, plane.U)
        res = containment_check(inv.N, parent, samples=16)
        if not res.contained:
            failures.append((idx, res.witnesses[:2]))
    detail = f"({time.time() - t0:.1f}s)"
    if failures:
        detail += f" RED ALERT: containment violated on {len(failures)} instances"
    _report(6, "involute contained in central region, 200 instances", not failures, detail)


def test_criterion_07_float_convergence_100():
    t0 = time.time()
    bad = []
    rng = random.Random(1007)
    for idx in range(100):
        plane_r = random_cw_plane(rng)
        paired = PairedPolygon(
            [Vec2(float(p.x), float(p.y)) for p in plane_r.P.vertices])
        plane = build_plane(paired, 0.5)
        trace = iterate_involutes(plane, max_steps=10_000, tol=1e-6)
        diams = [s.diam_m for s in trace.steps]
        monotone = all(b <= a + 1e-12 for a, b in zip(diams, diams[1:]))
        if not (trace.converged and monotone):
            bad.append(idx)
    _report(7, "float convergence below 1e-6 within 10k steps, 100 instances",
            not bad, f"({time.time() - t0:.1f}s)")


def test_criterion_08_half_polygon_invariant():
    rng = random.Random(1008)
    bad = 0
    for plane in _planes(1009, 200):
        ce = central_equidistant(plane)
        area_u = polygon_area(plane.U.vertices)
        for _ in range(2):
            c = max(min_convex_c(ce), F(0)) + random_rational(rng)
            try:
                chakerian_invariant(ce, plane.U, c)  # constancy + closed form
            except Exception:
                bad += 1
                continue
            pc = equidistant(ce, plane.U, c).vertices
            area_pc = polygon_area(pc)
            for i in range(2 * plane.n):
                a1 = half_area_identity(ce, plane.U, i, c).a1
                lv = half_arc_length(ce, plane.U, i, c)
                if 2 * c * lv - 2 * a1 != 2 * c * c * area_u - area_pc:
                    bad += 1
    _report(8, "half-polygon invariant constant in i with closed form", bad == 0)


def test_criterion_09_cusp_parity():
    bad = 0
    skipped = 0
    for plane in _planes(1010, 200):
        ce = central_equidistant(plane)
        mc = cusps_of_central(ce)
        if mc is None:
            skipped += 1
            continue
        ev = evolute(plane.P.vertices, plane.U, plane.V)
        ec = evolute_cusps(ev)
        if len(mc) % 2 == 0 or len(mc) < 3:
            bad += 1
        if ec is None or len(ec) % 2 == 0 or len(ec) < len(mc):
            bad += 1
    _report(9, "cusp parity: M odd >= 3, evolute odd >= cusps(M)", bad == 0,
            f"({skipped} symmetric skipped)")


def test_criterion_10_cli_contract(tmp_path, run_python):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
    bad_poly = tmp_path / "bad.json"
    bad_poly.write_text(json.dumps(
        {"vertices": [[0, 0], [2, 0], [1, "1/2"], [2, 2], [0, 2]]}))
    nudged = tmp_path / "nudged.json"
    nudged.write_text(json.dumps(
        {"vertices": [[3, 0], [5, 2], [4, 5], [1, 4], [-1, 2], [0, 0]]}))
    name = "CLI contract: exit codes, SVG determinism, JSON round-trip"
    wrong_exits = []

    def run(expected, *argv):
        r = run_python("-m", "cwpoly.cli", *argv, cwd=tmp_path)
        if r.returncode != expected:
            wrong_exits.append(f"`cw {' '.join(argv)}` exited {r.returncode}, "
                               f"expected {expected}: {r.stderr.strip()}")

    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(0, "verify", str(tri), "--samples", "2")
    run(2, "ball", str(tmp_path / "missing.json"))
    run(2, "ball", str(bad_poly))
    run(3, "verify", str(nudged), "--paired")
    run(0, "ball", str(tri), "--svg", str(svg_a), "--out", str(tmp_path / "j1.json"))
    run(0, "ball", str(tri), "--svg", str(svg_b), "--out", str(tmp_path / "j2.json"))
    if wrong_exits:
        _report(10, name, False, "; ".join(wrong_exits))

    ok = svg_a.read_bytes() == svg_b.read_bytes()
    ok &= (tmp_path / "j1.json").read_text() == (tmp_path / "j2.json").read_text()

    from cwpoly.backend import RATIONAL
    from cwpoly.docio import document_json, load_document

    doc = tmp_path / "frac.json"
    doc.write_text(json.dumps({"vertices": [["1/3", 0.25], [1, 0], [0, "7/2"]]}))
    _, pts = load_document(str(doc), RATIONAL)
    doc2 = tmp_path / "frac2.json"
    doc2.write_text(json.dumps(document_json(pts, RATIONAL)))
    _, pts2 = load_document(str(doc2), RATIONAL)
    ok &= pts == pts2 and pts[0].x == F(1, 3) and pts[0].y == F(1, 4)

    _report(10, name, bool(ok))
