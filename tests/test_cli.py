"""CLI contract: exit codes, JSON round-trips, deterministic SVG, CSV trace."""
import json
from fractions import Fraction as F

import pytest

from cwpoly import Layer, render_svg
from cwpoly.backend import RATIONAL
from cwpoly.cli import main
from cwpoly.docio import document_json, dump_json, load_document


@pytest.fixture
def triangle_doc(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(
        {"name": "tri", "vertices": [[0, 0], [1, 0], [0, 1]]}))
    return str(path)


@pytest.fixture
def hexagon_doc(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(
        {"vertices": [[3, 0], [5, 2], [4, 4], [1, 4], [-1, 2], [0, 0]]}))
    return str(path)


def run_cli(*argv, capsys=None):
    return main(list(argv))


def test_ball_exit_zero(triangle_doc, capsys):
    assert main(["ball", triangle_doc, "--a", "1/2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 3
    assert out["unit_ball"] == [[0, -1], [1, -1], [1, 0], [0, 1], [-1, 1], [-1, 0]]


def test_dual_output(triangle_doc, capsys):
    assert main(["dual", triangle_doc]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dual_ball"] == [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]]


def test_central_degenerate_flag(hexagon_doc, capsys):
    assert main(["central", hexagon_doc]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degenerate"] is True
    assert out["cusps"] is None


def test_central_triangle_values(triangle_doc, capsys):
    assert main(["central", triangle_doc]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alphas"] == ["1/2", "-1/2"] * 3
    assert out["betas"] == ["1/4", "-1/4"] * 3
    assert out["cusps"] == [0, 1, 2]


def test_iterate_trace_and_csv(triangle_doc, tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    assert main(["iterate", triangle_doc, "--steps", "6", "--csv", str(csv_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["O"] == ["1/3", "1/3"]
    assert [c["pass"] for c in out["checks"]] == [True] * 4
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,SA_M,SA_N,diameter"
    assert len(lines) == len(out["steps"]) + 1


def test_verify_triangle_report(triangle_doc, capsys):
    assert main(["verify", triangle_doc, "--seed", "5", "--samples", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["failed"] == 0
    assert out["seed"] == 5
    ids = {c["check_id"] for c in out["checks"]}
    assert "cw.barbier" in ids and "iterate.ledger" in ids
    barbier = next(c for c in out["checks"] if c["check_id"] == "cw.barbier")
    assert barbier["backend"] == "rational"


def test_verify_float_backend(triangle_doc, capsys):
    assert main(["verify", triangle_doc, "--backend", "float", "--samples", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["failed"] == 0


def test_exit_2_unreadable(tmp_path, capsys):
    assert main(["ball", str(tmp_path / "missing.json")]) == 2


def test_exit_2_nonconvex(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"vertices": [[0, 0], [2, 0], [1, "1/2"], [2, 2], [0, 2]]}))
    assert main(["ball", str(path)]) == 2


def test_exit_2_degenerate_diagonal(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 1], [2, 2]]}))
    assert main(["central", str(path)]) == 2


@pytest.mark.parametrize("flags", [
    ["ball", "--a", "x"],
    ["ball", "--a", "1/0"],
    ["ball", "--backend", "float", "--a", "inf"],
    ["ball", "--backend", "float", "--a", "1e400"],
    ["iterate", "--c", "x"],
    ["iterate", "--d", "1/0"],
], ids=["a=x", "a=1/0", "float-a=inf", "float-a=1e400", "c=x", "d=1/0"])
def test_exit_2_bad_scalar_flag(triangle_doc, run_python, flags):
    cmd, *rest = flags
    out = run_python("-m", "cwpoly.cli", cmd, triangle_doc, *rest)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "error: bad scalar" in out.stderr


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_exit_2_bad_tol(triangle_doc, run_python, backend, tol):
    out = run_python("-m", "cwpoly.cli", "iterate", triangle_doc,
                     "--backend", backend, "--tol", tol)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "error: tol must be finite and positive" in out.stderr


def test_exit_3_perturbed_paired(tmp_path, capsys):
    # hexagon with one vertex nudged off the parallel pairing, claimed paired
    path = tmp_path / "nudged.json"
    path.write_text(json.dumps(
        {"vertices": [[3, 0], [5, 2], [4, 5], [1, 4], [-1, 2], [0, 0]]}))
    assert main(["verify", str(path), "--paired"]) == 3
    out = json.loads(capsys.readouterr().out)
    failed = {c["check_id"] for c in out["checks"] if not c["pass"]}
    assert "cw.constant_width" in failed
    width_check = next(c for c in out["checks"] if c["check_id"] == "cw.constant_width")
    assert "index" in width_check["actual"]


def test_json_roundtrip_value_identical(tmp_path):
    doc = {"vertices": [["1/3", "2/7"], [1, 0], [0.5, "5/2"], [0, 1]]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc))
    _, pts = load_document(str(path), RATIONAL)
    assert pts[0].x == F(1, 3) and pts[2].x == F(1, 2)
    out = document_json(pts, RATIONAL)
    path2 = tmp_path / "poly2.json"
    path2.write_text(dump_json(out))
    _, pts2 = load_document(str(path2), RATIONAL)
    assert pts == pts2


def test_svg_deterministic(triangle_doc, tmp_path, capsys):
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["ball", triangle_doc, "--svg", str(svg1), "--out", str(tmp_path / "o1.json")]) == 0
    assert main(["ball", triangle_doc, "--svg", str(svg2), "--out", str(tmp_path / "o2.json")]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()


def test_svg_six_layer_scene(triangle_doc):
    from cwpoly import (build_plane, central_equidistant, evolute, involute,
                        ConvexPolygon)

    plane = build_plane(ConvexPolygon.from_points([(0, 0), (1, 0), (0, 1)]), F(1, 2))
    ce = central_equidistant(plane)
    ev = evolute(plane.P.vertices, plane.U, plane.V)
    inv = involute(ce, plane.V)
    svg = render_svg([
        Layer("polygon-p", [plane.P.vertices]),
        Layer("ball-u", [plane.U.vertices]),
        Layer("dual-v", [plane.V.vertices]),
        Layer("central-m", [ce.M]),
        Layer("evolute-e", [ev.E]),
        Layer("involute-n", [inv.N]),
    ])
    for lid in ["polygon-p", "ball-u", "dual-v", "central-m", "evolute-e", "involute-n"]:
        assert f'id="{lid}"' in svg
    assert svg.startswith("<?xml")


def test_svg_equidistant_layer_structure(tmp_path, capsys):
    # two traced equidistants plus the thick central curve
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [4, 0], [5, 3], [1, 5]]}))
    svg_path = tmp_path / "mid.svg"
    assert main(["central", str(path), "--c", "1", "--c", "3/2",
                 "--svg", str(svg_path), "--out", str(tmp_path / "o.json")]) == 0
    svg = svg_path.read_text()
    assert 'id="equidistant-c0"' in svg and 'id="equidistant-c1"' in svg
    assert 'id="central-m"' in svg


def test_svg_empty_scene_rejected():
    from cwpoly import InputError

    with pytest.raises(InputError):
        render_svg([])


def test_console_script_installed(run_python):
    out = run_python("-m", "cwpoly.cli", "--help")
    assert out.returncode == 0
    assert "ball" in out.stdout and "iterate" in out.stdout


def test_float_iterate_imports_no_numpy(triangle_doc, run_python):
    # both backends share one pure-Python ladder; numpy is not a dependency
    code = (
        "import sys\n"
        "from cwpoly.cli import main\n"
        f"assert main(['iterate', {triangle_doc!r}, '--backend', 'float']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
