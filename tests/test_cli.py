"""CLI contract: exit codes, JSON round-trips, deterministic SVG, CSV trace."""
import hashlib
import json
import math
import os
import random
import stat
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwpoly.cli
from cwpoly import Layer, render_svg
from cwpoly.backend import RATIONAL
from cwpoly.cli import main
from cwpoly.docio import document_json, dump_json, load_document
from cwpoly.fuzz import random_convex_polygon
from cwpoly.iterate import TraceCheck, _sci


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


def test_evolute_triangle(triangle_doc, tmp_path, capsys):
    svg = tmp_path / "ev.svg"
    assert main(["evolute", triangle_doc, "--svg", str(svg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cusps"] == [0, 1, 2]
    assert len(out["mus"]) == 2 * out["n"] == 6
    assert 'id="evolute-e"' in svg.read_text()


def test_involute_triangle(triangle_doc, tmp_path, capsys):
    svg = tmp_path / "inv.svg"
    assert main(["involute", triangle_doc, "--svg", str(svg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"n", "involute", "betas", "degenerate", "signed_area_central",
                        "signed_area_involute", "signed_area_gap"}
    assert len(out["involute"]) == len(out["betas"]) == 2 * out["n"] == 6
    assert out["degenerate"] is False
    sa_m, sa_n, gap = (F(out[k]) for k in ("signed_area_central", "signed_area_involute",
                                          "signed_area_gap"))
    assert (sa_m, sa_n, gap) == (F(1, 4), F(1, 16), F(3, 16))
    assert gap == sa_m - sa_n
    text = svg.read_text()
    for group in ("polygon-p", "central-m", "involute-n"):
        assert f'id="{group}"' in text


@pytest.mark.parametrize("cmd, code", [("central", 0), ("verify", 3)])
def test_float_paired_alphas_all_near_zero(tmp_path, capsys, cmd, code):
    # M is not a single point under same_point, yet every alpha lies within
    # the float tolerance of zero: there is no sign to change, so no cusps
    path = tmp_path / "flat.json"
    path.write_text("[[1399.9999999979,-799.9999999988],[1299.99999999775,-399.9999999982],"
                    "[-100.00000000015,400.0000000006],[-1400.0000000021,800.0000000012],"
                    "[-1300.00000000225,400.0000000018],[99.99999999985,-399.9999999994]]")
    assert main([cmd, str(path), "--backend", "float", "--paired"]) == code
    captured = capsys.readouterr()
    if cmd == "central":
        assert json.loads(captured.out)["cusps"] is None
    else:
        assert "verify: 6 of 22 checks failed" in captured.err


# SHA-256 of stdout, SVG and CSV of the rational `cw iterate --steps 2` on the
# triangle, with the default --c, --d and --tol
GOLDEN_ITERATE_SHA256 = {
    "stdout": "bb329ba5e6c2b8116338a79aa43d3bbfd7a806aeefc827960474ae0078f84cb4",
    "svg": "a2cba05f775307e27b8522c4fa3ab259b871d7a1858838c32476166bec09e80b",
    "csv": "9c8c2273a08911e89cc81bc4e613d5ab63602f36de1f7e28b6bedfaaff27f97a",
}


def test_iterate_golden_bytes(triangle_doc, tmp_path, capsys):
    svg, csv = tmp_path / "it.svg", tmp_path / "it.csv"
    assert main(["iterate", triangle_doc, "--steps", "2",
                 "--svg", str(svg), "--csv", str(csv)]) == 0
    got = {"stdout": capsys.readouterr().out.encode(),
           "svg": svg.read_bytes(), "csv": csv.read_bytes()}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == GOLDEN_ITERATE_SHA256
    assert b'id="iterate-k1"' in got["svg"] and b'id="iterate-k2"' in got["svg"]


def test_iterate_trace_and_csv(triangle_doc, tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    assert main(["iterate", triangle_doc, "--steps", "6", "--csv", str(csv_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["O"] == ["1/3", "1/3"]
    assert [c["pass"] for c in out["checks"]] == [True] * 4
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,SA_M,SA_N,diameter"
    assert len(lines) == len(out["steps"]) + 1


def test_exit_3_iterate_ledger_failure(triangle_doc, tmp_path, capsys, monkeypatch):
    # a failed ledger check exits 3 after the JSON is printed and the CSV
    # written
    failed = TraceCheck("iterate.gap_identities", False, "beta gap fails at k=1")
    monkeypatch.setattr(cwpoly.cli, "check_trace", lambda trace, plane: [failed])
    csv = tmp_path / "trace.csv"
    assert main(["iterate", triangle_doc, "--steps", "2", "--csv", str(csv)]) == 3
    out = capsys.readouterr()
    assert out.err.endswith("iterate: ledger verification failed\n")
    assert json.loads(out.out)["checks"] == [
        {"check_id": "iterate.gap_identities", "pass": False, "detail": "beta gap fails at k=1"}]
    assert csv.read_text().startswith("k,SA_M,SA_N,diameter\n0,")


def test_verify_triangle_report(triangle_doc, capsys):
    assert main(["verify", triangle_doc, "--seed", "5", "--samples", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["failed"] == 0
    assert out["seed"] == 5
    ids = {c["check_id"] for c in out["checks"]}
    assert "cw.barbier" in ids and "iterate.ledger" in ids
    barbier = next(c for c in out["checks"] if c["check_id"] == "cw.barbier")
    assert barbier["backend"] == "rational"


# SHA-256 of the rational `cw verify` JSON on stdout (default flags), recorded
# before containment moved onto one integer frame per check; the containment
# check's "N samples, min chords K" line is part of it
GOLDEN_VERIFY_SHA256 = {
    "tri": "7649e3fc7705906e5afff3fdea515cab7a79f398f905049f4ce9613c2b0c50b2",
    "quad": "485816ca0c202d90aefc530c7e154ea864fdd3808f82229ec2b7d70404de80a0",
    "kgon7": "6b871670e8512ae5f21da83bd4786645d33b765f0f3be8bf4794a12f905920a8",
}


def test_verify_golden_stdout(tmp_path, capsys):
    seven = [[round(1000 * math.cos(2 * math.pi * j / 7)),
              round(1000 * math.sin(2 * math.pi * j / 7))] for j in range(7)]
    docs = {"tri": {"name": "tri", "vertices": [[0, 0], [1, 0], [0, 1]]},
            "quad": {"vertices": [[0, 0], [4, 0], [5, 3], [1, 5]]},
            "kgon7": {"name": "kgon7", "vertices": seven}}
    got = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 0
        got[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN_VERIFY_SHA256


def test_verify_float_backend(triangle_doc, capsys):
    assert main(["verify", triangle_doc, "--backend", "float", "--samples", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["failed"] == 0


@pytest.mark.parametrize("args", [["verify"], ["iterate"], ["iterate", "--steps", "1"],
                                  ["iterate", "--steps", "1", "--csv"]])
def test_huge_triangle_exits_zero(tmp_path, capsys, args):
    # every coordinate and diameter is a valid float, but the squared
    # diameter 2e320 is not, nor after one step the ledger's slack, nor the
    # signed areas (about 1e319) of the CSV; the report must not need any
    # of them as a float
    path = tmp_path / "huge.json"
    csv = tmp_path / "trace.csv"
    big = 10 ** 160
    path.write_text(json.dumps({"vertices": [[0, 0], [big, 0], [0, big]]}))
    extra = [str(csv)] if args[-1] == "--csv" else []
    assert main([args[0], str(path)] + args[1:] + extra) == 0
    out = json.loads(capsys.readouterr().out)
    if args[0] == "verify":
        assert out["summary"]["failed"] == 0
    else:
        assert math.isclose(out["steps"][0]["diameter"], math.sqrt(2) * 1e160 / 2,
                            rel_tol=1e-15)
        assert all(c["pass"] for c in out["checks"])
    if extra:
        rows = csv.read_text().splitlines()
        assert rows[1:] == [f"{s['k']},{_sci(F(s['sa_m']))},{_sci(F(s['sa_n']))},{s['diameter']!r}"
                            for s in out["steps"]]
        assert rows[1].split(",")[1:3] == ["2.500e+319", "1.000e+320"]


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_verify_near_symmetric_hexagon(tmp_path, capsys, backend):
    # the involute touches its central curve at points where a float step
    # of 1e-7 toward the segment midpoint rounds to no step at all; the
    # backends may pair the hexagon differently, but both verify it
    path = tmp_path / "hex.json"
    path.write_text('{"vertices": [[0,0],[4,0],[6,2],[4,4.0000000001],[0,4],[-2,2]]}')
    assert main(["verify", str(path), "--backend", backend]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["failed"] == 0


@pytest.mark.parametrize("doc", ['{"vertices": null}', '{"vertices": 5}'])
def test_exit_2_vertices_not_a_list(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["ball", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("body, error", [
    (b"\xff\xfe{", "error: cannot decode {} as UTF-8: "),
    (b'{"vertices": [[0, 0], [1, 0]', "error: invalid JSON in {}: "),
    (b'{"vertices": [[0, 0], [1, 0]]}', "error: polygon document needs at least 3 vertices\n"),
], ids=["not-utf8", "truncated-json", "two-vertices"])
def test_exit_2_document_rejections(tmp_path, capsys, body, error):
    path = tmp_path / "doc.json"
    path.write_bytes(body)
    assert main(["ball", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(error.format(path))


@pytest.mark.parametrize("flag", ["--out", "--svg", "--csv"])
def test_exit_2_unwritable_output(triangle_doc, tmp_path, capsys, flag):
    target = str(tmp_path / "missing" / "out")
    assert main(["iterate", triangle_doc, "--steps", "2", flag, target]) == 2
    assert "error: cannot write output" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["beyond-float-range", "missing-dir"])
def test_exit_2_failed_svg_prints_nothing(triangle_doc, tmp_path, capsys, case):
    # the SVG is rendered and written before the JSON is printed: a failed
    # SVG leaves an empty stdout and no SVG file
    doc, svg = triangle_doc, tmp_path / "missing" / "dir" / "x.svg"
    error = "error: cannot write output"
    if case == "beyond-float-range":
        big = 10 ** 400
        doc, svg = tmp_path / "huge.json", tmp_path / "x.svg"
        error = "error: value out of float range"
        doc.write_text(json.dumps({"vertices": [[0, 0], [big, 0], [0, big]]}))
    assert main(["ball", str(doc), "--svg", str(svg)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and error in out.err
    assert not svg.exists()


def test_exit_2_unwritable_out_leaves_no_svg(triangle_doc, tmp_path, capsys):
    # --out is written before the SVG, as the JSON was before the SVG
    svg = tmp_path / "x.svg"
    out = str(tmp_path / "missing" / "x.json")
    assert main(["ball", triangle_doc, "--svg", str(svg), "--out", out]) == 2
    assert capsys.readouterr().out == "" and not svg.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_exit_2_unwritable_svg_leaves_the_csv_as_it_was(triangle_doc, tmp_path, capsys,
                                                        existing):
    # the CSV is written before the SVG, but every target is opened, for
    # append, before any is truncated: a new CSV is removed again, an old
    # one keeps its bytes, and nothing else is left beside it
    folder = tmp_path / "out"
    folder.mkdir()
    csv = folder / "t.csv"
    if existing:
        csv.write_bytes(b"old bytes\n")
    svg = str(folder / "missing" / "x.svg")
    assert main(["iterate", triangle_doc, "--steps", "2", "--csv", str(csv), "--svg", svg]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error: cannot write output" in out.err
    assert (csv.read_bytes() == b"old bytes\n") if existing else not csv.exists()
    assert [p.name for p in folder.iterdir()] == (["t.csv"] if existing else [])


def test_csv_is_written_through_a_symlink(triangle_doc, tmp_path):
    # as open(path, "w") writes: the link stays a link, and the file it
    # points to is truncated to the CSV and keeps its mode
    plain, real, link = tmp_path / "plain.csv", tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_bytes(b"x" * 4096)
    real.chmod(0o640)
    link.symlink_to(real)
    argv = ["iterate", triangle_doc, "--steps", "2", "--csv"]
    assert main(argv + [str(plain)]) == 0
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and real.read_bytes() == plain.read_bytes()
    assert stat.S_IMODE(real.stat().st_mode) == 0o640


@pytest.mark.parametrize("case", ["new", "existing", "symlink"])
def test_exit_2_two_outputs_name_one_file(triangle_doc, tmp_path, capsys, case):
    # refused before any target is truncated, so neither output is written
    # into the other: an existing file keeps its bytes, a new one is removed
    # again, and a symlink to the other target stays as it was
    folder = tmp_path / "out"
    folder.mkdir()
    target = other = folder / "same.txt"
    if case != "new":
        target.write_bytes(b"old bytes\n")
    if case == "symlink":
        other = folder / "link.txt"
        other.symlink_to(target)
    argv = ["iterate", triangle_doc, "--steps", "2", "--csv", str(target), "--svg", str(other)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"error: outputs {target} and {other} name one file\n")
    assert (target.read_bytes() == b"old bytes\n") if case != "new" else not target.exists()
    assert sorted(p.name for p in folder.iterdir()) == {
        "new": [], "existing": ["same.txt"], "symlink": ["link.txt", "same.txt"]}[case]
    assert other.is_symlink() == (case == "symlink")


def test_two_outputs_to_the_null_device(triangle_doc, capsys):
    # a device is no regular file, so it may take two outputs
    argv = ["iterate", triangle_doc, "--steps", "2", "--csv", os.devnull, "--svg", os.devnull]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3


def test_csv_to_the_null_device(triangle_doc, capsys):
    # a device is written, not truncated nor replaced
    assert main(["iterate", triangle_doc, "--steps", "2", "--csv", os.devnull]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("flag, value", [("--c", "x"), ("--d", "1/0")])
def test_iterate_rejects_bad_c_and_d_before_iterating(triangle_doc, capsys, monkeypatch,
                                                      flag, value):
    def no_ladder(*args, **kwargs):
        raise AssertionError("iterate_involutes ran")

    monkeypatch.setattr(cwpoly.cli, "iterate_involutes", no_ladder)
    assert main(["iterate", triangle_doc, flag, value]) == 2
    assert "error: bad scalar" in capsys.readouterr().err


def test_exit_2_unreadable(tmp_path, capsys):
    assert main(["ball", str(tmp_path / "missing.json")]) == 2


def test_exit_2_paired_odd_vertex_count(triangle_doc, capsys):
    assert main(["ball", triangle_doc, "--paired"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: paired polygon document needs an even vertex count\n"


def test_exit_2_nonconvex(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"vertices": [[0, 0], [2, 0], [1, "1/2"], [2, 2], [0, 2]]}))
    assert main(["ball", str(path)]) == 2


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_exit_2_zero_area(tmp_path, run_python, backend):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [2, 0]]}))
    out = run_python("-m", "cwpoly.cli", "verify", str(path), "--backend", backend)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr and out.stdout == ""
    assert "error: polygon has zero area" in out.stderr


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_exit_2_boolean_coordinate(tmp_path, capsys, backend):
    path = tmp_path / "bool.json"
    path.write_text('{"vertices": [[0, 0], [3, 0], [0, true]]}')
    assert main(["ball", str(path), "--backend", backend]) == 2
    assert "boolean is not a coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_exit_2_negative_samples(triangle_doc, run_python, backend):
    out = run_python("-m", "cwpoly.cli", "verify", triangle_doc, "--samples", "-1",
                     "--backend", backend)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr and out.stdout == ""
    assert "error: samples must be nonnegative" in out.stderr


def test_exit_2_degenerate_diagonal(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 1], [2, 2]]}))
    assert main(["central", str(path)]) == 2


@pytest.mark.parametrize("a", ["0", "-1/2"])
def test_exit_2_nonpositive_half_width(triangle_doc, capsys, a):
    assert main(["ball", triangle_doc, f"--a={a}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1] == "error: half-width parameter a must be positive"


def test_negative_half_width_as_separate_word(triangle_doc, capsys):
    # -p/q after --a is its value, not an option, and reaches the value check
    assert main(["ball", triangle_doc, "--a", "-1/2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1] == "error: half-width parameter a must be positive"


@pytest.mark.parametrize("split, joined", [
    (["central", "--c", "-1/2"], ["central", "--c=-1/2"]),
    (["iterate", "--steps", "2", "--c", "-1/2", "--d", "-3/4"],
     ["iterate", "--steps", "2", "--c=-1/2", "--d=-3/4"]),
], ids=["central", "iterate"])
def test_negative_fraction_as_separate_word(triangle_doc, tmp_path, capsys, split, joined):
    # --c -1/2 prints the same bytes, and draws the same SVG, as --c=-1/2
    outs = []
    for k, argv in enumerate((split, joined)):
        svg = tmp_path / f"{k}.svg"
        assert main([argv[0], triangle_doc, *argv[1:], "--svg", str(svg)]) == 0
        outs.append((capsys.readouterr().out, svg.read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flags, reason", [
    (["ball", "--a", "x"], "Invalid literal for Fraction: 'x'"),
    (["ball", "--a", "1/0"], "zero denominator"),
    (["ball", "--backend", "float", "--a", "inf"], "not a finite number"),
    (["ball", "--backend", "float", "--a", "nan"], "not a finite number"),
    (["ball", "--a", "Infinity"], "not a finite number"),
    (["ball", "--backend", "float", "--a", "1e400"], "out of float range"),
    (["iterate", "--c", "x"], "Invalid literal for Fraction: 'x'"),
    (["iterate", "--d", "1/0"], "zero denominator"),
], ids=["a=x", "a=1/0", "float-a=inf", "float-a=nan", "a=Infinity", "float-a=1e400",
        "c=x", "d=1/0"])
def test_exit_2_bad_scalar_flag(triangle_doc, run_python, flags, reason):
    # a zero denominator and a nan or infinity literal are worded as such,
    # not as the converter's ZeroDivisionError or literal error
    cmd, *rest = flags
    out = run_python("-m", "cwpoly.cli", cmd, triangle_doc, *rest)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    value = rest[-1]
    assert f"error: bad scalar '{value}': " in out.stderr
    assert out.stderr.rstrip().endswith(reason)


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_exit_2_bad_tol(triangle_doc, run_python, backend, tol):
    out = run_python("-m", "cwpoly.cli", "iterate", triangle_doc,
                     "--backend", backend, "--tol", tol)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "error: tol must be finite and positive" in out.stderr


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("flags, error", [
    (["iterate", "--steps", "0"], "max_steps must be at least 1"),
    (["iterate", "--tol", "nan"], "tol must be finite and positive, got nan"),
    (["iterate", "--tol", "0"], "tol must be finite and positive, got 0.0"),
    (["iterate", "--tol", "inf"], "tol must be finite and positive, got inf"),
    (["ball"], "bad coordinate inf: non-finite coordinate inf"),
], ids=["steps=0", "tol=nan", "tol=0", "tol=inf", "infinite-coordinate"])
def test_exit_2_rejections_in_process(triangle_doc, tmp_path, capsys, flags, error, backend):
    # the step and tolerance checks of iterate_involutes and the float
    # backend's coordinate check, reached in this process
    doc = triangle_doc
    if flags == ["ball"]:
        doc = tmp_path / "inf.json"
        doc.write_text('{"vertices": [[0, 0], [3, 0], [0, Infinity]]}')
    cmd, *rest = flags
    assert main([cmd, str(doc), *rest, "--backend", backend]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1] == f"error: {error}"


@pytest.mark.parametrize("coord, shown", [
    ('"1e400"', "'1e400'"),
    ("1" + "0" * 400, "1" + "0" * 400),
], ids=["string", "integer"])
def test_exit_2_float_coordinate_out_of_range(tmp_path, capsys, coord, shown):
    # a document coordinate beyond float range is worded as such on the float
    # backend, as the --a flag is, and read exactly on the rational one
    doc = tmp_path / "big.json"
    doc.write_text(f'{{"vertices": [[0, 0], [3, 0], [0, {coord}]]}}')
    assert main(["ball", str(doc), "--backend", "float"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1] == f"error: bad coordinate {shown}: out of float range"
    assert main(["ball", str(doc)]) == 0


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


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("cmd", ["ball", "dual", "central", "evolute", "involute", "iterate"])
def test_exit_3_ball_paired_not_constant_width(tmp_path, capsys, cmd, backend):
    # the nudged hexagon builds two convex balls, but its edge 1 is not
    # parallel to the ball's: every command but verify reports the identity
    # failure of the input once, in the same words, and prints nothing
    path = tmp_path / "nudged.json"
    path.write_text(json.dumps(
        {"vertices": [[3, 0], [5, 2], [4, 5], [1, 4], [-1, 2], [0, 0]]}))
    assert main([cmd, str(path), "--paired", "--backend", backend]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("identity failure: not of constant width "
                            "(index 1: edge not parallel to ball edge)\n")


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("cmd", ["ball", "dual"])
def test_ball_paired_constant_width_unchanged(tmp_path, capsys, cmd, backend):
    # the paired form that ball prints, read back with --paired, is of
    # constant width, and both commands print what they print for the
    # polygon it came from
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [4, 0], [5, 3], [1, 5]]}))
    assert main(["ball", str(poly), "--backend", backend]) == 0
    paired = tmp_path / "paired.json"
    paired.write_text(json.dumps({"vertices": json.loads(capsys.readouterr().out)["paired"]}))
    assert main([cmd, str(poly), "--backend", backend]) == 0
    want = capsys.readouterr()
    assert main([cmd, str(paired), "--paired", "--backend", backend]) == 0
    got = capsys.readouterr()
    assert got.out == want.out and got.err == ""


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_exit_3_paired_with_collinear_vertices(tmp_path, capsys, backend):
    # U passes its paired checks, but three of its vertices are collinear,
    # so the dual ball V has a zero edge determinant: every check that
    # divides by it fails with the ball's one zero test, not a traceback
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps([["1/2", "-1/2"], ["1/2", "0"], ["1/2", "1/2"],
                                ["-1/2", "1/2"], ["-1/2", "0"], ["-1/2", "-1/2"]]))
    assert main(["verify", str(path), "--paired", "--backend", backend]) == 3
    captured = capsys.readouterr()
    assert "verify: 5 of 22 checks failed" in captured.err
    out = json.loads(captured.out)
    failed = {c["check_id"]: c["actual"] for c in out["checks"] if not c["pass"]}
    for check_id in ("ball.dual_involution", "ball.dual_recovery", "involute.structure"):
        assert failed[check_id] == "error: degenerate ball edge at index 0"


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


@pytest.fixture
def huge_doc(tmp_path):
    """A triangle with a 5001-digit coordinate, past Python's default limit
    on converting integers to and from decimal strings."""
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": [[0, 0], [%s, 0], [0, 1]]}' % ("7" * 5001))
    return str(path)


def test_huge_integer_rational_roundtrip(huge_doc, run_python):
    out = run_python("-m", "cwpoly.cli", "ball", huge_doc)
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    # parse_int=str: this process keeps the default conversion limit
    assert json.loads(out.stdout, parse_int=str)["paired"][1] == ["7" * 5001, "0"]


@pytest.mark.parametrize("argv", [["ball", "--backend", "float"],
                                  ["iterate", "--steps", "2"]])
def test_huge_integer_exit_2(huge_doc, run_python, argv):
    # a float plane cannot hold the coordinate, and the exact iteration
    # cannot report its diameter as a float: both are input errors
    out = run_python("-m", "cwpoly.cli", argv[0], huge_doc, *argv[1:])
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr and out.stderr.startswith("error:")


def test_exit_2_not_utf8(tmp_path, run_python):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xe9t\xe9", "vertices": [[0, 0], [1, 0], [0, 1]]}')
    out = run_python("-m", "cwpoly.cli", "ball", str(path))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "UTF-8" in out.stderr


_COMMANDS = ["ball", "dual", "central", "evolute", "involute", "iterate", "verify"]
_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.floats(allow_nan=True, allow_infinity=True), st.integers(-10**20, 10**20))
_coord = st.one_of(st.integers(-6, 6), st.floats(-6, 6),
                   st.sampled_from(["1/2", "-3/4", "1/0", "x", "1e400", "nan"]), _junk)
_vertex = st.one_of(st.lists(_coord, min_size=2, max_size=2), st.lists(_coord, max_size=3), _junk)
_convex = st.builds(
    lambda seed, k: [[str(p.x), str(p.y)] for p in
                     random_convex_polygon(random.Random(seed), k).vertices],
    st.integers(0, 10**6), st.integers(3, 8))
_document = st.one_of(
    _convex, _convex, st.fixed_dictionaries({"vertices": _convex}, optional={"name": _junk}),
    st.lists(_vertex, max_size=8),
    st.fixed_dictionaries({"vertices": st.one_of(st.lists(_vertex, max_size=8), _junk)}),
    st.dictionaries(st.text(max_size=3), _junk, max_size=2), _junk)
# mostly valid scalars, so that the geometry runs as well as the parsers
_scalar = st.sampled_from(["1/2", "1", "3/7", "0.25"] * 3
                          + ["0", "-1", "-1/2", "x", "1/0", "1e-3", "inf", "nan"])


@st.composite
def _cli_args(draw, outdir):
    """A document and a cw command line over it, flags drawn per command."""
    cmd = draw(st.sampled_from(_COMMANDS))
    path = outdir / "doc.json"
    path.write_text(json.dumps(draw(_document)))
    argv = [cmd, str(path), "--backend", draw(st.sampled_from(["rational", "float"]))]
    if draw(st.sampled_from([False, False, False, True])):
        argv.append("--paired")
    argv += ["--a", draw(_scalar)]
    # an output goes nowhere, to a writable file, or into a missing directory
    sink = st.sampled_from([None, str(outdir / "out"), str(outdir / "missing" / "out")])
    outputs = {"--out": draw(sink), "--svg": draw(sink)}
    if cmd == "iterate":
        argv += ["--steps", str(draw(st.integers(-1, 4))), "--c", draw(_scalar),
                 "--d", draw(_scalar)]
        if draw(st.booleans()):
            argv += ["--tol", draw(_scalar)]
        outputs["--csv"] = draw(sink)
    elif cmd == "verify":
        argv += ["--samples", str(draw(st.integers(-1, 2))),
                 "--seed", str(draw(st.integers(0, 9)))]
    elif cmd == "central" and draw(st.booleans()):
        argv += ["--c", draw(_scalar)]
    for flag, target in outputs.items():
        if target is not None:
            argv += [flag, target]
    return argv


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_exit_codes_fuzz(tmp_path_factory, data):
    # the exit-code contract: 0, 2 or 3 for every document and flag set,
    # never a traceback; argparse rejects bad flags with SystemExit(2)
    argv = data.draw(_cli_args(tmp_path_factory.mktemp("cli")))
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code in (0, 2, 3), argv
