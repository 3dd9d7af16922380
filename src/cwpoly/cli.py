"""Command line surface.

Subcommands mirror the pipeline: ball, dual, central, evolute, involute,
iterate, verify.  Input is a polygon document (JSON); results go to stdout
as JSON, with optional SVG and CSV side outputs.  Exit codes: 0 success,
2 invalid input, 3 failed mathematical identity.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import re
import stat
import sys

from .backend import get_backend, parse_scalar
from .ball import build_plane, is_constant_width
from .core import GeometryError, IdentityError, InputError, frame_of
from .cw import central_equidistant, cusps_of_central, equidistant, min_convex_c
from .docio import dump_json, load_paired, load_polygon, points_json
from .evolute import evolute, evolute_cusps, involute, signed_area, signed_area_gap
from .iterate import _sci, check_trace, iterate_involutes, width_family
from .svgout import Layer, render_svg
from .verify import run_verify


def _add_common(p: argparse.ArgumentParser):
    # argparse's negative numbers, and -p/q, are flag values, not options
    p._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")
    p.add_argument("input", help="polygon document (JSON)")
    p.add_argument("--backend", choices=["rational", "float"], default="rational")
    p.add_argument("--paired", action="store_true",
                   help="treat the input vertex list as an already-paired 2n list")
    p.add_argument("--a", default="1/2", help="half-width parameter (rational like 1/2)")
    p.add_argument("--svg", help="write an SVG rendering to this path")
    p.add_argument("--out", help="write the JSON result to this path instead of stdout")


def _plane(args, strict: bool = True):
    """The plane and its backend; for a --paired list and a strict plane
    (all but ``verify``) an identity failure unless it has constant width."""
    backend = get_backend(args.backend)
    if args.paired:
        poly = load_paired(args.input, backend)
    else:
        poly = load_polygon(args.input, backend)
        for note in poly.notes:
            print(f"note: {note}", file=sys.stderr)
    a = parse_scalar(args.a, backend)
    plane = build_plane(poly, a, strict=strict)
    if strict and args.paired and not (res := is_constant_width(plane.P, plane.U)).ok:
        raise IdentityError(f"not of constant width (index {res.witness}: {res.reason})")
    return plane, backend


def _write_files(files: list[tuple[str, str]]) -> None:
    """Write each (path, body) in order, all or none: every path is opened
    for append, which changes no file, before any is truncated, and after a
    failed open the files this run created are removed.  A symlink or a
    device is written through, as ``open(path, "w")`` would.  Two paths
    that open one regular file, such as one path twice or a symlink and its
    target, raise InputError the same way."""
    made = [path for path, _ in files if not os.path.lexists(path)]
    with contextlib.ExitStack() as stack:
        try:
            opened = [stack.enter_context(open(path, "a", encoding="utf-8"))
                      for path, _ in files]
            seen = {}
            for f in opened:
                st = os.fstat(f.fileno())
                key = (st.st_dev, st.st_ino)
                if stat.S_ISREG(st.st_mode) and key in seen:
                    raise InputError(f"outputs {seen[key]} and {f.name} name one file")
                seen[key] = f.name
        except BaseException:
            stack.close()
            for path in made:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise
        for f, (_, body) in zip(opened, files):
            if os.path.isfile(f.name):
                f.truncate(0)
            f.write(body)


def _emit(args, payload: dict, layers=None, csv: str | None = None) -> None:
    """Render the JSON and the SVG, then write the files (the CSV, --out,
    then the SVG) all or none (``_write_files``), and print the JSON to
    stdout last.  So an output that cannot be rendered or written exits
    before anything is printed, and leaves every file as it was."""
    text = dump_json(payload)
    svg = render_svg(layers) if args.svg and layers else None
    _write_files([(path, body) for path, body in ((csv and args.csv, csv),
                                                  (args.out, text + "\n"), (args.svg, svg))
                  if path and body is not None])
    if not args.out:
        print(text)


def cmd_ball(args) -> int:
    plane, backend = _plane(args)
    payload = {
        "n": plane.n,
        "a": backend.to_json(plane.a),
        "paired": points_json(plane.P.vertices, backend),
        "unit_ball": points_json(plane.U.vertices, backend),
    }
    layers = [
        Layer("polygon-p", [plane.P.vertices]),
        Layer("ball-u", [plane.U.vertices]),
    ]
    _emit(args, payload, layers)
    return 0


def cmd_dual(args) -> int:
    plane, backend = _plane(args)
    payload = {
        "n": plane.n,
        "unit_ball": points_json(plane.U.vertices, backend),
        "dual_ball": points_json(plane.V.vertices, backend),
    }
    layers = [
        Layer("ball-u", [plane.U.vertices]),
        Layer("dual-v", [plane.V.vertices]),
    ]
    _emit(args, payload, layers)
    return 0


def cmd_central(args) -> int:
    plane, backend = _plane(args)
    ce = central_equidistant(plane)
    cusps = cusps_of_central(ce)
    payload = {
        "n": plane.n,
        "central": points_json(ce.M, backend),
        "alphas": [backend.to_json(x) for x in ce.alphas],
        "betas": [backend.to_json(x) for x in ce.betas],
        "degenerate": ce.degenerate,
        "cusps": cusps,
        "min_convex_c": backend.to_json(min_convex_c(ce)),
    }
    layers = [Layer("polygon-p", [plane.P.vertices])]
    for j, ctext in enumerate(args.c or []):
        c = parse_scalar(ctext, backend)
        layers.append(Layer(f"equidistant-c{j}", [equidistant(ce, plane.U, c).vertices]))
    layers.append(Layer("central-m", [ce.M]))
    _emit(args, payload, layers)
    return 0


def cmd_evolute(args) -> int:
    plane, backend = _plane(args)
    ce = central_equidistant(plane)
    ev = evolute(plane.P.frame, plane.U, plane.V)
    payload = {
        "n": plane.n,
        "evolute": points_json(ev.E, backend),
        "mus": [backend.to_json(x) for x in ev.mus],
        "degenerate": ev.degenerate,
        "cusps": evolute_cusps(ev),
    }
    layers = [
        Layer("polygon-p", [plane.P.vertices]),
        Layer("central-m", [ce.M]),
        Layer("evolute-e", [ev.E]),
    ]
    _emit(args, payload, layers)
    return 0


def cmd_involute(args) -> int:
    plane, backend = _plane(args)
    ce = central_equidistant(plane)
    inv = involute(ce, plane.V)
    sa_m, sa_n = signed_area(frame_of(ce, "M")), signed_area(frame_of(inv, "N"))
    payload = {
        "n": plane.n,
        "involute": points_json(inv.N, backend),
        "betas": [backend.to_json(x) for x in inv.betas],
        "degenerate": inv.degenerate,
        "signed_area_central": backend.to_json(sa_m),
        "signed_area_involute": backend.to_json(sa_n),
        "signed_area_gap": backend.to_json(signed_area_gap(frame_of(ce, "betas"), plane.V)),
    }
    layers = [
        Layer("polygon-p", [plane.P.vertices]),
        Layer("central-m", [ce.M]),
        Layer("involute-n", [inv.N]),
    ]
    _emit(args, payload, layers)
    return 0


def _csv_float(x) -> str:
    """A CSV field: the repr of float(x), or for an exact value beyond float
    range its ``.3e`` form (``iterate._sci``)."""
    try:
        return repr(float(x))
    except OverflowError:
        return _sci(x)


def cmd_iterate(args) -> int:
    plane, backend = _plane(args)
    c = parse_scalar(args.c, backend)
    d = parse_scalar(args.d, backend)
    trace = iterate_involutes(plane, max_steps=args.steps, tol=args.tol)
    checks = check_trace(trace, plane)
    p_last, q_last = width_family(plane=plane, trace=trace,
                                  k=len(trace.steps) - 1, c=c, d=d)
    payload = {
        "n": plane.n,
        "converged": trace.converged,
        "O": [backend.to_json(trace.O.x), backend.to_json(trace.O.y)],
        "radius": trace.radius,
        "sumsquares": backend.to_json(trace.sumsquares),
        "sa0": backend.to_json(trace.sa0),
        "width_family": {
            "c": backend.to_json(c),
            "d": backend.to_json(d),
            "P": points_json(p_last.vertices, backend),
            "Q": points_json(q_last.vertices, backend),
        },
        "steps": [
            {
                "k": s.k,
                "sa_m": backend.to_json(s.sa_m),
                "sa_n": backend.to_json(s.sa_n),
                "gap_mn": backend.to_json(s.gap_mn),
                "gap_nm": backend.to_json(s.gap_nm),
                "diameter": s.diam_m,
            }
            for s in trace.steps
        ],
        "checks": [{"check_id": c.check_id, "pass": c.ok, "detail": c.detail}
                   for c in checks],
    }
    csv = ("k,SA_M,SA_N,diameter\n" + "".join(
        f"{s.k},{_csv_float(s.sa_m)},{_csv_float(s.sa_n)},{s.diam_m!r}\n"
        for s in trace.steps)) if args.csv else None
    layers = [
        Layer("polygon-p", [plane.P.vertices]),
        Layer("central-m", [trace.steps[0].M]),
    ]
    for s in trace.steps[1:9]:
        layers.append(Layer(f"iterate-k{s.k}", [s.N, s.M]))
    _emit(args, payload, layers, csv)
    if not all(c.ok for c in checks):
        print("iterate: ledger verification failed", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    plane, backend = _plane(args, strict=False)
    report = run_verify(plane, seed=args.seed, samples=args.samples)
    _emit(args, report.to_json())
    if not report.all_ok:
        print(f"verify: {report.failed} of {len(report.checks)} checks failed",
              file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cw",
        description="Constant-width polygon geometry in polygonal Minkowski planes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, fn, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.set_defaults(fn=fn)
        return p

    command("ball", cmd_ball, "paired form and the induced unit ball")
    command("dual", cmd_dual, "unit ball and its dual ball")
    p = command("central", cmd_central, "central equidistant with coefficient ladders")
    p.add_argument("--c", action="append",
                   help="extra equidistant layer(s) for the SVG (repeatable)")
    command("evolute", cmd_evolute, "curvature radii and the evolute")
    command("involute", cmd_involute, "involute of the central equidistant")

    p = command("iterate", cmd_iterate, "iterate involutes toward the central point")
    p.add_argument("--steps", type=int, default=None, help="maximum iteration steps")
    p.add_argument("--tol", type=float, default=None, help="diameter stopping threshold")
    p.add_argument("--c", default="1/2", help="width parameter of the reported P(k,c)")
    p.add_argument("--d", default="1/2", help="dual width parameter of the reported Q(k,d)")
    p.add_argument("--csv", help="write the k,SA_M,SA_N,diameter trace to this path")

    p = command("verify", cmd_verify, "run the full identity suite on one polygon")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--samples", type=int, default=16,
                   help="containment samples per involute segment")
    return ap


def main(argv=None) -> int:
    # exact results can outgrow the default limit on converting integers to
    # and from decimal strings; converting them costs less than making them
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IdentityError as e:
        print(f"identity failure: {e}", file=sys.stderr)
        return 3
    except OverflowError as e:  # an exact value too large for a float report
        print(f"error: value out of float range: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # an --out, --svg or --csv path (docio maps read errors)
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    except GeometryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
