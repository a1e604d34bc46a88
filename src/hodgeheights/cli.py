"""Command line interface.

    mhs validate <file>
    mhs splitting <file> [--out out.json]
    mhs height <file> [--which 1|2|both]
    mhs polylog [--z RE+IMi --N n [--a i --b j] | --sweep spec.json]
                [--csv out.csv] [--emit-json]

Exit codes: 0 ok, 2 validation failure, 3 numerical degeneracy, 4 usage,
5 I/O.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys

import numpy as np

from . import deligne, framed as framed_mod, jsonio, polylog as pl
from .deligne import NumericalDegeneracy, ResidualTooLarge
from .framed import FramingTypeError, RealityViolation
from .jsonio import DocumentValidationError, ParseError
from .mhs import InvalidMHS, validate
from .polylog import NonConvergent, PathThroughSingularity, PolylogContext

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 4
EXIT_IO = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_document(path: str, require_valid: bool = True):
    """(structure, framing or None) from a document; invalid ones exit 2
    unless require_valid is off (validate reports them itself)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}")
    try:
        return jsonio.parse_mhs_document(text, require_valid=require_valid)
    except ParseError as exc:
        raise CliError(EXIT_VALIDATION, f"parse error: {exc}")
    except DocumentValidationError as exc:
        raise CliError(EXIT_VALIDATION, f"invalid mixed Hodge structure:\n{exc}")


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {out}: {exc}")


def _matrix_json(mat: np.ndarray) -> list:
    return [[jsonio.format_complex(x) for x in row] for row in np.atleast_2d(mat)]


def cmd_validate(args) -> int:
    h, _ = _read_document(args.file, require_valid=False)
    report = validate(h)
    if report.ok:
        print("valid")
        return EXIT_OK
    print(report.describe())
    return EXIT_VALIDATION


def cmd_splitting(args) -> int:
    h, _ = _read_document(args.file)
    try:
        data = deligne.delta_splitting(h)
    except (NumericalDegeneracy, ResidualTooLarge) as exc:
        raise CliError(EXIT_NUMERICAL, str(exc))
    doc = {
        "dimension": h.dimension,
        "pieces": [
            {"p": p, "q": q, "dimension": sub.dim,
             "basis": [[jsonio.format_complex(x) for x in col] for col in sub.basis.T]}
            for (p, q), sub in sorted(data.bigrading.pieces.items())
        ],
        "Y": _matrix_json(data.Y),
        "delta": _matrix_json(data.delta),
        "delta_components": [
            {"a": a, "b": b, "matrix": _matrix_json(mat)}
            for (a, b), mat in sorted(data.delta_components.items())
        ],
        "diagnostics": {
            "defining_residual": data.defining_residual,
            "reality_residual": data.reality_residual,
            "lambda_residual": data.lambda_residual,
        },
    }
    _write_output(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_height(args) -> int:
    h, fh = _read_document(args.file)
    if fh is None:
        raise CliError(EXIT_USAGE, "document has no framing block")
    out: dict = {"a": fh.a, "b": fh.b, "diagnostics": {}}
    try:
        if args.which in ("1", "both"):
            out["ht1"] = framed_mod.height1(fh)
            out["diagnostics"]["ht1_via_delta"] = framed_mod.height1_via_delta(fh)
        if args.which in ("2", "both"):
            out["ht2"] = framed_mod.height2(fh)
        if args.which == "both":
            out["diagnostics"]["biextension_defect"] = (
                out["ht2"] + 0.5 * out["ht1"])
    except FramingTypeError as exc:
        raise CliError(EXIT_VALIDATION, f"framing error: {exc}")
    except (RealityViolation, NumericalDegeneracy, ResidualTooLarge) as exc:
        raise CliError(EXIT_NUMERICAL, str(exc))
    _write_output(json.dumps(out, indent=2), None)
    return EXIT_OK


def _sweep_grid(spec: dict) -> list[complex]:
    policy = spec.get("path_policy", "principal")
    if policy != "principal":
        raise CliError(EXIT_VALIDATION,
                       f"path_policy must be \"principal\", got {policy!r}")
    grid = spec.get("grid")
    if isinstance(grid, list):
        try:
            points = [jsonio.parse_complex(g, f"$.grid[{i}]") for i, g in enumerate(grid)]
        except ParseError as exc:
            raise CliError(EXIT_VALIDATION, str(exc))
    elif isinstance(grid, dict):
        try:
            re_lo, re_hi = grid["re"]
            im_lo, im_hi = grid["im"]
            n_re, n_im = grid["resolution"]
        except (KeyError, TypeError, ValueError):
            raise CliError(EXIT_VALIDATION,
                           "grid rectangle needs re, im, resolution")
        if not (all(type(v) in (int, float) for v in (re_lo, re_hi, im_lo, im_hi, n_re, n_im))
                and all(math.isfinite(v) for v in (re_lo, re_hi, im_lo, im_hi))
                and all(float(n).is_integer() and n >= 1 for n in (n_re, n_im))):
            raise CliError(EXIT_VALIDATION, "grid rectangle needs finite numeric "
                           "re/im bounds and integer resolutions >= 1")
        points = [complex(x, y)
                  for y in np.linspace(im_lo, im_hi, int(n_im))
                  for x in np.linspace(re_lo, re_hi, int(n_re))]
    else:
        raise CliError(EXIT_VALIDATION, "sweep spec has no grid")
    for z in points:
        if not cmath.isfinite(z):
            raise CliError(EXIT_VALIDATION, f"grid point {z} is not finite")
        if abs(z) < pl.SINGULAR_RADIUS or abs(z - 1) < pl.SINGULAR_RADIUS:
            raise CliError(EXIT_VALIDATION, f"grid point {z} is singular")
        if pl._on_cut(z):
            raise CliError(EXIT_VALIDATION,
                           f"grid point {z} lies on a cut under principal policy")
    return points


def _delta_residual(ctx: PolylogContext) -> float:
    """Frobenius distance between the generic delta of H(z) and its closed form."""
    delta = deligne.delta_splitting(pl.polylog_mhs(ctx)).delta
    return float(np.linalg.norm(delta - pl.delta_closed_form(ctx)))


def _framed_heights(ctx: PolylogContext, fh, a: int, b: int) -> dict:
    """Heights of fh, the (-a,-b)-framed H(z), beside their closed forms."""
    c1, c2 = pl.heights_closed_form(ctx, a, b)
    return {"a": a, "b": b, "ht1": framed_mod.height1(fh),
            "ht2": framed_mod.height2(fh), "ht1_closed": c1, "ht2_closed": c2}


def _csv_row(ctx: PolylogContext, point: dict) -> list:
    """The CSV_COLUMNS row of a framed point from _framed_heights."""
    return [ctx.z.real, ctx.z.imag, ctx.N, point["a"], point["b"]] + [
        repr(point[key]) for key in
        ("ht1", "ht1_closed", "ht2", "ht2_closed", "delta_residual")]


def _sweep_rows(spec: dict):
    if not isinstance(spec, dict):
        raise CliError(EXIT_VALIDATION, "sweep spec must be a JSON object")
    try:
        jsonio.expect_object(spec, "$", ("grid", "N", "framings", "path_policy"))
        if isinstance(spec.get("grid"), dict):
            jsonio.expect_object(spec["grid"], "$.grid", ("re", "im", "resolution"))
    except ParseError as exc:
        raise CliError(EXIT_VALIDATION, str(exc))
    points = _sweep_grid(spec)
    n_trunc = spec.get("N", 6)
    framings = spec.get("framings", [])
    if not isinstance(framings, list) or not framings:
        raise CliError(EXIT_VALIDATION, "sweep spec has no framings")
    if type(n_trunc) is not int or n_trunc < 1:
        raise CliError(EXIT_VALIDATION,
                       f"sweep N must be an integer >= 1, got {n_trunc!r}")
    for f in framings:
        if not (isinstance(f, list) and len(f) == 2
                and all(type(x) is int for x in f) and 0 <= f[0] < f[1] <= n_trunc):
            raise CliError(EXIT_VALIDATION, f"framing {f!r} is not a pair of "
                           f"integers 0 <= a < b <= N = {n_trunc}")
    for z in points:
        ctx = PolylogContext(z, N=n_trunc)
        resid = _delta_residual(ctx)
        for a, b in framings:
            point = _framed_heights(ctx, pl.polylog_framed(ctx, a, b), a, b)
            yield _csv_row(ctx, {**point, "delta_residual": resid})


CSV_COLUMNS = ["re_z", "im_z", "N", "a", "b", "ht1_pipeline", "ht1_closed",
               "ht2_pipeline", "ht2_closed", "delta_residual"]


def cmd_polylog(args) -> int:
    if args.sweep:
        if args.z is not None or args.a is not None or args.b is not None:
            raise CliError(EXIT_USAGE, "--sweep excludes --z/--a/--b")
        try:
            with open(args.sweep, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot read {args.sweep}: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(EXIT_VALIDATION, f"sweep spec is not JSON: {exc}")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        try:
            for row in _sweep_rows(spec):
                writer.writerow(row)
        except (PathThroughSingularity, NonConvergent,
                NumericalDegeneracy, ResidualTooLarge) as exc:
            raise CliError(EXIT_NUMERICAL, str(exc))
        _write_output(buf.getvalue(), args.csv)
        return EXIT_OK

    if args.z is None:
        raise CliError(EXIT_USAGE, "need --z or --sweep")
    try:
        z = jsonio.parse_complex(args.z, "--z")
    except ParseError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    if (args.a is None) != (args.b is None):
        raise CliError(EXIT_USAGE, "--a and --b go together")
    try:
        ctx = PolylogContext(z, N=args.N)
        h = pl.polylog_mhs(ctx)
        fh = None
        out: dict = {"z": jsonio.format_complex(z), "N": args.N}
        if args.a is not None:
            fh = pl.polylog_framed(ctx, args.a, args.b)
            out.update(_framed_heights(ctx, fh, args.a, args.b))
        out["delta_residual"] = _delta_residual(ctx)
    except (PathThroughSingularity, InvalidMHS, NumericalDegeneracy,
            ResidualTooLarge, NonConvergent, RealityViolation) as exc:
        raise CliError(EXIT_NUMERICAL, str(exc))
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    if args.emit_json:
        _write_output(json.dumps(jsonio.mhs_to_document(h, fh), indent=2), None)
        return EXIT_OK
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        if fh is not None:
            writer.writerow(_csv_row(ctx, out))
        _write_output(buf.getvalue(), args.csv)
        return EXIT_OK
    _write_output(json.dumps(out, indent=2), None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhs",
        description="Deligne splittings and heights of framed mixed Hodge structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an MHS document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("splitting", help="emit bigrading, Y and delta as JSON")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_splitting)

    p = sub.add_parser("height", help="heights of a framed MHS document")
    p.add_argument("file")
    p.add_argument("--which", choices=["1", "2", "both"], default="both")
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("polylog", help="polylog structures, heights and sweeps")
    p.add_argument("--z", default=None, help="evaluation point, e.g. 0.3+0.2i")
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--sweep", default=None, help="sweep spec JSON file")
    p.add_argument("--csv", default=None, help="write CSV here")
    p.add_argument("--emit-json", action="store_true")
    p.set_defaults(func=cmd_polylog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InvalidMHS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
