"""Command line interface.

    mhs validate <file>
    mhs splitting <file> [--out out.json]
    mhs height <file> [--which 1|2|both]
    mhs polylog [--z RE+IMi --N n [--a i --b j] | --sweep spec.json]
                [--csv out.csv] [--emit-json]

Exit codes: 0 ok, 2 validation failure, 3 numerical degeneracy, 4 usage
(including an N past polylog.MAX_N), 5 I/O.  Commands raise typed
exceptions; `main` alone turns them into exit codes, through EXIT_CODES.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings

import numpy as np

from . import deligne, framed as framed_mod, jsonio, polylog as pl
from .deligne import NumericalDegeneracy, ResidualTooLarge
from .framed import FramingTypeError, RealityViolation
from .jsonio import ParseError
from .linalg import frobenius
from .mhs import InvalidMHS, require_valid, validate
from .polylog import (NonConvergent, PathThroughSingularity, PolylogContext,
                      TruncationOutOfRange)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 4
EXIT_IO = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


#: Exit code and stderr prefix of each typed failure a command may raise;
#: a CliError carries its own code.
EXIT_CODES = {
    ParseError: (EXIT_VALIDATION, "parse error: "),
    InvalidMHS: (EXIT_VALIDATION, ""),
    FramingTypeError: (EXIT_VALIDATION, "framing error: "),
    NumericalDegeneracy: (EXIT_NUMERICAL, ""),
    ResidualTooLarge: (EXIT_NUMERICAL, ""),
    RealityViolation: (EXIT_NUMERICAL, ""),
    NonConvergent: (EXIT_NUMERICAL, ""),
    PathThroughSingularity: (EXIT_NUMERICAL, ""),
    TruncationOutOfRange: (EXIT_USAGE, ""),
}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}")


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
    h, _ = jsonio.parse_mhs_document(_read_text(args.file))
    report = validate(h)
    if report.ok:
        print("valid")
        return EXIT_OK
    print(report.describe())
    return EXIT_VALIDATION


def cmd_splitting(args) -> int:
    h, _ = jsonio.parse_mhs_document(_read_text(args.file))
    require_valid(h)
    data = deligne.delta_splitting(h)
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
    h, fh = jsonio.parse_mhs_document(_read_text(args.file))
    require_valid(h)
    if fh is None:
        raise CliError(EXIT_USAGE, "document has no framing block")
    out: dict = {"a": fh.a, "b": fh.b, "diagnostics": {}}
    # every height function warns on an (a, a) framing; print each message once
    with warnings.catch_warnings(record=True) as caught:
        if args.which in ("1", "both"):
            out["ht1"] = framed_mod.height1(fh)
            out["diagnostics"]["ht1_via_delta"] = framed_mod.height1_via_delta(fh)
        if args.which in ("2", "both"):
            out["ht2"] = framed_mod.height2(fh)
        if args.which == "both":
            out["diagnostics"]["biextension_defect"] = framed_mod.biextension_defect(fh)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    _write_output(json.dumps(out, indent=2), None)
    return EXIT_OK


def _delta_residual(ctx: PolylogContext) -> float:
    """Frobenius distance between the generic delta of H(z) and its closed form."""
    delta = deligne.delta_splitting(pl.polylog_mhs(ctx)).delta
    return float(frobenius(delta - pl.delta_closed_form(ctx)))


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


def _sweep_rows(points: list[complex], n_trunc: int, framings: list):
    for z in points:
        ctx = PolylogContext(z, N=n_trunc)
        resid = _delta_residual(ctx)
        for a, b in framings:
            point = _framed_heights(ctx, pl.polylog_framed(ctx, a, b), a, b)
            yield _csv_row(ctx, {**point, "delta_residual": resid})


CSV_COLUMNS = ["re_z", "im_z", "N", "a", "b", "ht1_pipeline", "ht1_closed",
               "ht2_pipeline", "ht2_closed", "delta_residual"]


def _write_csv(rows, out: str | None) -> None:
    """The CSV_COLUMNS header and rows, written to out (stdout if None)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    _write_output(buf.getvalue(), out)


def cmd_polylog(args) -> int:
    # H(z) is built here, not read from input: its rejection is numerical
    try:
        return _polylog_sweep(args) if args.sweep else _polylog_point(args)
    except InvalidMHS as exc:
        raise CliError(EXIT_NUMERICAL, str(exc))


def _polylog_sweep(args) -> int:
    if args.z is not None or args.a is not None or args.b is not None:
        raise CliError(EXIT_USAGE, "--sweep excludes --z/--a/--b")
    # the whole spec is checked before any point is evaluated
    spec = jsonio.parse_sweep_spec(_read_text(args.sweep))
    _write_csv(_sweep_rows(*spec), args.csv)
    return EXIT_OK


def _polylog_point(args) -> int:
    if args.z is None:
        raise CliError(EXIT_USAGE, "need --z or --sweep")
    # a value of --z, --N, --a or --b that is rejected is a usage error,
    # but a z at a singularity stays a numerical one; an N past float
    # range keeps its own entry in EXIT_CODES
    try:
        z = jsonio.parse_complex(args.z, "--z")
        if (args.a is None) != (args.b is None):
            raise CliError(EXIT_USAGE, "--a and --b go together")
        ctx = PolylogContext(z, N=args.N)
        h = pl.polylog_mhs(ctx)
        fh = None if args.a is None else pl.polylog_framed(ctx, args.a, args.b)
    except (PathThroughSingularity, TruncationOutOfRange):
        raise
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    out: dict = {"z": jsonio.format_complex(z), "N": args.N}
    if fh is not None:
        out.update(_framed_heights(ctx, fh, args.a, args.b))
    out["delta_residual"] = _delta_residual(ctx)
    if args.emit_json:
        _write_output(json.dumps(jsonio.mhs_to_document(h, fh), indent=2), None)
    elif args.csv:
        _write_csv([_csv_row(ctx, out)] if fh is not None else [], args.csv)
    else:
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
    except (CliError, *EXIT_CODES) as exc:
        code, prefix = (exc.code, "") if isinstance(exc, CliError) else next(
            EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
