"""JSON document model for mixed Hodge structures and framings.

Rational entries travel as exact "p/q" strings; complex entries as
"re+imi" strings with shortest round-trip decimals, so parse/serialize
round trips preserve every double bit-for-bit and every rational
exactly.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from typing import Any

import numpy as np

from . import polylog as pl
from .framed import FramedMHS
from .mhs import MixedHodgeStructure


#: The keys an MHS document may have (docs/schemas/mhs-document.schema.json).
DOCUMENT_KEYS = ("dimension", "weight_filtration", "hodge_filtration",
                 "comparison_matrix", "framing")


class ParseError(ValueError):
    """Malformed document; `path` points at the offending JSON location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(text: Any, path: str = "") -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ParseError(path, f"expected a rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, f"malformed fraction {text!r}: {exc}") from exc


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return repr(z.imag) + "i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _float(value: int | float, path: str) -> float:
    """A JSON number as a float; an integer beyond the float range is a
    parse error, not an OverflowError."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError(path, "integer too large for a float") from exc


def parse_complex(text: Any, path: str = "") -> complex:
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return complex(_float(text, path))
    if not isinstance(text, str):
        raise ParseError(path, f"expected a complex string, got {text!r}")
    s = text.strip().replace(" ", "")
    try:
        if not s.endswith("i"):
            return complex(float(s), 0.0)
        body = s[:-1]
        # split real/imag at the last sign that is not an exponent sign
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part, im_part = body[:pos], body[pos:]
                im = 1.0 if im_part in ("+", "-") else float(im_part)
                if im_part == "-":
                    im = -1.0
                return complex(float(re_part), im)
        return complex(0.0, 1.0 if body in ("", "+") else
                       -1.0 if body == "-" else float(body))
    except ValueError as exc:
        raise ParseError(path, f"malformed complex literal {text!r}") from exc


def _integer(value: Any, path: str, minimum: int | None = None) -> int:
    # bool is a subclass of int, but JSON true is not an integer
    if type(value) is not int:
        raise ParseError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParseError(path, f"expected at least {minimum}, got {value}")
    return value


def _finite_number(value: Any, path: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(_float(value, path))):
        raise ParseError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _jump(value: Any, path: str, seen: dict) -> int:
    """A filtration jump index, given at most once per filtration."""
    index = _integer(value, path)
    if index in seen:
        raise ParseError(path, f"repeated jump {index}")
    return index


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(path, "expected a list")
    return value


def expect_object(value: Any, path: str, keys: tuple[str, ...],
                  required: tuple[str, ...] = ()) -> dict:
    """value as a JSON object with no key outside `keys`, as the schemas'
    `additionalProperties: false` requires, and every key in `required`;
    an unknown or missing key is a parse error at its own path."""
    if not isinstance(value, dict):
        raise ParseError(path, "expected an object")
    for key in value:
        if key not in keys:
            raise ParseError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in value:
            raise ParseError(f"{path}.{key}", "missing")
    return value


def _vector(entries: Any, path: str, n: int, entry) -> list:
    """A JSON list of n entries, each read by entry(item, its path)."""
    if len(_list(entries, path)) != n:
        raise ParseError(path, f"expected {n} entries, got {len(entries)}")
    return [entry(x, f"{path}[{i}]") for i, x in enumerate(entries)]


def mhs_to_document(h: MixedHodgeStructure,
                    framing: FramedMHS | None = None) -> dict:
    doc: dict[str, Any] = {
        "dimension": h.dimension,
        "weight_filtration": [
            {"weight": k, "basis": [[format_fraction(x) for x in row] for row in rows]}
            for k, rows in sorted(h.weight_filtration.items())
        ],
        "hodge_filtration": [
            {"p": p, "basis": [[format_complex(x) for x in row] for row in arr]}
            for p, arr in sorted(h.hodge_filtration.items())
        ],
    }
    if h.comparison_matrix is not None:
        doc["comparison_matrix"] = [[format_complex(x) for x in row]
                                    for row in h.comparison_matrix]
    if framing is not None:
        doc["framing"] = {
            "a": framing.a,
            "b": framing.b,
            "phi": [format_fraction(x) for x in framing.phi_class],
            "psi": [format_fraction(x) for x in framing.psi_class],
        }
    return doc


def _json(doc: Any) -> Any:
    """doc, decoded first if it is JSON text."""
    if not isinstance(doc, (str, bytes)):
        return doc
    try:
        return json.loads(doc)
    except ValueError as exc:   # also an integer past Python's digit limit
        raise ParseError("$", f"not valid JSON: {exc}") from exc


def parse_mhs_document(doc: dict | str | bytes) -> tuple[MixedHodgeStructure, FramedMHS | None]:
    """Parse an MHS document; returns (structure, framed structure or None).

    Only the document's form is checked: whether the structure is a valid
    MHS is mhs.require_valid's decision.
    """
    doc = expect_object(_json(doc), "$", DOCUMENT_KEYS,
                        required=("dimension", "weight_filtration", "hodge_filtration"))
    n = _integer(doc["dimension"], "$.dimension", minimum=1)

    weight = {}
    for i, item in enumerate(_list(doc["weight_filtration"], "$.weight_filtration")):
        path = f"$.weight_filtration[{i}]"
        expect_object(item, path, ("weight", "basis"), required=("weight", "basis"))
        k = _jump(item["weight"], f"{path}.weight", weight)
        weight[k] = [_vector(row, f"{path}.basis[{j}]", n, parse_fraction)
                     for j, row in enumerate(_list(item["basis"], f"{path}.basis"))]

    hodge = {}
    for i, item in enumerate(_list(doc["hodge_filtration"], "$.hodge_filtration")):
        path = f"$.hodge_filtration[{i}]"
        expect_object(item, path, ("p", "basis"), required=("p", "basis"))
        p = _jump(item["p"], f"{path}.p", hodge)
        rows = [_vector(row, f"{path}.basis[{j}]", n, parse_complex)
                for j, row in enumerate(_list(item["basis"], f"{path}.basis"))]
        hodge[p] = np.array(rows, dtype=complex).reshape(len(rows), n)

    comparison = None
    if "comparison_matrix" in doc:
        rows = [_vector(row, f"$.comparison_matrix[{j}]", n, parse_complex) for j, row
                in enumerate(_list(doc["comparison_matrix"], "$.comparison_matrix"))]
        if len(rows) != n:
            raise ParseError("$.comparison_matrix", f"expected {n} x {n}, got {len(rows)} rows")
        comparison = np.array(rows, dtype=complex)

    h = MixedHodgeStructure(n, weight, hodge, comparison)
    framed = None
    if "framing" in doc:
        path = "$.framing"
        fr = expect_object(doc["framing"], path, ("a", "b", "phi", "psi"),
                           required=("a", "b", "phi", "psi"))
        framed = FramedMHS(h, _integer(fr["a"], f"{path}.a"),
                           _integer(fr["b"], f"{path}.b"),
                           _vector(fr["phi"], f"{path}.phi", n, parse_fraction),
                           _vector(fr["psi"], f"{path}.psi", n, parse_fraction))
    return h, framed


def _grid_points(grid: Any) -> list[tuple[str, complex]]:
    """(JSON path, point) for each point of a sweep grid: a list of complex
    literals, or a rectangle sampled on an n_re x n_im lattice, row by row."""
    if isinstance(grid, list):
        return [(f"$.grid[{i}]", parse_complex(g, f"$.grid[{i}]"))
                for i, g in enumerate(grid)]
    keys = ("re", "im", "resolution")
    expect_object(grid, "$.grid", keys, required=keys)
    re_lo, re_hi = _vector(grid["re"], "$.grid.re", 2, _finite_number)
    im_lo, im_hi = _vector(grid["im"], "$.grid.im", 2, _finite_number)
    n_re, n_im = _vector(grid["resolution"], "$.grid.resolution", 2,
                         lambda v, path: _integer(v, path, minimum=1))
    return [("$.grid", complex(x, y)) for y in np.linspace(im_lo, im_hi, n_im)
            for x in np.linspace(re_lo, re_hi, n_re)]


def parse_sweep_spec(doc: dict | str | bytes) -> tuple[list[complex], int, list[tuple[int, int]]]:
    """Parse a sweep spec; returns (grid points, N, framings (a, b)).

    Every point is checked against 0, 1 and, under the principal policy
    (the only one), the cuts, so a spec that parses can be evaluated.
    """
    spec = expect_object(_json(doc), "$", ("grid", "N", "framings", "path_policy"),
                         required=("grid", "framings"))
    policy = spec.get("path_policy", "principal")
    if policy != "principal":
        raise ParseError("$.path_policy", f"must be \"principal\", got {policy!r}")
    points = _grid_points(spec["grid"])
    for path, z in points:
        if not cmath.isfinite(z):
            raise ParseError(path, f"grid point {z} is not finite")
        if abs(z) < pl.SINGULAR_RADIUS or abs(z - 1) < pl.SINGULAR_RADIUS:
            raise ParseError(path, f"grid point {z} is singular")
        if pl._on_cut(z):
            raise ParseError(path, f"grid point {z} lies on a cut under principal policy")
    n = _integer(spec.get("N", 6), "$.N", minimum=1)
    if not _list(spec["framings"], "$.framings"):
        raise ParseError("$.framings", "expected at least one framing")
    framings = []
    for i, f in enumerate(spec["framings"]):
        a, b = _vector(f, f"$.framings[{i}]", 2, _integer)
        if not 0 <= a < b <= n:
            raise ParseError(f"$.framings[{i}]", f"expected integers "
                             f"0 <= a < b <= N = {n}, got {f!r}")
        framings.append((a, b))
    return [z for _, z in points], n, framings
