"""JSON document model for mixed Hodge structures and framings.

Rational entries travel as exact "p/q" strings; complex entries as
"re+imi" strings with shortest round-trip decimals, so parse/serialize
round trips preserve every double bit-for-bit and every rational
exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

import numpy as np

from . import mhs
from .framed import FramedMHS
from .mhs import InvalidMHS, MixedHodgeStructure, ValidationReport


class ParseError(ValueError):
    """Malformed document; `path` points at the offending JSON location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class DocumentValidationError(ValueError):
    """Parsed fine but is not a valid MHS; carries the report."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.describe())
        self.report = report


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


def parse_complex(text: Any, path: str = "") -> complex:
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return complex(text)
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


def _rational_vector(entries: Any, path: str, n: int | None = None) -> list[Fraction]:
    if not isinstance(entries, list):
        raise ParseError(path, "expected a list")
    if n is not None and len(entries) != n:
        raise ParseError(path, f"expected {n} entries, got {len(entries)}")
    return [parse_fraction(x, f"{path}[{i}]") for i, x in enumerate(entries)]


def _complex_vector(entries: Any, path: str, n: int | None = None) -> list[complex]:
    if not isinstance(entries, list):
        raise ParseError(path, "expected a list")
    if n is not None and len(entries) != n:
        raise ParseError(path, f"expected {n} entries, got {len(entries)}")
    return [parse_complex(x, f"{path}[{i}]") for i, x in enumerate(entries)]


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


def parse_mhs_document(doc: dict | str | bytes,
                       require_valid: bool = True,
                       rank_tolerance: float | None = None,
                       ) -> tuple[MixedHodgeStructure, FramedMHS | None]:
    """Parse an MHS document; returns (structure, framed structure or None)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("$", "top level must be an object")

    try:
        n = int(doc["dimension"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("$.dimension", "missing or non-integer") from exc

    weight = {}
    for i, item in enumerate(doc.get("weight_filtration", [])):
        path = f"$.weight_filtration[{i}]"
        if not isinstance(item, dict) or "weight" not in item or "basis" not in item:
            raise ParseError(path, "expected {weight, basis}")
        k = item["weight"]
        if not isinstance(k, int):
            raise ParseError(f"{path}.weight", "expected an integer")
        weight[k] = [_rational_vector(row, f"{path}.basis[{j}]", n)
                     for j, row in enumerate(item["basis"])]

    hodge = {}
    for i, item in enumerate(doc.get("hodge_filtration", [])):
        path = f"$.hodge_filtration[{i}]"
        if not isinstance(item, dict) or "p" not in item or "basis" not in item:
            raise ParseError(path, "expected {p, basis}")
        p = item["p"]
        if not isinstance(p, int):
            raise ParseError(f"{path}.p", "expected an integer")
        rows = [_complex_vector(row, f"{path}.basis[{j}]", n)
                for j, row in enumerate(item["basis"])]
        hodge[p] = np.array(rows, dtype=complex).reshape(len(rows), n)

    comparison = None
    if "comparison_matrix" in doc:
        rows = [_complex_vector(row, f"$.comparison_matrix[{j}]", n)
                for j, row in enumerate(doc["comparison_matrix"])]
        comparison = np.array(rows, dtype=complex)

    kwargs = {}
    if rank_tolerance is not None:
        kwargs["rank_tolerance"] = rank_tolerance
    h = MixedHodgeStructure(n, weight, hodge, comparison, **kwargs)

    if require_valid:
        try:
            mhs.require_valid(h)
        except InvalidMHS as exc:
            raise DocumentValidationError(exc.report) from exc

    framed = None
    if "framing" in doc:
        fr = doc["framing"]
        path = "$.framing"
        if not isinstance(fr, dict):
            raise ParseError(path, "expected an object")
        for key in ("a", "b", "phi", "psi"):
            if key not in fr:
                raise ParseError(f"{path}.{key}", "missing")
        if not isinstance(fr["a"], int) or not isinstance(fr["b"], int):
            raise ParseError(f"{path}.a", "framing integers must be integers")
        framed = FramedMHS(h, fr["a"], fr["b"],
                           _rational_vector(fr["phi"], f"{path}.phi", n),
                           _rational_vector(fr["psi"], f"{path}.psi", n))
    return h, framed
