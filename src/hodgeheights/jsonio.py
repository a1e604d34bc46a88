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


#: The keys an MHS document may have (docs/schemas/mhs-document.schema.json).
DOCUMENT_KEYS = ("dimension", "weight_filtration", "hodge_filtration",
                 "comparison_matrix", "framing")


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


def _integer(value: Any, path: str) -> int:
    # bool is a subclass of int, but JSON true is not an integer
    if type(value) is not int:
        raise ParseError(path, f"expected an integer, got {value!r}")
    return value


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


def expect_object(value: Any, path: str, keys: tuple[str, ...]) -> dict:
    """value as a JSON object with no key outside `keys`, as the schemas'
    `additionalProperties: false` requires; an unknown key is a parse error
    at its own path."""
    if not isinstance(value, dict):
        raise ParseError(path, "expected an object")
    for key in value:
        if key not in keys:
            raise ParseError(f"{path}.{key}", "unknown key")
    return value


def _rational_vector(entries: Any, path: str, n: int | None = None) -> list[Fraction]:
    _list(entries, path)
    if n is not None and len(entries) != n:
        raise ParseError(path, f"expected {n} entries, got {len(entries)}")
    return [parse_fraction(x, f"{path}[{i}]") for i, x in enumerate(entries)]


def _complex_vector(entries: Any, path: str, n: int | None = None) -> list[complex]:
    _list(entries, path)
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
                       ) -> tuple[MixedHodgeStructure, FramedMHS | None]:
    """Parse an MHS document; returns (structure, framed structure or None)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("$", "top level must be an object")
    expect_object(doc, "$", DOCUMENT_KEYS)

    if "dimension" not in doc:
        raise ParseError("$.dimension", "missing")
    n = _integer(doc["dimension"], "$.dimension")
    if n < 1:
        raise ParseError("$.dimension", f"expected at least 1, got {n}")

    for key in ("weight_filtration", "hodge_filtration"):
        if key not in doc:
            raise ParseError(f"$.{key}", "missing")

    weight = {}
    for i, item in enumerate(_list(doc["weight_filtration"], "$.weight_filtration")):
        path = f"$.weight_filtration[{i}]"
        if not isinstance(item, dict) or "weight" not in item or "basis" not in item:
            raise ParseError(path, "expected {weight, basis}")
        expect_object(item, path, ("weight", "basis"))
        k = _jump(item["weight"], f"{path}.weight", weight)
        weight[k] = [_rational_vector(row, f"{path}.basis[{j}]", n)
                     for j, row in enumerate(_list(item["basis"], f"{path}.basis"))]

    hodge = {}
    for i, item in enumerate(_list(doc["hodge_filtration"], "$.hodge_filtration")):
        path = f"$.hodge_filtration[{i}]"
        if not isinstance(item, dict) or "p" not in item or "basis" not in item:
            raise ParseError(path, "expected {p, basis}")
        expect_object(item, path, ("p", "basis"))
        p = _jump(item["p"], f"{path}.p", hodge)
        rows = [_complex_vector(row, f"{path}.basis[{j}]", n)
                for j, row in enumerate(_list(item["basis"], f"{path}.basis"))]
        hodge[p] = np.array(rows, dtype=complex).reshape(len(rows), n)

    comparison = None
    if "comparison_matrix" in doc:
        rows = [_complex_vector(row, f"$.comparison_matrix[{j}]", n) for j, row
                in enumerate(_list(doc["comparison_matrix"], "$.comparison_matrix"))]
        if len(rows) != n:
            raise ParseError("$.comparison_matrix", f"expected {n} x {n}, got {len(rows)} rows")
        comparison = np.array(rows, dtype=complex)

    h = MixedHodgeStructure(n, weight, hodge, comparison)

    if require_valid:
        try:
            mhs.require_valid(h)
        except InvalidMHS as exc:
            raise DocumentValidationError(exc.report) from exc

    framed = None
    if "framing" in doc:
        path = "$.framing"
        fr = expect_object(doc["framing"], path, ("a", "b", "phi", "psi"))
        for key in ("a", "b", "phi", "psi"):
            if key not in fr:
                raise ParseError(f"{path}.{key}", "missing")
        framed = FramedMHS(h, _integer(fr["a"], f"{path}.a"),
                           _integer(fr["b"], f"{path}.b"),
                           _rational_vector(fr["phi"], f"{path}.phi", n),
                           _rational_vector(fr["psi"], f"{path}.psi", n))
    return h, framed
