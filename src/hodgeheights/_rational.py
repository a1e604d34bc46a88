"""Exact linear algebra over the rationals.

The Betti side of a mixed Hodge structure carries exact rational data
(weight bases, framing vectors).  Operations that must stay rational --
the echelon forms and exact membership from which a weight filtration
given by rows is framed -- are done here with ``fractions.Fraction``
arithmetic so no float noise leaks into the rational structure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

RationalVector = tuple[Fraction, ...]
RationalMatrix = tuple[RationalVector, ...]
#: (reduced nonzero rows, pivot columns), as returned by `rref`.
Echelon = tuple[list[list[Fraction]], list[int]]


def as_fraction_vector(entries: Sequence) -> RationalVector:
    # Fractions are immutable: entries that already are one are kept as is
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in entries)


def as_fraction_matrix(rows: Sequence[Sequence]) -> RationalMatrix:
    return tuple(as_fraction_vector(r) for r in rows)


def _eliminate(row: list, f: Fraction, pivot_row: Sequence[Fraction],
               support: Sequence[int]) -> None:
    """row -= f * pivot_row in place, touching only the pivot row's support."""
    for j in support:
        row[j] -= f * pivot_row[j]


def rref(rows: Sequence[Sequence[Fraction]]) -> Echelon:
    """Reduced row echelon form; returns (reduced nonzero rows, pivot columns).

    Each elimination step touches only the nonzero entries of the pivot
    row, and a pivot of 1 is not divided by; the arithmetic is exact, so
    the result is the dense elimination's.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        if pv != 1:
            mat[r] = [x / pv for x in mat[r]]
        support = [j for j, y in enumerate(mat[r]) if y]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                _eliminate(mat[i], mat[i][c], mat[r], support)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def remainder(vector: Sequence[Fraction], echelon: Echelon) -> list[Fraction]:
    """`vector` reduced against the echelon form `rref(rows)`: zero exactly
    when `vector` lies in the row span."""
    v = list(vector)
    for row, c in zip(*echelon):
        if v[c]:
            _eliminate(v, v[c], row, [j for j, y in enumerate(row) if y])
    return v
