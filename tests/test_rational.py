from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeheights._rational import as_fraction_vector, remainder, rref

from oracles import dense_remainder, dense_rref, nullspace


def sparse_rows(rng, count, n, density=0.3):
    """Random rational rows, mostly zero, with non-unit entries, some zero
    rows and some repeated (or rescaled) rows."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * n)
        elif kind < 0.35 and rows:
            src = rows[int(rng.integers(len(rows)))]
            scale = Fraction(int(rng.integers(-4, 5)) or 3, int(rng.integers(1, 5)))
            rows.append([scale * x for x in src])
        else:
            rows.append([Fraction(int(rng.integers(-7, 8)), int(rng.integers(1, 6)))
                         if rng.random() < density else Fraction(0) for _ in range(n)])
    return rows


def test_rref_matches_dense_reference_exactly():
    rng = np.random.default_rng(41)
    non_unit_pivots = 0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        rows = sparse_rows(rng, int(rng.integers(1, 9)), n)
        got = rref(rows)
        assert got == dense_rref(rows)
        assert all(isinstance(x, Fraction) for row in got[0] for x in row)
        non_unit_pivots += any(next((x for x in r if x != 0), 1) != 1 for r in rows)
    assert non_unit_pivots > 100


def test_remainder_matches_dense_reference_exactly():
    rng = np.random.default_rng(43)
    in_span = 0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        echelon = rref(sparse_rows(rng, int(rng.integers(1, 7)), n))
        probes = sparse_rows(rng, 3, n, density=0.5)
        # combinations of the echelon rows lie in the span: remainder zero
        for row in echelon[0]:
            c = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
            probes.append([c * x + y for x, y in zip(row, probes[-1])])
            probes.append([c * x for x in row])
        for v in probes:
            got = remainder(v, echelon)
            assert got == dense_remainder(v, echelon)
            in_span += not any(got)
    assert in_span > 300


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3).map(lambda x: x if abs(x) > 1 else 0),
                         min_size=5, max_size=5), min_size=0, max_size=6),
       st.integers(1, 4))
def test_rref_sparse_integer_rows(rows, d):
    rows = [[Fraction(x, d) for x in r] for r in rows + rows[:1]]   # a repeated row
    got = rref(rows)
    assert got == dense_rref(rows)
    for v in nullspace(got, 5):
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
    for r in rows:
        assert not any(remainder(r, got))


def test_as_fraction_vector_keeps_fractions():
    a, b = Fraction(3, 7), Fraction(-2)
    out = as_fraction_vector([a, b, 5, "1/4"])
    assert out == (a, b, Fraction(5), Fraction(1, 4))
    assert out[0] is a and out[1] is b
