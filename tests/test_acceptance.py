"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criterion 3 is split into its three assertions.  The adjacent-framing
reference for the second height (3b) is +log(z zbar)/(4 pi): an adjacent
framing sees a two-step Kummer extension, on which ht2 = -ht1/2, the
same ratio that the references of criteria 1 and 3a fix at (0, 1) --
see the README section "Adjacent framings".
"""

import math
import time

import numpy as np
import pytest

from hodgeheights import deligne, framed
from hodgeheights.framed import (FramedMHS, biextension_defect, conjugate_framed,
                                 delta_pairing, dual_framed,
                                 framed_morphism_check, height1,
                                 height1_via_delta, height2, twist_framed)
from hodgeheights.linalg import nilpotent_exp
from hodgeheights.mhs import (MixedHodgeStructure, random_hodge_tate,
                              random_hodge_tate_pair)
from hodgeheights.polylog import (PolylogContext, heights_closed_form, li,
                                  log_z, polylog_framed, polylog_mhs, sv_bd,
                                  sv_brown, delta_closed_form)

from conftest import random_framing
from oracles import (containment_residual, from_vectors, image, intersect,
                     oracle_intersection_dim, oracle_rank, oracle_sum_dim)
from test_deligne import check_bigrading_axioms

RADII = (0.15, 0.4, 0.65, 0.88)
ANGLES = (0.4, 1.2, 2.1, 3.0, 4.2)
GRID = tuple(r * complex(math.cos(t), math.sin(t)) for t in ANGLES for r in RADII)


def report(number, label):
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")
            return out
        run.__name__ = fn.__name__
        return run
    return wrap


@report(1, "polylog ht1, a=0, N=6 grid, < 30 s")
def test_criterion_1_ht1_base_framings():
    start = time.perf_counter()
    worst = 0.0
    for z in GRID:
        ctx = PolylogContext(z, N=6)
        for b in range(1, 7):
            fh = polylog_framed(ctx, 0, b)
            closed = float((-sv_brown(b, ctx) / (2j * np.pi) ** b).imag)
            worst = max(worst, abs(height1(fh) - closed))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"worst ht1 deviation {worst:.2e}"
    assert elapsed < 30.0, f"grid took {elapsed:.1f} s"


@report(2, "polylog ht1, b > a > 0")
def test_criterion_2_ht1_interior_framings():
    for z in GRID[::3]:
        ctx = PolylogContext(z, N=6)
        lzz = 2.0 * log_z(ctx).real
        for a in range(1, 6):
            for b in range(a + 1, 7):
                got = height1(polylog_framed(ctx, a, b))
                want = ((lzz / (2j * np.pi)) ** (b - a) / math.factorial(b - a)).imag
                assert abs(got - want) < 1e-8
                if (b - a) % 2 == 0:
                    assert abs(got) < 1e-12


@report("3a", "polylog ht2, a=0 vs Bernoulli-weighted closed form")
def test_criterion_3a_ht2_base_framings():
    for z in GRID[::2]:
        ctx = PolylogContext(z, N=6)
        for b in range(1, 7):
            got = height2(polylog_framed(ctx, 0, b))
            want = float((sv_bd(b, ctx) / (1j * (2j * np.pi) ** b)).real)
            assert abs(got - want) < 1e-8


@report("3b", "polylog ht2, b=a+1>1 reference value")
def test_criterion_3b_ht2_adjacent_reference_value():
    # H(z) framed at (a, a+1) is a twist of the Kummer extension of log z,
    # as H(z) at (0, 1) is of the extension of log(1-z).  On a two-step
    # extension delta = c N with delta^2 = 0, so ht1 = -2c and ht2 = c.
    # Criteria 1 and 3a pin ht2/ht1 = -1/2 at (0, 1) independently of the
    # pipeline (-log|1-z|^2/(2 pi) against +log|1-z|/(2 pi)); with
    # ht1 = -log(z zbar)/(2 pi) here (criterion 2) that gives
    # ht2 = +log(z zbar)/(4 pi), the weight-1 Beilinson-Deligne value of
    # the log period.
    z = GRID[0]
    ctx = PolylogContext(z, N=6)
    lzz = 2.0 * math.log(abs(z))
    for a in (1, 2, 3):
        got = height2(polylog_framed(ctx, a, a + 1))
        assert abs(got - lzz / (4 * np.pi)) < 1e-8


@report("3c", "polylog ht2 zero for a>0, b != a+1")
def test_criterion_3c_ht2_vanishing():
    for z in GRID[::2]:
        ctx = PolylogContext(z, N=6)
        for a in range(1, 5):
            for b in range(a + 2, 7):
                assert abs(height2(polylog_framed(ctx, a, b))) < 1e-10


@report(4, "splitting closed form and residuals, N <= 6")
def test_criterion_4_splitting_closed_form():
    cases = [(z, 6) for z in GRID] + [(z, n) for z in GRID[::5]
                                      for n in (1, 2, 3, 4, 5)]
    for z, n in cases:
        ctx = PolylogContext(z, N=n)
        data = deligne.delta_splitting(polylog_mhs(ctx))
        assert np.linalg.norm(data.delta - delta_closed_form(ctx)) < 1e-9
        assert data.defining_residual < 1e-9
        assert data.reality_residual < 1e-9


def _suite_dims(rng):
    while True:
        dims = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(2, 5)))]
        if sum(dims) <= 6:
            return dims


@report(5, "bigrading axioms + exp(lambda) functoriality, 200 seeds + polylog")
def test_criterion_5_bigrading_axioms():
    rng = np.random.default_rng(2024)
    for seed in range(200):
        dims = _suite_dims(rng)
        split, lam, twisted = random_hodge_tate_pair(dims, seed=seed, scale=0.9)
        check_bigrading_axioms(twisted, tol=1e-8)
        g = nilpotent_exp(lam)
        bs, bt = deligne.bigrading(split), deligne.bigrading(twisted)
        assert set(bs.pieces) == set(bt.pieces)
        for pq, piece in bs.pieces.items():
            moved = image(piece, g)
            assert containment_residual(moved, bt.pieces[pq]) < 1e-8
            assert containment_residual(bt.pieces[pq], moved) < 1e-8
    for z in GRID[::4]:
        check_bigrading_axioms(polylog_mhs(PolylogContext(z, N=6)), tol=1e-8)


@report(6, "height symmetry laws on the randomized suite")
def test_criterion_6_height_laws():
    rng = np.random.default_rng(77)
    for seed in range(200):
        dims = _suite_dims(rng)
        if len(dims) < 2:
            continue
        h = random_hodge_tate(dims, seed=seed, scale=0.9)
        fh = random_framing(h, rng, a_level=0,
                            b_level=int(rng.integers(1, len(dims))))
        ht = (height1(fh), height2(fh))
        assert abs(ht[0] - height1_via_delta(fh)) < 1e-9

        fd = dual_framed(fh)
        assert abs(height1(fd) + ht[0]) < 1e-9
        assert abs(height2(fd) + ht[1]) < 1e-9

        p = int(rng.integers(-2, 3))
        ft = twist_framed(fh, p)
        assert abs(height1(ft) - ht[0]) < 1e-9
        assert abs(height2(ft) - ht[1]) < 1e-9

        sign = (-1) ** (fh.a - fh.b + 1)
        fc = conjugate_framed(fh)
        assert abs(height1(fc) - sign * ht[0]) < 1e-9
        assert abs(height2(fc) - sign * ht[1]) < 1e-9

        if seed % 10 == 0:
            n = h.dimension
            mu = np.zeros((n, n))
            mu[np.tril_indices(n, -1)] = rng.integers(-2, 3,
                                                      size=n * (n - 1) // 2)
            # lowering must drop whole weight blocks, not just matrix rows
            offsets = np.cumsum([0] + dims)
            for i in range(len(dims)):
                sl = slice(offsets[i], offsets[i + 1])
                mu[sl, sl] = 0.0
                for j in range(i + 1, len(dims)):
                    mu[sl, offsets[j]:offsets[j + 1]] = 0.0
            g = nilpotent_exp(mu)
            target = MixedHodgeStructure(
                n, h.weight_filtration,
                {q: (g @ arr.T).T for q, arr in h.hodge_filtration.items()})
            fh2 = FramedMHS(target, fh.a, fh.b,
                            tuple(g.real @ [float(x) for x in fh.phi_class]),
                            fh.psi_class)
            rep = framed_morphism_check(g, fh, fh2)
            assert rep.is_framed_morphism
            assert rep.height_invariance_error < 1e-9


@report(7, "biextension relation and the 2/3 delta-cubed defect")
def test_criterion_7_biextension():
    rng = np.random.default_rng(11)
    for steps in (2, 3):
        for seed in range(30):
            dims = [int(rng.integers(1, 3)) for _ in range(steps)]
            h = random_hodge_tate(dims, seed=seed, scale=1.1)
            fh = random_framing(h, rng)
            assert abs(biextension_defect(fh)) < 1e-9
    nonzero = 0
    for seed in range(30):
        h = random_hodge_tate([1, 1, 1, 1], seed=seed, scale=1.0)
        fh = random_framing(h, rng, a_level=0, b_level=3)
        defect = biextension_defect(fh)
        cubed = delta_pairing(fh, 3)
        # magnitude 2/3, sign plus (fixed by the expansion oracle, see
        # tests/test_framed.py::test_term_by_term_expansion_oracle)
        assert abs(abs(defect) - (2.0 / 3.0) * abs(cubed)) < 1e-9
        assert abs(defect - (2.0 / 3.0) * cubed.real) < 1e-9
        nonzero += abs(cubed) > 1e-3
    assert nonzero >= 25


@report(8, "single-valuedness across inequivalent paths")
def test_criterion_8_single_valuedness():
    z = 0.45 + 0.35j
    direct = PolylogContext(z, N=6)
    looped = PolylogContext(z, N=6, path=(
        0.3, 0.3 - 0.9j, 2.3 - 0.9j, 2.3 + 0.9j, 0.3 + 0.9j, 0.3, z))
    jumps = 0
    for b in range(1, 7):
        assert abs(sv_brown(b, direct) - sv_brown(b, looped)) < 1e-6
        assert abs(sv_bd(b, direct) - sv_bd(b, looped)) < 1e-6
        jumps += abs(li(b, direct) - li(b, looped)) > 1e-3
    assert jumps >= 3


@report(9, "subspace calculus vs exact rational oracle, 500 cases")
def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(123)
    for case in range(500):
        n = int(rng.integers(1, 9))
        ra = [[int(x) for x in rng.integers(-5, 6, size=n)]
              for _ in range(int(rng.integers(0, n + 2)))]
        rb = [[int(x) for x in rng.integers(-5, 6, size=n)]
              for _ in range(int(rng.integers(0, n + 2)))]
        a = from_vectors(np.array(ra, dtype=complex).reshape(-1, n), ambient_dim=n)
        b = from_vectors(np.array(rb, dtype=complex).reshape(-1, n), ambient_dim=n)
        assert a.dim == oracle_rank(ra)
        assert a.sum(b).dim == oracle_sum_dim(ra, rb)
        assert intersect(a, b).dim == oracle_intersection_dim(ra, rb)
