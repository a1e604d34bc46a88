"""Deligne bigrading, grading operator, Hodge components and the delta-splitting.

The bigrading of a valid MHS is its Deligne pieces I^{p,q} (see `mhs`,
where validity is decided on them), once their basis is checked to be
well conditioned.  The grading operator Y acts by p+q on I^{p,q}, and
there is a unique real operator delta, all of whose Hodge components
strictly lower both indices, with  conj(Y) = e^{-2i delta} Y e^{2i delta}.
delta vanishes exactly when the structure splits over R; it is the raw
material of the second height functional.

delta is solved in closed form: e^{-2i delta} is the unique map that is
the identity on Gr^W and takes Y to conj(Y) (Cattani--Kaplan--Schmid).
In the bigrading frame S, where Y is diagonal, C = S^{-1} conj(S) is
block lower triangular by weight, since W is real.  With Cd its blocks
of equal weight and L its weight-lowering ones, g = C Cd^{-1} is that
map in the frame S: it is the identity on Gr^W, and Cd commutes with Y,
so g Y g^{-1} = C Y C^{-1}.  The Cayley transform i (g - 1)(g + 1)^{-1}
= i L (2 Cd + L)^{-1} is tan(delta) and lowers the weight, so

    delta = S arctan(i L (2 Cd + L)^{-1}) S^{-1}

is one linear solve and a finite odd series.  It runs once per root
structure: a derived structure carries its parent's delta over through
the map `mhs._inherit` recorded, and releases the parent once its own
splitting is checked.  Every bigrading checks in integers that its
pieces fill each Gr^W_k, and every splitting computes Y from its own
bigrading and checks its delta's defining and reality residuals, so a
wrong carry raises.  delta's Hodge components and the lambda residual
(the norms of the components that do not lower both indices) are
diagnostics, reported and never compared with a tolerance; they are
computed on first read, by one `hodge_components`.
Degree-by-degree and fixed-point solvers of the defining equation are
test oracles (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mhs
from .linalg import DTYPE, frobenius, nilpotent_exp_pair
from .mhs import SUBSPACE_TOL, Bigrading, MixedHodgeStructure, require_valid

#: Tolerance for the defining-equation residual of the splitting.
SPLITTING_TOL = 1e-9
#: Tolerance for the reality residual of delta.
REALITY_TOL = 1e-9


class NumericalDegeneracy(ValueError):
    """The bigrading pieces fail to assemble into a direct sum at tolerance."""


class ResidualTooLarge(ValueError):
    """The splitting solver finished but the defining equation is not satisfied."""


def _compute_bigrading(h: MixedHodgeStructure) -> Bigrading:
    require_valid(h)
    b = mhs._pieces(h)
    # every structure's pieces, a twist's or conjugate's carried ones too, fill
    # each Gr^W_k: their columns have the weights of W's frame rows
    if sorted(p + q for p, q in b.labels) != list(h.weight_frame.weights):
        bad = mhs._dimension_violations(h, b.piece_dims())
        raise mhs.InvalidMHS(mhs.ValidationReport(tuple(bad)))
    # validation made the pieces a direct sum; they must also be well apart
    if h.dimension > 0 and b.singular_values[-1] < SUBSPACE_TOL:
        raise NumericalDegeneracy(f"bigrading pieces nearly dependent "
                                  f"(sigma_min={b.singular_values[-1]:.2e})")
    return b


def bigrading(h: MixedHodgeStructure) -> Bigrading:
    """Deligne bigrading of a valid MHS (memoized on the structure)."""
    return h.memo("bigrading", lambda: _compute_bigrading(h))


def grading_operator(b: Bigrading) -> np.ndarray:
    """Y: acts as multiplication by p+q on I^{p,q}."""
    if b.dimension == 0:
        return np.zeros((0, 0), dtype=DTYPE)
    return (b.basis * b.column_weights) @ b.inverse_basis


def hodge_components(x: np.ndarray, b: Bigrading) -> dict[tuple[int, int], np.ndarray]:
    """Decompose an operator into pieces mapping I^{p,q} into I^{p+a,q+b},
    all mapped back from the bigrading frame in one broadcast product."""
    x = np.asarray(x, dtype=DTYPE)
    t = b.inverse_basis @ x @ b.basis
    pq = np.array(b.labels, dtype=int).reshape(-1, 2)
    shift = pq[:, None, :] - pq[None, :, :]     # (i, j) -> (p_i - p_j, q_i - q_j)
    keys = list(dict.fromkeys(map(tuple, shift[t != 0].tolist())))
    masks = (shift == np.array(keys, dtype=int).reshape(-1, 1, 1, 2)).all(axis=3)
    return dict(zip(keys, b.basis @ np.where(masks, t, 0) @ b.inverse_basis))


@dataclass(frozen=True, eq=False)
class SplittingData:
    """Grading operator, delta-splitting and diagnostics for one MHS;
    exp_minus_2i_delta is e^{-2i delta}, the map of the defining equation.
    The diagnostics `delta_components` and `lambda_residual` are computed
    on first read and kept."""

    bigrading: Bigrading
    Y: np.ndarray
    delta: np.ndarray
    exp_minus_2i_delta: np.ndarray
    defining_residual: float
    reality_residual: float

    @cached_property
    def _diagnostics(self) -> tuple[dict[tuple[int, int], np.ndarray], float]:
        """delta's Hodge components that lower both indices, and the sum of
        the norms of the others, from one `hodge_components`."""
        lowering, rest = {}, 0.0
        for (a, b), mat in hodge_components(self.delta, self.bigrading).items():
            if a < 0 and b < 0:
                lowering[(a, b)] = mat
            else:
                rest += float(frobenius(mat))
        return lowering, rest

    @property
    def delta_components(self) -> dict[tuple[int, int], np.ndarray]:
        return self._diagnostics[0]

    @property
    def lambda_residual(self) -> float:
        """0 when delta lies in Lambda^{-1,-1}, as it must; reported only."""
        return self._diagnostics[1]


def _solve_delta(b: Bigrading) -> np.ndarray:
    """delta = S arctan(i L (2 Cd + L)^{-1}) S^{-1} (module docstring)."""
    w = b.column_weights
    lowering = w[:, None] < w[None, :]      # the (row i, col j) block lowers the weight
    c = b.inverse_basis @ b.basis.conj()
    cd, lower = np.where(w[:, None] == w[None, :], c, 0), np.where(lowering, c, 0)
    x = np.where(lowering, np.linalg.solve((2 * cd + lower).T, 1j * lower.T).T, 0)
    # x^k = 0 once k reaches the number of weights
    arctan = sum(((-1) ** (k // 2) * np.linalg.matrix_power(x, k) / k
                  for k in range(3, len(set(w.tolist())), 2)), x)
    return b.basis @ arctan @ b.inverse_basis


def delta_splitting(h: MixedHodgeStructure) -> SplittingData:
    """Compute Y, delta and friends; raises ResidualTooLarge on solver failure.

    Memoized on the structure (results are never mutated by callers).
    """
    return h.memo("splitting", lambda: _compute_splitting(h))


def _compute_splitting(h: MixedHodgeStructure) -> SplittingData:
    b = bigrading(h)
    y = grading_operator(b)
    if h.dimension == 0:
        return SplittingData(b, y, y.copy(), y.copy(), 0.0, 0.0)

    # a derived structure carries its parent's delta over (mhs._inherit)
    parent, move = h._carry or (None, None)
    delta = _solve_delta(b) if parent is None else move(delta_splitting(parent).delta)
    scale = max(1.0, float(frobenius(y)))
    g, ginv = nilpotent_exp_pair(-2j * delta)
    defining = float(frobenius(g @ y @ ginv - y.conj())) / scale
    if defining > SPLITTING_TOL:
        raise ResidualTooLarge(
            f"splitting residual {defining:.2e} exceeds {SPLITTING_TOL:.2e}")
    reality = float(frobenius(delta.imag))
    if reality > REALITY_TOL * scale:
        raise ResidualTooLarge(
            f"delta has imaginary part {reality:.2e} (tolerance {REALITY_TOL:.2e})")

    # checked: a carry is released, so the parent can die; one that raised stays
    object.__setattr__(h, "_carry", None)
    return SplittingData(b, y, delta, g, defining, reality)
