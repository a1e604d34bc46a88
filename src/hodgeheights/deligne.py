"""Deligne bigrading, grading operator, projectors and the delta-splitting.

Every valid MHS (F, W) on V determines a unique bigrading V_C = (+) I^{p,q}
with

    I^{p,q} = F^p cap W_{p+q} cap (conj(F^q) cap W_{p+q} + conj(U^{q-1}_{p+q-2})),
    U^r_s   = sum_{j>=0} F^{r-j} cap W_{s-j},

refining both filtrations.  The grading operator Y acts by p+q on I^{p,q},
and there is a unique real operator delta, all of whose Hodge components
strictly lower both indices, with  conj(Y) = e^{-2i delta} Y e^{2i delta}.
delta vanishes exactly when the structure splits over R; it is the raw
material of the second height functional.

The solver works degree by degree in the Y-weight drop: the drop-m part
of delta is read off from the residual of the defining equation at level
m and divided by 2im.  A slower fixed-point iteration on the same
equation is kept as an internal cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DTYPE, Subspace, nilpotent_exp
from .mhs import MixedHodgeStructure, require_valid

#: Tolerance for subspace residuals in the bigrading axioms.
SUBSPACE_TOL = 1e-8
#: Tolerance for the defining-equation residual of the splitting.
SPLITTING_TOL = 1e-9
#: Tolerance for the reality residual of delta.
REALITY_TOL = 1e-9


class NumericalDegeneracy(ValueError):
    """The bigrading pieces fail to assemble into a direct sum at tolerance."""


class ResidualTooLarge(ValueError):
    """The splitting solver finished but the defining equation is not satisfied."""


@dataclass(frozen=True, eq=False)
class Bigrading:
    """The pieces I^{p,q} plus a column-ordered basis of V_C.

    `basis` stacks orthonormal bases of the pieces, column blocks ordered
    by decreasing weight p+q then decreasing p; `labels[i]` is the (p, q)
    of column i's piece.
    """

    mhs: MixedHodgeStructure
    pieces: dict[tuple[int, int], Subspace]
    basis: np.ndarray
    labels: tuple[tuple[int, int], ...]

    @property
    def dimension(self) -> int:
        return self.mhs.dimension

    @cached_property
    def column_weights(self) -> np.ndarray:
        return np.array([p + q for p, q in self.labels])

    @cached_property
    def inverse_basis(self) -> np.ndarray:
        if not self.basis.size:
            return self.basis.copy()
        return np.linalg.inv(self.basis)

    def piece_dims(self) -> dict[tuple[int, int], int]:
        return {pq: s.dim for pq, s in self.pieces.items()}


def _u_subspace(h: MixedHodgeStructure, r: int, s: int) -> Subspace:
    """U^r_s = sum_{j>=0} F^{r-j} cap W_{s-j} (finite: stops below the lowest weight)."""
    jumps = h.weight_jumps
    low = jumps[0] if jumps else 0
    acc = Subspace.zero(h.dimension, h.rank_tolerance)
    j = 0
    while s - j >= low:
        acc = acc.sum(h.hodge_subspace(r - j).intersect(h.weight_subspace(s - j)))
        j += 1
    return acc


def _compute_bigrading(h: MixedHodgeStructure) -> Bigrading:
    require_valid(h)
    n = h.dimension
    pieces: dict[tuple[int, int], Subspace] = {}
    if n > 0:
        pjumps = h.hodge_jumps
        for k in h.weights_present():
            for p in range(pjumps[0], pjumps[-1] + 1):
                q = k - p
                wk = h.weight_subspace(k)
                right = (h.hodge_subspace(q).conjugate().intersect(wk)
                         .sum(_u_subspace(h, q - 1, k - 2).conjugate()))
                piece = h.hodge_subspace(p).intersect(wk).intersect(right)
                if piece.dim > 0:
                    pieces[(p, q)] = piece

    order = sorted(pieces, key=lambda pq: (-(pq[0] + pq[1]), -pq[0]))
    blocks, labels = [], []
    for pq in order:
        blocks.append(pieces[pq].basis)
        labels.extend([pq] * pieces[pq].dim)
    basis = np.hstack(blocks) if blocks else np.zeros((n, 0), dtype=DTYPE)

    total = basis.shape[1]
    if total != n:
        raise NumericalDegeneracy(
            f"bigrading dimensions sum to {total}, expected {n}")
    if n > 0:
        smin = np.linalg.svd(basis, compute_uv=False)[-1]
        if smin < SUBSPACE_TOL:
            raise NumericalDegeneracy(
                f"bigrading pieces nearly dependent (sigma_min={smin:.2e})")
    return Bigrading(h, pieces, basis, tuple(labels))


def bigrading(h: MixedHodgeStructure) -> Bigrading:
    """Deligne bigrading of a valid MHS (memoized on the structure)."""
    return h.memo("bigrading", lambda: _compute_bigrading(h))


def grading_operator(b: Bigrading) -> np.ndarray:
    """Y: acts as multiplication by p+q on I^{p,q}."""
    if b.dimension == 0:
        return np.zeros((0, 0), dtype=DTYPE)
    return (b.basis * b.column_weights) @ b.inverse_basis


def hodge_components(x: np.ndarray, b: Bigrading) -> dict[tuple[int, int], np.ndarray]:
    """Decompose an operator into pieces mapping I^{p,q} into I^{p+a,q+b}."""
    x = np.asarray(x, dtype=DTYPE)
    t = b.inverse_basis @ x @ b.basis
    comps: dict[tuple[int, int], np.ndarray] = {}
    labels = b.labels
    for i, (pi, qi) in enumerate(labels):
        for j, (pj, qj) in enumerate(labels):
            if t[i, j] == 0:
                continue
            key = (pi - pj, qi - qj)
            if key not in comps:
                comps[key] = np.zeros_like(t)
            comps[key][i, j] = t[i, j]
    return {key: b.basis @ m @ b.inverse_basis for key, m in comps.items()}


def _drop_masks(b: Bigrading) -> dict[int, np.ndarray]:
    w = b.column_weights
    drops = w[None, :] - w[:, None]      # drop of the (row i, col j) block
    return {int(m): (drops == m) for m in np.unique(drops)}


def _drop_part(t: np.ndarray, masks: dict[int, np.ndarray], m: int) -> np.ndarray:
    mask = masks.get(m)
    if mask is None:
        return np.zeros_like(t)
    return np.where(mask, t, 0.0)


@dataclass(frozen=True, eq=False)
class Projectors:
    """Projectors attached to a bigrading.

    by_type[(p, q)]  : identity on I^{p,q}, zero on the other pieces.
    by_weight[k]     : sum of by_type over p+q = k.
    to_graded[k]     : pi_k, V_C -> Gr^W_k in the rational graded frame.
    from_graded[k]   : iota_k, the section of pi_k landing in the weight-k
                       part of the bigrading; by_weight[k] = from o to.
    """

    by_type: dict[tuple[int, int], np.ndarray]
    by_weight: dict[int, np.ndarray]
    to_graded: dict[int, np.ndarray]
    from_graded: dict[int, np.ndarray]


def projectors(b: Bigrading) -> Projectors:
    h = b.mhs
    n = b.dimension
    sinv = b.inverse_basis
    labels = b.labels

    by_type: dict[tuple[int, int], np.ndarray] = {}
    for pq in b.pieces:
        sel = np.array([1.0 if lab == pq else 0.0 for lab in labels])
        by_type[pq] = (b.basis * sel) @ sinv

    weights = sorted({p + q for p, q in b.pieces})
    by_weight = {}
    for k in weights:
        acc = np.zeros((n, n), dtype=DTYPE)
        for (p, q), mat in by_type.items():
            if p + q == k:
                acc = acc + mat
        by_weight[k] = acc

    to_graded, from_graded = {}, {}
    for k in weights:
        frame = np.array([[float(x) for x in row]
                          for row in h.graded_rational_basis(k)], dtype=DTYPE).T
        m = frame.shape[1]
        lower = h.weight_subspace(k - 1).basis
        # coordinates in the rational frame, modulo W_{k-1}
        solver = np.linalg.pinv(np.hstack([frame, lower]))[:m]
        pi_k = solver @ by_weight[k]
        cols = [i for i, lab in enumerate(labels) if lab[0] + lab[1] == k]
        u = b.basis[:, cols]
        from_graded[k] = u @ np.linalg.inv(solver @ u)
        to_graded[k] = pi_k
    return Projectors(by_type, by_weight, to_graded, from_graded)


@dataclass(frozen=True, eq=False)
class SplittingData:
    """Grading operator, delta-splitting and diagnostics for one MHS."""

    bigrading: Bigrading
    Y: np.ndarray
    delta: np.ndarray
    delta_components: dict[tuple[int, int], np.ndarray]
    projectors: Projectors
    defining_residual: float
    reality_residual: float
    lambda_residual: float


def _solve_delta(y: np.ndarray, b: Bigrading) -> np.ndarray:
    """Degree-by-degree elimination for delta.

    For m = 2, 3, ...: the drop-m part of e^{-2i delta_<m} Y e^{2i delta_<m}
    - conj(Y), divided by 2im, is the drop-m part of delta.  Terminates
    after the weight span since delta is nilpotent.
    """
    masks = _drop_masks(b)
    ybar = y.conj()
    s, sinv = b.basis, b.inverse_basis
    delta = np.zeros_like(y)
    span = max(masks) if masks else 0
    for m in range(2, span + 1):
        g = nilpotent_exp(-2j * delta)
        ginv = nilpotent_exp(2j * delta)
        resid = sinv @ (g @ y @ ginv - ybar) @ s
        delta = delta + s @ _drop_part(resid, masks, m) @ sinv / (2j * m)
    return delta


def _delta_fixed_point(y: np.ndarray, b: Bigrading, max_iter: int = 64,
                       tol: float = 1e-13) -> np.ndarray:
    """Independent fixed-point solver for delta (internal oracle).

    Rewrites the defining equation as D delta = (Y - conj(Y) +
    sum_{j>=2} ad(-2i delta)^j(Y)/j!) / 2i with D scaling the drop-m part
    by m, and iterates from delta = 0.
    """
    masks = _drop_masks(b)
    ybar = y.conj()
    s, sinv = b.basis, b.inverse_basis
    span = max(masks) if masks else 0
    delta = np.zeros_like(y)
    for _ in range(max_iter):
        a = -2j * delta
        term = a @ y - y @ a
        series = np.zeros_like(y)
        fact = 1.0
        for j in range(2, span + 2):
            term = a @ term - term @ a
            fact *= j
            series = series + term / fact
        rhs = sinv @ ((y - ybar + series) / 2j) @ s
        new = np.zeros_like(y)
        for m, mask in masks.items():
            if m >= 2:
                new = new + np.where(mask, rhs, 0.0) / m
        new = s @ new @ sinv
        if np.linalg.norm(new - delta) < tol * max(1.0, np.linalg.norm(y)):
            return new
        delta = new
    return delta


def delta_splitting(h: MixedHodgeStructure) -> SplittingData:
    """Compute Y, delta and friends; raises ResidualTooLarge on solver failure.

    Memoized on the structure (results are never mutated by callers).
    """
    return h.memo("splitting", lambda: _compute_splitting(h))


def _compute_splitting(h: MixedHodgeStructure) -> SplittingData:
    b = bigrading(h)
    proj = projectors(b)
    y = grading_operator(b)
    if h.dimension == 0:
        return SplittingData(b, y, y.copy(), {}, proj, 0.0, 0.0, 0.0)

    delta = _solve_delta(y, b)
    scale = max(1.0, float(np.linalg.norm(y)))
    g = nilpotent_exp(-2j * delta)
    ginv = nilpotent_exp(2j * delta)
    defining = float(np.linalg.norm(g @ y @ ginv - y.conj())) / scale
    if defining > SPLITTING_TOL:
        raise ResidualTooLarge(
            f"splitting residual {defining:.2e} exceeds {SPLITTING_TOL:.2e}")
    reality = float(np.linalg.norm(delta.imag))
    if reality > REALITY_TOL * scale:
        raise ResidualTooLarge(
            f"delta has imaginary part {reality:.2e} (tolerance {REALITY_TOL:.2e})")

    comps = hodge_components(delta, b)
    lam_resid = 0.0
    delta_components = {}
    for (a, bb), mat in comps.items():
        if a < 0 and bb < 0:
            delta_components[(a, bb)] = mat
        else:
            lam_resid += float(np.linalg.norm(mat))

    return SplittingData(b, y, delta, delta_components, proj,
                         defining, reality, lam_resid)
