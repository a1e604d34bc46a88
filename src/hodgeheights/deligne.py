"""Deligne bigrading, grading operator, Hodge components and the delta-splitting.

Every valid MHS (F, W) on V determines a unique bigrading V_C = (+) I^{p,q}
with

    I^{p,q} = F^p cap W_{p+q} cap (conj(F^q) cap W_{p+q} + conj(U^{q-1}_{p+q-2})),
    U^r_s   = sum_{j >= 0} F^{r-j} cap W_{s-j}     (W zero below the lowest weight),

refining both filtrations.  The grading operator Y acts by p+q on I^{p,q},
and there is a unique real operator delta, all of whose Hodge components
strictly lower both indices, with  conj(Y) = e^{-2i delta} Y e^{2i delta}.
delta vanishes exactly when the structure splits over R; it is the raw
material of the second height functional.

The formula is evaluated as written, for any (W, F) whose filtrations
are nested (`_deligne_formula_pieces`).  W_k is real and every term lies
in W_k, so the right-hand side is one conjugated span,

    conj(F^q cap W_k + sum_{j >= 0} F^{q-1-j} cap W_{k-2-j}),   k = p+q.

F^r and W_s only change at their jumps; all the F^r are one batched SVD
and all the W_s one QR of W's exact frame (see `mhs`).  F^r cap W_s for
every pair of jumps is one batched `Subspace.intersect_pairs`, each
right-hand side is one `Subspace.sum` of its nonzero terms (one SVD),
and all the pieces together are one more batch.

A Hodge--Tate structure, every piece of type (p, p), has as its pieces
the standard splitting of a mixed Tate structure by its Hodge filtration
(Deligne 1989): P_k = F^{k/2} cap W_k for every weight k, all even.
`_hodge_tate_candidates` computes them in one batched intersection and
checks nothing.  `mhs.validate`, the one place the MHS criteria are
written, certifies them; only if they fail do the formula's pieces
decide validity and write the report.  Certified candidates are
Deligne's pieces: (iii) each P_k has dim Gr^W_k, (ii) dim F^p is the
total dim of the P_k with k >= 2p, for every p, and (i) they are a
direct sum.  Then the sum of the P_j, j <= k, is direct, lies in W_k and
has its dimension, so it is W_k; so P_k maps onto Gr^W_k and F^p is the
sum of the P_k with k >= 2p.  Together these give F^{k/2} Gr^W_k =
Gr^W_k and F^{k/2+1} Gr^W_k = 0, so (W, F) is a Hodge--Tate MHS, and by
uniqueness the P_k are its Deligne pieces.

The pieces are memoized on the structure.  The splitting is functorial
(Cattani--Kaplan--Schmid), so a dual, Tate twist or conjugate takes its
pieces from its parent's (`mhs._inherit`) and never evaluates the formula.
Validation decides on the pieces, certified, computed or carried over,
whether (W, F) is an MHS at all; the bigrading of a valid structure is
the same pieces, once their basis is checked to be well conditioned.

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
structure: a derived structure takes delta from its parent's (see
`mhs._inherit`).  Every structure still computes Y from its own
bigrading and checks the defining, reality and lambda residuals of its
delta, so a wrong carry raises ResidualTooLarge.  Degree-by-degree and
fixed-point solvers of the defining equation are test oracles (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DTYPE, Subspace, nilpotent_exp_pair
from .mhs import SUBSPACE_TOL, MixedHodgeStructure, require_valid

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
    #: When the basis is a parent's or its conjugate (a twist or
    #: conjugate): that basis's singular values and inverse (conjugated
    #: too), as arrays only, so the parent structure can die.
    carried: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dimension(self) -> int:
        return self.mhs.dimension

    @cached_property
    def column_weights(self) -> np.ndarray:
        return np.array([p + q for p, q in self.labels])

    @cached_property
    def singular_values(self) -> np.ndarray:
        if self.carried is not None:
            return self.carried[0]
        return np.linalg.svd(self.basis, compute_uv=False)

    @cached_property
    def inverse_basis(self) -> np.ndarray:
        if self.carried is not None:
            return self.carried[1]
        if not self.basis.size:
            return self.basis.copy()
        return np.linalg.inv(self.basis)

    def piece_dims(self) -> dict[tuple[int, int], int]:
        return {pq: s.dim for pq, s in self.pieces.items()}


def _pieces(h: MixedHodgeStructure) -> Bigrading:
    """Deligne's pieces of any nested (W, F), memoized on h: the Hodge--Tate
    candidates once `mhs.validate` has certified them, a derived h's carried
    over from its parent, and otherwise the formula's.  Validate decides
    validity on them, and they are the bigrading if h is valid."""
    return h.memo("pieces", lambda: _deligne_formula_pieces(h))


def _hodge_tate_candidates(h: MixedHodgeStructure) -> Bigrading | None:
    """F^{k/2} cap W_k for every weight k present, in one batch, when every
    such k is even; otherwise None.  Nothing is checked here: they are
    Deligne's pieces once `mhs.validate` certifies them (module docstring).
    """
    weights = h.weights_present()
    if any(k % 2 for k in weights):
        return None
    cuts = Subspace.intersect_pairs(
        [(h.hodge_subspace(k // 2), h.weight_subspace(k)) for k in weights])
    return _assemble(h, {(k // 2, k // 2): c for k, c in zip(weights, cuts)})


def _deligne_formula_pieces(h: MixedHodgeStructure) -> Bigrading:
    """Deligne's formula as written (module docstring), for any nested (W, F)."""
    n = h.dimension
    pieces: dict[tuple[int, int], Subspace] = {}
    if n > 0:
        fjumps, wjumps = h.hodge_jumps, h.weight_jumps
        jumps = [(r, s) for r in fjumps for s in wjumps]
        fw = dict(zip(jumps, Subspace.intersect_pairs(
            [(h.hodge_subspace(r), h.weight_subspace(s)) for r, s in jumps])))
        zero = Subspace.zero(n)

        def cut(r: int, s: int) -> Subspace:
            # F^r cap W_s is zero above the highest jump of F or below the lowest of W
            return fw.get((h._hodge_jump(r), h._weight_jump(s)), zero)

        labels, pairs = [], []
        for k in h.weights_present():
            for p in range(fjumps[0], fjumps[-1] + 1):
                left = cut(p, k)
                if left.dim == 0:
                    continue
                q = k - p
                # conj(F^q cap W_k + U^{q-1}_{k-2}); U's terms end at the lowest weight
                right = cut(q, k).sum(*(cut(q - 1 - j, k - 2 - j)
                                        for j in range(k - 1 - wjumps[0])))
                labels.append((p, q))
                pairs.append((left, right.conjugate()))
        for pq, piece in zip(labels, Subspace.intersect_pairs(pairs)):
            if piece.dim > 0:
                pieces[pq] = piece
    return _assemble(h, pieces)


def _assemble(h: MixedHodgeStructure, pieces: dict[tuple[int, int], Subspace],
              carried: tuple[np.ndarray, np.ndarray] | None = None) -> Bigrading:
    """The pieces of h as a Bigrading: blocks ordered by decreasing weight,
    then decreasing p, and each column labelled by its piece.  `carried`
    is the singular values and inverse of its basis, when known (see
    `Bigrading.carried`)."""
    order = sorted(pieces, key=lambda pq: (-(pq[0] + pq[1]), -pq[0]))
    blocks, labels = [], []
    for pq in order:
        blocks.append(pieces[pq].basis)
        labels.extend([pq] * pieces[pq].dim)
    basis = np.hstack(blocks) if blocks else np.zeros((h.dimension, 0), dtype=DTYPE)
    return Bigrading(h, pieces, basis, tuple(labels), carried)


def _compute_bigrading(h: MixedHodgeStructure) -> Bigrading:
    require_valid(h)
    b = _pieces(h)
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
    """Grading operator, delta-splitting and diagnostics for one MHS."""

    bigrading: Bigrading
    Y: np.ndarray
    delta: np.ndarray
    delta_components: dict[tuple[int, int], np.ndarray]
    defining_residual: float
    reality_residual: float
    lambda_residual: float


def _solve_delta(b: Bigrading) -> np.ndarray:
    """delta = S arctan(i L (2 Cd + L)^{-1}) S^{-1} (module docstring)."""
    w = b.column_weights
    lowering = w[:, None] < w[None, :]      # the (row i, col j) block lowers the weight
    c = b.inverse_basis @ b.basis.conj()
    cd, lower = np.where(w[:, None] == w[None, :], c, 0), np.where(lowering, c, 0)
    x = np.where(lowering, np.linalg.solve((2 * cd + lower).T, 1j * lower.T).T, 0)
    # x^k = 0 once k reaches the number of weights
    arctan = sum(((-1) ** (k // 2) * np.linalg.matrix_power(x, k) / k
                  for k in range(3, len(np.unique(w)), 2)), x)
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
        return SplittingData(b, y, y.copy(), {}, 0.0, 0.0, 0.0)

    # a derived structure's delta is carried over from its parent (mhs._inherit)
    delta = h.memo("delta", lambda: _solve_delta(b))
    scale = max(1.0, float(np.linalg.norm(y)))
    g, ginv = nilpotent_exp_pair(-2j * delta)
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

    return SplittingData(b, y, delta, delta_components,
                         defining, reality, lam_resid)
