"""Mixed Hodge structures in Betti coordinates.

A mixed Hodge structure (MHS) here is a rational vector space Q^n with an
increasing weight filtration W (rational bases, kept exact as Fractions)
and a decreasing Hodge filtration F on C^n (complex bases, expressed in
Betti coordinates, i.e. pulled back through the comparison isomorphism).
Working in Betti coordinates makes complex conjugation entrywise, which
is relied on everywhere downstream.

Filtrations are stored sparsely by jump index:

* W_k is the value stored at the largest jump <= k, and 0 below the
  smallest jump; the value at the largest jump must be the full space.
* F^p is the value stored at the smallest jump >= p, and 0 above the
  largest jump; the value at the smallest jump must be the full space.

Validity is decided on Deligne's pieces I^{p,q}, which then become the
bigrading; `validate` is the one place the MHS criteria are written and
run.  Exact weight data is one echelon form per jump of W, and W_k and
F^p are one Subspace per jump; W_k's dimension is its exact rank.

The dual, Tate twists and conjugate of a valid structure are born with
every fact their parent holds about the same data, carried over:

* the pieces I^{p,q} (relabelled, conjugated or read off the parent's
  inverse bigrading basis);
* the F^p subspaces (the parent's, shifted or conjugated; for the dual,
  the annihilators its filtration is built from);
* for twists and conjugates, whose weight rows are the parent's, the W_k
  subspaces, the echelon forms and the verdict that W is nested with a
  full top;
* for twists and conjugates, the singular values and inverse of the
  bigrading basis (conjugated for the conjugate), as arrays: the child's
  bigrading does not keep its parent alive;
* delta, taken on first use from the parent's splitting (see
  `deligne.delta_splitting`).

What is still checked on the child: `validate` runs every containment,
dimension and independence check on the child's own filtrations and
pieces, and `deligne.delta_splitting` computes Y from the child's own
bigrading and checks delta's defining, reality and lambda residuals
against it.

Instances are immutable; all operations are pure functions returning new
structures, safe for concurrent use.  Facts derived from a structure (its
subspaces, weight echelon forms, validation report, pieces, bigrading and
splitting) are memoized on the instance and die with it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import _rational
from ._rational import RationalMatrix
from .linalg import DTYPE, Subspace, nilpotent_exp, numerical_rank

#: Tolerance for subspace residuals: F's nesting and the pieces' containment
#: in validation, and the bigrading's smallest singular value.
SUBSPACE_TOL = 1e-8


class InvalidMHS(ValueError):
    """Input fails MHS validation; carries the offending report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("invalid mixed Hodge structure:\n" + report.describe())
        self.report = report


@dataclass(frozen=True)
class Violation:
    kind: str           # "weight", "hodge", "purity", "data"
    index: int | None   # offending k or p, when there is one
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{v.kind}@{v.index}] {v.message}" for v in self.violations)


def _freeze_weight(filtration: Mapping[int, Sequence[Sequence]]) -> dict[int, RationalMatrix]:
    out = {}
    for k, rows in filtration.items():
        out[int(k)] = _rational.as_fraction_matrix(rows)
    return dict(sorted(out.items()))


def _freeze_hodge(filtration: Mapping[int, Sequence[Sequence[complex]]]) -> dict[int, np.ndarray]:
    out = {}
    for p, rows in filtration.items():
        arr = np.array(rows, dtype=DTYPE)
        arr.setflags(write=False)
        out[int(p)] = arr
    return dict(sorted(out.items()))


def _float_row(row: Sequence[Fraction]) -> list[float]:
    """The row as floats; one beyond float range is first divided exactly by
    its largest |entry|, which keeps its span."""
    try:
        return [float(x) for x in row]
    except OverflowError:
        return _float_row([x / max(map(abs, row)) for x in row])


@dataclass(frozen=True, eq=False)
class MixedHodgeStructure:
    """An MHS on Q^n in Betti coordinates.

    weight_filtration maps jump k to a list of rational row vectors
    spanning W_k; hodge_filtration maps jump p to complex row vectors
    spanning F^p.  comparison_matrix optionally records the Betti -> de
    Rham change of frame for reporting.
    """

    dimension: int
    weight_filtration: dict[int, RationalMatrix]
    hodge_filtration: dict[int, np.ndarray]
    comparison_matrix: np.ndarray | None = None

    def __init__(self, dimension, weight_filtration, hodge_filtration,
                 comparison_matrix=None):
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "weight_filtration", _freeze_weight(weight_filtration))
        object.__setattr__(self, "hodge_filtration", _freeze_hodge(hodge_filtration))
        if comparison_matrix is not None:
            comparison_matrix = np.array(comparison_matrix, dtype=DTYPE)
            comparison_matrix.setflags(write=False)
        object.__setattr__(self, "comparison_matrix", comparison_matrix)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_seeds", {})
        # the frozen filtrations are sorted by jump
        object.__setattr__(self, "_wjumps", tuple(self.weight_filtration))
        object.__setattr__(self, "_fjumps", tuple(self.hodge_filtration))

    # -- sparse filtration queries -------------------------------------

    @property
    def weight_jumps(self) -> list[int]:
        return list(self._wjumps)

    @property
    def hodge_jumps(self) -> list[int]:
        return list(self._fjumps)

    def _weight_jump(self, k: int) -> int | None:
        """The jump whose value is W_k (None below the lowest jump)."""
        i = bisect_right(self._wjumps, k)
        return self._wjumps[i - 1] if i else None

    def _hodge_jump(self, p: int) -> int | None:
        """The jump whose value is F^p (None above the highest jump)."""
        i = bisect_left(self._fjumps, p)
        return self._fjumps[i] if i < len(self._fjumps) else None

    def weight_rows(self, k: int) -> RationalMatrix:
        """Exact rational spanning rows of W_k (empty below the lowest jump)."""
        jump = self._weight_jump(k)
        return () if jump is None else self.weight_filtration[jump]

    def hodge_rows(self, p: int) -> np.ndarray:
        jump = self._hodge_jump(p)
        if jump is None:
            return np.zeros((0, self.dimension), dtype=DTYPE)
        return self.hodge_filtration[jump]

    def memo(self, key, compute):
        """compute(), evaluated once and kept for the lifetime of this structure.

        A value seeded under key (see `seed`) is evaluated instead of compute.
        """
        if key not in self._memo:
            self._memo[key] = self._seeds.get(key, compute)()
            self._seeds.pop(key, None)
        return self._memo[key]

    def seed(self, key, compute) -> None:
        """Have memo(key, ...) evaluate compute() instead of its own computation.

        A derived structure's carry from its parent, evaluated on first use;
        a seed that raises stays in place and raises again.
        """
        self._seeds[key] = compute

    def weight_subspace(self, k: int) -> Subspace:
        """W_k as a Subspace, memoized under the jump whose rows it spans.

        Its basis is the left singular vectors of W_k's reduced echelon
        rows (`_float_row`), each scaled to unit norm, all weight_rank(k) of
        them: the exact rank decides the dimension, so no scaling of the
        rational rows moves it.  W_k of full rank is the whole space.
        """
        def compute():
            rank = self.weight_rank(k)
            if rank == self.dimension:
                return Subspace.full(self.dimension)
            if rank == 0:
                return Subspace.zero(self.dimension)
            cols = np.array([_float_row(row) for row in self.weight_echelon(k)[0]],
                            dtype=DTYPE).T
            cols /= np.linalg.norm(cols, axis=0)
            return Subspace(np.linalg.svd(cols, full_matrices=False)[0])
        return self.memo(("W", self._weight_jump(k)), compute)

    def hodge_subspace(self, p: int) -> Subspace:
        """F^p as a Subspace, memoized under the jump whose rows it spans."""
        return self.memo(("F", self._hodge_jump(p)), lambda: Subspace.from_vectors(
            self.hodge_rows(p), ambient_dim=self.dimension))

    # -- exact weight-graded data --------------------------------------

    def weight_echelon(self, k: int) -> _rational.Echelon:
        """Reduced row echelon form of W_k, computed once per jump.

        Every exact rank and membership decision about W reads it; callers
        must not mutate it.
        """
        jump = self._weight_jump(k)
        if jump is None:
            return [], []
        return self.memo(("rref", jump),
                         lambda: _rational.rref(self.weight_filtration[jump]))

    def weight_rank(self, k: int) -> int:
        return len(self.weight_echelon(k)[0])

    def weight_contains(self, k: int, vector: Sequence[Fraction]) -> bool:
        """Exact membership of a rational vector in W_k."""
        return not any(_rational.remainder(vector, self.weight_echelon(k)))

    def graded_dimension(self, k: int) -> int:
        return self.weight_rank(k) - self.weight_rank(k - 1)

    def weights_present(self) -> list[int]:
        return [k for k in self.weight_jumps if self.graded_dimension(k) > 0]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MixedHodgeStructure(dim={self.dimension}, "
                f"W jumps={self.weight_jumps}, F jumps={self.hodge_jumps})")


def validate(h: MixedHodgeStructure) -> ValidationReport:
    """Check all MHS invariants; never raises.

    After the data and the filtrations' containments and fullness (W
    exactly), validity is decided on Deligne's pieces I^{p,q}, memoized
    on h for its bigrading.  This is the one place the MHS criteria are
    written (`_purity_violations`).  A derived structure's pieces are
    carried over from its parent, and they decide.  Otherwise a
    Hodge--Tate h's candidates F^{k/2} cap W_k come first: passing the
    criteria certifies them as the Deligne pieces of a valid structure
    (see `deligne`).  If there are no candidates, or they fail, the
    pieces of Deligne's formula decide and write the report.
    """
    bad: list[Violation] = []
    n = h.dimension

    if n == 0:
        return ValidationReport(())
    if not h.weight_filtration:
        bad.append(Violation("weight", None, "empty weight filtration"))
    if not h.hodge_filtration:
        bad.append(Violation("hodge", None, "empty Hodge filtration"))
    if bad:
        return ValidationReport(tuple(bad))

    for rows in h.weight_filtration.values():
        for row in rows:
            if len(row) != n:
                bad.append(Violation("data", None, "weight vector of wrong length"))
                return ValidationReport(tuple(bad))
    for arr in h.hodge_filtration.values():
        if arr.size and arr.shape[1] != n:
            bad.append(Violation("data", None, "Hodge vector of wrong length"))
            return ValidationReport(tuple(bad))
        if arr.size and not np.all(np.isfinite(arr)):
            bad.append(Violation("data", None, "non-finite Hodge entries"))
            return ValidationReport(tuple(bad))

    bad.extend(h.memo("W nesting", lambda: _weight_nesting(h)))

    # F decreasing (numeric), bottom = full space
    pjumps = h.hodge_jumps
    for lo, hi in zip(pjumps, pjumps[1:]):
        if not h.hodge_subspace(lo).contains_subspace(h.hodge_subspace(hi), SUBSPACE_TOL):
            bad.append(Violation("hodge", hi, f"F^{hi} not contained in F^{lo}"))
    if h.hodge_subspace(pjumps[0]).dim != n:
        bad.append(Violation("hodge", pjumps[0], "bottom Hodge subspace is not full"))

    if bad:
        return ValidationReport(tuple(bad))

    from . import deligne
    if "pieces" not in h._memo:
        candidates = deligne._hodge_tate_candidates(h)
        if candidates is not None and not _purity_violations(h, candidates):
            h.memo("pieces", lambda: candidates)
            return ValidationReport(())
    return ValidationReport(tuple(_purity_violations(h, deligne._pieces(h))))


def _purity_violations(h: MixedHodgeStructure, pieces) -> list[Violation]:
    """The MHS criteria on candidate pieces I^{p,q} of h, whose filtrations
    are nested with full bottom and top.

    Each piece I^{p,q} must lie in h's own F^p and W_{p+q}.  Then (W, F)
    is an MHS exactly when (i) the pieces form a direct sum of C^n, (ii)
    dim F^p is the total dim of the pieces I^{p',q} with p' >= p, (iii)
    the pieces of weight k have total dim Gr^W_k and (iv) dim I^{p,q} =
    dim I^{q,p}: each piece of weight k lies in F^p and, modulo W_{k-1},
    in conj F^q, so (i)-(iv) give Gr^W_k = F^p (+) conj F^{k-p+1};
    conversely the formula returns the Deligne splitting of every MHS,
    and a derived structure's is its parent's, carried over.  A failure
    is a purity violation at its weight k (p+q for containment), or at
    None for (i) and (ii); (i) is decided only when all else holds.
    """
    bad = []
    for (p, q), piece in sorted(pieces.pieces.items()):
        if not (h.hodge_subspace(p).contains_subspace(piece, SUBSPACE_TOL)
                and h.weight_subspace(p + q).contains_subspace(piece, SUBSPACE_TOL)):
            bad.append(Violation("purity", p + q, f"I^({p},{q}) does not lie in "
                                 f"F^{p} and W_{p + q}"))
    dims = pieces.piece_dims()
    for k in h.weights_present():
        total = sum(d for (p, q), d in dims.items() if p + q == k)
        if total != h.graded_dimension(k):
            bad.append(Violation("purity", k, f"pieces of weight {k} have dim {total}, "
                                 f"Gr^W_{k} has dim {h.graded_dimension(k)}"))
        for (p, q), d in sorted(dims.items()):
            if p + q == k and d > dims.get((q, p), 0):
                bad.append(Violation("purity", k, f"dim I^({p},{q}) = {d} exceeds "
                                     f"dim I^({q},{p}) = {dims.get((q, p), 0)}"))
    pjumps = h.hodge_jumps
    for p in range(pjumps[0], pjumps[-1] + 1):
        total = sum(d for (pp, q), d in dims.items() if pp >= p)
        if total != h.hodge_subspace(p).dim:
            bad.append(Violation("purity", None, f"F^{p} has dim {h.hodge_subspace(p).dim}, "
                                 f"pieces I^(p',q) with p' >= {p} have dim {total}"))
    if not bad and numerical_rank(pieces.singular_values) < h.dimension:
        bad.append(Violation("purity", None, "the pieces I^(p,q) are linearly dependent"))
    return bad


def _weight_nesting(h: MixedHodgeStructure) -> tuple[Violation, ...]:
    """W increasing with a full top, decided exactly on the echelon rows."""
    bad = []
    jumps = h.weight_jumps
    for lo, hi in zip(jumps, jumps[1:]):
        if not all(h.weight_contains(hi, row) for row in h.weight_echelon(lo)[0]):
            bad.append(Violation("weight", hi, f"W_{lo} not contained in W_{hi}"))
    if h.weight_rank(jumps[-1]) != h.dimension:
        bad.append(Violation("weight", jumps[-1], "top weight subspace is not full"))
    return tuple(bad)


def require_valid(h: MixedHodgeStructure) -> None:
    """Raise InvalidMHS unless h is valid; the report is kept on h."""
    report = h.memo("report", lambda: validate(h))
    if not report.ok:
        raise InvalidMHS(report)


# -- constructions ------------------------------------------------------


def _inherit(h: MixedHodgeStructure, child: MixedHodgeStructure,
             carry_pieces, carry_delta, shares_basis: bool = False,
             conjugated: bool = False) -> MixedHodgeStructure:
    """child, derived from the valid h, seeded with h's Deligne splitting.

    The splitting is unique and functorial, so the pieces and delta of a
    dual, twist or conjugate are fixed by its parent's: the pieces are
    carry_pieces(h's) at once, delta is carry_delta(h's delta) on first
    use, so delta is solved once per root structure.  When the carried
    pieces assemble to h's bigrading basis (shares_basis), or to its
    conjugate (conjugated too), the child's bigrading takes the singular
    values and inverse (conjugated too) of h's basis, as arrays.
    validate(child) still checks the pieces against child's own
    filtrations, and delta_splitting(child) checks delta's residuals on
    child's own Y.
    """
    from . import deligne
    b = deligne._pieces(h)
    pieces = carry_pieces(b)
    carried = None
    if shares_basis:
        inverse = b.inverse_basis.conj() if conjugated else b.inverse_basis
        carried = (b.singular_values, inverse)
    child.memo("pieces", lambda: deligne._assemble(child, pieces, carried))
    child.seed("delta", lambda: carry_delta(deligne.delta_splitting(h).delta))
    return child


def _carry_weights(h: MixedHodgeStructure, child: MixedHodgeStructure,
                   shift: int) -> None:
    """Seed child, whose W_{k+shift} has the rows of h's W_k, with h's exact
    weight facts: echelon forms, subspaces and the nesting verdict, which
    is "nested with a full top" since h is valid."""
    for k in h.weight_jumps:
        child._memo[("rref", k + shift)] = h.weight_echelon(k)
        child._memo[("W", k + shift)] = h.weight_subspace(k)
    child._memo["W nesting"] = ()


def tate(a: int) -> MixedHodgeStructure:
    """The rank-1 pure structure Q(a): weight -2a, Hodge jump -a, period (2 pi i)^a."""
    return MixedHodgeStructure(
        1,
        {-2 * a: [[Fraction(1)]]},
        {-a: [[1.0]]},
        comparison_matrix=[[(2j * np.pi) ** a]],
    )


def dual(h: MixedHodgeStructure) -> MixedHodgeStructure:
    """Dual MHS on the dual coordinates.

    W_k(dual) = Ann(W_{-k-1}) keeps exact rational bases; F^p(dual) =
    Ann(F^{-p+1}) is numeric.  Conventions make dual(Q(a)) = Q(-a).
    """
    require_valid(h)
    n = h.dimension

    # W_j(dual) = Ann(W_{-j-1}) jumps at j = -k for each jump k of W
    dual_w = {-k: [list(v) for v in _rational.nullspace(h.weight_echelon(k - 1), n)]
              for k in h.weight_jumps}

    pjumps = h.hodge_jumps                     # p_1 < ... < p_r, value T_i at p_i
    # segment of value Ann(T_{i+1}) tops out at q = -p_i; top segment is full
    dual_f = {-pjumps[-1]: Subspace.full(n)}
    for lo, hi in zip(pjumps, pjumps[1:]):
        dual_f[-lo] = h.hodge_subspace(hi).annihilator()

    child = MixedHodgeStructure(n, dual_w, {q: s.basis.T.copy() for q, s in dual_f.items()})
    child._memo.update({("F", q): s for q, s in dual_f.items()})
    # Row i of the inverse bigrading basis pairs to 1 with column i and to
    # 0 with every other, so the rows labelled (p, q) span I^{-p,-q}(dual).
    return _inherit(h, child,
                    lambda b: {(-p, -q): Subspace.from_vectors(
                        b.inverse_basis[[lab == (p, q) for lab in b.labels]],
                        ambient_dim=n) for p, q in b.pieces},
                    lambda delta: -delta.T)


def twist(h: MixedHodgeStructure, p: int) -> MixedHodgeStructure:
    """Tate twist H(p): W_k -> W_{k+2p}, F^q -> F^{q+p}, Betti basis unchanged."""
    require_valid(h)
    child = MixedHodgeStructure(
        h.dimension,
        {k - 2 * p: rows for k, rows in h.weight_filtration.items()},
        {q - p: arr for q, arr in h.hodge_filtration.items()},
    )
    _carry_weights(h, child, -2 * p)
    child._memo.update({("F", q - p): h.hodge_subspace(q) for q in h.hodge_jumps})
    return _inherit(h, child,
                    lambda b: {(i - p, j - p): piece for (i, j), piece in b.pieces.items()},
                    lambda delta: delta, shares_basis=True)


def conjugate(h: MixedHodgeStructure) -> MixedHodgeStructure:
    """Complex conjugate MHS: same rational data and W, F replaced by conj(F)."""
    require_valid(h)
    comparison = None
    if h.comparison_matrix is not None:
        comparison = h.comparison_matrix.conj()
    child = MixedHodgeStructure(
        h.dimension,
        h.weight_filtration,
        {p: arr.conj() for p, arr in h.hodge_filtration.items()},
        comparison,
    )
    _carry_weights(h, child, 0)
    child._memo.update({("F", q): h.hodge_subspace(q).conjugate() for q in h.hodge_jumps})
    # conj I^{p,q}(H) is I^{p,q} of conj H, with the same label (not (q, p));
    # conj delta(H) = delta(H) is real, and conj H has -delta(H)
    return _inherit(h, child,
                    lambda b: {pq: piece.conjugate() for pq, piece in b.pieces.items()},
                    lambda delta: -delta, shares_basis=True, conjugated=True)


# -- randomized Hodge--Tate structures ----------------------------------


def _split_hodge_tate(dims: Sequence[int]) -> MixedHodgeStructure:
    """Direct sum of Tate pieces: block i has weight -2i with multiplicity dims[i]."""
    n = int(sum(dims))
    offsets = np.cumsum([0] + list(dims))
    weight, hodge = {}, {}
    for i, d in enumerate(dims):
        # W_{-2i} is spanned by blocks i..end
        rows = [[Fraction(1 if c == r else 0) for c in range(n)]
                for r in range(offsets[i], n)]
        weight[-2 * i] = rows
        cols = np.eye(n, dtype=DTYPE)[: offsets[i] + d]
        hodge[-i] = cols
    return MixedHodgeStructure(n, weight, hodge)


def random_lowering(dims: Sequence[int], seed: int, scale: float = 0.8) -> np.ndarray:
    """Random element of Lambda^{-1,-1} for the split Hodge--Tate block layout.

    For a split Hodge--Tate structure the (-m,-m) Hodge components of gl
    are exactly the maps sending a weight block into a strictly lower
    block, so any block-strictly-lower matrix qualifies.  Complex-valued
    on purpose: real ones produce R-split twists.
    """
    rng = np.random.default_rng(seed)
    n = int(sum(dims))
    offsets = np.cumsum([0] + list(dims))
    lam = np.zeros((n, n), dtype=DTYPE)
    for i in range(len(dims)):
        for j in range(i):
            block = (rng.standard_normal((dims[i], dims[j]))
                     + 1j * rng.standard_normal((dims[i], dims[j]))) * scale
            lam[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = block
    return lam


def random_hodge_tate_pair(dims: Sequence[int], seed: int, scale: float = 0.8,
                           real: bool = False):
    """(split structure, lambda, twisted structure) for the given seed.

    The twisted structure is (e^lambda . F, W): a valid MHS whose graded
    piece of weight -2i is Q(i)^dims[i], generally not split over R.
    With real=True the generator is real and the result stays R-split.
    """
    split = _split_hodge_tate(dims)
    lam = random_lowering(dims, seed, scale)
    if real:
        lam = lam.real.astype(DTYPE)
    g = nilpotent_exp(lam)
    hodge = {p: (g @ arr.T).T for p, arr in split.hodge_filtration.items()}
    twisted = MixedHodgeStructure(split.dimension, split.weight_filtration, hodge)
    return split, lam, twisted


def random_hodge_tate(dims: Sequence[int], seed: int,
                      scale: float = 0.8) -> MixedHodgeStructure:
    """Random Hodge--Tate MHS with Gr^W_{-2i} = Q(i)^dims[i], deterministic per seed."""
    return random_hodge_tate_pair(dims, seed, scale)[2]
