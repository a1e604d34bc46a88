"""Mixed Hodge structures in Betti coordinates, and Deligne's pieces.

A mixed Hodge structure (MHS) here is a rational vector space Q^n with an
increasing weight filtration W (exact rational data) and a decreasing
Hodge filtration F on C^n (complex bases, expressed in Betti coordinates,
i.e. pulled back through the comparison isomorphism).  Working in Betti
coordinates makes complex conjugation entrywise, which is relied on
everywhere downstream.

W is an exact adapted frame (`WeightFrame`): rational rows in ascending
weight, W_k the span of those of weight <= k, so dim W_k is exact.  Rows
given by jump are framed in one pass that also decides, exactly, that W
is nested with a full top; constructions that know the frame hand it
over, checked by integer comparisons on first use (`_frame_violations`).
F is sparse by jump: F^p is the value at the smallest jump >= p, 0 above
the largest, and the value at the smallest jump must be the full space.
It is given as rows by jump, or as a flag (`HodgeFlag`, as H(z), the
random Hodge--Tate generator and Tate structures give it), and decided
once, like W, in `_hodge`: dim F^p at every jump and F's verdict.  A flag
is nested by construction, so its own SVD alone decides it.  Every rank decision
reads generators scaled to unit norm (`linalg.unit_columns`), so none
moves with a generator's size.

A valid structure holds two square orthonormal frames (`_frames`): q,
W_k its first dim W_k columns (the identity columns at the pivots of a
coordinate frame, `WeightFrame.coordinate`, as every construction here
gives, else one QR of the rows), and Q, F^p its first dim F^p columns (a
flag's QR, or one SVD of known ranks of rows by jump that nest); every
dual, twist and conjugate is a flag that is its own frame.  The frames
and the ranks (`weight_rank`, `hodge_rank`) are all that is kept of W and
F: `weight_subspace` and `hodge_subspace` are prefix views made when
asked (a full W_k is q itself; an F with no frame has none).  Every
containment is read in the frames by one rule, `linalg.tail_norms`.

Every valid MHS (F, W) on V determines a unique bigrading V_C = (+) I^{p,q}
with

    I^{p,q} = F^p cap W_{p+q} cap (conj(F^q) cap W_{p+q} + conj(U^{q-1}_{p+q-2})),
    U^r_s   = sum_{j >= 0} F^{r-j} cap W_{s-j}     (W zero below the lowest weight),

refining both filtrations.  Validity is decided on these pieces, which
then become the bigrading (`Bigrading`, see `deligne`); `validate` is the
one place the MHS criteria are written and run (`_purity_violations`).

The formula is evaluated as written, for any (W, F) whose filtrations
are nested (`_deligne_formula_pieces`).  W_k is real and every term lies
in W_k, so the right-hand side is one conjugated span,

    conj(F^q cap W_k + sum_{j >= 0} F^{q-1-j} cap W_{k-2-j}),   k = p+q.

F^r cap W_s, keyed by (dim F^r, dim W_s), is one batched
`intersect_pairs` over the pairs of jumps, each
right-hand side one `Subspace.sum` of its nonzero terms that lie in
no other (one SVD each: their widths differ up to 100x, so one padded
batch was measured slower), and all the pieces one more batch.

A Hodge--Tate structure, every piece of type (p, p), has as its pieces
the standard splitting of a mixed Tate structure by its Hodge filtration
(Deligne 1989), P_k = F^{k/2} cap W_k for every weight k, all even.  A
flag hands them over: its block of jump p, the columns between the ranks
of consecutive jumps, is the candidate P_{2p} (`_hodge_tate_candidates`;
column k of A(z)^{-1} for H(z)).  `validate` certifies them; if they
fail, or there are none (F given by jump), the formula's pieces decide
validity and write the report.  Certified candidates are Deligne's
pieces: each P_k lies in F^{k/2} and W_k, (iii) has dim Gr^W_k, (ii) dim
F^p is the total dim of the P_k with k >= 2p, for every p, and (i) they
are a direct sum.  Then the sum of the P_j with j <= k is direct, lies
in W_k and has its dimension, so it is W_k; so P_k maps onto Gr^W_k and
F^p is the sum of the P_k with k >= 2p.  Together these give F^{k/2}
Gr^W_k = Gr^W_k and F^{k/2+1} Gr^W_k = 0, so (W, F) is a Hodge--Tate
MHS, and by uniqueness the P_k are its Deligne pieces.

The splitting is functorial (Cattani--Kaplan--Schmid), so a dual, Tate
twist or conjugate of a valid structure takes what it inherits from its
parent through one call, `_inherit`, and no other way: W's verdict, F's
frame, its Deligne pieces (with the singular values and inverse of their
basis when it is the parent's or its conjugate), a twist's or
conjugate's W frame q and parent's report, and the parent
with the map that carries its delta over, which `deligne` resolves and
then releases the parent.  The child never evaluates the formula.  A
twist or conjugate takes its parent's verdict, by functoriality, so
`require_valid` checks nothing on it; the dual is validated on its
pieces, new floats; `validate` called directly is always the full
check.  `deligne.bigrading` checks in integers that every structure's
pieces fill each Gr^W_k, and `deligne.delta_splitting` checks delta's
defining and reality residuals against every child's own Y, so a wrong
carry raises.

Instances are immutable; all operations are pure functions returning new
structures, safe for concurrent use.  Facts derived from a structure (its
frames and F's ranks, weight rows, validation report, pieces, bigrading
and splitting) are memoized on the instance and die with it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Integral
from typing import Mapping, Sequence

import numpy as np

from . import _rational
from ._rational import RationalMatrix
from .linalg import (DTYPE, LinalgError, Subspace, _padded, frobenius, nilpotent_exp,
                     numerical_rank, tail_norms, unit_columns)

#: Tolerance for subspace residuals: F's nesting and the pieces' containment
#: in validation, and the bigrading's smallest singular value.
SUBSPACE_TOL = 1e-8

#: Largest |a| of a Tate structure Q(a): (2 pi)^a is finite up to a = 386.
MAX_TATE = int(math.log(sys.float_info.max) / math.log(2 * math.pi))


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


@dataclass(frozen=True)
class WeightFrame:
    """W as an exact adapted frame: rational rows (int or Fraction entries)
    in ascending weight, rows[i] of weight weights[i], W_k the span of the
    rows of weight <= k.  rows[i] has entry 1 at column pivots[i], where
    every later row has 0, so coordinates in the frame come out of one
    elimination in row order.  jumps are W's jumps; one may add no row."""

    jumps: tuple[int, ...]
    rows: tuple[tuple, ...]
    weights: tuple[int, ...]
    pivots: tuple[int, ...]

    @cached_property
    def coordinate(self) -> bool:
        """Whether every row is the standard vector at its pivot, decided
        once: then W_k is spanned by the standard vectors at the first dim
        W_k pivots, and a vector's coordinates in the frame are its entries
        there.  Every construction in the library, and every dual, twist
        or conjugate of one, has such a frame."""
        return all(0 <= c < len(row) and row[c] == 1 and not any(row[:c])
                   and not any(row[c + 1:]) for row, c in zip(self.rows, self.pivots))

    def shifted(self, shift: int) -> "WeightFrame":
        """The same rows with every weight and jump moved by shift."""
        return WeightFrame(tuple(k + shift for k in self.jumps), self.rows,
                           tuple(w + shift for w in self.weights), self.pivots)

    def dual(self) -> "WeightFrame":
        """The dual W's frame, W_{-k} = Ann(W_{k-1}): the exact dual basis s_i
        (s_i . rows[j] = delta_ij), reversed, s_i of weight -weights[i] at
        pivot pivots[i].  u[l][m] = rows[l][pivots[m]] is unit upper
        triangular and s_i is column i of u^{-1} at the pivots, found
        exactly by back substitution."""
        rows, piv = self.rows, self.pivots
        duals = []
        for i in range(len(rows)):
            s = [0] * len(rows)
            s[piv[i]] = 1
            for l in range(i - 1, -1, -1):
                s[piv[l]] = -sum(rows[l][piv[m]] * s[piv[m]] for m in range(l + 1, i + 1))
            duals.append(tuple(s))
        return WeightFrame(tuple(-k for k in reversed(self.jumps)), tuple(reversed(duals)),
                           tuple(-w for w in reversed(self.weights)), tuple(reversed(piv)))


def coordinate_flag(dims: Sequence[int]) -> WeightFrame:
    """The frame whose W_{-2i} is spanned by the standard vectors of blocks
    i, i+1, ...: block i, the next dims[i] coordinates, has weight -2i."""
    offsets = np.cumsum([0] + list(dims)).tolist()
    blocks = range(len(dims) - 1, -1, -1)
    order = [c for i in blocks for c in range(offsets[i], offsets[i + 1])]
    return WeightFrame(tuple(-2 * i for i in blocks),
                       tuple(tuple(int(c == r) for c in range(offsets[-1])) for r in order),
                       tuple(-2 * i for i in blocks for _ in range(dims[i])), tuple(order))


def _adapted_frame(n: int, filtration: Mapping[int, Sequence[Sequence]]
                   ) -> tuple[WeightFrame, tuple[Violation, ...]]:
    """W's adapted frame from rational rows, with the exact verdict that W
    is nested with a full top, in one ascending pass over the jumps.  W_j
    lies in W_k when W_j's reduced echelon rows leave no remainder against
    W_k's; then W_j's pivots are among W_k's, so W_k's echelon rows at new
    pivots vanish at every earlier one: they are W_k's frame rows.  A W
    that is not nested has no adapted frame; its rows serve the report."""
    frozen = dict(sorted((int(k), _rational.as_fraction_matrix(r)) for k, r in filtration.items()))
    jumps = tuple(frozen)
    if any(len(row) != n for rows in frozen.values() for row in rows):
        return (WeightFrame(jumps, (), (), ()),
                (Violation("data", None, "weight vector of wrong length"),))
    frame, bad, lower = [], [], None
    for k, given in frozen.items():
        echelon = _rational.rref(given)
        if lower and any(any(_rational.remainder(row, echelon)) for row in lower[1][0]):
            bad.append(Violation("weight", k, f"W_{lower[0]} not contained in W_{k}"))
        seen = {c for _, _, c in frame}
        frame += [(tuple(row), k, c) for row, c in zip(*echelon) if c not in seen]
        lower = k, echelon
    if jumps and len(lower[1][0]) != n:
        bad.append(Violation("weight", jumps[-1], "top weight subspace is not full"))
    return WeightFrame(jumps, *(zip(*frame) if frame else ((), (), ()))), tuple(bad)


def _frame_violations(n: int, f: WeightFrame) -> tuple[Violation, ...]:
    """A frame's first data violation, else W's top not being full, by
    integer comparisons only."""
    rows, piv, jumps, weights = f.rows, f.pivots, f.jumps, f.weights
    cols = list(zip(*rows))
    def data(message: str) -> tuple[Violation, ...]:
        return (Violation("data", None, message),)
    if any(len(row) != n for row in rows):
        return data("weight vector of wrong length")
    if not len(rows) == len(weights) == len(piv) <= n:
        return data("weight frame needs one weight and pivot per row, and at most n rows")
    if not all(isinstance(k, Integral) for k in (*jumps, *weights, *piv)):
        return data("weight frame weights, jumps or pivots not integers")
    if (list(jumps) != sorted(set(jumps)) or list(weights) != sorted(weights)
            or not set(weights) <= set(jumps)):
        return data("weight frame weights not ascending among its jumps")
    if not all(0 <= c < n and cols[c][i] == 1 and not any(cols[c][i + 1:])
               for i, c in enumerate(piv)):
        return data("weight frame rows not 1 at their pivots, with 0 there in every later row")
    if jumps and len(rows) < n:
        return (Violation("weight", jumps[-1], "top weight subspace is not full"),)
    return ()


def _nesting_residuals(spans: Sequence[Subspace]) -> list[float]:
    """||X - Y Y^* X|| for adjacent spans (Y, X) of F by jump, before F has a frame."""
    return [frobenius(x.basis - y.basis @ (y.basis.conj().T @ x.basis))
            for y, x in zip(spans, spans[1:])]


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=DTYPE)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HodgeFlag:
    """F as a flag: F^p, at jump jumps[i], is the span of the first
    ranks[i] columns of one complex basis with a row per coordinate.  The
    jumps are sorted and the ranks do not grow with them, so F is nested by
    construction.  The basis is kept as a read-only copy of its first
    max(ranks) <= rows columns, of which `hodge_filtration`'s rows are views."""

    basis: np.ndarray
    jumps: tuple[int, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=DTYPE)
        by_jump = dict(sorted((int(p), int(r)) for p, r in zip(self.jumps, self.ranks)))
        ranks, top = tuple(by_jump.values()), max(by_jump.values(), default=0)
        if not (basis.ndim == 2 and len(by_jump) == len(self.jumps) == len(self.ranks)
                and min(ranks, default=0) >= 0 and top <= min(basis.shape)
                and list(ranks) == sorted(ranks, reverse=True)):
            raise ValueError("a Hodge flag needs a matrix basis and distinct jumps, each with a "
                             "rank from 0 to its number of rows and columns, not growing with it")
        object.__setattr__(self, "basis", _readonly(basis[:, :top]))
        object.__setattr__(self, "jumps", tuple(by_jump))
        object.__setattr__(self, "ranks", ranks)


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

    weight_filtration is a WeightFrame or maps jump k to a list of
    rational row vectors spanning W_k (made into a frame at once);
    hodge_filtration is a HodgeFlag or maps jump p to complex row vectors
    spanning F^p.  Read back, hodge_filtration is always rows by jump (a
    flag's as views of its basis).  comparison_matrix optionally records
    the Betti -> de Rham change of frame for reporting.
    """

    dimension: int
    weight_frame: WeightFrame
    hodge_filtration: dict[int, np.ndarray]
    comparison_matrix: np.ndarray | None = None

    def __init__(self, dimension, weight_filtration, hodge_filtration,
                 comparison_matrix=None):
        object.__setattr__(self, "dimension", int(dimension))
        # W's verdict comes with the frame of rows given by jump (see `validate`)
        frame, bad = ((weight_filtration, None) if isinstance(weight_filtration, WeightFrame)
                      else _adapted_frame(self.dimension, weight_filtration))
        object.__setattr__(self, "weight_frame", frame)
        flag = hodge_filtration if isinstance(hodge_filtration, HodgeFlag) else None
        object.__setattr__(self, "hodge_filtration", dict(sorted(
            {int(p): _readonly(rows) for p, rows in hodge_filtration.items()}.items()))
            if flag is None else {p: flag.basis.T[:r] for p, r in zip(flag.jumps, flag.ranks)})
        object.__setattr__(self, "comparison_matrix", None if comparison_matrix is None
                           else _readonly(comparison_matrix))
        object.__setattr__(self, "_memo", {} if bad is None else {"frame": bad})
        # (parent, map) of a derived structure until its delta is carried over
        object.__setattr__(self, "_carry", None)
        object.__setattr__(self, "_flag", flag)
        # the frozen Hodge filtration is sorted by jump
        object.__setattr__(self, "_fjumps", tuple(self.hodge_filtration))

    # -- sparse filtration queries -------------------------------------

    @property
    def weight_jumps(self) -> list[int]:
        return list(self.weight_frame.jumps)

    @property
    def hodge_jumps(self) -> list[int]:
        return list(self._fjumps)

    @property
    def weight_filtration(self) -> dict[int, RationalMatrix]:
        """Exact rational rows spanning W_k by jump, read off the frame: its
        rows of weight <= k as Fractions, ordered by pivot."""
        f = self.weight_frame
        return self.memo("weight rows", lambda: {k: _rational.as_fraction_matrix(
            row for _, row in sorted(zip(f.pivots, f.rows[:self.weight_rank(k)])))
            for k in f.jumps})

    def memo(self, key, compute):
        """compute(), evaluated once and kept for the lifetime of this structure."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def weight_subspace(self, k: int) -> Subspace:
        """W_k, the first weight_rank(k) columns of W's frame q: a view, not kept."""
        return Subspace(self._frames()[0][:, :self.weight_rank(k)])

    def hodge_subspace(self, p: int) -> Subspace:
        """F^p, the first hodge_rank(p) columns of F's frame Q: a view, not
        kept.  Raises LinalgError if F has no frame."""
        return Subspace(self._frames()[1][:, :self.hodge_rank(p)])

    def _frames(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(q, Q), W's and F's square orthonormal frames: W_k is spanned by q's
        first dim W_k columns, a valid F^p by Q's first dim F^p (else None).
        q (memo "q") is the identity at a coordinate frame's pivots, else one
        QR of the unit-norm rows: on a coordinate frame the same columns up
        to sign, so every projector and residual has one value."""
        def weight():
            n, f = self.dimension, self.weight_frame
            if f.coordinate:
                return np.eye(n, dtype=DTYPE)[:, list(f.pivots)]
            cols = np.array([_float_row(row) for row in f.rows]).T
            return np.linalg.qr(unit_columns(cols))[0].astype(DTYPE)
        self._hodge()
        return self.memo("q", weight), self._memo.get("Q")

    def _weight_coordinates(self, x: np.ndarray) -> np.ndarray:
        """q^* x: on a coordinate frame, x's rows at its pivots, read by index."""
        f = self.weight_frame
        return x[list(f.pivots)] if f.coordinate else self._frames()[0].conj().T @ x

    def hodge_rank(self, p: int) -> int:
        """dim F^p: the rank at the smallest jump >= p, 0 above the largest.
        Raises LinalgError if F has no frame."""
        ranks, verdict = self._hodge()
        if ranks is None:
            raise LinalgError(verdict[0].message)
        return (*ranks, 0)[bisect_left(self._fjumps, p)]

    def _hodge(self) -> tuple[tuple[int, ...] | None, tuple[Violation, ...]]:
        """F decided once, memoized like W's verdict: dim F^p by jump (None
        if F has no frame) and F's verdict, its first data violation or else
        its nesting with a full bottom.  A flag is nested by construction
        and decided by one values-only SVD of its unit-norm basis (memo
        "unit", with the singular values): n columns of full rank give a
        frame Q, one QR of it (memo "Q", which a derived structure carries
        instead), F^p its first r_p columns (full rank by Cauchy
        interlacing); else the flag has no frame and its bottom is not full.
        F by jump takes one batched SVD of its rows' spans, which feed only
        `_nesting_residuals` and, if valid, one SVD of known ranks for Q
        (`Subspace.nested_frame`)."""
        def compute():
            n, flag, jumps = self.dimension, self._flag, self._fjumps
            for arr in (self.hodge_filtration.values() if flag is None else (flag.basis.T,)):
                if arr.size and (arr.ndim != 2 or arr.shape[1] != n):
                    return None, (Violation("data", None, "Hodge vector of wrong length"),)
                if arr.size and not np.all(np.isfinite(arr)):
                    return None, (Violation("data", None, "non-finite Hodge entries"),)
            bottom = tuple(Violation("hodge", p, "bottom Hodge subspace is not full")
                           for p in jumps[:1])
            if flag is None:
                spans = Subspace.from_vector_sets(list(self.hodge_filtration.values()), n)
                resid = _nesting_residuals(spans)
                bad = tuple(Violation("hodge", hi, f"F^{hi} not contained in F^{lo}") for lo, hi, r
                            in zip(jumps, jumps[1:], resid) if not r < SUBSPACE_TOL * max(1, n))
                bad += bottom if jumps and spans[0].dim != n else ()
                if bad:
                    return None, bad
                self._memo["Q"] = Subspace.nested_frame(spans, n)
                return tuple(s.dim for s in spans), ()
            if "Q" not in self._memo:
                cols = unit_columns(flag.basis)
                s = np.linalg.svd(cols, compute_uv=False) if flag.ranks[:1] == (n,) else None
                full = s is not None and numerical_rank(s) == n
                self._memo["Q"] = np.linalg.qr(cols)[0] if full else None
                self._memo["unit"] = (cols, s) if full else None
            return (None, bottom) if self._memo["Q"] is None else (flag.ranks, ())
        return self.memo("F", compute)

    # -- exact weight-graded data --------------------------------------

    def weight_rank(self, k: int) -> int:
        """dim W_k: the number of frame rows of weight <= k."""
        return bisect_right(self.weight_frame.weights, k)

    def weight_of(self, vector: Sequence[Fraction]) -> int | None:
        """The least k with the rational vector in W_k (None for 0), exactly:
        the largest weight of its nonzero coordinates in the frame.  Those
        of a coordinate frame are the vector's entries at the pivots, so it
        is the largest weight whose pivot entry is nonzero; any other frame
        reads them off in one elimination in row order."""
        f = self.weight_frame
        if f.coordinate:
            return next((w for w, c in zip(reversed(f.weights), reversed(f.pivots))
                         if vector[c]), None)
        v, weight = list(vector), None
        for row, w, c in zip(f.rows, f.weights, f.pivots):
            if v[c]:
                _rational._eliminate(v, v[c], row, [j for j, y in enumerate(row) if y])
                weight = w
        return weight

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
    on h for its bigrading, by the MHS criteria (`_purity_violations`).
    A derived structure's pieces are carried over from its parent, and
    they decide.  Otherwise a flag's column blocks, its Hodge--Tate
    candidates, come first: passing the criteria certifies them as
    Deligne's pieces (module docstring).  If there are none, or they
    fail, the formula's pieces decide and report.

    Called directly, this is always the full check.  `require_valid`
    memoizes it, except on a twist or conjugate, which takes its parent's
    verdict (`_inherit`).
    """
    bad: list[Violation] = []
    n = h.dimension

    if n == 0:
        return ValidationReport(())
    if not h.weight_jumps:
        bad.append(Violation("weight", None, "empty weight filtration"))
    if not h.hodge_filtration:
        bad.append(Violation("hodge", None, "empty Hodge filtration"))
    if bad:
        return ValidationReport(tuple(bad))

    # W's verdict and F's, each memoized: the first data violation, W's
    # nesting with a full top and F's with a full bottom; a handed-over
    # frame is checked here, once
    bad = [*h.memo("frame", lambda: _frame_violations(n, h.weight_frame)), *h._hodge()[1]]
    if bad:
        return ValidationReport(tuple([v for v in bad if v.kind == "data"][:1] or bad))

    if "pieces" not in h._memo:
        candidates = _hodge_tate_candidates(h)
        if candidates is not None and not _purity_violations(h, candidates):
            h.memo("pieces", lambda: candidates)
            return ValidationReport(())
    return ValidationReport(tuple(_purity_violations(h, _pieces(h))))


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
    # each piece's residual against F^p and W_{p+q}: the tail of its
    # coordinates in F's frame Q and in W's, side by side in block order
    order = list(dict.fromkeys(pieces.labels))
    coords = np.hstack([h._frames()[1].conj().T @ pieces.basis,
                        h._weight_coordinates(pieces.basis)])
    resid = tail_norms(coords, [pieces.pieces[pq].dim for pq in order] * 2,
                       [h.hodge_rank(p) for p, _ in order]
                       + [h.weight_rank(p + q) for p, q in order]).reshape(2, -1)
    tol = SUBSPACE_TOL * max(1, h.dimension)
    bad = [Violation("purity", p + q, f"I^({p},{q}) does not lie in F^{p} and W_{p + q}")
           for (p, q), rf, rw in sorted(zip(order, *resid)) if not (rf < tol and rw < tol)]
    dims = pieces.piece_dims()
    bad += _dimension_violations(h, dims)
    for p in range(h.hodge_jumps[0], h.hodge_jumps[-1] + 1):
        above = sum(d for (p_, _), d in dims.items() if p_ >= p)
        if above != h.hodge_rank(p):
            bad.append(Violation("purity", None, f"F^{p} has dim {h.hodge_rank(p)}, "
                                 f"pieces I^(p',q) with p' >= {p} have dim {above}"))
    if not bad and numerical_rank(pieces.singular_values) < h.dimension:
        bad.append(Violation("purity", None, "the pieces I^(p,q) are linearly dependent"))
    return bad


def _dimension_violations(h: MixedHodgeStructure, dims: Mapping) -> list[Violation]:
    """(iii) and (iv) of `_purity_violations` on the piece dims, in
    integers: each Gr^W_k is filled, and dim I^{p,q} <= dim I^{q,p}."""
    bad, of_weight = [], {}
    for (p, q), d in sorted(dims.items()):
        of_weight.setdefault(p + q, []).append((p, q, d))
    for k in h.weights_present():
        here = of_weight.get(k, [])
        total = sum(d for _, _, d in here)
        if total != h.graded_dimension(k):
            bad.append(Violation("purity", k, f"pieces of weight {k} have dim {total}, "
                                 f"Gr^W_{k} has dim {h.graded_dimension(k)}"))
        for p, q, d in here:
            if d > dims.get((q, p), 0):
                bad.append(Violation("purity", k, f"dim I^({p},{q}) = {d} exceeds "
                                     f"dim I^({q},{p}) = {dims.get((q, p), 0)}"))
    return bad


# -- Deligne's pieces ---------------------------------------------------


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
    #: The basis's singular values, when known as it is assembled: the
    #: flag's unit-norm basis's (see `_hodge_tate_candidates`), or a
    #: parent's when the basis is the parent's or its conjugate (a twist or
    #: conjugate).  As an array only, so the parent structure can die.
    known_singular_values: np.ndarray | None = None
    #: The basis's inverse, when it is a parent's (conjugated too).
    known_inverse: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.mhs.dimension

    @cached_property
    def column_weights(self) -> np.ndarray:
        return np.array([p + q for p, q in self.labels])

    @cached_property
    def singular_values(self) -> np.ndarray:
        if self.known_singular_values is not None:
            return self.known_singular_values
        return np.linalg.svd(self.basis, compute_uv=False)

    @cached_property
    def inverse_basis(self) -> np.ndarray:
        if self.known_inverse is not None:
            return self.known_inverse
        if not self.basis.size:
            return self.basis.copy()
        return np.linalg.inv(self.basis)

    def piece_dims(self) -> dict[tuple[int, int], int]:
        return {pq: s.dim for pq, s in self.pieces.items()}


def _pieces(h: MixedHodgeStructure) -> Bigrading:
    """Deligne's pieces of any nested (W, F), memoized on h: the Hodge--Tate
    candidates once `validate` has certified them, a derived h's carried
    over from its parent, and otherwise the formula's.  Validate decides
    validity on them, and they are the bigrading if h is valid."""
    return h.memo("pieces", lambda: _deligne_formula_pieces(h))


def _hodge_tate_candidates(h: MixedHodgeStructure) -> Bigrading | None:
    """The column blocks of the unit-norm basis of h's flag (memo "unit")
    between the ranks of consecutive jumps, the block of jump p labelled
    (p, p); None for F by jump, a derived h (whose pieces are carried) or
    a flag short of full rank; `validate` checks them.  The basis has full
    rank, so by Cauchy interlacing every block has: no rank is decided.  A
    one-column block is its own orthonormal basis, the wider ones take one
    batched QR of zero-padded stacks (padding moves no leading column), and
    when every block is one column the assembled basis is the unit-norm
    basis, whose singular values `_hodge` found."""
    verdict, unit = h._hodge()[1], h._memo.get("unit")
    if verdict or unit is None:
        return None
    (cols, s), flag = unit, h._flag
    blocks = {(p, p): cols[:, lo:hi]
              for p, hi, lo in zip(flag.jumps, flag.ranks, (*flag.ranks[1:], 0)) if hi > lo}
    wide = [pq for pq, x in blocks.items() if x.shape[1] > 1]
    if wide:
        for pq, q in zip(wide, np.linalg.qr(_padded([blocks[pq] for pq in wide]))[0]):
            blocks[pq] = q[:, :blocks[pq].shape[1]]
    return _assemble(h, {pq: Subspace(x) for pq, x in blocks.items()},
                     None if wide else s)


def _deligne_formula_pieces(h: MixedHodgeStructure) -> Bigrading:
    """Deligne's formula as written (module docstring), for any nested (W, F)."""
    n = h.dimension
    pieces: dict[tuple[int, int], Subspace] = {}
    if n > 0:
        fjumps, wjumps, zero = h.hodge_jumps, h.weight_jumps, Subspace.zero(n)

        def at(r: int, s: int) -> tuple[int, int]:
            # F^r cap W_s keyed by (dim F^r, dim W_s): a zero rank is a zero
            # term, and jumps of equal rank share one key
            return h.hodge_rank(r), h.weight_rank(s)

        jumps = {at(r, s): (r, s) for r in fjumps for s in wjumps}
        keys = [key for key in jumps if 0 not in key]
        fw = dict(zip(keys, Subspace.intersect_pairs(
            [(h.hodge_subspace(r), h.weight_subspace(s)) for r, s in map(jumps.get, keys)])))

        labels, pairs = [], []
        for k in h.weights_present():
            for p in range(fjumps[0], fjumps[-1] + 1):
                left = fw.get(at(p, k), zero)
                if left.dim == 0:
                    continue
                q = k - p
                # conj(F^q cap W_k + U^{q-1}_{k-2}); U's terms end at the lowest
                # weight.  Along the sum r and s fall, so dim F^r rises and dim
                # W_s falls; a term (a, b) lies in every other with a' >= a and
                # b' >= b, so in an earlier one with the same a or a later one
                # with the same b.  Only the terms in no other are spanned, each
                # once
                terms = [key for key in dict.fromkeys(
                    [at(q, k)] + [at(q - i, k - 1 - i) for i in range(1, k - wjumps[0])])
                    if 0 not in key]
                right = zero.sum(*(fw[key] for i, key in enumerate(terms)
                                   if (i == 0 or terms[i - 1][0] != key[0])
                                   and (i + 1 == len(terms) or terms[i + 1][1] != key[1])))
                labels.append((p, q))
                pairs.append((left, right.conjugate()))
        for pq, piece in zip(labels, Subspace.intersect_pairs(pairs)):
            if piece.dim > 0:
                pieces[pq] = piece
    return _assemble(h, pieces)


def _assemble(h: MixedHodgeStructure, pieces: dict[tuple[int, int], Subspace],
              singular_values: np.ndarray | None = None,
              inverse: np.ndarray | None = None) -> Bigrading:
    """The pieces of h as a Bigrading: blocks ordered by decreasing weight,
    then decreasing p, and each column labelled by its piece, with the
    singular values and inverse of its basis where known (see
    `Bigrading.known_singular_values`)."""
    order = sorted(pieces, key=lambda pq: (-(pq[0] + pq[1]), -pq[0]))
    blocks, labels = [], []
    for pq in order:
        blocks.append(pieces[pq].basis)
        labels.extend([pq] * pieces[pq].dim)
    basis = np.hstack(blocks) if blocks else np.zeros((h.dimension, 0), dtype=DTYPE)
    return Bigrading(h, pieces, basis, tuple(labels), singular_values, inverse)


def require_valid(h: MixedHodgeStructure) -> None:
    """Raise InvalidMHS unless h is valid; the report is kept on h (a twist
    or conjugate has its parent's from `_inherit`)."""
    report = h.memo("report", lambda: validate(h))
    if not report.ok:
        raise InvalidMHS(report)


# -- constructions ------------------------------------------------------


def _inherit(h: MixedHodgeStructure, child: MixedHodgeStructure, taken: dict,
             pieces: dict, known, carry_delta) -> MixedHodgeStructure:
    """child, derived from the valid h, with what it takes from h (whose
    splitting fixes the child's): memo entries as they are (`taken`), W's
    verdict (its frame is h's, shifted or dual), F's frame (the basis of
    the child's flag), pieces by label with the singular values and
    inverse of their basis (`known`, or ()), and (h, carry_delta) as
    child._carry: `deligne.delta_splitting` takes carry_delta(h's delta)
    and then releases h, so delta is solved once per root.

    A twist or conjugate takes W's frame q and h's report in `taken`: its
    pieces are h's relabelled or conjugated, so by functoriality it is
    valid, and `require_valid` checks nothing on it.
    The dual takes none: its pieces are new floats, validated as such."""
    child._memo.update(taken, Q=child._flag.basis, frame=(),
                       pieces=_assemble(child, pieces, *known))
    object.__setattr__(child, "_carry", (h, carry_delta))
    return child


def tate(a: int) -> MixedHodgeStructure:
    """The rank-1 pure structure Q(a): weight -2a, Hodge jump -a, period (2 pi i)^a.
    Raises ValueError unless a is an integer with |a| <= MAX_TATE, past
    which the period or its inverse leaves float range."""
    if not (isinstance(a, Integral) and abs(a) <= MAX_TATE):
        raise ValueError(f"Q({a!r}) needs an integer a with |a| at most {MAX_TATE}, "
                         "past which (2 pi i)^a leaves float range")
    return MixedHodgeStructure(
        1,
        coordinate_flag([1]).shifted(-2 * a),
        HodgeFlag(np.ones((1, 1)), (-a,), (1,)),
        comparison_matrix=[[(2j * np.pi) ** a]],
    )


def dual(h: MixedHodgeStructure) -> MixedHodgeStructure:
    """Dual MHS on the dual coordinates.

    W_k(dual) = Ann(W_{-k-1}) is framed by the exact dual basis of h's
    frame; F^q(dual) = Ann(F^{1-q}) is numeric, with jumps at q = -p for
    each jump p of F.  With h's orthonormal frame Q, Ann(F^p) is spanned
    by the trailing n - dim F^p columns of conj(Q), since f . v = 0
    exactly when conj(f) is orthogonal to v: reversed, conj(Q) is the
    dual's flag and its own frame.  Conventions make dual(Q(a)) = Q(-a).
    """
    require_valid(h)
    n, q = h.dimension, h._frames()[1]
    jumps = [-p for p in reversed(h.hodge_jumps)]
    child = MixedHodgeStructure(n, h.weight_frame.dual(), HodgeFlag(
        q[:, ::-1].conj(), jumps, [n - h.hodge_rank(1 - j) for j in jumps]))
    # Row i of the inverse bigrading basis pairs to 1 with column i and to
    # 0 with every other, so the rows labelled (p, q) span I^{-p,-q}(dual).
    b = _pieces(h)
    pieces = Subspace.from_vector_sets(
        [b.inverse_basis[[lab == pq for lab in b.labels]] for pq in b.pieces], n)
    return _inherit(h, child, {}, {(-p, -q): x for (p, q), x in zip(b.pieces, pieces)}, (),
                    lambda delta: -delta.T)


def _relabelled(h: MixedHodgeStructure, s: int, conjugated: bool) -> MixedHodgeStructure:
    """h with every index moved by s (weights by 2s), F conjugated if
    conjugated: the twist H(-s) or the conjugate (s = 0).  I^{p,q} becomes
    I^{p+s,q+s}, conjugated with F under the same label (not (q, p)), so
    the bigrading basis is h's or its conjugate (W is real), and F is the
    flag of h's frame Q, or of conj(Q), and has it as its own frame.
    delta(H) is real, so conj H has -delta(H); only conj H keeps the
    comparison (conj)."""
    require_valid(h)
    b, (q_w, q), jumps = _pieces(h), h._frames(), h.hodge_jumps
    c = np.conj if conjugated else np.asarray
    move = Subspace.conjugate if conjugated else lambda x: x
    comparison = h.comparison_matrix if conjugated else None
    child = MixedHodgeStructure(
        h.dimension, h.weight_frame.shifted(2 * s),
        HodgeFlag(c(q), [p + s for p in jumps], [h.hodge_rank(p) for p in jumps]),
        comparison if comparison is None else c(comparison))
    return _inherit(h, child, {"q": q_w, "report": h._memo["report"]},
                    {(p + s, q + s): move(x) for (p, q), x in b.pieces.items()},
                    (b.singular_values, c(b.inverse_basis)),
                    lambda delta: -delta if conjugated else delta)


def twist(h: MixedHodgeStructure, p: int) -> MixedHodgeStructure:
    """Tate twist H(p): W_k -> W_{k+2p}, F^q -> F^{q+p}, Betti basis unchanged.
    Raises ValueError unless p is an integer."""
    if not isinstance(p, Integral):
        raise ValueError(f"a Tate twist needs an integer, not {p!r}")
    return _relabelled(h, -int(p), False)


def conjugate(h: MixedHodgeStructure) -> MixedHodgeStructure:
    """Complex conjugate MHS: same rational data and W, F replaced by conj(F)."""
    return _relabelled(h, 0, True)


# -- randomized Hodge--Tate structures ----------------------------------


def _split_hodge_tate(dims: Sequence[int]) -> MixedHodgeStructure:
    """Direct sum of Tate pieces: block i has weight -2i with multiplicity dims[i]."""
    n = int(sum(dims))
    # F^{-i} is spanned by blocks 0..i, W_{-2i} by blocks i..end
    return MixedHodgeStructure(n, coordinate_flag(dims), HodgeFlag(
        np.eye(n), [-i for i in range(len(dims))], np.cumsum(dims, dtype=int).tolist()))


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
    # e^lambda . F is the flag of the columns of e^lambda, with F's ranks
    flag = split._flag
    twisted = MixedHodgeStructure(split.dimension, split.weight_frame,
                                  HodgeFlag(nilpotent_exp(lam), flag.jumps, flag.ranks))
    return split, lam, twisted


def random_hodge_tate(dims: Sequence[int], seed: int,
                      scale: float = 0.8) -> MixedHodgeStructure:
    """Random Hodge--Tate MHS with Gr^W_{-2i} = Q(i)^dims[i], deterministic per seed."""
    return random_hodge_tate_pair(dims, seed, scale)[2]
