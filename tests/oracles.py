"""Independent oracles for the test suite.

* Deliberately self-contained textbook Gaussian elimination over Fraction
  (for real data) and over pairs of Fractions (for complex rational data),
  so subspace dimensions can be checked against the numeric code without
  sharing any implementation with it.
* The graded-purity sweep that once decided validity, cross-checking the
  dimension counts on Deligne's pieces that `hodgeheights.mhs.validate`
  now makes: on each Gr^W_k the induced F^p and conj F^{k-p+1} must be
  complementary, with the Hodge numbers read off the induced filtration.
* Dense echelon forms over Fraction (every entry of every row updated at
  every step), cross-checking the sparse `rref` and `remainder` of
  `hodgeheights._rational` exactly, and the exact annihilator of a row
  span (`nullspace`), cross-checking the dual weight frame.
* Two solvers of the defining equation of delta, cross-checking the
  closed form of `hodgeheights.deligne._solve_delta`: the degree-by-degree
  elimination run densely over every drop m up to the weight span, and an
  independent fixed-point iteration.
* Projectors attached to a bigrading, by type, by weight and to and from
  rational graded frames, for checks of the bigrading's functoriality.
* The block closed form of the polylog Betti conjugator A conj(A)^{-1}.
* delta and ht2 of H(z) from the paper's closed forms in 60-digit
  mpmath, with no code shared with `hodgeheights.polylog`: the reference
  where the float64 `delta_closed_form` loses digits (N >= 10).  Both
  heights of one (0, -b) framing the same way, for b far past float
  range of (2 pi i)^b and of the Bernoulli numbers.
* The two-pass nilpotent exponential and logarithm (the nilpotency order
  found by one chain of powers, the series formed by a second),
  cross-checking the single pass of `hodgeheights.linalg`.
* The intersection of two subspaces from the nullspace of [A | -B],
  re-orthonormalised, cross-checking the principal-sine rule of
  `hodgeheights.linalg.Subspace.intersect_pairs`, and `intersect`, that
  rule's one-pair case.
* Subspace helpers that only the tests use: the span of one set of
  vectors (`from_vectors`), containment and equality as mutual
  containment, never comparison of generators (`contains_subspace`,
  `equals`), and the nullspace of a matrix (`nullspace_columns`).
* The sequential transport: (log t, Li_1..Li_count) continued panel by
  panel, each Li_k the running value plus the Chebyshev primitive of its
  predecessor's integrand (the log powers integrated too), cross-checking
  the batched pass of `hodgeheights.polylog._transport_once` on the
  same panels and integration matrices.
* The panel recursion as first written, each node's distance to {0, 1}
  formed before its length is compared with min(step, 0.6 dist), and the
  polylog matrices with the Toeplitz blocks of L and L^{-1} filled one
  row at a time: bit-for-bit references for `hodgeheights.polylog`'s
  `_panel_points` and `build_matrices`.
* The weight of a rational vector by elimination against the rows of a
  weight frame (`eliminated_weight`), cross-checking the read by index of
  `MixedHodgeStructure.weight_of` on a coordinate frame, and a structure
  and its framing moved by an exact rational change of basis (`sheared`,
  `sheared_class`, `sheared_covector`), whose weight frame is not one.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hodgeheights._rational import rref
from hodgeheights.linalg import (DTYPE, RANK_TOL, DimensionMismatch, NotNilpotent,
                                 NotUnipotent, Subspace, nilpotent_exp, numerical_rank,
                                 orthonormal_columns)
from hodgeheights.framed import FramingTypeError
from hodgeheights.mhs import SUBSPACE_TOL, HodgeFlag, MixedHodgeStructure, Violation
from hodgeheights.polylog import (TWO_PI_I, NonConvergent, PolylogMatrices, _check_segment,
                                  _cheb_nodes, _panel_points, _powers_over_factorials,
                                  branch_data, log_z, tau)


class QI:
    """Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return QI(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QI(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        return QI((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def __neg__(self):
        return QI(-self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __repr__(self):  # pragma: no cover
        return f"QI({self.re}, {self.im})"


def qi_rows(rows):
    out = []
    for row in rows:
        out.append([x if isinstance(x, QI) else QI(x) for x in row])
    return out


def oracle_rank(rows) -> int:
    """Row rank by exact forward elimination."""
    mat = qi_rows(rows)
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if not mat[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if not mat[r][col].is_zero():
                f = mat[r][col] / pv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def oracle_sum_dim(*sides) -> int:
    return oracle_rank([row for rows in sides for row in rows])


def oracle_intersection_dim(rows_a, rows_b) -> int:
    return oracle_rank(rows_a) + oracle_rank(rows_b) - oracle_sum_dim(rows_a, rows_b)


def oracle_member(vector, rows) -> bool:
    return oracle_rank(list(rows) + [list(vector)]) == oracle_rank(rows)


def _graded_model(h, k):
    """Real orthonormal columns modelling Gr^W_k = W_k minus W_{k-1}.

    W is rational, so the model can be taken real; conjugation on the
    graded piece is then entrywise in model coordinates.
    """
    wk = h.weight_subspace(k)
    wk1 = h.weight_subspace(k - 1)
    m = wk.dim - wk1.dim
    if m <= 0:
        return None
    proj = np.eye(h.dimension) - wk1.basis.real @ wk1.basis.real.T
    u, _, _ = np.linalg.svd(proj @ wk.basis.real, full_matrices=False)
    return u[:, :m]


def _induced_on_graded(h, sub, k, model):
    """Image of (sub cap W_k) in the graded model of Gr^W_k."""
    coords = model.T @ intersect(sub, h.weight_subspace(k)).basis
    return from_vectors(coords.T, ambient_dim=model.shape[1])


def graded_purity_violations(h):
    """Purity violations of a structure whose filtrations are nested.

    Sweeps every weight k and every p from the lowest Hodge jump to one
    past the highest, checking F^p (+) conj F^{k-p+1} = Gr^W_k.
    """
    bad = []
    pjumps = h.hodge_jumps
    for k in h.weight_jumps:
        model = _graded_model(h, k)
        if model is None:
            continue
        m = model.shape[1]
        for p in range(pjumps[0], pjumps[-1] + 2):
            f_side = _induced_on_graded(h, h.hodge_subspace(p), k, model)
            conj_side = _induced_on_graded(
                h, h.hodge_subspace(k - p + 1).conjugate(), k, model)
            if f_side.dim + conj_side.dim != m or intersect(f_side, conj_side).dim != 0:
                bad.append(Violation(
                    "purity", k,
                    f"Gr^W_{k}: F^{p} (dim {f_side.dim}) and conj F^{k - p + 1} "
                    f"(dim {conj_side.dim}) do not split dim {m}"))
    return bad


def induced_hodge_numbers(h, k):
    """h^{p, k-p} of the pure structure on Gr^W_k from the induced filtration."""
    model = _graded_model(h, k)
    if model is None:
        return {}
    jumps = h.hodge_jumps
    out = {}
    for p in range(jumps[0], jumps[-1] + 1):
        here = _induced_on_graded(h, h.hodge_subspace(p), k, model).dim
        above = _induced_on_graded(h, h.hodge_subspace(p + 1), k, model).dim
        if here > above:
            out[p] = here - above
    return out


def delta_fixed_point(y, b, max_iter=64, tol=1e-13):
    """Independent fixed-point solver for delta.

    Rewrites the defining equation as D delta = (Y - conj(Y) +
    sum_{j>=2} ad(-2i delta)^j(Y)/j!) / 2i with D scaling the drop-m part
    by m, and iterates from delta = 0.  The drop of entry (i, j) in the
    bigrading frame is weight(j) - weight(i), read from `b.labels`.
    """
    w = np.array([p + q for p, q in b.labels])
    drops = w[None, :] - w[:, None]
    ybar = y.conj()
    s, sinv = b.basis, b.inverse_basis
    span = int(drops.max()) if drops.size else 0
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
        for m in range(2, span + 1):
            new = new + np.where(drops == m, rhs, 0.0) / m
        new = s @ new @ sinv
        if np.linalg.norm(new - delta) < tol * max(1.0, np.linalg.norm(y)):
            return new
        delta = new
    return delta


def dense_rref(rows):
    """Reduced row echelon form by textbook dense elimination over Fraction:
    (reduced nonzero rows, pivot columns), the contract of `_rational.rref`."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def nullspace(echelon, ncols):
    """Basis of {x : M x = 0} for M given by its echelon form `rref(rows)`:
    the exact annihilator of the row span."""
    reduced, pivots = echelon
    basis = []
    for c in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][c]
        basis.append(tuple(v))
    return basis


def dense_remainder(vector, echelon):
    """`vector` reduced against a reduced echelon form, every entry updated."""
    v = [Fraction(x) for x in vector]
    for row, c in zip(*echelon):
        f = v[c]
        v = [x - f * y for x, y in zip(v, row)]
    return v


def dense_solve_delta(y, b):
    """The degree-by-degree elimination for delta, run over every drop
    m = 2 .. weight span: the drop-m part of delta is the drop-m part of
    e^{-2i delta_<m} Y e^{2i delta_<m} - conj(Y), divided by 2im."""
    w = np.array([p + q for p, q in b.labels])
    drops = w[None, :] - w[:, None]
    ybar = y.conj()
    s, sinv = b.basis, b.inverse_basis
    delta = np.zeros_like(y)
    span = int(drops.max()) if drops.size else 0
    for m in range(2, span + 1):
        g = nilpotent_exp(-2j * delta)
        ginv = nilpotent_exp(2j * delta)
        resid = sinv @ (g @ y @ ginv - ybar) @ s
        delta = delta + s @ np.where(drops == m, resid, 0) @ sinv / (2j * m)
    return delta


def shift_matrix(size):
    """e_0: the subdiagonal shift with zero first column."""
    e0 = np.eye(size, k=-1, dtype=DTYPE)
    e0[:, 0] = 0.0
    return e0


def polylog_ell(ctx):
    """ell = -(Li_1, ..., Li_N), the first column of L(z) below its 1."""
    return -np.array(branch_data(ctx, ctx.N)[1], dtype=DTYPE)


def closed_form_betti_conjugator(ctx):
    """A conj(A)^{-1} from its block closed form
    [[1,0],[ell,Id]] e^{log(zzbar) e0} tau(-1) [[1,0],[-conj(ell),Id]];
    B(z) is this matrix times tau(-1).
    """
    n = ctx.N + 1
    ell, lzz = polylog_ell(ctx), 2.0 * log_z(ctx).real
    lower = np.eye(n, dtype=DTYPE)
    lower[1:, 0] = ell
    unlower = np.eye(n, dtype=DTYPE)
    unlower[1:, 0] = -ell.conj()
    return lower @ nilpotent_exp(lzz * shift_matrix(n)) @ tau(-1.0, n) @ unlower


def complement_indices(inner_rows, outer_rows):
    """Indices of outer rows extending a basis of span(inner) to span(inner + outer)."""
    acc = [list(r) for r in inner_rows]
    current = len(rref(acc)[0])
    chosen = []
    for i, row in enumerate(outer_rows):
        acc.append(list(row))
        new = len(rref(acc)[0])
        if new > current:
            chosen.append(i)
            current = new
        else:
            acc.pop()
    return chosen


def weight_rows(h, k):
    """Exact rational rows spanning W_k (none below the lowest jump)."""
    return h.weight_filtration.get(h._weight_jump(k), ())


def graded_rational_basis(h, k):
    """Rational vectors in W_k whose classes form a basis of Gr^W_k."""
    outer = weight_rows(h, k)
    return tuple(outer[i] for i in complement_indices(weight_rows(h, k - 1), outer))


@dataclass(frozen=True, eq=False)
class Projectors:
    """Projectors attached to a bigrading.

    by_type[(p, q)]  : identity on I^{p,q}, zero on the other pieces.
    by_weight[k]     : sum of by_type over p+q = k.
    to_graded[k]     : pi_k, V_C -> Gr^W_k in the rational graded frame.
    from_graded[k]   : iota_k, the section of pi_k landing in the weight-k
                       part of the bigrading; by_weight[k] = from o to.
    """

    by_type: dict
    by_weight: dict
    to_graded: dict
    from_graded: dict


def projectors(b):
    h = b.mhs
    n = b.dimension
    sinv = b.inverse_basis
    labels = b.labels

    by_type = {}
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
                          for row in graded_rational_basis(h, k)], dtype=DTYPE).T
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


def _nilpotency_order(mat):
    """Smallest k with mat^k = 0 at RANK_TOL, or raise if there is none."""
    n = mat.shape[0]
    scale = max(np.linalg.norm(mat), 1.0)
    power = np.eye(n, dtype=DTYPE)
    for k in range(1, n + 1):
        power = power @ mat
        if np.linalg.norm(power) <= RANK_TOL * scale**k:
            return k
    raise NotNilpotent(f"matrix is not nilpotent at tolerance {RANK_TOL}")


def two_pass_exp(mat):
    """exp of a nilpotent matrix: the order first, then the n - 1 term series."""
    mat = np.asarray(mat, dtype=DTYPE)
    n = mat.shape[0]
    if n == 0:
        return mat.copy()
    _nilpotency_order(mat)
    out = np.eye(n, dtype=DTYPE)
    term = np.eye(n, dtype=DTYPE)
    for k in range(1, n):
        term = term @ mat / k
        out = out + term
    return out


def two_pass_log(mat):
    """log of a unipotent matrix: the order of U - Id first, then the series."""
    mat = np.asarray(mat, dtype=DTYPE)
    n = mat.shape[0]
    if n == 0:
        return mat.copy()
    nil = mat - np.eye(n, dtype=DTYPE)
    try:
        _nilpotency_order(nil)
    except NotNilpotent as exc:
        raise NotUnipotent(str(exc)) from exc
    out = np.zeros_like(nil)
    power = np.eye(n, dtype=DTYPE)
    for k in range(1, n):
        power = power @ nil
        out = out + ((-1) ** (k + 1)) * power / k
    return out


def loop_typed_lift(frame, coords, labels, p, q, what):
    """`framed._typed_lift` one column at a time: the lift onto I^{p,q},
    raising at the first column of another type of the same weight whose
    coordinate exceeds SUBSPACE_TOL times |coords|."""
    scale = max(float(np.linalg.norm(coords)), 1e-30)
    lift = np.zeros_like(coords)
    for i, (pi, qi) in enumerate(labels):
        if (pi, qi) == (p, q):
            lift[i] = coords[i]
        elif pi + qi == p + q and abs(coords[i]) > SUBSPACE_TOL * scale:
            raise FramingTypeError(
                f"{what}: graded class has a component of type ({pi},{qi}), "
                f"expected pure ({p},{q})")
    return frame @ lift


def eliminated_weight(frame, vector):
    """The least k with the rational vector in W_k (None for 0): the vector
    is reduced by the frame's rows in order, each row taking away the
    vector's entry at its pivot, and the weight is that of the last row
    that took away a nonzero entry."""
    v, weight = [Fraction(x) for x in vector], None
    for row, w, c in zip(frame.rows, frame.weights, frame.pivots):
        if v[c]:
            v = [x - v[c] * y for x, y in zip(v, row)]
            weight = w
    return weight


def _exact_inverse(g):
    """g^{-1} for an invertible rational matrix: [g | I] reduced is [I | g^{-1}]."""
    n = len(g)
    rows, _ = dense_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)])
    return [row[n:] for row in rows]


#: The exact unipotent change of basis of docs/examples/polylog-sheared.json
#: (`sheared` of polylog-framed.json): it moves W off the coordinate
#: subspaces, so no row of the sheared frame but the last is a unit vector.
SHEAR = ((1, 2, -1, Fraction(1, 2)), (0, 1, 1, -1), (0, 0, 1, 3), (0, 0, 0, 1))


def sheared_class(g, vector):
    """g v, exactly, for a rational class v."""
    return tuple(sum(Fraction(x) * y for x, y in zip(row, vector)) for row in g)


def sheared_covector(g, covector):
    """psi g^{-1}, exactly: the covector that takes g v to psi(v)."""
    return tuple(sheared_class(list(zip(*_exact_inverse(g))), covector))


def sheared(h, g):
    """h moved by the exact rational change of basis v -> g v: W_k spanned by
    g times h's rational rows of W_k (given by jump, so framed afresh), F^p
    by g times its rows (a flag stays a flag, of g times its basis), and
    the comparison matrix C g^{-1}.  An isomorphism of mixed Hodge
    structures, so with its framing moved by `sheared_class` and
    `sheared_covector` it has the same heights."""
    gf = np.array([[float(x) for x in row] for row in g], dtype=DTYPE)
    weight = {k: [sheared_class(g, row) for row in rows]
              for k, rows in h.weight_filtration.items()}
    flag = h._flag
    hodge = ({p: (gf @ rows.T).T for p, rows in h.hodge_filtration.items()} if flag is None
             else HodgeFlag(gf @ flag.basis, flag.jumps, flag.ranks))
    comparison = (None if h.comparison_matrix is None else h.comparison_matrix
                  @ np.array([[float(x) for x in row] for row in _exact_inverse(g)]))
    return MixedHodgeStructure(h.dimension, weight, hodge, comparison)


def from_vectors(vectors, ambient_dim=None):
    """The span of the given vectors (each of length ambient_dim)."""
    rows = np.array(list(vectors), dtype=DTYPE)
    if rows.size == 0 and ambient_dim is None:
        raise DimensionMismatch("empty spanning set needs ambient_dim")
    n = rows.shape[1] if ambient_dim is None else ambient_dim
    return Subspace.from_vector_sets([rows], n)[0]


def containment_residual(inner, outer):
    """How far inner is from lying in outer (0 when it does): ||X - Y (Y^* X)||
    for their orthonormal bases X and Y."""
    if inner.ambient_dim != outer.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    x, y = inner.basis, outer.basis
    return float(np.linalg.norm(x - y @ (y.conj().T @ x)))


def contains(space, vector):
    """Membership: the residual of the vector's projection on space is below
    RANK_TOL times its norm (a zero vector is in every space)."""
    v = np.asarray(vector, dtype=DTYPE)
    size = np.linalg.norm(v)
    return bool(size == 0.0 or np.linalg.norm(v - space.basis @ (space.basis.conj().T @ v))
                < RANK_TOL * size)


def image(space, operator):
    """The image of space under the matrix, its rank decided at RANK_TOL."""
    return Subspace(orthonormal_columns(operator @ space.basis))


def contains_subspace(outer, inner, tol=RANK_TOL):
    """inner lies in outer, at tol times the ambient dimension."""
    return containment_residual(inner, outer) < tol * max(1, outer.ambient_dim)


def equals(a, b, tol=RANK_TOL):
    """Equal dims and mutual containment."""
    return a.dim == b.dim and contains_subspace(a, b, tol) and contains_subspace(b, a, tol)


def nullspace_columns(mat):
    """Orthonormal basis of {x : mat @ x = 0} at numerical rank."""
    m, n = mat.shape
    if n == 0:
        return np.zeros((0, 0), dtype=DTYPE)
    if m == 0:
        return np.eye(n, dtype=DTYPE)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    return vh[numerical_rank(s):, :].conj().T


def intersect(a, b):
    """a cap b: the one-pair case of `Subspace.intersect_pairs`."""
    return Subspace.intersect_pairs([(a, b)])[0]


def stacked_intersection(a, b):
    """a cap b from the nullspace of [A | -B] at numerical rank, mapped
    through A and re-orthonormalised; a zero or full operand decides the
    result with no SVD, as the same object."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if a.dim == 0 or b.dim == b.ambient_dim:
        return a
    if b.dim == 0 or a.dim == a.ambient_dim:
        return b
    null = nullspace_columns(np.hstack([a.basis, -b.basis]))
    return Subspace(orthonormal_columns(a.basis @ null[: a.dim, :]))


def sequential_transport_once(points, li, step, order):
    """Continue (log t, Li_1..Li_count) from their values li at points[0]
    along the polyline, one panel and one order at a time."""
    x, Q = _cheb_nodes(order)
    log_t = complex(np.log(points[0]))
    for a, b in zip(points, points[1:]):
        if abs(b - a) < 1e-15:
            continue
        _check_segment(a, b)
        panels = _panel_points(a, b, step)
        for lo, hi in zip(panels, panels[1:]):
            half = (hi - lo) / 2
            t = (lo + hi) / 2 + half * x
            w = half / t                     # dt / t = w dx on the panel
            log_t = complex(log_t + np.log(t[-1] / lo))
            prev = li[0] - np.log((1.0 - t) / (1.0 - lo))
            ends = [prev[-1]]
            for k in range(1, len(li)):
                prev = li[k] + Q @ (prev * w)
                ends.append(prev[-1])
            li = ends
    return log_t, [complex(v) for v in li]


def recursive_panel_points(a, b, step):
    """[a, b] split in halves until each panel is at most min(step, 0.6 dist)
    long, dist the distance of its midpoint to {0, 1}."""
    out = [a]

    def rec(lo, hi, depth):
        if depth > 60:
            raise NonConvergent("panel subdivision did not terminate")
        mid = (lo + hi) / 2
        dist = min(abs(mid), abs(mid - 1.0))
        if abs(hi - lo) <= min(step, 0.6 * dist):
            out.append(hi)
            return
        rec(lo, mid, depth + 1)
        rec(mid, hi, depth + 1)

    rec(a, b, 0)
    return out


def row_loop_matrices(ctx):
    """L, A, A^{-1} and B of H(z), the Toeplitz blocks x^(i-j)/(i-j)! of L
    (x = log z) and L^{-1} (x = -log z) filled one row at a time."""
    lg, vals = branch_data(ctx, ctx.N)
    n, ell = ctx.N + 1, -np.array(vals, dtype=DTYPE)
    j, signs = np.arange(n), (-1.0) ** np.arange(n)
    L, L_inv = np.eye(n, dtype=DTYPE), np.eye(n, dtype=DTYPE)
    for mat, x in ((L, lg), (L_inv, -lg)):
        powers = _powers_over_factorials(x, n - 1)
        for i in range(1, n):
            mat[i, 1:i + 1] = powers[i - 1::-1]
    L[1:, 0], L_inv[1:, 0] = ell, -(L_inv[1:, 1:] @ ell)
    scale = np.array([1, -1j, -1, 1j])[j % 4] * (2.0 * np.pi) ** -j.astype(float)
    return PolylogMatrices(L, L @ tau(TWO_PI_I, n), scale[:, None] * L_inv,
                           (L * signs) @ (L_inv.conj() * signs))


def _mp_branch(z, N):
    """(log z, [Li_1(z) .. Li_N(z)]) on the principal branches, in mpmath
    at the current working precision."""
    import mpmath as mp

    zm = mp.mpc(z)
    return mp.log(zm), [mp.polylog(k, zm) for k in range(1, N + 1)]


def mp_polylog_delta(z, N, dps=60):
    """delta of H(z) from the paper's closed form A^{-1} (i/2) log B(z) A,
    evaluated in mpmath at `dps` digits with L, A and B built from
    `mpmath.polylog` on the principal branches (no code shared with
    `hodgeheights.polylog`).  log B is the finite series in B - Id."""
    import mpmath as mp

    n = N + 1
    with mp.workdps(dps):
        lg, vals = _mp_branch(z, N)
        L = mp.eye(n)
        for i in range(1, n):
            L[i, 0] = -vals[i - 1]
            for j in range(1, i + 1):
                L[i, j] = lg ** (i - j) / mp.factorial(i - j)
        A = L * mp.diag([(2j * mp.pi) ** k for k in range(n)])
        Abar = mp.matrix([[mp.conj(A[i, j]) for j in range(n)] for i in range(n)])
        B = A * Abar ** -1 * mp.diag([(-1) ** k for k in range(n)])
        nil, power, log_b = B - mp.eye(n), mp.eye(n), mp.zeros(n)
        for k in range(1, n):
            power = power * nil
            log_b += (-1) ** (k + 1) * power / k
        delta = A ** -1 * (mp.mpc(0, 0.5) * log_b) * A
        return np.array([[complex(delta[i, j]) for j in range(n)] for i in range(n)])


def mp_polylog_ht2(z, N, dps=60):
    """ht2 of the (0, -b)-framed H(z) for b = 1 .. N, D_b(z)/(i (2 pi i)^b)
    with D_b the Bernoulli-weighted single-valued polylog, in mpmath at
    `dps` digits."""
    import mpmath as mp

    out = []
    with mp.workdps(dps):
        lg, vals = _mp_branch(z, N)
        lzz = 2 * mp.re(lg)
        for b in range(1, N + 1):
            acc = mp.mpf(0)
            for k in range(b):
                part = vals[b - k - 1]
                acc += (mp.bernoulli(k) * lzz ** k / mp.factorial(k)
                        * (mp.re(part) if b % 2 else mp.im(part)))
            d_b = acc if b % 2 else mp.mpc(0, 1) * acc
            out.append(float(mp.re(d_b / (mp.mpc(0, 1) * (2j * mp.pi) ** b))))
    return out


def mp_polylog_base_heights(z, b, dps=30):
    """(ht1, ht2) of the (0, -b)-framed H(z) from the closed forms
    -Im(L_b(z)/(2 pi i)^b) and D_b(z)/(i (2 pi i)^b), with L_b Brown's and
    D_b the Bernoulli-weighted single-valued polylog, in mpmath at `dps`
    digits.  mpmath's exponent is unbounded, so nothing overflows."""
    import mpmath as mp

    with mp.workdps(dps):
        lg, vals = _mp_branch(z, b)
        lzz = 2 * mp.re(lg)
        brown, acc = vals[b - 1], mp.mpf(0)
        for k in range(b):
            part, power = vals[b - k - 1], lzz ** k / mp.factorial(k)
            brown -= (-1) ** (b - k) * power * mp.conj(part)
            acc += mp.bernoulli(k) * power * (mp.re(part) if b % 2 else mp.im(part))
        d_b = acc if b % 2 else mp.mpc(0, 1) * acc
        period = (2j * mp.pi) ** b
        return (float(mp.im(-brown / period)),
                float(mp.re(d_b / (mp.mpc(0, 1) * period))))
