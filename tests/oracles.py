"""Independent oracles for the test suite.

* Deliberately self-contained textbook Gaussian elimination over Fraction
  (for real data) and over pairs of Fractions (for complex rational data),
  so subspace dimensions can be checked against the numeric code without
  sharing any implementation with it.
* The graded-purity sweep that once decided validity, cross-checking the
  dimension counts on Deligne's pieces that `hodgeheights.mhs.validate`
  now makes: on each Gr^W_k the induced F^p and conj F^{k-p+1} must be
  complementary, with the Hodge numbers read off the induced filtration.
* A fixed-point solver for delta, cross-checking the degree-by-degree
  elimination of `hodgeheights.deligne`.
* The block closed form of the polylog Betti conjugator A conj(A)^{-1}.
"""

from fractions import Fraction

import numpy as np

from hodgeheights.linalg import DTYPE, Subspace, nilpotent_exp
from hodgeheights.mhs import Violation
from hodgeheights.polylog import build_matrices, log_z, tau


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


def oracle_sum_dim(rows_a, rows_b) -> int:
    return oracle_rank(list(rows_a) + list(rows_b))


def oracle_intersection_dim(rows_a, rows_b) -> int:
    return oracle_rank(rows_a) + oracle_rank(rows_b) - oracle_sum_dim(rows_a, rows_b)


def oracle_annihilator_dim(rows, ambient: int) -> int:
    return ambient - oracle_rank(rows)


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
    coords = model.T @ sub.intersect(h.weight_subspace(k)).basis
    return Subspace.from_vectors(coords.T, ambient_dim=model.shape[1],
                                 tol=h.rank_tolerance)


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
            if f_side.dim + conj_side.dim != m or f_side.intersect(conj_side).dim != 0:
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


def closed_form_betti_conjugator(ctx):
    """A conj(A)^{-1} from its block closed form
    [[1,0],[ell,Id]] e^{log(zzbar) e0} tau(-1) [[1,0],[-conj(ell),Id]];
    B(z) is this matrix times tau(-1).
    """
    n = ctx.N + 1
    m = build_matrices(ctx)
    lzz = 2.0 * log_z(ctx).real
    lower = np.eye(n, dtype=DTYPE)
    lower[1:, 0] = m.ell
    unlower = np.eye(n, dtype=DTYPE)
    unlower[1:, 0] = -m.ell.conj()
    return lower @ nilpotent_exp(lzz * m.e0) @ tau(-1.0, n) @ unlower
