"""Numerical polylogarithms, single-valued variants, and the polylog MHS.

Multivaluedness is handled through explicit continuation paths: a
``PolylogContext`` carries the target z, the matrix truncation N, and an
optional polyline of waypoints.  With no path, principal branches are
used and z must avoid the cuts (-inf, 0] and [1, inf); with a path, the
branch is the one obtained by continuing log and every Li_k along the
polyline from its basepoint (which must sit in the series disk
|z| <= 1/2, where all branches agree with the principal one).

Continuation integrates d Li_k = Li_{k-1} dt/t along the polyline, cut
into panels at most QUADRATURE_STEP long and short relative to their
distance to the singularities {0, 1}.  Each panel is integrated from
zero: g_1 = -log((1-t)/(1-lo)) at its Chebyshev--Lobatto nodes, and each
g_k the primitive of the Chebyshev interpolant of g_{k-1} dt/t, applied
as one cached real integration matrix per order (32, then 48) to every
panel at once.  The panels are then chained in closed form: across a
panel with log ratio lam the rest of (Li_1..Li_N) moves by exp(lam E),
E the shift Li_j -> Li_{j+1}, so the powers of log t are exact rather
than integrated.  The whole transport is repeated at a finer resolution
until two runs agree to REFINE_TOL, so endpoint values are accurate to
~1e-11 for |z| <= 4.

The polylogarithm mixed Hodge structure H(z) of rank N+1 is assembled in
Betti coordinates from the period matrix A(z) = L(z) tau(2 pi i): the
weight filtration is the standard flag spanned by e_k..e_N in weight
-2k, and the Hodge filtration F^{-k} is spanned by the first k+1 columns
of A(z)^{-1} (the de Rham flag pulled back through the comparison map),
exactly lower triangular, so column k lies in W_{-2k} and spans
I^{-k,-k}.  Its splitting and heights have closed forms used as oracles.

H(z), its matrices and the branch data (log z, Li_1..Li_N) are memoized
on the context that defines them, so they are computed once per context
and released with it; no module cache holds them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .framed import FramedMHS
from .linalg import DTYPE, nilpotent_log
from .mhs import MAX_TATE, HodgeFlag, MixedHodgeStructure, coordinate_flag

TWO_PI_I = 2j * np.pi

#: Terms of the basepoint series; Li_k there must settle within them.
SERIES_TERMS = 400
#: Most panels a path may need at the finest step, from its segment lengths
#: alone: 1,594 to |z| = 100, about 1.6e9 (never finishing) to |z| = 1e8.
PANEL_BUDGET = 10_000
#: Longest panel of the continuation quadrature (its first resolution).
QUADRATURE_STEP = 0.25
#: Agreement required between two transport resolutions.
REFINE_TOL = 1e-11
#: Largest N for the matrices of H(z): column N is the period (2 pi i)^N of
#: Q(N), finite up to N = 386.
MAX_N = MAX_TATE
#: Distance from the singular points 0 and 1 below which a point is one.
SINGULAR_RADIUS = 1e-12
#: Distance from the real axis below which a point of a cut lies on it.
CUT_RADIUS = 1e-14
#: Largest distance between the last point of a path and z.
PATH_END_TOL = 1e-12
#: Smallest distance a path segment may keep from 0 and 1.
SEGMENT_CLEARANCE = 1e-8
#: How far past |z| = 1/2 the basepoint series still accepts z.
SERIES_DISK_SLACK = 1e-13
#: The basepoint series stops once |z|^n falls below this (past n = 4).
SERIES_STOP = 1e-18
#: The basepoint series has not settled if its last |z|^n exceeds this.
SERIES_SETTLED = 1e-17


class TruncationOutOfRange(ValueError):
    """N is past MAX_N, where column N of A(z), (2 pi i)^N, leaves float range."""


class PathThroughSingularity(ValueError):
    """The continuation path (or the target itself) hits 0, 1 or a cut."""


class NonConvergent(ArithmeticError):
    """Series cutoff exceeded or quadrature refinement failed to settle."""


@dataclass(frozen=True)
class PolylogContext:
    """Evaluation point, truncation and branch data for the polylog family.

    path: optional waypoints (p0, ..., z); p0 must lie in |t| <= 1/2 off
    the cuts and the last point must be z.  Empty path means principal
    branches.  Facts derived from the context (H(z) and its branch data)
    are memoized on the instance and die with it; equality and hashing
    see only z, N and path.
    """

    z: complex
    N: int = 6
    path: tuple[complex, ...] = ()
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "path", tuple(complex(p) for p in self.path))
        if not all(cmath.isfinite(p) for p in (self.z, *self.path)):
            raise ValueError("evaluation point and path must be finite")
        if isinstance(self.N, bool) or not isinstance(self.N, int):
            raise ValueError(f"N must be an int, not {self.N!r}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        # z = 0 is allowed for bare Li evaluation (all Li_k(0) = 0); log z
        # and the matrices reject it separately.
        if abs(self.z - 1.0) < SINGULAR_RADIUS:
            raise PathThroughSingularity("z = 1 is singular")
        if self.path:
            if abs(self.path[-1] - self.z) > PATH_END_TOL:
                raise PathThroughSingularity("path must end at z")
            p0 = self.path[0]
            if abs(p0) > 0.5 or _on_cut(p0):
                raise PathThroughSingularity(
                    "path basepoint must lie in |t| <= 1/2 off the cuts")

    def memo(self, key, compute):
        """compute(), evaluated once and kept for the lifetime of this context."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def _on_cut(z: complex) -> bool:
    return abs(z.imag) < CUT_RADIUS and (z.real <= 0.0 or z.real >= 1.0)


def _segment_distance(a: complex, b: complex, point: complex) -> float:
    seg = b - a
    L2 = abs(seg) ** 2
    if L2 == 0.0:
        return abs(a - point)
    t = max(0.0, min(1.0, ((point - a) * seg.conjugate()).real / L2))
    return abs(a + t * seg - point)


def _check_segment(a: complex, b: complex) -> None:
    for special in (0.0, 1.0):
        if _segment_distance(a, b, special) < SEGMENT_CLEARANCE:
            raise PathThroughSingularity(
                f"segment {a} -> {b} passes through {special}")


def _series_values(z: complex, count: int, terms: int) -> list[complex]:
    """Li_1..Li_count at |z| <= 1/2 by the defining series (principal branch)."""
    if abs(z) > 0.5 + SERIES_DISK_SLACK:
        raise ValueError("series evaluation outside |z| <= 1/2")
    powers = np.cumprod(np.full(terms, z, dtype=DTYPE))    # z^1 .. z^terms
    # stop before the first power past n = 4 below SERIES_STOP
    small = np.flatnonzero(np.abs(powers[4:]) < SERIES_STOP)
    if small.size:
        stop = 4 + int(small[0])
    else:
        stop = terms
        if abs(z) > 1e-15 and abs(powers[-1]) > SERIES_SETTLED:
            raise NonConvergent(f"series cutoff {terms} too small at |z|={abs(z):.3f}")
    n = np.arange(1.0, stop + 1.0)
    weights = n ** -np.arange(1.0, count + 1.0)[:, None]  # row k: 1 / n^(k+1)
    return (weights @ powers[:stop]).tolist()


def _panel_points(a: complex, b: complex, step: float) -> list[complex]:
    """Split [a, b] so each panel is short relative to its distance to {0, 1}."""
    out = [a]

    def rec(lo: complex, hi: complex, depth: int) -> None:
        if depth > 60:
            raise NonConvergent("panel subdivision did not terminate")
        mid = (lo + hi) / 2
        # the length against step first: most nodes fail it, and then the
        # distance to {0, 1} is not needed
        length = abs(hi - lo)
        if length <= step and length <= 0.6 * min(abs(mid), abs(mid - 1.0)):
            out.append(hi)
            return
        rec(lo, mid, depth + 1)
        rec(mid, hi, depth + 1)

    rec(a, b, 0)
    return out


@lru_cache(maxsize=8)
def _cheb_nodes(order: int):
    """Lobatto nodes x (ascending, x[0] = -1) and the integration matrix Q.

    Q @ f is the primitive of f's Chebyshev interpolant at the nodes,
    measured from x[0].  Q is real and stored real: applied to the
    float64 view of a complex array it integrates the real and imaginary
    parts in one real product.
    """
    x = -np.cos(np.pi * np.arange(order + 1) / order)
    # v^{-1} by the discrete orthogonality of T_k at the Lobatto nodes:
    # (2/order) h v^T h, h halving the end nodes and the end degrees
    v, h = cheb.chebvander(x, order), np.where(np.arange(order + 1) % order, 1.0, 0.5)
    Q = (cheb.chebvander(x, order + 1) @ cheb.chebint(np.eye(order + 1), axis=0)
         @ (2.0 / order * h[:, None] * v.T * h))
    return x, Q - Q[0]


def _transport_once(points: tuple[complex, ...], li: list[complex],
                    step: float, order: int) -> tuple[complex, list[complex]]:
    """Continue (log t, Li_1..Li_count) from their values li at points[0]
    along the polyline; returns end values.

    One batched pass over the panels of every segment.  Each panel is
    integrated from zero: g_1 = -log((1-t)/(1-lo)) and g_k = Q @ (g_{k-1}
    dt/t), one real product per order for all panels at once.  Across a
    panel with log ratio lam = log(hi/lo) the rest of (Li_1..Li_count)
    moves by exp(lam E), with E the shift Li_j -> Li_{j+1}.  These
    commute, so the end values are exact in the log ratios:
    exp(Lambda E) li + sum_p exp(R_p E) g_p(hi_p), where Lambda is the sum
    of all ratios and R_p the sum of those after panel p.
    """
    x, Q = _cheb_nodes(order)
    count = len(li)
    los, his = [], []
    for a, b in zip(points, points[1:]):
        if abs(b - a) < 1e-15:
            continue
        _check_segment(a, b)
        panels = _panel_points(a, b, step)
        los += panels[:-1]
        his += panels[1:]
    lo, hi = np.array(los, dtype=DTYPE), np.array(his, dtype=DTYPE)
    half = (hi - lo) / 2
    t = (lo + hi) / 2 + half * x[:, None]    # column p holds panel p's nodes
    t[0], t[-1] = lo, hi                     # exact ends: 1 - t is exact near 1
    w = half / t                             # dt / t = w dx on each panel
    ratio = (1.0 - t) / (1.0 - lo)
    # -log(ratio) from its modulus and angle: numpy's complex log is
    # several times slower, and no more accurate in absolute terms
    g = -(np.log(np.abs(ratio)) + 1j * np.arctan2(ratio.imag, ratio.real))
    ends = np.empty((count, 1 + lo.size), dtype=DTYPE)
    ends[:, 0] = li                          # the start values lead, as a panel
    ends[0, 1:] = g[-1]
    gw, g_real = np.empty_like(g), g.view(np.float64)
    for k in range(1, count):
        # Q is real: one real product on the float64 view of all panels,
        # written back over g
        np.multiply(g, w, out=gw)
        np.matmul(Q, gw.view(np.float64), out=g_real)
        ends[k, 1:] = g[-1]
    # short panels keep the ratios in the right half plane, so the
    # principal log of each ratio continues the running branch; after[p]
    # sums the log ratios after column p of ends, so after[0] = Lambda
    after = np.zeros(lo.size + 1, dtype=DTYPE)
    np.cumsum(np.log(hi / lo)[::-1], out=after[-2::-1])
    factors = np.empty((count, after.size), dtype=DTYPE)
    factors[0] = 1.0
    factors[1:] = after / np.arange(1.0, count)[:, None]
    powers = np.cumprod(factors, axis=0)     # row m: after^m / m!
    # the end value at index k sums terms[m, k - m] from 0.0 in the order
    # of m: row m of terms, padded with zeros to width 2 count and read at
    # width 2 count - 1, moves right by m, and the rows are added in turn
    terms = np.zeros((count, 2 * count), dtype=DTYPE)
    terms[:, :count] = powers @ ends.T
    sheared = terms.ravel()[:count * (2 * count - 1)].reshape(count, -1)
    out = np.add.reduce(sheared, axis=0, initial=0.0)[:count]
    return complex(np.log(points[0]) + after[0]), out.tolist()


def _transport(points: tuple[complex, ...], count: int) -> tuple[complex, list[complex]]:
    """Transport with one refinement pass; fails loudly if runs disagree
    or the path needs more than PANEL_BUDGET panels."""
    finest = QUADRATURE_STEP / 4
    needed = sum(math.ceil(abs(b - a) / finest) for a, b in zip(points, points[1:]))
    if needed > PANEL_BUDGET:
        raise NonConvergent(f"path needs {needed} panels at step {finest}, over PANEL_BUDGET")
    li0 = _series_values(points[0], count, SERIES_TERMS)
    log1, li1 = _transport_once(points, li0, QUADRATURE_STEP, order=32)
    for step in (QUADRATURE_STEP / 2, QUADRATURE_STEP / 4):
        log2, li2 = _transport_once(points, li0, step, order=48)
        worst = max([abs(log1 - log2)] + [abs(u - v) for u, v in zip(li1, li2)])
        if worst <= REFINE_TOL:
            return log2, li2
        log1, li1 = log2, li2
    raise NonConvergent(f"quadrature refinement stalled at {worst:.2e}")


def _polyline(ctx: PolylogContext) -> tuple[complex, ...] | None:
    """None when plain series evaluation suffices (|z| <= 1/2, no path)."""
    if ctx.path:
        return ctx.path
    if abs(ctx.z) <= 0.5:
        return None
    if _on_cut(ctx.z):
        raise PathThroughSingularity(
            f"z = {ctx.z} lies on a branch cut; pass an explicit path")
    base = 0.4 * ctx.z / abs(ctx.z)
    return (base, ctx.z)


def _require_log_branch(ctx: PolylogContext) -> None:
    """Quantities involving log z need z away from 0 and off the log cut
    (unless an explicit path fixes the branch)."""
    if abs(ctx.z) < SINGULAR_RADIUS:
        raise PathThroughSingularity("log z undefined at z = 0")
    if not ctx.path and _on_cut(ctx.z):
        raise PathThroughSingularity(
            f"z = {ctx.z} lies on a branch cut; pass an explicit path")


def branch_data(ctx: PolylogContext, count: int) -> tuple[complex, list[complex]]:
    """(log z, [Li_1..Li_count]) on the branch selected by the context.

    On the default path with |z| <= 1/2 the series applies even on the
    negative real axis (only [1, inf) is a cut for the Li_k themselves);
    the returned log is -inf at z = 0 and callers needing it must guard.
    The values are computed once per context, for Li_1..Li_max(count, N),
    and every call returns a fresh list of the first count of them.
    """
    count = max(count, 1)
    total = max(count, ctx.N)

    def compute():
        pts = _polyline(ctx)
        if pts is None:
            lg = complex("-inf") if abs(ctx.z) < 1e-300 else complex(np.log(ctx.z))
            return lg, _series_values(ctx.z, total, SERIES_TERMS)
        return _transport(pts, total)

    lg, vals = ctx.memo(("branch", total), compute)
    return lg, vals[:count]


def li(k: int, ctx: PolylogContext) -> complex:
    """Li_k(z) on the context's branch."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return branch_data(ctx, k)[1][k - 1]


def log_z(ctx: PolylogContext) -> complex:
    _require_log_branch(ctx)
    return branch_data(ctx, 1)[0]


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli numbers with b_1 = -1/2: 1, -1/2, 1/6, 0, -1/30, 0, ..."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += Fraction(math.comb(m + 1, j)) * bernoulli(j)
    return -acc / (m + 1)


def _powers_over_factorials(x, count: int) -> list:
    """x^k / k! for k < count; from k = 171, where k! leaves float range,
    the one before times x / k.  The closed forms near z = 0 are
    sensitive to the direct form's rounding (ROADMAP, known defects)."""
    out = [x ** k / math.factorial(k) for k in range(min(count, 171))]
    for k in range(171, count):
        out.append(out[-1] * x / k)
    return out


def sv_brown(b: int, ctx: PolylogContext) -> complex:
    """Single-valued polylogarithm
    L_b = Li_b - sum_{k=0}^{b-1} (-1)^(b-k) (log zzbar)^k / k! conj(Li_{b-k}).

    Branch-independent; L_1(z) = -log |1-z|^2.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    _require_log_branch(ctx)
    lg, vals = branch_data(ctx, b)
    lzz = 2.0 * lg.real                      # log(z zbar), real on every branch
    out = vals[b - 1]
    for k, term in enumerate(_powers_over_factorials(lzz, b)):
        out -= (-1.0) ** (b - k) * term * np.conj(vals[b - k - 1])
    return complex(out)


def sv_bd(b: int, ctx: PolylogContext) -> complex:
    """Bernoulli-weighted single-valued polylogarithm extending Bloch--Wigner.

    Real for odd b, purely imaginary for even b (by construction).
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    _require_log_branch(ctx)
    lg, vals = branch_data(ctx, b)
    lzz = 2.0 * lg.real
    acc = 0.0
    for k in range(b - 1, -1, -1):          # Horner in lzz: no lzz^k is formed
        part = vals[b - k - 1].real if b % 2 == 1 else vals[b - k - 1].imag
        acc = acc * lzz + _bernoulli_over_factorial(k) * part
    return complex(acc) if b % 2 == 1 else 1j * acc


@lru_cache(maxsize=None)
def _bernoulli_over_factorial(k: int) -> float:
    """B_k / k!, formed exactly, then made a float: B_k alone leaves float
    range past k = 258, B_k / k! never does."""
    return float(bernoulli(k) / math.factorial(k))


# -- the polylog matrices and mixed Hodge structure ----------------------


def tau(value: complex, size: int) -> np.ndarray:
    return np.diag([complex(value) ** j for j in range(size)]).astype(DTYPE)


@dataclass(frozen=True)
class PolylogMatrices:
    """L(z), A(z) = L tau(2 pi i), A^{-1}, B = A conj(A)^{-1} tau(-1)."""

    L: np.ndarray
    A: np.ndarray
    A_inv: np.ndarray
    B: np.ndarray


def build_matrices(ctx: PolylogContext) -> PolylogMatrices:
    """The matrices of H(z), built once per context; the arrays are read-only.
    Raises TruncationOutOfRange past N = MAX_N before any other work.
    L = [1, 0; ell, 1] e^{lg e_0}, lg = log z, has the exact inverse
    e^{-lg e_0} [1, 0; -ell, 1], with exact zeros above the diagonal, so
    A^{-1} = tau(2 pi i)^{-1} L^{-1} and B = L tau(-1) conj(L^{-1}) tau(-1)."""
    def compute():
        if ctx.N > MAX_N:
            raise TruncationOutOfRange(
                f"N = {ctx.N} exceeds {MAX_N}: column N of A(z) is (2 pi i)^N, "
                f"beyond float range")
        _require_log_branch(ctx)
        lg, vals = branch_data(ctx, ctx.N)
        n, ell = ctx.N + 1, -np.array(vals, dtype=DTYPE)
        j, signs = np.arange(n), (-1.0) ** np.arange(n)     # signs: tau(-1)
        # Toeplitz blocks of x^(i-j)/(i-j)! for x = lg and -lg, gathered by
        # lag i - j from one table whose last entry, lag -1, is the zero above
        # the diagonal.  The powers of -lg are formed on their own: Python's
        # complex x ** k squares repeatedly only up to k = 100, so past it
        # they are not those of lg with alternating signs
        table = np.zeros((2, n), dtype=DTYPE)
        table[0, :-1] = _powers_over_factorials(lg, n - 1)
        table[1, :-1] = _powers_over_factorials(-lg, n - 1)
        L, L_inv = np.eye(n, dtype=DTYPE), np.eye(n, dtype=DTYPE)
        L[1:, 1:], L_inv[1:, 1:] = table[:, np.maximum(np.subtract.outer(j[1:], j[1:]), -1)]
        L[1:, 0], L_inv[1:, 0] = ell, -(L_inv[1:, 1:] @ ell)
        # (2 pi i)^-j as (-i)^j (2 pi)^-j, exact in the power of i
        scale = np.array([1, -1j, -1, 1j])[j % 4] * (2.0 * np.pi) ** -j.astype(float)
        mats = PolylogMatrices(L, L @ tau(TWO_PI_I, n), scale[:, None] * L_inv,
                               (L * signs) @ (L_inv.conj() * signs))
        for arr in vars(mats).values():
            arr.setflags(write=False)
        return mats
    return ctx.memo("matrices", compute)


def polylog_mhs(ctx: PolylogContext) -> MixedHodgeStructure:
    """The rank N+1 Hodge--Tate structure H(z) in Betti coordinates, built
    once per context.  W_{-2k} is spanned by the standard vectors
    e_k..e_N, handed over as its frame (`mhs.coordinate_flag`); F^{-k} by
    the first k+1 columns of A(z)^{-1}, handed over as a flag
    (`mhs.HodgeFlag`): the de Rham flag C^{[0,k]} pulled back through the
    comparison map alpha = A(z).  Column k, the flag's block of jump -k,
    spans the bigrading piece I^{-k,-k}, as `validate` certifies."""
    def compute():
        n, mats = ctx.N + 1, build_matrices(ctx)
        flag = HodgeFlag(mats.A_inv, range(-ctx.N, 1), range(n, 0, -1))
        return MixedHodgeStructure(n, coordinate_flag([1] * n), flag, comparison_matrix=mats.A)
    return ctx.memo("mhs", compute)


def polylog_framed(ctx: PolylogContext, a: int, b: int) -> FramedMHS:
    """The (-a, -b)-framed H(z), 0 <= a < b <= N; frame classes are the
    standard basis vector at position a and covector at position b, with
    int entries."""
    if not (0 <= a < b <= ctx.N):
        raise ValueError(f"need 0 <= a < b <= N, got a={a}, b={b}, N={ctx.N}")
    phi, psi = (tuple(int(j == i) for j in range(ctx.N + 1)) for i in (a, b))
    return FramedMHS(polylog_mhs(ctx), -a, -b, phi, psi)


def delta_closed_form(ctx: PolylogContext) -> np.ndarray:
    """delta of H(z) in closed form, expressed in Betti coordinates.

    In the de Rham frame the splitting is (i/2) log B(z); conjugating by
    the comparison matrix A(z) moves it to the Betti frame used by the
    generic solver.
    """
    mats = build_matrices(ctx)
    delta_dr = 0.5j * nilpotent_log(mats.B)
    return mats.A_inv @ delta_dr @ mats.A


def heights_closed_form(ctx: PolylogContext, a: int, b: int) -> tuple[float, float]:
    """Reference closed forms for (ht1, ht2) of the (-a,-b)-framed H(z).

    ht1: -Im(L_b(z)/(2 pi i)^b) for a = 0, and
         Im( ((log zzbar)/(2 pi i))^(b-a) / (b-a)! ) for b > a > 0
         (zero when b - a is even).
    ht2: D_b(z)/(i (2 pi i)^b) for a = 0; for a > 0 it is
         +log(zzbar)/(4 pi) when b = a + 1 and zero otherwise.  The
         adjacent framing sees a two-step Kummer extension, on which
         delta^2 = 0 forces ht2 = -ht1/2 (README, "Adjacent framings").
    """
    if not (0 <= a < b <= ctx.N):
        raise ValueError(f"need 0 <= a < b <= N, got a={a}, b={b}")
    lzz = 2.0 * log_z(ctx).real
    if a == 0:
        # 1 / (2 pi i)^b as (-i)^b (2 pi)^-b: (2 pi i)^b leaves float range past b = 385
        scale = (-1j) ** (b % 4) * (2.0 * np.pi) ** -b
        ht1 = float((-sv_brown(b, ctx) * scale).imag)
        ht2 = float((sv_bd(b, ctx) * scale / 1j).real)
    else:
        ht1 = float(_powers_over_factorials(lzz / TWO_PI_I, b - a + 1)[-1].imag)
        ht2 = float(lzz / (4.0 * np.pi)) if b == a + 1 else 0.0
    return ht1, ht2
