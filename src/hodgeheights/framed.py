"""Framed mixed Hodge structures and the two height functionals.

An (a, b)-framing of an MHS H singles out a rational class phi in
Gr^W_{2a} of Hodge type (a, a) and a rational functional psi on
Gr^W_{2b} of type (b, b).  Lifting phi into the bigrading piece I^{a,a}
gives the frame element e_H.  The bigrading is compatible with duals, so
the rows of the inverse bigrading basis labelled (b, b) span I^{-b,-b}
of the dual; lifting psi in that dual-basis frame gives e_Hdual, and no
dual structure is built.  The two heights are

    ht1 = Im < e_Hdual, conj(e_H) >
    ht2 = < e_Hdual, delta(e_H) >        (real by construction)

with < , > the plain contraction between dual coordinates; no hidden
2 pi i normalizations, periods live inside the vectors.  Both vanish
when the structure splits over R.

A framing's lifts are computed once and kept on the framing itself, so
they die with it; its structure's bigrading and delta stay on the
structure, shared by every framing of it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from . import mhs as mhs_mod
from .deligne import REALITY_TOL, bigrading, delta_splitting
from .linalg import DTYPE, RANK_TOL, DimensionMismatch, frobenius, tail_norms
from .mhs import SUBSPACE_TOL, MixedHodgeStructure, require_valid


class FramingTypeError(ValueError):
    """The framing class is not of pure type (a,a) on its graded piece."""


class RealityViolation(ArithmeticError):
    """A provably real pairing came out with a large imaginary part."""


@dataclass(frozen=True, eq=False)
class FramedMHS:
    """An MHS with framing integers (a, b) and rational frame data.

    phi_class: rational vector in W_{2a} representing the framing class
    modulo W_{2a-1}.  psi_class: rational covector vanishing on W_{2b-1},
    representing the graded functional (its behaviour off W_{2b} is
    irrelevant: components of weight below -2b in the dual cannot reach
    I^{-b,-b}).  Entries that are int or Fraction are kept as given, as
    in `mhs.WeightFrame` rows; any other is made a Fraction.  Raises
    FramingTypeError unless a and b are integers and every entry is a
    finite rational.
    """

    mhs: MixedHodgeStructure
    a: int
    b: int
    phi_class: tuple[int | Fraction, ...]
    psi_class: tuple[int | Fraction, ...]

    def __init__(self, mhs, a, b, phi_class, psi_class):
        if not (isinstance(a, Integral) and isinstance(b, Integral)):
            raise FramingTypeError(f"framing indices must be integers, not {a!r} and {b!r}")
        object.__setattr__(self, "mhs", mhs)
        object.__setattr__(self, "a", int(a))
        object.__setattr__(self, "b", int(b))
        for name, v in (("phi_class", phi_class), ("psi_class", psi_class)):
            try:
                v = tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v)
            except (TypeError, ValueError, OverflowError):
                raise FramingTypeError(f"{name} entries must be finite rationals") from None
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_elements", None)   # set by frame_elements

    def check(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact rational sanity of the frame data (type checks happen on
        lift); returns phi_class and psi_class as float arrays."""
        h, a, b = self.mhs, self.a, self.b
        require_valid(h)
        n = h.dimension
        if len(self.phi_class) != n or len(self.psi_class) != n:
            raise FramingTypeError("frame vectors of wrong length")
        try:
            floats = np.array([float(x) for x in self.phi_class + self.psi_class], dtype=DTYPE)
        except OverflowError:
            raise FramingTypeError("frame class entry beyond float range") from None
        weight = h.weight_of(self.phi_class)
        if weight is not None and weight > 2 * a:
            raise FramingTypeError(f"phi_class is not in W_{2 * a}")
        if weight is None or weight < 2 * a:
            raise FramingTypeError(f"phi_class vanishes in Gr^W_{2 * a}")
        # psi on the rows spanning W_{2b-1}: on a coordinate frame, its entries at their pivots
        f, r = h.weight_frame, h.weight_rank(2 * b - 1)
        if (any(self.psi_class[c] for c in f.pivots[:r]) if f.coordinate else
                any(sum(p * x for p, x in zip(self.psi_class, row) if x) for row in f.rows[:r])):
            raise FramingTypeError(f"psi_class does not vanish on W_{2 * b - 1}")
        return floats[:n], floats[n:]


@dataclass(frozen=True)
class FrameElements:
    e_h: np.ndarray        # in I^{a,a} of H, Betti coordinates
    e_h_dual: np.ndarray   # in I^{-b,-b} of the dual, dual coordinates


def _typed_lift(frame: np.ndarray, coords: np.ndarray, labels, p: int, q: int,
                what: str) -> np.ndarray:
    """Project coords (in the columns of frame, typed by labels) onto I^{p,q},
    checking the class has no other components of the same weight (that is
    the pure-type condition on the graded piece).  The lift is coords
    under one mask over the labels; the other columns of that weight are
    judged in one comparison, and the first offending one, in label
    order, is the one reported.  |coords| sets the scale only when there
    are such columns (none for H(z), whose weights have one column each)."""
    mine = [label == (p, q) for label in labels]
    others = [i for i, (pi, qi) in enumerate(labels) if pi + qi == p + q and (pi, qi) != (p, q)]
    if others:
        scale = max(float(frobenius(coords)), 1e-30)
        large = np.abs(coords[others]) > SUBSPACE_TOL * scale
        if large.any():
            pi, qi = labels[others[int(np.argmax(large))]]
            raise FramingTypeError(
                f"{what}: graded class has a component of type ({pi},{qi}), "
                f"expected pure ({p},{q})")
    return frame @ (coords * mine)


def frame_elements(fh: FramedMHS) -> FrameElements:
    """The lifts e_H in I^{a,a}(H) and e_Hdual in I^{-b,-b}(dual H), both
    in the frame of H's bigrading (e_Hdual in its dual basis).  Checked and
    lifted once per framing and kept on it; a failed check keeps nothing.
    """
    if fh._elements is None:
        phi, psi = fh.check()
        bg, a, b = bigrading(fh.mhs), fh.a, fh.b
        e_h = _typed_lift(bg.basis, bg.inverse_basis @ phi, bg.labels, a, a, "phi_class")
        e_hd = _typed_lift(bg.inverse_basis.T, bg.basis.T @ psi,
                           [(-p, -q) for p, q in bg.labels], -b, -b, "psi_class")
        object.__setattr__(fh, "_elements", FrameElements(e_h, e_hd))
    return fh._elements


def _pair(covector: np.ndarray, vector: np.ndarray) -> complex:
    return complex(np.dot(covector, vector))


def _warn_degenerate(fh: FramedMHS) -> None:
    if fh.a == fh.b:
        warnings.warn("height of an (a,a)-framed structure is degenerate",
                      stacklevel=3)


def height1(fh: FramedMHS) -> float:
    """First height: Im < e_Hdual, conj(e_H) >."""
    _warn_degenerate(fh)
    return _height1(fh)


def _height1(fh: FramedMHS) -> float:
    el = frame_elements(fh)
    return float(_pair(el.e_h_dual, el.e_h.conj()).imag)


def height1_via_delta(fh: FramedMHS) -> float:
    """Same value through the splitting: Im < e_Hdual, e^{-2i delta} e_H >.

    Kept as an independent computation path; conj(e_H) equals
    e^{-2i delta}(e_H) for every framed structure.  e^{-2i delta} is the
    map the splitting checked its defining equation with.
    """
    _warn_degenerate(fh)
    el = frame_elements(fh)
    moved = delta_splitting(fh.mhs).exp_minus_2i_delta @ el.e_h
    return float(_pair(el.e_h_dual, moved).imag)


def delta_pairing(fh: FramedMHS, power: int = 1) -> complex:
    """< e_Hdual, delta^power (e_H) > (real whenever power >= 1 and b < a).
    Raises ValueError unless power is a non-negative integer."""
    if not (isinstance(power, Integral) and power >= 0):
        raise ValueError(f"delta_pairing needs a non-negative integer power, not {power!r}")
    el = frame_elements(fh)
    delta = delta_splitting(fh.mhs).delta
    v = el.e_h
    for _ in range(power):
        v = delta @ v
    return _pair(el.e_h_dual, v)


def height2(fh: FramedMHS) -> float:
    """Second height: < e_Hdual, delta(e_H) >, asserted real."""
    _warn_degenerate(fh)
    return _height2(fh)


def _height2(fh: FramedMHS) -> float:
    value = delta_pairing(fh, 1)
    scale = max(1.0, abs(value))
    if abs(value.imag) > REALITY_TOL * scale:
        raise RealityViolation(
            f"height2 pairing has imaginary part {value.imag:.2e}")
    return float(value.real)


def dual_framed(fh: FramedMHS) -> FramedMHS:
    """The (-b, -a)-framed dual: phi and psi swap roles.  Heights negate."""
    return FramedMHS(mhs_mod.dual(fh.mhs), -fh.b, -fh.a, fh.psi_class, fh.phi_class)


def twist_framed(fh: FramedMHS, p: int) -> FramedMHS:
    """The (a-p, b-p)-framed twist H(p).  Heights are unchanged."""
    return FramedMHS(mhs_mod.twist(fh.mhs, p), fh.a - p, fh.b - p,
                     fh.phi_class, fh.psi_class)


def conjugate_framed(fh: FramedMHS) -> FramedMHS:
    """The conjugate structure framed by ((-1)^a conj e_H, (-1)^b conj e_Hdual).

    Heights pick up the sign (-1)^(a-b+1).
    """
    sa, sb = (-1) ** (fh.a % 2), (-1) ** (fh.b % 2)     # ints, for any sign of a, b
    return FramedMHS(mhs_mod.conjugate(fh.mhs), fh.a, fh.b,
                     tuple(sa * x for x in fh.phi_class),
                     tuple(sb * x for x in fh.psi_class))


def biextension_defect(fh: FramedMHS) -> float:
    """ht2 + ht1/2: zero whenever delta^3(e_H) = 0.

    In general the defect is (2/3) < e_Hdual, delta^3 e_H > plus
    corrections from delta^5 and beyond; the sign of the 2/3 coefficient
    here follows from expanding e^{-2i delta} term by term (the odd-order
    pairings are real, so ht1 = -2<d> + (4/3)<d^3> - (4/15)<d^5> + ...).
    """
    _warn_degenerate(fh)
    return _height2(fh) + 0.5 * _height1(fh)


@dataclass(frozen=True)
class MorphismReport:
    rational_structure_preserved: bool
    weight_preserved: bool
    hodge_preserved: bool
    phi_compatible: bool
    psi_compatible: bool
    m1: int
    m2: int
    heights_source: tuple[float, float]
    heights_target: tuple[float, float]

    @property
    def is_framed_morphism(self) -> bool:
        return all([self.rational_structure_preserved, self.weight_preserved,
                    self.hodge_preserved, self.phi_compatible,
                    self.psi_compatible])

    @property
    def height_invariance_error(self) -> float:
        """max_i | m1 Ht_i(source) - m2 Ht_i(target) |."""
        return max(abs(self.m1 * s - self.m2 * t)
                   for s, t in zip(self.heights_source, self.heights_target))


def framed_morphism_check(f: np.ndarray, source: FramedMHS, target: FramedMHS,
                          m1: int = 1, m2: int = 1) -> MorphismReport:
    """Verify f: source -> target is a framed morphism (up to scales m1, m2).

    A morphism of the underlying structures must respect the rational
    Betti structure (real matrix; a complex map preserving W and F does
    not move the bigradings functorially), W and F.  Frame compatibility
    means phi'-class = m1 * f(phi) and psi = m2 * psi' o f on the graded
    level.  For a genuine (scaled) framed morphism
    m1 * Ht_i(source) = m2 * Ht_i(target).  Each containment is a tail in
    a square frame: a source W_k's or F^p's image, in q_t^* f q_s or
    Q_t^* f Q_s, at ``mhs.SUBSPACE_TOL`` times its norm (a zero image lies
    in anything); phi's class against W_{2a-1} in q_t, at RANK_TOL times.
    Raises DimensionMismatch unless f is (target.dim, source.dim).
    """
    tol = SUBSPACE_TOL
    f = np.asarray(f, dtype=DTYPE)
    hs, ht = source.mhs, target.mhs
    if f.shape != (ht.dimension, hs.dimension):
        raise DimensionMismatch(f"f has shape {f.shape}, a map from the source to the "
                                f"target needs {(ht.dimension, hs.dimension)}")
    require_valid(hs)
    require_valid(ht)

    real_ok = bool(frobenius(f.imag) < tol * max(1.0, frobenius(f)))
    (qs, fs), ft = hs._frames(), ht._frames()[1]

    def preserved(image: np.ndarray, widths: list[int], ranks: list[int]) -> bool:
        # the image of each source prefix, side by side, against the target's
        blocks = np.hstack([image[:, :r] for r in widths])
        return bool(np.all(tail_norms(blocks, widths, ranks)
                           <= tol * tail_norms(blocks, widths, [0] * len(widths))))

    w_ok = preserved(ht._weight_coordinates(f @ qs), [hs.weight_rank(k) for k in hs.weight_jumps],
                     [ht.weight_rank(k) for k in hs.weight_jumps])
    f_ok = preserved(ft.conj().T @ f @ fs, [hs.hodge_rank(p) for p in hs.hodge_jumps],
                     [ht.hodge_rank(p) for p in hs.hodge_jumps])

    phi_s = np.array([float(x) for x in source.phi_class])
    phi_t = np.array([float(x) for x in target.phi_class])
    diff = m1 * (f @ phi_s) - phi_t
    # equality of graded classes: the difference drops into W_{2a-1}
    size = frobenius(diff)
    below = tail_norms(ht._weight_coordinates(diff[:, None]), [1],
                       [ht.weight_rank(2 * target.a - 1)])[0]
    phi_ok = bool(size < tol or below < RANK_TOL * size)

    psi_s = np.array([float(x) for x in source.psi_class])
    psi_t = np.array([float(x) for x in target.psi_class])
    pulled = m2 * (f.T @ psi_t) - psi_s
    # psi agreement only matters on W_{2b} of the source
    w2b = hs.weight_subspace(2 * source.b)
    psi_ok = bool(frobenius(pulled @ w2b.basis) < tol * max(1.0, frobenius(psi_t)))

    return MorphismReport(
        real_ok, w_ok, f_ok, phi_ok, psi_ok, m1, m2,
        (height1(source), height2(source)),
        (height1(target), height2(target)),
    )
