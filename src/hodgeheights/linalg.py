"""Tolerance-aware complex linear algebra.

Subspaces of C^n are held as orthonormal spanning sets produced by a
rank-revealing SVD; every dimension decision is `numerical_rank`, one
relative tolerance against the largest singular value (applied in closed
form to principal sines by `Subspace.intersect_pairs`, which intersects
a batch of pairs in one SVD; `Subspace.sum` spans any number of sides
in one, and `Subspace.from_vector_sets` any number of vector sets).
`Subspace.nested_frame` gives a decreasing chain of subspaces one square
orthonormal frame, each a prefix of its columns; `mhs` keeps each
filtration as such a frame and its ranks, so a full subspace is a square
unitary basis.  Every containment is
read in such a frame by one rule, `tail_norms`: for a unitary Q, X's
residual against Q's first r columns is the norm of (Q^* X)[r:].  The
nilpotent series (exp, log, and `nilpotent_exp_pair`, the exp of a
matrix and of its negative) sum their terms as they come, in O(n^2)
memory.  Every whole-array norm is `frobenius`, numpy's norm without
its argument dispatch.

All values are immutable and all operations are pure, so everything here
is safe to share between threads.

Scalars are numpy complex128 throughout; ``DTYPE`` below is the single
seam to swap in a wider type if a future use case needs more precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DTYPE = np.complex128

#: Relative rank tolerance: a singular value counts when it exceeds
#: RANK_TOL times the largest one (see `numerical_rank`).
RANK_TOL = 1e-9


class LinalgError(ValueError):
    """No answer on this input: non-finite vectors, or an F^p with no frame."""


class DimensionMismatch(LinalgError):
    pass


class NotUnipotent(LinalgError):
    """Raised by nilpotent_log when U - Id is not nilpotent at tolerance."""


class NotNilpotent(LinalgError):
    """Raised by nilpotent_exp when the argument is not nilpotent at tolerance."""


def numerical_rank(s: np.ndarray) -> int:
    """Number of singular values above RANK_TOL times the largest.

    `s` is sorted in decreasing order, as numpy's SVD returns it; an empty
    or all-zero spectrum has rank 0.
    """
    return np.count_nonzero(s > RANK_TOL * s[0]) if s.size else 0


def frobenius(x: np.ndarray) -> np.floating:
    """np.linalg.norm(x) of the whole array, bit for bit as numpy forms it
    (the entries in memory order, real.real + imag.imag, then the square
    root), without its argument dispatch."""
    x = np.asarray(x)
    if not issubclass(x.dtype.type, (np.inexact, np.object_)):
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(x.dot(x))


def orthonormal_columns(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of `mat` at numerical rank."""
    if mat.shape[1] == 0:
        return mat
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :numerical_rank(s)]


def unit_columns(mat: np.ndarray) -> np.ndarray:
    """Every column of mat (along axis -2, so of a stack too) divided by
    its norm, x / norm(x) bit for bit; a zero column stays zero.  One of
    norm below 1e-150, whose squares underflow, is first scaled by 2^600."""
    norms = np.linalg.norm(mat, axis=-2, keepdims=True)
    small = norms < 1e-150
    if small.any():
        mat = mat * np.where(small, 2.0 ** 600, 1.0)
        norms = np.linalg.norm(mat, axis=-2, keepdims=True)
    return mat / np.where(norms == 0.0, 1.0, norms)


def tail_norms(coords: np.ndarray, widths: Sequence[int], ranks: Sequence[int]) -> np.ndarray:
    """The Frobenius norm of each column block of coords below its row
    rank: the blocks are consecutive, of the given widths, and block i is
    read from row ranks[i] down (none of it at the number of rows).  For
    coords = Q^* X, Q unitary, that is ||X_i - Q_r Q_r^* X_i||, r = ranks[i]:
    how far block X_i is from the span of Q's first r columns."""
    below = np.arange(coords.shape[0])[:, None] >= np.repeat(ranks, widths)
    squares = np.where(below, coords.real ** 2 + coords.imag ** 2, 0.0).sum(axis=0)
    blocks = np.repeat(np.arange(len(widths)), widths)
    return np.sqrt(np.bincount(blocks, squares, minlength=len(widths)))


def _padded(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The matrices as one stack, each zero-padded at the bottom right to
    the largest shape."""
    stack = np.zeros((len(mats), max((m.shape[0] for m in mats), default=0),
                      max((m.shape[1] for m in mats), default=0)), dtype=DTYPE)
    for out, m in zip(stack, mats):
        out[:m.shape[0], :m.shape[1]] = m
    return stack


@dataclass(frozen=True, eq=False)
class Subspace:
    """A complex-linear subspace of C^n given by an orthonormal basis.

    `basis` has shape (ambient_dim, dim) with orthonormal columns.
    """

    basis: np.ndarray

    @staticmethod
    def from_vector_sets(sets: Sequence[np.ndarray], ambient_dim: int) -> list["Subspace"]:
        """The span of each set of vectors (rows of length ambient_dim), from
        one batched SVD: F given as rows by jump, and a dual's pieces.

        Each set's vectors become the columns of one stack, zero-padded to
        one count, which adds only zero singular values, and scaled to unit
        norm (`unit_columns`), which keeps every span, so no rank moves with
        a generator's size.  Each rank is `numerical_rank` of the set's own
        singular values; an empty set spans zero.  Sets of one vector each
        make no SVD: a scaled vector is its own basis, singular value 1 (0
        if zero).
        """
        sets = [np.asarray(rows, dtype=DTYPE) for rows in sets]
        for rows in sets:
            if rows.size and rows.shape[1] != ambient_dim:
                raise DimensionMismatch(f"vectors of length {rows.shape[1]}, "
                                        f"ambient {ambient_dim}")
            if not np.all(np.isfinite(rows)):
                raise LinalgError("non-finite entries")
        spans = [Subspace.zero(ambient_dim)] * len(sets)
        full = [i for i, rows in enumerate(sets) if rows.size]
        if full:
            stack = unit_columns(_padded([sets[i].T for i in full]))
            u, s = ((stack, stack.any(axis=1) * 1.0) if stack.shape[2] == 1
                    else np.linalg.svd(stack, full_matrices=False)[:2])
            for i, ub, sb in zip(full, u, s):
                rank = numerical_rank(sb[:min(sets[i].shape)])
                spans[i] = Subspace(ub[:, :rank])
        return spans

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(np.zeros((ambient_dim, 0), dtype=DTYPE))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def intersect_pairs(pairs: Sequence[tuple["Subspace", "Subspace"]]) -> list["Subspace"]:
        """[a cap b for a, b in pairs], decided from principal sines in one
        batched SVD.

        When one side is zero the result is that side, and when one side is
        the full space the result is the other side, with no SVD: A has
        orthonormal columns and a full B is unitary, so every principal
        angle is zero and the intersection is A.

        For the rest, with X the side of smaller dimension and Y the other
        (orthonormal bases), the residual X - Y (Y^* X) has the sines of
        the principal angles as singular values and the principal vectors
        in X as right singular vectors.  The rank rule is `numerical_rank`'s
        on the nullspace of [X | -Y], in closed form: that matrix has
        singular values sqrt(1 +- cos theta) and 1, so its largest is
        sqrt(1 + cos theta_min) and the small ones are sin theta /
        sqrt(1 + cos theta).  The intersection is spanned by X times the
        right singular vectors of the sines that rule counts as zero, a
        basis that is orthonormal already.  Every X and Y is zero-padded to
        one shape, which changes no residual, and under each padded column
        of X a unit entry in a row of its own gives that column sine 1, so
        it never enters a nullspace.
        """
        out: list[Subspace | None] = []
        todo = []
        for a, b in pairs:
            if a.ambient_dim != b.ambient_dim:
                raise DimensionMismatch("ambient dimensions differ")
            if a.dim == 0 or b.dim == b.ambient_dim:
                out.append(a)
            elif b.dim == 0 or a.dim == a.ambient_dim:
                out.append(b)
            else:
                todo.append((len(out), *((a.basis, b.basis) if a.dim <= b.dim
                                         else (b.basis, a.basis))))
                out.append(None)
        if not todo:
            return out
        xs, ys = _padded([x for _, x, _ in todo]), _padded([y for _, _, y in todo])
        cols = np.array([x.shape[1] for _, x, _ in todo])
        d = xs.shape[2]
        resid = xs - ys @ (ys.conj().transpose(0, 2, 1) @ xs)
        padded = np.arange(d) >= cols[:, None]
        if padded.any():
            which, col = np.nonzero(padded)
            units = np.zeros((len(todo), d, d), dtype=DTYPE)
            units[which, col, col] = 1.0
            resid = np.concatenate([resid, units], axis=1)
        _, sines, vh = np.linalg.svd(resid, full_matrices=False)
        cosines = np.sqrt(np.clip(1.0 - sines**2, 0.0, 1.0))
        small = sines / np.sqrt(1.0 + cosines)
        largest = np.sqrt(1.0 + cosines.max(axis=1, keepdims=True))
        nullity = np.sum(small <= RANK_TOL * largest, axis=1)
        bases = xs @ vh.conj().transpose(0, 2, 1)
        for (i, x, _), basis, k in zip(todo, bases, nullity):
            out[i] = Subspace(basis[:x.shape[0], d - k:].copy())
        return out

    def sum(self, *others: "Subspace") -> "Subspace":
        """Span of self and every other side, from one SVD.

        Zero sides and repeats of one side are dropped.  When one side is
        left the result is that side, with no SVD: its basis has
        orthonormal columns, so every singular value is 1 and its numerical
        rank is its dim -- the dimension the SVD would return.
        """
        if any(other.ambient_dim != self.ambient_dim for other in others):
            raise DimensionMismatch("ambient dimensions differ")
        sides = [side for side in dict.fromkeys((self, *others)) if side.dim > 0]
        if len(sides) <= 1:
            return sides[0] if sides else self
        return Subspace(orthonormal_columns(np.hstack([side.basis for side in sides])))

    @staticmethod
    def nested_frame(chain: Sequence["Subspace"], ambient_dim: int) -> np.ndarray:
        """One orthonormal frame of a chain S_0 >= S_1 >= ... >= S_m, S_i the
        span of its first dim S_i columns: S_m's basis, then for i = m-1
        down to 0 the complement of S_{i+1} in S_i, the leading dim S_i -
        dim S_{i+1} left singular vectors of S_i's basis less its projection
        on S_{i+1}.  Its rank is known, so none is decided; all complements
        are one batched SVD of zero-padded stacks (none if no dim drops)."""
        if not chain:
            return np.zeros((ambient_dim, 0), dtype=DTYPE)
        pairs = list(zip(chain, chain[1:]))
        blocks = [chain[-1].basis]
        if any(lo.dim > hi.dim for lo, hi in pairs):
            xs, ys = (_padded([pair[i].basis for pair in pairs]) for i in (0, 1))
            u = np.linalg.svd(xs - ys @ (ys.conj().transpose(0, 2, 1) @ xs),
                              full_matrices=False)[0]
            blocks += [ub[:, :lo.dim - hi.dim] for ub, (lo, hi) in zip(u[::-1], pairs[::-1])]
        return np.hstack(blocks)

    def conjugate(self) -> "Subspace":
        return Subspace(self.basis.conj())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _nilpotent_terms(mat: np.ndarray, divisor):
    """The terms t_k = t_{k-1} @ mat / divisor(k), t_0 = Id, for k = 1 .. n-1,
    yielded one at a time, so a caller sums them in O(n^2) memory.

    The same products decide that mat is nilpotent: some k <= n has
    ||mat^k|| <= RANK_TOL scale^k, scale = max(||mat||, 1), where mat^k is
    t_k times divisor(1) ... divisor(k).  Every term is yielded, also past
    that k, and t_n is formed only when no earlier term decided; if none
    does, NotNilpotent is raised after the last term.
    """
    n = mat.shape[0]
    scale = max(frobenius(mat), 1.0)
    term, product, nilpotent = np.eye(n, dtype=DTYPE), 1, False
    for k in range(1, n + 1):
        if k == n and nilpotent:
            break
        term = term @ mat / divisor(k)
        product *= divisor(k)
        nilpotent = nilpotent or bool(frobenius(term) * product <= RANK_TOL * scale**k)
        if k < n:
            yield term
    if not nilpotent:
        raise NotNilpotent(f"matrix is not nilpotent at tolerance {RANK_TOL}")


def nilpotent_exp(mat: np.ndarray) -> np.ndarray:
    """exp of a nilpotent matrix by its (finite) exponential series.

    Raises NotNilpotent when no power mat^k, k <= n, is zero at tolerance.
    """
    mat = np.asarray(mat, dtype=DTYPE)
    n = mat.shape[0]
    if n == 0:
        return mat.copy()
    return sum(_nilpotent_terms(mat, lambda k: k), np.eye(n, dtype=DTYPE))


def nilpotent_exp_pair(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(mat), exp(-mat)) from one series pass.

    The terms of -mat are those of mat with alternating signs, and negation
    is exact, so both values and the NotNilpotent decision are those of
    nilpotent_exp(mat) and nilpotent_exp(-mat).
    """
    mat = np.asarray(mat, dtype=DTYPE)
    n = mat.shape[0]
    if n == 0:
        return mat.copy(), mat.copy()
    plus, minus = np.eye(n, dtype=DTYPE), np.eye(n, dtype=DTYPE)
    for k, term in enumerate(_nilpotent_terms(mat, lambda k: k), 1):
        plus = plus + term
        minus = minus + (-term if k % 2 else term)
    return plus, minus


def nilpotent_log(mat: np.ndarray) -> np.ndarray:
    """log of a unipotent matrix U by the finite series in N = U - Id.

    Raises NotUnipotent when no power N^k, k <= n, is zero at tolerance.
    The result is strictly lower-triangular whenever U is unipotent
    lower-triangular, since every power of N then is.
    """
    mat = np.asarray(mat, dtype=DTYPE)
    n = mat.shape[0]
    if n == 0:
        return mat.copy()
    nil = mat - np.eye(n, dtype=DTYPE)
    try:
        return sum((((-1) ** (k + 1)) * power / k
                    for k, power in enumerate(_nilpotent_terms(nil, lambda k: 1), 1)),
                   np.zeros_like(nil))
    except NotNilpotent as exc:
        raise NotUnipotent(str(exc)) from exc
