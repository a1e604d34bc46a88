from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeheights import _rational, deligne, framed, mhs as mhs_mod, polylog
from hodgeheights.jsonio import parse_mhs_document
from hodgeheights.linalg import (LinalgError, Subspace, nilpotent_exp, orthonormal_columns,
                                 tail_norms)
from hodgeheights.mhs import (HodgeFlag, InvalidMHS, MixedHodgeStructure, WeightFrame,
                              conjugate, coordinate_flag, dual, random_hodge_tate,
                              random_hodge_tate_pair, tate, twist, validate)

from conftest import count_calls, random_framing
from oracles import (eliminated_weight, equals, from_vectors, graded_purity_violations,
                     graded_rational_basis, image, nullspace, sheared, weight_rows)
from test_deligne import curve_weight_gap_structure, odd_weight_gap_structure


def filtration_dims(h):
    w = {k: h.weight_subspace(k).dim for k in h.weight_jumps}
    f = {p: h.hodge_subspace(p).dim for p in h.hodge_jumps}
    return w, f


def test_tate_is_valid_and_rank_one():
    for a in (-2, 0, 3):
        q = tate(a)
        assert validate(q).ok
        assert q.weight_jumps == [-2 * a]
        assert q.hodge_jumps == [-a]
        # period normalization: the Betti generator maps to (2 pi i)^a
        assert np.allclose(q.comparison_matrix, [[(2j * np.pi) ** a]])


def test_tate_dual_is_opposite_twist():
    for a in (-1, 0, 2):
        d = dual(tate(a))
        expect = tate(-a)
        assert d.weight_jumps == expect.weight_jumps
        assert d.hodge_jumps == expect.hodge_jumps


def test_twist_of_tate():
    for a in (-1, 2):
        t = twist(tate(0), a)
        assert t.weight_jumps == [-2 * a]
        assert t.hodge_jumps == [-a]


def test_tate_past_float_range_raises():
    # (2 pi)^a is finite up to a = 386, so Q(a) is made up to |a| = 386, and
    # only for an integer a
    assert mhs_mod.MAX_TATE == 386
    for a in (386, -386):
        assert validate(tate(a)).ok
    for a in (387, 400, -400, 1.5):
        with pytest.raises(ValueError, match="at most 386"):
            tate(a)


def test_twist_needs_an_integer():
    # a twist by a non-integer has no Hodge jumps to move to: it is rejected
    # before validation, which never raises
    h = tate(0)
    for p in (1.5, 0.5, Fraction(1, 2)):
        with pytest.raises(ValueError, match="integer"):
            twist(h, p)
    assert twist(h, np.int64(2)).hodge_jumps == [-2]
    fh = polylog.polylog_framed(polylog.PolylogContext(0.3 + 0.2j, 3), 0, 2)
    with pytest.raises(ValueError, match="integer"):
        framed.twist_framed(fh, 0.5)


def test_purity_violation_detected():
    # rank 2, single weight 0, F jumping at 0 and 1: would need Hodge types
    # (0,0) + (1,-1) on Gr^W_0, which no pure structure of weight 0 allows
    h = MixedHodgeStructure(
        2,
        {0: [[1, 0], [0, 1]]},
        {0: np.eye(2, dtype=complex), 1: np.array([[1.0, 1j]])},
    )
    report = validate(h)
    assert not report.ok
    assert any(v.kind == "purity" and v.index == 0 for v in report.violations)


def test_validation_never_throws_on_bad_data():
    h = MixedHodgeStructure(2, {0: [[1, 0]]}, {0: np.eye(2, dtype=complex)})
    report = validate(h)  # top weight subspace not full
    assert not report.ok
    assert any(v.kind == "weight" for v in report.violations)


def test_weight_filtration_not_nested_is_reported():
    # W_0 and W_1 have the same dimension but are different lines
    h = MixedHodgeStructure(2, {0: [[1, 0]], 1: [[0, 1]], 2: [[1, 0], [0, 1]]},
                            {0: np.eye(2, dtype=complex)})
    assert validate(h).describe() == "[weight@1] W_0 not contained in W_1"


def test_operations_require_validity():
    broken = MixedHodgeStructure(2, {0: [[1, 0]]}, {0: np.eye(2, dtype=complex)})
    for op in (dual, conjugate, lambda s: twist(s, 1)):
        with pytest.raises(InvalidMHS):
            op(broken)


def test_double_dual_restores_filtration_dims():
    h = random_hodge_tate([1, 2, 1], seed=21)
    w0, f0 = filtration_dims(h)
    w2, f2 = filtration_dims(dual(dual(h)))
    assert w0 == w2 and f0 == f2


def test_twist_inverse():
    h = random_hodge_tate([2, 1], seed=4)
    back = twist(twist(h, 3), -3)
    assert filtration_dims(back) == filtration_dims(h)
    assert validate(back).ok


def test_conjugate_involution_and_validity():
    h = random_hodge_tate([1, 1, 1], seed=8)
    hc = conjugate(h)
    assert validate(hc).ok
    back = conjugate(hc)
    for p in h.hodge_jumps:
        assert equals(h.hodge_subspace(p), back.hodge_subspace(p))


def test_conjugate_fixes_r_split():
    _, _, h = random_hodge_tate_pair([1, 1], seed=3, real=True)
    hc = conjugate(h)
    for p in h.hodge_jumps:
        assert equals(h.hodge_subspace(p), hc.hodge_subspace(p))


def test_dual_twist_commutation():
    h = random_hodge_tate([1, 1, 1], seed=15)
    for p in (-2, -1, 1, 2):
        lhs = filtration_dims(dual(twist(h, p)))
        rhs = filtration_dims(twist(dual(h), -p))
        assert lhs == rhs


def test_dual_and_conjugate_of_valid_are_valid():
    for seed in range(6):
        h = random_hodge_tate([1, 2, 1], seed=seed)
        assert validate(dual(h)).ok
        assert validate(conjugate(h)).ok
        assert validate(twist(h, 2)).ok


def test_subspaces_are_read_by_jump(polylog_ctx_factory):
    # W jumps at -8, -6, ..., 0 and F at -4, ..., 0: every index between, below
    # or above the jumps reads the basis of the jump whose rows span it
    from hodgeheights.polylog import polylog_mhs
    h = polylog_mhs(polylog_ctx_factory(0.3 + 0.2j, 4))
    for k in (-7, -5, -3, -1, 1, 5):
        jump = max(j for j in h.weight_jumps if j <= k)
        assert np.array_equal(h.weight_subspace(k).basis, h.weight_subspace(jump).basis)
    assert np.array_equal(h.weight_subspace(-9).basis, h.weight_subspace(-12).basis)
    assert h.weight_subspace(-9).dim == 0
    for p in (-9, -5):
        assert np.array_equal(h.hodge_subspace(p).basis, h.hodge_subspace(-4).basis)
    assert np.array_equal(h.hodge_subspace(1).basis, h.hodge_subspace(3).basis)
    assert h.hodge_subspace(1).dim == h.hodge_rank(1) == 0


def _sheared_document():
    path = Path(__file__).parent.parent / "docs" / "examples" / "polylog-sheared.json"
    return parse_mhs_document(path.read_text())[0]


@pytest.mark.parametrize("make", [
    lambda: random_hodge_tate([1, 2, 1, 1], seed=6),
    lambda: polylog.polylog_mhs(polylog.PolylogContext(0.3 + 0.2j, 6)),
    lambda: _as_rows(random_hodge_tate([1, 2, 1, 1], seed=6)),
    lambda: _as_rows(polylog.polylog_mhs(polylog.PolylogContext(0.3 + 0.2j, 6))),
    curve_weight_gap_structure, odd_weight_gap_structure, _sheared_document,
], ids=["flag", "polylog-flag", "rows", "polylog-rows", "curve-weight-gap", "odd-weight-gap",
        "polylog-sheared"])
def test_subspaces_are_prefixes_of_the_frames(make):
    # W_k and F^p are views of the two square frames, q's first dim W_k
    # columns and Q's first dim F^p, at every index between, below and above
    # the jumps: for F given by jump too, whose rows' own spans are another
    # basis, and for every child
    h = make()
    for x in (h, dual(h), twist(h, 1), conjugate(h), dual(conjugate(h))):
        assert validate(x).ok
        q_w, q_f = x._frames()
        for k in range(x.weight_jumps[0] - 1, x.weight_jumps[-1] + 2):
            assert np.array_equal(x.weight_subspace(k).basis, q_w[:, :x.weight_rank(k)])
        for p in range(x.hodge_jumps[0] - 1, x.hodge_jumps[-1] + 2):
            assert np.array_equal(x.hodge_subspace(p).basis, q_f[:, :x.hodge_rank(p)])
        assert x.hodge_rank(x.hodge_jumps[0]) == x.dimension
        assert x.hodge_rank(x.hodge_jumps[-1] + 1) == 0


@pytest.mark.parametrize("derive", [dual, lambda h: twist(h, 2), lambda h: twist(h, -1),
                                    conjugate], ids=["dual", "twist2", "twist-1", "conjugate"])
def test_seeded_subspaces_span_the_childs_own_rows(derive):
    for h in (random_hodge_tate([1, 2, 1], seed=12), curve_weight_gap_structure(),
              odd_weight_gap_structure()):
        child = derive(h)
        for q in child.hodge_jumps:
            own = from_vectors(child.hodge_filtration[q], ambient_dim=child.dimension)
            assert equals(child.hodge_subspace(q), own)
        for k in child.weight_jumps:
            rows = [[float(x) for x in row] for row in child.weight_filtration[k]]
            own = from_vectors(rows, ambient_dim=child.dimension)
            assert equals(child.weight_subspace(k), own)
            assert child.weight_rank(k) == len(_rational.rref(child.weight_filtration[k])[0])


@pytest.mark.parametrize("derive", [lambda h: twist(h, 2), conjugate],
                         ids=["twist", "conjugate"])
def test_twist_and_conjugate_inherit_the_weight_verdict(derive, monkeypatch):
    # their echelon rows are the parent's, so the exact nesting check is not
    # repeated
    h = random_hodge_tate([1, 2, 1, 1], seed=6)
    mhs_mod.require_valid(h)
    child = derive(h)
    remainders = count_calls(monkeypatch, _rational, "remainder")
    assert validate(child).ok
    assert remainders == []


def test_dual_keeps_its_annihilators(monkeypatch):
    # F^q of the dual is the annihilator dual() forms, the leading columns
    # of the reversed conjugate frame, or the full space: no second
    # orthonormalisation of the same rows
    h = random_hodge_tate([2, 1, 2], seed=8)
    mhs_mod.require_valid(h)
    d = dual(h)
    svds = count_calls(monkeypatch, np.linalg, "svd")
    spaces = [d.hodge_subspace(q) for q in d.hodge_jumps]
    assert svds == []
    assert spaces[0].dim == d.dimension


def test_dual_pieces_are_one_batch(monkeypatch):
    # the dual's pieces are the parent's inverse basis rows, spanned in one
    # batched SVD, and with its independence check that is two SVDs.  Its
    # W frame, the exact dual of a coordinate frame, is a coordinate frame
    # too, so its W_k are read by index with no QR (a QR of it made one).
    # A valid parent has its F frame already: a flag of full rank its QR,
    # and one whose F is given by jump (the formula fixtures) the nested
    # frame its validation built (its dual built it, a second SVD, when it
    # was made on first use).  The fixtures' pieces are one vector each,
    # spanned with no SVD, so their duals make one SVD, the random one two
    for h, svd_count in ((random_hodge_tate([1, 2, 1, 1], seed=6), 2),
                         (curve_weight_gap_structure(), 1), (odd_weight_gap_structure(), 1)):
        mhs_mod.require_valid(h)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        qrs = count_calls(monkeypatch, np.linalg, "qr")
        d = dual(h)
        deligne.delta_splitting(d)
        assert (len(svds), len(qrs)) == (svd_count, 0)
        monkeypatch.undo()


@pytest.mark.parametrize("derive", [dual, lambda h: twist(h, 2), conjugate,
                                    lambda h: dual(conjugate(h))],
                         ids=["dual", "twist", "conjugate", "conjugate-dual"])
def test_children_carry_their_frame(derive, monkeypatch):
    # every child is a Hodge flag whose basis is its own orthonormal frame,
    # whether its parent's F is a flag or rows by jump, so its F^p are
    # slices of that frame: no SVD and no QR
    ht = random_hodge_tate([1, 2, 1, 1], seed=6)
    for h in (ht, _as_rows(ht), curve_weight_gap_structure(), odd_weight_gap_structure(),
              polylog.polylog_mhs(polylog.PolylogContext(0.3 + 0.2j, 6)), tate(2)):
        child = derive(h)
        assert child._flag is not None and child._memo["Q"] is child._flag.basis
        svds = count_calls(monkeypatch, np.linalg, "svd")
        qrs = count_calls(monkeypatch, np.linalg, "qr")
        spaces = [child.hodge_subspace(q) for q in child.hodge_jumps]
        assert svds == [] and qrs == []
        monkeypatch.undo()
        q = child._flag.basis
        np.testing.assert_allclose(q.conj().T @ q, np.eye(h.dimension), atol=1e-12)
        assert [s.dim for s in spaces] == list(child._flag.ranks)
        assert validate(child).ok


def test_dual_of_a_flag_annihilates_its_f():
    # F^q of the dual is Ann(F^{1-q}): the reversed conjugate of the
    # parent's frame, a flag with its own frame, for a parent whose F is a
    # flag or given by jump (its frame built from its spans)
    for h in (random_hodge_tate([1, 2, 1, 1], seed=6), tate(2),
              polylog.polylog_mhs(polylog.PolylogContext(0.3 + 0.2j, 6)),
              curve_weight_gap_structure(), odd_weight_gap_structure(),
              _as_rows(random_hodge_tate([2, 1, 2], seed=8))):
        d = dual(h)
        assert d._flag is not None and d._memo["Q"] is d._flag.basis
        for q in d.hodge_jumps:
            ann, f = d.hodge_subspace(q), h.hodge_subspace(1 - q)
            assert ann.dim + f.dim == h.dimension
            assert np.linalg.norm(ann.basis.T @ f.basis) < 1e-12
        assert validate(d).ok and validate(dual(d)).ok


def test_dual_of_rank_zero_is_rank_zero():
    # validate accepts every rank-0 structure, and so does dual
    h = MixedHodgeStructure(0, {}, {})
    d = dual(h)
    assert d.dimension == 0 and d.hodge_jumps == [] and d.weight_jumps == []
    assert validate(d).ok
    assert deligne.delta_splitting(d).delta.shape == (0, 0)
    assert dual(d).dimension == 0


def test_flag_rows_are_read_only_views_of_its_basis():
    # F^{-k} of H(z) reads the first k+1 columns of A(z)^{-1} as rows:
    # read-only views of the flag's basis, exactly those values, and the
    # closed-form inverse is exactly lower triangular
    ctx = polylog.PolylogContext(0.3 + 0.2j, 5)
    h = polylog.polylog_mhs(ctx)
    mats = polylog.build_matrices(ctx)
    a_inv = mats.A_inv
    assert not np.triu(a_inv, 1).any()
    assert np.abs(a_inv @ mats.A - np.eye(6)).max() <= 1e-14
    assert h.hodge_jumps == list(range(-5, 1))
    for k in range(6):
        rows = h.hodge_filtration[-k]
        assert np.array_equal(rows, a_inv[:, :k + 1].T)
        assert not rows.flags.writeable and rows.base is not None
    with pytest.raises(ValueError):
        HodgeFlag(np.eye(2), (0, 1), (2, 3))
    with pytest.raises(ValueError):
        HodgeFlag(np.eye(2), (0, 0), (2, 1))
    # a flag is nested by construction: no more generators than rows, and
    # no rank that grows with the jump
    with pytest.raises(ValueError):
        HodgeFlag(np.ones((2, 3)), (0, 1), (3, 1))
    with pytest.raises(ValueError):
        HodgeFlag(np.eye(2), (0, 1), (1, 2))


def _as_rows(h):
    """h with the same W frame and F given as rows by jump."""
    return MixedHodgeStructure(h.dimension, h.weight_frame, h.hodge_filtration,
                               h.comparison_matrix)


def _outcome(h, fh):
    """describe(), piece dims, the splitting's exception type and the
    heights of fh and of its dual and conjugate framings."""
    report = validate(h).describe()
    if report != "valid":
        return report, None, None, ()
    try:
        deligne.delta_splitting(h)
    except Exception as exc:
        return report, None, type(exc), ()
    heights = ()
    if fh is not None:
        heights = tuple(f(g) for g in (fh, framed.dual_framed(fh), framed.conjugate_framed(fh))
                        for f in (framed.height1, framed.height2))
    return report, mhs_mod._pieces(h).piece_dims(), None, heights


def assert_flag_matches_rows(h, fh=None):
    """The flag path and the batched path of the same F agree: report,
    piece dims, exception types and heights, to 1e-12 relative to the
    largest height of the framing family (a small height of a structure
    with large ones carries the rounding of the large ones: two correct
    float evaluations of conjugate ht2 at scale 3 were 1.9e-12 apart
    relative to itself, 1.8e-13 relative to the family's largest)."""
    assert h._flag is not None
    rows = _as_rows(h)
    rows_fh = None if fh is None else framed.FramedMHS(rows, fh.a, fh.b, fh.phi_class,
                                                        fh.psi_class)
    mine, theirs = _outcome(h, fh), _outcome(rows, rows_fh)
    assert mine[:3] == theirs[:3]
    scale = max(map(abs, theirs[3]), default=0.0)
    np.testing.assert_allclose(mine[3], theirs[3], rtol=0, atol=1e-12 * scale + 1e-15)
    if mine[0] == "valid":
        for derive in (dual, conjugate, lambda x: twist(x, 1)):
            assert validate(derive(h)).describe() == validate(derive(rows)).describe()


# derandomized: the same examples on every run, as the heights' margin is
# about 2x (the worst of 600 random structures was 4.2e-13 of the largest)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.5, 0.9, 2.0, 3.0]))
def test_hodge_tate_flag_matches_rows(dims, seed, scale):
    h = random_hodge_tate(dims, seed=seed, scale=scale)
    fh = (random_framing(h, np.random.default_rng(seed), b_level=len(dims) - 1)
          if len(dims) > 1 else None)
    assert_flag_matches_rows(h, fh)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.integers(2, 20), radius=st.floats(0.1, 4.0),
       angle=st.floats(0.15, np.pi - 0.15), lower=st.booleans(), data=st.data())
def test_polylog_flag_matches_rows(n, radius, angle, lower, data):
    z = radius * complex(np.cos(angle), -np.sin(angle) if lower else np.sin(angle))
    ctx = polylog.PolylogContext(z, n)
    b = data.draw(st.integers(1, n))
    assert_flag_matches_rows(polylog.polylog_mhs(ctx), polylog.polylog_framed(ctx, 0, b))


def _degenerate_flag(kind):
    """A flag short of full rank: the flag of a random Hodge--Tate
    structure with one generator changed.  (H(z) is no such flag: with its
    exact triangular A(z)^{-1} it validates at N = 32, 40 and 64.)"""
    h = random_hodge_tate([1, 2, 1], seed=5)
    basis = np.array(h._flag.basis)
    if kind == "zero-generator":
        basis[:, 3] = 0
    elif kind == "repeated-generator":
        basis[:, 2] = basis[:, 1]
    else:
        basis[:, 1] = basis[:, 0] * (1 + 1e-13)
    return MixedHodgeStructure(h.dimension, h.weight_frame,
                               HodgeFlag(basis, h._flag.jumps, h._flag.ranks))


@pytest.mark.parametrize("kind", ["zero-generator", "repeated-generator", "rank-deficient"])
def test_degenerate_flag_is_rejected_on_its_own_svd(kind, monkeypatch):
    # a flag is nested by construction, so a basis short of full rank is
    # decided by its one values-only SVD: no QR, no span of its rows, no
    # nesting residual, no tail norm, and no F^p.  Its report is the
    # batched SVD's of the same F given as rows by jump, word for word
    h = _degenerate_flag(kind)
    calls = {name: count_calls(monkeypatch, owner, attr)
             for name, owner, attr in (("svd", np.linalg, "svd"), ("qr", np.linalg, "qr"),
                                       ("sets", Subspace, "from_vector_sets"),
                                       ("nesting", mhs_mod, "_nesting_residuals"),
                                       ("tails", mhs_mod, "tail_norms"))}
    assert validate(h).describe() == "[hodge@-2] bottom Hodge subspace is not full"
    assert (len(calls["svd"]), len(calls["qr"])) == (1, 0)
    assert calls["sets"] == calls["nesting"] == calls["tails"] == []
    assert h._memo["Q"] is None
    with pytest.raises(LinalgError, match="bottom Hodge subspace is not full"):
        h.hodge_subspace(0)
    monkeypatch.undo()
    assert_flag_matches_rows(h)


def test_no_flag_reaches_the_rows_by_jump_path(monkeypatch):
    # a flag, fresh or derived, full or short of rank, has its F^p and its
    # frame from its own factorisation: never from spanning its rows, a
    # nesting residual or a nested frame.  F given by jump takes all three
    # when F is decided, a valid one its frame too
    makers = [lambda: random_hodge_tate([1, 2, 1, 1], seed=6), lambda: tate(2),
              lambda: polylog.polylog_mhs(polylog.PolylogContext(0.3 + 0.2j, 6)),
              lambda: _degenerate_flag("zero-generator"),
              lambda: _as_rows(random_hodge_tate([1, 2, 1, 1], seed=6)),
              curve_weight_gap_structure]
    # each root fresh, and the children derived from other instances
    structures = [make() for make in makers]
    structures += [derive(h) for h in (make() for make in makers) if validate(h).ok
                   for derive in (dual, conjugate, lambda x: twist(x, 1))]
    for h in structures:
        calls = [count_calls(monkeypatch, owner, name) for owner, name in
                 ((Subspace, "from_vector_sets"), (mhs_mod, "_nesting_residuals"),
                  (Subspace, "nested_frame"))]
        h._hodge()
        assert all(calls) if h._flag is None else not any(calls)
        monkeypatch.undo()


def _surplus_flag(kind):
    """F nested with a full bottom and one generator more than its
    dimension: random_hodge_tate([1, 2, 1])'s flag with twice its last
    column, or the sum of its first and last, appended to its bottom jump
    (a flag, refused); or, as rows by jump, the rank-2 pure structure F^1 =
    span(1, i) of which no weight-0 MHS allows, its F^0 spanned by three
    generators."""
    if kind == "purity":
        return MixedHodgeStructure(2, {0: [[1, 0], [0, 1]]}, {
            0: np.array([[1.0, 1j], [1.0, 0.0], [0.0, 1.0]]), 1: np.array([[1.0, 1j]])})
    h = random_hodge_tate([1, 2, 1], seed=5)
    basis = h._flag.basis
    extra = 2 * basis[:, 3] if kind == "multiple" else basis[:, 0] + basis[:, 3]
    return MixedHodgeStructure(h.dimension, h.weight_frame, HodgeFlag(
        np.column_stack([basis, extra]), h._flag.jumps, (5, *h._flag.ranks[1:])))


@pytest.mark.parametrize("kind, report", [
    ("multiple", ValueError), ("combination", ValueError),
    ("purity", "[purity@0] pieces of weight 0 have dim 3, Gr^W_0 has dim 2\n"
               "[purity@0] dim I^(1,-1) = 1 exceeds dim I^(-1,1) = 0\n"
               "[purity@None] F^0 has dim 2, pieces I^(p',q) with p' >= 0 have dim 3")])
def test_flag_short_of_rank_has_no_candidates(kind, report, monkeypatch):
    # a flag of more generators than its dimension is refused when it is
    # made.  The same F given as rows by jump passes its own checks but
    # has no Hodge--Tate candidates, so Deligne's formula decides and
    # writes the report, word for word the one the surplus flag had
    if report is ValueError:
        with pytest.raises(ValueError):
            _surplus_flag(kind)
        return
    h = _surplus_flag(kind)
    formula = count_calls(monkeypatch, mhs_mod, "_deligne_formula_pieces")
    assert validate(h).describe() == report and formula == [h]
    assert h._hodge()[1] == () and mhs_mod._hodge_tate_candidates(h) is None


def _scaled(h, factor, as_rows):
    """h with every generator of F multiplied by factor, as a flag or as
    rows by jump."""
    f = h._flag
    hodge = ({p: rows * factor for p, rows in h.hodge_filtration.items()} if as_rows
             else HodgeFlag(f.basis * factor, f.jumps, f.ranks))
    return MixedHodgeStructure(h.dimension, h.weight_frame, hodge, h.comparison_matrix)


@pytest.mark.parametrize("factor", [1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("as_rows", [False, True], ids=["flag", "rows"])
def test_no_rank_decision_moves_with_a_generators_size(factor, as_rows):
    # F's generators are scaled to unit norm before any rank is decided,
    # also where the squares in their norms underflow, so Q(0) and a random
    # Hodge--Tate structure with tiny generators keep their report, piece
    # dims and heights
    h = random_hodge_tate([1, 2, 1], seed=5)
    for root, fh in ((tate(0), None), (h, random_framing(h, np.random.default_rng(5), b_level=2))):
        small = _scaled(root, factor, as_rows)
        small_fh = None if fh is None else framed.FramedMHS(small, fh.a, fh.b, fh.phi_class,
                                                              fh.psi_class)
        mine, want = _outcome(small, small_fh), _outcome(root, fh)
        assert want[0] == "valid" and mine[:3] == want[:3]
        scale = max(map(abs, want[3]), default=0.0)
        np.testing.assert_allclose(mine[3], want[3], rtol=0, atol=1e-12 * scale + 1e-15)


def test_polylog_flag_validates_where_column_norms_underflow():
    # column k of A(z)^{-1} scales like (2 pi)^{-k}: at this z its norm is
    # below 1e-150 from k = 188 and reads 0 from k = 203, where every square
    # in it underflows, and the column still has rank
    h = polylog.polylog_mhs(polylog.PolylogContext(0.3 + 0.2j, 210))
    norms = np.linalg.norm(h._flag.basis, axis=0)
    assert norms[188:].max() < 1e-150 and not norms[203:].any()
    assert validate(h).ok


@pytest.mark.parametrize("frame, report", [
    (WeightFrame((0,), ((1, 0, 0), (0, 1, 0)), (0, 0), (0, 1)),
     "[data@None] weight vector of wrong length"),
    # a repeated row: weight_rank would count a dependent row
    (WeightFrame((0,), ((1, 0), (1, 0)), (0, 0), (0, 0)),
     "[data@None] weight frame rows not 1 at their pivots, with 0 there in every later row"),
    (WeightFrame((0,), ((2, 0), (0, 1)), (0, 0), (0, 1)),
     "[data@None] weight frame rows not 1 at their pivots, with 0 there in every later row"),
    (WeightFrame((0, 2), ((1, 0), (0, 1)), (2, 0), (0, 1)),
     "[data@None] weight frame weights not ascending among its jumps"),
    (WeightFrame((0,), ((1, 0), (0, 1)), (0, 1), (0, 1)),
     "[data@None] weight frame weights not ascending among its jumps"),
    (WeightFrame((0,), ((1, 0), (0, 1)), (0,), (0, 1)),
     "[data@None] weight frame needs one weight and pivot per row, and at most n rows"),
    (WeightFrame((0,), ((1, 0),), (0,), (0,)), "[weight@0] top weight subspace is not full"),
    # weights, jumps and pivots index and count: a float one is data, not a TypeError
    (WeightFrame((-3.0,), ((1, 0), (0, 1)), (-3.0, -3.0), (0, 1)),
     "[data@None] weight frame weights, jumps or pivots not integers"),
], ids=["row-length", "repeated-row", "pivot-not-one", "weights-descending",
        "weight-not-a-jump", "missing-weight", "top-not-full", "float-weights"])
def test_handed_over_frame_is_checked(frame, report):
    # a frame is taken as given, so its shape is checked as rows are
    h = MixedHodgeStructure(2, frame, {0: np.eye(2)})
    assert validate(h).describe() == report
    with pytest.raises(InvalidMHS):
        mhs_mod.require_valid(h)


def test_derived_frames_pass_the_frame_check():
    # a child inherits W's verdict from its parent, as its frame is the
    # parent's shifted or dual, which keeps the pivot pattern
    assert mhs_mod._frame_violations(3, coordinate_flag([1, 2])) == ()
    g = np.triu(np.random.default_rng(8).integers(-3, 4, size=(5, 5)), 1) + np.eye(5, dtype=int)
    base = random_hodge_tate([2, 1, 2], seed=8)
    for h in (base, sheared(base, g.tolist())):
        mhs_mod.require_valid(h)
        for child in (dual(h), twist(h, 1), conjugate(h), dual(dual(h))):
            assert mhs_mod._frame_violations(h.dimension, child.weight_frame) == ()
            assert child._memo["frame"] == ()


def test_weight_verdict_and_dual_annihilators_hold_through_the_frame(monkeypatch):
    # the frame's one pass over W's rows is the nesting check: one echelon
    # form per jump when the structure is made, none when it is validated
    rrefs = count_calls(monkeypatch, _rational, "rref")
    h = MixedHodgeStructure(2, {0: [[1, 0]], 1: [[0, 1]], 2: [[1, 0], [0, 1]]},
                            {0: np.eye(2, dtype=complex)})
    assert len(rrefs) == 3
    assert validate(h).describe() == "[weight@1] W_0 not contained in W_1"
    assert len(rrefs) == 3
    # the dual of a structure framed by rational rows that are not unit
    # vectors is framed by their exact dual basis, with no echelon form,
    # and keeps its annihilators as F: no SVD
    g = np.triu(np.random.default_rng(8).integers(-3, 4, size=(5, 5)), 1) + np.eye(5, dtype=int)
    h = sheared(random_hodge_tate([2, 1, 2], seed=8), g.tolist())
    assert {x for row in h.weight_frame.rows for x in row} - {0, 1}
    mhs_mod.require_valid(h)
    rrefs.clear()
    d = dual(h)
    svds = count_calls(monkeypatch, np.linalg, "svd")
    spaces = [d.hodge_subspace(q) for q in d.hodge_jumps]
    assert rrefs == [] and svds == []
    assert spaces[0].dim == d.dimension
    assert validate(d).ok
    for k in h.weight_jumps:
        # W_{-k} of the dual is Ann(W_{k-1}), exactly
        ann = nullspace(_rational.rref(weight_rows(h, k - 1)), h.dimension)
        assert _rational.rref(d.weight_filtration[-k]) == _rational.rref(ann)
    for i, s in enumerate(reversed(d.weight_frame.rows)):
        assert [sum(x * y for x, y in zip(s, t)) for t in h.weight_frame.rows] == [
            int(i == j) for j in range(h.dimension)]


def test_random_hodge_tate_deterministic_and_graded():
    h1 = random_hodge_tate([2, 1, 3], seed=42)
    h2 = random_hodge_tate([2, 1, 3], seed=42)
    for p in h1.hodge_jumps:
        assert np.array_equal(h1.hodge_filtration[p], h2.hodge_filtration[p])
    assert h1.graded_dimension(0) == 2
    assert h1.graded_dimension(-2) == 1
    assert h1.graded_dimension(-4) == 3


def test_generator_lambda_zero_gives_split():
    split, lam, twisted = random_hodge_tate_pair([1, 1], seed=0, scale=0.0)
    assert np.linalg.norm(lam) == 0.0
    for p in split.hodge_jumps:
        assert equals(split.hodge_subspace(p), twisted.hodge_subspace(p))


def test_generator_moves_bigrading_by_exp_lambda():
    from hodgeheights.linalg import LinalgError, Subspace, nilpotent_exp
    split, lam, twisted = random_hodge_tate_pair([1, 2, 1], seed=33)
    bs = deligne.bigrading(split)
    bt = deligne.bigrading(twisted)
    g = nilpotent_exp(lam)
    assert set(bs.pieces) == set(bt.pieces)
    for pq, piece in bs.pieces.items():
        assert equals(image(piece, g), bt.pieces[pq], 1e-8)


def test_pieces_outside_the_filtrations_are_rejected():
    # A direct `validate` checks a derived structure on the pieces it
    # inherits: each must lie in the child's own F^p and W_{p+q}.  Seeded
    # with its parent's pieces unchanged, a twist fails the dimension
    # counts as well; a conjugate passes them, so the containment condition
    # alone rejects it (at every weight but the lowest, whose piece W_{-4}
    # is real).  `require_valid` reads the verdict a twist or conjugate
    # carries, so the tampered twist is caught by its bigrading, whose
    # pieces fail the dimension counts (the same violations, word for
    # word), and the tampered conjugate by its splitting: its Y is the
    # parent's, which the carried -delta does not take to conj(Y)
    h = random_hodge_tate([1, 2, 1], seed=4)
    parent = deligne.bigrading(h).pieces
    twisted, conjugated = twist(h, 1), conjugate(h)
    for child, weights in ((twisted, {0, -2, -4}), (conjugated, {0, -2})):
        child._memo["pieces"] = mhs_mod._assemble(child, parent)
        report = validate(child)
        outside = {v.index for v in report.violations
                   if v.kind == "purity" and "does not lie in" in v.message}
        assert outside == weights
        assert not report.ok
    with pytest.raises(InvalidMHS) as raised:
        deligne.bigrading(twisted)
    assert raised.value.report.violations
    assert set(raised.value.report.violations) <= set(validate(twisted).violations)
    with pytest.raises(deligne.ResidualTooLarge):
        deligne.delta_splitting(conjugated)


class _GeneralFrame(WeightFrame):
    """A weight frame read as a general one, by one QR and by elimination,
    whatever its rows."""

    coordinate = False


def _read_generally(h):
    f = h.weight_frame
    return MixedHodgeStructure(h.dimension, _GeneralFrame(f.jumps, f.rows, f.weights, f.pivots),
                               h.hodge_filtration if h._flag is None else h._flag)


_DERIVED = {"root": lambda h: h, "dual": dual, "twist": lambda h: twist(h, -1),
            "conjugate-dual": lambda h: dual(conjugate(h))}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=4), seed=st.integers(0, 2**16),
       derive=st.sampled_from(sorted(_DERIVED)), polylog_n=st.sampled_from([None, 3, 7]))
def test_coordinate_weight_spans_match_the_qr(dims, seed, derive, polylog_n):
    # a coordinate frame's W_k, identity columns at its pivots, are the
    # columns the QR of its rows gives, up to sign, so every containment
    # residual against them has the same bytes: the coordinates read by
    # index at the pivots are the QR frame's product up to sign, and their
    # tail norms, of the pieces below W_{p+q} and of random subspaces below
    # every W_k, are equal
    root = (random_hodge_tate(dims, seed=seed) if polylog_n is None
            else polylog.polylog_mhs(polylog.PolylogContext(0.3 + 0.2j, polylog_n)))
    # the child's frame and flag, in a structure of their own
    child = _DERIVED[derive](root)
    h = MixedHodgeStructure(child.dimension, child.weight_frame, child._flag)
    general = _read_generally(h)
    assert h.weight_frame.coordinate
    for k in h.weight_jumps:
        assert np.array_equal(np.abs(h.weight_subspace(k).basis),
                              np.abs(general.weight_subspace(k).basis))
    assert np.array_equal(np.abs(h._frames()[0]), np.abs(general._frames()[0]))
    rng, n = np.random.default_rng(seed), h.dimension
    xs = [orthonormal_columns(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
          for d in range(n + 1)]
    xs += [x.basis for x in deligne.bigrading(h).pieces.values()]
    widths, xs = [x.shape[1] for x in xs], np.hstack(xs)
    by_index, by_qr = h._weight_coordinates(xs), general._weight_coordinates(xs)
    assert np.array_equal(np.abs(by_index), np.abs(by_qr))
    for k in h.weight_jumps:
        ranks = [h.weight_rank(k)] * len(widths)
        assert (tail_norms(by_index, widths, ranks).tobytes()
                == tail_norms(by_qr, widths, ranks).tobytes())
    assert validate(general).describe() == validate(h).describe() == "valid"
    assert deligne.bigrading(general).piece_dims() == deligne.bigrading(h).piece_dims()


_RATIONALS = st.one_of(st.just(0), st.integers(-5, 5),
                       st.fractions(min_value=-3, max_value=3, max_denominator=7))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4), shift=st.integers(-3, 3),
       dualised=st.booleans(), data=st.data())
def test_weight_of_reads_a_coordinate_frame_by_index(dims, shift, dualised, data):
    # on a coordinate frame the weight of a rational vector is that of its
    # last nonzero pivot entry, the weight elimination finds (int and
    # Fraction entries); the same frame read generally eliminates
    f = coordinate_flag(dims).shifted(2 * shift)
    f = f.dual() if dualised else f
    n = sum(dims)
    h = MixedHodgeStructure(n, f, {0: np.eye(n)})
    vector = data.draw(st.lists(_RATIONALS, min_size=n, max_size=n))
    assert f.coordinate
    assert (h.weight_of(vector) == _read_generally(h).weight_of(vector)
            == eliminated_weight(f, vector))
    assert h.weight_of([0] * n) is None


def _spanned_weight_subspace(h, k):
    """W_k as the span of its float rows, even where it is the whole space."""
    rows = [[float(x) for x in row] for row in weight_rows(h, k)]
    return from_vectors(np.array(rows, dtype=complex).reshape(len(rows), h.dimension),
                        ambient_dim=h.dimension)


def _parent_pieces_twist():
    # invalid: a twist seeded with its parent's pieces unchanged
    h = random_hodge_tate([1, 2, 1], seed=4)
    child = twist(h, 1)
    child._memo["pieces"] = mhs_mod._assemble(child, deligne.bigrading(h).pieces)
    return child


def _polylog_structure(n):
    from hodgeheights.polylog import PolylogContext, polylog_mhs
    return lambda: polylog_mhs(PolylogContext(0.3 + 0.2j, N=n))


@pytest.mark.parametrize("make", [
    *(_polylog_structure(n) for n in (4, 6, 10, 11, 12)),
    *(lambda seed=seed, dims=dims: dual(random_hodge_tate(dims, seed=seed))
      for seed, dims in ((1, [1, 2, 1]), (9, [2, 1, 3]), (23, [1, 1, 1, 1]))),
    _parent_pieces_twist,
], ids=["N4", "N6", "N10", "N11", "N12", "dual121", "dual213", "dual1111",
        "bad-twist"])
def test_full_weight_subspace_changes_no_verdict(make, monkeypatch):
    # a W_k of full exact rank is W's whole frame q, taken without an SVD;
    # in Deligne's formula (F given by jump), spanning W_k's rows instead
    # gives the same report and piece dimensions
    h = make()
    top = h.weight_jumps[-1]
    assert np.array_equal(h.weight_subspace(top).basis, h._frames()[0])
    rows = _as_rows(h)
    report, dims = validate(rows).describe(), mhs_mod._pieces(rows).piece_dims()
    formula = count_calls(monkeypatch, mhs_mod, "_deligne_formula_pieces")
    monkeypatch.setattr(MixedHodgeStructure, "weight_subspace",
                        lambda self, k: _spanned_weight_subspace(self, k))
    spanned = _as_rows(make())
    assert validate(spanned).describe() == report
    assert mhs_mod._pieces(spanned).piece_dims() == dims
    assert formula == [spanned]


@pytest.mark.parametrize("dims", [[1, 2, 1], [1, 1, 1], [2, 1, 1]])
@pytest.mark.parametrize("e", [3, 6, 9, 12, 15])
def test_scaling_the_weight_rows_changes_nothing(dims, e):
    # row i of every W jump divided by 10^(e i) spans the same W_k, so the
    # structure is the same; a float rank of the raw rows rejected it from
    # 10^6 (dims [1, 2, 1]) or 10^9 on, the exact rank does not
    h = random_hodge_tate(dims, seed=3)
    scaled = MixedHodgeStructure(
        h.dimension,
        {k: [[x / Fraction(10) ** (e * i) for x in row] for i, row in enumerate(rows)]
         for k, rows in h.weight_filtration.items()},
        h.hodge_filtration)
    assert validate(scaled).ok
    for k in scaled.weight_jumps:
        assert scaled.weight_subspace(k).dim == scaled.weight_rank(k)
    b, ref = deligne.bigrading(scaled), deligne.bigrading(h)
    assert b.labels == ref.labels
    for pq, piece in ref.pieces.items():
        mine = b.pieces[pq]
        assert np.linalg.norm(mine.basis @ mine.basis.conj().T
                              - piece.basis @ piece.basis.conj().T) < 1e-12

def test_graded_dims_match_bigrading():
    h = random_hodge_tate([1, 2, 2, 1], seed=77)
    b = deligne.bigrading(h)
    for k in h.weights_present():
        total = sum(s.dim for (p, q), s in b.pieces.items() if p + q == k)
        assert total == h.graded_dimension(k)


def test_induced_hodge_numbers_match_bigrading_dims():
    from oracles import induced_hodge_numbers
    structures = [random_hodge_tate([1, 2, 1], seed=5)]
    structures.append(MixedHodgeStructure(
        2, {1: [[1, 0], [0, 1]]},
        {0: np.eye(2, dtype=complex), 1: np.array([[1.0, 0.4 + 1.2j]])}))
    for h in structures:
        b = deligne.bigrading(h)
        for k in h.weights_present():
            induced = induced_hodge_numbers(h, k)
            from_pieces = {p: s.dim for (p, q), s in b.pieces.items()
                           if p + q == k}
            assert induced == from_pieces


def test_graded_rational_basis_is_exact_complement():
    h = random_hodge_tate([2, 2], seed=2)
    rows = graded_rational_basis(h, 0)
    assert len(rows) == 2
    for row in rows:
        assert all(isinstance(x, Fraction) for x in row)


def test_polylog_structure_checks(polylog_ctx_factory):
    from hodgeheights.polylog import polylog_mhs
    h = polylog_mhs(polylog_ctx_factory(0.3, 5))
    assert validate(h).ok
    d = dual(h)
    assert d.weight_jumps == [0, 2, 4, 6, 8, 10]
    # twist by 1 shifts the weights of H(z) to -2, ..., -2N-2
    t = twist(h, 1)
    assert t.weight_jumps == [-12, -10, -8, -6, -4, -2]


def test_zero_dimensional_structure_is_tolerated():
    h = MixedHodgeStructure(0, {}, {})
    assert validate(h).ok
    data = deligne.delta_splitting(h)
    assert data.delta.shape == (0, 0)


def assert_certificate_matches_sweep(h):
    """validate's verdict and violation kinds are those of the purity sweep."""
    kinds = {v.kind for v in validate(h).violations}
    if kinds - {"purity"}:
        # the filtrations themselves are rejected before any piece is counted
        assert "purity" not in kinds
        return
    assert kinds == {v.kind for v in graded_purity_violations(h)}


# small Gaussian integers, zero-heavy so that F often meets W non-generically
GAUSSIAN = st.sampled_from([0, 0, 0, 1, -1, 2, 1j, -1j, 1 + 1j])


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 2), min_size=1, max_size=3),
       seed=st.integers(0, 2**16), real=st.booleans(), data=st.data())
def test_certificate_matches_sweep_on_hodge_tate(dims, seed, real, data):
    split, lam, h = random_hodge_tate_pair(dims, seed, real=real)
    assert_certificate_matches_sweep(h)
    # F perturbed by I + M before the twist: e^lambda preserves W, so F
    # meets W exactly as the Gaussian-integer flag of I + M does
    n = h.dimension
    m = np.array(data.draw(st.lists(GAUSSIAN, min_size=n * n, max_size=n * n)),
                 dtype=complex).reshape(n, n)
    g = nilpotent_exp(lam) @ (np.eye(n) + m)
    assert_certificate_matches_sweep(MixedHodgeStructure(
        n, h.weight_filtration,
        {p: (g @ arr.T).T for p, arr in split.hodge_filtration.items()}))


@settings(max_examples=40, deadline=None)
@given(genus=st.integers(1, 2), real=st.booleans(), data=st.data())
def test_certificate_matches_sweep_on_weight_one(genus, real, data):
    # F^1 = rows of [I | X + iY]: pure of weight 1 exactly when det Y != 0
    entries = st.lists(st.integers(-2, 2), min_size=genus ** 2, max_size=genus ** 2)
    x = np.array(data.draw(entries), dtype=float).reshape(genus, genus)
    y = 0 * x if real else np.array(data.draw(entries), dtype=float).reshape(genus, genus)
    n = 2 * genus
    h = MixedHodgeStructure(
        n, {1: np.eye(n, dtype=int).tolist()},
        {0: np.eye(n, dtype=complex), 1: np.hstack([np.eye(genus), x + 1j * y])})
    assert_certificate_matches_sweep(h)


@settings(max_examples=30, deadline=None)
@given(c=GAUSSIAN, d=GAUSSIAN, re_tau=st.integers(-2, 2), im_tau=st.integers(-1, 1))
def test_certificate_matches_sweep_on_weight_gap_fixtures(c, d, re_tau, im_tau):
    # both fixtures are MHS exactly when Im tau != 0
    tau = complex(re_tau, im_tau)
    for h in (curve_weight_gap_structure(c, d, tau), odd_weight_gap_structure(c, d, tau)):
        assert_certificate_matches_sweep(h)
        assert validate(h).ok == (im_tau != 0)
