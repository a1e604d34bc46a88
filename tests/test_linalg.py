import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeheights.linalg import (RANK_TOL, DimensionMismatch, NotNilpotent, NotUnipotent,
                                 Subspace, frobenius, nilpotent_exp, nilpotent_exp_pair,
                                 nilpotent_log, numerical_rank, tail_norms, unit_columns)

from conftest import count_calls
from oracles import (containment_residual, contains, contains_subspace, equals, from_vectors,
                     intersect, oracle_intersection_dim, oracle_member, oracle_rank,
                     oracle_sum_dim, stacked_intersection, two_pass_exp, two_pass_log)


def span(*vectors, n=None):
    return from_vectors(vectors, ambient_dim=n)


def e(i, n):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


class TestSubspaceBasics:
    def test_coordinate_intersection(self):
        s = intersect(span(e(0, 3), e(1, 3)), span(e(1, 3), e(2, 3)))
        assert s.dim == 1
        assert contains(s, e(1, 3))

    def test_self_intersection_idempotent(self):
        s = span([1, 2j, 3], [0, 1, 1j])
        assert equals(intersect(s, s), s)

    def test_sum_of_axes(self):
        s = span(e(0, 3)).sum(span(e(1, 3)))
        assert s.dim == 2
        assert contains(s, e(0, 3)) and contains(s, e(1, 3))

    def test_sum_with_zero_is_identity(self):
        s = span([1, 1j, 0], [2, 0, 5])
        assert equals(s.sum(Subspace.zero(3)), s)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(span(e(0, 3)), span(e(0, 4)))
        with pytest.raises(DimensionMismatch):
            span(e(0, 3)).sum(span(e(0, 4)))

    def test_membership_scaling(self):
        s = span([1, 2, 3])
        assert contains(s, [2, 4, 6])
        assert not contains(s, [1, 2, 4])
        assert contains(s, [0, 0, 0])


def random_rational_rows(rng, count, n, scale=6):
    return [[int(rng.integers(-scale, scale + 1)) for _ in range(n)]
            for _ in range(count)]


def test_generic_intersection_dimension_vs_oracle():
    # random 3- and 4-dim subspaces of C^6 in general position meet in a line
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(20):
        ra = random_rational_rows(rng, 3, 6)
        rb = random_rational_rows(rng, 4, 6)
        want = oracle_intersection_dim(ra, rb)
        got = intersect(span(*ra, n=6), span(*rb, n=6)).dim
        assert got == want
        hits += want == 1
    assert hits >= 18  # general position is the overwhelming case


def test_grassmann_identity_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        da = int(rng.integers(1, n + 1))
        db = int(rng.integers(1, n + 1))
        a = from_vectors(
            rng.standard_normal((da, n)) + 1j * rng.standard_normal((da, n)))
        b = from_vectors(
            rng.standard_normal((db, n)) + 1j * rng.standard_normal((db, n)))
        assert a.sum(b).dim + intersect(a, b).dim == a.dim + b.dim


def test_oracle_agreement_small_battery():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        ra = random_rational_rows(rng, int(rng.integers(0, n + 2)), n)
        rb = random_rational_rows(rng, int(rng.integers(0, n + 2)), n)
        a, b = span(*ra, n=n), span(*rb, n=n)
        assert a.dim == oracle_rank(ra)
        assert b.dim == oracle_rank(rb)
        assert a.sum(b).dim == oracle_sum_dim(ra, rb)
        assert intersect(a, b).dim == oracle_intersection_dim(ra, rb)
        if ra:
            probe = [sum(3 * x for x in col) for col in zip(*ra)]
            assert contains(a, probe) == oracle_member(probe, ra)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**16),
       shapes=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 6)), min_size=1, max_size=5))
def test_batched_spans_and_residuals_match_one_set_at_a_time(n, seed, shapes):
    # rank-deficient, zero and empty row sets, zero-padded into one SVD; and
    # each span's residual against every other, read as the tail of its
    # coordinates in a unitary frame whose leading columns span the other
    rng = np.random.default_rng(seed)
    sets = []
    for m, r in shapes:
        r = min(r, m, n)
        coeffs = rng.integers(-2, 3, size=(m, r)) + 1j * rng.integers(-2, 3, size=(m, r))
        sets.append(coeffs @ (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))))
    batch = Subspace.from_vector_sets(sets, n)
    single = [from_vectors(rows, ambient_dim=n) for rows in sets]
    for got, want in zip(batch, single):
        assert got.dim == want.dim
        assert np.linalg.norm(got.basis @ got.basis.conj().T
                              - want.basis @ want.basis.conj().T) < 1e-12
    stacked = np.hstack([x.basis for x in batch])
    for y in single:
        frame = np.linalg.qr(np.hstack([y.basis, rng.standard_normal((n, n))]))[0]
        want = [containment_residual(x, y) for x in batch]
        got = tail_norms(frame.conj().T @ stacked, [x.dim for x in batch], [y.dim] * len(batch))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.integers(-9, 9), st.integers(-9, 9))
def test_membership_closed_under_combos(v1, v2, c1, c2):
    rows = [v1, v2]
    s = span(*rows, n=4)
    combo = [c1 * a + c2 * b for a, b in zip(v1, v2)]
    assert contains(s, combo)
    assert s.dim == oracle_rank(rows)


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_tail_norms_are_projection_residuals(n, seed, data):
    # the rows of Q^* X from r on have the norm of X's residual against the
    # span of Q's first r columns, Q unitary: ragged and empty blocks, and
    # ranks 0 (the whole block) and n (nothing) in every draw
    rng = np.random.default_rng(seed)
    blocks = data.draw(st.lists(st.tuples(st.integers(0, n + 2), st.integers(0, n)),
                                min_size=1, max_size=6))
    blocks += [(data.draw(st.integers(1, 3)), 0), (data.draw(st.integers(1, 3)), n)]
    widths, ranks = zip(*blocks)
    q = random_unitary(rng, n)
    x = unit_columns(rng.standard_normal((n, sum(widths)))
                     + 1j * rng.standard_normal((n, sum(widths))))
    got = tail_norms(q.conj().T @ x, widths, ranks)
    edges = np.cumsum((0,) + widths)
    want = [np.linalg.norm(x[:, lo:hi] - q[:, :r] @ (q[:, :r].conj().T @ x[:, lo:hi]))
            for lo, hi, r in zip(edges, edges[1:], ranks)]
    assert got.shape == (len(widths),)
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def random_subspace(rng, n, d):
    if d == 0:
        return Subspace.zero(n)
    return from_vectors(rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))


#: The principal angle at which `intersect` stops counting a direction:
#: [A | -B] has singular values sqrt(1 +- cos theta), and sqrt(1 - cos theta)
#: <= RANK_TOL sqrt(1 + cos theta) holds up to theta ~ 2 RANK_TOL.
THRESHOLD_ANGLE = 2 * RANK_TOL


class TestIntersectEach:
    """`Subspace.intersect_pairs` intersects each pair of a batch, from
    principal sines in one SVD, as the nullspace of [A | -B] does
    (`oracles.stacked_intersection`)."""

    @staticmethod
    def assert_matches_oracle(pairs, tol=RANK_TOL):
        got = Subspace.intersect_pairs(pairs)
        assert len(got) == len(pairs)
        for g, (a, b) in zip(got, pairs):
            want = stacked_intersection(a, b)
            assert g.dim == want.dim
            assert equals(g, want, tol)
            assert intersect(a, b).dim == want.dim
            assert np.allclose(g.basis.conj().T @ g.basis, np.eye(g.dim), atol=1e-12)
        return got

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_subspaces(self, n, seed, data):
        # general position, including zero and full operands on either side
        rng = np.random.default_rng(seed)
        dims = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                                  min_size=1, max_size=5))
        got = self.assert_matches_oracle(
            [(random_subspace(rng, n, da), random_subspace(rng, n, db)) for da, db in dims])
        assert [g.dim for g in got] == [max(0, da + db - n) for da, db in dims]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_mixed_column_counts(self, seed, data):
        # one batch whose smaller sides have different dimensions (and
        # ambient dimensions), so the narrower blocks are padded: each pair
        # shares `shared` directions exactly and has `outside` ones
        # orthogonal to the other side
        rng = np.random.default_rng(seed)
        pairs, expected = [], []
        for _ in range(data.draw(st.integers(2, 5))):
            n = data.draw(st.integers(2, 8))
            u = random_unitary(rng, n)
            d = data.draw(st.integers(1, n - 1))
            shared = data.draw(st.integers(0, d))
            outside = data.draw(st.integers(0, n - d))
            a = Subspace(u[:, :d])
            b = from_vectors([*u[:, :shared].T, *u[:, d:d + outside].T], ambient_dim=n)
            pairs.append((a, b) if data.draw(st.booleans()) else (b, a))
            expected.append(Subspace(u[:, :shared]))
        got = self.assert_matches_oracle(pairs, tol=1e-8)
        for g, want in zip(got, expected):
            assert g.dim == want.dim
            assert equals(g, want, 1e-8)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_planted_principal_angles(self, n, seed, data):
        # each b shares `shared` directions with a exactly, has `outside`
        # ones orthogonal to a, and one at a planted angle to a: that one is
        # in the intersection at half the threshold angle and not at twice
        # it.  Both methods separate the shared directions from the planted
        # one across a gap of about 1e-9 only, so each fixes the span to
        # about 1e-16 / 1e-9 and the spans are compared at 1e-6.
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, n)
        d = data.draw(st.integers(1, n - 1))
        a = Subspace(u[:, :d])
        pairs, expected = [], []
        for _ in range(data.draw(st.integers(1, 4))):
            shared = data.draw(st.integers(0, d - 1))
            outside = data.draw(st.integers(0, n - d - 1))
            factor = data.draw(st.sampled_from([0.5, 2.0]))
            theta = factor * THRESHOLD_ANGLE
            tilted = np.cos(theta) * u[:, 0] + np.sin(theta) * u[:, d]
            b = from_vectors(
                [tilted, *u[:, 1:1 + shared].T, *u[:, d + 1:d + 1 + outside].T])
            pairs.append((a, b) if data.draw(st.booleans()) else (b, a))
            expected.append(Subspace(u[:, 0 if factor < 1 else 1:1 + shared]))
        got = self.assert_matches_oracle(pairs, tol=1e-6)
        for g, want in zip(got, expected):
            assert g.dim == want.dim
            assert equals(g, want, 1e-6)

    def test_trivial_operands_make_no_svd(self, monkeypatch):
        # a zero side or a full other gives self, a full self or a zero
        # other gives that other, as the same object
        line, zero, full = span(e(0, 3)), Subspace.zero(3), Subspace(np.eye(3, dtype=complex))
        pairs = [(line, zero), (line, full), (zero, line), (full, line), (zero, full),
                 (full, zero)]
        calls = count_calls(monkeypatch, np.linalg, "svd")
        got = Subspace.intersect_pairs(pairs)
        assert [g is stacked_intersection(a, b) for g, (a, b) in zip(got, pairs)] == [True] * 6
        assert [intersect(line, b) for b in (zero, full)] == [zero, line]
        assert calls == []

    def test_one_svd_per_batch(self, monkeypatch):
        rng = np.random.default_rng(4)
        pairs = [(random_subspace(rng, 6, da), random_subspace(rng, 6, db))
                 for da, db in ((2, 5), (3, 4), (1, 1), (4, 2), (0, 3), (6, 2))]
        calls = count_calls(monkeypatch, np.linalg, "svd")
        Subspace.intersect_pairs(pairs)
        assert len(calls) == 1
        assert Subspace.intersect_pairs([]) == []
        assert len(calls) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace.intersect_pairs([(span(e(0, 4)), span(e(1, 4))),
                                      (span(e(0, 3)), span(e(0, 4)))])


class TestNilpotentExpLog:
    def test_log_identity_is_zero(self):
        assert np.linalg.norm(nilpotent_log(np.eye(4))) == 0.0

    def test_jordan_block_series(self):
        n = 5
        nil = np.diag(np.ones(n - 1), -1)
        u = np.eye(n) + nil
        expected = sum(((-1) ** (k + 1)) * np.linalg.matrix_power(nil, k) / k
                       for k in range(1, n))
        assert np.allclose(nilpotent_log(u), expected, atol=1e-14)

    def test_exp_zero_and_one_step(self):
        assert np.allclose(nilpotent_exp(np.zeros((3, 3))), np.eye(3))
        one_step = np.array([[0, 0], [5 - 2j, 0]])
        assert np.allclose(nilpotent_exp(one_step), np.eye(2) + one_step)

    def test_round_trip_random_unipotent(self):
        # entries up to 1e3 on sizes where float64 can hold the intermediate
        # powers: the log of an n x n unipotent with entries ~s has corner
        # entries ~s^(n-1), so large scales only make sense for small n.
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            scale = 10.0 ** float(rng.uniform(0, 3)) if n <= 3 else \
                10.0 ** float(rng.uniform(0, 1))
            u = np.eye(n, dtype=complex)
            idx = np.tril_indices(n, -1)
            u[idx] = scale * (rng.standard_normal(len(idx[0]))
                              + 1j * rng.standard_normal(len(idx[0])))
            back = nilpotent_exp(nilpotent_log(u))
            assert np.linalg.norm(back - u) < 1e-10 * max(1.0, np.linalg.norm(u))

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(9)
        nil = np.tril(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
        assert np.allclose(nilpotent_log(nilpotent_exp(nil)), nil, atol=1e-10)

    def test_log_strictly_lower_for_lower_unipotent(self):
        rng = np.random.default_rng(13)
        u = np.eye(5) + np.tril(rng.standard_normal((5, 5)), -1)
        out = nilpotent_log(u)
        assert np.linalg.norm(np.triu(out)) == 0.0

    def test_not_unipotent_raises(self):
        with pytest.raises(NotUnipotent):
            nilpotent_log(2.0 * np.eye(3))


def _outcome(fn, mat):
    """fn(mat), or the type of the LinalgError it raises."""
    try:
        return fn(mat)
    except (NotNilpotent, NotUnipotent) as exc:
        return type(exc)


def assert_same_outcome(got, want):
    # the single pass does the two-pass series' arithmetic in its order, so
    # the values are equal, not only close
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type)
        assert np.array_equal(got, want)


class TestSinglePassSeries:
    """nilpotent_exp and nilpotent_log decide nilpotency on the products that
    form their series; they agree with the two-pass versions (order first,
    then the series) in value and in what they reject."""

    def test_matches_two_pass_series(self):
        rng = np.random.default_rng(21)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            nil = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1)
            nil *= 10.0 ** float(rng.uniform(-3, 0.5))
            if trial % 2:
                # nilpotent, but not triangular in this basis
                g = np.eye(n) + 0.3 * rng.standard_normal((n, n))
                nil = g @ nil @ np.linalg.inv(g)
            assert_same_outcome(nilpotent_exp(nil), two_pass_exp(nil))
            assert_same_outcome(nilpotent_log(np.eye(n) + nil), two_pass_log(np.eye(n) + nil))

    def test_rejects_the_same_inputs(self):
        # a nilpotent matrix plus a perturbation of every size from far below
        # the rank tolerance to order one: both sides accept the small ones
        # and reject the large ones alike
        rng = np.random.default_rng(22)
        rejected = 0
        for trial in range(300):
            n = int(rng.integers(1, 7))
            nil = np.tril(rng.standard_normal((n, n)), -1)
            mat = nil + 10.0 ** float(rng.uniform(-16, 0)) * rng.standard_normal((n, n))
            got, want = _outcome(nilpotent_exp, mat), _outcome(two_pass_exp, mat)
            assert_same_outcome(got, want)
            assert_same_outcome(_outcome(nilpotent_log, np.eye(n) + mat),
                                _outcome(two_pass_log, np.eye(n) + mat))
            rejected += want is NotNilpotent
        assert 50 < rejected < 250


class TestExpPair:
    """nilpotent_exp_pair(mat) is (nilpotent_exp(mat), nilpotent_exp(-mat))
    from one series: the same values, bit for bit, and the same rejections."""

    def test_matches_two_exponentials(self):
        rng = np.random.default_rng(31)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            nil = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1)
            nil *= 10.0 ** float(rng.uniform(-3, 0.5))
            if trial % 2:
                g = np.eye(n) + 0.3 * rng.standard_normal((n, n))
                nil = g @ nil @ np.linalg.inv(g)
            got = nilpotent_exp_pair(nil)
            assert np.array_equal(got[0], nilpotent_exp(nil))
            assert np.array_equal(got[1], nilpotent_exp(-nil))
        assert [m.shape for m in nilpotent_exp_pair(np.zeros((0, 0)))] == [(0, 0)] * 2

    def test_rejects_the_same_inputs(self):
        rng = np.random.default_rng(32)
        rejected = 0
        for trial in range(300):
            n = int(rng.integers(1, 7))
            nil = np.tril(rng.standard_normal((n, n)), -1)
            mat = nil + 10.0 ** float(rng.uniform(-16, 0)) * rng.standard_normal((n, n))
            want = _outcome(nilpotent_exp, mat)
            got = _outcome(nilpotent_exp_pair, mat)
            if isinstance(want, type):
                assert got is want
                assert _outcome(nilpotent_exp, -mat) is want
                rejected += 1
            else:
                assert np.array_equal(got[0], want)
                assert np.array_equal(got[1], nilpotent_exp(-mat))
        assert 50 < rejected < 250


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(0, 7), st.integers(0, 2**32 - 1), st.booleans())
def test_trivial_operands_return_the_other_side(n, d, seed, identity):
    # A cap C^n = C^n cap A = A + 0 = 0 + A = A, including A zero or full,
    # each with an orthonormal basis; C^n is held by the identity or by a
    # random unitary basis
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, n, min(d, n))
    full = Subspace(np.eye(n, dtype=complex)) if identity else random_subspace(rng, n, n)
    zero = Subspace.zero(n)
    for got in (intersect(a, full), intersect(full, a), a.sum(zero), zero.sum(a)):
        assert got.ambient_dim == n
        assert got.dim == a.dim
        assert contains_subspace(got, a) and contains_subspace(a, got)
        assert np.allclose(got.basis.conj().T @ got.basis, np.eye(got.dim), atol=1e-12)


def test_trivial_operands_skip_the_svd(monkeypatch):
    rng = np.random.default_rng(3)
    a = random_subspace(rng, 5, 2)
    b, c = random_subspace(rng, 5, 4), random_subspace(rng, 5, 1)
    full, zero = Subspace(np.eye(5, dtype=complex)), Subspace.zero(5)
    calls = count_calls(monkeypatch, np.linalg, "svd")
    for left, right in ((a, full), (full, a), (full, full)):
        intersect(left, right)
    for left, right in ((a, zero), (zero, a), (zero, zero), (full, zero)):
        left.sum(right)
    assert calls == []
    intersect(a, b)
    a.sum(c)
    assert len(calls) == 2      # principal sines for the intersection, span for the sum



def test_sum_of_several_sides_matches_the_oracle():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        rows = [random_rational_rows(rng, int(rng.integers(0, n + 1)), n)
                for _ in range(int(rng.integers(2, 5)))]
        sides = [span(*r, n=n) for r in rows]
        assert sides[0].sum(*sides[1:]).dim == oracle_sum_dim(*rows)


def test_sum_of_several_sides_drops_zero_ones(monkeypatch):
    rng = np.random.default_rng(5)
    a, b = random_subspace(rng, 5, 2), random_subspace(rng, 5, 1)
    zero = Subspace.zero(5)
    calls = count_calls(monkeypatch, np.linalg, "svd")
    assert zero.sum(a, zero) is a
    assert a.sum(zero, zero) is a
    assert zero.sum(zero, zero).dim == 0
    assert calls == []
    s = zero.sum(a, zero, b)
    assert len(calls) == 1      # one span of the two nonzero sides
    assert s.dim == 3 and contains_subspace(s, a) and contains_subspace(s, b)


def test_sum_of_several_sides_checks_every_ambient_dimension():
    with pytest.raises(DimensionMismatch):
        span(e(0, 3)).sum(span(e(1, 3)), Subspace.zero(4))
    with pytest.raises(DimensionMismatch):
        Subspace.zero(3).sum(Subspace.zero(3), span(e(0, 4)))

class TestNumericalRank:
    def test_threshold_is_relative_to_the_largest_value(self):
        cut = RANK_TOL * 4.0
        above, below = np.nextafter(cut, np.inf), np.nextafter(cut, 0.0)
        assert numerical_rank(np.array([4.0, 1.0, above])) == 3
        assert numerical_rank(np.array([4.0, 1.0, below])) == 2
        assert numerical_rank(np.array([4.0, cut])) == 1

    def test_empty_and_all_zero_spectra_have_rank_zero(self):
        assert numerical_rank(np.array([])) == 0
        assert numerical_rank(np.zeros(3)) == 0


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       exps=st.lists(st.integers(-140, 150), min_size=4, max_size=4))
def test_unit_columns_divide_by_the_norm(seed, n, exps):
    # wherever every norm is at least 1e-150, a column (of a matrix or of
    # each matrix of a stack) is x / norm(x) bit for bit
    x = _complex_normal(np.random.default_rng(seed), (2, n, 4)) * 10.0 ** np.array(exps)
    norms = np.linalg.norm(x, axis=-2, keepdims=True)
    assert norms.min() >= 1e-150
    assert np.array_equal(unit_columns(x), x / norms)
    assert np.array_equal(unit_columns(x[1]), x[1] / norms[1])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), exp=st.integers(160, 320))
def test_unit_columns_of_tiny_columns_are_unit(seed, n, exp):
    # a column scaled down to 1e-160 .. 1e-320 (subnormal entries from
    # about 1e-308) comes out of norm 1 to 1e-15, in its own direction; a
    # column of ordinary size beside it is divided as usual, and a zero
    # column stays zero
    x = _complex_normal(np.random.default_rng(seed), (2, n, 3))
    x[:, :, 0] *= 10.0 ** -exp
    x[:, :, 2] = 0
    u = unit_columns(x)
    exact = np.ldexp(x[:, :, 0].real, 1000) + 1j * np.ldexp(x[:, :, 0].imag, 1000)
    np.testing.assert_allclose(u[:, :, 0], exact / np.linalg.norm(exact, axis=1, keepdims=True),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(u[:, :, 0], axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(u[:, :, 1], x[:, :, 1] / np.linalg.norm(x[:, :, 1], axis=1,
                                                                   keepdims=True))
    assert not u[:, :, 2].any()
    assert np.array_equal(unit_columns(x[0]), u[0])


def _array_of(kind, seed, shape, exp):
    rng = np.random.default_rng(seed)
    if kind == "int":
        return rng.integers(-1000, 1000, size=shape)
    x = rng.standard_normal(shape) * 10.0 ** exp
    return x if kind == "real" else x + 1j * rng.standard_normal(shape) * 10.0 ** exp


_VIEWS = {"as-is": lambda x: x, "transposed": lambda x: x.T,
          "fortran": np.asfortranarray, "strided-imag": lambda x: (1j * x)[::2, ::-1].imag,
          "reversed-rows": lambda x: x[::-1]}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["int", "real", "complex"]), seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(0, 5), st.integers(0, 5)), exp=st.integers(-200, 200),
       view=st.sampled_from(sorted(_VIEWS)))
def test_frobenius_is_numpys_norm_bit_for_bit(kind, seed, shape, exp, view):
    # the same value and type as np.linalg.norm of the whole array: empty,
    # int, real and complex arrays, transposed, Fortran-order and strided
    # views, entries from 1e-200 (squares that underflow) to 1e200
    # (squares that overflow to inf)
    x = _VIEWS[view](_array_of(kind, seed, shape, exp))
    with np.errstate(over="ignore"):
        want, got = np.linalg.norm(x), frobenius(x)
    assert type(got) is type(want) and got.tobytes() == want.tobytes()


def test_frobenius_of_vectors_and_scalars():
    for x in (np.zeros(0), np.array(3 - 4j), np.array([1e200, 1e200]), [3, 4], np.eye(3)[1],
              np.array([1e-200 + 1e-200j]), np.ones((2, 3, 4), dtype=np.complex64)):
        with np.errstate(over="ignore"):
            want, got = np.linalg.norm(x), frobenius(x)
        assert type(got) is type(want) and got.tobytes() == want.tobytes()
    assert frobenius([3, 4]) == 5.0
    with np.errstate(over="ignore"):
        assert np.isinf(frobenius(np.array([1e200, 1e200])))

