import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeheights import deligne, linalg, mhs as mhs_mod
from hodgeheights.deligne import (NumericalDegeneracy, ResidualTooLarge, bigrading,
                                  delta_splitting, grading_operator,
                                  hodge_components)
from hodgeheights.linalg import Subspace, nilpotent_exp
from hodgeheights.mhs import (InvalidMHS, MixedHodgeStructure, conjugate, dual,
                              random_hodge_tate, random_hodge_tate_pair,
                              require_valid, tate, twist, validate)

from conftest import count_calls, random_framing
from oracles import (containment_residual, contains, delta_fixed_point, dense_solve_delta, equals,
                     from_vectors, projectors)


def weight_one_curve_like(tau=0.3 + 1.1j):
    """Pure weight-1 structure: W jumps at 1, F^1 a line with F^1 + conj(F^1) = C^2."""
    return MixedHodgeStructure(
        2,
        {1: [[1, 0], [0, 1]]},
        {0: np.eye(2, dtype=complex), 1: np.array([[1.0, tau]])},
    )


class TestBigrading:
    def test_pure_structure_recovers_hodge_decomposition(self):
        h = weight_one_curve_like()
        b = bigrading(h)
        assert set(b.pieces) == {(1, 0), (0, 1)}
        f1 = h.hodge_subspace(1)
        assert equals(b.pieces[(1, 0)], f1)
        assert equals(b.pieces[(0, 1)], f1.conjugate())

    def test_split_hodge_tate_pieces_are_summands(self):
        h = random_hodge_tate([1, 2, 1], seed=1, scale=0.0)
        b = bigrading(h)
        assert b.piece_dims() == {(0, 0): 1, (-1, -1): 2, (-2, -2): 1}
        assert contains(b.pieces[(-1, -1)], [0, 1, 0, 0])
        assert contains(b.pieces[(-1, -1)], [0, 0, 1, 0])

    def test_polylog_pieces_are_pulled_de_rham_columns(self, polylog_ctx_factory):
        from hodgeheights.polylog import build_matrices, polylog_mhs
        ctx = polylog_ctx_factory(0.3 + 0.2j, 5)
        h = polylog_mhs(ctx)
        b = bigrading(h)
        a_inv = np.linalg.inv(build_matrices(ctx).A)
        for k in range(6):
            piece = b.pieces[(-k, -k)]
            assert piece.dim == 1
            assert contains(piece, a_inv[:, k])

    def test_axioms_on_random_suite(self):
        rng = np.random.default_rng(0)
        for seed in range(30):
            dims = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(2, 4)))]
            h = random_hodge_tate(dims, seed=seed)
            check_bigrading_axioms(h)

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_svd_count_grows_quadratically(self, n, monkeypatch):
        # Validation computes the pieces once and the bigrading assembles
        # the same pieces.  H(z) is Hodge--Tate and hands its pieces over:
        # column k of its flag, A(z)^{-1}, spans I^{-k,-k}.  One
        # values-only SVD finds the flag's unit-norm basis of full rank;
        # its columns are the pieces' bases, so the assembled basis is that
        # basis and the direct-sum check reads the same singular values.
        # Every F^p and W_k are slices of QRs.  So validating and bigrading
        # H(z) costs 1 SVD at every N (2 with a second SVD of the assembled
        # basis, 3 with the candidates F^{k/2} cap W_k as one batched
        # intersection, 11/15/23 at N = 4/6/10 with an SVD per jump of W
        # and of F, 28/47/97 with Deligne's formula).  A second
        # singular-value pass, an SVD per piece or per jump, or an SVD for
        # a trivial operand breaks the bound.
        from hodgeheights.mhs import require_valid
        from hodgeheights.polylog import PolylogContext, polylog_mhs
        h = polylog_mhs(PolylogContext(0.3 + 0.2j, n))
        calls = count_calls(monkeypatch, np.linalg, "svd")
        require_valid(h)
        deligne.bigrading(h)
        assert len(calls) <= 1

    @pytest.mark.parametrize("make, bound", [(lambda: curve_weight_gap_structure(), 8),
                                             (lambda: odd_weight_gap_structure(), 6)],
                             ids=["curve", "odd"])
    def test_formula_svd_count(self, make, bound, monkeypatch):
        # Neither structure is Hodge--Tate, so Deligne's formula gives the
        # pieces: every F^p is one batched SVD, F's frame one more (of known
        # ranks, `Subspace.nested_frame`) and W_k are slices of one QR;
        # F^r cap W_s for every pair of jumps is one batched SVD, each
        # right-hand side with two or more nonzero terms that no other term
        # contains one more, and all the pieces one batch; the direct-sum
        # check is one SVD of the assembled basis, which the bigrading
        # reuses.  F is given by jump, so neither has Hodge--Tate
        # candidates.  So validating and bigrading cost 8 and 6 SVDs and
        # one QR (7 and 5 while F's frame was built on first derivation);
        # spanning the contained terms too made one more for the curve,
        # its candidates F^{k/2} cap W_k another, with an SVD per jump of F
        # and of W they were 13 and 8, and the formula's recursion made 16
        # and 10.
        h = make()
        calls = count_calls(monkeypatch, np.linalg, "svd")
        qrs = count_calls(monkeypatch, np.linalg, "qr")
        require_valid(h)
        deligne.bigrading(h)
        assert len(calls) <= bound
        assert len(qrs) <= 1

    @pytest.mark.parametrize("make, total", [(lambda: curve_weight_gap_structure(), 9),
                                             (lambda: odd_weight_gap_structure(), 7)],
                             ids=["curve", "odd"])
    def test_formula_structure_and_dual_svd_total(self, make, total, monkeypatch):
        # F's nested frame is one SVD wherever it is built, in validation or
        # on first derivation: validating, bigrading and splitting the dual
        # of either formula fixture costs 9 and 7 SVDs and one QR in all
        h = make()
        calls = count_calls(monkeypatch, np.linalg, "svd")
        qrs = count_calls(monkeypatch, np.linalg, "qr")
        require_valid(h)
        deligne.bigrading(h)
        delta_splitting(dual(h))
        assert len(calls) == total
        assert len(qrs) <= 1

    def test_invalid_input_raises(self):
        broken = MixedHodgeStructure(2, {0: [[1, 0]]},
                                     {0: np.eye(2, dtype=complex)})
        with pytest.raises(InvalidMHS):
            bigrading(broken)

    def test_twist_relabels_pieces(self):
        h = random_hodge_tate([1, 1], seed=5)
        b0 = bigrading(h)
        b1 = bigrading(twist(h, 2))
        for (p, q), piece in b0.pieces.items():
            assert equals(piece, b1.pieces[(p - 2, q - 2)])

    def test_conjugate_pieces_are_conjugated(self):
        # I^{p,q}(conj H) = conj I^{p,q}(H) with the same label; relabelling
        # it (q, p) agrees with that on Hodge--Tate structures only
        for h in (random_hodge_tate([1, 1, 1], seed=9), curve_weight_gap_structure()):
            bh = bigrading(h)
            bc = bigrading(conjugate(h))
            assert bc.piece_dims() == bh.piece_dims()
            for pq, piece in bh.pieces.items():
                assert equals(bc.pieces[pq], piece.conjugate())


def check_bigrading_axioms(h, tol=1e-8):
    b = bigrading(h)
    n = h.dimension
    # direct sum
    assert b.basis.shape == (n, n)
    assert np.linalg.svd(b.basis, compute_uv=False)[-1] > tol
    # axiom 1: F^p is the span of pieces with first index >= p
    for p in h.hodge_jumps:
        blocks = [s.basis for (pp, q), s in b.pieces.items() if pp >= p]
        got = (from_vectors(np.hstack(blocks).T, ambient_dim=n)
               if blocks else Subspace.zero(n))
        f = h.hodge_subspace(p)
        assert got.dim == f.dim
        assert containment_residual(got, f) < tol
        assert containment_residual(f, got) < tol
    # axiom 2: W_k is the span of pieces with total weight <= k
    for k in h.weight_jumps:
        blocks = [s.basis for (p, q), s in b.pieces.items() if p + q <= k]
        got = (from_vectors(np.hstack(blocks).T, ambient_dim=n)
               if blocks else Subspace.zero(n))
        w = h.weight_subspace(k)
        assert got.dim == w.dim
        assert containment_residual(got, w) < tol
    # axiom 3: conj(I^{p,q}) sits inside I^{q,p} + sum_{p'<p, q'<q} I^{q',p'}
    for (p, q), piece in b.pieces.items():
        allowed = [s.basis for (pp, qq), s in b.pieces.items()
                   if (pp, qq) == (q, p) or (pp < q and qq < p)]
        target = (from_vectors(np.hstack(allowed).T, ambient_dim=n)
                  if allowed else Subspace.zero(n))
        assert containment_residual(piece.conjugate(), target) < tol


class TestGradingOperator:
    def test_pure_weight_scales_identity(self):
        h = weight_one_curve_like()
        assert np.allclose(grading_operator(bigrading(h)), np.eye(2), atol=1e-12)

    def test_split_hodge_tate_diag(self):
        h = random_hodge_tate([1, 1, 1], seed=0, scale=0.0)
        y = grading_operator(bigrading(h))
        assert np.allclose(y, np.diag([0, -2, -4]), atol=1e-12)

    def test_polylog_eigenvectors(self, polylog_ctx_factory):
        from hodgeheights.polylog import build_matrices, polylog_mhs
        ctx = polylog_ctx_factory(0.4 + 0.1j, 4)
        y = grading_operator(bigrading(polylog_mhs(ctx)))
        a_inv = np.linalg.inv(build_matrices(ctx).A)
        for k in range(5):
            v = a_inv[:, k]
            assert np.linalg.norm(y @ v + 2 * k * v) < 1e-9


class TestHodgeComponents:
    def test_grading_operator_is_type_zero(self):
        h = random_hodge_tate([1, 2, 1], seed=3)
        b = bigrading(h)
        comps = hodge_components(grading_operator(b), b)
        assert set(k for k, m in comps.items() if np.linalg.norm(m) > 1e-10) == {(0, 0)}

    def test_projector_is_type_zero(self):
        h = random_hodge_tate([1, 1], seed=6)
        b = bigrading(h)
        proj = projectors(b).by_type[(0, 0)]
        comps = hodge_components(proj, b)
        assert set(k for k, m in comps.items() if np.linalg.norm(m) > 1e-10) == {(0, 0)}

    def test_components_sum_to_operator(self):
        rng = np.random.default_rng(2)
        h = random_hodge_tate([1, 2, 1], seed=11)
        b = bigrading(h)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        comps = hodge_components(x, b)
        assert np.allclose(sum(comps.values()), x, atol=1e-10)

    def test_lowering_operator_on_polylog_is_minus_one_minus_one(
            self, polylog_ctx_factory):
        from hodgeheights.polylog import build_matrices, polylog_mhs
        ctx = polylog_ctx_factory(0.25 + 0.3j, 4)
        h = polylog_mhs(ctx)
        b = bigrading(h)
        mats = build_matrices(ctx)
        # weight-lowering map v_k -> v_{k+1} written in Betti coordinates
        shift = np.diag(np.ones(ctx.N), -1).astype(complex)
        x = np.linalg.inv(mats.A) @ shift @ mats.A
        comps = hodge_components(x, b)
        live = {k for k, m in comps.items() if np.linalg.norm(m) > 1e-9}
        assert live == {(-1, -1)}


class TestProjectors:
    def test_rank_one_idempotents(self):
        h = random_hodge_tate([1, 1, 1], seed=14)
        pr = projectors(bigrading(h))
        total = np.zeros((3, 3), dtype=complex)
        for pq, mat in pr.by_type.items():
            assert np.linalg.matrix_rank(mat) == 1
            assert np.allclose(mat @ mat, mat, atol=1e-10)
            total += mat
        assert np.allclose(total, np.eye(3), atol=1e-10)

    def test_weight_projector_factorizes(self):
        h = random_hodge_tate([2, 1, 1], seed=4)
        pr = projectors(bigrading(h))
        for k, mat in pr.by_weight.items():
            assert np.allclose(mat @ mat, mat, atol=1e-10)
            assert np.allclose(pr.from_graded[k] @ pr.to_graded[k], mat, atol=1e-10)

    def test_transport_under_extra_lowering(self):
        # hat(Y) = e^lambda Y e^-lambda and the matching projector transport
        split, lam, twisted = random_hodge_tate_pair([1, 1, 1], seed=19)
        bs, bt = bigrading(split), bigrading(twisted)
        g = nilpotent_exp(lam)
        ginv = nilpotent_exp(-lam)
        ys, yt = grading_operator(bs), grading_operator(bt)
        assert np.allclose(yt, g @ ys @ ginv, atol=1e-9)
        ps, pt = projectors(bs), projectors(bt)
        for k in ps.by_weight:
            assert np.allclose(pt.by_weight[k], g @ ps.by_weight[k] @ ginv,
                               atol=1e-9)
            assert np.allclose(pt.to_graded[k], ps.to_graded[k] @ ginv, atol=1e-9)
            assert np.allclose(pt.from_graded[k], g @ ps.from_graded[k], atol=1e-9)


class TestDeltaSplitting:
    def test_r_split_gives_zero(self):
        _, _, h = random_hodge_tate_pair([1, 2, 1], seed=8, real=True)
        assert np.linalg.norm(delta_splitting(h).delta) < 1e-12

    def test_random_suite_residuals(self):
        for seed in range(25):
            h = random_hodge_tate([1, 1, 1, 1], seed=seed)
            data = delta_splitting(h)
            assert data.defining_residual < 1e-9
            assert data.reality_residual < 1e-9
            assert data.lambda_residual < 1e-9
        # larger lowering: the closed form keeps the residuals far below tolerance
        for dims in ([1, 2, 1], [2, 2, 2], [1, 1, 1, 1], [3, 1, 3], [2, 1, 2, 1, 2],
                     [1, 3, 3, 1]):
            for seed in range(10):
                data = delta_splitting(random_hodge_tate(dims, seed=seed, scale=2.0))
                assert data.defining_residual <= 1e-12, (dims, seed)
                assert data.reality_residual <= 1e-11, (dims, seed)

    def test_two_solvers_agree(self):
        for seed in (0, 5, 12):
            h = random_hodge_tate([1, 2, 1, 1], seed=seed, scale=1.1)
            data = delta_splitting(h)
            y = grading_operator(data.bigrading)
            alt = delta_fixed_point(y, data.bigrading)
            assert np.linalg.norm(data.delta - alt) < 1e-9

    def test_solver_matches_dense_loop_over_every_drop(self, polylog_ctx_factory):
        # the closed form against the degree-by-degree elimination, run over
        # every drop m up to the weight span
        from hodgeheights.polylog import polylog_mhs
        cases = [random_hodge_tate([1 + seed % 2, 1, 2 - seed % 2, 1][: 2 + seed % 3],
                                   seed=seed) for seed in range(20)]
        cases += [curve_weight_gap_structure(), odd_weight_gap_structure(),
                  polylog_mhs(polylog_ctx_factory(0.3 + 0.2j, 6))]
        for h in cases:
            b = bigrading(h)
            y = grading_operator(b)
            assert np.linalg.norm(deligne._solve_delta(b)
                                  - dense_solve_delta(y, b)) <= 1e-14

    def test_solver_forms_no_exponential(self, polylog_ctx_factory, monkeypatch):
        # one linear solve and a short odd series: no exponential, no drop loop
        from hodgeheights.polylog import polylog_mhs
        cases = [polylog_mhs(polylog_ctx_factory(0.3 + 0.2j, 6)), curve_weight_gap_structure()]
        bigradings = [bigrading(h) for h in cases]
        want = [dense_solve_delta(grading_operator(b), b) for b in bigradings]

        def forbidden(*args):
            raise AssertionError("_solve_delta formed an exponential")

        for name in ("nilpotent_exp", "nilpotent_exp_pair", "_nilpotent_terms"):
            monkeypatch.setattr(deligne, name, forbidden, raising=False)
            monkeypatch.setattr(linalg, name, forbidden)
        for b, dense in zip(bigradings, want):
            assert np.linalg.norm(deligne._solve_delta(b) - dense) <= 1e-14

    def test_polylog_closed_form(self, polylog_ctx_factory):
        from hodgeheights.polylog import delta_closed_form, polylog_mhs
        ctx = polylog_ctx_factory(0.35 + 0.4j, 5)
        h = polylog_mhs(ctx)
        assert np.linalg.norm(delta_splitting(h).delta
                              - delta_closed_form(ctx)) < 1e-9

    def test_conjugate_flips_delta(self):
        h = random_hodge_tate([1, 1, 1], seed=31)
        d = delta_splitting(h).delta
        dc = delta_splitting(conjugate(h)).delta
        assert np.linalg.norm(dc + d) < 1e-9

    def test_dual_transposes_delta(self):
        h = random_hodge_tate([1, 2, 1], seed=17)
        d = delta_splitting(h).delta
        dd = delta_splitting(dual(h)).delta
        assert np.linalg.norm(dd + d.T) < 1e-9

    def test_delta_components_strictly_lower_both_indices(self):
        h = random_hodge_tate([1, 1, 1, 1], seed=3)
        data = delta_splitting(h)
        assert data.delta_components
        for (a, b) in data.delta_components:
            assert a < 0 and b < 0

    @pytest.mark.parametrize("first", ["lambda_residual", "delta_components"])
    def test_diagnostics_are_computed_once_when_read(self, first, monkeypatch):
        # the splitting's gates are its defining and reality residuals; the
        # Hodge components of delta and the lambda residual are diagnostics,
        # computed by one hodge_components on first read, bit for bit as
        # the split of all of delta's components below
        from hodgeheights.polylog import PolylogContext, polylog_mhs
        h = random_hodge_tate([1, 2, 1, 1], seed=12)
        structures = [polylog_mhs(PolylogContext(0.6 - 0.5j, 10)), h, dual(h), twist(h, 2),
                      conjugate(h), conjugate(dual(h)), curve_weight_gap_structure()]
        real = deligne.hodge_components
        calls = count_calls(monkeypatch, deligne, "hodge_components")
        for x in structures:
            data = delta_splitting(x)
            assert calls == []
            getattr(data, first)
            assert len(calls) == 1
            lowering, rest = {}, 0.0
            for (a, b), mat in real(data.delta, data.bigrading).items():
                if a < 0 and b < 0:
                    lowering[(a, b)] = mat
                else:
                    rest += float(linalg.frobenius(mat))
            assert data.lambda_residual == rest
            assert data.delta_components.keys() == lowering.keys()
            assert all(np.array_equal(data.delta_components[k], m) for k, m in lowering.items())
            assert len(calls) == 1
            calls.clear()

    def test_graded_delta_powers_are_real(self):
        # pi_{k'} o delta^r o iota_k in rational graded frames has no
        # imaginary part, for k' < k and r > 0
        for seed in (2, 9):
            h = random_hodge_tate([1, 2, 1, 1], seed=seed)
            data = delta_splitting(h)
            pr = projectors(data.bigrading)
            weights = sorted(pr.by_weight)
            for r in (1, 2, 3):
                dr = np.linalg.matrix_power(data.delta, r)
                for k in weights:
                    for kp in weights:
                        if kp >= k:
                            continue
                        mat = pr.to_graded[kp] @ dr @ pr.from_graded[k]
                        assert np.linalg.norm(mat.imag) < 1e-9

    def test_tate_has_zero_delta(self):
        assert np.linalg.norm(delta_splitting(tate(1)).delta) == 0.0


def curve_weight_gap_structure(c=0.7 + 0.4j, d=-0.2 + 0.9j, tau=0.3 + 1.0j):
    """Weights 0, -2, -4 with Gr^W_{-2} of types (0,-2) + (-2,0).

    Not Hodge--Tate: the bigrading has off-diagonal pieces, so the
    conjugation correction term in the piece formula genuinely matters.
    F^0 is spanned by a lift of the weight-0 class (shifted into W_{-4}
    by c) and a type-(0,-2) line (shifted by d).
    """
    return MixedHodgeStructure(
        4,
        {-4: [[0, 0, 0, 1]],
         -2: [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         0: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        {-2: np.eye(4, dtype=complex),
         -1: np.array([[1, 0, 0, c], [0, 1, tau, d]], dtype=complex),
         0: np.array([[1, 0, 0, c], [0, 1, tau, d]], dtype=complex)},
    )


def odd_weight_gap_structure(c1=0.8 - 0.3j, c2=0.1 + 0.6j, tau=1.0j):
    """Weights 0 and -3, Gr^W_{-3} of types (-1,-2) + (-2,-1).

    delta lives in the genuinely off-diagonal components (-1,-2) and
    (-2,-1); reality pairs them under conjugation.
    """
    return MixedHodgeStructure(
        3,
        {-3: [[0, 1, 0], [0, 0, 1]],
         0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        {-2: np.eye(3, dtype=complex),
         -1: np.array([[1, c1, c2], [0, 1, tau]], dtype=complex),
         0: np.array([[1, c1, c2]], dtype=complex)},
    )


def _fresh(h):
    """h's data in a new structure, with nothing memoized."""
    return MixedHodgeStructure(h.dimension, h.weight_filtration, h.hodge_filtration)


def _fresh_flag(h, flag=None):
    """h's W frame and flag (or the given one) in a new structure, with
    nothing memoized."""
    return MixedHodgeStructure(h.dimension, h.weight_frame, flag or h._flag)


def _hodge_tate_cases():
    rng = np.random.default_rng(16)
    for seed in range(40):
        dims = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(2, 5)))]
        yield random_hodge_tate(dims, seed=seed, scale=float(rng.uniform(0.2, 3.0)))
    from hodgeheights.polylog import PolylogContext, polylog_mhs
    # N = 12 validates at every z here: F's generators are scaled to unit
    # norm before their rank is decided
    for n in range(2, 13):
        for z in (0.3 + 0.2j, -0.6 + 0.5j, 1.5 - 2.0j, -2.6 - 3.0j):
            yield polylog_mhs(PolylogContext(z, n))


def _traced_peak(call) -> int:
    """The most memory, in bytes, that call() held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_structure_takes_quadratic_memory():
    # every containment of validation is a tail norm of one product with
    # F's square frame, and the exponential and log series are summed as
    # their terms come, so validating and splitting H(z) at N = 128 (n =
    # 129) hold a few n x n matrices at once: 2.8 and 4.4 MB traced, where
    # zero-padded stacks of n x n residuals and every series term kept
    # took 140 and 38 MB
    from hodgeheights.polylog import PolylogContext, polylog_mhs
    h = polylog_mhs(PolylogContext(0.3 + 0.2j, 128))
    assert _traced_peak(lambda: require_valid(h)) < 8e6
    assert _traced_peak(lambda: delta_splitting(h)) < 8e6


class TestHodgeTatePath:
    def test_matches_deligne_formula(self):
        # validate certifies the candidates I^{p,p}, the column blocks of
        # the flag's memoized unit-norm basis, on every valid Hodge--Tate
        # structure, with the report the formula gives, and they are the
        # formula's pieces
        taken = rejected = 0
        for h in _hodge_tate_cases():
            formula = _fresh(h)
            assert mhs_mod._hodge_tate_candidates(formula) is None
            mine = _fresh_flag(h)
            report = validate(mine)
            assert report == validate(formula)
            if not report.ok:
                rejected += 1
                continue
            taken += 1
            # a one-column block is the piece's basis as it is; a wider one
            # spans the piece, which has an orthonormal basis of its width
            b, (cols, _), flag = mhs_mod._pieces(mine), mine._memo["unit"], mine._flag
            blocks = {(p, p): cols[:, lo:hi] for p, hi, lo
                      in zip(flag.jumps, flag.ranks, (*flag.ranks[1:], 0))}
            assert b.piece_dims() == {pq: x.shape[1] for pq, x in blocks.items()}
            for pq, block in blocks.items():
                piece = b.pieces[pq].basis
                if block.shape[1] == 1:
                    assert np.array_equal(piece, block)
                    continue
                assert np.linalg.norm(piece.conj().T @ piece - np.eye(piece.shape[1])) < 1e-14
                assert np.linalg.norm(block - piece @ (piece.conj().T @ block)) < 1e-14
            f = mhs_mod._pieces(formula)
            assert b.labels == f.labels
            for pq, piece in f.pieces.items():
                cut = b.pieces[pq]
                assert np.linalg.norm(cut.basis @ cut.basis.conj().T
                                      - piece.basis @ piece.basis.conj().T) < 1e-12
        assert (taken, rejected) == (40 + 44, 0)

    @pytest.mark.parametrize("n", [4, 10, 20])
    def test_bigrading_spectrum_is_the_flags(self, n, monkeypatch):
        # every block of H(z)'s flag is one column, so the bigrading basis
        # is the flag's unit-norm basis, in flag order and bit for bit,
        # and its singular values are the ones `_hodge` found: reading
        # them makes no SVD, and a second SVD of the same array would
        # return the same values
        from hodgeheights.polylog import PolylogContext, polylog_mhs
        h = polylog_mhs(PolylogContext(0.3 + 0.2j, n))
        calls = count_calls(monkeypatch, np.linalg, "svd")
        b = bigrading(h)
        cols, s = h._memo["unit"]
        assert len(calls) == 1 and calls[0] is cols
        assert np.array_equal(b.basis, cols)
        assert b.singular_values is s
        assert np.array_equal(np.linalg.svd(b.basis, compute_uv=False), s)

    def test_other_structures_take_the_formula(self):
        # even weights, but a type (0,-2) + (-2,0) on Gr^W_-2; odd weights;
        # and the rank-2 pure structure F^1 of which no weight-0 MHS allows.
        # Given by jump they have no candidates; as the flag of their own
        # frame, the blocks fail the criteria
        from hodgeheights.mhs import HodgeFlag, _purity_violations
        purity = MixedHodgeStructure(2, {0: [[1, 0], [0, 1]]},
                                     {0: np.eye(2, dtype=complex),
                                      1: np.array([[1.0, 1j]])})
        for h in (curve_weight_gap_structure(), odd_weight_gap_structure(), purity):
            assert mhs_mod._hodge_tate_candidates(_fresh(h)) is None
            validate(h)
            b = mhs_mod._pieces(h)
            formula = mhs_mod._deligne_formula_pieces(_fresh(h))
            assert b.labels == formula.labels
            assert np.array_equal(b.basis, formula.basis)
            if h is purity:
                continue
            q, jumps = h._frames()[1], h.hodge_jumps
            flagged = _fresh_flag(h, HodgeFlag(q, jumps, [h.hodge_subspace(p).dim for p in jumps]))
            assert _purity_violations(flagged, mhs_mod._hodge_tate_candidates(flagged))
            assert validate(flagged).ok and mhs_mod._pieces(flagged).labels == formula.labels


class TestMixedTypeStructures:
    def test_weight_gap_structure_is_valid_with_expected_pieces(self):
        from hodgeheights.mhs import validate
        h = curve_weight_gap_structure()
        assert validate(h).ok
        b = bigrading(h)
        assert b.piece_dims() == {(0, 0): 1, (0, -2): 1, (-2, 0): 1,
                                  (-2, -2): 1}
        check_bigrading_axioms(h)

    def test_weight_gap_structure_splitting(self):
        h = curve_weight_gap_structure()
        data = delta_splitting(h)
        assert data.defining_residual < 1e-12
        assert data.reality_residual < 1e-12
        assert data.lambda_residual < 1e-12
        # the only admissible lowering component here is (-2,-2)
        assert set(data.delta_components) <= {(-2, -2)}
        alt = delta_fixed_point(grading_operator(data.bigrading),
                                data.bigrading)
        assert np.linalg.norm(data.delta - alt) < 1e-12

    def test_weight_gap_structure_heights(self):
        from fractions import Fraction

        from hodgeheights.framed import (FramedMHS, biextension_defect,
                                         height1, height1_via_delta, height2)
        h = curve_weight_gap_structure()
        unit = lambda i: tuple(Fraction(1 if j == i else 0) for j in range(4))
        fh = FramedMHS(h, 0, -2, unit(0), unit(3))
        # delta squares to zero here, so the biextension relation is exact
        assert abs(biextension_defect(fh)) < 1e-12
        assert abs(height1(fh) - height1_via_delta(fh)) < 1e-12
        assert abs(height1(fh) + 2 * height2(fh)) < 1e-12

    def test_odd_weight_gap_structure(self):
        from hodgeheights.mhs import conjugate, dual, validate
        h = odd_weight_gap_structure()
        assert validate(h).ok
        b = bigrading(h)
        assert b.piece_dims() == {(0, 0): 1, (-1, -2): 1, (-2, -1): 1}
        check_bigrading_axioms(h)
        data = delta_splitting(h)
        assert data.defining_residual < 1e-12
        assert data.reality_residual < 1e-12
        assert data.lambda_residual < 1e-12
        assert set(data.delta_components) <= {(-1, -2), (-2, -1)}
        assert np.linalg.norm(data.delta) > 1e-3
        # conjugation pairs the two components of a real delta
        comps = data.delta_components
        assert np.linalg.norm(comps[(-1, -2)].conj()
                              - comps[(-2, -1)]) < 1e-10
        assert np.linalg.norm(delta_splitting(conjugate(h)).delta
                              + data.delta) < 1e-10
        assert np.linalg.norm(delta_splitting(dual(h)).delta
                              + data.delta.T) < 1e-10


class TestDerivedStructures:
    """dual, twist and conjugate inherit their parent's pieces.  Each must
    match the same structure rebuilt from its raw filtrations with an empty
    memo and solved independently, so that the height laws compare two
    solves rather than the relabelling algebra with itself."""

    @staticmethod
    def assert_matches_fresh(child, framing=None):
        from hodgeheights.framed import FramedMHS, height1, height2
        fresh = MixedHodgeStructure(child.dimension, child.weight_filtration,
                                    child.hodge_filtration, child.comparison_matrix)
        b, bf = bigrading(child), bigrading(fresh)
        assert b.labels == bf.labels
        assert b.piece_dims() == bf.piece_dims()
        for pq, piece in b.pieces.items():
            assert equals(piece, bf.pieces[pq], deligne.SUBSPACE_TOL)
        assert np.linalg.norm(delta_splitting(child).delta
                              - delta_splitting(fresh).delta) < 1e-9
        if framing is not None:
            fc = FramedMHS(child, *framing)
            ff = FramedMHS(fresh, *framing)
            assert abs(height1(fc) - height1(ff)) < 1e-9
            assert abs(height2(fc) - height2(ff)) < 1e-9

    @classmethod
    def assert_children_match_fresh(cls, fh, s):
        from hodgeheights.framed import (conjugate_framed, dual_framed,
                                         twist_framed)
        for child in (dual_framed(fh), twist_framed(fh, s), conjugate_framed(fh)):
            cls.assert_matches_fresh(child.mhs, (child.a, child.b, child.phi_class,
                                                 child.psi_class))

    def test_random_hodge_tate(self):
        rng = np.random.default_rng(40)
        for seed in range(40):
            dims = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(2, 5)))]
            h = random_hodge_tate(dims, seed=seed, scale=0.9)
            fh = random_framing(h, rng, b_level=int(rng.integers(1, len(dims))))
            self.assert_children_match_fresh(fh, int(rng.integers(-2, 3)))

    def test_non_hodge_tate(self):
        from fractions import Fraction

        from hodgeheights.framed import FramedMHS
        unit = lambda i: tuple(Fraction(1 if j == i else 0) for j in range(4))
        self.assert_children_match_fresh(
            FramedMHS(curve_weight_gap_structure(), 0, -2, unit(0), unit(3)), 1)
        # no rational class of type (a, a) to frame: pieces and delta only
        for h in (odd_weight_gap_structure(), weight_one_curve_like()):
            for child in (dual(h), twist(h, -1), conjugate(h)):
                self.assert_matches_fresh(child)

    def test_polylog(self, polylog_ctx_factory):
        from hodgeheights.polylog import polylog_framed
        ctx = polylog_ctx_factory(0.37 - 0.41j, 6)
        for a, b in ((0, 1), (1, 4), (0, 6)):
            self.assert_children_match_fresh(polylog_framed(ctx, a, b), 2)


class TestInheritedDelta:
    """A dual, twist or conjugate takes delta from its parent's (-delta^T,
    delta and -delta), solved once per root structure, and still checks
    it on its own grading operator."""

    @staticmethod
    def assert_inherited_delta_matches_fresh_solve(h, s):
        for child in (dual(h), twist(h, s), conjugate(h), dual(twist(h, s)),
                      conjugate(dual(h))):
            fresh = MixedHodgeStructure(child.dimension, child.weight_filtration,
                                        child.hodge_filtration)
            b = bigrading(fresh)
            solved = deligne._solve_delta(b)
            assert np.linalg.norm(delta_splitting(child).delta - solved) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(dims=st.lists(st.integers(1, 2), min_size=2, max_size=4),
           seed=st.integers(0, 2**16), s=st.integers(-2, 2))
    def test_random_hodge_tate(self, dims, seed, s):
        self.assert_inherited_delta_matches_fresh_solve(
            random_hodge_tate(dims, seed=seed, scale=0.9), s)

    def test_polylog(self, polylog_ctx_factory):
        from hodgeheights.polylog import polylog_mhs
        self.assert_inherited_delta_matches_fresh_solve(
            polylog_mhs(polylog_ctx_factory(0.37 - 0.41j, 6)), 2)

    @pytest.mark.parametrize("derive, wrong", [
        (conjugate, lambda d: d),
        (lambda h: twist(h, 1), lambda d: -d),
        (dual, lambda d: d.T),
    ], ids=["conjugate_without_sign", "twist_with_sign", "dual_without_sign"])
    def test_wrong_carry_is_caught(self, derive, wrong):
        h = random_hodge_tate([1, 1, 1], seed=31)
        child = derive(h)
        object.__setattr__(child, "_carry", (h, wrong))
        # the carry stays after it raised, so asking again raises again
        for _ in range(2):
            with pytest.raises(ResidualTooLarge):
                delta_splitting(child)
        assert child._carry == (h, wrong)

    def test_children_never_solve(self, monkeypatch):
        h = random_hodge_tate([1, 2, 1], seed=3)
        solve, calls = deligne._solve_delta, []

        def counting_solve(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(deligne, "_solve_delta", counting_solve)
        # the first child asks for delta before its root has solved
        for child in (dual(twist(h, 1)), twist(h, -2), conjugate(h), dual(h),
                      conjugate(dual(h)), twist(conjugate(h), 1)):
            delta_splitting(child)
        delta_splitting(h)
        assert len(calls) == 1

    @pytest.mark.parametrize("derive, conj", [(lambda h: twist(h, 2), False),
                                              (conjugate, True)],
                             ids=["twist", "conjugate"])
    def test_twist_and_conjugate_carry_the_bigrading_spectrum(self, derive, conj):
        # the child's basis is its parent's, or the parent's conjugate
        h = random_hodge_tate([1, 2, 1, 1], seed=6)
        parent, child = bigrading(h), bigrading(derive(h))
        assert np.array_equal(child.basis, parent.basis.conj() if conj else parent.basis)
        assert child.singular_values is parent.singular_values
        assert np.array_equal(child.inverse_basis, parent.inverse_basis.conj()
                              if conj else parent.inverse_basis)
        assert np.allclose(child.inverse_basis @ child.basis, np.eye(h.dimension),
                           atol=1e-12)

    @pytest.mark.parametrize("derive", [lambda h: twist(h, 2), conjugate],
                             ids=["twist", "conjugate"])
    def test_child_does_not_keep_its_parent_alive(self, derive):
        # the child's bigrading holds its parent's singular values and
        # inverse, not the parent; the delta seed holds the parent until
        # the child's splitting takes delta from it
        h = random_hodge_tate([1, 2, 1], seed=3)
        child = derive(h)
        b = bigrading(child)
        parent = weakref.ref(h)
        del h
        data = delta_splitting(child)
        gc.collect()
        assert parent() is None
        assert data.bigrading is b
        assert data.defining_residual <= deligne.SPLITTING_TOL
        assert data.reality_residual <= deligne.REALITY_TOL * max(1.0, np.linalg.norm(data.Y))
        assert data.lambda_residual <= 1e-9

    @pytest.mark.parametrize("derive", [lambda h: twist(h, 2), conjugate],
                             ids=["twist", "conjugate"])
    def test_twist_and_conjugate_cost_no_svd(self, derive, monkeypatch):
        # the subspaces, pieces and delta are the parent's, and so are the
        # bigrading basis's singular values and inverse (conjugated for a
        # conjugate), which the child's independence check and Y read
        h = random_hodge_tate([1, 2, 1], seed=3)
        delta_splitting(h)
        calls = count_calls(monkeypatch, np.linalg, "svd")
        child = derive(h)
        require_valid(child)
        delta_splitting(child)
        assert len(calls) == 0
