import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from hodgeheights import deligne, framed, polylog
from hodgeheights.linalg import nilpotent_exp, nilpotent_log
from hodgeheights.mhs import validate
from hodgeheights.polylog import (MAX_N, NonConvergent, PathThroughSingularity,
                                  PolylogContext, TruncationOutOfRange, bernoulli, branch_data,
                                  build_matrices, delta_closed_form,
                                  heights_closed_form, li, log_z,
                                  polylog_framed, polylog_mhs, sv_bd, sv_brown,
                                  tau)

from oracles import (closed_form_betti_conjugator, mp_polylog_base_heights,
                     mp_polylog_delta, mp_polylog_ht2, polylog_ell, recursive_panel_points,
                     row_loop_matrices, sequential_transport_once, shift_matrix)

# frozen oracle values (defining series summed in 35-digit arithmetic)
LI2_HALF = 0.5822405264650125059026563201596801
SV_BROWN_03 = {2: -0.8588538649734232566827463953273347,
               3: 2.444139173742035453653688478331136,
               4: -2.5276930748256828600534849370718843}
# the criterion-8 loop: once counterclockwise around t = 1 from 0.3,
# which adds -2 pi i (log z)^(k-1) / (k-1)! to Li_k
LOOP_AROUND_ONE = (0.3, 0.3 - 0.9j, 2.3 - 0.9j, 2.3 + 0.9j, 0.3 + 0.9j, 0.3)
SV_BD_03_02 = {1: 0.31743913621798476694575688516983532,   # real part, b odd
               2: 0.51976430145400816027084220115227733,   # imag part, b even
               3: 0.73248041069754547799577468417786402}


class TestLi:
    def test_li_at_zero(self):
        ctx = PolylogContext(0.0, N=3)
        for k in (1, 2, 3, 7):
            assert li(k, ctx) == 0

    def test_li1_is_minus_log(self):
        assert abs(li(1, PolylogContext(0.5, N=1)) - math.log(2)) < 1e-14

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_li1_near_one(self, eps):
        # the panel ends are the nodes' ends exactly, so 1 - t is exact at
        # the last node, where its rounding cost 5.4e-10 at eps = 1e-8
        mpmath = pytest.importorskip("mpmath")
        z = 1 - eps * (1 + 1j) / math.sqrt(2)
        with mpmath.workdps(30):
            ref = complex(-mpmath.log(1 - mpmath.mpc(z)))
        assert abs(li(1, PolylogContext(z, N=1)) - ref) <= 1e-14 * abs(ref)

    def test_li2_half_vs_series_oracle(self):
        assert abs(li(2, PolylogContext(0.5, N=2)) - LI2_HALF) < 1e-13

    @pytest.mark.parametrize("z", [0.3, 0.3 + 0.2j, -0.7 + 1.3j, 2.5 + 1.0j,
                                   0.9, -1.5 + 0.1j, 3.7 - 1.2j])
    def test_against_mpmath_principal_branch(self, z):
        mpmath = pytest.importorskip("mpmath")
        ctx = PolylogContext(z, N=5)
        for k in range(1, 6):
            ref = complex(mpmath.polylog(k, z))
            assert abs(li(k, ctx) - ref) < 1e-10

    @pytest.mark.parametrize("radius", [0.6, 1.5, 2.5, 4.0])
    @pytest.mark.parametrize("looped", [False, True], ids=["principal", "loop"])
    def test_against_mpmath_weight_ten(self, radius, looped):
        mpmath = pytest.importorskip("mpmath")
        for angle in (0.7, 2.4, -1.9):
            z = radius * complex(math.cos(angle), math.sin(angle))
            path = LOOP_AROUND_ONE + (z,) if looped else ()
            got = branch_data(PolylogContext(z, N=10, path=path), 10)[1]
            for k in range(1, 11):
                with mpmath.workdps(30):
                    ref = mpmath.polylog(k, z)
                    if looped:
                        ref -= (2j * mpmath.pi * mpmath.log(z) ** (k - 1)
                                / mpmath.factorial(k - 1))
                    ref = complex(ref)
                assert abs(got[k - 1] - ref) < 1e-10 * abs(ref), (z, k)

    def test_log_branch_matches_principal_off_cuts(self):
        for z in (0.7 + 0.4j, -2.0 + 1.0j, 3.0 + 2.0j):
            assert abs(log_z(PolylogContext(z, N=1)) - np.log(z)) < 1e-11

    def test_cut_values_need_explicit_path(self):
        with pytest.raises(PathThroughSingularity):
            li(2, PolylogContext(2.0, N=1))
        with pytest.raises(PathThroughSingularity):
            li(2, PolylogContext(-1.5, N=1))
        # Li itself is unambiguous on (-1, 0]; only log-dependent values
        # need the branch there
        mpmath = pytest.importorskip("mpmath")
        assert abs(li(2, PolylogContext(-0.5, N=1))
                   - complex(mpmath.polylog(2, -0.5))) < 1e-12
        with pytest.raises(PathThroughSingularity):
            log_z(PolylogContext(-0.5, N=1))

    def test_z_one_rejected(self):
        with pytest.raises(PathThroughSingularity):
            PolylogContext(1.0, N=2)

    def test_path_through_singularity_rejected(self):
        bad = (0.3, 2.0 + 0.0j)  # crosses t = 1
        with pytest.raises(PathThroughSingularity):
            li(1, PolylogContext(2.0 + 0.0j, N=1, path=bad))

    def test_path_must_start_in_series_disk(self):
        with pytest.raises(PathThroughSingularity):
            PolylogContext(2.0 + 1.0j, N=1, path=(1.5 + 1.0j, 2.0 + 1.0j))

    @pytest.mark.parametrize("z, path", [
        (complex("nan+0.2j"), ()), (complex("inf"), ()),
        (0.8 + 0.2j, (0.3, complex("nan+0.5j"), 0.8 + 0.2j))],
        ids=["nan_z", "inf_z", "nan_waypoint"])
    def test_non_finite_point_rejected(self, z, path):
        with pytest.raises(ValueError, match="finite") as err:
            PolylogContext(z, N=2, path=path)
        assert not isinstance(err.value, PathThroughSingularity)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, np.int64(3), "3"],
                             ids=["float", "integral-float", "bool", "numpy-int", "str"])
    def test_truncation_must_be_an_int(self, n):
        # N slices the matrices, so a float fails late and True passes as 1;
        # both are rejected when the context is made
        with pytest.raises(ValueError, match="N must be an int"):
            PolylogContext(0.3 + 0.2j, N=n)

    def test_series_cutoff_raises(self):
        with pytest.raises(NonConvergent):
            polylog._series_values(0.499, 1, terms=10)


class TestSingleValued:
    def test_brown_1_is_minus_log_abs_squared(self):
        for z in (0.3 + 0.2j, -1.4 + 0.6j, 2.2 + 0.9j):
            got = sv_brown(1, PolylogContext(z, N=1))
            assert abs(got - (-math.log(abs(1 - z) ** 2))) < 1e-11

    def test_brown_spot_values_vs_series_oracle(self):
        ctx = PolylogContext(0.3, N=4)
        for b, want in SV_BROWN_03.items():
            assert abs(sv_brown(b, ctx) - want) < 1e-12

    def test_bd_spot_values_vs_series_oracle(self):
        ctx = PolylogContext(0.3 + 0.2j, N=3)
        for b, want in SV_BD_03_02.items():
            got = sv_bd(b, ctx)
            if b % 2 == 1:
                assert abs(got - want) < 1e-12
            else:
                assert abs(got - 1j * want) < 1e-12

    def test_bd_parity(self):
        ctx = PolylogContext(0.4 + 0.5j, N=4)
        for b in (1, 3):
            assert sv_bd(b, ctx).imag == 0
        for b in (2, 4):
            assert sv_bd(b, ctx).real == 0

    def test_bd_2_literal_formula(self):
        # b = 2 instantiates to i (Im Li_2 - (1/2) log|z|^2 Im Li_1)
        z = 0.35 + 0.55j
        ctx = PolylogContext(z, N=2)
        lzz = math.log(abs(z) ** 2)
        expected = 1j * (li(2, ctx).imag - 0.5 * lzz * li(1, ctx).imag)
        assert abs(sv_bd(2, ctx) - expected) < 1e-13

    def test_bernoulli_convention(self):
        table = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
                 Fraction(-1, 30), Fraction(0)]
        assert [bernoulli(k) for k in range(6)] == table

    def test_paths_above_and_below_the_cut(self):
        # continuation over vs under [1, inf) to the same endpoint: the
        # single-valued functions agree while Li_k jumps by the classical
        # lattice element 2 pi i (log z)^(k-1) / (k-1)!
        z = 2.5 + 0.01j
        above = PolylogContext(z, N=4, path=(
            0.3, 0.3 + 0.8j, 2.5 + 0.8j, z))
        below = PolylogContext(z, N=4, path=(
            0.3, 0.3 - 0.8j, 2.5 - 0.8j, z))
        assert abs(log_z(above) - log_z(below)) < 1e-11  # no winding about 0
        lg = log_z(above)
        for k in (1, 2, 3, 4):
            jump = li(k, above) - li(k, below)
            expected = 2j * np.pi * lg ** (k - 1) / math.factorial(k - 1)
            assert abs(jump - expected) < 1e-9, (k, jump, expected)
            assert abs(sv_brown(k, above) - sv_brown(k, below)) < 1e-6
            assert abs(sv_bd(k, above) - sv_bd(k, below)) < 1e-6

    def test_single_valuedness_around_one(self):
        z = 0.4 + 0.3j
        plain = PolylogContext(z, N=3)
        loop = PolylogContext(z, N=3, path=(
            0.3, 0.3 - 0.8j, 2.2 - 0.8j, 2.2 + 0.8j, 0.3 + 0.8j, 0.3, z))
        jumped = False
        for b in (1, 2, 3):
            assert abs(sv_brown(b, plain) - sv_brown(b, loop)) < 1e-6
            assert abs(sv_bd(b, plain) - sv_bd(b, loop)) < 1e-6
            jumped |= abs(li(b, plain) - li(b, loop)) > 1.0
        assert jumped


class TestTransport:
    @pytest.mark.parametrize("order", [32, 48])
    def test_integration_matrix_is_exact_on_chebyshev_polynomials(self, order):
        x, Q = polylog._cheb_nodes(order)
        assert not Q[0].any()

        def T(j):
            return np.cos(j * np.arccos(x))

        def primitive(j):   # an antiderivative of T_j, as a function at x
            if j == 0:
                return x
            if j == 1:
                return x ** 2 / 2
            return T(j + 1) / (2 * (j + 1)) - T(j - 1) / (2 * (j - 1))

        for j in range(order + 1):
            exact = primitive(j) - primitive(j)[0]   # from x[0] = -1
            assert np.abs(Q @ T(j) - exact).max() < 1e-12, j

    @pytest.mark.parametrize("z, path, panels", [
        (2.5 + 1.0j, (), [16, 32]),
        (1.2 + 0.1j, (), [10, 11]),     # panels shortened near t = 1
        (0.45 + 0.35j, LOOP_AROUND_ONE + (0.45 + 0.35j,),
         [5, 8, 8, 8, 5, 2, 8, 16, 16, 16, 8, 4]),
    ], ids=["principal", "near_one", "loop"])
    def test_quadrature_grid_is_fixed(self, monkeypatch, z, path, panels):
        # the transport's speed must come from the panel kernel, not from
        # fewer passes or coarser panels: two passes (order 32 at step,
        # order 48 at step/2) and a fixed panel count per segment and pass
        passes, seen = [], []
        once, split = polylog._transport_once, polylog._panel_points

        def counted_once(*args, **kwargs):
            passes.append(kwargs.get("order"))
            return once(*args, **kwargs)

        def counted_split(*args, **kwargs):
            out = split(*args, **kwargs)
            seen.append(len(out) - 1)
            return out

        monkeypatch.setattr(polylog, "_transport_once", counted_once)
        monkeypatch.setattr(polylog, "_panel_points", counted_split)
        li(10, PolylogContext(z, N=10, path=path))
        assert passes == [32, 48]
        assert seen == panels

    @pytest.mark.parametrize("path", [
        polylog._polyline(PolylogContext(2.5 + 1.0j)),
        polylog._polyline(PolylogContext(1.2 + 0.1j)),
        LOOP_AROUND_ONE + (0.45 + 0.35j,),
    ], ids=["principal", "near_one", "loop"])
    @pytest.mark.parametrize("step", [polylog.QUADRATURE_STEP, polylog.QUADRATURE_STEP / 2,
                                      polylog.QUADRATURE_STEP / 4])
    def test_panel_points_are_the_recursions(self, path, step):
        # comparing a node's length with step before its distance to {0, 1}
        # keeps every decision and midpoint: the same grid, bit for bit
        for a, b in zip(path, path[1:]):
            got = polylog._panel_points(a, b, step)
            want = recursive_panel_points(a, b, step)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("path", [
        polylog._polyline(PolylogContext(2.5 + 1.0j)),
        polylog._polyline(PolylogContext(1.2 + 0.1j)),
        LOOP_AROUND_ONE + (0.45 + 0.35j,),
        *(polylog._polyline(PolylogContext(r * cmath.exp(1j * angle)))
          for r in (0.6, 1.5, 2.5, 4.0) for angle in (0.7, -2.9)),
        (0.3, 0.3, 0.3 - 0.9j, 0.3 - 0.9j, 2.3 - 0.9j),     # zero-length segments
    ], ids=["principal", "near_one", "loop", "r0.6", "r0.6-", "r1.5", "r1.5-",
            "r2.5", "r2.5-", "r4", "r4-", "zero_length"])
    @pytest.mark.parametrize("step, order", [(polylog.QUADRATURE_STEP, 32),
                                             (polylog.QUADRATURE_STEP / 2, 48)])
    def test_batched_pass_matches_the_sequential_one(self, path, step, order):
        start = polylog._series_values(path[0], 10, polylog.SERIES_TERMS)
        lg, vals = polylog._transport_once(path, start, step, order)
        ref_lg, ref_vals = sequential_transport_once(path, start, step, order)
        assert abs(lg - ref_lg) <= 1e-13 * max(1.0, abs(ref_lg))
        for got, want in zip(vals, ref_vals, strict=True):
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_single_point_path_keeps_the_basepoint_values(self):
        p0 = 0.3 - 0.2j
        start = polylog._series_values(p0, 6, polylog.SERIES_TERMS)
        lg, vals = polylog._transport_once((p0,), start, polylog.QUADRATURE_STEP, 32)
        assert lg == complex(np.log(p0))
        assert vals == start
        ctx = PolylogContext(p0, N=6, path=(p0,))
        assert branch_data(ctx, 6) == (lg, start)

    @pytest.mark.parametrize("j", range(1, 11))
    def test_combine_is_exact_in_the_log_ratios(self, j):
        # the pass is affine in its start values, and their part is
        # exp(Lambda E): a unit Li_j reaches Li_k as Lambda^(k-j)/(k-j)!,
        # with Lambda = log z - log p0 on the continued branch (once around
        # 0 counterclockwise adds 2 pi i), free of quadrature error
        p0, z = 0.4, 2.0 + 0.5j
        path = (p0, 0.5j, -0.5, -0.5j, 0.6, z)
        unit = [1.0 if k == j else 0.0 for k in range(1, 11)]
        lg, vals = polylog._transport_once(path, unit, polylog.QUADRATURE_STEP, 32)
        _, base = polylog._transport_once(path, [0.0] * 10, polylog.QUADRATURE_STEP, 32)
        lam = cmath.log(z) + polylog.TWO_PI_I - cmath.log(p0)
        assert abs(lg - (cmath.log(z) + polylog.TWO_PI_I)) < 1e-13
        for k, (got, rest) in enumerate(zip(vals, base), start=1):
            want = lam ** (k - j) / math.factorial(k - j) if k >= j else 0.0
            assert abs(got - rest - want) <= 1e-13 * max(1.0, abs(want)), k

    def test_one_transport_per_context(self, monkeypatch):
        # the branch data is transported once, at Li_1..Li_N, and every
        # quantity of the context reads it; H(z) is built once
        calls = []
        transport = polylog._transport

        def counted(*args, **kwargs):
            calls.append(args)
            return transport(*args, **kwargs)

        monkeypatch.setattr(polylog, "_transport", counted)
        n = 6
        ctx = PolylogContext(2.5 - 1.0j, N=n)
        log_z(ctx)
        for b in range(1, n + 1):
            li(b, ctx)
            sv_brown(b, ctx)
            sv_bd(b, ctx)
            assert len(branch_data(ctx, b)[1]) == b
        build_matrices(ctx)
        assert polylog_mhs(ctx) is polylog_mhs(ctx)
        assert len(calls) == 1
        # the memo is invisible to equality and hashing
        fresh = PolylogContext(2.5 - 1.0j, N=n)
        assert ctx == fresh and hash(ctx) == hash(fresh)

    def test_far_point_is_rejected_before_any_panel(self, monkeypatch):
        # the default path to |z| = 1e8 needs about 1.6e9 panels at the
        # finest step; its segment lengths alone reject it
        def no_panels(*args):
            raise AssertionError("a panel was built")

        with monkeypatch.context() as patched:
            patched.setattr(polylog, "_panel_points", no_panels)
            with pytest.raises(NonConvergent, match="PANEL_BUDGET"):
                li(2, PolylogContext(1e8 + 1j, N=4))
        # |z| = 100 is within the budget
        mp = pytest.importorskip("mpmath")
        z = 100 + 1j
        assert abs(li(2, PolylogContext(z, N=2)) - complex(mp.polylog(2, z))) < 1e-9


class TestMatrices:
    def test_n_past_float_range_is_rejected_before_any_work(self, monkeypatch):
        # column N of A(z) is (2 pi i)^N, finite up to N = 386 only
        assert MAX_N == 386 and math.isfinite((2 * math.pi) ** MAX_N)
        with pytest.raises(OverflowError):
            complex(2j * math.pi) ** (MAX_N + 1)
        monkeypatch.setattr(polylog, "branch_data", lambda *args: pytest.fail("work done"))
        for n in (MAX_N + 1, 390):
            ctx = PolylogContext(0.3 + 0.2j, n)
            for build in (build_matrices, polylog_mhs, delta_closed_form):
                with pytest.raises(TruncationOutOfRange, match=f"N = {n} exceeds 386"):
                    build(ctx)

    def test_a_inverse_is_shared(self, monkeypatch):
        # A(z)^{-1} = tau(2 pi i)^{-1} L^{-1} in closed form, built with the
        # matrices: no inversion builds H(z), its flag or the closed-form
        # delta, both read the one A_inv, and it is exactly lower triangular
        inv, calls = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
        for z, n in ((0.3 + 0.2j, 6), (-3.9 - 0.4j, 10), (0.6 - 0.5j, 40)):
            ctx = PolylogContext(z, n)
            mats = build_matrices(ctx)
            assert np.array_equal(polylog_mhs(ctx)._flag.basis, mats.A_inv)
            assert np.array_equal(delta_closed_form(ctx),
                                  mats.A_inv @ (0.5j * nilpotent_log(mats.B)) @ mats.A)
            assert not np.triu(mats.A_inv, 1).any() and not np.triu(mats.B, 1).any()
            assert np.abs(mats.A_inv @ mats.A - np.eye(n + 1)).max() <= 1e-14
            want = closed_form_betti_conjugator(ctx) @ tau(-1.0, n + 1)
            assert np.linalg.norm(mats.B - want) <= 1e-12 * np.linalg.norm(want), (z, n)
        assert calls == []

    def test_L_past_float_factorials(self):
        # 171! is beyond float range; lg^k / k! is formed without it
        mp = pytest.importorskip("mpmath")
        m = build_matrices(PolylogContext(0.3 + 0.2j, 172))
        assert all(np.isfinite(arr).all() for arr in (m.L, m.A, m.A_inv, m.B))
        want = complex(mp.log(mp.mpc(0.3, 0.2)) ** 171 / mp.factorial(171))
        assert abs(m.L[172, 1] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("n", [1, 2, 10, 170, 171, 172, 386])
    @pytest.mark.parametrize("z", [0.6 - 0.5j, -3.9 - 0.4j])
    def test_toeplitz_gather_is_the_row_loop(self, z, n):
        # one index gather fills the blocks of L and L^{-1} with the values
        # the row loop wrote, across k = 171, where x^k / k! turns into a
        # running product: every matrix the same, bit for bit
        mats, want = build_matrices(PolylogContext(z, n)), row_loop_matrices(PolylogContext(z, n))
        for name in ("L", "A", "A_inv", "B"):
            assert getattr(mats, name).tobytes() == getattr(want, name).tobytes(), name

    def test_matrices_are_built_once_per_context(self):
        # H(z) and delta's closed form share one build, read-only
        ctx = PolylogContext(0.3 + 0.2j, 5)
        mats = build_matrices(ctx)
        polylog_mhs(ctx)
        delta_closed_form(ctx)
        assert build_matrices(ctx) is mats
        assert not any(arr.flags.writeable for arr in (mats.L, mats.A, mats.A_inv, mats.B))

    def test_L_at_rank_one(self):
        ctx = PolylogContext(0.3 + 0.2j, N=1)
        m = build_matrices(ctx)
        assert np.allclose(m.L, [[1, 0], [-li(1, ctx), 1]], atol=1e-14)

    def test_block_identity(self):
        ctx = PolylogContext(0.3 + 0.2j, N=6)
        m = build_matrices(ctx)
        lower = np.eye(7, dtype=complex)
        lower[1:, 0] = polylog_ell(ctx)
        rebuilt = lower @ nilpotent_exp(log_z(ctx) * shift_matrix(7))
        assert np.linalg.norm(rebuilt - m.L) < 1e-10

    def test_conjugator_closed_form(self):
        ctx = PolylogContext(0.3 + 0.2j, N=6)
        m = build_matrices(ctx)
        direct = m.A @ np.linalg.inv(m.A.conj())
        assert np.linalg.norm(direct - closed_form_betti_conjugator(ctx)) < 1e-10

    def test_conjugator_entry_table(self):
        ctx = PolylogContext(0.45 + 0.35j, N=5)
        m = build_matrices(ctx)
        direct = m.A @ np.linalg.inv(m.A.conj())
        lzz = 2 * log_z(ctx).real
        for b in range(6):
            for a in range(6):
                if a > b:
                    want = 0.0
                elif a == b:
                    want = (-1.0) ** a
                elif a > 0:
                    want = (-1.0) ** a * lzz ** (b - a) / math.factorial(b - a)
                else:
                    want = -sv_brown(b, ctx)
                assert abs(direct[b, a] - want) < 1e-10

    def test_B_is_unitriangular(self):
        ctx = PolylogContext(0.3 + 0.2j, N=6)
        b = build_matrices(ctx).B
        assert np.linalg.norm(np.triu(b, 1)) < 1e-12
        assert np.linalg.norm(np.diag(b) - 1) < 1e-12

    def test_eq29_reality_identity(self):
        # -log(tau(-1) conj(A) A^{-1}) = log(A conj(A)^{-1} tau(-1))
        ctx = PolylogContext(0.25 + 0.45j, N=4)
        m = build_matrices(ctx)
        t = tau(-1.0, 5)
        lhs = -nilpotent_log(t @ m.A.conj() @ np.linalg.inv(m.A))
        rhs = nilpotent_log(m.A @ np.linalg.inv(m.A.conj()) @ t)
        assert np.linalg.norm(lhs - rhs) < 1e-10


class TestPolylogMHS:
    @pytest.mark.parametrize("z", [0.3, 0.3 + 0.2j, -0.6 + 0.8j, 1.4 + 1.1j])
    def test_valid_on_grid(self, z):
        for n in (2, 5, 8):
            assert validate(polylog_mhs(PolylogContext(z, N=n))).ok

    def test_rank_one_graded_pieces(self):
        h = polylog_mhs(PolylogContext(0.3, N=4))
        for k in range(5):
            assert h.graded_dimension(-2 * k) == 1

    def test_bigrading_is_diagonal(self):
        h = polylog_mhs(PolylogContext(0.7 + 0.1j, N=5))
        b = deligne.bigrading(h)
        assert set(b.pieces) == {(-k, -k) for k in range(6)}
        assert all(s.dim == 1 for s in b.pieces.values())

    def test_singular_points_rejected(self):
        with pytest.raises(PathThroughSingularity):
            polylog_mhs(PolylogContext(0.0, N=2))

    @pytest.mark.parametrize("z", [1.001 + 0.001j, 1 + 1e-4j, 1e-4,
                                   1e-6 + 1e-6j])
    def test_near_singular_points_stay_well_conditioned(self, z):
        # the 60-digit closed form decides: the float64 delta_closed_form
        # is itself 3e-10 off at z = 1e-4 and 1e-6+1e-6i
        pytest.importorskip("mpmath")
        ctx = PolylogContext(z, N=6)
        assert validate(polylog_mhs(ctx)).ok
        delta, ref = deligne.delta_splitting(polylog_mhs(ctx)).delta, mp_polylog_delta(z, 6)
        assert np.linalg.norm(delta - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_retraced_path_returns_to_principal_values(self):
        plain = PolylogContext(0.3, N=5)
        loop = PolylogContext(0.3, N=5,
                              path=(0.3, 0.8 + 0.9j, 2.2 + 0.4j,
                                    0.8 + 0.9j, 0.3))
        for k in range(1, 6):
            assert abs(li(k, loop) - li(k, plain)) < 1e-11
        assert abs(log_z(loop) - log_z(plain)) < 1e-12


class TestClosedForms:
    def test_delta_rank_one_log_is_linear(self):
        ctx = PolylogContext(0.3 + 0.4j, N=1)
        m = build_matrices(ctx)
        assert np.allclose(nilpotent_log(m.B), m.B - np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.5 + 0.7j, 0.8 - 0.3j])
    def test_delta_matches_generic_solver(self, z):
        ctx = PolylogContext(z, N=6)
        h = polylog_mhs(ctx)
        delta = deligne.delta_splitting(h).delta
        assert np.linalg.norm(delta - delta_closed_form(ctx)) < 1e-9

    @pytest.mark.parametrize("z", [0.6 - 0.5j, 0.3 + 0.2j, 2.5 - 1j, -0.7 + 0.6j,
                                   3.6 + 1.2j, -3.9 - 0.4j])
    def test_delta_and_ht2_against_high_precision_reference(self, z):
        # the mpmath closed form decides, at 60 digits (90 at N = 32).  The
        # float64 delta_closed_form is held to it too: with A(z)^{-1} from an
        # LU it was 1.4e-7 off at N = 11 and 0.25 at N = 20 (z = 0.6-0.5i).
        # From N = 12 on, some heights are below 1e-13 (8.3e-18 at b = 20,
        # z = -3.9-0.4i), so ht2 is also allowed 1e-15 absolute there
        pytest.importorskip("mpmath")
        ns = (6, 11)
        if z in (0.6 - 0.5j, 0.3 + 0.2j, 2.5 - 1j, -3.9 - 0.4j):
            ns += (12, 16, 20) + ((32,) if z in (0.6 - 0.5j, -3.9 - 0.4j) else ())
        for n in ns:
            dps = 90 if n >= 32 else 60
            ctx = PolylogContext(z, N=n)
            ref = mp_polylog_delta(z, n, dps)
            delta = deligne.delta_splitting(polylog_mhs(ctx)).delta
            assert np.linalg.norm(delta - ref) <= 1e-13 * np.linalg.norm(ref), (z, n)
            closed = delta_closed_form(ctx)
            assert np.linalg.norm(closed - ref) <= 1e-12 * np.linalg.norm(ref), (z, n)
            floor = 1e-15 if n >= 12 else 0.0
            for b, want in enumerate(mp_polylog_ht2(z, n, dps), 1):
                got = framed.height2(polylog_framed(ctx, 0, b))
                assert abs(got - want) <= max(1e-10 * abs(want), floor), (z, n, b)

    @pytest.mark.parametrize("b", [261, 390])
    def test_base_heights_past_float_range(self, b):
        # B_k leaves float range past k = 258 and (2 pi i)^b past b = 385;
        # at b = 390 the heights are subnormal, so two ulps of 0 are allowed
        pytest.importorskip("mpmath")
        got = heights_closed_form(PolylogContext(0.3 + 0.2j, b), 0, b)
        for g, want in zip(got, mp_polylog_base_heights(0.3 + 0.2j, b)):
            assert abs(g - want) <= 1e-12 * abs(want) + 2 * math.ulp(0.0), (g, want)

    def test_heights_parametrized_zero_laws(self):
        ctx = PolylogContext(0.4 + 0.3j, N=6)
        for a in range(1, 5):
            for b in range(a + 1, 7):
                ht1, ht2 = heights_closed_form(ctx, a, b)
                fh = polylog_framed(ctx, a, b)
                if (b - a) % 2 == 0:
                    assert ht1 == 0.0 or abs(ht1) < 1e-15
                    assert abs(framed.height1(fh)) < 1e-12
                if b != a + 1:
                    assert ht2 == 0.0
                    assert abs(framed.height2(fh)) < 1e-10

    def test_ht1_matches_closed_form(self):
        ctx = PolylogContext(0.35 + 0.25j, N=5)
        for (a, b) in [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 5)]:
            fh = polylog_framed(ctx, a, b)
            assert abs(framed.height1(fh) - heights_closed_form(ctx, a, b)[0]) < 1e-9

    def test_ht2_matches_closed_form_at_a_zero(self):
        ctx = PolylogContext(0.35 + 0.25j, N=5)
        for b in range(1, 6):
            fh = polylog_framed(ctx, 0, b)
            assert abs(framed.height2(fh) - heights_closed_form(ctx, 0, b)[1]) < 1e-9

    def test_ht2_adjacent_framing_biextension_identity(self):
        # for b = a + 1 the frame drop is one graded step, so delta^3 e_H
        # pairs to zero and ht2 = -ht1/2 = +log(z zbar)/(4 pi) exactly,
        # the ratio criteria 1 and 3a fix at (0, 1) (README, "Adjacent
        # framings")
        ctx = PolylogContext(0.35 + 0.25j, N=5)
        lzz = 2 * log_z(ctx).real
        for a in (1, 2, 3):
            fh = polylog_framed(ctx, a, a + 1)
            ht1 = framed.height1(fh)
            ht2 = framed.height2(fh)
            assert abs(ht1 - (-lzz / (2 * np.pi))) < 1e-10
            assert abs(ht2 + 0.5 * ht1) < 1e-10
            assert abs(ht2 - lzz / (4 * np.pi)) < 1e-10
            assert abs(heights_closed_form(ctx, a, a + 1)[1]
                       - lzz / (4 * np.pi)) < 1e-15

    def test_ht1_b1_from_brown_1(self):
        # a=0, b=1: ht1 = Im(-L_1/(2 pi i)) = -log|1-z| / pi
        z = 0.2 + 0.6j
        ctx = PolylogContext(z, N=2)
        fh = polylog_framed(ctx, 0, 1)
        assert abs(framed.height1(fh) - (-math.log(abs(1 - z)) / math.pi)) < 1e-11

    def test_framing_bounds_checked(self):
        ctx = PolylogContext(0.3, N=3)
        for a, b in [(-1, 2), (2, 2), (0, 4)]:
            with pytest.raises(ValueError):
                polylog_framed(ctx, a, b)
