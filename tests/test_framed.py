import gc
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

from hodgeheights.framed import (FramedMHS, FramingTypeError,
                                 biextension_defect, conjugate_framed,
                                 delta_pairing, dual_framed, frame_elements,
                                 framed_morphism_check, height1,
                                 height1_via_delta, height2, twist_framed)
from hodgeheights import deligne, mhs as mhs_mod
from hodgeheights.linalg import DimensionMismatch, Subspace, nilpotent_exp
from hodgeheights.mhs import (MixedHodgeStructure, random_hodge_tate,
                              random_hodge_tate_pair)

from conftest import count_calls, random_framing
from oracles import SHEAR, loop_typed_lift, sheared, sheared_class, sheared_covector


def unit(i, n):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


class TestFrameElements:
    def test_split_structure_lift_is_the_class_itself(self):
        h = random_hodge_tate([1, 1, 1], seed=0, scale=0.0)
        fh = FramedMHS(h, 0, -2, unit(0, 3), unit(2, 3))
        el = frame_elements(fh)
        assert np.allclose(el.e_h, [1, 0, 0], atol=1e-12)
        assert np.allclose(el.e_h_dual, [0, 0, 1], atol=1e-12)

    def test_polylog_frame_elements(self, polylog_ctx_factory):
        from hodgeheights.polylog import build_matrices, polylog_framed
        ctx = polylog_ctx_factory(0.3 + 0.2j, 4)
        mats = build_matrices(ctx)
        a_inv = np.linalg.inv(mats.A)
        two_pi_i = 2j * np.pi
        for (a, b) in [(0, 2), (1, 3), (2, 4)]:
            el = frame_elements(polylog_framed(ctx, a, b))
            assert np.linalg.norm(el.e_h - two_pi_i ** a * a_inv[:, a]) < 1e-9
            assert np.linalg.norm(el.e_h_dual - mats.A[b, :] / two_pi_i ** b) < 1e-9

    def test_dual_framing_swaps_elements(self):
        h = random_hodge_tate([1, 1, 1], seed=12)
        fh = random_framing(h, np.random.default_rng(0))
        el = frame_elements(fh)
        el_dual = frame_elements(dual_framed(fh))
        assert np.allclose(el_dual.e_h, el.e_h_dual, atol=1e-10)
        assert np.allclose(el_dual.e_h_dual, el.e_h, atol=1e-10)

    def test_off_type_class_rejected(self):
        # pure weight 0 with Hodge types (1,-1) and (-1,1): no rational class
        # in Gr^W_0 has pure type (0,0), so any framing attempt must fail
        h = MixedHodgeStructure(
            2,
            {0: [[1, 0], [0, 1]]},
            {-1: np.eye(2, dtype=complex), 1: np.array([[1.0, 1j]])},
        )
        fh = FramedMHS(h, 0, 0, unit(0, 2), unit(1, 2))
        with pytest.raises(FramingTypeError):
            frame_elements(fh)

    def test_class_outside_weight_rejected(self):
        h = random_hodge_tate([1, 1], seed=1)
        bad = FramedMHS(h, -1, -1, unit(0, 2), unit(1, 2))  # e_0 not in W_{-2}
        with pytest.raises(FramingTypeError):
            frame_elements(bad)
        with pytest.raises(FramingTypeError):  # a failed lift is not kept
            frame_elements(bad)

    def test_off_type_functional_rejected(self):
        # Q(0) + V with V pure of weight -2 and types (0,-2), (-2,0): phi = e0
        # lifts fine, but Gr^W_{-2} has no (-1,-1) part, so the functional
        # psi = e1* has no pure dual type (1,1)
        h = MixedHodgeStructure(
            3,
            {-2: [[0, 1, 0], [0, 0, 1]], 0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            {-2: np.eye(3, dtype=complex), 0: np.array([[1, 0, 0], [0, 1, 1j]])},
        )
        assert mhs_mod.validate(h).ok
        fh = FramedMHS(h, 0, -1, unit(0, 3), unit(1, 3))
        with pytest.raises(FramingTypeError, match="psi_class"):
            frame_elements(fh)

    def test_typed_lift_matches_the_loop(self):
        # one mask over the labels: the loop's lift, the same values, or
        # the loop's error at the first offending column in label order;
        # coordinates straddle the type tolerance, several columns offend
        from hodgeheights.framed import _typed_lift
        rng = np.random.default_rng(27)
        outcomes = set()
        for _ in range(400):
            n = int(rng.integers(1, 9))
            labels = [tuple(int(x) for x in rng.integers(-2, 1, size=2)) for _ in range(n)]
            p, q = labels[int(rng.integers(n))] if rng.random() < 0.8 else (0, -1)
            coords = ((rng.standard_normal(n) + 1j * rng.standard_normal(n))
                      * 10.0 ** rng.choice([0, -7.5, -8.5, -12], size=n))
            frame = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            args = frame, coords, labels, p, q, "phi_class"
            try:
                want = loop_typed_lift(*args)
            except FramingTypeError as exc:
                with pytest.raises(FramingTypeError) as got:
                    _typed_lift(*args)
                assert str(got.value) == str(exc)
                outcomes.add("raised")
                continue
            assert np.array_equal(_typed_lift(*args), want)
            outcomes.add("lifted")
        assert outcomes == {"raised", "lifted"}

    @pytest.mark.parametrize("a, b", [(-0.5, -3), ("0", -2), (0, -2.0), (0, None)])
    def test_framing_indices_must_be_integers(self, a, b):
        # an index is not truncated to an integer, nor parsed from a string
        h = random_hodge_tate([1, 1, 1], seed=0)
        with pytest.raises(FramingTypeError, match="framing indices must be integers"):
            FramedMHS(h, a, b, unit(0, 3), unit(2, 3))

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, "x", 1j, None])
    def test_framing_entries_must_be_finite_rationals(self, entry):
        h = random_hodge_tate([1, 1, 1], seed=0)
        for phi, psi, name in (((entry, 0, 0), unit(2, 3), "phi_class"),
                               (unit(0, 3), (0, 0, entry), "psi_class")):
            with pytest.raises(FramingTypeError, match=f"{name} entries must be finite rationals"):
                FramedMHS(h, 0, -2, phi, psi)

    def test_framing_keeps_integral_indices_and_rational_entries(self):
        # numpy integers are integers, and every finite rational entry is
        # kept exactly: a float, a string fraction and a numpy integer
        h = random_hodge_tate([1, 1, 1], seed=0)
        fh = FramedMHS(h, np.int64(0), np.int32(-2), (0.5, "1/3", np.int64(2)), unit(2, 3))
        assert (fh.a, fh.b) == (0, -2) and type(fh.a) is int
        assert fh.phi_class == (Fraction(1, 2), Fraction(1, 3), 2)

    @pytest.mark.parametrize("phi, psi, message, shear", [
        (unit(0, 3), unit(2, 4), "frame vectors of wrong length", None),
        (unit(3, 4), unit(2, 4), "phi_class vanishes in Gr\\^W_0", None),
        (unit(0, 4), unit(3, 4), "psi_class does not vanish on W_-5", None),
        (unit(0, 3), unit(2, 4), "frame vectors of wrong length", SHEAR),
        (unit(3, 4), unit(2, 4), "phi_class vanishes in Gr\\^W_0", SHEAR),
        (unit(0, 4), unit(3, 4), "psi_class does not vanish on W_-5", SHEAR),
    ], ids=["wrong_length", "phi_vanishes", "psi_not_vanishing",
            "sheared-wrong_length", "sheared-phi_vanishes", "sheared-psi_not_vanishing"])
    def test_check_rejects_frame_data(self, polylog_ctx_factory, phi, psi, message, shear):
        # H(z) at N = 3 has W_{-2k} spanned by e_k..e_3, a coordinate frame
        # read by index; sheared, its frame rows are not unit vectors and
        # the same classes, moved with it, are checked by elimination
        from hodgeheights.polylog import polylog_mhs
        h = polylog_mhs(polylog_ctx_factory(0.3 + 0.2j, 3))
        if shear is not None:
            h = sheared(h, shear)
            assert not h.weight_frame.coordinate
            phi = sheared_class(shear, phi) if len(phi) == 4 else phi
            psi = sheared_covector(shear, psi)
        fh = FramedMHS(h, 0, -2, phi, psi)
        with pytest.raises(FramingTypeError, match=message):
            fh.check()
        with pytest.raises(FramingTypeError, match=message):
            height1(fh)


class TestEachFactOnce:
    """Frame elements and heights validate and bigrade their structure once,
    check and lift each framing once, and build no other structure (in
    particular no dual)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return {name: count_calls(monkeypatch, owner, attr)
                for name, owner, attr in (("validate", mhs_mod, "validate"),
                                          ("candidates", mhs_mod, "_hodge_tate_candidates"),
                                          ("formula", mhs_mod, "_deligne_formula_pieces"),
                                          ("bigrading", deligne, "_compute_bigrading"),
                                          ("check", FramedMHS, "check"))}

    @staticmethod
    def all_heights(fh):
        frame_elements(fh)
        height1(fh)
        height2(fh)
        height1_via_delta(fh)
        delta_pairing(fh, 2)

    def test_random_hodge_tate(self, calls):
        h = random_hodge_tate([1, 2, 1, 2], seed=31)
        fh = random_framing(h, np.random.default_rng(31))
        self.all_heights(fh)
        assert calls == {"validate": [h], "candidates": [h], "formula": [],
                         "bigrading": [h], "check": [fh]}

    def test_derived_structures_inherit_pieces(self, calls):
        # dual, twist and conjugate take their pieces from the validated
        # parent, and compute neither candidates nor Deligne's formula; each
        # is bigraded once.  Only the dual is validated, on its own
        # filtrations: a twist or conjugate takes its parent's verdict
        h = random_hodge_tate([1, 2, 1, 2], seed=31)
        fh = random_framing(h, np.random.default_rng(31))
        self.all_heights(fh)
        children = [dual_framed(fh), twist_framed(fh, 2), conjugate_framed(fh)]
        for child in children:
            self.all_heights(child)
        derived = [child.mhs for child in children]
        assert calls == {"validate": [h, derived[0]], "candidates": [h], "formula": [],
                         "bigrading": [h] + derived, "check": [fh] + children}

    @pytest.mark.parametrize("root", ["random", "polylog", "curve"])
    def test_twist_and_conjugate_carry_the_verdict(self, root, monkeypatch):
        # a twist or conjugate of a valid structure is valid by functoriality:
        # it takes its parent's report, so its validity, bigrading and
        # heights run no MHS criterion, no tail norm and no nesting
        # residual.  A direct `validate` still checks it in full, and the
        # dual, whose pieces are new floats, is validated on them once
        from hodgeheights.polylog import PolylogContext, polylog_framed
        from test_deligne import curve_weight_gap_structure
        if root == "random":
            h = random_hodge_tate([2, 1, 2], seed=8)
            fh = random_framing(h, np.random.default_rng(8))
        elif root == "polylog":
            fh = polylog_framed(PolylogContext(0.6 - 0.5j, 6), 1, 4)
        else:
            fh = FramedMHS(curve_weight_gap_structure(), 0, -2, unit(0, 4), unit(3, 4))
        self.all_heights(fh)
        calls = {name: count_calls(monkeypatch, owner, attr)
                 for name, owner, attr in (("purity", mhs_mod, "_purity_violations"),
                                           ("tails", mhs_mod, "tail_norms"),
                                           ("nesting", mhs_mod, "_nesting_residuals"))}
        for child in (twist_framed(fh, 3), conjugate_framed(fh),
                      twist_framed(conjugate_framed(fh), -2)):
            mhs_mod.require_valid(child.mhs)
            deligne.bigrading(child.mhs)
            height1(child)
            height2(child)
            assert calls == {"purity": [], "tails": [], "nesting": []}
            assert child.mhs._memo["report"] == fh.mhs._memo["report"]
            assert mhs_mod.validate(child.mhs).ok
            assert calls["purity"] == [child.mhs]
            for made in calls.values():
                made.clear()
        mhs_mod.require_valid(dual_framed(fh).mhs)
        assert len(calls["purity"]) == 1

    def test_polylog(self, calls, polylog_ctx_factory):
        from hodgeheights.polylog import polylog_framed
        fh = polylog_framed(polylog_ctx_factory(0.37 - 0.41j, 6), 1, 4)
        self.all_heights(fh)
        h = fh.mhs
        assert calls == {"validate": [h], "candidates": [h], "formula": [],
                         "bigrading": [h], "check": [fh]}

    def test_formula_structure(self, calls):
        # not Hodge--Tate: its candidates fail the criteria, so Deligne's
        # formula gives the pieces; each is computed once
        from test_deligne import curve_weight_gap_structure
        h = curve_weight_gap_structure()
        fh = FramedMHS(h, 0, -2, unit(0, 4), unit(3, 4))
        self.all_heights(fh)
        assert calls == {"validate": [h], "candidates": [h], "formula": [h],
                         "bigrading": [h], "check": [fh]}

    @pytest.mark.parametrize("n", [4, 6, 10, 11])
    def test_fresh_polylog_makes_no_rational_work(self, n, monkeypatch):
        # W of H(z) is handed over as its frame, the coordinate flag: no
        # echelon form and no Fraction -> float conversion.  F is handed
        # over as a flag, the columns of A(z)^{-1}: one values-only SVD
        # decides its rank and every F^p is a slice of one QR, so there is
        # no batched F SVD.  The frame is a coordinate frame, so W_k are
        # identity columns at its pivots, read by index with no QR.  The
        # candidates are the columns of the flag's unit-norm basis, one
        # each, with no span, SVD or intersection, and the direct-sum check
        # reads that basis's singular values off the same SVD: 1 SVD and 1
        # QR, which do not grow with N (a QR of the W frame made a second).
        # The heights read frame coordinates, never an echelon form.
        from hodgeheights import _rational
        from hodgeheights.polylog import PolylogContext, polylog_framed, polylog_mhs
        ctx = PolylogContext(0.3 + 0.2j, n)
        h = polylog_mhs(ctx)
        calls = {name: count_calls(monkeypatch, owner, attr)
                 for name, owner, attr in (("rref", _rational, "rref"),
                                           ("float", Fraction, "__float__"),
                                           ("svd", np.linalg, "svd"), ("qr", np.linalg, "qr"),
                                           ("sets", Subspace, "from_vector_sets"),
                                           ("cuts", Subspace, "intersect_pairs"))}
        deligne.delta_splitting(h)
        assert calls["rref"] == [] and calls["float"] == [] and calls["cuts"] == []
        assert calls["sets"] == []
        assert (len(calls["svd"]), len(calls["qr"])) == (1, 1)
        for b in range(1, n + 1):
            fh = polylog_framed(ctx, 0, b)
            height1(fh)
            height2(fh)
        assert calls["rref"] == []

    @pytest.mark.parametrize("make, svds, qrs", [
        (lambda: random_hodge_tate([1, 2, 1], seed=4), 2, 2),
        (lambda: random_hodge_tate([1, 1, 1, 1], seed=4), 1, 1),
        (lambda: mhs_mod.tate(2), 1, 1)], ids=["random-121", "random-1111", "tate"])
    def test_fresh_constructions_find_no_intersection(self, make, svds, qrs, monkeypatch):
        # the random generator and Q(a) hand their pieces over as the
        # column blocks of their flags' unit-norm bases (block i of
        # e^lambda, Q(a)'s one column), with no span and no intersection.
        # One SVD finds the flag of full rank; with one-column blocks its
        # singular values are the bigrading's, so that is the only SVD.  A
        # wider block, [1, 2, 1]'s, takes one batched QR in place of the
        # SVD that spanned it, and the bigrading basis is then no longer
        # the flag's, so the direct-sum check makes the second SVD.  The
        # other QR is the flag's frame: W is a coordinate frame, read by
        # index (a QR of it made one more).
        h = make()
        calls = {name: count_calls(monkeypatch, owner, attr)
                 for name, owner, attr in (("svd", np.linalg, "svd"), ("qr", np.linalg, "qr"),
                                           ("cuts", Subspace, "intersect_pairs"),
                                           ("formula", mhs_mod, "_deligne_formula_pieces"))}
        deligne.delta_splitting(h)
        assert calls["cuts"] == [] and calls["formula"] == []
        assert (len(calls["svd"]), len(calls["qr"])) == (svds, qrs)

    def test_frame_classes_are_converted_once(self, polylog_ctx_factory, monkeypatch):
        # each framing with Fraction classes converts its 2 (N + 1) class
        # entries once, for both the range check and the lift, and keeps
        # its lifts on itself
        from hodgeheights.polylog import polylog_mhs
        h = polylog_mhs(polylog_ctx_factory(0.37 - 0.41j, 4))
        framings = [FramedMHS(h, -a, -b, unit(a, 5), unit(b, 5))
                    for a, b in ((0, 4), (0, 2), (1, 3), (2, 3))]
        deligne.bigrading(h)
        floats = count_calls(monkeypatch, Fraction, "__float__")
        for fh in framings * 2:
            frame_elements(fh)
        assert len(floats) == 4 * 2 * 5
        assert all(frame_elements(fh) is fh._elements for fh in framings)

    def test_polylog_framing_makes_no_fraction(self, polylog_ctx_factory, monkeypatch):
        # polylog framings have int unit classes, kept as given: checking,
        # lifting and pairing them constructs no Fraction and converts none
        from hodgeheights.polylog import polylog_framed
        ctx = polylog_ctx_factory(0.37 - 0.41j, 6)
        deligne.delta_splitting(polylog_framed(ctx, 0, 1).mhs)
        made = count_calls(monkeypatch, Fraction, "__new__")
        floats = count_calls(monkeypatch, Fraction, "__float__")
        for a, b in ((0, 6), (0, 2), (1, 3), (2, 3)):
            fh = polylog_framed(ctx, a, b)
            assert all(type(x) is int for x in fh.phi_class + fh.psi_class)
            self.all_heights(fh)
            self.all_heights(conjugate_framed(fh))
        assert made == [] and floats == []

    def test_structure_dies_after_its_heights(self):
        h = random_hodge_tate([1, 1, 2], seed=5)
        fh = random_framing(h, np.random.default_rng(5))
        self.all_heights(fh)
        ref = weakref.ref(h)
        del h, fh
        gc.collect()
        assert ref() is None

    def test_polylog_structure_dies_with_its_context(self):
        # H(z) lives on its context, not in a module cache: once the
        # context and its framings are gone, so is H(z) with its memos
        from hodgeheights.polylog import PolylogContext, polylog_framed
        ctx = PolylogContext(0.37 - 0.41j, 4)
        fh = polylog_framed(ctx, 1, 3)
        self.all_heights(fh)
        ref = weakref.ref(fh.mhs)
        del ctx, fh
        gc.collect()
        assert ref() is None


class TestHeights:
    def test_r_split_heights_vanish(self):
        _, _, h = random_hodge_tate_pair([1, 1, 1], seed=5, real=True)
        fh = random_framing(h, np.random.default_rng(3))
        assert abs(height1(fh)) < 1e-12
        assert abs(height2(fh)) < 1e-12

    def test_two_height1_paths_agree(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            h = random_hodge_tate([1, 1, 1, 1], seed=seed)
            fh = random_framing(h, rng)
            assert abs(height1(fh) - height1_via_delta(fh)) < 1e-9

    def test_height1_via_delta_reads_the_splittings_exponential(self, polylog_ctx_factory):
        # the splitting keeps the e^{-2i delta} of its defining residual: it is
        # nilpotent_exp(-2i delta) bit for bit, so height1_via_delta is too
        from hodgeheights.polylog import polylog_framed
        rng = np.random.default_rng(11)
        roots = [random_framing(random_hodge_tate([1, 2, 1, 1], seed=seed), rng)
                 for seed in range(5)]
        roots.append(polylog_framed(polylog_ctx_factory(2.5 - 1j, 6), 0, 6))
        for root in roots:
            # a root solves delta, its dual and conjugate carry it over
            for fh in (root, dual_framed(root), conjugate_framed(root)):
                split = deligne.delta_splitting(fh.mhs)
                g = nilpotent_exp(-2j * split.delta)
                assert split.exp_minus_2i_delta.tobytes() == g.tobytes()
                el = frame_elements(fh)
                want = complex(np.dot(el.e_h_dual, g @ el.e_h)).imag
                assert height1_via_delta(fh) == want

    def test_conjugate_lift_identity(self):
        # conj(e_H) = e^{-2i delta}(e_H) as vectors
        from hodgeheights.deligne import delta_splitting
        rng = np.random.default_rng(1)
        for seed in range(10):
            h = random_hodge_tate([1, 2, 1], seed=seed)
            fh = random_framing(h, rng)
            el = frame_elements(fh)
            delta = delta_splitting(h).delta
            moved = nilpotent_exp(-2j * delta) @ el.e_h
            assert np.linalg.norm(el.e_h.conj() - moved) < 1e-8

    def test_duality_antisymmetry(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            h = random_hodge_tate([1, 1, 2], seed=seed)
            fh = random_framing(h, rng)
            fd = dual_framed(fh)
            assert abs(height1(fd) + height1(fh)) < 1e-9
            assert abs(height2(fd) + height2(fh)) < 1e-9

    def test_double_dual_restores(self):
        h = random_hodge_tate([1, 1, 1], seed=3)
        fh = random_framing(h, np.random.default_rng(11))
        fdd = dual_framed(dual_framed(fh))
        assert abs(height1(fdd) - height1(fh)) < 1e-9
        assert abs(height2(fdd) - height2(fh)) < 1e-9

    def test_twist_invariance(self):
        rng = np.random.default_rng(4)
        h = random_hodge_tate([2, 1, 1], seed=10)
        fh = random_framing(h, rng)
        for p in (-2, -1, 0, 1, 2):
            ft = twist_framed(fh, p)
            assert ft.a == fh.a - p and ft.b == fh.b - p
            assert abs(height1(ft) - height1(fh)) < 1e-9
            assert abs(height2(ft) - height2(fh)) < 1e-9

    def test_conjugation_sign_law(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            h = random_hodge_tate([1, 1, 1, 1], seed=seed)
            fh = random_framing(h, rng,
                                b_level=int(rng.integers(1, 4)))
            sign = (-1) ** (fh.a - fh.b + 1)
            fc = conjugate_framed(fh)
            assert abs(height1(fc) - sign * height1(fh)) < 1e-9
            assert abs(height2(fc) - sign * height2(fh)) < 1e-9

    def test_polylog_dual_and_twist_spot_values(self, polylog_ctx_factory):
        from hodgeheights.polylog import polylog_framed
        ctx = polylog_ctx_factory(0.3 + 0.2j, 4)
        fh = polylog_framed(ctx, 1, 3)
        ht = (height1(fh), height2(fh))
        fd = dual_framed(fh)
        assert abs(height1(fd) + ht[0]) < 1e-9
        assert abs(height2(fd) + ht[1]) < 1e-9
        sign = (-1) ** (fh.a - fh.b + 1)
        fc = conjugate_framed(fh)
        assert abs(height1(fc) - sign * ht[0]) < 1e-9
        assert abs(height2(fc) - sign * ht[1]) < 1e-9
        for p in (-2, -1, 1, 2):
            ft = twist_framed(fh, p)
            assert abs(height1(ft) - ht[0]) < 1e-9
            assert abs(height2(ft) - ht[1]) < 1e-9
            # frame elements are the old ones tensored by a Tate generator,
            # which is invisible in coordinates
            el, elt = frame_elements(fh), frame_elements(ft)
            assert np.allclose(el.e_h, elt.e_h, atol=1e-10)
            assert np.allclose(el.e_h_dual, elt.e_h_dual, atol=1e-10)

    def test_reality_of_delta_power_pairings(self):
        rng = np.random.default_rng(14)
        for seed in range(10):
            h = random_hodge_tate([1, 1, 1, 1], seed=seed)
            fh = random_framing(h, rng)
            for r in (1, 2, 3):
                assert abs(delta_pairing(fh, r).imag) < 1e-9

    def test_degenerate_equal_framing_warns(self):
        h = random_hodge_tate([2, 1], seed=2)
        fh = FramedMHS(h, 0, 0, unit(0, 3), unit(1, 3))
        with pytest.warns(UserWarning):
            height1(fh)

    def test_biextension_defect_warns_once(self):
        # it takes both heights, but warns and checks reality once
        h = random_hodge_tate([2, 1], seed=2)
        fh = FramedMHS(h, 0, 0, unit(0, 3), unit(1, 3))
        with pytest.warns(UserWarning, match="degenerate") as record:
            defect = biextension_defect(fh)
        assert len(record) == 1
        with pytest.warns(UserWarning, match="degenerate") as record:
            assert defect == height2(fh) + 0.5 * height1(fh)
        assert len(record) == 2


class TestBiextensionRelation:
    def test_defect_vanishes_on_short_structures(self):
        # 2 and 3 graded steps force delta^3(e_H) = 0
        rng = np.random.default_rng(21)
        for steps in (2, 3):
            for seed in range(8):
                dims = [int(rng.integers(1, 3)) for _ in range(steps)]
                h = random_hodge_tate(dims, seed=seed, scale=1.2)
                fh = random_framing(h, rng)
                assert np.linalg.norm(_delta_power_vector(fh, 3)) < 1e-12
                assert abs(biextension_defect(fh)) < 1e-9

    def test_polylog_shallow_framing(self, polylog_ctx_factory):
        from hodgeheights.polylog import polylog_framed
        fh = polylog_framed(polylog_ctx_factory(0.3, 2), 0, 2)
        assert abs(biextension_defect(fh)) < 1e-9

    def test_four_step_defect_is_two_thirds_delta_cubed(self):
        # the sign is plus: ht1 = -2<d> + (4/3)<d^3>, so
        # ht2 + ht1/2 = (2/3) <e_dual, delta^3 e>
        rng = np.random.default_rng(33)
        found_nonzero = False
        for seed in range(12):
            h = random_hodge_tate([1, 1, 1, 1], seed=seed)
            fh = random_framing(h, rng, a_level=0, b_level=3)
            cubed = delta_pairing(fh, 3)
            defect = biextension_defect(fh)
            assert abs(defect - (2.0 / 3.0) * cubed.real) < 1e-9
            assert abs(abs(defect) - (2.0 / 3.0) * abs(cubed)) < 1e-9
            found_nonzero |= abs(cubed) > 1e-6
        assert found_nonzero

    def test_term_by_term_expansion_oracle(self):
        # brute-force check of Im<e_dual, e^{-2i delta} e> against the
        # pairing expansion on the 4-step configuration
        h = random_hodge_tate([1, 1, 1, 1], seed=6)
        fh = random_framing(h, np.random.default_rng(17), a_level=0, b_level=3)
        pairings = [delta_pairing(fh, r) for r in range(0, 8)]
        assert delta_pairing(fh, np.int64(3)) == pairings[3]
        total = sum((-2j) ** k / math.factorial(k) * pairings[k]
                    for k in range(len(pairings)))
        assert abs(height1(fh) - total.imag) < 1e-10
        # odd-order pairings are real, so the imaginary part collapses to
        # -2<d> + (4/3)<d^3> - (4/15)<d^5> ...
        expanded = (-2 * pairings[1].real + (4.0 / 3.0) * pairings[3].real
                    - (4.0 / 15.0) * pairings[5].real)
        assert abs(height1(fh) - expanded) < 1e-10


    @pytest.mark.parametrize("power", [-1, 1.5, 2.0, "2", None])
    def test_delta_pairing_needs_a_non_negative_integer_power(self, power):
        # -1 is not read as the power-0 pairing, nor 1.5 as a TypeError
        h = random_hodge_tate([1, 1, 1], seed=6)
        fh = random_framing(h, np.random.default_rng(17))
        with pytest.raises(ValueError, match="non-negative integer power"):
            delta_pairing(fh, power)


def _delta_power_vector(fh, power):
    from hodgeheights.deligne import delta_splitting
    el = frame_elements(fh)
    delta = delta_splitting(fh.mhs).delta
    return np.linalg.matrix_power(delta, power) @ el.e_h


class TestFramedMorphisms:
    def test_identity_map(self):
        h = random_hodge_tate([1, 1, 1], seed=8)
        fh = random_framing(h, np.random.default_rng(5))
        report = framed_morphism_check(np.eye(3), fh, fh)
        assert report.is_framed_morphism
        assert report.height_invariance_error < 1e-12

    def test_extra_rational_lowering_isomorphism(self):
        # a rational block-lowering exponential e^mu is an isomorphism of
        # rational structures (F, W) -> (e^mu F, W) fixing the graded
        # classes, so it is a framed morphism and heights agree
        _, _, twisted = random_hodge_tate_pair([1, 1, 1, 1], seed=13)
        rng = np.random.default_rng(3)
        fh_src = random_framing(twisted, rng)
        mu = np.zeros((4, 4))
        mu[np.tril_indices(4, -1)] = rng.integers(-4, 5, size=6) / 2.0
        g = nilpotent_exp(mu)
        target_h = MixedHodgeStructure(
            4, twisted.weight_filtration,
            {p: (g @ arr.T).T for p, arr in twisted.hodge_filtration.items()})
        fh_dst = FramedMHS(target_h, fh_src.a, fh_src.b,
                           tuple(g.real @ [float(x) for x in fh_src.phi_class]),
                           fh_src.psi_class)
        report = framed_morphism_check(g, fh_src, fh_dst)
        assert report.is_framed_morphism
        assert report.height_invariance_error < 1e-9

    def test_complex_lowering_is_not_a_rational_morphism(self):
        # a complex e^mu preserves W and F but not the Betti structure;
        # the checker must flag it (its "heights" genuinely differ)
        from hodgeheights.mhs import random_lowering
        _, _, twisted = random_hodge_tate_pair([1, 1, 1], seed=13)
        fh_src = random_framing(twisted, np.random.default_rng(4))
        mu = random_lowering([1, 1, 1], seed=99, scale=0.5)
        g = nilpotent_exp(mu)
        target_h = MixedHodgeStructure(
            3, twisted.weight_filtration,
            {p: (g @ arr.T).T for p, arr in twisted.hodge_filtration.items()})
        fh_dst = FramedMHS(target_h, fh_src.a, fh_src.b,
                           fh_src.phi_class, fh_src.psi_class)
        report = framed_morphism_check(g, fh_src, fh_dst)
        assert report.weight_preserved and report.hodge_preserved
        assert not report.rational_structure_preserved
        assert not report.is_framed_morphism

    def test_scaled_framing_correspondence(self):
        h = random_hodge_tate([1, 1, 1], seed=25)
        rng = np.random.default_rng(8)
        fh = random_framing(h, rng)
        m1, m2 = 3, 2
        scaled = FramedMHS(h, fh.a, fh.b,
                           tuple(m1 * x for x in fh.phi_class),
                           tuple(Fraction(x, m2) for x in fh.psi_class))
        report = framed_morphism_check(np.eye(3), fh, scaled, m1=m1, m2=m2)
        assert report.is_framed_morphism
        assert report.height_invariance_error < 1e-9

    def test_heights_invariant_under_rational_base_change(self):
        # a unimodular integer change of coordinates is an isomorphism of
        # framed structures; nothing downstream may depend on the weight
        # bases being standard flags
        h = random_hodge_tate([1, 1, 1, 1], seed=40)
        fh = random_framing(h, np.random.default_rng(6))
        g = np.array([[1, 0, 0, 0],
                      [2, 1, 0, 0],
                      [-1, 3, 1, 0],
                      [0, -2, 5, 1]], dtype=float)
        g_inv = np.linalg.inv(g)
        weight = {k: [[Fraction(x).limit_denominator(10**9)
                       for x in (g @ [float(v) for v in row])]
                      for row in rows]
                  for k, rows in h.weight_filtration.items()}
        hodge = {p: (g @ arr.T).T for p, arr in h.hodge_filtration.items()}
        moved = MixedHodgeStructure(4, weight, hodge)
        fh_moved = FramedMHS(
            moved, fh.a, fh.b,
            tuple(Fraction(x).limit_denominator(10**9)
                  for x in g @ [float(v) for v in fh.phi_class]),
            tuple(Fraction(x).limit_denominator(10**9)
                  for x in g_inv.T @ [float(v) for v in fh.psi_class]))
        report = framed_morphism_check(g, fh, fh_moved)
        assert report.is_framed_morphism
        assert abs(height1(fh_moved) - height1(fh)) < 1e-9
        assert abs(height2(fh_moved) - height2(fh)) < 1e-9

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2), (2,), (2, 3, 1)])
    def test_map_of_the_wrong_shape_is_rejected(self, shape):
        # f maps the rank-3 source to the rank-2 target: both shapes are named
        source = random_framing(random_hodge_tate([1, 1, 1], seed=8), np.random.default_rng(5))
        target = random_framing(random_hodge_tate([1, 1], seed=30), np.random.default_rng(2))
        with pytest.raises(DimensionMismatch, match=rf"{re.escape(str(shape))}.*\(2, 3\)"):
            framed_morphism_check(np.zeros(shape), source, target)

    def test_non_morphism_detected(self):
        h = random_hodge_tate([1, 1], seed=30)
        fh = random_framing(h, np.random.default_rng(2))
        raiser = np.array([[0, 1], [0, 0]], dtype=complex)  # raises weight
        report = framed_morphism_check(raiser, fh, fh)
        assert not report.weight_preserved
        assert not report.is_framed_morphism
