import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hodgeheights import cli, deligne, framed, jsonio, polylog
from hodgeheights.deligne import NumericalDegeneracy, ResidualTooLarge
from hodgeheights.framed import FramingTypeError, RealityViolation
from hodgeheights.jsonio import (ParseError, format_complex, format_fraction,
                                 mhs_to_document, parse_complex,
                                 parse_fraction, parse_mhs_document,
                                 parse_sweep_spec)
from hodgeheights.mhs import (InvalidMHS, MixedHodgeStructure, ValidationReport,
                              Violation, random_hodge_tate_pair, require_valid, tate,
                              validate)
from hodgeheights.polylog import (NonConvergent, PathThroughSingularity,
                                  PolylogContext, TruncationOutOfRange, polylog_framed,
                                  polylog_mhs)

from conftest import random_framing
from oracles import SHEAR, sheared, sheared_class, sheared_covector


class TestScalarFormats:
    def test_fraction_round_trip(self):
        for x in (Fraction(3, 4), Fraction(-7), Fraction(0), Fraction(22, 7)):
            assert parse_fraction(format_fraction(x)) == x

    def test_fraction_rejects_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_fraction("1/0")

    def test_fraction_rejects_floats(self):
        with pytest.raises(ParseError):
            parse_fraction(0.5)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_complex_round_trip_is_bit_exact(self, re, im):
        z = complex(re, im)
        assert parse_complex(format_complex(z)) == z

    def test_complex_forms(self):
        assert parse_complex("1.5") == 1.5
        assert parse_complex("2i") == 2j
        assert parse_complex("-i") == -1j
        assert parse_complex("1e-05+2e-06i") == complex(1e-05, 2e-06)
        assert parse_complex("3-4i") == 3 - 4j
        with pytest.raises(ParseError):
            parse_complex("fish")


def assert_round_trip_heights(h, fh):
    """fh's document parses to one that re-emits its bytes, with heights
    equal, bit for bit, to those of h rebuilt from its rows by jump (both
    take Deligne's formula); fh's flag hands its pieces over, so its own
    heights agree to the bound of `test_mhs.assert_flag_matches_rows`."""
    doc = json.dumps(mhs_to_document(h, fh))
    h2, fh2 = parse_mhs_document(doc)
    assert json.dumps(mhs_to_document(h2, fh2)) == doc
    rows = MixedHodgeStructure(h.dimension, h.weight_filtration, h.hodge_filtration)
    rebuilt = framed.FramedMHS(rows, fh.a, fh.b, fh.phi_class, fh.psi_class)
    parsed, mine, flag = ((framed.height1(g), framed.height2(g)) for g in (fh2, rebuilt, fh))
    assert parsed == mine
    scale = max(map(abs, flag))
    np.testing.assert_allclose(parsed, flag, rtol=0, atol=1e-12 * scale + 1e-15)


class TestDocuments:
    def test_tate_document_round_trip(self):
        doc = mhs_to_document(tate(0))
        h, fr = parse_mhs_document(doc)
        assert fr is None
        assert h.dimension == 1
        assert h.weight_jumps == [0] and h.hodge_jumps == [0]

    def test_round_trip_preserves_subspaces_and_rationals(self):
        _, _, h = random_hodge_tate_pair([1, 2, 1], seed=6)
        doc = json.dumps(mhs_to_document(h))
        h2, _ = parse_mhs_document(doc)
        assert h2.weight_filtration == h.weight_filtration
        for p in h.hodge_jumps:
            assert np.array_equal(h2.hodge_filtration[p], h.hodge_filtration[p])

    def test_polylog_document_round_trips_the_weight_rows(self):
        # H(z) hands W over as its frame; the document writes W_-2k as the
        # unit rows e_k..e_N in that order, and reads back to the same rows
        # and the same frame
        h = polylog_mhs(PolylogContext(0.3 + 0.2j, 6))
        doc = json.loads(json.dumps(mhs_to_document(h)))
        assert [item["basis"] for item in doc["weight_filtration"]] == [
            [["1" if c == r else "0" for c in range(7)] for r in range(k, 7)]
            for k in range(6, -1, -1)]
        h2, _ = parse_mhs_document(doc)
        assert h2.weight_filtration == h.weight_filtration
        assert h2.weight_frame == h.weight_frame

    def test_framed_round_trip_heights_bit_exact(self):
        _, _, h = random_hodge_tate_pair([1, 1, 1], seed=9)
        fh = random_framing(h, np.random.default_rng(2))
        assert_round_trip_heights(h, fh)

    def test_sheared_document_is_the_framed_one_moved(self):
        # polylog-sheared.json is polylog-framed.json moved by the exact
        # unipotent change of basis SHEAR, framing classes too: its W rows
        # are not unit vectors, so its W_k take the QR and its classes the
        # elimination.  Same verdict and pieces, the same heights to 1e-12
        h, fh = parse_mhs_document((EXAMPLES / "polylog-framed.json").read_text())
        text = (EXAMPLES / "polylog-sheared.json").read_text()
        hs, fs = parse_mhs_document(text)
        moved = framed.FramedMHS(sheared(h, SHEAR), fh.a, fh.b, sheared_class(SHEAR, fh.phi_class),
                                 sheared_covector(SHEAR, fh.psi_class))
        assert json.loads(text) == mhs_to_document(moved.mhs, moved)
        assert h.weight_frame.coordinate and not hs.weight_frame.coordinate
        assert validate(hs).describe() == validate(h).describe() == "valid"
        assert deligne.bigrading(hs).piece_dims() == deligne.bigrading(h).piece_dims()
        heights = [(framed.height1(g), framed.height2(g)) for g in (fh, fs)]
        np.testing.assert_allclose(heights[1], heights[0], rtol=0, atol=1e-12)

    def test_parse_error_reports_path(self):
        doc = mhs_to_document(tate(0))
        doc["weight_filtration"][0]["basis"][0][0] = "1/0"
        with pytest.raises(ParseError) as err:
            parse_mhs_document(doc)
        assert "weight_filtration[0]" in str(err.value)

    def test_invalid_structure_reported(self):
        doc = {
            "dimension": 2,
            "weight_filtration": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
            "hodge_filtration": [{"p": 0, "basis": [["1", "0"], ["0", "1"]]},
                                 {"p": 1, "basis": [["1", "1i"]]}],
        }
        h, _ = parse_mhs_document(doc)  # parsing does not validate
        with pytest.raises(InvalidMHS) as err:
            require_valid(h)
        assert "purity" in str(err.value)


@pytest.fixture
def tate_file(tmp_path):
    path = tmp_path / "tate.json"
    path.write_text(json.dumps(mhs_to_document(tate(0))))
    return str(path)


@pytest.fixture
def purity_violating_file(tmp_path):
    doc = {
        "dimension": 2,
        "weight_filtration": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
        "hodge_filtration": [{"p": 0, "basis": [["1", "0"], ["0", "1"]]},
                             {"p": 1, "basis": [["1", "1i"]]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def framed_split_file(tmp_path):
    _, _, h = random_hodge_tate_pair([1, 1], seed=0, real=True)
    fh = random_framing(h, np.random.default_rng(1))
    path = tmp_path / "framed.json"
    path.write_text(json.dumps(mhs_to_document(h, fh)))
    return str(path)


class TestCli:
    def test_validate_ok(self, tate_file, capsys):
        assert cli.main(["validate", tate_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_purity_violation(self, purity_violating_file, capsys):
        assert cli.main(["validate", purity_violating_file]) == 2
        assert "purity" in capsys.readouterr().out

    def test_missing_file_is_io_error(self):
        assert cli.main(["validate", "/nonexistent/thing.json"]) == 5

    def test_splitting_split_structure_has_zero_delta(self, framed_split_file,
                                                      capsys):
        assert cli.main(["splitting", framed_split_file]) == 0
        out = json.loads(capsys.readouterr().out)
        delta = np.array([[jsonio.parse_complex(x) for x in row]
                          for row in out["delta"]])
        assert np.linalg.norm(delta) < 1e-12
        assert out["diagnostics"]["defining_residual"] < 1e-9

    def test_splitting_invalid_doc(self, purity_violating_file):
        assert cli.main(["splitting", purity_violating_file]) == 2

    def test_splitting_polylog_matches_closed_form(self, tmp_path, capsys):
        from hodgeheights.polylog import delta_closed_form
        ctx = PolylogContext(0.3 + 0.2j, N=4)
        h = polylog_mhs(ctx)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(mhs_to_document(h)))
        assert cli.main(["splitting", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        delta = np.array([[jsonio.parse_complex(x) for x in row]
                          for row in out["delta"]])
        assert np.linalg.norm(delta - delta_closed_form(ctx)) < 1e-9

    def test_height_r_split_is_zero(self, framed_split_file, capsys):
        assert cli.main(["height", framed_split_file, "--which", "both"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["ht1"]) < 1e-12 and abs(out["ht2"]) < 1e-12

    def test_height_without_framing_is_usage_error(self, tate_file):
        assert cli.main(["height", tate_file]) == 4

    def test_height_which_selects_fields(self, framed_split_file, capsys):
        assert cli.main(["height", framed_split_file, "--which", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "ht1" in out and "ht2" not in out
        assert cli.main(["height", framed_split_file, "--which", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "ht2" in out and "ht1" not in out

    def test_splitting_out_file(self, framed_split_file, tmp_path):
        target = tmp_path / "split.json"
        assert cli.main(["splitting", framed_split_file,
                         "--out", str(target)]) == 0
        data = json.loads(target.read_text())
        assert {"pieces", "Y", "delta", "delta_components",
                "diagnostics"} <= set(data)

    def test_polylog_emit_json_reparses_to_same_heights(self, capsys):
        assert cli.main(["polylog", "--z", "0.3+0.2i", "--N", "4",
                         "--a", "0", "--b", "2", "--emit-json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        direct = polylog_framed(PolylogContext(0.3 + 0.2j, N=4), 0, 2)
        assert doc == mhs_to_document(direct.mhs, direct)
        assert_round_trip_heights(direct.mhs, direct)

    def test_polylog_single_point_csv(self, tmp_path):
        out = tmp_path / "row.csv"
        assert cli.main(["polylog", "--z", "0.3+0.2i", "--N", "3",
                         "--a", "0", "--b", "2", "--csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(cli.CSV_COLUMNS)
        assert len(lines) == 2

    def test_sweep_deterministic(self, tmp_path):
        spec = {"grid": ["0.3+0.2i"], "N": 3, "framings": [[0, 1], [0, 2]]}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        runs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli.main(["polylog", "--sweep", str(spec_path),
                             "--csv", str(out)]) == 0
            runs.append(out.read_text())
        assert runs[0] == runs[1]
        lines = runs[0].strip().splitlines()
        assert len(lines) == 3  # header + one row per framing

    def test_sweep_columns_respect_pipeline_tolerances(self, tmp_path):
        spec = {"grid": ["0.3+0.2i", "-0.4+0.6i", "0.7-0.5i"], "N": 4,
                "framings": [[0, 1], [0, 3], [1, 2], [2, 4]]}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "grid.csv"
        assert cli.main(["polylog", "--sweep", str(spec_path),
                         "--csv", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 12
        for row in rows:
            cells = dict(zip(cli.CSV_COLUMNS, row.split(",")))
            assert float(cells["delta_residual"]) < 1e-9
            assert (abs(float(cells["ht1_pipeline"]) - float(cells["ht1_closed"]))
                    < 1e-8)
            assert (abs(float(cells["ht2_pipeline"])
                        - float(cells["ht2_closed"])) < 1e-8)

    def test_shipped_example_documents_work(self, capsys):
        from pathlib import Path
        examples = Path(__file__).parent.parent / "docs" / "examples"
        assert cli.main(["validate", str(examples / "tate0.json")]) == 0
        capsys.readouterr()
        assert cli.main(["height", str(examples / "polylog-framed.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        # base framing of the shipped document satisfies ht2 = -ht1/2
        assert abs(out["ht2"] + 0.5 * out["ht1"]) < 1e-9

    def test_cold_start_imports_no_masked_arrays(self):
        # a fresh interpreter splits H(z) and a shipped document without
        # importing numpy.ma (np.unique, counting delta's weights, did)
        code = ("import sys\n"
                "from hodgeheights import cli, deligne, polylog\n"
                "h = polylog.polylog_mhs(polylog.PolylogContext(0.3 + 0.2j, 6))\n"
                "deligne.delta_splitting(h)\n"
                "assert cli.main(['splitting', sys.argv[1]]) == 0\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        run = subprocess.run([sys.executable, "-c", code, str(EXAMPLES / "polylog-framed.json")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_formula_example_is_not_hodge_tate(self, capsys):
        # the shipped document that keeps Deligne's general formula in use
        from test_deligne import curve_weight_gap_structure

        from hodgeheights import mhs
        h, _ = parse_mhs_document((EXAMPLES / "curve-weight-gap.json").read_text())
        assert mhs_to_document(h) == mhs_to_document(curve_weight_gap_structure())
        # a document gives F by jump, so it has no Hodge--Tate candidates;
        # Deligne's formula finds pieces of type (0,-2) and (-2,0)
        assert mhs._hodge_tate_candidates(h) is None
        assert mhs.validate(h).ok and {(0, -2), (-2, 0)} <= set(mhs._pieces(h).pieces)
        assert cli.main(["validate", str(EXAMPLES / "curve-weight-gap.json")]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_degenerate_framing_warns_once(self, tmp_path, capsys):
        # four height functions warn on an (a, a) framing; the CLI says it once
        path = tmp_path / "aa.json"
        path.write_text(json.dumps(_framed_example(a=0, b=0, psi=["1", "0", "0", "0"])))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert cli.main(["height", str(path)]) == 0
        assert capsys.readouterr().err == (
            "warning: height of an (a,a)-framed structure is degenerate\n")

    @pytest.mark.parametrize("command", ["height", "splitting"])
    def test_document_is_validated_once(self, command, monkeypatch, capsys):
        from pathlib import Path

        from hodgeheights import mhs
        seen = []
        validate = mhs.validate

        def counted(h):
            seen.append(h)
            return validate(h)

        # every module-level binding of validate, so no call path is missed
        for module in (mhs, jsonio, cli):
            if getattr(module, "validate", None) is validate:
                monkeypatch.setattr(module, "validate", counted)
        doc = Path(__file__).parent.parent / "docs" / "examples" / "polylog-framed.json"
        assert cli.main([command, str(doc)]) == 0
        assert len(seen) == 1

    def test_sweep_rejects_singular_grid_point(self, tmp_path):
        spec = {"grid": ["1", "0.3"], "N": 2, "framings": [[0, 1]]}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["polylog", "--sweep", str(spec_path)]) == 2

    def test_sweep_rejects_cut_point_under_principal_policy(self, tmp_path):
        spec = {"grid": ["-0.5"], "N": 2, "framings": [[0, 1]]}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["polylog", "--sweep", str(spec_path)]) == 2

    @pytest.mark.parametrize("n, framing", [(4, [2, 2]), (4, [1, 5]), (4, [1]),
                                            (0, [0, 1])],
                             ids=["a_not_below_b", "b_above_N", "not_a_pair",
                                  "N_zero"])
    def test_sweep_rejects_bad_spec(self, tmp_path, capsys, n, framing):
        spec = {"grid": ["0.3+0.2i"], "N": n, "framings": [[0, 1], framing]}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["polylog", "--sweep", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("spec", [
        [1, 2],
        {"grid": {"re": [0.1, 0.5], "im": [0.1, 0.3], "resolution": ["a", 2]},
         "N": 2, "framings": [[0, 1]]},
        {"grid": {"re": ["x", 0.5], "im": [0.1, 0.3], "resolution": [2, 2]},
         "N": 2, "framings": [[0, 1]]},
        {"grid": ["0.3+0.2i", "x"], "N": 2, "framings": [[0, 1]]},
        {"grid": ["0.3+0.2i", "nan+0.2i"], "N": 2, "framings": [[0, 1]]},
        {"grid": [float("nan")], "N": 2, "framings": [[0, 1]]},
        {"grid": {"re": [0.1, float("nan")], "im": [0.1, 0.3], "resolution": [1, 1]},
         "N": 2, "framings": [[0, 1]]},
        {"grid": {"re": [0.1, 0.5], "im": [float("-inf"), 0.3], "resolution": [2, 2]},
         "N": 2, "framings": [[0, 1]]},
    ], ids=["not_an_object", "resolution_not_integer", "bound_not_number",
            "point_not_complex", "point_not_finite", "json_nan_point",
            "bound_nan", "bound_infinite"])
    def test_sweep_rejects_malformed_spec(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["polylog", "--sweep", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_usage_errors(self, tmp_path):
        assert cli.main(["polylog"]) == 4
        assert cli.main(["polylog", "--z", "0.3", "--a", "1"]) == 4
        spec_path = tmp_path / "s.json"
        spec_path.write_text("{}")
        assert cli.main(["polylog", "--sweep", str(spec_path),
                         "--z", "0.2"]) == 4

    @pytest.mark.parametrize("z", ["nan+0.2i", "inf+0i", "0.3+nani"])
    def test_single_point_non_finite_is_usage(self, z, capsys):
        assert cli.main(["polylog", "--z", z, "--N", "2"]) == 4
        assert "finite" in capsys.readouterr().err

    def test_single_point_numerical_exit_code(self):
        assert cli.main(["polylog", "--z", "0", "--N", "2",
                         "--a", "0", "--b", "1"]) == 3

    def test_single_point_bad_framing_is_usage(self):
        assert cli.main(["polylog", "--z", "0.3", "--N", "2",
                         "--a", "1", "--b", "1"]) == 4


EXAMPLES = Path(__file__).parent.parent / "docs" / "examples"


def _replaced(doc, keys, value):
    """doc with the entry at the key path `keys` set to value."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return doc


class TestInputRejections:
    """Malformed documents are parse errors at their JSON path and malformed
    sweep specs are rejected, both with exit 2: never a traceback or a
    silently coerced or ignored value."""

    @staticmethod
    def assert_parse_error(tmp_path, capsys, doc, json_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: parse error: {json_path}: ")

    @pytest.mark.parametrize("keys, json_path", [
        (("weight_filtration",), "$.weight_filtration"),
        (("hodge_filtration",), "$.hodge_filtration"),
        (("weight_filtration", 0, "basis"), "$.weight_filtration[0].basis"),
        (("hodge_filtration", 0, "basis"), "$.hodge_filtration[0].basis"),
        (("comparison_matrix",), "$.comparison_matrix"),
    ], ids=["weight_filtration", "hodge_filtration", "weight_basis", "hodge_basis",
            "comparison_matrix"])
    @pytest.mark.parametrize("value", [5, "1", {"0": ["1"]}],
                             ids=["number", "string", "object"])
    def test_container_that_is_not_a_list(self, tmp_path, capsys, keys, json_path, value):
        doc = _replaced(mhs_to_document(tate(0)), keys, value)
        self.assert_parse_error(tmp_path, capsys, doc, json_path)

    @pytest.mark.parametrize("keys, value, json_path", [
        (("dimension",), "1", "$.dimension"),
        (("dimension",), True, "$.dimension"),
        (("dimension",), 1.7, "$.dimension"),
        (("weight_filtration", 0, "weight"), True, "$.weight_filtration[0].weight"),
        (("weight_filtration", 0, "weight"), False, "$.weight_filtration[0].weight"),
        (("hodge_filtration", 0, "p"), False, "$.hodge_filtration[0].p"),
        (("framing", "a"), False, "$.framing.a"),
        (("framing", "b"), -2.0, "$.framing.b"),
    ], ids=["dimension_string", "dimension_bool", "dimension_float", "weight_true",
            "weight_false", "p_bool", "framing_a_bool", "framing_b_float"])
    def test_integer_field_that_is_not_an_integer(self, tmp_path, capsys,
                                                  keys, value, json_path):
        base = json.loads((EXAMPLES / "polylog-framed.json").read_text())
        self.assert_parse_error(tmp_path, capsys, _replaced(base, keys, value), json_path)

    @pytest.mark.parametrize("policy", ["foo", "", None, 1, ["principal"]],
                             ids=["unknown", "empty", "null", "number", "list"])
    def test_sweep_path_policy_other_than_principal(self, tmp_path, capsys,
                                                    monkeypatch, policy):
        def no_evaluation(ctx):
            raise AssertionError("a grid point was evaluated")

        monkeypatch.setattr(cli, "_delta_residual", no_evaluation)
        # 2 lies on the cut [1, inf): no policy may skip the cut check
        spec = {"grid": ["2"], "N": 2, "framings": [[0, 1]],
                "path_policy": policy}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["polylog", "--sweep", str(spec_path)]) == 2
        assert "path_policy" in capsys.readouterr().err

    @pytest.mark.parametrize("bases", [([["1"]], []), ([], [["1"]])],
                             ids=["full_first", "empty_first"])
    def test_repeated_weight_jump(self, tmp_path, capsys, bases):
        # whichever entry came last used to win, so one order was valid
        doc = mhs_to_document(tate(0))
        doc["weight_filtration"] = [{"weight": 0, "basis": basis} for basis in bases]
        self.assert_parse_error(tmp_path, capsys, doc, "$.weight_filtration[1].weight")

    def test_repeated_hodge_jump(self, tmp_path, capsys):
        doc = json.loads((EXAMPLES / "polylog-framed.json").read_text())
        doc["hodge_filtration"].append(dict(doc["hodge_filtration"][1]))
        n = len(doc["hodge_filtration"])
        self.assert_parse_error(tmp_path, capsys, doc, f"$.hodge_filtration[{n - 1}].p")

    @pytest.mark.parametrize("keys, json_path", [
        ((), "$.comment"),
        (("weight_filtration", 0), "$.weight_filtration[0].comment"),
        (("hodge_filtration", 1), "$.hodge_filtration[1].comment"),
        (("framing",), "$.framing.comment"),
    ], ids=["document", "weight_entry", "hodge_entry", "framing"])
    def test_unknown_document_key(self, tmp_path, capsys, keys, json_path):
        doc = json.loads((EXAMPLES / "polylog-framed.json").read_text())
        target = doc
        for key in keys:
            target = target[key]
        target["comment"] = "x"
        self.assert_parse_error(tmp_path, capsys, doc, json_path)

    def test_top_level_list(self, tmp_path, capsys):
        self.assert_parse_error(tmp_path, capsys, [mhs_to_document(tate(0))], "$")
        assert "expected an object" in str(pytest.raises(
            ParseError, parse_mhs_document, "[]").value)

    @pytest.mark.parametrize("key, field", [("weight_filtration", "basis"),
                                            ("hodge_filtration", "basis"),
                                            ("weight_filtration", "weight"),
                                            ("hodge_filtration", "p")])
    def test_filtration_item_without_a_key(self, tmp_path, capsys, key, field):
        doc = json.loads((EXAMPLES / "polylog-framed.json").read_text())
        del doc[key][1][field]
        self.assert_parse_error(tmp_path, capsys, doc, f"$.{key}[1].{field}")

    @pytest.mark.parametrize("key", ["weight_filtration", "hodge_filtration"])
    def test_missing_filtration(self, tmp_path, capsys, key):
        # the schema requires both; an absent one is not an empty filtration
        doc = mhs_to_document(tate(0))
        del doc[key]
        self.assert_parse_error(tmp_path, capsys, doc, f"$.{key}")

    @pytest.mark.parametrize("keys, json_path", [
        (("hodge_filtration", 0, "basis", 0), "$.hodge_filtration[0].basis[0][0]"),
        (("comparison_matrix", 0), "$.comparison_matrix[0][0]"),
    ], ids=["hodge_basis", "comparison_matrix"])
    def test_complex_entry_too_large_for_a_float(self, tmp_path, capsys, keys, json_path):
        doc = _replaced(mhs_to_document(tate(0)), keys, [-10**400])
        self.assert_parse_error(tmp_path, capsys, doc, json_path)
        with pytest.raises(ParseError, match="too large for a float"):
            parse_complex(10**400)

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # Python's int digit limit makes such JSON unreadable, where it applies
        doc = _replaced(mhs_to_document(tate(0)), ("hodge_filtration", 0, "basis", 0),
                        ["1" * 5000])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc).replace('"' + "1" * 5000 + '"', "1" * 5000))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: parse error: $")

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_dimension_below_one(self, tmp_path, capsys, dimension):
        doc = {"dimension": dimension, "weight_filtration": [], "hodge_filtration": []}
        self.assert_parse_error(tmp_path, capsys, doc, "$.dimension")

    @pytest.mark.parametrize("rows", [[["1"], ["2"], ["3"]], []], ids=["3x1", "0x1"])
    def test_comparison_matrix_not_square(self, tmp_path, capsys, rows):
        doc = _replaced(mhs_to_document(tate(0)), ("comparison_matrix",), rows)
        self.assert_parse_error(tmp_path, capsys, doc, "$.comparison_matrix")

    @pytest.mark.parametrize("spec, json_path", [
        ({"grid": ["0.3+0.2i"], "N": 2, "framings": [[0, 1]], "path_polcy": "x"},
         "$.path_polcy"),
        ({"grid": {"re": [0.1, 0.5], "im": [0.1, 0.3], "resolution": [1, 1],
                   "resolutoin": 3}, "N": 2, "framings": [[0, 1]]},
         "$.grid.resolutoin"),
    ], ids=["spec", "grid"])
    def test_unknown_sweep_key(self, tmp_path, capsys, monkeypatch, spec, json_path):
        def no_evaluation(ctx):
            raise AssertionError("a grid point was evaluated")

        monkeypatch.setattr(cli, "_delta_residual", no_evaluation)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["polylog", "--sweep", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: parse error: {json_path}: ")


def _run_sweep(tmp_path, spec):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return cli.main(["polylog", "--sweep", str(spec_path)])


class TestSweepSpec:
    def test_parsed_spec(self):
        points, n, framings = parse_sweep_spec(json.dumps(
            {"grid": {"re": [0.1, 0.5], "im": [0.1, 0.3], "resolution": [2, 3]},
             "framings": [[0, 1], [1, 3]]}))
        assert n == 6  # the schema's default
        assert framings == [(0, 1), (1, 3)]
        # row by row: real part fastest
        assert points == [complex(x, y) for y in (0.1, 0.2, 0.3) for x in (0.1, 0.5)]

    @pytest.mark.parametrize("spec, json_path", [
        ("{oops", "$"),
        ([1, 2], "$"),
        ({"N": 2, "framings": [[0, 1]]}, "$.grid"),
        ({"grid": ["0.3"], "N": 2}, "$.framings"),
        ({"grid": ["0.3"], "N": 2, "framings": []}, "$.framings"),
        ({"grid": ["0.3"], "N": 2.0, "framings": [[0, 1]]}, "$.N"),
        ({"grid": ["0.3"], "N": 0, "framings": [[0, 1]]}, "$.N"),
        ({"grid": ["0.3"], "N": 2, "framings": [[0, 1], [1, 1]]}, "$.framings[1]"),
        ({"grid": ["0.3"], "N": 2, "framings": [[0, 1], [1]]}, "$.framings[1]"),
        ({"grid": ["0.3"], "N": 2, "framings": [[0, True]]}, "$.framings[0][1]"),
        ({"grid": "0.3", "N": 2, "framings": [[0, 1]]}, "$.grid"),
        ({"grid": ["0.3", "x"], "N": 2, "framings": [[0, 1]]}, "$.grid[1]"),
        ({"grid": ["0.3", "nan+0.2i"], "N": 2, "framings": [[0, 1]]}, "$.grid[1]"),
        ({"grid": ["1"], "N": 2, "framings": [[0, 1]]}, "$.grid[0]"),
        ({"grid": ["-0.5"], "N": 2, "framings": [[0, 1]]}, "$.grid[0]"),
        ({"grid": {"re": [0.1, 0.5], "im": [0.1, 0.3]}, "N": 2, "framings": [[0, 1]]},
         "$.grid.resolution"),
        ({"grid": {"re": [0.1], "im": [0.1, 0.3], "resolution": [2, 2]}, "N": 2,
          "framings": [[0, 1]]}, "$.grid.re"),
        ({"grid": {"re": [0.1, True], "im": [0.1, 0.3], "resolution": [2, 2]},
          "N": 2, "framings": [[0, 1]]}, "$.grid.re[1]"),
        ({"grid": {"re": [0.1, 0.5], "im": [0.1, 0.3], "resolution": [2.0, 2]},
          "N": 2, "framings": [[0, 1]]}, "$.grid.resolution[0]"),
        ({"grid": {"re": [0.1, 0.5], "im": [0.1, 0.3], "resolution": [2, 0]},
          "N": 2, "framings": [[0, 1]]}, "$.grid.resolution[1]"),
        ({"grid": {"re": [-1.0, -0.5], "im": [0.0, 0.0], "resolution": [2, 1]},
          "N": 2, "framings": [[0, 1]]}, "$.grid"),
        ({"grid": {"re": [0.1, 10**400], "im": [0.1, 0.3], "resolution": [2, 2]},
          "N": 2, "framings": [[0, 1]]}, "$.grid.re[1]"),
        ({"grid": [0.3, -10**400], "N": 2, "framings": [[0, 1]]}, "$.grid[1]"),
    ], ids=["not_json", "not_an_object", "no_grid", "no_framings", "empty_framings",
            "N_float", "N_zero", "framing_a_not_below_b", "framing_not_a_pair",
            "framing_bool", "grid_string", "point_not_complex", "point_not_finite",
            "point_singular", "point_on_cut", "rectangle_missing_key",
            "bounds_not_a_pair", "bound_bool", "resolution_float", "resolution_zero",
            "rectangle_point_on_cut", "bound_too_large", "point_too_large"])
    def test_rejection_names_its_json_path(self, tmp_path, capsys, monkeypatch,
                                           spec, json_path):
        def no_evaluation(ctx):
            raise AssertionError("a grid point was evaluated")

        monkeypatch.setattr(cli, "_delta_residual", no_evaluation)
        assert _run_sweep(tmp_path, spec) == 2
        assert capsys.readouterr().err.startswith(f"error: parse error: {json_path}: ")


class TestExitCodes:
    """Every typed failure a command raises leaves main with one documented
    exit code and stderr prefix."""

    @pytest.mark.parametrize("exc, code, message", [
        (ParseError("$.x", "bad"), 2, "error: parse error: $.x: bad"),
        (InvalidMHS(ValidationReport((Violation("weight", 1, "W_0 not in W_1"),))), 2,
         "error: invalid mixed Hodge structure:\n[weight@1] W_0 not in W_1"),
        (FramingTypeError("bad"), 2, "error: framing error: bad"),
        (NumericalDegeneracy("bad"), 3, "error: bad"),
        (ResidualTooLarge("bad"), 3, "error: bad"),
        (RealityViolation("bad"), 3, "error: bad"),
        (NonConvergent("bad"), 3, "error: bad"),
        (PathThroughSingularity("bad"), 3, "error: bad"),
        (cli.CliError(5, "bad"), 5, "error: bad"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_table(self, monkeypatch, capsys, exc, code, message):
        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_height", failing)
        assert cli.main(["height", "doc.json"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_polylog_failures_keep_the_table(self, monkeypatch, capsys):
        def failing(ctx):
            raise NonConvergent("bad")

        monkeypatch.setattr(cli, "_delta_residual", failing)
        assert cli.main(["polylog", "--z", "0.3+0.2i", "--N", "2"]) == 3
        assert capsys.readouterr().err == "error: bad\n"

    def test_rejected_polylog_structure_is_numerical(self, tmp_path, monkeypatch, capsys):
        # H(z) is built by the program, so failing validation is a numerical
        # failure (exit 3) in both modes.  No H(z) tried fails validation
        # (it validates at N = 32, 40 and 64), so a flag short of full rank
        # stands in for it
        from test_mhs import _degenerate_flag
        monkeypatch.setattr(polylog, "polylog_mhs", lambda ctx: _degenerate_flag("zero-generator"))
        assert cli.main(["polylog", "--z", "0.6-0.5i", "--N", "32"]) == 3
        single = capsys.readouterr().err
        assert _run_sweep(tmp_path, {"grid": ["0.6-0.5i"], "N": 32,
                                     "framings": [[0, 1]]}) == 3
        sweep = capsys.readouterr().err
        assert single == sweep
        assert single.startswith("error: invalid mixed Hodge structure:\n")
        assert "bottom Hodge subspace is not full" in single

    def test_polylog_at_thirty_two_is_accepted(self, capsys):
        # with the exact triangular A(z)^{-1} the Hodge flag of H(0.6-0.5i)
        # keeps its rank at N = 32, where an LU inverse lost it
        assert cli.main(["polylog", "--z", "0.6-0.5i", "--N", "32", "--a", "0", "--b", "32"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta_residual"] < 1e-12
        for which in ("ht1", "ht2"):
            assert abs(out[which] - out[which + "_closed"]) <= 1e-9 * abs(out[which + "_closed"])

    def test_polylog_at_twelve_is_accepted(self, capsys):
        # F's generators scale like (2 pi)^-k; scaled to unit norm, the
        # Hodge flag of H(0.3+0.2i) keeps its rank at N = 12
        assert cli.main(["polylog", "--z", "0.3+0.2i", "--N", "12",
                         "--a", "0", "--b", "12"]) == 0
        out = json.loads(capsys.readouterr().out)
        for which in ("ht1", "ht2"):
            assert abs(out[which] - out[which + "_closed"]) <= 1e-9 * abs(out[which + "_closed"])

    def test_n_past_float_range_is_usage(self, tmp_path, capsys):
        # (2 pi i)^N leaves float range past N = 386: rejected, in both
        # modes, through EXIT_CODES and before any transport
        assert cli.EXIT_CODES[TruncationOutOfRange] == (cli.EXIT_USAGE, "")
        assert cli.main(["polylog", "--z", "0.3+0.2i", "--N", "390",
                         "--a", "0", "--b", "390"]) == 4
        single = capsys.readouterr().err
        assert _run_sweep(tmp_path, {"grid": ["0.3+0.2i"], "N": 390,
                                     "framings": [[0, 1]]}) == 4
        assert capsys.readouterr().err == single == (
            "error: N = 390 exceeds 386: column N of A(z) is (2 pi i)^N, beyond float range\n")

    def test_far_evaluation_point_is_numerical(self, capsys):
        # the path to 1e8+1i needs about 1.6e9 panels: rejected up front
        assert cli.main(["polylog", "--z", "1e8+1i", "--N", "4"]) == 3
        assert "PANEL_BUDGET" in capsys.readouterr().err


def _framed_example(**framing):
    doc = json.loads((EXAMPLES / "polylog-framed.json").read_text())
    doc["framing"].update(framing)
    return doc


class TestDocumentChecks:
    """Validity and framing type are checked after parsing, with exit 2."""

    def test_weight_filtration_not_nested(self, tmp_path, capsys):
        doc = {"dimension": 2,
               "weight_filtration": [{"weight": 0, "basis": [["1", "0"]]},
                                     {"weight": 1, "basis": [["0", "1"]]},
                                     {"weight": 2, "basis": [["1", "0"], ["0", "1"]]}],
               "hodge_filtration": [{"p": 0, "basis": [["1", "0"], ["0", "1"]]}]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == "[weight@1] W_0 not contained in W_1\n"

    def test_invalid_document_without_framing_is_invalid(self, purity_violating_file,
                                                         capsys):
        # validity is decided before the missing framing block (exit 4)
        assert cli.main(["height", purity_violating_file]) == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid mixed Hodge structure:\n")

    @pytest.mark.parametrize("framing, message", [
        ({"phi": ["0", "0", "0", "1"]}, "phi_class vanishes in Gr^W_0"),
        ({"psi": ["0", "0", "0", "1"]}, "psi_class does not vanish on W_-5"),
    ], ids=["phi_vanishes", "psi_not_vanishing"])
    def test_framing_type_error(self, tmp_path, capsys, framing, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_framed_example(**framing)))
        assert cli.main(["height", str(path)]) == 2
        assert capsys.readouterr().err == f"error: framing error: {message}\n"

    @staticmethod
    def _beyond_float_range(w_low, framing=None):
        # an entry of 1e400 is exact rational data that no float can hold
        doc = {"dimension": 2,
               "weight_filtration": [{"weight": -2, "basis": [w_low]},
                                     {"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
               "hodge_filtration": [{"p": -1, "basis": [["1", "0"], ["0", "1"]]},
                                    {"p": 0, "basis": [["1", "0.5+0.25i"]]}]}
        if framing is not None:
            doc["framing"] = framing
        return doc

    def test_weight_row_beyond_float_range_keeps_its_span(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self._beyond_float_range(["1", "1e400"])))
        assert cli.main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_frame_class_beyond_float_range(self, tmp_path, capsys):
        # the heights are bilinear in the frame classes: no rescaling helps
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self._beyond_float_range(
            ["0", "1"], {"a": 0, "b": -1, "phi": ["1e400", "0"], "psi": ["0", "1"]})))
        assert cli.main(["height", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: framing error: ")

    def test_frame_vector_of_wrong_length(self, tmp_path, capsys):
        # FramedMHS.check rejects a short frame vector, but a document cannot
        # carry one: the parser reports it at its path first
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_framed_example(phi=["1", "0", "0"])))
        assert cli.main(["height", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: parse error: $.framing.phi: expected 4 entries, got 3")


def _run(tmp_path, command, doc, *extra):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return cli.main([command, str(path), *extra])


class TestTypedFailurePaths:
    """Each typed failure raised where no well-formed example reaches it,
    and the exit code of the command that reaches it."""

    @staticmethod
    def nearly_dependent_pieces():
        # I^(-1,-1) = <e1> and I^(0,0) = F^0 = <e0 + 1e8 e1> are a direct sum
        # at the rank tolerance, with sigma_min 7.1e-9 below SUBSPACE_TOL
        return {"dimension": 2,
                "weight_filtration": [{"weight": -2, "basis": [["0", "1"]]},
                                      {"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
                "hodge_filtration": [{"p": -1, "basis": [["1", "0"], ["0", "1"]]},
                                     {"p": 0, "basis": [["1", "100000000"]]}]}

    def test_nearly_dependent_pieces_are_degenerate(self, tmp_path, capsys):
        h, _ = parse_mhs_document(self.nearly_dependent_pieces())
        assert validate(h).ok
        with pytest.raises(NumericalDegeneracy, match=r"sigma_min=7\.07e-09"):
            deligne.bigrading(h)
        assert _run(tmp_path, "splitting", self.nearly_dependent_pieces()) == 3
        assert "nearly dependent" in capsys.readouterr().err

    def test_imaginary_delta_is_rejected(self, tmp_path, capsys, monkeypatch):
        # h is R-split (delta = 0, Y real) with I^(0,0) of dim 2, bigrading
        # columns 0 and 1.  Z mapping column 1 to column 0 is nilpotent and
        # commutes with Y, so delta + i t Z leaves the defining equation
        # holding and only the reality residual sees it
        h = random_hodge_tate_pair([2, 1], seed=4, real=True)[2]
        solve, z = deligne._solve_delta, np.zeros((3, 3))
        z[0, 1] = 1.0
        monkeypatch.setattr(deligne, "_solve_delta", lambda b: solve(b) + 1e-6j
                            * (b.basis @ z @ b.inverse_basis))
        with pytest.raises(ResidualTooLarge, match="delta has imaginary part"):
            deligne.delta_splitting(h)
        assert _run(tmp_path, "splitting", mhs_to_document(h)) == 3
        assert "delta has imaginary part" in capsys.readouterr().err

    def test_imaginary_height2_is_a_reality_violation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(framed, "delta_pairing", lambda fh, power=1: 0.5 + 1e-3j)
        doc = json.loads((EXAMPLES / "polylog-framed.json").read_text())
        _, fh = parse_mhs_document(doc)
        with pytest.raises(RealityViolation, match="imaginary part 1.00e-03"):
            framed.height2(fh)
        assert _run(tmp_path, "height", doc, "--which", "2") == 3
        assert "height2 pairing has imaginary part" in capsys.readouterr().err

    @pytest.mark.parametrize("weight, hodge, kinds, message", [
        ({}, [{"p": 0, "basis": [["1", "0"], ["0", "1"]]}], ["weight"],
         "empty weight filtration"),
        ({0: [[1, 0], [0, 1]]}, [], ["hodge"], "empty Hodge filtration"),
        ({}, [], ["weight", "hodge"], "empty weight filtration"),
        ({0: [[1, 0], [0, 1]]}, [{"p": 0, "basis": [["1", "0"], ["nan", "1"]]}], ["data"],
         "non-finite Hodge entries"),
    ], ids=["empty_w", "empty_f", "both_empty", "non_finite_hodge"])
    def test_data_violations(self, tmp_path, capsys, weight, hodge, kinds, message):
        doc = {"dimension": 2, "hodge_filtration": hodge, "weight_filtration": [
            {"weight": k, "basis": [[str(x) for x in row] for row in rows]}
            for k, rows in weight.items()]}
        report = validate(parse_mhs_document(doc)[0])
        assert [v.kind for v in report.violations] == kinds
        assert report.violations[0].message == message
        assert _run(tmp_path, "validate", doc) == 2
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize("weight, hodge, message", [
        ({0: [[1, 0], [0, 1]]}, {0: [[1, 0, 0], [0, 1, 0]]}, "Hodge vector of wrong length"),
        ({0: [[1, 0], [0, 1]]}, {0: [1, 0]}, "Hodge vector of wrong length"),
        ({0: [[1, 0, 0], [0, 1, 0]]}, {0: np.eye(2)}, "weight vector of wrong length"),
    ], ids=["hodge", "hodge-not-rows", "weight"])
    def test_rows_of_the_wrong_length(self, weight, hodge, message):
        # a document's rows are checked against its dimension when parsed,
        # so only a library caller reaches these
        h = MixedHodgeStructure(2, weight, hodge)
        assert validate(h).violations == (Violation("data", None, message),)
        with pytest.raises(InvalidMHS, match=message):
            require_valid(h)

    def test_third_transport_resolution(self, monkeypatch):
        # a first pass that is off makes the second disagree with it, and the
        # third, agreeing with the second, is returned
        passes, once = [], polylog._transport_once

        def first_pass_off(points, li, step, order):
            passes.append(step)
            lg, vals = once(points, li, step, order)
            return lg, [v + 1e-6 * (len(passes) == 1) for v in vals]

        monkeypatch.setattr(polylog, "_transport_once", first_pass_off)
        got = polylog._transport((0.4, 2.5 - 1j), 4)
        assert passes == [polylog.QUADRATURE_STEP / s for s in (1, 2, 4)]
        monkeypatch.setattr(polylog, "_transport_once", once)
        want = polylog._transport((0.4, 2.5 - 1j), 4)
        assert max(abs(u - v) for u, v in zip((got[0], *got[1]), (want[0], *want[1]))
                   ) <= polylog.REFINE_TOL

    def test_stalled_refinement(self, monkeypatch, capsys):
        monkeypatch.setattr(polylog, "REFINE_TOL", 0.0)
        with pytest.raises(NonConvergent, match="quadrature refinement stalled"):
            polylog._transport((0.4, 2.5 - 1j), 4)
        assert cli.main(["polylog", "--z", "2.5-1i", "--N", "4"]) == 3
        assert "quadrature refinement stalled" in capsys.readouterr().err
