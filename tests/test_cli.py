import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dalembert.cli import _to_json, main, parse_polynomial, serialize_polynomial
from dalembert.errors import EmptyPolynomial, ParseError
from dalembert.polynomial import from_roots

SRC = Path(__file__).resolve().parent.parent / "src"
QUAD_TEXT = "1 1i 3"
# 1 + 2z + ... + 41 z^40: descent from the center 0 of its growth square
# needs 21 steps to converge
RAMP41 = " ".join(str(k) for k in range(1, 42))


@pytest.fixture
def center_seed(monkeypatch):
    """A seed search of one evaluation, the square's center: the Newton run
    of a full search leaves no step for descent to take."""
    import dalembert.solver

    monkeypatch.setattr(dalembert.solver, "_SEED_BUDGET", 1)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePolynomial:
    def test_text_form(self):
        assert parse_polynomial(QUAD_TEXT) == (1 + 0j, 1j, 3 + 0j)

    def test_json_form(self):
        assert parse_polynomial("[[1,0],[0,1],[3,0]]") == (1 + 0j, 1j, 3 + 0j)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("1 bogus")
        assert info.value.position == 2

    def test_empty(self):
        with pytest.raises(EmptyPolynomial):
            parse_polynomial("   ")
        with pytest.raises(EmptyPolynomial):
            parse_polynomial("[]")

    def test_json_rejects_bad_pairs(self):
        for text in ("[[1]]", "[[1,2,3]]", '[["a",1]]', "[1,2]", "{}"):
            with pytest.raises(ParseError):
                parse_polynomial(text)

    def test_json_rejects_booleans(self):
        # true/false are ints to Python, but not coefficients
        for text, position in (('[[true, false], [1, 0]]', 1), ('[[1, 0], [0, true]]', 2)):
            with pytest.raises(ParseError) as info:
                parse_polynomial(text)
            assert info.value.position == position

    def test_json_rejects_integers_beyond_the_float_range(self, capsys):
        # a JSON integer has no size limit, and converting 10**400 to a
        # float raises OverflowError instead of failing the finiteness check
        big = str(10**400)
        for text, position in ((f"[[{big}, 0], [1, 0]]", 1), (f"[[1, 0], [0, -{big}]]", 2)):
            with pytest.raises(ParseError, match=f"entry {position} is not a finite") as info:
                parse_polynomial(text)
            assert info.value.position == position
        code, out, err = run_cli(capsys, "--mode", "bounds", f"[[{big}, 0], [1, 0]]")
        assert (code, out) == (1, "")
        assert "entry 1 is not a finite [re, im] pair" in err
        # an integer within the range is still a coefficient
        assert parse_polynomial(f"[[{10**300}, 0], [1, 0]]") == (complex(1e300, 0), 1 + 0j)

    def test_serialize_round_trip_examples(self):
        for p in [
            (1 + 0j, 1j, 3 + 0j),
            (complex(-0.0, -0.0),),
            (complex(0.1, -0.3), complex(1e-300, 1e300)),
            (complex(-1.5e-8, 2.25),),
        ]:
            assert parse_polynomial(serialize_polynomial(p)) == p

    @given(
        st.lists(
            st.builds(
                complex,
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_serialize_round_trip_property(self, coeffs):
        p = tuple(coeffs)
        assert parse_polynomial(serialize_polynomial(p)) == p


class TestSolveMode:
    def test_solve_json(self, capsys):
        code, out, _ = run_cli(capsys, "--mode", "solve", QUAD_TEXT)
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True
        assert report["residual"] <= 1e-10
        assert len(report["root"]) == 2
        assert "trace" not in report

    def test_solve_default_mode(self, capsys):
        code, out, _ = run_cli(capsys, QUAD_TEXT)
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_trace_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "--trace", QUAD_TEXT)
        assert code == 0
        report = json.loads(out)
        assert len(report["trace"]) >= 1
        assert all(len(row) == 6 for row in report["trace"])

    def test_constant_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "--mode", "solve", "7")
        assert code == 1
        assert out == ""
        assert "no root exists" in err

    def test_an_overflowing_enclosure_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "--mode", "solve", "1e300 0 1e-300")
        assert code == 1
        assert out == ""
        assert err.startswith("error: the enclosure radius inf is too large")

    def test_a_bounds_radius_that_is_not_finite_is_an_error(self, capsys):
        # on 1 + 1e-320 z^3, a_i / a_n overflows and the radius is inf,
        # which is no JSON number: bounds fails as solve does, with its error
        errors = []
        for mode in ("solve", "bounds"):
            code, out, err = run_cli(capsys, "--mode", mode, "1 0 0 1e-320")
            assert (code, out) == (1, "")
            errors.append(err)
        assert errors[0] == errors[1]
        assert errors[1].startswith("error: the enclosure radius inf is too large")

    @pytest.mark.parametrize("text, radius", [("1 0 0 1e-320", "inf"), ("1 1e-320", "inf"),
                                              ("5e307 1", "1e+308")],
                             ids=["1 0 0 1e-320", "1 1e-320", "5e307 1"])
    def test_check_on_a_radius_that_is_not_finite_is_an_error(self, capsys, text, radius):
        # every mode takes its radius from growth._radii, which refuses an
        # infinite R and a finite R = 1e308 whose square side 2R overflows,
        # so solve, bounds and check fail alike, with one message
        errors = []
        for mode in ("solve", "bounds", "check"):
            code, out, err = run_cli(capsys, "--mode", mode, text)
            assert (code, out) == (1, ""), mode
            errors.append(err)
        assert errors[0] == errors[1] == errors[2]
        assert errors[0].startswith(f"error: the enclosure radius {radius} is too large:")

    def test_check_names_the_far_end_of_its_sample_where_only_it_overflows(self, capsys):
        # R = 4e307: the square [-R, R]^2 is representable, so solve finds
        # the root and bounds prints R, but check's sample reaches 10 R
        code, out, _ = run_cli(capsys, "--mode", "solve", "2e307 1")
        assert code == 0 and json.loads(out)["root"] == [-2e307, 0]
        code, out, err = run_cli(capsys, "--mode", "check", "2e307 1")
        assert (code, out) == (1, "")
        assert err.startswith("error: the enclosure radius 4e+307 is too large to check")
        assert "10 R" in err and "[-R, R]^2" not in err

    def test_zero_polynomial_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "0 0")
        assert code == 1
        assert "zero polynomial" in err

    def test_not_converged_exits_two(self, capsys, center_seed):
        # 1 + 2z + ... + 41 z^40: two steps from the center leave |p| near 0.4
        code, out, _ = run_cli(capsys, "--max-iter", "2", RAMP41)
        assert code == 2
        report = json.loads(out)
        assert report["converged"] is False
        assert report["iterations"] == 2

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text(QUAD_TEXT, encoding="utf-8")
        code, out, _ = run_cli(capsys, "--input", str(path))
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_exactly_one_input_source(self, capsys, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text(QUAD_TEXT, encoding="utf-8")
        code, _, err = run_cli(capsys, "--input", str(path), QUAD_TEXT)
        assert code == 1 and "exactly one" in err
        code, _, err = run_cli(capsys)
        assert code == 1 and "exactly one" in err

    def test_parse_error_reports_token(self, capsys):
        code, _, err = run_cli(capsys, "1 bogus")
        assert code == 1
        assert "token 2" in err


class TestTraceCsv:
    def test_schema(self, capsys, center_seed):
        code, out, _ = run_cli(capsys, "--format", "csv", "--max-iter", "2", RAMP41)
        assert code == 2
        lines = out.strip().split("\n")
        assert lines[0] == "iter,re,im,residual,s,k"
        assert len(lines) >= 3
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert len(fields) == 6
            assert int(fields[0]) == i
            float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4])
            assert int(fields[5]) >= 0
        residuals = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_csv_rejected_outside_solve(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "bounds", "--format", "csv", QUAD_TEXT)
        assert code == 1
        assert "csv" in err


class TestOtherModes:
    def test_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "--mode", "bounds", QUAD_TEXT)
        assert code == 0
        report = json.loads(out)
        assert report["enclosure"]["enclosure_radius"] == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert report["enclosure"]["degree"] == 2

    def test_bounds_rejects_constant(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "bounds", "7")
        assert code == 1
        assert "non-constant" in err

    def test_solve_all(self, capsys):
        code, out, _ = run_cli(capsys, "--mode", "solve-all", QUAD_TEXT)
        assert code == 0
        report = json.loads(out)
        assert len(report["roots"]) == 2
        assert report["reconstruction_error"] <= 1e-8
        assert report["enclosure"]["enclosure_radius"] == pytest.approx(4.0 / 3.0)
        assert report["seed"]["evaluations"] >= 1

    def test_evt(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--mode", "evt", "--corner=-1.34,-1.34", "--side", "2.68",
            "--epsilon", "1e-6", QUAD_TEXT,
        )
        assert code == 0
        report = json.loads(out)
        assert report["value"] <= 1e-6
        assert report["gap"] <= 1e-6
        assert report["budget_exhausted"] is False

    def test_evt_requires_region(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "evt", QUAD_TEXT)
        assert code == 1
        assert "--corner" in err

    def test_evt_rejects_an_unrepresentable_square(self, capsys):
        code, out, err = run_cli(
            capsys, "--mode", "evt", "--corner=1e308,1e308", "--side", "1e308", "1 1"
        )
        assert code == 1
        assert out == ""
        assert "far corner" in err

    def test_evt_budget_exhaustion_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--mode", "evt", "--corner=-1.34,-1.34", "--side", "2.68",
            "--epsilon", "1e-9", "--budget", "4", QUAD_TEXT,
        )
        assert code == 2
        assert json.loads(out)["budget_exhausted"] is True

    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "--mode", "check", QUAD_TEXT)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        names = [entry["name"] for entry in report["lemmas"]]
        assert names == ["growth-sandwich", "enclosure-domination", "descent-decrease"]
        assert all(entry["samples"] == 1000 for entry in report["lemmas"])

    @pytest.mark.parametrize(
        "text",
        [serialize_polynomial(from_roots(1, range(1, 21))), "1e300 1 1"],
        ids=["wilkinson-20", "1e300-constant"],
    )
    def test_check_passes_where_the_papers_radius_overflows(self, capsys, text):
        # the paper's radius (2.4e20 and 4e300) puts the sampled |p| beyond
        # the float range; the certificate's radius (630 and 3e150) does not
        code, out, _ = run_cli(capsys, "--mode", "check", text)
        assert code == 0
        assert [entry["failures"] for entry in json.loads(out)["lemmas"]] == [0, 0, 0]

    @pytest.mark.parametrize(
        "text",
        [
            "1 1i 3",
            "1 0 1",
            "-1 0 0 1",
            "10 1",
            "1 -2 1",
            "0.3-0.4i 1 0 -2i 0 0.5 1.25i",
            # |p| <= 1e-6 on the whole enclosure square
            "1e-300 0 0 0 0 0 0 0 1e-300",
            # |z|^8 leaves the float range on the sampled radii, |a_8| |z|^8 does not
            "1 0 0 0 0 0 0 0 1e-300",
        ],
        ids=["sample quadratic", "classic quadratic", "cube roots of unity", "shifted linear",
             "double root", "degree six", "tiny scale", "tiny leading term"],
    )
    def test_check_passes_on_the_lemma_battery(self, capsys, text):
        # the descent replay once redrew every start on the tiny-scale
        # polynomial without end, and the sandwich replay counted the float
        # overflow of |z|^8 on the tiny-leading-term one as failures
        code, out, _ = run_cli(capsys, "--mode", "check", text)
        assert code == 0
        report = json.loads(out)
        assert [entry["name"] for entry in report["lemmas"]] == [
            "growth-sandwich", "enclosure-domination", "descent-decrease"]
        assert all(entry["samples"] == 1000 and entry["failures"] == 0 and entry["pass"]
                   for entry in report["lemmas"])
        assert report["pass"] is True

    def test_check_rejects_constant(self, capsys):
        # every replay needs a non-constant polynomial, as bounds mode does
        code, out, err = run_cli(capsys, "--mode", "check", "7")
        assert code == 1
        assert out == ""
        assert "non-constant" in err

    def test_check_seed_changes_output(self, capsys):
        _, out_a, _ = run_cli(capsys, "--mode", "check", "--seed", "1", QUAD_TEXT)
        _, out_b, _ = run_cli(capsys, "--mode", "check", "--seed", "1", QUAD_TEXT)
        assert out_a == out_b
        assert json.loads(out_a)["seed"] == 1


class TestImports:
    def test_only_check_mode_imports_the_lemma_replay(self):
        # a fresh interpreter loads the package and the CLI without
        # dalembert.checks, and runs other modes without it
        code = textwrap.dedent("""
            import contextlib, io, sys
            import dalembert, dalembert.cli
            seen = ["dalembert.checks" in sys.modules]
            with contextlib.redirect_stdout(io.StringIO()):
                for mode in ("bounds", "check"):
                    dalembert.cli.main(["--mode", mode, "1 1"])
                    seen.append("dalembert.checks" in sys.modules)
            print(seen)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[False, False, True]\n", "")


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ("--mode", "solve-all", "--trace", QUAD_TEXT)
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_floats_round_trip_through_json(self, capsys):
        _, out, _ = run_cli(capsys, QUAD_TEXT)
        report = json.loads(out)
        re_, im_ = report["root"]
        # 17 significant digits reproduce the doubles exactly
        _, again, _ = run_cli(capsys, QUAD_TEXT)
        assert json.loads(again)["root"] == [re_, im_]


class TestToJson:
    @pytest.mark.parametrize("value", [True, False, None, 0, -7, 2**70])
    def test_scalars_print_json_dumps_bytes(self, value):
        assert _to_json(value) == json.dumps(value)

    @pytest.mark.parametrize("value", [np.int64(3), object()])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            _to_json(value)

    @pytest.mark.parametrize("key", ["root", "budget_exhausted", "_x1", 'a"b', "\u00e9", "a b",
                                     "1st", "tab\t", "", "\u2028"])
    def test_keys_print_json_dumps_bytes(self, key):
        assert _to_json({key: 1}) == "{\n  " + json.dumps(key) + ": 1\n}"


class TestReportBytes:
    """Every report's exact stdout and exit code, pinned by sha256: the
    output contract of each mode, JSON and CSV alike."""

    @pytest.mark.parametrize(
        "args, code, sha256",
        [
            (("--mode", "solve"), 0,
             "3b045da8cef23c2c3076793842cdf5f06d736bda6e09e21881636c7577356091"),
            (("--mode", "solve", "--trace"), 0,
             "b8a6aaa2d98c17ac186186456bb037f0b551434984631aec0cd1497a279bfbbb"),
            (("--mode", "solve-all"), 0,
             "8de8f0100c0e8dc4de8a8947b4eb7d4eb06d9606d06599d99105c197803911ee"),
            (("--mode", "bounds"), 0,
             "50c9376495133abc401b7b3e93652e64814c658e88448c2e82e9ed75b1755bed"),
            (("--mode", "evt", "--corner=-1.34,-1.34", "--side", "2.68"), 0,
             "ed19e9d594c600af81f30c14f11646851bad47c6229e2332e076d2e4e7a825f8"),
            (("--mode", "check"), 0,
             "4766678a73db7022779b769c39cd1a46f8dea8dab78124103d598fe8ebad115d"),
        ],
        ids=["solve", "solve-trace", "solve-all", "bounds", "evt", "check"],
    )
    def test_json_reports(self, capsys, args, code, sha256):
        got_code, out, _ = run_cli(capsys, *args, QUAD_TEXT)
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == sha256, out

    def test_csv_trace(self, capsys, center_seed):
        code, out, _ = run_cli(capsys, "--format", "csv", "--max-iter", "2", RAMP41)
        assert code == 2
        assert out == (
            "iter,re,im,residual,s,k\n"
            "0,0,0,1,0,0\n"
            "1,-0.5,0,0.44444444445707632,1,1\n"
            "2,-0.87500000066071948,0,0.37728242860137917,0.5,1\n"
        )


class TestUsageErrors:
    def test_bad_flag_exits_one(self, capsys):
        assert main(["--no-such-flag", "1 1"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_parser_build_probes_the_terminal(self, capsys, monkeypatch):
        def probe(*args, **kwargs):
            raise AssertionError("the terminal was probed")

        monkeypatch.setattr(shutil, "get_terminal_size", probe)
        assert main(["--mode", "bounds", QUAD_TEXT]) == 0
        assert main(["--help"]) == 0

    def test_help_is_the_same_whatever_the_terminal(self, capsys, monkeypatch):
        outputs = []
        for columns in (None, "40", "200"):
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run_cli(capsys, "--help")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert max(len(line) for line in outputs[0].splitlines()) <= 78

    @pytest.mark.parametrize("flag", ["--tol", "--epsilon"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_non_positive_tolerance_exits_one(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "--mode", "evt", "--corner=-1.34,-1.34", "--side", "2.68",
            flag, value, QUAD_TEXT,
        )
        assert code == 1
        assert out == ""
        assert flag in err

    def test_bad_corner_format(self, capsys):
        code, _, err = run_cli(
            capsys, "--mode", "evt", "--corner", "zap", "--side", "1", QUAD_TEXT
        )
        assert code == 1
        assert "corner" in err
