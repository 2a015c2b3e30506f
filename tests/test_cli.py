"""End-to-end tests for the command line: exit codes, deterministic output,
formats, and configuration precedence.  Everything runs in-process through
main(argv)."""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifolds.atlas import Atlas, Chart, Transition
from quasifolds.bimodule import BiAtlas, LinkingGerm
from quasifolds.catalog import (builtin_atlases, builtin_biatlases,
                                get_atlas, get_biatlas, z_alpha_lattice)
from quasifolds.cli import (EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS,
                            EXIT_USAGE, UsageError, main, resolve_biatlas)
from quasifolds.errors import InconsistentTransitionError
from quasifolds.exact import AffineElement, QAlpha, default_witness, qa
from quasifolds.groupoid import NebulaPoint
from quasifolds.groups import FiniteMatrixGroup
from quasifolds.serialize import (atlas_to_json, biatlas_to_json,
                                  load_biatlas_file, save_json)

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("QUASIFOLD_"):
            monkeypatch.delenv(key)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def third_atlas(first: str) -> Atlas:
    """Z+αZ charts `first` and b glued by x ↦ x/3, which conjugates t_1 to
    t_1/3 ∉ Z+αZ: an inconsistent transition."""
    third = AffineElement.linear(((Fraction(1, 3),),))
    return Atlas((Chart(first, z_alpha_lattice(), None),
                  Chart("b", z_alpha_lattice(), None)),
                 (Transition(first, "b", third),))


class TestExitCodes:
    def test_passing_command(self, capsys):
        code, report, _ = run_json(capsys, "groupoid", "--atlas", "t-alpha")
        assert code == EXIT_PASS
        assert report["summary"]["fail"] == 0

    def test_failing_command(self, capsys):
        code, report, _ = run_json(capsys, "lift", "construct", "--biatlas",
                                   "duplicated", "--r", "0", "--rp", "1/2")
        assert code == EXIT_FAIL
        assert report["summary"]["fail"] >= 1

    def test_inconclusive_command(self, capsys):
        code, report, _ = run_json(capsys, "lift", "construct", "--biatlas",
                                   "duplicated", "--r", "0", "--rp", "5+α*5",
                                   "--bound", "2")
        assert code == EXIT_INCONCLUSIVE
        assert report["summary"]["inconclusive"] >= 1
        assert report["summary"]["fail"] == 0

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == EXIT_USAGE

    def test_malformed_input_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "groupoid", "--atlas", str(bad))
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("argv", [("groupoid", "--atlas"),
                                      ("morita", "--biatlas")])
    def test_directory_as_input_file(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot parse") and err.count("\n") == 1

    def test_unknown_atlas_name(self, capsys):
        code, _, _ = run(capsys, "groupoid", "--atlas", "not-a-thing")
        assert code == EXIT_USAGE

    def test_bad_bound(self, capsys):
        code, _, _ = run(capsys, "groupoid", "--atlas", "t-alpha",
                         "--bound", "-2")
        assert code == EXIT_USAGE

    def test_bad_alpha(self, capsys):
        code, _, _ = run(capsys, "rotation", "--alpha", "not-a-number")
        assert code == EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestBadInputIsRejectedAtParseTime:
    """Each bad input exits 2 with a single error line and no traceback; a
    valid input the α-witness cannot order exits 3 the same way."""

    def assert_usage_error(self, code, out, err):
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("error:") == 1
        assert "Traceback" not in err

    def test_unknown_chart_in_point(self, capsys):
        self.assert_usage_error(*run(capsys, "groupoid", "--atlas", "t-alpha",
                                     "--point", "foo:0"))

    def test_zero_denominator_in_point(self, capsys):
        self.assert_usage_error(*run(capsys, "groupoid", "--atlas", "t-alpha",
                                     "--point", "main:1/0"))

    def test_implicit_product_in_point(self, capsys):
        # "2α" is not 2+α: a coefficient of α is written α*2
        self.assert_usage_error(*run(capsys, "groupoid", "--atlas", "t-alpha",
                                     "--point", "main:2α"))

    def test_non_integer_repr_denominators(self, capsys):
        self.assert_usage_error(*run(capsys, "repr", "--p", "a"))

    @pytest.mark.parametrize("argv", [
        ("morita", "--biatlas", "duplicated", "--word-length", "-1"),
        ("morita", "--biatlas", "duplicated", "--instance-cap", "0"),
        ("rotation", "--max-power", "-2"),
        ("repr", "--pairs", "0"),
        ("repr", "--z-samples", "0"),
        ("repr", "--pairs", "x"),
        ("rq-algebra", "--denominator", "0"),
        ("lift", "detect", "--stitch", "-1"),
        ("lift", "detect", "--samples", "0"),
        ("lift", "fit", "--samples", "-3"),
        ("lift", "flipdemo", "--samples", "0"),
        ("lift", "flipdemo", "--n-max", "0"),
    ])
    def test_out_of_range_integer_flags(self, capsys, argv):
        self.assert_usage_error(*run(capsys, *argv))

    @pytest.mark.parametrize("argv, message", [
        (("lift", "construct", "--biatlas", "duplicated", "--r", "0",
          "--rp", "1,2"), "--rp '1,2' needs 1 coordinate(s), got 2"),
        (("lift", "construct", "--biatlas", "duplicated", "--r", "0,0",
          "--rp", "1"), "--r '0,0' needs 1 coordinate(s), got 2"),
        (("lift", "detect", "--gamma", "1,2"),
         "--gamma '1,2' needs 1 coordinate(s), got 2"),
    ])
    def test_vector_of_the_wrong_dimension(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        self.assert_usage_error(code, out, err)
        assert message in err

    def test_non_integer_bound_in_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("QUASIFOLD_BOUND", "abc")
        self.assert_usage_error(*run(capsys, "rotation"))

    def test_non_integer_trials_in_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": "x"}), encoding="utf-8")
        self.assert_usage_error(*run(capsys, "rotation", "--config", str(cfg)))

    @pytest.mark.parametrize("argv", [
        ("rotation", "--alpha", "inf"),
        ("rotation", "--alpha", "nan"),
        ("rotation", "--alpha", "1e400"),  # finite Decimal, infinite float
        ("groupoid", "--atlas", "t-alpha", "--alpha", "nan"),
    ])
    def test_non_finite_alpha(self, capsys, argv):
        self.assert_usage_error(*run(capsys, *argv))

    def test_atlas_file_with_an_inconsistent_transition(self, capsys,
                                                        tmp_path):
        bad = tmp_path / "bad-atlas.json"
        save_json(bad, atlas_to_json(third_atlas("a")))
        self.assert_usage_error(*run(capsys, "groupoid", "--atlas", str(bad)))

    def test_biatlas_file_with_an_inconsistent_transition(self, tmp_path):
        obj = biatlas_to_json(get_biatlas("duplicated"))
        obj["left"] = atlas_to_json(third_atlas("main"))  # seed chart: main
        bad = tmp_path / "bad-biatlas.json"
        save_json(bad, obj)
        with pytest.raises(InconsistentTransitionError):
            load_biatlas_file(bad)
        with pytest.raises(UsageError):
            resolve_biatlas(str(bad))

    def test_point_within_witness_precision_of_domain_end(self, capsys):
        # F146·α − F145 + 3 = 3 − α¹⁴⁶ ≈ 3 − 3.1e-31: inside (−3, 3), but
        # closer to the end than the witness can certify at this size
        code, out, err = run(
            capsys, "groupoid", "--atlas", "reflection-orbifold", "--point",
            "fold:-898923707008479989274290850142"
            "+α*1454489111232772683678306641953")
        # valid input that cannot be certified: inconclusive, not usage error
        assert code == EXIT_INCONCLUSIVE
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "Traceback" not in err
        assert "margin" in err and "outside" not in err


def run_quietly(*argv):
    """main(argv) with stdout and stderr captured, for Hypothesis tests
    (which cannot take the function-scoped capsys fixture)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def is_vector(text: str, dimension: int) -> bool:
    """Does text read as `dimension` comma-separated QAlpha literals?  The
    grammar itself is pinned by the parse tests in tests/test_exact.py."""
    try:
        return len([QAlpha.parse(c) for c in text.split(",")]) == dimension
    except ValueError:
        return False


def is_alpha(text: str) -> bool:
    """Is text a finite decimal whose float is finite ("default" names the
    default witness; an empty value is refused)?"""
    if text == "default":
        return True
    try:
        value = Decimal(text)
    except InvalidOperation:
        return False
    return value.is_finite() and not math.isinf(float(value))


# pieces of near-valid literals, so that many draws are one step from valid
_TOKENS = ("0", "1", "7", "12", "-", "+", "/", "*", "α", "alpha", ",", ".",
           "e", "E", " ", "x", "_", "½", "nan", "inf", ":", "\t", "\n",
           "\x00", "é", "0x1", "1/0", "α*", "--", "=")
malformed_text = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=7).map("".join),
    st.text(max_size=12))

# one option value each; the rest of the command line is valid
_VECTOR_COMMANDS = {
    "--point": lambda v: ("groupoid", "--atlas", "t-alpha", "--bound", "1",
                          f"--point=main:{v}"),
    "--r": lambda v: ("lift", "construct", "--biatlas", "duplicated",
                      f"--r={v}", "--rp=0"),
    "--rp": lambda v: ("lift", "construct", "--biatlas", "duplicated",
                       "--r=0", f"--rp={v}"),
    "--gamma": lambda v: ("lift", "detect", "--samples", "3",
                          f"--gamma={v}"),
}


class TestFuzzedInputExitsTwo:
    """Malformed option values exit 2 with exactly one `error:` line on
    stderr, nothing on stdout and no traceback (an exception escaping main
    fails the test)."""

    def assert_one_error_line(self, code, out, err):
        assert code == EXIT_USAGE
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err

    @settings(max_examples=120, deadline=None)
    @given(option=st.sampled_from(sorted(_VECTOR_COMMANDS)),
           text=malformed_text)
    @example(option="--gamma", text="")  # used to fall back to the default
    @example(option="--rp", text="1e99999")  # exponents are refused
    @example(option="--point", text="1,2")  # wrong dimension
    def test_malformed_vectors(self, option, text):
        if is_vector(text, 1):
            return
        self.assert_one_error_line(*run_quietly(*_VECTOR_COMMANDS[option](text)))

    @settings(max_examples=60, deadline=None)
    @given(text=malformed_text)
    @example(text="1e400")
    @example(text="-inf")
    def test_malformed_alpha(self, text):
        if is_alpha(text):
            return
        self.assert_one_error_line(
            *run_quietly("rotation", "--max-power", "1", f"--alpha={text}"))

    @pytest.mark.parametrize("argv", [
        ("groupoid", "--atlas", "t-alpha", "--point="),
        ("groupoid", "--atlas", "t-alpha", "--point=--"),
        ("lift", "construct", "--biatlas", "duplicated", "--r=0", "--rp=--"),
        ("lift", "detect", "--gamma=--"),
        ("repr", "--p=--"),
        ("algebra", "--model=--"),
        ("rotation", "--alpha=--"),
    ])
    def test_empty_option_values(self, argv):
        # argparse before Python 3.12 reads "--opt=--" as an empty list
        self.assert_one_error_line(*run_quietly(*argv))


# A valid input file per command, as (command line before the file, JSON
# document, command line after it).
_INPUT_FILES = (
    [(("groupoid", "--atlas"), atlas_to_json(get_atlas(name)),
      ("--bound", "1")) for name in sorted(builtin_atlases())]
    + [(("morita", "--biatlas"), biatlas_to_json(get_biatlas(name)),
        ("--word-length", "0", "--instance-cap", "3"))
       for name in sorted(builtin_biatlases())]
    + [(("rotation", "--config"),
        {"seed": 1, "bound": 2, "tol": 1e-9, "format": "json",
         "alpha": "0.6180339887498949", "trials": 5}, ("--max-power", "1"))])


def _json_paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_paths(value, path + (i,))


def _replaced(node, path, value):
    """A copy of the document with the node at path replaced by value."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: _replaced(node[head], rest, value)}
    return [_replaced(x, rest, value) if i == head else x
            for i, x in enumerate(node)]


_ATOMS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                   st.just(0.5), st.sampled_from(["α", "1/0", "e", ""]),
                   st.just([]), st.just({}))
_NODES = st.one_of(_ATOMS, st.lists(_ATOMS, min_size=1, max_size=1),
                   st.dictionaries(st.sampled_from(["kind", "b", "x"]), _ATOMS,
                                   min_size=1, max_size=1))


@st.composite
def mutated_input_files(draw):
    before, doc, after = draw(st.sampled_from(_INPUT_FILES))
    path = draw(st.sampled_from(list(_json_paths(doc))))
    return before, _replaced(doc, path, draw(_NODES)), after


class TestFuzzedInputFiles:
    """An atlas, bi-atlas or config file with one node replaced by a value
    of the wrong shape or range is refused or run, never a traceback: the
    exit code is 0, 1, 2 or 3, and exit 2 prints one `error:` line.

    Integers stay within −2..2: a rational chart of dimension 10⁹ is
    accepted and then runs for a long time (see the FOUND line on it in
    CHANGES.md), which this test would only time out on."""

    @settings(max_examples=200, deadline=None)
    @given(case=mutated_input_files())
    @example(case=(("groupoid", "--atlas"), {"charts": 5}, ("--bound", "1")))
    @example(case=(("groupoid", "--atlas"), [1, 2], ("--bound", "1")))
    @example(case=(("morita", "--biatlas"),
                   {"left": 1, "right": 2, "links": []},
                   ("--word-length", "0", "--instance-cap", "3")))
    def test_one_node_replaced(self, case):
        before, doc, after = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f, ensure_ascii=False)
            code, _, err = run_quietly(*before, path, *after)
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INCONCLUSIVE)
        if code == EXIT_USAGE:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err


class TestReportShape:
    def test_schema_and_summary(self, capsys):
        code, report, _ = run_json(capsys, "rotation")
        assert code == EXIT_PASS
        assert report["schema"] == "quasifold-report/1"
        assert report["command"] == "rotation"
        statuses = [c["status"] for c in report["checks"]]
        assert report["summary"]["pass"] == statuses.count("pass")
        assert report["summary"]["fail"] == statuses.count("fail")
        for c in report["checks"]:
            assert set(c) == {"name", "status", "detail"}

    def test_timing_goes_to_stderr_not_stdout(self, capsys):
        _, out, err = run(capsys, "rotation")
        assert "elapsed" in err
        assert "elapsed" not in out

    def test_global_flags_work_in_both_positions(self, capsys):
        a = run_json(capsys, "--seed", "5", "groupoid", "--atlas", "t-alpha")
        b = run_json(capsys, "groupoid", "--atlas", "t-alpha", "--seed", "5")
        assert a[1] == b[1]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("groupoid", "--atlas", "t-alpha"),
        ("rotation",),
        ("algebra", "check", "--trials", "5"),
        ("morita", "--biatlas", "two-scale", "--word-length", "1"),
        ("lift", "flipdemo", "--n-max", "2", "--samples", "25"),
    ])
    def test_stdout_is_byte_identical(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("argv, digest, exit_code", [
        (("groupoid", "--atlas", "t-alpha-duplicated", "--bound", "2"),
         "d3ad6736cf2b38699a9719bdd2e09956f8f576187648a44256d5f14fbb669e10",
         EXIT_PASS),
        (("groupoid", "--atlas", "reflection-orbifold", "--point", "away:1",
          "--bound", "2"),
         "58275e13fad955caa6cc5b5fe267a31e933a0303b009f7c05018216caae6045c",
         EXIT_PASS),
        (("morita", "--biatlas", "two-scale", "--word-length", "1"),
         "cb4bd894a8612be21a809eb9053b09c612ccff23a454f9e936d77fc8288fa2ad",
         EXIT_PASS),
        (("morita", "--biatlas", "duplicated", "--word-length", "2"),
         "8dbb6fa5138ba5caa750f89ac55307e629499ecbc28c475d0ea95aeb21a56733",
         EXIT_PASS),
        (("lift", "construct", "--biatlas", "two-scale", "--r", "1/3+α",
          "--rp", "2/3+α*2"),
         "c085f4161e1fbc8c859f1c3a44db2fd8d9b449e2ae870f3be0b12fd6296ae42c",
         EXIT_PASS),
        (("lift", "construct", "--biatlas", "two-scale", "--r", "1/3+α",
          "--rp", "4/3+α*2"),
         "d6c52ab514799c8e817f84ab017cad12b8675ad92a1276393afede508b04b656",
         EXIT_FAIL),
        (("algebra", "--model", "line", "--trials", "20"),
         "1244871553776420e3dde3c7d14ae24473b3ef92329101f0c7a998f5349f2877",
         EXIT_PASS),
        (("algebra", "--model", "circle-full", "--trials", "10"),
         "8bd0001e88cca148dcd71315b91515a6e5aab8a7a0a7d484dc0ea8f2de389f53",
         EXIT_PASS),
    ])
    def test_stdout_bytes_are_pinned(self, capsys, argv, digest, exit_code):
        # word discovery order and report bytes, pinned across code changes
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_seed_changes_corpus_not_validity(self, capsys):
        c1, r1, _ = run_json(capsys, "algebra", "check", "--trials", "5",
                             "--seed", "1")
        c2, r2, _ = run_json(capsys, "algebra", "check", "--trials", "5",
                             "--seed", "2")
        assert c1 == c2 == EXIT_PASS
        assert r1["config"]["seed"] == 1
        assert r2["config"]["seed"] == 2


class TestDefaultWitnessScope:
    SILVER = "0.41421356237309504880"

    @pytest.mark.parametrize("argv", [
        ("rotation", "--alpha", SILVER),
        ("rotation", "--negate"),
        ("groupoid", "--atlas", "t-alpha", "--alpha", SILVER,
         "--point", "foo:0"),  # usage error after α is installed
    ])
    def test_main_restores_the_default_witness(self, capsys, argv):
        before = default_witness()
        run(capsys, *argv)
        assert default_witness() is before


class TestFormats:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "rotation", "--format", "table")
        assert code == EXIT_PASS
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "pass" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "rotation", "--format", "csv")
        assert code == EXIT_PASS
        header = out.splitlines()[0]
        assert "," in header

    def test_unknown_format(self, capsys):
        code, _, _ = run(capsys, "rotation", "--format", "yaml")
        assert code == EXIT_USAGE


class TestConfigPrecedence:
    def test_config_file_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bound": 4, "seed": 9}), encoding="utf-8")
        _, report, _ = run_json(capsys, "groupoid", "--atlas", "t-alpha",
                                "--config", str(cfg))
        assert report["config"]["bound"] == 4
        assert report["config"]["seed"] == 9

    def test_flag_beats_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bound": 4}), encoding="utf-8")
        _, report, _ = run_json(capsys, "groupoid", "--atlas", "t-alpha",
                                "--config", str(cfg), "--bound", "2")
        assert report["config"]["bound"] == 2

    def test_env_beats_config_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bound": 4}), encoding="utf-8")
        monkeypatch.setenv("QUASIFOLD_BOUND", "5")
        _, report, _ = run_json(capsys, "groupoid", "--atlas", "t-alpha",
                                "--config", str(cfg))
        assert report["config"]["bound"] == 5

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QUASIFOLD_BOUND", "5")
        _, report, _ = run_json(capsys, "groupoid", "--atlas", "t-alpha",
                                "--bound", "2")
        assert report["config"]["bound"] == 2

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "rotation", "--config", "/no/such/file.json")
        assert code == EXIT_USAGE


class TestCommandContent:
    def test_groupoid_assembly_table(self, capsys):
        _, report, _ = run_json(capsys, "groupoid", "--atlas", "t-alpha",
                                "--bound", "2")
        assert "assembly" in report
        assert report["assembly"]["blocks"]

    def test_atlas_from_file(self, capsys, tmp_path):
        from quasifolds.catalog import get_atlas
        from quasifolds.serialize import atlas_to_json, save_json
        p = tmp_path / "atlas.json"
        save_json(p, atlas_to_json(get_atlas("t-alpha")))
        code, report, _ = run_json(capsys, "groupoid", "--atlas", str(p))
        assert code == EXIT_PASS

    def test_repr_reports_reversed_order(self, capsys):
        _, report, _ = run_json(capsys, "repr", "--p", "2,3", "--pairs", "3",
                                "--z-samples", "3")
        order = next(c for c in report["checks"]
                     if c["name"] == "product-order-constant")
        assert order["detail"]["value"] == "reversed"
        assert order["status"] == "pass"

    def test_rotation_negate(self, capsys):
        code, report, _ = run_json(capsys, "rotation", "--negate")
        assert code == EXIT_PASS

    def test_lift_construct_success_payload(self, capsys):
        code, report, _ = run_json(capsys, "lift", "construct", "--biatlas",
                                   "two-scale", "--r", "2", "--rp", "1")
        assert code == EXIT_PASS
        assert any(c["status"] == "pass" for c in report["checks"])

    def test_lift_detect_control_has_zero_coverage(self, capsys):
        code, report, _ = run_json(capsys, "lift", "detect", "--control",
                                   "--samples", "20")
        assert code == EXIT_PASS
        ctrl = next(c for c in report["checks"] if "control" in c["name"])
        assert ctrl["detail"]["coverage"] == 0.0

    def test_morita_reports_axioms(self, capsys):
        code, report, _ = run_json(capsys, "morita", "--biatlas", "duplicated",
                                   "--word-length", "1")
        assert code == EXIT_PASS
        names = {c["name"] for c in report["checks"]}
        assert any("unit" in n for n in names)
        assert any("commute" in n for n in names)

    def test_morita_unit_laws_use_the_unit_arrow(self, capsys, tmp_path):
        """At a fixed point of a finite group that does not list the
        identity first, the first arrow x → x of a word search is a rotation,
        not the unit."""
        rho = AffineElement.linear(((0, -1), (1, -1)))
        group = FiniteMatrixGroup((rho, rho.compose(rho),
                                   AffineElement.identity(2)))
        atlas = Atlas((Chart("c", group),))
        seed = LinkingGerm(NebulaPoint("c", (qa(0), qa(0))),
                           AffineElement.identity(2), "c")
        path = tmp_path / "rotation-biatlas.json"
        save_json(path, biatlas_to_json(BiAtlas(atlas, atlas, (seed,))))
        code, report, _ = run_json(capsys, "morita", "--biatlas", str(path))
        unit = next(c for c in report["checks"] if c["name"] == "unit-laws")
        assert unit["status"] == "pass"
        assert code == EXIT_PASS


# commands and options no other test runs, each at a small size: (argv, the
# (check name, status) pairs of its report)
UNCOVERED_RUNS = [
    (("rq-algebra", "--trials", "5"),
     [("routes-agree", "pass"), ("star-is-adjoint", "pass"),
      ("product-order-constant", "pass")]),
    (("lift", "fit", "--kind", "affine"), [("fit-affine", "pass")]),
    (("lift", "fit", "--kind", "quadratic"), [("fit-quadratic", "pass")]),
    (("lift", "fit", "--kind", "stitched"), [("fit-stitched", "pass")]),
    (("lift", "detect", "--stitch", "3"), [("detect-stitched-3", "pass")]),
    (("lift", "detect", "--stitch", "3", "--group", "rational"),
     [("detect-stitched-3", "pass")]),
    (("lift", "detect", "--gamma", "2+α*3"),
     [("detect-single-element", "pass")]),
    (("repr", "--p", "1", "--pairs", "2", "--z-samples", "2"),
     [("product-order-constant", "pass"), ("repr-multiplicative-p1", "pass"),
      ("repr-p1-pointwise", "pass")]),
]


@pytest.mark.parametrize("argv, checks", UNCOVERED_RUNS,
                         ids=[" ".join(argv) for argv, _ in UNCOVERED_RUNS])
def test_small_runs_pass_and_repeat_byte_for_byte(capsys, argv, checks):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_PASS
    report = json.loads(out)
    assert [(c["name"], c["status"]) for c in report["checks"]] == checks
    assert run(capsys, *argv)[:2] == (EXIT_PASS, out)


class TestEmptyAlpha:
    """An empty --alpha flag is refused; an empty QUASIFOLD_ALPHA means the
    variable is unset."""

    @pytest.mark.parametrize("argv", [("--alpha=",), ("--alpha", "")])
    def test_empty_flag_exits_two(self, capsys, argv):
        code, out, err = run(capsys, "rotation", "--max-power", "1", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == ["error: no value given for --alpha"]

    def test_empty_environment_value_means_unset(self, capsys, monkeypatch):
        _, unset, _ = run(capsys, "rotation", "--max-power", "1")
        monkeypatch.setenv("QUASIFOLD_ALPHA", "")
        code, out, _ = run(capsys, "rotation", "--max-power", "1")
        assert code == EXIT_PASS
        assert out == unset
