import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import laplace_ode
from laplace_ode import cli, fixture_path
from laplace_ode.cli import main
from laplace_ode.errors import NumericError, ResidueError
from laplace_ode.scalars import GaussRational


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_airy_values(capsys, tmp_path):
    code, out, _ = run(capsys, "eval", "--spec", str(fixture_path("airy")),
                       "--z", "0", "--z", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    vals = {r["z"]["re"]: r["value"]["re"] for r in doc["results"]}
    assert abs(vals[0.0] - 0.3550280539) < 1e-9
    assert abs(vals[1.0] - 0.1352924163) < 1e-9


def test_eval_requires_z(capsys):
    code, _out, err = run(capsys, "eval", "--spec", str(fixture_path("airy")))
    assert code == 2
    assert "z" in err


def test_eval_csv_format(capsys):
    code, out, _ = run(capsys, "eval", "--spec", str(fixture_path("airy")),
                       "--z", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("z_re,z_im,j,")
    assert len(lines) == 2


def test_eval_overflowing_derivative_order_exits_3(capsys):
    # airy's path at z = 2 reaches |t| = 5.5, where (-t)^420 overflows a
    # double: a numeric failure, not a NaN flagged refinement_stalled
    argv = ("eval", "--spec", str(fixture_path("airy")), "--z", "2")
    code, out, err = run(capsys, *argv, "--j", "420")
    assert code == 3 and out == ""
    assert "numeric failure" in err and "RuntimeWarning" not in err
    code, out, _ = run(capsys, *argv, "--j", "400")
    assert code == 0 and "NaN" not in out
    assert json.loads(out)["results"][0]["flags"] == []


def test_eval_value_above_e700_keeps_its_signs(capsys):
    # ex7_3 at 40i has log scale 788.9: each component of the value is
    # finite or +-inf with its mantissa's sign, never NaN, in JSON and CSV
    argv = ["eval", "--spec", str(fixture_path("ex7_3")), "--z", "40i",
            "--j", "0", "--j", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    results = json.loads(out)["results"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *lines = out.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == len(results) == 2
    for r, row in zip(results, rows):
        assert r["log_scale"] > 700
        for part in ("re", "im"):
            value, mantissa = r["value"][part], r["mantissa"][part]
            assert not math.isnan(value)
            assert math.copysign(1.0, value) == math.copysign(1.0, mantissa)
            assert float(row["value_" + part]) == value
            assert float(row["mantissa_" + part]) == mantissa


def test_verify_fixture_passes(capsys):
    code, out, _ = run(capsys, "verify", "--spec",
                       str(fixture_path("ex7_3")), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_residual"] <= 1e-8


def test_verify_fails_with_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "--spec", str(fixture_path("airy")),
                       "--residual-tol", "1e-18", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["max_residual"] > 1e-18


def test_verify_corrupted_spec(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":2,"a":[0,0],"b":[0,0]}')
    code, _out, err = run(capsys, "verify", "--spec", str(bad))
    assert code == 2
    assert "input error" in err


def test_missing_file_is_input_error(capsys):
    code, _out, err = run(capsys, "verify", "--spec", "/nonexistent.json")
    assert code == 2


def test_tol_range_enforced(capsys):
    code, _out, _err = run(capsys, "eval", "--spec",
                           str(fixture_path("airy")), "--z", "0",
                           "--tol", "1e-20")
    assert code == 2


def test_library_and_cli_run_without_scipy():
    # scipy is a test dependency only; a None entry in sys.modules makes
    # every import of it fail
    argv = ["report", "--spec", str(fixture_path("airy")), "--no-zeros",
            "--theta-grid", "9", "--radii", "10,20", "--tol", "1e-8"]
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import laplace_ode\n"
            "from laplace_ode.cli import main\n"
            "sys.exit(main(%r))\n" % argv)
    src = str(Path(laplace_ode.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "predicted_exact" in json.loads(proc.stdout)["nevanlinna"]


@pytest.mark.parametrize("z", ["1e400", "nan", "inf"])
def test_eval_rejects_non_finite_z(capsys, z):
    code, out, err = run(capsys, "eval", "--spec", str(fixture_path("airy")),
                         "--z", z)
    assert code == 2
    assert out == "" and "%r is not finite" % z in err


def test_symmetry_non_integer_sum_is_numeric_failure(capsys, tmp_path):
    spec = tmp_path / "odd.json"
    spec.write_text('{"n":5,"a":[-2,0,7.5,0,0],"b":[0,1,0,-1,0]}')
    code, _out, err = run(capsys, "symmetry", "--spec", str(spec))
    assert code == 3
    assert "numeric failure" in err


def test_symmetry_classification(capsys):
    code, out, _ = run(capsys, "symmetry", "--spec",
                       str(fixture_path("ex7_2")))
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "residue_combination"
    assert doc["max_relative_deviation"] < 1e-8


def test_residues_report(capsys):
    code, out, _ = run(capsys, "residues", "--spec",
                       str(fixture_path("ex7_6")))
    assert code == 0
    doc = json.loads(out)
    assert doc["residue_sum_integer"] == 1
    assert doc["single_valued_outside"] is True
    assert all(p["lambda_integer"] is None for p in doc["poles"])
    assert doc["residue_solutions"] == []


def test_double_roots_of_q1_are_listed_and_verified(capsys, tmp_path):
    # Q1 = (t^2 - 2)^2: two poles of multiplicity 2 at +-sqrt(2)
    spec = tmp_path / "double.json"
    spec.write_text('{"n": 5, "a": [1, 0, 0, 0, 0], "b": [4, 0, -4, 0, 1]}')
    code, out, _ = run(capsys, "residues", "--spec", str(spec))
    assert code == 0
    poles = json.loads(out)["poles"]
    got = sorted((p["location"]["re"], p["location"]["im"], p["multiplicity"])
                 for p in poles)
    assert len(got) == 2
    for (re, im, mult), want in zip(got, (-math.sqrt(2), math.sqrt(2))):
        assert abs(re - want) <= 1e-12 * (1 + abs(want))
        assert im == 0.0 and mult == 2
    code, _out, _ = run(capsys, "verify", "--spec", str(spec))
    assert code == 0


@pytest.mark.parametrize("name, z", [("ex7_5", "1e18i"), ("ex7_3", "1e20"),
                                     ("airy", "1e300")])
def test_huge_z_exits_0_or_3(capsys, name, z):
    # the trace's first step rounds back onto its saddle, or the ray
    # profile would overflow: a result or a numeric failure, no traceback
    code, _out, _err = run(capsys, "eval", "--spec", str(fixture_path(name)),
                           "--z", z)
    assert code in (0, 3)


def test_indicator_csv(capsys):
    code, out, _ = run(capsys, "indicator", "--spec",
                       str(fixture_path("airy")), "--theta-grid", "5",
                       "--radii", "10", "--format", "csv", "--tol", "1e-8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,r,h_emp,h_pred,deviation"
    assert len(lines) == 6


def test_zeros_command(capsys):
    code, out, _ = run(capsys, "zeros", "--spec", str(fixture_path("airy")),
                       "--sector=-1.5707963267948966,1.5707963267948966,6",
                       "--tol", "1e-8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["count"] == 0


@pytest.mark.parametrize("sector", [
    "3.6416,2.6416,3",      # theta1 > theta2
    "-3.2,3.2,3",           # wider than a full turn
    "-0.5,0.5,-3",          # negative radius: the rays cross the zero of
    "0,1,-3",               # Ai at -2.338, outside the stated sector
])
def test_zeros_rejects_malformed_sector(capsys, sector):
    code, out, err = run(capsys, "zeros", "--spec", str(fixture_path("airy")),
                         "--sector=" + sector)
    assert code == 2
    assert out == "" and "input error" in err


@pytest.mark.parametrize("radii", ["0,10", "-10,10"])
def test_indicator_rejects_nonpositive_radii(capsys, radii):
    code, out, err = run(capsys, "indicator", "--spec",
                         str(fixture_path("airy")), "--radii=" + radii)
    assert code == 2
    assert out == "" and "input error" in err


@pytest.mark.parametrize("argv", [
    ("indicator", "--radii", "10,1e400"),
    ("indicator", "--radii", "10,inf"),
    ("report", "--zero-radius", "1e400"),
    ("report", "--zero-radius", "inf"),
    ("zeros", "--sector=0,1,1e400"),
    ("zeros", "--sector=0,1,inf"),
    ("zeros", "--sector=0,nan,3"),
])
def test_non_finite_numbers_are_input_errors(capsys, argv):
    code, out, err = run(capsys, argv[0], "--spec", str(fixture_path("airy")),
                         *argv[1:])
    assert code == 2
    assert out == "" and "input error" in err and "finite" in err


def test_values_may_start_with_a_minus_sign(capsys):
    airy = str(fixture_path("airy"))
    outputs = [run(capsys, "eval", "--spec", airy, *z)
               for z in (("--z", "-1i"), ("--z=-1i",))]
    assert outputs[0] == outputs[1]
    code, out, _ = outputs[0]
    assert code == 0
    assert json.loads(out)["results"][0]["z"] == {"re": 0.0, "im": -1.0}
    code, out, _ = run(capsys, "zeros", "--spec", airy, "--sector",
                       "-1,1,3", "--tol", "1e-8")
    assert code == 0
    assert json.loads(out)["results"][0]["sector"] == [-1.0, 1.0, 3.0]


def test_report_bundle_and_determinism(capsys):
    args = ("report", "--spec", str(fixture_path("ex7_2")), "--tol", "1e-8",
            "--theta-grid", "7", "--radii", "8,12", "--no-zeros")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2                       # byte-identical
    doc = json.loads(out1)
    orders = [e["order"] for e in doc["order_catalog"]]
    assert orders == ["3/2", "1", "1/2"]
    assert doc["symmetry"]["classification"] == "residue_combination"
    assert {str(p["lambda_integer"]) for p in doc["poles"]} == {"0"}
    assert doc["partial_failures"] == {}


def _raise(exc):
    def fail(*_args, **_kwargs):
        raise exc
    return fail


REPORT_SMALL = ("report", "--spec", str(fixture_path("airy")), "--tol", "1e-8",
                "--theta-grid", "3", "--radii", "10")


def test_report_numeric_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "zero_count_sector",
                        _raise(NumericError("boundary sampling failed")))
    code, out, _ = run(capsys, *REPORT_SMALL)
    assert code == 3
    doc = json.loads(out)
    assert doc["partial_failures"] == {"zeros": "boundary sampling failed"}
    assert "indicator" in doc and "symmetry" in doc


def test_report_residue_error_is_not_applicable(capsys, monkeypatch):
    monkeypatch.setattr(cli, "symmetry_check",
                        _raise(ResidueError("residue sum is not an integer")))
    code, out, _ = run(capsys, *REPORT_SMALL, "--no-zeros")
    assert code == 0
    doc = json.loads(out)
    assert doc["partial_failures"] == {
        "symmetry": "residue sum is not an integer"}


def test_report_builds_each_residue_solution_once(capsys, monkeypatch):
    from laplace_ode import solutions
    build = solutions._regular_factor_series
    poles = []

    def counted(kd, pole, order):
        poles.append(pole)
        return build(kd, pole, order)

    monkeypatch.setattr(solutions, "_regular_factor_series", counted)
    code, _out, _err = run(capsys, "report", "--spec",
                           str(fixture_path("ex7_1")))
    assert code == 0
    # ex7_1 has 3 singular poles, each with a polynomial residue solution
    assert len(poles) == 3 and len({id(p) for p in poles}) == 3


def test_report_airy_nevanlinna(capsys):
    code, out, _ = run(capsys, "report", "--spec", str(fixture_path("airy")),
                       "--tol", "1e-8", "--theta-grid", "9",
                       "--radii", "10,20", "--no-zeros")
    assert code == 0
    doc = json.loads(out)
    t_pred = doc["nevanlinna"]["predicted_exact"][0]
    assert abs(t_pred - 8 / (9 * math.pi)) < 1e-9


def test_report_rejects_zero_radius_before_evaluating(capsys, monkeypatch):
    not_called = _raise(AssertionError("evaluated before the radius check"))
    monkeypatch.setattr(cli, "symmetry_check", not_called)
    monkeypatch.setattr(cli, "indicator_empirical", not_called)
    code, out, err = run(capsys, *REPORT_SMALL, "--zero-radius", "0")
    assert code == 2
    assert out == ""
    assert "zero-radius" in err


@pytest.mark.parametrize("argv, message", [
    (("zeros", "--sector=-0.5,0.5,6", "--sector=0,1,inf"), "finite"),
    (("zeros", "--sector=-0.5,0.5,6", "--sector=0,1,-3"), "radius"),
    (("zeros", "--sector=-0.5,0.5,6", "--sector=3.6416,2.6416,3"), "angles"),
    (("report", "--radii=0,10"), "positive"),
    (("report", "--radii=20,10"), "increasing"),
    (("report", "--theta-grid=-3.2:0:5"), "theta"),
    (("report", "--theta-grid=0:3.1:5", "--no-zeros"), "theta"),
])
def test_every_input_is_checked_before_anything_is_evaluated(
        capsys, monkeypatch, argv, message):
    # a good first sector is not counted before a bad second one is
    # rejected, and report checks its grid before the symmetry check
    not_called = _raise(AssertionError("evaluated before the input check"))
    for name in ("zero_count_sector", "symmetry_check", "indicator_empirical"):
        monkeypatch.setattr(cli, name, not_called)
    code, out, err = run(capsys, argv[0], "--spec", str(fixture_path("ex7_6")),
                         *argv[1:])
    assert code == 2
    assert out == "" and "input error" in err and message in err


def test_report_no_zeros_ignores_zero_radius(capsys):
    code, out, _ = run(capsys, *REPORT_SMALL, "--no-zeros",
                       "--zero-radius", "0")
    assert code == 0
    assert "zero_count_disk" not in json.loads(out)


# the parser is built once per process; no call may see another's options

EVAL_AIRY = ("eval", "--spec", str(fixture_path("airy")), "--z", "1")


def test_parser_repeated_options_do_not_accumulate(capsys):
    code, out, _ = run(capsys, *EVAL_AIRY, "--j", "0", "--j", "1", "--j", "2")
    assert code == 0
    assert [r["j"] for r in json.loads(out)["results"]] == [0, 1, 2]
    code, out, _ = run(capsys, *EVAL_AIRY, "--j", "0")
    assert code == 0
    assert [r["j"] for r in json.loads(out)["results"]] == [0]


def test_parser_recovers_after_rejected_call(capsys):
    with pytest.raises(SystemExit) as exc:
        main([*EVAL_AIRY, "--no-such-option"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, *EVAL_AIRY)
    assert code == 0 and err == ""
    assert len(json.loads(out)["results"]) == 1


# every flag of the CLI: its text on the command line and the value parsed
FLAGS = {
    "--tol": ("1e-9", 1e-9), "--z": ("1+2i", ["1+2i"]),
    "--j": ("2", ["2"]), "--nu": ("1", 1), "--format": ("csv", "csv"),
    "--residual-tol": ("1e-7", 1e-7), "--theta-grid": ("5", "5"),
    "--radii": ("10,20", "10,20"), "--no-zeros": (None, True),
    "--zero-radius": ("3", 3.0), "--sector": ("0,1,2", ["0,1,2"]),
}
# the flags each command reads, besides --spec and --out
READS = {
    "eval": ("--tol", "--z", "--j", "--nu", "--format"),
    "verify": ("--tol", "--z", "--nu", "--residual-tol", "--format"),
    "report": ("--tol", "--theta-grid", "--radii", "--no-zeros",
               "--zero-radius"),
    "indicator": ("--tol", "--theta-grid", "--radii", "--nu", "--format"),
    "zeros": ("--tol", "--sector", "--nu", "--format"),
    "symmetry": ("--tol", "--z"),
    "residues": (),
}


def _flag_argv(flag):
    text = FLAGS[flag][0]
    return [flag] if text is None else [flag + "=" + text]


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_takes_only_the_flags_it_reads(capsys, monkeypatch,
                                                    command):
    spec = str(fixture_path("airy"))
    argv = [command, "--spec", spec, "--out", "out.json"]
    for flag in READS[command]:
        argv += _flag_argv(flag)
    args = cli.build_parser().parse_args(argv)
    assert vars(args) == {
        "command": command, "fn": getattr(cli, "cmd_" + command),
        "spec": spec, "out": "out.json",
        **{flag[2:].replace("-", "_"): FLAGS[flag][1]
           for flag in READS[command]}}
    # a flag the command does not read is an unrecognized argument, and
    # nothing is loaded or evaluated
    not_called = _raise(AssertionError("loaded before the flags were read"))
    monkeypatch.setattr(cli, "_load_problem", not_called)
    for flag in sorted(set(FLAGS) - set(READS[command])):
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", spec, *_flag_argv(flag)])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + _flag_argv(flag)[0] in \
            capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("report", "--nu", "1"), ("report", "--format", "csv"),
    ("residues", "--format", "csv"), ("residues", "--tol", "1e-20"),
    ("symmetry", "--nu", "1"), ("indicator", "--j", "1"),
    ("zeros", "--z", "3"), ("eval", "--sector=0,1,2"),
    ("report", "--z", "3"),     # not taken for --zero-radius
])
def test_unread_flags_exit_2_before_anything_is_evaluated(capsys, monkeypatch,
                                                         argv):
    from laplace_ode import solutions
    not_called = _raise(AssertionError("evaluated an unread flag's command"))
    for name in ("check_solution", "symmetry_check", "indicator_empirical",
                 "zero_count_sector"):
        monkeypatch.setattr(cli, name, not_called)
    monkeypatch.setattr(solutions.SolutionHandle, "eval_multi", not_called)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--spec", str(fixture_path("ex7_6")), *argv[1:]])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


def test_parser_out_path_is_not_kept(capsys, tmp_path):
    path = tmp_path / "eval.json"
    code, out, _ = run(capsys, *EVAL_AIRY, "--out", str(path))
    assert code == 0 and out == ""
    written = path.read_text(encoding="utf-8")
    code, out, _ = run(capsys, *EVAL_AIRY)
    assert code == 0
    assert out == written


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_rejected_before_loading(capsys, monkeypatch, tmp_path,
                                                command, where):
    # an --out in a missing directory, or that is a directory, exits 2
    # before the spec is loaded or anything is evaluated
    from laplace_ode import solutions
    not_called = _raise(AssertionError("loaded before --out was checked"))
    for name in ("_load_problem", "symmetry_check", "indicator_empirical",
                 "zero_count_sector"):
        monkeypatch.setattr(cli, name, not_called)
    monkeypatch.setattr(solutions.SolutionHandle, "eval_multi", not_called)
    argv = EVAL_AIRY if command == "eval" else REPORT_SMALL
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / where))
    assert code == 2
    assert out == "" and "input error" in err and "--out" in err


def test_out_written_only_on_success(capsys, tmp_path):
    path = tmp_path / "eval.json"
    code, out, _ = run(capsys, *EVAL_AIRY, "--j", "-1", "--out", str(path))
    assert code == 2 and out == "" and not path.exists()
    code, out, _ = run(capsys, *EVAL_AIRY, "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text(encoding="utf-8"))["command"] == "eval"


def test_unreadable_spec_is_an_input_error(capsys, tmp_path):
    # a --spec that is a directory exits 2 like a missing one, no traceback
    code, out, err = run(capsys, "eval", "--spec", str(tmp_path), "--z", "1")
    assert code == 2
    assert out == "" and "input error" in err


def test_eval_rejects_negative_j_before_evaluating(capsys, monkeypatch):
    from laplace_ode import solutions
    monkeypatch.setattr(solutions.SolutionHandle, "eval_multi",
                        _raise(AssertionError("evaluated before the j check")))
    code, out, err = run(capsys, *EVAL_AIRY, "--j", "-1", "--j", "0")
    assert code == 2
    assert out == "" and "input error" in err and "--j" in err


@pytest.mark.parametrize("argv", [
    ("indicator", "--theta-grid=0:1:0"),
    ("indicator", "--theta-grid=0:1:-3"),
    ("indicator", "--theta-grid=0:inf:7"),
    ("indicator", "--theta-grid=nan:1:7"),
    ("indicator", "--theta-grid=0:1:2.5"),
    ("indicator", "--theta-grid=0:1"),
    ("indicator", "--theta-grid=0:1:2:3"),
    ("indicator", "--theta-grid=x"),
    ("report", "--theta-grid", "0"),
    ("report", "--theta-grid=0:1:0", "--no-zeros"),
])
def test_theta_grid_must_be_finite_with_whole_n(capsys, monkeypatch, argv):
    not_called = _raise(AssertionError("evaluated before the grid check"))
    monkeypatch.setattr(cli, "symmetry_check", not_called)
    monkeypatch.setattr(cli, "indicator_empirical", not_called)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy warning on the way
        code, out, err = run(capsys, argv[0], "--spec",
                             str(fixture_path("airy")), *argv[1:])
    assert code == 2
    assert out == "" and "input error" in err and "--theta-grid" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
def test_residual_tol_must_be_positive_and_finite(capsys, monkeypatch, tol):
    monkeypatch.setattr(cli, "check_solution",
                        _raise(AssertionError("evaluated before the check")))
    code, out, err = run(capsys, "verify", "--spec", str(fixture_path("airy")),
                         "--residual-tol=" + tol)
    assert code == 2
    assert out == "" and "input error" in err and "--residual-tol" in err


# the JSON writer: json.dumps(indent=2, sort_keys=True) byte for byte, with
# json's default writing the values json cannot write by itself

def _json_default(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, GaussRational):
        return {"re": str(x.re), "im": str(x.im)} if x.im else str(x.re)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError("%s is not JSON serializable" % type(x).__name__)


def _json_reference(x):
    return json.dumps(x, indent=2, sort_keys=True, default=_json_default)


NAN, INF = math.nan, math.inf
JSON_PAYLOADS = [
    NAN, INF, -INF, -0.0, 0.0, 5e-324, 1e308, 1.7976931348623157e308, 0.1,
    1e16, -2.5e-7, 0, -1, 2 ** 100, -(3 ** 80), True, False, None,
    {}, [], (), {"a": {}}, [[], {}, ()], ({"x": ()},),
    {"b": [1, (2, [3.5, None])], "a": {"c": {}, "B": [[]]}},
    'quote " backslash \\ slash /', "\x00\x01\x1f\x7f\t\n\r\b\f",
    "non-ASCII: ü ∞ λ \U0001d538",
    {"ke\"y\n": 1, "ü": [True], "": "", "Z": False, "\x00": -0.0},
    complex(NAN, 1.0), complex(1.0, NAN), complex(INF, -INF), complex(-0.0, -0.0),
    1e-310 + 2j, [1j, {"z": 2 - 3j}],
    GaussRational(3, -2), GaussRational(Fraction(1, 3)), GaussRational(0),
    GaussRational(0, Fraction(-5, 7)), Fraction(-7, 3), Fraction(4),
    np.float64(0.1), np.float64(NAN), np.float64(-INF), [np.float64(-0.0)],
    np.complex128(1.5 - 0.0j), np.complex128(complex(NAN, INF)),
    np.array([1.0, NAN, -INF]), np.array([[1 + 2j, 3j], [NAN, 0]]),
    np.array([], dtype=float), np.array([[]]),
    {"nested": {"deep": [{"k": [GaussRational(1, 1), Fraction(1, 2), 1j]}]}},
]


@pytest.mark.parametrize("payload", JSON_PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    assert cli._to_json(payload) == _json_reference(payload)
    assert cli._to_json([payload, {"v": payload}]) == \
        _json_reference([payload, {"v": payload}])


@pytest.mark.parametrize("payload", [
    np.int64(3), np.bool_(True), np.float32(0.5), np.complex64(1j), object(),
    {1: "a"}, {"a": 1, 2: "b"}, {None: 0}, [{"ok": [{(1, 2): 3}]}]])
def test_json_writer_refuses_what_json_would_not_write(payload):
    with pytest.raises(TypeError):
        cli._to_json(payload)


@pytest.mark.parametrize("argv", [
    ("eval", "--spec", str(fixture_path("airy")), "--z", "1", "--z", "2+3i",
     "--j", "0", "--j", "1"),
    ("residues", "--spec", str(fixture_path("ex7_1"))),
    ("residues", "--spec", str(fixture_path("ex7_6"))),
])
def test_command_output_is_json_dumps_of_its_payload(capsys, argv):
    code, out, _err = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# one small run of each command on airy, and the CSV rows each writes
RUNNER_ARGV = {
    "eval": ("--z", "1"),
    "verify": ("--z", "1", "--z", "2+1i"),
    "report": ("--no-zeros", "--theta-grid", "3", "--radii", "10"),
    "indicator": ("--theta-grid", "3", "--radii", "5,10"),
    "zeros": ("--sector=0.1,1.2,3",),
    "residues": (),
    "symmetry": ("--z", "1"),
}
CSV_ROWS = {"eval": 1, "verify": 2, "indicator": 6, "zeros": 1}


@pytest.mark.parametrize("command", sorted(RUNNER_ARGV))
def test_runner_loads_the_spec_once_and_writes_one_envelope(
        capsys, monkeypatch, command):
    spec = str(fixture_path("airy"))
    loads = []

    def load(args):
        loads.append(args.spec)
        return laplace_ode.Problem.from_file(args.spec)

    monkeypatch.setattr(cli, "_load_problem", load)
    argv = (command, "--spec", spec, *RUNNER_ARGV[command])
    code, out, _ = run(capsys, *argv)
    assert code == 0 and loads == [spec]
    doc = json.loads(out)
    echo = cli._spec_echo(laplace_ode.Problem.from_file(spec))
    assert doc["command"] == command
    assert doc["version"] == laplace_ode.__version__
    assert doc["spec"] == json.loads(cli._to_json(echo))
    if command not in CSV_ROWS:
        return
    # CSV holds the header and the rows alone, no envelope
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and loads == [spec, spec]
    header, *rows = out.splitlines()
    names = header.split(",")
    assert all(name.isidentifier() for name in names)
    assert len(rows) == CSV_ROWS[command]
    for row in rows:
        assert len([float(v) for v in row.split(",")]) == len(names)
