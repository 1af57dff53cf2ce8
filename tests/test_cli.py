import argparse
import json
import math
import os
import re

import pytest

from klcodes import cli, oracle
from klcodes.core import Distribution
from klcodes.errors import NoConvergenceError
from klcodes.nml import solve_pi_k
from klcodes.solver import existence_threshold

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def instance(name):
    return os.path.join(INSTANCES, name)


def run(capsys, argv):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_analyze_reports_thresholds(capsys):
    status, out, _ = run(capsys, ["analyze", instance("skewed3.json")])
    assert status == 0
    assert "r_max: 0.1053605156578264" in out
    assert "gg_threshold: 2.3025850929940455" in out


def test_analyze_uniform_r_max_zero(capsys, tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"probs": [0.25] * 4}))
    status, out, _ = run(capsys, ["analyze", str(path), "--format", "json"])
    assert status == 0
    assert json.loads(out)["r_max"] == pytest.approx(0.0, abs=1e-12)


def test_analyze_missing_file_exits_2(capsys):
    status, _, err = run(capsys, ["analyze", "no-such-file.json"])
    assert status == 2
    assert "error" in err


def test_code_shannon_nominal(capsys):
    status, out, _ = run(
        capsys,
        ["code", instance("dyadic3.json"), "--objective", "shannon-nominal", "--radius", "0"],
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["lengths"] == [1, 2, 2]
    assert payload["codewords"] == ["0", "10", "11"]


def test_shannon_nominal_needs_no_radius(capsys):
    # the objective never reads a radius, so leaving it out is no malformed input
    path = instance("skewed3.json")
    argv = ["code", path, "--objective", "shannon-nominal"]
    status, out, err = run(capsys, argv)
    assert status == 0 and err == ""
    assert out == run(capsys, argv + ["--radius", "0"])[1]
    status, out, _ = run(capsys, ["verify", path, "--objective", "shannon-nominal"])
    assert status == 0 and "FAIL" not in out


def test_code_avg_red_zero_radius(capsys):
    status, out, _ = run(
        capsys,
        ["code", instance("mixed4.csv"), "--objective", "avg-red", "--radius", "0"],
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["regime"] == "zero_radius"
    assert sorted(payload["lengths"]) == [1, 2, 3, 3]


def test_code_pointwise_matches_library(capsys):
    from klcodes.core import DivergenceBall
    from klcodes.nml import nml_distribution, robust_huffman_pointwise

    # on mixed4 a solve at tolerance 1e-9 leaves other residuals than the
    # one at the library default the code is built from; the report must
    # carry the residuals of the latter
    for name in ("nml3.json", "mixed4.csv"):
        status, out, _ = run(
            capsys,
            ["code", instance(name), "--objective", "pointwise", "--radius", "0.05"],
        )
        assert status == 0
        payload = json.loads(out)
        ball = DivergenceBall(cli.load_distribution(instance(name)), 0.05)
        expected = robust_huffman_pointwise(ball)
        assert payload["lengths"] == list(expected.lengths.lengths)
        assert payload["achieved_utility"] == pytest.approx(expected.achieved_utility, abs=1e-15)
        assert payload["diagnostics"]["residuals"] == list(nml_distribution(ball).roots_residual)


@pytest.mark.parametrize("command", ["code", "verify"])
def test_pointwise_solves_suprema_once(capsys, monkeypatch, command):
    from klcodes import nml

    calls = []
    real = nml.nml_distribution

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(nml, "nml_distribution", counted)
    monkeypatch.setattr(cli, "nml_distribution", counted)
    status, _, _ = run(
        capsys,
        [command, instance("mixed4.csv"), "--objective", "pointwise", "--radius", "0.05"],
    )
    assert status == 0
    assert len(calls) == 1


def test_verify_loads_input_once(capsys, monkeypatch):
    calls = []
    real = cli.load_distribution

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "load_distribution", counted)
    status, _, _ = run(
        capsys,
        ["verify", instance("mixed4.csv"), "--objective", "pointwise", "--radius", "0.05"],
    )
    assert status == 0
    assert len(calls) == 1


def test_code_radius_in_bits(capsys):
    status, out, _ = run(
        capsys,
        ["code", instance("skewed3.json"), "--objective", "avg-red",
         "--radius", str(0.05 / math.log(2)), "--bits"],
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["regime"] == "interior"


def test_code_strict_boundary_exits_3(capsys):
    status, _, err = run(
        capsys,
        ["code", instance("dyadic3.json"), "--objective", "avg-red",
         "--radius", "0.2", "--strict-boundary"],
    )
    assert status == 3
    assert "error" in err


def test_code_no_convergence_exits_4(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NoConvergenceError("stuck")

    monkeypatch.setattr(cli, "solve_avg_redundancy", explode)
    status, _, err = run(
        capsys,
        ["code", instance("skewed3.json"), "--objective", "avg-red", "--radius", "0.05"],
    )
    assert status == 4
    assert "stuck" in err


@pytest.mark.parametrize("tol", ["1e-300", "0"])
def test_nml_only_unreachable_tol_exits_4(capsys, tol):
    # the Newton roots stop about 1e-16 from the radius; no monkeypatch
    status, out, err = run(
        capsys,
        ["code", instance("mixed4.csv"), "--objective", "nml-only", "--radius", "0.1",
         "--tol", tol],
    )
    assert status == 4
    assert out == ""
    assert "stalled" in err


@pytest.mark.parametrize("radius", [0.01, 1.0, 5.0, 50.0, 600.0])
@pytest.mark.parametrize("m", [1e-310, 1e-315, 1e-320, 5e-324])
def test_subnormal_centre_entry_solves(capsys, tmp_path, m, radius):
    # x / m overflowed in the divergence (and m (1 - x) underflowed in its
    # slope), so the root converged onto the overflow edge and the solve
    # exited 4: below about 1e-312 at every radius here, and at 1e-310 from R = 50
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"probs": [m, 0.5, 0.5 - m]}))
    for objective in ("pointwise", "nml-only"):
        status, out, err = run(
            capsys, ["code", str(path), "--objective", objective, "--radius", str(radius)]
        )
        assert status == 0, err
    root = json.loads(out)["raw"][0]  # 1 - m rounds to 1 for these m
    divergence = root * (math.log(root) - math.log(m)) + (1.0 - root) * math.log1p(-root)
    assert abs(divergence - radius) <= 1e-10
    assert m < root <= min(1.0, m + math.sqrt(radius / 2.0))


@pytest.mark.parametrize("argv", [
    ["code", instance("mixed4.csv"), "--objective", "avg-red", "--radius", "0.1"],
    ["code", instance("mixed4.csv"), "--objective", "gg", "--radius", "0.1"],
    ["code", instance("mixed4.csv"), "--objective", "pointwise", "--radius", "0.1"],
    ["code", instance("mixed4.csv"), "--objective", "shannon-nominal", "--radius", "0"],
    ["verify", instance("mixed4.csv"), "--objective", "gg", "--radius", "0.1"],
])
def test_arity_above_ten_exits_6(capsys, argv):
    # a well-formed input whose code needs digits beyond 0-9
    status, out, err = run(capsys, [*argv, "--arity", "11"])
    assert status == 6
    assert out == ""
    assert "arity" in err


@pytest.mark.parametrize("command", ["code", "verify"])
@pytest.mark.parametrize("arity", ["1", "0", "-2"])
def test_arity_below_two_exits_2(capsys, command, arity):
    # arity 1 used to divide by log 1 = 0 in the Shannon lengths, a traceback
    # and exit 1; 0 and -2 exited 2 only through a bare math domain error
    status, out, err = run(capsys, [command, instance("skewed3.json"), "--objective",
                                    "shannon-nominal", "--radius", "0.1", "--arity", arity])
    assert status == 2
    assert out == ""
    assert "arity must be >= 2" in err


def test_analyze_arity_above_ten_exits_0(capsys):
    status, out, _ = run(capsys, ["analyze", instance("mixed4.csv"), "--arity", "11",
                                  "--format", "json"])
    assert status == 0
    assert json.loads(out)["arity"] == 11


def test_code_rootless_avg_red_above_twelve_symbols_exits_0(capsys, tmp_path, monkeypatch):
    # p proportional to 1..13 at radius 3.0, past r_max: the limit code has
    # no tilt root, and exact_avg_sup scores it exactly at any alphabet size
    from klcodes import existence_threshold, validate_distribution

    def sampled(*args, **kwargs):
        raise AssertionError("the solver must not sample the ball")

    monkeypatch.setattr(oracle, "ball_sample", sampled)
    probs = [k / 91 for k in range(1, 14)]
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps({"probs": probs}))
    status, out, _ = run(capsys, ["code", str(path), "--objective", "avg-red", "--radius", "3.0"])
    assert status == 0
    payload = json.loads(out)
    assert payload["regime"] == "boundary"
    limit_code = existence_threshold(validate_distribution(probs))[2]
    assert payload["lengths"] == list(limit_code.lengths)


def test_sixteen_symbol_avg_red_exits_0_with_or_without_a_rootless_candidate(capsys, tmp_path):
    # 16 symbols: at 0.5 r_max the rootless avg-red candidate is ruled out by
    # a value it reaches in the ball; at 0.8 r_max one is scored exactly
    from klcodes import existence_threshold, validate_distribution

    weights = (0.014516, 0.057579, 0.222358, 0.138804, 0.014951, 0.033002, 0.120653,
               0.019007, 0.029692, 0.044114, 0.032162, 0.018431, 0.143972, 0.031825,
               0.071458, 0.007477)
    probs = [w / sum(weights) for w in weights]
    r_max = existence_threshold(validate_distribution(probs))[0]
    path = tmp_path / "sixteen.json"
    path.write_text(json.dumps({"probs": probs}))
    argv = ["code", str(path), "--objective", "avg-red", "--radius"]
    status, out, _ = run(capsys, [*argv, repr(0.5 * r_max)])
    assert status == 0
    assert json.loads(out)["lengths"] == [6, 4, 2, 3, 6, 5, 3, 5, 5, 5, 5, 6, 3, 5, 4, 6]
    status, out, _ = run(capsys, [*argv, repr(0.8 * r_max)])
    assert status == 0
    assert json.loads(out)["regime"] == "interior"


def test_code_nml_tv(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"probs": [0.6, 0.4]}))
    status, out, _ = run(capsys, ["code", str(path), "--objective", "nml-tv", "--tv", "1.0"])
    assert status == 0
    payload = json.loads(out)
    assert payload["raw"] == [1.0, 0.9]
    assert payload["normalized"] == pytest.approx([10 / 19, 9 / 19], abs=1e-15)


def test_code_malformed_distribution_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"probs": [0.5, 0.4]}))
    status, _, _ = run(capsys, ["code", str(path), "--objective", "avg-red", "--radius", "0"])
    assert status == 2


def test_verify_green_on_shipped_instances(capsys):
    jobs = [
        (instance("skewed3.json"), "avg-red", "0.05"),
        (instance("skewed3.json"), "gg", "0.05"),
        (instance("skewed3.json"), "pointwise", "0.0"),
        (instance("dyadic3.json"), "avg-red", "0.0"),
        (instance("dyadic3.json"), "shannon-nominal", "0.0"),
        (instance("nml3.json"), "pointwise", "0.05"),
        (instance("nml3.json"), "nml-only", "0.05"),
        (instance("mixed4.csv"), "avg-red", "0.02"),
    ]
    for path, objective, radius in jobs:
        status, out, _ = run(
            capsys,
            ["verify", path, "--objective", objective, "--radius", radius,
             "--samples", "2000"],
        )
        assert status == 0, f"{objective} radius {radius} failed:\n{out}"
        assert "FAIL" not in out


def test_verify_round_trip_byte_identical(capsys, tmp_path):
    result_path = tmp_path / "result.json"
    status, _, _ = run(
        capsys,
        ["code", instance("nml3.json"), "--objective", "pointwise", "--radius", "0.05",
         "--output", str(result_path)],
    )
    assert status == 0
    stored = json.loads(result_path.read_text())
    status, out, _ = run(
        capsys,
        ["verify", instance("nml3.json"), "--objective", "pointwise", "--radius", "0.05",
         "--result", str(result_path)],
    )
    assert status == 0
    assert "PASS diagnostics_roundtrip" in out
    # byte-identical re-serialization of the diagnostics block
    rendered = json.dumps(stored["diagnostics"], sort_keys=True)
    assert rendered == json.dumps(json.loads(result_path.read_text())["diagnostics"],
                                  sort_keys=True)


def test_verify_corrupted_result_exits_5(capsys, tmp_path):
    result_path = tmp_path / "result.json"
    status, _, _ = run(
        capsys,
        ["code", instance("skewed3.json"), "--objective", "avg-red", "--radius", "0.05",
         "--output", str(result_path)],
    )
    assert status == 0
    payload = json.loads(result_path.read_text())
    payload["lengths"] = [1, 1, 2]  # corrupt: violates Kraft and the solve
    result_path.write_text(json.dumps(payload))
    status, out, _ = run(
        capsys,
        ["verify", instance("skewed3.json"), "--objective", "avg-red", "--radius", "0.05",
         "--result", str(result_path), "--samples", "1000"],
    )
    assert status == 5
    assert "FAIL" in out


def test_verify_result_with_string_utility_exits_5(capsys, tmp_path):
    result_path = tmp_path / "result.json"
    argv = [instance("skewed3.json"), "--objective", "avg-red", "--radius", "0.05"]
    status, _, _ = run(capsys, ["code", *argv, "--output", str(result_path)])
    assert status == 0
    payload = json.loads(result_path.read_text())
    payload["achieved_utility"] = str(payload["achieved_utility"])
    result_path.write_text(json.dumps(payload))
    status, out, _ = run(capsys, ["verify", *argv, "--result", str(result_path),
                                  "--samples", "1000"])
    assert status == 5
    assert "FAIL result_integrity" in out


def test_output_written_atomically(capsys, tmp_path):
    target = tmp_path / "out.json"
    status, _, _ = run(
        capsys,
        ["code", instance("dyadic3.json"), "--objective", "shannon-nominal",
         "--radius", "0", "--output", str(target)],
    )
    assert status == 0
    assert json.loads(target.read_text())["lengths"] == [1, 2, 2]
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".klcodes-")]
    assert leftovers == []


def test_output_to_directory_exits_2_and_removes_temp_file(capsys, tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    status, out, err = run(
        capsys,
        ["code", instance("dyadic3.json"), "--objective", "shannon-nominal",
         "--radius", "0", "--output", str(target)],
    )
    assert status == 2
    assert out == ""
    assert "error" in err
    assert sorted(os.listdir(tmp_path)) == ["out"]


def test_csv_labels_parsed(capsys):
    status, out, _ = run(capsys, ["analyze", instance("mixed4.csv"), "--format", "json"])
    assert status == 0
    assert json.loads(out)["m"] == 4


def test_analyze_saturation_diagnostics(capsys):
    status, out, _ = run(
        capsys,
        ["analyze", instance("skewed3.json"), "--radius", "0.6", "--format", "json"],
    )
    assert status == 0
    payload = json.loads(out)
    cutoff = math.exp(-0.6)
    assert payload["saturation_cutoff"] == pytest.approx(cutoff, abs=1e-15)
    assert payload["saturated"] == [p >= cutoff for p in (0.6, 0.3, 0.1)]


def test_nml_only_roundtrip(capsys, tmp_path):
    result_path = tmp_path / "nml.json"
    status, _, _ = run(
        capsys,
        ["code", instance("nml3.json"), "--objective", "nml-only", "--radius", "0.05",
         "--output", str(result_path)],
    )
    assert status == 0
    payload = json.loads(result_path.read_text())
    assert set(payload) >= {"raw", "normalized", "saturated", "diagnostics"}
    status, out, _ = run(
        capsys,
        ["verify", instance("nml3.json"), "--objective", "nml-only", "--radius", "0.05",
         "--result", str(result_path)],
    )
    assert status == 0
    assert "PASS diagnostics_roundtrip" in out


def test_allow_zero_drops_symbols(capsys, tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("a,0.6\nb,0.4\nc,0.0\n")
    status, _, _ = run(capsys, ["analyze", str(path)])
    assert status == 2  # zero symbol rejected by default
    with pytest.warns(UserWarning):
        status, out, _ = run(capsys, ["analyze", str(path), "--allow-zero", "--format", "json"])
    assert status == 0
    assert json.loads(out)["m"] == 2


def test_verify_nml_tv(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"probs": [0.6, 0.4]}))
    status, out, _ = run(capsys, ["verify", str(path), "--objective", "nml-tv", "--tv", "0.3"])
    assert status == 0
    assert "PASS tv_suprema" in out


def test_missing_probs_key_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"labels": ["a", "b"]}))
    status, _, err = run(capsys, ["analyze", str(path)])
    assert status == 2
    assert "error" in err


@pytest.mark.parametrize("document", [
    {"probs": None}, [0.5, 0.5], {"probs": [0.5, None]}, {"probs": [0.5, 0.5], "labels": 7},
    {"probs": [int("9" * 400), 1]},
], ids=["null-probs", "bare-list", "null-entry", "scalar-labels", "huge-integer"])
def test_malformed_json_exits_2(capsys, tmp_path, document):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(document))
    status, _, err = run(
        capsys, ["code", str(path), "--objective", "pointwise", "--radius", "0.1"])
    assert status == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("allow_zero", [[], ["--allow-zero"]], ids=["default", "allow-zero"])
@pytest.mark.parametrize("document", [
    {"probs": [0.5, 0.5, 0.0], "labels": ["a"]}, {"probs": [0.5, 0.5], "labels": ["a", "b", "c"]},
], ids=["fewer-labels", "more-labels"])
def test_labels_of_another_length_exit_2(capsys, tmp_path, document, allow_zero):
    # checked before any zero is dropped: with --allow-zero the first used to
    # die with an IndexError and the second to exit 0
    path = tmp_path / "t.json"
    path.write_text(json.dumps(document))
    status, out, err = run(capsys, ["analyze", str(path), *allow_zero])
    assert status == 2
    assert out == ""
    assert err.startswith("error:")


def test_bad_csv_value_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,0.5\nb,not-a-number\n")
    status, _, _ = run(capsys, ["analyze", str(path)])
    assert status == 2


def test_missing_radius_exits_2(capsys):
    status, _, err = run(capsys, ["code", instance("skewed3.json"), "--objective", "avg-red"])
    assert status == 2
    assert "radius" in err


def test_negative_radius_exits_2(capsys):
    status, _, _ = run(
        capsys,
        ["code", instance("skewed3.json"), "--objective", "avg-red", "--radius", "-0.1"],
    )
    assert status == 2


@pytest.mark.parametrize("argv", [
    ["code", instance("mixed4.csv"), "--objective", "nml-tv", "--tv", "nan"],
    ["analyze", instance("mixed4.csv"), "--radius", "nan"],
    ["verify", instance("skewed3.json"), "--objective", "gg", "--radius", "0.05",
     "--tol", "nan", "--samples", "500"],
    ["code", instance("mixed4.csv"), "--objective", "nml-only", "--radius", "0.1",
     "--tol", "-1"],
    # an infinite radius or total variation would print Infinity, which is not JSON
    ["analyze", instance("mixed4.csv"), "--radius", "inf"],
    ["code", instance("mixed4.csv"), "--objective", "nml-only", "--radius", "inf"],
    ["code", instance("mixed4.csv"), "--objective", "nml-tv", "--tv", "inf"],
    # a flag that the objective does not read is range-checked all the same
    *([command, instance("mixed4.csv"), "--objective", "nml-tv", "--tv", "0.1",
       "--radius", radius]
      for command in ("code", "verify") for radius in ("nan", "-1")),
    *(["code", instance("mixed4.csv"), "--objective", objective, "--radius", "0.1", "--tv", tv]
      for objective in ("avg-red", "gg", "pointwise", "shannon-nominal", "nml-only")
      for tv in ("nan", "-1", "inf")),
    *([command, instance("mixed4.csv"), "--objective", objective, flag, "0.1",
       "--arity", arity]
      for command in ("code", "verify")
      for objective, flag in (("nml-only", "--radius"), ("nml-tv", "--tv"))
      for arity in ("0", "1", "-2")),
])
def test_nan_parameter_exits_2(capsys, argv):
    # main returns the status (no SystemExit) before anything is written
    status, out, err = run(capsys, argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("flag, text, kind", [
    ("--radius", "abc", "float"), ("--tol", "", "float"), ("--arity", "2.5", "int"),
])
def test_non_numeric_flag_keeps_the_argparse_message(capsys, flag, text, kind):
    # text that is no number at all is argparse's to reject, under its own
    # message and exit status
    with pytest.raises(SystemExit) as exited:
        cli.main(["code", instance("mixed4.csv"), "--objective", "nml-only", "--radius", "0.1",
                  flag, text])
    assert exited.value.code == 2
    assert f"argument {flag}: invalid {kind} value: {text!r}" in capsys.readouterr().err


def test_nml_tv_without_tv_exits_2(capsys):
    status, out, err = run(capsys, ["code", instance("mixed4.csv"), "--objective", "nml-tv"])
    assert status == 2
    assert out == ""
    assert "--tv" in err


@pytest.mark.parametrize("lmax", ["0", "-3"])
def test_verify_lmax_below_one_exits_2(capsys, lmax):
    # exit 6 is kept for an --lmax beyond the exact range, above 10
    status, out, err = run(
        capsys,
        ["verify", instance("skewed3.json"), "--objective", "avg-red", "--radius", "0.05",
         "--samples", "500", "--lmax", lmax],
    )
    assert status == 2
    assert out == ""
    assert "lmax" in err


@pytest.mark.parametrize("objective", cli.OBJECTIVES)
@pytest.mark.parametrize("probs", [[0.4, 0.3, 0.2, 0.1], [0.3, 0.2, 0.15, 0.15, 0.1, 0.1]],
                         ids=["m4", "m6"])
def test_verify_lmax_above_ten_exits_6(capsys, tmp_path, objective, probs):
    # beyond the enumerable range for every objective and alphabet, not only
    # where an enumerating oracle runs: the range is declared with the flag
    path = tmp_path / "centre.json"
    path.write_text(json.dumps({"probs": probs}))
    status, out, err = run(capsys, ["verify", str(path), "--objective", objective,
                                    "--radius", "0.05", "--tv", "0.1", "--samples", "200",
                                    "--lmax", str(oracle.ENUM_MAX_LEN + 1)])
    assert status == 6
    assert out == ""
    assert f"lmax must be <= {oracle.ENUM_MAX_LEN}, got {oracle.ENUM_MAX_LEN + 1}" in err


@pytest.mark.parametrize("probs, radius, objective, lmax", [
    ([0.6, 0.2, 0.1, 0.1], "0.05", "pointwise", 2),
    ([0.6, 0.2, 0.1, 0.1], "0.05", "gg", 2),
    ([0.6, 0.2, 0.1, 0.1], "0.05", "avg-red", 2),
    ([0.5, 0.3, 0.2], "0.1", "gg", 1),
    ([0.5, 0.3, 0.2], "0.1", "pointwise", 1),
], ids=["m4_pointwise", "m4_gg", "m4_avg_red", "m3_gg_no_code", "m3_pointwise_no_code"])
def test_verify_lmax_below_the_reported_code_exits_2(capsys, monkeypatch, tmp_path, probs, radius,
                                                     objective, lmax):
    # an oracle capped below the longest reported codeword never meets the
    # reported code: a correct report read as FAIL (exit 5), or, when the cap
    # admits no code at all, the empty minimum crashed; one more length passes.
    # The cap is checked before the ball is sampled, so no sample is drawn
    samples = []
    ball_sample = oracle.ball_sample
    monkeypatch.setattr(oracle, "ball_sample",
                        lambda *a, **k: samples.append(a) or ball_sample(*a, **k))
    path = tmp_path / "centre.json"
    path.write_text(json.dumps({"probs": probs}))
    argv = ["verify", str(path), "--objective", objective, "--radius", radius, "--samples", "200"]
    status, out, err = run(capsys, argv + ["--lmax", str(lmax)])
    assert status == 2
    assert out == ""
    assert f"--lmax {lmax} is below the reported code's longest codeword ({lmax + 1})" in err
    assert samples == []
    status, out, _ = run(capsys, argv + ["--lmax", str(lmax + 1)])
    assert status == 0
    assert "oracle_" in out


def test_verify_negative_samples_exits_2(capsys):
    # a negative count is malformed; --samples 0 stays valid
    status, out, err = run(
        capsys,
        ["verify", instance("mixed4.csv"), "--objective", "avg-red", "--radius", "0.05",
         "--samples", "-1"],
    )
    assert status == 2
    assert out == ""
    assert "samples" in err
    status, _, _ = run(
        capsys,
        ["verify", instance("mixed4.csv"), "--objective", "avg-red", "--radius", "0.05",
         "--samples", "0"],
    )
    assert status == 0


def test_verify_result_not_an_object_exits_2(capsys, tmp_path):
    result_path = tmp_path / "result.json"
    result_path.write_text("[1, 2]")
    status, out, err = run(
        capsys,
        ["verify", instance("skewed3.json"), "--objective", "avg-red", "--radius", "0.05",
         "--samples", "500", "--result", str(result_path)],
    )
    assert status == 2
    assert out == ""
    assert "error" in err


def test_verify_gg_between_r_max_and_shortcut_radius(capsys):
    # r_max of mixed4 is 0.9163 < -log 0.1; the code (1,2,3,3) still has a
    # tilt root there and beats the limit code (2,2,2,2)
    status, out, _ = run(
        capsys,
        ["verify", instance("mixed4.csv"), "--objective", "gg",
         "--radius", "0.916290731874155", "--samples", "2000"],
    )
    assert status == 0, out
    assert "PASS oracle_minimax" in out


def _radius_fraction(path, fraction):
    from klcodes.solver import existence_threshold

    return repr(fraction * existence_threshold(cli.load_distribution(str(path)))[0])


def test_analyze_dyadic_r_max_is_positive_zero(capsys):
    status, out, _ = run(capsys, ["analyze", instance("dyadic3.json"), "--format", "json"])
    assert status == 0
    assert '"r_max": 0.0,' in out
    assert math.copysign(1.0, json.loads(out)["r_max"]) == 1.0


def test_verify_pointwise_shannon_tie_passes(capsys, tmp_path):
    # the Huffman and Shannon codes tie on this centre, so scoring them on
    # two root solves of different tolerance splits the tie in the last bits
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(
        {"probs": [0.21999880296244043, 0.7636332274854468, 0.01636796955211282]}))
    radius = _radius_fraction(path, 0.3)
    status, out, _ = run(
        capsys,
        ["verify", str(path), "--objective", "pointwise", "--radius", radius,
         "--samples", "2000"],
    )
    assert status == 0, out
    assert ("PASS shannon_dominance (huffman=0.38430018194355675 "
            "shannon=0.38430018194355675)") in out


@pytest.mark.parametrize("objective", ["avg-red", "gg"])
def test_verify_result_round_trip_unnormalised_worst_case(capsys, tmp_path, objective):
    # the stored worst case sums to 0.9999999999999999, so re-ingesting it
    # renormalises it; the stored report must still verify unchanged
    path = tmp_path / "centre.json"
    path.write_text(json.dumps(
        {"probs": [0.556821311817372, 0.3879956424924505, 0.055183045690177415]}))
    result_path = tmp_path / "result.json"
    argv = [str(path), "--objective", objective, "--radius", _radius_fraction(path, 0.1)]
    status, _, _ = run(capsys, ["code", *argv, "--output", str(result_path)])
    assert status == 0
    status, out, _ = run(capsys, ["verify", *argv, "--result", str(result_path),
                                  "--samples", "2000"])
    assert status == 0, out
    assert "PASS diagnostics_roundtrip" in out
    assert "PASS result_worst_case" in out


def test_verify_result_detects_tampered_worst_case(capsys, tmp_path):
    result_path = tmp_path / "result.json"
    argv = [instance("skewed3.json"), "--objective", "avg-red", "--radius", "0.05"]
    status, _, _ = run(capsys, ["code", *argv, "--output", str(result_path)])
    assert status == 0
    payload = json.loads(result_path.read_text())
    payload["worst_case"][0] += 1e-12
    payload["worst_case"][1] -= 1e-12
    result_path.write_text(json.dumps(payload))
    status, out, _ = run(capsys, ["verify", *argv, "--result", str(result_path),
                                  "--samples", "1000"])
    assert status == 5
    assert "FAIL result_worst_case" in out
    assert "PASS diagnostics_roundtrip" in out


def test_every_option_has_help():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{name} {action.dest}"
        for name, command in (("klcodes", parser), *sub.choices.items())
        for action in command._actions
        if action.option_strings != ["-h", "--help"] and not action.help
    ]
    assert missing == []


def test_readme_synopsis_lists_every_option():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"```\n(klcodes analyze .*?)```", text, re.S).group(1)
    documented: dict[str, set[str]] = {}
    for line in block.splitlines():
        command = re.match(r"klcodes (\w+)", line)
        if command:
            options = documented.setdefault(command.group(1), set())
        options.update(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert documented == parsed


def test_main_reuses_one_parser_with_a_fresh_parsers_outcomes(capsys):
    # the parser is built once per process; an error, a solve and --help in
    # a row give what a parser built for each call alone gives
    argvs = [
        ["code", instance("mixed4.csv"), "--objective", "avg-red", "--radius", "-1"],
        ["code", instance("mixed4.csv"), "--objective", "avg-red", "--radius", "0.05"],
        ["code", "--help"],
        ["code", instance("mixed4.csv"), "--objective", "avg-red", "--radius", "0.05"],
    ]

    def outcome(argv):
        try:
            status = cli.main(argv)
        except SystemExit as exited:
            status = exited.code
        return status, *capsys.readouterr()

    reused = [outcome(argv) for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [status for status, _, _ in reused] == [2, 0, 0, 0]
    assert reused[1] == reused[3]
    assert reused[2][1].startswith("usage: klcodes code")


@pytest.mark.parametrize("objective", ["avg-red", "gg"])
def test_verify_roots_each_enumerated_code_once(capsys, tmp_path, monkeypatch, objective):
    # the sampled oracle reads each code's analytic point from its sample:
    # one tilted_roots call over the enumerated codes, each code in it once,
    # no tilted_root of the oracle's, and nothing carried to the next verify
    batches, calls = [], []
    roots, root = oracle.tilted_roots, oracle.tilted_root
    monkeypatch.setattr(oracle, "tilted_roots",
                        lambda mu, codes, radius: batches.append(codes) or roots(mu, codes, radius))
    monkeypatch.setattr(oracle, "tilted_root", lambda *a: calls.append(a) or root(*a))
    mu = Distribution((0.4, 0.3, 0.2, 0.1))
    path = tmp_path / "centre.json"
    path.write_text(json.dumps({"probs": list(mu.probs)}))
    radius = repr(0.5 * existence_threshold(mu)[0])
    codes = len(list(oracle.enumerate_kraft_lengths(4, 2, oracle.default_l_max(4, 2))))
    assert codes == 22
    for _ in range(2):
        batches.clear()
        status, out, _ = run(capsys, ["verify", str(path), "--objective", objective,
                                      "--radius", radius, "--samples", "200"])
        assert status == 0
        assert "oracle_minimax" in out
        assert len(batches) == 1 and len(set(batches[0])) == len(batches[0]) == codes
        assert not calls


@pytest.mark.parametrize("objective", ["avg-red", "gg", "pointwise"])
def test_verify_negative_seed_exits_2(capsys, tmp_path, objective):
    # rejected where the flag is parsed, at M=4 (where the oracle samples)
    # and M=5 (where it does not) alike
    path = tmp_path / "centre.json"
    path.write_text(json.dumps({"probs": [0.3, 0.25, 0.2, 0.15, 0.1]}))
    for source in (instance("mixed4.csv"), str(path)):
        status, out, err = run(capsys, ["verify", source, "--objective", objective,
                                        "--radius", "0.05", "--samples", "200", "--seed", "-1"])
        assert status == 2
        assert out == ""
        assert "seed must be >= 0, got -1" in err


@pytest.mark.parametrize("probs", [(1.0, 1e-300), (1.0, 1e-20, 1e-30)])
@pytest.mark.parametrize("objective", ["pointwise", "nml-only"])
@pytest.mark.parametrize("radius", ["0.05", "0.3", "30"])
def test_a_centre_entry_of_one_codes_and_verifies(capsys, tmp_path, probs, objective, radius):
    # an entry of exactly 1.0 saturates at every radius above 0 and needs no
    # root, so the centre is valid input, not malformed (exit 2)
    path = tmp_path / "centre.json"
    path.write_text(json.dumps({"probs": list(probs)}))
    for command in ("code", "verify"):
        status, out, err = run(capsys, [command, str(path), "--objective", objective,
                                        "--radius", radius])
        assert status == 0, err
        assert "FAIL" not in out
    if objective == "nml-only":
        payload = json.loads(run(capsys, ["code", str(path), "--objective", objective,
                                          "--radius", radius])[1])
        assert 0 in payload["saturated"]


@pytest.mark.parametrize("radius", ["1e-40", "1e-300", "1e-31"])
def test_verify_pointwise_accepts_a_root_that_rounds_to_the_centre(capsys, tmp_path, radius):
    # below about 1e-32 the root mu_k + sqrt(2 R mu_k (1 - mu_k)) rounds to
    # mu_k, which the kernel then returns: the correctly rounded root
    path = tmp_path / "centre.json"
    path.write_text(json.dumps({"probs": [0.5, 0.3, 0.2]}))
    status, out, _ = run(capsys, ["verify", str(path), "--objective", "pointwise",
                                  "--radius", radius])
    assert status == 0
    assert "PASS root_range" in out


def test_root_range_admits_the_centre_only_where_the_root_rounds_to_it():
    assert cli._root_in_range(0.3, 0.3, 1e-40)
    assert not cli._root_in_range(0.3, 0.3, 0.05)
    assert cli._root_in_range(0.3, solve_pi_k(0.3, 0.05), 0.05)
    assert not cli._root_in_range(0.3, math.nextafter(0.3, 0.0), 1e-40)
