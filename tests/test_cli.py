import argparse
import json
import math
import os
import re

import pytest

from klcodes import cli, oracle
from klcodes.errors import NoConvergenceError

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
        assert payload["lengths"] == [int(l) for l in expected.lengths.lengths]
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


def test_code_beyond_exact_range_exits_6(capsys, tmp_path, monkeypatch):
    # p proportional to 1..13: some avg-red candidate has no tilt root, and
    # face enumeration stops at 12 symbols
    def sampled(*args, **kwargs):
        raise AssertionError("the solver must not sample the ball")

    monkeypatch.setattr(oracle, "ball_sample", sampled)
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps({"probs": [k / 91 for k in range(1, 14)]}))
    status, out, err = run(capsys, ["code", str(path), "--objective", "avg-red", "--radius", "3.0"])
    assert status == 6
    assert out == ""
    assert "12 symbols" in err


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
])
def test_nan_parameter_exits_2(capsys, argv):
    status, out, err = run(capsys, argv)
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
