"""Tests of the benchmark's own checks and tracer.

Each check must accept a correct output and reject a deliberately
corrupted one.  Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection;
the benchmark is not part of the program's test suite.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import klcodes  # noqa: E402
import klcodes.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MU = [0.45, 0.25, 0.15, 0.1, 0.05]


def solved(objective: str, fraction: float):
    mu = klcodes.validate_distribution(MU)
    radius = fraction * klcodes.existence_threshold(mu)[0]
    solve = klcodes.solve_avg_redundancy if objective == "avg" else klcodes.solve_gg
    return mu, radius, solve(klcodes.DivergenceBall(mu, radius))


def rejects(fn, *args, match: str = ""):
    with pytest.raises(checks.CheckFailure, match=match):
        fn(*args)


# ------------------------------------------------------------------ codes


def test_code_check_accepts_a_canonical_code():
    checks.check_code([1, 2, 3, 3], ["0", "10", "110", "111"], 2)


def test_code_check_rejects_kraft_above_one():
    rejects(checks.check_code, [1, 1, 2], None, 2, match="Kraft")


def test_code_check_rejects_non_integer_and_zero_lengths():
    rejects(checks.check_code, [1, 1.5, 2], None, 2, match="positive integer")
    rejects(checks.check_code, [0, 1], None, 2, match="positive integer")


def test_code_check_rejects_a_prefix():
    rejects(checks.check_code, [1, 2, 2], ["0", "01", "11"], 2, match="prefix")


def test_code_check_rejects_a_codeword_of_the_wrong_length():
    rejects(checks.check_code, [1, 2, 2], ["0", "10", "111"], 2, match="digits")


# ----------------------------------------------------------- ball results


@pytest.mark.parametrize("objective", ["avg", "gg"])
def test_ball_check_accepts_the_solver(objective):
    mu, radius, result = solved(objective, 0.4)
    checks.check_ball_result(objective, mu.probs, radius, list(result.lengths.lengths),
                             result.worst_case.probs, result.achieved_utility, 2,
                             np.random.default_rng(0))
    checks.check_beats_nominal_huffman(objective, mu.probs, radius, result.achieved_utility, 2)


def test_ball_check_rejects_a_worst_case_outside_the_ball():
    mu, radius, result = solved("avg", 0.4)
    outside = [0.0, 0.0, 0.0, 0.0, 1.0]
    rejects(checks.check_ball_result, "avg", mu.probs, radius, list(result.lengths.lengths),
            outside, result.achieved_utility, 2, np.random.default_rng(0), match="outside")


def test_ball_check_rejects_a_value_that_is_not_the_worst_cases():
    mu, radius, result = solved("gg", 0.4)
    rejects(checks.check_ball_result, "gg", mu.probs, radius, list(result.lengths.lengths),
            result.worst_case.probs, result.achieved_utility - 1e-3, 2,
            np.random.default_rng(0), match="differs")


def test_ball_check_rejects_a_value_below_a_sampled_ball_point():
    # a self-consistent report whose "worst case" is the centre itself
    mu, radius, result = solved("avg", 0.4)
    lengths = list(result.lengths.lengths)
    at_centre = checks.avg_red(lengths, mu.probs, 2)
    rejects(checks.check_ball_result, "avg", mu.probs, radius, lengths, mu.probs, at_centre, 2,
            np.random.default_rng(0), match="ball point")


def test_huffman_competitor_rejects_a_value_above_it():
    mu, radius, result = solved("avg", 0.4)
    rejects(checks.check_beats_nominal_huffman, "avg", mu.probs, radius,
            result.achieved_utility + 1e-3, 2, match="Huffman")


def test_tilt_worst_case_sits_on_the_boundary():
    mu = np.array(MU)
    lengths = checks.huffman_lengths(MU)
    worst = checks.tilt_worst_case(MU, lengths, 2, 0.05)
    assert abs(checks.divergence(worst, mu) - 0.05) < 1e-12
    point = klcodes.tilted_root(klcodes.validate_distribution(MU),
                                klcodes.CodeLengths(tuple(lengths)), 0.05)
    assert np.allclose(worst, point.distribution.probs, atol=1e-9)


def test_huffman_lengths_are_optimal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.dirichlet(np.ones(6))
        ours = checks.huffman_lengths(w)
        theirs = klcodes.huffman(w).lengths
        assert abs(np.dot(w, ours) - np.dot(w, theirs)) < 1e-12


# -------------------------------------------------------------- pointwise


def pointwise_ball(m=64, radius=0.3, seed=5):
    rng = np.random.default_rng(seed)
    mu = workloads.centre(klcodes, rng, m)
    return klcodes.DivergenceBall(mu, radius)


def test_nml_check_accepts_the_program():
    ball = pointwise_ball()
    nml = klcodes.nml_distribution(ball)
    checks.check_nml(ball.center.probs, ball.radius, nml.raw, nml.normalized.probs)


def test_nml_check_rejects_a_bad_root_a_bad_saturation_and_bad_normalisation():
    ball = pointwise_ball(m=16, radius=3.0)
    nml = klcodes.nml_distribution(ball)
    raw = list(nml.raw)
    k = next(i for i, r in enumerate(raw) if r < 1.0)
    s = next(iter(nml.saturated))
    moved = raw.copy()
    moved[k] *= 1.0 + 1e-6
    rejects(checks.check_nml, ball.center.probs, ball.radius, moved, nml.normalized.probs,
            match="residual")
    unsaturated = raw.copy()
    unsaturated[s] = 0.999
    rejects(checks.check_nml, ball.center.probs, ball.radius, unsaturated,
            nml.normalized.probs, match="saturation")
    skewed = list(nml.normalized.probs)
    skewed[k] *= 1.0 + 1e-9
    rejects(checks.check_nml, ball.center.probs, ball.radius, raw, skewed, match="normalised")


def brute_pointwise(pi_hat, l_max=8):
    """min over every Kraft-feasible length vector of max_k (l_k + log2 pi_k)."""
    best = math.inf
    for lengths in itertools.product(range(1, l_max + 1), repeat=len(pi_hat)):
        if sum(2.0 ** -l for l in lengths) <= 1.0:
            best = min(best, max(l + math.log2(q) for l, q in zip(lengths, pi_hat)))
    return best


def test_pointwise_optimum_matches_brute_force():
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 5):
        for _ in range(5):
            pi_hat = rng.dirichlet(np.ones(m))
            assert abs(checks.pointwise_optimum(pi_hat, 2) - brute_pointwise(pi_hat)) < 1e-12


def test_pointwise_check_accepts_the_program_and_rejects_a_worse_code():
    ball = pointwise_ball()
    result = klcodes.robust_huffman_pointwise(ball)
    pi_hat = result.worst_case.probs
    lengths = list(result.lengths.lengths)
    checks.check_pointwise_value(lengths, pi_hat, result.achieved_utility, 2)
    shannon = [math.ceil(-math.log2(q)) for q in pi_hat]
    value = max(l + math.log2(q) for l, q in zip(shannon, pi_hat))
    assert value > result.achieved_utility  # the Shannon code is not optimal here
    rejects(checks.check_pointwise_value, shannon, pi_hat, value, 2, match="optimum")
    rejects(checks.check_pointwise_value, lengths, pi_hat, result.achieved_utility + 1e-9, 2,
            match="differs")


# -------------------------------------------------------------------- cli


def test_verify_text_check():
    checks.check_verify_text("PASS kraft\nPASS oracle\n2/2 checks passed\n")
    rejects(checks.check_verify_text, "PASS kraft\nFAIL oracle\n1/2 checks passed\n",
            match="FAIL")
    rejects(checks.check_verify_text, "1/2 checks passed\n", match="summary")
    rejects(checks.check_verify_text, "", match="nothing")


def test_cli_code_check_rejects_a_bad_exit_and_a_changed_report(tmp_path):
    path = workloads.write_distribution(str(tmp_path / "d.json"),
                                        klcodes.validate_distribution(MU))
    op = workloads._cli_code_op(klcodes, "code", path, "avg-red", "0.05")
    status, text = op.run()
    op.check((status, text))
    rejects(op.check, (2, text), match="exit")
    payload = json.loads(text)
    payload["achieved_utility"] += 1e-12
    rejects(op.check, (0, json.dumps(payload)), match="achieved_utility")


# ----------------------------------------------------------------- tracer


def test_tracer_counts_repeat_and_originals_come_back():
    ball = klcodes.DivergenceBall(klcodes.validate_distribution(MU), 0.05)
    before = (klcodes.solver.tilted_root, klcodes.oracle.tilted_root, klcodes.core.kl_divergence)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            klcodes.solve_avg_redundancy(ball)
            klcodes.robust_huffman_pointwise(ball)
        finally:
            tracer.uninstall()
        figures = tracer.metrics()
        runs.append({k: v for k, v in figures.items() if not k.endswith("_ms")})
    assert runs[0] == runs[1]
    assert runs[0]["solver.candidates"] > 0
    assert runs[0]["tilted.tilted_root.rooted"] <= runs[0]["tilted.tilted_root.calls"]
    assert runs[0]["nml.newton_iters"] > 0 and runs[0]["core.distribution.constructs"] > 0
    after = (klcodes.solver.tilted_root, klcodes.oracle.tilted_root, klcodes.core.kl_divergence)
    assert before == after


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(100000)))
    inner, outer = tracer.self_s[tracer._id("inner")], tracer.self_s[tracer._id("outer")]
    total = tracer.span_end[0] - tracer.span_start[0]
    assert 0.0 <= outer < total and abs(inner + outer - total) < 1e-9
    assert list(tracer.span_parent) == [-1, 0]


def test_round_sizes(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        ops = build(klcodes, np.random.default_rng(0), 2, 0, str(tmp_path))
        assert len(ops) == 2 * workloads.ROUND_SIZE[name]


def test_passes_draw_their_own_inputs(tmp_path):
    import run

    lists = run.build_passes(klcodes, "cli", 0, 1, str(tmp_path))
    assert len(lists) == run.PASSES["cli"] > 1
    assert [op.label for op in lists[0]] == [op.label for op in lists[-1]]
    centres = {(tmp_path / f"pass{number}" / "wide0-0.json").read_text()
               for number in range(len(lists))}
    assert len(centres) == len(lists)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
