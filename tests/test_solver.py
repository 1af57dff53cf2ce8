import math
import os
import subprocess
import sys

import numpy as np
import pytest

import klcodes
from klcodes.core import DivergenceBall, kl_divergence, validate_distribution
from klcodes.errors import BoundaryRegimeError
from klcodes.huffman import expected_cost, huffman
from klcodes.oracle import ball_sample, brute_min_over_codes
from klcodes.solver import existence_threshold, g_of_beta, solve_avg_redundancy, solve_gg
from klcodes.tilted import avg_redundancy, gg_utility

SKEWED = validate_distribution([0.6, 0.3, 0.1])
DYADIC = validate_distribution([0.5, 0.25, 0.25])


def test_existence_threshold_dyadic_is_zero():
    r_max, limit, code = existence_threshold(DYADIC, 2)
    assert sorted(code.lengths) == [1, 2, 2]
    assert r_max == pytest.approx(0.0, abs=1e-12)


def test_existence_threshold_skewed():
    r_max, limit, code = existence_threshold(SKEWED, 2)
    assert code.lengths == (1, 2, 2)
    assert r_max == pytest.approx(-math.log(0.9), abs=1e-12)


def test_existence_threshold_uniform_four():
    uniform = validate_distribution([0.25] * 4)
    r_max, _, _ = existence_threshold(uniform, 2)
    assert r_max == pytest.approx(0.0, abs=1e-12)


def test_g_of_beta_small_beta_vanishes():
    divergence, _ = g_of_beta(SKEWED, 2, 1e-6)
    assert divergence < 1e-9


def test_g_of_beta_dyadic_always_zero():
    for beta in (0.1, 1.0, 10.0, 100.0):
        divergence, _ = g_of_beta(DYADIC, 2, beta)
        assert divergence == pytest.approx(0.0, abs=1e-12)


def test_g_of_beta_limit_matches_threshold():
    r_max, _, _ = existence_threshold(SKEWED, 2)
    divergence, _ = g_of_beta(SKEWED, 2, 1e3)
    assert divergence == pytest.approx(r_max, abs=1e-4)


def test_g_of_beta_monotone_within_constant_multiset():
    grid = np.geomspace(0.01, 50, 120)
    rows = []
    for beta in grid:
        divergence, lengths = g_of_beta(SKEWED, 2, float(beta))
        rows.append((tuple(sorted(lengths.lengths)), divergence))
    for (ma, da), (mb, db) in zip(rows, rows[1:]):
        if ma == mb:
            assert db >= da - 1e-12


def test_solve_avg_zero_radius():
    mu = validate_distribution([0.4, 0.3, 0.2, 0.1])
    result = solve_avg_redundancy(DivergenceBall(mu, 0.0))
    assert result.regime == "zero_radius"
    assert result.beta is None
    assert expected_cost(result.lengths, mu.probs) == pytest.approx(1.9, abs=1e-12)
    assert result.achieved_utility == pytest.approx(avg_redundancy(result.lengths, mu), abs=1e-12)
    assert result.worst_case.probs == mu.probs


def test_solve_avg_dyadic_boundary():
    result = solve_avg_redundancy(DivergenceBall(DYADIC, 0.1))
    assert result.regime == "boundary"
    assert sorted(result.lengths.lengths) == [1, 2, 2]
    # reported value is the sampled supremum: recomputable and dominated
    assert result.achieved_utility == pytest.approx(
        avg_redundancy(result.lengths, result.worst_case), abs=1e-9
    )


def test_solve_avg_interior_instance():
    ball = DivergenceBall(SKEWED, 0.05)
    result = solve_avg_redundancy(ball)
    assert result.regime == "interior"
    assert result.beta is not None and result.beta > 0
    assert abs(kl_divergence(result.worst_case, SKEWED) - 0.05) <= 1e-9
    assert result.achieved_utility == pytest.approx(
        avg_redundancy(result.lengths, result.worst_case), abs=1e-9
    )
    # nested oracle agreement at documented sampling tolerance
    samples = ball_sample(ball, n_interior=20000, n_boundary=64, seed=12)
    report = brute_min_over_codes("avg_red", ball=ball, l_max=4, samples=samples)
    assert result.achieved_utility == pytest.approx(report.optimum_value, abs=5e-3)
    # trace bpercolates the probes and bracket
    assert result.trace is not None
    lo, hi = result.trace.bracket
    assert lo < hi


def test_solve_avg_strict_boundary_raises():
    with pytest.raises(BoundaryRegimeError):
        solve_avg_redundancy(DivergenceBall(DYADIC, 0.1), strict_boundary=True)


def test_solve_avg_monotone_in_radius():
    values = []
    for radius in (0.0, 0.01, 0.03, 0.05, 0.08, 0.1):
        result = solve_avg_redundancy(DivergenceBall(SKEWED, radius))
        values.append(result.achieved_utility)
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_solve_avg_dominates_samples():
    ball = DivergenceBall(SKEWED, 0.07)
    result = solve_avg_redundancy(ball)
    for nu in ball_sample(ball, n_interior=3000, seed=14):
        assert avg_redundancy(result.lengths, nu) <= result.achieved_utility + 1e-6


def test_solve_gg_zero_radius():
    result = solve_gg(DivergenceBall(SKEWED, 0.0))
    assert result.regime == "zero_radius"
    assert sorted(result.lengths.lengths) == [1, 2, 2]
    assert result.achieved_utility == pytest.approx(
        avg_redundancy(result.lengths, SKEWED), abs=1e-12
    )


def test_solve_gg_dyadic_any_radius_is_exact():
    for radius in (0.05, 0.5, 3.0):
        result = solve_gg(DivergenceBall(DYADIC, radius))
        assert sorted(result.lengths.lengths) == [1, 2, 2]
        assert result.achieved_utility == pytest.approx(0.0, abs=1e-12)


def test_solve_gg_beyond_threshold_returns_pointwise_code():
    radius = 3.0  # above -log 0.1 ~ 2.3026
    result = solve_gg(DivergenceBall(SKEWED, radius))
    assert result.regime == "boundary"
    pointwise = brute_min_over_codes("pointwise", weights=SKEWED.probs, arity=2, l_max=4)
    assert tuple(sorted(result.lengths.lengths)) in pointwise.optimal_length_vectors
    # oracle-verified sup utility is minimal among enumerated codes
    ball = DivergenceBall(SKEWED, radius)
    samples = ball_sample(ball, n_interior=4000, seed=15)
    report = brute_min_over_codes("gg", ball=ball, l_max=4, samples=samples)
    assert result.achieved_utility == pytest.approx(report.optimum_value, abs=5e-3)
    assert result.achieved_utility == pytest.approx(
        gg_utility(result.lengths, result.worst_case, SKEWED), abs=1e-9
    )


def test_solve_gg_between_thresholds_is_exact():
    # existence threshold 1.204 < radius < 1.609 = -log min mu: the tilt has
    # no root but the linear objective still peaks at the limit point
    mu = validate_distribution([0.5, 0.3, 0.2])
    ball = DivergenceBall(mu, 1.4)
    result = solve_gg(ball)
    assert result.regime == "boundary"
    assert result.achieved_utility == pytest.approx(
        gg_utility(result.lengths, result.worst_case, mu), abs=1e-12
    )
    samples = ball_sample(ball, n_interior=3000, seed=9)
    report = brute_min_over_codes("gg", ball=ball, l_max=4, samples=samples)
    assert result.achieved_utility == pytest.approx(report.optimum_value, abs=1e-9)
    assert tuple(sorted(result.lengths.lengths)) in report.optimal_length_vectors


def test_solve_gg_interior_matches_avg_code():
    ball = DivergenceBall(SKEWED, 0.05)
    gg_result = solve_gg(ball)
    assert gg_result.regime == "interior"
    assert abs(kl_divergence(gg_result.worst_case, SKEWED) - 0.05) <= 1e-9
    samples = ball_sample(ball, n_interior=20000, n_boundary=64, seed=16)
    report = brute_min_over_codes("gg", ball=ball, l_max=4, samples=samples)
    assert gg_result.achieved_utility == pytest.approx(report.optimum_value, abs=5e-3)


def test_regime_consistency():
    r_max, _, _ = existence_threshold(SKEWED, 2)
    for radius, expected in ((0.0, "zero_radius"), (r_max * 0.5, "interior"),
                             (r_max, "boundary"), (r_max * 2, "boundary")):
        result = solve_avg_redundancy(DivergenceBall(SKEWED, radius))
        assert result.regime == expected


def test_huffman_reduction_sanity():
    # the zero-radius solver output is a true Huffman code
    rng = np.random.default_rng(77)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        mu = validate_distribution(rng.dirichlet(np.ones(m)))
        result = solve_avg_redundancy(DivergenceBall(mu, 0.0))
        assert sorted(result.lengths.lengths) == sorted(huffman(mu.probs).lengths)


def test_flat_code_wins_at_large_interior_radius():
    # the tilt path never visits (2,2,2,2), but beyond the reach of every
    # per-code tilt the minimax optimum is the flattest code; its supremum
    # certificate is the simplex-wide cap max_k l_k, attained at a vertex
    mu = validate_distribution([0.46119382056747504, 0.1831496714259955,
                                0.30377647572919697, 0.0518800322773324])
    r_max, _, _ = existence_threshold(mu, 2)
    radius = 1.0691968184870178
    assert radius < r_max  # interior regime
    ball = DivergenceBall(mu, radius)
    result = solve_avg_redundancy(ball)
    assert result.regime == "interior"
    assert sorted(result.lengths.lengths) == [2, 2, 2, 2]
    assert result.beta is None
    assert result.achieved_utility == pytest.approx(2.0, abs=1e-12)
    assert avg_redundancy(result.lengths, result.worst_case) == pytest.approx(
        result.achieved_utility, abs=1e-12
    )
    assert kl_divergence(result.worst_case, mu) <= radius + 1e-10
    samples = ball_sample(ball, n_interior=20000, n_boundary=64, seed=4)
    report = brute_min_over_codes("avg_red", ball=ball, l_max=5, samples=samples)
    assert result.achieved_utility == pytest.approx(report.optimum_value, abs=1e-9)


def test_nested_minimax_m4():
    rng = np.random.default_rng(79)
    done = 0
    while done < 5:
        mu = validate_distribution(rng.dirichlet(np.ones(4)) * 0.92 + 0.02)
        r_max, _, _ = existence_threshold(mu, 2)
        if r_max < 1e-2:
            continue
        radius = float(rng.uniform(0.25, 0.75)) * r_max
        ball = DivergenceBall(mu, radius)
        result = solve_avg_redundancy(ball)
        samples = ball_sample(ball, n_interior=20000, n_boundary=64, seed=done)
        report = brute_min_over_codes("avg_red", ball=ball, l_max=5, samples=samples)
        assert result.achieved_utility == pytest.approx(report.optimum_value, abs=5e-3)
        done += 1


def test_interior_near_threshold():
    r_max, _, _ = existence_threshold(SKEWED, 2)
    ball = DivergenceBall(SKEWED, 0.9 * r_max)
    result = solve_avg_redundancy(ball)
    assert result.regime == "interior"
    assert abs(kl_divergence(result.worst_case, SKEWED) - 0.9 * r_max) <= 1e-9


def test_two_symbol_instance():
    mu = validate_distribution([0.8, 0.2])
    # only one binary code exists, so the supremum is forced
    result = solve_avg_redundancy(DivergenceBall(mu, 0.05))
    assert sorted(result.lengths.lengths) == [1, 1]
    assert result.regime == "interior"
    assert abs(kl_divergence(result.worst_case, mu) - 0.05) <= 1e-9


def test_ternary_interior_vs_oracle():
    mu = validate_distribution([0.4, 0.25, 0.2, 0.1, 0.05])
    r_max, _, _ = existence_threshold(mu, 3)
    ball = DivergenceBall(mu, 0.5 * r_max)
    result = solve_avg_redundancy(ball, arity=3)
    assert result.regime == "interior"
    samples = ball_sample(ball, n_interior=20000, n_boundary=64, seed=33, arity=3)
    report = brute_min_over_codes("avg_red", ball=ball, arity=3, samples=samples)
    assert result.achieved_utility == pytest.approx(report.optimum_value, abs=5e-3)


def test_trace_bracket_straddles_radius():
    result = solve_avg_redundancy(DivergenceBall(SKEWED, 0.05))
    trace = result.trace
    lo, hi = trace.bracket
    by_beta = {beta: divergence for beta, divergence, _ in trace.probes}
    assert by_beta[hi] >= 0.05
    if lo in by_beta:
        assert by_beta[lo] < 0.05
    assert trace.iterations >= 1


def test_g_of_beta_matches_public_composition():
    # same lengths as coding the tilted weight distribution directly, at
    # tilts where the linear-domain weights are still representable
    from klcodes.huffman import exponential_huffman
    from klcodes.tilted import xi

    rng = np.random.default_rng(83)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        mu = validate_distribution(rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m)
        beta = float(rng.uniform(0.1, 20.0))
        _, lengths = g_of_beta(mu, 2, beta)
        composed = exponential_huffman(xi(mu, beta).probs, beta, 2)
        assert sorted(lengths.lengths) == sorted(composed.lengths)


def test_solve_gg_strict_boundary_raises():
    with pytest.raises(BoundaryRegimeError):
        solve_gg(DivergenceBall(SKEWED, 3.0), strict_boundary=True)
    with pytest.raises(BoundaryRegimeError):
        solve_gg(DivergenceBall(DYADIC, 0.1), strict_boundary=True)


def test_solve_is_deterministic():
    ball = DivergenceBall(SKEWED, 0.05)
    first = solve_avg_redundancy(ball)
    second = solve_avg_redundancy(ball)
    assert first.lengths.lengths == second.lengths.lengths
    assert first.beta == second.beta
    assert first.achieved_utility == second.achieved_utility
    assert first.worst_case.probs == second.worst_case.probs


def test_concurrent_solves_agree():
    from concurrent.futures import ThreadPoolExecutor

    balls = [DivergenceBall(SKEWED, r) for r in (0.02, 0.05, 0.08)] * 4
    serial = [solve_avg_redundancy(b).achieved_utility for b in balls]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda b: solve_avg_redundancy(b).achieved_utility, balls))
    assert serial == threaded


def test_whole_simplex_radius():
    # beyond -log min mu the ball is the entire simplex and the boundary
    # policy returns the pointwise limit code; its supremum is then exactly
    # its maximum length, attained at a vertex
    from klcodes.tilted import exact_avg_sup

    mu = validate_distribution([0.4, 0.3, 0.2, 0.1])
    result = solve_avg_redundancy(DivergenceBall(mu, 10.0))
    assert result.regime == "boundary"
    value, _ = exact_avg_sup(mu, result.lengths, 10.0)
    assert value == pytest.approx(max(result.lengths.lengths), abs=1e-9)
    assert result.achieved_utility == pytest.approx(value, abs=1e-9)


def test_interior_root_beyond_beta_ten_thousand():
    # the tilt bracket doubles beta until it straddles the radius; here the
    # root lies near beta = 16550
    rng = np.random.default_rng(1)
    p = np.maximum(rng.dirichlet(np.ones(1024)), 1e-6)
    mu = validate_distribution((p / p.sum()).tolist())
    radius = 0.95 * existence_threshold(mu, 2)[0]
    result = solve_gg(DivergenceBall(mu, radius))
    assert result.regime == "interior"
    assert result.beta > 1e4
    assert kl_divergence(result.worst_case, mu) == pytest.approx(radius, abs=1e-9)


def test_import_leaves_oracle_unloaded():
    # the reference oracle is for the CLI's verify and the tests only
    src = os.path.dirname(os.path.dirname(os.path.abspath(klcodes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, klcodes; print('klcodes.oracle' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
