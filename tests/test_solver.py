import math
import os
import subprocess
import sys

import numpy as np
import pytest

import klcodes
from klcodes import cli
from klcodes.core import (
    CodeLengths,
    Distribution,
    DivergenceBall,
    kl_divergence,
    validate_distribution,
)
from klcodes.errors import (
    BoundaryRegimeError,
    DomainError,
    LimitExceededError,
    ZeroProbabilityError,
)
from klcodes.huffman import huffman
from klcodes.oracle import ball_sample, brute_min_over_codes, exact_min_over_codes, weight_cost
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
    assert weight_cost("linear_cost", mu.probs, result.lengths) == pytest.approx(1.9, abs=1e-12)
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
    samples = ball_sample(ball, n_interior=20000, seed=12)
    report = brute_min_over_codes("avg-red", ball=ball, l_max=4, samples=samples)
    assert result.achieved_utility == pytest.approx(report.optimum_value, abs=5e-3)
    # the trace records probes on both sides of the radius
    assert result.trace is not None
    divergences = [divergence for _, divergence in result.trace.probes]
    assert min(divergences) < 0.05 <= max(divergences)


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
    for row in ball_sample(ball, n_interior=3000, seed=14).points.tolist():
        nu = Distribution(tuple(row))
        assert avg_redundancy(result.lengths, nu) <= result.achieved_utility + 1e-6


def test_solve_gg_zero_radius():
    result = solve_gg(DivergenceBall(SKEWED, 0.0))
    assert result.regime == "zero_radius"
    assert sorted(result.lengths.lengths) == [1, 2, 2]
    assert result.achieved_utility == pytest.approx(
        avg_redundancy(result.lengths, SKEWED), abs=1e-12
    )


@pytest.mark.parametrize("objective, utility", [("avg-red", avg_redundancy),
                                                ("gg", lambda l, nu: gg_utility(l, nu, SKEWED))])
def test_candidate_scorer_at_radius_zero_is_the_value_at_mu(objective, utility):
    # the ball is mu alone: the value there, mu itself and no tilt
    from klcodes import solver

    for lengths in (huffman(SKEWED.probs), CodeLengths((2, 2, 1)), CodeLengths((1, 3, 3))):
        for tol in (1e-9, 1e-12):
            value, worst, beta = solver._candidate_sup(objective, SKEWED, 0.0, lengths, tol)
            assert value == utility(lengths, SKEWED)
            assert worst is SKEWED and beta is None


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


@pytest.mark.parametrize("seed, m", [(244, 8), (100, 7)])
def test_solve_gg_at_the_threshold_matches_the_exhaustive_oracle(seed, m):
    # at R = r_max codes other than the limit code still have tilt roots, and
    # the tilt search meets the optimal one (seed 244: (1,2,6,3,5,5,6,5) at
    # beta about 6.23), which the limit and hedged codes alone missed
    p = np.maximum(np.random.default_rng([seed, m, 2]).dirichlet(np.full(m, 0.3)), 1e-6)
    mu = validate_distribution((p / p.sum()).tolist())
    ball = DivergenceBall(mu, existence_threshold(mu)[0])
    result = solve_gg(ball)
    samples = ball_sample(ball, n_interior=0, arity=2)
    report = brute_min_over_codes("gg", ball=ball, arity=2, samples=samples)
    assert result.regime == "boundary" and result.beta is not None
    assert result.achieved_utility == pytest.approx(report.optimum_value, abs=1e-9)
    assert tuple(sorted(result.lengths.lengths)) in report.optimal_length_vectors
    assert abs(kl_divergence(result.worst_case, mu) - ball.radius) <= 1e-9


def test_boundary_gg_search_stops_at_the_limit_code():
    # past r_max the limit code's tilt stays below the radius and every later
    # doubling meets it again, so the first probe that meets it is the last
    rng = np.random.default_rng(41)
    stopped = 0
    for m in (4, 6, 8, 12, 16, 24, 32, 48):
        for alpha in (1.0, 0.3):
            p = np.maximum(rng.dirichlet(np.full(m, alpha)), 1e-6)
            mu = validate_distribution((p / p.sum()).tolist())
            r_max, _, limit_code = existence_threshold(mu)
            for radius in (r_max, 0.5 * (r_max - math.log(min(mu.probs)))):
                result = solve_gg(DivergenceBall(mu, radius))
                assert result.regime == "boundary"
                codes = [g_of_beta(mu, 2, beta)[1] for beta, _ in result.trace.probes]
                assert limit_code not in codes[:-1]
                stopped += codes[-1] == limit_code
    assert stopped >= 24


def test_solve_gg_interior_matches_avg_code():
    ball = DivergenceBall(SKEWED, 0.05)
    gg_result = solve_gg(ball)
    assert gg_result.regime == "interior"
    assert gg_result.lengths == solve_avg_redundancy(ball).lengths
    assert abs(kl_divergence(gg_result.worst_case, SKEWED) - 0.05) <= 1e-9
    samples = ball_sample(ball, n_interior=20000, seed=16)
    report = brute_min_over_codes("gg", ball=ball, l_max=4, samples=samples)
    assert gg_result.achieved_utility == pytest.approx(report.optimum_value, abs=5e-3)


@pytest.mark.parametrize("low, high", [(3, 16), (17, 64)])
@pytest.mark.parametrize("arity", [2, 3])
def test_gg_and_avg_red_codes_agree_in_small_balls(arity, low, high):
    # the paper's small-ball equivalence: inside a small enough ball the gg
    # minimax code is the minimax average-redundancy code
    rng = np.random.default_rng([3, arity, low])
    for _ in range(20):
        p = np.maximum(rng.dirichlet(np.ones(int(rng.integers(low, high + 1)))), 1e-4)
        mu = validate_distribution((p / p.sum()).tolist())
        r_max = existence_threshold(mu, arity)[0]
        for fraction in (0.01, 0.1, 0.3):
            ball = DivergenceBall(mu, fraction * r_max)
            assert solve_gg(ball, arity).lengths == solve_avg_redundancy(ball, arity).lengths


def test_avg_red_is_gg_plus_radius_below_the_rootless_radius():
    # below min(-log m_D, r_max) every code keeps its tilt root, and at a
    # root nu both suprema sit at the same tilt, where avg-red - gg is
    # D(nu||mu) / log D exactly.  So the two solves return one code, and
    # avg-red - gg - R / log D is (D(nu||mu) - R) / log D: within the root
    # tolerance 1e-12 over log D, plus rounding.  The divergence and the two
    # values are each a float sum of M terms whose sizes add up to at most
    # S = l_max log D + log M - log min mu nats, so each is off by about
    # M eps S at most (Higham 2002, 4.2), 4 M eps S with each term's own
    # log and product.  A rounding tie between two codes holds within
    # twice that, one offset per code.
    from klcodes import solver

    rng = np.random.default_rng(13)
    for _ in range(300):
        m, arity = int(rng.integers(3, 33)), int(rng.integers(2, 10))
        p = np.maximum(rng.dirichlet(np.ones(m)), 1e-4)
        mu = validate_distribution((p / p.sum()).tolist())
        gate = min(solver._rootless_radius(mu, arity), existence_threshold(mu, arity)[0])
        radius = float(rng.uniform(0.01, 0.999)) * gate
        ball = DivergenceBall(mu, radius)
        avg, gg = solve_avg_redundancy(ball, arity), solve_gg(ball, arity)
        log_d = math.log(arity)
        longest = max(avg.lengths.lengths + gg.lengths.lengths)
        size = longest * log_d + math.log(m) - math.log(min(mu.probs))
        bound = (1e-12 + 4 * m * 2.0**-53 * size) / log_d
        assert avg.regime == gg.regime == "interior" and avg.beta and gg.beta
        if avg.lengths != gg.lengths:
            for objective, code, value in (("gg", avg.lengths, gg.achieved_utility),
                                           ("avg-red", gg.lengths, avg.achieved_utility)):
                other = solver._candidate_sup(objective, mu, radius, code, 1e-12)[0]
                assert abs(other - value) <= 2 * bound, (m, arity, radius)
        assert abs(avg.achieved_utility - gg.achieved_utility - radius / log_d) <= bound, (m, arity)


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
    samples = ball_sample(ball, n_interior=20000, seed=4)
    report = brute_min_over_codes("avg-red", ball=ball, l_max=5, samples=samples)
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
        samples = ball_sample(ball, n_interior=20000, seed=done)
        report = brute_min_over_codes("avg-red", ball=ball, l_max=5, samples=samples)
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
    samples = ball_sample(ball, n_interior=20000, seed=33, arity=3)
    report = brute_min_over_codes("avg-red", ball=ball, arity=3, samples=samples)
    assert result.achieved_utility == pytest.approx(report.optimum_value, abs=5e-3)


def test_trace_bracket_straddles_radius():
    # every probe is recorded: the search brackets the root from below and
    # from at or above the radius, and evaluates no tilt twice
    result = solve_avg_redundancy(DivergenceBall(SKEWED, 0.05))
    probes = result.trace.probes
    assert any(divergence < 0.05 for _, divergence in probes)
    assert any(divergence >= 0.05 for _, divergence in probes)
    betas = [beta for beta, _ in probes]
    assert len(set(betas)) == len(betas)


def test_a_search_without_a_bracket_scores_its_candidates(monkeypatch):
    # a search that finds no bracket is scored like any other, first
    # candidate first: both solvers return the exact least supremum over the
    # same candidates, with the one probe in the trace; avg-red offers its
    # hedged codes first only at or above the rootless radius, which is
    # 0.1054 for SKEWED and log 2 for the five-symbol centre
    from klcodes import solver

    def unbracketed(evaluate, radius, tol, suggest=None):
        evaluate(1.0)
        return None

    monkeypatch.setattr(solver, "_root_in_beta", unbracketed)
    five = validate_distribution([0.5, 0.2, 0.15, 0.1, 0.05])
    for mu, radius, hedging in ((SKEWED, 0.09, False), (five, 1.3, True)):
        assert (radius >= solver._rootless_radius(mu, 2)) == hedging
        limit_code = existence_threshold(mu)[2]
        divergence, probed = g_of_beta(mu, 2, 1.0)
        for solve, objective in ((solve_avg_redundancy, "avg-red"), (solve_gg, "gg")):
            result = solve(DivergenceBall(mu, radius))
            assert result.trace.probes == ((1.0, divergence),)
            hedged = solver._hedged_codes(mu, 2) if hedging and objective == "avg-red" else ()
            candidates = list(dict.fromkeys((*hedged, limit_code, probed)))
            assert result == _score_every_candidate(objective, mu, radius, candidates, 1e-9,
                                                    "interior", result.trace)


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


def test_every_probe_is_a_g_of_beta_call(monkeypatch):
    # the interior search probes through the public g_of_beta, once per
    # recorded probe
    from klcodes import solver

    calls = []
    original = solver.g_of_beta

    def counted(mu, arity, beta, *met):
        calls.append(beta)
        return original(mu, arity, beta, *met)

    monkeypatch.setattr(solver, "g_of_beta", counted)
    for objective in (solve_avg_redundancy, solve_gg):
        calls.clear()
        result = objective(DivergenceBall(SKEWED, 0.05))
        assert result.regime == "interior"
        assert calls == [beta for beta, _ in result.trace.probes]


def test_every_scored_candidate_asks_the_solvers_tilted_root(monkeypatch):
    # every candidate is either scored once, through the tilted_root bound in
    # the solver module (exact_avg_sup only ever for a scored one), or
    # rejected; a rejected candidate's full supremum is strictly above the
    # winner's.  Interior avg-red builds and offers its hedged codes if and
    # only if the radius is at or above the rootless radius
    from klcodes import solver

    seen, exact, offered, hedging = [], [], [], []
    original_root, original_sup = solver.tilted_root, solver.exact_avg_sup
    original_best, original_hedged = solver._best_candidate, solver._hedged_codes

    def counted_root(mu, lengths, radius, tol=1e-12):
        seen.append(lengths)
        return original_root(mu, lengths, radius, tol=tol)

    def counted_sup(mu, lengths, radius):
        exact.append(lengths)
        return original_sup(mu, lengths, radius)

    def recorded_best(objective, mu, radius, candidates, *args):
        offered[:] = candidates
        return original_best(objective, mu, radius, candidates, *args)

    def counted_hedged(mu, arity):
        hedging.append(mu)
        return original_hedged(mu, arity)

    monkeypatch.setattr(solver, "tilted_root", counted_root)
    monkeypatch.setattr(solver, "_hedged_codes", counted_hedged)
    monkeypatch.setattr(solver, "exact_avg_sup", counted_sup)
    monkeypatch.setattr(solver, "_best_candidate", recorded_best)
    mu = validate_distribution([0.5, 0.2, 0.15, 0.1, 0.05])
    r_max, _, limit_code = existence_threshold(mu)
    rejected = 0
    # the rootless radius, log 2, lies between 0.4 and 0.5 r_max
    for solve, objective, radius in ((solve_avg_redundancy, "avg-red", 0.4 * r_max),
                                     (solve_avg_redundancy, "avg-red", 0.5 * r_max),
                                     (solve_gg, "gg", 0.5 * r_max),
                                     (solve_avg_redundancy, "avg-red", r_max),
                                     (solve_gg, "gg", r_max)):
        seen.clear()
        exact.clear()
        hedging.clear()
        result = solve(DivergenceBall(mu, radius))
        above = result.regime == "interior" and radius >= solver._rootless_radius(mu, 2)
        assert len(hedging) == (objective == "avg-red" and above)
        scored = list(seen)
        assert len(scored) == len(set(scored)) and set(scored) <= set(offered)
        assert set(exact) <= set(scored)
        assert limit_code in offered and result.lengths in scored
        if result.regime == "boundary" and objective == "avg-red":
            assert scored[0] == limit_code
        elif objective == "gg" or not above:
            # the limit code, then the codes the traced probes meet
            probed = {g_of_beta(mu, 2, beta)[1] for beta, _ in result.trace.probes}
            assert offered[0] == limit_code and set(offered) == {limit_code} | probed
        else:
            # the hedged codes first, in order
            hedged = list(dict.fromkeys(original_hedged(mu, 2)))
            assert offered[:len(hedged)] == hedged
        for lengths in set(offered) - set(scored):
            value = solver._candidate_sup(objective, mu, radius, lengths, 1e-9)[0]
            assert value > result.achieved_utility
            rejected += 1
    assert rejected > 0


def test_arity_above_ten_solves_but_cannot_spell_codewords():
    # the codewords are spelled on reading them, in single-character digits
    result = solve_gg(DivergenceBall(SKEWED, 0.05), arity=11)
    assert result.lengths.lengths == (1, 1, 1)
    with pytest.raises(LimitExceededError):
        result.codewords


def _score_every_candidate(objective, mu, radius, candidates, tol, regime, trace, first=None):
    # reference: the exact supremum of every candidate, least by (value,
    # beta, position), with nothing skipped
    from klcodes import solver

    scored = []
    for position, lengths in enumerate(candidates):
        value, worst, beta = solver._candidate_sup(objective, mu, radius, lengths, tol)
        scored.append((value, beta if beta is not None else math.inf, position, lengths, worst))
    value, beta, _, lengths, worst = min(scored, key=lambda item: item[:3])
    return solver.RobustCodeResult(lengths=lengths, beta=None if beta == math.inf else beta,
                                   worst_case=worst, achieved_utility=value, regime=regime,
                                   trace=trace)


def _outcome(solve, ball):
    result = solve(ball)
    return repr((result.lengths, result.beta, result.worst_case, result.achieved_utility,
                 result.regime))


def test_skipping_candidates_matches_scoring_every_one(monkeypatch):
    # the skipped candidates are provably worse, so every result is
    # repr-identical to scoring them all
    from klcodes import solver

    rng = np.random.default_rng(3)
    compared = 0
    for m in (4, 5, 7, 9, 12, 16, 24, 40, 64):
        p = np.maximum(rng.dirichlet(np.ones(m)), 1e-6)
        mu = validate_distribution((p / p.sum()).tolist())
        r_max = existence_threshold(mu)[0]
        cases = [(solve, fraction * r_max) for fraction in (0.05, 0.3, 0.6, 0.95)
                 for solve in (solve_avg_redundancy, solve_gg)]
        # boundary gg below -log min mu, where the tilt search scores the
        # limit code and the codes its probes meet
        cases.append((solve_gg, 0.5 * (r_max - math.log(min(mu.probs)))))
        for solve, radius in cases:
            ball = DivergenceBall(mu, radius)
            lazy = _outcome(solve, ball)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_best_candidate", _score_every_candidate)
                full = _outcome(solve, ball)
            assert lazy == full, (m, radius, solve.__name__)
            compared += 1
    assert compared == 81


PINNED_16 = (0.014516, 0.057579, 0.222358, 0.138804, 0.014951, 0.033002, 0.120653, 0.019007,
             0.029692, 0.044114, 0.032162, 0.018431, 0.143972, 0.031825, 0.071458, 0.007477)


def test_provably_worse_rootless_candidate_needs_no_exact_sup(monkeypatch):
    # at 0.5 r_max the only candidate that needs exact_avg_sup (rootless, 16
    # symbols) reaches more in the ball than the winner, so it is skipped and
    # exact_avg_sup never runs; at 0.8 and 0.95 r_max a rootless candidate
    # cannot be ruled out, and the solve is that of scoring every candidate
    from klcodes import solver

    mu = validate_distribution([w / sum(PINNED_16) for w in PINNED_16])
    r_max = existence_threshold(mu)[0]
    calls = 0
    original = solver.exact_avg_sup

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "exact_avg_sup", counted)
        result = solve_avg_redundancy(DivergenceBall(mu, 0.5 * r_max))
    assert calls == 0
    assert result.regime == "interior"
    assert result.lengths.lengths == (6, 4, 2, 3, 6, 5, 3, 5, 5, 5, 5, 6, 3, 5, 4, 6)
    assert result.achieved_utility == pytest.approx(2.62760, abs=5e-6)
    for fraction in (0.8, 0.95):
        ball = DivergenceBall(mu, fraction * r_max)
        lazy = _outcome(solve_avg_redundancy, ball)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_best_candidate", _score_every_candidate)
            assert lazy == _outcome(solve_avg_redundancy, ball)


def _reference_root_in_beta(evaluate, radius, tol):
    # the bracket search without own-root suggestions: doubling from beta = 1,
    # then Illinois regula falsi, stopping on the closest probe within tol
    from klcodes import tilted

    lo, hi = 0.0, 1.0
    best = evaluate(hi)
    f_lo = -radius
    for _ in range(tilted.MAX_DOUBLINGS):
        if best[0] >= radius:
            break
        lo, below, f_lo = hi, best, best[0] - radius
        hi *= 2.0
        best = evaluate(hi)
    if best[0] < radius:
        return None
    f_hi = best[0] - radius
    if lo and tol < f_hi and -f_lo < f_hi:
        best = below
    moved = 0
    for _ in range(200):
        if abs(best[0] - radius) <= tol:
            break
        step = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        probe = evaluate(step)
        f = probe[0] - radius
        if abs(f) < abs(best[0] - radius):
            best = probe
        if f < 0.0:
            lo, f_lo = step, f
            if moved < 0:
                f_hi *= 0.5
            moved = -1
        else:
            hi, f_hi = step, f
            if moved > 0:
                f_lo *= 0.5
            moved = 1
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return best[1]


def _reference_interior(objective, ball, arity, tol=1e-9):
    # the interior solve with the reference search driving g_of_beta; every
    # probe code is kept, after the limit code and, for avg-red at or above
    # the rootless radius, after the hedged codes
    from klcodes import solver

    mu, radius = ball.center, ball.radius
    limit_code = existence_threshold(mu, arity)[2]
    rootless = objective == "avg-red" and radius >= solver._rootless_radius(mu, arity)
    hedged = solver._hedged_codes(mu, arity) if rootless else ()
    candidates = dict.fromkeys((*hedged, limit_code))
    probes = []

    def probe(beta):
        divergence, lengths = solver.g_of_beta(mu, arity, beta)
        candidates.setdefault(lengths)
        probes.append((beta, divergence))
        return divergence, lengths

    closest = _reference_root_in_beta(probe, radius, tol)
    trace = solver.BetaSolveTrace(probes=tuple(probes))
    return solver._best_candidate(objective, mu, radius, candidates, tol, "interior", trace,
                                  closest)


def _counting_g_of_beta(monkeypatch):
    from klcodes import solver

    counted = []
    original = solver.g_of_beta

    def counting(mu, arity, beta, *met):
        counted.append(beta)
        return original(mu, arity, beta, *met)

    monkeypatch.setattr(solver, "g_of_beta", counting)
    return counted


def _compare_with_reference(counted, objective, ball, arity):
    # the outcome and the probe counts of the solver and of the reference
    solve = solve_gg if objective == "gg" else solve_avg_redundancy
    counted.clear()
    outcome = _outcome(lambda b: solve(b, arity), ball)
    probes = len(counted)
    counted.clear()
    reference = _outcome(lambda b: _reference_interior(objective, b, arity), ball)
    return outcome, reference, probes, len(counted)


def test_own_root_search_matches_the_reference_bracket_search(monkeypatch):
    # refining the doubling bracket at a met code's own root returns what the
    # reference search returns, with no more probes
    counted = _counting_g_of_beta(monkeypatch)
    rng = np.random.default_rng(3)
    solved = fewer = 0
    for m in (4, 8, 16, 32, 64, 128):
        for arity in (2, 3):
            p = np.maximum(rng.dirichlet(np.ones(m)), 1e-6)
            mu = validate_distribution((p / p.sum()).tolist())
            r_max = existence_threshold(mu, arity)[0]
            for fraction in (0.05, 0.35, 0.7, 0.99):
                ball = DivergenceBall(mu, fraction * r_max)
                for objective in ("avg-red", "gg"):
                    outcome, reference, probes, reference_probes = _compare_with_reference(
                        counted, objective, ball, arity)
                    assert outcome == reference, (m, arity, fraction, objective)
                    assert probes <= reference_probes, (m, arity, fraction, objective)
                    solved += 1
                    fewer += probes < reference_probes
    assert solved >= 80 and fewer >= 0.75 * solved


def _sweep_centre(seed, m, arity):
    # the centre drawn for (m, arity) by a sweep that draws one
    # Dirichlet(1) centre, floored at 1e-6, per m in (3, 4, 5, 6, 8, 10, 12,
    # 16, 24, 32, 48, 64, 100) and per arity 2 and 3, in that order
    rng = np.random.default_rng(seed)
    for size in (3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 100):
        for k in (2, 3):
            p = np.maximum(rng.dirichlet(np.ones(size)), 1e-6)
            if (size, k) == (m, arity):
                return validate_distribution((p / p.sum()).tolist())
    raise AssertionError((m, arity))


@pytest.mark.parametrize(
    "seed, m, fraction, objective",
    [
        (17, 12, 0.05, "avg-red"),
        (17, 12, 0.05, "gg"),
        (3, 100, 0.7, "avg-red"),
        (3, 100, 0.7, "gg"),
        (31, 48, 0.99, "avg-red"),
    ],
)
def test_own_root_search_keeps_every_doubling_code(monkeypatch, seed, m, fraction, objective):
    # the divergence crosses the radius more than once in these solves; a
    # search that jumped from beta = 1 to its code's own root stopped at an
    # earlier crossing than the doublings reach, missed the better code a
    # doubling meets, and returned a larger supremum
    counted = _counting_g_of_beta(monkeypatch)
    mu = _sweep_centre(seed, m, 2)
    ball = DivergenceBall(mu, fraction * existence_threshold(mu, 2)[0])
    outcome, reference, probes, reference_probes = _compare_with_reference(
        counted, objective, ball, 2)
    assert outcome == reference
    assert probes < reference_probes


def test_own_root_search_keeps_the_better_later_crossing():
    # M = 12: the code met at beta = 1 reaches the radius at its own root
    # 1.4486, but the doubling to beta = 2 meets a better code whose root is
    # 1.7446, and that code wins
    mu = _sweep_centre(17, 12, 2)
    ball = DivergenceBall(mu, 0.05 * existence_threshold(mu, 2)[0])
    avg, gg = solve_avg_redundancy(ball), solve_gg(ball)
    for result, value in ((avg, 0.340772), (gg, 0.216692)):
        assert result.lengths.lengths == (3, 5, 3, 2, 8, 4, 3, 7, 3, 3, 8, 6)
        assert result.beta == pytest.approx(1.7446, abs=1e-4)
        assert result.achieved_utility == pytest.approx(value, abs=1e-6)
    assert any(beta == 2.0 for beta, _ in avg.trace.probes)


def test_one_code_search_takes_two_probes():
    # every probe meets (1, 2, 2) and beta = 1 reaches the radius: that
    # probe suggests its code's own root in [0, 1], and the probe there lands
    # within tol at or above the radius
    radius, tol = 0.01, 1e-9
    result = solve_avg_redundancy(DivergenceBall(SKEWED, radius), tol=tol)
    probes = result.trace.probes
    assert len(probes) == 2
    assert probes[0][0] == 1.0 and probes[0][1] > radius + tol
    assert radius <= probes[1][1] <= radius + tol
    assert {g_of_beta(SKEWED, 2, beta)[1] for beta, _ in probes} == {result.lengths}


def test_g_of_beta_rejects_a_zero_probability():
    mu = Distribution((0.5, 0.5, 0.0))
    with pytest.raises(ZeroProbabilityError):
        g_of_beta(mu, 2, 1.0)


@pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan])
@pytest.mark.parametrize("solve", [solve_avg_redundancy, solve_gg])
def test_solvers_reject_a_tolerance_below_zero_or_nan(solve, tol):
    # -1.0 used to raise a bare math domain error from the own-root step,
    # and -1e-12 and NaN returned a result
    with pytest.raises(DomainError, match="tol must be >= 0"):
        solve(DivergenceBall(SKEWED, 0.05), tol=tol)


@pytest.mark.parametrize("solve", [solve_avg_redundancy, solve_gg])
def test_solvers_take_an_integral_arity_only(solve):
    # arity=3.0 used to raise a bare TypeError from list repetition
    ball = DivergenceBall(SKEWED, 0.05)
    with pytest.raises(DomainError, match="arity must be an integer"):
        solve(ball, arity=3.0)
    assert repr(solve(ball, arity=np.int64(3))) == repr(solve(ball, arity=3))


@pytest.mark.parametrize("solve", [solve_avg_redundancy, solve_gg])
def test_probes_that_meet_the_previous_code_build_no_tree(monkeypatch, solve):
    # a probe whose code the sibling check certifies returns it without a
    # build, so one interior solve builds fewer exponential Huffman trees
    # than it probes, with its result unchanged
    from klcodes import solver

    rng = np.random.default_rng(20)
    p = np.maximum(rng.dirichlet(np.ones(64)), 1e-6)
    mu = validate_distribution((p / p.sum()).tolist())
    ball = DivergenceBall(mu, 0.3 * existence_threshold(mu, 2)[0])
    with monkeypatch.context() as unchecked:
        unchecked.setattr(solver, "_certifies_exponential", lambda *args: False)
        expected = repr(solve(ball))
    builds = []
    original = solver.exponential_huffman_log

    def counted_build(*args):
        builds.append(args[1])
        return original(*args)

    monkeypatch.setattr(solver, "exponential_huffman_log", counted_build)
    probes = _counting_g_of_beta(monkeypatch)
    result = solve(ball)
    assert result.regime == "interior" and repr(result) == expected
    assert len(probes) == len(result.trace.probes)
    assert 0 < len(builds) < len(probes)


def test_hedged_codes_change_nothing_below_the_rootless_radius(monkeypatch):
    # below the rootless radius every code keeps its tilt root, so an avg-red
    # solve that builds and offers the hedged codes anyway returns the same
    # repr (lengths, beta, worst case and value), or else a hedged code in a
    # rounding tie: each supremum is read at a root within 1e-12 nats of the
    # shell, which moves it by up to (1 + 1/beta) 1e-12 nats, so a hedged
    # code may read lower by twice that.  Such ties come near the rootless
    # radius, where the roots lie at large tilts
    from klcodes import solver

    rng = np.random.default_rng(28)
    compared = 0
    for m in (3, 4, 5, 8, 13, 32, 64, 128, 256):
        for arity in range(2, 10):
            alpha = 0.3 if (m + arity) % 2 else 1.0
            p = np.maximum(rng.dirichlet(np.full(m, alpha)), 1e-6)
            mu = validate_distribution((p / p.sum()).tolist())
            gate = solver._rootless_radius(mu, arity)
            assert 0.0 < gate <= existence_threshold(mu, arity)[0]
            for fraction in (0.1, 0.6, 0.99, 1.0 - 1e-6, None):
                # None: the largest float below the rootless radius
                radius = float(np.nextafter(gate, 0.0)) if fraction is None else fraction * gate
                ball = DivergenceBall(mu, radius)
                gated = solve_avg_redundancy(ball, arity)
                with monkeypatch.context() as patch:
                    patch.setattr(solver, "_rootless_radius", lambda mu, arity: -math.inf)
                    hedged = solve_avg_redundancy(ball, arity)
                assert gated.regime == "interior"
                compared += 1
                if repr(gated) == repr(hedged):
                    continue
                margin = 2e-12 * (1.0 + 1.0 / gated.beta) / math.log(arity)
                assert hedged.lengths in solver._hedged_codes(mu, arity), (m, arity, radius)
                assert 0.0 <= gated.achieved_utility - hedged.achieved_utility <= margin
    assert compared == 360


def _pair_centre(rng, arity, frac, offset):
    # x = log_D mu is frac - 2 at symbol 0 and frac - 3 + offset at symbol 1;
    # four generic entries share the rest of the mass
    log_d = math.log(arity)
    head = [math.exp((frac - 2.0) * log_d), math.exp((frac - 3.0 + offset) * log_d)]
    rest = (1.0 - sum(head)) * rng.dirichlet(np.ones(4))
    return validate_distribution(head + rest.tolist())


def _kraft_valid(rng, m, arity):
    # random lengths, lengthened at random until they satisfy Kraft
    l = rng.integers(1, 9, size=m)
    while np.sum(float(arity) ** -l) > 1.0:
        l[rng.integers(m)] += 1
    return CodeLengths(tuple(int(k) for k in l), arity)


def test_no_code_has_an_argmax_set_heavier_than_the_rootless_class(monkeypatch):
    # mu(A_l) <= m_D: -log of the mass that tilted._face_limit gives a
    # code's argmax set is never below the rootless radius.  The centres
    # include exact ties (one fractional part throughout, so the radius is
    # at most 0 and avg-red still builds its hedged codes), pairs of symbols
    # whose log ratios tie within ARGMAX_LOG_TOL, and such a pair across
    # the wrap of the fractional parts from 1 back to 0
    from klcodes import solver
    from klcodes.huffman import max_huffman
    from klcodes.tilted import ARGMAX_LOG_TOL, _code_terms, _face_limit

    rng = np.random.default_rng(9)
    tied = validate_distribution([0.4, 0.2, 0.2, 0.1, 0.1])
    checked = paired = 0
    for arity in range(2, 10):
        step = ARGMAX_LOG_TOL / math.log(arity)
        centres = [(_pair_centre(rng, arity, frac, offset), True)
                   for frac, offset in ((0.37, 0.4 * step), (0.37, -0.9 * step),
                                        (1e-13, -2e-13), (1.0 - 1e-13, 2e-13))]
        for m in (3, 9, 40):
            p = np.maximum(rng.dirichlet(np.ones(m)), 1e-6)
            centres.append((validate_distribution((p / p.sum()).tolist()), False))
        if arity == 2:
            centres += [(DYADIC, False), (tied, False)]
        for mu, pair in centres:
            gate = solver._rootless_radius(mu, arity)
            codes = [max_huffman(mu.probs, arity), *solver._hedged_codes(mu, arity)]
            codes += [_kraft_valid(rng, mu.m, arity) for _ in range(20)]
            if pair:
                # symbols 0 and 1 tie at the top: Shannon lengths elsewhere
                shannon = [math.ceil(-math.log(x) / math.log(arity)) for x in mu.probs]
                codes.append(CodeLengths((3, 4, *shannon[2:]), arity))
            for lengths in codes:
                members, mass = _face_limit(_code_terms(mu, lengths))
                assert gate <= -math.log(mass), (arity, mu.probs, lengths)
                checked += 1
            if pair:
                assert members[0] and members[1], (arity, mu.probs)
                paired += 1
    assert paired == 32 and checked > 2000

    # exact ties: no radius lies below the rootless radius, so every
    # interior avg-red solve builds the hedged codes
    assert solver._rootless_radius(DYADIC, 2) <= 0.0
    assert solver._rootless_radius(tied, 2) <= 0.0
    built = []
    original = solver._hedged_codes

    def counted(mu, arity):
        built.append(mu)
        return original(mu, arity)

    monkeypatch.setattr(solver, "_hedged_codes", counted)
    r_max = existence_threshold(tied)[0]
    for fraction in (0.01, 0.5, 0.99):
        assert solve_avg_redundancy(DivergenceBall(tied, fraction * r_max)).regime == "interior"
    assert len(built) == 3


def _centre_and_radius(case):
    # mixed4 at R = r_max, where avg-red returns the limit code unsearched,
    # and a 6-symbol centre at an interior radius (r_max is about 1.767)
    if case == "mixed4_at_r_max":
        mu = cli.load_distribution(os.path.join(os.path.dirname(__file__), os.pardir,
                                                "instances", "mixed4.csv"))
        return mu, existence_threshold(mu)[0]
    p = np.array([0.0577, 0.4673, 0.1709, 0.1696, 0.0922, 0.0423])
    return validate_distribution((p / p.sum()).tolist()), 1.2254


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="avg-red misses the exact nested minimax here")
@pytest.mark.parametrize("case", ["mixed4_at_r_max", "six_symbols_interior"])
def test_avg_red_reaches_the_exact_optimum(case):
    # mixed4: the solver returns (2, 2, 2, 2) at 2.0, the exact optimum is
    # (1, 2, 3, 3) at 1.897188735381189.  Six symbols: (4, 1, 3, 3, 3, 4) at
    # 2.2165343495842134 against 2.1095356862886967 over 265 codes
    ball = DivergenceBall(*_centre_and_radius(case))
    exact = exact_min_over_codes("avg-red", ball)
    assert solve_avg_redundancy(ball).achieved_utility <= exact.optimum_value + 1e-9
