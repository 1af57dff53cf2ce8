import math

import numpy as np
import pytest

from klcodes.core import (
    DivergenceBall,
    binary_divergence,
    kl_divergence,
    pinsker_upper,
    validate_distribution,
)
from klcodes.errors import DomainError, SaturatedInputError
from klcodes.huffman import shannon_lengths
from klcodes.nml import (
    nml_distribution,
    nml_tv,
    pointwise_utility,
    robust_huffman_pointwise,
    robust_shannon_pointwise,
    solve_pi_k,
)
from klcodes.oracle import brute_binary_root, brute_min_over_codes, ball_sample


def test_solve_pi_k_frozen_instance():
    # independent bisection oracle: root of d(p||0.25) = 0.02
    root = solve_pi_k(0.25, 0.02)
    assert root == pytest.approx(0.33959768859445116, abs=1e-12)
    assert abs(binary_divergence(root, 0.25) - 0.02) <= 1e-12
    # the closed-form initial guess sits near the root
    assert abs(0.25 + math.sqrt(2 * 0.02 * 0.75 * 0.25) - root) < 0.01


def test_solve_pi_k_tiny_radius_collapses():
    root = solve_pi_k(0.5, 1e-12)
    assert root - 0.5 <= math.sqrt(1e-12 / 2) + 1e-13
    assert root > 0.5


def test_solve_pi_k_domain_errors():
    with pytest.raises(DomainError):
        solve_pi_k(0.0, 0.1)
    with pytest.raises(DomainError):
        solve_pi_k(0.5, -0.1)
    with pytest.raises(SaturatedInputError):
        solve_pi_k(0.96, 0.05)  # 0.96 >= e^-0.05 ~ 0.9512


def test_solve_pi_k_agrees_with_bisection_randomized():
    rng = np.random.default_rng(61)
    for _ in range(200):
        radius = float(rng.uniform(1e-4, 2.0))
        m = float(rng.uniform(1e-5, math.exp(-radius) * (1 - 1e-9)))
        p, info = solve_pi_k(m, radius, return_info=True)
        assert info["residual"] <= 1e-10
        assert info["iterations"] <= 25
        assert m < p <= pinsker_upper(m, radius) + 1e-12
        assert p == pytest.approx(brute_binary_root(m, radius), abs=1e-12)


def test_nml_saturation_at_boundary_case():
    mu = validate_distribution([0.5, 0.5])
    result = nml_distribution(DivergenceBall(mu, math.log(2)))
    assert result.saturated == frozenset({0, 1})
    assert result.raw == (1.0, 1.0)
    assert result.normalized.probs == (0.5, 0.5)


def test_nml_frozen_roots():
    mu = validate_distribution([0.5, 0.3, 0.2])
    result = nml_distribution(DivergenceBall(mu, 0.05))
    assert result.saturated == frozenset()
    oracle_roots = (0.6567815983649687, 0.4502778674261968, 0.3351583560135255)
    assert result.raw == pytest.approx(oracle_roots, abs=1e-12)
    total = sum(result.raw)
    assert result.normalized.probs == pytest.approx(
        tuple(r / total for r in result.raw), abs=1e-15
    )


def test_nml_zero_radius_returns_center():
    mu = validate_distribution([0.5, 0.3, 0.2])
    result = nml_distribution(DivergenceBall(mu, 0.0))
    assert result.raw == mu.probs
    assert result.normalized.probs == mu.probs
    assert result.saturated == frozenset()


def test_saturation_boundary_both_sides():
    for radius in (0.1, 0.3, 1.0):
        cutoff = math.exp(-radius)
        for sign, expect_saturated in ((1.0, True), (-1.0, False)):
            p = cutoff * (1.0 + sign * 1e-6)
            mu = validate_distribution([p, 1.0 - p])
            result = nml_distribution(DivergenceBall(mu, radius))
            assert (0 in result.saturated) is expect_saturated
            if expect_saturated:
                assert result.raw[0] == 1.0
            else:
                assert result.raw[0] < 1.0


def test_nml_monotone_in_radius():
    mu = validate_distribution([0.5, 0.3, 0.2])
    previous = mu.probs
    for radius in (0.01, 0.05, 0.1, 0.3, 0.7, 1.2):
        raw = nml_distribution(DivergenceBall(mu, radius)).raw
        assert all(b >= a - 1e-12 for a, b in zip(previous, raw))
        previous = raw


def test_reduced_adversary_is_feasible():
    # the per-coordinate maximizer (pi_k at k, rho_k mu elsewhere) stays in the ball
    mu = validate_distribution([0.5, 0.3, 0.2])
    radius = 0.05
    result = nml_distribution(DivergenceBall(mu, radius))
    for k, pi_k in enumerate(result.raw):
        rho = (1.0 - pi_k) / (1.0 - mu.probs[k])
        nu = [rho * p for p in mu.probs]
        nu[k] = pi_k
        point = validate_distribution(nu, allow_zero=True)
        assert kl_divergence(point, mu) <= radius + 1e-10


def test_raw_dominates_ball_samples():
    mu = validate_distribution([0.5, 0.3, 0.2])
    ball = DivergenceBall(mu, 0.05)
    result = nml_distribution(ball)
    for nu in ball_sample(ball, n_interior=2000, seed=71):
        for k in range(mu.m):
            assert nu.probs[k] <= result.raw[k] + 1e-9


def test_nml_tv_examples():
    mu = validate_distribution([0.6, 0.4])
    assert nml_tv(mu, 0.0).raw == mu.probs
    result = nml_tv(mu, 1.0)
    assert result.raw == (1.0, 0.9)
    assert result.normalized.probs == pytest.approx((10 / 19, 9 / 19), abs=1e-15)
    assert result.saturated == frozenset({0})
    three = nml_tv(validate_distribution([0.5, 0.3, 0.2]), 0.2)
    assert three.raw == pytest.approx((0.6, 0.4, 0.3), abs=1e-15)
    assert three.roots_residual == ()


def test_nml_tv_rejects_nan():
    with pytest.raises(DomainError):
        nml_tv(validate_distribution([0.5, 0.3, 0.2]), math.nan)


def test_robust_shannon_pointwise():
    dyadicish = validate_distribution([0.5, 0.25, 0.25])
    assert robust_shannon_pointwise(DivergenceBall(dyadicish, 0.0)).lengths == (1, 2, 2)
    mu = validate_distribution([0.5, 0.3, 0.2])
    ball = DivergenceBall(mu, 0.05)
    lengths = robust_shannon_pointwise(ball)
    normalized = nml_distribution(ball).normalized
    from klcodes.core import ceil_log_inv

    assert lengths.lengths == tuple(ceil_log_inv(p, 2) for p in normalized.probs)
    assert robust_shannon_pointwise(DivergenceBall(mu, 0.0)).lengths == shannon_lengths(mu).lengths


def test_robust_huffman_zero_radius_dyadic():
    mu = validate_distribution([0.5, 0.25, 0.25])
    result = robust_huffman_pointwise(DivergenceBall(mu, 0.0))
    assert result.lengths.lengths == (1, 2, 2)
    assert result.achieved_utility == pytest.approx(0.0, abs=1e-12)
    assert result.regime == "zero_radius"


def test_robust_huffman_matches_oracle():
    mu = validate_distribution([0.5, 0.3, 0.2])
    ball = DivergenceBall(mu, 0.05)
    result = robust_huffman_pointwise(ball)
    assert result.regime == "reduced"
    normalized = nml_distribution(ball).normalized
    report = brute_min_over_codes("pointwise", weights=normalized.probs, arity=2, l_max=4)
    assert result.achieved_utility == pytest.approx(report.optimum_value, abs=1e-12)


def test_pointwise_dominance_chain_sampled():
    rng = np.random.default_rng(73)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        mu = validate_distribution(rng.dirichlet(np.ones(m)))
        radius = float(rng.uniform(0.01, 1.0))
        ball = DivergenceBall(mu, radius)
        normalized = nml_distribution(ball).normalized
        robust_h = robust_huffman_pointwise(ball)
        shannon = robust_shannon_pointwise(ball)
        shannon_value = pointwise_utility(shannon, normalized)
        assert robust_h.achieved_utility <= shannon_value + 1e-12
        assert shannon_value < 1.0
        assert all(h <= s for h, s in zip(robust_h.lengths.lengths, shannon.lengths))


def test_all_saturated_normalizes_to_uniform():
    # e^-1.4 ~ 0.2466: every coordinate saturates, so the normalization is
    # forced to uniform and the codes follow
    mu = validate_distribution([0.4, 0.35, 0.25])
    result = nml_distribution(DivergenceBall(mu, 1.4))
    assert result.saturated == frozenset({0, 1, 2})
    assert result.raw == (1.0, 1.0, 1.0)
    assert result.normalized.probs == pytest.approx((1 / 3,) * 3, abs=1e-15)
    lengths = robust_huffman_pointwise(DivergenceBall(mu, 1.4)).lengths
    assert sorted(lengths.lengths) == [1, 2, 2]


def test_nml_tv_fully_saturated():
    mu = validate_distribution([0.7, 0.2, 0.1])
    result = nml_tv(mu, 2.0)
    assert result.raw == (1.0, 1.0, 1.0)
    assert result.saturated == frozenset({0, 1, 2})
    assert result.normalized.probs == pytest.approx((1 / 3,) * 3, abs=1e-15)


def test_pointwise_utility_values():
    from klcodes.core import CodeLengths

    dyadic = validate_distribution([0.5, 0.25, 0.25])
    assert pointwise_utility(CodeLengths((1, 2, 2)), dyadic) == pytest.approx(0.0, abs=1e-12)
    skewed = validate_distribution([0.6, 0.3, 0.1])
    assert pointwise_utility(CodeLengths((1, 2, 2)), skewed) == pytest.approx(
        math.log2(1.2), abs=1e-12
    )
    assert pointwise_utility(CodeLengths((2, 3, 3)), dyadic) == pytest.approx(1.0, abs=1e-12)
