import math

import numpy as np
import pytest

from klcodes.core import (
    CodeLengths,
    Distribution,
    DivergenceBall,
    PrefixCode,
    binary_divergence,
    ceil_log_inv,
    entropy,
    kl_divergence,
    kraft_sum,
    pinsker_upper,
    validate_distribution,
)
from klcodes.errors import (
    AbsoluteContinuityError,
    ArityTooSmallError,
    DimensionMismatchError,
    DomainError,
    KraftViolationError,
    NegativeProbabilityError,
    NonFiniteWeightError,
    NotNormalizedError,
    TooFewSymbolsError,
    ZeroProbabilityError,
)
from klcodes.huffman import exponential_huffman_log, huffman, shannon_lengths
from klcodes.nml import robust_shannon_pointwise
from klcodes.oracle import brute_binary_root, brute_min_over_codes
from klcodes.solver import existence_threshold, solve_avg_redundancy
from klcodes.tilted import avg_redundancy, gg_utility, nu_circ, pointwise_utility


def test_validate_accepts_uniform():
    dist = validate_distribution([0.5, 0.5])
    assert dist.probs == (0.5, 0.5)


def test_validate_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        validate_distribution([0.5, 0.4])


def test_validate_rejects_nan():
    with pytest.raises(NotNormalizedError):
        validate_distribution([0.5, 0.5, float("nan")])


def test_validate_rejects_zero_by_default():
    with pytest.raises(ZeroProbabilityError):
        validate_distribution([0.6, 0.3, 0.1, 0.0])


def test_validate_allows_zero_when_asked():
    dist = Distribution((0.6, 0.3, 0.1, 0.0))
    assert dist.probs[-1] == 0.0


def test_validate_rejects_negative_and_short():
    with pytest.raises(NegativeProbabilityError):
        validate_distribution([1.2, -0.2])
    with pytest.raises(TooFewSymbolsError):
        validate_distribution([1.0])


def test_validate_renormalizes_within_tolerance():
    dist = validate_distribution([0.5 + 4e-10, 0.5])
    assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-15)


def test_entropy_uniform_binary():
    assert entropy(validate_distribution([0.5, 0.5]), 2) == pytest.approx(1.0, abs=1e-15)


def test_entropy_deterministic():
    dist = Distribution((1.0, 0.0))
    assert entropy(dist, 2) == 0.0


def test_entropy_frozen_value():
    # direct summation: -sum p log2 p
    dist = validate_distribution([0.4, 0.3, 0.2, 0.1])
    direct = -sum(p * math.log2(p) for p in dist.probs)
    assert entropy(dist, 2) == pytest.approx(direct, abs=1e-12)
    assert entropy(dist, 2) == pytest.approx(1.8464393446710154, abs=1e-12)


def test_entropy_range_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = rng.integers(2, 9)
        dist = Distribution(tuple(rng.dirichlet(np.ones(m))))
        value = entropy(dist, 2)
        assert -1e-12 <= value <= math.log2(m) + 1e-12


def test_kl_identity_is_zero():
    dist = validate_distribution([0.3, 0.45, 0.25])
    assert kl_divergence(dist, dist) == 0.0


def test_kl_single_term_collapse():
    nu = Distribution((1.0, 0.0))
    mu = validate_distribution([0.5, 0.5])
    assert kl_divergence(nu, mu) == pytest.approx(math.log(2.0), abs=1e-15)


def test_kl_frozen_value():
    nu = Distribution((2 / 3, 1 / 3, 0.0))
    mu = validate_distribution([0.6, 0.3, 0.1])
    assert kl_divergence(nu, mu) == pytest.approx(-math.log(0.9), abs=1e-12)


def test_kl_errors():
    mu = validate_distribution([0.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        kl_divergence(validate_distribution([0.2, 0.3, 0.5]), mu)
    ragged = Distribution((0.5, 0.5, 0.0))
    with pytest.raises(AbsoluteContinuityError):
        kl_divergence(validate_distribution([0.2, 0.3, 0.5]), ragged)


def test_kl_nonnegative_randomized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = rng.integers(2, 7)
        nu = Distribution(tuple(rng.dirichlet(np.ones(m))))
        mu = Distribution(tuple(rng.dirichlet(np.ones(m))))
        assert kl_divergence(nu, mu) >= -1e-12


def test_binary_divergence_coincident():
    assert binary_divergence(0.37, 0.37) == 0.0


def test_binary_divergence_boundary():
    assert binary_divergence(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)


def test_binary_divergence_at_bisection_root():
    # the larger root of d(p||0.5) = 0.05, found independently by bisection
    root = brute_binary_root(0.5, 0.05)
    assert root == pytest.approx(0.6567815983649687, abs=1e-12)
    assert binary_divergence(root, 0.5) == pytest.approx(0.05, abs=1e-12)


def test_binary_divergence_domain():
    with pytest.raises(DomainError):
        binary_divergence(0.5, 0.0)
    with pytest.raises(DomainError):
        binary_divergence(0.5, 1.0)


def test_binary_divergence_monotone_above_m():
    m = 0.3
    grid = np.linspace(m, 1.0, 200)
    values = [binary_divergence(p, m) for p in grid]
    assert values[0] == 0.0
    assert all(b > a for a, b in zip(values, values[1:]))


def test_kraft_sum_examples():
    assert kraft_sum(CodeLengths((1, 2, 2), arity=2)) == 1.0
    assert kraft_sum(CodeLengths((1, 2, 3), arity=2)) == 0.875
    assert kraft_sum(CodeLengths((1, 1, 1), arity=3)) == 1.0


def test_code_lengths_reject_kraft_violation():
    with pytest.raises(KraftViolationError):
        CodeLengths((1, 1, 2), arity=2)


def test_code_lengths_reject_nonpositive():
    with pytest.raises(DomainError):
        CodeLengths((0, 2, 2), arity=2)


def test_code_lengths_reject_nonfinite():
    # int() of these raises OverflowError or ValueError, which no caller maps
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            CodeLengths((bad, 1), arity=2)
        with pytest.raises(DomainError):
            CodeLengths((1, 2, bad), arity=3)


def test_code_lengths_take_an_integral_arity_only():
    # a float arity used to pass `arity < 2`, and the integer Kraft test then
    # ran in floats; an int or a numpy integer is stored as an int
    for bad in (2.5, 3.0, "2"):
        with pytest.raises(DomainError):
            CodeLengths((1, 2, 2), arity=bad)
    lengths = CodeLengths((1, 1, 1), arity=np.int64(3))
    assert lengths.arity == 3 and type(lengths.arity) is int
    assert lengths == CodeLengths((1, 1, 1), arity=3)


@pytest.mark.parametrize("check", [
    lambda arity: CodeLengths((1, 2, 2), arity=arity),
    lambda arity: entropy(validate_distribution([0.5, 0.3, 0.2]), arity),
    lambda arity: ceil_log_inv(0.3, arity),
    lambda arity: shannon_lengths(validate_distribution([0.5, 0.3, 0.2]), arity),
    lambda arity: robust_shannon_pointwise(
        DivergenceBall(validate_distribution([0.5, 0.3, 0.2]), 0.1), arity),
], ids=["CodeLengths", "entropy", "ceil_log_inv", "shannon_lengths", "robust_shannon_pointwise"])
def test_one_arity_check_everywhere(check):
    # arity 1 used to divide by log 1 = 0 in ceil_log_inv and so in both
    # Shannon codes, and entropy took 2.5 or nan; an arity below 2 raises
    # ArityTooSmallError, which is a DomainError, and a non-integer DomainError
    for small in (1, 0, -2):
        with pytest.raises(ArityTooSmallError, match="arity must be >= 2"):
            check(small)
    assert issubclass(ArityTooSmallError, DomainError)
    for bad in (2.5, math.nan, 3.0):
        with pytest.raises(DomainError, match="arity must be an integer"):
            check(bad)
    check(np.int64(3))


def test_prefix_code_rejects_prefix_clash():
    lengths = CodeLengths((1, 2, 2), arity=2)
    with pytest.raises(DomainError):
        PrefixCode(("0", "01", "11"), lengths)


def test_pinsker_upper_examples():
    assert pinsker_upper(0.5, 0.0) == 0.5
    assert pinsker_upper(0.25, 0.02) == pytest.approx(0.35, abs=1e-15)
    assert pinsker_upper(0.9, 2.0) == 1.0


def test_pinsker_upper_rejects_a_nan_radius():
    # `radius < 0.0` let NaN through, and min(1.0, nan) returned 1.0
    for bad in (math.nan, -1e-3):
        with pytest.raises(DomainError):
            pinsker_upper(0.5, bad)


def test_root_in_pinsker_range_randomized():
    rng = np.random.default_rng(13)
    for _ in range(100):
        radius = float(rng.uniform(1e-4, 1.0))
        m = float(rng.uniform(1e-4, math.exp(-radius) * 0.999))
        root = brute_binary_root(m, radius)
        assert m < root <= pinsker_upper(m, radius) + 1e-12


def test_ceil_log_inv_exact_powers():
    assert ceil_log_inv(0.5, 2) == 1
    assert ceil_log_inv(0.25, 2) == 2
    assert ceil_log_inv(0.125, 2) == 3
    assert ceil_log_inv(0.9, 2) == 1
    assert ceil_log_inv(0.1, 2) == 4
    # exactly representable ternary boundary stays put
    assert ceil_log_inv(1.0 / 3.0, 3) == 2  # float(1/3) < 1/3 exactly
    # -log p / log D rounds just above the integer here, so the float guess
    # overshoots by one and the exact comparison brings it back down
    for p, arity, expected in ((2.0**-29, 2, 29), (2.0**-31, 2, 31), (4.0**-29, 4, 29)):
        assert math.ceil(-math.log(p) / math.log(arity)) == expected + 1
        assert ceil_log_inv(p, arity) == expected


_MU3 = Distribution((0.5, 0.3, 0.2))
_WITH_ZERO = Distribution((0.5, 0.5, 0.0))
_L11 = CodeLengths((1, 1))


@pytest.mark.parametrize("call, error", [
    (lambda: DivergenceBall(_MU3, -0.1), DomainError),
    (lambda: CodeLengths(()), DomainError),
    (lambda: CodeLengths((1.5, 1)), DomainError),
    (lambda: PrefixCode(("0",), _L11), DimensionMismatchError),
    (lambda: PrefixCode(("0", "1"), CodeLengths((1, 1), arity=11)), DomainError),
    (lambda: PrefixCode(("0", "10"), _L11), DomainError),
    (lambda: PrefixCode(("0", "2"), _L11), DomainError),
    (lambda: binary_divergence(1.5, 0.5), DomainError),
    (lambda: pinsker_upper(0.0, 0.1), DomainError),
    (lambda: ceil_log_inv(0.0, 2), DomainError),
    (lambda: ceil_log_inv(1.5, 2), DomainError),
    (lambda: brute_binary_root(1.0, 0.1), DomainError),
    (lambda: huffman([1.0]), TooFewSymbolsError),
    (lambda: huffman([0.5, -0.1, 0.6]), DomainError),
    (lambda: exponential_huffman_log([0.0], 1.0), TooFewSymbolsError),
    (lambda: exponential_huffman_log([0.0, math.nan], 1.0), NonFiniteWeightError),
    (lambda: brute_min_over_codes("linear_cost"), DomainError),
    (lambda: brute_min_over_codes("avg-red"), DomainError),
    (lambda: brute_min_over_codes("exp_cost", weights=[0.5, 0.5]), DomainError),
    (lambda: existence_threshold(_WITH_ZERO), ZeroProbabilityError),
    (lambda: solve_avg_redundancy(DivergenceBall(_WITH_ZERO, 0.0)), ZeroProbabilityError),
    (lambda: nu_circ(_MU3, _L11, 1.0), DimensionMismatchError),
    (lambda: avg_redundancy(_L11, _MU3), DimensionMismatchError),
    (lambda: gg_utility(_L11, _MU3, _MU3), DimensionMismatchError),
    (lambda: pointwise_utility(_L11, _MU3), DimensionMismatchError),
], ids=[
    "ball_negative_radius", "lengths_empty", "lengths_fractional",
    "prefix_count", "prefix_arity_above_10", "prefix_length", "prefix_digit",
    "binary_divergence_p", "pinsker_upper_m", "ceil_log_inv_zero", "ceil_log_inv_above_1",
    "brute_binary_root_m", "huffman_one_weight", "huffman_negative_weight",
    "exponential_huffman_log_one_weight", "exponential_huffman_log_nan",
    "brute_min_no_weights", "brute_min_no_ball",
    "brute_min_exp_cost_no_beta", "existence_threshold_zero_entry",
    "solve_avg_redundancy_zero_radius_zero_entry", "nu_circ_dimension",
    "avg_redundancy_dimension", "gg_utility_dimension", "pointwise_utility_dimension",
])
def test_input_checks_raise_their_documented_error(call, error):
    with pytest.raises(error):
        call()
