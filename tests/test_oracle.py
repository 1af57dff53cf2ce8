import math
import warnings

import numpy as np
import pytest

from klcodes import oracle
from klcodes.core import (
    CodeLengths,
    Distribution,
    DivergenceBall,
    array_divergence,
    kl_divergence,
    validate_distribution,
)
from klcodes.errors import (
    AllZeroWeightsError,
    ArityTooSmallError,
    DimensionMismatchError,
    DomainError,
    LimitExceededError,
    NonFiniteWeightError,
)
from klcodes.oracle import (
    ball_sample,
    brute_binary_root,
    brute_min_over_codes,
    brute_sup_over_ball,
    default_l_max,
    enumerate_kraft_lengths,
    exact_min_over_codes,
    sorted_assignment,
    weight_cost,
)
from klcodes.solver import _candidate_sup, existence_threshold, solve_avg_redundancy, solve_gg
from klcodes.tilted import tilted_root, tilted_roots


def test_enumerate_tiny_binary():
    got = set(enumerate_kraft_lengths(2, 2, 2))
    assert got == {(1, 1), (1, 2), (2, 2)}


def test_enumerate_kraft_filter():
    got = set(enumerate_kraft_lengths(3, 2, 3))
    assert (1, 2, 2) in got
    assert (1, 2, 3) in got
    assert (1, 1, 2) not in got  # Kraft sum 1.25


def test_enumerate_ternary():
    assert (1, 1, 1) in set(enumerate_kraft_lengths(3, 3, 2))


def test_enumerate_limits():
    with pytest.raises(LimitExceededError):
        list(enumerate_kraft_lengths(11, 2, 4))
    with pytest.raises(LimitExceededError):
        list(enumerate_kraft_lengths(4, 2, 11))


def test_enumerate_all_feasible_and_sorted():
    for vec in enumerate_kraft_lengths(5, 2, 5):
        assert list(vec) == sorted(vec)
        assert sum(2 ** (5 - l) for l in vec) <= 2**5


def test_sorted_assignment_matches_weight_order():
    assigned = sorted_assignment([0.1, 0.6, 0.3], (1, 2, 3))
    assert assigned == (3, 1, 2)


def test_ball_sample_zero_radius():
    mu = validate_distribution([0.6, 0.4])
    assert ball_sample(DivergenceBall(mu, 0.0)).points.tolist() == [list(mu.probs)]


def test_ball_sample_includes_reachable_vertices():
    mu = validate_distribution([0.5, 0.5])
    samples = ball_sample(DivergenceBall(mu, math.log(2)), n_interior=100, seed=4)
    probs = {tuple(round(p, 9) for p in row) for row in samples.points.tolist()}
    assert (1.0, 0.0) in probs
    assert (0.0, 1.0) in probs


def test_ball_sample_certificates():
    mu = validate_distribution([0.6, 0.3, 0.1])
    ball = DivergenceBall(mu, 0.05)
    samples = ball_sample(ball, n_interior=2000, seed=8)
    assert len(samples) > 50
    for row in samples.points:
        assert kl_divergence(Distribution(tuple(row)), mu) <= 0.05 + 1e-10


def test_ball_sample_deterministic():
    mu = validate_distribution([0.5, 0.3, 0.2])
    ball = DivergenceBall(mu, 0.1)
    one = ball_sample(ball, n_interior=500, seed=21)
    two = ball_sample(ball, n_interior=500, seed=21)
    assert one.points.tolist() == two.points.tolist()


def test_stored_rows_are_what_distribution_stores():
    # a row divided by its math.fsum unless that is exactly 1, as the
    # Distribution built from it stores it, bit for bit: random rows with
    # and without zeros, and vertices, whose sum is exactly 1
    rng = np.random.default_rng(59)
    for m in range(2, 11):
        rows = np.vstack([rng.dirichlet(np.full(m, alpha), size=1000) for alpha in (0.3, 1.0)])
        rows[::7, rng.integers(m)] = 0.0
        rows = np.vstack([rows / rows.sum(axis=1, keepdims=True), np.eye(m)])
        stored = np.array([Distribution(tuple(row)).probs for row in rows.tolist()])
        assert oracle._stored(rows).tobytes() == stored.tobytes(), m


@pytest.mark.parametrize("arity", [2, 3])
def test_sample_rows_are_distributions_inside_the_ball(arity):
    # every row builds a Distribution within the certified radius, at
    # centres with and without a zero entry; len() counts the rows
    rng = np.random.default_rng([53, arity])
    for m in range(2, 11):
        p = np.maximum(rng.dirichlet(np.ones(m)), 1e-6)
        centres = [validate_distribution((p / p.sum()).tolist())]
        if m > 2:
            p[rng.integers(m)] = 0.0
            centres.append(Distribution(tuple((p / p.sum()).tolist())))
        l_max = math.ceil(math.log(m) / math.log(arity)) + 1
        for mu in centres:
            for radius in (0.0, 0.05, 0.5, 2.0):
                sample = ball_sample(DivergenceBall(mu, radius), 50, seed=m, arity=arity,
                                     l_max=l_max)
                assert len(sample) == sample.points.shape[0] > 0
                for row in sample.points.tolist():
                    nu = Distribution(tuple(row))
                    assert kl_divergence(nu, mu) <= radius + oracle.CERT_TOL, (m, radius)


def test_brute_min_linear_cost():
    report = brute_min_over_codes("linear_cost", weights=[0.4, 0.3, 0.2, 0.1], arity=2, l_max=5)
    assert report.optimum_value == pytest.approx(1.9, abs=1e-12)
    assert (1, 2, 3, 3) in report.optimal_length_vectors


def test_brute_min_pointwise_anchor():
    report = brute_min_over_codes("pointwise", weights=[0.6, 0.3, 0.1], arity=2, l_max=4)
    assert report.optimum_value == pytest.approx(math.log2(1.2), abs=1e-12)
    assert all(sum(2 ** (4 - l) for l in vec) <= 16 for vec in report.optimal_length_vectors)


def test_brute_min_determinism():
    mu = validate_distribution([0.55, 0.3, 0.15])
    ball = DivergenceBall(mu, 0.04)
    a = brute_min_over_codes("avg-red", ball=ball, samples=ball_sample(ball, n_interior=500, seed=3))
    b = brute_min_over_codes("avg-red", ball=ball, samples=ball_sample(ball, n_interior=500, seed=3))
    assert a.optimum_value == b.optimum_value
    assert a.optimal_length_vectors == b.optimal_length_vectors
    assert a.evaluations == b.evaluations


def test_brute_sup_zero_radius_is_center_value():
    mu = validate_distribution([0.6, 0.3, 0.1])
    ball = DivergenceBall(mu, 0.0)
    lengths = CodeLengths((1, 2, 2))
    from klcodes.tilted import avg_redundancy

    value = brute_sup_over_ball(lengths, "avg-red", ball_sample(ball))
    assert value == pytest.approx(avg_redundancy(lengths, mu), abs=1e-15)


@pytest.mark.parametrize("utility", ["pointwise", "linear_cost"])
def test_brute_sup_rejects_other_utilities(utility):
    mu = validate_distribution([0.6, 0.3, 0.1])
    with pytest.raises(DomainError):
        brute_sup_over_ball(CodeLengths((1, 2, 2)), utility,
                            ball_sample(DivergenceBall(mu, 0.05), 10))


def test_brute_sup_includes_analytic_point():
    from klcodes.tilted import avg_redundancy, tilted_root

    mu = validate_distribution([0.6, 0.3, 0.1])
    ball = DivergenceBall(mu, 0.05)
    lengths = CodeLengths((1, 2, 2))
    point = tilted_root(mu, lengths, 0.05)
    analytic = avg_redundancy(lengths, point.distribution)
    sup = brute_sup_over_ball(lengths, "avg-red", ball_sample(ball, 2000, seed=5))
    assert sup >= analytic - 1e-9
    assert sup <= analytic + 1e-6


def test_brute_binary_root_tiny_radius():
    root = brute_binary_root(0.5, 1e-12)
    assert root - 0.5 <= math.sqrt(1e-12 / 2) + 1e-13


def test_brute_binary_root_range():
    root = brute_binary_root(0.1, 0.5)
    assert 0.1 < root <= 0.6


def test_brute_binary_root_domain():
    with pytest.raises(DomainError):
        brute_binary_root(0.9, 0.5)  # saturated: 0.9 >= e^-0.5
    with pytest.raises(DomainError):
        brute_binary_root(0.5, 0.0)


def test_exact_nested_minimax_bounds_the_sampled_oracle_and_the_solver():
    # M 4-6, binary, interior and boundary radii: the exact minimum over codes
    # of each code's exact supremum is at least the sampled oracle's (whose
    # inner suprema are lower bounds), and no solver returns less.  avg-red
    # may sit above the exact optimum when that is rootless, so equality is
    # not asserted.
    rng = np.random.default_rng(29)
    solvers = {"avg-red": solve_avg_redundancy, "gg": solve_gg}
    for m in (4, 5, 6):
        for alpha in (0.4, 1.0):
            p = np.maximum(rng.dirichlet(np.full(m, alpha)), 1e-4)
            mu = validate_distribution((p / p.sum()).tolist())
            r_max = existence_threshold(mu)[0]
            for fraction in (0.3, 0.9, 1.0, 1.3):
                ball = DivergenceBall(mu, fraction * r_max)
                samples = ball_sample(ball)
                for utility, solve in solvers.items():
                    exact = exact_min_over_codes(utility, ball).optimum_value
                    sampled = brute_min_over_codes(utility, ball=ball, samples=samples)
                    assert exact >= sampled.optimum_value - 1e-9, (m, alpha, fraction, utility)
                    value = solve(ball).achieved_utility
                    assert value >= exact - 1e-9, (m, alpha, fraction, utility)


def test_oracles_at_radius_zero_give_the_solvers_value():
    # at R = 0 the ball is its centre: both oracles score each code there
    # alone, so their minimum is the Huffman code's value the solver reports
    rng = np.random.default_rng(5)
    solvers = {"avg-red": solve_avg_redundancy, "gg": solve_gg}
    for m in (3, 4, 5, 6):
        for _ in range(3):
            p = np.maximum(rng.dirichlet(np.ones(m)), 1e-4)
            ball = DivergenceBall(validate_distribution((p / p.sum()).tolist()), 0.0)
            for utility, solve in solvers.items():
                result = solve(ball)
                assert result.regime == "zero_radius"
                for oracle in (exact_min_over_codes(utility, ball),
                               brute_min_over_codes(utility, ball=ball)):
                    assert oracle.optimum_value == pytest.approx(result.achieved_utility,
                                                                 abs=1e-12), (m, utility)


def test_exact_min_over_codes_rejects_other_utilities():
    ball = DivergenceBall(validate_distribution([0.5, 0.3, 0.2]), 0.1)
    with pytest.raises(DomainError):
        exact_min_over_codes("pointwise", ball)


WEIGHTS = (0.5, 0.3, 0.2)
BALL = DivergenceBall(validate_distribution(WEIGHTS), 0.1)


@pytest.mark.parametrize("call, error", [
    (lambda: brute_min_over_codes("exp_cost", weights=WEIGHTS, beta=math.nan), DomainError),
    (lambda: brute_min_over_codes("exp_cost", weights=WEIGHTS, beta=math.inf), DomainError),
    (lambda: brute_min_over_codes("linear_cost", weights=WEIGHTS, arity=1), ArityTooSmallError),
    (lambda: brute_min_over_codes("gg", ball=BALL, arity=1), ArityTooSmallError),
    (lambda: brute_min_over_codes("gg", ball=BALL, arity=1, l_max=3), ArityTooSmallError),
    (lambda: brute_min_over_codes("gg", ball=BALL, arity=1, samples=ball_sample(BALL, 10)),
     ArityTooSmallError),
    (lambda: exact_min_over_codes("avg-red", BALL, arity=1), ArityTooSmallError),
    (lambda: exact_min_over_codes("avg-red", BALL, arity=1, l_max=3), ArityTooSmallError),
    (lambda: ball_sample(BALL, 10, arity=1), ArityTooSmallError),
    (lambda: ball_sample(BALL, 10, arity=1, l_max=3), ArityTooSmallError),
    (lambda: brute_min_over_codes("linear_cost", weights=WEIGHTS, arity=2.0), DomainError),
    (lambda: exact_min_over_codes("gg", BALL, arity=2.0), DomainError),
    (lambda: brute_min_over_codes("linear_cost", weights=(math.nan, 0.3, 0.2)),
     NonFiniteWeightError),
    (lambda: brute_min_over_codes("pointwise", weights=(-0.5, 0.3, 0.2)), DomainError),
    (lambda: brute_min_over_codes("pointwise", weights=(0.0, 0.0, 0.0)), AllZeroWeightsError),
    (lambda: brute_min_over_codes("foo", weights=WEIGHTS), DomainError),
    (lambda: weight_cost("pointwise", WEIGHTS, CodeLengths((1,))), DimensionMismatchError),
    # an l_max that admits no code: 2^1 < 3 and 3^1 < 4 codewords
    (lambda: brute_min_over_codes("linear_cost", weights=WEIGHTS, l_max=1), DomainError),
    (lambda: brute_min_over_codes("pointwise", weights=(0.4, 0.3, 0.2, 0.1), arity=3, l_max=1),
     DomainError),
    (lambda: brute_min_over_codes("gg", ball=BALL, l_max=1), DomainError),
    (lambda: brute_min_over_codes("avg-red", ball=BALL, l_max=1, samples=ball_sample(BALL, 10)),
     DomainError),
    (lambda: exact_min_over_codes("avg-red", BALL, l_max=1), DomainError),
    (lambda: exact_min_over_codes("gg", BALL, l_max=1), DomainError),
    (lambda: ball_sample(BALL, -1), DomainError),
    (lambda: ball_sample(BALL, 10, seed=-1), DomainError),
    (lambda: ball_sample(BALL, 2.5), DomainError),
    (lambda: ball_sample(BALL, 10, seed=1.5), DomainError),
    (lambda: brute_sup_over_ball(CodeLengths((1, 2, 3, 3)), "gg", ball_sample(BALL, 10)),
     DimensionMismatchError),
    # the enumerator behind every oracle: integer m and l_max, an arity of at least 2
    (lambda: list(enumerate_kraft_lengths(3, 2, 2.5)), DomainError),
    (lambda: list(enumerate_kraft_lengths(3.0, 2, 3)), DomainError),
    (lambda: list(enumerate_kraft_lengths(3, 1, 4)), ArityTooSmallError),
    (lambda: brute_min_over_codes("linear_cost", weights=WEIGHTS, l_max=2.5), DomainError),
    (lambda: exact_min_over_codes("avg-red", BALL, l_max=2.5), DomainError),
    (lambda: ball_sample(BALL, 10, l_max=2.5), DomainError),
], ids=["beta_nan", "beta_inf", "arity_1_weights", "arity_1_sampled", "arity_1_sampled_l_max",
        "arity_1_given_samples", "arity_1_exact", "arity_1_exact_l_max", "arity_1_ball_sample",
        "arity_1_ball_sample_l_max", "float_arity_weights", "float_arity_exact", "nan_weight",
        "negative_weight", "all_zero_pointwise", "unknown_utility", "weight_cost_sizes",
        "no_code_linear_cost", "no_code_pointwise_arity_3", "no_code_sampled_gg",
        "no_code_sampled_avg_red", "no_code_exact_avg_red", "no_code_exact_gg",
        "negative_n_interior", "negative_seed", "float_n_interior", "float_seed",
        "sup_lengths_size", "enumerate_float_l_max", "enumerate_float_m", "enumerate_arity_1",
        "float_l_max_weights", "float_l_max_exact", "float_l_max_ball_sample"])
def test_oracle_entry_points_check_their_inputs(call, error):
    # the exact class: a bare ZeroDivisionError or ValueError, or a NaN
    # optimum with an empty optimal set, would hide which input was bad
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error


@pytest.mark.parametrize("inputs", [{}, {"weights": WEIGHTS}, {"ball": BALL}],
                         ids=["nothing", "weights", "ball"])
def test_an_unknown_utility_is_named(inputs):
    # whatever else is passed, the message names the utility, not a missing input
    with pytest.raises(DomainError, match="unknown utility 'foo'"):
        brute_min_over_codes("foo", **inputs)


@pytest.mark.parametrize("arity", [2, 3])
def test_weight_objectives_report_the_least_weight_cost(arity):
    # the shared loop's optimum is the least weight_cost over the enumerated
    # codes bit for bit, and its optimal set is every code within 1e-12
    rng = np.random.default_rng([43, arity])
    for m in range(2, 9):
        weights = rng.dirichlet(np.ones(m))
        weights[rng.integers(m)] = 0.0
        codes = list(enumerate_kraft_lengths(m, arity, default_l_max(m, arity)))
        for utility, beta in (("linear_cost", None), ("exp_cost", 0.5), ("exp_cost", 2.0),
                              ("pointwise", None)):
            report = brute_min_over_codes(utility, weights=weights, arity=arity, beta=beta)
            costs = [weight_cost(utility, weights,
                                 CodeLengths(sorted_assignment(weights, vector), arity), beta)
                     for vector in codes]
            best = min(costs)
            assert report.optimum_value == best, (m, utility, beta)
            assert report.evaluations == len(codes)
            assert report.optimal_length_vectors == tuple(
                vector for vector, cost in zip(codes, costs) if cost <= best + 1e-12)


@pytest.mark.parametrize("utility", ["avg-red", "gg"])
def test_both_nested_minimax_oracles_score_the_same_codes(utility):
    mu = validate_distribution([0.45, 0.25, 0.15, 0.1, 0.05])
    ball = DivergenceBall(mu, 0.5 * existence_threshold(mu)[0])
    exact = exact_min_over_codes(utility, ball)
    sampled = brute_min_over_codes(utility, ball=ball, samples=ball_sample(ball, 200, seed=2))
    assert exact.evaluations == sampled.evaluations == len(
        list(enumerate_kraft_lengths(5, 2, default_l_max(5, 2))))


def test_all_zero_weights_make_every_code_optimal_under_linear_and_exponential_costs():
    # every code costs nothing, log 0 = -inf under exp_cost; pointwise raises
    for utility, beta, value in (("linear_cost", None, 0.0), ("exp_cost", 1.0, -math.inf)):
        report = brute_min_over_codes(utility, weights=(0.0, 0.0, 0.0), beta=beta)
        assert report.optimum_value == value
        assert len(report.optimal_length_vectors) == report.evaluations == 7


def literal_crossings(p, targets, radius):
    """The segment crossings as one scalar bisection per target: the reference.

    Each point is built as a Distribution, and its stored probabilities are
    the rows of the matrix returned.
    """
    points = []
    for target in targets:
        def segment_divergence(t):
            return array_divergence((1.0 - t) * p + t * target, p)

        if segment_divergence(1.0) <= radius:
            points.append(Distribution(tuple(target)))
            continue
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if segment_divergence(mid) <= radius:
                lo = mid
            else:
                hi = mid
        blend = (1.0 - lo) * p + lo * target
        points.append(Distribution(tuple(blend / blend.sum())))
    return np.array([nu.probs for nu in points])


def test_batched_crossings_match_the_scalar_loop(monkeypatch):
    # every point of the sample, crossings included, is repr-identical to
    # the sample built with one scalar bisection per segment
    rng = np.random.default_rng(47)
    inside_vertices = 0
    with np.errstate(divide="ignore"):
        for m in range(2, 11):
            for arity in (2, 3):
                p = np.maximum(rng.dirichlet(np.full(m, rng.choice((0.4, 1.0)))), 1e-6)
                mu = validate_distribution((p / p.sum()).tolist())
                r_max = existence_threshold(mu, arity)[0]
                # the shortest caps keep the codes' roots few; crossings ignore them
                l_max = math.ceil(math.log(m) / math.log(arity)) + 1
                for fraction in (0.05, 0.5, 1.0, 1.5):
                    ball = DivergenceBall(mu, fraction * r_max)
                    inside_vertices += sum(-math.log(q) <= ball.radius for q in mu.probs)
                    seed = int(rng.integers(100))
                    batched = ball_sample(ball, 20, seed=seed, arity=arity, l_max=l_max)
                    with monkeypatch.context() as patch:
                        patch.setattr(oracle, "_shell_crossings", literal_crossings)
                        literal = ball_sample(ball, 20, seed=seed, arity=arity, l_max=l_max)
                    assert (repr(batched.points.tolist())
                            == repr(literal.points.tolist())), (m, arity, fraction)
    # the early return of a vertex inside the ball is among the cases
    assert inside_vertices > 0


def test_batched_crossings_at_a_centre_with_zero_entries():
    # a target with mass off the centre's support crosses at the centre
    p = np.array([0.2, 0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    targets = np.vstack([np.eye(10), np.random.default_rng(3).dirichlet(np.ones(10), size=4)])
    with np.errstate(divide="ignore"):
        for radius in (0.05, 0.3, 1.0, 3.0):
            assert (repr(oracle._shell_crossings(p, targets, radius).tolist())
                    == repr(literal_crossings(p, targets, radius).tolist()))


def test_the_sample_roots_each_code_once(monkeypatch):
    # the sample roots every enumerated code in one tilted_roots call and
    # the scorer reads those roots: scoring every enumerated code roots
    # nothing again, and a caller's plain list or a sample of another ball
    # raises rather than being rooted and scored again
    batches, calls = [], []
    monkeypatch.setattr(oracle, "tilted_roots",
                        lambda mu, codes, radius: batches.append(codes) or tilted_roots(mu, codes, radius))
    monkeypatch.setattr(oracle, "tilted_root", lambda *a: calls.append(a) or tilted_root(*a))
    mu = validate_distribution([0.4, 0.3, 0.2, 0.1])
    ball = DivergenceBall(mu, 0.5 * existence_threshold(mu)[0])
    samples = ball_sample(ball, 200, seed=1)
    codes = len(list(enumerate_kraft_lengths(4, 2, default_l_max(4, 2))))
    assert len(batches) == 1 and len(set(batches[0])) == len(batches[0]) == codes
    assert set(batches[0]) == set(samples.worst)
    rows = [Distribution(tuple(row)) for row in samples.points]
    for utility in ("avg-red", "gg"):
        brute_min_over_codes(utility, ball=ball, samples=samples)
        assert len(batches) == 1 and not calls
        with pytest.raises(DomainError):
            brute_min_over_codes(utility, ball=ball, samples=rows)
    other = DivergenceBall(mu, 0.25 * existence_threshold(mu)[0])
    lengths = CodeLengths((1, 2, 3, 3))
    with pytest.raises(DomainError):
        brute_min_over_codes("gg", ball=other, samples=samples)
    with pytest.raises(DomainError):
        brute_sup_over_ball(lengths, "gg", rows)
    assert len(batches) == 1 and not calls


def test_the_sample_roots_every_enumerated_code_of_a_large_enumeration():
    # binary M = 7 enumerates 977 codes at the default l_max; each one is
    # rooted and keyed by its assigned lengths, none skipped however many
    mu = validate_distribution([0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05])
    sample = ball_sample(DivergenceBall(mu, 0.5 * existence_threshold(mu)[0]), 0)
    codes = list(enumerate_kraft_lengths(7, 2, default_l_max(7, 2)))
    assert len(codes) == 977
    assert len(sample.worst) == len(codes)
    assigned = {CodeLengths(sorted_assignment(mu.probs, vector)) for vector in codes}
    assert set(sample.worst) == assigned


def test_the_certificate_drops_points_outside_the_ball(monkeypatch):
    # each rooted code's analytic point moved just outside the shell: the
    # one vectorized certificate drops every one of them
    mu = validate_distribution([0.4, 0.3, 0.2, 0.1])
    ball = DivergenceBall(mu, 0.5 * existence_threshold(mu)[0])
    kept = ball_sample(ball, 200, seed=1)
    outside = []

    def beyond(mu, codes, radius):
        roots = []
        for root, moved in zip(tilted_roots(mu, codes, radius), tilted_roots(mu, codes, radius + 1e-9)):
            if moved is not None:
                outside.append(moved.distribution)
            roots.append(root if moved is None else moved)
        return roots

    monkeypatch.setattr(oracle, "tilted_roots", beyond)
    sample = ball_sample(ball, 200, seed=1)
    assert outside and all(kl_divergence(nu, mu) > ball.radius + oracle.CERT_TOL for nu in outside)
    assert len(sample) == len(kept) - len(outside)
    rows = sample.points.tolist()
    assert not any(list(nu.probs) in rows for nu in outside)


def test_ball_sample_at_a_zero_entry_centre_is_silent_and_stays_on_the_support():
    ball = DivergenceBall(Distribution((0.5, 0.3, 0.2, 0.0)), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = ball_sample(ball)
    assert not sample.points[:, 3].any()


def test_sampled_gg_at_a_zero_entry_centre_is_finite_and_below_the_exact_optimum():
    # log 0 off the support used to meet the samples' zero mass there as a NaN
    ball = DivergenceBall(Distribution((0.5, 0.3, 0.2, 0.0)), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sampled = brute_min_over_codes("gg", ball=ball)
        exact = exact_min_over_codes("gg", ball)
        lengths = CodeLengths((1, 2, 3, 3))
        sup = brute_sup_over_ball(lengths, "gg", ball_sample(ball))
        exact_sup = _candidate_sup("gg", ball.center, ball.radius, lengths, 1e-12)[0]
    assert math.isfinite(sampled.optimum_value)
    assert sampled.optimum_value <= exact.optimum_value + 1e-12
    assert math.isfinite(sup) and sup <= exact_sup + 1e-12
