import math

import numpy as np
import pytest

from klcodes.core import (
    CodeLengths,
    Distribution,
    array_divergence,
    kl_divergence,
    log_sum_exp,
    pair_divergence,
    validate_distribution,
)
from klcodes import tilted
from klcodes.errors import DimensionMismatchError, DomainError
from klcodes.huffman import exponential_huffman_log
from klcodes.oracle import enumerate_kraft_lengths
from klcodes.solver import g_of_beta
from klcodes.tilted import (
    ARGMAX_LOG_TOL,
    _crossing,
    _code_terms,
    _face_limit,
    _own_root,
    _root_in_beta,
    _tilt,
    _tilt_walk,
    avg_redundancy,
    decomposition_terms,
    gg_utility,
    nu_circ,
    nu_infinity,
    tilted_root,
    tilted_roots,
    xi,
)

SKEWED = validate_distribution([0.6, 0.3, 0.1])
L122 = CodeLengths((1, 2, 2), arity=2)


def random_distribution(rng, m):
    return Distribution(tuple(rng.dirichlet(np.ones(m))))


def random_lengths(rng, m, arity=2):
    # random Kraft-feasible integer vector: deepen a sorted feasible profile
    base = sorted(rng.integers(1, m + 1) for _ in range(m))
    while sum(arity ** (max(base) - b) for b in base) > arity ** max(base):
        base[base.index(min(base))] += 1
    perm = rng.permutation(m)
    return CodeLengths(tuple(int(base[i]) for i in perm), arity=arity)


def test_nu_circ_fixed_point_at_ideal_lengths():
    # centres whose ideal lengths -log_D mu_i are integers: the ratios
    # mu_i D^l_i are all 1, so every tilt of mu is mu itself
    for mu, lengths in (
        (Distribution((0.5, 0.25, 0.25)), CodeLengths((1, 2, 2), arity=2)),
        (Distribution((1 / 3, 1 / 3, 1 / 3)), CodeLengths((1, 1, 1), arity=3)),
    ):
        for beta in (0.2, 1.0, 10.0, 500.0):
            point = nu_circ(mu, lengths, beta)
            assert point.divergence_from_center == pytest.approx(0.0, abs=1e-12)
            assert point.distribution.probs == pytest.approx(mu.probs, abs=1e-12)


def test_nu_circ_beta_one_frozen():
    point = nu_circ(SKEWED, L122, 1.0)
    expected = (0.72 / 1.12, 0.36 / 1.12, 0.04 / 1.12)
    assert point.distribution.probs == pytest.approx(expected, abs=1e-12)
    # log-domain recomputation
    ratios = np.array([0.6 / 0.5, 0.3 / 0.25, 0.1 / 0.25])
    raw = np.exp(np.log(ratios) + np.log([0.6, 0.3, 0.1]))
    assert point.distribution.probs == pytest.approx(tuple(raw / raw.sum()), abs=1e-12)


def test_nu_circ_large_beta_approaches_limit():
    point = nu_circ(SKEWED, L122, 1e3)
    limit = nu_infinity(SKEWED, L122)
    tv = 0.5 * sum(
        abs(a - b) for a, b in zip(point.distribution.probs, limit.distribution.probs)
    )
    assert tv <= 1e-6


def test_xi_uniform_stays_uniform():
    mu = validate_distribution([0.25] * 4)
    for beta in (0.3, 1.0, 7.0):
        assert xi(mu, beta).probs == pytest.approx((0.25,) * 4, abs=1e-14)


def test_xi_frozen_value():
    mu = validate_distribution([0.4, 0.3, 0.2, 0.1])
    got = xi(mu, 1.0)
    expected = (0.16 / 0.3, 0.09 / 0.3, 0.04 / 0.3, 0.01 / 0.3)
    assert got.probs == pytest.approx(expected, abs=1e-12)


def test_xi_small_beta_approaches_mu():
    mu = validate_distribution([0.4, 0.3, 0.2, 0.1])
    got = xi(mu, 1e-9)
    assert got.probs == pytest.approx(mu.probs, abs=1e-7)


def test_avg_redundancy_ideal_code_is_zero():
    mu = validate_distribution([0.5, 0.25, 0.25])
    assert avg_redundancy(L122, mu) == pytest.approx(0.0, abs=1e-12)


def test_avg_redundancy_half_half():
    nu = validate_distribution([0.5, 0.5])
    lengths = CodeLengths((1, 2), arity=2)
    assert avg_redundancy(lengths, nu) == pytest.approx(0.5, abs=1e-12)


def test_avg_redundancy_dual_forms_agree():
    # E_nu(l) - H(nu) must equal D(nu||theta)/log D
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        nu = random_distribution(rng, m)
        lengths = random_lengths(rng, m)
        theta = np.power(2.0, -lengths.as_array())
        p = nu.as_array()
        nz = p > 0
        divergence_form = float(np.sum(p[nz] * np.log(p[nz] / theta[nz]))) / math.log(2)
        assert avg_redundancy(lengths, nu) == pytest.approx(divergence_form, abs=1e-10)


def test_avg_redundancy_frozen_value():
    # both closed forms give 0.1045381557616780(2) for this instance
    value = avg_redundancy(L122, SKEWED)
    assert value == pytest.approx(0.104538155761678, abs=1e-12)


def test_gg_utility_exact_code_is_zero_everywhere():
    mu = validate_distribution([0.5, 0.25, 0.25])
    rng = np.random.default_rng(3)
    for _ in range(20):
        nu = random_distribution(rng, 3)
        assert gg_utility(L122, nu, mu) == pytest.approx(0.0, abs=1e-12)


def test_gg_utility_at_center_equals_avg_redundancy():
    assert gg_utility(L122, SKEWED, SKEWED) == pytest.approx(
        avg_redundancy(L122, SKEWED), abs=1e-12
    )


def test_gg_utility_dual_forms_agree():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        nu = random_distribution(rng, m)
        mu = random_distribution(rng, m)
        lengths = random_lengths(rng, m)
        p = nu.as_array()
        q = mu.as_array()
        nz = p > 0
        expanded = (
            avg_redundancy(lengths, nu)
            - float(np.sum(p[nz] * np.log(p[nz] / q[nz]))) / math.log(2)
        )
        assert gg_utility(lengths, nu, mu) == pytest.approx(expanded, abs=1e-10)


def test_decomposition_trivial_configurations():
    mu = validate_distribution([0.5, 0.25, 0.25])
    t1, t2, t3 = decomposition_terms(L122, mu, mu, 2.0)
    assert (t1, t2, t3) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    t1, t2, t3 = decomposition_terms(L122, SKEWED, SKEWED, 2.0)
    assert t1 == pytest.approx(0.0, abs=1e-12)
    assert (t2 + t3) / math.log(2) == pytest.approx(avg_redundancy(L122, SKEWED), abs=1e-10)


def test_decomposition_identity_randomized():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = 4
        nu = random_distribution(rng, m)
        mu = random_distribution(rng, m)
        lengths = random_lengths(rng, m)
        beta = float(rng.uniform(0.05, 8.0))
        t1, t2, t3 = decomposition_terms(lengths, nu, mu, beta)
        assert (t1 + t2 + t3) / math.log(2) == pytest.approx(
            avg_redundancy(lengths, nu), abs=1e-10
        )


@pytest.mark.parametrize("beta", [512.0, 1024.0, 1e6])
def test_decomposition_identity_at_large_beta(beta):
    # nu(beta) underflows to exact zeros on the support here; the identity
    # still holds, since D(nu||nu(beta)) is taken in the log domain
    mu = validate_distribution([0.5, 0.3, 0.2])
    lengths = CodeLengths((2, 2, 1), arity=2)
    t1, t2, t3 = decomposition_terms(lengths, mu, mu, beta)
    assert (t1 + t2 + t3) / math.log(2) == pytest.approx(avg_redundancy(lengths, mu), abs=1e-12)


def test_nu_infinity_all_ratios_equal():
    mu = validate_distribution([0.5, 0.25, 0.25])
    limit = nu_infinity(mu, L122)
    assert limit.argmax_set == frozenset({0, 1, 2})
    assert limit.distribution.probs == pytest.approx(mu.probs, abs=1e-15)
    assert limit.divergence_from_center == pytest.approx(0.0, abs=1e-15)


def test_nu_infinity_full_support_is_positive_zero():
    # -log(1.0) is -0.0; the limit divergence is clamped to +0.0
    from klcodes.solver import existence_threshold

    mu = validate_distribution([0.5, 0.25, 0.25])
    r_max, limit, _ = existence_threshold(mu)
    for value in (r_max, limit.divergence_from_center,
                  nu_infinity(mu, L122).divergence_from_center):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_nu_infinity_frozen_example():
    limit = nu_infinity(SKEWED, L122)
    assert limit.argmax_set == frozenset({0, 1})
    assert limit.distribution.probs == pytest.approx((2 / 3, 1 / 3, 0.0), abs=1e-12)
    assert limit.divergence_from_center == pytest.approx(-math.log(0.9), abs=1e-12)
    # consistency with the divergence recomputed from the distribution
    assert kl_divergence(limit.distribution, SKEWED) == pytest.approx(
        limit.divergence_from_center, abs=1e-12
    )


def test_nu_infinity_unique_maximum():
    mu = validate_distribution([0.7, 0.2, 0.1])
    lengths = CodeLengths((2, 2, 1), arity=2)
    limit = nu_infinity(mu, lengths)
    assert limit.argmax_set == frozenset({0})
    assert limit.distribution.probs == (1.0, 0.0, 0.0)
    assert limit.divergence_from_center == pytest.approx(-math.log(0.7), abs=1e-15)


def test_divergence_monotone_in_beta():
    grid = np.concatenate([np.linspace(0.1, 5, 40), np.linspace(5, 50, 20)])
    values = [nu_circ(SKEWED, L122, float(b)).divergence_from_center for b in grid]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_tilted_root_hits_radius():
    point = tilted_root(SKEWED, L122, 0.05)
    assert point is not None
    assert point.divergence_from_center == pytest.approx(0.05, abs=1e-11)
    # the root is the family member at its beta, bit for bit
    assert point == nu_circ(SKEWED, L122, point.beta)


def test_tilted_root_none_beyond_limit():
    assert tilted_root(SKEWED, L122, 0.2) is None


def _recording_divergence(seen):
    def evaluate(beta):
        seen.append(beta)
        return nu_circ(SKEWED, L122, beta).divergence_from_center, beta

    return evaluate


def test_root_in_beta_evaluates_no_beta_twice():
    # the root at beta = 5 takes doublings to 8; bisection then starts from
    # [4, 8] instead of probing 4 again as the midpoint of [0, 8]
    radius = nu_circ(SKEWED, L122, 5.0).divergence_from_center
    seen = []
    beta = _root_in_beta(_recording_divergence(seen), radius, 1e-12)
    assert seen[:4] == [1.0, 2.0, 4.0, 8.0]
    assert all(4.0 < b < 8.0 for b in seen[4:])
    assert len(set(seen)) == len(seen)
    assert beta == pytest.approx(5.0, rel=1e-9)


def test_root_in_beta_keeps_last_doubling_within_tol():
    # the doubling at beta = 2 lies within tol below the radius, and beta = 4
    # lies far above: the search returns the doubling, as bisection from
    # [0, 4] would on meeting it again as its first midpoint
    radius = nu_circ(SKEWED, L122, 2.0).divergence_from_center + 1e-13
    seen = []
    assert _root_in_beta(_recording_divergence(seen), radius, 1e-12) == 2.0
    assert seen == [1.0, 2.0, 4.0]


def test_root_in_beta_brackets_a_jump():
    # the radius falls inside a jump at beta = e, as the solver's g(beta)
    # jumps where the optimal code changes: no probe meets tol, so the search
    # must stop on the bracket width, stepping only inside the bracket
    radius = 0.5

    def g(beta):
        return 0.01 * beta + (1.0 if beta >= math.e else 0.0)

    seen = []

    def evaluate(beta):
        seen.append(beta)
        return g(beta), beta

    beta = _root_in_beta(evaluate, radius, 1e-12)
    assert seen[:3] == [1.0, 2.0, 4.0]
    assert len(set(seen)) == len(seen)
    lo, hi = 2.0, 4.0
    for b in seen[3:]:
        assert lo < b < hi
        if g(b) < radius:
            lo = b
        else:
            hi = b
    assert lo < math.e <= hi
    assert hi - lo <= 1e-15 * max(1.0, hi)
    gaps = [abs(g(b) - radius) for b in seen]
    assert beta == seen[gaps.index(min(gaps))]


def test_root_in_beta_takes_the_midpoint_where_the_secant_rounds_onto_hi():
    # the divergence jumps just below beta = 2 to 1e-300 above a tiny radius;
    # after the first secant step lands below the jump, the next one moves
    # hi by about 1e-20 and rounds onto hi, so the midpoint is taken instead
    radius = 1e-290

    def g(beta):
        return radius + 1e-300 if beta >= 2.0 - 1e-11 else 0.0

    seen = []

    def evaluate(beta):
        seen.append(beta)
        return g(beta), beta

    assert _root_in_beta(evaluate, radius, 0.0) == 2.0
    assert seen[:2] == [1.0, 2.0]
    assert len(set(seen)) == len(seen)
    lo, hi = 1.0, 2.0
    midpoints = 0
    for b in seen[2:]:
        assert lo < b < hi
        midpoints += b == 0.5 * (lo + hi)
        if g(b) < radius:
            lo = b
        else:
            hi = b
    assert seen[3] == 0.5 * (seen[2] + 2.0)
    assert midpoints == len(seen) - 3
    assert hi - lo <= 1e-15 * max(1.0, hi)


def test_root_in_beta_stops_where_the_divergence_stops_moving():
    # a divergence constant below the radius: the doubling to beta = 2 repeats
    # beta = 1's divergence bit for bit, so the family is at its limit and
    # the search gives up there instead of doubling MAX_DOUBLINGS times
    seen = []

    def evaluate(beta):
        seen.append(beta)
        return 0.25, beta

    assert _root_in_beta(evaluate, 0.5, 1e-12) is None
    assert seen == [1.0, 2.0]


@pytest.mark.parametrize("calls", [1, 3, 5], ids=["first", "doubling", "refining"])
def test_root_in_beta_ends_when_evaluate_returns_none(calls):
    # the root at beta = 5 takes the doublings 1, 2, 4 and 8, then refining
    # steps inside [4, 8]; an evaluate that returns None on its calls-th
    # call ends the search there, with no further probe
    radius = nu_circ(SKEWED, L122, 5.0).divergence_from_center
    seen = []
    divergence = _recording_divergence(seen)

    def evaluate(beta):
        point = divergence(beta)
        return None if len(seen) == calls else point

    assert _root_in_beta(evaluate, radius, 1e-12) is None
    assert len(seen) == calls


def test_doublings_keep_the_limit_code_once_they_meet_it():
    # the property the solver's stops rely on (the bit-for-bit stop of the
    # doublings, and a boundary search ending at the limit code): once a
    # doubling's exponential Huffman code is the limit code, so is every
    # later one
    from klcodes.solver import existence_threshold

    rng = np.random.default_rng(29)
    met = 0
    for m in (3, 4, 5, 6, 8, 12, 16, 24, 32, 64):
        for alpha in (1.0, 0.1):
            for arity in (2, 3):
                raw = np.maximum(rng.dirichlet(np.full(m, alpha)), 1e-6)
                mu = validate_distribution((raw / raw.sum()).tolist())
                limit_code = existence_threshold(mu, arity)[2]
                codes = [g_of_beta(mu, arity, 2.0 ** k)[1] for k in range(31)]
                if limit_code in codes:
                    met += 1
                    first = codes.index(limit_code)
                    assert all(code == limit_code for code in codes[first:]), (m, alpha, arity)
    assert met >= 30


def test_tilted_root_takes_few_tilts(monkeypatch):
    # the codes a solver scores (its hedged Huffman codes) at interior radii;
    # secant steps reach the radius in a handful of tilts after the doublings,
    # where bisection from the bracket took about 35
    from klcodes.solver import _hedged_codes, existence_threshold

    rng = np.random.default_rng(0)
    counts = []
    real_tilt = tilted._tilt

    def counting_tilt(terms, beta):
        counts[-1] += 1
        return real_tilt(terms, beta)

    monkeypatch.setattr(tilted, "_tilt", counting_tilt)
    for m in (4, 16, 64):
        raw = np.maximum(rng.dirichlet(np.ones(m)), 1e-6)
        mu = Distribution(tuple(raw / raw.sum()))
        r_max = existence_threshold(mu)[0]
        for lengths in dict.fromkeys(_hedged_codes(mu, 2)):
            for fraction in (0.1, 0.25, 0.5):
                counts.append(0)
                point = tilted_root(mu, lengths, fraction * r_max)
                if point is None:
                    counts.pop()
                    continue
                assert abs(point.divergence_from_center - fraction * r_max) <= 1e-12
    assert len(counts) >= 50
    assert max(counts) <= 15


def test_exact_avg_sup_dominates_sampling():
    # the face-enumeration supremum must beat every certified ball sample,
    # attain its witness, and agree with the rooted value when one exists
    from klcodes.core import DivergenceBall
    from klcodes.oracle import ball_sample
    from klcodes.tilted import exact_avg_sup

    rng = np.random.default_rng(97)
    for trial in range(25):
        m = int(rng.integers(2, 6))
        mu = Distribution(tuple(rng.dirichlet(np.ones(m))))
        lengths = random_lengths(rng, m)
        radius = float(10 ** rng.uniform(-2.5, 0.4))
        value, witness = exact_avg_sup(mu, lengths, radius)
        assert kl_divergence(witness, mu) <= radius + 1e-9
        assert avg_redundancy(lengths, witness) == pytest.approx(value, abs=1e-12)
        samples = ball_sample(DivergenceBall(mu, radius), n_interior=4000, seed=trial,
                              l_max=min(m + 1, 7))
        sampled = max(avg_redundancy(lengths, Distribution(tuple(row)))
                      for row in samples.points.tolist())
        assert value >= sampled - 1e-8
        point = tilted_root(mu, lengths, radius)
        if point is not None:
            assert value == pytest.approx(
                avg_redundancy(lengths, point.distribution), abs=1e-8
            )


def test_exact_avg_sup_dyadic_level_set():
    # ideal code: every shell point attains the supremum R / log 2
    from klcodes.tilted import exact_avg_sup

    mu = Distribution((0.5, 0.25, 0.25))
    value, witness = exact_avg_sup(mu, L122, 0.1)
    assert value == pytest.approx(0.1 / math.log(2), abs=1e-9)
    assert kl_divergence(witness, mu) == pytest.approx(0.1, abs=1e-9)


def test_exact_avg_sup_keeps_edge_centre_on_the_shell():
    # at r_max the centre of edge {0, 1} lies on the shell, but its divergence
    # evaluated on the edge rounds one ulp above the radius
    from klcodes.solver import existence_threshold
    from klcodes.tilted import exact_avg_sup

    r_max = existence_threshold(SKEWED)[0]
    assert r_max == 0.1053605156578264
    value, witness = exact_avg_sup(SKEWED, L122, r_max)
    edge_centre = Distribution((2 / 3, 1 / 3, 0.0))
    assert value >= avg_redundancy(L122, edge_centre) - 1e-8
    assert kl_divergence(witness, SKEWED) <= r_max + 1e-12


def _hundred_halvings(divergence_at, inside, outside, radius):
    """_crossing as it was: a fixed 100 halvings.  Also reports whether a
    midpoint equal to the inside end, at or above the radius, moved the
    outside end onto it, a step that the early stop does not take."""
    onto_inside = False
    for _ in range(100):
        mid = 0.5 * (inside + outside)
        if divergence_at(mid) < radius:
            inside = mid
        else:
            onto_inside |= mid == inside != outside
            outside = mid
    return 0.5 * (inside + outside), onto_inside


def test_crossing_stops_at_its_fixed_point_bit_for_bit():
    # the early stop returns what 100 halvings return: on seeded edges
    # toward both ends and blend crossings toward a vertex, a third of them
    # at a radius equal to the centre's divergence, where the bracket can
    # close on an inside end whose divergence rounds above the radius, and
    # on the edge of test_exact_avg_sup_keeps_edge_centre_on_the_shell
    rng = np.random.default_rng(53)
    r_max = 0.1053605156578264  # SKEWED's, whose edge {0, 1} centre is on the shell
    cases = [(lambda t: pair_divergence(t, 0.6, 0.3), 0.6 / 0.9, end, r_max)
             for end in (1.0, 0.0)]
    for trial in range(300):
        a, b, _ = rng.dirichlet(np.ones(3) * (0.3 if trial % 2 else 1.0))
        low = -math.log(a + b)
        radius = low if trial % 3 == 0 else float(rng.uniform(low, min(-math.log(a), -math.log(b))))

        def on_edge(t, a=a, b=b):
            return pair_divergence(t, a, b)

        cases += [(on_edge, a / (a + b), end, radius)
                  for end, far in ((1.0, -math.log(a)), (0.0, -math.log(b))) if far > radius]
    for trial in range(60):
        m = int(rng.integers(3, 7))
        p = rng.dirichlet(np.ones(m))
        face = rng.permutation(m)[:3]
        k_min = min(face, key=lambda k: p[k])
        center = np.zeros(m)
        center[face] = p[face] / p[face].sum()
        low = -math.log(float(p[face].sum()))
        radius = low if trial % 3 == 0 else float(rng.uniform(low, -math.log(p[k_min])))

        def on_blend(t, center=center, vertex=np.eye(m)[k_min], p=p):
            return array_divergence((1.0 - t) * center + t * vertex, p)

        cases.append((on_blend, 0.0, 1.0, radius))
    onto_inside = 0
    for divergence_at, inside, outside, radius in cases:
        expected, moved = _hundred_halvings(divergence_at, inside, outside, radius)
        assert _crossing(divergence_at, inside, outside, radius) == expected
        onto_inside += moved
    assert len(cases) >= 500 and onto_inside >= 5


def test_exact_avg_sup_tied_proper_face_carries_the_supremum():
    # the ratios tie on face {0, 1, 2, 3, 5} but not on the full support, and
    # no tilt has a root: the supremum is the constant redundancy of that
    # face's shell, reached only by the crossing toward its lightest vertex
    from klcodes.tilted import exact_avg_sup

    l = (3, 5, 5, 4, 2, 1)
    weights = [2.0 ** -k for k in l]
    weights[4] *= 0.42
    mu = Distribution(tuple(w / sum(weights) for w in weights))
    lengths = CodeLengths(l, arity=2)
    radius = 0.16
    assert tilted_root(mu, lengths, radius) is None
    value, witness = exact_avg_sup(mu, lengths, radius)
    assert value == pytest.approx(radius / math.log(2) + math.log2(mu.probs[0] * 2**3),
                                  abs=1e-12)
    assert witness.probs[4] == 0.0
    assert kl_divergence(witness, mu) == pytest.approx(radius, abs=1e-12)


def _skipped_face_crossings(mu, lengths, radius):
    """Blend crossings toward the lightest vertex of every face with no
    root, untied ratios and its lightest vertex at or outside the radius.
    Each point is the inside end of a plain bisection, so it lies in the
    ball."""
    from klcodes.tilted import ARGMAX_LOG_TOL

    p = mu.as_array()
    log_r = np.log(p) + lengths.as_array() * math.log(lengths.arity)
    m = mu.m
    for bits in range(1, 2**m):
        face = [k for k in range(m) if (bits >> k) & 1]
        if len(face) < 3 or -math.log(p[face].sum()) > radius:
            continue
        top = max(log_r[face])
        members = [k for k in face if log_r[k] >= top - ARGMAX_LOG_TOL]
        if -math.log(p[members].sum()) > radius or members == face:
            continue  # a rooted face, or a tied one
        k_min = min(face, key=lambda k: p[k])
        if -math.log(p[k_min]) < radius:
            continue
        center = np.zeros(m)
        center[face] = p[face] / p[face].sum()
        vertex = np.eye(m)[k_min]
        inside, outside = 0.0, 1.0
        for _ in range(60):
            t = 0.5 * (inside + outside)
            nu = (1.0 - t) * center + t * vertex
            nz = nu > 0.0
            if float(np.sum(nu[nz] * np.log(nu[nz] / p[nz]))) < radius:
                inside = t
            else:
                outside = t
        yield (1.0 - inside) * center + inside * vertex


def test_exact_avg_sup_dominates_skipped_face_crossings():
    # faces without a root whose ratios do not tie get no blend crossing:
    # their shell maxima lie on subfaces, so no such crossing may beat the
    # supremum, on generic centres and on centres within 1e-8 of a tie
    from klcodes.huffman import huffman
    from klcodes.solver import existence_threshold
    from klcodes.tilted import exact_avg_sup

    rng = np.random.default_rng(41)
    checked = 0
    for trial in range(100):
        m = int(rng.integers(3, 8))
        if trial % 4 == 0:
            ideal = huffman(rng.dirichlet(np.ones(m))).as_array()
            noise = 10 ** rng.uniform(-13, -8) * rng.uniform(-1, 1, m)
            w = 2.0 ** -ideal * (1.0 + noise)
            mu = Distribution(tuple(w / w.sum()))
        else:
            mu = Distribution(tuple(rng.dirichlet(np.ones(m))))
        r_max, _, limit_code = existence_threshold(mu)
        # a centre whose limit ratios tie within ARGMAX_LOG_TOL has r_max 0 up
        # to rounding; its radii scale with -log min mu instead
        scale = r_max if r_max > 1e-12 else -math.log(min(mu.probs))
        lengths = (limit_code, huffman(mu.probs), random_lengths(rng, m))[trial % 3]
        radius = float(rng.uniform(0.3, 1.2)) * scale
        value, _ = exact_avg_sup(mu, lengths, radius)
        for nu in _skipped_face_crossings(mu, lengths, radius):
            assert value >= avg_redundancy(lengths, Distribution(tuple(nu))) - 1e-12
            checked += 1
    assert checked >= 500


def _masked_tilt(p, log_r, mask, beta):
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.where(mask, beta * log_r + np.log(p), -np.inf)
        raw = np.exp(logw - log_sum_exp(logw))
    raw[~np.isfinite(raw)] = 0.0
    raw = raw / raw.sum()
    total = math.fsum(raw.tolist())
    nu = raw if total == 1.0 else raw / total
    return array_divergence(nu, p), raw


def _masked_face_limit(p, log_r, mask):
    face_log_r = np.where(mask, log_r, -np.inf)
    members = face_log_r >= np.max(face_log_r) - ARGMAX_LOG_TOL
    return members, float(p[members].sum())


def _masked_face_root(p, log_r, mask, radius, tol):
    def evaluate(beta):
        divergence, raw = _masked_tilt(p, log_r, mask, beta)
        return divergence, (beta, divergence, raw)

    return _root_in_beta(evaluate, radius, tol)


def _vertex_and_edge_points(p, radius):
    """exact_avg_sup's vertex and edge loops as they were before the prune:
    the in-ball vertices, then both shell crossings of every edge in (j, k)
    order, each crossing computed.  Returns the points and the number of
    crossings."""
    m = len(p)
    unit = np.eye(m)
    points = [unit[k] for k in range(m) if p[k] > 0.0 and -math.log(p[k]) <= radius]
    vertices = len(points)

    def pair_point(j, k, t):
        nu = np.zeros(m)
        nu[j] = t
        nu[k] = 1.0 - t
        return nu

    for j in range(m):
        for k in range(j + 1, m):
            if p[j] == 0.0 or p[k] == 0.0:
                continue

            def on_edge(t):
                return pair_divergence(t, p[j], p[k])

            if -math.log(p[j] + p[k]) > radius:
                continue
            t_center = p[j] / (p[j] + p[k])
            if -math.log(p[j]) > radius:
                points.append(pair_point(j, k, _crossing(on_edge, t_center, 1.0, radius)))
            if -math.log(p[k]) > radius:
                points.append(pair_point(j, k, _crossing(on_edge, t_center, 0.0, radius)))
    return points, len(points) - vertices


def _redundancy_of(lengths):
    log_d = math.log(lengths.arity)
    l = lengths.as_array()

    def redundancy(nu):
        nz = nu > 0.0
        return float(np.dot(nu, l) + np.sum(nu[nz] * np.log(nu[nz])) / log_d)

    return redundancy


def _unpruned_avg_sup(mu, lengths, radius):
    """The reference for a rootless code: exact_avg_sup as it was before
    the prune, every crossing computed and scored in visiting order
    (vertices, edges, tie class).  Returns (value, witness) and the number
    of crossings."""
    m = mu.m
    p = mu.as_array()
    unit = np.eye(m)
    points, crossings = _vertex_and_edge_points(p, radius)
    members = _face_limit(_code_terms(mu, lengths))[0]
    if np.count_nonzero(members) >= 3:
        k_min = min(np.flatnonzero(members), key=lambda k: p[k])
        if -math.log(p[k_min]) >= radius:
            center = np.where(members, p, 0.0)
            center = center / center.sum()

            def blend(t):
                return (1.0 - t) * center + t * unit[k_min]

            t = _crossing(lambda t: array_divergence(blend(t), p), 0.0, 1.0, radius)
            points.append(blend(t))
            crossings += 1
    redundancy = _redundancy_of(lengths)
    best, witness = max(((redundancy(nu), nu) for nu in points), key=lambda pair: pair[0])
    return (best, Distribution(tuple(witness))), crossings


def _face_enumeration_sup(mu, lengths, radius, tol=1e-12):
    """The reference: exact_avg_sup as it was over all 2^M support masks,
    vertices, edges and then every face of three or more symbols."""
    m = mu.m
    p = mu.as_array()
    log_r = _code_terms(mu, lengths)[2]
    unit = np.eye(m)
    points = _vertex_and_edge_points(p, radius)[0]

    for bits in range(1, 2**m):
        mask = np.array([(bits >> k) & 1 == 1 for k in range(m)])
        if mask.sum() < 3 or np.any(p[mask] == 0.0):
            continue
        if -math.log(float(p[mask].sum())) > radius:
            continue
        members, mass = _masked_face_limit(p, log_r, mask)
        if -math.log(mass) > radius:
            root = _masked_face_root(p, log_r, mask, radius, tol)
            if root is not None:
                points.append(root[2])
        elif np.array_equal(members, mask):
            k_min = min((k for k in range(m) if mask[k]), key=lambda k: p[k])
            if -math.log(p[k_min]) >= radius:
                center = np.where(mask, p, 0.0)
                center = center / center.sum()

                def blend(t):
                    return (1.0 - t) * center + t * unit[k_min]

                t = _crossing(lambda t: array_divergence(blend(t), p), 0.0, 1.0, radius)
                points.append(blend(t))

    redundancy = _redundancy_of(lengths)
    best, witness = max(((redundancy(nu), nu) for nu in points), key=lambda pair: pair[0])
    return best, Distribution(tuple(witness))


def test_exact_avg_sup_agrees_with_face_enumeration():
    # the support and its tie class stand for every face of three or more
    # symbols at any M: bit for bit where the support has no root, within
    # the root tolerance inside the ball, and on the same shell for ideal
    # codes
    from klcodes.huffman import huffman
    from klcodes.solver import existence_threshold
    from klcodes.tilted import exact_avg_sup

    rng = np.random.default_rng(23)
    counts = {"rootless": 0, "dyadic": 0, "interior": 0}
    for trial in range(36):
        # the reference costs up to 2^M face roots, so M = 7 and 8 come last
        # and once each per kind: generic, one zero entry, dyadic
        m = 3 + trial % 4 if trial < 33 else (7, 8, 8)[trial - 33]
        kind = trial % 3
        w = rng.dirichlet(np.ones(m))
        if kind == 2:
            ideal = huffman(w)
            mu = Distribution(tuple(2.0 ** -ideal.as_array()))
            # below the first radius no edge reaches the shell, so only the
            # crossing toward the lightest vertex does
            top_two = sum(sorted(mu.probs)[-2:])
            for radius in (0.5 * -math.log(top_two),
                           float(rng.uniform(0.2, 0.95)) * -math.log(min(mu.probs))):
                value, witness = exact_avg_sup(mu, ideal, radius)
                reference = _face_enumeration_sup(mu, ideal, radius)[0]
                assert value == pytest.approx(reference, abs=1e-12)
                assert kl_divergence(witness, mu) == pytest.approx(radius, abs=1e-12)
                counts["dyadic"] += 1
            continue
        if kind == 1:
            w[int(rng.integers(m))] = 0.0
        mu = Distribution(tuple(w / w.sum()))
        codes = [huffman(mu.probs), random_lengths(rng, m)]
        if kind == 0:
            codes.append(existence_threshold(mu)[2])
        for lengths in codes:
            limit = nu_infinity(mu, lengths).divergence_from_center
            for factor in (1.0, float(rng.uniform(1.0, 2.0))):
                radius = factor * limit
                got = exact_avg_sup(mu, lengths, radius)
                assert repr(got) == repr(_face_enumeration_sup(mu, lengths, radius))
                counts["rootless"] += 1
        radius = float(rng.uniform(0.3, 0.7)) * limit
        value, _ = exact_avg_sup(mu, lengths, radius)
        assert value == pytest.approx(_face_enumeration_sup(mu, lengths, radius)[0], abs=1e-11)
        counts["interior"] += 1
    # rootless codes at M = 10-13, the largest sizes where the 2^M reference
    # runs in about a second
    rng = np.random.default_rng(29)
    for m in range(10, 14):
        mu = Distribution(tuple(rng.dirichlet(np.ones(m)).tolist()))
        for lengths in (huffman(mu.probs), existence_threshold(mu)[2]):
            limit = nu_infinity(mu, lengths).divergence_from_center
            for factor in (1.0, 1.2):
                radius = factor * limit
                got = exact_avg_sup(mu, lengths, radius)
                assert repr(got) == repr(_face_enumeration_sup(mu, lengths, radius))
                counts["rootless"] += 1
    assert sum(counts.values()) >= 166 and min(counts.values()) >= 20


def _in_ball_edge_values(p, l, radius, log_d):
    """Values of a code at an in-ball point near each shell crossing of each edge.

    An independent numpy bisection over all edges at once: from the edge's
    centre toward each endpoint outside the ball, 60 halvings, keeping the
    end inside the ball.
    """
    j, k = np.triu_indices(p.size, 1)
    keep = -np.log(p[j] + p[k]) <= radius
    j, k = j[keep], k[keep]
    values = []
    for v, w in ((j, k), (k, j)):
        outside = -np.log(p[v]) > radius
        a, b = p[v][outside], p[w][outside]
        lo, hi = a / (a + b), np.ones(a.size)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            divergence = mid * np.log(mid / a) + (1.0 - mid) * np.log((1.0 - mid) / b)
            inside = divergence <= radius
            lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        entropy = lo * np.log(lo) + (1.0 - lo) * np.log(1.0 - lo)
        values.append(lo * l[v][outside] + (1.0 - lo) * l[w][outside] + entropy / log_d)
    return np.concatenate(values)


def test_exact_avg_sup_dominates_the_ball_points_it_knows_at_large_m():
    # at M = 32-256 no 2^M reference runs, but for a rootless code the
    # supremum lies in the ball, below the ball's bound, and at least the
    # value at every vertex inside it, at an in-ball point beside each edge
    # crossing, and at every tilt, all of which lie inside it too (up to
    # rounding at 1.0 x the limit divergence, where tilts near beta = 2^60
    # reach the supremum itself)
    from klcodes.huffman import huffman
    from klcodes.solver import existence_threshold
    from klcodes.tilted import exact_avg_sup

    rng = np.random.default_rng(31)
    for m in (32, 128, 256):
        for _ in range(2):
            mu = Distribution(tuple(rng.dirichlet(np.ones(m)).tolist()))
            p = mu.as_array()
            for lengths in (huffman(mu.probs), existence_threshold(mu)[2]):
                limit = nu_infinity(mu, lengths).divergence_from_center
                tilts = [nu_circ(mu, lengths, 2.0**k) for k in range(61)]
                top = float(np.max(_code_terms(mu, lengths)[2]))
                for factor in (1.0, 1.25, 1.5):
                    radius = factor * limit
                    assert tilted_root(mu, lengths, radius) is None
                    value, witness = exact_avg_sup(mu, lengths, radius)
                    assert kl_divergence(witness, mu) <= radius + 1e-12
                    # R + max log r in nats bounds the value on the ball
                    assert value <= (radius + top) / math.log(2.0) + 1e-12
                    for k in range(m):
                        if -math.log(mu.probs[k]) <= radius:
                            vertex = Distribution(tuple(float(i == k) for i in range(m)))
                            assert value >= avg_redundancy(lengths, vertex)
                    for tilt in tilts:
                        assert tilt.divergence_from_center <= radius + 1e-12
                        assert value >= avg_redundancy(lengths, tilt.distribution) - 1e-12
                    edges = _in_ball_edge_values(p, lengths.as_array(), radius, math.log(2.0))
                    assert value >= float(edges.max(initial=-math.inf)) - 1e-12


def test_exact_avg_sup_prune_keeps_every_bit(monkeypatch):
    # skipping crossings whose shell bound cannot beat the best point leaves
    # the value and the witness as the unpruned loop gives them, and does
    # skip: exact_avg_sup runs fewer crossings than the loop.  Every fourth
    # centre is ideal for its first code, so that every shell point ties
    # and the first of the tied points is the witness
    from klcodes.huffman import huffman
    from klcodes.solver import existence_threshold
    from klcodes.tilted import exact_avg_sup

    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _crossing(*args)

    monkeypatch.setattr(tilted, "_crossing", counted)
    rng = np.random.default_rng(59)
    compared = unpruned = 0
    for trial in range(40):
        m = 3 + trial % 10
        arity = 2 + trial % 2
        alpha = (1.0, 0.3)[trial // 10 % 2]
        w = np.maximum(rng.dirichlet(np.full(m, alpha)), 1e-6)
        if trial % 4 == 3:
            w = float(arity) ** -huffman(w, arity).as_array()
        mu = Distribution(tuple((w / w.sum()).tolist()))
        r_max = existence_threshold(mu, arity)[0]
        scale = -math.log(min(mu.probs)) if trial % 4 == 3 else r_max
        codes = (huffman(mu.probs, arity), huffman(rng.dirichlet(np.ones(m)), arity))
        for factor in (0.3, 0.9, 1.0, 1.3, 2.0):
            radius = factor * scale
            for lengths in codes:
                if radius == 0.0 or tilted_root(mu, lengths, radius) is not None:
                    continue
                expected, crossings = _unpruned_avg_sup(mu, lengths, radius)
                assert repr(exact_avg_sup(mu, lengths, radius)) == repr(expected)
                compared += 1
                unpruned += crossings
    assert compared >= 150
    assert calls < 0.5 * unpruned


def _root_first_avg_sup(mu, lengths, radius):
    """exact_avg_sup as it was: tilted_root asked first, whatever the face
    test says, then the unpruned rootless reference."""
    point = tilted_root(mu, lengths, radius)
    if point is not None:
        return avg_redundancy(lengths, point.distribution), point.distribution
    return _unpruned_avg_sup(mu, lengths, radius)[0]


@pytest.mark.parametrize("probs, fraction, roots_sought", [
    ((0.6, 0.3, 0.1), 1.0, 0), ((0.4, 0.3, 0.2, 0.1), 1.0, 0),
    ((0.6, 0.3, 0.1), 0.5, 1), ((0.4, 0.3, 0.2, 0.1), 0.5, 1),
], ids=["skewed_at_r_max", "mixed4_at_r_max", "skewed_inside", "mixed4_inside"])
def test_exact_avg_sup_seeks_no_root_the_face_test_rules_out(monkeypatch, probs, fraction,
                                                             roots_sought):
    # each centre's limit code ((1, 2, 2) for SKEWED, (2, 2, 2, 2) for the
    # mixed4 instance) loses its root at r_max = -log mu(A), its argmax tie
    # class's mass, so there exact_avg_sup asks tilted_root nothing (it used
    # to ask once); inside r_max it asks once.  Either way it returns what
    # the root-first reference returns, bit for bit
    from klcodes.solver import existence_threshold
    from klcodes.tilted import exact_avg_sup

    mu = validate_distribution(probs)
    r_max, _, lengths = existence_threshold(mu)
    radius = fraction * r_max
    expected = _root_first_avg_sup(mu, lengths, radius)
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return tilted_root(*args, **kwargs)

    monkeypatch.setattr(tilted, "tilted_root", counted)
    assert repr(exact_avg_sup(mu, lengths, radius)) == repr(expected)
    assert calls == roots_sought


def test_exact_avg_sup_near_tie_witness_stays_in_the_ball():
    # symbol 0's log-ratio sits 2e-12 below the top one, outside
    # ARGMAX_LOG_TOL: faces such as {0, 1, 5} have roots only near
    # beta = 9e11, where the tilt is too noisy to hit the radius, and their
    # points lie outside the ball; the supremum is the crossing of edge {3, 5}
    from klcodes.tilted import exact_avg_sup

    mu = Distribution((0.16666666666633959, 0.0833333333334404, 0.08333333333330842,
                       0.1666666666666522, 0.16666666666688504, 0.33333333333337434))
    lengths = CodeLengths((3, 3, 3, 3, 2, 2), arity=2)
    radius = 0.90109133472786
    assert tilted_root(mu, lengths, radius) is None
    value, witness = exact_avg_sup(mu, lengths, radius)
    assert kl_divergence(witness, mu) <= radius + 1e-12
    assert value == pytest.approx(1.715037499278902, abs=1e-12)


def test_exact_avg_sup_returns_the_tilt_root_above_twelve_symbols():
    # a code whose support tilt has a root needs no enumeration: the root is
    # the supremum, returned as tilted_root finds it
    from klcodes.huffman import huffman
    from klcodes.tilted import exact_avg_sup

    mu = validate_distribution([k / 91.0 for k in range(1, 14)])
    lengths = huffman(mu.probs)
    radius = 0.05
    point = tilted_root(mu, lengths, radius)
    assert point is not None
    value, witness = exact_avg_sup(mu, lengths, radius)
    assert witness == point.distribution
    assert value == avg_redundancy(lengths, point.distribution)


def test_tilted_root_hits_the_shell_near_a_tie():
    # the log-ratios tie to within 1e-12, so the root lies near
    # beta = 1.6e12; the tilt's exponent must be centred on its maximum, or
    # its rounding alone moves the divergence by about 1e-5
    from klcodes.tilted import exact_avg_sup

    mu = Distribution((0.2500000000000424, 0.2499999999998008,
                       0.24999999999972777, 0.250000000000429))
    lengths = CodeLengths((3, 3, 3, 3), arity=2)
    radius = 0.9704060527827222
    point = tilted_root(mu, lengths, radius)
    assert point.beta > 1e12
    assert abs(kl_divergence(point.distribution, mu) - radius) <= 1e-9
    _, witness = exact_avg_sup(mu, lengths, radius)
    assert kl_divergence(witness, mu) <= radius + 1e-12


def test_exact_avg_sup_tiny_radius_keeps_the_centre_in_the_ball():
    # the centre's numpy sum is 0.9999999999999999, so -log of it reads
    # 1.1e-16, above the radius, though the centre itself is in the ball
    from klcodes.tilted import exact_avg_sup

    mu = Distribution((0.25000000000011724, 0.2500000000001056, 0.5000000000004321))
    assert float(mu.as_array().sum()) == 0.9999999999999999
    radius = 1.02e-16
    value, witness = exact_avg_sup(mu, CodeLengths((2, 2, 1), arity=2), radius)
    assert math.isfinite(value)
    assert kl_divergence(witness, mu) <= radius + 1e-12


def test_tilted_point_is_supremum_over_samples():
    # for any fixed code, the root-tilted point dominates every ball member
    from klcodes.core import DivergenceBall
    from klcodes.oracle import ball_sample

    rng = np.random.default_rng(29)
    for trial in range(10):
        m = int(rng.integers(2, 5))
        mu = Distribution(tuple(rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m))
        lengths = random_lengths(rng, m)
        limit = nu_infinity(mu, lengths)
        if limit.divergence_from_center < 1e-3:
            continue
        radius = 0.5 * limit.divergence_from_center
        point = tilted_root(mu, lengths, radius)
        assert point is not None
        top = avg_redundancy(lengths, point.distribution)
        for row in ball_sample(DivergenceBall(mu, radius), n_interior=500, seed=trial).points:
            assert avg_redundancy(lengths, Distribution(tuple(row))) <= top + 1e-6


def test_tilt_walk_first_divergence_matches_tilt():
    # the closed form is not bit-matched to _tilt, but stays within the
    # 1e-11 nats that the skip margin and the own-root window allow for
    rng = np.random.default_rng(5)
    for m in (4, 64, 1024):
        for alpha in (1.0, 0.1, 0.02):
            for floor in (1e-6, 1e-100, 1e-300):
                raw = np.maximum(rng.dirichlet(np.full(m, alpha)), floor)
                mu = Distribution(tuple(raw / raw.sum()))
                for beta in (1e-3, 0.1, 1.0, 30.0, 1e3, 1e6):
                    terms = _code_terms(mu, g_of_beta(mu, 2, beta)[1])
                    walked = next(_tilt_walk(terms, beta, 1.0))
                    assert walked[0] == beta
                    assert abs(walked[1] - _tilt(terms, beta)[0]) <= 1e-11


def test_own_root_lands_in_its_window_or_reports_no_root():
    terms = _code_terms(SKEWED, L122)
    radius, tol = 0.05, 1e-9
    beta = _own_root(terms, 1.0, _tilt(terms, 1.0)[0], radius, tol)
    assert beta is not None
    walked = next(_tilt_walk(terms, beta, radius))[1]
    assert radius <= walked <= radius + 0.5 * tol
    exact = _tilt(terms, beta)[0]
    assert radius <= exact <= radius + tol
    # the limit divergence of (1, 2, 2) at SKEWED is -log 0.9, about 0.105
    radius = 0.2
    assert _own_root(terms, 1.0, _tilt(terms, 1.0)[0], radius, tol) is None
    # a rooted code with an empty window (tol 0): every tilt of the walk
    # misses the radius by rounding, so none is returned
    steps = list(_tilt_walk(terms, 1.0, 0.05))
    assert len(steps) == tilted.MAX_DOUBLINGS
    assert all(divergence != 0.05 for _, divergence, _ in steps)
    assert _own_root(terms, 1.0, _tilt(terms, 1.0)[0], 0.05, 0.0) is None


def test_tilt_walk_stops_where_the_divergence_is_flat():
    # equal log-ratios tilt nowhere: D is 0 at every beta, so no step exists
    p = SKEWED.as_array()
    log_r = np.full(3, 0.7)
    steps = list(_tilt_walk((p, np.log(p), log_r, log_r - log_r.max()), 2.0, 0.1))
    assert len(steps) == 1
    assert steps[0][0] == 2.0
    assert steps[0][1] == pytest.approx(0.0, abs=1e-15)
    assert steps[0][2] == 0.0


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", [
    lambda beta: nu_circ(SKEWED, L122, beta),
    lambda beta: xi(SKEWED, beta),
    lambda beta: decomposition_terms(L122, SKEWED, SKEWED, beta),
    lambda beta: exponential_huffman_log([-1.0, -2.0, -3.0, -4.0, -5.0], beta),
    lambda beta: g_of_beta(SKEWED, 2, beta),
    lambda beta: g_of_beta(SKEWED, 2, beta, L122),
], ids=["nu_circ", "xi", "decomposition_terms", "exponential_huffman_log", "g_of_beta",
        "g_of_beta_met"])
def test_tilt_entry_points_reject_a_beta_outside_zero_to_infinity(entry, beta):
    # an infinite beta used to pass `beta > 0` and return a wrong code,
    # NaNs or an unrelated error
    with pytest.raises(DomainError, match="beta must be positive and finite"):
        entry(beta)


def test_exact_avg_sup_at_radius_zero_is_the_centre():
    from klcodes.tilted import exact_avg_sup

    value, worst = exact_avg_sup(SKEWED, L122, 0.0)
    assert worst == SKEWED
    assert value == avg_redundancy(L122, SKEWED)
    with pytest.raises(DomainError):
        exact_avg_sup(SKEWED, L122, -0.1)


@pytest.mark.parametrize("radius, tol", [
    (math.nan, 1e-12), (0.1, -1.0), (0.1, math.nan), (-0.1, 1e-12),
], ids=["nan_radius", "negative_tol", "nan_tol", "negative_radius"])
def test_tilted_root_and_exact_avg_sup_reject_a_bad_radius_or_tol(radius, tol):
    # a NaN radius used to pass `radius <= 0.0`: tilted_root returned a point
    # at beta = 512 with divergence 1.204 and exact_avg_sup returned 2.0; a
    # negative tol ran all 200 Illinois steps.  exact_avg_sup takes no tol
    from klcodes.tilted import exact_avg_sup

    mu = validate_distribution([0.5, 0.3, 0.2])
    lengths = CodeLengths((1, 2, 2), arity=2)
    with pytest.raises(DomainError):
        tilted_root(mu, lengths, radius, tol)
    if not radius > 0.0:
        with pytest.raises(DomainError):
            exact_avg_sup(mu, lengths, radius)


def _lockstep_balls():
    """(mu, codes, radius): seeded centres at M 2-9, arities 2-4, radii from 1e-300 past the limit.

    Among the centres are two at M 8 and 9 with entries down to e^-690,
    whose tilts underflow to exact zeros at large beta, and two with a zero
    entry.  The radii run below every code's limit (fractions of -log max
    mu, where the roots' betas grow) and past every code's limit (1.5 x
    -log min mu, where every code is rootless).
    """
    rng = np.random.default_rng(11)
    centres = [np.maximum(rng.dirichlet(np.ones(m)), 1e-6) for m in range(2, 10)]
    centres += [np.exp(-rng.uniform(0.0, 690.0, m)) for m in (8, 9)]
    centres += [np.append(rng.dirichlet(np.ones(m - 1)), 0.0) for m in (5, 9)]
    for x in centres:
        mu = Distribution(tuple((x / x.sum()).tolist()))
        low = -math.log(max(mu.probs))
        top = -math.log(min(p for p in mu.probs if p > 0.0))
        for arity in (2, 3, 4):
            vectors = list(enumerate_kraft_lengths(mu.m, arity, min(mu.m, 6)))
            picks = rng.choice(len(vectors), size=min(12, len(vectors)), replace=False)
            codes = [CodeLengths(tuple(rng.permutation(vectors[i]).tolist()), arity) for i in picks]
            for radius in (1e-300, 1e-12, 0.01, 0.5 * low, 0.99 * low, 0.3 * top, 0.999 * top,
                           1.5 * top):
                yield mu, codes, radius


def test_tilted_roots_is_tilted_root_code_by_code():
    # beta, point and divergence to the bit, or None where tilted_root has
    # no root; the balls reach rootless codes, tilts that underflow to exact
    # zeros at M >= 8 and centres with a zero entry
    rooted = rootless = underflowed = zero_entry = 0
    for mu, codes, radius in _lockstep_balls():
        assert tilted_roots(mu, [], radius) == []
        for lengths, root in zip(codes, tilted_roots(mu, codes, radius), strict=True):
            alone = tilted_root(mu, lengths, radius)
            if alone is None:
                assert root is None
                rootless += 1
                continue
            assert repr((root.beta, root.distribution.probs, root.divergence_from_center)) == repr(
                (alone.beta, alone.distribution.probs, alone.divergence_from_center))
            rooted += 1
            if 0.0 in mu.probs:
                zero_entry += 1
            elif mu.m >= 8 and 0.0 in alone.distribution.probs:
                underflowed += 1
    assert rooted and rootless and underflowed and zero_entry


def test_tilted_roots_checks_its_inputs_as_tilted_root_does():
    codes = [L122, CodeLengths((2, 2, 1), arity=3)]
    with pytest.raises(DomainError):
        tilted_roots(SKEWED, codes, 0.0)
    with pytest.raises(DimensionMismatchError):
        tilted_roots(SKEWED, [L122, CodeLengths((1, 2, 3, 3))], 0.1)
