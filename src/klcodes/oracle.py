"""Brute-force ground truth for small instances.

Everything here is deliberately literal: enumerate every Kraft-feasible
integer length vector up to a cap, sample the divergence ball, and take
plain minima and maxima.  These routines are the reference the fast
algorithms are tested against, so they avoid sharing shortcuts with them;
the one sanctioned exception is the analytic tilted worst case, which the
ball-dependent objectives score alongside the samples (through
tilted.objective_utility, the formula the solver reports) because a sampled
supremum alone is only a lower bound.  exact_min_over_codes goes further
on purpose and scores each code with the solver's per-code exact
supremum, solver._candidate_sup (its docstring says why).

For the same reason the bisection loops here (the ball crossings of
ball_sample and brute_binary_root) stay written out rather than calling the
root finders of tilted and nml.  They share only the divergence formulas of
core and its rule for storing a row as Distribution stores it (_stored).
The random simplex points are drawn by one rng.dirichlet call, which
yields the same rows and leaves the generator where one call per point
would.  The segment ends toward them and toward the vertices are
tested inside the ball by one masked row sum (_divergences), and the
crossings of the outside ones run as one batched bisection
(_shell_crossings) with the scalar loop's midpoint, tie rule and stop
width, so every segment takes the same 44 halvings and stops where a
loop per segment would; the edge crossings stay scalar.  The tie rules
differ on purpose: a segment crossing moves its inside end when the
divergence equals the radius, the edge crossings move the outside end.
A shared loop would have to pick one rule, which moves sampled points
and with them every oracle figure built on the samples.

ball_sample returns a BallSample: its ball, the certified points as the
rows of one float64 matrix, and each rooted code's analytic point, every
enumerated code rooted by one lockstep search (tilted.tilted_roots).  The
crossings, edge crossings and interior draws go straight into the matrix,
each row stored as Distribution would store it (_stored), so no point is
built as a Distribution; one _divergences call certifies every row.  The
sampled oracles score a sample through _ball_scorer, the twin of
_weight_scorer, which reads the ball, the matrix and the analytic points
there: no code is rooted a second time.  Anything but a BallSample, or a
sample of another ball than the one an oracle is given, raises
DomainError rather than being rescored.

Enumeration yields non-decreasing vectors only.  Assigning the sorted
lengths to weight-sorted symbols (shortest to heaviest) is optimal for
every objective in this package: swapping a shorter length onto a larger
weight never increases any of them, and for the ball objectives the
swapped adversary needed by the exchange argument stays inside the ball.
sorted_assignment is that rule; _assignment takes the weights' stable
order once, so a call assigns every enumerated vector through one order.
One loop, _min_over_codes, enumerates, assigns, scores and reports for
every oracle over codes; only the score differs.  The weight objectives
score through weight_cost, the one formula of each of them, which the
tests also use to price the Huffman builders' codes.  The entry points
check their inputs as the builders do: the arity through
core._check_arity, weights through core._check_weights, beta through
core._check_beta, and all-zero pointwise weights raise
AllZeroWeightsError.  An l_max so short that no code is enumerated
(arity^l_max below the symbol count) raises DomainError, never an empty
minimum.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    CodeLengths,
    Distribution,
    DivergenceBall,
    _check_arity,
    _check_beta,
    _check_weights,
    _stored,
    binary_divergence,
    log_sum_exp,
    pair_divergence,
)
from .errors import AllZeroWeightsError, DimensionMismatchError, DomainError, LimitExceededError
from .solver import _candidate_sup
from .tilted import nu_infinity, objective_utility, tilted_root, tilted_roots

ENUM_MAX_M = 10
ENUM_MAX_LEN = 10
CERT_TOL = 1e-10
# random simplex points that ball_sample crosses the shell toward
N_BOUNDARY = 64


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive-search outcome: the optimum and everything that attains it."""

    optimum_value: float
    optimal_length_vectors: tuple[tuple[int, ...], ...]
    evaluations: int


def default_l_max(m: int, arity: int) -> int:
    """Length cap that never truncates an optimal code at desk scale."""
    if arity == 2:
        return m
    return math.ceil(math.log(m) / math.log(arity)) + 2


def enumerate_kraft_lengths(m: int, arity: int, l_max: int):
    """Yield all non-decreasing Kraft-feasible integer vectors, lexicographically.

    Kraft feasibility is checked exactly: a vector consumes
    sum arity^(l_max - l_i) out of a budget of arity^l_max.  m and l_max
    go through operator.index, so a non-integer raises DomainError, and the
    arity through core._check_arity; an m or l_max out of range raises
    LimitExceededError.
    """
    try:
        m, l_max = operator.index(m), operator.index(l_max)
    except TypeError:
        raise DomainError(f"m and l_max must be integers, got {m!r} and {l_max!r}") from None
    arity = _check_arity(arity)
    if not (2 <= m <= ENUM_MAX_M):
        raise LimitExceededError(f"m must be in [2, {ENUM_MAX_M}], got {m}")
    if not (1 <= l_max <= ENUM_MAX_LEN):
        raise LimitExceededError(f"l_max must be in [1, {ENUM_MAX_LEN}], got {l_max}")
    budget = arity**l_max
    vector = [0] * m

    def extend(position: int, smallest: int, used: int):
        if position == m:
            yield tuple(vector)
            return
        remaining = m - position
        for length in range(smallest, l_max + 1):
            cost = arity ** (l_max - length)
            # later entries are >= length, so they consume at least 1 each
            if used + cost + (remaining - 1) > budget:
                continue
            vector[position] = length
            yield from extend(position + 1, length, used + cost)

    yield from extend(0, 1, 0)


@functools.cache
def _enumerated(m: int, arity: int, l_max: int) -> tuple[tuple[int, ...], ...]:
    return tuple(enumerate_kraft_lengths(m, arity, l_max))


def _assignment(weights):
    """sorted_assignment for fixed weights: their stable decreasing order is taken once."""
    order = np.argsort(-np.asarray(list(weights), dtype=float), kind="stable")
    # rank[k] is the slot, in decreasing weight order, of symbol k
    rank = np.argsort(order).tolist()
    return lambda sorted_lengths: tuple(sorted_lengths[slot] for slot in rank)


def sorted_assignment(weights, sorted_lengths) -> tuple[int, ...]:
    """Assign non-decreasing lengths to symbols in decreasing weight order."""
    return _assignment(weights)(sorted_lengths)


def _worst_point(mu: Distribution, lengths: CodeLengths, root) -> Distribution:
    """The code's worst case from its tilt root: the root's point, else the limit as the tilt grows."""
    return root.distribution if root is not None else nu_infinity(mu, lengths).distribution


def _analytic_worst(mu: Distribution, lengths: CodeLengths, radius: float) -> Distribution:
    """The code's tilted point at this radius, else its limit as the tilt grows."""
    return _worst_point(mu, lengths, tilted_root(mu, lengths, radius))


def _divergences(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """array_divergence(row, p) of every row at once, +inf for a row with mass off p's support.

    A row sums array_divergence's terms in its order, with a 0 for each
    symbol the row does not carry.  Adding a zero leaves a partial sum as
    it is, so the sum is array_divergence's to the bit for a row without
    zeros, with at most two nonzero terms, or over fewer than 8 symbols
    (from 8 terms on numpy sums in blocks, where a zero can shift the
    others between blocks and move the last bit).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0.0, rows * np.log(rows / p), 0.0)
    return terms.sum(axis=1)


def _shell_crossings(p: np.ndarray, targets: np.ndarray, radius: float) -> np.ndarray:
    """Each target row if it is inside the ball, else where the segment toward it leaves.

    Whether a target is inside is one _divergences call over every row; a
    vertex row has one nonzero term and a random target no zero, so each
    is array_divergence's to the bit.  The divergence along nu(t) = (1-t) p
    + t target is 0 at t=0 and convex, so one bisection of t on [0, 1]
    finds the crossing; it runs for every outside target at once.  Each
    step is the scalar loop's: the midpoint 0.5*(lo + hi), the inside end
    moving when the divergence is <= radius, and the stop at width 1e-13.
    Halvings of [0, 1] are exact, so every segment stops after the same 44
    steps (2^-44 < 1e-13 < 2^-43).  A row's divergence sums the same terms
    in the same order as array_divergence: the symbols p supports, plus an
    infinite term where a target puts mass that p does not.  The rows come
    back _stored.
    """
    outside = _divergences(targets, p) > radius
    far = targets[outside]
    support = p > 0.0
    q, toward = p[support], far[:, support]
    leak = np.where(far[:, ~support].any(axis=1), math.inf, 0.0)
    lo, hi = np.zeros(len(far)), np.ones(len(far))
    for _ in range(44):
        mid = 0.5 * (lo + hi)
        blend = (1.0 - mid)[:, None] * q + mid[:, None] * toward
        inside = np.sum(blend * np.log(blend / q), axis=1) + leak <= radius
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    blend = (1.0 - lo)[:, None] * p + lo[:, None] * far
    points = targets.copy()
    points[outside] = blend / blend.sum(axis=1, keepdims=True)
    return _stored(points)


def _check_count(value, name: str) -> int:
    """value as a Python int >= 0, through operator.index; DomainError otherwise."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value


# eq=False: an ndarray field has no single truth value, so samples compare by identity
@dataclass(frozen=True, eq=False)
class BallSample:
    """A certified sample of a divergence ball, as ball_sample returns it.

    points holds one sampled distribution per row, each within
    ball.radius + CERT_TOL of ball.center; len() is their count.  worst
    maps every code ball_sample enumerated (an assigned CodeLengths) to
    its _analytic_worst at the ball, found for all of them by one
    tilted_roots call, so the sampled oracles do not root it again.
    """

    ball: DivergenceBall
    points: np.ndarray
    worst: dict[CodeLengths, Distribution]

    def __len__(self) -> int:
        return len(self.points)


def ball_sample(
    ball: DivergenceBall,
    n_interior: int = 20000,
    seed: int = 0,
    arity: int = 2,
    l_max: int | None = None,
) -> BallSample:
    """Deterministic certified sample of the divergence ball.

    Combines (a) Dirichlet draws kept when they land inside; (b) segments
    from the center toward each vertex and toward N_BOUNDARY random points
    of the simplex, drawn by one rng.dirichlet call, each giving its end
    when that is inside and its boundary crossing otherwise, all ends
    tested at once and all crossings found by one batched bisection
    (_shell_crossings) with the scalar loop's midpoint, tie rule and stop,
    so every segment takes 44 steps; (c) on each two-symbol edge
    of the simplex whose centre (the center conditioned on those two
    symbols) is inside, the boundary crossing from that centre toward each
    of its two vertices that lies outside the ball, where the suprema of
    saturated codes concentrate; and (d) the tilted worst-case point of
    every small enumerable code, at the tilt whose divergence equals the
    radius when it exists and at the family limit (nu_infinity) otherwise,
    as _analytic_worst gives it; every code is rooted by one
    tilted.tilted_roots call, whose roots are tilted_root's to the bit.
    The center
    comes first, then the vertex crossings, the edge crossings, the random
    crossings, the draws and the analytic points, one row each of a matrix
    in which (a)-(c) are _stored.  One vectorized divergence (_divergences,
    array_divergence's terms in its order) certifies every row and keeps
    those within radius + CERT_TOL.  An n_interior or seed that is not an
    integer, or is negative, raises DomainError.
    """
    arity = _check_arity(arity)
    n_interior = _check_count(n_interior, "n_interior")
    seed = _check_count(seed, "seed")
    mu = ball.center
    radius = ball.radius
    p = mu.as_array()
    if radius == 0.0:
        return BallSample(ball, p[None, :], {})
    m = mu.m

    edges = []
    for j in range(m):
        for k in range(m):
            if j == k or p[j] == 0.0 or p[k] == 0.0:
                continue
            center = p[j] / (p[j] + p[k])
            if pair_divergence(center, p[j], p[k]) > radius:
                continue
            if -math.log(p[j]) > radius:
                lo, hi = center, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if pair_divergence(mid, p[j], p[k]) < radius:
                        lo = mid
                    else:
                        hi = mid
                edge = np.zeros(m)
                edge[j] = 0.5 * (lo + hi)
                edge[k] = 1.0 - edge[j]
                edges.append(edge)

    rng = np.random.default_rng(seed)
    targets = np.vstack([np.eye(m), rng.dirichlet(np.ones(m), size=N_BOUNDARY)])
    crossings = _shell_crossings(p, targets, radius)
    draws = rng.dirichlet(np.ones(m), size=n_interior)
    inside = draws[_divergences(draws, p) <= radius]

    if l_max is None:
        l_max = default_l_max(m, arity)
    assign = _assignment(p)
    codes = [CodeLengths(assign(sorted_lengths), arity=arity)
             for sorted_lengths in _enumerated(m, arity, l_max)]
    worst = {lengths: _worst_point(mu, lengths, root)
             for lengths, root in zip(codes, tilted_roots(mu, codes, radius))}

    points = np.vstack([p, crossings[:m], _stored(np.array(edges).reshape(-1, m)), crossings[m:],
                        _stored(inside), *(nu.probs for nu in worst.values())])
    return BallSample(ball, points[_divergences(points, p) <= radius + CERT_TOL], worst)


def _ball_scorer(utility: str, sample: BallSample, arity: int):
    """A code's largest value over the sample's points and its analytic worst case.

    The twin of _weight_scorer for "avg-red" and "gg": the returned
    function takes a CodeLengths.  Row i of points @ (l + shift) + offset
    is a code's value at point i: shift is log_D mu for gg and offset the
    negative entropy of each point for avg-red.  gg is scored on mu's
    support: a point inside the ball has no mass off it, so shift is 0
    there rather than log 0, whose product with that zero mass is NaN.
    The analytic point (the code's tilted point at the radius, else its
    limit) is scored by tilted.objective_utility; it is rooted here only
    when the sample did not root this code.  At radius 0 the ball is its
    centre and the points alone decide.  A sample that is not a BallSample
    raises DomainError, and a length vector over another number of symbols
    than the ball DimensionMismatchError.
    """
    if utility not in ("avg-red", "gg"):
        raise DomainError(f"unknown ball utility {utility!r}")
    log_d = math.log(_check_arity(arity))
    if not isinstance(sample, BallSample):
        raise DomainError(f"a sample must be ball_sample's BallSample, not {type(sample).__name__}")
    mu, radius, points = sample.ball.center, sample.ball.radius, sample.points
    if utility == "gg":
        p = mu.as_array()
        with np.errstate(divide="ignore"):
            shift = np.where(p > 0.0, np.log(p), 0.0) / log_d
        offset = 0.0
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = points * np.log(points)
        plogp[points == 0.0] = 0.0
        shift, offset = 0.0, plogp.sum(axis=1) / log_d

    def sup(lengths: CodeLengths) -> float:
        if lengths.m != mu.m:
            raise DimensionMismatchError(f"{lengths.m} lengths for a ball over {mu.m} symbols")
        value = float(np.max(points @ (lengths.as_array() + shift) + offset))
        if radius == 0.0:
            return value
        worst = sample.worst.get(lengths) or _analytic_worst(mu, lengths, radius)
        return max(value, objective_utility(utility, lengths, worst, mu))

    return sup


def brute_sup_over_ball(lengths: CodeLengths, utility: str, sample: BallSample) -> float:
    """Maximum of "avg-red" or "gg" over the sample's ball; a lower bound on the sup.

    The sample's points are scored, and the analytic tilted point of this
    code (or its limit, exact for the linear GG objective) too, so the
    bound is tight wherever the tilted model applies.  A sample that is not
    a BallSample raises DomainError, and lengths over another number of
    symbols than the ball DimensionMismatchError.
    """
    return _ball_scorer(utility, sample, lengths.arity)(lengths)


def weight_cost(utility: str, weights, lengths: CodeLengths, beta: float | None = None) -> float:
    """A code's cost under a weight objective: what brute_min_over_codes minimizes.

    "linear_cost" is sum w_k l_k, "exp_cost" the natural log of
    sum w_k D^(beta l_k), and "pointwise" max_k (l_k + log_D w_k) over the
    w_k > 0.  The inputs are checked as brute_min_over_codes checks them,
    and a length vector of another size raises DimensionMismatchError.
    """
    score = _weight_scorer(utility, weights, lengths.arity, beta)
    if len(weights) != lengths.m:
        raise DimensionMismatchError(f"{len(weights)} weights for {lengths.m} lengths")
    return score(lengths.lengths)


def _weight_scorer(utility: str, weights, arity: int, beta: float | None):
    """weight_cost as a function of the lengths alone, the weights' logs taken once."""
    if utility not in ("linear_cost", "exp_cost", "pointwise"):
        raise DomainError(f"unknown utility {utility!r}")
    if weights is None:
        raise DomainError(f"{utility} needs weights")
    w, arity = _check_weights(weights, arity)
    if utility == "exp_cost":
        if beta is None:
            raise DomainError("exp_cost needs beta")
        _check_beta(beta)
    if utility == "pointwise" and not np.any(w > 0.0):
        raise AllZeroWeightsError("all weights are zero")
    log_d = math.log(arity)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    if utility == "linear_cost":
        return lambda lengths: float(np.dot(w, np.array(lengths, dtype=float)))
    if utility == "exp_cost":
        return lambda lengths: log_sum_exp(log_w + beta * log_d * np.array(lengths, dtype=float))
    log_w_d = log_w / log_d
    return lambda lengths: float(np.max(np.array(lengths, dtype=float) + log_w_d))


def _min_over_codes(weights, arity: int, l_max: int | None, score) -> OracleReport:
    """The least score over every enumerated code, and every code within 1e-12 of it.

    Each code's sorted lengths go to the symbols in decreasing weight order
    (sorted_assignment, the weights' order taken once) before score sees
    them.  An l_max that admits no code for m symbols (arity^l_max < m)
    raises DomainError.
    """
    arity = _check_arity(arity)
    m = len(weights)
    if l_max is None:
        l_max = default_l_max(m, arity)
    assign = _assignment(weights)
    scored = [(score(assign(vector)), vector) for vector in _enumerated(m, arity, l_max)]
    if not scored:
        raise DomainError(f"no code for m={m} symbols at arity {arity} "
                          f"has every length <= l_max={l_max}")
    best = min(value for value, _ in scored)
    return OracleReport(
        optimum_value=best,
        optimal_length_vectors=tuple(vector for value, vector in scored if value <= best + 1e-12),
        evaluations=len(scored),
    )


def brute_min_over_codes(
    utility: str,
    *,
    weights=None,
    ball: DivergenceBall | None = None,
    arity: int = 2,
    l_max: int | None = None,
    beta: float | None = None,
    samples: BallSample | None = None,
) -> OracleReport:
    """Exact minimum over all enumerated codes of the requested objective.

    utility is "linear_cost", "exp_cost" (needs a finite beta > 0) or
    "pointwise" (not all weights zero), each taking finite nonnegative
    weights and scored by weight_cost; or "avg-red" / "gg", taking a ball,
    whose inner supremum is the sampled-plus-analytic bound of
    brute_sup_over_ball over samples, ball_sample(ball) when none are
    given; samples of another ball raise DomainError.  Exponential costs
    are compared in log-domain.
    """
    if utility not in ("avg-red", "gg"):
        return _min_over_codes(weights, arity, l_max, _weight_scorer(utility, weights, arity, beta))
    if ball is None:
        raise DomainError(f"{utility} needs a ball")
    if samples is None:
        samples = ball_sample(ball, arity=arity, l_max=l_max)
    sup = _ball_scorer(utility, samples, arity)
    if samples.ball != ball:
        raise DomainError("the samples are of another ball than the one given")
    return _min_over_codes(ball.center.probs, arity, l_max,
                           lambda assigned: sup(CodeLengths(assigned, arity=arity)))


def exact_min_over_codes(
    utility: str,
    ball: DivergenceBall,
    arity: int = 2,
    l_max: int | None = None,
) -> OracleReport:
    """Exact nested minimax: the least exact supremum over every enumerated code.

    utility is "avg-red" or "gg".  Unlike brute_min_over_codes, each code's
    inner supremum is exact rather than sampled: it is the solver's own
    per-code scorer, solver._candidate_sup, at the root tolerance 1e-12.
    So this checks the solver's outer search over codes; the sampled oracle
    checks the suprema.
    """
    if utility not in ("avg-red", "gg"):
        raise DomainError(f"unknown ball utility {utility!r}")
    mu = ball.center
    return _min_over_codes(mu.probs, arity, l_max, lambda assigned: _candidate_sup(
        utility, mu, ball.radius, CodeLengths(assigned, arity=arity), 1e-12)[0])


def brute_binary_root(m: float, radius: float) -> float:
    """Larger solution of d(p || m) = radius by plain bisection on (m, 1).

    Interval width is driven to 1e-14; this is the reference the Newton
    solver is compared against.
    """
    if not (0.0 < m < 1.0):
        raise DomainError(f"m must be in (0, 1), got {m}")
    if not (radius > 0.0):
        raise DomainError(f"radius must be positive, got {radius}")
    if m >= math.exp(-radius):
        raise DomainError(f"m={m} saturates at radius {radius}")
    lo, hi = m, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if binary_divergence(mid, m) < radius:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
