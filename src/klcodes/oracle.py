"""Brute-force ground truth for small instances.

Everything here is deliberately literal: enumerate every Kraft-feasible
integer length vector up to a cap, sample the divergence ball, and take
plain minima and maxima.  These routines are the reference the fast
algorithms are tested against, so they avoid sharing shortcuts with them;
the one sanctioned exception is the analytic tilted worst case, which the
ball-dependent objectives include alongside the samples because a sampled
supremum alone is only a lower bound.

For the same reason the bisection loops here (the ball crossings of
ball_sample and brute_binary_root) stay written out rather than calling the
root finders of tilted and nml.  They share only the divergence formulas of
core.  Their tie rules also differ on purpose: a segment crossing moves its
inside end when the divergence equals the radius, the edge crossings move
the outside end.  A shared loop would have to pick one rule, which moves
sampled points and with them every oracle figure built on the samples.

Enumeration yields non-decreasing vectors only.  Assigning the sorted
lengths to weight-sorted symbols (shortest to heaviest) is optimal for
every objective in this package: swapping a shorter length onto a larger
weight never increases any of them, and for the ball objectives the
swapped adversary needed by the exchange argument stays inside the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CodeLengths,
    Distribution,
    DivergenceBall,
    array_divergence,
    binary_divergence,
    kl_divergence,
    pair_divergence,
)
from .errors import DomainError, LimitExceededError
from .tilted import avg_redundancy, gg_utility, nu_infinity, tilted_root

ENUM_MAX_M = 10
ENUM_MAX_LEN = 10
CERT_TOL = 1e-10


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive-search outcome: the optimum and everything that attains it."""

    optimum_value: float
    optimal_length_vectors: tuple[tuple[int, ...], ...]
    evaluations: int
    parameters: dict


def default_l_max(m: int, arity: int) -> int:
    """Length cap that never truncates an optimal code at desk scale."""
    if arity == 2:
        return m
    return math.ceil(math.log(m) / math.log(arity)) + 2


def enumerate_kraft_lengths(m: int, arity: int, l_max: int):
    """Yield all non-decreasing Kraft-feasible integer vectors, lexicographically.

    Kraft feasibility is checked exactly: a vector consumes
    sum arity^(l_max - l_i) out of a budget of arity^l_max.
    """
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


_ENUM_CACHE: dict[tuple[int, int, int], tuple[tuple[int, ...], ...]] = {}


def _enumerated(m: int, arity: int, l_max: int) -> tuple[tuple[int, ...], ...]:
    key = (m, arity, l_max)
    if key not in _ENUM_CACHE:
        _ENUM_CACHE[key] = tuple(enumerate_kraft_lengths(m, arity, l_max))
    return _ENUM_CACHE[key]


def sorted_assignment(weights, sorted_lengths) -> tuple[int, ...]:
    """Assign non-decreasing lengths to symbols in decreasing weight order."""
    weights = np.asarray(list(weights), dtype=float)
    order = np.argsort(-weights, kind="stable")
    assigned = [0] * len(sorted_lengths)
    for slot, length in zip(order, sorted_lengths):
        assigned[slot] = length
    return tuple(assigned)


def _analytic_worst(mu: Distribution, lengths: CodeLengths, radius: float) -> Distribution:
    """The code's tilted point at this radius, else its limit as the tilt grows."""
    point = tilted_root(mu, lengths, radius)
    return point.distribution if point is not None else nu_infinity(mu, lengths).distribution


def ball_sample(
    ball: DivergenceBall,
    n_interior: int = 20000,
    n_boundary: int = 64,
    seed: int = 0,
    arity: int = 2,
    l_max: int | None = None,
) -> list[Distribution]:
    """Deterministic certified sample of the divergence ball.

    Combines (a) Dirichlet draws kept when they land inside, (b) segments
    from the center toward each vertex and each two-symbol midpoint, the
    endpoint itself when it is inside or the boundary crossing otherwise,
    plus n_boundary extra random directions treated the same way, and
    (c) the tilted worst-case curve of every small enumerable code, at the
    tilt whose divergence equals the radius when it exists and at the family
    limit otherwise.  The deterministic targets also include the boundary
    crossings of every two-symbol edge of the simplex, where the suprema of
    saturated codes concentrate.  Every returned point carries a recomputed
    divergence certificate.
    """
    mu = ball.center
    radius = ball.radius
    if radius == 0.0:
        return [mu]
    p = mu.as_array()
    m = mu.m
    out: list[Distribution] = [mu]

    def segment_divergence(target: np.ndarray, t: float) -> float:
        return array_divergence((1.0 - t) * p + t * target, p)

    def crossing(target: np.ndarray) -> Distribution | None:
        # divergence along nu(t) = (1-t) mu + t target is 0 at t=0, convex
        end = segment_divergence(target, 1.0)
        if end <= radius:
            return Distribution(tuple(target))
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if segment_divergence(target, mid) <= radius:
                lo = mid
            else:
                hi = mid
        blend = (1.0 - lo) * p + lo * target
        return Distribution(tuple(blend / blend.sum()))

    for k in range(m):
        vertex = np.zeros(m)
        vertex[k] = 1.0
        point = crossing(vertex)
        if point is not None:
            out.append(point)

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
                out.append(Distribution(tuple(edge)))

    rng = np.random.default_rng(seed)
    for _ in range(max(0, n_boundary)):
        target = rng.dirichlet(np.ones(m))
        point = crossing(target)
        if point is not None:
            out.append(point)

    if n_interior > 0:
        draws = rng.dirichlet(np.ones(m), size=n_interior)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(draws > 0.0, draws * np.log(draws / p), 0.0)
        divergences = terms.sum(axis=1)
        for row in draws[divergences <= radius]:
            out.append(Distribution(tuple(row)))

    if l_max is None:
        l_max = default_l_max(m, arity)
    codes = _enumerated(m, arity, l_max)
    # one root-find per code: stride over large enumerations (still a valid
    # lower-bound sample, just a sparser curve coverage)
    stride = max(1, len(codes) // 200)
    for sorted_lengths in codes[::stride]:
        lengths = CodeLengths(sorted_assignment(p, sorted_lengths), arity=arity)
        out.append(_analytic_worst(mu, lengths, radius))

    certified = [nu for nu in out if kl_divergence(nu, mu) <= radius + CERT_TOL]
    return certified


class _SampleTable:
    """Sample list flattened to matrices so per-code suprema vectorize."""

    def __init__(self, samples: list[Distribution], arity: int):
        self.matrix = np.array([nu.probs for nu in samples], dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = self.matrix * np.log(self.matrix)
        plogp[self.matrix == 0.0] = 0.0
        self.neg_entropy = plogp.sum(axis=1) / math.log(arity)

    def sup_avg_red(self, lengths: np.ndarray) -> float:
        return float(np.max(self.matrix @ lengths + self.neg_entropy))

    def sup_gg(self, lengths: np.ndarray, log_mu_d: np.ndarray) -> float:
        return float(np.max(self.matrix @ (lengths + log_mu_d)))


def brute_sup_over_ball(
    lengths: CodeLengths,
    ball: DivergenceBall,
    utility: str,
    samples: list[Distribution],
) -> float:
    """Maximum of the utility over the given samples; a lower bound on the sup.

    For the ball objectives the analytic tilted point of this code (or its
    limit, exact for the linear GG objective) is added so the bound is tight
    wherever the tilted model applies.
    """
    mu = ball.center
    points = list(samples)
    if ball.radius > 0.0 and utility in ("avg_red", "gg"):
        points.append(_analytic_worst(mu, lengths, ball.radius))
    if utility == "avg_red":
        table = _SampleTable(points, lengths.arity)
        return table.sup_avg_red(lengths.as_array())
    if utility == "gg":
        table = _SampleTable(points, lengths.arity)
        log_mu_d = np.log(mu.as_array()) / math.log(lengths.arity)
        return table.sup_gg(lengths.as_array(), log_mu_d)
    if utility == "pointwise":
        log_d = math.log(lengths.arity)
        l = lengths.as_array()
        best = -math.inf
        for nu in points:
            q = nu.as_array()
            nz = q > 0.0
            best = max(best, float(np.max(l[nz] + np.log(q[nz]) / log_d)))
        return best
    raise DomainError(f"unknown ball utility {utility!r}")


def brute_min_over_codes(
    utility: str,
    *,
    weights=None,
    ball: DivergenceBall | None = None,
    m: int | None = None,
    arity: int = 2,
    l_max: int | None = None,
    beta: float | None = None,
    samples: list[Distribution] | None = None,
    n_interior: int = 20000,
    n_boundary: int = 64,
    seed: int = 0,
) -> OracleReport:
    """Exact minimum over all enumerated codes of the requested objective.

    utility is one of "linear_cost", "exp_cost" (needs beta), "pointwise"
    (all three take weights), or "avg_red" / "gg" (take a ball; the inner
    supremum is the sampled-plus-analytic bound of brute_sup_over_ball).
    Exponential costs are compared in log-domain.
    """
    if utility in ("linear_cost", "exp_cost", "pointwise"):
        if weights is None:
            raise DomainError(f"{utility} needs weights")
        w = np.asarray(list(weights), dtype=float)
        m = w.size
    else:
        if ball is None:
            raise DomainError(f"{utility} needs a ball")
        w = ball.center.as_array()
        m = ball.center.m
        if samples is None:
            samples = ball_sample(ball, n_interior=n_interior, n_boundary=n_boundary,
                                  seed=seed, arity=arity, l_max=l_max)
    if l_max is None:
        l_max = default_l_max(m, arity)
    if utility == "exp_cost" and beta is None:
        raise DomainError("exp_cost needs beta")

    log_d = math.log(arity)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    if utility in ("avg_red", "gg"):
        table = _SampleTable(samples, arity)
        log_mu_d = log_w / log_d

    def evaluate(vector: tuple[int, ...]) -> float:
        assigned = sorted_assignment(w, vector)
        arr = np.asarray(assigned, dtype=float)
        if utility == "linear_cost":
            return float(np.dot(w, arr))
        if utility == "exp_cost":
            hi = np.max(log_w + beta * log_d * arr)
            return float(hi + np.log(np.sum(np.exp(log_w + beta * log_d * arr - hi))))
        if utility == "pointwise":
            finite = np.isfinite(log_w)
            return float(np.max(arr[finite] + log_w[finite] / log_d))
        lengths = CodeLengths(assigned, arity=arity)
        value = table.sup_avg_red(arr) if utility == "avg_red" else table.sup_gg(arr, log_mu_d)
        if ball.radius == 0.0:
            return value
        worst = _analytic_worst(ball.center, lengths, ball.radius)
        analytic = (avg_redundancy(lengths, worst) if utility == "avg_red"
                    else gg_utility(lengths, worst, ball.center))
        return max(value, analytic)

    scored = [(evaluate(vector), vector) for vector in _enumerated(m, arity, l_max)]
    count = len(scored)
    best = min(value for value, _ in scored)
    argmin = [vector for value, vector in scored if value <= best + 1e-12]
    return OracleReport(
        optimum_value=best,
        optimal_length_vectors=tuple(argmin),
        evaluations=count,
        parameters={
            "m": m, "arity": arity, "l_max": l_max, "utility": utility,
            "beta": beta, "seed": seed,
            "n_samples": len(samples) if samples is not None else 0,
        },
    )


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
