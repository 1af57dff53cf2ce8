"""Minimax average-redundancy solvers over a relative-entropy ball.

Two objectives share one engine.  For radius R strictly between zero and
the existence threshold, the worst case inside the ball is the tilted
point whose divergence equals R, and the matching code comes from
exponential Huffman coding of the tilted weights; the tilt parameter is
located by bracketing and bisection.  Because the inner problem is
discrete, the divergence-vs-beta curve can jump where the optimal length
multiset changes, so every probed candidate code is kept and the winner is
chosen by its exact supremum over the ball, not by the root alone.

Outside that range the solvers degrade explicitly: R = 0 reduces to plain
Huffman coding, and R at or beyond the threshold returns the minimax
pointwise limit code (regime "boundary", or an error in strict mode), for
gg below -log min mu only when no hedged code does better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

from .core import CodeLengths, Distribution, DivergenceBall, PrefixCode
from .errors import BoundaryRegimeError, NoConvergenceError, ZeroProbabilityError
from .huffman import canonical_codewords, exponential_huffman_log, huffman, max_huffman
from .tilted import (
    MAX_DOUBLINGS,
    LimitPoint,
    TiltedPoint,
    avg_redundancy,
    exact_avg_sup,
    gg_utility,
    nu_circ,
    nu_infinity,
    tilted_root,
)

Regime = Literal["interior", "boundary", "zero_radius", "reduced"]

BETA_LO = 1e-6
MAX_BISECT = 200


@dataclass(frozen=True)
class BetaSolveTrace:
    """Diagnostics from the tilt root search: every probe and the bracket."""

    probes: tuple[tuple[float, float, float], ...]  # (beta, divergence, utility)
    bracket: Optional[tuple[float, float]]
    iterations: int


@dataclass(frozen=True)
class RobustCodeResult:
    """A solved instance: the code, the adversary, and the value achieved."""

    lengths: CodeLengths
    codewords: PrefixCode
    beta: Optional[float]
    worst_case: Distribution
    achieved_utility: float
    regime: Regime
    trace: Optional[BetaSolveTrace] = None


def existence_threshold(mu: Distribution, arity: int = 2) -> tuple[float, LimitPoint, CodeLengths]:
    """Radius beyond which no tilt parameter reaches the ball boundary.

    The limit code is a minimax pointwise optimum; the threshold is the
    divergence of its restricted-support limit distribution from mu.
    """
    if any(p == 0.0 for p in mu.probs):
        raise ZeroProbabilityError("existence threshold needs strictly positive probabilities")
    limit_code = max_huffman(mu.probs, arity)
    limit = nu_infinity(mu, limit_code)
    return limit.divergence_from_center, limit, limit_code


def g_of_beta(mu: Distribution, arity: int, beta: float) -> tuple[float, CodeLengths]:
    """Divergence of the tilted worst case induced by the optimal code at this tilt."""
    point, lengths = _tilt_probe(mu, arity, beta)
    return point.divergence_from_center, lengths


def _tilt_probe(mu: Distribution, arity: int, beta: float) -> tuple[TiltedPoint, CodeLengths]:
    """The optimal code at this tilt and the tilted worst case it induces.

    The tilted weights xi_k ~ mu_k^(beta+1) are handed to the coder in
    log-domain and unnormalized (the coder is scale invariant); a linear
    round trip would underflow them at large beta.
    """
    log_xi = [(beta + 1.0) * math.log(p) for p in mu.probs]
    lengths = exponential_huffman_log(log_xi, beta, arity)
    return nu_circ(mu, lengths, beta), lengths


def _eval_utility(objective: str, lengths: CodeLengths, nu: Distribution, mu: Distribution) -> float:
    if objective == "avg":
        return avg_redundancy(lengths, nu)
    return gg_utility(lengths, nu, mu)


def _candidate_sup(
    objective: str,
    mu: Distribution,
    radius: float,
    lengths: CodeLengths,
    tol: float,
):
    """Exact supremum of the objective over the ball for one fixed code.

    Returns (value, worst distribution, beta or None).  The tilted root gives
    the supremum when it exists.  Without a root the limit point is exact for
    the linear GG objective, and the convex average objective is maximized by
    face enumeration, which raises LimitExceededError beyond its symbol limit.
    """
    point = tilted_root(mu, lengths, radius, tol=min(tol, 1e-12))
    if point is not None:
        value = _eval_utility(objective, lengths, point.distribution, mu)
        return value, point.distribution, point.beta
    if objective == "gg":
        limit = nu_infinity(mu, lengths).distribution
        return gg_utility(lengths, limit, mu), limit, None
    value, worst = exact_avg_sup(mu, lengths, radius, tol=min(tol, 1e-12))
    return value, worst, None


def _hedged_codes(mu: Distribution, arity: int) -> list[CodeLengths]:
    """Huffman codes of the nominal hedged toward uniform.

    t=0 is plain Huffman, t=1 the flattest code; at large radii the minimax
    optimum sits on this family rather than on the tilt path, whose codes
    only steepen with beta.
    """
    return [huffman([(1.0 - t) * p + t / mu.m for p in mu.probs], arity)
            for t in (i / 20.0 for i in range(21))]


def _best_candidate(
    objective: str,
    mu: Distribution,
    radius: float,
    candidates,
    tol: float,
    regime: Regime,
    trace: Optional[BetaSolveTrace],
) -> RobustCodeResult:
    """The candidate with the least exact supremum; ties go to the smaller
    tilt, then to the earlier candidate."""
    scored = []
    for position, lengths in enumerate(candidates):
        value, worst, beta = _candidate_sup(objective, mu, radius, lengths, tol)
        scored.append((value, beta if beta is not None else math.inf, position, lengths, worst))
    value, beta, _, lengths, worst = min(scored, key=lambda item: item[:3])
    return RobustCodeResult(
        lengths=lengths,
        codewords=canonical_codewords(lengths),
        beta=None if beta == math.inf else beta,
        worst_case=worst,
        achieved_utility=value,
        regime=regime,
        trace=trace,
    )


def _solve(
    ball: DivergenceBall,
    arity: int,
    tol: float,
    objective: str,
    strict_boundary: bool,
) -> RobustCodeResult:
    mu = ball.center
    radius = ball.radius
    if any(p == 0.0 for p in mu.probs):
        raise ZeroProbabilityError("nominal distribution must be strictly positive")

    if radius == 0.0:
        lengths = huffman(mu.probs, arity)
        return RobustCodeResult(
            lengths=lengths,
            codewords=canonical_codewords(lengths),
            beta=None,
            worst_case=mu,
            achieved_utility=_eval_utility(objective, lengths, mu, mu),
            regime="zero_radius",
        )

    r_max, _, limit_code = existence_threshold(mu, arity)

    # r_max <= -log min mu (the limit's argmax set holds at least one symbol),
    # so this also covers the GG shortcut radius
    if radius >= r_max:
        if strict_boundary:
            raise BoundaryRegimeError(
                f"radius {radius} is at or beyond the existence threshold {r_max}"
            )
        # below the shortcut radius other gg codes can still have tilt roots
        # and beat the limit code, which comes first so that a code tying it
        # at its own limit point does not replace it; an avg-red candidate
        # without a root costs a face enumeration, so avg-red scores the
        # limit code alone
        boundary = [limit_code]
        if objective == "gg" and radius < -math.log(min(mu.probs)):
            boundary = dict.fromkeys((limit_code, *_hedged_codes(mu, arity)))
        return _best_candidate(objective, mu, radius, boundary, tol, "boundary", None)

    # interior: bracket the tilt, bisect, and keep every candidate code seen
    # (an ordered set), after the hedged codes and the limit code
    probes: list[tuple[float, float, float]] = []
    candidates = dict.fromkeys((*_hedged_codes(mu, arity), limit_code))

    def probe(beta: float) -> float:
        point, lengths = _tilt_probe(mu, arity, beta)
        candidates.setdefault(lengths)
        utility = _eval_utility(objective, lengths, point.distribution, mu)
        probes.append((beta, point.divergence_from_center, utility))
        return point.divergence_from_center

    iterations = 0
    g_lo = probe(BETA_LO)
    if g_lo >= radius:
        lo, hi = BETA_LO * 1e-6, BETA_LO
    else:
        lo = BETA_LO
        hi = 1.0
        g_hi = probe(hi)
        # every probe so far is a doubling, so iterations counts them
        while g_hi < radius and iterations < MAX_DOUBLINGS:
            lo = hi
            hi *= 2.0
            g_hi = probe(hi)
            iterations += 1
        if g_hi < radius:
            raise NoConvergenceError(
                f"no tilt bracket within {MAX_DOUBLINGS} doublings (beta={hi}) "
                f"for radius {radius}"
            )
    bracket = (lo, hi)
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        g_mid = probe(mid)
        iterations += 1
        if abs(g_mid - radius) <= tol or hi - lo <= 1e-12:
            break
        if g_mid < radius:
            lo = mid
        else:
            hi = mid

    trace = BetaSolveTrace(probes=tuple(probes), bracket=bracket, iterations=iterations)
    return _best_candidate(objective, mu, radius, candidates, tol, "interior", trace)


def solve_avg_redundancy(
    ball: DivergenceBall,
    arity: int = 2,
    tol: float = 1e-9,
    strict_boundary: bool = False,
) -> RobustCodeResult:
    """Best prefix code for the worst average redundancy inside the ball."""
    return _solve(ball, arity, tol, "avg", strict_boundary)


def solve_gg(
    ball: DivergenceBall,
    arity: int = 2,
    tol: float = 1e-9,
    strict_boundary: bool = False,
) -> RobustCodeResult:
    """Best prefix code for the worst nominal-referenced redundancy in the ball.

    For radius at or beyond -log min_i mu_i the minimax pointwise code is
    optimal outright and is returned with regime "boundary".
    """
    return _solve(ball, arity, tol, "gg", strict_boundary)
