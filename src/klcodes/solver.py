"""Minimax average-redundancy solvers over a relative-entropy ball.

Two objectives share one engine.  For radius R strictly between zero and
the existence threshold, the worst case inside the ball is the tilted
point whose divergence equals R, and the matching code comes from
exponential Huffman coding of the tilted weights; the tilt parameter is
located by bracketing and bisection.  Because the inner problem is
discrete, the divergence-vs-beta curve can jump where the optimal length
multiset changes, so every probed candidate code is kept and the winner is
chosen by its directly verified supremum, not by the root alone.

Outside that range the solvers degrade explicitly: R = 0 reduces to plain
Huffman coding, and R at or beyond the threshold returns the minimax
pointwise limit code (regime "boundary", or an error in strict mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

from . import oracle
from .core import CodeLengths, Distribution, DivergenceBall, PrefixCode
from .errors import BoundaryRegimeError, NoConvergenceError, ZeroProbabilityError
from .huffman import canonical_codewords, exponential_huffman_log, huffman, max_huffman
from .tilted import (
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
BETA_CAP = 1e4
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
    sampled,
):
    """Supremum of the objective over the ball for one fixed code.

    Returns (value, worst distribution, beta or None, verified flag).  The
    tilted root gives the exact supremum when it exists.  Without a root the
    limit point is exact for the linear GG objective, and the convex average
    objective is maximized exactly by face enumeration at desk scale; only
    beyond that does the sampled lower bound (verified=False) remain.
    """
    point = tilted_root(mu, lengths, radius, tol=min(tol, 1e-12))
    if point is not None:
        value = _eval_utility(objective, lengths, point.distribution, mu)
        return value, point.distribution, point.beta, True
    limit = nu_infinity(mu, lengths)
    if objective == "gg":
        value = gg_utility(lengths, limit.distribution, mu)
        return value, limit.distribution, None, True
    if mu.m <= 12:
        value, worst = exact_avg_sup(mu, lengths, radius, tol=min(tol, 1e-12))
        return value, worst, None, True
    best_nu = limit.distribution
    best = avg_redundancy(lengths, best_nu)
    for nu in sampled():
        value = avg_redundancy(lengths, nu)
        if value > best:
            best = value
            best_nu = nu
    cap = float(max(lengths.lengths))
    return best, best_nu, None, best >= cap - 1e-12


def _solve(
    ball: DivergenceBall,
    arity: int,
    tol: float,
    objective: str,
    strict_boundary: bool,
    samples: int,
    seed: int,
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

    sample_cache: list = []

    def sampled():
        if not sample_cache:
            sample_cache.append(
                oracle.ball_sample(ball, n_interior=samples, n_boundary=64,
                                   seed=seed, arity=arity)
            )
        return sample_cache[0]

    # r_max <= -log min mu (the limit's argmax set holds at least one symbol),
    # so this also covers the GG shortcut radius
    if radius >= r_max:
        if strict_boundary:
            raise BoundaryRegimeError(
                f"radius {radius} is at or beyond the existence threshold {r_max}"
            )
        value, worst, _, _ = _candidate_sup(objective, mu, radius, limit_code, tol, sampled)
        return RobustCodeResult(
            lengths=limit_code,
            codewords=canonical_codewords(limit_code),
            beta=None,
            worst_case=worst,
            achieved_utility=value,
            regime="boundary",
        )

    # interior: bracket the tilt, bisect, and keep every candidate code seen
    probes: list[tuple[float, float, float]] = []
    candidates: dict[tuple[int, ...], CodeLengths] = {}

    def probe(beta: float) -> float:
        point, lengths = _tilt_probe(mu, arity, beta)
        key = tuple(int(l) for l in lengths.lengths)
        candidates.setdefault(key, lengths)
        utility = _eval_utility(objective, lengths, point.distribution, mu)
        probes.append((beta, point.divergence_from_center, utility))
        return point.divergence_from_center

    # structured candidates beyond the tilt path: Huffman codes of the
    # nominal hedged toward uniform.  t=0 is plain Huffman, t=1 the flattest
    # code; at large radii the minimax optimum sits on this family rather
    # than on the tilt path, whose codes only steepen with beta
    m = mu.m
    hedged = [huffman([(1.0 - t) * p + t / m for p in mu.probs], arity)
              for t in (i / 20.0 for i in range(21))]
    for endpoint in (*hedged, limit_code):
        key = tuple(int(l) for l in endpoint.lengths)
        candidates.setdefault(key, endpoint)

    iterations = 0
    g_lo = probe(BETA_LO)
    if g_lo >= radius:
        lo, hi = BETA_LO * 1e-6, BETA_LO
    else:
        lo = BETA_LO
        hi = 1.0
        g_hi = probe(hi)
        while g_hi < radius and hi <= BETA_CAP:
            lo = hi
            hi *= 2.0
            g_hi = probe(hi)
            iterations += 1
        if g_hi < radius:
            raise NoConvergenceError(
                f"no tilt bracket below beta={BETA_CAP} for radius {radius}"
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

    scored = []
    for position, lengths in enumerate(candidates.values()):
        value, worst, beta, verified = _candidate_sup(objective, mu, radius, lengths, tol, sampled)
        scored.append((not verified, value, beta if beta is not None else math.inf, position,
                       lengths, worst))
    scored.sort(key=lambda item: item[:4])
    _, value, beta, _, lengths, worst = scored[0]
    return RobustCodeResult(
        lengths=lengths,
        codewords=canonical_codewords(lengths),
        beta=None if beta == math.inf else beta,
        worst_case=worst,
        achieved_utility=value,
        regime="interior",
        trace=trace,
    )


def solve_avg_redundancy(
    ball: DivergenceBall,
    arity: int = 2,
    tol: float = 1e-9,
    strict_boundary: bool = False,
    samples: int = 2000,
    seed: int = 0,
) -> RobustCodeResult:
    """Best prefix code for the worst average redundancy inside the ball."""
    return _solve(ball, arity, tol, "avg", strict_boundary, samples, seed)


def solve_gg(
    ball: DivergenceBall,
    arity: int = 2,
    tol: float = 1e-9,
    strict_boundary: bool = False,
    samples: int = 2000,
    seed: int = 0,
) -> RobustCodeResult:
    """Best prefix code for the worst nominal-referenced redundancy in the ball.

    For radius at or beyond -log min_i mu_i the minimax pointwise code is
    optimal outright and is returned with regime "boundary".
    """
    return _solve(ball, arity, tol, "gg", strict_boundary, samples, seed)
