"""Tilted distributions and the redundancy identities they support.

For a nominal distribution mu and a code with implied probabilities
theta_i = D^(-l_i), the one-parameter family

    nu(beta)_i  proportional to  (mu_i / theta_i)^beta * mu_i,   beta > 0,

sweeps from mu (beta -> 0) to a limit point supported on the symbols that
maximize mu_i / theta_i (beta -> infinity).  Its divergence from mu is
nondecreasing in beta, which is what makes it usable as the worst case
inside a relative-entropy ball: the beta whose divergence equals the radius
pins the adversary exactly.

All exponentials are evaluated in log-domain with max subtraction, since
beta can be large (limit checks use beta = 1e3 and more).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CodeLengths,
    Distribution,
    array_divergence,
    kl_divergence,
    log_sum_exp,
    pair_divergence,
)
from .errors import DimensionMismatchError, DomainError, LimitExceededError

ARGMAX_LOG_TOL = 1e-12
# a tilt root bracket gives up after this many doublings of beta from 1
MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class TiltedPoint:
    """One member of the tilted family, with its divergence from the center."""

    beta: float
    distribution: Distribution
    divergence_from_center: float


@dataclass(frozen=True)
class LimitPoint:
    """The beta -> infinity endpoint: mu restricted to the maximal-ratio set."""

    distribution: Distribution
    divergence_from_center: float
    argmax_set: frozenset[int]


def _log_ratios(mu: Distribution, lengths: CodeLengths) -> np.ndarray:
    """log(mu_i / theta_i) = log mu_i + l_i log D, with -inf at mu_i = 0."""
    if mu.m != lengths.m:
        raise DimensionMismatchError(f"dimension mismatch {mu.m} vs {lengths.m}")
    p = mu.as_array()
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    return logp + lengths.as_array() * math.log(lengths.arity)


def nu_circ(mu: Distribution, lengths: CodeLengths, beta: float) -> TiltedPoint:
    """Tilted distribution nu(beta)_i ∝ (mu_i/theta_i)^beta * mu_i."""
    if not (beta > 0.0):
        raise DomainError(f"beta must be positive, got {beta}")
    divergence, raw = _tilt(mu.as_array(), _log_ratios(mu, lengths), beta)
    return TiltedPoint(beta=float(beta), distribution=Distribution(tuple(raw.tolist())),
                       divergence_from_center=divergence)


def _tilt(p: np.ndarray, log_r: np.ndarray, beta: float) -> tuple[float, np.ndarray]:
    """Divergence from p of the tilt at beta, and the raw point Distribution takes.

    The divergence is that of the point as Distribution would store it,
    renormalised by its fsum unless that is exactly 1.  nu lives on p's
    support by construction, so kl_divergence's checks are moot.
    """
    raw = _face_point(p, log_r, p > 0.0, beta)
    total = math.fsum(raw.tolist())
    nu = raw if total == 1.0 else raw / total
    return array_divergence(nu, p), raw


def xi(mu: Distribution, beta: float) -> Distribution:
    """Tilted weight distribution xi_k ∝ mu_k^(beta+1)."""
    if not (beta > 0.0):
        raise DomainError(f"beta must be positive, got {beta}")
    p = mu.as_array()
    with np.errstate(divide="ignore"):
        logw = (beta + 1.0) * np.log(p)
    norm = log_sum_exp(logw)
    with np.errstate(invalid="ignore"):
        w = np.exp(logw - norm)
    w[~np.isfinite(w)] = 0.0
    return Distribution(tuple(w / w.sum()))


def avg_redundancy(lengths: CodeLengths, nu: Distribution) -> float:
    """Expected length minus entropy, in base-D symbols."""
    if nu.m != lengths.m:
        raise DimensionMismatchError(f"dimension mismatch {nu.m} vs {lengths.m}")
    p = nu.as_array()
    l = lengths.as_array()
    nz = p > 0.0
    log_d = math.log(lengths.arity)
    return float(np.dot(p, l) + np.sum(p[nz] * np.log(p[nz])) / log_d)


def gg_utility(lengths: CodeLengths, nu: Distribution, mu: Distribution) -> float:
    """Redundancy measured against the nominal code: sum_k nu_k (l_k + log_D mu_k).

    Subtracts from the expected length both the entropy of nu and its base-D
    divergence from mu, i.e. the best average length achievable by a coder
    that knows only mu.
    """
    if nu.m != lengths.m or mu.m != lengths.m:
        raise DimensionMismatchError("dimension mismatch")
    kl_divergence(nu, mu)  # absolute-continuity check
    p = nu.as_array()
    q = mu.as_array()
    l = lengths.as_array()
    nz = p > 0.0
    log_d = math.log(lengths.arity)
    return float(np.sum(p[nz] * (l[nz] + np.log(q[nz]) / log_d)))


def decomposition_terms(
    lengths: CodeLengths,
    nu: Distribution,
    mu: Distribution,
    beta: float,
) -> tuple[float, float, float]:
    """Three-term split of the redundancy around the tilted family, in nats.

    Returns ((beta+1)/beta * D(nu||mu), -(1/beta) * D(nu||nu(beta)),
    (1/beta) * log sum_k (mu_k/theta_k)^beta mu_k); the sum divided by log D
    reproduces avg_redundancy(lengths, nu).
    """
    if not (beta > 0.0):
        raise DomainError(f"beta must be positive, got {beta}")
    point = nu_circ(mu, lengths, beta)
    p = mu.as_array()
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = beta * _log_ratios(mu, lengths) + np.log(p)
    logw[p == 0.0] = -np.inf
    term1 = (beta + 1.0) / beta * kl_divergence(nu, mu)
    term2 = -kl_divergence(nu, point.distribution) / beta
    term3 = log_sum_exp(logw) / beta
    return term1, term2, term3


def nu_infinity(mu: Distribution, lengths: CodeLengths) -> LimitPoint:
    """Limit of the tilted family: mu restricted to argmax(mu_i/theta_i).

    Log-ratio ties within ARGMAX_LOG_TOL all join the argmax set, so exact
    ties split by float noise are not dropped.
    """
    log_r = _log_ratios(mu, lengths)
    p = mu.as_array()
    log_r = np.where(p == 0.0, -np.inf, log_r)
    top = np.max(log_r)
    members = np.nonzero(log_r >= top - ARGMAX_LOG_TOL)[0]
    mass = float(np.sum(p[members]))
    nu = np.zeros_like(p)
    nu[members] = p[members] / mass
    return LimitPoint(
        distribution=Distribution(tuple(nu)),
        # -log(1.0) is -0.0: a limit that keeps all the mass reports 0.0
        divergence_from_center=max(0.0, -math.log(mass)),
        argmax_set=frozenset(int(i) for i in members),
    )


def _face_point(p: np.ndarray, log_r: np.ndarray, mask: np.ndarray, beta: float) -> np.ndarray:
    """Member of the tilted family restricted to one face of the simplex."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.where(mask, beta * log_r + np.log(p), -np.inf)
    norm = log_sum_exp(logw)
    with np.errstate(invalid="ignore"):
        nu = np.exp(logw - norm)
    nu[~np.isfinite(nu)] = 0.0
    return nu / nu.sum()


def _root_in_beta(evaluate, radius: float, tol: float):
    """Tilt whose divergence equals the radius, for a divergence nondecreasing in beta.

    evaluate(beta) returns (divergence, point).  The bracket doubles from
    beta = 1; bisection from [0, hi] then keeps the probe closest to the
    radius.  Returns that probe's point, or None when sixty doublings do not
    reach the radius (numerically indistinguishable from the limit).
    """
    hi = 1.0
    best = evaluate(hi)
    doublings = 0
    while best[0] < radius:
        hi *= 2.0
        best = evaluate(hi)
        doublings += 1
        if doublings > MAX_DOUBLINGS:
            return None
    lo = 0.0
    for _ in range(200):
        if abs(best[0] - radius) <= tol:
            break
        mid = 0.5 * (lo + hi)
        probe = evaluate(mid)
        if abs(probe[0] - radius) < abs(best[0] - radius):
            best = probe
        if probe[0] < radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return best[1]


def _crossing(divergence_at, inside: float, outside: float, radius: float) -> float:
    """Parameter where divergence_at crosses the radius between an inside and an outside end.

    A fixed 100 halvings; a tie moves the outside end.
    """
    for _ in range(100):
        mid = 0.5 * (inside + outside)
        if divergence_at(mid) < radius:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def exact_avg_sup(
    mu: Distribution,
    lengths: CodeLengths,
    radius: float,
    tol: float = 1e-12,
) -> tuple[float, Distribution]:
    """Exact supremum of average redundancy over the ball for a fixed code.

    The objective is convex in the distribution, so the maximum sits at an
    extreme point of the feasible set: a vertex inside the ball, or a point
    of the boundary shell.  On a face of dimension two or more, the shell
    maximum is either the face's rooted positive tilt (the only stationary
    points of maximum type) or lies on a subface; the recursion bottoms out
    at two-symbol faces, whose shell is at most two isolated points, both of
    which must be evaluated directly.  Cost grows as 2^M; this is desk-scale
    machinery for when the full-support tilt has no root.
    """
    if radius <= 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    m = mu.m
    if m > 12:
        raise LimitExceededError(f"exact supremum enumeration is limited to 12 symbols, got {m}")
    p = mu.as_array()
    log_r = _log_ratios(mu, lengths)
    log_d = math.log(lengths.arity)
    l = lengths.as_array()

    best = -math.inf
    witness: np.ndarray | None = None

    def consider(nu: np.ndarray):
        nonlocal best, witness
        nz = nu > 0.0
        value = float(np.dot(nu, l) + np.sum(nu[nz] * np.log(nu[nz])) / log_d)
        if value > best:
            best = value
            witness = nu

    def pair_point(j: int, k: int, t: float) -> np.ndarray:
        nu = np.zeros(m)
        nu[j] = t
        nu[k] = 1.0 - t
        return nu

    for k in range(m):
        if p[k] > 0.0 and -math.log(p[k]) <= radius:
            vertex = np.zeros(m)
            vertex[k] = 1.0
            consider(vertex)

    for j in range(m):
        for k in range(j + 1, m):
            if p[j] == 0.0 or p[k] == 0.0:
                continue

            def on_edge(t: float) -> float:
                return pair_divergence(t, p[j], p[k])

            # the centre's divergence is -log(p_j + p_k); evaluated on the
            # edge it can round above a radius it equals, as at r_max
            if -math.log(p[j] + p[k]) > radius:
                continue  # the segment never enters the ball
            t_center = p[j] / (p[j] + p[k])
            # crossing toward each endpoint, where the divergence rises
            # monotonically from the in-ball center
            if -math.log(p[j]) > radius:
                consider(pair_point(j, k, _crossing(on_edge, t_center, 1.0, radius)))
            if -math.log(p[k]) > radius:
                consider(pair_point(j, k, _crossing(on_edge, t_center, 0.0, radius)))

    for bits in range(1, 2**m):
        mask = np.array([(bits >> k) & 1 == 1 for k in range(m)])
        if mask.sum() < 3 or np.any(p[mask] == 0.0):
            continue
        base = -math.log(float(p[mask].sum()))
        if base > radius:
            continue  # the whole face lies outside the ball
        face_log_r = np.where(mask, log_r, -np.inf)
        top = np.max(face_log_r)
        limit_mass = float(p[mask & (face_log_r >= top - ARGMAX_LOG_TOL)].sum())
        if -math.log(limit_mass) <= radius:
            # no rooted tilt on this face; its shell maxima live on subfaces,
            # except when the ratios tie across the face (ideal code) and the
            # shell is a level set that may sit strictly inside: cover that
            # with an explicit crossing toward the lightest vertex
            k_min = min((k for k in range(m) if mask[k]), key=lambda k: p[k])
            if -math.log(p[k_min]) >= radius:
                center = np.where(mask, p, 0.0)
                center = center / center.sum()
                vertex = np.zeros(m)
                vertex[k_min] = 1.0

                def blend(t: float) -> np.ndarray:
                    return (1.0 - t) * center + t * vertex

                t = _crossing(lambda t: array_divergence(blend(t), p), 0.0, 1.0, radius)
                consider(blend(t))
            continue

        def on_face(beta: float):
            nu = _face_point(p, log_r, mask, beta)
            return array_divergence(nu, p), nu

        # None only when the radius is numerically at the face's limit, which
        # lies on a subface that the enumeration visits
        point = _root_in_beta(on_face, radius, tol)
        if point is not None:
            consider(point)

    if witness is None:
        raise DomainError("no feasible extreme point found")
    return best, Distribution(tuple(witness))


def tilted_root(
    mu: Distribution,
    lengths: CodeLengths,
    radius: float,
    tol: float = 1e-12,
) -> TiltedPoint | None:
    """Find beta with D(nu(beta)||mu) = radius for this fixed code.

    Returns None when no such beta exists, i.e. when the radius is at or
    beyond the limit divergence of the family for these lengths.  The
    divergence is nondecreasing in beta, so bisection after bracket doubling
    is sufficient.
    """
    if radius <= 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    limit = nu_infinity(mu, lengths)
    if radius >= limit.divergence_from_center:
        return None
    p = mu.as_array()
    log_r = _log_ratios(mu, lengths)

    def on_simplex(beta: float):
        return _tilt(p, log_r, beta)[0], beta

    # the probes stay on arrays; only the root becomes a TiltedPoint
    beta = _root_in_beta(on_simplex, radius, tol)
    return None if beta is None else nu_circ(mu, lengths, beta)
