"""Tilted distributions and the redundancy identities they support.

For a nominal distribution mu and a code with implied probabilities
theta_i = D^(-l_i), the one-parameter family

    nu(beta)_i  proportional to  (mu_i / theta_i)^beta * mu_i,   beta > 0,

sweeps from mu (beta -> 0) to a limit point supported on the symbols that
maximize mu_i / theta_i (beta -> infinity).  Its divergence from mu is
nondecreasing in beta, which is what makes it usable as the worst case
inside a relative-entropy ball: the beta whose divergence equals the radius
pins the adversary exactly.

Two kernels serve the family on the support p > 0: _tilt, the exact
point and its divergence, and _tilt_walk, the closed form D(beta) =
beta <nu, c> - log Z walked by Newton steps toward a target divergence.
Every kernel reads one record of a code's beta-free terms, _code_terms,
taken once per code and reused at every beta.  _face_limit is the
beta -> infinity end.  nu_circ runs _tilt, nu_infinity runs _face_limit.
The root search (doubling, then Illinois regula falsi) is written once,
as the generator _root_search, which yields each beta and is sent its
evaluation.  Two drivers run it.  _root_in_beta drives one search: the
solver's, with g_of_beta as its probe and the bracket refined at the
last probe's own root (_own_root, a reader of the walk) where that lies
inside it, and tilted_root's, with _tilt on one code.  tilted_roots
drives one search per code of a list in lockstep, evaluating every
pending beta by one _tilt over a record of one code per row, so the
enumerated codes of a ball (oracle.ball_sample) share each step's numpy
calls, and each root is tilted_root's to the bit.  exact_avg_sup
asks tilted_root only where _face_limit leaves a root possible.  Off the
support log p is -inf, so no mask is needed.  The walk never reports a
point: its other reader is solver._reaches_above, which takes lower
bounds from it to rule candidates out.

All exponentials are evaluated in log-domain with max subtraction, and
each kernel centres the log-ratios on their maximum, since beta can be
large (limit checks use beta = 1e3, and roots reach beta = 1e12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CodeLengths,
    Distribution,
    _check_beta,
    _check_tol,
    _stored,
    array_divergence,
    kl_divergence,
    log_sum_exp,
    pair_divergence,
)
from .errors import DimensionMismatchError, DomainError

ARGMAX_LOG_TOL = 1e-12
# a tilt root bracket gives up after this many doublings of beta from 1
MAX_DOUBLINGS = 60
# tilted_root's default tolerance, at which tilted_roots roots every code
_ROOT_TOL = 1e-12
_LOG_2, _LOG_4 = math.log(2.0), math.log(4.0)


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


def _code_terms(mu: Distribution, lengths: CodeLengths) -> tuple[np.ndarray, ...]:
    """A code's beta-free terms, the record every tilt kernel reads: (p, log p, log r, centred).

    p is mu as an array, log r = log(mu_i / theta_i) = log p_i + l_i log D,
    both logs -inf off the support, and centred is log r minus its maximum.
    """
    if mu.m != lengths.m:
        raise DimensionMismatchError(f"dimension mismatch {mu.m} vs {lengths.m}")
    return _scaled_terms(mu, lengths.as_array() * math.log(lengths.arity))


def _scaled_terms(mu: Distribution, scaled: np.ndarray) -> tuple[np.ndarray, ...]:
    """_code_terms from l log D, scaled: one code, or one code per row (tilted_roots).

    log r and centred then hold one row per code, the record of that code
    to the bit: every step is elementwise or along the last axis.
    """
    p = mu.as_array()
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    log_r = log_p + scaled
    return p, log_p, log_r, log_r - log_r.max(axis=-1, keepdims=True)


def nu_circ(mu: Distribution, lengths: CodeLengths, beta: float) -> TiltedPoint:
    """Tilted distribution nu(beta)_i ∝ (mu_i/theta_i)^beta * mu_i."""
    _check_beta(beta)
    return _tilted_point((beta, *_tilt(_code_terms(mu, lengths), beta)))


def _tilt(terms: tuple[np.ndarray, ...], beta):
    """Divergence from p of the tilt at beta, and its raw point, along the last axis.

    terms is a _code_terms record.  log r is centred on its maximum, so
    beta * centred stays at or below 0: uncentred, beta * log r is near
    1e12 at beta near 1e12, and its rounding alone moves the divergence by
    about 1e-5.  The divergence is that of the point as Distribution would
    store it, renormalised by its fsum unless that is exactly 1, summed over
    the point's support as array_divergence sums it.  The point lives on
    p's support, so kl_divergence's checks are moot.  One code gives a float
    and a point, its sums numpy scalars: run as a one-row matrix it cost 2-3
    us more per tilt at M 4-64 (2-core Xeon, numpy 2.4.6).  A record of one code per row (tilted_roots)
    with a column of one beta per row gives a list of divergences and a
    matrix of points, each row that code's result to the bit: every step is
    elementwise or reduces one row, and each row is stored by its own fsum
    (core._stored).  Rows without a zero are summed at once; a row with a
    zero sums its support alone, through array_divergence, since from 8
    symbols on numpy sums in blocks and a zero term can move the last bit.
    """
    p, log_p, _, centred = terms
    per_row = {"axis": -1, "keepdims": True} if centred.ndim > 1 else {}
    logw = beta * centred + log_p
    hi = logw.max(**per_row)
    raw = np.exp(logw - (hi + np.log(np.exp(logw - hi).sum(**per_row))))
    raw = raw / raw.sum(**per_row)
    if raw.ndim == 1:
        total = math.fsum(raw.tolist())
        return array_divergence(raw if total == 1.0 else raw / total, p), raw
    nu = _stored(raw)
    if nu.all():
        return (nu * np.log(nu / p)).sum(axis=-1).tolist(), raw
    return [array_divergence(point, p) for point in nu], raw


def _tilt_walk(terms: tuple[np.ndarray, ...], beta: float, target: float):
    """Closed-form tilts from beta toward the target divergence: (beta, divergence, mean).

    With c = log r minus its maximum, Z = sum p e^(beta c) and <nu, c> =
    sum p c e^(beta c) / Z, the divergence is D = beta <nu, c> - log Z,
    the identity behind decomposition_terms, and dD/dbeta = beta Var_nu(c):
    one exp and three dot products per tilt, no Distribution.  mean is
    <nu, c>.  After each tilt comes a Newton step on log D against log beta
    toward the target, kept between halving and quadrupling beta.  The walk
    stops after MAX_DOUBLINGS tilts (read at each call), or where that
    slope is not positive (D is 0 or flat).  terms is the code's
    _code_terms record, and p must be positive.
    It is not bit-matched to _tilt.  _own_root uses it only to pick a beta
    that a probe then evaluates with _tilt.  solver._best_candidate uses it
    only for lower bounds, and skips a candidate only when such a value
    exceeds the incumbent's by more than 1e-7 max(1, |value|).  That margin
    is enough:
    - c <= 0 with a 0 entry, so Z lies in [min p, 1], and D >= 0 forces
      0 <= -beta <nu, c> <= -log Z <= -log min p.  D is a difference of two
      such terms, each off by a few M ulps of -log min p, at most about
      1e-11 (M = 1024, p down to 1e-300); so is the value, D + <nu, log r>
      for avg-red and <nu, log r> for gg, in nats.
    - A tilt whose computed D is at most R lies in the ball up to that
      rounding, and a candidate's scored root lies within the root tolerance
      (1e-12) of the shell.  A radius offset t moves a supremum by about
      (1 + 1/beta) t for avg-red and by t / beta for gg, beta being the
      candidate's root; below the margin whenever beta > 2e-5.  Near mu, D
      is about beta^2 Var_mu(c) / 2, so such a beta needs a radius of about
      1e-8 nats or less, where the root tolerance alone already moves a
      value by that much.
    """
    p, _, _, centred = terms
    for _ in range(MAX_DOUBLINGS):
        e = np.exp(beta * centred)
        total = float(p @ e)
        ec = e * centred
        mean = float(p @ ec) / total
        var = float(p @ (ec * centred)) / total - mean * mean
        divergence = beta * mean - math.log(total)
        yield beta, divergence, mean
        # d log D / d log beta, with dD / dbeta = beta Var_nu(centred)
        slope = beta * beta * var / divergence if divergence > 0.0 else 0.0
        if not slope > 0.0:
            return
        beta = beta * math.exp(min(_LOG_4, max(-_LOG_2, math.log(target / divergence) / slope)))


def _own_root(terms: tuple[np.ndarray, ...], beta: float, divergence: float, radius: float,
              tol: float) -> float | None:
    """A beta where this code's tilt has a closed-form divergence in [radius, radius + tol / 2].

    terms is the code's _code_terms record and divergence its tilt's at
    beta.  The first of at most MAX_DOUBLINGS tilts of _tilt_walk from beta,
    aimed at radius + tol / 4, whose divergence lies in that window.  The
    window leaves tol / 4 on either side for the rounding by which _tilt
    differs (see _tilt_walk), so the code's tilt evaluated at that beta lies
    at or above the radius and within tol of it.  None when the code has no
    root (its divergence at beta lies below the radius and _rootless holds)
    or the walk does not land in the window.  p must be positive.
    """
    if divergence < radius and _rootless(terms, radius):
        return None
    for beta, divergence, _ in _tilt_walk(terms, beta, radius + 0.25 * tol):
        if radius <= divergence <= radius + 0.5 * tol:
            return beta
    return None


def xi(mu: Distribution, beta: float) -> Distribution:
    """Tilted weight distribution xi_k ∝ mu_k^(beta+1)."""
    _check_beta(beta)
    p = mu.as_array()
    with np.errstate(divide="ignore"):
        logw = (beta + 1.0) * np.log(p)
    w = np.exp(logw - log_sum_exp(logw))
    return Distribution(tuple(w / w.sum()))


def avg_redundancy(lengths: CodeLengths, nu: Distribution) -> float:
    """Expected length minus entropy, in base-D symbols."""
    if nu.m != lengths.m:
        raise DimensionMismatchError(f"dimension mismatch {nu.m} vs {lengths.m}")
    return _redundancy(nu.as_array(), lengths.as_array(), math.log(lengths.arity))


def _redundancy(nu: np.ndarray, l: np.ndarray, log_d: float) -> float:
    """avg_redundancy on arrays: <nu, l> - H(nu) / log D."""
    nz = nu > 0.0
    return float(np.dot(nu, l) + np.sum(nu[nz] * np.log(nu[nz])) / log_d)


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


def pointwise_utility(lengths: CodeLengths, dist: Distribution) -> float:
    """Worst pointwise redundancy max_k (l_k + log_D p_k)."""
    if dist.m != lengths.m:
        raise DimensionMismatchError(f"dimension mismatch {dist.m} vs {lengths.m}")
    p = dist.as_array()
    l = lengths.as_array()
    nz = p > 0.0
    return float(np.max(l[nz] + np.log(p[nz]) / math.log(lengths.arity)))


def objective_utility(objective: str, lengths: CodeLengths, nu: Distribution, mu: Distribution) -> float:
    """The value of a code at nu under an objective, named as the CLI names it.

    gg_utility for "gg", pointwise_utility for "pointwise", and
    avg_redundancy for "avg-red" and every other code objective.  The
    solver, the oracle and the CLI's verify all score through it.
    """
    if objective == "gg":
        return gg_utility(lengths, nu, mu)
    if objective == "pointwise":
        return pointwise_utility(lengths, nu)
    return avg_redundancy(lengths, nu)


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
    _check_beta(beta)
    _, log_p, log_r, _ = _code_terms(mu, lengths)
    logw = beta * log_r + log_p
    log_partition = log_sum_exp(logw)
    term1 = (beta + 1.0) / beta * kl_divergence(nu, mu)  # absolute-continuity check
    # D(nu||nu(beta)) from log nu(beta) = logw - log_partition: at large beta
    # nu(beta) itself underflows to zeros on the support
    q = nu.as_array()
    nz = q > 0.0
    term2 = -float(np.sum(q[nz] * (np.log(q[nz]) - logw[nz] + log_partition))) / beta
    term3 = log_partition / beta
    return term1, term2, term3


def nu_infinity(mu: Distribution, lengths: CodeLengths) -> LimitPoint:
    """Limit of the tilted family: mu restricted to argmax(mu_i/theta_i)."""
    terms = _code_terms(mu, lengths)
    members, mass = _face_limit(terms)
    return LimitPoint(
        distribution=Distribution(tuple(np.where(members, terms[0] / mass, 0.0))),
        # -log(1.0) is -0.0: a limit that keeps all the mass reports 0.0
        divergence_from_center=max(0.0, -math.log(mass)),
        argmax_set=frozenset(int(i) for i in np.nonzero(members)[0]),
    )


def _face_limit(terms: tuple[np.ndarray, ...]) -> tuple[np.ndarray, float]:
    """The beta -> infinity end of the code's tilt: its argmax mask and that set's mass.

    Log-ratio ties within ARGMAX_LOG_TOL all join the argmax set, so exact
    ties split by float noise are not dropped.  The limit's divergence from
    p is -log(mass).
    """
    p, _, log_r, _ = terms
    members = log_r >= np.max(log_r) - ARGMAX_LOG_TOL
    return members, float(p[members].sum())


def _rootless(terms: tuple[np.ndarray, ...], radius: float) -> bool:
    """Whether the code's tilt has no root at radius: radius >= -log of its face mass.

    That is the limit divergence, which the family's nondecreasing
    divergence approaches from below.  tilted_root and _own_root both test it.
    """
    return radius >= -math.log(_face_limit(terms)[1])


def _root_search(radius: float, tol: float, suggest=None):
    """The tilt root search for a divergence nondecreasing in beta, as a generator.

    It yields each beta to evaluate and is sent that beta's evaluation, a
    (divergence, point) pair; no beta is yielded twice.  None sent instead
    ends the search, which then returns None at once, whether at the first
    probe, a doubling or a refining step.  The bracket doubles from beta =
    1; the search then refines [hi / 2, hi] after a doubling, else [0, 1],
    where the divergence at 0 is that of mu itself, 0, and needs no
    evaluation.  Each refining step probes suggest(point) of the last probe,
    a beta worth probing next or None, when given and strictly inside the
    open bracket.  Otherwise it is an Illinois regula falsi step (Dowell and
    Jarratt, BIT 11, 1971): the secant through the bracket's ends, or the
    midpoint when rounding puts the secant outside the open bracket; an end
    that survives two steps in a row has its divergence's offset from the
    radius halved, so the bracket shrinks from both sides even where the
    divergence jumps.  The search keeps the probe closest to the radius (the
    last doubling below it included) and stops when that lies within tol or
    the bracket collapses.  It returns that probe's point, or None when the
    doublings do not reach the radius: after MAX_DOUBLINGS of them, or once
    a doubling's divergence equals the previous doubling's bit for bit,
    where the family has reached its limit in floating point.  For the
    solver's probes, whose code can change between doublings, that stop
    rests on an observed property: on seeded centres (M 3-256, arity 2 and
    3), once a doubling met the limit code every later doubling up to 2^60
    met it too.  _root_in_beta drives one search, tilted_roots one per code.
    """
    lo, hi = 0.0, 1.0
    best = yield hi
    f_lo = -radius
    for _ in range(MAX_DOUBLINGS):
        # a doubling that repeats the previous one's divergence bit for bit
        # has reached the family's limit in floating point
        if best is None or best[0] >= radius or lo and best[0] == below[0]:
            break
        lo, below, f_lo = hi, best, best[0] - radius
        hi *= 2.0
        best = yield hi
    if best is None or best[0] < radius:
        return None
    last = best
    f_hi = best[0] - radius
    # the last doubling below the radius is a probe too, and may be the closest
    if lo and tol < f_hi and -f_lo < f_hi:
        best = below
    moved = 0  # the end the last step moved: -1 for lo, +1 for hi
    for _ in range(200):
        if abs(best[0] - radius) <= tol:
            break
        step = suggest(last[1]) if suggest is not None else None
        if step is None or not lo < step < hi:
            step = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
        last = yield step
        if last is None:
            return None
        f = last[0] - radius
        if abs(f) < abs(best[0] - radius):
            best = last
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


def _root_in_beta(evaluate, radius: float, tol: float, suggest=None):
    """Tilt whose divergence equals the radius: _root_search driven by evaluate.

    evaluate(beta) returns (divergence, point), or None to end the search;
    the result is the point of the probe the search keeps, or None.  The
    solver runs it with g_of_beta as its probe and the code's own root as
    suggest, tilted_root with _tilt on one code.
    """
    search = _root_search(radius, tol, suggest)
    beta = next(search)
    try:
        while True:
            beta = search.send(evaluate(beta))
    except StopIteration as stop:
        return stop.value


def _crossing(divergence_at, inside: float, outside: float, radius: float) -> float:
    """Parameter where divergence_at crosses the radius between an inside and an outside end.

    Bisection; a tie moves the outside end.  It stops once the midpoint
    equals an end of the bracket.  A step is a pure function of (inside,
    outside), so from there every later halving either leaves the pair as
    it is or moves the other end onto that midpoint, after which the pair
    stays put: 100 halvings would return that midpoint too, bit for bit.
    At most 100 halvings, for crossings near 0 that never reach adjacent
    floats.
    """
    for _ in range(100):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if divergence_at(mid) < radius:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def exact_avg_sup(
    mu: Distribution,
    lengths: CodeLengths,
    radius: float,
) -> tuple[float, Distribution]:
    """Exact supremum of average redundancy over the ball for a fixed code.

    With r = mu / theta the redundancy in nats is f(nu) = D(nu||mu) +
    <nu, log r>, convex in nu, so its maximum lies at a vertex in the ball
    or on the shell D(nu||mu) = R, and on the ball f <= R + <nu, log r>.
    A root of the support's tilt maximises <nu, log r> over the ball and
    lies on the shell, so it is the maximum, and it is returned when it
    exists.  It is sought (tilted_root, at its default tolerance) only
    where R lies below -log mu(A), the limit divergence of the argmax tie
    class A; at or above it this face test alone shows the code rootless.
    Whether a root exists never depends on the tolerance, which neither
    the face test nor the doublings read.  Without a root, each edge keeps
    both of its shell crossings, which are isolated points, and of the
    larger faces only the argmax tie class A can carry the maximum:
    - A positive tilt on a proper face F is a KKT point with multiplier
      lambda = 1 + 1/beta > 1: moving eps of mass to a support symbol off F
      lowers the divergence and f by order eps log(1/eps), and re-tilting F
      to spend the freed divergence gains lambda times that, a net gain of
      (lambda - 1) eps log(1/eps) > 0.  No proper-face root is a maximum.
    - A negative tilt on a face of three or more symbols minimises
      <nu, log r> on that face's shell, so it is no maximum either.
    - A face tied below max log r gains by moving mass toward A, and on A's
      shell f equals R + max log r, the bound itself; one crossing from A's
      centre toward its lightest vertex stands for that shell.
    On the shell f = R + <nu, log r>, and <nu, log r> is linear along an
    edge, so the crossing of edge (j, k) toward vertex j, which lies
    between the edge's centre c and j, is worth at most (R + max(log r_j,
    <c, log r>)) / log D, and at most (R + max(log r_j, log r_k)) / log D
    either way.  The in-ball vertices and the tie-class crossing seed the
    best value; the edge crossings are then computed in descending order
    of their bounds, and the rest are skipped once a bound plus a margin
    falls below the best computed value.  The margin, 1e-9 (1 + max l +
    (-log min mu) / log D) with min mu over the support, covers what a
    computed value can exceed its bound by:
    - the crossing's distance from the shell: its bracket ends have
      adjacent parameters (or a width of 2^-100 of the centre's), and one
      ulp of t moves the divergence by at most 2^-52 (40 + 2 |log min mu|),
      as t |log t| <= 1/e near t = 0 and 1 - t >= 2^-53 near t = 1;
    - the rounding of the divergence, of _redundancy and of the bound: a
      few ulps of terms no larger than 1 + max l + (-log min mu) / log D
      in base-D units (R lies below -log min mu, or no vertex is outside).
    Both are below 1e-12 (1 + max l + (-log min mu) / log D), so a skipped
    crossing is strictly below the winner.  The scored points go into one
    list, each tagged with its place in the visiting order (vertices, edges
    in (j, k) order, tie class), and the final max by value, then earliest
    place, returns the value and the witness (the first of any tie) that
    computing every crossing gives.  An in-ball vertex k is worth l_k, its
    redundancy, and its unit-vector witness is built only if it wins.  None
    of this depends on M, so every alphabet size is exact; a rootless code
    costs an O(M^2) bound pass plus the scalar crossings that survive the
    prune, which can take seconds at M in the hundreds.  At radius 0 the
    ball is mu alone.
    """
    if radius == 0.0:
        return avg_redundancy(lengths, mu), mu
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    terms = _code_terms(mu, lengths)
    p, _, log_r, _ = terms
    members, mass = _face_limit(terms)
    if radius < -math.log(mass):
        point = tilted_root(mu, lengths, radius)
        if point is not None:
            return avg_redundancy(lengths, point.distribution), point.distribution
    m = mu.m
    l = lengths.as_array()
    log_d = math.log(lengths.arity)
    q = p.tolist()
    # far[k]: vertex k lies outside the ball (False off the support)
    far = [x > 0.0 and -math.log(x) > radius for x in q]
    # scored extreme points (value, place, witness), place being the
    # visiting order: vertex k at k, edge crossing ends[i] at m + i, the tie
    # class last.  An in-ball vertex is worth its length, its redundancy,
    # and its witness (None here) is built only if it wins.
    scored = [(float(l[k]), k, None) for k in range(m) if q[k] > 0.0 and not far[k]]
    if np.count_nonzero(members) >= 3:
        # no root: the redundancy is constant on the tie class's shell,
        # the bound R + max log r, so cross it toward the lightest vertex
        k_min = min(np.flatnonzero(members), key=lambda k: p[k])
        if -math.log(p[k_min]) >= radius:
            center = np.where(members, p, 0.0)
            center = center / center.sum()

            def blend(t: float) -> np.ndarray:
                return (1.0 - t) * center + t * (np.arange(m) == k_min)

            nu = blend(_crossing(lambda t: array_divergence(blend(t), p), 0.0, 1.0, radius))
            scored.append((_redundancy(nu, l, log_d), math.inf, nu))

    # each shell crossing (bound, j, k, t_center, end), in (j, k) order,
    # toward end 1.0 (vertex j) or 0.0 (vertex k).  An edge whose centre,
    # at divergence -log(p_j + p_k), lies outside never enters the ball;
    # evaluated on the edge that divergence can round above a radius it
    # equals, as at r_max.  From the in-ball centre the divergence rises
    # toward each endpoint.
    ends = []
    log_q = log_r.tolist()
    for j in range(m):
        for k in range(j + 1, m):
            if q[j] == 0.0 or q[k] == 0.0 or -math.log(q[j] + q[k]) > radius:
                continue
            t_center = q[j] / (q[j] + q[k])
            on_centre = t_center * log_q[j] + (1.0 - t_center) * log_q[k]  # <c, log r>
            ends += [((radius + max(log_q[v], on_centre)) / log_d, j, k, t_center, end)
                     for v, end in ((j, 1.0), (k, 0.0)) if far[v]]
    margin = 1e-9 * (1.0 + float(l.max()) - math.log(min(x for x in q if x > 0.0)) / log_d)
    best = max((value for value, _, _ in scored), default=-math.inf)
    for i in sorted(range(len(ends)), key=lambda i: ends[i][0], reverse=True):
        bound, j, k, t_center, end = ends[i]
        if bound + margin < best:
            break  # no later crossing's bound is larger
        a, b = q[j], q[k]
        t = _crossing(lambda t: pair_divergence(t, a, b), t_center, end, radius)
        nu = np.zeros(m)
        nu[j] = t
        nu[k] = 1.0 - t
        scored.append((_redundancy(nu, l, log_d), m + i, nu))
        best = max(best, scored[-1][0])

    if not scored:
        raise DomainError("no feasible extreme point found")
    # the largest value, the earliest place among ties; a vertex wins as its unit vector
    best, place, witness = max(scored, key=lambda point: (point[0], -point[1]))
    if witness is None:
        witness = np.arange(m) == place
    return best, Distribution(tuple(witness))


def tilted_root(
    mu: Distribution,
    lengths: CodeLengths,
    radius: float,
    tol: float = _ROOT_TOL,
) -> TiltedPoint | None:
    """Find beta with D(nu(beta)||mu) = radius for this fixed code.

    Returns None when no such beta exists, i.e. when the radius is at or
    beyond the limit divergence of the family for these lengths.  The
    divergence is nondecreasing in beta, so Illinois regula falsi after
    bracket doubling (_root_in_beta) is sufficient; the end beta = 0 is mu
    itself, at divergence 0, and costs no tilt.
    """
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    _check_tol(tol)
    terms = _code_terms(mu, lengths)
    if _rootless(terms, radius):
        return None

    def evaluate(beta: float):
        divergence, raw = _tilt(terms, beta)
        return divergence, (beta, divergence, raw)

    return _tilted_point(_root_in_beta(evaluate, radius, tol))


def tilted_roots(
    mu: Distribution,
    codes: Sequence[CodeLengths],
    radius: float,
) -> list[TiltedPoint | None]:
    """tilted_root of every code, the codes searched in lockstep: one result per code, in order.

    The codes share mu, so p and log p, and differ only in l log D: their
    records are the rows of one _scaled_terms record.  Each code that
    _rootless does not rule out runs its own _root_search.  At each step
    the pending searches' betas are evaluated by one _tilt call over their
    rows, each row that code's own tilt to the bit, and each search is sent
    its own; a search that returns leaves the batch.  So every result is
    tilted_root's at its default tol to the bit, in beta and point, or None
    where that is None.  An empty list of codes gives an empty list.  The
    radius is checked as tilted_root checks it, and a code over another
    number of symbols than mu raises DimensionMismatchError.
    """
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    for lengths in codes:
        if lengths.m != mu.m:
            raise DimensionMismatchError(f"dimension mismatch {mu.m} vs {lengths.m}")
    roots: list[TiltedPoint | None] = [None] * len(codes)
    if not roots:
        return roots
    p, log_p, log_r, centred = _scaled_terms(
        mu, np.array([lengths.as_array() * math.log(lengths.arity) for lengths in codes]))
    searches = {i: _root_search(radius, _ROOT_TOL) for i in range(len(codes))
                if not _rootless((p, log_p, log_r[i], centred[i]), radius)}
    betas = {i: next(search) for i, search in searches.items()}
    while betas:
        lanes = list(betas)
        divergences, raw = _tilt((p, log_p, None, centred[lanes]),
                                 np.array(list(betas.values()))[:, None])
        pending = {}
        for i, beta, divergence, point in zip(lanes, betas.values(), divergences, raw):
            try:
                pending[i] = searches[i].send((divergence, (beta, divergence, point)))
            except StopIteration as stop:
                roots[i] = _tilted_point(stop.value)
        betas = pending
    return roots


def _tilted_point(root) -> TiltedPoint | None:
    """A search's (beta, divergence, raw point) as a TiltedPoint; None stays None."""
    if root is None:
        return None
    beta, divergence, raw = root
    return TiltedPoint(beta=float(beta), distribution=Distribution(tuple(raw.tolist())),
                       divergence_from_center=divergence)
