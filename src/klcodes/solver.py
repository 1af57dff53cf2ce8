"""Minimax average-redundancy solvers over a relative-entropy ball.

Two objectives share one engine.  For radius R strictly between zero and
the existence threshold, the worst case inside the ball is the tilted
point whose divergence equals R, and the matching code comes from
exponential Huffman coding of the tilted weights; the tilt parameter is
located by tilted._root_in_beta, the bracket search that tilted_root runs
for a fixed code, with g_of_beta as its probe and every probe recorded.
The search doubles beta from 1 as tilted_root does, so it meets every code
that those doublings meet.  It then refines the bracket at the own root of
the last probe's code (tilted._own_root, on the closed-form walk
tilted._tilt_walk: no build) when that lies inside the bracket; a probe
whose code is unchanged there lands within tol and ends the search.
Illinois steps remain for roots that fall outside the bracket.  Each probe
first offers the code the previous probe met to the sibling check
huffman._certifies_exponential, and builds only when that check cannot
prove that the build would return it, so most doublings build no tree and
every probe still returns what its build would.  Because
the inner problem is discrete, the divergence-vs-beta curve can jump where
the optimal length multiset changes (and so cross R more than once; the
search stops at one crossing), so every probed candidate code is kept
(after the limit code, and for avg-red at or above _rootless_radius, the
radius below which every code has a tilt root, after the hedged codes)
and the winner is chosen by its exact supremum over the ball, not by the
root alone.  A search that finds no bracket (its doublings reached the
family's limit below R or, past r_max, met the limit code, where the probe
returns None instead of a divergence and so ends the search) is scored the
same way, first candidate first.  Scoring is exact but lazy: the code of the
closest probe is scored first, and a later candidate is scored only when
no value it provably reaches inside the ball (at a tilt of its own
closed-form walk) already exceeds the incumbent's supremum; a candidate so
ruled out cannot win.  A rootless avg-red candidate that is scored costs an
exact_avg_sup call, exact at every alphabet size.

Outside that range the solvers degrade explicitly: R = 0 reduces to plain
Huffman coding, and R at or beyond the threshold is regime "boundary" (an
error in strict mode).  There avg-red returns the minimax pointwise limit
code, and so does gg at or past -log min mu, where no code has a tilt
root; gg between the two runs the same search, its candidates the limit
code and the codes the probes meet (solve_gg says why that suffices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .core import CodeLengths, Distribution, DivergenceBall, PrefixCode, _check_tol
from .errors import BoundaryRegimeError, ZeroProbabilityError
from .huffman import (
    _certifies_exponential,
    canonical_codewords,
    exponential_huffman_log,
    huffman,
    max_huffman,
)
from .tilted import (
    LimitPoint,
    _code_terms,
    _own_root,
    _root_in_beta,
    _tilt,
    _tilt_walk,
    exact_avg_sup,
    gg_utility,
    nu_infinity,
    objective_utility,
    tilted_root,
)

Regime = Literal["interior", "boundary", "zero_radius", "reduced"]

# a candidate is skipped when a value it reaches in the ball exceeds the
# incumbent's by more than this times max(1, |value|) (tilted._tilt_walk
# argues why that is enough); _reaches_above looks for such a value along
# at most MAX_DOUBLINGS closed-form tilts of that walk
_SKIP_MARGIN = 1e-7
# fractional parts of log_D mu this close join one class in _rootless_radius:
# far above ARGMAX_LOG_TOL / log D (at most 1.5e-12) plus the rounding of
# log_D mu_i and of log mu_i + l_i log D (a few ulps of numbers below a few
# thousand, about 1e-12)
_CLASS_TOL = 1e-9


@dataclass(frozen=True)
class BetaSolveTrace:
    """Diagnostics from the tilt root search: every g_of_beta probe, in order.

    Every solve that runs the search carries one, interior or boundary gg
    below -log min mu, whether or not the search found a bracket.
    """

    probes: tuple[tuple[float, float], ...]  # (beta, divergence)


@dataclass(frozen=True)
class RobustCodeResult:
    """A solved instance: the code, the adversary, and the value achieved."""

    lengths: CodeLengths
    beta: Optional[float]
    worst_case: Distribution
    achieved_utility: float
    regime: Regime
    trace: Optional[BetaSolveTrace] = None

    @property
    def codewords(self) -> PrefixCode:
        """The canonical spelling of the lengths, built on each read."""
        return canonical_codewords(self.lengths)


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


def g_of_beta(
    mu: Distribution, arity: int, beta: float, met: Optional[CodeLengths] = None
) -> tuple[float, CodeLengths]:
    """Divergence of the tilted worst case induced by the optimal code at this tilt.

    The tilted weights xi_k ~ mu_k^(beta+1) are handed to the coder in
    log-domain and unnormalized (the coder is scale invariant); a linear
    round trip would underflow them at large beta.  met, a code already
    met (the previous probe's), is returned without a build when the
    sibling check huffman._certifies_exponential proves that the build
    would return it; the result is the same either way.  log mu is read
    from mu.log_probs, computed once per distribution, and scaled per probe.
    """
    if 0.0 in mu.probs:
        raise ZeroProbabilityError("tilted weights need strictly positive probabilities")
    scale = beta + 1.0
    log_xi = [scale * log_p for log_p in mu.log_probs]
    if met is not None and _certifies_exponential(log_xi, beta, arity, met):
        lengths = met
    else:
        lengths = exponential_huffman_log(log_xi, beta, arity)
    return _tilt(_code_terms(mu, lengths), beta)[0], lengths


def _candidate_sup(
    objective: str,
    mu: Distribution,
    radius: float,
    lengths: CodeLengths,
    tol: float,
):
    """Exact supremum of the objective over the ball for one fixed code.

    Returns (value, worst distribution, beta or None).  At radius 0 the ball
    is mu alone.  The tilted root, at tol capped at 1e-12, gives the
    supremum when it exists.  Without a root the limit point is exact for
    the linear GG objective, and the convex average objective is maximized
    over the vertices, edge crossings and tie-class crossing of
    exact_avg_sup.  A None from tilted_root does not depend on its
    tolerance, so exact_avg_sup finds no root either; it seeks none again
    where its face test already shows the code rootless.  The solver scores
    every candidate through it, and so does the exact oracle
    (oracle.exact_min_over_codes) every enumerated code.
    """
    tol = min(tol, 1e-12)
    if radius == 0.0:
        return objective_utility(objective, lengths, mu, mu), mu, None
    point = tilted_root(mu, lengths, radius, tol=tol)
    if point is not None:
        value = objective_utility(objective, lengths, point.distribution, mu)
        return value, point.distribution, point.beta
    if objective == "gg":
        limit = nu_infinity(mu, lengths).distribution
        return gg_utility(lengths, limit, mu), limit, None
    value, worst = exact_avg_sup(mu, lengths, radius)
    return value, worst, None


def _hedged_codes(mu: Distribution, arity: int) -> list[CodeLengths]:
    """Huffman codes of the nominal hedged toward uniform: the rootless search of avg-red.

    t=0 is plain Huffman, t=1 the flattest code.  At large avg-red radii the
    minimax optimum can be a code without a tilt root, which the tilt path
    need not meet.  This family is a heuristic for such codes, not a proof:
    against the exact nested minimax (oracle.exact_min_over_codes) on 240
    binary avg-red solves at M 4-7, the 48 interior solves at 0.9 x r_max
    still missed a rootless optimum 4 times, by up to 0.416 bits.  It is
    built only at or above _rootless_radius, below which every code has a
    root (solve_avg_redundancy says why that makes it dead there), and gg
    needs none of it (solve_gg says why).
    """
    m = mu.m
    return [huffman([(1.0 - t) * p + t / m for p in mu.probs], arity)
            for t in (i / 20.0 for i in range(21))]


def _rootless_radius(mu: Distribution, arity: int) -> float:
    """-log m_D: below this radius every code for mu keeps its tilt root.

    A code l loses its root at R exactly when R >= -log mu(A_l), A_l being
    the argmax set of tilted._face_limit: the symbols whose log mu_i + l_i
    log D lie within ARGMAX_LOG_TOL of their maximum.  Two members differ in
    x_i = log_D mu_i by an integer, up to ARGMAX_LOG_TOL / log D, so the
    fractional parts of A_l lie on one arc of the circle [0, 1) no longer
    than that.  Sorted, with neighbours closer than _CLASS_TOL joined into
    one class and the last class joined to the first across 1 -> 0, every
    such arc falls inside one class, so mu(A_l) <= m_D, the largest mass of
    a class, whatever l is.  For a generic mu each class is one symbol and
    the radius is -log max mu; where every x_i has one fractional part, as
    for dyadic mu at D = 2, m_D is 1 and no radius lies below it.  m_D is
    raised by M 2^-51 relative: a float sum of n positive terms, in any
    order, lies within about (n - 1) 2^-53 relative of the exact sum, so the
    mass that _face_limit computes for A_l stays below the raised m_D.
    """
    x = np.asarray(mu.log_probs) / math.log(arity)
    frac = x - np.floor(x)
    order = np.argsort(frac)
    frac = frac[order]
    label = np.concatenate(([0], np.cumsum(np.diff(frac) > _CLASS_TOL)))
    if frac[0] + 1.0 - frac[-1] <= _CLASS_TOL:
        label[label == label[-1]] = 0
    mass = float(np.bincount(label, weights=mu.as_array()[order]).max())
    return -math.log(mass * (1.0 + mu.m * 2.0**-51))


def _reaches_above(
    objective: str,
    mu: Distribution,
    radius: float,
    lengths: CodeLengths,
    beta: float,
    limit: float,
) -> bool:
    """Whether the code provably reaches a value above limit inside the ball.

    The values tried are the code's at the in-ball tilts of
    tilted._tilt_walk, its closed-form tilts from beta (the incumbent's, 1
    without one) toward the radius, at most MAX_DOUBLINGS of them.  Along
    the tilt the divergence and the value both grow with beta, so the best
    bound is the in-ball tilt nearest the root.  Where log D is concave in
    log beta, as near mu (D about beta^2 Var / 2) and toward the limit (D
    levels off), the walk's Newton step lands inside the ball from either
    side.
    """
    terms = _code_terms(mu, lengths)
    log_d = math.log(lengths.arity)
    top = float(np.max(terms[2]))
    for _, divergence, mean in _tilt_walk(terms, beta, radius):
        if divergence <= radius:
            nats = mean + top if objective == "gg" else divergence + mean + top
            if nats / log_d > limit:
                return True
    return False


def _best_candidate(
    objective: str,
    mu: Distribution,
    radius: float,
    candidates,
    tol: float,
    regime: Regime,
    trace: Optional[BetaSolveTrace],
    first: Optional[CodeLengths] = None,
) -> RobustCodeResult:
    """The candidate with the least exact supremum; ties go to the smaller
    tilt, then to the earlier candidate.

    Exact but lazy.  first (the code of the solver's closest probe; else the
    first candidate) is scored first.  A later candidate is scored by
    _candidate_sup only when _reaches_above finds no value it reaches in the
    ball above the incumbent's value plus the rounding margin _SKIP_MARGIN.
    A skipped candidate's supremum is strictly above the incumbent's, so the
    winner, its beta, its worst case and the tie order (value, beta,
    position) are those of scoring every candidate; a rootless avg-red
    candidate that is skipped costs no exact_avg_sup call.
    """
    candidates = list(candidates)
    start = 0 if first is None else candidates.index(first)
    best = None
    for position in (start, *(k for k in range(len(candidates)) if k != start)):
        lengths = candidates[position]
        if best is not None:
            limit = best[0] + _SKIP_MARGIN * max(1.0, abs(best[0]))
            if _reaches_above(objective, mu, radius, lengths, start_beta, limit):
                continue
        value, worst, beta = _candidate_sup(objective, mu, radius, lengths, tol)
        item = (value, beta if beta is not None else math.inf, position, lengths, worst)
        if best is None or item[:3] < best[:3]:
            best = item
            start_beta = 1.0 if beta is None else beta
    value, beta, _, lengths, worst = best
    return RobustCodeResult(
        lengths=lengths,
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
    _check_tol(tol)
    mu = ball.center
    radius = ball.radius
    if any(p == 0.0 for p in mu.probs):
        raise ZeroProbabilityError("nominal distribution must be strictly positive")

    # a single candidate is scored at radius 0 (plain Huffman, on mu alone)
    # and at the boundary, apart from gg below -log min mu (the limit code)
    if radius == 0.0:
        return _best_candidate(objective, mu, radius, [huffman(mu.probs, arity)], tol,
                               "zero_radius", None)

    r_max, _, limit_code = existence_threshold(mu, arity)
    boundary = radius >= r_max
    if boundary and strict_boundary:
        raise BoundaryRegimeError(
            f"radius {radius} is at or beyond the existence threshold {r_max}"
        )
    regime: Regime = "boundary" if boundary else "interior"
    # r_max <= -log min mu (the limit's argmax set holds at least one
    # symbol); past the threshold no avg-red code is searched (an avg-red
    # candidate without a root costs an exact_avg_sup call), and past -log
    # min mu no code has a tilt root, so the limit code is optimal for gg
    if boundary and (objective != "gg" or radius >= -math.log(min(mu.probs))):
        return _best_candidate(objective, mu, radius, [limit_code], tol, regime, None)

    # the tilt root search of tilted_root, keeping every candidate code a
    # probe meets (an ordered set) after the limit code, and for avg-red at
    # or above _rootless_radius after the hedged codes too (below it every
    # code has a root and they are dead: solve_avg_redundancy); the closest
    # probe's code is scored first
    probes: list[tuple[float, float]] = []
    hedged = (_hedged_codes(mu, arity)
              if objective == "avg-red" and radius >= _rootless_radius(mu, arity) else ())
    candidates = dict.fromkeys((*hedged, limit_code))
    met: Optional[CodeLengths] = None  # the last probe's code, checked before a build

    def probe(beta: float) -> Optional[tuple[float, tuple[CodeLengths, float, float]]]:
        nonlocal met
        divergence, lengths = g_of_beta(mu, arity, beta, met)
        met = lengths
        candidates.setdefault(lengths)
        probes.append((beta, divergence))
        # past r_max the limit code's tilt stays below the radius, and once a
        # doubling meets the limit code every later one meets it too (see
        # tilted._root_in_beta): no later probe can meet another code
        if boundary and lengths == limit_code:
            return None
        return divergence, (lengths, beta, divergence)

    def own_root(point: tuple[CodeLengths, float, float]) -> Optional[float]:
        lengths, beta, divergence = point
        return _own_root(_code_terms(mu, lengths), beta, divergence, radius, tol)

    closest = _root_in_beta(probe, radius, tol, own_root)
    return _best_candidate(objective, mu, radius, candidates, tol, regime,
                           BetaSolveTrace(probes=tuple(probes)),
                           None if closest is None else closest[0])


def solve_avg_redundancy(
    ball: DivergenceBall,
    arity: int = 2,
    tol: float = 1e-9,
    strict_boundary: bool = False,
) -> RobustCodeResult:
    """Best prefix code for the worst average redundancy inside the ball.

    Below _rootless_radius the candidates are those of gg, the limit code
    and the codes the probes meet, and no hedged code is needed:
    - There every code keeps its tilt root (_rootless_radius says why).
    - For a code with ratios r = mu D^l and any beta > 0, Donsker and
      Varadhan's bound beta <nu, log r> <= D(nu||mu) + log sum_i mu_i
      r_i^beta gives D(nu||mu) + <nu, log r> <= (1 + 1/beta) R + log sum_i
      mu_i r_i^beta / beta on the ball, with equality at the code's root.
      So a rooted code's supremum (in nats) is the least of these bounds
      over beta.
    - As for gg (solve_gg), the least over rooted codes is then the least
      over beta of the same bound minimised over codes, which exponential
      Huffman on mu^(beta+1) attains (Campbell 1965), and the probes walk
      that envelope.
    In floating point a hedged code can still tie the winner, its supremum
    reading lower by no more than the root tolerance moves one.  At or above
    the radius the hedged codes join the candidates, a heuristic for
    rootless optima (_hedged_codes).

    A rooted code's two suprema sit at the same tilt nu on the shell, where
    avg-red = (D(nu||mu) + <nu, log r>) / log D = gg + R / log D.  Below
    min(-log m_D, r_max), m_D the largest mass of symbols whose log_D mu_i
    share a fractional part (_rootless_radius), every code is rooted, so
    this solve and solve_gg return the same code, their values R / log D
    apart up to the root tolerance over log D: the paper's "sufficiently
    small" ball, with its radius made explicit.
    """
    return _solve(ball, arity, tol, "avg-red", strict_boundary)


def solve_gg(
    ball: DivergenceBall,
    arity: int = 2,
    tol: float = 1e-9,
    strict_boundary: bool = False,
) -> RobustCodeResult:
    """Best prefix code for the worst nominal-referenced redundancy in the ball.

    For radius at or beyond -log min_i mu_i the minimax pointwise code is
    optimal outright and is returned with regime "boundary".  Below that the
    tilt search runs, also between r_max and -log min mu (regime "boundary",
    with beta and a trace), and its candidates are the limit code and the
    codes its probes meet.  No hedged code is needed:
    - For a fixed code gg is linear in nu, <nu, l + log_D mu>.  A code with
      no tilt root at R has its worst case at its limit point, where the
      value is its pointwise redundancy max_i (l_i + log_D mu_i).
    - The limit code minimises that maximum, and its own supremum is at
      most that maximum.  So only a code with a root can beat it.
    - By duality over the ball (Csiszar 1975), a rooted code's supremum is
      min over beta of (R + log sum_i mu_i (mu_i D^l_i)^beta) / (beta log D),
      at least min over beta of Psi(beta), the same expression minimised
      over codes, which exponential Huffman on mu^(beta+1) attains (Campbell
      1965).  That envelope is what the probes walk.
    Below min(-log m_D, r_max) every code is rooted, and a rooted code's
    avg-red supremum is its gg supremum plus R / log D, at the same tilt:
    there solve_avg_redundancy returns this code, its value R / log D above
    this one (solve_avg_redundancy and _rootless_radius say why).
    """
    return _solve(ball, arity, tol, "gg", strict_boundary)
