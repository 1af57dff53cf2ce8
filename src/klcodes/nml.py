"""Normalized maximum-likelihood distribution over an uncertainty ball.

The maximal minimax pointwise redundancy problem reduces to coding for the
normalized coordinatewise suprema pi_k = sup {nu_k : nu in ball}.  For a
relative-entropy ball each supremum is either 1 (when the vertex at k is
itself inside, i.e. mu_k >= e^-R) or the larger root of the scalar
equation d(p || mu_k) = R, where d is the binary relative entropy.  The
roots are found by Newton's method inside a bisection safeguard, started
from the small-radius closed form mu_k + sqrt(2 R mu_k (1 - mu_k)), for
all coordinates at once in one numpy kernel (_pi_roots); solve_pi_k is its
one-coordinate call and returns the root alone.  The kernel takes its
logarithms with numpy, which can differ from math.log in the last bit, so
a root may differ in its last bits from a scalar loop written with
math.log.  Every returned value carries a recomputed residual
certificate, never the approximation itself.

The total-variation ball admits the same reduction with the trivial
suprema min(1, mu_k + T/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CodeLengths,
    Distribution,
    DivergenceBall,
    _check_tol,
)
from .errors import (
    DomainError,
    NoConvergenceError,
    SaturatedInputError,
    ZeroProbabilityError,
)
from .huffman import max_huffman, shannon_lengths
from .solver import RobustCodeResult
from .tilted import pointwise_utility

_TINY = np.finfo(float).tiny  # smallest normal float
_HUGE = np.finfo(float).max
# Below this centre entry x / m may overflow or m (1 - x) underflow for some
# x in the root bracket (1 - x >= 1e-15 there); above it neither can.
_GUARD_BELOW = _TINY * 1e16


@dataclass(frozen=True)
class NmlResult:
    """Raw coordinatewise suprema and their normalization.

    roots_residual[k] is |d(raw_k || mu_k) - R| for root coordinates and 0.0
    for saturated ones; iterations[k] counts the Newton and bisection steps
    of its root, a kept polishing step included, and is 0 for saturated
    ones.  Both are empty for the total-variation variant, which needs no
    root-finding.
    """

    raw: tuple[float, ...]
    normalized: Distribution
    saturated: frozenset[int]
    roots_residual: tuple[float, ...]
    iterations: tuple[int, ...]


def _excess(x: np.ndarray, m: np.ndarray, q: np.ndarray, radius: float, guard: bool) -> np.ndarray:
    """d(x || m) - radius elementwise, with q = 1 - m.

    With guard, the log of x / m is taken as log x - log m wherever the
    quotient leaves the normal floats; every other entry keeps its bits.
    """
    r = 1.0 - x
    ratio = x / m
    log_ratio = np.log(ratio)
    if guard:
        off = ~((ratio >= _TINY) & (ratio <= _HUGE))
        log_ratio[off] = np.log(x[off]) - np.log(m[off])
    return x * log_ratio + r * np.log(r / q) - radius


def _slope(x: np.ndarray, m: np.ndarray, q: np.ndarray, guard: bool) -> np.ndarray:
    """Derivative of d(x || m) in x, log(x q) - log(m (1 - x)), with q = 1 - m.

    With guard, log(m (1 - x)) is taken as log m + log(1 - x) wherever the
    product underflows; every other entry keeps its bits.
    """
    r = 1.0 - x
    low = m * r
    log_low = np.log(low)
    if guard:
        off = ~(low >= _TINY)
        log_low[off] = np.log(m[off]) + np.log(r[off])
    return np.log(x * q) - log_low


def _pi_roots(m: np.ndarray, radius: float, tol: float):
    """Larger roots of d(p || m_k) = radius for an array of unsaturated entries m.

    Every entry runs the same iteration: the closed-form start inside the
    bracket [m + 1e-15, min(m + sqrt(R/2), 1 - 1e-15)], Newton steps that
    shrink the bracket, bisection when a step would leave it, at most 60
    steps, then one polishing step kept only when it does not raise the
    residual.  An entry within tol leaves the compacted active arrays.
    Returns (roots, residuals, steps); raises NoConvergenceError, naming
    the first entry still above tol, after 60 steps.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        q = 1.0 - m
        lo = m + 1e-15
        hi = np.minimum(np.minimum(1.0, m + math.sqrt(radius / 2.0)), 1.0 - 1e-15)
        p = np.minimum(np.maximum(m + np.sqrt(2.0 * radius * q * m), lo), hi)
        guard = bool(np.count_nonzero(m < _GUARD_BELOW))
        value, slope = _excess(p, m, q, radius, guard), _slope(p, m, q, guard)
        steps = np.zeros(m.size, dtype=np.int64)
        # the unfinished entries: where they sit in m, and their state
        index = np.arange(m.size)
        x, v, s, mk, qk, a, b = p, value, slope, m, q, lo, hi
        for step in range(61):
            done = np.abs(v) <= tol
            if np.count_nonzero(done):
                fin = index[done]
                p[fin], value[fin], slope[fin] = x[done], v[done], s[done]
                lo[fin], hi[fin], steps[fin] = a[done], b[done], step
                active = ~done
                index, x, v, s, mk, qk, a, b = (
                    arr[active] for arr in (index, x, v, s, mk, qk, a, b)
                )
            if not index.size or step == 60:
                break
            below = v < 0.0
            np.maximum(a, x, out=a, where=below)
            np.minimum(b, x, out=b, where=~below)
            # a zero slope gives an infinite step, which fails the bracket test too
            x = x - v / s
            x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
            v, s = _excess(x, mk, qk, radius, guard), _slope(x, mk, qk, guard)
        if index.size:
            raise NoConvergenceError(f"root solve stalled at residual {abs(v[0])}")

        # one polishing step: quadratic convergence puts p at machine accuracy
        trial = p - value / slope
        trial_value = _excess(trial, m, q, radius, guard)
        keep = (lo < trial) & (trial < hi) & (np.abs(trial_value) <= np.abs(value))
        p = np.where(keep, trial, p)
        value = np.where(keep, trial_value, value)
    return p, np.abs(value), steps + keep


def solve_pi_k(m: float, radius: float) -> float:
    """Larger root of d(p || m) = radius on (m, 1), safeguarded to residual 1e-13.

    Newton steps that would leave the current bracket are replaced by
    bisection, so convergence is unconditional; the objective is increasing
    and convex on (m, 1).  At most 60 steps are taken.  This is the
    one-entry case of the kernel nml_distribution runs on every unsaturated
    coordinate at once, at that call's default tolerance, so both return
    the same bits; the root's residual and step count are read from
    nml_distribution's roots_residual and iterations.
    """
    if not (0.0 < m < 1.0):
        raise DomainError(f"m must be in (0, 1), got {m}")
    if not (radius > 0.0):
        raise DomainError(f"radius must be positive, got {radius}")
    if m >= math.exp(-radius):
        raise SaturatedInputError(f"m={m} saturates at radius {radius}")

    return float(_pi_roots(np.array([m], dtype=float), radius, 1e-13)[0][0])


def nml_distribution(ball: DivergenceBall, tol: float = 1e-13) -> NmlResult:
    """Coordinatewise suprema over the relative-entropy ball, normalized.

    Coordinate k saturates (pi_k = 1) exactly when mu_k >= e^-R; all other
    coordinates solve their binary-divergence roots in one call of
    _pi_roots, the kernel behind solve_pi_k.  Radius zero returns the
    center unchanged.
    """
    _check_tol(tol)
    mu = ball.center
    radius = ball.radius
    probs = mu.as_array()
    # an entry of 1.0 saturates at every radius above 0, so it needs no root
    if not np.all(probs > 0.0):
        raise ZeroProbabilityError("center must have positive entries")
    if radius == 0.0:
        return NmlResult(
            raw=mu.probs,
            normalized=mu,
            saturated=frozenset(),
            roots_residual=tuple(0.0 for _ in mu.probs),
            iterations=tuple(0 for _ in mu.probs),
        )
    saturated = probs >= math.exp(-radius)
    roots = np.ones(mu.m)
    residuals = np.zeros(mu.m)
    iterations = np.zeros(mu.m, dtype=np.int64)
    solved = ~saturated
    roots[solved], residuals[solved], iterations[solved] = _pi_roots(probs[solved], radius, tol)
    raw = tuple(roots.tolist())
    total = math.fsum(raw)
    return NmlResult(
        raw=raw,
        normalized=Distribution(tuple(r / total for r in raw)),
        saturated=frozenset(np.flatnonzero(saturated).tolist()),
        roots_residual=tuple(residuals.tolist()),
        iterations=tuple(iterations.tolist()),
    )


def nml_tv(mu: Distribution, tv: float) -> NmlResult:
    """Coordinatewise suprema over a total-variation ball: min(1, mu_k + T/2)."""
    if not (0.0 <= tv < math.inf):
        raise DomainError(f"total variation must be finite and >= 0, got {tv}")
    raw = tuple(min(1.0, p + tv / 2.0) for p in mu.probs)
    total = math.fsum(raw)
    return NmlResult(
        raw=raw,
        normalized=Distribution(tuple(r / total for r in raw)),
        saturated=frozenset(k for k, r in enumerate(raw) if r >= 1.0),
        roots_residual=(),
        iterations=(),
    )


def robust_shannon_pointwise(ball: DivergenceBall, arity: int = 2) -> CodeLengths:
    """Shannon code on the normalized suprema: ceil(-log_D pi_k)."""
    return shannon_lengths(nml_distribution(ball).normalized, arity)


def pointwise_code(ball: DivergenceBall, suprema: NmlResult, arity: int) -> RobustCodeResult:
    """Max-combining code on the solved suprema of this ball.

    The reduced adversary (the normalized NML distribution) is reported as
    the worst case.
    """
    lengths = max_huffman(suprema.normalized.probs, arity)
    return RobustCodeResult(
        lengths=lengths,
        beta=None,
        worst_case=suprema.normalized,
        achieved_utility=pointwise_utility(lengths, suprema.normalized),
        regime="zero_radius" if ball.radius == 0.0 else "reduced",
    )


def robust_huffman_pointwise(ball: DivergenceBall, arity: int = 2) -> RobustCodeResult:
    """Optimal prefix code for maximal minimax pointwise redundancy."""
    return pointwise_code(ball, nml_distribution(ball), arity)
