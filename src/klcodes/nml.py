"""Normalized maximum-likelihood distribution over an uncertainty ball.

The maximal minimax pointwise redundancy problem reduces to coding for the
normalized coordinatewise suprema pi_k = sup {nu_k : nu in ball}.  For a
relative-entropy ball each supremum is either 1 (when the vertex at k is
itself inside, i.e. mu_k >= e^-R) or the larger root of the scalar
equation d(p || mu_k) = R, where d is the binary relative entropy.  The
root is found by Newton's method inside a bisection safeguard, started
from the small-radius closed form
mu_k + sqrt(2 R mu_k (1 - mu_k)); the returned value always carries a
recomputed residual certificate, never the approximation itself.

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
    binary_divergence,
    pinsker_upper,
)
from .errors import (
    DomainError,
    NoConvergenceError,
    SaturatedInputError,
    ZeroProbabilityError,
)
from .huffman import max_huffman, shannon_lengths
from .solver import RobustCodeResult


@dataclass(frozen=True)
class NmlResult:
    """Raw coordinatewise suprema and their normalization.

    roots_residual[k] is |d(raw_k || mu_k) - R| for root coordinates and 0.0
    for saturated ones (it is empty for the total-variation variant, which
    needs no root-finding).
    """

    raw: tuple[float, ...]
    normalized: Distribution
    saturated: frozenset[int]
    roots_residual: tuple[float, ...]


def solve_pi_k(
    m: float,
    radius: float,
    tol: float = 1e-13,
    return_info: bool = False,
):
    """Larger root of d(p || m) = radius on (m, 1), safeguarded to tolerance tol.

    Newton steps that would leave the current bracket are replaced by
    bisection, so convergence is unconditional; the objective is increasing
    and convex on (m, 1).  At most 60 steps are taken.
    """
    if not (0.0 < m < 1.0):
        raise DomainError(f"m must be in (0, 1), got {m}")
    if not (radius > 0.0):
        raise DomainError(f"radius must be positive, got {radius}")
    _check_tol(tol)
    if m >= math.exp(-radius):
        raise SaturatedInputError(f"m={m} saturates at radius {radius}")

    lo = m + 1e-15
    hi = min(pinsker_upper(m, radius), 1.0 - 1e-15)
    p = min(max(m + math.sqrt(2.0 * radius * (1.0 - m) * m), lo), hi)

    def h(x: float) -> float:
        return binary_divergence(x, m) - radius

    def h1(x: float) -> float:
        return math.log(x * (1.0 - m)) - math.log(m * (1.0 - x))

    steps = 0
    value = h(p)
    for _ in range(60):
        if abs(value) <= tol:
            break
        if value < 0.0:
            lo = max(lo, p)
        else:
            hi = min(hi, p)
        slope = h1(p)
        step = value / slope if slope != 0.0 else math.inf
        trial = p - step
        if not math.isfinite(trial) or not (lo < trial < hi):
            trial = 0.5 * (lo + hi)
        p = trial
        value = h(p)
        steps += 1
    else:
        if abs(value) > tol:
            raise NoConvergenceError(f"root solve stalled at residual {abs(value)}")

    # one polishing step: quadratic convergence puts p at machine accuracy
    slope = h1(p)
    if slope != 0.0:
        trial = p - value / slope
        if math.isfinite(trial) and lo < trial < hi:
            trial_value = h(trial)
            if abs(trial_value) <= abs(value):
                p, value = trial, trial_value
                steps += 1

    if return_info:
        return p, {"residual": abs(value), "iterations": steps}
    return p


def nml_distribution(ball: DivergenceBall, tol: float = 1e-13) -> NmlResult:
    """Coordinatewise suprema over the relative-entropy ball, normalized.

    Coordinate k saturates (pi_k = 1) exactly when mu_k >= e^-R; all other
    coordinates solve the binary-divergence root.  Radius zero returns the
    center unchanged.
    """
    _check_tol(tol)
    mu = ball.center
    radius = ball.radius
    if any(not (0.0 < p < 1.0) for p in mu.probs):
        raise ZeroProbabilityError("center must have entries in (0, 1)")
    if radius == 0.0:
        return NmlResult(
            raw=mu.probs,
            normalized=mu,
            saturated=frozenset(),
            roots_residual=tuple(0.0 for _ in mu.probs),
        )
    cutoff = math.exp(-radius)
    raw: list[float] = []
    residuals: list[float] = []
    saturated: set[int] = set()
    for k, p in enumerate(mu.probs):
        if p >= cutoff:
            saturated.add(k)
            raw.append(1.0)
            residuals.append(0.0)
        else:
            root, info = solve_pi_k(p, radius, tol, return_info=True)
            raw.append(root)
            residuals.append(info["residual"])
    total = math.fsum(raw)
    return NmlResult(
        raw=tuple(raw),
        normalized=Distribution(tuple(r / total for r in raw)),
        saturated=frozenset(saturated),
        roots_residual=tuple(residuals),
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
    )


def pointwise_utility(lengths: CodeLengths, dist: Distribution) -> float:
    """Worst pointwise redundancy max_k (l_k + log_D p_k)."""
    p = dist.as_array()
    l = lengths.as_array()
    nz = p > 0.0
    return float(np.max(l[nz] + np.log(p[nz]) / math.log(lengths.arity)))


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
