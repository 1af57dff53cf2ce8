"""Output checks for the benchmark, written apart from the program.

Every formula here (divergence, objectives, Kraft, the tilt bisection and
the minimax pointwise value) is re-derived from the definitions rather than
imported from klcodes, so a fault shared by the program and its own tests
still shows up as a failed check.  Each check raises CheckFailure with a
one-line reason; the benchmark counts a run as incorrect on the first one.

Inputs are plain Python sequences (lengths, codewords, probabilities), so
the same checks serve library results and parsed CLI reports.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Sequence

import numpy as np

# The program's tilt roots are solved to 1e-12 in divergence and its
# suprema come from numpy sums; 1e-9 leaves room for rounding only.
VALUE_TOL = 1e-9
BALL_TOL = 1e-9
ROOT_RESIDUAL_TOL = 1e-10
POINTWISE_TOL = 1e-12


class CheckFailure(AssertionError):
    """An output of the program disagrees with the benchmark's formulas."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailure(reason)


# ---------------------------------------------------------------- formulas


def divergence(nu: Sequence[float], mu: Sequence[float]) -> float:
    """D(nu || mu) in nats, with 0 log 0 = 0 and +inf off the support of mu."""
    a = np.asarray(nu, dtype=float)
    b = np.asarray(mu, dtype=float)
    nz = a > 0.0
    if np.any(b[nz] <= 0.0):
        return math.inf
    return float(np.sum(a[nz] * np.log(a[nz] / b[nz])))


def avg_red(lengths: Sequence[int], nu: Sequence[float], arity: int) -> float:
    """Expected length minus entropy, in base-`arity` symbols."""
    log_d = math.log(arity)
    return math.fsum(a * (l + math.log(a) / log_d) for a, l in zip(nu, lengths) if a > 0.0)


def gg_value(lengths: Sequence[int], nu: Sequence[float], mu: Sequence[float], arity: int) -> float:
    """Redundancy against the nominal ideal code: sum nu_k (l_k + log_D mu_k)."""
    log_d = math.log(arity)
    return math.fsum(a * (l + math.log(b) / log_d)
                     for a, l, b in zip(nu, lengths, mu) if a > 0.0)


def objective(name: str, lengths, nu, mu, arity: int) -> float:
    if name == "avg":
        return avg_red(lengths, nu, arity)
    if name == "gg":
        return gg_value(lengths, nu, mu, arity)
    raise ValueError(f"unknown objective {name!r}")


def huffman_lengths(weights: Sequence[float]) -> list[int]:
    """Binary Huffman code lengths by repeated merging of the two lightest."""
    heap = [(w, i, (i,)) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    depth = [0] * len(weights)
    order = len(weights)
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        for leaf in a + b:
            depth[leaf] += 1
        heapq.heappush(heap, (w1 + w2, order, a + b))
        order += 1
    return depth


def tilt_point(mu: np.ndarray, lengths: np.ndarray, arity: int, beta: float) -> np.ndarray:
    """nu_i proportional to mu_i^(beta+1) D^(beta l_i), normalised in log domain."""
    logw = (beta + 1.0) * np.log(mu) + beta * math.log(arity) * lengths
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def tilt_worst_case(mu: Sequence[float], lengths: Sequence[int], arity: int,
                    radius: float) -> np.ndarray | None:
    """Member of the code's tilt family at divergence `radius`, by bisection on beta.

    Returns None when the family's limit (mu restricted to the symbols of
    largest mu_i D^l_i) is itself within the radius, so no member reaches
    the ball's boundary.
    """
    p = np.asarray(mu, dtype=float)
    l = np.asarray(lengths, dtype=float)
    score = np.log(p) + l * math.log(arity)
    top = score >= score.max() - 1e-12
    if -math.log(math.fsum(p[top])) <= radius:
        return None
    lo, hi = 0.0, 1.0
    while divergence(tilt_point(p, l, arity, hi), p) < radius:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if divergence(tilt_point(p, l, arity, mid), p) < radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return tilt_point(p, l, arity, hi)


def ball_points(mu: Sequence[float], radius: float, rng: np.random.Generator,
                n_dirichlet: int) -> list[np.ndarray]:
    """Points of the ball built here: the centre, in-ball vertices, Dirichlet draws.

    A Dirichlet(1) draw outside the ball is pulled toward the centre along
    the segment joining them, to just inside the boundary crossing.
    """
    p = np.asarray(mu, dtype=float)
    m = p.size
    points = [p.copy()]
    for k in range(m):
        if -math.log(p[k]) <= radius:
            vertex = np.zeros(m)
            vertex[k] = 1.0
            points.append(vertex)
    for _ in range(n_dirichlet):
        target = rng.dirichlet(np.ones(m))
        lo, hi = 0.0, 1.0
        if divergence(target, p) <= radius:
            lo = 1.0
        else:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if divergence(p + mid * (target - p), p) <= radius:
                    lo = mid
                else:
                    hi = mid
        points.append(p + lo * (target - p))
    return points


def pointwise_optimum(pi_hat: Sequence[float], arity: int) -> float:
    """Optimal value of max_k (l_k + log_D pi_k) over integer prefix codes.

    The value c is feasible when the lengths floor(c - log_D pi_k) meet
    Kraft, and the optimum is the smallest feasible c of the form
    j + log_D pi_k.  It lies in [0, 1) (Kraft on one side, the Shannon
    code on the other), which leaves one candidate per symbol.
    """
    logs = [math.log(q) / math.log(arity) for q in pi_hat]
    candidates = sorted(lg + math.ceil(-lg) for lg in logs)

    def feasible(c: float) -> bool:
        lengths = [math.floor(c - lg + 1e-9) for lg in logs]
        return min(lengths) >= 1 and kraft_ok(lengths, arity)

    lo, hi = 0, len(candidates) - 1
    require(feasible(candidates[hi]), "no candidate pointwise value is feasible")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def kraft_ok(lengths: Sequence[int], arity: int) -> bool:
    """Exact Kraft test sum D^(L - l_k) <= D^L, in integers, grouped by length."""
    top = max(lengths)
    return sum(n * arity ** (top - l) for l, n in Counter(lengths).items()) <= arity ** top


# ------------------------------------------------------------------ checks


def check_code(lengths: Sequence, codewords: Sequence[str] | None, arity: int) -> None:
    """Integer lengths, an exact Kraft sum of at most 1, prefix-free codewords."""
    bad = [l for l in lengths
           if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or l < 1]
    require(not bad, f"length {bad[:1]} is not a positive integer")
    require(kraft_ok([int(l) for l in lengths], arity), "Kraft sum exceeds 1")
    if codewords is None:
        return
    require(len(codewords) == len(lengths), "codeword count differs from length count")
    digits = set("0123456789"[:arity])
    for word, l in zip(codewords, lengths):
        if len(word) != l or not set(word) <= digits:
            raise CheckFailure(f"codeword {word!r} is not {l} digits below {arity}")
    ordered = sorted(codewords)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            raise CheckFailure(f"codeword {a!r} is a prefix of {b!r}")


def check_ball_result(name: str, mu, radius: float, lengths, worst, value: float,
                      arity: int, rng: np.random.Generator, n_dirichlet: int = 4) -> None:
    """A worst case inside the ball, its value, and dominance over sampled points."""
    d = divergence(worst, mu)
    require(d <= radius + BALL_TOL, f"worst case lies outside the ball: D={d!r} > R={radius!r}")
    at_worst = objective(name, lengths, worst, mu, arity)
    require(abs(at_worst - value) <= VALUE_TOL,
            f"reported value {value!r} differs from the objective at the worst case {at_worst!r}")
    for point in ball_points(mu, radius, rng, n_dirichlet):
        at_point = objective(name, lengths, point, mu, arity)
        if at_point > value + VALUE_TOL:
            raise CheckFailure(f"value {value!r} is below the objective {at_point!r} "
                               "at a ball point")


def check_beats_nominal_huffman(name: str, mu, radius: float, value: float, arity: int) -> None:
    """The minimax value is at most the worst case of the nominal Huffman code."""
    require(arity == 2, "the Huffman competitor is binary")
    lengths = huffman_lengths(mu)
    worst = tilt_worst_case(mu, lengths, arity, radius)
    require(worst is not None, "the nominal Huffman code has no tilt root at this radius")
    competitor = objective(name, lengths, worst, mu, arity)
    require(value <= competitor + VALUE_TOL,
            f"value {value!r} exceeds the nominal Huffman worst case {competitor!r}")


def check_nml(mu, radius: float, raw, normalized) -> None:
    """Each supremum is a certified root in its interval, or saturated by rule."""
    m = np.asarray(mu, dtype=float)
    r = np.asarray(raw, dtype=float)
    saturate = m >= math.exp(-radius)
    bad = np.nonzero(saturate != (r == 1.0))[0]
    if bad.size:
        raise CheckFailure(f"coordinate {bad[0]} breaks the saturation rule mu_k >= e^-R")
    m, r = m[~saturate], r[~saturate]
    with np.errstate(divide="ignore", invalid="ignore"):
        div = r * np.log(r / m) + (1.0 - r) * np.log((1.0 - r) / (1.0 - m))
    residual = np.abs(div - radius)
    bad = np.nonzero(~(residual <= ROOT_RESIDUAL_TOL))[0]
    if bad.size:
        raise CheckFailure(f"root residual {residual[bad[0]]!r} above {ROOT_RESIDUAL_TOL}")
    upper = np.minimum(1.0, m + math.sqrt(radius / 2.0))
    require(bool(np.all((m < r) & (r <= upper))), "a root lies outside (mu_k, mu_k + sqrt(R/2)]")
    q = np.asarray(normalized, dtype=float)
    expected = np.asarray(raw, dtype=float) / math.fsum(raw)
    bad = np.nonzero(~(np.abs(expected - q) <= 1e-15 + 1e-12 * q))[0]
    if bad.size:
        raise CheckFailure(f"normalised supremum {bad[0]} is {q[bad[0]]!r}, "
                           f"expected {expected[bad[0]]!r}")


def check_pointwise_value(lengths, pi_hat, value: float, arity: int) -> None:
    """The code's value is its own max_k (l_k + log_D pi_k) and the optimum."""
    log_d = math.log(arity)
    own = max(l + math.log(q) / log_d for l, q in zip(lengths, pi_hat))
    require(abs(own - value) <= POINTWISE_TOL,
            f"reported pointwise value {value!r} differs from the code's {own!r}")
    best = pointwise_optimum(pi_hat, arity)
    require(abs(best - value) <= POINTWISE_TOL,
            f"pointwise value {value!r} is not the optimum {best!r}")


def check_verify_text(text: str) -> None:
    """A verify report with every check passed."""
    lines = text.strip().splitlines()
    require(bool(lines), "verify printed nothing")
    for line in lines:
        if line.startswith("FAIL"):
            raise CheckFailure(f"verify reported {line!r}")
    passed, _, total = lines[-1].split(" ")[0].partition("/")
    require(lines[-1].endswith("checks passed") and passed == total and int(total) > 0,
            f"verify summary {lines[-1]!r}")
