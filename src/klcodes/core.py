"""Probability and code-length types plus the divergence primitives.

Everything here is a pure function of immutable inputs.  Divergences are
computed in nats; conversion to code symbols (base D) happens as a final
division by log D wherever a D-ary quantity is returned.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    ArityTooSmallError,
    DimensionMismatchError,
    DomainError,
    KraftViolationError,
    NegativeProbabilityError,
    NonFiniteWeightError,
    NotNormalizedError,
    TooFewSymbolsError,
    ZeroProbabilityError,
)

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class Distribution:
    """A finite probability mass function over at least two symbols.

    The input is renormalized exactly once at construction and treated as
    exact afterwards.  That holds for one object, not for a copy built from
    its probs: when their math.fsum is not exactly 1 the copy renormalizes
    again and may differ in the last bit.  cli._check_code_report is the
    one reader that rebuilds such a copy (the report's worst_case).  Zero
    entries are allowed at the type level; whether
    they are acceptable is the caller's policy (see validate_distribution).
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if len(probs) < 2:
            raise TooFewSymbolsError(f"need at least 2 symbols, got {len(probs)}")
        if any(p < 0.0 for p in probs):
            raise NegativeProbabilityError(f"negative entry in {probs}")
        total = math.fsum(probs)
        # NaN-safe: a NaN entry makes the sum NaN, which fails this test
        if not (abs(total - 1.0) <= NORMALIZATION_TOL):
            raise NotNormalizedError(f"probabilities sum to {total!r}")
        if total != 1.0:
            probs = tuple(p / total for p in probs)
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @cached_property
    def log_probs(self) -> tuple[float, ...]:
        """math.log of each entry (-inf at a zero), computed on the first read only."""
        return tuple(math.log(p) if p > 0.0 else -math.inf for p in self.probs)


@dataclass(frozen=True)
class DivergenceBall:
    """All distributions within relative entropy `radius` (nats) of `center`."""

    center: Distribution
    radius: float

    def __post_init__(self):
        if not (self.radius >= 0.0):
            raise DomainError(f"radius must be >= 0, got {self.radius}")
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True)
class CodeLengths:
    """Codeword length vector of a prefix code with arity D.

    The one place a length vector is checked: every entry is a positive
    integer and the Kraft sum is at most 1, exactly, in integer arithmetic
    (kraft_integer_ok).  Consumers rely on both and check neither again.
    """

    lengths: tuple[int, ...]
    arity: int = 2

    def __post_init__(self):
        object.__setattr__(self, "arity", _check_arity(self.arity))
        lengths = tuple(self.lengths)
        if not lengths:
            raise DomainError("empty length vector")
        try:
            integers = tuple(map(int, lengths))
        except (ValueError, OverflowError):  # NaN, inf
            raise DomainError(f"lengths must be finite integers, got {lengths}") from None
        if integers != lengths or min(integers) < 1:
            raise DomainError(f"lengths must be positive integers, got {lengths}")
        if not kraft_integer_ok(integers, self.arity):
            raise KraftViolationError(f"Kraft sum exceeds 1 for {integers}")
        object.__setattr__(self, "lengths", integers)

    @property
    def m(self) -> int:
        return len(self.lengths)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.lengths, dtype=float)


@dataclass(frozen=True)
class PrefixCode:
    """Explicit codewords over the digit alphabet {0, ..., D-1}."""

    codewords: tuple[str, ...]
    lengths: CodeLengths

    def __post_init__(self):
        codewords = tuple(self.codewords)
        if len(codewords) != self.lengths.m:
            raise DimensionMismatchError("codewords and lengths differ in length")
        if self.lengths.arity > 10:
            raise DomainError("codeword digits are single characters; arity must be <= 10")
        digits = set("0123456789"[: self.lengths.arity])
        for w, l in zip(codewords, self.lengths.lengths):
            if len(w) != l:
                raise DomainError(f"codeword {w!r} does not match length {l}")
            if not set(w) <= digits:
                raise DomainError(f"codeword {w!r} uses digits outside arity {self.lengths.arity}")
        sorted_words = sorted(codewords)
        for a, b in zip(sorted_words, sorted_words[1:]):
            if b.startswith(a):
                raise DomainError(f"codeword {a!r} is a prefix of {b!r}")
        object.__setattr__(self, "codewords", codewords)


def validate_distribution(probs: Sequence[float]) -> Distribution:
    """Check and normalize a nominal probability vector, rejecting any zero entry.

    A zero-probability nominal symbol forces an infinite ideal length
    downstream.  Points that keep zero entries (vertices and other boundary
    points of the simplex) are built as Distribution directly.
    """
    probs = tuple(float(p) for p in probs)
    if 0.0 in probs:
        raise ZeroProbabilityError(f"zero entry in {list(probs)}")
    return Distribution(probs)


def drop_zero_symbols(probs: Sequence[float]) -> list[float]:
    """Remove zero-probability symbols, warning when any are dropped.

    Ingestion helper for nominal distributions: the remainder is meant to be
    renormalized by Distribution construction.
    """
    kept = [p for p in probs if p != 0.0]
    if len(kept) < len(probs):
        warnings.warn(
            f"dropping {len(probs) - len(kept)} zero-probability symbol(s)",
            stacklevel=2,
        )
    return kept


def entropy(nu: Distribution, arity: int = 2) -> float:
    """Entropy of nu in base-`arity` symbols, with 0 log 0 = 0."""
    arity = _check_arity(arity)
    p = nu.as_array()
    nz = p > 0.0
    return float(-np.sum(p[nz] * np.log(p[nz])) / math.log(arity))


def kl_divergence(nu: Distribution, mu: Distribution) -> float:
    """Relative entropy D(nu || mu) in nats, with 0 log(0/q) = 0."""
    if nu.m != mu.m:
        raise DimensionMismatchError(f"dimension mismatch {nu.m} vs {mu.m}")
    p = nu.as_array()
    q = mu.as_array()
    if np.any(q[p > 0.0] == 0.0):
        raise AbsoluteContinuityError("nu puts mass where mu is zero")
    return array_divergence(p, q)


def _stored(rows: np.ndarray) -> np.ndarray:
    """Each row as Distribution stores it: divided by its math.fsum unless that is exactly 1."""
    totals = np.array([math.fsum(row) for row in rows.tolist()]).reshape(-1, 1)
    return np.where(totals == 1.0, rows, rows / totals)


def array_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum_k p_k log(p_k / q_k) over p_k > 0, unchecked; kl_divergence validates."""
    nz = p > 0.0
    p = p[nz]
    return float((p * np.log(p / q[nz])).sum())


def pair_divergence(t: float, a: float, b: float) -> float:
    """t log(t/a) + (1-t) log((1-t)/b): the divergence of a point carried by two symbols."""
    total = 0.0
    if t > 0.0:
        total += t * math.log(t / a)
    if t < 1.0:
        total += (1.0 - t) * math.log((1.0 - t) / b)
    return total


def binary_divergence(p: float, m: float) -> float:
    """Relative entropy between Bernoulli(p) and Bernoulli(m), in nats."""
    if not (0.0 < m < 1.0):
        raise DomainError(f"m must be in (0, 1), got {m}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p must be in [0, 1], got {p}")
    return pair_divergence(p, m, 1.0 - m)


def kraft_sum(lengths: CodeLengths) -> float:
    """Sum of D^(-l_i) over the length vector, in floats: the figure the CLI reports."""
    return float(sum(float(lengths.arity) ** (-float(l)) for l in lengths.lengths))


def kraft_integer_ok(lengths: Sequence[int], arity: int) -> bool:
    """Exact Kraft check for integer lengths: sum D^(L-l_i) <= D^L.

    Summed over the distinct depths, each power once times its count.
    """
    counts = Counter(lengths)
    lmax = max(counts)
    return sum(n * arity ** (lmax - l) for l, n in counts.items()) <= arity ** lmax


def pinsker_upper(m: float, radius: float) -> float:
    """Upper end of the admissible root interval, min(1, m + sqrt(R/2))."""
    if not (0.0 < m < 1.0):
        raise DomainError(f"m must be in (0, 1), got {m}")
    if not radius >= 0.0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    return min(1.0, m + math.sqrt(radius / 2.0))


def ceil_log_inv(p: float, arity: int) -> int:
    """Smallest positive integer l with arity^(-l) <= p, exact over the float p.

    The comparison is done in integer arithmetic on the exact binary value of
    p, so boundary cases (p an exact power of the arity) never round the
    wrong way.
    """
    arity = _check_arity(arity)
    if not (0.0 < p <= 1.0):
        raise DomainError(f"probability must be in (0, 1], got {p}")
    frac = Fraction(p)
    guess = max(1, math.ceil(-math.log(p) / math.log(arity)))
    # arity^(-l) <= p  <=>  frac.denominator <= frac.numerator * arity^l
    while frac.denominator > frac.numerator * arity**guess:
        guess += 1
    while guess > 1 and frac.denominator <= frac.numerator * arity ** (guess - 1):
        guess -= 1
    return guess


def _check_beta(beta: float) -> None:
    """Require a tilt parameter 0 < beta < inf (NaN fails too)."""
    if not (0.0 < beta < math.inf):
        raise DomainError(f"beta must be positive and finite, got {beta}")


def _check_arity(arity) -> int:
    """The arity as a Python int >= 2, through operator.index.

    A float arity raises DomainError, an integer below 2 ArityTooSmallError.
    """
    try:
        arity = operator.index(arity)
    except TypeError:
        raise DomainError(f"arity must be an integer, got {arity!r}") from None
    if arity < 2:
        raise ArityTooSmallError(f"arity must be >= 2, got {arity}")
    return arity


def _check_weights(weights, arity) -> tuple[np.ndarray, int]:
    """Finite nonnegative weights, at least two, as an array; and the checked arity."""
    arity = _check_arity(arity)
    w = np.asarray(list(weights), dtype=float)
    if w.size < 2:
        raise TooFewSymbolsError(f"need at least 2 weights, got {w.size}")
    if np.any(~np.isfinite(w)):
        raise NonFiniteWeightError(f"non-finite weight in {w}")
    if np.any(w < 0.0):
        raise DomainError(f"negative weight in {w}")
    return w, arity


def _check_tol(tol: float) -> None:
    """Require a tolerance tol >= 0 (NaN fails too)."""
    if not (tol >= 0.0):
        raise DomainError(f"tol must be >= 0, got {tol}")


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with max subtraction; tolerates -inf entries."""
    values = np.asarray(values, dtype=float)
    hi = values.max()
    if hi == -np.inf:
        return -np.inf
    return float(hi + np.log(np.exp(values - hi).sum()))
