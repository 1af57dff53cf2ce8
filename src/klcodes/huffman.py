"""Code-construction kernels.

Three greedy tree builders run one merge loop and differ only in how a
merged node's weight is formed from its children:

  huffman             new = a_1 + ... + a_D          (minimizes sum w_k * l_k)
  exponential_huffman new = D^beta * (a_1 + ... + a_D)
                                          (minimizes sum w_k * D^(beta l_k))
  max_huffman         new = D * max(a_1, ..., a_D)
                                          (minimizes max_k  w_k * D^l_k)

Plain Huffman merges its linear weights: nonnegative weights need no log
domain, and a sum that overflows to inf merges last, its ties broken by
creation order.  The exponential and max rules work on log-weights:
D^(beta*l) overflows for moderate beta, and the limit checks push beta
to 1e3.  Zero log-weights are -inf and behave correctly under both of
their combining rules.

Ties are broken by (weight, creation order), original items before merged
nodes, so outputs are deterministic across runs and platforms.  For D > 2
the weight list is padded with zero-weight dummies until (M'-1) mod (D-1)
= 0; dummy leaves are dropped from the returned vector.

The leaves are sorted once, and merged nodes wait in a FIFO of node ids
(van Leeuwen 1976): under the sum and max rules each sibling group is no
lighter, child by child, than the one before, and float + and max are
monotone, so parents come out in nondecreasing order.  A rounded
exponential merge can come out below the one before; it is inserted into
the unread part of the FIFO in weight order, after its equals, so the pop
order is always that of one heap over every node.  The tree is a parent
array, so a build makes no node objects.

One function, _exponential_merge, forms every exponential-rule parent
weight, for the build and for _certifies_exponential.  The latter decides,
without a build, whether the exponential rule would return a given length
vector: it rebuilds that tree level by level in the build's own floats and
checks Gallager's sibling property with strict gaps between sibling
groups; a tie between groups falls back to the build.  The tilt probe
solver.g_of_beta uses it to return the code the previous probe met when
that code is certified.
"""

from __future__ import annotations

import math
from bisect import insort
from functools import partial

import numpy as np

from .core import (
    CodeLengths,
    Distribution,
    PrefixCode,
    _check_arity,
    _check_beta,
    _check_weights,
    ceil_log_inv,
)
from .errors import (
    AllZeroWeightsError,
    LimitExceededError,
    NonFiniteWeightError,
    TooFewSymbolsError,
    ZeroProbabilityError,
)


def _dummy_count(m: int, arity: int) -> int:
    if arity == 2:
        return 0
    return (-(m - 1)) % (arity - 1)


def _build_tree(weights, arity, combine) -> list[int]:
    """Run the greedy merge loop; returns the depth of every leaf, dummies last.

    Missing dummies are padded as -inf, the log-domain zero; a caller on
    linear weights passes its 0.0 dummies already padded.  One list holds
    every node's weight by node id, node ids after the leaves being
    creation order.  The leaves are sorted once by (weight, id); merged
    ids wait in a FIFO read from `head`, whose unwritten end holds the ids
    not made yet, weighing inf.  Each pop takes the front leaf when it
    weighs no more than the FIFO's front, a leaf's id being the smaller,
    so the pop order is that of one heap of (weight, id) over every node.
    A parent lighter than one already in the FIFO (of this module's
    rules, only a rounded exponential merge) is moved into the unread part
    by weight, after its equals, its id being the largest.  combine gets the children's weights
    in pop order, so ascending with the largest last.
    """
    m = len(weights)
    leaves = m + _dummy_count(m, arity)
    nodes = leaves + (leaves - 1) // (arity - 1)
    weight = list(weights) + [-math.inf] * (leaves - m)
    order = sorted(range(leaves), key=weight.__getitem__)
    # sentinels: nan is never <= a merged weight, and no leaf weighs above inf
    queue = [weight[leaf] for leaf in order] + [math.nan]
    weight += [math.inf] * (nodes - leaves)
    fifo = list(range(leaves, nodes))
    parent = [0] * nodes
    front = head = 0
    top = -math.inf
    pops = range(arity)
    for node in range(leaves, nodes):
        children = []
        for _ in pops:
            leaf_weight = queue[front]
            merged = fifo[head]
            if leaf_weight <= weight[merged]:
                parent[order[front]] = node
                front += 1
                children.append(leaf_weight)
            else:
                parent[merged] = node
                head += 1
                children.append(weight[merged])
        new = weight[node] = combine(children)
        if new < top:
            del fifo[node - leaves]
            insort(fifo, node, head, node - leaves, key=weight.__getitem__)
        else:
            top = new
    depths = [0] * nodes
    for node in range(nodes - 2, -1, -1):
        depths[node] = depths[parent[node]] + 1
    return depths[:leaves]


def _exponential_merge(bump, children, exp=math.exp, log=math.log) -> float:
    """The exponential rule's parent weight: bump + lse of the ascending children.

    The terms below the top child are summed left to right; exp and log are
    bound as defaults because this runs once per merge.
    """
    hi = children[-1]
    if hi == -math.inf:
        return hi
    total = 0.0
    for child in children[:-1]:
        total += exp(child - hi)
    return bump + (hi + log(total + 1.0))


def _certifies_exponential(log_weights: list[float], beta: float, arity: int,
                           lengths: CodeLengths) -> bool:
    """Whether exponential_huffman_log(log_weights, beta, arity) returns lengths; no build.

    The sibling property (Gallager 1978): the tree of the lengths is
    rebuilt level by level, deepest first, the -inf dummies padding the
    deepest level.  Each level's nodes are its leaves and the parents
    made from the level below, in ascending weight; every D consecutive
    nodes form a sibling group, whose parent is _exponential_merge of the
    group, the build's own merge on the build's own floats.  If every group
    lies strictly above the group before it, in that order across all
    levels, the greedy build pops exactly these groups in turn: when a
    group's turn comes its members all exist (their children are in
    earlier groups) and they are the D lightest nodes left.  So the build
    returns these lengths whatever its tie rule, and merges each group into
    the same float.  A tie between groups, a level whose node count is not
    a multiple of D, or a non-finite weight returns False; the caller then
    builds.
    """
    _check_beta(beta)
    arity = _check_arity(arity)
    depths = lengths.lengths
    if lengths.arity != arity or len(depths) != len(log_weights):
        return False
    # the sum is finite only if every weight is (nan or inf otherwise)
    if not math.isfinite(sum(log_weights)):
        return False
    merge = partial(_exponential_merge, beta * math.log(arity))
    levels: list[list[float]] = [[] for _ in range(max(depths))]
    for length, weight in zip(depths, log_weights):
        levels[length - 1].append(weight)
    parents = [-math.inf] * _dummy_count(len(depths), arity)
    top = math.nan  # no comparison with nan holds: the first group passes
    for level in reversed(levels):
        nodes = sorted(level + parents)
        if len(nodes) % arity:
            return False
        parents = []
        for start in range(0, len(nodes), arity):
            if nodes[start] <= top:
                return False
            group = nodes[start:start + arity]
            top = group[-1]
            parents.append(merge(group))
    return len(parents) == 1


def _sum_ascending(values: list[float]) -> float:
    """Left-to-right float sum; the built-in sum compensates from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def _log_weights(w: np.ndarray) -> list[float]:
    with np.errstate(divide="ignore"):
        return np.log(w).tolist()


def huffman(weights, arity: int = 2) -> CodeLengths:
    """Optimal integer lengths for expected length sum w_k * l_k."""
    w, arity = _check_weights(weights, arity)
    padded = w.tolist() + [0.0] * _dummy_count(w.size, arity)
    depths = _build_tree(padded, arity, _sum_ascending)
    return CodeLengths(tuple(depths[: w.size]), arity=arity)


def exponential_huffman(weights, beta: float, arity: int = 2) -> CodeLengths:
    """Optimal integer lengths for the exponential cost sum w_k * D^(beta l_k).

    Merges the D smallest weights into D^beta times their sum.  beta -> 0
    recovers plain Huffman; beta -> infinity approaches the minimax
    pointwise solution.
    """
    w, arity = _check_weights(weights, arity)
    return exponential_huffman_log(_log_weights(w), beta, arity)


def exponential_huffman_log(log_weights, beta: float, arity: int = 2) -> CodeLengths:
    """Exponential Huffman on log-domain weights (need not be normalized).

    This is the entry to use when the weights themselves come out of an
    exponential tilt: converting them through linear domain underflows to
    exact zeros long before beta reaches the limit-test range, and the
    merge order then collapses onto tie-breaking noise.
    """
    _check_beta(beta)
    arity = _check_arity(arity)
    log_weights = [float(x) for x in log_weights]
    if len(log_weights) < 2:
        raise TooFewSymbolsError(f"need at least 2 weights, got {len(log_weights)}")
    if any(math.isnan(x) or x == math.inf for x in log_weights):
        raise NonFiniteWeightError(f"bad log-weight in {log_weights}")
    merge = partial(_exponential_merge, beta * math.log(arity))
    depths = _build_tree(log_weights, arity, merge)
    return CodeLengths(tuple(depths[: len(log_weights)]), arity=arity)


def max_huffman(weights, arity: int = 2) -> CodeLengths:
    """Integer lengths minimizing the worst case max_k w_k * D^l_k.

    The beta -> infinity member of the exponential family: the D smallest
    weights merge into D times the largest child.
    """
    w, arity = _check_weights(weights, arity)
    if not np.any(w > 0.0):
        raise AllZeroWeightsError("all weights are zero")
    bump = math.log(arity)

    def combine(children):
        return bump + children[-1]

    depths = _build_tree(_log_weights(w), arity, combine)
    return CodeLengths(tuple(depths[: w.size]), arity=arity)


def shannon_lengths(mu: Distribution, arity: int = 2) -> CodeLengths:
    """Lengths ceil(-log_D mu_i); Kraft-feasible by construction."""
    if any(p == 0.0 for p in mu.probs):
        raise ZeroProbabilityError("Shannon lengths need strictly positive probabilities")
    return CodeLengths(tuple(ceil_log_inv(p, arity) for p in mu.probs), arity=arity)


def canonical_codewords(lengths: CodeLengths) -> PrefixCode:
    """Canonical prefix code for the lengths, which CodeLengths has checked.

    A vector corrupted past that check spells colliding codewords, which
    PrefixCode rejects with DomainError.  Symbols are processed by (length, input position) and codewords assigned
    in counting order; the result is returned in input order.  Digits are
    single characters, so an arity above 10 raises LimitExceededError.
    """
    ls = lengths.lengths
    arity = lengths.arity
    if arity > 10:
        raise LimitExceededError("codeword digits are single characters; arity must be <= 10")

    digits = "0123456789"[:arity]
    words: list[str] = [""] * len(ls)
    code = 0
    prev_len = None
    for pos in sorted(range(len(ls)), key=lambda i: (ls[i], i)):
        l = ls[pos]
        if prev_len is not None:
            code = (code + 1) * arity ** (l - prev_len)
        prev_len = l
        value = code
        word = []
        for _ in range(l):
            value, digit = divmod(value, arity)
            word.append(digits[digit])
        words[pos] = "".join(reversed(word))
    return PrefixCode(tuple(words), lengths)
