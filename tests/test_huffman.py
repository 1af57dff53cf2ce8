import heapq
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from klcodes.core import (
    CodeLengths,
    Distribution,
    kraft_integer_ok,
    kraft_sum,
    log_sum_exp,
    validate_distribution,
)
from klcodes.errors import (
    AllZeroWeightsError,
    ArityTooSmallError,
    DomainError,
    NonFiniteWeightError,
    ZeroProbabilityError,
)
from klcodes.huffman import (
    _build_tree,
    _certifies_exponential,
    _dummy_count,
    canonical_codewords,
    exponential_huffman,
    exponential_huffman_log,
    huffman,
    max_huffman,
    shannon_lengths,
)
from klcodes.oracle import brute_min_over_codes, default_l_max, weight_cost


def test_huffman_uniform_four():
    assert sorted(huffman([0.25] * 4).lengths) == [2, 2, 2, 2]


def test_huffman_cost_frozen():
    lengths = huffman([0.4, 0.3, 0.2, 0.1])
    assert weight_cost("linear_cost", [0.4, 0.3, 0.2, 0.1], lengths) == pytest.approx(1.9, abs=1e-12)


def test_huffman_ternary_single_level():
    assert huffman([0.5, 0.3, 0.2], arity=3).lengths == (1, 1, 1)


def test_huffman_rejects_bad_arity():
    with pytest.raises(ArityTooSmallError):
        huffman([0.5, 0.5], arity=1)


@pytest.mark.parametrize("build", [
    lambda arity: huffman([0.5, 0.3, 0.2], arity),
    lambda arity: max_huffman([0.5, 0.3, 0.2], arity),
    lambda arity: exponential_huffman([0.5, 0.3, 0.2], 1.0, arity),
    lambda arity: exponential_huffman_log([-1.0, -2.0, -3.0], 1.0, arity),
], ids=["huffman", "max_huffman", "exponential_huffman", "exponential_huffman_log"])
def test_builders_take_an_integral_arity_only(build):
    # a float arity used to raise a bare TypeError from list repetition
    with pytest.raises(DomainError, match="arity must be an integer"):
        build(3.0)
    assert build(np.int64(3)) == build(3) == CodeLengths((1, 1, 1), arity=3)


def test_exponential_huffman_small_beta_reduces_to_huffman():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        w = rng.dirichlet(np.ones(m))
        assert sorted(exponential_huffman(w, 1e-9).lengths) == sorted(huffman(w).lengths)


def test_exponential_huffman_frozen_instance():
    mu = validate_distribution([0.4, 0.3, 0.2, 0.1])
    weights = [p**2 for p in mu.probs]
    total = sum(weights)
    weights = [w / total for w in weights]  # = xi(mu, beta=1)
    lengths = exponential_huffman(weights, 1.0)
    cost = sum(w * 2.0**l for w, l in zip(weights, lengths.lengths))
    report = brute_min_over_codes("exp_cost", weights=weights, beta=1.0, arity=2, l_max=5)
    assert math.log(cost) == pytest.approx(report.optimum_value, abs=1e-12)
    assert cost == pytest.approx(3.6, abs=1e-12)


def test_exponential_huffman_uniform_is_balanced():
    for beta in (0.5, 2.0, 20.0):
        assert sorted(exponential_huffman([0.25] * 4, beta).lengths) == [2, 2, 2, 2]


def test_exponential_huffman_rejects_nonfinite():
    with pytest.raises(NonFiniteWeightError):
        exponential_huffman([0.5, math.inf], 1.0)


def test_max_huffman_uniform():
    lengths = max_huffman([0.25] * 4)
    assert lengths.lengths == (2, 2, 2, 2)
    assert weight_cost("pointwise", [0.25] * 4, lengths) == pytest.approx(math.log2(1.0), abs=1e-12)


def test_max_huffman_frozen_anchors():
    lengths = max_huffman([0.6, 0.3, 0.1])
    assert weight_cost("pointwise", [0.6, 0.3, 0.1], lengths) == pytest.approx(
        math.log2(1.2), abs=1e-12
    )
    lengths = max_huffman([0.4, 0.3, 0.2, 0.1])
    assert weight_cost("pointwise", [0.4, 0.3, 0.2, 0.1], lengths) == pytest.approx(
        math.log2(1.6), abs=1e-12
    )


def test_max_huffman_rejects_all_zero():
    with pytest.raises(AllZeroWeightsError):
        max_huffman([0.0, 0.0])


def test_exponential_optimality_randomized():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        arity = int(rng.choice([2, 3]))
        beta = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        w = rng.dirichlet(np.ones(m))
        lengths = exponential_huffman(w, beta, arity)
        cost = weight_cost("exp_cost", w, lengths, beta)
        report = brute_min_over_codes("exp_cost", weights=w, beta=beta, arity=arity)
        assert cost == pytest.approx(report.optimum_value, rel=1e-9, abs=1e-9)


def test_max_optimality_randomized():
    rng = np.random.default_rng(37)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        w = rng.dirichlet(np.ones(m))
        lengths = max_huffman(w)
        report = brute_min_over_codes("pointwise", weights=w, arity=2)
        assert weight_cost("pointwise", w, lengths) == pytest.approx(
            report.optimum_value, abs=1e-9
        )


def test_scale_invariance():
    rng = np.random.default_rng(41)
    for _ in range(25):
        m = int(rng.integers(2, 8))
        w = rng.dirichlet(np.ones(m))
        for scale in (0.01, 7.3, 1e4):
            assert sorted(huffman(w * scale).lengths) == sorted(huffman(w).lengths)
            assert sorted(exponential_huffman(w * scale, 1.7).lengths) == sorted(
                exponential_huffman(w, 1.7).lengths
            )
            assert sorted(max_huffman(w * scale).lengths) == sorted(max_huffman(w).lengths)


def test_monotone_assignment():
    rng = np.random.default_rng(43)
    builders = [huffman, lambda w: exponential_huffman(w, 2.0), max_huffman]
    for _ in range(25):
        m = int(rng.integers(2, 9))
        w = rng.dirichlet(np.ones(m))
        for build in builders:
            lengths = build(w).lengths
            for i in range(m):
                for j in range(m):
                    if w[i] > w[j]:
                        assert lengths[i] <= lengths[j]


def test_outputs_pass_canonical_codewords():
    rng = np.random.default_rng(47)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        arity = int(rng.choice([2, 3]))
        w = rng.dirichlet(np.ones(m))
        for lengths in (huffman(w, arity), exponential_huffman(w, 1.2, arity), max_huffman(w, arity)):
            code = canonical_codewords(lengths)
            assert len(code.codewords) == m


def test_padded_kraft_equality_ternary():
    # dummies counted, the padded tree always fills the Kraft budget exactly
    rng = np.random.default_rng(53)
    for _ in range(10):
        m = int(rng.integers(2, 9))
        w = rng.dirichlet(np.ones(m))
        with np.errstate(divide="ignore"):
            logw = [float(x) for x in np.log(w)]
        depths = _build_tree(logw, 3, log_sum_exp)
        assert len(depths) == m + _dummy_count(m, 3)
        lmax = max(depths)
        assert sum(3 ** (lmax - d) for d in depths) == 3**lmax


def test_shannon_lengths_examples():
    assert shannon_lengths(validate_distribution([0.5, 0.25, 0.25])).lengths == (1, 2, 2)
    assert shannon_lengths(validate_distribution([0.9, 0.1])).lengths == (1, 4)
    uniform3 = validate_distribution([1 / 3] * 3)
    assert shannon_lengths(uniform3).lengths == (2, 2, 2)


def test_shannon_lengths_rejects_zero():
    dist = Distribution((0.5, 0.5, 0.0))
    with pytest.raises(ZeroProbabilityError):
        shannon_lengths(dist)


def test_shannon_lengths_kraft_randomized():
    rng = np.random.default_rng(59)
    for _ in range(50):
        m = int(rng.integers(2, 12))
        mu = validate_distribution(rng.dirichlet(np.ones(m)))
        lengths = shannon_lengths(mu)
        assert kraft_integer_ok(lengths.lengths, 2)


def test_canonical_codewords_examples():
    assert canonical_codewords(CodeLengths((1, 2, 2))).codewords == ("0", "10", "11")
    assert canonical_codewords(CodeLengths((2, 2, 2, 2))).codewords == ("00", "01", "10", "11")
    code = canonical_codewords(CodeLengths((1, 2, 3)))
    assert code.codewords == ("0", "10", "110")
    assert kraft_sum(code.lengths) == 0.875


def test_canonical_codewords_rejects_violation():
    # CodeLengths is the one Kraft check; a vector corrupted past it spells
    # colliding codewords, which PrefixCode rejects
    for arity, corrupt in ((2, (1, 1, 2)), (2, (1, 1, 1)), (2, (1, 2, 2, 2)), (2, (2, 2, 2, 2, 2)),
                           (3, (1, 1, 1, 1)), (3, (1, 1, 2, 2, 2, 2)), (3, (2,) * 10)):
        lengths = CodeLengths((1,) * arity, arity=arity)
        object.__setattr__(lengths, "lengths", corrupt)
        with pytest.raises(DomainError):
            canonical_codewords(lengths)


def test_default_l_max_covers_worst_depth():
    # ternary chains: ceil((m'-1)/(arity-1)) merges bound the deepest leaf
    for m in range(2, 9):
        assert default_l_max(m, 3) >= math.ceil((m + _dummy_count(m, 3) - 1) / 2)
        assert default_l_max(m, 2) == m


@dataclass
class WeightedItem:
    """Node of the reference tree builder, ordered by (weight, creation_order)."""

    weight: float
    origin_index: int
    creation_order: int
    children: list["WeightedItem"] = field(default_factory=list)

    def __lt__(self, other: "WeightedItem") -> bool:
        return (self.weight, self.creation_order) < (other.weight, other.creation_order)


def _reference_depths(weights, arity, combine, dummy=-math.inf) -> list[int]:
    """The greedy merge loop on a heap of node objects, written out literally.

    Dummy leaves weigh `dummy`: -inf for log-weights, 0.0 for linear ones.
    """
    m = len(weights)
    pad = _dummy_count(m, arity)
    heap = [WeightedItem(w, i, i) for i, w in enumerate(weights)]
    heap.extend(WeightedItem(dummy, -1, m + j) for j in range(pad))
    order = m + pad
    heapq.heapify(heap)
    while len(heap) > 1:
        children = [heapq.heappop(heap) for _ in range(arity)]
        merged = WeightedItem(combine([c.weight for c in children]), -1, order, children)
        order += 1
        heapq.heappush(heap, merged)
    depths = [0] * (m + pad)
    stack = [(heap[0], 0)]
    while stack:
        node, depth = stack.pop()
        if node.children:
            stack.extend((c, depth + 1) for c in node.children)
        else:
            slot = node.origin_index if node.origin_index >= 0 else node.creation_order
            depths[slot] = depth
    return depths[:m]


def _left_to_right_sum(values):
    total = values[0]
    for value in values[1:]:
        total += value
    return total


def _reference_weights(rng, m: int, kind: str) -> np.ndarray:
    if kind == "ties":
        # small integers: equal leaves, and merged nodes equal to leaves
        return rng.integers(1, 4, m).astype(float)
    w = rng.dirichlet(np.ones(m))
    if kind == "zeros":
        w[rng.permutation(m)[: max(1, m // 3)]] = 0.0
        w[rng.integers(m)] = 1.0
    return w


def test_tree_builders_match_reference_heap():
    # every combine rule, arities 2-4 (with dummies at 3 and 4), exact ties,
    # zero weights and tilts over nine decades must give the depths of the
    # node-object heap, bit for bit: plain Huffman on linear weights with 0.0
    # dummies, the other rules on log-weights with -inf dummies; arities 5, 8
    # and 9 (merges of up to 9 children) draw from a generator of their own
    _match_reference_heap(np.random.default_rng(61), (2, 3, 4))
    _match_reference_heap(np.random.default_rng(62), (5, 8, 9))


def _match_reference_heap(rng, arities):
    sizes = list(range(2, 41)) + list(range(41, 301, 13)) + [255, 256, 257, 300, 1024, 4096]
    kinds = ("random", "ties", "zeros")
    for index, m in enumerate(sizes):
        for arity in arities:
            w = _reference_weights(rng, m, kinds[(index + arity) % 3])
            with np.errstate(divide="ignore"):
                logw = [float(x) for x in np.log(w)]
            bump = math.log(arity)
            assert list(huffman(w, arity).lengths) == _reference_depths(
                w.tolist(), arity, _left_to_right_sum, dummy=0.0)
            assert list(max_huffman(w, arity).lengths) == _reference_depths(
                logw, arity, lambda c: bump + max(c))
            if index % 5 == 0:
                beta = (1e-6, 1e3)[arity % 2]
            else:
                beta = float(10.0 ** rng.uniform(-6.0, 3.0))
            log_xi = [(beta + 1.0) * math.log(p) if p > 0.0 else -math.inf for p in w]
            tilt_bump = beta * bump
            expected = _reference_depths(
                log_xi, arity, lambda c: tilt_bump + log_sum_exp(np.asarray(c)))
            assert list(exponential_huffman_log(log_xi, beta, arity).lengths) == expected


def test_unsorted_parents_match_reference_heap():
    # combines that are not monotone make parents come out below earlier
    # ones, so the FIFO must take them out of creation order; the depths
    # must still be those of the node-object heap, bit for bit.  The
    # negated sum comes out unsorted in every build of three merges or more;
    # the sum mod 4 on small integer weights makes such parents tie with
    # nodes already waiting.
    rng = np.random.default_rng(63)
    negated = lambda c: -_left_to_right_sum(c)
    modular = lambda c: _left_to_right_sum(c) % 4.0
    modular_unsorted = modular_builds = 0
    for m in list(range(2, 41)) + [100, 257, 1000]:
        for arity in (2, 3, 5, 9):
            for kind in ("random", "ties"):
                w = _reference_weights(rng, m, kind).tolist()
                padded = w + [0.0] * _dummy_count(m, arity)
                for rule in (negated, modular) if kind == "ties" else (negated,):
                    made = []

                    def combine(children):
                        made.append(rule(children))
                        return made[-1]

                    depths = _build_tree(padded, arity, combine)[:m]
                    unsorted = any(b < a for a, b in zip(made, made[1:]))
                    if rule is negated:
                        assert unsorted or len(made) <= 2
                    else:
                        modular_unsorted += unsorted
                        modular_builds += 1
                    assert depths == _reference_depths(w, arity, rule, dummy=0.0)
    assert 2 * modular_unsorted > modular_builds


def test_huffman_ties_cost_matches_log_domain_reference():
    # on tied integer weights the linear and log-domain sums can round ties
    # apart and so pick different trees, but never trees of different cost
    rng = np.random.default_rng(71)
    for m in list(range(2, 41)) + [64, 255, 256, 257, 1024]:
        for arity in (2, 3, 4):
            w = _reference_weights(rng, m, "ties")
            logw = [float(x) for x in np.log(w)]
            reference = _reference_depths(logw, arity, log_sum_exp)
            assert weight_cost("linear_cost", w, huffman(w, arity)) == pytest.approx(
                float(np.dot(w, reference)), rel=1e-12, abs=0.0)


def test_huffman_edge_weights_pinned():
    # partial sums that overflow to inf or stay in the subnormal range
    assert huffman([1e308] * 5).lengths == (3, 3, 2, 2, 2)
    assert huffman([1e308, 1e308, 1e307, 1e306, 5e307, 1.7e308]).lengths == (3, 2, 5, 5, 4, 1)
    assert huffman([5e-324, 5e-324, 1e-323, 0.0]).lengths == (3, 2, 1, 3)


def _swapped(lengths):
    # the code with the first two symbols of different lengths exchanged
    ls = list(lengths.lengths)
    j = next(k for k in range(1, len(ls)) if ls[k] != ls[0])
    ls[0], ls[j] = ls[j], ls[0]
    return CodeLengths(tuple(ls), arity=lengths.arity)


def test_a_certified_code_is_the_code_the_build_returns():
    # at each beta the kernel is offered the code built at the previous beta,
    # the code built now and that code with two lengths swapped; whatever it
    # certifies, the build returns.  Arities 5, 8 and 9 draw from a
    # generator of their own.
    for seed, arities in ((20, (2, 3, 4)), (21, (5, 8, 9))):
        offered, certified = _offer_built_codes(np.random.default_rng(seed), arities)
        assert certified > 0.4 * offered, arities


def _offer_built_codes(rng, arities) -> tuple[int, int]:
    betas = [1e-3 * 8.0 ** k for k in range(24)] + [2.0 ** 60]
    offered = certified = 0
    for m in (2, 3, 5, 9, 17, 64, 200, 1024):
        for arity in arities:
            for alpha in (1.0, 0.3):
                p = np.maximum(rng.dirichlet(np.full(m, alpha)), 1e-6)
                log_p = np.log(p / p.sum()).tolist()
                previous = None
                for beta in betas:
                    log_w = [(beta + 1.0) * x for x in log_p]
                    built = exponential_huffman_log(log_w, beta, arity)
                    offers = [built] + [previous] * (previous is not None)
                    if len(set(built.lengths)) > 1:
                        offers.append(_swapped(built))
                    for code in offers:
                        if _certifies_exponential(log_w, beta, arity, code):
                            certified += 1
                            assert code == built, (m, arity, alpha, beta, code)
                    offered += len(offers)
                    previous = built
    return offered, certified


@pytest.mark.parametrize("probs", [
    [0.25] * 4, [0.2] * 5, [0.125] * 8, [0.4, 0.2, 0.2, 0.1, 0.1], [0.3, 0.3, 0.1, 0.1, 0.1, 0.1],
], ids=["uniform4", "uniform5", "uniform8", "repeated5", "repeated6"])
def test_exact_ties_between_sibling_groups_fall_back_to_the_build(probs):
    # at any arity, where the tie rule picks the code (the build of the
    # reversed weights, reversed back, differs), the kernel certifies neither
    # code, and whatever it certifies the build returns.  Binary on a
    # uniform centre the groups tie in floats too, so the kernel declines
    # even the code the build returns; a tie that rounding splits (repeated5
    # at beta 1e-3) is no tie to the build, which returns the certified code
    for arity in (2, 3, 4):
        for beta in (1e-3, 1.0, 4.0, 2.0 ** 60):
            log_w = [(beta + 1.0) * math.log(p) for p in probs]
            built = exponential_huffman_log(log_w, beta, arity)
            flipped = exponential_huffman_log(log_w[::-1], beta, arity).lengths[::-1]
            flipped = CodeLengths(flipped, arity=arity)
            for code in {built, flipped}:
                if _certifies_exponential(log_w, beta, arity, code):
                    assert code == built == flipped, (arity, beta)
            if arity == 2 and len(set(probs)) == 1:
                assert not _certifies_exponential(log_w, beta, arity, built), beta


def test_a_tie_inside_one_sibling_group_is_certified():
    # the dyadic centre's merged pair of 0.25 leaves ties the 0.5 leaf, but
    # both are siblings under the root, so every tie rule builds (1, 2, 2):
    # the kernel certifies that code and no other arrangement
    probs = [0.5, 0.25, 0.25]
    for beta in (1e-3, 1.0, 4.0, 2.0 ** 60):
        log_w = [(beta + 1.0) * math.log(p) for p in probs]
        assert exponential_huffman_log(log_w, beta, 2).lengths == (1, 2, 2)
        assert _certifies_exponential(log_w, beta, 2, CodeLengths((1, 2, 2)))
        for other in ((2, 1, 2), (2, 2, 1)):
            assert not _certifies_exponential(log_w, beta, 2, CodeLengths(other))


def test_the_kernel_declines_what_it_cannot_certify():
    # a weight the build rejects or merges first (nan, -inf), another arity
    # or size, and a tree that is not full all fall back to the build
    log_w = [-1.0, -2.0, -3.0]
    code = CodeLengths((1, 2, 2))
    assert _certifies_exponential(log_w, 1.0, 2, code)
    for bad in ([-1.0, -2.0, math.nan], [-1.0, -2.0, -math.inf], [-1.0, -2.0, -3.0, -4.0]):
        assert not _certifies_exponential(bad, 1.0, 2, code)
    assert not _certifies_exponential(log_w, 1.0, 3, code)
    assert not _certifies_exponential(log_w, 1.0, 2, CodeLengths((1, 2, 3)))
