"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable; timing budgets are
asserted where a criterion carries one.
"""

import json
import math
import os
import time

import numpy as np

from klcodes import cli
from klcodes.core import (
    CodeLengths,
    Distribution,
    DivergenceBall,
    binary_divergence,
    kl_divergence,
    pinsker_upper,
    validate_distribution,
)
from klcodes.huffman import exponential_huffman, max_huffman
from klcodes.nml import (
    _pi_roots,
    nml_distribution,
    pointwise_utility,
    robust_huffman_pointwise,
    robust_shannon_pointwise,
    solve_pi_k,
)
from klcodes.oracle import (
    ball_sample,
    brute_binary_root,
    brute_min_over_codes,
    sorted_assignment,
    weight_cost,
)
from klcodes.solver import existence_threshold, g_of_beta, solve_avg_redundancy, solve_gg
from klcodes.tilted import avg_redundancy, decomposition_terms, nu_circ, nu_infinity

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def _report(number: int, description: str, failures: list[str]):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def _random_lengths(rng, m, arity=2):
    base = sorted(int(rng.integers(1, m + 1)) for _ in range(m))
    while sum(arity ** (max(base) - b) for b in base) > arity ** max(base):
        base[base.index(min(base))] += 1
    perm = rng.permutation(m)
    return CodeLengths(tuple(base[i] for i in perm), arity=arity)


def test_criterion_01_exponential_huffman_optimality():
    rng = np.random.default_rng(101)
    failures = []
    start = time.time()
    for trial in range(200):
        m = int(rng.integers(2, 9))
        arity = int(rng.choice([2, 3]))
        beta = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        weights = rng.dirichlet(np.ones(m))
        lengths = exponential_huffman(weights, beta, arity)
        cost = weight_cost("exp_cost", weights, lengths, beta)
        report = brute_min_over_codes("exp_cost", weights=weights, beta=beta, arity=arity)
        if abs(cost - report.optimum_value) > 1e-9 * max(1.0, abs(report.optimum_value)):
            failures.append(f"trial {trial}: cost {cost} vs oracle {report.optimum_value}")
    elapsed = time.time() - start
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(1, f"exponential Huffman cost equals oracle on 200 instances ({elapsed:.1f}s)",
            failures)


def test_criterion_02_minimax_pointwise_optimality():
    rng = np.random.default_rng(102)
    failures = []
    for trial in range(200):
        m = int(rng.integers(2, 9))
        weights = rng.dirichlet(np.ones(m))
        lengths = max_huffman(weights, 2)
        utility = weight_cost("pointwise", weights, lengths)
        report = brute_min_over_codes("pointwise", weights=weights, arity=2)
        if abs(utility - report.optimum_value) > 1e-9:
            failures.append(f"trial {trial}: {utility} vs {report.optimum_value}")
    anchors = [
        ((0.6, 0.3, 0.1), math.log2(1.2)),
        ((0.4, 0.3, 0.2, 0.1), math.log2(1.6)),
    ]
    for probs, expected in anchors:
        result = robust_huffman_pointwise(DivergenceBall(validate_distribution(probs), 0.0))
        if abs(result.achieved_utility - expected) > 1e-12:
            failures.append(f"anchor {probs}: {result.achieved_utility} vs {expected}")
    _report(2, "max-combining Huffman equals oracle on 200 instances plus anchors", failures)


def test_criterion_03_nml_root_certificates():
    rng = np.random.default_rng(103)
    failures = []
    start = time.time()
    for trial in range(1000):
        radius = float(rng.uniform(1e-4, 2.0))
        m = float(rng.uniform(1e-5, math.exp(-radius) * (1.0 - 1e-9)))
        root = solve_pi_k(m, radius)
        # the step count of that root, from the kernel solve_pi_k calls
        steps = int(_pi_roots(np.array([m]), radius, 1e-13)[2][0])
        if abs(binary_divergence(root, m) - radius) > 1e-10:
            failures.append(f"trial {trial}: residual {abs(binary_divergence(root, m) - radius)}")
        if not (m < root <= pinsker_upper(m, radius) + 1e-12):
            failures.append(f"trial {trial}: root {root} outside range")
        if steps > 25:
            failures.append(f"trial {trial}: {steps} iterations")
        if abs(root - brute_binary_root(m, radius)) > 1e-12:
            failures.append(f"trial {trial}: disagrees with bisection oracle")
    elapsed = time.time() - start
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report(3, f"1000 NML roots certified to 1e-10 within 25 steps ({elapsed:.2f}s)", failures)


def test_criterion_04_saturation_boundary():
    failures = []
    for radius in (0.05, 0.2, 0.5, 1.0):
        cutoff = math.exp(-radius)
        for sign, should_saturate in ((+1.0, True), (-1.0, False)):
            p = cutoff * (1.0 + sign * 1e-6)
            mu = validate_distribution([p, 1.0 - p])
            result = nml_distribution(DivergenceBall(mu, radius))
            saturated = 0 in result.saturated
            if saturated is not should_saturate:
                failures.append(f"radius {radius} sign {sign}: saturated={saturated}")
            if should_saturate and result.raw[0] != 1.0:
                failures.append(f"radius {radius}: pi != 1 on saturated side")
            if not should_saturate and not result.raw[0] < 1.0:
                failures.append(f"radius {radius}: pi not < 1 below cutoff")
    _report(4, "saturation flips exactly at mu_k = e^-R (both sides, 1e-6 offset)", failures)


def test_criterion_05_decomposition_identity():
    rng = np.random.default_rng(105)
    failures = []
    for trial in range(500):
        m = int(rng.integers(2, 7))
        nu = Distribution(tuple(rng.dirichlet(np.ones(m))))
        mu = Distribution(tuple(rng.dirichlet(np.ones(m))))
        lengths = _random_lengths(rng, m)
        beta = float(rng.uniform(0.05, 10.0))
        t1, t2, t3 = decomposition_terms(lengths, nu, mu, beta)
        gap = abs((t1 + t2 + t3) / math.log(2) - avg_redundancy(lengths, nu))
        if gap > 1e-10:
            failures.append(f"trial {trial}: identity off by {gap}")
    _report(5, "three-term decomposition reproduces average redundancy on 500 draws", failures)


def _interior_instance(rng, m=3):
    while True:
        mu = validate_distribution(rng.dirichlet(np.ones(m)) * 0.94 + 0.06 / m)
        r_max, _, _ = existence_threshold(mu, 2)
        if r_max > 1e-2:
            radius = float(rng.uniform(0.2, 0.8)) * r_max
            return mu, radius


def test_criterion_06_tilted_supremum():
    rng = np.random.default_rng(106)
    failures = []
    for trial in range(50):
        mu, radius = _interior_instance(rng)
        ball = DivergenceBall(mu, radius)
        result = solve_avg_redundancy(ball)
        if result.regime != "interior":
            failures.append(f"trial {trial}: regime {result.regime}")
            continue
        gap = abs(kl_divergence(result.worst_case, mu) - radius)
        if gap > 1e-9:
            failures.append(f"trial {trial}: divergence residual {gap}")
        for row in ball_sample(ball, n_interior=1000, seed=trial).points.tolist():
            nu = Distribution(tuple(row))
            if avg_redundancy(result.lengths, nu) > result.achieved_utility + 1e-6:
                failures.append(f"trial {trial}: sample beats reported supremum")
                break
    _report(6, "interior worst case sits on the ball and dominates all samples (50 runs)",
            failures)


def test_criterion_07_nested_minimax():
    rng = np.random.default_rng(107)
    failures = []
    start = time.time()
    for trial in range(20):
        mu, radius = _interior_instance(rng)
        ball = DivergenceBall(mu, radius)
        result = solve_avg_redundancy(ball)
        samples = ball_sample(ball, n_interior=20000, seed=1000 + trial)
        report = brute_min_over_codes("avg-red", ball=ball, arity=2, l_max=4, samples=samples)
        gap = abs(result.achieved_utility - report.optimum_value)
        if gap > 5e-3:
            failures.append(f"trial {trial}: nested gap {gap}")
    elapsed = time.time() - start
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report(7, f"solver matches nested oracle min-max within 5e-3 on 20 instances "
               f"({elapsed:.1f}s)", failures)


def test_criterion_08_gg_shortcut():
    rng = np.random.default_rng(108)
    failures = []
    for trial in range(20):
        mu = validate_distribution(rng.dirichlet(np.ones(3)) * 0.94 + 0.02)  # sums to 1 at m=3
        threshold = -math.log(min(mu.probs))
        radius = threshold * float(rng.uniform(1.0, 1.6))
        ball = DivergenceBall(mu, radius)
        result = solve_gg(ball)
        if result.regime != "boundary":
            failures.append(f"trial {trial}: regime {result.regime}")
        pointwise = brute_min_over_codes("pointwise", weights=mu.probs, arity=2, l_max=4)
        if tuple(sorted(result.lengths.lengths)) not in pointwise.optimal_length_vectors:
            failures.append(f"trial {trial}: not a minimax pointwise optimum")
        samples = ball_sample(ball, n_interior=2000, seed=2000 + trial)
        report = brute_min_over_codes("gg", ball=ball, arity=2, l_max=4, samples=samples)
        gap = abs(result.achieved_utility - report.optimum_value)
        if gap > 5e-3:
            failures.append(f"trial {trial}: gg optimum gap {gap}")
    _report(8, "beyond -log min mu the GG solver returns a minimax pointwise optimum (20 runs)",
            failures)


def test_criterion_09_limit_consistency():
    rng = np.random.default_rng(109)
    failures = []

    # canonical anchor
    mu = validate_distribution([0.6, 0.3, 0.1])
    lengths = CodeLengths((1, 2, 2))
    point = nu_circ(mu, lengths, 1e3)
    limit = nu_infinity(mu, lengths)
    tv = 0.5 * sum(abs(a - b) for a, b in
                   zip(point.distribution.probs, limit.distribution.probs))
    if tv > 1e-6:
        failures.append(f"anchor tv {tv}")
    divergence, _ = g_of_beta(mu, 2, 1e3)
    if abs(divergence - (-math.log(0.9))) > 1e-4:
        failures.append(f"anchor g(1e3) {divergence} vs {-math.log(0.9)}")

    accepted = 0
    attempts = 0
    while accepted < 10 and attempts < 300:
        attempts += 1
        m = int(rng.integers(3, 6))
        mu = validate_distribution(rng.dirichlet(np.ones(m)) * 0.94 + 0.06 / m)
        r_max, limit, limit_code = existence_threshold(mu, 2)
        logr = np.log(mu.as_array()) + limit_code.as_array() * math.log(2)
        top = logr.max()
        rest = logr[logr < top - 1e-9]
        if rest.size and top - rest.max() < 0.05:
            continue  # no strict ratio gap: the limit is not separated by beta = 1e3
        report = brute_min_over_codes("pointwise", weights=mu.probs, arity=2)
        r_values = set()
        for vec in report.optimal_length_vectors:
            assigned = CodeLengths(sorted_assignment(mu.probs, vec), arity=2)
            r_values.add(round(nu_infinity(mu, assigned).divergence_from_center, 9))
        if len(r_values) != 1:
            continue  # ambiguous optimum family: limit divergence not well defined
        accepted += 1
        point = nu_circ(mu, limit_code, 1e3)
        tv = 0.5 * sum(abs(a - b) for a, b in
                       zip(point.distribution.probs, limit.distribution.probs))
        if tv > 1e-6:
            failures.append(f"attempt {attempts}: tv {tv}")
        divergence, _ = g_of_beta(mu, 2, 1e3)
        if abs(divergence - r_max) > 1e-4:
            failures.append(f"attempt {attempts}: g(1e3)={divergence} vs r_max={r_max}")
    if accepted < 10:
        failures.append(f"only {accepted} strict-gap instances found")
    _report(9, "beta=1e3 tilted point and divergence reach the limit values (10 runs + anchor)",
            failures)


def test_criterion_10_pointwise_dominance_chain():
    rng = np.random.default_rng(110)
    failures = []
    for trial in range(100):
        m = int(rng.integers(2, 9))
        mu = validate_distribution(rng.dirichlet(np.ones(m)) * 0.99 + 0.01 / m)
        radius = float(rng.uniform(0.01, 1.2))
        ball = DivergenceBall(mu, radius)
        normalized = nml_distribution(ball).normalized
        huffman_result = robust_huffman_pointwise(ball)
        shannon = robust_shannon_pointwise(ball)
        shannon_value = pointwise_utility(shannon, normalized)
        if not (huffman_result.achieved_utility <= shannon_value + 1e-12):
            failures.append(f"trial {trial}: huffman above shannon")
        if not (shannon_value < 1.0):
            failures.append(f"trial {trial}: shannon utility {shannon_value} >= 1")
        if any(h > s for h, s in zip(huffman_result.lengths.lengths, shannon.lengths)):
            failures.append(f"trial {trial}: a huffman length exceeds shannon")
    _report(10, "robust Huffman never beaten by robust Shannon on 100 draws", failures)


def test_criterion_11_cli_contract(capsys, tmp_path):
    failures = []

    def run(argv):
        status = cli.main(argv)
        captured = capsys.readouterr()
        return status, captured.out

    jobs = [
        ("skewed3.json", "avg-red", "0.05"),
        ("skewed3.json", "gg", "0.05"),
        ("skewed3.json", "pointwise", "0.0"),
        ("dyadic3.json", "avg-red", "0.0"),
        ("dyadic3.json", "shannon-nominal", "0.0"),
        ("nml3.json", "pointwise", "0.05"),
        ("nml3.json", "nml-only", "0.05"),
        ("mixed4.csv", "avg-red", "0.02"),
    ]
    for name, objective, radius in jobs:
        path = os.path.join(INSTANCES, name)
        status, out = run(["verify", path, "--objective", objective,
                           "--radius", radius, "--samples", "2000"])
        if status != 0 or "FAIL" in out:
            failures.append(f"verify {name}/{objective} exited {status}")

    result_path = tmp_path / "round.json"
    status, _ = run(["code", os.path.join(INSTANCES, "nml3.json"), "--objective", "pointwise",
                     "--radius", "0.05", "--output", str(result_path)])
    if status != 0:
        failures.append(f"code exited {status}")
    status, out = run(["verify", os.path.join(INSTANCES, "nml3.json"), "--objective",
                       "pointwise", "--radius", "0.05", "--result", str(result_path)])
    if status != 0 or "PASS diagnostics_roundtrip" not in out:
        failures.append("round-trip diagnostics not byte-identical")

    status, _ = run(["analyze", "missing-file.json"])
    if status != 2:
        failures.append(f"missing file exited {status}, wanted 2")
    status, _ = run(["code", os.path.join(INSTANCES, "dyadic3.json"), "--objective", "avg-red",
                     "--radius", "0.2", "--strict-boundary"])
    if status != 3:
        failures.append(f"strict boundary exited {status}, wanted 3")
    corrupted = tmp_path / "bad.json"
    payload = json.loads(result_path.read_text())
    payload["lengths"] = [1, 1, 2]
    corrupted.write_text(json.dumps(payload))
    status, _ = run(["verify", os.path.join(INSTANCES, "nml3.json"), "--objective", "pointwise",
                     "--radius", "0.05", "--result", str(corrupted)])
    if status != 5:
        failures.append(f"corrupted result exited {status}, wanted 5")
    _report(11, "CLI exit codes and verify round-trip hold on shipped instances", failures)
