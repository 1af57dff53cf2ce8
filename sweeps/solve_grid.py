"""Solve a fixed grid of balls with one klcodes tree and dump one record per solve.

usage: PYTHONPATH=<tree>/src python sweeps/solve_grid.py OUT.json

Grid A draws one centre per (seed 3 or 17, M, alpha, arity) from
default_rng(seed), in that loop order: M in 3..256 (15 sizes), Dirichlet
alpha 1 or 0.3, arity 2 or 3, floored at 1e-6 and renormalised.  Each
centre is solved by solve_gg and solve_avg_redundancy at 1e-4, 0.01, 0.1,
0.3, 0.5, 0.8, 0.95, 0.99 and 1 x r_max and halfway from r_max to
-log min mu.  Grid B is boundary gg alone: centres from
default_rng([seed, M, round(10 alpha), arity]) for seeds 0-39, M in 4..48,
alpha 1 or 0.3 and arity 2 or 3, at R = r_max + f (-log min mu - r_max)
for f = 0, 0.25, 0.5 and 0.75.  Grid C covers wider arities: one
generator default_rng([seed, M, arity]) per seed 0-3, M in 8..128 and
arity 4, 5 or 8 draws a Dirichlet alpha 1 centre, then an alpha 0.3 one,
each solved by both objectives at 0.1, 0.5 and 0.95 x r_max.  Grid P is
the pointwise objective: one generator default_rng([seed, M]) per seed 0-2
and M in 3..4096 draws a Dirichlet alpha 1 centre, then an alpha 0.3 one,
each solved by robust_huffman_pointwise at arity 2, 3, 4 and 8 (up to
1, 2 and 6 -inf dummies in the max rule's build) and R = 1e-3, 0.01,
0.1, 0.3, 1 and 3 nats; a record keeps the lengths, the value, the raw
suprema of nml_distribution, their largest residual |d(raw_k || mu_k) -
R| recomputed with core.binary_divergence, and whether every root lies
in (mu_k, min(1, mu_k + sqrt(R/2))].  Grid E is the avg-red supremum
alone: one generator default_rng([seed, M, arity]) per seed 0-9, M in
3..16, 24, 32 and 48 and arity 2 or 3 draws a Dirichlet alpha 1 centre,
then an alpha 0.3 one, then an unrelated Dirichlet alpha 1 draw;
exact_avg_sup is called directly on three codes per centre (its plain Huffman code, its
limit code and the unrelated draw's Huffman code) at 0.9, 1, 1.3 and
2 x r_max, and a record keeps the value and the repr of the value and
the witness's probabilities.  Grid O is the oracles: one generator
default_rng([seed, M, arity]) per seed 0-4, M in 3..6 and arity 2 or 3
draws a Dirichlet alpha 1 centre, then an alpha 0.3 one; its
probabilities are the weights of brute_min_over_codes under linear_cost,
exp_cost at beta 0.5 and 2, and pointwise, and at 0, 0.3, 0.95 and
1.3 x r_max both ball objectives run through exact_min_over_codes and
through brute_min_over_codes on ball_sample(ball, n_interior=300,
seed=seed).  A record keeps the optimum and the repr of the
OracleReport, and each sampled record the sha256 of that sample's points,
its one float64 matrix, so a change that moves any sampled bit
shows even where the optimum does not.  Grid O also holds records of a
sample's sha256 alone, with no oracle run (objective "sample"): one
generator default_rng([seed, M, arity]) per seed 0-4, M 7 or 8 and arity
2 or 3 draws a Dirichlet alpha 1 centre, then an alpha 0.3 one, each
sampled at 0, 0.3, 0.95 and 1.3 x r_max; and per arity one centre with a
zero entry, a Dirichlet alpha 1 draw over 7 symbols from
default_rng([0, 8, arity]) with an eighth symbol of mass 0, sampled at
0.05, 0.3 and 1 nat (objective "sample, zero entry").  From 8 symbols on
numpy sums a row with zeros in blocks, so these are the samples whose
roots depend on summing over the support.  Run it on two trees and
compare the dumps with compare_grids.py.
"""

import hashlib
import json
import math
import sys
from functools import partial

import numpy as np

from klcodes.core import Distribution, DivergenceBall, binary_divergence, validate_distribution
from klcodes.huffman import huffman
from klcodes.nml import nml_distribution, robust_huffman_pointwise
from klcodes.oracle import ball_sample, brute_min_over_codes, exact_min_over_codes
from klcodes.solver import existence_threshold, solve_avg_redundancy, solve_gg
from klcodes.tilted import exact_avg_sup

SIZES = (3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 100, 128, 256)
FRACTIONS = (1e-4, 0.01, 0.1, 0.3, 0.5, 0.8, 0.95, 0.99, 1.0, "mid")
POINTWISE_SIZES = (3, 4, 5, 8, 17, 64, 256, 1024, 4096)
POINTWISE_RADII = (1e-3, 0.01, 0.1, 0.3, 1.0, 3.0)
SUP_FRACTIONS = (0.9, 1.0, 1.3, 2.0)
ORACLE_FRACTIONS = (0.0, 0.3, 0.95, 1.3)


def centre(rng, m, alpha):
    p = np.maximum(rng.dirichlet(np.full(m, alpha)), 1e-6)
    return validate_distribution((p / p.sum()).tolist())


def record(solve, ball, arity):
    try:
        r = solve(ball, arity)
    except Exception as exc:  # the exception type is part of the outcome
        return {"exc": type(exc).__name__}
    return {"value": r.achieved_utility, "regime": r.regime, "beta": r.beta,
            "lengths": list(r.lengths.lengths),
            "repr": repr((r.lengths.lengths, r.lengths.arity, r.beta, r.worst_case.probs,
                          r.achieved_utility, r.regime)),
            "probes": None if r.trace is None else repr(r.trace.probes)}


def pointwise_record(ball, arity):
    try:
        r = robust_huffman_pointwise(ball, arity)
        nml = nml_distribution(ball)
    except Exception as exc:
        return {"exc": type(exc).__name__}
    mu, radius = ball.center.probs, ball.radius
    roots = [(m, x) for k, (m, x) in enumerate(zip(mu, nml.raw)) if k not in nml.saturated]
    return {"value": r.achieved_utility, "lengths": list(r.lengths.lengths), "raw": list(nml.raw),
            "residual": max((abs(binary_divergence(x, m) - radius) for m, x in roots), default=0.0),
            "in_interval": all(m < x <= min(1.0, m + math.sqrt(radius / 2.0)) for m, x in roots)}


def sup_record(mu, lengths, radius):
    try:
        value, witness = exact_avg_sup(mu, lengths, radius)
    except Exception as exc:
        return {"exc": type(exc).__name__}
    return {"value": value, "repr": repr((value, witness.probs))}


def oracle_record(run, sample_hash):
    try:
        report = run()
    except Exception as exc:
        return {"exc": type(exc).__name__}
    out = {"value": report.optimum_value, "repr": repr(report)}
    return out if sample_hash is None else {**out, "sample_sha256": sample_hash}


def sample_record(ball, seed, arity):
    try:
        sample = ball_sample(ball, n_interior=300, seed=seed, arity=arity)
    except Exception as exc:
        return {"exc": type(exc).__name__}
    return {"sample_sha256": sample_sha256(sample)}


def sample_sha256(sample):
    """sha256 of the sample's points, one C-ordered float64 matrix."""
    return hashlib.sha256(sample.points.tobytes()).hexdigest()


def oracle_runs(seed, mu, arity):
    """(objective, f, call, sample hash) for every oracle run on one centre.

    f is beta or the radius over r_max; the sample hash is None for the
    runs that use no ball sample.
    """
    runs = [(utility, beta, partial(brute_min_over_codes, utility, weights=mu.probs,
                                    arity=arity, beta=beta), None)
            for utility, beta in (("linear_cost", None), ("exp_cost", 0.5), ("exp_cost", 2.0),
                                  ("pointwise", None))]
    r_max = existence_threshold(mu, arity)[0]
    for f in ORACLE_FRACTIONS:
        ball = DivergenceBall(mu, f * r_max)
        samples = ball_sample(ball, n_interior=300, seed=seed, arity=arity)
        digest = sample_sha256(samples)
        for utility in ("avg-red", "gg"):
            runs.append((f"exact {utility}", f, partial(exact_min_over_codes, utility, ball, arity),
                         None))
            runs.append((f"sampled {utility}", f, partial(brute_min_over_codes, utility, ball=ball,
                                                          arity=arity, samples=samples), digest))
    return runs


def main(path):
    out = []
    for seed in (3, 17):
        rng = np.random.default_rng(seed)
        for m in SIZES:
            for alpha in (1.0, 0.3):
                for arity in (2, 3):
                    mu = centre(rng, m, alpha)
                    r_max = existence_threshold(mu, arity)[0]
                    top = -math.log(min(mu.probs))
                    for f in FRACTIONS:
                        ball = DivergenceBall(mu, 0.5 * (r_max + top) if f == "mid" else f * r_max)
                        for name, solve in (("gg", solve_gg), ("avg-red", solve_avg_redundancy)):
                            out.append({"grid": "A", "seed": seed, "m": m, "alpha": alpha,
                                        "arity": arity, "f": f, "objective": name,
                                        **record(solve, ball, arity)})
    for seed in range(40):
        for m in (4, 6, 8, 12, 16, 24, 32, 48):
            for alpha in (1.0, 0.3):
                for arity in (2, 3):
                    mu = centre(np.random.default_rng([seed, m, round(10 * alpha), arity]), m, alpha)
                    r_max = existence_threshold(mu, arity)[0]
                    top = -math.log(min(mu.probs))
                    for f in (0.0, 0.25, 0.5, 0.75):
                        ball = DivergenceBall(mu, r_max + f * (top - r_max))
                        out.append({"grid": "B", "seed": seed, "m": m, "alpha": alpha,
                                    "arity": arity, "f": f, "objective": "gg",
                                    **record(solve_gg, ball, arity)})
    for seed in range(4):
        for m in (8, 16, 32, 64, 128):
            for arity in (4, 5, 8):
                rng = np.random.default_rng([seed, m, arity])
                for alpha in (1.0, 0.3):
                    mu = centre(rng, m, alpha)
                    r_max = existence_threshold(mu, arity)[0]
                    for f in (0.1, 0.5, 0.95):
                        ball = DivergenceBall(mu, f * r_max)
                        for name, solve in (("gg", solve_gg), ("avg-red", solve_avg_redundancy)):
                            out.append({"grid": "C", "seed": seed, "m": m, "alpha": alpha,
                                        "arity": arity, "f": f, "objective": name,
                                        **record(solve, ball, arity)})
    for seed in range(3):
        for m in POINTWISE_SIZES:
            rng = np.random.default_rng([seed, m])
            for alpha in (1.0, 0.3):
                mu = centre(rng, m, alpha)
                for arity in (2, 3, 4, 8):
                    for radius in POINTWISE_RADII:
                        out.append({"grid": "P", "seed": seed, "m": m, "alpha": alpha,
                                    "arity": arity, "f": radius, "objective": "pointwise",
                                    **pointwise_record(DivergenceBall(mu, radius), arity)})
    for seed in range(10):
        for m in (*range(3, 17), 24, 32, 48):
            for arity in (2, 3):
                rng = np.random.default_rng([seed, m, arity])
                centres = [(alpha, centre(rng, m, alpha)) for alpha in (1.0, 0.3)]
                other = huffman(centre(rng, m, 1.0).probs, arity)
                for alpha, mu in centres:
                    r_max, _, limit_code = existence_threshold(mu, arity)
                    codes = (("huffman", huffman(mu.probs, arity)), ("limit", limit_code),
                             ("other", other))
                    for f in SUP_FRACTIONS:
                        for name, lengths in codes:
                            out.append({"grid": "E", "seed": seed, "m": m, "alpha": alpha,
                                        "arity": arity, "f": f, "objective": f"sup {name}",
                                        **sup_record(mu, lengths, f * r_max)})
    for seed in range(5):
        for m in (3, 4, 5, 6):
            for arity in (2, 3):
                rng = np.random.default_rng([seed, m, arity])
                for alpha in (1.0, 0.3):
                    mu = centre(rng, m, alpha)
                    for objective, f, run, digest in oracle_runs(seed, mu, arity):
                        out.append({"grid": "O", "seed": seed, "m": m, "alpha": alpha,
                                    "arity": arity, "f": f, "objective": objective,
                                    **oracle_record(run, digest)})
    for seed in range(5):
        for m in (7, 8):
            for arity in (2, 3):
                rng = np.random.default_rng([seed, m, arity])
                for alpha in (1.0, 0.3):
                    mu = centre(rng, m, alpha)
                    r_max = existence_threshold(mu, arity)[0]
                    for f in ORACLE_FRACTIONS:
                        out.append({"grid": "O", "seed": seed, "m": m, "alpha": alpha,
                                    "arity": arity, "f": f, "objective": "sample",
                                    **sample_record(DivergenceBall(mu, f * r_max), seed, arity)})
    for arity in (2, 3):
        p = np.append(np.random.default_rng([0, 8, arity]).dirichlet(np.ones(7)), 0.0)
        mu = Distribution(tuple((p / p.sum()).tolist()))
        for radius in (0.05, 0.3, 1.0):
            out.append({"grid": "O", "seed": 0, "m": 8, "alpha": 1.0, "arity": arity,
                        "f": radius, "objective": "sample, zero entry",
                        **sample_record(DivergenceBall(mu, radius), 0, arity)})
    with open(path, "w") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1])
