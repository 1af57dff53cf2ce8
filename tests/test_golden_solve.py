"""Bit-for-bit pins on the interior tilt path of the library solvers.

golden_solve.json holds solve_avg_redundancy and solve_gg runs at M = 16,
64 and 128, with radii at 0.1, 0.25 and 0.5 times the centre's existence
threshold.  The CLI golden file stops at four symbols; these cases run the
exponential Huffman probes and tilt roots of large alphabets.  Every
avg-red case lies below solver._rootless_radius, so it offers no hedged
candidate; the file was written when those cases still offered them, and
passing it unedited shows that they never won there.  Each case stores its
centre and radius, and the repr of beta,
the lengths, the worst case, the achieved utility and every probe of the
trace.  Regenerate the file only for a change that means to alter these
results, and say so:

    PYTHONPATH=src python3 tests/test_golden_solve.py
"""

import json
import os

import numpy as np
import pytest

from klcodes import DivergenceBall, existence_threshold, solve_avg_redundancy, solve_gg
from klcodes.core import Distribution

PATH = os.path.join(os.path.dirname(__file__), "golden_solve.json")
SOLVERS = {"avg-red": solve_avg_redundancy, "gg": solve_gg}

# (objective, M, arity, radius as a fraction of r_max); avg-red stays at
# radii where every candidate has a tilt root, and the rootless supremum is
# pinned by tests/test_tilted.py and grid E of sweeps/solve_grid.py instead
SPECS = (
    ("avg-red", 16, 2, 0.1), ("avg-red", 16, 3, 0.25), ("gg", 16, 2, 0.25), ("gg", 16, 2, 0.5),
    ("avg-red", 64, 2, 0.1), ("gg", 64, 3, 0.25), ("gg", 64, 2, 0.5),
    ("avg-red", 128, 2, 0.1), ("gg", 128, 2, 0.25), ("gg", 128, 2, 0.5),
)


def _observed(case) -> dict:
    ball = DivergenceBall(Distribution(tuple(case["probs"])), case["radius"])
    result = SOLVERS[case["objective"]](ball, arity=case["arity"])
    return {
        "beta": repr(result.beta),
        "lengths": repr(result.lengths.lengths),
        "worst_case": repr(result.worst_case.probs),
        "achieved_utility": repr(result.achieved_utility),
        "probes": repr(result.trace.probes),
    }


def _generate() -> list[dict]:
    rng = np.random.default_rng(20261018)
    cases = []
    for objective, m, arity, fraction in SPECS:
        raw = np.maximum(rng.dirichlet(np.ones(m)), 1e-6)
        centre = Distribution(tuple(float(x) for x in raw / raw.sum()))
        r_max = existence_threshold(centre, arity)[0]
        case = {"objective": objective, "arity": arity, "fraction": fraction,
                "probs": list(centre.probs), "radius": fraction * r_max}
        case.update(_observed(case))
        cases.append(case)
    return cases


def _load() -> list[dict]:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


CASES = _load() if __name__ != "__main__" else []


@pytest.mark.parametrize("case", CASES, ids=[
    f"{c['objective']}-M{len(c['probs'])}-D{c['arity']}-{c['fraction']}rmax" for c in CASES])
def test_solve_is_pinned(case):
    observed = _observed(case)
    for key, value in observed.items():
        assert value == case[key], key


if __name__ == "__main__":
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(_generate(), handle, indent=1)
        handle.write("\n")
