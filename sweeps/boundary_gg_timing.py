"""Boundary gg solve times of two klcodes trees, interleaved in one process.

usage: python sweeps/boundary_gg_timing.py BEFORE_DIR AFTER_SRC ALPHA [M ...]

BEFORE_DIR holds the earlier tree's package copied under the name
klcodes_before (cp -r <tree>/src/klcodes BEFORE_DIR/klcodes_before);
AFTER_SRC is the src directory of the tree under test.  For each M (16,
64, 256 and 1024 by default), 7 Dirichlet(ALPHA) centres from
default_rng(0), floored at 1e-6, are solved by both trees in turn at
R = r_max and halfway to -log min mu, 5 times each.  A cell is the median
over the centres of each centre's fastest solve, so both trees see the same
machine load; the probe counts are the after tree's.
"""

import math
import statistics
import sys
import time

import numpy as np


def main(before_dir, after_src, alpha, sizes):
    sys.path[:0] = [before_dir, after_src]
    import klcodes_before.core as old_core
    import klcodes_before.solver as old
    import klcodes.core as new_core
    import klcodes.solver as new

    rng = np.random.default_rng(0)
    print("| M | radius | before ms | after ms | after probes |")
    print("|---|---|---|---|---|")
    for m in sizes:
        cells = {"r_max": ([], [], []), "midway": ([], [], [])}
        for _ in range(7):
            p = np.maximum(rng.dirichlet(np.full(m, alpha)), 1e-6)
            probs = (p / p.sum()).tolist()
            mu_old, mu_new = old_core.validate_distribution(probs), new_core.validate_distribution(probs)
            r_max = new.existence_threshold(mu_new)[0]
            top = -math.log(min(mu_new.probs))
            for name, radius in (("r_max", r_max), ("midway", 0.5 * (r_max + top))):
                ball_old = old_core.DivergenceBall(mu_old, radius)
                ball_new = new_core.DivergenceBall(mu_new, radius)
                t_old, t_new = [], []
                for _ in range(5):
                    t = time.perf_counter()
                    old.solve_gg(ball_old)
                    t_old.append(time.perf_counter() - t)
                    t = time.perf_counter()
                    result = new.solve_gg(ball_new)
                    t_new.append(time.perf_counter() - t)
                cells[name][0].append(min(t_old))
                cells[name][1].append(min(t_new))
                cells[name][2].append(0 if result.trace is None else len(result.trace.probes))
        for name, (t_old, t_new, probes) in cells.items():
            print(f"| {m} | {name} | {1e3 * statistics.median(t_old):.1f} | "
                  f"{1e3 * statistics.median(t_new):.1f} | {min(probes)}-{max(probes)} |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), [int(a) for a in sys.argv[4:]] or [16, 64, 256, 1024])
