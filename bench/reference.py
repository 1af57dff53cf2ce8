"""Reference figures kept out of the gated workloads.

    python3 bench/reference.py

Each figure here takes seconds per operation or rests on cold interpreter
starts, which swing too much to gate a change on.  They are printed for
the record, as medians over REPEATS runs, in wall seconds and at reference
speed (see speed.py):

- exact_avg_sup on one M=12 centre at r_max (2^12 faces);
- solve_avg_redundancy at M=12 and 0.95 r_max (interior, candidates
  without a tilt root, so several face enumerations);
- cold start of `python -c "import klcodes"` and of `python -m klcodes code`
  on a shipped instance.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEATS = 3
SEED = 1


def timed(fn) -> tuple[float, float]:
    """Median wall seconds and median seconds at reference speed."""
    watch = speed.Stopwatch()
    for _ in range(REPEATS):
        watch.call(fn)
    return statistics.median(watch.walls), statistics.median(watch.scaled())


def main() -> int:
    if not (SRC / "klcodes" / "__init__.py").is_file():
        print(f"error: no klcodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import klcodes

    rng = np.random.default_rng([SEED, 12])
    mu = workloads.centre(klcodes, rng, 12)
    r_max, _, limit_code = klcodes.existence_threshold(mu)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    instance = str(ROOT / "instances" / "skewed3.json")
    cells = {
        "exact_avg_sup/M=12/R=rmax": lambda: klcodes.exact_avg_sup(mu, limit_code, r_max),
        "avg/M=12/R=0.95rmax": lambda: klcodes.solve_avg_redundancy(
            klcodes.DivergenceBall(mu, 0.95 * r_max)),
        "cold_start/import": lambda: subprocess.run(
            [sys.executable, "-c", "import klcodes"], env=env, check=True, timeout=120),
        "cold_start/code": lambda: subprocess.run(
            [sys.executable, "-m", "klcodes", "code", instance, "--objective", "avg-red",
             "--radius", "0.05"], env=env, check=True, timeout=120,
            stdout=subprocess.DEVNULL),
    }
    for name, fn in cells.items():
        wall, scaled = timed(fn)
        print(f"{name:28s} wall {wall:9.3f} s   at reference speed {scaled:9.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
