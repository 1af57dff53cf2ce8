"""Byte-for-byte pins on `klcodes verify` output.

golden_verify.json holds verify runs of avg-red and gg on
instances/mixed4.csv, (0.4, 0.3, 0.2, 0.1), and on one Dirichlet M = 4
centre drawn from default_rng(34), at 0.1 and 0.5 times the centre's
r_max with --samples 2000; and `verify --result` on instances/mixed4.csv
at radius 0.05 for both objectives, re-verifying the report that `code`
writes with the same options.  The sampled oracle prints its gaps as
reprs, so a change that moves any sampled point, even in its last bit,
fails here.  Each case stores the argv after the command, with the input
either an instance path relative to the repository root or the case's
own probabilities, the exit status and the exact stdout.  Regenerate the
file only for a change that means to alter these results, and say so:

    PYTHONPATH=src python3 tests/test_golden_verify.py
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

from klcodes import cli
from klcodes.core import Distribution
from klcodes.solver import existence_threshold

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PATH = os.path.join(os.path.dirname(__file__), "golden_verify.json")
MIXED4 = "instances/mixed4.csv"


def _input(case, directory) -> str:
    """The case's input file: a shipped instance, or its probabilities written as JSON."""
    if case["probs"] is None:
        return os.path.join(ROOT, case["instance"])
    path = os.path.join(directory, "centre.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"probs": case["probs"]}, handle)
    return path


def _observed(case, directory) -> tuple[int, str]:
    """verify's exit status and stdout on the case, with any report it re-reads written first."""
    source = _input(case, directory)
    argv = ["verify", source, *case["args"]]
    if case["result"]:
        report = os.path.join(directory, "report.json")
        assert cli.main(["code", source, *case["args"], "--output", report]) == 0
        argv += ["--result", report]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _specs():
    raw = np.random.default_rng(34).dirichlet(np.ones(4))
    drawn = Distribution(tuple((raw / raw.sum()).tolist()))
    for instance, probs, mu in ((MIXED4, None, Distribution((0.4, 0.3, 0.2, 0.1))),
                                (None, list(drawn.probs), drawn)):
        r_max = existence_threshold(mu, 2)[0]
        for objective in ("avg-red", "gg"):
            for fraction in (0.1, 0.5):
                yield {"instance": instance, "probs": probs, "result": False,
                       "args": ["--objective", objective, "--radius", repr(fraction * r_max),
                                "--samples", "2000"]}
    for objective in ("avg-red", "gg"):
        yield {"instance": MIXED4, "probs": None, "result": True,
               "args": ["--objective", objective, "--radius", "0.05"]}


def _load() -> list[dict]:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


CASES = _load() if __name__ != "__main__" else []


def _case_id(case) -> str:
    source = "mixed4" if case["probs"] is None else "dirichlet4"
    return f"{source}-{case['args'][1]}-{case['args'][3]}" + ("-result" if case["result"] else "")


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_verify_output_is_pinned(tmp_path, case):
    assert _observed(case, str(tmp_path)) == (case["status"], case["stdout"])


if __name__ == "__main__":
    cases = []
    for case in _specs():
        with tempfile.TemporaryDirectory() as directory:
            case["status"], case["stdout"] = _observed(case, directory)
        cases.append(case)
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1)
        handle.write("\n")
