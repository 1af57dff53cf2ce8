"""Byte-for-byte pins on `klcodes code` output.

golden_code.json holds one case per shipped instance, objective and radius:
radii 0.05 and 3.0 nats plus 0.5, 0.95 and 1.0 times the instance's r_max
(duplicates dropped; nml-tv runs with --tv 0.1).  Each case stores the argv,
with the instance path relative to the repository root, the exit status and
the exact stdout.  A change that moves any reported float, even in its last
bit, fails here; regenerate the file only for a change that means to alter
the output, and say so.
"""

import json
import os
import subprocess
import sys

import pytest

from klcodes import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

with open(os.path.join(os.path.dirname(__file__), "golden_code.json"), encoding="utf-8") as _handle:
    CASES = json.load(_handle)


def _case_id(case):
    argv = case["argv"]
    return f"{os.path.basename(argv[1])}-{argv[3]}-{argv[5]}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_code_output_is_pinned(capsys, case):
    argv = list(case["argv"])
    argv[1] = os.path.join(ROOT, argv[1])
    status = cli.main(argv)
    assert status == case["status"]
    assert capsys.readouterr().out == case["stdout"]


def test_python_m_klcodes_prints_the_pinned_output():
    # the package entry point, in a fresh interpreter
    case = CASES[0]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-m", "klcodes", *case["argv"]], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == case["status"]
    assert out.stdout == case["stdout"]
