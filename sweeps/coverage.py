"""List the lines of the klcodes source that no tier-1 test runs.

usage: python sweeps/coverage.py [PYTEST_ARGS...]

Runs the tests of the tree holding this script (its tests/, or
PYTEST_ARGS when given) in this process under a line tracer built on
sys.settrace and threading.settrace, standard library only.  Tracing
starts before pytest imports klcodes, so module-level lines count too.
A line is executable when some code object compiled from its module
carries it in co_lines(); every such line of src/klcodes that no traced
frame reached prints as "module:line  source", sorted, and a count
follows.  Code that tests run in a subprocess (python -m klcodes) is not
traced and lists as missed.

The exit status is 0 whatever the tests or the count: this reports and
does not gate.  A missed line is a candidate dead branch, so a
simplification can start from this list: either a test should reach
the line or the line can go.  The tracer slows the suite about 2.5-3x.
"""

import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "klcodes"


def executable_lines(path: Path) -> set[int]:
    """Every line that a code object compiled from this module carries."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest.main(pytest_args) under the tracer; its status and the lines run per file."""
    prefix = str(PACKAGE) + "/"
    run = defaultdict(set)

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = run[filename]
        # a function's def line is in its co_lines(), but only this call event reports it
        seen.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), run


def main(argv: list[str]) -> int:
    # read before the run, so the lines listed are those of the code traced
    modules = [(path, path.read_text().splitlines(), executable_lines(path))
               for path in sorted(PACKAGE.glob("*.py"))]
    status, run = traced_run(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = total = 0
    for path, source, lines in modules:
        total += len(lines)
        for line in sorted(lines - run[str(path)]):
            missed += 1
            print(f"{path.name}:{line}  {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines of src/klcodes not run (pytest exit {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
