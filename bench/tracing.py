"""Per-layer tracing from outside the program.

The tracer wraps public functions of klcodes for the length of one traced
phase and puts the originals back afterwards.  The package imports by name
(`from .tilted import tilted_root` in solver and oracle, and so on), so a
wrapper replaces every binding of the original in every klcodes module,
not only the one in the defining module.

Each call becomes a span (name, start, end, parent) kept in flat arrays in
memory and written out once at the end.  Self time is a span's duration
minus the part covered by its child spans, accumulated per name as spans
close.  Counters that need a function's result (roots found, Newton
iterations, points sampled, codes evaluated) are read from the result the
wrapper returns unchanged.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name) for every wrapped function; solver's own
# binding of tilted_root gets one more wrapper counting scored candidates.
TARGETS = (
    ("klcodes.core", "kl_divergence", "core.kl_divergence"),
    ("klcodes.huffman", "huffman", "huffman.sum"),
    ("klcodes.huffman", "exponential_huffman_log", "huffman.exp"),
    ("klcodes.huffman", "max_huffman", "huffman.max"),
    ("klcodes.huffman", "canonical_codewords", "huffman.canonical"),
    ("klcodes.tilted", "nu_circ", "tilted.nu_circ"),
    ("klcodes.tilted", "tilted_root", "tilted.tilted_root"),
    ("klcodes.tilted", "exact_avg_sup", "tilted.exact_avg_sup"),
    ("klcodes.solver", "g_of_beta", "solver.g_of_beta"),
    ("klcodes.solver", "existence_threshold", "solver.existence_threshold"),
    ("klcodes.nml", "solve_pi_k", "nml.solve_pi_k"),
    ("klcodes.nml", "nml_distribution", "nml.nml_distribution"),
    ("klcodes.oracle", "ball_sample", "oracle.ball_sample"),
    ("klcodes.oracle", "brute_min_over_codes", "oracle.brute_min_over_codes"),
    ("klcodes.oracle", "brute_sup_over_ball", "oracle.brute_sup_over_ball"),
    ("klcodes.cli", "main", "cli.main"),
)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
CALLS = ("huffman.exp", "huffman.sum", "huffman.max", "solver.g_of_beta",
         "tilted.nu_circ", "tilted.tilted_root", "tilted.exact_avg_sup",
         "nml.solve_pi_k", "nml.nml_distribution", "oracle.ball_sample",
         "core.kl_divergence")
SELF_MS = ("huffman.exp", "huffman.sum", "huffman.max", "huffman.canonical",
           "solver.g_of_beta", "solver.existence_threshold", "tilted.nu_circ",
           "tilted.tilted_root", "tilted.exact_avg_sup", "nml.solve_pi_k",
           "nml.nml_distribution", "oracle.ball_sample", "oracle.brute_min_over_codes",
           "oracle.brute_sup_over_ball", "core.distribution", "core.kl_divergence",
           "cli.main")
COUNTS = ("solver.candidates", "tilted.tilted_root.rooted", "nml.newton_iters",
          "oracle.ball_sample.points", "oracle.codes_evaluated",
          "core.distribution.constructs")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, the traced run's full report."""
    names = [(f"{n}.calls", "count") for n in CALLS]
    names += [(f"{n}.self_ms", "ms") for n in SELF_MS]
    names += [(n, "count") for n in COUNTS]
    names += [("cli.cold_start_ms", "ms"), ("trace.overhead_ms", "ms")]
    return names


class Tracer:
    """Spans and counters for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        nid = self._id(name)
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self._child.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            child = self._child.pop()
            self.span_end[index] = end
            duration = end - start
            self.self_s[nid] += duration - child
            self.calls[nid] += 1
            if self._child:
                self._child[-1] += duration

    def wrap(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result, kwargs)
            return result

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "klcodes" and not modname.startswith("klcodes."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every target in every klcodes module that binds it."""
        hooks = {
            "tilted.tilted_root": self._count_rooted,
            "nml.solve_pi_k": self._count_newton,
            "oracle.ball_sample": self._count_points,
            "oracle.brute_min_over_codes": self._count_codes,
        }
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self.wrap(name, original, hooks.get(name)))
        solver = sys.modules["klcodes.solver"]
        traced_root = solver.tilted_root
        self._restore.append((solver, "tilted_root", traced_root))
        solver.tilted_root = self._count_candidates(traced_root)

        distribution = sys.modules["klcodes.core"].Distribution
        post_init = distribution.__post_init__
        tracer = self

        def traced_post_init(obj):
            tracer.counts["core.distribution.constructs"] += 1
            return tracer.call("core.distribution", post_init, obj)

        self._restore.append((distribution, "__post_init__", post_init))
        distribution.__post_init__ = traced_post_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _count_candidates(self, traced_root):
        def candidate(*args, **kwargs):
            self.counts["solver.candidates"] += 1
            return traced_root(*args, **kwargs)

        return candidate

    def _count_rooted(self, result, kwargs) -> None:
        if result is not None:
            self.counts["tilted.tilted_root.rooted"] += 1

    def _count_newton(self, result, kwargs) -> None:
        if kwargs.get("return_info"):
            self.counts["nml.newton_iters"] += result[1]["iterations"]

    def _count_points(self, result, kwargs) -> None:
        self.counts["oracle.ball_sample.points"] += len(result)

    def _count_codes(self, result, kwargs) -> None:
        self.counts["oracle.codes_evaluated"] += result.evaluations

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer figures of the traced phase, by metric name.

        Self times are multiplied by `scale`, the phase's ratio of time at
        reference speed to wall time (see speed.py).
        """
        out: dict[str, float] = {}
        for name in CALLS:
            out[f"{name}.calls"] = self.calls[self._id(name)]
        for name in SELF_MS:
            out[f"{name}.self_ms"] = self.self_s[self._id(name)] * 1000.0 * scale
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def write(self, path) -> int:
        """Write every span to a compressed .npz file; returns the span count."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_name)
