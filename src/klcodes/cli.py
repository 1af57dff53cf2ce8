"""Batch front door: ingest a distribution, solve an objective, emit results.

Exit codes: 0 success, 2 malformed input, 3 boundary regime in strict mode,
4 no convergence, 5 failed verification, 6 input valid but beyond the exact
range.  Reports are rendered completely before anything is written, so error
paths never leave partial output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import oracle
from .core import (
    Distribution,
    DivergenceBall,
    CodeLengths,
    ceil_log_inv,
    drop_zero_symbols,
    entropy,
    kl_divergence,
    kraft_sum,
    pinsker_upper,
    validate_distribution,
)
from .errors import BoundaryRegimeError, CodingError, LimitExceededError, NoConvergenceError
from .huffman import canonical_codewords, shannon_lengths
from .nml import NmlResult, nml_distribution, nml_tv, pointwise_code, pointwise_utility
from .solver import RobustCodeResult, existence_threshold, solve_avg_redundancy, solve_gg
from .tilted import avg_redundancy, gg_utility

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BOUNDARY = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFY = 5
EXIT_LIMIT = 6

OBJECTIVES = ("avg-red", "gg", "pointwise", "shannon-nominal", "nml-only", "nml-tv")


def load_distribution(path: str, allow_zero_drop: bool = False) -> Distribution:
    """Read a distribution from JSON {"probs": [...], "labels": [...]} or CSV label,prob."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        payload = json.loads(text)
        probs = payload["probs"]
        labels = payload.get("labels")
    else:
        probs, labels = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            label, _, value = line.rpartition(",")
            probs.append(float(value))
            labels.append(label.strip())
        if not any(labels):
            labels = None
    if allow_zero_drop:
        probs, labels = drop_zero_symbols(probs, labels)
    return validate_distribution(probs, allow_zero=False, labels=labels)


def _radius(args) -> float:
    radius = args.radius
    if radius is None:
        raise CodingError("--radius is required for this objective")
    if not (radius >= 0.0):
        raise CodingError(f"radius must be >= 0, got {radius}")
    return radius * math.log(2.0) if args.bits else radius


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_atomic(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".klcodes-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}{key}." if isinstance(sub, dict) else f"{prefix}{key}", sub)
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix}: {' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{prefix}: {value}")

    walk("", payload)
    return "\n".join(lines) + "\n"


def _code_payload(objective: str, result: RobustCodeResult, residuals: list[float]) -> dict:
    payload = {
        "objective": objective,
        "regime": result.regime,
    }
    if result.beta is not None:
        payload["beta"] = result.beta
    payload.update(
        {
            "lengths": [int(l) for l in result.lengths.lengths],
            "arity": result.lengths.arity,
            "codewords": list(result.codewords.codewords),
            "worst_case": list(result.worst_case.probs),
            "achieved_utility": result.achieved_utility,
            "diagnostics": {
                "kraft_sum": kraft_sum(result.lengths),
                "residuals": residuals,
            },
        }
    )
    return payload


def run_analyze(args) -> dict:
    mu = load_distribution(args.input, args.allow_zero)
    arity = args.arity
    r_max, _, limit_code = existence_threshold(mu, arity)
    payload = {
        "m": mu.m,
        "arity": arity,
        "entropy": entropy(mu, arity),
        "r_max": r_max,
        "gg_threshold": -math.log(min(mu.probs)),
        "limit_lengths": [int(l) for l in limit_code.lengths],
    }
    if args.radius is not None:
        radius = _radius(args)
        cutoff = math.exp(-radius)
        payload["radius"] = radius
        payload["saturation_cutoff"] = cutoff
        payload["saturated"] = [p >= cutoff for p in mu.probs]
    return payload


def _nml_payload(objective: str, key: str, value: float, result: NmlResult) -> dict:
    return {
        "objective": objective,
        key: value,
        "raw": list(result.raw),
        "normalized": list(result.normalized.probs),
        "saturated": sorted(result.saturated),
        "diagnostics": {"residuals": list(result.roots_residual)},
    }


def run_code(args) -> tuple[dict, NmlResult | None]:
    """The report and the suprema solve behind it, if any."""
    mu = load_distribution(args.input, args.allow_zero)
    objective = args.objective
    arity = args.arity

    if objective == "nml-tv":
        if args.tv is None:
            raise CodingError("--tv is required for nml-tv")
        nml = nml_tv(mu, args.tv)
        return _nml_payload(objective, "tv", args.tv, nml), nml

    radius = _radius(args)
    ball = DivergenceBall(mu, radius)

    if objective == "nml-only":
        nml = nml_distribution(ball, args.tol)
        return _nml_payload(objective, "radius", radius, nml), nml

    if objective == "pointwise":
        # one solve: the code, its worst case and the residuals all come from it
        nml = nml_distribution(ball)
        result = pointwise_code(ball, nml, arity)
        return _code_payload(objective, result, list(nml.roots_residual)), nml

    if objective == "shannon-nominal":
        lengths = shannon_lengths(mu, arity)
        result = RobustCodeResult(
            lengths=lengths,
            codewords=canonical_codewords(lengths),
            beta=None,
            worst_case=mu,
            achieved_utility=avg_redundancy(lengths, mu),
            regime="zero_radius",
        )
        return _code_payload(objective, result, []), None

    solve = solve_avg_redundancy if objective == "avg-red" else solve_gg
    result = solve(ball, arity, args.tol, strict_boundary=args.strict_boundary)
    residuals = []
    if result.beta is not None:
        residuals.append(abs(kl_divergence(result.worst_case, mu) - radius))
    return _code_payload(objective, result, residuals), None


class _Checks:
    def __init__(self):
        self.rows: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.rows.append((name, bool(ok), detail))

    def render(self) -> str:
        lines = [
            f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
            for name, ok, detail in self.rows
        ]
        failed = sum(1 for _, ok, _ in self.rows if not ok)
        lines.append(f"{len(self.rows) - failed}/{len(self.rows)} checks passed")
        return "\n".join(lines) + "\n"

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _ in self.rows)


def _nml_checks(mu: Distribution, radius: float, nml: NmlResult) -> dict[str, bool]:
    """saturation_rule and root_certificates for one solve of the suprema."""
    cutoff = math.exp(-radius) if radius > 0.0 else 1.0
    return {
        "saturation_rule": all((p >= cutoff) == (k in nml.saturated) for k, p in enumerate(mu.probs)),
        "root_certificates": radius == 0.0 or all(
            r <= 1e-10 for k, r in enumerate(nml.roots_residual) if k not in nml.saturated
        ),
    }


def _check_code_report(args, mu, payload: dict, nml: NmlResult | None, checks: _Checks) -> None:
    lengths = CodeLengths(tuple(payload["lengths"]), arity=payload["arity"])
    checks.add("kraft", kraft_sum(lengths) <= 1.0 + 1e-12,
               f"kraft_sum={_fmt(kraft_sum(lengths))}")
    worst = Distribution(tuple(payload["worst_case"]))
    recomputed = _recompute_utility(args.objective, lengths, worst, mu)
    checks.add("utility_recompute", abs(recomputed - payload["achieved_utility"]) <= 1e-9,
               f"residual={_fmt(abs(recomputed - payload['achieved_utility']))}")

    radius = _radius(args)
    if args.objective in ("avg-red", "gg"):
        # a tilt-rooted worst case must sit on the ball boundary; the report
        # carries its divergence residual exactly then (with beta);
        # flat-code winners (no beta) peak at an inside vertex instead
        for residual in payload["diagnostics"]["residuals"]:
            checks.add("worst_case_divergence", residual <= max(args.tol, 1e-9),
                       f"residual={_fmt(residual)}")
        if mu.m <= 4 and args.arity == 2 and radius > 0.0:
            ball = DivergenceBall(mu, radius)
            samples = oracle.ball_sample(ball, n_interior=args.samples,
                                         n_boundary=64, seed=args.seed,
                                         arity=args.arity, l_max=args.lmax)
            utility = "avg_red" if args.objective == "avg-red" else "gg"
            sup = oracle.brute_sup_over_ball(lengths, ball, utility, samples)
            checks.add("sampled_dominance", sup <= payload["achieved_utility"] + 1e-6,
                       f"gap={_fmt(sup - payload['achieved_utility'])}")
            # boundary-regime average redundancy makes no minimaxity claim:
            # its reported value is an honest sampled supremum only
            if payload["regime"] == "interior" or args.objective == "gg":
                report = oracle.brute_min_over_codes(utility, ball=ball, arity=args.arity,
                                                     l_max=args.lmax, samples=samples)
                gap = abs(report.optimum_value - payload["achieved_utility"])
                checks.add("oracle_minimax", gap <= 5e-3, f"gap={_fmt(gap)}")
    elif args.objective == "pointwise":
        # the solve the code was built from; its saturated set and raw roots
        # are not in the report
        for name, ok in _nml_checks(mu, radius, nml).items():
            checks.add(name, ok)
        if radius > 0.0:
            in_range = all(
                mu.probs[k] < nml.raw[k] <= pinsker_upper(mu.probs[k], radius)
                for k in range(mu.m) if k not in nml.saturated
            )
            checks.add("root_range", in_range)
        if mu.m <= 8:
            report = oracle.brute_min_over_codes(
                "pointwise", weights=nml.normalized.probs, arity=args.arity, l_max=args.lmax
            )
            gap = abs(report.optimum_value - payload["achieved_utility"])
            checks.add("oracle_pointwise", gap <= 1e-9, f"gap={_fmt(gap)}")
        # both codes are scored on the one distribution the Huffman code was
        # built for, the reported worst case
        shannon = shannon_lengths(nml.normalized, args.arity)
        by_symbol = all(
            h <= s for h, s in zip(lengths.lengths, shannon.lengths)
        )
        shannon_value = pointwise_utility(shannon, worst)
        checks.add("shannon_dominance",
                   by_symbol and recomputed <= shannon_value < 1.0,
                   f"huffman={_fmt(recomputed)} shannon={_fmt(shannon_value)}")
    elif args.objective == "shannon-nominal":
        expected = tuple(ceil_log_inv(p, args.arity) for p in mu.probs)
        checks.add("shannon_lengths", tuple(payload["lengths"]) == expected)


def _recompute_utility(objective, lengths, worst, mu) -> float:
    if objective == "avg-red":
        return avg_redundancy(lengths, worst)
    if objective == "gg":
        return gg_utility(lengths, worst, mu)
    if objective == "pointwise":
        return pointwise_utility(lengths, worst)
    return avg_redundancy(lengths, worst)


def _check_stored_report(path: str, fresh: dict, checks: _Checks) -> None:
    """Compare a stored report with the fresh one, field by field."""
    with open(path, "r", encoding="utf-8") as handle:
        stored = json.load(handle)
    try:
        if "lengths" in fresh:
            checks.add("result_lengths", stored.get("lengths") == fresh["lengths"])
            checks.add("result_codewords", stored.get("codewords") == fresh["codewords"])
            checks.add(
                "result_utility",
                abs(stored.get("achieved_utility", math.nan) - fresh["achieved_utility"]) <= 1e-9,
            )
        same = json.dumps(fresh["diagnostics"], sort_keys=True) == json.dumps(
            stored.get("diagnostics"), sort_keys=True
        )
        checks.add("diagnostics_roundtrip", same)
        if "worst_case" in fresh:
            checks.add("result_worst_case", stored.get("worst_case") == fresh["worst_case"])
    except TypeError as exc:
        checks.add("result_integrity", False, str(exc))


def run_verify(args) -> tuple[str, int]:
    mu = load_distribution(args.input, args.allow_zero)
    fresh, nml = run_code(args)
    checks = _Checks()
    if args.objective == "nml-only":
        rows = _nml_checks(mu, _radius(args), nml)
        for name in ("root_certificates", "saturation_rule"):
            checks.add(name, rows[name])
    elif args.objective == "nml-tv":
        expected = tuple(min(1.0, p + args.tv / 2.0) for p in mu.probs)
        checks.add("tv_suprema", tuple(fresh["raw"]) == expected)
    else:
        _check_code_report(args, mu, fresh, nml, checks)
    if args.result is not None:
        _check_stored_report(args.result, fresh, checks)
    text = checks.render()
    return text, EXIT_OK if checks.all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klcodes",
        description="Robust prefix codes over relative-entropy uncertainty balls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_radius=True):
        p.add_argument("input", help="distribution file (JSON or CSV)")
        p.add_argument("--arity", type=int, default=2, help="code alphabet size D")
        if with_radius:
            p.add_argument("--radius", type=float, default=None, help="ball radius (nats)")
            p.add_argument("--bits", action="store_true", help="radius is given in bits")
        p.add_argument("--allow-zero", action="store_true",
                       help="drop zero-probability symbols instead of rejecting")

    analyze = sub.add_parser("analyze", help="report thresholds and diagnostics")
    common(analyze)
    analyze.add_argument("--format", choices=("json", "table"), default="table")

    code = sub.add_parser("code", help="solve an objective and emit the code")
    common(code)
    code.add_argument("--objective", choices=OBJECTIVES, required=True)
    code.add_argument("--tv", type=float, default=None, help="total variation for nml-tv")
    code.add_argument("--tol", type=float, default=1e-9)
    code.add_argument("--strict-boundary", action="store_true",
                      help="error out instead of returning the boundary-regime code")
    code.add_argument("--format", choices=("json", "table"), default="json")
    code.add_argument("--output", default=None, help="write the report to this file")

    verify = sub.add_parser("verify", help="run oracle cross-checks")
    common(verify)
    verify.add_argument("--objective", choices=OBJECTIVES, required=True)
    verify.add_argument("--tv", type=float, default=None)
    verify.add_argument("--tol", type=float, default=1e-9)
    verify.add_argument("--lmax", type=int, default=None)
    verify.add_argument("--samples", type=int, default=20000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--strict-boundary", action="store_true")
    verify.add_argument("--result", default=None,
                        help="previously emitted JSON report to re-verify")
    verify.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            _write_atomic(_render(run_analyze(args), args.format), None)
        elif args.command == "code":
            payload, _ = run_code(args)
            _write_atomic(_render(payload, args.format), args.output)
        else:
            text, status = run_verify(args)
            _write_atomic(text, args.output)
            return status
        return EXIT_OK
    except BoundaryRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except LimitExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (CodingError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
