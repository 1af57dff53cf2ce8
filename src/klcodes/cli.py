"""Batch front door: ingest a distribution, solve an objective, emit results.

Exit codes: 0 success, 2 malformed input, 3 boundary regime in strict mode,
4 no convergence, 5 failed verification, 6 input valid but beyond the exact
range.  Reports are rendered completely before anything is written, so error
paths never leave partial output.
"""

from __future__ import annotations

import argparse
import functools
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
from .huffman import shannon_lengths
from .nml import NmlResult, nml_distribution, nml_tv, pointwise_code
from .solver import RobustCodeResult, existence_threshold, solve_avg_redundancy, solve_gg
from .tilted import avg_redundancy, objective_utility

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BOUNDARY = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFY = 5
EXIT_LIMIT = 6

# an error exits with the code of the first of its classes (in MRO order) listed here
_EXIT_CODES = {BoundaryRegimeError: EXIT_BOUNDARY, NoConvergenceError: EXIT_NO_CONVERGENCE,
               LimitExceededError: EXIT_LIMIT,
               **dict.fromkeys((CodingError, OSError, ValueError, KeyError), EXIT_INPUT)}

OBJECTIVES = ("avg-red", "gg", "pointwise", "shannon-nominal", "nml-only", "nml-tv")


def load_distribution(path: str, allow_zero_drop: bool = False) -> Distribution:
    """Read a distribution from JSON {"probs": [...], "labels": [...]} or CSV label,prob.

    This is the one reader of labels: JSON "labels", when present, must be a
    list as long as "probs", checked before any zero is dropped; they are
    otherwise ignored, and no report carries them.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        payload = json.loads(text)
        probs = payload.get("probs") if isinstance(payload, dict) else None
        if not (isinstance(probs, list) and all(type(p) in (int, float) for p in probs)):
            raise CodingError('JSON input must be an object whose "probs" is a list of numbers')
        labels = payload.get("labels", probs)
        if not (isinstance(labels, list) and len(labels) == len(probs)):
            raise CodingError('"labels" must be a list as long as "probs"')
        try:
            probs = [float(p) for p in probs]
        except OverflowError:
            raise CodingError('a "probs" entry is too large for a float') from None
    else:
        probs = [float(line.rpartition(",")[2]) for line in map(str.strip, text.splitlines())
                 if line and not line.startswith("#")]
    if allow_zero_drop:
        probs = drop_zero_symbols(probs)
    return validate_distribution(probs)


def _radius(args) -> float:
    """The radius in nats; build_parser has already checked its range."""
    if args.radius is None:
        raise CodingError("--radius is required for this objective")
    return args.radius * math.log(2.0) if args.bits else args.radius


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
            "lengths": list(result.lengths.lengths),
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
        "limit_lengths": list(limit_code.lengths),
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


def run_code(args, mu: Distribution) -> tuple[dict, NmlResult | None]:
    """The report on the loaded distribution and the suprema solve behind it, if any."""
    objective = args.objective
    arity = args.arity

    if objective == "nml-tv":
        if args.tv is None:
            raise CodingError("--tv is required for nml-tv")
        nml = nml_tv(mu, args.tv)
        return _nml_payload(objective, "tv", args.tv, nml), nml

    if objective == "shannon-nominal":
        lengths = shannon_lengths(mu, arity)
        result = RobustCodeResult(
            lengths=lengths,
            beta=None,
            worst_case=mu,
            achieved_utility=avg_redundancy(lengths, mu),
            regime="zero_radius",
        )
        return _code_payload(objective, result, []), None

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

    solve = solve_avg_redundancy if objective == "avg-red" else solve_gg
    result = solve(ball, arity, args.tol, strict_boundary=args.strict_boundary)
    residuals = []
    if result.beta is not None:
        residuals.append(abs(kl_divergence(result.worst_case, mu) - radius))
    return _code_payload(objective, result, residuals), None


def _root_in_range(m: float, raw: float, radius: float) -> bool:
    """root_range for one entry: raw lies in (m, pinsker_upper(m, radius)].

    raw may also equal m where the root rounds to m: there m + sqrt(2 R m
    (1 - m)), the root to first order in R, rounds to m, so m is the
    correctly rounded root.
    """
    above = m < raw or raw == m and m + math.sqrt(2.0 * radius * m * (1.0 - m)) == m
    return above and raw <= pinsker_upper(m, radius)


def _nml_checks(mu: Distribution, radius: float, nml: NmlResult) -> dict[str, bool]:
    """saturation_rule and root_certificates for one solve of the suprema."""
    cutoff = math.exp(-radius) if radius > 0.0 else 1.0
    return {
        "saturation_rule": all((p >= cutoff) == (k in nml.saturated) for k, p in enumerate(mu.probs)),
        "root_certificates": radius == 0.0 or all(
            r <= 1e-10 for k, r in enumerate(nml.roots_residual) if k not in nml.saturated
        ),
    }


def _oracle_l_max(args, lengths: CodeLengths) -> int | None:
    """--lmax for an oracle that must enumerate the reported code; CodingError if it cannot.

    An oracle capped below the report's longest codeword never meets the
    reported code, so its gap would read as a failure of a correct report.
    """
    longest = max(lengths.lengths)
    if args.lmax is not None and args.lmax < longest:
        raise CodingError(f"--lmax {args.lmax} is below the reported code's longest "
                          f"codeword ({longest}), so the oracle cannot enumerate it")
    return args.lmax


def _check_code_report(args, mu, payload: dict, nml: NmlResult | None, check) -> None:
    lengths = CodeLengths(tuple(payload["lengths"]), arity=payload["arity"])
    check("kraft", kraft_sum(lengths) <= 1.0 + 1e-12,
          f"kraft_sum={_fmt(kraft_sum(lengths))}")
    worst = Distribution(tuple(payload["worst_case"]))
    recomputed = objective_utility(args.objective, lengths, worst, mu)
    check("utility_recompute", abs(recomputed - payload["achieved_utility"]) <= 1e-9,
          f"residual={_fmt(abs(recomputed - payload['achieved_utility']))}")

    if args.objective in ("avg-red", "gg"):
        radius = _radius(args)
        # a tilt-rooted worst case must sit on the ball boundary; the report
        # carries its divergence residual exactly then (with beta);
        # flat-code winners (no beta) peak at an inside vertex instead
        for residual in payload["diagnostics"]["residuals"]:
            check("worst_case_divergence", residual <= max(args.tol, 1e-9),
                  f"residual={_fmt(residual)}")
        if mu.m <= 4 and args.arity == 2 and radius > 0.0:
            # boundary-regime average redundancy makes no minimaxity claim:
            # its reported value is an honest sampled supremum only; a cap
            # too short for the minimax fails before the ball is sampled
            minimax = payload["regime"] == "interior" or args.objective == "gg"
            l_max = _oracle_l_max(args, lengths) if minimax else args.lmax
            ball = DivergenceBall(mu, radius)
            samples = oracle.ball_sample(ball, n_interior=args.samples, seed=args.seed,
                                         arity=args.arity, l_max=l_max)
            sup = oracle.brute_sup_over_ball(lengths, args.objective, samples)
            check("sampled_dominance", sup <= payload["achieved_utility"] + 1e-6,
                  f"gap={_fmt(sup - payload['achieved_utility'])}")
            if minimax:
                report = oracle.brute_min_over_codes(args.objective, ball=ball, arity=args.arity,
                                                     l_max=l_max, samples=samples)
                gap = abs(report.optimum_value - payload["achieved_utility"])
                check("oracle_minimax", gap <= 5e-3, f"gap={_fmt(gap)}")
    elif args.objective == "pointwise":
        radius = _radius(args)
        # the solve the code was built from; its saturated set and raw roots
        # are not in the report
        for name, ok in _nml_checks(mu, radius, nml).items():
            check(name, ok)
        if radius > 0.0:
            in_range = all(_root_in_range(mu.probs[k], nml.raw[k], radius)
                           for k in range(mu.m) if k not in nml.saturated)
            check("root_range", in_range)
        if mu.m <= 8:
            report = oracle.brute_min_over_codes(
                "pointwise", weights=nml.normalized.probs, arity=args.arity,
                l_max=_oracle_l_max(args, lengths),
            )
            gap = abs(report.optimum_value - payload["achieved_utility"])
            check("oracle_pointwise", gap <= 1e-9, f"gap={_fmt(gap)}")
        # both codes are scored on the one distribution the Huffman code was
        # built for, the reported worst case
        shannon = shannon_lengths(nml.normalized, args.arity)
        by_symbol = all(
            h <= s for h, s in zip(lengths.lengths, shannon.lengths)
        )
        shannon_value = objective_utility("pointwise", shannon, worst, mu)
        check("shannon_dominance",
              by_symbol and recomputed <= shannon_value < 1.0,
              f"huffman={_fmt(recomputed)} shannon={_fmt(shannon_value)}")
    elif args.objective == "shannon-nominal":
        expected = tuple(ceil_log_inv(p, args.arity) for p in mu.probs)
        check("shannon_lengths", tuple(payload["lengths"]) == expected)


def _check_stored_report(path: str, fresh: dict, check) -> None:
    """Compare a stored report with the fresh one, field by field."""
    with open(path, "r", encoding="utf-8") as handle:
        stored = json.load(handle)
    if not isinstance(stored, dict):
        raise CodingError(f"{path} must hold a JSON report object")
    try:
        if "lengths" in fresh:
            check("result_lengths", stored.get("lengths") == fresh["lengths"])
            check("result_codewords", stored.get("codewords") == fresh["codewords"])
            check(
                "result_utility",
                abs(stored.get("achieved_utility", math.nan) - fresh["achieved_utility"]) <= 1e-9,
            )
        same = json.dumps(fresh["diagnostics"], sort_keys=True) == json.dumps(
            stored.get("diagnostics"), sort_keys=True
        )
        check("diagnostics_roundtrip", same)
        if "worst_case" in fresh:
            check("result_worst_case", stored.get("worst_case") == fresh["worst_case"])
    except TypeError as exc:
        check("result_integrity", False, str(exc))


def run_verify(args) -> tuple[str, int]:
    mu = load_distribution(args.input, args.allow_zero)
    fresh, nml = run_code(args, mu)
    lines: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))

    if args.objective == "nml-only":
        rows = _nml_checks(mu, _radius(args), nml)
        for name in ("root_certificates", "saturation_rule"):
            check(name, rows[name])
    elif args.objective == "nml-tv":
        expected = tuple(min(1.0, p + args.tv / 2.0) for p in mu.probs)
        check("tv_suprema", tuple(fresh["raw"]) == expected)
    else:
        _check_code_report(args, mu, fresh, nml, check)
    if args.result is not None:
        _check_stored_report(args.result, fresh, check)
    passed = sum(line.startswith("PASS") for line in lines)
    text = "\n".join(lines) + f"\n{passed}/{len(lines)} checks passed\n"
    return text, EXIT_OK if passed == len(lines) else EXIT_VERIFY


def _in_range(convert, low, name: str, finite: bool = False, most=math.inf):
    """An argparse type: the text through convert, at least low, finite if asked, at most most.

    A value below low or infinite where finite is asked raises CodingError,
    which main maps to exit 2; one above most is valid input beyond the
    exact range and raises LimitExceededError, exit 6.  Text that convert
    rejects keeps argparse's "invalid float value" (or int) message, since
    the type carries convert's name.
    """
    def parse(text: str):
        value = convert(text)
        if value > most:
            raise LimitExceededError(f"{name} must be <= {most}, got {value}")
        if value >= low and (value < math.inf or not finite):
            return value
        raise CodingError(f"{name} must be {'finite and ' if finite else ''}>= {low}, got {value}")

    parse.__name__ = convert.__name__
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser; each numeric flag's accepted range is checked where it is declared.

    Built once per process: parse_args keeps no state between calls, so
    every main call reuses it.
    """
    parser = argparse.ArgumentParser(
        prog="klcodes",
        description="Robust prefix codes over relative-entropy uncertainty balls",
    )
    sub = parser.add_subparsers(dest="command", required=True, help="what to run")

    def common(p):
        p.add_argument("input", help="distribution file (JSON or CSV)")
        p.add_argument("--arity", type=_in_range(int, 2, "arity"), default=2, help="code alphabet size D")
        p.add_argument("--radius", type=_in_range(float, 0, "radius", finite=True), help="ball radius (nats)")
        p.add_argument("--bits", action="store_true", help="radius is given in bits")
        p.add_argument("--allow-zero", action="store_true",
                       help="drop zero-probability symbols instead of rejecting")

    def solve_options(p):
        p.add_argument("--objective", choices=OBJECTIVES, required=True,
                       help="what to optimise or report")
        p.add_argument("--tv", type=_in_range(float, 0, "total variation", finite=True),
                       help="total variation for nml-tv")
        p.add_argument("--tol", type=_in_range(float, 0, "tol"), default=1e-9,
                       help="tilt search tolerance (avg-red, gg) or Newton tolerance (nml-only)")
        p.add_argument("--strict-boundary", action="store_true",
                       help="error out instead of returning the boundary-regime code")
        p.add_argument("--output", default=None, help="write the output to this file")

    analyze = sub.add_parser("analyze", help="report thresholds and diagnostics")
    common(analyze)
    analyze.add_argument("--format", choices=("json", "table"), default="table",
                         help="report layout")

    code = sub.add_parser("code", help="solve an objective and emit the code")
    common(code)
    solve_options(code)
    code.add_argument("--format", choices=("json", "table"), default="json", help="report layout")

    verify = sub.add_parser("verify", help="run oracle cross-checks")
    common(verify)
    solve_options(verify)
    verify.add_argument("--lmax", type=_in_range(int, 1, "lmax", most=oracle.ENUM_MAX_LEN),
                        default=None, help="longest codeword the oracle enumerates (1 to 10)")
    verify.add_argument("--samples", type=_in_range(int, 0, "samples"), default=20000,
                        help="interior points of the oracle's ball sample")
    verify.add_argument("--seed", type=_in_range(int, 0, "seed"), default=0,
                        help="seed of the ball sample")
    verify.add_argument("--result", default=None,
                        help="previously emitted JSON report to re-verify")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "analyze":
            _write_atomic(_render(run_analyze(args), args.format), None)
        elif args.command == "code":
            payload, _ = run_code(args, load_distribution(args.input, args.allow_zero))
            _write_atomic(_render(payload, args.format), args.output)
        else:
            text, status = run_verify(args)
            _write_atomic(text, args.output)
            return status
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
