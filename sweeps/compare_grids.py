"""Compare two solve_grid.py dumps: a summary per objective, grid and regime, then every moved result.

usage: python sweeps/compare_grids.py BEFORE.json AFTER.json

A record is identical, a tie (same value, other code), a rounding move
(|change| at most 1e-12) or a move up or down.  Apart from that, "probes
moved" counts the records whose recorded probes differ, so a search that
changed its trace but not its result is seen too.  Moved results print
as a markdown table.
"""

import json
import sys

KEY = ("grid", "seed", "m", "alpha", "arity", "f", "objective")


def main(before_path, after_path):
    before, after = json.load(open(before_path)), json.load(open(after_path))
    assert len(before) == len(after)
    summary, moved = {}, []
    for a, b in zip(before, after):
        assert all(a[k] == b[k] for k in KEY)
        cell = summary.setdefault(f"{a['objective']} {a['grid']} {a.get('regime', a.get('exc'))}",
                                  dict.fromkeys(("solves", "identical", "tie", "rounding",
                                                 "fell", "rose", "exception moved",
                                                 "probes moved"), 0))
        cell["solves"] += 1
        cell["probes moved"] += a.get("probes") != b.get("probes")
        if "exc" in a or "exc" in b:
            cell["identical" if a.get("exc") == b.get("exc") else "exception moved"] += 1
            continue
        if a["repr"] == b["repr"]:
            cell["identical"] += 1
            continue
        change = b["value"] - a["value"]
        kind = ("tie" if change == 0.0 else "rounding" if abs(change) <= 1e-12
                else "fell" if change < 0.0 else "rose")
        cell[kind] += 1
        moved.append((kind, a, b, change))
    print("| objective, grid, regime | " + " | ".join(next(iter(summary.values()))) + " |")
    print("|---" * (1 + len(next(iter(summary.values())))) + "|")
    for name, cell in summary.items():
        print(f"| {name} | " + " | ".join(str(v) for v in cell.values()) + " |")
    print("\n| kind | objective | grid | seed | M | alpha | D | radius | before | after | change "
          "| beta before | beta after |")
    print("|---" * 13 + "|")
    for kind, a, b, change in moved:
        radius = "mid" if a["f"] == "mid" else (f"{a['f']} r_max" if a["grid"] == "A"
                                                else f"r_max + {a['f']} gap")
        beta = [f"{x['beta']:.4g}" if x["beta"] is not None else "none" for x in (a, b)]
        print(f"| {kind} | {a['objective']} | {a['grid']} | {a['seed']} | {a['m']} | {a['alpha']} | {a['arity']} | "
              f"{radius} | {a['value']:.10f} | {b['value']:.10f} | {change:.3g} | "
              f"{beta[0]} | {beta[1]} |")


if __name__ == "__main__":
    main(*sys.argv[1:3])
