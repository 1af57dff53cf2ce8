"""Compare two solve_grid.py dumps: a summary per objective, grid and regime, then every moved result.

usage: python sweeps/compare_grids.py BEFORE.json AFTER.json

A record is identical, a tie (same value, other code), a rounding move
(|change| at most 1e-12) or a move up or down.  Apart from that, "probes
moved" counts the records whose recorded probes differ, so a search that
changed its trace but not its result is seen too.  Moved results print
as a markdown table.  The pointwise records of grid P get a table of
their own: moved codes, moved values, moved raw suprema and the largest
move of one in units in the last place, the largest root residual on
each side and the after side's count of solves with a root outside
(mu_k, min(1, mu_k + sqrt(R/2))].  The exact_avg_sup records of grid E
and the oracle reports of grid O get one each: per code or oracle, the
identical records, moved values and records whose value stayed but whose
repr (witness, optimal codes or evaluation count) moved, then every moved
record.  Both tables also count the records whose sample hash
(sample_sha256, which grid O's sampled records carry) moved, and list
such a record as moved even where its repr stayed; grid O's records of a
sample alone carry the hash and no value or repr.  Last comes every
record, of any grid, whose exception moved: the exception on each side,
or the value and regime where that side returned (grid E and O records
have no regime).

The exit status is 1 when any record differs between the two dumps, in
its value, repr, probes, raw suprema, sample hash, exception or any other
field, and 0 when every record is identical.
"""

import json
import struct
import sys

KEY = ("grid", "seed", "m", "alpha", "arity", "f", "objective")


def ulps(x, y):
    """Distance between two floats of one sign in units in the last place."""
    bits = [struct.unpack("<q", struct.pack("<d", v))[0] for v in (x, y)]
    return abs(bits[0] - bits[1])


def pointwise_table(pairs):
    cell = dict.fromkeys(("solves", "identical", "codes moved", "values moved",
                          "largest value move", "roots moved", "largest ulp move",
                          "exception moved", "largest residual before",
                          "largest residual after", "solves with a root outside after"), 0)
    moved = []
    for a, b in pairs:
        cell["solves"] += 1
        if "exc" in a or "exc" in b:
            cell["identical" if a.get("exc") == b.get("exc") else "exception moved"] += 1
            continue
        cell["identical"] += a == b
        cell["codes moved"] += a["lengths"] != b["lengths"]
        cell["values moved"] += a["value"] != b["value"]
        cell["largest value move"] = max(cell["largest value move"], abs(b["value"] - a["value"]))
        moves = [ulps(x, y) for x, y in zip(a["raw"], b["raw"]) if x != y]
        cell["roots moved"] += len(moves)
        cell["largest ulp move"] = max(cell["largest ulp move"], *moves, 0)
        cell["largest residual before"] = max(cell["largest residual before"], a["residual"])
        cell["largest residual after"] = max(cell["largest residual after"], b["residual"])
        cell["solves with a root outside after"] += not b["in_interval"]
        if a["lengths"] != b["lengths"] or a["value"] != b["value"]:
            moved.append((a, b))
    print("| grid P, pointwise | " + " | ".join(cell) + " |")
    print("|---" * (1 + len(cell)) + "|")
    print("| all | " + " | ".join(str(v) for v in cell.values()) + " |")
    if moved:
        print("\n| seed | M | alpha | D | radius | before | after | lengths moved |")
        print("|---" * 8 + "|")
        for a, b in moved:
            print(f"| {a['seed']} | {a['m']} | {a['alpha']} | {a['arity']} | {a['f']} | "
                  f"{a['value']!r} | {b['value']!r} | {a['lengths'] != b['lengths']} |")
    print()


def repr_table(pairs, title):
    """Per objective: records, identical reprs, moved values, other moves; then every moved record."""
    cells, moved = {}, []
    for a, b in pairs:
        cell = cells.setdefault(a["objective"], dict.fromkeys(
            ("records", "identical", "values moved", "value kept, repr moved", "sample moved",
             "exception moved"), 0))
        cell["records"] += 1
        if "exc" in a or "exc" in b:
            cell["identical" if a.get("exc") == b.get("exc") else "exception moved"] += 1
            continue
        # a record of a sample alone holds its hash: no value, no repr
        sample_moved = a.get("sample_sha256") != b.get("sample_sha256")
        repr_moved = a.get("repr") != b.get("repr")
        cell["identical"] += not repr_moved and not sample_moved
        cell["values moved"] += a.get("value") != b.get("value")
        cell["value kept, repr moved"] += a.get("value") == b.get("value") and repr_moved
        cell["sample moved"] += sample_moved
        if repr_moved or sample_moved:
            moved.append((a, b))
    print(f"| {title} | " + " | ".join(next(iter(cells.values()))) + " |")
    print("|---" * (1 + len(next(iter(cells.values())))) + "|")
    for name, cell in cells.items():
        print(f"| {name} | " + " | ".join(str(v) for v in cell.values()) + " |")
    if moved:
        print("\n| objective | seed | M | alpha | D | f | before | after |")
        print("|---" * 8 + "|")
        for a, b in moved:
            print(f"| {a['objective']} | {a['seed']} | {a['m']} | {a['alpha']} | {a['arity']} | "
                  f"{a['f']} | {a.get('repr', a.get('sample_sha256'))} | "
                  f"{b.get('repr', b.get('sample_sha256'))} |")
    print()


def outcome(x):
    """An exception's name, or the value and regime of a result."""
    if "exc" in x:
        return x["exc"]
    return f"{x['value']!r}, {x.get('regime', 'no regime')}"


def exception_table(pairs):
    thrown = [(a, b) for a, b in pairs if a.get("exc") != b.get("exc")]
    if not thrown:
        return
    print("\n| grid | objective | seed | M | alpha | D | radius | before | after |")
    print("|---" * 9 + "|")
    for a, b in thrown:
        print(f"| {a['grid']} | {a['objective']} | {a['seed']} | {a['m']} | {a['alpha']} | "
              f"{a['arity']} | {a['f']} | {outcome(a)} | {outcome(b)} |")


def main(before_path, after_path):
    before, after = json.load(open(before_path)), json.load(open(after_path))
    assert len(before) == len(after)
    assert all(a[k] == b[k] for a, b in zip(before, after) for k in KEY)
    pointwise = [(a, b) for a, b in zip(before, after) if a["grid"] == "P"]
    if pointwise:
        pointwise_table(pointwise)
    for grid, title in (("E", "grid E, code"), ("O", "grid O, oracle")):
        records = [(a, b) for a, b in zip(before, after) if a["grid"] == grid]
        if records:
            repr_table(records, title)
    summary, moved = {}, []
    for a, b in zip(before, after):
        if a["grid"] in ("P", "E", "O"):
            continue
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
    exception_table(list(zip(before, after)))
    return int(before != after)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
