"""Checker process for the sampled-checks workload, run as a fresh process.

    python3 bench/sampled_checker.py INPUTS OUT

INPUTS holds one `<graph6> <chords>` line per graph.  Each graph is decoded
with hsograph's parse_graph6 and passed to verify.check_theorem for every
checker that applies to its class.  OUT gets one CSV row per report: the
input's index, the verifier's CSV columns, then holds.  A one-line JSON
summary goes to stdout.  No enumeration runs, so the time is spent in
graph (decoding, canonical labeling), indices and verify.
"""

from __future__ import annotations

import csv
import json
import sys

from hsograph.graph import parse_graph6
from hsograph.verify import check_theorem

from sampled_gen import theorems_for


def decode(lines: list[str]) -> list:
    graphs = []
    for line in lines:
        text, chords = line.split()
        graphs.append((parse_graph6(text), int(chords)))
    return graphs


def check(graphs) -> list:
    return [(i, check_theorem(theorem, g))
            for i, (g, chords) in enumerate(graphs) for theorem in theorems_for(chords)]


def aggregate(reports) -> dict:
    summary = {"reports": len(reports), "violations": 0, "eq_lower": 0, "eq_upper": 0}
    for _, r in reports:
        summary["violations"] += not (r.holds and r.consistent)
        summary["eq_lower"] += r.equality_lower
        summary["eq_upper"] += r.equality_upper
    return summary


def serialize(reports, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for i, r in reports:
            writer.writerow([i, *r.csv_row(), int(r.holds)])


def main(argv: list[str]) -> int:
    inputs, out = argv
    with open(inputs) as fh:
        graphs = decode(fh.read().splitlines())
    reports = check(graphs)
    summary = aggregate(reports)
    serialize(reports, out)
    print(json.dumps({"graphs": len(graphs), **summary}))
    return 0 if summary["violations"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
