"""Command-line front end: compute, verify, search, enumerate.

build_parser makes one plain argparse subparser per command and per check or
search kind, each taking only the options its command reads.

Exit codes: 0 clean, 1 theorem violation or inconsistency, 2 usage or I/O
error.  Output files embed a header with the tool version, tolerance and
check identifier; rows come in stream order, so identical runs (at any
worker count) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from collections import deque
from contextlib import contextmanager
from functools import partial
from itertools import chain, count

from . import __version__
from .enumeration import InfeasibleEdgeCountError, connected_graphs_with_edges, graphs_in_class
from .families import InvalidParametersError, build, parse_family
from .graph import CLASSES, Graph, Graph6Error, OrderTooLargeError, parse_graph6
from .indices import hso
from .search import (
    CampaignSummary,
    MonotonicityWitness,
    extremal_table,
    find_monotonicity_counterexamples,
    sweep,
    witnesses_with_delta,
)
from .verify import (
    CSV_COLUMNS,
    DEFAULT_TOLERANCE,
    THEOREMS,
    OrderTooSmallError,
    check_pendant_split_monotone,
    check_theorem,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

GRAPH_CLASSES = (*CLASSES, "connected")

_TOOL = f"hsograph {__version__}"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Options are spelled in full, and a parse error raises UsageError, so
    main() reports it like every other usage error.  Subparsers are made of
    this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _order_range(text: str) -> tuple[int, int]:
    """Parse 'A..B' or a single integer 'A' into an inclusive range."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad order range {text!r}; expected A or A..B") from None
    if lo < 1:
        raise argparse.ArgumentTypeError(f"orders start at 1, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty order range {text!r}")
    return lo, hi


def _jobs(text: str) -> int:
    jobs = int(text) if text.strip().isdecimal() else 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs and HSO_JOBS must be at least 1, got {text!r}")
    return jobs


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    tolerance = _finite(text)
    if not 0.0 < tolerance <= 1e-3:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1e-3], got {text!r}")
    return tolerance


def _check_large(graph_class: str, n_hi: int, allow_large: bool):
    if graph_class == "connected" and n_hi > 8 and not allow_large:
        raise UsageError("connected sweeps above n = 8 need --allow-large")


def _header_lines(meta: dict) -> str:
    parts = " ".join(f"{k}={v}" for k, v in meta.items())
    return f"# {_TOOL} {parts}"


@contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_csv(fh, meta: dict, header, rows):
    """The header line, then one csv line (ended by \\r\\n) per row, written as they come."""
    fh.write(_header_lines(meta) + "\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)


# Each _write_* renderer writes one document to fh, ending in a newline, and
# writes each report or witness as it comes.


def _write_json(fh, meta: dict, key: str, items):
    """The bytes of print(json.dumps({"tool": ..., **meta, key: list(items)},
    indent=2, sort_keys=True)), written item by item: the keys around the
    list come from the same document with the list empty."""
    import json  # only JSON output pays for the import

    head, tail = json.dumps({"tool": _TOOL, **meta, key: []}, indent=2,
                            sort_keys=True).split(f'"{key}": []')
    fh.write(f'{head}"{key}": [')
    empty = True
    for item in items:
        # an item of the list sits two levels deep, four spaces in
        item_text = json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n    ")
        fh.write(("\n    " if empty else ",\n    ") + item_text)
        empty = False
    fh.write(("]" if empty else "\n  ]") + tail + "\n")


def _write_items(fh, items, fmt: str, meta: dict, key: str, columns):
    """Reports or witnesses in fmt: each item's to_dict in the JSON list under
    key, its csv_row under the CSV header columns, or its text_line under the
    header line."""
    if fmt == "json":
        _write_json(fh, meta, key, (item.to_dict() for item in items))
    elif fmt == "csv":
        _write_csv(fh, meta, columns, (item.csv_row() for item in items))
    else:
        print(_header_lines(meta), file=fh)
        for item in items:
            print(item.text_line(), file=fh)


def _write_summary(fh, summary: CampaignSummary, fmt: str, meta: dict):
    if fmt == "json":
        import json  # only JSON output pays for the import

        doc = {"tool": _TOOL, **meta, "summary": summary.to_dict()}
        print(json.dumps(doc, indent=2, sort_keys=True), file=fh)
    elif fmt == "csv":
        rows = []
        for n in sorted(set(summary.extremal_min) | set(summary.extremal_max)):
            lo = summary.extremal_min.get(n, ("", ""))
            hi = summary.extremal_max.get(n, ("", ""))
            rows.append([n, lo[0], repr(lo[1]) if lo[1] != "" else "",
                         hi[0], repr(hi[1]) if hi[1] != "" else ""])
        _write_csv(fh, meta, ["n", "min_graph6", "min_value", "max_graph6", "max_value"], rows)
    else:
        print(_header_lines(meta), file=fh)
        print(f"{summary.label} class={summary.graph_class} n={summary.n_lo}..{summary.n_hi} "
              f"examined={summary.graphs_examined} violations={len(summary.violations)}", file=fh)
        for n in sorted(summary.extremal_min):
            g6, value = summary.extremal_min[n]
            print(f"  n={n} min {g6} {value!r}", file=fh)
        for n in sorted(summary.extremal_max):
            g6, value = summary.extremal_max[n]
            print(f"  n={n} max {g6} {value!r}", file=fh)
        for v in summary.violations:
            print(f"  VIOLATION {v}", file=fh)


# ---------------------------------------------------------------------------
# verify campaigns
# ---------------------------------------------------------------------------


def run_verify_campaign(
    theorem: str,
    n_lo: int,
    n_hi: int,
    graph_class: str | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    jobs: int = 1,
    allow_large: bool = False,
    write=None,
) -> CampaignSummary:
    """Sweep a theorem checker over every graph of the class in the order range.

    Each report is folded into the returned summary as it comes, then handed
    on to write, which takes the iterator of reports and consumes it; the
    reports come in stream order, which is (order, graph6) order at any
    worker count.  Without write each report is dropped once folded, so the
    campaign holds no more than the stream's window.  check_theorem and
    graphs_in_class are looked up in this module when the campaign runs.
    """
    record = THEOREMS[theorem]
    if graph_class and record.graph_class not in ("connected", graph_class):
        raise UsageError(f"{theorem} is stated over {record.graph_class} graphs, "
                         f"not over --class {graph_class}")
    cls = graph_class or record.graph_class
    if n_lo < record.min_n:
        raise UsageError(f"{theorem} is stated for n >= {record.min_n}")
    _check_large(cls, n_hi, allow_large)

    summary = CampaignSummary(f"verify:{theorem}", cls, n_lo, n_hi)
    check = partial(check_theorem, theorem, tolerance=tolerance)
    # every order is checked before the first level is built
    levels = [graphs_in_class(cls, n) for n in range(n_lo, n_hi + 1)]

    def folded():
        for _, r in sweep(check, chain.from_iterable(levels), jobs):
            summary.graphs_examined += 1
            if not (r.holds and r.consistent):
                summary.violations.append(r.to_dict())
            yield r

    (write or deque(maxlen=0).extend)(folded())
    return summary


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _load_inputs(args) -> list[tuple[str, Graph]]:
    """Resolve compute inputs: family specs, graph6 strings, or --file lines."""
    texts = []
    if args.input:
        texts.append(args.input)
    if args.file:
        with open(args.file) as fh:
            texts.extend(line.strip() for line in fh if line.strip())
    if not texts:
        raise UsageError("nothing to compute: pass a graph6 string, family spec, or --file")
    out = []
    for text in texts:
        if ":" in text:
            spec = parse_family(text)
            out.append((spec.label(), build(spec)))
        else:
            out.append((text, parse_graph6(text)))
    return out


def cmd_compute(args) -> int:
    results = []
    for label, g in _load_inputs(args):
        iv = hso(g)
        entry = {
            "input": label,
            "graph6": g.to_graph6(),
            "n": g.n,
            "m": g.m,
            "class": g.classify(),
            "max_degree": g.max_degree,
            "min_degree": g.min_degree,
            "hso": iv.hso,
            "so": iv.so,
        }
        if args.per_edge:
            entry["per_edge"] = [t._asdict() for t in iv.per_edge]
        results.append(entry)
    with _output(args.out) as fh:
        if args.format == "json":
            _write_json(fh, {}, "results", results)
        else:
            for entry in results:
                print(f"{entry['input']}: graph6={entry['graph6']} n={entry['n']} m={entry['m']} "
                      f"class={entry['class']} maxdeg={entry['max_degree']} "
                      f"mindeg={entry['min_degree']}", file=fh)
                print(f"  HSO = {entry['hso']!r}", file=fh)
                print(f"  SO  = {entry['so']!r}", file=fh)
                for t in entry.get("per_edge", []):
                    print(f"  edge ({t['u']}, {t['v']}) degrees ({t['du']}, {t['dv']}) -> "
                          f"{t['value']!r}", file=fh)
    return EXIT_OK


def cmd_verify(args) -> int:
    n_lo, n_hi = args.n
    meta = {"check": args.check, "tolerance": args.tolerance, "n": f"{n_lo}..{n_hi}"}

    def write(reports):
        with _output(args.out) as fh:
            _write_items(fh, reports, args.format, meta, "reports", CSV_COLUMNS)

    start = time.perf_counter()
    summary = run_verify_campaign(
        args.check,
        n_lo,
        n_hi,
        graph_class=args.graph_class,
        tolerance=args.tolerance,
        jobs=args.jobs,
        allow_large=args.allow_large,
        write=write if args.out or args.format != "text" else None,
    )
    print(
        f"{summary.label}: examined {summary.graphs_examined} graphs, "
        f"{len(summary.violations)} violations, {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK if not summary.violations else EXIT_VIOLATION


def cmd_f_monotone(args) -> int:
    """Decide pendant-split monotonicity at each order: no graphs, so no report rows."""
    start = time.perf_counter()
    n_lo, n_hi = args.n
    failed = [n for n in range(n_lo, n_hi + 1) if not check_pendant_split_monotone(n)]
    # the header keeps the default tolerance that the theorem checks print
    meta = {"check": "f-monotone", "tolerance": DEFAULT_TOLERANCE, "n": f"{n_lo}..{n_hi}"}
    if args.out or args.format != "text":
        with _output(args.out) as fh:
            _write_items(fh, [], args.format, meta, "reports", CSV_COLUMNS)
    print(
        f"verify:f-monotone: examined {n_hi - n_lo + 1} orders, "
        f"{len(failed)} violations, {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK if not failed else EXIT_VIOLATION


def cmd_monotonicity(args) -> int:
    witnesses = find_monotonicity_counterexamples(args.n_max, args.tolerance, args.jobs)
    if args.target_delta is not None:
        witnesses = witnesses_with_delta(witnesses, args.target_delta, args.tolerance)
    # zip draws from tally only after a witness, so next(tally) is then how many were written
    tally = count()
    meta = {"check": "monotonicity", "tolerance": args.tolerance, "n_max": args.n_max}
    with _output(args.out) as fh:
        _write_items(fh, (w for w, _ in zip(witnesses, tally)), args.format, meta, "witnesses",
                     MonotonicityWitness.CSV_COLUMNS)
    print(f"monotonicity: {next(tally)} witnesses", file=sys.stderr)
    return EXIT_OK


def cmd_extremal_table(args) -> int:
    n_lo, n_hi = args.n
    _check_large(args.graph_class, n_hi, args.allow_large)
    summary = extremal_table(args.graph_class, n_lo, n_hi, jobs=args.jobs)
    meta = {"check": "extremal-table", "class": args.graph_class, "n": f"{n_lo}..{n_hi}"}
    with _output(args.out) as fh:
        _write_summary(fh, summary, args.format, meta)
    return EXIT_OK if not summary.violations else EXIT_VIOLATION


def cmd_enumerate(args) -> int:
    n_lo, n_hi = args.n
    # --edges streams connected graphs whatever --class says
    graph_class = "connected" if args.edges is not None else args.graph_class
    _check_large(graph_class, n_hi, args.allow_large)
    # the streams check every order when made, so a bad range builds and writes nothing
    orders = range(n_lo, n_hi + 1)
    if args.edges is not None:
        streams = [connected_graphs_with_edges(n, args.edges) for n in orders]
    else:
        streams = [graphs_in_class(args.graph_class, n) for n in orders]
    count = 0
    with _output(args.out) as fh:
        for g in chain.from_iterable(streams):
            fh.write(g.to_graph6() + "\n")
            count += 1
    print(count, file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, and per check or search kind, each taking
    exactly the options its function reads."""
    parser = _Parser(
        prog="hsograph",
        description="Hyperbolic Sombor index: compute, enumerate, verify bounds, search",
    )
    parser.add_argument("--version", action="version", version=_TOOL)
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse passes a string default through type=, so a bad HSO_JOBS is a usage error
    options = {
        "--n": dict(type=_order_range, required=True, help="order range A..B (or single order)"),
        "--tolerance": dict(type=_tolerance, default=DEFAULT_TOLERANCE,
                            help="relative, in (0, 1e-3] (default: 1e-9)"),
        "--jobs": dict(type=_jobs, default=os.environ.get("HSO_JOBS", "").strip() or "1",
                       help="worker processes for the per-graph work, one pool per campaign; "
                            "enumeration stays serial (default: HSO_JOBS or 1)"),
        "--format": dict(choices=("text", "csv", "json"), default="text"),
        "--out": dict(help="write output to this path"),
        "--allow-large": dict(action="store_true", help="enable connected sweeps above n = 8"),
    }

    def add(subparsers, name, run, help, *flags, **extra):
        p = subparsers.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(run=run, **extra)
        return p

    p = add(sub, "compute", cmd_compute, "HSO/SO of a graph6 string or family spec", "--out")
    p.add_argument("input", nargs="?", help="graph6 string or family spec like star:7")
    p.add_argument("--file", help="file with one graph6 string per line")
    p.add_argument("--per-edge", action="store_true", help="print per-edge terms")
    p.add_argument("--format", choices=("text", "json"), default="text")

    checks = sub.add_parser("verify", help="sweep a bound check over an enumerated class")
    checks = checks.add_subparsers(dest="check", required=True)
    for name, record in THEOREMS.items():
        p = add(checks, name, cmd_verify, f"over {record.graph_class} graphs, n >= {record.min_n}",
                "--n", "--tolerance", "--jobs", "--format", "--out", "--allow-large", check=name)
        p.add_argument("--class", dest="graph_class", choices=GRAPH_CLASSES,
                       help="narrow a check stated over connected graphs")
    add(checks, "f-monotone", cmd_f_monotone, "pendant-split monotonicity, decided per order",
        "--n", "--format", "--out")

    kinds = sub.add_parser("search", help="counterexample and extremal campaigns")
    kinds = kinds.add_subparsers(dest="kind", required=True)
    p = add(kinds, "monotonicity", cmd_monotonicity, "edges whose insertion lowers HSO",
            "--tolerance", "--jobs", "--format", "--out")
    p.add_argument("--n-max", type=int, default=5, help="max order (default: 5)")
    p.add_argument("--target-delta", type=_finite, help="keep witnesses with this exact HSO drop")
    p = add(kinds, "extremal-table", cmd_extremal_table, "least and greatest HSO per order",
            "--n", "--jobs", "--format", "--out", "--allow-large")
    p.add_argument("--class", dest="graph_class", choices=GRAPH_CLASSES, default="connected")

    p = add(sub, "enumerate", cmd_enumerate, "write an enumerated class as graph6 lines",
            "--n", "--out", "--allow-large")
    p.add_argument("--class", dest="graph_class", choices=GRAPH_CLASSES, default="connected")
    p.add_argument("--edges", type=int, help="exact edge count (overrides --class)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    # only what input can cause: any other error is a fault and keeps its traceback
    except (UsageError, Graph6Error, OrderTooLargeError, OrderTooSmallError,
            InvalidParametersError, InfeasibleEdgeCountError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
