"""Traced runs: spans around public hsograph calls, kept in memory and
written out as JSON when the process ends.

    python3 bench/tracing.py suite SPANS INPUTS SEED
    python3 bench/tracing.py cli SPANS -- <hsograph verify arguments>
    python3 bench/tracing.py sampled SPANS -- INPUTS OUT

`suite` times the public functions of each module on fixed inputs (the
per-layer metrics).  `cli` and `sampled` run one workload's campaign with
spans around the calls that make up its phases.  Each span is (name, start,
end, parent, calls): calls is how many public calls a batch span covers, so
per-call figures come from batches rather than from one clock read per
microsecond-sized call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import sys
import time
from functools import partial

from hsograph import cli, enumeration, graph, indices, search, verify

import sampled_checker
from sampled_gen import THEOREMS, theorems_for

# Level 8 is built from every graph on 7 vertices (OEIS A000088), each
# extended by all 2^7 neighbourhoods of the new vertex.
PARENTS_N8 = 1044


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        idx = self._begin()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._end(idx, name, start, calls)

    def _begin(self) -> int:
        self.spans.append(None)
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, idx, name, start, calls):
        self._open.pop()
        parent = self._open[-1] if self._open else -1
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent, calls)

    def wrap(self, fn, name: str):
        """fn with a span around every call."""
        def traced(*args, **kwargs):
            idx = self._begin()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx, name, start, 1)
        return traced

    def patch(self, module, attr: str, name: str) -> None:
        setattr(module, attr, self.wrap(getattr(module, attr), name))

    def total_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name) / 1e9

    def self_s(self, name: str) -> float:
        """Summed duration of the named spans minus that of their direct children."""
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        own = sum(self.spans[i][2] - self.spans[i][1] for i in ids)
        children = sum(s[2] - s[1] for s in self.spans if s[3] in ids)
        return (own - children) / 1e9

    def per_call_us(self, name: str) -> float:
        return statistics.median(
            (s[2] - s[1]) / s[4] / 1e3 for s in self.spans if s[0] == name
        )

    def calls(self, name: str, fn, items, batches: int = 25) -> float:
        """Median microseconds per call of fn over items, in batch spans."""
        size = max(1, len(items) // batches)
        for i in range(0, len(items), size):
            chunk = items[i:i + size]
            with self.span(name, len(chunk)):
                for item in chunk:
                    fn(item)
        return self.per_call_us(name)

    def dump(self, path: str, metrics: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"metrics": metrics, "spans": self.spans}, fh)


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def suite(tracer: Tracer, inputs_path: str, seed: int, workdir: str) -> dict:
    """Time each module's public calls; returns the per-layer metrics."""
    rng = random.Random(seed)
    m = {}

    list(enumeration.connected_graphs(5))
    for n in (6, 7, 8):
        with tracer.span(f"enumeration.connected_graphs.n{n}"):
            level = list(enumeration.connected_graphs(n))
        m[f"enumeration.level_s.n{n}"] = tracer.total_s(f"enumeration.connected_graphs.n{n}")
    m["enumeration.classes.n8"] = len(level)
    m["enumeration.candidates.n8"] = PARENTS_N8 * 2 ** 7
    m["enumeration.yield.n8"] = len(level) / m["enumeration.candidates.n8"]
    for n in (8, 9):
        with tracer.span(f"enumeration.bicyclic_graphs.n{n}"):
            bicyclic = list(enumeration.bicyclic_graphs(n))
        m[f"enumeration.bicyclic_s.n{n}"] = tracer.total_s(f"enumeration.bicyclic_graphs.n{n}")

    with open(inputs_path) as fh:
        lines = [line.split() for line in fh.read().splitlines()]
    rng.shuffle(lines)
    texts = [text for text, _ in lines]
    sampled = [(graph.parse_graph6(text), int(chords)) for text, chords in lines]
    sampled_graphs = [g for g, _ in sampled]
    n8 = rng.sample(level, 1000)

    m["graph.canonical_form.us.n8"] = tracer.calls(
        "graph.canonical_form n8", graph.canonical_form,
        [_relabeled(g, rng) for g in n8])
    m["graph.canonical_form.us.n16"] = tracer.calls(
        "graph.canonical_form n16", graph.canonical_form,
        [g for g in sampled_graphs if g.n == 16])
    m["graph.parse_graph6.us"] = tracer.calls("graph.parse_graph6", graph.parse_graph6, texts)
    m["graph.to_graph6.us"] = tracer.calls("graph.to_graph6", graph.Graph.to_graph6, sampled_graphs)
    m["graph.is_connected.us"] = tracer.calls(
        "graph.is_connected", graph.Graph.is_connected, sampled_graphs)
    m["indices.hso.us.n8"] = tracer.calls("indices.hso n8", indices.hso, n8)
    m["indices.hso.us.sampled"] = tracer.calls("indices.hso sampled", indices.hso, sampled_graphs)

    for theorem in THEOREMS:
        graphs = [g for g, chords in sampled if theorem in theorems_for(chords)]
        m[f"verify.{theorem}.us"] = tracer.calls(
            f"verify.{theorem}", partial(verify.check_theorem, theorem), graphs)
    m["verify.sandwich.us.n8"] = tracer.calls(
        "verify.sandwich n8", partial(verify.check_theorem, "sandwich"), n8)
    m["verify.bicyclic-lower.us.n9"] = tracer.calls(
        "verify.bicyclic-lower n9", partial(verify.check_theorem, "bicyclic-lower"), bicyclic)

    # Enumeration is warm from here on: these spans time the checking and
    # pooling around it.
    for jobs in (1, 2):
        with tracer.span(f"search.check_conjecture_star_max jobs{jobs}"):
            search.check_conjecture_star_max(8, jobs=jobs)
        m[f"search.conjecture_s.n8.jobs{jobs}"] = tracer.total_s(
            f"search.check_conjecture_star_max jobs{jobs}")

    campaign = cli.run_verify_campaign
    tracer.patch(cli, "run_verify_campaign", "cli.run_verify_campaign jobs1")
    argv = ["verify", "sandwich", "--n", "2..8", "--jobs", "1", "--format", "csv",
            "--out", os.path.join(workdir, "suite-sandwich.csv")]
    with tracer.span("cli.main jobs1"), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    cli.run_verify_campaign = campaign
    with tracer.span("cli.run_verify_campaign jobs2"):
        cli.run_verify_campaign("sandwich", 2, 8, jobs=2)
    m["cli.campaign_s"] = tracer.total_s("cli.run_verify_campaign jobs1")
    m["cli.pool_overhead_s"] = tracer.total_s("cli.run_verify_campaign jobs2") - m["cli.campaign_s"]
    m["cli.serialize_s"] = tracer.self_s("cli.main jobs1")
    return m


def traced_cli(tracer: Tracer, argv: list[str]) -> tuple[int, dict]:
    """Run `hsograph` in-process with spans around its phase calls."""
    enumerate_class = cli.graphs_in_class
    cli.graphs_in_class = tracer.wrap(lambda cls, n: list(enumerate_class(cls, n)),
                                      "enumeration.graphs_in_class")
    tracer.patch(cli, "check_theorem", "verify.check_theorem")
    tracer.patch(cli, "run_verify_campaign", "cli.run_verify_campaign")
    with tracer.span("cli.main"):
        code = cli.main(argv)
    return code, {
        "phase.enumerate_s": tracer.total_s("enumeration.graphs_in_class"),
        "phase.check_s": tracer.total_s("verify.check_theorem"),
        "phase.aggregate_s": tracer.self_s("cli.run_verify_campaign"),
        "phase.serialize_s": tracer.self_s("cli.main"),
    }


def traced_sampled(tracer: Tracer, argv: list[str]) -> tuple[int, dict]:
    """Run the sampled-checks checker in-process with a span around each phase.

    Its input stage is graph6 decoding, reported as the enumerate phase.
    """
    for phase in ("decode", "check", "aggregate", "serialize"):
        tracer.patch(sampled_checker, phase, f"sampled.{phase}")
    with tracer.span("sampled.main"):
        code = sampled_checker.main(argv)
    return code, {
        "phase.enumerate_s": tracer.total_s("sampled.decode"),
        "phase.check_s": tracer.total_s("sampled.check"),
        "phase.aggregate_s": tracer.total_s("sampled.aggregate"),
        "phase.serialize_s": tracer.total_s("sampled.serialize"),
    }


def main(argv: list[str]) -> int:
    mode, out, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    if mode == "suite":
        inputs, seed = rest
        code, metrics = 0, suite(tracer, inputs, int(seed), os.path.dirname(out))
    elif mode == "cli":
        code, metrics = traced_cli(tracer, rest[1:])
    elif mode == "sampled":
        code, metrics = traced_sampled(tracer, rest[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    tracer.dump(out, metrics)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
