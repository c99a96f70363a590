#!/usr/bin/env python3
"""hsograph benchmark: proof campaigns end to end, plus a traced run.

    python3 bench/run.py --workload connected-n8 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload sampled-checks --seed 1 --trace 1
    python3 bench/run.py --workload all --seed 1     # every workload, one table

Run from the root of a source checkout; hsograph is imported from its
src/ directory and nothing is installed.  With --trace 0 each campaign
runs as a fresh process, timed from spawn to exit, for --seconds seconds,
and the run reports the end-to-end metrics named in BENCHMARK.json, with
times scaled to a reference CPU speed (bench/spawn.py --probe).  With
--trace 1 it runs the workload's campaign once untraced and once with
spans, then the per-module suite in bench/tracing.py, and reports the
per-layer metrics.  Every campaign's output is gated (bench/gates.py); a
failed gate is counted, not fatal.  The last stdout line is one JSON
object; a full record goes to .bench_work/records/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gates
import sampled_gen
import spawn

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PYTHON = sys.executable

SETUP_SAMPLES = 11
# Every process of one workload's run has ended by then.
RUN_LIMIT_S = 165

@dataclass
class Campaign:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    problems: list = field(default_factory=list)
    probe_s: float | None = None  # mean reference loop time while it ran

    def scaled(self, seconds: float) -> float:
        """seconds as they would read at the reference speed (bench/spawn.py)."""
        return spawn.scaled(seconds, self.probe_s) if self.probe_s else seconds


@dataclass
class Context:
    """Where one run's processes work, and by when they must have ended."""

    workdir: Path
    env: dict
    deadline: float  # time.monotonic() value
    # Timed processes of the end-to-end runs share this CPU with the probe.
    cpu: int = max(os.sched_getaffinity(0))

    def spawn(self, cmd: list, log: str, probe: bool = False) -> Campaign:
        """Run cmd through bench/spawn.py: wall from spawn to exit, rusage of its tree."""
        start = time.monotonic()
        probe_args = ["--probe", str(self.cpu)] if probe else []
        proc = subprocess.Popen(
            [PYTHON, str(BENCH / "spawn.py"), str(self.workdir / log), *probe_args, "--", *cmd],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            out = b""
        finally:
            # Kill what is left of the process group: all of it after a timeout.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        try:
            return Campaign(**json.loads(out))
        except ValueError:
            return Campaign(time.monotonic() - start, 0.0, 0, -1,
                            ["timed out or could not start"])


class CliCampaign:
    """A `hsograph verify ... --format csv` campaign with known class counts."""

    def __init__(self, theorem: str, orders: str, counts: dict, digest: str):
        self.theorem, self.orders = theorem, orders
        self.counts, self.digest = counts, digest
        self.graphs = sum(counts.values())

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"inputs": "fixed campaign; the seed does not change it"}

    def _argv(self, out: Path) -> list:
        # --jobs 1: the end-to-end runs pin each campaign to one CPU (see
        # bench/spawn.py), and spans in pool workers would be lost.
        return ["verify", self.theorem, "--n", self.orders, "--jobs", "1",
                "--format", "csv", "--out", str(out)]

    def command(self, out: Path) -> list:
        return [PYTHON, "-m", "hsograph.cli", *self._argv(out)]

    def traced_command(self, spans: Path, out: Path) -> list:
        return [PYTHON, str(BENCH / "tracing.py"), "cli", str(spans), "--", *self._argv(out)]

    def gate(self, returncode: int, data: bytes | None) -> list:
        return gates.gate_campaign_csv(returncode, data, self.theorem, self.counts, self.digest)


class SampledChecks:
    """Seeded random graphs checked by bench/sampled_checker.py."""

    def prepare(self, seed: int, workdir: Path) -> dict:
        self.inputs = workdir / "sampled.g6"
        self.sample = sampled_gen.generate(seed)
        sampled_gen.write_inputs(self.sample, self.inputs)
        self.graphs = len(self.sample)
        self.digest = gates.SAMPLED_SHA256.get(seed)
        self.first_digest = None
        return {"seed": seed, "graphs": self.graphs, "pinned_digest": self.digest}

    def command(self, out: Path) -> list:
        return [PYTHON, str(BENCH / "sampled_checker.py"), str(self.inputs), str(out)]

    def traced_command(self, spans: Path, out: Path) -> list:
        return [PYTHON, str(BENCH / "tracing.py"), "sampled", str(spans), "--",
                str(self.inputs), str(out)]

    def gate(self, returncode: int, data: bytes | None) -> list:
        problems = gates.gate_sampled(returncode, data, self.sample, sampled_gen.theorems_for,
                                      self.digest)
        if data is not None:
            # Every campaign on the same inputs must write the same bytes.
            self.first_digest = self.first_digest or gates.sha256(data)
            if gates.sha256(data) != self.first_digest:
                problems.append("output differs from the first campaign of this run")
        return problems


WORKLOADS = {
    "connected-n8": lambda: CliCampaign("sandwich", "2..8", gates.CONNECTED_COUNTS,
                                        gates.CONNECTED_N8_SHA256),
    "bicyclic-n9": lambda: CliCampaign("bicyclic-lower", "4..9", gates.BICYCLIC_COUNTS,
                                       gates.BICYCLIC_N9_SHA256),
    "sampled-checks": SampledChecks,
}


def child_env(workdir: Path) -> dict:
    # A fixed hash seed makes set and dict layouts, and so their cost, repeat.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(workdir))
    env.pop("HSO_JOBS", None)
    return env


def run_campaign(ctx: Context, workload, cmd: list, probe: bool = False) -> Campaign:
    out = ctx.workdir / "campaign.out"
    out.unlink(missing_ok=True)
    campaign = ctx.spawn(cmd, "campaign.log", probe)
    data = out.read_bytes() if out.exists() else None
    campaign.problems += workload.gate(campaign.returncode, data)
    return campaign


def import_location(ctx: Context) -> str | None:
    """Where a fresh interpreter imports hsograph.cli from, or None."""
    probe = ctx.workdir / "import-location.txt"
    code = f"import hsograph.cli; open({str(probe)!r}, 'w').write(hsograph.cli.__file__)"
    result = ctx.spawn([PYTHON, "-c", code], "setup.log")
    return probe.read_text() if result.returncode == 0 and probe.exists() else None


def end_to_end(ctx: Context, workload, seconds: int) -> tuple[dict, list, dict]:
    # Interpreter start plus `import hsograph.cli`; import_location has
    # already written the bytecode caches.
    setup = [ctx.spawn([PYTHON, "-c", "import hsograph.cli"], "setup.log", probe=True)
             for _ in range(SETUP_SAMPLES)]
    out = ctx.workdir / "campaign.out"
    campaigns = []
    start = time.monotonic()
    while True:
        campaigns.append(run_campaign(ctx, workload, workload.command(out), probe=True))
        now = time.monotonic()
        if (now - start + statistics.median(c.wall_s for c in campaigns) > seconds
                or now > ctx.deadline):
            break
    # Times are scaled to the reference speed: the host's own swings would
    # otherwise spread them far more than a change to hsograph moves them.
    walls = [c.scaled(c.wall_s) for c in campaigns]
    metrics = {
        "wall_s": statistics.median(walls),
        "graphs_per_s": statistics.median(workload.graphs / w for w in walls),
        "cpu_s": statistics.median(c.scaled(c.cpu_s) for c in campaigns),
        "peak_rss_mb": statistics.median(c.maxrss_kb / 1024 for c in campaigns),
        # An import is too short for a steady probe of its own: pool the probes.
        "setup_s": spawn.scaled(statistics.median(s.wall_s for s in setup),
                                statistics.fmean(s.probe_s for s in setup)),
    }
    samples = {"setup": [s.__dict__ for s in setup],
               "campaigns": [c.__dict__ for c in campaigns]}
    return metrics, campaigns, samples


def traced(ctx: Context, workload, seed: int) -> tuple[dict, list, dict]:
    out = ctx.workdir / "campaign.out"
    spans = ctx.workdir / "campaign-spans.json"
    untraced = run_campaign(ctx, workload, workload.command(out))
    traced_run = run_campaign(ctx, workload, workload.traced_command(spans, out))
    campaigns = [untraced, traced_run]
    metrics = _read_metrics(spans, traced_run)
    metrics["trace.overhead_s"] = traced_run.wall_s - untraced.wall_s

    suite_inputs = SampledChecks()
    suite_inputs.prepare(seed, ctx.workdir)
    suite_spans = ctx.workdir / "suite-spans.json"
    suite = ctx.spawn([PYTHON, str(BENCH / "tracing.py"), "suite", str(suite_spans),
                       str(suite_inputs.inputs), str(seed)], "suite.log")
    if suite.returncode != 0:
        suite.problems.append(f"suite exit code {suite.returncode}")
    campaigns.append(suite)
    metrics.update(_read_metrics(suite_spans, suite))
    samples = {"untraced_wall_s": untraced.wall_s, "traced_wall_s": traced_run.wall_s,
               "suite_wall_s": suite.wall_s}
    return metrics, campaigns, samples


def _read_metrics(path: Path, campaign: Campaign) -> dict:
    try:
        return json.loads(path.read_text())["metrics"]
    except (OSError, ValueError, KeyError):
        campaign.problems.append(f"no trace written to {path.name}")
        return {}


def host_record() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=5)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict, host: dict) -> dict:
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(workdir, child_env(workdir), time.monotonic() + RUN_LIMIT_S)
    try:
        location = import_location(ctx)
        if location is None or not Path(location).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: hsograph.cli must import from {SRC}, got {location}")
        workload = WORKLOADS[name]()
        inputs = workload.prepare(seed, workdir)
        if trace:
            metrics, campaigns, samples = traced(ctx, workload, seed)
        else:
            metrics, campaigns, samples = end_to_end(ctx, workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        campaigns[-1].problems.append(f"metrics not measured: {', '.join(missing)}")
    failed = sum(bool(c.problems) for c in campaigns)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": inputs, "host": host, "attempted": len(campaigns), "failed": failed,
        "fail_ratio": failed / len(campaigns),
        "problems": [p for c in campaigns for p in c.problems],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
        "samples": samples,
    }


def print_table(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} attempted, {record['failed']} failed, "
          f"fail_ratio={record['fail_ratio']:g}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"  GATE FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hsograph" / "cli.py").is_file():
        print(f"error: no hsograph sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = host_record()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace), spec, host)
               for name in names]
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for record in records:
        print_table(record)
        path = WORK / "records" / f"{record['workload']}-seed{args.seed}-trace{args.trace}-{stamp}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = ({f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
               if len(records) > 1 else records[0]["metrics"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
