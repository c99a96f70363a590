"""Shows that the gates catch wrong results, without running hsograph.

    python3 bench/selftest.py

Builds a small campaign CSV and a small sampled-checks output by hand,
checks that the gates pass them as they are, then breaks one thing at a
time (an expected count, the digest, the exit code, a report) and checks
that the gate reports it.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import math
import sys

import gates
import sampled_gen

SQRT2 = math.sqrt(2.0)
CAMPAIGN = (
    "# hsograph 0.1.0 check=sandwich tolerance=1e-09 n=2..3\n"
    "theorem,graph6,value,lower,upper,eq_lower,eq_upper,structural_class,consistent\n"
    f"sandwich,A_,{SQRT2!r},{SQRT2!r},{SQRT2!r},1,1,regular,1\n"
    f"sandwich,Bw,{3 * SQRT2!r},{3 * SQRT2!r},{3 * SQRT2!r},1,1,regular,1\n"
)
COUNTS = {2: 1, 3: 1}


def _campaign(text: str, counts=COUNTS, returncode=0, digest=None):
    data = text.encode()
    return gates.gate_campaign_csv(returncode, data, "sandwich", counts,
                                   digest or gates.sha256(data))


def campaign_cases():
    yield "campaign as written", _campaign(CAMPAIGN), False
    yield "wrong expected count", _campaign(CAMPAIGN, counts={2: 1, 3: 2}), True
    yield "wrong digest", _campaign(CAMPAIGN, digest="0" * 64), True
    yield "exit code 1", _campaign(CAMPAIGN, returncode=1), True
    yield "no output", gates.gate_campaign_csv(0, None, "sandwich", COUNTS, "0" * 64), True
    yield "inconsistent report", _campaign(CAMPAIGN.replace("regular,1\n", "regular,0\n")), True
    yield "value out of bounds", _campaign(
        CAMPAIGN.replace(f"sandwich,Bw,{3 * SQRT2!r}", "sandwich,Bw,4.0")), True


def sampled_cases():
    graphs = sampled_gen.generate(0)[:: sampled_gen.PER_CELL][:4]
    rows = [f"{i},{t},{g['graph6']},{g['hso']!r},,,0,0,none,1,1"
            for i, g in enumerate(graphs) for t in sampled_gen.theorems_for(g["chords"])]
    data = ("\n".join(rows) + "\n").encode()
    theorems_for = sampled_gen.theorems_for
    yield "sampled as written", gates.gate_sampled(0, data, graphs, theorems_for, None), False
    yield "sampled report missing", gates.gate_sampled(
        0, ("\n".join(rows[:-1]) + "\n").encode(), graphs, theorems_for, None), True
    yield "sampled wrong HSO", gates.gate_sampled(
        0, data.replace(repr(graphs[0]["hso"]).encode(), b"1.0", 1), graphs, theorems_for, None), True
    yield "sampled report fails", gates.gate_sampled(
        0, data.replace(b",1,1\n", b",1,0\n", 1), graphs, theorems_for, None), True
    yield "sampled wrong digest", gates.gate_sampled(0, data, graphs, theorems_for, "0" * 64), True


def main() -> int:
    bad = 0
    for name, problems, should_fail in [*campaign_cases(), *sampled_cases()]:
        ok = bool(problems) == should_fail
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {'; '.join(problems) or 'passes'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
