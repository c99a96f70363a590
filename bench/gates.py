"""Correctness gates for every campaign the benchmark runs.

A gate returns the list of problems it found; an empty list is a pass.
Gates never raise on a wrong result, so the caller can count a failed
campaign and go on measuring.

Expected counts are known class counts, not output of the enumerator:
OEIS A001349 (connected graphs) and A001435 (connected graphs with
n + 1 edges), the same numbers the cycle-index oracles in the test suite
derive.  Digests pin the exact bytes of the campaign output at --jobs 1.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
BICYCLIC_COUNTS = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797}

# sha256 of `verify sandwich --n 2..8 --jobs 1 --format csv` and of
# `verify bicyclic-lower --n 4..9 --format csv`, as written by hsograph 0.1.0.
CONNECTED_N8_SHA256 = "c8ee7ce33b66392f80d2deeb5ef3abc3d9f6eda2b6b5015efce1b7bdd7684117"
BICYCLIC_N9_SHA256 = "09f3d0931c0fe1c58a24e31f38974eedae1165397a4f8f5055aadcdc17df7f97"

# sha256 of the sampled-checks checker output, by seed.  Seeds outside this
# table are gated on everything else, and on repeating their first output.
SAMPLED_SHA256 = {
    0: "13064857bbeb4f2ce4c3df3341a6c9c934ea2bc1492d9735bf9c9194bfcf69bb",
    1: "7c41c7c5aa60bba3d34f29bf4b084cfb211a295abeaf08cfc530fc0f55568b08",
    2: "d5cb01fd6a0271e48b865059394d054ae71feb4ed9df38b7f61ee0ad600d9196",
    3: "112b4dde720b24599521587ef2dd9421bc3bc6887ca45df4bf173f762cda70a0",
    4: "d17c81da794ce1abfe5811b21cb3256d9fe5c6de92aa722d7712e9e069435a27",
    5: "363f4c6aab8c8450c09b298e1bfe38a9edaef72a49943806c623eea6442f993f",
    6: "9c13dd73af945f1a779af4af494ccdc491d6de77fbea7c8370f4991eca6d22aa",
    7: "be75c7cd407ddee4bd9bd79ec3ecd2372e2a0ec10b00840b92d5ac71625e7161",
    8: "4a06e99290a492c83a4dfb5bc0c75780a66d4084b584db13a33c089550ca6f9a",
    9: "84759d07bc749f6ff362ef8a857673d7c717628ecfcf117f29a25ac6df24b39a",
    10: "ac2c08763f2a68aff332256d6b39ac61acaaf3023d615ad25afa6f470f39d2e2",
    11: "9723aa56398c90c45bac72acd5fea645c374a84c47e82f8b83b167cbc7195afa",
    12: "ef5069bf0da361da92b358e0c85789c08361298e4bf750f4a7de17abb7455f67",
    13: "1b73204412991e88fb2f92eb36051dfe8bc6ab1b3f474794302a0d2830c79c02",
    14: "54d787f670611ee5b81339946153d3f43667550529512f543e558f3fd26a896b",
    15: "1ea1caa2b3476aa2dfdfb2d46e5173032cced45a4e91858a533222c7bcbb93ef",
    16: "db6cb5584e9a0490a3beb507bfec20b432db6effed64d6e5bc3a2946226dbd2e",
    17: "f57d3e9aa5e9ba3a7ab8ebdc9f794f585789eb98815468232ca2c82cd9d5a381",
    18: "bc03de2c278d814a91258b44ad697283b5bc207039e2cb64b54237dc35abaee2",
    19: "9692a6533c406646e2f85ca004a898444540c93a2dd225b806e65cda29d212fe",
    20: "bae4d959034050e8c5395fd95be53f6203cf98dd5f6fa3f31b3cd657d2185a19",
}

CSV_COLUMNS = ["theorem", "graph6", "value", "lower", "upper",
               "eq_lower", "eq_upper", "structural_class", "consistent"]

# The verifier's default relative tolerance, used to re-check "holds".
TOLERANCE = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _order(graph6: str) -> int:
    return ord(graph6[0]) - 63


def _within(value: float, lower: str, upper: str) -> bool:
    if lower and value < float(lower) - TOLERANCE * max(1.0, abs(float(lower))):
        return False
    if upper and value > float(upper) + TOLERANCE * max(1.0, abs(float(upper))):
        return False
    return True


def gate_campaign_csv(returncode: int, data: bytes | None, theorem: str,
                      counts: dict[int, int], digest: str) -> list[str]:
    """Gate a `hsograph verify --format csv` campaign.

    Checks the exit code, the header, the number of reports at every order
    against the known class counts, that every report is consistent and
    within its bounds, and the sha256 of the whole file.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}, expected 0")
    if data is None:
        return problems + ["no output file"]
    lines = data.decode("utf-8", "replace").splitlines()
    if not lines or not lines[0].startswith("# hsograph ") or f"check={theorem}" not in lines[0]:
        problems.append("missing or wrong header line")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not rows or rows[0] != CSV_COLUMNS:
        return problems + ["missing or wrong column row"]
    seen = dict.fromkeys(counts, 0)
    bad = 0
    for row in rows[1:]:
        if len(row) != len(CSV_COLUMNS) or row[0] != theorem:
            bad += 1
            continue
        n = _order(row[1])
        seen[n] = seen.get(n, 0) + 1
        if row[8] != "1" or not _within(float(row[2]), row[3], row[4]):
            bad += 1
    for n in sorted(set(seen) | set(counts)):
        if seen.get(n, 0) != counts.get(n, 0):
            problems.append(f"n={n}: {seen.get(n, 0)} reports, expected {counts.get(n, 0)}")
    if bad:
        problems.append(f"{bad} reports malformed, inconsistent or out of bounds")
    if sha256(data) != digest:
        problems.append(f"sha256 {sha256(data)[:12]}..., expected {digest[:12]}...")
    return problems


def gate_sampled(returncode: int, data: bytes | None, graphs: list[dict],
                 theorems_for, digest: str | None) -> list[str]:
    """Gate a sampled-checks checker run against the generated inputs.

    Every input must get exactly the reports of the checkers that apply to
    its class, in order; each report must hold, be consistent, carry the
    input's graph6 and an HSO value equal to one computed from the edge
    list.  With a digest, the output bytes must match it.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}, expected 0")
    if data is None:
        return problems + ["no output file"]
    expected = [(i, t) for i, g in enumerate(graphs) for t in theorems_for(g["chords"])]
    rows = list(csv.reader(io.StringIO(data.decode("utf-8", "replace"))))
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} reports, expected {len(expected)}")
    bad = 0
    for row, (i, theorem) in zip(rows, expected):
        g = graphs[i]
        # index, the verifier's CSV columns, then holds
        if (len(row) != len(CSV_COLUMNS) + 2 or row[0] != str(i) or row[1] != theorem
                or row[2] != g["graph6"] or row[9] != "1" or row[10] != "1"
                or not math.isclose(float(row[3]), g["hso"], rel_tol=TOLERANCE)):
            bad += 1
    if bad:
        problems.append(f"{bad} reports wrong, failing or inconsistent")
    if digest is not None and sha256(data) != digest:
        problems.append(f"sha256 {sha256(data)[:12]}..., expected {digest[:12]}...")
    return problems
