"""Golden bytes: sha256 of fixed CLI outputs, pinned across commits.

The other determinism tests compare two runs of the same code; these pin the
exact bytes, so a refactor that changes any report, float repr, sort order or
header fails here.  Each digest covers the whole `--out` file.  To re-pin
after an intended output change, run the case and paste the new digest.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

import oracles
from hsograph.cli import EXIT_OK, main
from hsograph.families import build, c33, cdprime, complete, cprime, cycle, path, sdprime, sprime, star
from hsograph.graph import canonical_form, from_edge_list, parse_graph6
from hsograph.verify import THEOREMS, check_theorem
from test_graph import _random_relabel, assert_profile

GOLDEN = {
    # verify <check> --format csv: connected checks at n = 3..6 (star-max
    # from its least order 2), class checks up to n = 8
    ("verify", "sandwich", "--n", "3..6"):
        "744441f98955428110245e1ae371a2a739c368f8ad8c75b82d816c1242084513",
    ("verify", "general-lower", "--n", "3..6"):
        "ad69f6865089229ef0e55933225d317068596f410901cb2108f9ec86a7e584d4",
    ("verify", "edge-count-bounds", "--n", "3..6"):
        "9894b68ce379af8d280fd90267fd8f425130bfdd5aef885303853fc1366f634d",
    ("verify", "lemma-edge-bounds", "--n", "3..6"):
        "df2dc91fe8ef439d45aa7cba49c21a31db3787839c963bf7ae8690032cb412ec",
    ("verify", "star-max", "--n", "2..6"):
        "c8394256e10e42bc28f6f3f0c129cc750268e29f397e6b64ba2a184ac014a0e5",
    ("verify", "tree-bounds", "--n", "3..8"):
        "18ac1641e78c3c4013147c4f811b30b54f7fe227b25ae0e78550ca4c71e0d9ea",
    ("verify", "unicyclic-bounds", "--n", "3..8"):
        "265379cfea41079ee9f53d5e39a16cf98733cddd9072a32f5d40ebc839eb81bb",
    ("verify", "bicyclic-lower", "--n", "4..8"):
        "4fc87aac4f4245e20d405022de010d5cfc68c79fcd6293fb63fdd2ba6bb9364c",
    ("verify", "bicyclic-upper", "--n", "4..8"):
        "47cf646bef536f29eb8b2c16f96c8f468f09367d9686c2a9b3e42acd8e636d6c",
    ("verify", "f-monotone", "--n", "5..40"):
        "adfe21bb1e9d69649ec63cfc158f17f952d73dabcd6659b85fe92e570d930819",
    # search --format json
    ("search", "extremal-table", "--class", "tree", "--n", "2..8"):
        "e9f306fbdb9f9ac2bfb270cd1b7792eadc7eec219796010b17a94487a6c490fa",
    ("search", "extremal-table", "--class", "unicyclic", "--n", "3..8"):
        "acb082076e26721b9b9e7886fd5516eadd5b625fe1b9aeafca2f2e03b344dc83",
    ("search", "extremal-table", "--class", "bicyclic", "--n", "4..8"):
        "5d0e7f2fed3437a3e151dc3fac113c9dc5e2694d0d4ed2307afda4b589c77511",
    ("search", "extremal-table", "--class", "connected", "--n", "3..6"):
        "3654e9aa0bb7bb2a93504ec1419b11c2a22a30fbf249103f36f9545078772c3e",
}

# verify <check> --format json: CSV drops the note column, so these pin the
# small-order notes (unicyclic upper equality at n <= 4, and no bridged
# bicyclic pair below n = 6)
GOLDEN_NOTES = {
    ("verify", "unicyclic-bounds", "--n", "3..6"):
        "f30b71ae42cea1eb849a927e83212b091be41eefdfb2d47018a28872c49d7947",
    ("verify", "bicyclic-lower", "--n", "4..7"):
        "bd5425d3cac355089e138e9aa1a88a252d788ee0dd01aac810d73163664093fc",
}

# verify <check> --format text, and search monotonicity in text, CSV and
# JSON: the renderings of the one report and witness writer that the CSV and
# JSON digests above do not reach (a connected theorem and a class theorem)
GOLDEN_RENDERINGS = {
    ("verify", "sandwich", "--n", "3..6", "--format", "text"):
        "c29c545ea6ec745a4db9efe6ec2f9802dd203cba6f0b3d33ad94deb76253e63c",
    ("verify", "bicyclic-lower", "--n", "4..8", "--format", "text"):
        "7ab88dceabe2aa6860c9ff230e5df1f99636f9693460e042149dab4a9bbbcbb2",
    ("search", "monotonicity", "--n-max", "6", "--format", "text"):
        "1097dacf997cdd2ffef4236dcc174d41174fc27414e8cad5e468b9c876ee3f6d",
    ("search", "monotonicity", "--n-max", "6", "--format", "csv"):
        "353dcecb2c3fc2db39b275c4f6e85dd46b4803404fe7b5e363b8c4dca9ed60e2",
    ("search", "monotonicity", "--n-max", "6", "--format", "json"):
        "1e38aa648630c6631a271c2ad46c234556664ba8950af999ad19d0eb4b317ff3",
}

# enumerate: the graph6 streams of the classes the paper's new bounds cover,
# and the largest default connected and tree levels
GOLDEN_STREAMS = {
    ("enumerate", "--class", "unicyclic", "--n", "9"):
        "144310df0b6c2b595037d9fa161ee4ba9bf83458e0d7c0b5b2cc3192102be75c",
    ("enumerate", "--class", "bicyclic", "--n", "9"):
        "dbc3d8f3e9ce6dcd89a7ec8e31a0051b184a8bb2fefa16ee34b810320bc8946a",
    ("enumerate", "--class", "connected", "--n", "8"):
        "41ab360ee4db77430792aa11bcea673cad95b5671a840a0bb807bf4ef2afbc2d",
    ("enumerate", "--class", "tree", "--n", "12"):
        "05e8a562d3c90b6046f9ea6df3b0c6d4020588edce6737a7d62bcd790082c878",
}

# compute --per-edge in each format: star:7 on the command line, then
# cprime:5,4 and the triangle Bw read from --file
GOLDEN_COMPUTE = {
    "text": "67263bd43481b112f9190f5d3114778bf5253fd9fe87cf79005b34ad79abd711",
    "json": "ae99322fa4420c0b63e4a1bf8767bbcdb922be61e6685eac5f92f8bd84a58dba",
}

# check_theorem on seeded random graphs and the extremal families at
# n = 10..16, each once as built by from_edge_list and once decoded by
# parse_graph6: the csv_row, holds and note of every applicable theorem,
# hashed in order.  The CLI digests above stop at n = 8, and n = 6 for the
# connected theorems.
GOLDEN_SAMPLED = "a22e7646cbe708c9ca672503f6004622754e6465a08abf499b161a79df92c5e6"

# canonical_form(g).code of seeded random connected graphs at n = 10..16,
# sparse to two edges short of complete, each also under a random
# relabeling, hashed in order.  Canonical forms are public up to n = 16, and
# the enumeration streams pin them only up to n = 12.
GOLDEN_CANONICAL = "5c8a67e65c7512ed1ee3be3fa844027a5372eb8a4d7744f43df17cf931567ccf"

# the whole output of `compute Bw --per-edge --format json`, also compared
# byte for byte against the installed console script in CI
PINNED_BW_PER_EDGE = Path(__file__).parent / "golden" / "compute-Bw-per-edge.json"

_FORMAT = {"verify": "csv", "search": "json"}


def _out_digest(argv, tmp_path) -> str:
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _digest(argv, tmp_path, jobs: int) -> str:
    # f-monotone decides orders, not graphs, so it has no workers to count
    workers = [] if argv[1] == "f-monotone" else ["--jobs", str(jobs)]
    return _out_digest([*argv, "--format", _FORMAT[argv[0]], *workers], tmp_path)


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_bytes(argv, tmp_path):
    assert _digest(argv, tmp_path, jobs=1) == GOLDEN[argv]


@pytest.mark.parametrize("argv", [
    ("verify", "sandwich", "--n", "3..6"),
    ("verify", "star-max", "--n", "2..6"),
    ("search", "extremal-table", "--class", "connected", "--n", "3..6"),
], ids=" ".join)
def test_golden_bytes_with_workers(argv, tmp_path):
    """The worker pool leaves every byte as the serial run writes it."""
    assert _digest(argv, tmp_path, jobs=2) == GOLDEN[argv]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("argv", list(GOLDEN_NOTES), ids=" ".join)
def test_golden_notes(argv, jobs, tmp_path):
    # each note is set as its report is made, in a worker at --jobs 2
    assert (_out_digest([*argv, "--format", "json", "--jobs", str(jobs)], tmp_path)
            == GOLDEN_NOTES[argv])


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("argv", list(GOLDEN_RENDERINGS), ids=" ".join)
def test_golden_renderings(argv, jobs, tmp_path):
    assert _out_digest([*argv, "--jobs", str(jobs)], tmp_path) == GOLDEN_RENDERINGS[argv]


@pytest.mark.parametrize("argv", list(GOLDEN_STREAMS), ids=" ".join)
def test_golden_streams(argv, tmp_path):
    assert _out_digest(argv, tmp_path) == GOLDEN_STREAMS[argv]


@pytest.mark.parametrize("fmt", list(GOLDEN_COMPUTE))
def test_golden_compute_per_edge(fmt, tmp_path):
    inputs = tmp_path / "inputs"
    inputs.write_text("cprime:5,4\nBw\n")
    argv = ["compute", "star:7", "--file", str(inputs), "--per-edge", "--format", fmt]
    assert _out_digest(argv, tmp_path) == GOLDEN_COMPUTE[fmt]


def test_pinned_triangle_per_edge(tmp_path):
    out = tmp_path / "out"
    assert main(["compute", "Bw", "--per-edge", "--format", "json", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == PINNED_BW_PER_EDGE.read_bytes()


def _sampled_edge_lists():
    """Six Prüfer trees with each of 0..6 chords at every n = 10..16, then
    that order's extremal family members, K_n and the heavy-independent
    K_{2,n-2}, randomly relabeled."""
    rng = random.Random(1016)
    for n in range(10, 17):
        for chords in range(7):
            for _ in range(6):
                yield n, oracles.random_prufer_edges(n, rng, chords)
        specs = [path(n), star(n), cycle(n), complete(n), sprime(n), sdprime(n), c33(n),
                 cprime(4, n - 4), cdprime(4, n - 2)]
        edge_lists = [list(build(spec).edges()) for spec in specs]
        edge_lists.append([(u, v) for u in (0, 1) for v in range(2, n)])
        for edges in edge_lists:
            label = list(range(n))
            rng.shuffle(label)
            yield n, [(label[u], label[v]) for u, v in edges]


def _sampled_graphs():
    """Each sampled graph as built by from_edge_list and as decoded from graph6."""
    for n, edges in _sampled_edge_lists():
        yield from_edge_list(n, edges)
        yield parse_graph6(from_edge_list(n, edges).to_graph6())


def test_golden_sampled_reports():
    digest = hashlib.sha256()
    count = 0
    for g in _sampled_graphs():
        graph_class = g.classify()
        for theorem, record in THEOREMS.items():
            if record.graph_class in (graph_class, "connected"):
                r = check_theorem(theorem, g)
                digest.update(repr((r.csv_row(), r.holds, r.note)).encode())
                count += 1
    # five connected theorems on all 728 graphs; the tree theorem on 84
    # random trees, paths and stars, the unicyclic one on 84 random graphs,
    # cycles and sprimes, the two bicyclic ones on 84 random graphs,
    # sdprimes, c33s, cprimes and cdprimes
    assert count == 5 * 728 + (84 + 28) + (84 + 28) + 2 * (84 + 56)
    assert digest.hexdigest() == GOLDEN_SAMPLED


def test_sampled_profiles():
    """The memoized degree-pair profile of every sampled graph matches its
    per-edge reference."""
    count = 0
    for g in _sampled_graphs():
        assert_profile(g)
        count += 1
    assert count == 728


def test_golden_canonical_codes():
    rng = random.Random(1016)
    digest = hashlib.sha256()
    count = 0
    for n in range(10, 17):
        absent = (n - 1) * (n - 2) // 2
        for chords in (0, 2, n // 2, n, 2 * n, absent // 2, absent - 2):
            for _ in range(5):
                g = from_edge_list(n, oracles.random_connected_edges(n, rng, chords))
                code = canonical_form(g).code
                assert canonical_form(_random_relabel(g, rng)).code == code
                digest.update(f"{n} {code}\n".encode())
                count += 1
    assert count == 7 * 7 * 5
    assert digest.hexdigest() == GOLDEN_CANONICAL
