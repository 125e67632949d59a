import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tdcount import (
    Graph,
    SizeLimitError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    oracle_counts,
)
from tdcount.oracle import independent_set_counts, matching_counts
from conftest import random_graph


def test_single_edge():
    pm, mp, ip = oracle_counts(Graph(2, [(0, 1)]))
    assert pm == 1
    assert mp == [1, 1]
    assert ip == [1, 2]


def test_c6_by_enumeration():
    pm, mp, ip = oracle_counts(cycle_graph(6))
    assert pm == 2
    assert mp == [1, 6, 9, 2]
    assert ip == [1, 6, 9, 2]


def test_k4_perfect_matchings():
    pm, _, _ = oracle_counts(complete_graph(4))
    assert pm == 3


def test_empty_graph():
    pm, mp, ip = oracle_counts(Graph(0))
    assert (pm, mp, ip) == (1, [1], [1])


def test_polynomials_start_at_one():
    for g in [Graph(1), Graph(5), cycle_graph(5), complete_graph(5)]:
        _, mp, ip = oracle_counts(g)
        assert mp[0] == 1
        assert ip[0] == 1


def test_pm_is_top_matching_coefficient():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, max_n=9, max_m=16)
        pm, mp, _ = oracle_counts(g)
        if g.n % 2:
            assert pm == 0
        else:
            top = mp[g.n // 2] if len(mp) > g.n // 2 else 0
            assert pm == top


def test_disjoint_union_multiplicativity():
    rng = random.Random(12)
    for _ in range(25):
        a = random_graph(rng, max_n=6, max_m=8)
        b = random_graph(rng, max_n=6, max_m=8)
        pm_a, mp_a, ip_a = oracle_counts(a)
        pm_b, mp_b, ip_b = oracle_counts(b)
        pm_u, mp_u, ip_u = oracle_counts(disjoint_union(a, b))
        assert pm_u == pm_a * pm_b
        assert sum(mp_u) == sum(mp_a) * sum(mp_b)
        assert sum(ip_u) == sum(ip_a) * sum(ip_b)
        # size-resolved: the union polynomials are the convolutions
        for pa, pb, pu in ((mp_a, mp_b, mp_u), (ip_a, ip_b, ip_u)):
            conv = [0] * (len(pa) + len(pb) - 1)
            for i, x in enumerate(pa):
                for j, y in enumerate(pb):
                    conv[i + j] += x * y
            assert pu == conv


def test_cap_refusal():
    with pytest.raises(SizeLimitError):
        oracle_counts(complete_graph(21))  # n=21, m=210: over both caps
    # each oracle runs within its own cap, whatever the other measure
    path = Graph(25, [(i, i + 1) for i in range(20)])  # n=25, m=20
    assert matching_counts(path)[0] == 0
    assert independent_set_counts(complete_graph(20)) == [1, 20]


def test_per_oracle_caps():
    # 2^40 independent sets and about 2.4e10 matchings: both refused before
    # any enumeration starts, so this returns at once
    edgeless, k20 = Graph(40), complete_graph(20)
    with pytest.raises(SizeLimitError, match="n=40"):
        independent_set_counts(edgeless)
    with pytest.raises(SizeLimitError, match="m=190"):
        matching_counts(k20)
    for g in (edgeless, k20, Graph(25, [(i, i + 1) for i in range(20)])):
        with pytest.raises(SizeLimitError):
            oracle_counts(g)


def test_production_code_never_imports_the_oracle():
    # the oracle is the ground truth the counters are tested against, so no
    # module but the package's export list may depend on it
    package = Path(__file__).resolve().parents[1] / "src" / "tdcount"
    importers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.level or node.module == "tdcount":
                    names += [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracle" for name in names):
                importers.append(path.name)
    assert (package / "oracle.py").exists()
    assert importers == []


def test_import_leaves_oracle_and_baselines_unloaded():
    # the package resolves their names on first use; the child imports the
    # same tdcount as this test, without site
    import tdcount

    src = Path(tdcount.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tdcount; "
            "print(sorted(m for m in ('tdcount.oracle', 'tdcount.baselines')"
            " if m in sys.modules)); "
            "from tdcount import baseline_pm, oracle_counts; "
            "print(oracle_counts is sys.modules['tdcount.oracle'].oracle_counts,"
            " tdcount.baseline_pm is baseline_pm,"
            " baseline_pm.__module__); "
            "print(hasattr(tdcount, 'no_such_name'))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\nTrue True tdcount.baselines\nFalse\n"
