import ast
import itertools
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
    count_perfect_matchings,
    disjoint_union,
    oracle_counts,
    run_all,
)
from tdcount.oracle import (
    bareiss_determinant,
    independent_set_counts,
    matching_counts,
)
from conftest import grid_graph, minfill_nice, random_graph


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


def _permutation_expansion(matrix):
    """Leibniz's formula: the sum over permutations, signed by inversions."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = -1 if sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n)) % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def test_bareiss_determinant_matches_the_permutation_expansion():
    # zero pivots, which need a row swap, and singular matrices included
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 6)
        matrix = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9)))
                   for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(matrix) == _permutation_expansion(matrix)
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([]) == 1
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2]])


def _kasteleyn_matrix(rows, cols):
    """Biadjacency matrix of the rows x cols grid, black (r + c even)
    vertices by white ones, with the vertical edges of column c signed
    (-1)^c: a Kasteleyn orientation, so |det| counts perfect matchings."""
    g = grid_graph(rows, cols)
    black = [v for v in range(g.n) if sum(divmod(v, cols)) % 2 == 0]
    white = [v for v in range(g.n) if sum(divmod(v, cols)) % 2]
    row = {v: k for k, v in enumerate(black)}
    col = {v: k for k, v in enumerate(white)}
    matrix = [[0] * len(white) for _ in black]
    for u, v in g.edges:
        if u not in row:
            u, v = v, u
        vertical = abs(u - v) == cols
        matrix[row[u]][col[v]] = -1 if vertical and u % cols % 2 else 1
    return g, matrix


def test_kasteleyn_determinant_counts_grid_perfect_matchings():
    # independent ground truth far past the enumeration caps: the Kekule
    # count of a grid is |det| of its Kasteleyn-signed biadjacency matrix.
    # run_all reads it off the matching polynomial: one pass at B = m on
    # the 4x30 grid; on the 6x30 and 8x30 grids a pass at the Hosoya bit
    # length, cut below the root (split where run_all forks), with slotted
    # joins inside the cut and in the outside walk
    for rows in (4, 6, 8):
        g, matrix = _kasteleyn_matrix(rows, 30)
        want = abs(bareiss_determinant(matrix))
        nd = minfill_nice(g)
        assert count_perfect_matchings(g, nd) == want
        assert run_all(g, nd).perfect_matchings == want
        if rows == 8:
            assert want.bit_length() == 94
