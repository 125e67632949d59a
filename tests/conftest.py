import random

import pytest

from tdcount import (
    Graph,
    decomposition_from_order,
    make_nice,
    min_fill_order,
    path_decomposition_from_order,
)

CAFFEINE_SMILES = "CN1C=NC2=C1C(=O)N(C(=O)N2C)C"


def minfill_nice(g):
    return make_nice(decomposition_from_order(g, min_fill_order(g)))


def path_nice(g):
    return make_nice(path_decomposition_from_order(g, min_fill_order(g)))


def count_prepares(monkeypatch):
    """Record the graph of every ``counting._prepare`` call from now on."""
    from tdcount import counting

    calls = []
    prepare = counting._prepare

    def counted(g, nd):
        calls.append(g)
        return prepare(g, nd)

    monkeypatch.setattr(counting, "_prepare", counted)
    return calls


def random_graph(rng, max_n=12, max_m=24):
    n = rng.randint(1, max_n)
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = rng.randint(0, min(max_m, len(possible)))
    return Graph(n, rng.sample(possible, m))


def grid_graph(rows, cols):
    return Graph(rows * cols,
                 [(r * cols + c, r * cols + c + 1)
                  for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c)
                    for r in range(rows - 1) for c in range(cols)])


def relabel(g, seed):
    """g with its vertices permuted by ``random.Random(seed)``."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# Hand-built caffeine reference. Atom numbering:
# C1 C2 C3 N1 C4 N2 N3 C5 N4 O1 C6 O2 C7 C8 -> ids 0..13; the six-ring and
# five-ring share the C2-C3 edge, five pendants hang off the rings.
CAFFEINE_FIG_LABELS = ["C", "C", "C", "N", "C", "N", "N", "C", "N", "O",
                       "C", "O", "C", "C"]
CAFFEINE_FIG_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),   # six-ring
    (1, 6), (6, 7), (7, 8), (8, 2),                   # five-ring (shares 1-2)
    (0, 9), (3, 10), (4, 11), (5, 12), (6, 13),       # pendants
]
CAFFEINE_FIG_BAGS = [
    {1, 2}, {1, 2, 3}, {3, 10}, {0, 1, 3}, {0, 9}, {0, 3, 4}, {4, 11},
    {0, 4, 5}, {5, 12}, {1, 2, 8}, {1, 7, 8}, {1, 6, 7}, {6, 13},
]
CAFFEINE_FIG_PARENT = [-1, 0, 1, 1, 3, 3, 5, 5, 7, 0, 9, 10, 11]


@pytest.fixture
def caffeine_figure():
    from tdcount import TreeDecomposition

    g = Graph(14, CAFFEINE_FIG_EDGES, CAFFEINE_FIG_LABELS)
    td = TreeDecomposition(CAFFEINE_FIG_BAGS, CAFFEINE_FIG_PARENT, 0)
    return g, td
