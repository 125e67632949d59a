import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from tdcount import (
    DecompositionMismatch,
    DpStats,
    Graph,
    NiceDecomposition,
    SizePolynomial,
    TreeDecomposition,
    complete_graph,
    count_independent_sets,
    count_matchings,
    count_perfect_matchings,
    cycle_graph,
    decomposition_from_order,
    disjoint_union,
    entropy,
    independence_polynomial,
    ladder_graph,
    make_nice,
    matching_polynomial,
    min_fill_order,
    oracle_counts,
    path_graph,
    run_all,
)
from tdcount.decomposition import FORGET, INTRODUCE, JOIN, LEAF, NiceNode
from conftest import count_prepares, minfill_nice, path_nice, random_graph
from test_decomposition import graphs

SINGLE_EDGE = Graph(2, [(0, 1)])


def min_degree_order(g):
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    alive = set(range(g.n))
    order = []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        order.append(v)
        alive.discard(v)
    return order


# ------------------------------------------------------------ known values

def test_perfect_matchings_examples():
    assert count_perfect_matchings(SINGLE_EDGE, minfill_nice(SINGLE_EDGE)) == 1
    c6 = cycle_graph(6)
    assert count_perfect_matchings(c6, minfill_nice(c6)) == 2
    odd = cycle_graph(5)
    assert count_perfect_matchings(odd, minfill_nice(odd)) == 0


def test_matchings_examples():
    assert count_matchings(SINGLE_EDGE, minfill_nice(SINGLE_EDGE)) == 2
    c6 = cycle_graph(6)
    assert count_matchings(c6, minfill_nice(c6)) == 18
    edgeless = Graph(7)
    assert count_matchings(edgeless, minfill_nice(edgeless)) == 1


def test_independent_sets_examples():
    assert count_independent_sets(SINGLE_EDGE, minfill_nice(SINGLE_EDGE)) == 3
    c6 = cycle_graph(6)
    assert count_independent_sets(c6, minfill_nice(c6)) == 18
    edgeless = Graph(10)
    assert count_independent_sets(edgeless, minfill_nice(edgeless)) == 1024


def test_matching_polynomial_examples():
    assert matching_polynomial(SINGLE_EDGE, minfill_nice(SINGLE_EDGE)) == (1, 1)
    c6 = cycle_graph(6)
    poly = matching_polynomial(c6, minfill_nice(c6))
    assert poly == (1, 6, 9, 2)
    assert poly[c6.n // 2] == count_perfect_matchings(c6, minfill_nice(c6))
    for n in (0, 1, 40):
        edgeless = Graph(n)
        assert matching_polynomial(edgeless, minfill_nice(edgeless)) == (1,)


def test_independence_polynomial_examples():
    assert independence_polynomial(SINGLE_EDGE, minfill_nice(SINGLE_EDGE)) == (1, 2)
    c6 = cycle_graph(6)
    assert independence_polynomial(c6, minfill_nice(c6)) == (1, 6, 9, 2)
    edgeless = Graph(4)
    assert independence_polynomial(edgeless, minfill_nice(edgeless)) == \
        (1, 4, 6, 4, 1)
    # n = 40 decodes 41-bit slices; C(40, 20) is the largest coefficient
    for n in (0, 1, 40):
        edgeless = Graph(n)
        assert independence_polynomial(edgeless, minfill_nice(edgeless)) == \
            tuple(math.comb(n, k) for k in range(n + 1))


def test_empty_graph_base_cases():
    g = Graph(0)
    nd = minfill_nice(g)
    assert count_perfect_matchings(g, nd) == 1
    assert count_matchings(g, nd) == 1
    assert count_independent_sets(g, nd) == 1


def test_single_vertex():
    g = Graph(1)
    nd = minfill_nice(g)
    assert count_perfect_matchings(g, nd) == 0
    assert count_matchings(g, nd) == 1
    assert count_independent_sets(g, nd) == 2


# ---------------------------------------------------------------- identities

@settings(max_examples=60, deadline=None)
@given(graphs())
def test_polynomials_sum_to_totals(g):
    nd = minfill_nice(g)
    mp = matching_polynomial(g, nd)
    ip = independence_polynomial(g, nd)
    assert mp.total() == count_matchings(g, nd)
    assert ip.total() == count_independent_sets(g, nd)
    pm = count_perfect_matchings(g, nd)
    if g.n % 2 == 0:
        assert mp[g.n // 2] == pm
    else:
        assert pm == 0


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_matches_oracle_on_both_decompositions(g):
    expected = oracle_counts(g)
    for nd in (minfill_nice(g), path_nice(g)):
        assert count_perfect_matchings(g, nd) == expected[0]
        assert matching_polynomial(g, nd) == expected[1]
        assert independence_polynomial(g, nd) == expected[2]
        assert count_matchings(g, nd) == sum(expected[1])
        assert count_independent_sets(g, nd) == sum(expected[2])


def test_decomposition_independence():
    rng = random.Random(77)
    for _ in range(20):
        g = random_graph(rng, max_n=10, max_m=18)
        nds = [
            minfill_nice(g),
            make_nice(decomposition_from_order(g, min_degree_order(g))),
            path_nice(g),
        ]
        results = {
            (
                count_perfect_matchings(g, nd),
                count_matchings(g, nd),
                count_independent_sets(g, nd),
                matching_polynomial(g, nd),
                independence_polynomial(g, nd),
            )
            for nd in nds
        }
        assert len(results) == 1


def test_disjoint_union_multiplicative():
    a, b = cycle_graph(5), path_graph(4)
    u = disjoint_union(a, b)
    nd = minfill_nice(u)
    assert count_matchings(u, nd) == \
        count_matchings(a, minfill_nice(a)) * count_matchings(b, minfill_nice(b))
    assert count_independent_sets(u, nd) == \
        count_independent_sets(a, minfill_nice(a)) * \
        count_independent_sets(b, minfill_nice(b))


def test_monotone_under_edge_deletion():
    rng = random.Random(13)
    for _ in range(15):
        g = random_graph(rng, max_n=9, max_m=14)
        if not g.edges:
            continue
        e = sorted(g.edges)[rng.randrange(g.m)]
        smaller = Graph(g.n, g.edges - {e})
        nd_g, nd_s = minfill_nice(g), minfill_nice(smaller)
        assert count_independent_sets(smaller, nd_s) >= \
            count_independent_sets(g, nd_g)
        assert count_matchings(smaller, nd_s) <= count_matchings(g, nd_g)


def test_dense_and_structured_graphs_match_oracle():
    def grid(r, c):
        at = lambda i, j: i * c + j
        edges = []
        for i in range(r):
            for j in range(c):
                if j + 1 < c:
                    edges.append((at(i, j), at(i, j + 1)))
                if i + 1 < r:
                    edges.append((at(i, j), at(i + 1, j)))
        return Graph(r * c, edges)

    for g in (complete_graph(7), grid(4, 4), ladder_graph(8)):
        pm, mp, ip = oracle_counts(g)
        nd = minfill_nice(g)
        assert count_perfect_matchings(g, nd) == pm
        assert matching_polynomial(g, nd) == mp
        assert independence_polynomial(g, nd) == ip


def grid_graph(rows, cols):
    return Graph(rows * cols,
                 [(r * cols + c, r * cols + c + 1)
                  for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c)
                    for r in range(rows - 1) for c in range(cols)])


def test_moderate_ladder_polynomial_identities():
    for g, nice in ((ladder_graph(100), path_nice),
                    (grid_graph(5, 30), minfill_nice)):
        nd = nice(g)
        mp = matching_polynomial(g, nd)
        assert mp.total() == count_matchings(g, nd)
        assert mp[g.n // 2] == count_perfect_matchings(g, nd)
        assert entropy(mp) > 0.0
        ip = independence_polynomial(g, nd)
        assert ip.total() == count_independent_sets(g, nd)


# ----------------------------------------------------------- instrumentation

def test_path_decomposition_never_joins():
    g = ladder_graph(12)
    nd = path_nice(g)
    assert nd.is_path
    stats = DpStats()
    count_matchings(g, nd, stats)
    count_perfect_matchings(g, nd, stats)
    count_independent_sets(g, nd, stats)
    matching_polynomial(g, nd, stats)
    independence_polynomial(g, nd, stats)
    assert stats.join_nodes == 0
    assert stats.join_bags == []


def _join_bags(counter, g, nd):
    stats = DpStats()
    value = counter(g, nd, stats)
    assert stats.join_nodes == nd.join_count() == len(stats.join_bags)
    return value, stats.join_bags


def test_join_work_is_three_to_the_bag():
    # A (perfect) matching join multiplies only non-zero child entries that
    # combine, so its work is exact and at most 3^|bag|; an independent-set
    # join is pointwise, 2^|bag|.
    # K_{2,4}: each child matches two of {2..5} into the bag {0, 1}, all four
    # child states are non-zero, and every one of the 3^2 combining pairs
    # is multiplied for Hosoya; no pair covers the bag twice for pm
    k24 = Graph(6, [(u, v) for u in (0, 1) for v in range(2, 6)])
    nd = make_nice(TreeDecomposition([{0, 1}, {0, 1, 2, 3}, {0, 1, 4, 5}],
                                     [-1, 0, 0], 0))
    assert _join_bags(count_matchings, k24, nd) == (21, [(2, 9)])
    assert _join_bags(count_perfect_matchings, k24, nd) == (0, [(2, 0)])
    assert _join_bags(count_independent_sets, k24, nd) == (19, [(2, 4)])
    # vertex 1 is fresh on one branch, so it can be matched only on the other
    nd = make_nice(TreeDecomposition([{1}, {0, 1}, {1}], [-1, 0, 0], 0))
    assert _join_bags(count_matchings, SINGLE_EDGE, nd) == (2, [(1, 2)])
    assert _join_bags(count_perfect_matchings, SINGLE_EDGE, nd) == (1, [(1, 1)])

    # two triangle blobs bolted together tend to force joins under min-fill
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                  (3, 4), (4, 5), (5, 6), (6, 4), (0, 4)])
    nd = minfill_nice(g)
    if nd.join_count() == 0:  # fall back to a branched tree with joins
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
        nd = minfill_nice(g)
    assert nd.join_count() >= 1
    for counter in (count_perfect_matchings, count_matchings):
        for bag_size, products in _join_bags(counter, g, nd)[1]:
            assert products <= 3 ** bag_size
    for bag_size, products in _join_bags(count_independent_sets, g, nd)[1]:
        assert products == 2 ** bag_size


# ----------------------------------------------------------------- entropy

def test_entropy_examples():
    assert entropy((1, 1)) == 1.0
    assert entropy((4,)) == 0.0
    # C6 matching sizes, computed by hand from the definition
    expected = -sum(
        (c / 18) * math.log2(c / 18) for c in (1, 6, 9, 2)
    )
    assert entropy((1, 6, 9, 2)) == pytest.approx(expected, abs=1e-12)


def test_entropy_rejects_zero():
    with pytest.raises(ValueError):
        entropy((0, 0))


def test_entropy_handles_huge_counts():
    big = 10 ** 500
    h = entropy((big, big))
    assert h == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ run_all

def test_run_all_c6():
    g = cycle_graph(6)
    report = run_all(g, minfill_nice(g))
    assert report.perfect_matchings == 2
    assert report.matchings == 18
    assert report.independent_sets == 18
    assert report.matching_poly == (1, 6, 9, 2)
    assert report.independence_poly == (1, 6, 9, 2)
    assert report.entropy_matchings == pytest.approx(report.entropy_independent_sets)
    assert report.width == 2
    assert set(report.millis) == {
        "perfect_matchings", "matchings", "independent_sets",
        "matching_polynomial", "independence_polynomial",
    }
    assert all(ms >= 0 for ms in report.millis.values())


def test_run_all_single_vertex():
    g = Graph(1)
    report = run_all(g, minfill_nice(g))
    assert (report.perfect_matchings, report.matchings,
            report.independent_sets) == (0, 1, 2)


def test_run_all_internal_consistency_caffeine():
    from tdcount import parse_smiles
    from conftest import CAFFEINE_SMILES

    g = parse_smiles(CAFFEINE_SMILES).graph
    report = run_all(g, minfill_nice(g))
    assert report.matching_poly.total() == report.matchings
    assert report.independence_poly.total() == report.independent_sets
    pm, mp, ip = oracle_counts(g)
    assert report.perfect_matchings == pm
    assert report.matching_poly == mp
    assert report.independence_poly == ip


# ------------------------------------------------------------------- errors

def test_mismatched_decomposition_rejected():
    g = cycle_graph(6)
    other = path_graph(4)
    with pytest.raises(DecompositionMismatch):
        count_matchings(g, minfill_nice(other))
    # right vertex count but an edge no bag covers
    h = Graph(6, [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(DecompositionMismatch, match="not covered"):
        count_matchings(g, minfill_nice(h))
    # a vertex forgotten twice and a non-empty root bag both make the tables
    # count wrongly
    leaf = NiceNode((), LEAF, None, ())
    refound = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((), FORGET, 0, (1,)),
        NiceNode((0,), INTRODUCE, 0, (2,)),
        NiceNode((0, 1), INTRODUCE, 1, (3,)),
        NiceNode((1,), FORGET, 0, (4,)),
        NiceNode((), FORGET, 1, (5,)),
    ])
    assert refound.structure_violations() == \
        ["vertices [0] forgotten more than once"]
    open_root = NiceDecomposition([leaf, NiceNode((0,), INTRODUCE, 0, (0,))])
    # the min-fill decomposition of C4, then with one introduce bag out of
    # order: (1, 3, 2) gave Hosoya 6 instead of 7 before bag equations were
    # checked as tuples; (1, 0, 3) is caught only at its own node, because
    # the forget above it drops the misplaced vertex
    c4 = [
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((0, 1), INTRODUCE, 1, (1,)),
        NiceNode((0, 1, 3), INTRODUCE, 3, (2,)),
        NiceNode((1, 3), FORGET, 0, (3,)),
        NiceNode((1, 2, 3), INTRODUCE, 2, (4,)),
        NiceNode((2, 3), FORGET, 1, (5,)),
        NiceNode((3,), FORGET, 2, (6,)),
        NiceNode((), FORGET, 3, (7,)),
    ]
    assert count_matchings(cycle_graph(4), NiceDecomposition(c4)) == 7
    shuffled = NiceDecomposition(
        c4[:5] + [NiceNode((1, 3, 2), INTRODUCE, 2, (4,))] + c4[6:])
    early = NiceDecomposition(
        c4[:3] + [NiceNode((1, 0, 3), INTRODUCE, 3, (2,))] + c4[4:])
    # a subtree that hangs below no node: its vertex was dropped (MS 1)
    orphan = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((), FORGET, 0, (1,)),
        leaf,
    ])
    # vertex 2 slipped in by a forget node instead of being introduced
    smuggled = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((0, 1), INTRODUCE, 1, (1,)),
        NiceNode((1, 2), FORGET, 0, (2,)),
        NiceNode((2,), FORGET, 1, (3,)),
        NiceNode((), FORGET, 2, (4,)),
    ])
    # a join whose children hold different bags
    uneven = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((0, 1), INTRODUCE, 1, (1,)),
        leaf,
        NiceNode((0,), INTRODUCE, 0, (3,)),
        NiceNode((0, 1), JOIN, None, (2, 4)),
        NiceNode((1,), FORGET, 0, (5,)),
        NiceNode((), FORGET, 1, (6,)),
    ])
    # one subtree used as both children of a join
    shared = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((0, 1), INTRODUCE, 1, (1,)),
        NiceNode((0, 1), JOIN, None, (2, 2)),
        NiceNode((1,), FORGET, 0, (3,)),
        NiceNode((), FORGET, 1, (4,)),
    ])
    full_leaf = NiceDecomposition([
        NiceNode((0,), LEAF, None, ()),
        NiceNode((), FORGET, 0, (0,)),
    ])
    foreign = NiceDecomposition([
        leaf,
        NiceNode((1,), INTRODUCE, 1, (0,)),
        NiceNode((), FORGET, 1, (1,)),
    ])
    cases = ((path_graph(2), refound, "forgotten exactly once"),
             (Graph(1), open_root, "root bag"),
             (cycle_graph(4), shuffled, "bag equation"),
             (cycle_graph(4), early, "introduce 3 bag equation"),
             (Graph(1), orphan, "not below the root"),
             (path_graph(3), smuggled, "forget 3 bag equation"),
             (path_graph(2), uneven, "join 5 bags differ"),
             (path_graph(2), shared, "unshared"),
             (Graph(1), full_leaf, "leaf 0 has bag"),
             (Graph(1), foreign, "outside 0..0"))
    for graph, nd, message in cases:
        for counter in (count_perfect_matchings, count_matchings,
                        count_independent_sets, matching_polynomial,
                        independence_polynomial, run_all):
            with pytest.raises(DecompositionMismatch, match=message):
                counter(graph, nd)


# ------------------------------------------------------------- shared plan

def test_counters_share_one_plan(monkeypatch):
    calls = count_prepares(monkeypatch)
    g = ladder_graph(5)
    nd = minfill_nice(g)
    pm, mp, ip = oracle_counts(g)
    assert count_perfect_matchings(g, nd) == pm == 8
    assert count_matchings(g, nd) == sum(mp)
    assert count_independent_sets(g, nd) == sum(ip)
    assert matching_polynomial(g, nd) == mp
    assert independence_polynomial(g, nd) == ip
    assert calls == [g]
    assert run_all(g, nd).independence_poly == ip
    assert calls == [g]


def test_shared_plan_follows_the_graph_object(monkeypatch):
    calls = count_prepares(monkeypatch)
    g = cycle_graph(6)
    nd = minfill_nice(g)
    assert count_matchings(g, nd) == 18
    # an equal but distinct graph is prepared afresh and counts the same
    twin = cycle_graph(6)
    assert twin == g and twin is not g
    assert count_matchings(twin, nd) == 18
    assert count_independent_sets(twin, nd) == 18
    assert calls == [g, twin]
    # a graph the decomposition does not cover is checked, not trusted
    uncovered = Graph(6, [(0, 1), (2, 3), (4, 5), (0, 3)])
    for _ in range(2):
        with pytest.raises(DecompositionMismatch, match="not covered"):
            count_matchings(uncovered, nd)
    assert calls == [g, twin, uncovered, uncovered]
    assert count_matchings(g, nd) == 18
    assert calls[-1] is g
    # nor can the graph behind a kept plan change
    with pytest.raises(AttributeError):
        g.edges = uncovered.edges
    with pytest.raises(AttributeError):
        del g.n
    copied = pickle.loads(pickle.dumps(g))
    assert copied == g and copied.neighbors(0) == g.neighbors(0)


def test_failed_prepare_raises_every_time():
    g = path_graph(3)
    nd = minfill_nice(path_graph(2))
    for counter in (count_matchings, count_matchings, count_perfect_matchings,
                    run_all, run_all):
        with pytest.raises(DecompositionMismatch, match="forgotten exactly once"):
            counter(g, nd)


def test_nice_nodes_are_immutable():
    nd = minfill_nice(path_graph(3))
    node = nd.nodes[1]
    for name, value in (("bag", (5,)), ("kind", FORGET), ("v", 2),
                        ("children", ())):
        with pytest.raises(AttributeError):
            setattr(node, name, value)
    with pytest.raises(AttributeError):
        node.extra = 1
    with pytest.raises(AttributeError):
        nd.nodes = nd.nodes[:1]
    # lists given to a node are frozen into tuples
    bag = [0]
    built = NiceNode(bag, INTRODUCE, 0, [0])
    bag.append(1)
    assert built.bag == (0,) and built.children == (0,)
    assert count_matchings(path_graph(3), nd) == 3


# ------------------------------------------------------------ SizePolynomial

def test_size_polynomial_semantics():
    p = SizePolynomial([1, 2, 0, 0])
    assert p == (1, 2)
    assert p[0] == 1 and p[5] == 0
    assert len(p) == 2
    assert p.total() == 3
    assert SizePolynomial([]) == (0,)
    assert list(SizePolynomial((3, 0, 1))) == [3, 0, 1]
