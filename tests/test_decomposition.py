import random

import pytest
from hypothesis import given, settings, strategies as st

from tdcount import (
    DecompositionMismatch,
    Graph,
    ParseError,
    SizeLimitError,
    TreeDecomposition,
    build_chain,
    complete_graph,
    count_matchings,
    cycle_graph,
    decomposition_from_order,
    disjoint_union,
    emit_td,
    ladder_graph,
    make_nice,
    min_fill_order,
    oracle_counts,
    parse_chain_file,
    parse_smiles,
    parse_td,
    path_decomposition_from_order,
    path_graph,
)
from tdcount import counting
from tdcount.cli import bundled_path
from tdcount.decomposition import (
    FORGET, INTRODUCE, JOIN, LEAF, NiceDecomposition, NiceNode,
)
from conftest import CAFFEINE_SMILES, grid_graph, random_graph, relabel


def graphs(max_n=8, max_m=16):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=max_m,
                              unique=True)) if pairs else []
        return Graph(n, edges)

    return build()


def below_vertex_sets(nd):
    below = [set() for _ in nd.nodes]
    for i, node in enumerate(nd.nodes):
        s = set(node.bag)
        for c in node.children:
            s |= below[c]
        below[i] = s
    return below


# ---------------------------------------------------------------- min fill

def test_min_fill_tree_width_one():
    g = path_graph(4)
    td = decomposition_from_order(g, min_fill_order(g))
    assert td.width() == 1
    counting._plan_for(g, make_nice(td))


def test_min_fill_cycle_width_two():
    g = cycle_graph(6)
    td = decomposition_from_order(g, min_fill_order(g))
    assert td.width() == 2
    counting._plan_for(g, make_nice(td))


def test_min_fill_k4_width_three():
    g = complete_graph(4)
    td = decomposition_from_order(g, min_fill_order(g))
    assert td.width() == 3


def test_min_fill_caffeine_width_two():
    g = parse_smiles(CAFFEINE_SMILES).graph
    td = decomposition_from_order(g, min_fill_order(g))
    assert td.width() == 2
    counting._plan_for(g, make_nice(td))


def _min_fill_order_by_scan(g):
    """Reference: min-fill that scans every alive vertex at every step."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    alive = set(range(g.n))

    def fill_cost(v):
        nbrs = sorted(adj[v])
        return sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:]
                   if b not in adj[a])

    fill = {v: fill_cost(v) for v in alive}
    order = []
    while alive:
        v = min(alive, key=lambda u: (fill[u], u))
        order.append(v)
        nbrs = sorted(adj[v])
        dirty = set(nbrs)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    dirty.update(adj[a] & adj[b])
        for a in nbrs:
            adj[a].discard(v)
            dirty.update(adj[a])
        alive.remove(v)
        del fill[v]
        for u in dirty & alive:
            fill[u] = fill_cost(u)
    return order


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14, max_m=40))
def test_min_fill_order_matches_scan(g):
    assert min_fill_order(g) == _min_fill_order_by_scan(g)


def test_min_fill_order_matches_scan_on_random_graphs():
    # denser than the hypothesis graphs: fills rise and fall, so stale heap
    # entries must be skipped for the orders to agree
    rng = random.Random(5)
    for _ in range(500):
        g = random_graph(rng, max_n=24, max_m=60)
        assert min_fill_order(g) == _min_fill_order_by_scan(g)


def test_min_fill_order_matches_scan_on_long_chains():
    element = parse_chain_file(bundled_path("hexagon.chain").read_text())
    for g in (ladder_graph(600), build_chain(element, 300)):
        for h in (g, relabel(g, 7)):
            assert min_fill_order(h) == _min_fill_order_by_scan(h)


def test_min_fill_order_matches_scan_on_grids():
    # wide enough that one elimination adds fill edges whose common
    # neighbours lose fill while their endpoints gain it
    for k in range(3, 9):
        g = grid_graph(k, 30)
        for h in (g, relabel(g, k)):
            assert min_fill_order(h) == _min_fill_order_by_scan(h)


def test_min_fill_order_matches_scan_on_dense_random_graphs():
    rng = random.Random(12)
    for _ in range(150):
        g = random_graph(rng, max_n=40, max_m=360)
        assert min_fill_order(g) == _min_fill_order_by_scan(g)


def test_min_fill_order_on_complete_graphs_and_isolated_vertices():
    for n in range(9):
        # no vertex ever has fill, so ties alone decide
        assert min_fill_order(complete_graph(n)) == list(range(n))
    g = disjoint_union(disjoint_union(grid_graph(3, 4), Graph(3)),
                       disjoint_union(complete_graph(5), cycle_graph(7)))
    # the isolated vertices 12-14 and the clique 15-19 are the only ones of
    # fill 0, and eliminating one leaves the others at fill 0
    assert min_fill_order(g)[:8] == list(range(12, 20))
    for h in (g, relabel(g, 4)):
        assert min_fill_order(h) == _min_fill_order_by_scan(h)


def test_min_fill_ties_go_to_lowest_id():
    # every vertex of a cycle has fill 1
    for g in (cycle_graph(8), relabel(cycle_graph(8), 3)):
        order = min_fill_order(g)
        assert order[0] == 0
        assert order == _min_fill_order_by_scan(g)


# ------------------------------------------------- construction from orders

def test_order_must_be_permutation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        decomposition_from_order(g, [0, 1])
    with pytest.raises(ValueError):
        path_decomposition_from_order(g, [0, 0, 2])
    # entries equal to the ids but not of type int
    for build in (decomposition_from_order, path_decomposition_from_order):
        for order in ([0.0, 1], [True, False]):
            with pytest.raises(ValueError, match="permutation"):
                build(path_graph(2), order)


def test_single_edge_any_order():
    g = Graph(2, [(0, 1)])
    td = decomposition_from_order(g, [1, 0])
    assert td.width() == 1
    counting._plan_for(g, make_nice(td))


def test_edgeless_width_zero():
    g = Graph(3)
    td = decomposition_from_order(g, [2, 0, 1])
    assert td.width() == 0
    counting._plan_for(g, make_nice(td))


def test_path_decomposition_examples():
    p4 = path_graph(4)
    td = path_decomposition_from_order(p4, [0, 1, 2, 3])
    assert td.width() == 1
    counting._plan_for(p4, make_nice(td))

    c6 = cycle_graph(6)
    td = path_decomposition_from_order(c6, list(range(6)))
    assert td.width() == 2
    counting._plan_for(c6, make_nice(td))

    k4 = complete_graph(4)
    td = path_decomposition_from_order(k4, [0, 1, 2, 3])
    assert td.width() == 3
    counting._plan_for(k4, make_nice(td))


def test_path_decomposition_interval_property():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, max_n=9, max_m=14)
        order = list(range(g.n))
        rng.shuffle(order)
        td = path_decomposition_from_order(g, order)
        counting._plan_for(g, make_nice(td))
        for v in range(g.n):
            idx = [i for i, bag in enumerate(td.bags) if v in bag]
            assert idx == list(range(idx[0], idx[-1] + 1))


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_elimination_decomposition_always_valid(g):
    order = min_fill_order(g)
    td = decomposition_from_order(g, order)
    counting._plan_for(g, make_nice(td))
    pd = path_decomposition_from_order(g, order)
    counting._plan_for(g, make_nice(pd))


def test_disconnected_graph_decomposes():
    g = disjoint_union(cycle_graph(3), path_graph(4))
    td = decomposition_from_order(g, min_fill_order(g))
    nd = make_nice(td)
    counting._plan_for(g, nd)
    assert nd.structure_violations() == []


def _decomposition_by_elimination_game(g, order):
    """Reference: decomposition_from_order as it was, adding every fill edge
    pair by pair to a copy of the adjacency, then finding each parent in a
    second pass. Returns (bags, parent, root)."""
    n = g.n
    if n == 0:
        return [frozenset()], [-1], 0
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(g.neighbors(v)) for v in range(n)]
    bags = []
    for v in order:
        later = sorted(adj[v])
        bags.append(frozenset([v] + later))
        for i in range(len(later)):
            a = later[i]
            for j in range(i + 1, len(later)):
                b = later[j]
                adj[a].add(b)
                adj[b].add(a)
        for a in later:
            adj[a].discard(v)
    root = n - 1
    parent = []
    for i, v in enumerate(order):
        rest = bags[i] - {v}
        if rest:
            parent.append(pos[min(rest, key=pos.__getitem__)])
        else:
            parent.append(-1 if i == root else root)
    return bags, parent, root


def _assert_same_tree(g, order):
    td = decomposition_from_order(g, order)
    assert ((td.bags, td.parent, td.root)
            == _decomposition_by_elimination_game(g, order))


def test_elimination_tree_matches_game_on_corpus():
    rng = random.Random(13)
    for line in bundled_path("corpus100.smi").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            g = parse_smiles(line.split("\t")[0]).graph
            _assert_same_tree(g, min_fill_order(g))
            order = list(range(g.n))
            rng.shuffle(order)
            _assert_same_tree(g, order)


def test_elimination_tree_matches_game_on_benchmark_graphs():
    element = parse_chain_file(bundled_path("hexagon.chain").read_text())
    for g in [grid_graph(k, 30) for k in range(3, 9)]:
        _assert_same_tree(g, min_fill_order(g))
        _assert_same_tree(g, list(range(g.n)))  # row by row: width 30
    # (the ladder's ids run along one rail, so its id order has width 600)
    for g in (ladder_graph(600), build_chain(element, 300)):
        _assert_same_tree(g, min_fill_order(g))


def test_elimination_tree_matches_game_on_random_graphs():
    rng = random.Random(14)
    for _ in range(300):
        g = random_graph(rng, max_n=40, max_m=rng.choice((20, 60, 120)))
        _assert_same_tree(g, min_fill_order(g))
        order = list(range(g.n))
        rng.shuffle(order)
        _assert_same_tree(g, order)


def test_elimination_tree_matches_game_on_small_and_disconnected_graphs():
    _assert_same_tree(Graph(0), [])
    _assert_same_tree(Graph(1), [0])
    rng = random.Random(15)
    split = disjoint_union(disjoint_union(cycle_graph(5), Graph(2)),
                           disjoint_union(path_graph(4), complete_graph(4)))
    for g in (Graph(4), split):
        _assert_same_tree(g, min_fill_order(g))
        for _ in range(20):
            order = list(range(g.n))
            rng.shuffle(order)
            _assert_same_tree(g, order)


# ------------------------------------- faults the counters refuse (_prepare)

def test_validate_uncovered_edge():
    g = cycle_graph(6)
    bags = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}]
    td = TreeDecomposition(bags, [1, 2, 3, 4, -1], 4)
    with pytest.raises(DecompositionMismatch,
                       match=r"^edges \[\(0, 5\)\] not covered by any bag$"):
        count_matchings(g, make_nice(td))


def test_validate_disconnected_vertex():
    g = path_graph(3)
    td = TreeDecomposition([{0, 1}, {1, 2}, {0, 2}], [1, 2, -1], 2)
    with pytest.raises(DecompositionMismatch,
                       match=r"^vertex 0 not forgotten exactly once \(again"):
        count_matchings(g, make_nice(td))


def test_validate_missing_vertex():
    # edge (0, 1) is uncovered too; the missing vertex is the first fault
    g = path_graph(2)
    td = TreeDecomposition([{0}], [-1], 0)
    with pytest.raises(DecompositionMismatch,
                       match=r"^vertices \[1\] not forgotten exactly once$"):
        count_matchings(g, make_nice(td))


def test_validate_caffeine_figure(caffeine_figure):
    g, td = caffeine_figure
    assert td.width() == 2
    _, mp, _ = oracle_counts(g)
    assert count_matchings(g, make_nice(td)) == sum(mp)


# ----------------------------------------------------------------- make_nice

def test_make_nice_two_bag_chain():
    td = TreeDecomposition([{0, 1}, {1, 2}], [1, -1], 1)
    nd = make_nice(td)
    kinds = [node.kind for node in nd.nodes]
    assert kinds.count(LEAF) == 1
    assert kinds.count(INTRODUCE) == 3
    assert kinds.count(FORGET) == 3
    assert kinds.count(JOIN) == 0
    assert len(nd) == 7
    assert nd.width() == 1
    assert nd.structure_violations() == []
    assert nd.is_path


def test_make_nice_empty_graph():
    td = TreeDecomposition([frozenset()], [-1], 0)
    assert td.width() == -1
    nd = make_nice(td)
    assert len(nd) == 1
    assert nd.nodes[0].kind == LEAF
    assert nd.is_path


def test_make_nice_caffeine_figure(caffeine_figure):
    g, td = caffeine_figure
    nd = make_nice(td)
    assert nd.width() == td.width() == 2
    assert nd.join_count() >= 1
    assert not nd.is_path
    assert nd.structure_violations() == []


def test_make_nice_rejects_wide_bags():
    # refused before the O(w^2) nice form of the bag is built
    bag = frozenset(range(32))
    td = TreeDecomposition([bag], [-1], 0)
    with pytest.raises(SizeLimitError, match="width 31 exceeds the cap of 30"):
        make_nice(td)


def test_make_nice_rejects_disconnected_vertex_sets():
    # vertex 0 is in bags 0 and 2 but not in bag 1 between them, so
    # make_nice forgets it twice: a grammar fault, found without a graph
    td = TreeDecomposition([{0, 1}, {1}, {0, 2}], [1, 2, -1], 2)
    nd = make_nice(td)
    fault = "vertex 0 not forgotten exactly once (again at forget 8)"
    assert nd.structure_violations() == [fault]
    with pytest.raises(DecompositionMismatch) as info:
        count_matchings(Graph(3, [(0, 1), (0, 2)]), nd)
    assert str(info.value) == fault


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_make_nice_preserves_width_and_grammar(g):
    td = decomposition_from_order(g, min_fill_order(g))
    nd = make_nice(td)
    assert nd.width() == td.width()
    assert nd.structure_violations() == []
    # roughly linear node count
    assert len(nd) <= 4 * (td.width() + 2) * len(td.bags) + 2


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_nice_separation_properties(g):
    """Introduce nodes see new vertices only through the bag; join subtrees
    share no edges outside the bag."""
    nd = make_nice(decomposition_from_order(g, min_fill_order(g)))
    below = below_vertex_sets(nd)
    for i, node in enumerate(nd.nodes):
        if node.kind == INTRODUCE:
            child_bag = set(nd.nodes[node.children[0]].bag)
            reachable = g.neighbors(node.v) & below[i]
            assert reachable <= child_bag
        elif node.kind == JOIN:
            c1, c2 = node.children
            bag = set(node.bag)
            left = below[c1] - bag
            right = below[c2] - bag
            for u, v in g.edges:
                assert not (u in left and v in right)
                assert not (v in left and u in right)


def _make_nice_by_sets(td):
    """Reference: make_nice as it was, keeping each bag as a set and sorting
    it for every node. Returns (bag, kind, v, children) per node."""
    nodes = []

    def add(bag, kind, v, children):
        nodes.append((tuple(bag), kind, v, tuple(children)))
        return len(nodes) - 1

    def grow(cur, cur_bag, target):
        cur_bag = set(cur_bag)
        for v in sorted(cur_bag - target, reverse=True):
            cur_bag.discard(v)
            cur = add(sorted(cur_bag), FORGET, v, (cur,))
        for v in sorted(target - cur_bag):
            cur_bag.add(v)
            cur = add(sorted(cur_bag), INTRODUCE, v, (cur,))
        return cur

    children_of = td.children()
    tops = {}
    stack = [(td.root, False)]
    while stack:
        b, expanded = stack.pop()
        if not expanded:
            stack.append((b, True))
            for c in children_of[b]:
                stack.append((c, False))
            continue
        bag = td.bags[b]
        kids = children_of[b]
        if not kids:
            cur = add((), LEAF, None, ())
            tops[b] = grow(cur, set(), bag)
        else:
            branches = [grow(tops.pop(c), td.bags[c], bag) for c in kids]
            cur = branches[0]
            for other in branches[1:]:
                cur = add(sorted(bag), JOIN, None, (cur, other))
            tops[b] = cur
    grow(tops.pop(td.root), td.bags[td.root], set())
    return nodes


def _assert_same_nice(td):
    nd = make_nice(td)
    assert [(node.bag, node.kind, node.v, node.children)
            for node in nd.nodes] == _make_nice_by_sets(td)


def test_make_nice_matches_set_version_on_corpus():
    for line in bundled_path("corpus100.smi").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            g = parse_smiles(line.split("\t")[0]).graph
            _assert_same_nice(decomposition_from_order(g, min_fill_order(g)))


def test_make_nice_matches_set_version_on_random_orders():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, max_n=16, max_m=40)
        order = list(range(g.n))
        rng.shuffle(order)
        _assert_same_nice(decomposition_from_order(g, order))
        _assert_same_nice(path_decomposition_from_order(g, order))


def test_make_nice_matches_set_version_on_multi_child_trees(caffeine_figure):
    _, td = caffeine_figure
    assert max(len(kids) for kids in td.children()) >= 2
    _assert_same_nice(td)
    # a root with three children, bags that shrink and grow on every edge
    star = TreeDecomposition(
        [{0, 1, 2}, {1, 2, 3}, {0, 4}, {2, 5, 6}, {5, 7}, set()],
        [-1, 0, 0, 0, 3, 0], 0)
    assert len(star.children()[0]) == 4
    _assert_same_nice(star)


def _disconnected_by_holders(td, n):
    """Reference: vertices of 0..n-1 whose bags have other than one top bag
    (a bag whose parent does not hold the vertex), as validate checked it."""
    holders = [set() for _ in range(n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < n:
                holders[v].add(i)
    return [v for v in range(n) if holders[v]
            and sum(1 for i in holders[v] if td.parent[i] not in holders[v]) != 1]


def _random_and_perturbed_decompositions(rng, count):
    """(graph, decomposition) pairs: random bag trees on a random graph, and
    min-fill or path decompositions with one bag vertex dropped or added
    (vertex n is outside the graph) or one edge added to the graph."""
    for i in range(count):
        if i % 2 == 0:
            n = rng.randint(1, 8)
            k = rng.randint(1, 8)
            bags = [rng.sample(range(n + 1), rng.randint(0, min(4, n + 1)))
                    for _ in range(k)]
            parent = [-1] + [rng.randrange(j) for j in range(1, k)]
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 3))))
            yield g, TreeDecomposition(bags, parent, 0)
            continue
        g = random_graph(rng, max_n=8, max_m=12)
        n = g.n
        order = list(range(n))
        rng.shuffle(order)
        build = rng.choice((decomposition_from_order,
                            path_decomposition_from_order))
        td = build(g, order if rng.random() < 0.5 else min_fill_order(g))
        bags = [set(b) for b in td.bags]
        change = rng.randrange(4)
        if change == 1:
            bag = rng.choice(bags)
            bag.discard(rng.choice(sorted(bag)))
        elif change == 2:
            rng.choice(bags).add(rng.randrange(n + 1))
        elif change == 3 and n > 1:
            g = Graph(n, list(g.edges | {tuple(sorted(rng.sample(range(n), 2)))}))
        yield g, TreeDecomposition(bags, td.parent, td.root)


def test_disconnected_vertices_match_holder_count():
    """A counter refuses the nice form of a decomposition exactly when a bag
    set is disconnected, a vertex is in no bag or outside the graph, or an
    edge is in no bag; otherwise it counts right. Only the first needs no
    graph, and ``structure_violations()`` reports exactly it."""
    rng = random.Random(12)
    seen_disconnected = seen_bad = seen_ok = 0
    for g, td in _random_and_perturbed_decompositions(rng, 600):
        n = g.n
        nd = make_nice(td)
        disconnected = _disconnected_by_holders(td, n + 1)
        assert bool(nd.structure_violations()) == bool(disconnected)
        held = set().union(*td.bags)
        uncovered = [e for e in g.edges
                     if not any(set(e) <= bag for bag in td.bags)]
        if disconnected or held != set(range(n)) or uncovered:
            seen_disconnected += bool(disconnected)
            seen_bad += 1
            with pytest.raises(DecompositionMismatch):
                count_matchings(g, nd)
        else:
            seen_ok += 1
            assert count_matchings(g, nd) == sum(oracle_counts(g)[1])
    assert seen_disconnected > 50 and seen_bad - seen_disconnected > 50
    assert seen_ok > 100


def test_path_input_gives_no_joins():
    g = cycle_graph(8)
    pd = path_decomposition_from_order(g, list(range(8)))
    nd = make_nice(pd)
    assert nd.is_path
    assert nd.join_count() == 0


def test_structure_violations_match_what_the_counters_reject():
    leaf = NiceNode((), LEAF, None, ())
    # Graph(1): the leaf-introduce-forget subtree hangs below no node
    orphan = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((), FORGET, 0, (1,)),
        leaf,
    ])
    assert orphan.structure_violations() == ["nodes [2] not below the root"]
    # path 0-1-2 with one introduce bag out of order: the bag sets still fit
    path = [
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((0, 1), INTRODUCE, 1, (1,)),
        NiceNode((0, 1, 2), INTRODUCE, 2, (2,)),
        NiceNode((1, 2), FORGET, 0, (3,)),
        NiceNode((2,), FORGET, 1, (4,)),
        NiceNode((), FORGET, 2, (5,)),
    ]
    assert NiceDecomposition(path).structure_violations() == []
    shuffled = NiceDecomposition(
        path[:3] + [NiceNode((2, 1, 0), INTRODUCE, 2, (2,))] + path[4:])
    assert shuffled.structure_violations() == \
        ["introduce 3 bag equation violated"]
    # one subtree used as both children of a join
    shared = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((0,), JOIN, None, (1, 1)),
        NiceNode((), FORGET, 0, (2,)),
    ])
    assert shared.structure_violations() == \
        ["node 2 has child 1 that is not an earlier, unshared node"]
    for g, nd in ((Graph(1), orphan), (path_graph(3), shuffled),
                  (Graph(1), shared)):
        with pytest.raises(DecompositionMismatch):
            count_matchings(g, nd)


@pytest.mark.parametrize("nodes, fault", [
    ([NiceNode((0,), INTRODUCE, 0, ()), NiceNode((), FORGET, 0, (0,))],
     "introduce node 0 has 0 children"),
    ([NiceNode((), LEAF, None, ()), NiceNode((0,), INTRODUCE, 0, (0,)),
      NiceNode((0,), FORGET, 1, (1,)), NiceNode((), FORGET, 0, (2,))],
     "forget 2 bag equation violated"),
    ([NiceNode((), LEAF, None, ()), NiceNode((), JOIN, None, (0,))],
     "join node 1 has 1 children"),
    ([NiceNode((), LEAF, None, ()), NiceNode((), "branch", None, (0,))],
     "unknown node kind 'branch'"),
], ids=["introduce-no-child", "forget-absent-vertex", "join-one-child",
        "unknown-kind"])
def test_grammar_faults_reported_and_refused(nodes, fault):
    nd = NiceDecomposition(nodes)
    assert nd.structure_violations() == [fault]
    with pytest.raises(DecompositionMismatch) as err:
        count_matchings(Graph(2), nd)
    assert str(err.value) == fault


# ------------------------------------------------------------------ td I/O

def test_parse_td_minimal():
    td = parse_td("s td 1 1 0\nb 1\n")
    assert len(td.bags) == 1
    assert td.bags[0] == frozenset()
    assert td.width() == -1


def test_td_round_trip(caffeine_figure):
    _, td = caffeine_figure
    again = parse_td(emit_td(td, n_vertices=14))
    assert again.bags == td.bags
    assert again.tree_edges() == td.tree_edges()


def test_parse_td_errors():
    with pytest.raises(ParseError, match="out of range"):
        parse_td("s td 1 2 2\nb 1 3\n")
    with pytest.raises(ParseError):
        parse_td("b 1 1\n")  # bag before header
    with pytest.raises(ParseError):
        parse_td("s td 2 1 1\nb 1 1\nb 2\n")  # missing tree edge
    with pytest.raises(ParseError, match="never declared"):
        parse_td("s td 2 1 1\nb 1 1\n1 2\n")
    with pytest.raises(ParseError):
        parse_td("s td 2 1 1\nb 1 1\nb 2 1\n1 1\n")  # degenerate edge
    two_bags = "s td 2 1 1\nb 1 1\nb 2 1\n"
    for text, message, line in [
        ("s td 1 1 1\ns td 1 1 1\n", "duplicate 's td' header", 2),
        ("s td 1 one 1\n", "non-integer header fields", 1),
        ("s td 1 1\n", "malformed header", 1),
        ("s td 0 0 0\n", "needs at least one bag", 1),
        ("s td 1 -1 0\nb 1\n", "negative counts in header", 1),
        ("s td 1 1 -1\nb 1\n", "negative counts in header", 1),
        ("s td 1 1 1\nb\n", "bag line without id", 2),
        ("s td 1 1 1\nb x 1\n", "non-integer bag line", 2),
        ("s td 1 1 1\nb 1 y\n", "non-integer bag line", 2),
        # integers are ASCII digits after an optional '-'
        ("s td 1 1 2\nb 1 \uff12\n", "non-integer bag line", 2),
        ("s td 1 1 1_0\nb 1 1\n", "non-integer header fields", 1),
        (two_bags + "+1 2\n", "non-integer tree edge", 4),
        ("s td 1 1 1\nb 2 1\n", "bag id 2 out of range", 2),
        ("s td 2 1 1\nb 1 1\nb 1 1\n", "duplicate bag id 1", 3),
        # a bag larger than the header's width+1; listing a vertex twice
        # does not make it larger
        ("s td 2 1 2\nb 1 1 1\nb 2 1 2\n1 2\n",
         "bag 2 has 2 vertices, more than the header's 1", 3),
        (two_bags + "1 2 2\n", "malformed tree edge line", 4),
        (two_bags + "1 two\n", "non-integer tree edge", 4),
        ("", "missing 's td' header", 1),
        ("c only a comment\n", "missing 's td' header", 1),
        ("s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n1 2\n2 1\n",
         "tree edges do not connect all bags", 1),
        # a form feed, \x85 or U+2028 does not end a comment line
        ("s td 1 1 1\nc a\x0cb\nb 1 x\n", "non-integer bag line", 3),
        ("s td 1 1 1\rc a\x85b\rb 1 x\r", "non-integer bag line", 3),
        ("s td 1 1 1\r\nc a\u2028b\r\nb 1 x\r\n", "non-integer bag line", 3),
    ]:
        with pytest.raises(ParseError, match=message) as err:
            parse_td(text)
        assert err.value.line == line


def test_parse_td_skips_comment_lines():
    text = "c made by hand\ns td 2 2 2\nc bags\nb 1 1 2\nb 2 2\n1 2\n"
    # lines end at \n, \r\n or \r only, so these comments stay whole
    for sep, mark in (("\n", " "), ("\n", "\x0c"), ("\r", "\x85"),
                      ("\r\n", "\u2028")):
        td = parse_td(text.replace("\n", sep).replace(" by ", f"{mark}by "))
        assert td.bags == [frozenset({0, 1}), frozenset({1})]
        assert (td.parent, td.root) == ([-1, 0], 0)


def test_tree_decomposition_refuses_malformed_trees():
    for bags, parent, root, message in [
        ([], [], 0, "at least one bag"),
        ([{0}, {1}], [-1], 0, "parent array must match bag count"),
        ([{0}, {1}], [1, 0], 0, "root must have parent -1"),
        # bags 1 and 2 are each other's parent: unreachable from root 0
        ([{0}, {1}, {2}], [-1, 2, 1], 0, "do not form a tree"),
    ]:
        with pytest.raises(ValueError, match=message):
            TreeDecomposition(bags, parent, root)


def test_tree_decomposition_refuses_non_int_indices():
    for parent, root in (([1.0, -1], 1), ([1, -1], 1.0), ([True, -1], 1),
                         ([-1, 0], False), ([-1, 0.0], 0)):
        with pytest.raises(ValueError):
            TreeDecomposition([{0}, {1}], parent, root)
    td = TreeDecomposition([{0}, {1}], [1, -1], 1)
    assert (td.parent, td.root) == ([1, -1], 1)


def test_width_conventions():
    assert TreeDecomposition([set()], [-1], 0).width() == -1
    assert TreeDecomposition([{0, 1, 2, 3}], [-1], 0).width() == 3
    bags = [{0, 1, 2}, {0, 1}]
    assert TreeDecomposition(bags, [-1, 0], 0).width() == 2
