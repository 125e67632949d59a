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
    parse_chain_file,
    parse_smiles,
    parse_td,
    path_decomposition_from_order,
    path_graph,
    validate,
)
from tdcount.cli import bundled_path
from tdcount.decomposition import (
    FORGET, INTRODUCE, JOIN, LEAF, NiceDecomposition, NiceNode,
)
from conftest import CAFFEINE_SMILES, random_graph


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
    assert validate(g, td).ok


def test_min_fill_cycle_width_two():
    g = cycle_graph(6)
    td = decomposition_from_order(g, min_fill_order(g))
    assert td.width() == 2
    assert validate(g, td).ok


def test_min_fill_k4_width_three():
    g = complete_graph(4)
    td = decomposition_from_order(g, min_fill_order(g))
    assert td.width() == 3


def test_min_fill_caffeine_width_two():
    g = parse_smiles(CAFFEINE_SMILES).graph
    td = decomposition_from_order(g, min_fill_order(g))
    assert td.width() == 2
    assert validate(g, td).ok


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


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


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
        for h in (g, _relabelled(g, 7)):
            assert min_fill_order(h) == _min_fill_order_by_scan(h)


def test_min_fill_ties_go_to_lowest_id():
    # every vertex of a cycle has fill 1
    for g in (cycle_graph(8), _relabelled(cycle_graph(8), 3)):
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


def test_single_edge_any_order():
    g = Graph(2, [(0, 1)])
    td = decomposition_from_order(g, [1, 0])
    assert td.width() == 1
    assert validate(g, td).ok


def test_edgeless_width_zero():
    g = Graph(3)
    td = decomposition_from_order(g, [2, 0, 1])
    assert td.width() == 0
    assert validate(g, td).ok


def test_path_decomposition_examples():
    p4 = path_graph(4)
    td = path_decomposition_from_order(p4, [0, 1, 2, 3])
    assert td.width() == 1
    assert validate(p4, td).ok

    c6 = cycle_graph(6)
    td = path_decomposition_from_order(c6, list(range(6)))
    assert td.width() == 2
    assert validate(c6, td).ok

    k4 = complete_graph(4)
    td = path_decomposition_from_order(k4, [0, 1, 2, 3])
    assert td.width() == 3
    assert validate(k4, td).ok


def test_path_decomposition_interval_property():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, max_n=9, max_m=14)
        order = list(range(g.n))
        rng.shuffle(order)
        td = path_decomposition_from_order(g, order)
        assert validate(g, td).ok
        for v in range(g.n):
            idx = [i for i, bag in enumerate(td.bags) if v in bag]
            assert idx == list(range(idx[0], idx[-1] + 1))


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_elimination_decomposition_always_valid(g):
    order = min_fill_order(g)
    td = decomposition_from_order(g, order)
    assert validate(g, td).ok
    pd = path_decomposition_from_order(g, order)
    assert validate(g, pd).ok


def test_disconnected_graph_decomposes():
    g = disjoint_union(cycle_graph(3), path_graph(4))
    td = decomposition_from_order(g, min_fill_order(g))
    assert validate(g, td).ok
    nd = make_nice(td)
    assert nd.structure_violations() == []


# ------------------------------------------------------------------ validate

def test_validate_uncovered_edge():
    g = cycle_graph(6)
    bags = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}]
    td = TreeDecomposition(bags, [1, 2, 3, 4, -1], 4)
    report = validate(g, td)
    assert not report.ok
    assert report.uncovered_edges == [(0, 5)]
    assert "uncovered" in str(report)


def test_validate_disconnected_vertex():
    g = path_graph(3)
    td = TreeDecomposition([{0, 1}, {1, 2}, {0, 2}], [1, 2, -1], 2)
    report = validate(g, td)
    assert not report.ok
    assert 0 in report.disconnected_vertices


def test_validate_missing_vertex():
    g = path_graph(2)
    td = TreeDecomposition([{0}], [-1], 0)
    report = validate(g, td)
    assert report.missing_vertices == [1]
    assert report.uncovered_edges == [(0, 1)]


def test_validate_caffeine_figure(caffeine_figure):
    g, td = caffeine_figure
    assert td.width() == 2
    assert validate(g, td).ok


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
    bag = frozenset(range(32))
    td = TreeDecomposition([bag], [-1], 0)
    with pytest.raises(SizeLimitError):
        make_nice(td)


def test_make_nice_rejects_disconnected_vertex_sets():
    td = TreeDecomposition([{0, 1}, {1}, {0, 2}], [1, 2, -1], 2)
    with pytest.raises(ValueError, match="disconnected"):
        make_nice(td)


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


def _disconnected_by_holders(g, td):
    """Reference: validate's disconnected-vertex check as it was."""
    holders = [set() for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < g.n:
                holders[v].add(i)
    return [v for v in range(g.n) if holders[v]
            and sum(1 for i in holders[v] if td.parent[i] not in holders[v]) != 1]


def test_disconnected_vertices_match_holder_count():
    rng = random.Random(12)
    seen_bad = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        k = rng.randint(1, 8)
        # vertex n is outside the graph: validate reports it as foreign only
        bags = [rng.sample(range(n + 1), rng.randint(0, min(4, n + 1)))
                for _ in range(k)]
        parent = [-1] + [rng.randrange(i) for i in range(1, k)]
        td = TreeDecomposition(bags, parent, 0)
        g = Graph(n)
        want = _disconnected_by_holders(g, td)
        assert validate(g, td).disconnected_vertices == want
        if want:
            seen_bad += 1
            with pytest.raises(ValueError, match="disconnected"):
                make_nice(td)
    assert seen_bad > 50


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
    assert orphan.structure_violations() == ["node 2 is the child of 0 nodes"]
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
        ["node 3 bag (2, 1, 0) not strictly sorted"]
    # one subtree used as both children of a join
    shared = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((0,), JOIN, None, (1, 1)),
        NiceNode((), FORGET, 0, (2,)),
    ])
    assert shared.structure_violations() == ["node 1 is the child of 2 nodes"]
    for g, nd in ((Graph(1), orphan), (path_graph(3), shuffled),
                  (Graph(1), shared)):
        with pytest.raises(DecompositionMismatch):
            count_matchings(g, nd)


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


def test_width_conventions():
    assert TreeDecomposition([set()], [-1], 0).width() == -1
    assert TreeDecomposition([{0, 1, 2, 3}], [-1], 0).width() == 3
    bags = [{0, 1, 2}, {0, 1}]
    assert TreeDecomposition(bags, [-1, 0], 0).width() == 2
