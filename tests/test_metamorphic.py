"""Metamorphic checks beyond the oracle's size cap, aimed at join nodes.

Every graph here has more vertices and edges than the oracles accept, and
its min-fill decomposition has joins. The counts are checked against each
other instead: across decompositions with and without joins, across vertex
relabellings, through the deletion recurrences, over disjoint unions and
across the two modes of the kernel through line graphs.
"""

import os
import random
import sys

from tdcount import (
    DpStats,
    Graph,
    TreeDecomposition,
    count_independent_sets,
    count_matchings,
    count_perfect_matchings,
    decomposition_from_order,
    disjoint_union,
    independence_polynomial,
    ladder_graph,
    make_nice,
    matching_polynomial,
    min_fill_order,
    path_decomposition_from_order,
    path_graph,
    run_all,
)
from tdcount.oracle import ORACLE_MAX_EDGES, ORACLE_MAX_VERTICES
from conftest import minfill_nice, relabel
from test_counting import _hexagon_chain, grid_graph

# random elimination orders on these graphs reach width 18; past 10 a
# run_all takes seconds, so orders are redrawn until the width is at most 10
RANDOM_ORDER_MAX_WIDTH = 10


def sparse_graph(rng):
    """A random graph on 25..40 vertices with n..4n/3 edges (min-fill
    width 2..5 and 10..21 joins for the seed used here)."""
    n = rng.randint(25, 40)
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, rng.sample(possible, rng.randint(n, n + n // 3)))


def beyond_cap_graphs():
    out = [relabel(grid_graph(r, c), seed)
           for r, c in ((4, 10), (5, 8)) for seed in (1, 2)]
    rng = random.Random(2024)
    out += [sparse_graph(rng) for _ in range(8)]
    for g in out:
        assert g.n > ORACLE_MAX_VERTICES and g.m > ORACLE_MAX_EDGES
    return out


def bfs_order(g):
    order = []
    seen = [False] * g.n
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        for v in queue:
            order.append(v)
            for u in sorted(g.neighbors(v)):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def random_order_nice(g, seed):
    rng = random.Random(seed)
    while True:
        order = list(range(g.n))
        rng.shuffle(order)
        td = decomposition_from_order(g, order)
        if td.width() <= RANDOM_ORDER_MAX_WIDTH:
            return make_nice(td)


def answers(report):
    return (report.perfect_matchings, report.matchings,
            report.independent_sets, report.matching_poly,
            report.independence_poly)


def poly_product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def shifted_sum(p, q):
    """Coefficients of p(x) + x q(x)."""
    return tuple(p[k] + q[k - 1] for k in range(max(len(p), len(q) + 1)))


def test_decompositions_and_labels_agree_beyond_oracle_cap():
    for i, g in enumerate(beyond_cap_graphs()):
        minfill = minfill_nice(g)
        assert minfill.join_count() >= 1
        path = make_nice(path_decomposition_from_order(g, bfs_order(g)))
        assert path.is_path
        stats = DpStats()
        expected = answers(run_all(g, minfill, stats))
        assert all(p <= 3 ** w for w, p in stats.join_bags)
        assert answers(run_all(g, path)) == expected
        assert answers(run_all(g, random_order_nice(g, i))) == expected
        again = relabel(g, 100 + i)
        assert answers(run_all(again, minfill_nice(again))) == expected


def test_matching_deletion_recurrences():
    for i, g in enumerate(beyond_cap_graphs()):
        rng = random.Random(i)
        z = count_matchings(g, minfill_nice(g))
        mp = matching_polynomial(g, minfill_nice(g))
        for u, v in rng.sample(sorted(g.edges), 3):
            minus_e = Graph(g.n, g.edges - {(u, v)})
            minus_uv = g.delete_vertices((u, v))
            # Z(G) = Z(G - e) + Z(G - u - v), and by size
            assert z == count_matchings(minus_e, minfill_nice(minus_e)) + \
                count_matchings(minus_uv, minfill_nice(minus_uv))
            assert mp == shifted_sum(
                matching_polynomial(minus_e, minfill_nice(minus_e)),
                matching_polynomial(minus_uv, minfill_nice(minus_uv)))
        # pm(G) = sum over the neighbours u of v of pm(G - v - u)
        pm = count_perfect_matchings(g, minfill_nice(g))
        v = rng.randrange(g.n)
        total = 0
        for u in g.neighbors(v):
            h = g.delete_vertices((u, v))
            total += count_perfect_matchings(h, minfill_nice(h))
        assert pm == total


def test_independent_set_deletion_recurrence():
    for i, g in enumerate(beyond_cap_graphs()):
        rng = random.Random(i)
        ms = count_independent_sets(g, minfill_nice(g))
        ip = independence_polynomial(g, minfill_nice(g))
        for v in rng.sample(range(g.n), 3):
            minus_v = g.delete_vertices((v,))
            minus_nv = g.delete_vertices({v} | set(g.neighbors(v)))
            # ind(G) = ind(G - v) + ind(G - N[v]), and by size
            assert ms == count_independent_sets(minus_v, minfill_nice(minus_v)) \
                + count_independent_sets(minus_nv, minfill_nice(minus_nv))
            assert ip == shifted_sum(
                independence_polynomial(minus_v, minfill_nice(minus_v)),
                independence_polynomial(minus_nv, minfill_nice(minus_nv)))


def empty_root_union(parts):
    """Disjoint union of the parts and a decomposition of it: each part's
    min-fill tree decomposition hangs below one empty root bag, so the nice
    form joins the parts over an empty bag."""
    bags = [frozenset()]
    parent = [-1]
    g = Graph(0)
    for h in parts:
        td = decomposition_from_order(h, min_fill_order(h))
        base = len(bags)
        bags += [frozenset(v + g.n for v in bag) for bag in td.bags]
        parent += [0 if p == -1 else p + base for p in td.parent]
        g = disjoint_union(g, h)
    return g, make_nice(TreeDecomposition(bags, parent, 0))


def test_degenerate_joins():
    graphs = beyond_cap_graphs()
    grid, sparse = graphs[2], graphs[5]
    odd = path_graph(3)
    parts = (grid, sparse, odd)
    reports = [run_all(h, minfill_nice(h)) for h in parts]
    pm, z, ms, mp, ip = answers(reports[0])
    for report in reports[1:]:
        pm *= report.perfect_matchings
        z *= report.matchings
        ms *= report.independent_sets
        mp = poly_product(mp, report.matching_poly)
        ip = poly_product(ip, report.independence_poly)
    # the odd component has no perfect matching, so its branch's pm table
    # is all zero when it meets the others
    assert pm == 0
    expected = (pm, z, ms, mp, ip)

    # min-fill hangs each component below the root's one-vertex bag
    union = disjoint_union(disjoint_union(grid, sparse), odd)
    nd = minfill_nice(union)
    stats = DpStats()
    assert answers(run_all(union, nd, stats)) == expected
    assert 1 in {w for w, _ in stats.join_bags}
    stats = DpStats()
    assert count_perfect_matchings(union, nd, stats) == 0
    assert any(p == 0 for w, p in stats.join_bags)

    # the same parts joined over an empty bag
    union, nd = empty_root_union(parts)
    stats = DpStats()
    assert answers(run_all(union, nd, stats)) == expected
    assert 0 in {w for w, _ in stats.join_bags}


def bfs_nice(g):
    return make_nice(path_decomposition_from_order(g, bfs_order(g)))


def split_calls(monkeypatch):
    """Spy on the shifted matching join's coefficient split.

    One record per matching join, plain passes (shift 0) and the joins
    the outside walk of a cut pass transposes included: (whether it split,
    whether the rule's slot conditions hold -- a shift of two int digits or
    more and two slots or more --, whether every B-bit coefficient of the
    operand with the shorter entries fits one digit, whether the operand
    split is that one, whether the join was transposed).
    """
    from tdcount import counting, insideout

    digit = sys.int_info.bits_per_digit
    real = counting._join_slots
    real_transpose = insideout._transpose
    calls = []
    outside = [False]

    def transpose(*args):
        outside[0] = True
        try:
            return real_transpose(*args)
        finally:
            outside[0] = False

    def spy(t1, nz1, t2, nz2, shift):
        first, slots = real(t1, nz1, t2, nz2, shift)
        top1, top2 = max(t1), max(t2)
        short = t1 if top1 <= top2 else t2
        mask = (1 << shift) - 1
        fits = shift > 0 and all(
            (x >> k) & mask < 1 << digit
            for x in short for k in range(0, x.bit_length(), shift))
        slotted = shift >= 2 * digit and max(short).bit_length() > shift
        # a join that does not split runs one slot: the whole sparser child
        split = len(slots) > 1
        assert split or (first and slots[0] is t1)
        narrow = not split or (top1 <= top2 if first else top2 <= top1)
        calls.append((split, slotted, fits, narrow, outside[0]))
        return first, slots

    monkeypatch.setattr(counting, "_join_slots", spy)
    monkeypatch.setattr(insideout, "_transpose", transpose)
    return calls


def test_split_joins_agree_with_path_decompositions(monkeypatch):
    # min-fill joins on these grids split the shorter child into B-bit
    # coefficients. run_all's matching-polynomial pass takes B = m on the
    # 5x10, 5x16 and 6x12 grids (85, 139, 126) and the Hosoya total's bit
    # length on the 5x30 grid (136). On the plain path, which _FORK_WORK =
    # 0 forces, B = 45, 72, 136, 65: B = 45 on the 5x10 grid is under two
    # int digits, so its joins multiply whole entries. BFS path
    # decompositions have no joins. One CPU of affinity keeps every call
    # in this process
    from tdcount import counting

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    calls = split_calls(monkeypatch)
    for g in (grid_graph(5, 10), grid_graph(5, 16), grid_graph(5, 30),
              relabel(grid_graph(6, 12), 7)):
        minfill = minfill_nice(g)
        assert minfill.join_count() >= 1
        want = answers(run_all(g, bfs_nice(g)))
        assert answers(run_all(g, minfill)) == want
        with monkeypatch.context() as plain:
            plain.setattr(counting, "_FORK_WORK", 0)
            assert answers(run_all(g, minfill)) == want
    # the 5x30 grid's matching-polynomial pass is cut below the root, and
    # the outside walk's joins split too
    assert any(split and not transposed for split, *_, transposed in calls)
    assert any(split and transposed for split, *_, transposed in calls)
    # every join, forward or transposed, splits exactly where the cost rule
    # allows, and splits the operand with the shorter entries
    assert all(split == (slotted and fits) and narrow
               for split, slotted, fits, narrow, _ in calls)

    # two 2x60 ladders joined over an empty bag: each one's matching
    # coefficients reach 98 bits, so the join multiplies whole entries
    calls.clear()
    ladders, nd = empty_root_union([ladder_graph(60)] * 2)
    assert nd.join_count() == 1
    assert answers(run_all(ladders, nd)) == \
        answers(run_all(ladders, bfs_nice(ladders)))
    assert (False, True, False, True, False) in calls

    # the split visits each combining pair once per slot but records it
    # once: the shifted pass cut at the root makes the same products as
    # the plain one. run_all's matching-polynomial pass on this grid is
    # priced by its family and cut below the root, and records the
    # products of the joins it transposes above the cut instead, which
    # here are the forward ones; _run alone prices no pass and keeps the
    # root. _FORK_WORK = 0 keeps both families on the plain path, four
    # passes
    monkeypatch.setattr(counting, "_FORK_WORK", 0)
    g = grid_graph(5, 30)
    nd = minfill_nice(g)
    stats = DpStats()
    hosoya = run_all(g, nd, stats).matchings
    joins = nd.join_count()
    passes = [stats.join_bags[k * joins:(k + 1) * joins] for k in range(4)]
    assert [sum(p for _, p in bags) for bags in passes] == \
        [5692, 3344, 5692, 3344]
    assert passes[3] == passes[1]
    root = DpStats()
    counting._run(counting._plan_for(g, nd), "match", root,
                  hosoya.bit_length())
    assert root.join_bags == passes[0]


def line_graph(g):
    """L(g): a vertex per edge of g, in sorted order, two of them adjacent
    where their edges share an endpoint."""
    ends = {}
    for k, (u, v) in enumerate(g.sorted_edges()):
        ends.setdefault(u, []).append(k)
        ends.setdefault(v, []).append(k)
    return Graph(g.m, [(a, b) for at in ends.values()
                       for i, a in enumerate(at) for b in at[i + 1:]])


def test_line_graph_independence_is_matching(monkeypatch):
    # a matching of g is an independent set of L(g) of the same size, so
    # the ind mode over L(g) gives the match mode's polynomial over g.
    # L(4x12 grid) has min-fill width 8 and joins; at _FORK_WORK = 0 its
    # independence polynomial takes the plain path, whose shifted pass is
    # cut below the root. One CPU of affinity keeps every pass here
    from tdcount import counting, insideout

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    cases = [grid_graph(4, 12), _hexagon_chain(30), ladder_graph(200)]
    for g in cases:
        want = matching_polynomial(g, minfill_nice(g))
        lg = line_graph(g)
        nd = minfill_nice(lg)
        for fork_work in (counting._FORK_WORK, 0):
            with monkeypatch.context() as gate:
                gate.setattr(counting, "_FORK_WORK", fork_work)
                assert independence_polynomial(lg, nd) == want
                report = run_all(lg, nd)
            assert report.independence_poly == want
            assert report.independent_sets == count_matchings(
                g, minfill_nice(g))
    lg = line_graph(cases[0])
    nd = minfill_nice(lg)
    assert nd.width() == 8 and nd.join_count() > 0
    plan = counting._plan_for(lg, nd)
    bits = counting._run(plan, "ind", None).bit_length()
    _, cost = insideout._cut_depth(plan, "ind", bits)
    assert min(cost) < cost[0]
