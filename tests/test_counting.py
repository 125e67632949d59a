import marshal
import math
import os
import pickle
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from tdcount import (
    MAX_WIDTH,
    DecompositionMismatch,
    DpStats,
    Graph,
    NiceDecomposition,
    SizeLimitError,
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
    load_corpus,
    make_nice,
    matching_polynomial,
    min_fill_order,
    oracle_counts,
    path_graph,
    run_all,
)
from tdcount import counting, insideout
from tdcount.cli import bundled_path
from tdcount.decomposition import FORGET, INTRODUCE, JOIN, LEAF, NiceNode
from conftest import (
    count_prepares, grid_graph, minfill_nice, path_nice, random_graph,
)
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


@pytest.mark.parametrize("nice", [minfill_nice, path_nice],
                         ids=["min-fill", "path"])
def test_closed_forms_on_long_paths_and_cycles(nice):
    # far past the oracle's cap, with coefficients of hundreds of bits:
    # m_k(P_n) = C(n-k, k), i_k(P_n) = C(n-k+1, k) and
    # m_k(C_n) = i_k(C_n) = n/(n-k) C(n-k, k)
    n = 2000
    path = path_graph(n)
    nd = nice(path)
    assert matching_polynomial(path, nd) == [
        math.comb(n - k, k) for k in range(n + 1)]
    assert independence_polynomial(path, nd) == [
        math.comb(n - k + 1, k) for k in range(n + 1)]
    cycle = cycle_graph(n)
    nd = nice(cycle)
    expected = [n * math.comb(n - k, k) // (n - k) for k in range(n // 2 + 1)]
    assert matching_polynomial(cycle, nd) == expected
    assert independence_polynomial(cycle, nd) == expected


def test_coefficients_read_back_every_slot_width():
    # B-bit slots with zero runs inside, past the length where the read-back
    # starts halving, at widths on and off a byte boundary
    rng = random.Random(10)
    assert counting._coefficients(0, 7) == []
    for bits in range(1, 301):
        count = rng.randint(2, 3 * counting._PEEL_BITS // bits + 2)
        coeffs = [
            rng.choice((0, 0, 1, (1 << bits) - 1, rng.getrandbits(bits)))
            for _ in range(count)
        ]
        coeffs[rng.randrange(count - 1)] = 0
        coeffs[-1] = (1 << bits) - 1
        value = sum(c << (j * bits) for j, c in enumerate(coeffs))
        assert counting._coefficients(value, bits) == coeffs, bits


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


# ------------------------------------------------------- forked run_all

def _report_answers(report):
    return (report.perfect_matchings, report.matchings,
            report.independent_sets, report.matching_poly,
            report.independence_poly, report.entropy_matchings,
            report.entropy_independent_sets, report.width,
            report.node_count, report.join_count)


def _set_cpus(monkeypatch, cpus):
    """Give this process an affinity of ``cpus`` CPUs, as run_all sees it."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def _record_forks(monkeypatch, fork_work):
    """Set ``_FORK_WORK`` and two CPUs of affinity; returns the pids forked."""
    monkeypatch.setattr(counting, "_FORK_WORK", fork_work)
    _set_cpus(monkeypatch, 2)
    forks = []
    real_fork = os.fork

    def recorded():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _traced_run_all(g, nd):
    stats = DpStats()
    report = run_all(g, nd, stats)
    return _report_answers(report), stats


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _split_reference(g, nd, serial_stats, bits, totals=2):
    """(depth, DpStats) a forked traced run_all must give, from a serial
    call's stats: its matching-polynomial pass, after the given number of
    total passes, is the in-process pass cut where the fork splits it, at
    B = bits."""
    plan = counting._plan_for(g, nd)
    depth = 0
    if counting._priced(plan, bits):
        depth = insideout._split_depth(plan, bits)
    joins = {}
    insideout._run_cut(plan, "match", joins, bits, depth)
    k = nd.join_count()
    bags = serial_stats.join_bags
    want = (bags[:totals * k] + [joins[i] for i in sorted(joins)]
            + bags[(totals + 1) * k:])
    return depth, DpStats(len(want), want)


@needs_fork
def test_forked_run_all_matches_serial_and_oracle(monkeypatch):
    from tdcount import parse_smiles
    from conftest import CAFFEINE_SMILES

    k24 = Graph(6, [(u, v) for u in (0, 1) for v in range(2, 6)])
    k24_nd = make_nice(TreeDecomposition(
        [{0, 1}, {0, 1, 2, 3}, {0, 1, 4, 5}], [-1, 0, 0], 0))
    small = [(g, minfill_nice(g)) for g in (
        Graph(1), path_graph(2), path_graph(3), path_graph(4),
        cycle_graph(4), cycle_graph(6), Graph(6, [(0, 1), (2, 3), (4, 5)]),
        grid_graph(3, 4), parse_smiles(CAFFEINE_SMILES).graph)]
    small.append((k24, k24_nd))
    n = 2000
    long_ones = [(path_graph(n), path_nice(path_graph(n))),
                 (cycle_graph(n), minfill_nice(cycle_graph(n)))]
    path_m = [math.comb(n - k, k) for k in range(n + 1)]
    path_i = [math.comb(n - k + 1, k) for k in range(n + 1)]
    cycle = [n * math.comb(n - k, k) // (n - k) for k in range(n // 2 + 1)]
    expected = [oracle_counts(g) for g, _ in small] + [
        (path_m[n // 2], path_m, path_i), (cycle[n // 2], cycle, cycle)]
    # a grid whose matching-polynomial pass the fork splits below the root
    split = [(grid_graph(5, 30), minfill_nice(grid_graph(5, 30)))]
    inputs = small + long_ones + split

    # _FORK_WORK = 0 keeps every input on the plain path: a total pass,
    # then its shifted pass. One CPU of affinity runs it serially
    forks = _record_forks(monkeypatch, 0)
    _set_cpus(monkeypatch, 1)
    serial = [_traced_run_all(g, nd) for g, nd in inputs]
    assert forks == []
    _set_cpus(monkeypatch, 2)
    forked = [_traced_run_all(g, nd) for g, nd in inputs]
    assert len(forks) == len(serial)
    _no_child_left()

    for k, ((g, nd), (answers, stats), (serial_answers, serial_stats)) in \
            enumerate(zip(inputs, forked, serial)):
        assert answers == serial_answers
        if k < len(expected):
            want = expected[k]
            assert answers[0] == want[0]
            assert answers[3] == want[1] and answers[4] == want[2]
        # Hosoya, Merrifield-Simmons, match-poly, ind-poly: each pass
        # visits every join once; the match-poly pass is the one cut where
        # the fork split it, and uncut it multiplies the pairs its plain
        # pass does
        depth, want_stats = _split_reference(g, nd, serial_stats,
                                             answers[1].bit_length())
        assert stats == want_stats
        assert (depth > 0) == (k >= len(small + long_ones))
        if not depth:
            assert stats == serial_stats
        joins = nd.join_count()
        assert stats.join_nodes == len(stats.join_bags) == 4 * joins
        passes = [stats.join_bags[k * joins:(k + 1) * joins]
                  for k in range(4)]
        if not depth:
            assert passes[2] == passes[0]
        assert passes[3] == passes[1]
        assert [p for _, p in passes[1]] == [1 << w for w, _ in passes[1]]
    # K_{2,4}: Hosoya multiplies 9 pairs at its join, Merrifield-Simmons 4
    assert forked[len(small) - 1][1].join_bags == \
        [(2, 9), (2, 4), (2, 9), (2, 4)]

    # at the default gates the 5x30 grid's independence polynomial takes
    # one pass at B = n and its matching family two: the child runs that
    # one pass, and the parent the Hosoya pass, then its split
    monkeypatch.undo()
    g, nd = split[0]
    plan = counting._plan_for(g, nd)
    unit = counting._bit_work(plan, 1)
    assert g.n * unit < counting._FORK_WORK <= g.m * unit
    forks = _record_forks(monkeypatch, counting._FORK_WORK)
    _set_cpus(monkeypatch, 1)
    serial_answers, serial_stats = _traced_run_all(g, nd)
    assert forks == []
    _set_cpus(monkeypatch, 2)
    answers, stats = _traced_run_all(g, nd)
    assert len(forks) == 1
    _no_child_left()
    assert answers == serial_answers == forked[-1][0]
    # Hosoya, match-poly, ind-poly
    depth, want_stats = _split_reference(g, nd, serial_stats,
                                         answers[1].bit_length(), totals=1)
    assert depth > 0
    assert stats == want_stats
    assert stats.join_nodes == 3 * nd.join_count()


def _record_calls(monkeypatch):
    """Record every fork and the (mode, B) of every ``counting._run`` call
    this process makes from now on, in order."""
    calls = []
    real_fork = os.fork
    real_run = counting._run

    def fork():
        pid = real_fork()
        if pid:
            calls.append("fork")
        return pid

    def run(plan, mode, stats, shift=0, child=None):
        calls.append((mode, shift))
        return real_run(plan, mode, stats, shift, child)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(counting, "_run", run)
    return calls


@needs_fork
def test_run_all_forks_only_where_the_gate_allows(monkeypatch):
    g = ladder_graph(40)
    nd = minfill_nice(g)
    plan = counting._plan_for(g, nd)
    fork_work = counting._FORK_WORK
    forks = _record_forks(monkeypatch, 0)
    # the gate is decided before the Hosoya pass, so the fork comes first
    calls = _record_calls(monkeypatch)
    recorded_fork = os.fork
    want = _report_answers(run_all(g, nd))
    assert len(forks) == 1
    assert calls[:2] == ["fork", ("match", 0)]

    def no_fork():
        raise AssertionError("run_all forked")

    monkeypatch.setattr(os, "fork", no_fork)
    # a single CPU of affinity
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert _report_answers(run_all(g, nd)) == want
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    # a second thread alive
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert _report_answers(run_all(g, nd)) == want
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    # the independence family takes one pass: n × _bit_work(plan, 1) is
    # below the constant, while the matching polynomial still takes two.
    # The child runs that one pass
    unit = counting._bit_work(plan, 1)
    monkeypatch.setattr(counting, "_FORK_WORK", g.n * unit + 1)
    assert g.m * unit >= counting._FORK_WORK
    monkeypatch.setattr(os, "fork", recorded_fork)
    forks.clear()
    calls.clear()
    assert _report_answers(run_all(g, nd)) == want
    assert len(forks) == 1
    assert calls[:2] == ["fork", ("match", 0)]
    assert ("ind", g.n) not in calls  # it ran in the child
    monkeypatch.setattr(os, "fork", no_fork)
    # the matching polynomial takes one pass, the family two: a tree has
    # m = n - 1
    tree = path_graph(200)
    tree_nd = path_nice(tree)
    unit = counting._bit_work(counting._plan_for(tree, tree_nd), 1)
    ms_bits = count_independent_sets(tree, tree_nd).bit_length()
    monkeypatch.setattr(counting, "_FORK_WORK", tree.n * unit)
    calls.clear()
    run_all(tree, tree_nd)
    assert calls == [("match", tree.m), ("ind", 0), ("ind", ms_bits)]
    monkeypatch.setattr(counting, "_FORK_WORK", fork_work)
    # no molecule of the bundled corpus predicts that much work
    for mol in load_corpus(bundled_path("corpus100.smi")).molecules:
        run_all(mol.graph, minfill_nice(mol.graph))
    _no_child_left()


@needs_fork
def test_fork_pays_without_an_affinity_call(monkeypatch):
    # a platform without os.sched_getaffinity counts os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus, pays in ((None, False), (1, False), (2, True), (8, True)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert counting._fork_pays() is pays


def _fork_cases():
    """(graph, nice decomposition, _FORK_WORK) of forked run_all calls: the
    ladder on the plain path, whose plan has no join, and the 6x30 grid,
    whose matching-polynomial pass the fork splits below the root."""
    grid = grid_graph(6, 30)
    return [(ladder_graph(40), minfill_nice(ladder_graph(40)), 0),
            (grid, minfill_nice(grid), counting._FORK_WORK)]


@needs_fork
def test_failed_child_leaves_the_family_to_the_parent(monkeypatch):
    parent = os.getpid()
    for g, nd, fork_work in _fork_cases():
        # serially, then forked, as the failed forked calls must answer
        forks = _record_forks(monkeypatch, fork_work)
        _set_cpus(monkeypatch, 1)
        serial = _traced_run_all(g, nd)
        assert forks == []
        _set_cpus(monkeypatch, 2)
        want = _traced_run_all(g, nd)
        assert len(forks) == 1
        assert want[0] == serial[0]
        depth, want_stats = _split_reference(g, nd, serial[1],
                                             want[0][1].bit_length())
        assert want[1] == want_stats
        assert (depth > 0) == (nd.join_count() > 0)

        # the child cannot send its result: the parent computes the family
        # and the outside part
        def no_dumps(value):
            raise ValueError("marshal refused")

        monkeypatch.setattr(marshal, "dumps", no_dumps)
        assert _traced_run_all(g, nd) == want
        assert len(forks) == 2
        _no_child_left()
        monkeypatch.undo()

        # the child's outside part raises, or it reads EOF where B and the
        # cut should be: the parent computes both parts
        forks = _record_forks(monkeypatch, fork_work)
        real_outside = insideout._outside_part

        def outside_fails_in_the_child(plan, mode, joins, shift, path,
                                       inner):
            if os.getpid() != parent:
                raise RuntimeError("outside part failed")
            return real_outside(plan, mode, joins, shift, path, inner)

        monkeypatch.setattr(insideout, "_outside_part",
                            outside_fails_in_the_child)
        assert _traced_run_all(g, nd) == want
        monkeypatch.setattr(insideout, "_outside_part", real_outside)
        monkeypatch.setattr(counting._Child, "send",
                            lambda self, bits, depth: self.close_cut())
        assert _traced_run_all(g, nd) == want
        assert len(forks) == 2
        _no_child_left()
        monkeypatch.undo()

        # a fault in the family itself fails the child, then the parent's
        # own pass raises it
        forks = _record_forks(monkeypatch, fork_work)
        real_run = counting._run

        def failing_run(plan, mode, stats, shift=0, child=None):
            if mode == "ind":
                raise RuntimeError("independence pass failed")
            return real_run(plan, mode, stats, shift, child)

        monkeypatch.setattr(counting, "_run", failing_run)
        with pytest.raises(RuntimeError, match="independence pass failed"):
            run_all(g, nd)
        assert len(forks) == 1
        _no_child_left()

        # the parent's Hosoya pass raises: the child reads EOF on the cut
        # pipe and is reaped before the error reaches the caller
        def failing_hosoya(plan, mode, stats, shift=0, child=None):
            if mode == "match" and not shift:
                raise RuntimeError("Hosoya pass failed")
            return real_run(plan, mode, stats, shift, child)

        monkeypatch.setattr(counting, "_run", failing_hosoya)
        with pytest.raises(RuntimeError, match="Hosoya pass failed"):
            run_all(g, nd)
        assert len(forks) == 2
        _no_child_left()
        monkeypatch.undo()


# --------------------------------------------------- one-pass polynomials

def _record_shifts(monkeypatch):
    """Record (mode, B) of every ``counting._run`` call from now on."""
    calls = []
    real_run = counting._run

    def recorded(plan, mode, stats, shift=0, child=None):
        calls.append((mode, shift))
        return real_run(plan, mode, stats, shift, child)

    monkeypatch.setattr(counting, "_run", recorded)
    return calls


def _both_paths(monkeypatch, g, nd):
    """run_all, both polynomials and their traces on each path.

    _FORK_WORK = 1 << 200 puts every polynomial on the one-pass path,
    _FORK_WORK = 0 on the plain path; one CPU of affinity keeps run_all
    in this process. Checks the passes each path runs and returns the
    answers of the one-pass path.
    """
    slots = {"match": max(g.m, 1), "ind": max(g.n, 1)}
    calls = _record_shifts(monkeypatch)
    _set_cpus(monkeypatch, 1)
    out = []
    for fork_work in (1 << 200, 0):
        monkeypatch.setattr(counting, "_FORK_WORK", fork_work)
        stats = [DpStats() for _ in range(3)]
        calls.clear()
        report = run_all(g, nd, stats[0])
        mp = matching_polynomial(g, nd, stats[1])
        ip = independence_polynomial(g, nd, stats[2])
        # run_all, then each polynomial alone
        per_poly = 1 if fork_work else 2
        assert [mode for mode, _ in calls] == \
            (per_poly * ["match"] + per_poly * ["ind"]) * 2
        plain = [shift for _, shift in calls if shift == 0]
        if fork_work:
            # one shifted pass per polynomial, at B = max(m, 1) or max(n, 1)
            assert not plain
            assert all(shift == slots[mode] for mode, shift in calls)
        else:
            assert len(plain) == 4
        # a traced run_all lists the passes its polynomials ran, the total
        # passes first
        joins = nd.join_count()
        mp_passes = [stats[1].join_bags[k * joins:(k + 1) * joins]
                     for k in range(per_poly)]
        ip_passes = [stats[2].join_bags[k * joins:(k + 1) * joins]
                     for k in range(per_poly)]
        assert stats[0].join_bags == sum(
            (mp_passes[k] + ip_passes[k] for k in range(per_poly)), [])
        assert stats[0].join_nodes == 2 * per_poly * joins
        assert set(report.millis) == {
            "perfect_matchings", "matchings", "independent_sets",
            "matching_polynomial", "independence_polynomial"}
        out.append((_report_answers(report), mp, ip))
    monkeypatch.undo()
    assert out[0] == out[1]
    answers, mp, ip = out[0]
    assert answers[3] == mp and answers[4] == ip
    assert answers[1] == mp.total() and answers[2] == ip.total()
    # a k-matching is a k-subset of the m edges, an independent set of
    # size k a k-subset of the n vertices
    assert all(c < 1 << slots["match"] for c in mp)
    assert all(c < 1 << slots["ind"] for c in ip)
    return out[0]


def test_one_pass_and_plain_path_agree(monkeypatch):
    from tdcount import parse_smiles
    from conftest import CAFFEINE_SMILES

    # the 5x30 grid's shifted passes are priced and cut below the root, so
    # run_all and each polynomial alone list the joins of a cut pass
    rng = random.Random(18)
    graphs = (_atlas_graphs()
              + [random_graph(rng) for _ in range(200)]
              + [parse_smiles(CAFFEINE_SMILES).graph]
              + [mol.graph for mol in
                 load_corpus(bundled_path("corpus100.smi")).molecules]
              + [grid_graph(3, 30), grid_graph(4, 30), grid_graph(5, 30)])
    assert len(graphs) == 996 + 200 + 1 + 100 + 3
    for g in graphs:
        _both_paths(monkeypatch, g, minfill_nice(g))
    # a graph without edges: every matching coefficient is below 2^1
    empty = Graph(3)
    _, mp, ip = _both_paths(monkeypatch, empty, minfill_nice(empty))
    assert mp == (1,) and ip == (1, 3, 3, 1)


def _hexagon_chain(copies):
    from tdcount import build_chain, parse_chain_file

    text = bundled_path("hexagon.chain").read_text(encoding="utf-8")
    return build_chain(parse_chain_file(text), copies)


def test_slot_width_gate_on_the_benchmark_inputs(monkeypatch):
    # corpus100 molecules and the 3x30 and 4x30 grids run one shifted pass
    # per polynomial, no total pass, and never fork
    def no_fork():
        raise AssertionError("run_all forked")

    monkeypatch.setattr(os, "fork", no_fork)
    calls = _record_shifts(monkeypatch)
    small = [mol.graph for mol in
             load_corpus(bundled_path("corpus100.smi")).molecules]
    for g in small + [grid_graph(3, 30), grid_graph(4, 30)]:
        calls.clear()
        run_all(g, minfill_nice(g))
        assert calls == [("match", max(g.m, 1)), ("ind", max(g.n, 1))]
    monkeypatch.undo()

    # the 5-7x30 grids, the 2x600 ladder and the 300-hexagon chain keep
    # the plain path for the matching polynomial, and all but the 5x30
    # grid for the independence polynomial too: 150 × _bit_work(plan, 1)
    # is below _FORK_WORK there
    def one_pass(g, nd, bits):
        plan = counting._plan_for(g, nd)
        unit = counting._unit_work(plan, g.n, nd.width(), bits)
        return bits * unit < counting._FORK_WORK

    for g in (grid_graph(5, 30), grid_graph(6, 30), grid_graph(7, 30),
              ladder_graph(600), _hexagon_chain(300)):
        nd = minfill_nice(g)
        assert not one_pass(g, nd, g.m)
        assert one_pass(g, nd, g.n) == (g.n == 150)


def test_corpus_run_all_does_not_import_insideout():
    # no corpus100 pass is priced for a cut, so the process never compiles
    # the inside-outside module; the child imports this test's tdcount
    import subprocess
    import sys
    from pathlib import Path

    import tdcount

    src = Path(tdcount.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from tdcount import decomposition_from_order, load_corpus, "
        "make_nice, min_fill_order, run_all; "
        "from tdcount.cli import bundled_path; "
        "molecules = load_corpus(bundled_path('corpus100.smi')).molecules; "
        "[run_all(m.graph, make_nice(decomposition_from_order("
        "m.graph, min_fill_order(m.graph)))) for m in molecules]; "
        "print(len(molecules), 'tdcount.insideout' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "100 False\n"


# ------------------------------------------------------ inside-outside cuts

def _children(op):
    """Child indices of a plan op."""
    if op[0] == counting._JOIN:
        return op[1:3]
    return () if op[0] == counting._LEAF else op[1:2]


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


class _Kept(list):
    """Tables for ``counting._inside`` that keep the tables of some nodes
    (all by default) after their parents are built."""

    def __init__(self, size, keep=None):
        super().__init__([None] * size)
        self.keep = range(size) if keep is None else keep

    def __setitem__(self, i, table):
        if table is not None or i not in self.keep:
            super().__setitem__(i, table)


def _relabel(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _atlas_graphs():
    """The 996 connected graphs of 1..7 vertices, up to isomorphism."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    return [Graph(g.number_of_nodes(), list(g.edges()))
            for g in graph_atlas_g()
            if g.number_of_nodes() >= 1 and nx.is_connected(g)]


@pytest.mark.parametrize("mode", ["pm", "match", "ind"])
def test_transposed_ops_are_adjoint(mode):
    # <op(x), y> == <x, op^T(y)> for the op of every node and each child,
    # with x the child's table from the forward pass and y random, in plain
    # and shifted passes
    from tdcount import parse_smiles
    from conftest import CAFFEINE_SMILES

    rng = random.Random(5)
    k24 = Graph(6, [(u, v) for u in (0, 1) for v in range(2, 6)])
    cases = [(k24, make_nice(TreeDecomposition(
        [{0, 1}, {0, 1, 2, 3}, {0, 1, 4, 5}], [-1, 0, 0], 0)))]
    cases += [(g, minfill_nice(g)) for g in (
        grid_graph(3, 4), grid_graph(4, 5), cycle_graph(7),
        parse_smiles(CAFFEINE_SMILES).graph,
        _relabel(ladder_graph(8), 1))]
    cases += [(g, minfill_nice(g))
              for g in (random_graph(rng, max_n=10, max_m=18)
                        for _ in range(20))]
    seen = set()
    for g, nd in cases:
        plan = counting._plan_for(g, nd)
        total = counting._run(plan, mode, None)
        for shift in (0, total.bit_length()):
            tables = counting._inside(plan, mode, None, shift, [],
                                      _Kept(len(plan)))
            for node, op in enumerate(plan):
                for child in _children(op):
                    y = [rng.choice((0, rng.randrange(1, 1 << 70)))
                         for _ in tables[node]]
                    yt = insideout._transpose(plan, node, child, tables, y,
                                              mode, None, shift)
                    assert len(yt) == len(tables[child])
                    assert _dot(tables[node], y) == _dot(tables[child], yt)
                    seen.add(op[0])
    assert seen == {counting._INTRO, counting._FORGET, counting._JOIN}


def test_forced_cuts_agree_at_every_depth_on_the_oracle_graphs():
    # every node of the heavy path as the cut, in every mode, plain and
    # shifted: the same answer as the root, and each join listed once
    graphs = _atlas_graphs()
    assert len(graphs) == 996
    for g in graphs:
        nd = minfill_nice(g)
        plan = counting._plan_for(g, nd)
        path = insideout._heavy_path(plan, counting._below(plan))
        widths = {i: op[3] for i, op in enumerate(plan)
                  if op[0] == counting._JOIN}
        for mode in ("pm", "match", "ind"):
            total = counting._run(plan, mode, None)
            for shift in (0, total.bit_length()):
                want = counting._run(plan, mode, None, shift)
                for depth in range(1, len(path)):
                    joins = {}
                    assert insideout._run_cut(plan, mode, joins, shift,
                                              depth) == want
                    assert {i: w for i, (w, _) in joins.items()} == widths


def test_cut_sweep_on_wide_inputs():
    # one inside pass keeps the tables the outside walk reads; from the
    # root down, <inside, outside> at every node of the heavy path is the
    # root's value. The relabelled 7x30 grid's shifted pass uses B = 16,
    # which keeps its entries short; the value is still exact
    g7 = _relabel(grid_graph(7, 30), 3)
    for g in (g7, ladder_graph(30), _relabel(ladder_graph(60), 1)):
        nd = minfill_nice(g)
        plan = counting._plan_for(g, nd)
        path = insideout._heavy_path(plan, counting._below(plan))
        keep = {c for node in path for c in _children(plan[node])}
        for mode in ("pm", "match", "ind"):
            bits = 16 if g is g7 else \
                counting._run(plan, mode, None).bit_length()
            for shift in (0, bits):
                tables = counting._inside(plan, mode, None, shift, [],
                                          _Kept(len(plan), keep))
                want = tables[path[0]][0]
                o = [1]
                for node, child in zip(path, path[1:]):
                    o = insideout._transpose(plan, node, child, tables, o,
                                             mode, None, shift)
                    assert _dot(tables[child], o) == want
    # the relabelled grid's heavy path runs through joins
    plan = counting._plan_for(g7, minfill_nice(g7))
    path = insideout._heavy_path(plan, counting._below(plan))
    assert sum(plan[node][0] == counting._JOIN for node in path) >= 10


def test_cut_model_keeps_the_root_on_join_free_chains(monkeypatch):
    # without a join, a cut moves forgets outside, where they write twice
    # the cells, and adds a dot product of long inside entries: the model
    # prices every such cut above the root
    from tdcount import build_chain, parse_chain_file

    hexagons = build_chain(parse_chain_file(
        bundled_path("hexagon.chain").read_text()), 60)
    chains = []
    for g in (ladder_graph(200), hexagons, path_graph(2000)):
        nd = minfill_nice(g)
        assert nd.join_count() == 0
        plan = counting._plan_for(g, nd)
        for mode in ("match", "ind"):
            bits = counting._run(plan, mode, None).bit_length()
            path, work = insideout._cut_work(plan, mode, bits)
            assert work[0] == 0 and len(work) > 1 and min(work[1:]) > 0
            want = insideout._run_cut(plan, mode, None, bits, 0)
            chains.append((plan, mode, bits, want))
    # so a pass over a plan without a join is not priced
    monkeypatch.setattr(insideout, "_run_cut", None)
    for plan, mode, bits, want in chains:
        assert counting._run(plan, mode, None, bits) == want
    monkeypatch.undo()
    # wide min-fill trees take a cut in the matching-polynomial pass
    for rows in (5, 6, 7):
        g = grid_graph(rows, 30)
        plan = counting._plan_for(g, minfill_nice(g))
        bits = counting._run(plan, "match", None).bit_length()
        path, work = insideout._cut_work(plan, "match", bits)
        assert work[0] == 0 and min(work) < 0


def test_bit_work_bounds_the_bits_a_shifted_pass_writes():
    # every cell of a pass cut at the root holds at most B × (f + 1) bits,
    # f the vertices forgotten below its node, and _bit_work sums that
    # bound
    for g in ([ladder_graph(k) for k in (1, 2, 20, 200)]
              + [grid_graph(r, c) for r, c in
                 ((2, 2), (3, 10), (4, 4), (4, 30), (5, 30))]):
        nd = minfill_nice(g)
        plan = counting._plan_for(g, nd)
        below = counting._below(plan)
        for mode in ("match", "ind"):
            bits = counting._run(plan, mode, None).bit_length()
            tables = counting._inside(plan, mode, None, bits, [],
                                      _Kept(len(plan)))
            written = 0
            for i, table in enumerate(tables):
                assert len(table) == 1 << counting._width(plan[i])
                longest = max(x.bit_length() for x in table)
                assert longest <= bits * (below[i] + 1)
                written += sum(x.bit_length() for x in table)
            assert written <= counting._bit_work(plan, bits)


@needs_fork
def test_forced_cut_lists_every_join_once(monkeypatch):
    # with cells priced free and no size gate, the matching-polynomial
    # pass of these inputs is cut below the root, in process and where a
    # forked call splits it. Each pass still lists every join once, in
    # plan order: the joins above the cut with the products of their
    # transposes, the others as in the plain pass
    from tdcount import parse_smiles
    from conftest import CAFFEINE_SMILES

    inputs = [parse_smiles(CAFFEINE_SMILES).graph, grid_graph(4, 5),
              grid_graph(3, 8)]
    inputs = [(g, minfill_nice(g)) for g in inputs]
    # _FORK_WORK = 0 keeps every input on the plain path, and one CPU of
    # affinity runs it serially
    forks = _record_forks(monkeypatch, 0)
    _set_cpus(monkeypatch, 1)
    root = [_traced_run_all(g, nd) for g, nd in inputs]
    monkeypatch.setattr(insideout, "_CELL_WORK", 0)
    monkeypatch.setattr(counting, "_CUT_MIN_WORK", 0)
    serial = [_traced_run_all(g, nd) for g, nd in inputs]
    assert forks == []
    _set_cpus(monkeypatch, 2)
    forked = [_traced_run_all(g, nd) for g, nd in inputs]
    assert len(forks) == len(inputs)
    _no_child_left()

    changed = []
    for (g, nd), (want, root_stats), (answers, stats), (_, serial_stats) \
            in zip(inputs, root, forked, serial):
        assert answers == want
        plan = counting._plan_for(g, nd)
        bits = want[1].bit_length()
        path, work = insideout._cut_work(plan, "match", bits)
        depth = min(range(len(work)), key=work.__getitem__)
        assert depth > 0
        # the forked call's pass is the in-process pass cut at its split
        split, split_stats = _split_reference(g, nd, serial_stats, bits)
        assert stats == split_stats
        joins = [i for i, op in enumerate(plan) if op[0] == counting._JOIN]
        roots = [root_stats.join_bags[k * len(joins):(k + 1) * len(joins)]
                 for k in range(4)]
        widths = [plan[i][3] for i in joins]
        for cut_stats, cut in ((serial_stats, depth), (stats, split)):
            above = [k for k, i in enumerate(joins) if i in path[:cut]]
            assert above
            assert cut_stats.join_nodes == len(cut_stats.join_bags) == \
                4 * len(joins)
            passes = [cut_stats.join_bags[k * len(joins):
                                          (k + 1) * len(joins)]
                      for k in range(4)]
            # the plain passes take the root; an independent-set join
            # multiplies 2^|bag| pairs inside or outside
            assert passes[:2] == roots[:2]
            assert passes[3] == passes[1]
            assert [w for w, _ in passes[2]] == widths
            for k, (w, products) in enumerate(passes[2]):
                if k not in above:
                    assert (w, products) == roots[2][k]
                assert products <= 3 ** w
            changed.append(passes[2] != roots[2])
    # a transposed join can make other products than the forward one
    assert any(changed)



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
    assert minfill_nice(h).structure_violations() == []
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
        ["vertex 0 not forgotten exactly once (again at forget 5)"]
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
    # a child index that is not an int once ended in a TypeError
    float_child = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0.0,)),
        NiceNode((), FORGET, 0, (1,)),
    ])
    # True once passed the grammar as vertex 1
    bool_vertex = NiceDecomposition([
        leaf,
        NiceNode((0,), INTRODUCE, 0, (0,)),
        NiceNode((0, True), INTRODUCE, True, (1,)),
        NiceNode((True,), FORGET, 0, (2,)),
        NiceNode((), FORGET, True, (3,)),
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
             (Graph(1), float_child, "child 0.0 that is not an earlier"),
             (path_graph(2), bool_vertex, "vertex True is not a non-negative"),
             (Graph(1), foreign, "outside 0..0"))
    for graph, nd, message in cases:
        # one grammar check behind both entry points: every fault it finds
        # is reported word for word as the counters raise it
        reported = nd.structure_violations()
        for counter in (count_perfect_matchings, count_matchings,
                        count_independent_sets, matching_polynomial,
                        independence_polynomial, run_all):
            with pytest.raises(DecompositionMismatch, match=message) as exc:
                counter(graph, nd)
            assert reported == ([] if nd is foreign else [str(exc.value)])


def _one_bag_nice(k):
    """Introduce 0..k-1 into one bag of k vertices, then forget them."""
    nodes = [NiceNode((), LEAF, None, ())]
    for v in range(k):
        nodes.append(NiceNode(tuple(range(v + 1)), INTRODUCE, v, (v,)))
    for v in reversed(range(k)):
        nodes.append(NiceNode(tuple(range(v)), FORGET, v, (len(nodes) - 1,)))
    return NiceDecomposition(nodes)


def test_counters_refuse_bags_past_the_width_cap():
    # make_nice refuses such a width, but a hand-built or parsed
    # decomposition skips it; the counters refuse a wider bag themselves,
    # before any table of 2^|bag| entries is allocated
    wide = _one_bag_nice(MAX_WIDTH + 2)
    assert wide.width() == MAX_WIDTH + 1
    assert wide.structure_violations() == []
    g = Graph(MAX_WIDTH + 2)
    for counter in (count_perfect_matchings, count_matchings,
                    count_independent_sets, matching_polynomial,
                    independence_polynomial, run_all):
        with pytest.raises(SizeLimitError, match="over the budget"):
            counter(g, wide)
    # the cell budget caps the width at 22: a decomposition of width w
    # asks at least 3 × 2^(w+1) - 2 cells, as the one-bag form does
    for k in (23, 24):
        nd = _one_bag_nice(k)
        assert sum(1 << len(node.bag) for node in nd.nodes) == \
            3 * 2 ** k - 2
    assert 3 * 2 ** 23 - 2 <= counting.MAX_CELLS < 3 * 2 ** 24 - 2
    at_cap = _one_bag_nice(23)
    assert at_cap.width() == 22
    assert len(counting._prepare(Graph(23), at_cap)) == len(at_cap)
    with pytest.raises(SizeLimitError, match="over the budget"):
        counting._prepare(Graph(24), _one_bag_nice(24))


def test_counters_refuse_decompositions_over_the_cell_budget(monkeypatch):
    # the min-fill order of the 5x16 grid as a path decomposition: width
    # 28, 2.78e9 cells per pass, refused before any table is built
    import time

    g = grid_graph(5, 16)
    start = time.perf_counter()
    nd = path_nice(g)
    assert nd.width() == 28
    cells = sum(1 << len(node.bag) for node in nd.nodes)
    assert 2.77e9 < cells < 2.78e9
    for counter in (count_perfect_matchings, count_matchings,
                    count_independent_sets, matching_polynomial,
                    independence_polynomial, run_all):
        with pytest.raises(SizeLimitError) as err:
            counter(g, nd)
        assert str(err.value) == (
            f"decomposition predicts {cells} table cells per pass, over the"
            f" budget of {counting.MAX_CELLS}")
    assert time.perf_counter() - start < 0.5
    # one cell more than the budget is refused, the budget itself admitted
    nd = minfill_nice(g)
    plan = counting._prepare(g, nd)
    at = sum(1 << counting._width(op) for op in plan)
    monkeypatch.setattr(counting, "MAX_CELLS", at - 1)
    with pytest.raises(SizeLimitError, match=f"predicts {at} table cells"):
        counting._prepare(g, nd)
    monkeypatch.setattr(counting, "MAX_CELLS", at)
    assert len(counting._prepare(g, nd)) == len(plan)


def test_cell_budget_admits_every_benchmark_request():
    from tdcount import build_chain, parse_chain_file

    hexagons = build_chain(parse_chain_file(
        bundled_path("hexagon.chain").read_text()), 300)
    inputs = [grid_graph(r, 30) for r in range(3, 8)]
    inputs += [_relabel(g, seed) for g in inputs for seed in (1, 3)]
    inputs += [ladder_graph(600), hexagons, path_graph(2000),
               cycle_graph(2000)]
    inputs += [mol.graph for mol in
               load_corpus(bundled_path("corpus100.smi")).molecules]
    for g in inputs:
        nd = minfill_nice(g)
        assert len(counting._plan_for(g, nd)) == len(nd)
    assert len(counting._plan_for(path_graph(2000),
                                  path_nice(path_graph(2000)))) > 0


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


def _reference_plan(g, nd):
    """The plan ``_prepare`` compiles, built plainly: bag positions by
    ``bag.index``, neighbours by ``g.neighbors``."""
    nodes = nd.nodes
    plan = []
    for bag, kind, v, children in nodes:
        w = len(bag)
        if kind == INTRODUCE:
            nbrs = g.neighbors(v)
            mask = sum(1 << bag.index(u) for u in bag if u in nbrs)
            plan.append((counting._INTRO, children[0], bag.index(v), mask, w))
        elif kind == FORGET:
            child_bag = nodes[children[0]].bag
            pairs = tuple((1 << bag.index(u), 1 << child_bag.index(u))
                          for u in bag if u in g.neighbors(v))
            plan.append((counting._FORGET, children[0], child_bag.index(v),
                         pairs, w))
        elif kind == JOIN:
            plan.append((counting._JOIN, *children, w, (1 << w) - 1))
        else:
            plan.append((counting._LEAF,))
    return plan


def test_plan_matches_a_plain_compilation():
    # DpStats, the cut model and the fork split all read the plan's op
    # layout: min-fill trees of the atlas graphs, of seeded random graphs
    # (with random orders and as path decompositions too) and of the
    # bundled molecules
    from tdcount import path_decomposition_from_order

    rng = random.Random(21)
    cases = [(g, minfill_nice(g)) for g in _atlas_graphs()]
    for _ in range(150):
        g = random_graph(rng, max_n=14, max_m=30)
        order = list(range(g.n))
        rng.shuffle(order)
        cases += [(g, make_nice(build(g, o)))
                  for build in (decomposition_from_order,
                                path_decomposition_from_order)
                  for o in (min_fill_order(g), order)]
    cases += [(mol.graph, minfill_nice(mol.graph)) for mol in
              load_corpus(bundled_path("corpus100.smi")).molecules]
    assert len(cases) == 996 + 600 + 100
    kinds = set()
    for g, nd in cases:
        plan = counting._prepare(g, nd)
        assert plan == _reference_plan(g, nd)
        kinds.update(op[0] for op in plan)
    assert kinds == {counting._LEAF, counting._INTRO, counting._FORGET,
                     counting._JOIN}


def test_failed_prepare_raises_every_time():
    g = path_graph(3)
    nd = minfill_nice(path_graph(2))
    for counter in (count_matchings, count_matchings, count_perfect_matchings,
                    run_all, run_all):
        with pytest.raises(DecompositionMismatch, match="forgotten exactly once"):
            counter(g, nd)


def test_nice_nodes_are_immutable():
    nd = minfill_nice(path_graph(3))
    # make_nice keeps plain tuples; nodes wraps them once
    assert nd.nodes is nd.nodes
    assert {type(node) for node in nd.nodes} == {NiceNode}
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
