"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import csv
import io
import math
import random
import time

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

import tdcount as t
from tdcount.cli import bundled_path, main as cli_main
from conftest import (
    CAFFEINE_SMILES,
    minfill_nice,
    path_nice,
    random_graph,
)
from test_chain import (
    HEXAGON_B1_SIZE_LEX,
    hexagon_element,
    size_lex_permutation,
)

RANDOM_SEED = 20250810


def _report(n, message):
    print(f"\n[acceptance {n}] PASS: {message}")


# ---------------------------------------------------------------------------
# 1. Oracle equivalence: every counter equals exhaustive enumeration on all
#    connected graphs with n <= 7 (isomorphism-free) plus 500 seeded random
#    graphs (n <= 12, m <= 24), under a min-fill tree decomposition and an
#    order-based path decomposition. Budget: 120 s.
# ---------------------------------------------------------------------------

def test_acceptance_1_oracle_equivalence():
    start = time.perf_counter()
    graphs = [
        t.Graph(g.number_of_nodes(), list(g.edges()))
        for g in graph_atlas_g()
        if g.number_of_nodes() >= 1 and nx.is_connected(g)
    ]
    assert len(graphs) == 996  # connected graphs up to iso, 1 <= n <= 7
    rng = random.Random(RANDOM_SEED)
    graphs += [random_graph(rng, max_n=12, max_m=24) for _ in range(500)]

    for g in graphs:
        pm, mp, ip = t.oracle_counts(g)
        for nd in (minfill_nice(g), path_nice(g)):
            assert t.count_perfect_matchings(g, nd) == pm
            assert t.count_matchings(g, nd) == sum(mp)
            assert t.count_independent_sets(g, nd) == sum(ip)
            assert t.matching_polynomial(g, nd) == mp
            assert t.independence_polynomial(g, nd) == ip
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    _report(1, f"{len(graphs)} graphs x 2 decompositions x 5 counters match "
               f"the oracle exactly in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Caffeine fixture: 14 vertices / 15 edges, min-fill width 2, and all five
#    indices equal the oracle on min-fill decompositions and on the
#    transcribed reference decomposition.
#    Budget: 1 s.
# ---------------------------------------------------------------------------

def test_acceptance_2_caffeine(caffeine_figure):
    start = time.perf_counter()
    mol = t.parse_smiles(CAFFEINE_SMILES, name="caffeine")
    g = mol.graph
    assert (g.n, g.m) == (14, 15)

    fig_graph, fig_td = caffeine_figure
    assert (fig_graph.n, fig_graph.m) == (14, 15)
    assert sorted(g.labels) == sorted(fig_graph.labels)

    td = t.decomposition_from_order(g, t.min_fill_order(g))
    assert td.width() == 2

    pm, mp, ip = t.oracle_counts(g)
    for graph, nd in ((g, minfill_nice(g)), (fig_graph, minfill_nice(fig_graph)),
                      (fig_graph, t.make_nice(fig_td))):
        assert t.count_perfect_matchings(graph, nd) == pm
        assert t.count_matchings(graph, nd) == sum(mp)
        assert t.count_independent_sets(graph, nd) == sum(ip)
        assert t.matching_polynomial(graph, nd) == mp
        assert t.independence_polynomial(graph, nd) == ip
    elapsed = time.perf_counter() - start
    assert elapsed <= 1.0
    _report(2, f"caffeine: 14/15, width 2, all five indices = oracle on the "
               f"min-fill and reference decompositions (pm={pm}, "
               f"Z={sum(mp)}, sigma={sum(ip)}) in {elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------------------
# 3. C6 regression plus the exact unit entropy.
# ---------------------------------------------------------------------------

def test_acceptance_3_c6_regression():
    g = t.cycle_graph(6)
    nd = minfill_nice(g)
    assert t.count_perfect_matchings(g, nd) == 2
    assert t.count_matchings(g, nd) == 18
    assert t.count_independent_sets(g, nd) == 18
    assert t.matching_polynomial(g, nd) == (1, 6, 9, 2)
    assert t.independence_polynomial(g, nd) == (1, 6, 9, 2)
    assert t.entropy((1, 1)) == 1.0
    _report(3, "C6: pm=2, Z=18, sigma=18, both polynomials (1,6,9,2); "
               "entropy((1,1)) = 1.0 exactly")


# ---------------------------------------------------------------------------
# 4. Chain module: transfer-matrix counts equal the generic DP for n=1..6,
#    the n=1 state vector matches the published entries wherever the oracle
#    confirms them (all 16 do), and matrix products stay logarithmic.
# ---------------------------------------------------------------------------

def test_acceptance_4_chain():
    element = hexagon_element()
    system = t.build_transition(element)

    perm = size_lex_permutation(system)
    ours = [system.initial[i] for i in perm]
    oracle = []
    for i in perm:
        state = system.states[i]
        oracle.append(t.oracle_counts(element.g.delete_vertices(state))[0])
    mismatches = [
        (HEXAGON_B1_SIZE_LEX[j], ours[j], oracle[j])
        for j in range(16)
        if not (HEXAGON_B1_SIZE_LEX[j] == ours[j] == oracle[j])
    ]
    assert mismatches == [], (
        f"b1 discrepancies (reference, computed, oracle): {mismatches}"
    )

    for n in range(1, 7):
        chain_graph = t.build_chain(element, n)
        expected = t.count_perfect_matchings(chain_graph, minfill_nice(chain_graph))
        stats = t.ChainStats()
        assert t.chain_pm_count(element, n, stats) == expected
        assert stats.matrix_mults <= 2 * math.ceil(math.log2(max(n, 2)))
    _report(4, "chain(C6, n) matches the generic counter for n=1..6, the b1 "
               "vector equals all 16 reference entries (oracle-confirmed), "
               "matrix products <= 2*ceil(log2 n)")


# ---------------------------------------------------------------------------
# 5. Complexity shape: near-linear scaling on width-2 ladders and no join
#    logic on path decompositions.
# ---------------------------------------------------------------------------

def _ladder_with_path_decomposition(k):
    g = t.ladder_graph(k)
    order = []
    for i in range(k):
        order.extend((i, k + i))
    nd = t.make_nice(t.path_decomposition_from_order(g, order))
    assert nd.is_path and nd.width() == 2
    return g, nd


def _best_matchings_times(cases, repeats=9):
    """Best wall time of ``count_matchings`` per (g, nd), the cases timed in
    turn each round, so that a busy spell of the host slows them alike."""
    best = [math.inf] * len(cases)
    for _ in range(repeats):
        for j, (g, nd) in enumerate(cases):
            t0 = time.perf_counter()
            t.count_matchings(g, nd)
            best[j] = min(best[j], time.perf_counter() - t0)
    return best


def test_acceptance_5_complexity_shape():
    g1, nd1 = _ladder_with_path_decomposition(1000)
    g4, nd4 = _ladder_with_path_decomposition(4000)
    time1, time4 = _best_matchings_times([(g1, nd1), (g4, nd4)])
    ratio = time4 / time1
    assert ratio <= 8.0, f"4x input took {ratio:.1f}x the time"

    stats = t.DpStats()
    for counter in (t.count_perfect_matchings, t.count_matchings,
                    t.count_independent_sets):
        counter(g1, nd1, stats)
    t.matching_polynomial(g1, nd1, stats)
    t.independence_polynomial(g1, nd1, stats)
    assert stats.join_nodes == 0
    _report(5, f"2x4000 ladder costs {ratio:.1f}x the 2x1000 ladder "
               f"(<= 8x allowed); join branch untouched on path "
               f"decompositions")


# ---------------------------------------------------------------------------
# 6. Baseline separation: on the 2x30 ladder every DP counter finishes in
#    under 0.1 s while every naive baseline exhausts a 10 s budget; on every
#    bundled instance with m <= 20 the baselines finish and agree with the DP.
# ---------------------------------------------------------------------------

def test_acceptance_6_baseline_separation():
    g = t.ladder_graph(30)
    assert (g.n, g.m) == (60, 88)
    nd = minfill_nice(g)
    dp_times = {}
    dp_values = {}
    for name, counter in (
        ("perfect_matchings", t.count_perfect_matchings),
        ("matchings", t.count_matchings),
        ("independent_sets", t.count_independent_sets),
    ):
        t0 = time.perf_counter()
        dp_values[name] = counter(g, nd)
        dp_times[name] = time.perf_counter() - t0
        assert dp_times[name] < 0.1, f"{name} took {dp_times[name]:.3f}s"

    for name, baseline in (
        ("perfect_matchings", t.baseline_pm),
        ("matchings", t.baseline_matchings),
        ("independent_sets", t.baseline_independent_sets),
    ):
        result = baseline(g, budget=10.0)
        assert result.timed_out, f"baseline {name} finished inside 10s"

    corpus = t.load_corpus(bundled_path("corpus100.smi"))
    checked = 0
    for mol in corpus.molecules:
        if mol.graph.m > 20:
            continue
        checked += 1
        nd = minfill_nice(mol.graph)
        assert t.baseline_pm(mol.graph, 60).value == \
            t.count_perfect_matchings(mol.graph, nd)
        assert t.baseline_matchings(mol.graph, 60).value == \
            t.count_matchings(mol.graph, nd)
        assert t.baseline_independent_sets(mol.graph, 60).value == \
            t.count_independent_sets(mol.graph, nd)
    assert checked > 0
    _report(6, f"2x30 ladder: DP max {max(dp_times.values()) * 1000:.1f}ms, "
               f"all three baselines timed out at 10s; baselines matched DP "
               f"on {checked} bundled instances with m <= 20")


# ---------------------------------------------------------------------------
# 7. Stats harness on the bundled corpus: fast, consistent, and every real
#    molecule at width <= 4.
# ---------------------------------------------------------------------------

def test_acceptance_7_stats_harness(tmp_path, capsys):
    start = time.perf_counter()
    out = tmp_path / "hist.csv"
    code = cli_main(["stats", "--out", str(out)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0
    assert elapsed < 30.0
    assert "accepted=100 rejected=0" in captured.err
    rows = list(csv.DictReader(out.open()))
    total = sum(int(r["count"]) for r in rows)
    assert total == 100
    widths = {int(r["width"]) for r in rows}
    assert max(widths) <= 4
    assert widths == {1, 2, 3, 4}
    _report(7, f"bundled corpus: histogram sums to 100 accepted molecules, "
               f"widths {sorted(widths)} (all <= 4), in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Determinism: same seed and jobs give byte-identical CSV; parallel output
#    equals serial output; wall-clock runs agree on everything but millis.
# ---------------------------------------------------------------------------

def _write_small_corpus(tmp_path):
    corpus = t.load_corpus(bundled_path("corpus100.smi"))
    lines = [
        f"{mol.source}\t{mol.name}"
        for mol in corpus.molecules
        if mol.graph.m <= 14
    ]
    path = tmp_path / "subset.smi"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _run_bench(tmp_path, corpus, name, jobs, clock):
    out = tmp_path / name
    code = cli_main([
        "bench", "--corpus", str(corpus), "--seed", "99", "--per-size", "2",
        "--budget", "30", "--jobs", str(jobs), "--clock", clock,
        "--out", str(out),
    ])
    assert code == 0
    return out.read_bytes()


def test_acceptance_8_determinism(tmp_path, capsys):
    corpus = _write_small_corpus(tmp_path)
    first = _run_bench(tmp_path, corpus, "a.csv", jobs=1, clock="none")
    second = _run_bench(tmp_path, corpus, "b.csv", jobs=1, clock="none")
    assert first == second
    parallel = _run_bench(tmp_path, corpus, "c.csv", jobs=2, clock="none")
    assert parallel == first

    def strip_millis(data):
        rows = list(csv.reader(io.StringIO(data.decode())))
        return [r[:6] + r[7:] for r in rows]

    wall1 = _run_bench(tmp_path, corpus, "d.csv", jobs=1, clock="wall")
    wall2 = _run_bench(tmp_path, corpus, "e.csv", jobs=2, clock="wall")
    assert strip_millis(wall1) == strip_millis(first)
    assert strip_millis(wall2) == strip_millis(first)
    rows = len(first.splitlines()) - 1
    _report(8, f"bench CSV ({rows} rows) byte-identical across reruns and "
               f"--jobs 1/2; wall-clock runs identical outside the millis "
               f"column")
