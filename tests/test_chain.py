import random

import pytest

from tdcount import (
    ChainElement,
    ChainStats,
    Graph,
    ParseError,
    SizeLimitError,
    build_chain,
    build_transition,
    chain_pm_count,
    count_perfect_matchings,
    cycle_graph,
    oracle_counts,
    parse_chain_file,
)
from conftest import grid_graph, minfill_nice


def hexagon_element():
    # C6 with left boundary v1,v2 and right boundary v5,v6 (0-based 0,1 / 4,5)
    return ChainElement(cycle_graph(6), left=(0, 1), right=(4, 5))


# Regression fixture for the hexagon element: states listed by subset size
# then position ({} 3 4 5 6 34 35 36 45 46 56 345 346 356 456 3456, in the
# 1-based vertex naming), with the hand-checked initial vector in that order.
SIZE_LEX_STATES = ["", "3", "4", "5", "6", "34", "35", "36", "45", "46",
                   "56", "345", "346", "356", "456", "3456"]
HEXAGON_B1_SIZE_LEX = [2, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1]


def size_lex_permutation(system):
    return [system.state_index({int(c) - 1 for c in s}) for s in SIZE_LEX_STATES]


def test_element_validation():
    g = cycle_graph(6)
    with pytest.raises(ValueError, match="equal length"):
        ChainElement(g, (0, 1), (4,))
    with pytest.raises(ValueError, match="repeat"):
        ChainElement(g, (0, 0), (4, 5))
    with pytest.raises(ValueError, match="disjoint"):
        ChainElement(g, (0, 1), (1, 2))
    with pytest.raises(ValueError, match="isomorphism"):
        # 0-1 is an edge but 2-4 is not
        ChainElement(g, (0, 1), (2, 4))
    with pytest.raises(ValueError, match="out of range"):
        ChainElement(g, (0, 1), (4, 9))
    # a float id is not a vertex, though it compares equal to one
    with pytest.raises(ValueError, match="not an int"):
        ChainElement(cycle_graph(3), (0.0,), (2,))
    with pytest.raises(ValueError, match="not an int"):
        ChainElement(g, (0, 1), (4, True))


def test_build_chain_sizes():
    e = hexagon_element()
    one = build_chain(e, 1)
    assert one == Graph(6, cycle_graph(6).edges)
    two = build_chain(e, 2)
    assert (two.n, two.m) == (10, 11)  # fused hexagons share one edge
    three = build_chain(e, 3)
    assert three.n == 3 * 6 - 2 * 2


def test_initial_vector_matches_reference():
    system = build_transition(hexagon_element())
    assert system.dim == 16
    perm = size_lex_permutation(system)
    assert [system.initial[i] for i in perm] == HEXAGON_B1_SIZE_LEX


def test_initial_vector_is_oracle_backed():
    e = hexagon_element()
    system = build_transition(e)
    for idx, state in enumerate(system.states):
        pm, _, _ = oracle_counts(e.g.delete_vertices(state))
        assert system.initial[idx] == pm


def test_transition_row_structure():
    e = hexagon_element()
    system = build_transition(e)
    # alpha = {v3,v5}: v4 and v6 cannot both be covered, so H[I + C] has
    # no perfect matching for any C and the row is all zero
    row = system.matrix[system.state_index({2, 4})]
    assert all(x == 0 for x in row)
    # alpha = {}: H lacks the edge {v1,v2}, so v3..v6 are matched alone
    # (C = {}) or with both left vertices around the ring (C = {v1,v2}),
    # which the right boundary (v5,v6) maps to state {v5,v6}
    row = system.matrix[0]
    hits = {j: c for j, c in enumerate(row) if c}
    assert hits == {0: 1, system.state_index({4, 5}): 1}


def random_element(rng):
    """Up to 8 vertices and 24 edges (the matching oracle's cap), |L| <= 3.

    Edges inside L are drawn like any other and copied onto R, so the
    boundary map is an isomorphism; sparse draws leave isolated vertices.
    """
    while True:
        n = rng.randint(1, 8)
        b = rng.randint(0, min(3, n // 2))
        verts = rng.sample(range(n), n)
        left, right = verts[:b], verts[b:2 * b]
        p = rng.choice([0.15, 0.4, 0.7])
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p}
        for i in range(b):
            for j in range(i + 1, b):
                pair = tuple(sorted((right[i], right[j])))
                edges.discard(pair)
                if tuple(sorted((left[i], left[j]))) in edges:
                    edges.add(pair)
        if len(edges) <= 24:
            return ChainElement(Graph(n, edges), left, right)


def induced_pm(g, keep):
    return oracle_counts(g.delete_vertices(set(range(g.n)) - set(keep)))[0]


def test_transition_entries_are_induced_subgraph_counts():
    # b1[alpha] = pm(G[I + L]) and A[alpha][beta] = pm(H[I + C]), where I is
    # the interior minus alpha, H drops the edges inside L and C is the set
    # of left vertices whose right partners make up beta
    rng = random.Random(8)
    kinds = {"edge inside L": 0, "empty boundary": 0, "isolated vertex": 0}
    for _ in range(200):
        e = random_element(rng)
        g, left, right = e.g, e.left, e.right
        kinds["edge inside L"] += any(u in left and v in left for u, v in g.edges)
        kinds["empty boundary"] += not left
        kinds["isolated vertex"] += any(g.degree(v) == 0 for v in range(g.n))
        h = Graph(g.n, [(u, v) for u, v in g.edges
                        if u not in left or v not in left])
        system = build_transition(e)
        assert system.dim == 1 << len(e.interior)
        for idx, state in enumerate(system.states):
            rest = set(e.interior) - set(state)
            assert system.initial[idx] == induced_pm(g, rest | set(left))
            expected = [0] * system.dim
            for mask in range(1 << len(left)):
                chosen = [i for i in range(len(left)) if mask >> i & 1]
                beta = system.state_index({right[i] for i in chosen})
                expected[beta] = induced_pm(h, rest | {left[i] for i in chosen})
            assert system.matrix[idx] == expected
        # and the vector b_n = A^(n-1) b1 counts the fused chain itself, as
        # does the counter on the reachable states alone
        vec = list(system.initial)
        for n in range(1, 4):
            chain = build_chain(e, n)
            expected = count_perfect_matchings(chain, minfill_nice(chain))
            assert vec[0] == expected
            assert chain_pm_count(e, n) == expected
            vec = [sum(a * x for a, x in zip(row, vec)) for row in system.matrix]
    assert min(kinds.values()) >= 10, kinds


def strip_element():
    # five rungs (2i, 2i+1) with both rails and both diagonals of each
    # square, plus four chords across the middle: 25 edges, one more than
    # the matching oracle enumerates
    edges = [(2 * i, 2 * i + 1) for i in range(5)]
    for i in range(4):
        edges += [(2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 3),
                  (2 * i, 2 * i + 3), (2 * i + 1, 2 * i + 2)]
    edges += [(2, 6), (3, 7), (2, 7), (3, 6)]
    return ChainElement(Graph(10, edges), left=(0, 1), right=(8, 9))


def grid_element():
    # a 4x3 grid with L = first column, R = last column: 16 of the 256
    # interior states are reachable
    return ChainElement(grid_graph(4, 3), left=(0, 3, 6, 9),
                        right=(2, 5, 8, 11))


def test_chain_counts_match_generic_dp():
    strip = strip_element()
    assert strip.g.m == 25
    grid = grid_element()
    system = build_transition(grid)
    reachable = [i for i, s in enumerate(system.states)
                 if set(s) <= set(grid.right)]
    assert (system.dim, len(reachable)) == (256, 16)
    # rows the counter never builds are not all zero
    assert any(any(system.matrix[i]) for i in range(system.dim)
               if i not in reachable)
    for e, copies in ((hexagon_element(), 6), (strip, 4), (grid, 4)):
        for n in range(1, copies + 1):
            g = build_chain(e, n)
            expected = count_perfect_matchings(g, minfill_nice(g))
            stats = ChainStats()
            assert chain_pm_count(e, n, stats) == expected
            assert stats.matrix_mults <= 2 * max(1, (n - 1)).bit_length()
    assert [chain_pm_count(strip, n) for n in range(1, 5)] == \
        [31, 861, 23991, 668421]


def test_matrix_power_agrees_with_iteration():
    e = hexagon_element()
    system = build_transition(e)
    vec = list(system.initial)
    for n in range(2, 51):
        vec = [
            sum(system.matrix[i][j] * vec[j] for j in range(system.dim))
            for i in range(system.dim)
        ]
    assert chain_pm_count(e, 50) == vec[0]


def test_multiplication_count_is_logarithmic():
    e = hexagon_element()
    for n in (2, 3, 10, 64, 1000):
        stats = ChainStats()
        chain_pm_count(e, n, stats)
        import math

        assert stats.matrix_mults <= 2 * math.ceil(math.log2(n))


def test_square_element_builds_ladders():
    # a square fused edge-to-edge n times is the ladder with n+1 rungs
    square = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    e = ChainElement(square, left=(0, 1), right=(2, 3))
    from tdcount import ladder_graph

    for n in range(1, 8):
        chain_graph = build_chain(e, n)
        ladder = ladder_graph(n + 1)
        assert (chain_graph.n, chain_graph.m) == (ladder.n, ladder.m)
        expected = count_perfect_matchings(ladder, minfill_nice(ladder))
        assert chain_pm_count(e, n) == expected
    # Fibonacci tail as a frozen regression: PM(2xk ladder) for k = 2..8
    assert [chain_pm_count(e, n) for n in range(1, 8)] == \
        [2, 3, 5, 8, 13, 21, 34]


def test_degenerate_chain_element():
    # single edge, empty boundaries: chain is n disjoint edges
    e = ChainElement(Graph(2, [(0, 1)]), (), ())
    assert chain_pm_count(e, 4) == 1
    assert build_chain(e, 3).n == 6


def test_state_cap():
    g = Graph(22, [(i, i + 1) for i in range(21)])
    e = ChainElement(g, (0,), (21,))
    with pytest.raises(SizeLimitError):
        build_transition(e)
    with pytest.raises(SizeLimitError):
        chain_pm_count(e, 2)
    # 13 interior vertices: refused before a 2^13 x 2^13 matrix is allocated
    g = Graph(14, [(i, i + 1) for i in range(13)])
    e = ChainElement(g, (0,), (13,))
    with pytest.raises(SizeLimitError, match="build_chain"):
        build_transition(e)
    with pytest.raises(SizeLimitError, match="build_chain"):
        chain_pm_count(e, 2)
    # 12 interior vertices: a 4^12-cell matrix, within the cell budget
    g = Graph(13, [(i, i + 1) for i in range(12)])
    e = ChainElement(g, (0,), (12,))
    assert len(e.interior) == 12
    assert chain_pm_count(e, 2) == count_perfect_matchings(
        build_chain(e, 2), minfill_nice(build_chain(e, 2)))


def test_parse_chain_file():
    text = (
        "c comment\n"
        "p tw 6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n"
        "l 1 2\nr 5 6\n"
    )
    e = parse_chain_file(text)
    assert e.left == (0, 1)
    assert e.right == (4, 5)
    assert chain_pm_count(e, 2) == 3
    with pytest.raises(ParseError, match="boundary"):
        parse_chain_file("p tw 2 1\n1 2\n")
    with pytest.raises(ParseError):
        parse_chain_file("p tw 2 1\n1 2\nl 1\nr 3\n")
    # a bad id is reported as written, on its own boundary line
    with pytest.raises(ParseError, match=r"vertex 0 out of range \(line 3\)"):
        parse_chain_file("p tw 2 1\n1 2\nl 0\nr 2\n")
    with pytest.raises(ParseError, match=r"vertex 3 out of range \(line 2\)"):
        parse_chain_file("p tw 2 1\nr 3\n1 2\nl 1\n")
    # a fault between the lists is reported on the later one, and .gr
    # errors keep their lines when boundary lines come first
    with pytest.raises(ParseError, match=r"equal length \(line 4\)"):
        parse_chain_file("p tw 3 1\n1 2\nl 1\nr 2 3\n")
    with pytest.raises(ParseError, match=r"\(line 4\)"):
        parse_chain_file("p tw 2 1\nl 1\nr 2\n1 x\n")
    # lines end at \n, \r\n or \r only: a form feed, \x85 or U+2028 stays
    # inside its comment line, before the boundary lines or after them
    for sep, mark in (("\n", "\x0c"), ("\r", "\x85"), ("\r\n", "\u2028")):
        e = parse_chain_file(text.replace("\n", sep).replace("c comment",
                                                            f"c a{mark}b"))
        assert (e.g, e.left, e.right) == (parse_chain_file(text).g, (0, 1),
                                          (4, 5))
        with pytest.raises(ParseError,
                           match=r"non-integer edge endpoints .*\(line 5\)"):
            parse_chain_file(f"p tw 2 1{sep}l 1{sep}r 2{sep}c a{mark}b{sep}"
                             f"1 x{sep}")
    # boundary ids are ASCII digits: no '+', '_' or digits of other scripts
    for bad in ("+2", "0_2", "\u0662", "\uff12"):
        with pytest.raises(ParseError, match=r"non-integer right boundary"):
            parse_chain_file(f"p tw 2 1\n1 2\nl 1\nr {bad}\n")


def test_invalid_length():
    with pytest.raises(ValueError):
        chain_pm_count(hexagon_element(), 0)
    with pytest.raises(ValueError):
        build_chain(hexagon_element(), 0)
    for n in (1.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="must be an int"):
            chain_pm_count(hexagon_element(), n)
        with pytest.raises(ValueError, match="must be an int"):
            build_chain(hexagon_element(), n)
