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
    respectful_partial_matchings,
)
from conftest import minfill_nice


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


def test_build_chain_sizes():
    e = hexagon_element()
    one = build_chain(e, 1)
    assert one == Graph(6, cycle_graph(6).edges)
    two = build_chain(e, 2)
    assert (two.n, two.m) == (10, 11)  # fused hexagons share one edge
    three = build_chain(e, 3)
    assert three.n == 3 * 6 - 2 * 2


def test_respectful_partial_matchings_fixture():
    e = hexagon_element()
    # everything excluded: only the empty matching remains
    assert respectful_partial_matchings(e, {2, 3, 4, 5}) == [frozenset()]
    # nothing excluded: exactly two matchings cover v3..v6; the second one
    # walks around the ring (the edge {v1,v2} itself may not appear: every
    # matching edge needs an endpoint among v3..v6)
    ms = respectful_partial_matchings(e, set())
    assert ms == sorted(
        [frozenset({(2, 3), (4, 5)}), frozenset({(0, 5), (1, 2), (3, 4)})],
        key=sorted,
    )
    # v3 and v5 excluded: v4 and v6 cannot both be covered
    assert respectful_partial_matchings(e, {2, 4}) == []


def test_alpha_must_avoid_left_boundary():
    e = hexagon_element()
    with pytest.raises(ValueError):
        respectful_partial_matchings(e, {0})


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
    # alpha = {v3,v5}: no respectful matchings, so the row is all zero
    row = system.matrix[system.state_index({2, 4})]
    assert all(x == 0 for x in row)
    # alpha = {}: two matchings; with right boundary (v5,v6) the ring-walk
    # matching covers both left vertices, mapping to state {v5,v6}
    row = system.matrix[0]
    hits = {j: c for j, c in enumerate(row) if c}
    assert hits == {0: 1, system.state_index({4, 5}): 1}


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


def test_chain_counts_match_generic_dp():
    strip = strip_element()
    assert strip.g.m == 25
    for e, copies in ((hexagon_element(), 6), (strip, 4)):
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
    # 13 interior vertices: refused before a 2^13 x 2^13 matrix is allocated
    g = Graph(14, [(i, i + 1) for i in range(13)])
    with pytest.raises(SizeLimitError, match="build_chain"):
        build_transition(ChainElement(g, (0,), (13,)))


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


def test_invalid_length():
    with pytest.raises(ValueError):
        chain_pm_count(hexagon_element(), 0)
    with pytest.raises(ValueError):
        build_chain(hexagon_element(), 0)
