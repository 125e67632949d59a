import pytest

from tdcount import (
    Graph,
    ParseError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    emit_gr,
    ladder_graph,
    parse_gr,
    path_graph,
)


def test_single_edge():
    g = parse_gr("p tw 2 1\n1 2")
    assert g.n == 2
    assert g.edges == {(0, 1)}


def test_edgeless():
    g = parse_gr("p tw 3 0")
    assert g.n == 3
    assert g.m == 0


def test_self_loop_rejected():
    with pytest.raises(ParseError, match="line 2"):
        parse_gr("p tw 2 1\n1 1")


def test_duplicate_edges_collapse():
    g = parse_gr("p tw 3 3\n1 2\n2 1\n2 3")
    assert g.m == 2


def test_out_of_range_id():
    with pytest.raises(ParseError, match="out of range"):
        parse_gr("p tw 2 1\n1 3")


def test_header_required_and_wellformed():
    with pytest.raises(ParseError):
        parse_gr("1 2\n")
    with pytest.raises(ParseError):
        parse_gr("p tw 2\n")
    with pytest.raises(ParseError):
        parse_gr("p tw 2 2\n1 2")  # declared two edges, found one
    for text, message, line in [
        ("p tw 2 1\np tw 2 1\n1 2\n", "duplicate 'p' header", 2),
        ("p tw two 1\n", "non-integer header fields", 1),
        ("p tw -1 0\n", "negative counts in header", 1),
        ("p tw 2 -1\n", "negative counts in header", 1),
        ("p tw 3 1\n1 2 3\n", "malformed edge line", 2),
        ("p tw 3 1\n1 x\n", "non-integer edge endpoints", 2),
        # integers are ASCII digits after an optional '-': no '_'
        # separators, '+' signs or digits of other scripts
        ("p tw 1_2 1\n10 3\n", "non-integer header fields", 1),
        ("p tw 12 1\n1_0 +3\n", "non-integer edge endpoints", 2),
        ("p tw 2 1\n\u0661 \u0662\n", "non-integer edge endpoints", 2),
        ("p tw \uff12 0\n", "non-integer header fields", 1),
        ("", "missing 'p tw' header", 1),
        ("c nothing but a comment\n", "missing 'p tw' header", 1),
        # lines end at \n, \r\n or \r only: a form feed, \x85 or U+2028
        # stays inside its comment line, and a leading byte-order mark is
        # not part of the header
        ("p tw 2 1\nc a\x0cb\n1 x\n", "non-integer edge endpoints", 3),
        ("p tw 2 1\rc a\x85b\r1 x\r", "non-integer edge endpoints", 3),
        ("p tw 2 1\r\nc a\u2028b\r\n1 x\r\n", "non-integer edge endpoints",
         3),
        ("\ufeffp tw 2 1\n1 x\n", "non-integer edge endpoints", 2),
    ]:
        with pytest.raises(ParseError, match=message) as err:
            parse_gr(text)
        assert err.value.line == line
    for text in ("p tw 2 1\nc a\x0cb\n1 2\n", "p tw 2 1\rc a\x85b\r1 2\r",
                 "p tw 2 1\r\nc a\u2028b\r\n1 2\r\n", "\ufeffp tw 2 1\n1 2\n"):
        assert parse_gr(text) == Graph(2, [(0, 1)])


def test_gr_round_trip():
    g = ladder_graph(4)
    assert parse_gr(emit_gr(g)) == Graph(g.n, g.edges)


def test_neighbors_cycle():
    g = cycle_graph(6)
    assert g.neighbors(0) == {1, 5}


def test_neighbors_edgeless_and_star():
    assert Graph(3).neighbors(1) == frozenset()
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert star.neighbors(0) == {1, 2, 3}


def test_neighbors_out_of_range():
    with pytest.raises(ValueError):
        cycle_graph(3).neighbors(3)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_constructor_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="non-negative, got -1"):
        Graph(-1)
    assert Graph(0).n == 0


def test_constructor_rejects_non_int_input():
    # a float endpoint once escaped as a TypeError from list indexing, and a
    # bool endpoint was taken as vertex 0 or 1
    with pytest.raises(ValueError, match="must be an int, got 2.0"):
        Graph(2.0)
    with pytest.raises(ValueError, match="must be an int, got True"):
        Graph(True)
    for edge in ((0, 1.0), (0, True), (False, 1), ("0", 1)):
        with pytest.raises(ValueError, match="non-int endpoint"):
            Graph(3, [edge])


def test_generators():
    assert path_graph(4).m == 3
    assert complete_graph(4).m == 6
    lad = ladder_graph(30)
    assert (lad.n, lad.m) == (60, 88)


def test_disjoint_union():
    g = disjoint_union(path_graph(2), cycle_graph(3))
    assert (g.n, g.m) == (5, 4)
    assert g.is_connected() is False


def test_delete_vertices_relabels_densely():
    g = cycle_graph(5).delete_vertices({1})
    assert g.n == 4
    assert g.edges == {(0, 3), (1, 2), (2, 3)}  # path 1-2-3-0 relabeled
