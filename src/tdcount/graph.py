"""Simple undirected graphs with dense 0-based vertex ids.

This is the one graph representation every other module consumes: counting
dynamic programs, decompositions, SMILES ingestion and the chain counter all
speak :class:`Graph`. Edges are unordered pairs of distinct vertices; there
are no multi-edges and no self-loops.
"""

from __future__ import annotations

from .errors import ParseError, _ascii_int, _numbered_lines


class Graph:
    """Immutable simple graph. Vertices are 0..n-1.

    Assigning an attribute raises AttributeError, so a decomposition plan
    checked against a graph object stays valid for it.
    """

    __slots__ = ("n", "edges", "labels", "_adj")

    def __init__(self, n, edges=(), labels=None):
        # ints only: a bool would pass as 0 or 1, a float fails as an index
        if type(n) is not int:
            raise ValueError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        # one walk of the edges checks them and builds the adjacency
        seen = set()
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}) has a non-int endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        if labels is not None and len(labels) != n:
            raise ValueError("labels must have one entry per vertex")
        init = object.__setattr__
        init(self, "n", n)
        init(self, "edges", frozenset(seen))
        init(self, "labels", tuple(labels) if labels is not None else None)
        init(self, "_adj", tuple(map(frozenset, adj)))

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Graph is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Graph, (self.n, self.edges, self.labels)

    @property
    def m(self):
        return len(self.edges)

    def neighbors(self, v):
        """Open neighborhood N(v)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self._adj[v]

    def degree(self, v):
        return len(self.neighbors(v))

    def __contains__(self, edge):
        u, v = edge
        return ((u, v) if u < v else (v, u)) in self.edges

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.edges, self.labels) == (other.n, other.edges, other.labels)

    def __hash__(self):
        return hash((self.n, self.edges, self.labels))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def sorted_edges(self):
        # every stored edge is already (min, max)
        return sorted(self.edges)

    def delete_vertices(self, remove):
        """Graph induced on V \\ remove, relabeled densely (order preserved)."""
        remove = set(remove)
        keep = [v for v in range(self.n) if v not in remove]
        new_id = {v: i for i, v in enumerate(keep)}
        edges = [
            (new_id[u], new_id[v])
            for u, v in self.edges
            if u not in remove and v not in remove
        ]
        labels = [self.labels[v] for v in keep] if self.labels is not None else None
        return Graph(len(keep), edges, labels)

    def is_connected(self):
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


def parse_gr(text):
    """Parse a PACE-2017 ``.gr`` graph: header ``p tw n m``, then m lines ``u v``.

    Vertex ids in the file are 1-based; the returned graph is 0-based.
    Duplicate edge lines collapse silently; self-loops are errors. Comment
    lines starting with ``c`` are ignored.
    """
    return _parse_gr_lines(_numbered_lines(text))


def _parse_gr_lines(numbered):
    """The ``.gr`` grammar over (line number, line) pairs: all lines of a
    ``.gr`` file, or those of a chain element file that are not boundary
    lines."""
    n = None
    m_declared = None
    edges = []
    for lineno, raw in numbered:
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate 'p' header", line=lineno)
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError(f"malformed header {line!r}", line=lineno)
            try:
                n, m_declared = _ascii_int(parts[2]), _ascii_int(parts[3])
            except ValueError:
                raise ParseError(f"non-integer header fields in {line!r}", line=lineno)
            if n < 0 or m_declared < 0:
                raise ParseError("negative counts in header", line=lineno)
            continue
        if n is None:
            raise ParseError("edge line before 'p tw' header", line=lineno)
        if len(parts) != 2:
            raise ParseError(f"malformed edge line {line!r}", line=lineno)
        a, b = parts
        # one test for the whole line; ``_ascii_int`` reads the rest
        if line.isascii() and a.isdigit() and b.isdigit():
            u, v = int(a), int(b)
        else:
            try:
                u, v = _ascii_int(a), _ascii_int(b)
            except ValueError:
                raise ParseError(f"non-integer edge endpoints in {line!r}",
                                 line=lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex id out of range in {line!r}", line=lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=lineno)
        edges.append((u - 1, v - 1))
    if n is None:
        raise ParseError("missing 'p tw' header", line=1)
    if len(edges) != m_declared:
        raise ParseError(f"header declares {m_declared} edges but found "
                         f"{len(edges)} edge lines", line=1)
    return Graph(n, edges)


def emit_gr(g):
    """Serialize a graph in PACE-2017 ``.gr`` format (1-based)."""
    lines = [f"p tw {g.n} {g.m}"]
    for u, v in g.sorted_edges():
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def disjoint_union(g, h):
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = list(g.labels) + list(h.labels)
    return Graph(g.n + h.n, edges, labels)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def ladder_graph(k):
    """2 x k ladder: two rails of length k joined by k rungs (n=2k, m=3k-2)."""
    if k < 1:
        raise ValueError("ladder needs at least one rung")
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    return Graph(2 * k, edges)
