"""Tree and path decompositions and their nice normal form.

A :class:`TreeDecomposition` is a rooted tree of bags. ``make_nice`` rewrites
it into a :class:`NiceDecomposition` where every node is a leaf (empty bag),
introduce, forget or join node; the counting dynamic programs consume only
the nice form. Construction is heuristic (min-fill elimination); externally
produced decompositions can be loaded through the PACE-2017 ``.td`` format.
"""

from __future__ import annotations

import heapq

from .errors import ParseError, SizeLimitError

# Bag-subset state masks must fit comfortably in a machine word.
MAX_WIDTH = 30

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class TreeDecomposition:
    """Rooted tree of bags: ``parent[i]`` is the parent index, -1 at the root."""

    def __init__(self, bags, parent, root):
        bags = [frozenset(b) for b in bags]
        if not bags:
            raise ValueError("a decomposition needs at least one bag")
        if len(parent) != len(bags):
            raise ValueError("parent array must match bag count")
        if not 0 <= root < len(bags):
            raise ValueError("root index out of range")
        if parent[root] != -1:
            raise ValueError("root must have parent -1")
        for i, p in enumerate(parent):
            if i != root and not 0 <= p < len(bags):
                raise ValueError(f"bag {i} has invalid parent {p}")
        # reachability from the root establishes tree-ness
        children = self._children_from(parent)
        reach = 0
        stack = [root]
        while stack:
            b = stack.pop()
            reach += 1
            stack.extend(children[b])
        if reach != len(bags):
            raise ValueError("parent links do not form a tree rooted at root")
        self.bags = bags
        self.parent = list(parent)
        self.root = root

    @staticmethod
    def _children_from(parent):
        children = [[] for _ in parent]
        for i, p in enumerate(parent):
            if p >= 0:
                children[p].append(i)
        return children

    def children(self):
        return self._children_from(self.parent)

    def width(self):
        return max(len(b) for b in self.bags) - 1

    def tree_edges(self):
        return sorted(
            (min(i, p), max(i, p)) for i, p in enumerate(self.parent) if p >= 0
        )

    def __repr__(self):
        return f"TreeDecomposition(bags={len(self.bags)}, width={self.width()})"


class ValidationReport:
    """Outcome of checking the two decomposition conditions against a graph."""

    def __init__(self, uncovered_edges, missing_vertices, disconnected_vertices,
                 foreign_vertices):
        self.uncovered_edges = uncovered_edges
        self.missing_vertices = missing_vertices
        self.disconnected_vertices = disconnected_vertices
        self.foreign_vertices = foreign_vertices

    @property
    def ok(self):
        return not (self.uncovered_edges or self.missing_vertices
                    or self.disconnected_vertices or self.foreign_vertices)

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "ok"
        parts = []
        if self.uncovered_edges:
            parts.append(f"uncovered edges: {self.uncovered_edges}")
        if self.missing_vertices:
            parts.append(f"vertices in no bag: {self.missing_vertices}")
        if self.disconnected_vertices:
            parts.append(f"vertices with disconnected bag sets: "
                         f"{self.disconnected_vertices}")
        if self.foreign_vertices:
            parts.append(f"bag vertices outside the graph: {self.foreign_vertices}")
        return "; ".join(parts)


def validate(g, td):
    """Check edge coverage and bag-subtree connectivity; report, don't raise."""
    holders = [[] for _ in range(g.n)]
    foreign = set()
    for i, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < g.n:
                holders[v].append(i)
            else:
                foreign.add(v)

    uncovered = []
    for u, v in sorted(tuple(sorted(e)) for e in g.edges):
        small, big = ((u, v) if len(holders[u]) <= len(holders[v]) else (v, u))
        candidate = set(holders[big])
        if not any(i in candidate for i in holders[small]):
            uncovered.append((u, v))

    missing = [v for v in range(g.n) if not holders[v]]

    disconnected = []
    for v in range(g.n):
        idx = set(holders[v])
        if not idx:
            continue
        tops = sum(1 for i in idx if td.parent[i] not in idx)
        if tops != 1:
            disconnected.append(v)

    return ValidationReport(uncovered, missing, disconnected, sorted(foreign))


def check_order(g, order):
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertex ids")


def min_fill_order(g):
    """Greedy elimination order minimizing fill-in, ties broken by lowest id.

    Works on a copy of the adjacency where fill edges accumulate. Each step
    takes the alive vertex of least (fill, id) from a lazy min-heap: a
    vertex gets a new entry only when its fill changes, and a popped entry
    whose vertex is dead or whose fill is stale is skipped. Eliminating v
    changes the fill of v's neighbours and of the common neighbours of each
    fill edge it adds, and of no other vertex, so only those are recomputed.
    If no vertex has more than d neighbours during elimination, a step costs
    O(d^4 + d^2 log n): near-linear in n for small width, where scanning
    every alive vertex per step cost O(n^2) in all. The order is the same.
    """
    n = g.n
    adj = [set(g.neighbors(v)) for v in range(n)]

    def fill_cost(v):
        nv = adj[v]
        d = len(nv)
        linked = 0  # twice the edges among N(v)
        for a in nv:
            linked += len(adj[a] & nv)
        return (d * (d - 1) - linked) // 2

    fill = [fill_cost(v) for v in range(n)]
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)
    order = []
    while heap:
        f, v = heapq.heappop(heap)
        if f != fill[v]:  # stale, or v already eliminated
            continue
        fill[v] = None
        order.append(v)
        nbrs = sorted(adj[v])
        for a in nbrs:
            adj[a].discard(v)
        dirty = set(nbrs)
        for i in range(len(nbrs)):
            a = nbrs[i]
            adj_a = adj[a]
            for j in range(i + 1, len(nbrs)):
                b = nbrs[j]
                if b not in adj_a:
                    adj_a.add(b)
                    adj[b].add(a)
                    dirty.update(adj_a & adj[b])
        for u in dirty:
            f = fill_cost(u)
            if f != fill[u]:
                fill[u] = f
                heapq.heappush(heap, (f, u))
    return order


def decomposition_from_order(g, order):
    """Elimination-game tree decomposition: one bag per eliminated vertex."""
    check_order(g, order)
    n = g.n
    if n == 0:
        return TreeDecomposition([frozenset()], [-1], 0)
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
            first = min(rest, key=pos.__getitem__)
            parent.append(pos[first])
        elif i == root:
            parent.append(-1)
        else:
            # isolated remainder (last vertex of a component): hang it off the
            # global root bag; components share no vertices, so any tree shape
            # is valid
            parent.append(root)
    return TreeDecomposition(bags, parent, root)


def path_decomposition_from_order(g, order):
    """Path decomposition whose width is the vertex separation of the order.

    Bag i holds ``order[i]`` plus every earlier vertex that still has a
    neighbor at position i or later.
    """
    check_order(g, order)
    n = g.n
    if n == 0:
        return TreeDecomposition([frozenset()], [-1], 0)
    pos = {v: i for i, v in enumerate(order)}
    last = []
    for i, v in enumerate(order):
        r = i
        for w in g.neighbors(v):
            r = max(r, pos[w])
        last.append(r)
    active = set()
    bags = []
    for i, v in enumerate(order):
        active.add(v)
        bags.append(frozenset(active))
        for u in list(active):
            if last[pos[u]] <= i:
                active.discard(u)
    parent = [i + 1 for i in range(n - 1)] + [-1]
    return TreeDecomposition(bags, parent, n - 1)


class NiceNode:
    __slots__ = ("bag", "kind", "v", "children")

    def __init__(self, bag, kind, v, children):
        self.bag = bag          # sorted tuple of vertex ids
        self.kind = kind        # LEAF / INTRODUCE / FORGET / JOIN
        self.v = v              # introduced/forgotten vertex, else None
        self.children = children

    def __repr__(self):
        extra = f" v={self.v}" if self.v is not None else ""
        return f"<{self.kind}{extra} bag={self.bag}>"


class NiceDecomposition:
    """Nice decomposition stored in postorder: children precede parents.

    ``nodes[root]`` is the last entry and has an empty bag, as do all leaves.
    ``is_path`` is true iff there are no join nodes.
    """

    def __init__(self, nodes):
        if not nodes:
            raise ValueError("empty nice decomposition")
        self.nodes = tuple(nodes)
        self.root = len(nodes) - 1
        self.is_path = all(nd.kind != JOIN for nd in nodes)

    def width(self):
        return max(len(nd.bag) for nd in self.nodes) - 1

    def join_count(self):
        return sum(1 for nd in self.nodes if nd.kind == JOIN)

    def __len__(self):
        return len(self.nodes)

    def structure_violations(self):
        """List of grammar violations; empty for a well-formed decomposition.

        Every bag must be a strictly increasing tuple, and every node but the
        root the child of exactly one later node.
        """
        out = []
        nodes = self.nodes
        parents = [0] * len(nodes)
        if nodes[self.root].bag:
            out.append("root bag not empty")
        for i, nd in enumerate(nodes):
            for c in nd.children:
                if 0 <= c < i:
                    parents[c] += 1
                else:
                    out.append(f"node {i} not in postorder")
            if any(a >= b for a, b in zip(nd.bag, nd.bag[1:])):
                out.append(f"node {i} bag {nd.bag} not strictly sorted")
            bag = set(nd.bag)
            if nd.kind == LEAF:
                if nd.bag or nd.children:
                    out.append(f"leaf {i} malformed")
            elif nd.kind == INTRODUCE:
                if len(nd.children) != 1:
                    out.append(f"introduce {i} needs one child")
                    continue
                child = set(nodes[nd.children[0]].bag)
                if nd.v in child or bag != child | {nd.v}:
                    out.append(f"introduce {i} bag equation violated")
            elif nd.kind == FORGET:
                if len(nd.children) != 1:
                    out.append(f"forget {i} needs one child")
                    continue
                child = set(nodes[nd.children[0]].bag)
                if nd.v not in child or bag != child - {nd.v}:
                    out.append(f"forget {i} bag equation violated")
            elif nd.kind == JOIN:
                if len(nd.children) != 2:
                    out.append(f"join {i} needs two children")
                    continue
                c1, c2 = nd.children
                if not (bag == set(nodes[c1].bag) == set(nodes[c2].bag)):
                    out.append(f"join {i} bags differ")
            else:
                out.append(f"node {i} has unknown kind {nd.kind!r}")
        for i, count in enumerate(parents[:self.root]):
            if count != 1:
                out.append(f"node {i} is the child of {count} nodes")
        return out


def _subtree_connectivity_violations(td):
    holders = {}
    for i, bag in enumerate(td.bags):
        for v in bag:
            holders.setdefault(v, set()).add(i)
    bad = []
    for v, idx in holders.items():
        tops = sum(1 for i in idx if td.parent[i] not in idx)
        if tops != 1:
            bad.append(v)
    return sorted(bad)


def make_nice(td, max_width=MAX_WIDTH):
    """Rewrite a tree decomposition into nice form of the same width.

    Adjacent bags are bridged by forget-then-introduce chains (so no
    intermediate bag exceeds the larger of the two); multi-child bags are
    binarized with join nodes. A path-shaped input yields no join nodes.
    """
    if td.width() > max_width:
        raise SizeLimitError(
            f"decomposition width {td.width()} exceeds the cap of {max_width}"
        )
    bad = _subtree_connectivity_violations(td)
    if bad:
        raise ValueError(
            f"invalid decomposition: bag sets of vertices {bad} are disconnected"
        )

    nodes = []

    def add(bag, kind, v, children):
        nodes.append(NiceNode(tuple(bag), kind, v, tuple(children)))
        return len(nodes) - 1

    def grow(cur, cur_bag, target):
        """Forget cur_bag\\target (descending), introduce target\\cur_bag."""
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

    root = grow(tops.pop(td.root), td.bags[td.root], set())
    assert root == len(nodes) - 1
    return NiceDecomposition(nodes)


def parse_td(text):
    """Parse a PACE-2017 ``.td`` file into a tree decomposition rooted at bag 1.

    Grammar: ``s td <#bags> <width+1> <n>``, bag lines ``b <id> <vertices...>``
    and tree edge lines ``<i> <j>``; everything 1-based, ``c`` comments allowed.
    """
    n_bags = n_vertices = None
    bags = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if n_bags is not None:
                raise ParseError("duplicate 's td' header", line=lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(f"malformed header {line!r}", line=lineno)
            try:
                n_bags, _, n_vertices = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise ParseError(f"non-integer header fields in {line!r}", line=lineno)
            if n_bags < 1:
                raise ParseError("decomposition needs at least one bag", line=lineno)
            continue
        if n_bags is None:
            raise ParseError("content before 's td' header", line=lineno)
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError("bag line without id", line=lineno)
            try:
                bid = int(parts[1])
                verts = [int(x) for x in parts[2:]]
            except ValueError:
                raise ParseError(f"non-integer bag line {line!r}", line=lineno)
            if not 1 <= bid <= n_bags:
                raise ParseError(f"bag id {bid} out of range", line=lineno)
            if bid in bags:
                raise ParseError(f"duplicate bag id {bid}", line=lineno)
            for v in verts:
                if not 1 <= v <= n_vertices:
                    raise ParseError(f"bag vertex {v} out of range", line=lineno)
            bags[bid] = frozenset(v - 1 for v in verts)
            continue
        if len(parts) != 2:
            raise ParseError(f"malformed tree edge line {line!r}", line=lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer tree edge {line!r}", line=lineno)
        if not (1 <= a <= n_bags and 1 <= b <= n_bags) or a == b:
            raise ParseError(f"invalid tree edge {line!r}", line=lineno)
        edges.append((a - 1, b - 1))

    if n_bags is None:
        raise ParseError("missing 's td' header", line=1)
    for bid in range(1, n_bags + 1):
        if bid not in bags:
            raise ParseError(f"bag {bid} never declared", line=1)
    if len(edges) != n_bags - 1:
        raise ParseError(
            f"{n_bags} bags need {n_bags - 1} tree edges, found {len(edges)}",
            line=1,
        )

    adj = [[] for _ in range(n_bags)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-2] * n_bags
    parent[0] = -1
    stack = [0]
    seen = 1
    while stack:
        b = stack.pop()
        for c in adj[b]:
            if parent[c] == -2:
                parent[c] = b
                seen += 1
                stack.append(c)
    if seen != n_bags:
        raise ParseError("tree edges do not connect all bags", line=1)
    return TreeDecomposition([bags[i + 1] for i in range(n_bags)], parent, 0)


def emit_td(td, n_vertices=None):
    """Serialize in PACE-2017 ``.td`` format; inverse of :func:`parse_td`."""
    if n_vertices is None:
        n_vertices = max((v for bag in td.bags for v in bag), default=-1) + 1
    lines = [f"s td {len(td.bags)} {max(len(b) for b in td.bags)} {n_vertices}"]
    for i, bag in enumerate(td.bags):
        verts = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i + 1} {verts}".rstrip())
    for a, b in td.tree_edges():
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"
