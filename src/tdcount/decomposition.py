"""Tree and path decompositions and their nice normal form.

A :class:`TreeDecomposition` is a rooted tree of bags. ``make_nice`` rewrites
it into a :class:`NiceDecomposition` where every node is a leaf (empty bag),
introduce, forget or join node; the counting dynamic programs consume only
the nice form. Construction is heuristic: ``decompose`` is the min-fill
elimination tree in nice form. Externally produced decompositions can be
loaded through the PACE-2017 ``.td`` format.

Nothing here checks a decomposition against a graph. The counters do, once
per decomposition, in ``counting._prepare``: it refuses an uncovered edge, a
vertex in no bag or outside the graph, tables over its cell budget and,
through ``_check_grammar``, a vertex whose bags are disconnected, all before
any table is allocated. ``make_nice`` refuses a bag past ``MAX_WIDTH`` + 1
vertices before it builds anything, since the nice form of a bag of w
vertices holds O(w^2) vertex entries.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import namedtuple
from functools import partial
from operator import itemgetter

from .errors import DecompositionMismatch, ParseError, SizeLimitError

# Bag-subset state masks must fit comfortably in a machine word.
MAX_WIDTH = 30

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class TreeDecomposition:
    """Rooted tree of bags: ``parent[i]`` is the parent index, -1 at the root.

    The tree shape is checked here (int indices, one root, every bag
    reachable from it); the bags are checked against a graph only by the
    counters, on the nice form. ``make_nice`` walks the tree through the
    children lists and root-first order built for that check, so a changed
    shape needs a new ``TreeDecomposition``, not an edited ``parent``.
    """

    def __init__(self, bags, parent, root):
        bags = list(map(frozenset, bags))
        count = len(bags)
        if not bags:
            raise ValueError("a decomposition needs at least one bag")
        if len(parent) != count:
            raise ValueError("parent array must match bag count")
        if type(root) is not int or not 0 <= root < count:
            raise ValueError(f"root {root!r} is not a bag index")
        children = [[] for _ in range(count)]
        for i, p in enumerate(parent):
            if type(p) is not int or (i != root and not 0 <= p < count):
                raise ValueError(f"bag {i} has invalid parent {p!r}")
            if i != root:
                children[p].append(i)
        if parent[root] != -1:
            raise ValueError("root must have parent -1")
        # reachability from the root establishes tree-ness; the order
        # reached, each bag before its subtree and the first child's
        # subtree first, is the one make_nice builds in reverse
        preorder = []
        stack = [root]
        while stack:
            b = stack.pop()
            preorder.append(b)
            stack.extend(reversed(children[b]))
        if len(preorder) != count:
            raise ValueError("parent links do not form a tree rooted at root")
        self.bags = bags
        self.parent = list(parent)
        self.root = root
        self._children = children
        self._preorder = preorder

    def children(self):
        return [list(kids) for kids in self._children]

    def width(self):
        return max(map(len, self.bags)) - 1

    def tree_edges(self):
        return sorted(
            (min(i, p), max(i, p)) for i, p in enumerate(self.parent) if p >= 0
        )

    def __repr__(self):
        return f"TreeDecomposition(bags={len(self.bags)}, width={self.width()})"


def check_order(g, order):
    if any(type(v) is not int for v in order) or \
            sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertex ids")


def min_fill_order(g):
    """Greedy elimination order minimizing fill-in, ties broken by lowest id.

    ``fill[u]`` counts the non-adjacent pairs in N(u) of the graph where
    fill edges accumulate, and is kept exact as v is eliminated:

    * each neighbour a loses the missing pairs {v, x}, that is
      ``|N(a) - v| - |N(a) & N(v)|``;
    * each fill edge {a, b} added among N(v) takes the missing pair {a, b}
      from every common neighbour of a and b, and gives a
      ``|N(a)| - |N(a) & N(b)|`` new missing pairs (b likewise), both read
      just before the edge is added.

    No other fill changes, and no neighbourhood is ever recounted. Each step
    takes the alive vertex of least (fill, id) from a lazy min-heap of ints
    ``fill * n + id``: a vertex whose fill changed in a step gets one new
    entry, and a popped entry that no longer matches its vertex (stale fill,
    or dead) is skipped. If no vertex has more than d neighbours during
    elimination, a step costs O(d^3 + d^2 log n), near-linear in n for small
    width. The order is the one a scan of every alive vertex would pick.
    """
    n = g.n
    adj = list(map(set, g._adj))
    # an edge {u, w} lies in N(c) for each common neighbour c: one
    # intersection per edge counts the adjacent pairs of every N(c)
    fill = [len(nv) * (len(nv) - 1) // 2 for nv in adj]
    for u, w in g.edges:
        for c in adj[u] & adj[w]:
            fill[c] -= 1
    heap = [f * n + v for v, f in enumerate(fill)]
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush
    order = []
    while heap:
        key = heappop(heap)
        v = key % n
        if key != fill[v] * n + v:  # stale, or v already eliminated
            continue
        fill[v] = -1
        order.append(v)
        nv = adj[v]
        before = {}  # fill at the start of this step, of each vertex touched
        for a in nv:
            adj_a = adj[a]
            adj_a.discard(v)
            f = before[a] = fill[a]
            fill[a] = f - len(adj_a) + len(adj_a & nv)
        if len(nv) > 1:  # a single neighbour adds no fill edge
            nbrs = list(nv)
            for i, a in enumerate(nbrs):
                adj_a = adj[a]
                for b in nbrs[i + 1:]:
                    if b not in adj_a:
                        adj_b = adj[b]
                        common = adj_a & adj_b
                        for c in common:
                            if c not in before:
                                before[c] = fill[c]
                            fill[c] -= 1
                        k = len(common)
                        fill[a] += len(adj_a) - k
                        fill[b] += len(adj_b) - k
                        adj_a.add(b)
                        adj_b.add(a)
        for u, f in before.items():
            if fill[u] != f:
                heappush(heap, fill[u] * n + u)
    return order


def decomposition_from_order(g, order):
    """Elimination-game tree decomposition: one bag per eliminated vertex.

    Bag i is ``order[i]`` with its later neighbours in the filled graph, and
    its parent is the bag of the earliest of them, p. One symbolic pass finds
    both without storing a fill edge. Eliminating v makes its later set a
    clique, but p is eliminated before every other member, so it is enough
    to merge the rest into ``higher[p]``. From there the set moves up the
    parent chain, losing its earliest member at each step, so each member u
    holds the members after it by the time u is eliminated: when the
    elimination game would read those fill edges.
    """
    check_order(g, order)
    n = g.n
    if n == 0:
        return TreeDecomposition([frozenset()], [-1], 0)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    higher = [set() for _ in range(n)]
    for u, v in g.edges:
        if pos[u] < pos[v]:
            higher[u].add(v)
        else:
            higher[v].add(u)
    root = n - 1
    bags = []
    parent = []
    at = pos.__getitem__
    for i, v in enumerate(order):
        rest = higher[v]
        rest.add(v)
        bags.append(frozenset(rest))
        rest.discard(v)
        if rest:
            p = min(rest, key=at)
            rest.discard(p)
            higher[p] |= rest
            parent.append(pos[p])
        else:
            # isolated remainder (last vertex of a component): hang it off the
            # global root bag; components share no vertices, so any tree shape
            # is valid
            parent.append(-1 if i == root else root)
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


class NiceNode(namedtuple("NiceNode", "bag kind v children")):
    """One node of a nice decomposition; immutable, so a checked plan of it
    cannot go stale.

    ``bag`` is a sorted tuple of vertex ids, ``kind`` is LEAF / INTRODUCE /
    FORGET / JOIN, ``v`` the introduced or forgotten vertex (else None) and
    ``children`` a tuple of earlier node indices.
    """

    __slots__ = ()

    def __new__(cls, bag, kind, v, children):
        # copy lists into tuples, so nothing the caller keeps can change it
        return tuple.__new__(cls, (tuple(bag), kind, v, tuple(children)))

    def __repr__(self):
        extra = f" v={self.v}" if self.v is not None else ""
        return f"<{self.kind}{extra} bag={self.bag}>"


# NiceNode without the constructor's copies, for nodes whose bags and
# children are tuples already
_node = partial(tuple.__new__, NiceNode)


class NiceDecomposition:
    """Nice decomposition stored in postorder: children precede parents.

    ``nodes[root]`` is the last entry and has an empty bag, as do all leaves.
    ``is_path`` is true iff there are no join nodes. ``nodes`` is a read-only
    tuple of immutable ``NiceNode``s; the counters keep the plan they
    checked it with in ``_plan``.

    The counters and the grammar check read ``_nodes``, the nodes as given,
    by index. ``make_nice`` gives them as plain (bag, kind, v, children)
    tuples: a ``NiceNode`` costs several times as much to build, so
    ``nodes`` wraps each one only on first use.
    """

    __slots__ = ("_nodes", "_view", "_plan")

    def __init__(self, nodes):
        if not nodes:
            raise ValueError("empty nice decomposition")
        self._nodes = tuple(nodes)
        self._view = None
        self._plan = None

    @property
    def nodes(self):
        if self._view is None:
            self._view = tuple(map(_node, self._nodes))
        return self._view

    @property
    def root(self):
        return len(self._nodes) - 1

    @property
    def is_path(self):
        return self.join_count() == 0

    def width(self):
        return max(map(len, map(itemgetter(0), self._nodes))) - 1

    def join_count(self):
        return list(map(itemgetter(1), self._nodes)).count(JOIN)

    def __len__(self):
        return len(self._nodes)

    def structure_violations(self):
        """The first grammar fault as a one-item list; ``[]`` if well formed.

        The counters raise ``DecompositionMismatch`` when a decomposition is
        malformed or does not describe the graph. This runs their grammar
        check, ``_check_grammar``, which needs no graph, and lists the
        message they would raise.
        """
        try:
            _check_grammar(self._nodes)
        except DecompositionMismatch as exc:
            return [str(exc)]
        return []


def _arity_error(i, kind, children):
    return DecompositionMismatch(f"{kind} node {i} has {len(children)} children")


def _check_grammar(nodes):
    """The one nice-decomposition grammar check; raises at the first fault.

    Every child must be the int index of an earlier node with no other
    parent, and each kind must have its number of children; child indices
    and introduced vertices are of type int exactly, so a bool is refused
    as either. Bag equations hold as tuples: empty at a leaf, the child's
    bag with v inserted in order at an introduce node (v non-negative and
    not in it), with v removed at a forget node, and both children's bags
    at a join; so every bag is strictly increasing. No vertex is forgotten
    twice, the root bag is empty and every node is below the root. Returns,
    per node, the position of v in the introduce node's bag or the forget
    node's child bag (None elsewhere).
    """
    has_parent = [False] * len(nodes)
    forgotten = set()
    pos = [None] * len(nodes)
    for i, (bag, kind, v, children) in enumerate(nodes):
        for c in children:
            if type(c) is not int or not 0 <= c < i or has_parent[c]:
                raise DecompositionMismatch(
                    f"node {i} has child {c} that is not an earlier,"
                    " unshared node"
                )
            has_parent[c] = True
        if kind == INTRODUCE:
            if len(children) != 1:
                raise _arity_error(i, kind, children)
            child_bag = nodes[children[0]][0]
            if type(v) is not int or v < 0:
                raise DecompositionMismatch(
                    f"introduced vertex {v!r} is not a non-negative int"
                )
            p = bisect_left(child_bag, v)
            if (p < len(child_bag) and child_bag[p] == v) or \
                    bag != (*child_bag[:p], v, *child_bag[p:]):
                raise DecompositionMismatch(
                    f"introduce {i} bag equation violated"
                )
            pos[i] = p
        elif kind == FORGET:
            if len(children) != 1:
                raise _arity_error(i, kind, children)
            child_bag = nodes[children[0]][0]
            try:
                p = child_bag.index(v)
            except ValueError:
                raise DecompositionMismatch(
                    f"forget {i} bag equation violated") from None
            if bag != child_bag[:p] + child_bag[p + 1:]:
                raise DecompositionMismatch(f"forget {i} bag equation violated")
            if v in forgotten:
                raise DecompositionMismatch(
                    f"vertex {v} not forgotten exactly once (again at forget {i})"
                )
            forgotten.add(v)
            pos[i] = p
        elif kind == JOIN:
            if len(children) != 2:
                raise _arity_error(i, kind, children)
            c1, c2 = children
            if not bag == nodes[c1][0] == nodes[c2][0]:
                raise DecompositionMismatch(f"join {i} bags differ")
        elif kind == LEAF:
            if children:
                raise _arity_error(i, kind, children)
            if bag:
                raise DecompositionMismatch(f"leaf {i} has bag {bag}")
        else:
            raise DecompositionMismatch(f"unknown node kind {kind!r}")

    root = len(nodes) - 1
    if nodes[root][0]:
        raise DecompositionMismatch(f"root bag {nodes[root][0]} not empty")
    orphans = [i for i in range(root) if not has_parent[i]]
    if orphans:
        raise DecompositionMismatch(f"nodes {orphans} not below the root")
    return pos


def make_nice(td):
    """Rewrite a tree decomposition into nice form of the same width.

    Adjacent bags are bridged by forget-then-introduce chains (so no
    intermediate bag exceeds the larger of the two); multi-child bags are
    binarized with join nodes. A path-shaped input yields no join nodes.

    A bag of more than ``MAX_WIDTH`` + 1 vertices raises ``SizeLimitError``
    in one pass over the bags, before any node is built. Everything else is
    left to the counters: a vertex whose bags are disconnected is forgotten
    once per connected piece, so ``structure_violations()`` reports it
    without a graph.
    """
    width = td.width()
    if width > MAX_WIDTH:
        raise SizeLimitError(
            f"decomposition width {width} exceeds the cap of {MAX_WIDTH}"
        )
    nodes = []
    add = nodes.append
    last = -1  # index of the last node added
    bags = td.bags
    ordered = [tuple(sorted(b)) for b in bags]
    children_of = td._children
    top = [0] * len(bags)
    empty = frozenset()
    # postorder that builds the subtree of the last child first
    for b in reversed(td._preorder):
        target = ordered[b]
        want = bags[b]
        branches = []
        # each child's top node, or for a leaf bag a new empty leaf, grows
        # to target: forget have\want, then introduce want\have
        for c in children_of[b] or (None,):
            if c is None:
                add(((), LEAF, None, ()))
                last += 1
                cur, bag, have = last, (), empty
            else:
                cur, bag, have = top[c], ordered[c], bags[c]
            # forgetting the largest first leaves each smaller vertex in place
            for p in range(len(bag) - 1, -1, -1):
                v = bag[p]
                if v not in want:
                    bag = bag[:p] + bag[p + 1:]
                    add((bag, FORGET, v, (cur,)))
                    last += 1
                    cur = last
            # introducing the smallest first puts each vertex where target
            # has it, so bag[:p] is target[:p] at every step
            for p, v in enumerate(target):
                if v not in have:
                    bag = target[:p + 1] + bag[p:]
                    add((bag, INTRODUCE, v, (cur,)))
                    last += 1
                    cur = last
            branches.append(cur)
        cur = branches[0]
        for other in branches[1:]:
            add((target, JOIN, None, (cur, other)))
            last += 1
            cur = last
        top[b] = cur

    # the root bag is forgotten down to the empty bag, largest first
    bag = ordered[td.root]
    for p in range(len(bag) - 1, -1, -1):
        add((bag[:p], FORGET, bag[p], (last,)))
        last += 1
    return NiceDecomposition(nodes)


def decompose(g):
    """The nice decomposition the counters use for ``g`` when none is given:
    the min-fill elimination tree in nice form."""
    return make_nice(decomposition_from_order(g, min_fill_order(g)))


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
