"""Perfect-matching counts for chains of a repeated element.

A chain element is a small graph with ordered boundary lists L and R and the
positional bijection L[i] -> R[i] under which the induced boundary subgraphs
are isomorphic. Chaining identifies the right boundary of one copy with the
left boundary of the next. Perfect matchings of the whole chain are counted
by propagating a vector of boundary states (subsets of V \\ L, encoded as
bitmasks over the ascending interior vertex ids) through a transition matrix,
whose (n-1)-th power is taken with O(log n) exact integer matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .counting import count_perfect_matchings
from .decomposition import decomposition_from_order, make_nice, min_fill_order
from .errors import ParseError, SizeLimitError
from .graph import Graph, parse_gr

# The matrix is allocated dense, 2^k x 2^k for k interior vertices: a cap of
# 12 keeps it at 2^24 cells.
MAX_STATE_VERTICES = 12


class ChainElement:
    """Repeatable graph piece with boundary lists L, R and f(L[i]) = R[i]."""

    def __init__(self, g, left, right):
        left = tuple(left)
        right = tuple(right)
        if len(left) != len(right):
            raise ValueError("boundary lists must have equal length")
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValueError("boundary lists must not repeat vertices")
        if set(left) & set(right):
            raise ValueError("left and right boundaries must be disjoint")
        for v in left + right:
            if not 0 <= v < g.n:
                raise ValueError(f"boundary vertex {v} out of range")
        # the positional map must be an isomorphism of the induced boundaries
        for i in range(len(left)):
            for j in range(i + 1, len(left)):
                if ((left[i], left[j]) in g) != ((right[i], right[j]) in g):
                    raise ValueError(
                        "boundary map is not an isomorphism of the induced subgraphs"
                    )
        self.g = g
        self.left = left
        self.right = right
        self.fmap = dict(zip(left, right))
        self.interior = tuple(v for v in range(g.n) if v not in set(left))

    def __repr__(self):
        return (f"ChainElement(n={self.g.n}, L={list(self.left)}, "
                f"R={list(self.right)})")


def build_chain(element, n):
    """Graph of n fused copies: R of copy i is identified with L of copy i+1."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    g = element.g
    ids = [dict() for _ in range(n)]
    for v in range(g.n):
        ids[0][v] = v
    next_id = g.n
    left_set = set(element.left)
    for copy in range(1, n):
        for pos, v in enumerate(element.left):
            ids[copy][v] = ids[copy - 1][element.right[pos]]
        for v in range(g.n):
            if v not in left_set:
                ids[copy][v] = next_id
                next_id += 1
    edges = set()
    for copy in range(n):
        m = ids[copy]
        for u, v in g.edges:
            a, b = m[u], m[v]
            edges.add((a, b) if a < b else (b, a))
    return Graph(next_id, edges)


def respectful_partial_matchings(element, alpha):
    """Matchings of the element usable as the top copy of a chain.

    Given alpha, the interior vertices already excluded, return every matching
    M such that all interior vertices outside alpha are covered, every edge of
    M has an endpoint among those vertices, and no edge touches alpha. Edges
    may reach into L; the L vertices they cover are the boundary demand passed
    to the previous copy.
    """
    alpha = frozenset(alpha)
    interior = set(element.interior)
    if not alpha <= interior:
        raise ValueError("alpha must be a subset of the non-left vertices")
    must_cover = interior - alpha
    g = element.g
    allowed = {}
    for v in must_cover:
        allowed[v] = sorted(
            u for u in g.neighbors(v)
            if u not in alpha
        )

    results = []
    chosen = []
    covered = set()

    def rec():
        todo = sorted(must_cover - covered)
        if not todo:
            results.append(frozenset(chosen))
            return
        v = todo[0]
        for u in allowed[v]:
            if u in covered:
                continue
            covered.add(v)
            covered.add(u)
            chosen.append((v, u) if v < u else (u, v))
            rec()
            chosen.pop()
            covered.discard(v)
            covered.discard(u)

    rec()
    return sorted(results, key=sorted)


@dataclass
class ChainStats:
    matrix_mults: int = 0


@dataclass
class TransitionSystem:
    """States are subsets of the interior, bit i = element.interior[i]."""

    element: ChainElement
    dim: int
    matrix: list
    initial: list
    states: list = field(default_factory=list)

    def state_index(self, vertices):
        idx = 0
        for i, v in enumerate(self.element.interior):
            if v in vertices:
                idx |= 1 << i
        return idx


def build_transition(element):
    """Transition matrix A and initial vector b1 with b_n = A^(n-1) b1.

    Row alpha of A counts, per predecessor state, the respectful partial
    matchings of the top copy whose covered left-boundary vertices map (via
    the boundary bijection) onto that predecessor's excluded set. b1 entries
    are perfect-matching counts of the element minus the state's vertices,
    counted by the DP on a min-fill nice decomposition.
    """
    interior = element.interior
    k = len(interior)
    if k > MAX_STATE_VERTICES:
        raise SizeLimitError(
            f"{k} interior vertices exceed the transition cap of "
            f"{MAX_STATE_VERTICES}; count build_chain(element, n) with the "
            f"generic DP instead"
        )
    dim = 1 << k
    states = []
    for idx in range(dim):
        states.append(tuple(interior[i] for i in range(k) if idx & (1 << i)))

    fmap = element.fmap
    matrix = [[0] * dim for _ in range(dim)]
    for idx, state in enumerate(states):
        for m in respectful_partial_matchings(element, state):
            covered_left = {x for e in m for x in e if x in fmap}
            beta = 0
            for x in covered_left:
                beta |= 1 << interior.index(fmap[x])
            matrix[idx][beta] += 1

    initial = []
    for state in states:
        h = element.g.delete_vertices(state)
        nd = make_nice(decomposition_from_order(h, min_fill_order(h)))
        initial.append(count_perfect_matchings(h, nd))
    return TransitionSystem(element, dim, matrix, initial, states)


def _mat_mul(a, b, dim):
    out = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        row = a[i]
        acc = out[i]
        for t in range(dim):
            x = row[t]
            if x:
                brow = b[t]
                for j in range(dim):
                    y = brow[j]
                    if y:
                        acc[j] += x * y
    return out


def _mat_vec(a, v, dim):
    return [sum(a[i][t] * v[t] for t in range(dim) if v[t]) for i in range(dim)]


def chain_pm_count(element, n, stats=None):
    """Perfect matchings of chain(element, n) via binary exponentiation.

    Matrix-matrix products performed: at most 2*ceil(log2 n).
    """
    if n < 1:
        raise ValueError("chain length must be at least 1")
    system = build_transition(element)
    vec = list(system.initial)
    e = n - 1
    base = system.matrix
    while e:
        if e & 1:
            vec = _mat_vec(base, vec, system.dim)
        e >>= 1
        if e:
            base = _mat_mul(base, base, system.dim)
            if stats is not None:
                stats.matrix_mults += 1
    return vec[0]


def parse_chain_file(text):
    """Parse a chain element file: a ``.gr`` body plus ``l``/``r`` boundary lines.

    The boundary lines list 1-based vertex ids; positions pair up, so the i-th
    left vertex maps to the i-th right vertex.
    """
    gr_lines = []
    left = right = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        parts = stripped.split()
        if parts and parts[0] == "l":
            if left is not None:
                raise ParseError("duplicate 'l' line", line=lineno)
            try:
                left = [int(x) - 1 for x in parts[1:]]
            except ValueError:
                raise ParseError("non-integer left boundary", line=lineno)
        elif parts and parts[0] == "r":
            if right is not None:
                raise ParseError("duplicate 'r' line", line=lineno)
            try:
                right = [int(x) - 1 for x in parts[1:]]
            except ValueError:
                raise ParseError("non-integer right boundary", line=lineno)
        else:
            gr_lines.append(raw)
    if left is None or right is None:
        raise ParseError("chain element file needs 'l' and 'r' boundary lines",
                         line=1)
    g = parse_gr("\n".join(gr_lines))
    try:
        return ChainElement(g, left, right)
    except ValueError as exc:
        raise ParseError(str(exc), line=1)
