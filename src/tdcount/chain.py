"""Perfect-matching counts for chains of a repeated element.

A chain element is a small graph with ordered boundary lists L and R and the
positional bijection L[i] -> R[i] under which the induced boundary subgraphs
are isomorphic. Chaining identifies the right boundary of one copy with the
left boundary of the next. Perfect matchings of the whole chain are counted
by propagating a vector of boundary states (subsets of V \\ L, encoded as
bitmasks over the ascending interior vertex ids) through a transition matrix,
whose (n-1)-th power is taken with O(log n) exact integer matrix products.
Every matrix and initial-vector entry is the perfect-matching count of an
induced subgraph of the element, read from a table over all 2^|V| vertex
subsets; the state cap keeps |V| at 24 or fewer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError, SizeLimitError
from .graph import Graph, parse_gr

# The matrix is allocated dense, 2^k x 2^k for k interior vertices: a cap of
# 12 keeps it at 2^24 cells, and the subset tables (|L| <= k, so at most 24
# vertices) at 2^24 entries.
MAX_STATE_VERTICES = 12


class ChainElement:
    """Repeatable graph piece with boundary lists L, R and f(L[i]) = R[i]."""

    def __init__(self, g, left, right):
        left = tuple(left)
        right = tuple(right)
        if len(left) != len(right):
            raise ValueError("boundary lists must have equal length")
        left_set = set(left)
        if len(left_set) != len(left) or len(set(right)) != len(right):
            raise ValueError("boundary lists must not repeat vertices")
        if left_set & set(right):
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
        self.interior = tuple(v for v in range(g.n) if v not in left_set)

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


def _pm_by_subset(n, edges):
    """Entry S (a vertex bitmask) is the perfect-matching count of G[S].

    The lowest vertex of S is matched to each of its neighbours in S, so
    the table costs O(2^n * degree); odd subsets keep their 0.
    """
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    table = [0] * (1 << n)
    table[0] = 1
    for s in range(1, 1 << n):
        if s.bit_count() & 1:
            continue
        low = s & -s
        rest = s ^ low
        cand = nbr[low.bit_length() - 1] & rest
        total = 0
        while cand:
            bit = cand & -cand
            total += table[rest ^ bit]
            cand ^= bit
        table[s] = total
    return table


def build_transition(element):
    """Transition matrix A and initial vector b1 with b_n = A^(n-1) b1.

    For state alpha let I be the interior minus alpha. The first copy is
    the whole element minus alpha, so b1[alpha] = pm(G[I + L]). The top
    copy of a longer chain covers I with edges that each have an endpoint
    in I, so it uses H, the element without the edges inside L; the left
    vertices C it covers are excluded from the copy below, as the state
    beta that the boundary map sends C onto. So A[alpha][beta] =
    pm(H[I + C]). Both are read from one subset table per edge set.
    """
    g, left, interior = element.g, element.left, element.interior
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

    left_set = set(left)
    pm_g = _pm_by_subset(g.n, g.edges)
    pm_h = _pm_by_subset(g.n, [(u, v) for u, v in g.edges
                               if u not in left_set or v not in left_set])
    # every covered set C of left vertices, with the state beta it maps onto
    pos = {v: i for i, v in enumerate(interior)}
    covers = [(0, 0)]
    for x, y in zip(left, element.right):
        covers += [(c | 1 << x, beta | 1 << pos[y]) for c, beta in covers]
    left_mask = sum(1 << x for x in left)
    interior_mask = (1 << g.n) - 1 - left_mask
    matrix = []
    initial = []
    for state in states:
        rest = interior_mask - sum(1 << v for v in state)
        row = [0] * dim
        for c, beta in covers:
            row[beta] = pm_h[rest | c]
        matrix.append(row)
        initial.append(pm_g[rest | left_mask])
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
