"""Perfect-matching counts for chains of a repeated element.

A chain element is a small graph with ordered boundary lists L and R and the
positional bijection L[i] -> R[i] under which the induced boundary subgraphs
are isomorphic. Chaining identifies the right boundary of one copy with the
left boundary of the next. Perfect matchings of the whole chain are counted
by propagating a vector of boundary states through a transition matrix. A
state is the set f(C) of right vertices that the copy above has matched,
for a set C of its left vertices, so only 2^|L| states are reachable; the
n-th power is applied with O(log n) exact integer matrix products. Every
matrix entry is the perfect-matching count of an induced subgraph of the
element, read from one table over all 2^|V| vertex subsets.
build_transition spells the same recursion out over all 2^k subsets of the
k interior vertices, in a dense matrix of 4^k cells; both builders refuse an
element whose 4^k exceeds the counters' cell budget, ``counting.MAX_CELLS``
(2^25), so k is at most 12 and the subset table (|L| <= k, so |V| <= 2k)
holds at most 4^k entries too. Counting needs only 2^|L| x 2^|L| cells, but
the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from . import counting
from .errors import ParseError, SizeLimitError, _ascii_int, _numbered_lines
from .graph import Graph, _parse_gr_lines


class ChainElement:
    """Repeatable graph piece with boundary lists L, R and f(L[i]) = R[i]."""

    def __init__(self, g, left, right):
        left = tuple(left)
        right = tuple(right)
        for v in left + right:
            if type(v) is not int:
                raise ValueError(f"boundary vertex {v!r} is not an int")
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


def _check_length(n):
    if type(n) is not int or n < 1:
        raise ValueError(f"chain length must be an int of at least 1, got {n!r}")


def build_chain(element, n):
    """Graph of n fused copies: R of copy i is identified with L of copy i+1."""
    _check_length(n)
    g = element.g
    ids = list(range(g.n))  # vertex ids of the copy last added
    edges = list(g.edges)
    next_id = g.n
    for _ in range(1, n):
        prev = ids
        ids = [0] * g.n
        for x, y in zip(element.left, element.right):
            ids[x] = prev[y]
        for v in element.interior:
            ids[v] = next_id
            next_id += 1
        edges += [(ids[u], ids[v]) for u, v in g.edges]
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


def _reachable(element):
    """Budget check, subset tables and covers, shared by both builders.

    Returns (covers, row, u). covers lists (C, f(C)) as vertex masks for
    every set C of left vertices, bit i of its index standing for L[i];
    f(C) is the reachable state it gives the copy below. row(alpha) is the
    row of state alpha (a vertex mask inside the interior) over the covers:
    with I the interior minus alpha, entry j is pm(H[I + C_j]), where H is
    the element without the edges inside L. u[j] = pm(G[L - C_j]).
    """
    g, left, interior = element.g, element.left, element.interior
    k = len(interior)
    if 4 ** k > counting.MAX_CELLS:
        raise SizeLimitError(
            f"{k} interior vertices ask 4^{k} transition cells, over the "
            f"budget of {counting.MAX_CELLS}; count build_chain(element, n) "
            f"with the generic DP instead"
        )
    pos = {v: i for i, v in enumerate(left)}
    pm_h = _pm_by_subset(g.n, [(u, v) for u, v in g.edges
                               if u not in pos or v not in pos])
    pm_l = _pm_by_subset(len(left), [(pos[u], pos[v]) for u, v in g.edges
                                     if u in pos and v in pos])
    covers = [(0, 0)]
    for x, y in zip(left, element.right):
        covers += [(c | 1 << x, fc | 1 << y) for c, fc in covers]
    interior_mask = sum(1 << v for v in interior)
    full = len(covers) - 1

    def row(alpha):
        rest = interior_mask ^ alpha
        return [pm_h[rest | c] for c, _ in covers]

    return covers, row, [pm_l[full ^ j] for j in range(len(covers))]


def build_transition(element):
    """Transition matrix A and initial vector b1 over all 2^k interior states.

    For state alpha let I be the interior minus alpha. The top copy of a
    chain covers I with edges that each have an endpoint in I, so it uses
    H, the element without the edges inside L; the left vertices C it
    covers are excluded from the copy below, as the state beta that the
    boundary map sends C onto. So A[alpha][beta] = pm(H[I + C]), and only
    the 2^|L| images of the sets C are reachable. The first copy is the
    whole element minus alpha: every perfect matching of G[I + L] splits L
    into the vertices matched inside L and the set C matched into I, so
    b1 = A u with u[C] = pm(G[L - C]), and b_n = A^(n-1) b1. This dense
    form spells the recursion out; chain_pm_count does not build it.
    """
    covers, row, u = _reachable(element)
    interior = element.interior
    k = len(interior)
    dim = 1 << k
    states = [tuple(interior[i] for i in range(k) if idx >> i & 1)
              for idx in range(dim)]
    masks = [sum(1 << v for v in state) for state in states]
    index = {mask: idx for idx, mask in enumerate(masks)}
    betas = [index[fc] for _, fc in covers]
    matrix = []
    initial = []
    for alpha in masks:
        entries = row(alpha)
        dense = [0] * dim
        for beta, x in zip(betas, entries):
            dense[beta] = x
        matrix.append(dense)
        initial.append(sum(map(mul, entries, u)))
    return TransitionSystem(element, dim, matrix, initial, states)


def chain_pm_count(element, n, stats=None):
    """Perfect matchings of chain(element, n) on the 2^|L| reachable states.

    State j is f(C_j), so A[i][j] = pm(H[(interior - f(C_i)) + C_j]) (see
    build_transition). A copy 0 that holds only L gives b_n = A^n u, whose
    entry 0 is the count; A^n u is taken by binary exponentiation, with
    floor(log2 n) matrix squarings counted in stats.matrix_mults.
    """
    _check_length(n)
    covers, row, vec = _reachable(element)
    a = [row(fc) for _, fc in covers]
    while n:
        if n & 1:
            vec = [sum(map(mul, r, vec)) for r in a]
        n >>= 1
        if n:
            cols = list(zip(*a))
            a = [[sum(map(mul, r, col)) for col in cols] for r in a]
            if stats is not None:
                stats.matrix_mults += 1
    return vec[0]


def parse_chain_file(text):
    """Parse a chain element file: a ``.gr`` body plus ``l``/``r`` boundary lines.

    The boundary lines list 1-based vertex ids; positions pair up, so the i-th
    left vertex maps to the i-th right vertex. Errors give the line they are
    on; a fault between the two lists gives the later one.
    """
    gr_lines = []
    found = {}
    for lineno, raw in _numbered_lines(text):
        parts = raw.split()
        if not parts or parts[0] not in ("l", "r"):
            gr_lines.append((lineno, raw))
            continue
        side = "left" if parts[0] == "l" else "right"
        if side in found:
            raise ParseError(f"duplicate '{parts[0]}' line", line=lineno)
        try:
            found[side] = ([_ascii_int(x) for x in parts[1:]], lineno)
        except ValueError:
            raise ParseError(f"non-integer {side} boundary", line=lineno)
    if len(found) < 2:
        raise ParseError("chain element file needs 'l' and 'r' boundary lines",
                         line=1)
    g = _parse_gr_lines(gr_lines)
    for ids, lineno in found.values():
        for v in ids:
            if not 1 <= v <= g.n:
                raise ParseError(f"boundary vertex {v} out of range",
                                 line=lineno)
    (left, l_line), (right, r_line) = found["left"], found["right"]
    try:
        return ChainElement(g, [v - 1 for v in left], [v - 1 for v in right])
    except ValueError as exc:
        raise ParseError(str(exc), line=max(l_line, r_line))
