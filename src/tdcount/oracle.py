"""Exhaustive enumeration oracles for small graphs, and an exact determinant.

These counters walk every matching / independent set explicitly and are the
ground truth each dynamic program is verified against. They share no code
with the decomposition-based counters. Exponential by design, hence the hard
caps: m <= ORACLE_MAX_EDGES for matchings, n <= ORACLE_MAX_VERTICES for
independent sets, checked before any enumeration.

Past those caps, ``bareiss_determinant`` gives perfect-matching counts of
planar bipartite graphs in polynomial time: with Kasteleyn signs on the
edges, the count is the absolute determinant of the biadjacency matrix.
"""

from __future__ import annotations

from .errors import SizeLimitError

ORACLE_MAX_EDGES = 24
ORACLE_MAX_VERTICES = 20


def _check_matching_cap(g):
    # at most 2^m matchings to visit
    if g.m > ORACLE_MAX_EDGES:
        raise SizeLimitError(
            f"matching oracle refuses m={g.m} (needs m <= {ORACLE_MAX_EDGES})"
        )


def _check_independent_set_cap(g):
    # at most 2^n independent sets to visit
    if g.n > ORACLE_MAX_VERTICES:
        raise SizeLimitError(
            f"independent-set oracle refuses n={g.n} "
            f"(needs n <= {ORACLE_MAX_VERTICES})"
        )


def matching_counts(g):
    """(perfect matching count, matchings-by-size list) by enumeration.

    Every subset of edges that forms a matching is visited exactly once via
    backtracking over the sorted edge list; covered vertices are tracked in a
    bitmask.
    """
    _check_matching_cap(g)
    edges = g.sorted_edges()
    edge_masks = [(1 << u) | (1 << v) for u, v in edges]
    full = (1 << g.n) - 1
    by_size = [0] * (g.n // 2 + 1)
    pm = 0

    # Iterative stack of (next edge index, covered mask, size): each visited
    # state is one matching.
    stack = [(0, 0, 0)]
    while stack:
        start, covered, size = stack.pop()
        by_size[size] += 1
        if covered == full:
            pm += 1
        for i in range(start, len(edge_masks)):
            em = edge_masks[i]
            if not covered & em:
                stack.append((i + 1, covered | em, size + 1))
    while len(by_size) > 1 and by_size[-1] == 0:
        by_size.pop()
    return pm, by_size


def independent_set_counts(g):
    """Independent sets by size, counting the empty set, via enumeration."""
    _check_independent_set_cap(g)
    nbr_masks = [0] * g.n
    for u, v in g.edges:
        nbr_masks[u] |= 1 << v
        nbr_masks[v] |= 1 << u
    by_size = [0] * (g.n + 1)

    stack = [(0, 0, 0)]  # (next vertex, blocked mask, size)
    while stack:
        start, blocked, size = stack.pop()
        by_size[size] += 1
        for v in range(start, g.n):
            bit = 1 << v
            if not blocked & bit:
                stack.append((v + 1, blocked | bit | nbr_masks[v], size + 1))
    while len(by_size) > 1 and by_size[-1] == 0:
        by_size.pop()
    return by_size


def oracle_counts(g):
    """(perfect matchings, matching sizes, independent set sizes) for g.

    Refuses instances beyond either oracle's cap before enumerating.
    """
    _check_matching_cap(g)
    _check_independent_set_cap(g)
    pm, match_poly = matching_counts(g)
    ind_poly = independent_set_counts(g)
    return pm, match_poly, ind_poly


def bareiss_determinant(matrix):
    """Determinant of a square integer matrix (a list of rows), exactly.

    Fraction-free Gaussian elimination (Bareiss, Math. Comp. 1968): after
    step k every entry below and right of the pivot is a (k + 1)-minor of
    the matrix, so the division by the previous pivot is exact and entries
    stay integers no longer than Hadamard's bound. A zero pivot is swapped
    with a row below that has a non-zero entry in its column, flipping the
    sign; with none, the determinant is 0. The empty matrix gives 1.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1
