"""Exhaustive enumeration oracles for small graphs.

These counters walk every matching / independent set explicitly and are the
ground truth each dynamic program is verified against. They share no code
with the decomposition-based counters. Exponential by design, hence the hard
caps: m <= ORACLE_MAX_EDGES for matchings, n <= ORACLE_MAX_VERTICES for
independent sets, checked before any enumeration.
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
