"""Naive branching baselines for the three total counters.

Each baseline branches on whether a deterministically chosen edge (or vertex)
belongs to the counted structure, giving at most 2^m recursion leaves. They
exist as benchmark opponents for the decomposition counters, so no memoization
and no cleverness; a wall-clock budget turns runaway instances into explicit
timeout results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

_CHECK_EVERY = 4096  # recursion steps between clock reads


@dataclass
class BaselineResult:
    value: int | None
    elapsed: float
    branch_count: int

    @property
    def timed_out(self):
        return self.value is None


class _Budget:
    __slots__ = ("deadline", "calls", "count")

    def __init__(self, seconds):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.calls = 0
        self.count = 0

    def tick(self):
        self.count += 1
        self.calls += 1
        if self.deadline is not None and self.calls >= _CHECK_EVERY:
            self.calls = 0
            if time.monotonic() > self.deadline:
                raise _TimeUp


class _TimeUp(Exception):
    pass


def _run(g, rec, budget):
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    guard = _Budget(budget)
    start = time.monotonic()
    try:
        value = rec(adj, guard)
    except _TimeUp:
        value = None
    return BaselineResult(value, time.monotonic() - start, guard.count)


def _lowest_edge(adj):
    for u in sorted(adj):
        if adj[u]:
            return u, min(adj[u])
    return None


def _edge_branching(g, budget, perfect):
    """Matchings by branching on the lowest edge.

    M(G) = M(G minus both endpoints) + M(G minus the edge). An edgeless
    remainder counts 1, or with ``perfect`` only if no vertices are left.
    """

    def rec(adj, guard):
        guard.tick()
        pivot = _lowest_edge(adj)
        if pivot is None:
            return 0 if perfect and adj else 1
        u, v = pivot
        # take the edge: both endpoints leave the graph
        removed = []
        for x in (u, v):
            for y in adj[x]:
                adj[y].discard(x)
                removed.append((x, y))
            del adj[x]
        with_edge = rec(adj, guard)
        for x in (u, v):
            adj[x] = set()
        for x, y in removed:
            adj[x].add(y)
            adj[y].add(x)
        # skip the edge
        adj[u].discard(v)
        adj[v].discard(u)
        without_edge = rec(adj, guard)
        adj[u].add(v)
        adj[v].add(u)
        return with_edge + without_edge

    return _run(g, rec, budget)


def baseline_pm(g, budget=None):
    """Perfect matchings by branching on the lowest edge."""
    return _edge_branching(g, budget, perfect=True)


def baseline_matchings(g, budget=None):
    """All matchings by the same branching."""
    return _edge_branching(g, budget, perfect=False)


def baseline_independent_sets(g, budget=None):
    """Independent sets branching on the lowest vertex of positive degree.

    ind(G) = ind(G minus N[v]) + ind(G minus v); an edgeless remainder on k
    vertices contributes 2^k (every subset is independent).
    """

    def pick(adj):
        for v in sorted(adj):
            if adj[v]:
                return v
        return None

    def remove(adj, v):
        removed = [(v, y) for y in adj[v]]
        for y in adj[v]:
            adj[y].discard(v)
        del adj[v]
        return removed

    def restore(adj, v, removed):
        adj[v] = set()
        for x, y in removed:
            adj[x].add(y)
            adj[y].add(x)

    def rec(adj, guard):
        guard.tick()
        v = pick(adj)
        if v is None:
            return 1 << len(adj)
        closed = [v] + sorted(adj[v])
        undo = [(x, remove(adj, x)) for x in closed]
        take = rec(adj, guard)
        for x, removed in reversed(undo):
            restore(adj, x, removed)
        undo_v = remove(adj, v)
        skip = rec(adj, guard)
        restore(adj, v, undo_v)
        return take + skip

    return _run(g, rec, budget)
