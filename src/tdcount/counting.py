"""Counting dynamic programs over nice decompositions.

Five counters share one bag-local state machine: a table per decomposition
node maps subsets of the bag (as bitmasks over the sorted bag) to counts.

State semantics per counter, for node b with bag X and subset M:

* perfect matchings -- matchings of ``G_b \\ M`` covering every vertex below b
  except M, every matching edge having an endpoint outside X. Vertices in M
  are left for the part of the graph above b.
* matchings -- same edge discipline, but only the vertices of ``X \\ M`` are
  required to be covered; M marks bag vertices currently unmatched.
* independent sets -- independent sets I of the graph below b with
  ``I ∩ X = M``.

Joins for (perfect) matchings split the covered bag vertices between the two
subtrees: child states a and b combine iff ``a | b`` is the whole bag, into
state ``a & b``. The join visits only non-zero entries of the sparser child
and, for each, only the states of the other child that can combine with it
and match no bag vertex that other child never matches. Its work is the
number of combining pairs of non-zero entries, at most 3^|bag|; a child
branch that ``make_nice`` grew to the join bag by introductions leaves those
fresh vertices unmatched, so most pairs are never visited. Joins for
independent sets multiply tables pointwise.

The size polynomials run the same traversal (Kronecker substitution). With a
variable x for structure size, every table entry is a polynomial in x, and
size is committed only at forget nodes: a forgotten chosen vertex for
independent sets, a pair edge formed at the forget for matchings. Joins then
multiply polynomials and introduce nodes copy them. Substituting x = 2^B
turns each polynomial into one integer and each factor x into a left shift
by B bits, so the pass is the integer DP with a shift at forget nodes. The
root holds P(2^B) exactly. Its coefficients are non-negative and sum to the
total count, so taking B = bit length of the total makes every coefficient
less than 2^B, and the B-bit slices of the root read them back uniquely.

All counts are exact arbitrary-precision integers.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field

from .decomposition import FORGET, INTRODUCE, JOIN, LEAF

_LEAF, _INTRO, _FORGET, _JOIN = 0, 1, 2, 3


class SizePolynomial:
    """Counts by structure size: coeffs[k] structures of size k.

    Trailing zero coefficients are trimmed; the zero polynomial is ``(0,)``.
    Indexing out of range yields 0. Compares equal to plain sequences.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs) or [0]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self.coeffs[k]
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, SizePolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (tuple, list)):
            return self == SizePolynomial(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"SizePolynomial{self.coeffs}"

    def total(self):
        return sum(self.coeffs)


@dataclass
class DpStats:
    """Operation counters a caller may pass in to inspect a run."""

    join_nodes: int = 0
    # (bag size, multiplications performed) per join node, in visit order
    join_bags: list = field(default_factory=list)


class DecompositionMismatch(ValueError):
    """The nice decomposition does not describe the given graph."""


def _arity_error(i, node):
    return DecompositionMismatch(
        f"{node.kind} node {i} has {len(node.children)} children"
    )


def _prepare(g, nd):
    """Compile nd into per-node instructions and check it matches g.

    Every node must be the child of exactly one later node (the root of
    none), and its bag must satisfy its bag equation as a tuple: empty at a
    leaf, the child's bag with v inserted in order at an introduce node (v in
    0..n-1 and not in the child's bag), with v removed at a forget node, and
    both children's bags at a join. From the empty leaves up, every bag is
    then sorted and within 0..n-1. With an empty root bag and every vertex
    forgotten exactly once, an edge can only be seen as a pair at the forget
    of its earlier endpoint, at most once, so counting pairs checks coverage.
    """
    n = g.n
    neighbors = g.neighbors
    nodes = nd.nodes
    plan = [None] * len(nodes)
    has_parent = [False] * len(nodes)
    forgets = [0] * n
    pair_count = 0

    for i, node in enumerate(nodes):
        bag = node.bag
        kind = node.kind
        children = node.children
        for c in children:
            if not 0 <= c < i or has_parent[c]:
                raise DecompositionMismatch(
                    f"node {i} has child {c} that is not an earlier,"
                    " unshared node"
                )
            has_parent[c] = True
        if kind == INTRODUCE:
            if len(children) != 1:
                raise _arity_error(i, node)
            v = node.v
            c = children[0]
            child_bag = nodes[c].bag
            if not (isinstance(v, int) and 0 <= v < n):
                raise DecompositionMismatch(
                    f"introduced vertex {v!r} outside 0..{n - 1}"
                )
            p = bisect_left(child_bag, v)
            if child_bag[p:p + 1] == (v,) or \
                    bag != child_bag[:p] + (v,) + child_bag[p:]:
                raise DecompositionMismatch(
                    f"introduce {i} bag equation violated"
                )
            nbrs = neighbors(v)
            nbr_mask = 0
            for q, u in enumerate(bag):
                if u in nbrs:
                    nbr_mask |= 1 << q
            plan[i] = (_INTRO, c, p, nbr_mask, len(bag))
        elif kind == FORGET:
            if len(children) != 1:
                raise _arity_error(i, node)
            v = node.v
            c = children[0]
            child_bag = nodes[c].bag
            if v not in child_bag:
                raise DecompositionMismatch(f"forget {i} bag equation violated")
            p = child_bag.index(v)
            if bag != child_bag[:p] + child_bag[p + 1:]:
                raise DecompositionMismatch(f"forget {i} bag equation violated")
            forgets[v] += 1
            nbrs = neighbors(v)
            pairs = tuple([
                (1 << q, 1 << (q if q < p else q + 1))
                for q, u in enumerate(bag)
                if u in nbrs
            ])
            pair_count += len(pairs)
            plan[i] = (_FORGET, c, p, pairs, len(bag))
        elif kind == JOIN:
            if len(children) != 2:
                raise _arity_error(i, node)
            c1, c2 = children
            if not bag == nodes[c1].bag == nodes[c2].bag:
                raise DecompositionMismatch(f"join {i} bags differ")
            w = len(bag)
            plan[i] = (_JOIN, c1, c2, w, (1 << w) - 1)
        elif kind == LEAF:
            if children:
                raise _arity_error(i, node)
            if bag:
                raise DecompositionMismatch(f"leaf {i} has bag {bag}")
            plan[i] = (_LEAF,)
        else:
            raise DecompositionMismatch(f"unknown node kind {kind!r}")

    if nodes[nd.root].bag:
        raise DecompositionMismatch(f"root bag {nodes[nd.root].bag} not empty")
    orphans = [i for i in range(nd.root) if not has_parent[i]]
    if orphans:
        raise DecompositionMismatch(f"nodes {orphans} not below the root")
    bad = [v for v in range(n) if forgets[v] != 1]
    if bad:
        raise DecompositionMismatch(f"vertices {bad} not forgotten exactly once")
    if pair_count != g.m:
        seen = {
            (min(node.v, u), max(node.v, u))
            for node in nodes if node.kind == FORGET
            for u in node.bag if u in g.neighbors(node.v)
        }
        stray = sorted(g.edges - seen)
        raise DecompositionMismatch(f"edges {stray} not covered by any bag")
    return plan


def _release(tables, children):
    for c in children:
        tables[c] = None


def _run(nd, plan, mode, stats, shift=0):
    """The one DP traversal behind all five counters.

    mode: 'pm' (perfect matchings), 'match' (all matchings), 'ind'
    (independent sets). With ``shift`` = B > 0 every table entry is its size
    polynomial evaluated at x = 2^B: forget nodes commit size by shifting.
    """
    nodes = nd.nodes
    tables = [None] * len(nodes)
    is_ind = mode == "ind"
    is_match = mode == "match"
    for i, op in enumerate(plan):
        code = op[0]
        if code == _LEAF:
            tables[i] = [1]
        elif code == _INTRO:
            _, c, p, nbr_mask, w = op
            child = tables[c]
            out = [0] * (1 << w)
            low = (1 << p) - 1
            bit = 1 << p
            if is_ind:
                for cm, val in enumerate(child):
                    if val:
                        base = (cm & low) | ((cm >> p) << (p + 1))
                        out[base] = val
                        if not base & nbr_mask:
                            out[base | bit] = val
            else:
                for cm, val in enumerate(child):
                    if val:
                        out[((cm & low) | ((cm >> p) << (p + 1))) | bit] = val
            tables[i] = out
            _release(tables, (c,))
        elif code == _FORGET:
            _, c, p, pairs, w = op
            child = tables[c]
            out = [0] * (1 << w)
            low = (1 << p) - 1
            bit = 1 << p
            if is_ind:
                # forgetting a chosen vertex commits it: one factor of x
                for m in range(1 << w):
                    base = (m & low) | ((m >> p) << (p + 1))
                    out[m] = child[base] + (child[base | bit] << shift)
            else:
                for m in range(1 << w):
                    base = (m & low) | ((m >> p) << (p + 1))
                    val = child[base]
                    if is_match:
                        val += child[base | bit]
                    # each pair edge v-u joins the matching here: one factor of x
                    paired = 0
                    for pbit, cbit in pairs:
                        if not m & pbit:
                            paired += child[base | bit | cbit]
                    out[m] = val + (paired << shift)
            tables[i] = out
            _release(tables, (c,))
        else:  # _JOIN
            _, c1, c2, w, full = op
            t1 = tables[c1]
            t2 = tables[c2]
            out = [0] * (1 << w)
            products = 0
            if is_ind:
                for m in range(1 << w):
                    out[m] = t1[m] * t2[m]
                products = 1 << w
            else:
                # states a and b combine iff a | b == full, into out[a & b];
                # only pairs of non-zero entries are visited
                nz1 = [a for a, x in enumerate(t1) if x]
                nz2 = [b for b, y in enumerate(t2) if y]
                if len(nz2) < len(nz1):
                    t1, t2, nz1, nz2 = t2, t1, nz2, nz1
                live2 = 0  # bag vertices child 2 can have matched
                for b in nz2:
                    live2 |= full ^ b
                for a in nz1:
                    x = t1[a]
                    # a vertex of a that child 2 cannot match stays unmatched
                    var = a & live2
                    forced = a ^ var
                    base = full ^ var
                    h = var
                    while True:
                        y = t2[base | h]
                        if y:
                            out[forced | h] += x * y
                            products += 1
                        if h == 0:
                            break
                        h = (h - 1) & var
            tables[i] = out
            if stats is not None:
                stats.join_nodes += 1
                stats.join_bags.append((w, products))
            _release(tables, (c1, c2))
    return tables[nd.root][0]


def _size_poly(nd, plan, mode, total, stats):
    """Size polynomial from one shifted pass; total is its exact value at x = 1."""
    bits = total.bit_length()
    value = _run(nd, plan, mode, stats, bits)
    mask = (1 << bits) - 1
    coeffs = []
    while value:
        coeffs.append(value & mask)
        value >>= bits
    return SizePolynomial(coeffs)


def count_perfect_matchings(g, nd, stats=None):
    """Number of perfect matchings (Kekulé structures) of g."""
    return _run(nd, _prepare(g, nd), "pm", stats)


def count_matchings(g, nd, stats=None):
    """Hosoya index: number of matchings of g, the empty one included."""
    return _run(nd, _prepare(g, nd), "match", stats)


def count_independent_sets(g, nd, stats=None):
    """Merrifield-Simmons index: number of independent sets, counting the
    empty set."""
    return _run(nd, _prepare(g, nd), "ind", stats)


def matching_polynomial(g, nd, stats=None):
    """Matchings of g by size: coeffs[k] = matchings with k edges."""
    plan = _prepare(g, nd)
    return _size_poly(nd, plan, "match", _run(nd, plan, "match", stats), stats)


def independence_polynomial(g, nd, stats=None):
    """Independent sets of g by size: coeffs[k] = sets of k vertices."""
    plan = _prepare(g, nd)
    return _size_poly(nd, plan, "ind", _run(nd, plan, "ind", stats), stats)


def entropy(poly):
    """Shannon entropy in bits of the normalized size distribution.

    ``H = -sum p_k log2 p_k`` with ``p_k = coeffs[k] / sum(coeffs)``; zero
    coefficients contribute nothing. Logarithms of the arbitrary-precision
    counts are taken directly, so totals far beyond float range are fine.
    """
    coeffs = list(poly)
    total = sum(coeffs)
    if total <= 0:
        raise ValueError("entropy of an all-zero polynomial is undefined")
    lg_total = math.log2(total)
    h = 0.0
    for c in coeffs:
        if c:
            p = c / total
            if p > 0.0:
                h -= p * (math.log2(c) - lg_total)
    return h


@dataclass
class RunReport:
    """Everything the five counters say about one graph/decomposition pair."""

    width: int
    node_count: int
    join_count: int
    perfect_matchings: int
    matchings: int
    independent_sets: int
    matching_poly: SizePolynomial
    independence_poly: SizePolynomial
    entropy_matchings: float
    entropy_independent_sets: float
    millis: dict

    def as_dict(self):
        return {
            "perfect_matchings": self.perfect_matchings,
            "matchings": self.matchings,
            "independent_sets": self.independent_sets,
            "matching_polynomial": self.matching_poly,
            "independence_polynomial": self.independence_poly,
            "entropy_matchings": self.entropy_matchings,
            "entropy_independent_sets": self.entropy_independent_sets,
        }


def run_all(g, nd, stats=None):
    """Run all five counters plus both entropies on one decomposition."""
    plan = _prepare(g, nd)
    millis = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        value = fn()
        millis[name] = (time.perf_counter() - t0) * 1000.0
        return value

    pm = timed("perfect_matchings", lambda: _run(nd, plan, "pm", stats))
    ma = timed("matchings", lambda: _run(nd, plan, "match", stats))
    ind = timed("independent_sets", lambda: _run(nd, plan, "ind", stats))
    mp = timed("matching_polynomial",
               lambda: _size_poly(nd, plan, "match", ma, stats))
    ip = timed("independence_polynomial",
               lambda: _size_poly(nd, plan, "ind", ind, stats))
    return RunReport(
        width=nd.width(),
        node_count=len(nd),
        join_count=nd.join_count(),
        perfect_matchings=pm,
        matchings=ma,
        independent_sets=ind,
        matching_poly=mp,
        independence_poly=ip,
        entropy_matchings=entropy(mp),
        entropy_independent_sets=entropy(ip),
        millis=millis,
    )
