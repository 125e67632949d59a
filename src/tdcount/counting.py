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
root holds P(2^B) exactly, and the B-bit slices of the root read the
coefficients back uniquely once every one of them is below 2^B. A
coefficient of the matching polynomial counts k-subsets of the m edges, one
of the independence polynomial k-subsets of the n vertices, so B =
max(m, 1) (max(n, 1)) always serves; the total is then the sum of the
coefficients and the polynomial takes one pass. The coefficients are
non-negative and sum to the total, so B = the total's bit length serves
too and makes every entry shorter, at the price of a plain pass for the
total first. One rule picks between them for ``run_all`` and both
polynomial counters: the one pass at B = m (n) wherever ``_bit_work``
predicts it below ``_FORK_WORK``, the two passes elsewhere. ``_family``
runs the passes the rule picks, for every caller.

In such a pass a join entry is a string of B-bit slots, and the two
children's entries can differ a lot in length: min-fill's caterpillar trees
join a short branch to a long spine, and a branch entry may hold small
coefficients in slots of a few hundred bits. Multiplying the integers whole
then spends most of its digit operations on zero padding. So a matching join
runs its one pair loop once per slot table, from the highest (Horner's
rule): before every slot but the first the output table is shifted left by
B bits, then each pair adds its slot entry times the other child's entry
into it. Where that takes fewer digit operations -- every coefficient of
the child with the shorter entries fits one int digit
(``sys.int_info.bits_per_digit``), its entries span two slots or more, and a
slot spans at least two digits -- the slot tables are that child's B-bit
coefficients, so each product has a one-digit factor and no accumulator
table is needed. Otherwise, plain passes included, the one slot table is the
sparser child whole. Products per join are counted once per combining pair.
The pointwise independent-set join keeps whole products: it does one product
per state, and there the split's per-slot shifts cost more than the padding.

The kernel never adds, shifts or stores through a zero term. CPython's int
addition copies the other operand when one is 0, so ``x + 0`` on an entry of
(n/2)·B bits costs as much as ``x + x``, and most cells of a shifted pass
are sums with zero terms. So a forget node keeps its first non-zero term by
reference and shifts and adds a paired or chosen term only where it is
non-zero, and a matching join stores a cell's first product rather than
adding it to 0. Coefficients are read back from the root by halving it at
slot boundaries, since peeling one B-bit slot at a time copies the rest of
the integer for every slot.

A shifted pass may be evaluated inside-outside (module ``insideout``), cut
at a node on its heavy path, the path from the root that follows at each
join the child below which more vertices are forgotten: the forward pass
builds the cut's subtree, the transposed ops carry an outside table from
the root down to the cut, and the answer is the dot product of the two
tables there. ``insideout._run_cut`` evaluates every pass cut below the
root, and takes the outside table from ``run_all``'s child where it has
one (below). So a join near the root of a min-fill tree, long spine times
short branch, becomes short times short. The cut is the argmin of a cost
predicted from the plan and B alone, before any table is built: cells
written and big-int products priced under CPython's schoolbook and
Karatsuba rules, in ``_bit_work`` units. The root is always a candidate,
and cut there the pass is the forward pass. A join-free chain keeps the
root: a cut there saves only additions on long entries, while the outside
forgets write twice the cells and the dot product multiplies long inside
entries by outside entries that grow as the cut goes down. The model
prices every such cut above the root, so a pass over a plan without a
join, like a plain pass and one with B × nodes below ``_CUT_MIN_WORK``, is
not priced. ``DpStats`` lists each join once per pass, in plan order, with
the products its pass performed, inside or outside.

Before counting, ``_prepare`` checks the decomposition -- its grammar
through ``decomposition._check_grammar``, which ``structure_violations``
reports too, then what needs the graph -- and compiles it into a plan of
per-node instructions. It is the only check of a decomposition against a
graph: ``make_nice`` and ``tdcount count --td`` leave it to this one. It
refuses a decomposition whose tables would take more than ``MAX_CELLS``
cells in one pass (Σ 2^|bag|) before any table is built; that is the
counters' width cap too, since no decomposition of width 23 or more fits
the budget. The plan is kept on the ``NiceDecomposition``, keyed by the
graph object, so every counter called on the same (graph, decomposition)
-- the three totals, both polynomials and ``run_all`` -- checks and
compiles it once.
Nice nodes are immutable, so a kept plan cannot go stale; another graph
object is checked afresh and its plan replaces the kept one.

``run_all`` needs two families of passes that share only the read-only
plan: the matching polynomial, after a Hosoya pass where the rule above
asks for one, and the independence polynomial, after a Merrifield-Simmons
pass likewise. Where the matching family takes two passes, ``os.fork``
exists, no second thread is alive and the CPU affinity holds two CPUs or
more, it forks one child before the Hosoya pass. The child computes the
independence family, in one pass or two, while the parent runs the Hosoya
pass. The
matching-polynomial pass is then the one cut pass of an in-process call,
given the child: the parent picks a cut on its heavy path
(``insideout._split_depth``), sends B and the cut through a second pipe
and builds the cut's subtree, while the child builds the off-path subtrees
above the cut and the outside walk down to it and marshals that outside
table back with its answers, join bags and times. The parent takes the dot
product. The in-process cut minimises the pass's own work, while this one
balances the two processes' shares, so it may sit deeper: on the 7x30 grid
at depth 59 of 246, against 29. A plan without a join, or one below
``_CUT_MIN_WORK``, keeps the root: the parent runs the pass whole and the
child only the family. If the child fails at any stage, the parent builds
the outside table and runs the family itself, as a call without a child
does. Answers are the same either way, and ``DpStats`` equals an
in-process call's with the matching-polynomial pass cut where the fork
split it: each join carries the products of the process that ran it.
``_bit_work(plan, B)`` is B × ``_bit_work(plan, 1)``, so one walk of the
plan, and none where an O(1) bound settles it, serves every gate.

All counts are exact arbitrary-precision integers.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
import time
from dataclasses import dataclass, field

from .decomposition import FORGET, INTRODUCE, JOIN, _check_grammar
from .errors import DecompositionMismatch, SizeLimitError

_LEAF, _INTRO, _FORGET, _JOIN = 0, 1, 2, 3
_DIGIT = sys.int_info.bits_per_digit
# peeling B-bit slots off an int of up to this many bits costs less than
# halving it first
_PEEL_BITS = 4096
# ``_bit_work`` below which a polynomial takes one shifted pass at B = m
# (n) and no total pass. Where the matching polynomial takes two passes,
# ``run_all`` forks a child for the independence family and part of the
# matching-polynomial pass. Forking and reaping cost the parent about
# 1.5 ms; min-fill on the 6x30 grid (3.3e8) spends about 18 ms in the
# independence family, on the 5x30 grid (1.05e8, one pass) 7 ms. On the
# min-fill k x 30 grids (CPython 3.11, x86-64) one pass at B = m beat the
# two passes at 0.46 × this (4x30) and broke even at 1.5 × (5x30); at
# B = n it beat them at 0.86 × (5x30) and broke even at 2.7 × (6x30)
_FORK_WORK = 1 << 27
# table cells (Σ 2^|bag| over the nodes) a decomposition may ask of one
# pass. A pass over a one-bag decomposition (no join, short entries) costs
# 80-190 ns a cell and run_all 270 ns (CPython 3.11, x86-64), so a request
# at the budget runs about 10 s, and its widest table, 2^23 cells, is a
# 64 MiB list. A nice decomposition of width w asks at least
# 3 × 2^(w+1) - 2 cells, so none of width 23 or more is admitted. The
# min-fill 7x30 grid asks 1.1 × 10^5, the min-fill order of the 5x16 grid
# taken as a path decomposition (width 28) 2.8 × 10^9: about 4 min of a
# plain pass, with 4 GiB tables
MAX_CELLS = 1 << 25
# B × plan nodes below which a shifted pass keeps the root cut unpriced.
# Pricing walks the heavy path at 2-3 µs a node (CPython 3.11, x86-64),
# which the cut must win back. The min-fill 3x30 and 4x30 grids reach
# 29,253 and 71,070 (matching, B = m); priced, their cuts saved nothing
# and pricing took 0.2-0.35 ms a pass against 0.3-2.7 ms passes. The 5x30
# grid's passes start at 98,328 (matching, B = the Hosoya bit length) and
# their cuts saved 1.6 and 0.75 ms for 0.57 and 0.36 ms of pricing
_CUT_MIN_WORK = 80_000


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
    # (bag size, multiplications performed) per join node of each pass, in
    # plan order; a pass cut below the root lists the joins it did outside
    # with the products of their transposes. A traced call lists the passes
    # it ran: a polynomial its total pass, if any, then its shifted pass;
    # run_all the Hosoya and Merrifield-Simmons passes that ran, then the
    # matching and independence polynomials' shifted passes
    join_bags: list = field(default_factory=list)


def _prepare(g, nd):
    """Check that nd describes g and compile it into per-node instructions.

    ``_check_grammar`` checks nd alone and gives each v's bag position.
    Here every introduced vertex must be in 0..n-1 and every vertex of g
    forgotten, which the grammar makes exactly once. With an empty root
    bag and no orphan node, an edge can then only be seen as a pair at the
    forget of its earlier endpoint, at most once, so counting pairs checks
    coverage.

    The same loop sums the cells the tables of one pass take, Σ 2^|bag|,
    and above ``MAX_CELLS`` it raises ``SizeLimitError`` before any table
    is built, whatever built nd. That caps the width at 22: a bag of w + 1
    vertices lies on a path of bags of every size from w + 1 down to the
    empty leaf and root bags, 3 × 2^(w+1) - 2 cells at least.
    """
    n = g.n
    adj = g._adj
    nodes = nd._nodes
    pos = _check_grammar(nodes)
    plan = [None] * len(nodes)
    forgets = 0
    pair_count = 0
    cells = 0

    for i, (bag, kind, v, children) in enumerate(nodes):
        w = len(bag)
        cells += 1 << w
        if kind == INTRODUCE:
            if v >= n:
                raise DecompositionMismatch(
                    f"introduced vertex {v} outside 0..{n - 1}"
                )
            nbrs = adj[v]
            nbr_mask = 0
            for q, u in enumerate(bag):
                if u in nbrs:
                    nbr_mask |= 1 << q
            plan[i] = (_INTRO, children[0], pos[i], nbr_mask, w)
        elif kind == FORGET:
            p = pos[i]
            forgets += 1
            nbrs = adj[v]
            pairs = tuple([
                (1 << q, 1 << (q if q < p else q + 1))
                for q, u in enumerate(bag)
                if u in nbrs
            ])
            pair_count += len(pairs)
            plan[i] = (_FORGET, children[0], p, pairs, w)
        elif kind == JOIN:
            c1, c2 = children
            plan[i] = (_JOIN, c1, c2, w, (1 << w) - 1)
        else:
            plan[i] = (_LEAF,)

    if forgets != n:
        forgotten = {node.v for node in nd.nodes if node.kind == FORGET}
        missing = [v for v in range(n) if v not in forgotten]
        raise DecompositionMismatch(
            f"vertices {missing} not forgotten exactly once"
        )
    if pair_count != g.m:
        seen = {
            (min(node.v, u), max(node.v, u))
            for node in nd.nodes if node.kind == FORGET
            for u in node.bag if u in g.neighbors(node.v)
        }
        stray = sorted(g.edges - seen)
        raise DecompositionMismatch(f"edges {stray} not covered by any bag")
    if cells > MAX_CELLS:
        raise SizeLimitError(
            f"decomposition predicts {cells} table cells per pass, over the"
            f" budget of {MAX_CELLS}"
        )
    return plan


def _below(plan):
    """Vertices forgotten below each node of plan, the node included."""
    below = [0] * len(plan)
    for i, op in enumerate(plan):
        code = op[0]
        if code == _JOIN:
            below[i] = below[op[1]] + below[op[2]]
        elif code != _LEAF:
            below[i] = below[op[1]] + (code == _FORGET)
    return below


def _width(op):
    """Bag size of a plan op's node."""
    code = op[0]
    return op[3] if code == _JOIN else 0 if code == _LEAF else op[4]


def _bit_work(plan, bits):
    """Predicted bit work of a shifted pass over plan with B = bits.

    A cell at a node below which f vertices are forgotten (the node
    included) holds a size polynomial of degree at most f at x = 2^B. Each
    of its coefficients counts partial structures that are distinct
    structures of the whole graph, all of one size, so it is below 2^B,
    and the cell has at most B × (f + 1) bits. The unit is that bound
    summed over the cells of a pass cut at the root,
    B × Σ over nodes of 2^|bag| × (f + 1).
    """
    below = _below(plan)
    return bits * sum((below[i] + 1) << _width(op)
                      for i, op in enumerate(plan))


def _unit_work(plan, n, width, bits):
    """``_bit_work(plan, 1)``, walked only where bits needs it.

    Where bits × the O(1) bound nodes × (n + 1) × 2^(width + 1) on it is
    below ``_FORK_WORK``, the bound is returned instead: every gate at
    bits or fewer then passes as it would on the walked value.
    """
    bound = (len(plan) * (n + 1)) << (width + 1)
    return bound if bits * bound < _FORK_WORK else _bit_work(plan, 1)


def _plan_for(g, nd):
    """The plan of ``_prepare(g, nd)``, checked once per decomposition.

    nd keeps the plan of the last graph object it was prepared for, and
    every counter on the same (g, nd) reuses it: nodes are immutable, so it
    cannot go stale. Another graph object, equal or not, is prepared and
    checked afresh and its plan replaces the old one. A failed ``_prepare``
    stores nothing, so the same mismatch raises on every call.
    """
    memo = nd._plan
    if memo is not None and memo[0] is g:
        return memo[1]
    plan = _prepare(g, nd)
    nd._plan = (g, plan)
    return plan


def _join_slots(t1, nz1, t2, nz2, shift):
    """Slot tables of a matching join: (whether they stand for t1, tables).

    B = shift (0 in a plain pass); nz1 and nz2 list the non-zero states of
    tables t1 and t2, nz1 the shorter list. The child with the shorter
    entries is split into its B-bit coefficients: table j holds coefficient
    j of each of its non-zero entries (0 elsewhere), lowest slot first. The
    split needs two slots or more, slots of at least two int digits, and
    every coefficient within one digit, so that each slot costs one
    one-digit product per pair. Where it would not, it costs no fewer digit
    operations than multiplying whole entries, and the one table is t1
    whole: the one-slot case.
    """
    whole = True, [t1]
    if shift < 2 * _DIGIT or not nz1:
        return whole
    top1 = max(t1[a] for a in nz1)
    top2 = max(t2[b] for b in nz2)
    narrow_first = top1 <= top2
    t, nz, top = (t1, nz1, top1) if narrow_first else (t2, nz2, top2)
    count = -(-top.bit_length() // shift)
    if count < 2:
        return whole
    mask = (1 << shift) - 1
    slots = [[0] * len(t) for _ in range(count)]
    for s in nz:
        x = t[s]
        j = 0
        while x:
            c = x & mask
            if c >> _DIGIT:
                return whole
            slots[j][s] = c
            x >>= shift
            j += 1
    return narrow_first, slots


def _priced(plan, shift):
    """Whether a pass at B = shift over plan is priced for a cut: B ×
    nodes reaches ``_CUT_MIN_WORK``, so a plain pass (B = 0) is not, and
    plan has a join."""
    return shift * len(plan) >= _CUT_MIN_WORK and any(
        op[0] == _JOIN for op in plan)


def _record(stats, joins):
    """Add a pass's joins, a map of node to (bag size, products), to
    stats in plan order."""
    stats.join_nodes += len(joins)
    stats.join_bags += [joins[i] for i in sorted(joins)]


def _add_passes(stats, passes):
    """Add the join bags of each of passes, in order, to stats."""
    for bags in passes:
        stats.join_nodes += len(bags)
        stats.join_bags += bags


def _run(plan, mode, stats, shift=0, child=None):
    """The one DP traversal behind all five counters.

    mode: 'pm' (perfect matchings), 'match' (all matchings), 'ind'
    (independent sets). With ``shift`` = B > 0 every table entry is its size
    polynomial evaluated at x = 2^B: forget nodes commit size by shifting.

    A pass that is not ``_priced`` runs forward to the root. Any other is
    cut on its heavy path at the least predicted work
    (``insideout._cut_work``), or given a forked ``_Child``, where the two
    processes' shares balance (``insideout._split_depth``). A child is
    sent B and the depth, 0 included. ``insideout._run_cut`` evaluates a
    pass cut below the root.
    """
    depth = 0
    if _priced(plan, shift):
        from . import insideout
        if child is None:
            _, work = insideout._cut_work(plan, mode, shift)
            depth = min(range(len(work)), key=work.__getitem__)
        else:
            depth = insideout._split_depth(plan, shift)
    if child is not None:
        child.send(shift, depth)
    joins = None if stats is None else {}
    if depth:
        value = insideout._run_cut(plan, mode, joins, shift, depth, child)
    else:
        value = _inside(plan, mode, joins, shift, ())[-1][0]
    if joins is not None:
        _record(stats, joins)
    return value


def _inside(plan, mode, joins, shift, skip, tables=None):
    """Tables of the forward pass over every node not in ``skip``.

    skip holds nodes whose tables are built elsewhere or not at all: the
    heavy-path nodes over a cut, and for one side of a split pass the
    nodes of the other side. tables is the list to fill, one slot per
    node, a new one by default. A node's table is set to None once its
    parent is built, so what is left is the root's (skip empty) or the
    tables the skipped nodes would read: the cut's and those of the path's
    off-path join children. joins, unless None, maps each join built to
    its (bag size, products).
    """
    if tables is None:
        tables = [None] * len(plan)
    nodes = enumerate(plan)
    if skip:
        skip = set(skip)
        nodes = [(i, op) for i, op in nodes if i not in skip]
    is_ind = mode == "ind"
    is_match = mode == "match"
    for i, op in nodes:
        code = op[0]
        if code == _LEAF:
            tables[i] = [1]
        elif code == _INTRO:
            _, c, p, nbr_mask, w = op
            child = tables[c]
            out = [0] * (1 << w)
            # the child state cm is base = cm + (cm & high) here: its bits
            # from position p up move up one, which leaves bit p clear
            bit = 1 << p
            high = -bit
            if is_ind:
                for cm, val in enumerate(child):
                    if val:
                        base = cm + (cm & high)
                        out[base] = val
                        if not base & nbr_mask:
                            out[base | bit] = val
            else:
                for cm, val in enumerate(child):
                    if val:
                        out[(cm + (cm & high)) | bit] = val
            tables[i] = out
            tables[c] = None
        elif code == _FORGET:
            _, c, p, pairs, w = op
            child = tables[c]
            out = [0] * (1 << w)
            bit = 1 << p
            high = -bit
            if is_ind:
                # forgetting a chosen vertex commits it: one factor of x.
                # A set stays independent without v, so val is non-zero
                # wherever y is.
                for m in range(1 << w):
                    base = m + (m & high)
                    val = child[base]
                    y = child[base | bit]
                    out[m] = val + (y << shift) if y else val
            else:
                for m in range(1 << w):
                    base = m + (m & high)
                    val = child[base]
                    if is_match:
                        y = child[base | bit]
                        if y:
                            val = val + y if val else y
                    # each pair edge v-u joins the matching here: one factor of x
                    paired = 0
                    for pbit, cbit in pairs:
                        if not m & pbit:
                            y = child[base | bit | cbit]
                            if y:
                                paired = paired + y if paired else y
                    if paired:
                        paired <<= shift
                        val = val + paired if val else paired
                    out[m] = val
            tables[i] = out
            tables[c] = None
        else:  # _JOIN
            _, c1, c2, w, full = op
            t1 = tables[c1]
            t2 = tables[c2]
            out = [0] * (1 << w)
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
                # Horner's rule over the slot tables, highest first: out =
                # out * 2^B + slot entry times the other child's entry, over
                # the same pairs for every slot, so products counts one slot
                narrow_first, slots = _join_slots(t1, nz1, t2, nz2, shift)
                for k, cj in enumerate(reversed(slots)):
                    if k:
                        for m, o in enumerate(out):
                            if o:
                                out[m] = o << shift
                    v1, v2 = (cj, t2) if narrow_first else (t1, cj)
                    products = 0
                    for a in nz1:
                        x = v1[a]
                        # a vertex of a that child 2 cannot match stays
                        # unmatched
                        var = a & live2
                        forced = a ^ var
                        base = full ^ var
                        h = var
                        while True:
                            b = base | h
                            if t2[b]:
                                products += 1
                                y = v2[b]
                                if x and y:
                                    k = forced | h
                                    o = out[k]
                                    out[k] = o + x * y if o else x * y
                            if h == 0:
                                break
                            h = (h - 1) & var
            tables[i] = out
            if joins is not None:
                joins[i] = (w, products)
            tables[c1] = tables[c2] = None
    return tables


def _coefficients(value, bits):
    """The base-2^bits digits of value >= 0, lowest first; [] for 0.

    Peeling one slot at a time (mask, then shift right) copies the rest of
    the integer for every slot, which is quadratic in its length. So a value
    longer than ``_PEEL_BITS`` is first halved at a slot boundary, each
    level of halving copying it once, and only parts that short are peeled.
    """
    length = value.bit_length()
    if length > _PEEL_BITS and length > bits:
        half = -(-length // bits) // 2
        low = _coefficients(value & ((1 << half * bits) - 1), bits)
        high = _coefficients(value >> half * bits, bits)
        return low + [0] * (half - len(low)) + high
    mask = (1 << bits) - 1
    coeffs = []
    while value:
        coeffs.append(value & mask)
        value >>= bits
    return coeffs


def _polynomial(g, nd, mode, stats):
    """mode's size polynomial, with the slot width rule of ``run_all``.

    One shifted pass at B = m (matching) or B = n (independence) where it
    predicts less than ``_FORK_WORK``; elsewhere a plain pass first, and B
    = its total's bit length (``_family``).
    """
    plan = _plan_for(g, nd)
    bits = max(g.m if mode == "match" else g.n, 1)
    if bits * _unit_work(plan, g.n, nd.width(), bits) >= _FORK_WORK:
        bits = None
    _, coeffs, bags, _ = _family(plan, mode, stats is not None, bits)
    if stats is not None:
        _add_passes(stats, bags)
    return SizePolynomial(coeffs)


def count_perfect_matchings(g, nd, stats=None):
    """Number of perfect matchings (Kekulé structures) of g."""
    return _run(_plan_for(g, nd), "pm", stats)


def count_matchings(g, nd, stats=None):
    """Hosoya index: number of matchings of g, the empty one included."""
    return _run(_plan_for(g, nd), "match", stats)


def count_independent_sets(g, nd, stats=None):
    """Merrifield-Simmons index: number of independent sets, counting the
    empty set."""
    return _run(_plan_for(g, nd), "ind", stats)


def matching_polynomial(g, nd, stats=None):
    """Matchings of g by size: coeffs[k] = matchings with k edges."""
    return _polynomial(g, nd, "match", stats)


def independence_polynomial(g, nd, stats=None):
    """Independent sets of g by size: coeffs[k] = sets of k vertices."""
    return _polynomial(g, nd, "ind", stats)


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
    """Everything the five counters say about one graph/decomposition pair.

    ``millis`` has an entry for each of the five counts: the elapsed
    milliseconds of its pass, or of reading it off a polynomial where it
    had none (the perfect matchings always, a total whose polynomial took
    one pass). Where ``run_all`` split the matching-polynomial pass with
    its child, that entry runs from sending the cut to reading the
    coefficients, the wait for the child's outside table included.
    """

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


def _fork_pays():
    """Whether this process may fork ``run_all``'s child and gain by it:
    POSIX fork, no second thread alive, two CPUs of affinity or more."""
    # tdcount does not import threading, which would add to every start-up:
    # a process that never imported it started no thread through it
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (
            threading is not None and threading.active_count() > 1):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _timed(millis, name, fn):
    """fn(), with its elapsed milliseconds stored as millis[name]."""
    t0 = time.perf_counter()
    value = fn()
    millis[name] = (time.perf_counter() - t0) * 1000.0
    return value


def _family(plan, mode, traced, bits=None, child=None):
    """mode's total and size polynomial: Hosoya and the matching
    polynomial ('match'), or Merrifield-Simmons and the independence one.

    Given bits, one shifted pass at B = bits gives the coefficients and
    the total is read off as their sum; else the plain pass gives the
    total and the shifted pass runs at B = its bit length, given child
    (``_run``). Returns (total, coefficients lowest first, the join bags
    of each pass in order or None unless traced, millis): both entries'
    elapsed milliseconds under ``RunReport.millis`` names, the read-off's
    where it had no pass. ``marshal`` carries all of it.
    """
    total_name, poly_name = (
        ("matchings", "matching_polynomial") if mode == "match"
        else ("independent_sets", "independence_polynomial"))
    bags = [] if traced else None

    def run(shift, child=None):
        stats = None
        if traced:
            stats = DpStats()
            bags.append(stats.join_bags)
        return _run(plan, mode, stats, shift, child)

    millis = {}
    total = None
    if bits is None:
        total = _timed(millis, total_name, lambda: run(0))
        bits = total.bit_length()
    coeffs = _timed(millis, poly_name,
                    lambda: _coefficients(run(bits, child), bits))
    if total is None:
        total = _timed(millis, total_name, lambda: sum(coeffs))
    return total, coeffs, bags, millis


class _Child:
    """A forked child: the independence family (``_family``), then the
    outside table of the matching-polynomial pass once the parent's
    ``_run`` sends B and the cut, none at depth 0.

    Two pipes join it to the parent: the parent writes B and the depth to
    one as two decimal numbers, the child its marshalled (family, outside
    table, joins) to the other; ``insideout._run_cut`` reads the outside
    table and joins, ``run_all`` the family. The child always leaves
    through ``os._exit``: 0 once its result is written, 1 on any
    exception, EOF on the cut pipe included, which the parent meets again
    where it computes the same parts itself.
    """

    def __init__(self, plan, traced, ind_bits):
        """Fork; raises OSError, with no pipe left open, if the pipes or
        the fork fail. ind_bits is the independence family's B, as
        ``_family`` takes it."""
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        r, w, cut_r, cut_w = fds
        if pid == 0:
            code = 1
            try:
                os.close(r)
                os.close(cut_w)
                family = _family(plan, "ind", traced, ind_bits)
                with open(cut_r, "rb") as pipe:
                    bits, depth = map(int, pipe.read().split())
                joins = {} if traced else None
                outside = None
                if depth:
                    from .insideout import _cut, _outside_part
                    outside = _outside_part(plan, "match", joins, bits,
                                            *_cut(plan, depth))
                with open(w, "wb") as pipe:
                    pipe.write(marshal.dumps((family, outside, joins)))
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        os.close(cut_r)
        self.pid, self.r, self.cut_w = pid, r, cut_w
        self.result = None

    def send(self, bits, depth):
        """Send B and the cut depth; a child that is gone reads nothing."""
        try:
            os.write(self.cut_w, b"%d %d" % (bits, depth))
        except BrokenPipeError:
            pass
        self.close_cut()

    def close_cut(self):
        if self.cut_w is not None:
            os.close(self.cut_w)
            self.cut_w = None

    def join(self):
        """The child's (family, outside, joins), or None if it failed.

        Closes the cut pipe, so a child still waiting for the cut fails,
        and reads the result pipe to its end before reaping, since a child
        with more to write than the pipe holds cannot exit; it is reaped
        even if the read fails. Later calls return the first one's result.
        """
        if self.pid is not None:
            self.close_cut()
            try:
                with open(self.r, "rb") as pipe:
                    data = pipe.read()
            finally:
                _, status = os.waitpid(self.pid, 0)
                self.pid = None
            if status == 0:
                self.result = marshal.loads(data)
        return self.result


def run_all(g, nd, stats=None):
    """All five counts plus both entropies on one decomposition.

    Each polynomial takes one shifted pass. Where that pass at B = m
    (matching) or B = n (independence) predicts less than ``_FORK_WORK``,
    it is the polynomial's only pass and its total, Hosoya or
    Merrifield-Simmons, is the sum of its coefficients. Elsewhere a plain
    pass computes the total first and the shifted pass runs at B = its bit
    length. The perfect matchings are read off the matching polynomial.

    Where the matching polynomial takes two passes and ``_fork_pays``
    (POSIX fork, no second thread, two CPUs or more), one child is forked
    before the Hosoya pass. It computes the Merrifield-Simmons total and
    the independence polynomial, in one pass or two, while this process
    runs the Hosoya pass. The
    matching-polynomial pass is then split at a cut of its heavy path: this
    process builds the cut's subtree, the child the rest of the pass down
    to the cut, and this process takes the dot product. A plan without a
    join, or too small to price, is not split: this process runs the pass
    whole. Split or not, the pass is the one ``_run`` of an in-process
    call, given the child. The child sends its results back through a pipe
    and is always reaped before this returns. If the child fails, this
    process builds the outside table and runs the family as a call without
    a child does, so an error in the family is raised here. Answers are
    the same either way. The join bags of a traced call list the passes
    that ran in the order Hosoya, Merrifield-Simmons, matching polynomial,
    independence polynomial; each join of a split pass carries the
    products of the process that ran it, so a forked call's bags are an
    in-process call's with the matching-polynomial pass cut at the split
    (``insideout._split_depth``) rather than at the in-process cut.

    ``millis`` holds each of the five counts' elapsed milliseconds: a
    pass's, or for a count read off a polynomial, the read-off's. Entries
    the child computed are its own elapsed times, so in a forked call they
    overlap the Hosoya and matching-polynomial passes and the entries may
    add up to more than the call took. In a split call the
    matching-polynomial entry includes the wait for the child's outside
    table.
    """
    plan = _plan_for(g, nd)
    width = nd.width()
    n = g.n
    traced = stats is not None
    match_bits = max(g.m, 1)
    ind_bits = max(n, 1)
    unit = _unit_work(plan, n, width, max(match_bits, ind_bits))
    # None: the family's total pass sets B
    if match_bits * unit >= _FORK_WORK:
        match_bits = None
    if ind_bits * unit >= _FORK_WORK:
        ind_bits = None
    child = None
    if match_bits is None and _fork_pays():
        if any(op[0] == _JOIN for op in plan):
            # imported before the fork, so both processes share it
            from . import insideout  # noqa: F401
        try:
            child = _Child(plan, traced, ind_bits)
        except OSError:
            pass
    try:
        ma, mp_coeffs, match_bags, millis = _family(
            plan, "match", traced, match_bits, child)
    finally:
        result = None if child is None else child.join()
    ind, ip_coeffs, ind_bags, ind_millis = (
        result[0] if result else _family(plan, "ind", traced, ind_bits))
    mp = SizePolynomial(mp_coeffs)
    ip = SizePolynomial(ip_coeffs)
    # a perfect matching is a matching of n/2 edges: no pass of its own
    pm = _timed(millis, "perfect_matchings",
                lambda: 0 if n % 2 else mp[n // 2])
    millis.update(ind_millis)
    if traced:
        _add_passes(stats, (*match_bags[:-1], *ind_bags[:-1],
                            match_bags[-1], ind_bags[-1]))
    return RunReport(
        width=width,
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
