"""Counting dynamic programs over nice decompositions.

Five counters share one bag-local state machine: a table per decomposition
node maps subsets of the bag (as bitmasks over its layout, below) to counts.

State semantics per counter, for node b with bag X and subset M:

* perfect matchings -- matchings of ``G_b \\ M`` covering every vertex below b
  except M, every matching edge having an endpoint outside X. Vertices in M
  are left for the part of the graph above b.
* matchings -- same edge discipline, but only the vertices of ``X \\ M`` are
  required to be covered; M marks bag vertices currently unmatched.
* independent sets -- independent sets I of the graph below b with
  ``I ∩ X = M``.

Each node lays its bag out in introduction order: bit q of a state stands
for the q-th vertex of its layout. An introduced vertex takes the top bit,
a forget closes the gap its vertex leaves, and a join keeps its second
child's layout. So an introduce copies its child's table into two halves,
the states without the new vertex first: ``[0] * len(child) + child`` for
(perfect) matchings, where the new vertex is left for above, and for
independent sets the child's table, then a copy of it zeroed wherever a
neighbour of the new vertex is chosen. The two children of a join hold the
same bag but may have introduced it in different orders; the plan holds a
state map from the first child's layout into the second's (``_prepare``),
and a join moves the first child's non-zero entries through it.

Joins for (perfect) matchings split the covered bag vertices between the two
subtrees: child states a and b combine iff ``a | b`` is the whole bag, into
state ``a & b``. The join visits only non-zero entries of the sparser child
and, for each, only the states of the other child that can combine with it
and match no bag vertex that other child never matches: it walks those
subsets, or where the other child has fewer non-zero states, scans them.
Its work is the number of combining pairs of non-zero entries, at most
3^|bag|; a child branch that ``make_nice`` grew to the join bag by
introductions leaves those fresh vertices unmatched, so most pairs are
never visited. Joins for independent sets multiply tables pointwise.

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
total first. ``_slot_bits`` is the one rule that picks between them, and
``_family`` runs the passes it picks, for every caller.

In such a pass a join entry is a string of B-bit slots, and the two
children's entries can differ a lot in length: min-fill's caterpillar trees
join a short branch to a long spine, and a branch entry may hold small
coefficients in slots of a few hundred bits. Multiplying the integers whole
then spends most of its digit operations on zero padding. So one routine,
``_match_join``, does every matching join, the forward one here and its
transpose in ``insideout``'s outside walk alike, and runs its one pair loop
once per slot table, from the highest (Horner's rule): before every slot but
the first the output table is shifted left by B bits, then each pair adds
its slot entry times the other operand's entry into it, and a row whose
slot entry is 0 is skipped. Where that takes fewer digit operations --
every coefficient of the operand with the shorter entries fits one int
digit (``sys.int_info.bits_per_digit``), its entries span two slots or
more, and a slot spans at least two digits -- the slot tables are that
operand's B-bit coefficients (``_join_slots``), so each product has a
one-digit factor and no accumulator table is needed. Otherwise, plain
passes included, the one slot table is the operand the loop iterates,
whole. Products are counted once per combining pair, and only in a traced
pass. The pointwise independent-set join keeps whole products: it does one
product per state, and there the split's per-slot shifts cost more than the
padding.

The kernel never adds, shifts or stores through a zero term. CPython's int
addition copies the other operand when one is 0, so ``x + 0`` on an entry of
(n/2)·B bits costs as much as ``x + x``, and most cells of a shifted pass
are sums with zero terms. So a forget node keeps its first non-zero term by
reference and shifts and adds a paired or chosen term only where it is
non-zero, and a matching join stores a cell's first product rather than
adding it to 0. Coefficients are read back from the root by halving it at
slot boundaries, since peeling one B-bit slot at a time copies the rest of
the integer for every slot.

A shifted pass may be evaluated inside-outside, cut at a node of its heavy
path; module ``insideout`` states the one rule that picks the cut and
which passes it prices. A pass has that one cut whether ``run_all``'s
child builds its outside part or this process does. ``DpStats`` lists
each join once per pass, in plan order, with the products its pass
performed, inside or outside.

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

``run_all`` runs the two families, which share only the read-only plan,
and may fork one child to run them at once; its docstring describes the
fork.

All counts are exact arbitrary-precision integers.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
import time
from dataclasses import dataclass, field
from operator import mul

from .decomposition import FORGET, INTRODUCE, JOIN, _check_grammar
from .errors import DecompositionMismatch, SizeLimitError

_LEAF, _INTRO, _FORGET, _JOIN = 0, 1, 2, 3
_DIGIT = sys.int_info.bits_per_digit
# peeling B-bit slots off an int of up to this many bits costs less than
# halving it first
_PEEL_BITS = 4096
# ``_bit_work`` threshold of the slot-width rule (``_slot_bits``), which
# thereby also decides which pass is priced for a cut and whether
# ``run_all`` forks. Forking and reaping cost the parent about 1.5 ms;
# min-fill on the 6x30 grid (3.3e8) spends about 18 ms in the independence
# family, on the 5x30 grid (1.05e8, one pass) 7 ms. On the min-fill k x 30
# grids (CPython 3.11, x86-64) one pass at B = m beat the two passes at
# 0.46 × this (4x30) and broke even at 1.5 × (5x30); at B = n it beat them
# at 0.86 × (5x30) and broke even at 2.7 × (6x30). A cut of a one-pass
# polynomial does not pay for its pricing: on the 3x30 and 4x30 grids it
# saved nothing for 0.2-0.35 ms a pass, and the 5x30 grid's independence
# polynomial took 3.6 ms cut and 3.0 ms uncut (min of 8 processes of 41
# calls)
_FORK_WORK = 1 << 27
# table cells (Σ 2^|bag| over the nodes) a decomposition may ask of one
# pass. A pass over a one-bag decomposition (no join, short entries) costs
# 80-190 ns a cell and run_all 270 ns (CPython 3.11, x86-64), so a request
# at the budget runs about 10 s, and its widest table, 2^23 cells, is a
# 64 MiB list. A nice decomposition of width w asks at least
# 3 × 2^(w+1) - 2 cells, so none of width 23 or more is admitted. The
# min-fill 7x30 grid asks 1.1 × 10^5, the min-fill order of the 5x16 grid
# taken as a path decomposition (width 28) 2.8 × 10^9: about 4 min of a
# plain pass, with 4 GiB tables. ``chain`` holds its dense transition
# matrix to the same budget
MAX_CELLS = 1 << 25


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
    # with the products of their transposes, which pair only child states
    # the inside table can reach, whichever process built them, so a
    # forked run_all lists what a serial one does. A traced call lists the
    # passes it ran: a polynomial its total pass, if any, then its shifted
    # pass; run_all the Hosoya and Merrifield-Simmons passes that ran,
    # then the matching and independence polynomials' shifted passes
    join_bags: list = field(default_factory=list)


def _prepare(g, nd):
    """Check that nd describes g and compile it into per-node instructions.

    ``_check_grammar`` checks nd alone. Here every introduced vertex must
    be in 0..n-1 and every vertex of g forgotten, which the grammar makes
    exactly once. With an empty root bag and no orphan node, an edge can
    then only be seen as a pair at the forget of its earlier endpoint, at
    most once, so counting pairs checks coverage.

    Bit q of a node's states stands for vertex q of its layout, the bag in
    introduction order (module docstring): an introduce appends its vertex,
    a forget removes its own, and a join takes its second child's layout.
    Every op ends with its node's bag size w: ``(_LEAF, 0)``, ``(_INTRO,
    child, neighbour mask, w)``, ``(_FORGET, child, p, pairs, w)`` and
    ``(_JOIN, c1, c2, state map, w)``. The introduced vertex takes bit
    w - 1, and the neighbour mask marks its neighbours among bits 0..w-2; p
    is the forgotten vertex's bit in the child's layout. A join's state map
    is None where its children lay the bag out alike, else ``_state_map``
    of the bit permutation from c1's layout into c2's, built once per
    permutation. So ``op[-1]`` reads the bag size for every kind.

    The same loop sums the cells the tables of one pass take, Σ 2^|bag|,
    and above ``MAX_CELLS`` it raises ``SizeLimitError`` before any table
    is built, whatever built nd. That caps the width at 22: a bag of w + 1
    vertices lies on a path of bags of every size from w + 1 down to the
    empty leaf and root bags, 3 × 2^(w+1) - 2 cells at least.
    """
    n = g.n
    adj = g._adj
    nodes = nd._nodes
    _check_grammar(nodes)
    plan = [None] * len(nodes)
    # each node's layout; a node's one parent takes its list over
    layouts = [None] * len(nodes)
    # the state map of each bit permutation met at a join
    state_maps = {}
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
            layout = layouts[children[0]]
            nbrs = adj[v]
            nbr_mask = 0
            for q, u in enumerate(layout):
                if u in nbrs:
                    nbr_mask |= 1 << q
            layout.append(v)
            plan[i] = (_INTRO, children[0], nbr_mask, w)
        elif kind == FORGET:
            layout = layouts[children[0]]
            p = layout.index(v)
            del layout[p]
            forgets += 1
            nbrs = adj[v]
            pairs = tuple([
                (1 << q, 1 << (q if q < p else q + 1))
                for q, u in enumerate(layout)
                if u in nbrs
            ])
            pair_count += len(pairs)
            plan[i] = (_FORGET, children[0], p, pairs, w)
        elif kind == JOIN:
            c1, c2 = children
            layout = layouts[c2]
            smap = None
            if layout != layouts[c1]:
                perm = tuple(map(layout.index, layouts[c1]))
                smap = state_maps.get(perm)
                if smap is None:
                    smap = state_maps[perm] = _state_map(perm)
            plan[i] = (_JOIN, c1, c2, smap, w)
        else:
            layout = []
            plan[i] = (_LEAF, 0)
        layouts[i] = layout

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


def _state_map(perm):
    """The state map of bit permutation perm: per state r, the state with
    bit perm[j] set for each bit j set in r, as ``bytes`` (``_join_map``
    reads it).

    Each state is one word of native byte order, 1 byte wide up to 8 bits,
    2 up to 16, else 4. The 81 joins of the min-fill 7x30 grid map 22,080
    states through 35 distinct maps of 9,280; as int objects they would
    add to the peak memory of every request, and importing ``array`` alone
    adds 0.6 MB to a process. The map is built as one int holding every
    word: each bit of perm doubles the words, the new half the old with
    the bit added to every word.
    """
    w = len(perm)
    size = 1 if w <= 8 else 2 if w <= 16 else 4
    word = 8 * size
    # the bytes of a word run the other way on a big-endian host
    swap = 8 * (size - 1) if sys.byteorder == "big" else 0
    table, ones = 0, 1
    for t, j in enumerate(perm):
        shift = word << t
        table |= (table + (ones << (j ^ swap))) << shift
        ones |= ones << shift
    return table.to_bytes(size << w, "little")


def _join_map(op):
    """Join op's state map (``_state_map``) as a sequence of ints, or None
    where its children lay the bag out alike."""
    smap = op[3]
    if smap is not None and len(smap) > 1 << op[-1]:
        return memoryview(smap).cast("H" if len(smap) == 2 << op[-1] else "I")
    return smap


def _in_join_layout(t, smap):
    """Table t of a join's first child in the join's layout: with smap the
    join's state map, the child's state r is the join's state smap[r]."""
    out = [0] * len(t)
    for m, y in zip(smap, t):
        if y:
            out[m] = y
    return out


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
    return bits * sum((below[i] + 1) << op[-1] for i, op in enumerate(plan))


def _slot_bits(plan, g, width, modes):
    """The slot-width rule: per mode, B of its family's one shifted pass,
    or None where the family takes two passes (``_family``).

    A polynomial takes one shifted pass at B = max(m, 1) ('match') or
    max(n, 1) ('ind') where ``_bit_work`` predicts that pass below
    ``_FORK_WORK``, and its total, Hosoya or Merrifield-Simmons, is the sum
    of its coefficients. Elsewhere a plain pass computes the total first
    and the shifted pass runs at B = its bit length, which makes every
    entry shorter. That shifted pass is the only one ``_run`` prices for a
    cut (``insideout``), and where the matching family takes two passes
    ``run_all`` forks.

    ``_bit_work(plan, B)`` is B × ``_bit_work(plan, 1)``, so one walk of
    the plan serves every mode. Where the largest B times the O(1) bound
    nodes × (n + 1) × 2^(width + 1) on the latter is below ``_FORK_WORK``,
    every mode takes one pass and the plan is not walked.
    """
    n = g.n
    bits = [max(g.m if mode == "match" else n, 1) for mode in modes]
    unit = (len(plan) * (n + 1)) << (width + 1)
    if max(bits) * unit >= _FORK_WORK:
        unit = _bit_work(plan, 1)
    return [b if b * unit < _FORK_WORK else None for b in bits]


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
    tables t1 and t2, t1 the table ``_match_join`` iterates. The table
    with the shorter entries is split into its B-bit coefficients: table j
    holds coefficient j of each of its non-zero entries (0 elsewhere),
    lowest slot first. The split needs two slots or more, slots of at least
    two int digits, and every coefficient within one digit, so that each
    slot costs one one-digit product per pair. Where it would not, it costs
    no fewer digit operations than multiplying whole entries, and the one
    table is t1 whole: the one-slot case.
    """
    whole = True, [t1]
    if shift < 2 * _DIGIT or not nz1 or not nz2:
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


def _match_join(p, q, w, shift, flip, traced, smap=None, dead=0):
    """The one matching join of both directions: (out, products).

    out[(s ^ flip) ^ h] sums p[s] × q[(full ^ flip) ^ h] over the non-zero
    p[s] and every h within s, for full the w-bit bag. With flip = 0 that
    is the forward join of children p and q: a and b combine iff a | b is
    full, into a & b (h = full ^ b). With flip = full it is its transpose,
    applied to the outside table q with the sibling's inside table p held
    fixed: the child state (full ^ b) | h takes p[b] × q[h]. Given the
    join's state map smap, p is laid out as the join's first child, and
    only its non-zero entries are moved into the join's layout. Forward,
    the children commute, so p is the sparser one. h stays within the bag
    vertices q's non-zero states allow.

    A row s walks the 2^|s & live| such h. Forward, where q has fewer
    non-zero states than that, the row scans them instead, taking each r
    with ``s | r == full`` into ``s & r``: the same pairs. A transposed
    row always walks. Given dead, the bag vertices the child's inside
    table always leaves for above (in the join's layout), it walks only
    the h holding dead & s, so it writes only child states holding dead,
    and a row whose walk lacks one of those bits is skipped. The pair loop
    runs once per ``_join_slots`` table, highest slot first (Horner's
    rule), shifting out left by B bits before every slot but the first; a
    row whose slot coefficient is 0 is skipped. products, the pairs of
    non-zero entries the rows combine, is counted once by walking, and
    only where traced; else it is None.
    """
    nzp = [s for s, x in enumerate(p) if x]
    if smap is not None:
        mapped = [0] * len(p)
        for s in nzp:
            mapped[smap[s]] = p[s]
        p = mapped
        nzp = [smap[s] for s in nzp]
    nzq = [r for r, y in enumerate(q) if y]
    if not flip and len(nzq) < len(nzp):
        p, q, nzp, nzq = q, p, nzq, nzp
    full = (1 << w) - 1
    qbase = full ^ flip
    live = 0
    for r in nzq:
        live |= r ^ qbase
    # a forward row s scans nzq once |s & live| reaches this, that is once
    # it has more subsets to walk than nzq has states
    scan_from = w + 1 if flip else len(nzq).bit_length()
    out = [0] * (1 << w)
    p_first, slots = _join_slots(p, nzp, q, nzq, shift)
    if dead:
        # a transposed row's h must hold dead & s: skip the rows whose walk
        # cannot
        nzp = [s for s in nzp if not s & dead & ~live]
    for k, cj in enumerate(reversed(slots)):
        if k:
            for m, o in enumerate(out):
                if o:
                    out[m] = o << shift
        v1, v2 = (cj, q) if p_first else (p, cj)
        for s in nzp:
            x = v1[s]
            if not x:
                continue
            var = s & live
            if var.bit_count() >= scan_from:
                for r in nzq:
                    if s | r == full:
                        y = v2[r]
                        if y:
                            m = s & r
                            o = out[m]
                            out[m] = o + x * y if o else x * y
                continue
            base = s ^ flip
            qb = qbase
            need = s & dead
            if need:
                var ^= need
                base ^= need
                qb ^= need
            h = var
            while True:
                y = v2[qb ^ h]
                if y:
                    m = base ^ h
                    o = out[m]
                    out[m] = o + x * y if o else x * y
                if h == 0:
                    break
                h = (h - 1) & var
    products = None
    if traced:
        products = 0
        for s in nzp:
            need = s & dead
            var = (s & live) ^ need
            qb = qbase ^ need
            h = var
            while True:
                if q[qb ^ h]:
                    products += 1
                if h == 0:
                    break
                h = (h - 1) & var
    return out, products


def _add_passes(stats, passes):
    """Add the join bags of each of passes, in order, to stats."""
    for bags in passes:
        stats.join_nodes += len(bags)
        stats.join_bags += bags


def _run(plan, mode, stats, shift=0, child=None, priced=False):
    """The one DP traversal behind all five counters.

    mode: 'pm' (perfect matchings), 'match' (all matchings), 'ind'
    (independent sets). With ``shift`` = B > 0 every table entry is its size
    polynomial evaluated at x = 2^B: forget nodes commit size by shifting.

    A priced pass -- ``_family`` prices the shifted pass of two -- over a
    plan with a join is cut where ``insideout``'s rule puts it, with or
    without child; any other pass runs forward to the root. A child is
    sent B and the depth, 0 included, and builds the outside part of that
    cut. ``insideout._run_cut`` evaluates a pass cut below the root.
    """
    depth = 0
    if priced and any(op[0] == _JOIN for op in plan):
        from . import insideout
        path, cost = insideout._cut_depth(plan, mode, shift)
        depth = min(range(len(cost)), key=cost.__getitem__)
    if child is not None:
        child.send(shift, depth)
    joins = None if stats is None else {}
    if depth:
        value = insideout._run_cut(plan, mode, joins, shift,
                                   path[:depth + 1], child)
    else:
        value = _inside(plan, mode, joins, shift, ())[-1][0]
    if joins is not None:
        _add_passes(stats, [[joins[i] for i in sorted(joins)]])
    return value


def _inside(plan, mode, joins, shift, skip, tables=None):
    """Tables of the forward pass over every node not in ``skip``.

    skip holds nodes whose tables are built elsewhere or not at all: the
    heavy-path nodes over a cut, and for one part of a cut pass the
    nodes of the other part. tables is the list to fill, one slot per
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
            # the introduced vertex takes the top bit: the states without
            # it are the child's, those with it follow
            _, c, nbr_mask, w = op
            child = tables[c]
            if not is_ind:
                # left for the part above: always in M
                out = [0] * len(child) + child
            else:
                # chosen too, where no neighbour is chosen
                out = child + child
                if nbr_mask:
                    top = len(child)
                    for cm in range(top):
                        if cm & nbr_mask:
                            out[top + cm] = 0
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
            _, c1, c2, _, w = op
            smap = _join_map(op)
            t1 = tables[c1]
            t2 = tables[c2]
            if is_ind:
                if smap is not None:
                    t1 = _in_join_layout(t1, smap)
                out = list(map(mul, t1, t2))
                products = 1 << w
            else:
                out, products = _match_join(t1, t2, w, shift, 0,
                                            joins is not None, smap)
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
    """mode's size polynomial, its passes as in ``run_all``: the
    slot-width rule (``_slot_bits``) and ``_family``."""
    plan = _plan_for(g, nd)
    [bits] = _slot_bits(plan, g, nd.width(), (mode,))
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
    one pass). Where ``run_all``'s child built the outside part of the
    matching-polynomial pass, that entry runs from sending the cut to
    reading the coefficients, the wait for the child's outside table
    included.
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
    total and the shifted pass runs at B = its bit length, priced for a
    cut and given child (``_run``). Returns (total, coefficients lowest
    first, the join bags of each pass in order or None unless traced,
    millis): both entries' elapsed milliseconds under ``RunReport.millis``
    names, the read-off's where it had no pass. ``marshal`` carries all of
    it.
    """
    total_name, poly_name = (
        ("matchings", "matching_polynomial") if mode == "match"
        else ("independent_sets", "independence_polynomial"))
    bags = [] if traced else None

    def run(shift, child=None, priced=False):
        stats = None
        if traced:
            stats = DpStats()
            bags.append(stats.join_bags)
        return _run(plan, mode, stats, shift, child, priced)

    millis = {}
    total = None
    if bits is None:
        total = _timed(millis, total_name, lambda: run(0))
        bits = total.bit_length()
    coeffs = _timed(millis, poly_name, lambda: _coefficients(
        run(bits, child, total is not None), bits))
    if total is None:
        total = _timed(millis, total_name, lambda: sum(coeffs))
    return total, coeffs, bags, millis


class _Child:
    """A forked child of ``run_all``: the independence family
    (``_family``), then the outside part of the matching-polynomial pass
    once the parent's ``_run`` sends B and the cut, none at depth 0. The cut
    is the one ``insideout``'s rule gives a call in one process; the child
    rebuilds the path down to the cut from the depth.

    Two pipes join it to the parent: the parent writes B and the depth to
    one as two decimal numbers, the child its marshalled (family, outside
    table, joins) to the other; ``insideout._run_cut`` reads the outside
    table and joins, ``run_all`` the family. The child always leaves
    through ``os._exit``: 0 once its result is written, 1 on any
    exception, EOF on the cut pipe included, which the parent meets again
    where it computes the same parts itself. A parent that raises kills it
    (``kill``) rather than wait for its family.
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
                    from .insideout import _heavy_path, _outside_part, _subtree
                    path = _heavy_path(plan, _below(plan))[:depth + 1]
                    outside = _outside_part(plan, "match", joins, bits, path,
                                            _subtree(plan, path[-1]))
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
        with more to write than the pipe holds cannot exit. If the read
        fails or is interrupted, the child is killed, then reaped. Later
        calls return the first one's result.
        """
        if self.pid is not None:
            self.close_cut()
            try:
                with open(self.r, "rb") as pipe:
                    data = pipe.read()
            except BaseException:
                self.kill()
                raise
            finally:
                _, status = os.waitpid(self.pid, 0)
                self.pid = None
            if status == 0:
                self.result = marshal.loads(data)
        return self.result

    def kill(self):
        """SIGKILL the child unless it is reaped already, for a parent that
        raises and will not read its result; ``join`` reaps it."""
        if self.pid is not None:
            # imported here: at module level it adds about 0.6 ms
            # (CPython 3.11) to every `import tdcount`
            from signal import SIGKILL

            os.kill(self.pid, SIGKILL)


def run_all(g, nd, stats=None):
    """All five counts plus both entropies on one decomposition.

    The matching family gives the Hosoya index and the matching polynomial,
    the independence family the Merrifield-Simmons index and the
    independence polynomial, each in the passes the slot-width rule
    (``_slot_bits``) picks. The perfect matchings are read off the matching
    polynomial.

    Where the matching family takes two passes and ``_fork_pays`` (POSIX
    fork, no second thread, two CPUs or more), one child is forked before
    the Hosoya pass; there is no option. Small requests, every molecule of
    the bundled corpus among them, take one pass per polynomial and never
    fork. The child computes the independence family, in one pass or two,
    while this process runs the Hosoya pass. The matching-polynomial pass
    is then the one ``_run`` of an in-process call, given the child: over
    a plan with a join it is cut on its heavy path where ``insideout``'s
    rule cuts it in one process, this process building the cut's subtree
    and the child the rest of the pass down to the cut, and this process
    takes the dot product. A plan without a join is not cut: this process
    runs the pass whole. The child sends its results back through a pipe
    and is always reaped before this returns; where this process raises,
    it kills the child first rather than wait for its family. If the child
    fails, this process builds the outside table and runs the family as a
    call without a child does, so an error in the family is raised here.
    Answers are the same either way. The join bags of a traced call list
    the passes that ran in the order Hosoya, Merrifield-Simmons, matching
    polynomial, independence polynomial; a transposed join carries only
    the pairs whose child state the inside table can reach, in whichever
    process ran it, so a forked call's bags are the same as a serial
    call's.

    ``millis`` holds each of the five counts' elapsed milliseconds: a
    pass's, or for a count read off a polynomial, the read-off's. Entries
    the child computed are its own elapsed times, so in a forked call they
    overlap the Hosoya and matching-polynomial passes and the entries may
    add up to more than the call took. Where the child builds the outside
    part of the cut, the matching-polynomial entry includes the wait for
    it.
    """
    plan = _plan_for(g, nd)
    width = nd.width()
    n = g.n
    traced = stats is not None
    match_bits, ind_bits = _slot_bits(plan, g, width, ("match", "ind"))
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
    except BaseException:
        if child is not None:
            child.kill()
            child.join()
        raise
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
