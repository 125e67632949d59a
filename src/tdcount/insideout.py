"""Inside-outside evaluation of a shifted pass, cut on its heavy path.

The heavy path runs from the root, at each join to the child below which
more vertices are forgotten. The forward (inside) pass of ``counting``
stops below a cut node of that path; the transposes of the introduce,
forget and join ops carry an outside table from the root, where it is [1],
down to the cut, a path join multiplying its off-path child's inside
entries into it; the answer is the dot product ``Σ_s inside[s] ·
outside[s]`` at the cut. Outside entries hold only the graph above the cut,
so a join near the root of a min-fill tree, long spine times short branch,
becomes short times short, and the nodes above it work on short entries.
A matching join is one routine in both directions,
``counting._match_join``: its transpose splits the operand with the shorter
entries into B-bit slots where the forward join would, and counts its
products once per combining pair, only in a traced pass. In match mode
the walk writes only the child states its inside table can reach, those
holding every bag vertex no matching below the child can cover
(``_live``): elsewhere the inside table is 0, and an outside entry there
would only ever meet a 0. Every table is in
its node's layout (``counting``): an introduce's transpose keeps the half
of the outside table where the introduced vertex, the top bit, is in M, or
in ind mode sums both halves; a join, in its second child's layout, takes
its first child's inside table through the state map, and gives that
child an outside table gathered back through it.

This module states the one rule that picks the cut, before any table is
built. The inside part (the cut's subtree) and the outside part (the
off-path subtrees above the cut and the walk down to it) share nothing but
the cut, and a cut pass costs both parts and the dot product at the cut.
A pass has one cut wherever its parts run: ``run_all``'s forked child
builds the outside part of the cut a call in one process makes, so a
forked call does the same work and lists the same products as a serial
one. ``_cut_depth`` prices every depth of the heavy path in one walk, in
``_bit_work`` units: a cell written costs ``_CELL_WORK`` plus its length, a
product ``_DIGIT_PRODUCT_WORK`` per digit product under CPython's
schoolbook and Karatsuba rules, and entries are priced at half their
bound. ``_pair_work`` prices every product with the cell it writes: at
B = 0 a whole product, an independent-set join's and the dot product's,
and at the pass's B a matching join's pair, the cheaper of a whole
product and the slot split. ``_join_work`` is the one price of a join,
inside and outside alike. The root is always a candidate, and cut there
the pass is the forward pass.

Two kinds of pass are never priced. The model prices every cut of a
join-free chain above the root (``_cut_depth``), so a plan without a join
keeps the root unpriced. And only the shifted pass of a two-pass family is
cut (``counting._slot_bits``): where the slot-width rule keeps one pass,
its B and entries are short, and on the min-fill k x 30 grids a cut of such
a pass won back no more than its pricing. So the mode is 'match' or 'ind':
a perfect-matching pass is never shifted.

``_run_cut`` evaluates a pass cut below the root, given the path down to
the cut: it builds the inside part, takes the outside part from the child
or builds it with ``_outside_part`` where there is none or it failed, and
returns the dot product. ``counting._run`` imports this module only for a
pass it prices, and a forking ``run_all`` only for a plan with a join, so
a run that never prices a cut never compiles it.
"""

from __future__ import annotations

import math

from .counting import (
    _DIGIT, _FORGET, _INTRO, _JOIN, _LEAF, _below, _ind_join, _inside,
    _match_join,
)

# the cut's cost model in ``_bit_work`` units, the bits an addition writes:
# one Python-level step on a cell, and one digit-by-digit product inside a
# big-int multiplication (measured on CPython 3.11, x86-64)
_CELL_WORK = 2000
_DIGIT_PRODUCT_WORK = 40
# CPython multiplies by schoolbook up to this many digits, then by Karatsuba
_KARATSUBA_DIGITS = 70
_KARATSUBA_EXPONENT = math.log2(3) - 1


def _heavy_path(plan, below):
    """Nodes from the root down to a leaf, at each join the child below
    which more vertices are forgotten (the first child on a tie)."""
    path = [len(plan) - 1]
    op = plan[-1]
    while op[0] != _LEAF:
        c = op[1]
        if op[0] == _JOIN and below[op[2]] > below[c]:
            c = op[2]
        path.append(c)
        op = plan[c]
    return path


def _product_work(x, y):
    """Predicted work of multiplying an x-bit int by a y-bit int.

    Schoolbook multiplies every digit pair. Past CPython's Karatsuba
    cutoff, the longer factor is cut into pieces as long as the shorter,
    each piece multiplied in a^log2(3) digit products for a-digit
    factors.
    """
    a = x // _DIGIT + 1
    b = y // _DIGIT + 1
    if a > b:
        a, b = b, a
    if a > _KARATSUBA_DIGITS:
        a = _KARATSUBA_DIGITS * (a / _KARATSUBA_DIGITS) ** _KARATSUBA_EXPONENT
    return _DIGIT_PRODUCT_WORK * a * b


def _live(plan):
    """Per node, the bits of its layout a matching below it can cover."""
    live = [0] * len(plan)
    for i, op in enumerate(plan):
        code = op[0]
        if code == _JOIN:
            live[i] = _join_mask(op, live[op[1]]) | live[op[2]]
        elif code == _INTRO:
            live[i] = live[op[1]]
        elif code == _FORGET:
            m = live[op[1]]
            p = op[2]
            low = m & ((1 << p) - 1)
            for pbit, _ in op[3]:
                low |= pbit
            live[i] = low | ((m >> (p + 1)) << p)
    return live


def _join_mask(op, mask):
    """A bag mask in the layout of join op's first child, in the join's own
    layout, its second child's: the state map's entry for it."""
    return mask if op[3] is None else op[3][mask]


def _pair_work(x, y, bits):
    """Predicted work of one product of x- and y-bit entries with the cell
    it writes: the cell, plus the cheaper of a whole product and, in a
    matching join at B = bits, forward or transposed, the Horner slot
    split (``counting._match_join``), which multiplies the longer entry by
    one digit per B-bit slot of the shorter and shifts the slots together.
    B = 0 prices a whole product, as an independent-set join and the dot
    product at the cut make."""
    mul = _product_work(x, y)
    if bits >= 2 * _DIGIT:
        mul = min(mul, math.ceil(min(x, y) / bits)
                  * (_product_work(_DIGIT, max(x, y)) + x + y))
    return _CELL_WORK + mul + x + y


def _join_work(op, x, y, live, bits):
    """Predicted work of join op, forward or transposed, multiplying x-bit
    entries by y-bit ones at B = bits. live is ``_live(plan)`` in match
    mode and None in ind mode: an independent-set join makes 2^|bag|
    whole products, a matching join ``_join_pairs`` pairs, each priced by
    ``_pair_work``."""
    if live is None:
        return (1 << op[-1]) * _pair_work(x, y, 0)
    return _join_pairs(op, live) * _pair_work(x, y, bits)


def _node_work(plan, i, below, live, bits):
    """Predicted work of building node i's table in a pass at B = bits.

    live is as in ``_join_work``. A forget writes 2^|bag| cells, an
    introduce copies references and a join is priced by ``_join_work``.
    """
    op = plan[i]
    code = op[0]
    half = bits / 2
    if code == _FORGET:
        return (_CELL_WORK + half * (below[i] + 1)) * (1 << op[-1])
    if code != _JOIN:
        return 0
    return _join_work(op, half * (below[op[1]] + 1),
                      half * (below[op[2]] + 1), live, bits)


def _join_pairs(op, live):
    """The most pairs matching join op multiplies, forward or transposed,
    with live as ``_live``: 2^|l1 ^ l2| × 3^|l1 & l2|, for l1 and l2 the
    bag vertices its children can cover."""
    l1, l2 = _join_mask(op, live[op[1]]), live[op[2]]
    both = (l1 & l2).bit_count()
    return 2 ** (l1 ^ l2).bit_count() * 3 ** both


def _cut_depth(plan, mode, bits):
    """Heavy path and the predicted cost of the pass cut at each depth,
    by the module's rule; the cut is the argmin.

    cost[k] is taken relative to the root pass: the path ops above the
    cut done outside rather than inside, plus the dot product, so cost[0]
    is 0. This model prices a cell at ``_CELL_WORK`` whatever it does,
    which puts a plain pass at a fifth of its cost relative to a shifted
    one.

    Inside, a node's work is ``_node_work``. Entries are priced at half
    their bound: B × (f + 1) / 2 bits inside a node below which f vertices
    are forgotten, B × (n - f + 1) / 2 outside it. Outside, a forget
    writes two cells for each of its own cells the walk can reach, its
    2^|live| in match mode and 2^|bag| in ind mode, and an introduce in
    ind mode adds. A join multiplies the off-path child's inside entries
    by its own outside entries: 2^|bag| of them in ind mode, and in match
    mode as many pairs as its forward join (``_join_pairs``), each priced
    as inside (``_pair_work``). The dot product multiplies the cut's
    non-zero inside entries by its outside entries.

    On a join-free chain the cost keeps the root: moving the cut down k
    forgets saves additions on long inside entries, but the outside
    forgets write twice the cells and the dot product multiplies each long
    entry by an outside entry of about k·B/2 bits.
    """
    below = _below(plan)
    is_ind = mode == "ind"
    live = None if is_ind else _live(plan)
    path = _heavy_path(plan, below)
    half = bits / 2
    n = below[-1]
    cost = [0]
    ins = outs = 0
    for node, child in zip(path, path[1:]):
        op = plan[node]
        code = op[0]
        out_len = half * (n - below[node] + 1)
        ins += _node_work(plan, node, below, live, bits)
        if code == _FORGET:
            cells = 1 << (op[-1] if is_ind else live[node].bit_count())
            outs += (_CELL_WORK + out_len + half) * 2 * cells
        elif code == _INTRO and is_ind:
            outs += out_len * (1 << (op[-1] - 1))
        elif code == _JOIN:
            sib = op[1] if child == op[2] else op[2]
            outs += _join_work(op, half * (below[sib] + 1), out_len, live,
                               bits)
        x = half * (below[child] + 1)
        y = half * (n - below[child] + 1)
        cells = 2 ** (plan[child][-1] if is_ind
                      else live[child].bit_count())
        dot = cells * _pair_work(x, y, 0)
        cost.append(outs - ins + dot)
    return path, cost


def _subtree(plan, node):
    """The nodes of node's subtree."""
    nodes = []
    stack = [node]
    while stack:
        i = stack.pop()
        nodes.append(i)
        op = plan[i]
        if op[0] == _JOIN:
            stack += op[1:3]
        elif op[0] != _LEAF:
            stack.append(op[1])
    return nodes


def _outside_part(plan, mode, joins, shift, path, inner):
    """The outside table of the cut at the end of path, the heavy path
    from the root down to it, with the cut's subtree inner.

    The forward pass builds the off-path subtrees above the cut, then the
    transposes of the path ops carry [1] from the root down to the cut; at
    every path node <inside, outside> is the root's value. joins is as in
    ``_inside``.
    """
    skip = set(inner)
    skip.update(path[:-1])
    tables = _inside(plan, mode, joins, shift, skip)
    live = None if mode == "ind" else _live(plan)
    o = [1]
    for node, child in zip(path, path[1:]):
        o = _transpose(plan, node, child, tables, o, mode, joins, shift,
                       live)
    return o


def _run_cut(plan, mode, joins, shift, path, child=None):
    """Value of a pass cut at the end of path, the heavy path from the
    root down to the cut (``_cut_depth``).

    This process builds the cut's subtree. The outside table of the cut
    comes from child, ``counting._Child``, whose joins are merged into
    joins; with no child, or a failed one, this process builds it too
    (``_outside_part``, from the same subtree). The answer is the dot
    product of the two tables. Cut at the root the subtree is the whole
    plan and the outside table [1], so this is the forward pass. joins is
    as in ``_inside``.
    """
    inner = _subtree(plan, path[-1])
    skip = set(range(len(plan))).difference(inner)
    inside = _inside(plan, mode, joins, shift, skip)[path[-1]]
    result = None if child is None else child.join()
    if result is None:
        outside = _outside_part(plan, mode, joins, shift, path, inner)
    else:
        _, outside, child_joins = result
        if joins is not None:
            joins.update(child_joins)
    return sum([x * y for x, y in zip(inside, outside) if x and y])


def _transpose(plan, node, child, tables, o, mode, joins, shift, live=None):
    """The transpose of node's op, as a map from child's table, applied to o.

    mode is 'match' or 'ind'. At a join the op is linear in child, with
    the other child's inside table in ``tables`` held fixed; a matching
    join is ``counting._match_join`` transposed, an independent-set one
    ``counting._ind_join``. o and the result are in the layouts of node
    and child: the join's state map carries the first child's states into
    the join's, so the first child's inside table is read through it and
    its outside table gathered through it. Zero terms are skipped as in
    the forward pass, and a join records its bag size and the products it
    performs in joins, unless that is None. Given live, ``_live(plan)`` in
    match mode, a forget or join writes only the child states that hold
    every bag vertex outside live[child], the states where the child's
    inside table can be non-zero.
    """
    is_ind = mode == "ind"
    op = plan[node]
    code = op[0]
    if code == _INTRO:
        # forward: child state cm goes to cm | top, the top bit v's, and in
        # ind mode to cm too, where v has no chosen neighbour
        _, _, nbr_mask, w = op
        top = 1 << (w - 1)
        if not is_ind:
            out = o[top:]
        else:
            out = o[:top]
            for cm, y in enumerate(o[top:]):
                if y and not cm & nbr_mask:
                    val = out[cm]
                    out[cm] = val + y if val else y
    elif code == _FORGET:
        # forward: out[m] sums the child states that forget v into m,
        # shifted where v joins the structure
        _, c, p, pairs, w = op
        bit = 1 << p
        high = -bit
        out = [0] * (2 << w)
        dead = 0 if live is None else ((2 << w) - 1) ^ live[c]
        for m, val in enumerate(o):
            if not val:
                continue
            base = m + (m & high)
            if is_ind:
                out[base] = val
                out[base | bit] = val << shift
                continue
            # the dead bits other than v's that base lacks: only a pair
            # edge to one of them can still write a state holding dead
            lack = dead & ~(base | bit)
            if not lack:
                if not dead & bit:
                    out[base] = val
                y = out[base | bit]
                out[base | bit] = y + val if y else val
            shifted = None
            for pbit, cbit in pairs:
                if not m & pbit and not lack & ~cbit:
                    if shifted is None:
                        shifted = val << shift
                    k = base | bit | cbit
                    y = out[k]
                    out[k] = y + shifted if y else shifted
    else:  # _JOIN
        # o is in the join's layout, c2's: c1's inside table is mapped
        # into it, and c1's outside table gathered out of it
        _, c1, c2, smap, w = op
        if child == c2:
            t, t_smap = tables[c1], smap
        else:
            t, t_smap = tables[c2], None
        if is_ind:
            out = _ind_join(t, t_smap, o)
            products = 1 << w
        else:
            full = (1 << w) - 1
            dead = 0 if live is None else full ^ (
                live[c2] if child == c2 else _join_mask(op, live[c1]))
            out, products = _match_join(t, o, w, shift, full,
                                        joins is not None, t_smap, dead)
        if child == c1 and smap is not None:
            out = list(map(out.__getitem__, smap))
        if joins is not None:
            joins[node] = (w, products)
    return out
