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

``_cut_work`` chooses the cut before any table is built, in ``_bit_work``
units: a cell written costs ``_CELL_WORK`` plus its length, a product
``_DIGIT_PRODUCT_WORK`` per digit product under CPython's schoolbook and
Karatsuba rules, and entries are priced at half their bound. The root is
always a candidate, and cut there the pass is the forward pass.

The inside part (the cut's subtree) and the outside part (the off-path
subtrees above the cut and the walk down to it) share nothing but the
cut. ``_run_cut`` evaluates every pass cut below the root: it finds the
path down to the cut and the cut's subtree once (``_cut``), builds the
inside part, takes the outside part from a forked ``counting._Child``
that was sent the cut, or builds it with ``_outside_part`` where there is
none or it failed, and returns the dot product. ``_split_depth`` picks
the cut of a pass split with a child from the same prices, to balance the
two processes rather than to minimise the pass's work.

``counting._run`` imports this module only for a pass it prices, and a
forking ``run_all`` only for a plan with a join, so a run that never
prices a cut never compiles it.
"""

from __future__ import annotations

import math

from .counting import _DIGIT, _FORGET, _INTRO, _JOIN, _LEAF, _below, \
    _inside, _width

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
    """Per node, the bag positions a matching below it can cover."""
    live = [0] * len(plan)
    for i, op in enumerate(plan):
        code = op[0]
        if code == _JOIN:
            live[i] = live[op[1]] | live[op[2]]
        elif code != _LEAF:
            m = live[op[1]]
            p = op[2]
            low = m & ((1 << p) - 1)
            if code == _INTRO:
                live[i] = low | ((m >> p) << (p + 1))
            else:
                for pbit, _ in op[3]:
                    low |= pbit
                live[i] = low | ((m >> (p + 1)) << p)
    return live


def _node_work(plan, i, below, live, bits):
    """Predicted work of building node i's table in a pass at B = bits.

    live is ``_live(plan)`` in match mode and None in ind mode. A forget
    writes 2^|bag| cells and an introduce copies references. A join
    multiplies 2^|bag| pairs in ind mode; a matching join multiplies
    2^|l1 ^ l2| × 3^|l1 & l2| pairs, for l1 and l2 the bag vertices its
    children can cover, each pair the cheaper of a whole product and the
    Horner slot split.
    """
    op = plan[i]
    code = op[0]
    half = bits / 2
    if code == _FORGET:
        return (_CELL_WORK + half * (below[i] + 1)) * (1 << op[4])
    if code != _JOIN:
        return 0
    _, c1, c2, w, _ = op
    x = half * (below[c1] + 1)
    y = half * (below[c2] + 1)
    mul = _product_work(x, y)
    if live is None:
        pairs = 1 << w
    else:
        l1, l2 = live[c1], live[c2]
        both = (l1 & l2).bit_count()
        pairs = 2 ** ((l1 | l2).bit_count() - both) * 3 ** both
        if bits >= 2 * _DIGIT:
            mul = min(mul, math.ceil(min(x, y) / bits)
                      * (_product_work(_DIGIT, max(x, y)) + x + y))
    return pairs * (_CELL_WORK + mul + x + y)


def _cut_terms(plan, bits, below, live):
    """Heavy path and, per cut depth k, the predicted work that moves.

    inside[k] is that of building the tables of path[:k] inside
    (``_node_work``), outside[k] that of their transposes, and dot[k]
    that of the dot product at path[k] (0 at the root). live is as in
    ``_node_work``. A cell written costs ``_CELL_WORK`` plus its length in
    bits, and a product ``_product_work`` more. Entries are priced at half
    their bound: B × (f + 1) / 2 bits inside a node below which f vertices
    are forgotten, B × (n - f + 1) / 2 outside it.

    Outside, a forget writes twice the cells it writes inside, and an
    introduce in ind mode adds. A join multiplies the off-path child's
    inside entries by its own outside entries and takes every state of the
    path side as non-zero. The dot product multiplies the cut's non-zero
    inside entries by its outside entries.
    """
    path = _heavy_path(plan, below)
    is_ind = live is None
    half = bits / 2
    n = below[-1]
    inside = [0]
    outside = [0]
    dot = [0]
    ins = outs = 0
    for node, child in zip(path, path[1:]):
        op = plan[node]
        code = op[0]
        out_len = half * (n - below[node] + 1)
        ins += _node_work(plan, node, below, live, bits)
        if code == _FORGET:
            outs += (_CELL_WORK + out_len + half) * (2 << op[4])
        elif code == _INTRO and is_ind:
            outs += out_len * (1 << (op[4] - 1))
        elif code == _JOIN:
            _, c1, c2, w, _ = op
            sib = c1 if child == c2 else c2
            if is_ind:
                pairs = 1 << w
            else:
                ls = live[sib].bit_count()
                pairs = 2 ** (w - ls) * 3 ** ls
            x = half * (below[sib] + 1)
            outs += pairs * (_CELL_WORK + _product_work(x, out_len)
                             + x + out_len)
        x = half * (below[child] + 1)
        y = half * (n - below[child] + 1)
        cells = 2 ** (_width(plan[child]) if is_ind
                      else live[child].bit_count())
        inside.append(ins)
        outside.append(outs)
        dot.append(cells * (_CELL_WORK + _product_work(x, y) + x + y))
    return path, inside, outside, dot


def _cut_work(plan, mode, bits):
    """Heavy path and predicted work of a shifted pass cut at each depth.

    work[k] is the predicted work of the pass cut at path[k] less that of
    the root pass, so work[0] is 0: the path nodes above the cut done
    outside rather than inside, plus the dot product at the cut
    (``_cut_terms``).

    On a join-free chain this keeps the root: moving the cut down k
    forgets saves additions on long inside entries, but the outside
    forgets write twice the cells and the dot product multiplies each
    long entry by an outside entry of about k·B/2 bits.
    """
    below = _below(plan)
    live = None if mode == "ind" else _live(plan)
    path, inside, outside, dot = _cut_terms(plan, bits, below, live)
    return path, [o - i + d for i, o, d in zip(inside, outside, dot)]


def _split_depth(plan, bits):
    """Depth of the cut at which ``run_all`` splits its matching-polynomial
    pass at B = bits between this process and its forked child.

    The parent runs the Hosoya pass and then the cut's subtree; the child
    runs the independence family and then, from the B the parent sends,
    the off-path subtrees above the cut and the outside walk down to it.
    The dot product waits for both. The depth minimises, in ``_cut_terms``
    units, max(H + inside, F + outside) + dot, with the Hosoya pass H and
    the family F taken as equal. They run at once, before the split, and
    are not priced: this model prices a cell at ``_CELL_WORK`` whatever
    it does, which puts a plain pass at a fifth of its cost relative to a
    shifted one. At depth 0 the parent runs the whole pass.
    """
    below = _below(plan)
    live = _live(plan)
    path, inside, outside, dot = _cut_terms(plan, bits, below, live)
    # the pass's inside work below each node, the node included
    sub = [0] * len(plan)
    for i, op in enumerate(plan):
        code = op[0]
        if code == _INTRO:
            sub[i] = sub[op[1]]
        elif code != _LEAF:
            sub[i] = _node_work(plan, i, below, live, bits) + sub[op[1]] + (
                sub[op[2]] if code == _JOIN else 0)
    total = sub[-1]

    def cost(k):
        cut = sub[path[k]]
        return max(cut, total - cut - inside[k] + outside[k]) + dot[k]

    return min(range(len(path)), key=cost)


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


def _cut(plan, depth):
    """The heavy path from the root down to the cut ``depth`` steps down
    it, and the nodes of the cut's subtree."""
    path = _heavy_path(plan, _below(plan))[:depth + 1]
    return path, _subtree(plan, path[-1])


def _outside_part(plan, mode, joins, shift, path, inner):
    """The outside table of the cut at the end of path, from ``_cut``
    with the cut's subtree inner.

    The forward pass builds the off-path subtrees above the cut, then the
    transposes of the path ops carry [1] from the root down to the cut; at
    every path node <inside, outside> is the root's value. joins is as in
    ``_inside``.
    """
    skip = set(inner)
    skip.update(path[:-1])
    tables = _inside(plan, mode, joins, shift, skip)
    o = [1]
    for node, child in zip(path, path[1:]):
        o = _transpose(plan, node, child, tables, o, mode, joins, shift)
    return o


def _run_cut(plan, mode, joins, shift, depth, child=None):
    """Value of a pass cut ``depth`` steps down its heavy path.

    This process builds the cut's subtree. The outside table of the cut
    comes from child, ``counting._Child``, whose joins are merged into
    joins; with no child, or a failed one, this process builds it too
    (``_outside_part``, from the same ``_cut``). The answer is the dot
    product of the two tables. At depth 0 the subtree is the whole plan
    and the outside table [1], so this is the forward pass. joins is as in
    ``_inside``.
    """
    path, inner = _cut(plan, depth)
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


def _transpose(plan, node, child, tables, o, mode, joins, shift):
    """The transpose of node's op, as a map from child's table, applied to o.

    At a join the op is linear in child, with the other child's inside
    table in ``tables`` held fixed. Zero terms are skipped as in the
    forward pass, and a join records its bag size and the products it
    performs in joins, unless that is None.
    """
    is_ind = mode == "ind"
    is_match = mode == "match"
    op = plan[node]
    code = op[0]
    if code == _INTRO:
        # forward: child state cm goes to base, and in ind mode to
        # base | bit too where v has no chosen neighbour
        _, _, p, nbr_mask, w = op
        bit = 1 << p
        high = -bit
        out = [0] * (1 << (w - 1))
        for cm in range(1 << (w - 1)):
            base = cm + (cm & high)  # as in counting._inside
            if is_ind:
                val = o[base]
                if not base & nbr_mask:
                    y = o[base | bit]
                    if y:
                        val = val + y if val else y
                out[cm] = val
            else:
                out[cm] = o[base | bit]
    elif code == _FORGET:
        # forward: out[m] sums the child states that forget v into m,
        # shifted where v joins the structure
        _, _, p, pairs, w = op
        bit = 1 << p
        high = -bit
        out = [0] * (2 << w)
        for m, val in enumerate(o):
            if not val:
                continue
            base = m + (m & high)
            out[base] = val
            if is_ind:
                out[base | bit] = val << shift
                continue
            if is_match:
                y = out[base | bit]
                out[base | bit] = y + val if y else val
            shifted = None
            for pbit, cbit in pairs:
                if not m & pbit:
                    if shifted is None:
                        shifted = val << shift
                    k = base | bit | cbit
                    y = out[k]
                    out[k] = y + shifted if y else shifted
    else:  # _JOIN
        _, c1, c2, w, full = op
        t = tables[c2 if child == c1 else c1]
        if is_ind:
            out = [x * y for x, y in zip(t, o)]
            products = 1 << w
        else:
            # forward: out[a & b] += t1[a] * t2[b] where a | b == full;
            # here a is the child's state and b the sibling's, so the
            # child's a = (full ^ b) | h takes t[b] * o[h] for h within b
            out = [0] * (1 << w)
            live = 0  # states o can be non-zero in
            for h, y in enumerate(o):
                if y:
                    live |= h
            products = 0
            for b, x in enumerate(t):
                if not x:
                    continue
                var = b & live
                forced = full ^ b
                h = var
                while True:
                    y = o[h]
                    if y:
                        products += 1
                        a = forced | h
                        z = out[a]
                        out[a] = z + x * y if z else x * y
                    if h == 0:
                        break
                    h = (h - 1) & var
        if joins is not None:
            joins[node] = (w, products)
    return out
