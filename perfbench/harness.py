"""Inputs, requests, answer checks and spans of the tdcount benchmark.

The caller puts the checkout's ``src`` directory on ``sys.path`` before
importing this module. Every request goes through the public functions of
the ``tdcount`` package, the way the CLI calls them, and pays for its own
parse and decomposition.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path

from tdcount import (
    ChainStats,
    DpStats,
    Graph,
    build_chain,
    build_transition,
    chain_pm_count,
    count_independent_sets,
    count_matchings,
    count_perfect_matchings,
    decomposition_from_order,
    emit_gr,
    ladder_graph,
    make_nice,
    min_fill_order,
    parse_chain_file,
    parse_gr,
    parse_smiles,
    run_all,
)
from tdcount.decomposition import JOIN

WORKLOADS = ("corpus100", "grids", "chains")

# Sizes are chosen so that one round (every request once) stays under about
# five seconds, which leaves several rounds per run for a steady median.
GRID_ROWS = (3, 4, 5, 6, 7)
GRID_COLS = 30
LADDER_RUNGS = 600
HEX_CHAIN_COPIES = 300
CHAIN_COPIES = 10**6

# Big integers above this size are stored in the references as a digest.
HEX_MAX_BITS = 1024
ENTROPY_RTOL = 1e-12


@dataclass(frozen=True)
class Item:
    """One input: ``fmt`` is 'smiles', 'gr' or 'chain' (then ``copies`` is set)."""

    name: str
    fmt: str
    text: str
    copies: int = 0


def data_dir(src):
    return Path(src) / "tdcount" / "data"


def grid_graph(rows, cols):
    """rows x cols grid, vertex (r, c) labelled r * cols + c."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def hexagon_element_text(src):
    return (data_dir(src) / "hexagon.chain").read_text(encoding="utf-8")


def load_items(workload, src):
    """The inputs of a workload, with the labels the generators give them."""
    if workload == "corpus100":
        items = []
        path = data_dir(src) / "corpus100.smi"
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                smiles, _, name = line.partition("\t")
                items.append(Item(name.strip() or smiles, "smiles", smiles.strip()))
        return items
    if workload == "grids":
        return [Item(f"grid{k}x{GRID_COLS}", "gr", emit_gr(grid_graph(k, GRID_COLS)))
                for k in GRID_ROWS]
    if workload == "chains":
        element_text = hexagon_element_text(src)
        hexagons = build_chain(parse_chain_file(element_text), HEX_CHAIN_COPIES)
        return [
            Item(f"ladder2x{LADDER_RUNGS}", "gr", emit_gr(ladder_graph(LADDER_RUNGS))),
            Item(f"hexchain{HEX_CHAIN_COPIES}", "gr", emit_gr(hexagons)),
            Item(f"hexagon.chain^{CHAIN_COPIES}", "chain", element_text, CHAIN_COPIES),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def requests_for(items):
    """One counts and one full request per graph input, one chain request per chain."""
    out = []
    for item in items:
        if item.fmt == "chain":
            out.append(("chain", item))
        else:
            out.append(("counts", item))
            out.append(("full", item))
    return out


def relabelled(item, seed):
    """The input with its vertex ids permuted by ``seed``; seed 0 keeps them."""
    if seed == 0 or item.fmt == "chain":
        return item
    if item.fmt == "smiles":
        g = parse_smiles(item.text).graph
    else:
        g = parse_gr(item.text)
    perm = list(range(g.n))
    random.Random(f"{seed}:{item.name}").shuffle(perm)
    g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    return Item(item.name, "gr", emit_gr(g))


# --- spans ------------------------------------------------------------------

class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing switched off: spans cost one method call and record nothing."""

    on = False

    def span(self, name):
        return _NO_SPAN

    def note(self, key, value):
        pass


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [len(tracer.spans), name, 0.0, 0.0,
                       tracer.stack[-1] if tracer.stack else None, tracer.request_id]

    def __enter__(self):
        t = self.tracer
        t.spans.append(self.record)
        t.stack.append(self.record[0])
        self.record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Spans ``[id, name, start, end, parent, request]`` and per-request notes."""

    on = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request_id = None
        self.notes = {}

    def span(self, name):
        return _Span(self, name)

    def note(self, key, value):
        self.notes.setdefault(self.request_id, {})[key] = value


# --- requests ---------------------------------------------------------------

def _graph(item, tr):
    if item.fmt == "smiles":
        with tr.span("smiles.parse"):
            return parse_smiles(item.text).graph
    with tr.span("graph.parse_gr"):
        return parse_gr(item.text)


def execute(kind, item, tr):
    """Run one request; returns (answers, nice decomposition or None)."""
    if kind == "chain":
        with tr.span("chain.parse"):
            element = parse_chain_file(item.text)
        stats = None
        if tr.on:
            # chain_pm_count builds the transition itself; this extra call
            # exists only to time that step and read its state count
            with tr.span("chain.transition"):
                tr.note("chain.states", build_transition(element).dim)
            stats = ChainStats()
        with tr.span("chain.pm_count"):
            pm = chain_pm_count(element, item.copies, stats)
        if stats is not None:
            tr.note("chain.matrix_mults", stats.matrix_mults)
        return {"pm": pm}, None

    g = _graph(item, tr)
    with tr.span("decomposition.order"):
        order = min_fill_order(g)
    with tr.span("decomposition.tree"):
        td = decomposition_from_order(g, order)
    with tr.span("decomposition.nice"):
        nd = make_nice(td)
    stats = DpStats() if tr.on else None
    if kind == "counts":
        with tr.span("counting.pm"):
            pm = count_perfect_matchings(g, nd, stats)
        with tr.span("counting.hosoya"):
            hosoya = count_matchings(g, nd, stats)
        with tr.span("counting.ms"):
            ms = count_independent_sets(g, nd, stats)
        answers = {"pm": pm, "hosoya": hosoya, "ms": ms}
    else:
        with tr.span("counting.run_all"):
            report = run_all(g, nd, stats)
        tr.note("run_all.millis", report.millis)
        answers = {
            "pm": report.perfect_matchings,
            "hosoya": report.matchings,
            "ms": report.independent_sets,
            "match_poly": report.matching_poly.coeffs,
            "ind_poly": report.independence_poly.coeffs,
            "entropy_matchings": report.entropy_matchings,
            "entropy_independent_sets": report.entropy_independent_sets,
        }
    if stats is not None:
        tr.note("join_products", sum(p for _, p in stats.join_bags))
    return answers, nd


# --- references -------------------------------------------------------------

def _digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def encode_int(x):
    if x.bit_length() <= HEX_MAX_BITS:
        return hex(x)
    return {"bits": x.bit_length(), "sha256": _digest(format(x, "x"))}


def encode_poly(coeffs):
    return {"len": len(coeffs), "sha256": _digest(",".join(format(c, "x") for c in coeffs))}


def encode_answers(answers):
    out = {}
    for key, value in answers.items():
        if key.startswith("entropy"):
            out[key] = value
        elif key.endswith("poly"):
            out[key] = encode_poly(value)
        else:
            out[key] = encode_int(value)
    return out


def mismatches(answers, ref):
    """Names of the answers that differ from the reference entry ``ref``."""
    bad = []
    for key, value in answers.items():
        want = ref.get(key)
        if want is None:
            bad.append(key)
        elif key.startswith("entropy"):
            if abs(value - want) > ENTROPY_RTOL * max(abs(want), 1e-300):
                bad.append(key)
        elif key.endswith("poly"):
            if encode_poly(value) != want:
                bad.append(key)
        elif encode_int(value) != want:
            bad.append(key)
    return bad


# --- independent counter and speed probe ---------------------------------------

def _add_shifted(acc, poly, shift):
    if len(acc) < len(poly) + shift:
        acc.extend([0] * (len(poly) + shift - len(acc)))
    for k, c in enumerate(poly):
        acc[k + shift] += c


def frontier_counts(adj, order, unit=1):
    """(match poly, ind poly, pm) of the graph ``adj`` by a DP over ``order``.

    It shares no code with tdcount: the reference generator checks the DP's
    answers against it, and the speed probe times it.

    The frontier holds processed vertices with an unprocessed neighbour.
    Matching states are the unmatched frontier vertices, independent-set
    states the chosen ones; a vertex leaving the frontier unmatched kills the
    state for perfect matchings only.
    """
    pos = {v: i for i, v in enumerate(order)}
    last = {v: max([pos[v]] + [pos[u] for u in adj[v]]) for v in order}
    match = {frozenset(): [unit]}
    perfect = {frozenset(): unit}
    ind = {frozenset(): [unit]}
    for i, v in enumerate(order):
        earlier = [u for u in adj[v] if pos[u] < i]
        leaving = {u for u in earlier + [v] if last[u] == i}
        new_match, new_perfect, new_ind = {}, {}, {}
        for state, poly in match.items():
            options = [(state | {v}, 0)] + [(state - {u}, 1) for u in earlier if u in state]
            for nxt, grow in options:
                _add_shifted(new_match.setdefault(nxt - leaving, []), poly, grow)
        for state, count in perfect.items():
            options = [state | {v}] + [state - {u} for u in earlier if u in state]
            for nxt in options:
                if not nxt & leaving:
                    new_perfect[nxt] = new_perfect.get(nxt, 0) + count
        for state, poly in ind.items():
            _add_shifted(new_ind.setdefault(state - leaving, []), poly, 0)
            if not any(u in state for u in earlier):
                _add_shifted(new_ind.setdefault((state | {v}) - leaving, []), poly, 1)
        match, perfect, ind = new_match, new_perfect, new_ind
    (mp,), (pm,), (ip,) = match.values(), perfect.values() or [0], ind.values()
    return mp, ip, pm


def _ladder(rungs):
    """Adjacency sets and a narrow vertex order of the 2 x rungs ladder."""
    adj = [set() for _ in range(2 * rungs)]
    edges = [(i, rungs + i) for i in range(rungs)]
    edges += [(s + i, s + i + 1) for s in (0, rungs) for i in range(rungs - 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj, [v for i in range(rungs) for v in (i, rungs + i)]


_PROBE_LADDER = _ladder(40)
# Once from unit 1 (small integers: interpreter work, as in min-fill and on
# molecules) and once from a 4097-bit unit (big-integer additions, as in the
# tables on grids and chains).
_PROBE_UNITS = (1, 1 << 4096)


def speed_probe():
    """Seconds that a fixed piece of pure-Python work takes right now.

    The work is the frontier DP on the 2 x 40 ladder, run twice. The
    collector is off while it runs, so that objects the program keeps alive
    cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for unit in _PROBE_UNITS:
            frontier_counts(*_PROBE_LADDER, unit)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# --- decomposition facts ------------------------------------------------------

def decomposition_facts(nd):
    """Width, node counts, predicted cost and table sizes of a nice decomposition.

    ``cost_units`` is sum 2^|bag| over non-join nodes plus sum 3^|bag| over
    joins. ``peak_live_cells`` replays the DP's postorder: a node's table is
    allocated while its children's are alive, then the children are released.
    """
    cost = cells = live = peak = 0
    for node in nd.nodes:
        size = 1 << len(node.bag)
        cost += 3 ** len(node.bag) if node.kind == JOIN else size
        cells += size
        live += size
        peak = max(peak, live)
        live -= sum(1 << len(nd.nodes[c].bag) for c in node.children)
    return {
        "width": nd.width(),
        "join_nodes": nd.join_count(),
        "nice_nodes": len(nd),
        "cost_units": cost,
        "table_cells": cells,
        "peak_live_cells": peak,
    }
