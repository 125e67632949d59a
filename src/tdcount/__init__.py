"""Exact structure counting on small-treewidth graphs.

Kekulé structures (perfect matchings), the Hosoya and Merrifield-Simmons
indices, their size-resolved polynomials and the derived entropies, computed
by dynamic programming over nice tree/path decompositions, with exhaustive
oracles, naive branching baselines and a transfer-matrix fast path for
chain-repeated graphs.
"""

from .chain import (
    ChainElement,
    ChainStats,
    TransitionSystem,
    build_chain,
    build_transition,
    chain_pm_count,
    parse_chain_file,
)
from .counting import (
    DpStats,
    RunReport,
    SizePolynomial,
    count_independent_sets,
    count_matchings,
    count_perfect_matchings,
    entropy,
    independence_polynomial,
    matching_polynomial,
    run_all,
)
from .decomposition import (
    MAX_WIDTH,
    NiceDecomposition,
    TreeDecomposition,
    decompose,
    decomposition_from_order,
    emit_td,
    make_nice,
    min_fill_order,
    parse_td,
    path_decomposition_from_order,
)
from .errors import DecompositionMismatch, ParseError, SizeLimitError
from .graph import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    emit_gr,
    ladder_graph,
    parse_gr,
    path_graph,
)
from .smiles import Corpus, Molecule, load_corpus, parse_smiles

__version__ = "0.1.0"

# The enumeration oracle and the branching baselines are the ground truth
# and the benchmark opponents; no counting path uses them, so their
# modules are imported on first use of one of these names (PEP 562).
_LAZY = {
    "BaselineResult": "baselines",
    "baseline_independent_sets": "baselines",
    "baseline_matchings": "baselines",
    "baseline_pm": "baselines",
    "oracle_counts": "oracle",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
