"""Exact structure counting on small-treewidth graphs.

Kekulé structures (perfect matchings), the Hosoya and Merrifield-Simmons
indices, their size-resolved polynomials and the derived entropies, computed
by dynamic programming over nice tree/path decompositions, with exhaustive
oracles, naive branching baselines and a transfer-matrix fast path for
chain-repeated graphs.
"""

from .baselines import (
    BaselineResult,
    baseline_independent_sets,
    baseline_matchings,
    baseline_pm,
)
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
from .oracle import oracle_counts
from .smiles import Corpus, Molecule, load_corpus, parse_smiles

__version__ = "0.1.0"
