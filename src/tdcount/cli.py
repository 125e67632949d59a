"""Command-line front end: count, stats, bench and chain subcommands.

CSV rows follow one long-format schema: ``id,n,m,width,quantity,value,millis,
engine,status``. Exit codes: 0 ok, 1 usage error, 2 input error, 3 internal
invariant violation (e.g. a baseline disagreeing with the DP).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from random import Random

from . import baselines, counting, decomposition
from .chain import chain_pm_count, parse_chain_file
from .errors import ParseError, SizeLimitError
from .graph import parse_gr
from .smiles import load_corpus, parse_smiles

CSV_HEADER = ["id", "n", "m", "width", "quantity", "value", "millis",
              "engine", "status"]

QUANTITIES = [
    "perfect_matchings",
    "matchings",
    "independent_sets",
    "matching_polynomial",
    "independence_polynomial",
    "entropy_matchings",
    "entropy_independent_sets",
]
BENCH_QUANTITIES = ["perfect_matchings", "matchings", "independent_sets"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _InvariantError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def bundled_path(name):
    return resources.files("tdcount").joinpath("data").joinpath(name)


@contextmanager
def _any_int_digits():
    """Lift CPython's int/str digit limit (4300 by default) inside the block.

    Counts are exact and can run to any number of digits.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    with _any_int_digits():
        if isinstance(value, counting.SizePolynomial):
            return ";".join(str(c) for c in value)
        return str(value)


def _format_millis(ms, clock):
    return "0" if clock == "none" else f"{ms:.3f}"


def _decomposition_for(graph):
    order = decomposition.min_fill_order(graph)
    td = decomposition.decomposition_from_order(graph, order)
    return decomposition.make_nice(td)


def _load_inputs(args):
    """Resolve the count inputs to a list of (id, graph, nice decomposition)."""
    given = [x for x in (args.smiles, args.gr, args.corpus) if x is not None]
    if len(given) != 1:
        raise _UsageError("count needs exactly one of --smiles, --gr, --corpus")
    if args.td is not None and args.gr is None:
        raise _UsageError("--td only applies to --gr input")
    items = []
    if args.smiles is not None:
        mol = parse_smiles(args.smiles)
        items.append((args.id or args.smiles, mol.graph, None))
    elif args.gr is not None:
        text = Path(args.gr).read_text(encoding="utf-8")
        graph = parse_gr(text)
        nd = None
        if args.td is not None:
            td = decomposition.parse_td(Path(args.td).read_text(encoding="utf-8"))
            report = decomposition.validate(graph, td)
            if not report.ok:
                raise _InputError(f"supplied decomposition is invalid: {report}")
            nd = decomposition.make_nice(td)
        items.append((args.id or Path(args.gr).stem, graph, nd))
    elif args.corpus is not None:
        corpus = load_corpus(args.corpus)
        for reject in corpus.rejects:
            print(f"reject line {reject.line}: {reject.reason}", file=sys.stderr)
        for mol in corpus.molecules:
            items.append((mol.name or mol.source, mol.graph, None))
    return items


def _selected_quantities(args):
    picked = []
    if args.pm:
        picked.append("perfect_matchings")
    if args.hosoya:
        picked.append("matchings")
    if args.ms:
        picked.append("independent_sets")
    if args.mpoly:
        picked.append("matching_polynomial")
    if args.ipoly:
        picked.append("independence_polynomial")
    if args.entropy:
        picked += ["entropy_matchings", "entropy_independent_sets"]
    if args.all or not picked:
        picked = list(QUANTITIES)
    return picked


_SINGLE_COUNTERS = {
    "perfect_matchings": counting.count_perfect_matchings,
    "matchings": counting.count_matchings,
    "independent_sets": counting.count_independent_sets,
    "matching_polynomial": counting.matching_polynomial,
    "independence_polynomial": counting.independence_polynomial,
}
_ENTROPY_OF = {
    "entropy_matchings": "matching_polynomial",
    "entropy_independent_sets": "independence_polynomial",
}


def _compute(graph, nd, names):
    """Compute the requested quantities; returns {name: (value, millis)}.

    Both polynomials or an entropy take one ``run_all`` (totals reused for
    the polynomials); other selections call the single counters. Either way
    the decomposition is checked once: the counters share the plan that the
    first one's ``_prepare`` keeps on ``nd``.
    """
    wanted = set(names)

    def timed(fn, *fn_args):
        t0 = time.perf_counter()
        value = fn(*fn_args)
        return value, (time.perf_counter() - t0) * 1000.0

    if set(_ENTROPY_OF.values()) <= wanted or wanted & set(_ENTROPY_OF):
        report = counting.run_all(graph, nd)
        values = report.as_dict()
        out = {name: (values[name], ms)
               for name, ms in report.millis.items() if name in wanted}
        # run_all does not time its entropies: time them here
        for name, poly in _ENTROPY_OF.items():
            if name in wanted:
                out[name] = timed(counting.entropy, values[poly])
        return out
    return {name: timed(fn, graph, nd)
            for name, fn in _SINGLE_COUNTERS.items() if name in wanted}


def cmd_count(args):
    names = _selected_quantities(args)
    rows = []
    for mol_id, graph, nd in _load_inputs(args):
        if nd is None:
            nd = _decomposition_for(graph)
        results = _compute(graph, nd, names)
        for name in QUANTITIES:
            if name not in results:
                continue
            value, ms = results[name]
            print(f"{mol_id}\t{name} = {_format_value(value)}")
            rows.append([mol_id, graph.n, graph.m, nd.width(), name,
                         _format_value(value), _format_millis(ms, args.clock),
                         "dp", "ok"])
    _write_csv(args.out, rows)
    return EXIT_OK


def cmd_stats(args):
    corpus_file = args.corpus or bundled_path("corpus100.smi")
    corpus = load_corpus(corpus_file)
    hist = {}
    for mol in corpus.molecules:
        order = decomposition.min_fill_order(mol.graph)
        td = decomposition.decomposition_from_order(mol.graph, order)
        hist[td.width()] = hist.get(td.width(), 0) + 1
    lines = ["width,count"] + [f"{w},{hist[w]}" for w in sorted(hist)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(f"accepted={len(corpus.molecules)} rejected={len(corpus.rejects)}",
          file=sys.stderr)
    for reject in corpus.rejects:
        print(f"reject line {reject.line}: {reject.reason}", file=sys.stderr)
    return EXIT_OK


def _bench_instance(task):
    """Compute all bench rows for one molecule (runs inside worker processes)."""
    mol_id, graph, engines, budget, clock = task
    nd = _decomposition_for(graph)
    width = nd.width()
    rows = []
    dp_values = {}
    if "dp" in engines:
        fns = {
            "perfect_matchings": counting.count_perfect_matchings,
            "matchings": counting.count_matchings,
            "independent_sets": counting.count_independent_sets,
        }
        for name in BENCH_QUANTITIES:
            t0 = time.perf_counter()
            value = fns[name](graph, nd)
            ms = (time.perf_counter() - t0) * 1000.0
            dp_values[name] = value
            rows.append([mol_id, graph.n, graph.m, width, name,
                         _format_value(value), _format_millis(ms, clock), "dp",
                         "ok"])
    if "baseline" in engines:
        fns = {
            "perfect_matchings": baselines.baseline_pm,
            "matchings": baselines.baseline_matchings,
            "independent_sets": baselines.baseline_independent_sets,
        }
        for name in BENCH_QUANTITIES:
            result = fns[name](graph, budget)
            status = "timeout" if result.timed_out else "ok"
            value = "" if result.timed_out else _format_value(result.value)
            rows.append([mol_id, graph.n, graph.m, width, name, value,
                         _format_millis(result.elapsed * 1000.0, clock),
                         "baseline", status])
            if not result.timed_out and name in dp_values:
                if dp_values[name] != result.value:
                    raise _InvariantError(
                        f"baseline disagrees with dp on {mol_id}/{name}: "
                        f"{result.value} != {dp_values[name]}"
                    )
    return rows


def cmd_bench(args):
    corpus_file = args.corpus or bundled_path("corpus100.smi")
    corpus = load_corpus(corpus_file)
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    for e in engines:
        if e not in ("dp", "baseline"):
            raise _UsageError(f"unknown engine {e!r}")

    by_m = {}
    for idx, mol in enumerate(corpus.molecules):
        by_m.setdefault(mol.graph.m, []).append(idx)
    rng = Random(args.seed)
    chosen = []
    for m in sorted(by_m):
        group = by_m[m]
        take = min(args.per_size, len(group))
        chosen.extend(rng.sample(group, take))
    chosen.sort()  # rows come out in corpus order

    tasks = []
    for idx in chosen:
        mol = corpus.molecules[idx]
        tasks.append((mol.name or mol.source, mol.graph, engines, args.budget,
                      args.clock))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            per_instance = list(pool.map(_bench_instance, tasks))
    else:
        per_instance = [_bench_instance(t) for t in tasks]

    rows = [row for rows_ in per_instance for row in rows_]
    with _any_int_digits():
        for row in rows:  # round-trip guard on the value column
            if row[8] == "ok" and row[4] in BENCH_QUANTITIES:
                if str(int(row[5])) != row[5]:
                    raise _InvariantError(f"value column corrupt in row {row}")
    _write_csv(args.out or "-", rows)
    if args.summary:
        _write_summary(args.summary, rows)
    return EXIT_OK


def _write_summary(path, rows):
    agg = {}
    for mol_id, n, m, width, quantity, value, millis, engine, status in rows:
        key = (int(m), quantity, engine)
        runs, timeouts, total = agg.get(key, (0, 0, 0.0))
        agg[key] = (runs + 1, timeouts + (status == "timeout"),
                    total + float(millis))
    lines = ["m,quantity,engine,runs,timeouts,mean_millis"]
    for (m, quantity, engine), (runs, timeouts, total) in sorted(agg.items()):
        lines.append(f"{m},{quantity},{engine},{runs},{timeouts},"
                     f"{total / runs:.3f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_chain(args):
    element = parse_chain_file(Path(args.element).read_text(encoding="utf-8"))
    print(_format_value(chain_pm_count(element, args.n)))
    return EXIT_OK


def _write_csv(dest, rows):
    if dest is None:
        return
    if dest == "-":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
        return
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def build_parser():
    parser = _Parser(prog="tdcount",
                     description="Structure counting on small-treewidth graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count structures of one or more graphs")
    p.add_argument("--smiles", help="SMILES string")
    p.add_argument("--gr", help="PACE .gr graph file")
    p.add_argument("--td", help="PACE .td decomposition to use (with --gr)")
    p.add_argument("--corpus", help="SMILES corpus file")
    p.add_argument("--id", help="identifier for single-graph input")
    p.add_argument("--pm", action="store_true", help="perfect matchings")
    p.add_argument("--hosoya", action="store_true", help="matchings total")
    p.add_argument("--ms", action="store_true", help="independent sets total")
    p.add_argument("--mpoly", action="store_true", help="matching polynomial")
    p.add_argument("--ipoly", action="store_true", help="independence polynomial")
    p.add_argument("--entropy", action="store_true", help="both entropies")
    p.add_argument("--all", action="store_true", help="all quantities (default)")
    p.add_argument("--out", help="write CSV rows to this file ('-' for stdout)")
    p.add_argument("--clock", choices=["wall", "none"], default="wall")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("stats", help="width histogram of a corpus")
    p.add_argument("--corpus", help="corpus file (default: bundled 100 molecules)")
    p.add_argument("--out", help="write histogram CSV here instead of stdout")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("bench", help="DP vs naive baselines over a corpus")
    p.add_argument("--corpus", help="corpus file (default: bundled 100 molecules)")
    p.add_argument("--seed", type=int, required=True,
                   help="sampling seed (required for reproducibility)")
    p.add_argument("--budget", type=float, default=10.0,
                   help="per-instance baseline time budget in seconds")
    p.add_argument("--per-size", type=int, default=3, dest="per_size",
                   help="instances sampled per edge count")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--engines", default="dp,baseline")
    p.add_argument("--clock", choices=["wall", "none"], default="wall",
                   help="'none' writes 0 millis for byte-reproducible CSV")
    p.add_argument("--out", help="CSV output file (default stdout)")
    p.add_argument("--summary", help="also write per-edge-size mean times here")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("chain", help="perfect matchings of a repeated chain")
    p.add_argument("--element", required=True, help="chain element file")
    p.add_argument("--n", type=int, required=True, help="number of copies")
    p.set_defaults(fn=cmd_chain)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_InputError, ParseError, SizeLimitError,
            counting.DecompositionMismatch, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
