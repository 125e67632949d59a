"""Command-line front end: count, stats, bench and chain subcommands.

CSV rows follow one long-format schema: ``id,n,m,width,quantity,value,millis,
engine,status``. Exit codes: 0 ok, 1 usage error, 2 input error, 3 internal
invariant violation (e.g. a baseline disagreeing with the DP).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from random import Random

from . import baselines, counting, decomposition
from .chain import chain_pm_count, parse_chain_file
from .errors import DecompositionMismatch, ParseError, SizeLimitError
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
    # imported here: it adds 10-25 ms to a `python -S` start-up (CPython
    # 3.11), and only commands that read bundled data need it
    from importlib import resources

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


def _corpus(path):
    """Load a SMILES corpus, reporting each rejected line on stderr."""
    corpus = load_corpus(path)
    for reject in corpus.rejects:
        print(f"reject line {reject.line}: {reject.reason}", file=sys.stderr)
    return corpus


def _load_inputs(args):
    """Resolve the count inputs to a list of (id, graph, nice decomposition)."""
    if args.td is not None and args.gr is None:
        raise _UsageError("--td only applies to --gr input")
    if args.smiles is not None:
        return [(args.id or args.smiles, parse_smiles(args.smiles).graph, None)]
    if args.corpus is not None:
        return [(mol.name or mol.source, mol.graph, None)
                for mol in _corpus(args.corpus).molecules]
    graph = parse_gr(Path(args.gr).read_text(encoding="utf-8"))
    nd = None
    if args.td is not None:
        td = decomposition.parse_td(Path(args.td).read_text(encoding="utf-8"))
        nd = decomposition.make_nice(td)
        # the counters reuse the plan this check keeps on nd
        try:
            counting._plan_for(graph, nd)
        except DecompositionMismatch as exc:
            raise _InputError(f"supplied decomposition is invalid: {exc}")
    return [(args.id or Path(args.gr).stem, graph, nd)]


def _selected_quantities(args):
    """The quantities the flags picked, all if none was, in QUANTITIES order."""
    picked = {name for names in args.picked or [QUANTITIES] for name in names}
    return [name for name in QUANTITIES if name in picked]


_SINGLE_COUNTERS = {
    "perfect_matchings": counting.count_perfect_matchings,
    "matchings": counting.count_matchings,
    "independent_sets": counting.count_independent_sets,
    "matching_polynomial": counting.matching_polynomial,
    "independence_polynomial": counting.independence_polynomial,
}
_BASELINES = {
    "perfect_matchings": baselines.baseline_pm,
    "matchings": baselines.baseline_matchings,
    "independent_sets": baselines.baseline_independent_sets,
}
BENCH_QUANTITIES = list(_BASELINES)
_ENTROPY_OF = {
    "entropy_matchings": "matching_polynomial",
    "entropy_independent_sets": "independence_polynomial",
}


def _compute(graph, nd, names):
    """Compute the requested quantities; returns {name: (value, millis)}.

    Both polynomials or an entropy take one ``run_all``, which reads the
    perfect matchings, and on small inputs the Hosoya and Merrifield-Simmons
    totals, off the polynomials; other selections call the single counters.
    Either way the decomposition is checked once: the counters share the
    plan that the first one's ``_prepare`` keeps on ``nd``.
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


def _dp_rows(mol_id, graph, nd, results, clock):
    """CSV rows of the ``_compute`` results, in ``QUANTITIES`` order."""
    return [[mol_id, graph.n, graph.m, nd.width(), name,
             _format_value(results[name][0]),
             _format_millis(results[name][1], clock), "dp", "ok"]
            for name in QUANTITIES if name in results]


def cmd_count(args):
    names = _selected_quantities(args)
    rows = []
    for mol_id, graph, nd in _load_inputs(args):
        if nd is None:
            nd = decomposition.decompose(graph)
        dp_rows = _dp_rows(mol_id, graph, nd, _compute(graph, nd, names),
                           args.clock)
        for row in dp_rows:
            print(f"{mol_id}\t{row[4]} = {row[5]}")
        rows += dp_rows
    _write_csv(args.out, rows)
    return EXIT_OK


def cmd_stats(args):
    corpus = _corpus(args.corpus or bundled_path("corpus100.smi"))
    hist = {}
    for mol in corpus.molecules:
        # the width of the decomposition the counters use, which make_nice
        # keeps; read off the tree, so a width past its cap is counted too
        width = decomposition._min_fill_tree(mol.graph).width()
        hist[width] = hist.get(width, 0) + 1
    lines = ["width,count"] + [f"{w},{hist[w]}" for w in sorted(hist)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(f"accepted={len(corpus.molecules)} rejected={len(corpus.rejects)}",
          file=sys.stderr)
    return EXIT_OK


def _bench_instance(task):
    """Compute all bench rows for one molecule (runs inside worker processes)."""
    mol_id, graph, engines, budget, clock = task
    nd = decomposition.decompose(graph)
    width = nd.width()
    dp = _compute(graph, nd, BENCH_QUANTITIES) if "dp" in engines else {}
    rows = _dp_rows(mol_id, graph, nd, dp, clock)
    if "baseline" in engines:
        for name, baseline in _BASELINES.items():
            result = baseline(graph, budget)
            status = "timeout" if result.timed_out else "ok"
            value = "" if result.timed_out else _format_value(result.value)
            rows.append([mol_id, graph.n, graph.m, width, name, value,
                         _format_millis(result.elapsed * 1000.0, clock),
                         "baseline", status])
            if not result.timed_out and name in dp:
                if dp[name][0] != result.value:
                    raise _InvariantError(
                        f"baseline disagrees with dp on {mol_id}/{name}: "
                        f"{result.value} != {dp[name][0]}"
                    )
    return rows


def cmd_bench(args):
    for flag, value in (("--per-size", args.per_size), ("--jobs", args.jobs)):
        if value < 1:
            raise _UsageError(f"{flag} must be at least 1, got {value}")
    if not (math.isfinite(args.budget) and args.budget > 0):
        raise _UsageError("--budget must be a positive finite number of "
                          f"seconds, got {args.budget:g}")
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    if not engines:
        raise _UsageError(f"--engines names no engine: {args.engines!r}")
    for e in engines:
        if e not in ("dp", "baseline"):
            raise _UsageError(f"unknown engine {e!r}")
    corpus = _corpus(args.corpus or bundled_path("corpus100.smi"))

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
        # imported here: with multiprocessing and threading it adds about
        # 30 ms to every `tdcount` start-up (CPython 3.11)
        from concurrent.futures import ProcessPoolExecutor

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
    if args.n < 1:
        raise _UsageError(f"--n must be at least 1, got {args.n}")
    element = parse_chain_file(Path(args.element).read_text(encoding="utf-8"))
    print(_format_value(chain_pm_count(element, args.n)))
    return EXIT_OK


def _write_csv(dest, rows):
    if dest is None:
        return
    with (nullcontext(sys.stdout) if dest == "-" else
          open(dest, "w", newline="", encoding="utf-8")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def build_parser():
    parser = _Parser(prog="tdcount",
                     description="Structure counting on small-treewidth graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count structures of one or more graphs")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--smiles", help="SMILES string")
    source.add_argument("--gr", help="PACE .gr graph file")
    source.add_argument("--corpus", help="SMILES corpus file")
    p.add_argument("--td", help="PACE .td decomposition to use (with --gr)")
    p.add_argument("--id", help="identifier for single-graph input")
    for flag, names, text in (
            ("--pm", ["perfect_matchings"], "perfect matchings"),
            ("--hosoya", ["matchings"], "matchings total"),
            ("--ms", ["independent_sets"], "independent sets total"),
            ("--mpoly", ["matching_polynomial"], "matching polynomial"),
            ("--ipoly", ["independence_polynomial"], "independence polynomial"),
            ("--entropy", list(_ENTROPY_OF), "both entropies"),
            ("--all", QUANTITIES, "all quantities (default)")):
        p.add_argument(flag, action="append_const", dest="picked", const=names,
                       help=text)
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
    except (_InputError, ParseError, SizeLimitError, DecompositionMismatch,
            OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
