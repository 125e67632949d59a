"""Regenerate perfbench/references.json, cross-checking every answer.

    python3 perfbench/make_references.py

Run from the root of a checkout. Each stored answer is the DP's, and it is
written only after it agrees with sources that share no code with the DP:

* a frontier dynamic program over a vertex order, written here, that gives
  both size polynomials and the perfect-matching count of every input;
* the enumeration oracle for every corpus molecule within its cap;
* pm(2 x k ladder) = F(k+1) and pm(hexagon chain of n) = F(n+2);
* sum of match-poly = Hosoya, sum of ind-poly = Merrifield-Simmons,
  match-poly[n/2] = pm, and the count_* calls equal run_all;
* chain_pm_count at n = 1000 equals the DP pm on build_chain, and at the
  benchmark's chain length equals F(n+2).

Entropies are recomputed from the independent polynomials and must agree
within a relative 1e-12.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
from tdcount import (  # noqa: E402
    SizeLimitError,
    build_chain,
    chain_pm_count,
    count_independent_sets,
    count_matchings,
    count_perfect_matchings,
    decomposition_from_order,
    make_nice,
    min_fill_order,
    oracle_counts,
    parse_chain_file,
    parse_gr,
    parse_smiles,
    run_all,
)

OUT = Path(__file__).resolve().parent / "references.json"


def fibonacci(n):
    """F(n) with F(1) = F(2) = 1, by fast doubling."""
    def pair(k):
        if k == 0:
            return 0, 1
        a, b = pair(k >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if k & 1 else (c, d)
    return pair(n)[0]


def frontier_order(item, g):
    """A vertex order with a small frontier for each input family."""
    if item.name.startswith("grid"):
        rows = g.n // harness.GRID_COLS
        return [r * harness.GRID_COLS + c for c in range(harness.GRID_COLS)
                for r in range(rows)]
    if item.name.startswith("ladder"):
        k = g.n // 2
        return [v for i in range(k) for v in (i, k + i)]
    return list(range(g.n))


def entropy_of(poly):
    total = sum(poly)
    lg = math.log2(total)
    return math.fsum(-(c / total) * (math.log2(c) - lg) for c in poly if c)


def check(ok, what):
    if not ok:
        raise SystemExit(f"reference check failed: {what}")


def graph_reference(item):
    g = parse_smiles(item.text).graph if item.fmt == "smiles" else parse_gr(item.text)
    nd = make_nice(decomposition_from_order(g, min_fill_order(g)))
    report = run_all(g, nd)
    pm, hosoya, ms = report.perfect_matchings, report.matchings, report.independent_sets
    mp, ip = list(report.matching_poly), list(report.independence_poly)
    name = item.name

    check((count_perfect_matchings(g, nd), count_matchings(g, nd),
           count_independent_sets(g, nd)) == (pm, hosoya, ms),
          f"{name}: count_* differ from run_all")
    check(sum(mp) == hosoya and sum(ip) == ms, f"{name}: polynomial sums")
    check(pm == (mp[g.n // 2] if g.n % 2 == 0 and g.n // 2 < len(mp) else 0),
          f"{name}: match-poly[n/2] != pm")
    adj = [g.neighbors(v) for v in range(g.n)]
    fmp, fip, fpm = harness.frontier_counts(adj, frontier_order(item, g))
    check((fmp, fip, fpm) == (mp, ip, pm), f"{name}: frontier DP disagrees")
    for key, poly in (("entropy_matchings", mp), ("entropy_independent_sets", ip)):
        got, want = getattr(report, key), entropy_of(poly)
        check(abs(got - want) <= harness.ENTROPY_RTOL * abs(want), f"{name}: {key}")
    if item.fmt == "smiles":
        try:
            opm, omp, oip = oracle_counts(g)
        except SizeLimitError:
            print(f"  {name}: beyond the oracle cap")
        else:
            check((opm, omp, oip) == (pm, mp, ip), f"{name}: oracle disagrees")
    if name.startswith("ladder"):
        check(pm == fibonacci(g.n // 2 + 1), f"{name}: pm != F(k+1)")
    if name.startswith("hexchain"):
        check(pm == fibonacci(harness.HEX_CHAIN_COPIES + 2), f"{name}: pm != F(n+2)")

    answers = {"pm": pm, "hosoya": hosoya, "ms": ms, "match_poly": mp, "ind_poly": ip,
               "entropy_matchings": entropy_of(mp),
               "entropy_independent_sets": entropy_of(ip)}
    return harness.encode_answers(answers)


def chain_reference(item):
    element = parse_chain_file(item.text)
    g = build_chain(element, 1000)
    nd = make_nice(decomposition_from_order(g, min_fill_order(g)))
    small = chain_pm_count(element, 1000)
    check(small == count_perfect_matchings(g, nd) == fibonacci(1002),
          "chain_pm_count(1000) disagrees with the DP on build_chain")
    pm = chain_pm_count(element, item.copies)
    check(pm == fibonacci(item.copies + 2), f"{item.name}: pm != F(n+2)")
    return harness.encode_answers({"pm": pm})


def main():
    refs = {}
    for workload in harness.WORKLOADS:
        print(workload)
        for item in harness.load_items(workload, SRC):
            check(item.name not in refs, f"duplicate input name {item.name}")
            refs[item.name] = (chain_reference(item) if item.fmt == "chain"
                               else graph_reference(item))
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} references to {OUT}")


if __name__ == "__main__":
    main()
