"""tdcount benchmark: closed-loop requests against the package's public calls.

    python3 perfbench/run.py --workload corpus100 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory, never from an installed copy. One client sends one request at a
time and waits for the answer (closed loop, no threads, no workers). A round
sends every request of the workload once, in an order shuffled by the seed;
rounds repeat until ``--seconds`` have passed (at least one round). Every
answer is checked against ``perfbench/references.json``. Set-up, the part
that ``setup_s`` times, is in ``prepare.py``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics, and
the spans are written to ``.bench_out/trace-<workload>-seed<seed>.json``.
Human-readable lines come before it. The exit code is 0 when every answer
was correct, 1 when one failed, 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict

import prepare

TRACE_DIR = prepare.ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_INTERVAL_S = 0.3
REFERENCE_PROBE_S = 0.01
KEPT_SPAN_ROUNDS = 3
PRINTED_INPUTS = 6
KINDS = ("counts", "full", "chain")

TIME_LAYERS = (
    "smiles.parse", "graph.parse_gr",
    "decomposition.order", "decomposition.tree", "decomposition.nice",
    "counting.pm", "counting.hosoya", "counting.ms",
    "counting.match_poly", "counting.ind_poly", "counting.run_all_rest",
    "chain.transition", "chain.pm_count",
)
RUN_ALL_MILLIS = {
    "perfect_matchings": "counting.pm",
    "matchings": "counting.hosoya",
    "independent_sets": "counting.ms",
    "matching_polynomial": "counting.match_poly",
    "independence_polynomial": "counting.ind_poly",
}
COUNTING_LAYERS = tuple(RUN_ALL_MILLIS.values())


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(args):
    """Seconds from process start to ready, for SETUP_PROBES fresh processes.

    The child runs ``prepare.py`` without ``site`` (-S): tdcount needs
    nothing from site-packages, and the path hooks installed there are
    start-up cost of the environment, not of the program.
    """
    cmd = [sys.executable, "-S", prepare.__file__, args.workload]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            print(f"error: set-up process failed with exit code {code}", file=sys.stderr)
            raise SystemExit(2)
    return samples


class SpeedProbe:
    """Samples the harness's speed probe between requests.

    The speed of the shared host drifts by up to 1.6x over minutes, which no
    median inside a 30-second run can remove. Pass times are therefore
    reported at a reference speed: measured seconds times REFERENCE_PROBE_S
    over the run's median probe time. The probe shares no code with tdcount,
    so a change to the program moves the scaled times as much as the
    measured ones. Set-up time does not follow the probe and stays measured.
    """

    def __init__(self, harness):
        self.run = harness.speed_probe
        self.samples = array("d")
        self.last = -math.inf

    def maybe_sample(self):
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.samples.append(self.run())
            self.last = time.perf_counter()

    def scale(self):
        return REFERENCE_PROBE_S / statistics.median(self.samples)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, item, kind, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{kind} {item.name}: {problem}")


def run_round(harness, requests, rng, refs, tally, tracer, round_no, probe=None,
              keep_answers=False):
    """Send every request once; returns {kind: seconds} and per-request rows.

    A row holds the answers and the decomposition only with ``keep_answers``;
    otherwise they are dropped once checked, so that no request's memory
    outlives it.
    """
    order = list(requests)
    rng.shuffle(order)
    totals = dict.fromkeys(KINDS, 0.0)
    rows = []
    for i, (kind, item) in enumerate(order):
        tracer.request_id = f"{round_no}:{i}"
        answers = nd = problem = None
        t0 = time.perf_counter()
        try:
            with tracer.span("request." + kind):
                answers, nd = harness.execute(kind, item, tracer)
        except Exception as exc:  # a raising request is a failed request
            problem = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if answers is not None:
            bad = harness.mismatches(answers, refs.get(item.name, {}))
            problem = f"wrong {', '.join(bad)}" if bad else None
        tally.record(item, kind, problem)
        totals[kind] += dt
        if not keep_answers:
            answers = nd = None
        rows.append((tracer.request_id, kind, item, dt, answers, nd))
        if probe is not None:
            probe.maybe_sample()
    return totals, rows


def timing_line(name, samples, unit, scale):
    """Median plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    n = len(samples)
    text = f"{name:<18} median {statistics.median(samples) * scale:.6g} {unit}"
    for q in (0.999, 0.99, 0.9):
        if n * (1 - q) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[round(q * 1000) - 1]
            text += f"  p{q * 100:g} {cut * scale:.6g} {unit}"
            break
    return text + f"  (n={n})"


def end_to_end(args, harness, items, refs):
    setup_samples = time_setup(args)
    probe = SpeedProbe(harness)
    rng = random.Random(args.seed)
    requests = harness.requests_for(items)
    tally = Tally()
    tracer = harness.NullTracer()
    rounds = []
    mol_full = array("d")  # per-molecule full request latencies, corpus100 only
    gc.collect()
    start = time.perf_counter()
    while True:
        totals, rows = run_round(harness, requests, rng, refs, tally, tracer, len(rounds),
                                 probe)
        rounds.append(totals)
        mol_full.extend(dt for _, kind, item, dt, _, _ in rows
                        if kind == "full" and item.fmt == "smiles")
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    scale = probe.scale()
    lines = [f"{'speed probe':<18} median {statistics.median(probe.samples) * 1e3:.6g} ms "
             f"(n={len(probe.samples)}); times below but setup_s are measured x "
             f"{scale:.6g}, the reference speed's {REFERENCE_PROBE_S * 1e3:g} ms over "
             f"that median",
             timing_line("setup_s", setup_samples, "s", 1.0)]
    for kind in KINDS:
        samples = [r[kind] for r in rounds]
        if any(samples):
            lines.append(timing_line(f"{kind}_s", samples, "s", scale))
    if mol_full:
        lines.append(timing_line("mol_full_ms", mol_full, "ms", scale * 1e3))
        p90 = statistics.quantiles(mol_full, n=10)[-1]
        lines.append(f"{'mol_full_p90_ms':<18} {p90 * scale * 1e3:.6g} ms  "
                     f"(n={len(mol_full)})")
    lines.append(f"{'peak_rss_mb':<18} {peak_rss_mb:.6g} MB")
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "counts_s": (statistics.median(r["counts"] for r in rounds) * scale, "s"),
        "full_s": (statistics.median(r["full"] for r in rounds) * scale, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return tally, len(rounds), lines, metrics


def layer_times(tracer, rows):
    """Self time per request kind and layer for one traced round.

    run_all is one call; its RunReport.millis split it into the five
    counters, and what remains is _prepare plus the entropies.
    """
    kind_of = {rid: kind for rid, kind, *_ in rows}
    child = defaultdict(float)
    for _, _, t0, t1, parent, _ in tracer.spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = {kind: defaultdict(float) for kind in KINDS}
    for sid, name, t0, t1, _, rid in tracer.spans:
        if not name.startswith("request."):
            out[kind_of[rid]][name] += t1 - t0 - child[sid]
    for rid, notes in tracer.notes.items():
        millis = notes.get("run_all.millis")
        if millis:
            layers = out[kind_of[rid]]
            layers["counting.run_all"] -= sum(millis.values()) / 1000.0
            for key, layer in RUN_ALL_MILLIS.items():
                layers[layer] += millis[key] / 1000.0
    for layers in out.values():
        if "counting.run_all" in layers:
            layers["counting.run_all_rest"] = layers.pop("counting.run_all")
    return out


def round_counts(tracer, rows):
    """Join products per request kind and chain counters of one traced round."""
    kind_of = {rid: kind for rid, kind, *_ in rows}
    out = defaultdict(int)
    for rid, notes in tracer.notes.items():
        if "join_products" in notes:
            out["counting.join_products." + kind_of[rid]] += notes["join_products"]
        for key in ("chain.matrix_mults", "chain.states"):
            if key in notes:
                out[key] = max(out[key], notes[key])
    return out


def hosoya_seconds(tracer, rid):
    return sum(s[3] - s[2] for s in tracer.spans if s[5] == rid and s[1] == "counting.hosoya")


def label_probe(args, harness, items, refs, tally):
    """Counts requests on every graph input relabelled by the seed.

    Counts do not depend on labels, so the same references apply; min-fill
    breaks ties by vertex id, so width, joins and cost can change.
    """
    rows = []
    for item in items:
        if item.fmt == "chain":
            continue
        tracer = harness.Tracer()
        tracer.request_id = "probe"
        try:
            answers, nd = harness.execute("counts", harness.relabelled(item, args.seed),
                                          tracer)
        except Exception as exc:  # a raising request is a failed request
            tally.record(item, "counts(relabelled)",
                         f"raised {type(exc).__name__}: {exc}")
            continue
        bad = harness.mismatches(answers, refs.get(item.name, {}))
        tally.record(item, "counts(relabelled)", f"wrong {', '.join(bad)}" if bad else None)
        facts = harness.decomposition_facts(nd)
        rows.append({"input": item.name, **facts,
                     "hosoya_s": hosoya_seconds(tracer, "probe")})
    return rows


def per_layer(args, harness, items, refs):
    """Alternate untraced and traced rounds, then probe the labels."""
    rng = random.Random(args.seed)
    requests = harness.requests_for(items)
    tally = Tally()
    plain, traced, layers, kept_spans = [], [], [], []
    counts = {}
    inputs = {}
    gc.collect()
    start = time.perf_counter()
    while True:
        totals, _ = run_round(harness, requests, rng, refs, tally, harness.NullTracer(),
                              len(plain) + len(traced))
        plain.append(sum(totals.values()))
        tracer = harness.Tracer()
        totals, rows = run_round(harness, requests, rng, refs, tally, tracer,
                                 len(plain) + len(traced), keep_answers=True)
        traced.append(sum(totals.values()))
        layers.append(layer_times(tracer, rows))
        counts = round_counts(tracer, rows)
        if len(kept_spans) < KEPT_SPAN_ROUNDS:
            kept_spans.append(tracer.spans)
        for rid, kind, item, dt, answers, nd in rows:
            fact = inputs.setdefault(item.name, {"input": item.name})
            if nd is not None and "width" not in fact:
                fact.update(harness.decomposition_facts(nd))
                fact["result_bits"] = answers["hosoya"].bit_length() if answers else 0
            fact.setdefault(kind + "_s", []).append(dt)
            if kind == "counts":
                fact.setdefault("hosoya_s", []).append(hosoya_seconds(tracer, rid))
        if time.perf_counter() - start >= args.seconds:
            break
    probe = label_probe(args, harness, items, refs, tally)

    graph_facts = [f for f in inputs.values() if "width" in f]
    for fact in inputs.values():
        for key in [k for k in fact if k.endswith("_s")]:
            fact[key] = statistics.median(fact[key])
        if fact.get("cost_units"):
            fact["hosoya_ns_per_unit"] = fact["hosoya_s"] / fact["cost_units"] * 1e9

    def median_layer(name, kinds=KINDS):
        return statistics.median(sum(r[k].get(name, 0.0) for k in kinds) for r in layers)

    def total(rows, key):
        return sum(f[key] for f in rows)

    def largest(rows, key):
        return max((f[key] for f in rows), default=0)

    cost_units = total(graph_facts, "cost_units")
    counting_s = sum(median_layer(name) for name in COUNTING_LAYERS)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = {name + "_s": (median_layer(name), "s") for name in TIME_LAYERS}
    metrics.update({
        "decomposition.width_max": (largest(graph_facts, "width"), "count"),
        "decomposition.join_nodes": (total(graph_facts, "join_nodes"), "count"),
        "decomposition.nice_nodes": (total(graph_facts, "nice_nodes"), "count"),
        "decomposition.cost_units": (cost_units, "count"),
        "decomposition.relabelled.width_max": (largest(probe, "width"), "count"),
        "decomposition.relabelled.join_nodes": (total(probe, "join_nodes"), "count"),
        "decomposition.relabelled.cost_units": (total(probe, "cost_units"), "count"),
        "counting.join_products.counts": (counts.get("counting.join_products.counts", 0), "count"),
        "counting.join_products.full": (counts.get("counting.join_products.full", 0), "count"),
        "counting.table_cells": (total(graph_facts, "table_cells"), "count"),
        "counting.peak_live_cells": (largest(graph_facts, "peak_live_cells"), "count"),
        "counting.result_bits": (largest(graph_facts, "result_bits"), "count"),
        "counting.ns_per_cost_unit": (counting_s / cost_units * 1e9, "ns"),
        "chain.matrix_mults": (counts.get("chain.matrix_mults", 0), "count"),
        "chain.states": (counts.get("chain.states", 0), "count"),
        "trace.overhead_pct": (overhead / statistics.median(plain) * 100.0, "%"),
    })

    lines = [f"rounds: {len(traced)} traced, {len(plain)} untraced; tracing overhead "
             f"{overhead:.6g} s per round ({metrics['trace.overhead_pct'][0]:.3g}%)"]
    for kind in KINDS:
        pass_s = statistics.median(sum(r[kind].values()) for r in layers)
        if not pass_s:
            continue
        lines.append(f"{kind} pass {pass_s:.6g} s traced; layer self time and share:")
        for name in sorted({n for r in layers for n in r[kind]}):
            t = median_layer(name, (kind,))
            lines.append(f"  {name:<24} {t:12.6g} s {t / pass_s * 100:6.1f}%")
    lines.append("predicted cost units against measured Hosoya time (all inputs in the "
                 "trace; here the totals and the most costly inputs)")
    for label, rows in (("generated labels", graph_facts), ("relabelled", probe)):
        units = total(rows, "cost_units")
        hosoya = total(rows, "hosoya_s")
        lines.append(f"  {label}: {units} units, Hosoya {hosoya * 1e3:.4g} ms, "
                     f"{hosoya / units * 1e9:.4g} ns/unit")
        for f in sorted(rows, key=lambda f: -f["cost_units"])[:PRINTED_INPUTS]:
            lines.append(f"    {f['input']:<24} w={f['width']:<3} "
                         f"joins={f['join_nodes']:<5} units={f['cost_units']:<9} "
                         f"hosoya {f['hosoya_s'] * 1e3:.4g} ms "
                         f"= {f['hosoya_s'] / f['cost_units'] * 1e9:.4g} ns/unit")

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["id", "name", "start", "end", "parent", "request"],
        "spans": kept_spans,
        "round_seconds_traced": traced,
        "round_seconds_untraced": plain,
        "inputs": list(inputs.values()),
        "label_probe": probe,
        "per_layer": {k: v for k, (v, _) in metrics.items()},
    }) + "\n", encoding="utf-8")
    lines.append(f"spans of {len(kept_spans)} rounds written to "
                 f"{path.relative_to(prepare.ROOT)}")
    return tally, len(traced) + len(plain), lines, metrics


def main(argv=None):
    harness = prepare.import_harness()
    args = parse_args(argv, harness.WORKLOADS)
    items, refs = prepare.setup(harness, args.workload)
    if args.trace:
        tally, rounds, lines, metrics = per_layer(args, harness, items, refs)
    else:
        tally, rounds, lines, metrics = end_to_end(args, harness, items, refs)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {rounds}  attempted {tally.attempted}  failed {tally.failed}  "
          f"failed_ratio {tally.failed / tally.attempted:.6g}")
    for line in lines:
        print(line)
    for message in tally.messages:
        print("FAILED " + message, file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
