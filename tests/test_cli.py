import csv
import io

import pytest

from tdcount import (
    TreeDecomposition, emit_gr, emit_td, ladder_graph, parse_smiles,
)
from tdcount.cli import _BASELINES, bundled_path, main
from conftest import count_prepares

TINY_CORPUS = """\
# tiny bench corpus
CCO\tethanol
C1CCCCC1\tcyclohexane
CC(C)C\tisobutane
c1ccccc1\tbenzene
CCN\tethylamine
C1CC1\tcyclopropane
"""


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_all(capsys):
    code, out, _ = run(["count", "--smiles", "C1CCCCC1", "--all"], capsys)
    assert code == 0
    assert "perfect_matchings = 2" in out
    assert "matchings = 18" in out
    assert "independent_sets = 18" in out
    assert "matching_polynomial = 1;6;9;2" in out
    assert "independence_polynomial = 1;6;9;2" in out
    assert "entropy_matchings" in out


def test_count_all_prepares_once(capsys, monkeypatch):
    calls = count_prepares(monkeypatch)
    code, out, _ = run(["count", "--smiles", "C1CCCCC1", "--all"], capsys)
    assert code == 0
    assert "independence_polynomial = 1;6;9;2" in out
    assert len(calls) == 1


def test_single_counters_prepare_once(capsys, monkeypatch):
    calls = count_prepares(monkeypatch)
    code, out, _ = run(["count", "--smiles", "C1CCCCC1", "--pm", "--hosoya",
                        "--ms"], capsys)
    assert code == 0
    assert out.splitlines() == ["C1CCCCC1\tperfect_matchings = 2",
                                "C1CCCCC1\tmatchings = 18",
                                "C1CCCCC1\tindependent_sets = 18"]
    assert len(calls) == 1
    calls.clear()
    code, out, _ = run(["count", "--smiles", "C1CCCCC1", "--pm", "--mpoly"],
                       capsys)
    assert code == 0
    assert "matching_polynomial = 1;6;9;2" in out
    assert len(calls) == 1


def test_count_single_quantity(capsys):
    code, out, _ = run(["count", "--smiles", "CC", "--ms"], capsys)
    assert code == 0
    assert out.strip() == "CC\tindependent_sets = 3"


def test_count_gr_with_valid_td(tmp_path, capsys):
    from tdcount import decomposition_from_order, min_fill_order

    g = ladder_graph(3)
    gr = tmp_path / "g.gr"
    gr.write_text(emit_gr(g))
    td = decomposition_from_order(g, min_fill_order(g))
    tdf = tmp_path / "g.td"
    tdf.write_text(emit_td(td, n_vertices=g.n))
    code, out, _ = run(
        ["count", "--gr", str(gr), "--td", str(tdf), "--pm"], capsys
    )
    assert code == 0
    assert "perfect_matchings = 3" in out  # 2x3 ladder has 3 perfect matchings


def _path_td(bags):
    return emit_td(TreeDecomposition(bags, list(range(1, len(bags))) + [-1],
                                     len(bags) - 1))


@pytest.mark.parametrize("rungs, td_text, message", [
    # a single bag missing almost everything
    (3, "s td 1 2 6\nb 1 1 2\n",
     "invalid: vertices [2, 3, 4, 5] not forgotten exactly once"),
    # every vertex alone in its bag: no edge is covered
    (3, _path_td([{v} for v in range(6)]),
     "invalid: edges [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]"
     " not covered by any bag"),
    # vertex 0 leaves the middle bag and comes back
    (3, _path_td([set(range(6)), set(range(1, 6)), set(range(6))]),
     "invalid: vertex 0 not forgotten exactly once"),
    # the header and the bag name a 7th vertex the graph does not have
    (3, _path_td([set(range(7))]), "invalid: introduced vertex 6 outside 0..5"),
    # one bag of all 32 vertices of the 2x16 ladder
    (16, _path_td([set(range(32))]), "width 31 exceeds the cap of 30"),
], ids=["missing-vertex", "uncovered-edge", "disconnected", "foreign-vertex",
        "too-wide"])
def test_count_invalid_td_exits_2(tmp_path, capsys, rungs, td_text, message):
    gr = tmp_path / "g.gr"
    gr.write_text(emit_gr(ladder_graph(rungs)))
    tdf = tmp_path / "bad.td"
    tdf.write_text(td_text)
    code, out, err = run(["count", "--gr", str(gr), "--td", str(tdf), "--pm"],
                         capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_usage_errors_exit_1(capsys):
    code, _, err = run(["count"], capsys)
    assert code == 1
    code, _, _ = run(["bench"], capsys)  # missing required --seed
    assert code == 1
    code, _, _ = run(["count", "--smiles", "CC", "--gr", "x.gr"], capsys)
    assert code == 1
    code, _, _ = run(["count", "--smiles", "CC", "--td", "x.td"], capsys)
    assert code == 1


def test_missing_file_exits_2(capsys):
    code, _, err = run(["count", "--gr", "/nonexistent.gr", "--pm"], capsys)
    assert code == 2


def test_non_ascii_ring_digits_exit_2(capsys):
    # superscript twos are no ring-closure number: an input error, not a
    # traceback
    code, out, err = run(["count", "--smiles", "C%\u00b2\u00b2", "--pm"],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: '%' needs two ring-closure digits")


@pytest.mark.parametrize("argv", [
    ["count", "--gr", "{bad}", "--pm"],
    ["count", "--gr", "{good}", "--td", "{bad}", "--pm"],
    ["chain", "--element", "{bad}", "--n", "2"],
], ids=["gr", "td", "chain"])
def test_non_utf8_file_exits_2(tmp_path, capsys, argv):
    good = tmp_path / "good.gr"
    good.write_text(emit_gr(ladder_graph(2)))
    bad = tmp_path / "bad"
    bad.write_bytes(b"p tw 2 1\n1 2\xff\n")
    code, out, err = run([a.format(good=good, bad=bad) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err == ("input error: 'utf-8' codec can't decode byte 0xff in"
                   " position 12: invalid start byte\n")


@pytest.mark.parametrize("argv", [
    ["count", "--pm", "--clock", "none"],
    ["stats"],
    ["bench", "--seed", "1", "--engines", "dp", "--clock", "none"],
], ids=["count", "stats", "bench"])
def test_non_utf8_corpus_line_is_a_reject(tmp_path, capsys, argv):
    corpus = tmp_path / "c.smi"
    corpus.write_bytes(b"CC\tethane\nC\xffC\nCCC\tpropane\n")
    code, out, err = run(argv + ["--corpus", str(corpus)], capsys)
    assert code == 0
    assert err.splitlines()[0] == (
        "reject line 2: 'utf-8' codec can't decode byte 0xff in position 1:"
        " invalid start byte")
    if argv[0] != "stats":
        assert "propane" in out


def test_count_csv_round_trip(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, _, _ = run(
        ["count", "--smiles", "CN1C=NC2=C1C(=O)N(C(=O)N2C)C", "--id",
         "caffeine", "--all", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert {r["quantity"] for r in rows} == {
        "perfect_matchings", "matchings", "independent_sets",
        "matching_polynomial", "independence_polynomial",
        "entropy_matchings", "entropy_independent_sets",
    }
    by_q = {r["quantity"]: r for r in rows}
    assert int(by_q["matchings"]["value"]) >= 1
    poly = [int(x) for x in by_q["matching_polynomial"]["value"].split(";")]
    assert sum(poly) == int(by_q["matchings"]["value"])
    assert all(r["width"] == "2" for r in rows)


def test_stats_small_corpus(tmp_path, capsys):
    corpus = tmp_path / "c.smi"
    corpus.write_text("CCO\nC1CCCCC1\nC[Qq]C\n")
    code, out, err = run(["stats", "--corpus", str(corpus)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "width,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 2
    assert err.splitlines() == [
        "reject line 3: unsupported bracket atom [Qq] (only bare element"
        " symbols are accepted) (offset 1)",
        "accepted=2 rejected=1",
    ]


def grid_smiles(k):
    """The k x k grid as one SMILES: a row-by-row snake of C atoms, with each
    other column edge a %nn ring closure numbered by column and row parity."""
    atoms = []
    for r in range(k):
        down = k - 1 if r % 2 == 0 else 0  # the snake's column into row r+1
        up = k - 1 if r % 2 else 0  # and from row r-1
        for c in range(k) if r % 2 == 0 else reversed(range(k)):
            atoms.append("C")
            if r and c != up:
                atoms.append(f"%{10 + k * ((r - 1) % 2) + c}")
            if r < k - 1 and c != down:
                atoms.append(f"%{10 + k * (r % 2) + c}")
    return "".join(atoms)


def test_stats_counts_widths_past_the_nice_form_cap(tmp_path, capsys):
    # the 24x24 grid's min-fill width, 34, is past make_nice's MAX_WIDTH;
    # stats reads widths off the tree and still counts it
    grid = parse_smiles(grid_smiles(24)).graph
    assert (grid.n, grid.m) == (576, 2 * 24 * 23)
    corpus = tmp_path / "c.smi"
    corpus.write_text(f"CCO\n{grid_smiles(24)}\tgrid\n")
    code, out, err = run(["stats", "--corpus", str(corpus)], capsys)
    assert code == 0
    assert out == "width,count\n1,1\n34,1\n"
    assert err == "accepted=2 rejected=0\n"


def test_stats_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.smi"
    corpus.write_text("")
    code, out, _ = run(["stats", "--corpus", str(corpus)], capsys)
    assert code == 0
    assert out.strip() == "width,count"


def test_count_corpus_rows_in_corpus_order(tmp_path, capsys):
    corpus = tmp_path / "c.smi"
    corpus.write_text("C1CCCCC1\tring\nC[Qq]C\nCC\n")
    code, out, err = run(["count", "--corpus", str(corpus), "--pm", "--ms",
                          "--clock", "none", "--out", "-"], capsys)
    assert code == 0
    assert err.startswith("reject line 2: unsupported bracket atom [Qq]")
    assert len(err.splitlines()) == 1
    assert out.splitlines() == [
        "ring\tperfect_matchings = 2",
        "ring\tindependent_sets = 18",
        "CC\tperfect_matchings = 1",
        "CC\tindependent_sets = 3",
        "id,n,m,width,quantity,value,millis,engine,status",
        "ring,6,6,2,perfect_matchings,2,0,dp,ok",
        "ring,6,6,2,independent_sets,18,0,dp,ok",
        "CC,2,1,1,perfect_matchings,1,0,dp,ok",
        "CC,2,1,1,independent_sets,3,0,dp,ok",
    ]


def test_count_independence_polynomial_only(capsys):
    code, out, _ = run(["count", "--smiles", "C1CCCCC1", "--ipoly"], capsys)
    assert code == 0
    assert out.splitlines() == ["C1CCCCC1\tindependence_polynomial = 1;6;9;2"]


def test_chain_command(capsys):
    code, out, _ = run(
        ["chain", "--element", str(bundled_path("hexagon.chain")), "--n", "2"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "3"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_chain_command_rejects_short_chains(capsys, n):
    code, out, err = run(
        ["chain", "--element", str(bundled_path("hexagon.chain")), "--n", n],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == f"usage error: --n must be at least 1, got {n}\n"


def test_chain_command_prints_huge_counts(capsys):
    # the hexagon chain has F(n+2) perfect matchings: about 5,200 digits
    # here, beyond the interpreter's default int/str digit limit
    n = 25000
    code, out, _ = run(
        ["chain", "--element", str(bundled_path("hexagon.chain")),
         "--n", str(n)],
        capsys,
    )
    assert code == 0
    digits = out.strip()
    assert len(digits) > 5000
    assert _read_digits(digits) == _fibonacci(n + 2)


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _read_digits(digits):
    # read the digits back in chunks below the interpreter's int/str digit
    # limit: exact, and no global interpreter setting is touched
    assert digits.isdigit()
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _bench(tmp_path, capsys, name, extra):
    corpus = tmp_path / "bench.smi"
    corpus.write_text(TINY_CORPUS)
    out_file = tmp_path / name
    args = ["bench", "--corpus", str(corpus), "--seed", "42", "--budget", "5",
            "--clock", "none", "--out", str(out_file)] + extra
    code, _, _ = run(args, capsys)
    assert code == 0
    return out_file.read_bytes()


def test_bench_deterministic_and_jobs_equal(tmp_path, capsys):
    first = _bench(tmp_path, capsys, "a.csv", [])
    second = _bench(tmp_path, capsys, "b.csv", [])
    assert first == second
    parallel = _bench(tmp_path, capsys, "c.csv", ["--jobs", "2"])
    assert parallel == first


def test_cli_import_loads_no_process_pool():
    # only `bench --jobs N` with N > 1 starts a pool, so loading the CLI
    # leaves out concurrent.futures and multiprocessing; the child imports
    # this test's tdcount
    import subprocess
    import sys
    from pathlib import Path

    import tdcount

    src = Path(tdcount.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tdcount.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("flag, value", [("--per-size", "-1"),
                                         ("--per-size", "0"),
                                         ("--jobs", "0")])
def test_bench_rejects_non_positive_counts(tmp_path, capsys, flag, value):
    # checked before the corpus is read: a missing corpus is not reached
    missing = tmp_path / "missing.smi"
    code, out, err = run(["bench", "--corpus", str(missing), "--seed", "1",
                          flag, value], capsys)
    assert code == 1
    assert out == ""
    assert err == f"usage error: {flag} must be at least 1, got {value}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bench_rejects_budget_not_positive_finite(tmp_path, capsys, value):
    # nan would turn the budget off: no time is ever greater than nan
    missing = tmp_path / "missing.smi"
    code, out, err = run(["bench", "--corpus", str(missing), "--seed", "1",
                          "--budget", value], capsys)
    assert code == 1
    assert out == ""
    assert err == ("usage error: --budget must be a positive finite number "
                   f"of seconds, got {value}\n")


def test_bench_values_agree_and_round_trip(tmp_path, capsys):
    data = _bench(tmp_path, capsys, "d.csv", [])
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    assert rows, "bench produced no rows"
    values = {}
    for r in rows:
        assert r["status"] == "ok"
        assert str(int(r["value"])) == r["value"]
        key = (r["id"], r["quantity"])
        values.setdefault(key, set()).add(r["value"])
    for key, seen in values.items():
        assert len(seen) == 1, f"dp/baseline disagree on {key}"
    engines = {r["engine"] for r in rows}
    assert engines == {"dp", "baseline"}


def test_bench_prints_huge_counts(tmp_path, capsys):
    # the path on 21,000 atoms has Hosoya index F(21001), 4,389 digits:
    # beyond the interpreter's default int/str digit limit
    n = 21000
    corpus = tmp_path / "long.smi"
    corpus.write_text("C" * n + "\tlong\n")
    code, out, _ = run(["bench", "--corpus", str(corpus), "--seed", "1",
                        "--engines", "dp", "--clock", "none"], capsys)
    assert code == 0
    rows = {r["quantity"]: r for r in csv.DictReader(io.StringIO(out))}
    hosoya = rows["matchings"]["value"]
    assert len(hosoya) > 4300
    assert _read_digits(hosoya) == _fibonacci(n + 1)
    assert _read_digits(rows["independent_sets"]["value"]) == \
        _fibonacci(n + 2)
    assert rows["perfect_matchings"]["value"] == "1"


def test_count_entropy_only(capsys):
    code, out, _ = run(["count", "--smiles", "CC", "--entropy"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("entropy" in line for line in lines)


def test_bench_deterministic_across_interpreters(tmp_path):
    # separate interpreter launches get different hash seeds; output must not
    # depend on set iteration order
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tdcount

    # the child imports the same tdcount as this test, installed or not
    src = str(Path(tdcount.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    corpus = tmp_path / "bench.smi"
    corpus.write_text(TINY_CORPUS)
    outputs = []
    for name in ("x.csv", "y.csv"):
        out_file = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "tdcount", "bench", "--corpus", str(corpus),
             "--seed", "8", "--budget", "5", "--clock", "none",
             "--out", str(out_file)],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]


def test_bench_summary(tmp_path, capsys):
    corpus = tmp_path / "bench.smi"
    corpus.write_text(TINY_CORPUS)
    summary = tmp_path / "summary.csv"
    code, _, _ = run(
        ["bench", "--corpus", str(corpus), "--seed", "1", "--budget", "5",
         "--clock", "none", "--out", str(tmp_path / "rows.csv"),
         "--summary", str(summary)],
        capsys,
    )
    assert code == 0
    lines = summary.read_text().strip().splitlines()
    assert lines[0] == "m,quantity,engine,runs,timeouts,mean_millis"
    assert len(lines) > 1


def test_bench_reports_rejects(tmp_path, capsys):
    clean = _bench(tmp_path, capsys, "clean.csv", [])
    corpus = tmp_path / "bench.smi"
    lines = TINY_CORPUS.splitlines(keepends=True)
    corpus.write_text("".join(lines[:3] + ["C[Qq]C\tbad\n"] + lines[3:]))
    out_file = tmp_path / "rejects.csv"
    code, out, err = run(["bench", "--corpus", str(corpus), "--seed", "42",
                          "--budget", "5", "--clock", "none",
                          "--out", str(out_file)], capsys)
    assert code == 0
    assert out == ""
    assert err.splitlines() == [
        "reject line 4: unsupported bracket atom [Qq] (only bare element"
        " symbols are accepted) (offset 1)"]
    assert out_file.read_bytes() == clean


def test_bench_unknown_engine_exits_1(capsys):
    code, out, err = run(["bench", "--seed", "1", "--engines", "dp,foo"],
                         capsys)
    assert code == 1
    assert out == ""
    assert err == "usage error: unknown engine 'foo'\n"


@pytest.mark.parametrize("engines", [",", "", " , "])
def test_bench_empty_engine_list_exits_1(engines, capsys):
    code, out, err = run(["bench", "--seed", "1", "--engines", engines],
                         capsys)
    assert code == 1
    assert out == ""
    assert err == f"usage error: --engines names no engine: {engines!r}\n"


def test_bench_baseline_disagreeing_with_dp_exits_3(tmp_path, capsys,
                                                    monkeypatch):
    real = _BASELINES["perfect_matchings"]

    def off_by_one(graph, budget):
        result = real(graph, budget)
        result.value += 1
        return result

    monkeypatch.setitem(_BASELINES, "perfect_matchings", off_by_one)
    corpus = tmp_path / "one.smi"
    corpus.write_text("C1CCCCC1\tring\n")
    code, out, err = run(["bench", "--corpus", str(corpus), "--seed", "1",
                          "--jobs", "1", "--clock", "none"], capsys)
    assert code == 3
    assert out == ""
    assert err == ("invariant violation: baseline disagrees with dp on "
                   "ring/perfect_matchings: 3 != 2\n")
