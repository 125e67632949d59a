import csv
import io

import pytest

from tdcount import emit_gr, emit_td, ladder_graph, parse_smiles
from tdcount.cli import bundled_path, main
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


def test_count_invalid_td_exits_2(tmp_path, capsys):
    g = ladder_graph(3)
    gr = tmp_path / "g.gr"
    gr.write_text(emit_gr(g))
    tdf = tmp_path / "bad.td"
    # single bag missing almost everything
    tdf.write_text("s td 1 2 6\nb 1 1 2\n")
    code, _, err = run(["count", "--gr", str(gr), "--td", str(tdf), "--pm"],
                       capsys)
    assert code == 2
    assert "invalid" in err


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
    assert "accepted=2 rejected=1" in err


def test_stats_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.smi"
    corpus.write_text("")
    code, out, _ = run(["stats", "--corpus", str(corpus)], capsys)
    assert code == 0
    assert out.strip() == "width,count"


def test_chain_command(capsys):
    code, out, _ = run(
        ["chain", "--element", str(bundled_path("hexagon.chain")), "--n", "2"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "3"


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
