"""Self-test of the benchmark.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Run from the root of a checkout. It checks that

* a minimum-size run (one round) of every workload completes, traced and
  untraced, answers correctly and ends with a result line that names exactly
  the metrics of BENCHMARK.json;
* a corrupted reference makes failed_ratio > 0, and the run reports the
  failure ("correct": false, exit code 1);
* in a directory that holds only BENCHMARK.json and the benchmark, the
  command fails without printing a result.

Scratch files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace=0, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "0",
                             "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def bench_copy(name, with_program):
    """A fresh tree under SCRATCH with BENCHMARK.json, the benchmark and, if
    asked, a link to the checkout's ``src``."""
    tree = SCRATCH / name
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tree / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        (tree / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tree


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_minimum_runs_complete():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = result_of(proc)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in SPEC[group]}, (workload, trace)
            for m in SPEC[group]:
                assert metrics[m["name"]]["unit"] == m["unit"]
                assert isinstance(metrics[m["name"]]["value"], (int, float))
                if group == "end_to_end":
                    assert metrics[m["name"]]["value"] > 0, (workload, m["name"])


def test_corrupted_reference_fails():
    tree = bench_copy("corrupted", with_program=True)
    path = tree / HERE.name / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8"))
    refs["benzene"]["hosoya"] = hex(int(refs["benzene"]["hosoya"], 16) + 1)
    path.write_text(json.dumps(refs), encoding="utf-8")
    proc = bench("corpus100", cwd=tree)
    assert proc.returncode == 1, proc.stderr
    result = result_of(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] / result["attempted"] < 1
    assert "benzene" in proc.stderr


def test_fails_without_the_program():
    proc = bench("corpus100", cwd=bench_copy("bare", with_program=False))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    tests = [obj for name, obj in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"PASS {test.__name__}")
    sys.exit(0)
