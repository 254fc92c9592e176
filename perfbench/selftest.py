"""The benchmark's own test, at tiny sizes (degree 2-3, short series).

    python3 -m pytest -q perfbench/selftest.py

Runs every workload untraced and traced, checks that each metric named
in BENCHMARK.json is emitted with its unit, that layer self times and
the untraced gap add up to the traced wall time, that layer counts
repeat exactly, that a corrupted output counts as a failure, and that
the reference run does its fixed work.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    return out


def assert_metrics(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])


def test_workloads_match_run_py():
    assert tuple(WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(workload, trace=0)
    assert_metrics(out["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_add_up(workload):
    metrics = result(workload, trace=1)["metrics"]
    assert_metrics(metrics, SPEC["per_layer"])
    self_total = sum(v["value"] for k, v in metrics.items()
                     if k.endswith(".self_s"))
    assert math.isclose(self_total + metrics["trace.gap_s"]["value"],
                        metrics["trace.wall_s"]["value"], abs_tol=1e-6)


def test_layer_counts_repeat():
    counts = ("linalg.add.calls", "linalg.solve.calls",
              "hyperlog.eval_series.calls", "hyperlog.eval_series.terms",
              "words.wordpoly_init.calls", "linalg.nnz")
    first, second = (result("verify-d3", trace=1, seed=7)["metrics"]
                     for _ in range(2))
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
    assert first["hyperlog.eval_series.calls"]["value"] > 0


def test_seed_drives_inputs():
    assert run.make_inputs("verify-d3", 1, "tiny") \
        == run.make_inputs("verify-d3", 1, "tiny")
    assert run.make_inputs("oracles-d3", 1, "tiny") \
        != run.make_inputs("oracles-d3", 2, "tiny")


def test_wrong_digest_counts_as_failure(monkeypatch):
    spec = dict(run.SIZES["tiny"]["relations-d4"], digests=["0" * 64])
    monkeypatch.setitem(run.SIZES["tiny"], "relations-d4", spec)
    out = run.run_workload("relations-d4", 1, 1, False, size="tiny",
                           log=lambda *a: None)
    assert out["correct"] is False
    assert out["failed"] >= 1
    assert out["metrics"] == {}


def test_failed_oracle_check_counts():
    child = run.Child(0, 1.0, 1.0, {"checks": [
        {"kind": "quadrature", "residual": 1e-3, "bound": 0.0, "tol": 1e-8},
        {"kind": "expand_match", "passed": True}]}, None, "", 0.0)
    assert [ok for _, ok in run._check_oracles(child)] == [True, False, True]


def test_without_program_fails_without_result():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in ("run.py", "child.py", "layers.py", "reference.py"):
            shutil.copy(HERE / f, bare / "perfbench")
        proc = bench("--workload", "relations-d4", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_reference_does_its_fixed_work():
    assert reference.work() == reference.CHECKSUM
