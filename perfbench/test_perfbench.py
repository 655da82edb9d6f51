"""The benchmark's own tests, on tiny (--quick) workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
from spans import LAYER_METRICS, Tracer, mto1_modules  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ("harness.checks", "harness.items", "cyclotomic.forms",
          "multiplicity.check_calls", "galois.field_elements", "search.hits")


def bench(tmp_path, *args, cwd=ROOT):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args,
         "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_run_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = bench(tmp_path, "--workload", workload, "--seed", "0", "--seconds",
                 "0", "--trace", str(trace), "--quick")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = LAYER_METRICS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = proc.stdout.splitlines()[:-1]
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in table), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert any(line.startswith("failed_ratio") for line in table)
    record = json.loads((tmp_path / "result.json").read_text())
    assert {"nproc", "cpu_model", "caches", "python", "numpy", "git_commit",
            "seed", "jobs"} <= set(record["machine"])


def test_corrupted_fingerprint_is_a_failed_query(monkeypatch, capsys, tmp_path):
    store = measure.load_fingerprints()
    argv = WORKLOADS["analyze"].queries(0, quick=True)[0]
    key = measure.query_key(argv)
    good = measure.run_query(argv, 1, 0, store)
    assert not good.failed and good.digest == store["queries"][key]["sha256"]

    bad = json.loads(json.dumps(store))
    for entry in bad["queries"].values():
        entry["sha256"] = "0" * 64
    assert measure.run_query(argv, 1, 0, bad).failures == [
        "fingerprint mismatch"]
    monkeypatch.setattr(run, "load_fingerprints", lambda: bad)
    assert run.main(["--workload", "analyze", "--quick", "--seconds", "0",
                     "--out", str(tmp_path / "result.json")]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_seeded_query_is_checked_only_at_the_recorded_seed():
    store = measure.load_fingerprints()
    argv = WORKLOADS["verify-main"].queries(5, quick=True)[0]
    assert measure.expected_digest(store, argv, 5) is None
    assert measure.expected_digest(store, argv, store["seed"]) is not None


def module_state():
    """Every attribute of every mto1 module and class, and the evaluators."""
    out = {}
    for m in mto1_modules():
        for key, value in vars(m).items():
            out[(m.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("mto1"):
                for attr, member in vars(value).items():
                    out[(m.__name__, key, attr)] = member
    import mto1.harness
    for key, fn in mto1.harness.EVALUATORS.items():
        out[("EVALUATORS", key)] = fn
    return out


def test_traced_run_restores_every_wrapped_function():
    before = module_state()
    queries = [q for w in WORKLOADS.values() for q in w.queries(0, quick=True)]
    with Tracer() as tracer:
        during = module_state()
        for argv in queries:
            rc, _ = measure.call_cli(argv, 1, tracer.call)
            assert rc == 0
    after = module_state()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    changed = {k for k in before if during[k] is not before[k]}
    assert {("mto1.harness", "predict_from"),
            ("mto1.cyclotomic", "predict_from"),
            ("mto1.galois", "Poly", "eval_index"),
            ("mto1.galois", "FieldElement", "__init__"),
            ("EVALUATORS", "main_grid")} <= changed
    names = {name for (_, name, _) in tracer.table}
    assert {"cyclotomic.predict_from", "search.search_forms",
            "multiplicity.check_m_to_1", "harness.item"} <= names


def test_work_counts_repeat_exactly(tmp_path):
    for workload in ("verify-main", "search", "analyze"):
        runs = [last_json(bench(tmp_path, "--workload", workload, "--seed",
                                "3", "--trace", "1", "--quick"))["metrics"]
                for _ in range(2)]
        for name, value in runs[0].items():
            if value["unit"] == "count":
                assert runs[1][name] == value, (workload, name)
        assert any(runs[0][name]["value"] > 0 for name in COUNTS)


def test_jobs_above_nproc_is_refused(tmp_path):
    proc = bench(tmp_path, "--workload", "analyze", "--quick",
                 "--jobs", str(run.nproc() + 1))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "analyze", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
