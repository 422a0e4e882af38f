"""The command's output schema, its seeds, and the traced run's counters."""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def bench(*args, cwd=ROOT, timeout=600):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_second_seed_passes_with_the_output_schema(workload):
    spec = load_spec()
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counters_repeat_exactly(workload, tmp_path):
    counts = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                               "--workload", workload, "--seed", "3",
                               "--mode", "trace"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert "failed_checks" not in out
        assert set(out["layers"]) == {n for n, _, _ in tracing.METRICS} - {"trace.overhead_s"}
        units = {name: unit for name, unit, _ in tracing.METRICS}
        counts.append({k: v for k, v in out["layers"].items()
                       if units[k] in ("count", "ratio")})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "certify_profiles", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
