"""Smoke test of the end-to-end ledger.

Not in the tier-1 ``testpaths``; run it as

    PYTHONPATH=src python -m pytest benchmarks/e2e

It drives the real commands in ``--quick`` mode (tiny cycle counts, one
child per workload), so it checks that the benchmark runs and reports
what ``BENCHMARK.json`` promises, not how fast anything is.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.metrics import CONTRACT_E2E, CONTRACT_LAYERS, E2E
from benchmarks.e2e.workloads import CONTRACT_WORKLOADS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, **env):
    full_env = {k: v for k, v in os.environ.items()
                if not k.startswith("REPRO_")}
    full_env["PYTHONPATH"] = str(ROOT / "src")
    full_env.update(env)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=full_env,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in CONTRACT["workloads"]] \
        == list(CONTRACT_WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].brief
        assert len(entry["why"]) <= 200
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(CONTRACT_E2E)
    for m in CONTRACT["end_to_end"]:
        metric = E2E[m["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (
            metric.unit, metric.better, metric.bound)
    assert [m["name"] for m in CONTRACT["per_layer"]] \
        == list(CONTRACT_LAYERS)
    for m in CONTRACT["per_layer"]:
        metric = CONTRACT_LAYERS[m["name"]]
        assert (m["unit"], m["better"]) == (metric.unit, metric.better)


def test_quick_ledger_reports_every_promised_metric(tmp_path):
    out = tmp_path / "ledger.json"
    started = time.monotonic()
    done = _run("-m", "benchmarks.e2e", "--quick", "--trace",
                "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30, f"--quick took {elapsed:.0f} s"

    ledger = json.loads(out.read_text())
    assert ledger["host"]["cpu_count"] == os.cpu_count()
    assert list(ledger["workloads"]) == list(WORKLOADS)
    for name, entry in ledger["workloads"].items():
        if entry["status"].startswith("skipped"):
            assert name == "ring8_split_process"
            assert ledger["host"]["affinity"] < 2
            continue
        assert entry["ops_attempted"] > 0 and entry["ops_failed"] == 0
        assert entry["why"] == WORKLOADS[name].why
        for m in CONTRACT["end_to_end"]:
            reported = entry["end_to_end"][m["name"]]
            assert reported["unit"] == m["unit"]
            assert reported["value"] > 0
            assert f" {m['name']} " in done.stdout
        for m in CONTRACT["per_layer"]:
            assert entry["per_layer"][m["name"]]["unit"] == m["unit"]
        # the phases of the job sum to the job
        assert entry["per_layer"]["bench.ledger_residual_pct"]["value"] <= 5
    trace = json.loads(out.with_suffix(".trace.json").read_text())
    assert {e["name"] for e in trace["traceEvents"]} >= {
        "firrtl.parse", "fireripper.compile", "harness.build",
        "harness.first_run", "harness.run"}

    same = _run("-m", "benchmarks.e2e", "compare", str(out), str(out))
    assert same.returncode == 0, same.stdout + same.stderr
    verdicts = {line.split()[-1]
                for line in same.stdout.splitlines()[3:-1]}
    assert verdicts == {"within", "equal"}


def test_driver_entry_prints_one_result_line():
    done = _run("benchmarks/e2e/run.py", "--workload",
                "widepair1024_exact", "--seed", "11", "--seconds", "1",
                "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}


def test_refuses_to_run_under_rerouting_env(tmp_path):
    done = _run("-m", "benchmarks.e2e", "--quick", "--workload",
                "widepair1024_exact", "--out", str(tmp_path / "l.json"),
                REPRO_BACKEND="process")
    assert done.returncode != 0
    assert "REPRO_BACKEND" in done.stderr
