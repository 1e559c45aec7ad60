"""The driver: one workload measured in fresh child interpreters.

``measure`` generates the workload's inputs from the seed, launches the
children one after another (never more than the child and what it
forks), pools their samples and checks the simulated statistics
against each other and against ``expect.json``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

from repro.harness.metrics import SimulationResult
from repro.telemetry import RunRegistry

from .metrics import E2E, EXACT, LAYERS
from .stats import summarize, summarize_window_tail
from .workloads import DEFAULT_SEED, Scale, Workload, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
EXPECT = HERE / "expect.json"

#: environment that silently reroutes a workload onto another backend
#: or executor: measuring under it would report the wrong thing
REROUTING_ENV = ("REPRO_BACKEND", "REPRO_STEPJIT")
CHILD_TIMEOUT_S = 170


def host_shape() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }


def refuse_rerouting_env() -> None:
    found = [name for name in REROUTING_ENV if os.environ.get(name)]
    if found:
        raise SystemExit(
            f"error: {', '.join(found)} set: it would reroute the "
            "workloads; unset it and run again")


def _archive_unrelated(runs_dir: Path, count: int) -> None:
    """Records of other configs, so cache lookups are not against an
    empty registry."""
    registry = RunRegistry(runs_dir)
    result = SimulationResult(target_cycles=1, wall_ns=1.0, rate_hz=1.0,
                              per_partition_cycles={"base": 1})
    for i in range(count):
        registry.archive(result, name="unrelated",
                         config={"unrelated": i})


def _run_child(job: dict, workdir: Path, label: str) -> dict:
    job_path = workdir / f"{label}.job.json"
    job["result"] = str(workdir / f"{label}.result.json")
    job_path.write_text(json.dumps(job))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    # one hash seed for every child: set iteration order, and with it
    # allocation and timing, does not vary from child to child
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child", str(job_path)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"crashed": f"child {label} exited "
                           f"{done.returncode}: {tail[0]}"}
    return json.loads(Path(job["result"]).read_text())


def _expected(workload: Workload, seed: int, scale: Scale
              ) -> Optional[dict]:
    """The workload's ``expect.json`` entry; only the default seed at
    full cycle counts has one."""
    if seed != DEFAULT_SEED or scale.cycle_div != 1 \
            or not EXPECT.exists():
        return None
    return json.loads(EXPECT.read_text()).get(workload.name)


def measure(workload: Workload, seed: int, scale: Scale,
            trace: bool) -> dict:
    """Run ``workload``: untraced children (``scale.reps`` of them,
    more while another fits into ``scale.seconds``), then one traced
    child when ``trace`` is set; returns its ledger entry."""
    started = time.monotonic()
    report = {"what": workload.what, "why": workload.why,
              "status": "ok", "ops_attempted": 0, "ops_failed": 0,
              "failures": [], "end_to_end": {}, "exact": {},
              "per_layer": {}, "spans": []}
    if workload.kind == "split" and len(os.sched_getaffinity(0)) < 2:
        report["status"] = "skipped: fewer than 2 cores, so a " \
            "lock-step split cannot run its two partitions at once"
        return report

    inputs = make_inputs(workload, seed, scale)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        workdir = Path(tmp)
        if workload.kind == "service":
            _archive_unrelated(workdir / "runs", scale.archived_records)

        def launch(label: str, traced: bool) -> Optional[dict]:
            # the first child and the traced one run the cross-check;
            # the rest must repeat the first's simulated statistics
            job = {"workload": workload.name, "kind": workload.kind,
                   "inputs": inputs, "scale": asdict(scale),
                   "trace": traced, "check": traced or label == "rep0"}
            if workload.kind == "service":
                job["runs_dir"] = str(workdir / label / "runs")
                shutil.copytree(workdir / "runs", job["runs_dir"])
            child = _run_child(job, workdir, label)
            report["ops_attempted"] += 1
            if "crashed" in child:
                report["failures"].append(child["crashed"])
                return None
            report["ops_attempted"] += child["ops"]["attempted"]
            report["failures"] += child["ops"]["failures"]
            return child

        # another child is launched only if one as slow as the slowest
        # so far would still end inside the budget
        launched, slowest = [], 0.0
        while len(launched) < scale.reps or \
                time.monotonic() - started + slowest < scale.seconds:
            launch_at = time.monotonic()
            launched.append(launch(f"rep{len(launched)}", traced=False))
            slowest = max(slowest, time.monotonic() - launch_at)
        children = [child for child in launched if child]
        traced = launch("traced", traced=True) if trace else None

    # with no untraced child (--quick --trace: a smoke test, not a
    # measurement) the traced one stands in
    if not children and traced:
        children = [traced]
    if children:
        _pool(report, children, traced)
        for child in children[1:] + ([traced] if traced else []):
            report["ops_attempted"] += 1
            if child["exact"] != children[0]["exact"]:
                report["failures"].append(
                    "simulated statistics differ between children: "
                    f"{child['exact']} != {children[0]['exact']}")
        want = _expected(workload, seed, scale)
        if want is not None:
            got = {key: report["exact"].get(key) for key in want}
            report["ops_attempted"] += 1
            if got != want:
                report["failures"].append(
                    f"expect.json wants {want}, got {got}")
    report["ops_failed"] = len(report["failures"])
    return report


def _pool(report: dict, children: List[dict],
          traced: Optional[dict]) -> None:
    for name, metric in E2E.items():
        if name == "sim_window_ms_tail":
            summary = summarize_window_tail(
                [child["samples"]["window_ms"] for child in children])
        elif name in children[0]["samples"]:
            summary = summarize(
                [child["samples"][name] for child in children], metric)
        else:
            continue  # the metric does not apply to this workload
        report["end_to_end"][name] = {
            "unit": metric.unit, "better": metric.better,
            "bound": metric.bound, **summary}
    report["exact"] = children[0]["exact"]
    if traced is None:
        return
    layers = dict(traced["layers"])
    untraced_job = report["end_to_end"]["job_s"]["median"]
    layers["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(traced["samples"]["job_s"]) - untraced_job
    ) / untraced_job
    report["per_layer"] = {
        name: {"value": layers[name], "unit": LAYERS[name].unit,
               "exact": name in EXACT}
        for name in LAYERS if name in layers}
    report["spans"] = traced["spans"]
