"""The benchmark harness runs on this checkout and prints every declared metric.

Each run is short (0.1 s of closed loop after setup).  A per-layer metric
vanishes from a traced run when none of the harness's tracer targets resolves
in the package, so renaming a traced function shows up here as a missing name.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_benchmark_run_prints_every_declared_metric(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert declared <= set(result["metrics"])


def test_every_tracer_target_resolves_in_the_package():
    # A metric with two targets (census.chorded_s) survives in a traced run
    # while one of them is gone, so check each target the way install() does.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        found = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if not callable(found):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_harness_selftest_passes(tmp_path):
    # traced and untraced output byte-identical, every wrapper removed after
    # tracing, and a wrong reference reported as a failure
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest ok" in proc.stdout
