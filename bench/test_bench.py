"""Self-test of the benchmark: every workload at a tiny size, traced and not.

    python3 -m pytest bench/test_bench.py -q

Checks the output pins, the metric names and units against BENCHMARK.json,
the shape of the result line, the traced counts known in advance, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3  # has tiny pins in pins.json


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == ["frey", "bounds", "campaign", "reproduce"]
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    details = json.loads(lines[-2])["details"]
    assert details["problems"] == []
    if workload != "reproduce":
        assert details["pinned"] is True  # the digest matched its pin
    env = details["environment"]
    assert {"git_commit", "python", "mpmath", "mpmath_backend", "nproc", "cpu_model",
            "seed"} <= set(env) and env["seed"] == SEED
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(v for k, v in m.items() if k.startswith("layer."))
        assert math.isclose(parts + m["trace.unattributed_s"], m["trace.wall_s"],
                             rel_tol=1e-9, abs_tol=1e-9)
        assert (m["linlog.LinLog.sign.calls"] == 0) == (workload == "frey")
        assert (m["freycurves.invariants.calls"] > 0) == (workload == "frey")


def test_pin_mismatch_fails():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run
    import workloads

    wl = workloads.WORKLOADS["frey"](SEED, "tiny", ROOT)
    tally = run.Tally(wl)
    tally.digests[0] = {"0" * 64}
    details = tally.finish()
    assert tally.failed == 1 and "differs from its pin" in details["problems"][0]


def test_count_beal_runs_count_remaining_three_times_without_ledger(tmp_path):
    env = {"PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "gfekit_cli.py"), "--trace-out",
         str(tmp_path / "beal"), "--", "--json", "count", "beal"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    snap = json.loads((tmp_path / "beal.json").read_text())
    assert snap["calls"]["catalog.count_remaining"] == 3
    assert snap["unbound"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "frey", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
