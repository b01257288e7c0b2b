"""The benchmark's tracer reaches into gfekit by name: keep those names alive.

`bench/tracer.py` wraps every function it lists with `getattr`, so deleting
or renaming one breaks every traced benchmark run. The tracer is loaded from
its file and only read here; installing it would rebind gfekit for the rest
of the session.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gfekit import arith, campaign
from gfekit.linlog import LinLog

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracer):
    for layer, names in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"gfekit.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for method in tracer.LINLOG_METHODS:
        assert callable(getattr(LinLog, method, None)), method
    tracer.structure_cache_stats()  # reads cache_info of every listed sieve


def test_bench_calls_keep_their_signatures():
    assert arith.small_primes()[:4] == (2, 3, 5, 7)
    task = campaign.explicit_box_task("box-239", range(1, 14), 2,
                                      range(1, 8), 3, {9})
    outcome = campaign.run_task(task)
    assert outcome["task_id"] == "box-239" and len(outcome["records"]) == 1
    tail = campaign.build_p1_plan(7, 11, box_limit=3).tasks[0]
    assert campaign.run_task(tail)["task_id"] == tail.task_id
