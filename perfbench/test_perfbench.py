"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import workloads  # noqa: E402
from harness import Round, Tracer  # noqa: E402


def _traced_round(name: str, seed: int):
    workload = workloads.WORKLOADS[name](ROOT, seed)
    rnd = Round(Tracer(workloads.LAYERS, workloads.SHARED))
    workload.round(rnd)
    return rnd


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == measure.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_seed_repeats_every_exact_counter(name):
    first, second = _traced_round(name, 11), _traced_round(name, 11)
    assert first.failed == second.failed == 0
    exact = {k: v for k, v in first.counters.items() if k in measure.EXACT}
    assert exact
    assert exact == {k: second.counters[k] for k in exact}


def test_seed_picks_the_inputs():
    def inputs(cls, seed):
        w = cls(ROOT, seed)
        return getattr(w, "values", None) or getattr(w, "ops", None) \
            or getattr(w, "delays", None) \
            or [f["edits"] for f in w.files]

    for cls in workloads.WORKLOADS.values():
        assert inputs(cls, 5) == inputs(cls, 5)
        assert inputs(cls, 5) != inputs(cls, 6)


def test_a_wrong_output_is_counted_as_failed():
    fanout = workloads.Fanout(ROOT, 3)
    fanout.values = fanout.values[:50]
    fanout.expected = workloads.fanout_expected(fanout.values)
    fanout.expected["y7"] += 1
    rnd = Round()
    fanout.round(rnd)
    assert rnd.failed == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
