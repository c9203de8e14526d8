"""Tests of the benchmark itself, on its smoke inputs.

Run with ``python3 -m pytest qlbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qlsub import EXP, ArrayStream, SamplingPlan, generate_case, make_spec, run_distributed, run_two_step  # noqa: E402

from qlbench import harness, layers, rebuild  # noqa: E402
from qlbench.tracer import Tracer, instrument  # noqa: E402
from qlbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "qlbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_truncated_csv_row_is_a_failed_operation(monkeypatch):
    """A CSV whose last row lost its fields makes the CLI exit 3; the run counts it."""
    setup = harness.Run.setup

    def truncating_setup(self):
        inputs = setup(self)
        text = inputs.csv.read_text().splitlines()
        text[-1] = ",".join(text[-1].split(",")[:2])
        inputs.csv.write_text("\n".join(text) + "\n")
        return inputs

    monkeypatch.setattr(harness.Run, "setup", truncating_setup)
    out = harness.Run("csv-dist-c1-k4", seed=4, seconds=0.0, trace=False, smoke=True).execute()
    assert out["correct"] is False
    assert out["attempted"] >= 2 and out["failed"] == out["attempted"]
    assert out["details"]["fail_frac"] == 1.0
    assert all(err.startswith("exit 3:") for err in out["details"]["untraced_errors"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "qlbench", tmp_path / "qlbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "csv-dist-c1-k4", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def c4():
    x, y, _ = generate_case(make_spec("c4", 8000, seed=5))
    return x, y


def test_rebuilt_two_step_is_bit_identical(c4):
    x, y = c4
    plan = SamplingPlan(criterion="mv", expected_size=500.0, threshold_mode="exact", seed=9)
    tracer = Tracer()
    with instrument(tracer):
        fit = rebuild.two_step(ArrayStream(x, y), EXP, plan, 200.0, tracer)
    assert rebuild.same_fit(fit, run_two_step(ArrayStream(x, y), EXP, plan, 200.0))
    other = run_two_step(ArrayStream(x, y), EXP, SamplingPlan(criterion="mv", expected_size=500.0, seed=10), 200.0)
    assert not rebuild.same_fit(fit, other)
    names = {s["name"] for s in tracer.spans}
    assert {"pipeline.run_pilot", "estimator.solve_weighted_qle", "estimator.sandwich_variance"} <= names


def test_rebuilt_distributed_is_bit_identical_and_restores_the_package(c4):
    x, y = c4
    plan = SamplingPlan(criterion="mvc", expected_size=400.0, threshold_mode="quantile", seed=2)
    tracer = Tracer()
    from qlsub import distributed

    before = distributed.second_pass
    with instrument(tracer), tracer.span("op"):
        fit = rebuild.distributed(ArrayStream(x, y), EXP, plan, 200.0, 4, tracer, threads=2)
    assert distributed.second_pass is before
    assert rebuild.same_fit(fit, run_distributed(ArrayStream(x, y), EXP, plan, 200.0, 4, threads=2))
    parts = [s for s in tracer.spans if s["name"] == "distributed.fit_partition"]
    assert len(parts) == 4
    # spans opened in pool threads still hang under the partition phase
    phase = next(s for s in tracer.spans if s["name"] == "distributed.partitions")
    assert all(s["parent"] == phase["id"] for s in parts)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = layers.tail(list(range(40)))
    assert (value, beyond) == (29, 10)
    assert pct == pytest.approx(100 * 29 / 39)
    # too few samples for a percentile above the median: the maximum
    assert layers.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 1, "name": "a", "parent": None, "op": "t0", "start": 0.0, "end": 10.0, "attrs": {}},
        {"id": 2, "name": "b", "parent": 1, "op": "t0", "start": 1.0, "end": 4.0, "attrs": {}},
        {"id": 3, "name": "c", "parent": 2, "op": "t0", "start": 2.0, "end": 3.0, "attrs": {}},
    ]
    ix = layers.SpanIndex(spans)
    assert ix.self_time(spans[0]) == 7.0
    assert [s["id"] for s in ix.descendants(spans[0], "c")] == [3]
    assert np.isclose(ix.self_time(spans[1]), 2.0)
