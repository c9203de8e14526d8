"""``scripts/bench_pairs.py`` on synthetic benchmark result files."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT, CHANGE = "a" * 64, "b" * 64
METRICS = [
    {"name": "wall_rel", "unit": "x_ref", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


LAYERS = [
    {"name": "pipeline.second_pass_s", "unit": "s", "better": "lower"},
    {"name": "ingest.parse_mb_per_s", "unit": "MB/s", "better": "higher"},
]


def write_run(root, workload, seed, digest, stamp, wall, rss=100.0, trace=0, smoke=False, failed=0, layers=None):
    metrics = {"wall_rel": {"value": wall, "unit": "x_ref"}, "peak_rss_mb": {"value": rss, "unit": "MiB"}}
    metrics.update({name: {"value": value, "unit": "s"} for name, value in (layers or {}).items()})
    record = {
        "correct": True,
        "attempted": 10,
        "failed": failed,
        "metrics": metrics,
        "details": {"workload": workload, "trace": trace, "smoke": smoke},
        "machine": {"seed": seed, "src_sha256": digest, "git_commit": "c" + digest[:6], "cpu_model": "cpu",
                    "nproc": 2, "llc": "L3", "python": "3", "numpy": "2", "blas": "openblas"},
    }
    path = Path(root) / f"{workload}-seed{seed}-trace{trace}-20260101T0000{stamp:02d}-{1000 + stamp}.json"
    path.write_text(json.dumps(record))


@pytest.fixture
def results(tmp_path):
    root = tmp_path / "results"
    root.mkdir()
    # three seeds on w1, parent run first in each pair; the change is faster
    # in two pairs and slower in one
    for j, (seed, parent, change) in enumerate([(1, 2.0, 1.0), (2, 2.2, 1.1), (3, 1.0, 1.5)]):
        write_run(root, "w1", seed, PARENT, 10 * j, parent, rss=100.0)
        write_run(root, "w1", seed, CHANGE, 10 * j + 1, change, rss=90.0, failed=j)
    write_run(root, "w1", 4, PARENT, 50, 9.9)  # no partner
    write_run(root, "w1", 1, CHANGE, 51, 0.1, trace=1)  # traced: not an end-to-end run
    write_run(root, "w1", 2, CHANGE, 52, 0.1, smoke=True)
    write_run(root, "w1", 3, "f" * 64, 53, 0.1)  # another source
    (root / "w1-seed1-trace1-20260101T000051-1051.trace.json").write_text("[]")
    return root


def test_pairs_runs_by_source_digest(results):
    summary = bench_pairs.summarize(bench_pairs.load_runs([results]), {"parent": PARENT, "change": CHANGE}, METRICS)
    w1 = summary["workloads"]["w1"]
    assert w1["pairs"] == 3
    assert w1["unpaired_runs"] == 1
    assert w1["seeds"] == [1, 2, 3]
    assert w1["failed"] == {"parent": 0, "change": 3}
    wall = w1["metrics"]["wall_rel"]
    assert wall["change_wins"] == 2
    assert wall["parent"] == pytest.approx({"median": 2.0, "q1": 1.5, "q3": 2.1})
    assert wall["change"] == pytest.approx({"median": 1.1, "q1": 1.05, "q3": 1.3})
    assert w1["metrics"]["peak_rss_mb"]["change_wins"] == 3
    assert summary["parent"] == {"src_sha256": PARENT, "commits": ["caaaaaa"]}
    assert summary["change"]["commits"] == ["cbbbbbb"]
    assert summary["machine"]["cpu_model"] == "cpu"


def test_main_writes_the_summary(results, tmp_path, capsys):
    src = tmp_path / "src" / "qlsub"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    (src / "b.py").write_text("y = 2\n")
    digest = hashlib.sha256(b"x = 1\ny = 2\n").hexdigest()
    assert bench_pairs.src_digest(str(tmp_path / "src")) == digest
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS, "per_layer": LAYERS}))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", PARENT, "--change", CHANGE, "--results", str(results), "--benchmark", str(bench)]
    assert bench_pairs.main([*argv, "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["workloads"]["w1"]["metrics"]["wall_rel"]["change_wins"] == 2
    assert "w1 wall_rel: 2 -> 1.1 x_ref (change wins 2/3)" in capsys.readouterr().out
    # the one traced run has no partner, so no layers are summarized
    assert "layers" not in summary["workloads"]["w1"]
    with pytest.raises(SystemExit, match="no paired runs"):
        bench_pairs.main(["--parent", PARENT, "--change", "e" * 64, "--results", str(results),
                          "--benchmark", str(bench), "--out", str(out)])


def test_layers_pair_the_traced_runs(results, tmp_path, capsys):
    # two traced pairs on seeds without end-to-end runs; the fixture's
    # traced change run of seed 1 has no traced parent and stays unpaired
    for j, (seed, parent, change) in enumerate([(5, 0.05, 0.03), (6, 0.06, 0.07)]):
        write_run(results, "w1", seed, PARENT, 60 + 2 * j, 1.0, trace=1, layers={"pipeline.second_pass_s": parent})
        write_run(results, "w1", seed, CHANGE, 61 + 2 * j, 1.0, trace=1, layers={"pipeline.second_pass_s": change})
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS, "per_layer": LAYERS}))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", PARENT, "--change", CHANGE, "--results", str(results), "--benchmark", str(bench)]
    assert bench_pairs.main([*argv, "--out", str(out)]) == 0
    w1 = json.loads(out.read_text())["workloads"]["w1"]
    # the end-to-end summary is the one made from the untraced runs alone
    assert w1["pairs"] == 3 and w1["metrics"]["wall_rel"]["change_wins"] == 2
    layers = w1["layers"]
    assert layers["pairs"] == 2
    assert layers["seeds"] == [5, 6]
    assert layers["unpaired_runs"] == 1
    # a metric that the runs do not report is left out
    assert list(layers["metrics"]) == ["pipeline.second_pass_s"]
    second = layers["metrics"]["pipeline.second_pass_s"]
    assert second["change_wins"] == 1
    assert second["parent"]["median"] == pytest.approx(0.055)
    assert second["change"]["median"] == pytest.approx(0.05)
    assert "w1 layers pipeline.second_pass_s: 0.055 -> 0.05 s (change wins 1/2)" in capsys.readouterr().out


def test_missing_end_to_end_metric_stops(results):
    runs = bench_pairs.load_runs([results])
    del next(run for run in runs if run["machine"]["seed"] == 2)["metrics"]["peak_rss_mb"]
    with pytest.raises(SystemExit, match=r"^bench_pairs: w1 run w1-seed2-.* lacks peak_rss_mb$"):
        bench_pairs.summarize(runs, {"parent": PARENT, "change": CHANGE}, METRICS)


TIGHT = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]  # quartile distance 0.1


@pytest.mark.parametrize(
    "parent, change, better, want",
    [
        # 9 of 10 wins and a median 0.8 below, beyond the parent's quartile distance
        (TIGHT, [9.2] * 9 + [10.5], "lower", "gain"),
        (TIGHT, [10.8] * 9 + [9.5], "higher", "gain"),
        # 8 of 10 wins are too few
        (TIGHT, [9.2] * 8 + [10.5] * 2, "lower", "unchanged"),
        # 10 of 10 wins by less than the quartile distance
        ([p + 0.001 for p in TIGHT], [p - 0.02 for p in TIGHT], "lower", "unchanged"),
        # a median 30 % above the parent's, past the 25 % bound
        (TIGHT, [13.0] * 10, "lower", "worse"),
        (TIGHT, [7.0] * 10, "higher", "worse"),
        # a parent spread past the bound: unresolved unless every change run beats every parent run
        ([6.0, 14.0] * 5, [11.0, 9.0] * 5, "lower", "unresolved"),
        ([6.0, 14.0] * 5, [5.0] * 10, "lower", "unchanged"),
        ([6.0, 14.0] * 5, [1.0] * 10, "lower", "gain"),
        ([10.0, 14.0] * 5, [9.0] * 6 + [15.0] * 4, "lower", "unresolved"),
    ],
)
def test_verdict(parent, change, better, want):
    assert bench_pairs.verdict(list(zip(parent, change)), better, 0.25) == want


def test_summary_lines_state_the_verdict(results, tmp_path, capsys):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS, "per_layer": LAYERS}))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", PARENT, "--change", CHANGE, "--results", str(results), "--benchmark", str(bench)]
    assert bench_pairs.main([*argv, "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["w1"]["metrics"]
    # the parent's wall_rel quartiles 1.5-2.1 span 30 % of its median, past the 25 % bound
    assert metrics["wall_rel"]["verdict"] == "unresolved"
    # 90 MiB against 100 in every pair
    assert metrics["peak_rss_mb"]["verdict"] == "gain"
    lines = capsys.readouterr().out.splitlines()
    assert "w1 wall_rel: 2 -> 1.1 x_ref (change wins 2/3): unresolved" in lines
    assert "w1 peak_rss_mb: 100 -> 90 MiB (change wins 3/3): gain" in lines


def test_layers_have_no_verdict(results, tmp_path):
    for j, (seed, parent, change) in enumerate([(5, 0.05, 0.03), (6, 0.06, 0.07)]):
        write_run(results, "w1", seed, PARENT, 60 + 2 * j, 1.0, trace=1, layers={"pipeline.second_pass_s": parent})
        write_run(results, "w1", seed, CHANGE, 61 + 2 * j, 1.0, trace=1, layers={"pipeline.second_pass_s": change})
    traced = bench_pairs.summarize(
        bench_pairs.load_runs([results], trace=1), {"parent": PARENT, "change": CHANGE}, LAYERS, partial=True
    )
    # per-layer metrics carry no bound
    assert "verdict" not in traced["workloads"]["w1"]["metrics"]["pipeline.second_pass_s"]
