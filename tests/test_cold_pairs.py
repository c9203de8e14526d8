"""``scripts/cold_pairs.py`` on a small file, with one source tree on both sides."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cold_pairs.py"
_spec = importlib.util.spec_from_file_location("cold_pairs", SCRIPT)
cold_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_pairs)


def test_main_writes_the_summary(tmp_path, capsys):
    src = str(SCRIPT.parents[1] / "src")
    out = tmp_path / "cold.json"
    assert cold_pairs.main(["--parent", src, "--change", src, "--rounds", "2", "--n", "6000", "--warm",
                            "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert {side: len(runs) for side, runs in summary["runs"].items()} == {"parent": 2, "change": 2, "warm": 2}
    for metric in ("wall_s", "peak_rss_mb"):
        assert set(summary[metric]) == {"parent", "change", "warm", "change_over_parent", "change_lower"}
        assert 0 <= summary[metric]["change_lower"] <= 2
    assert "csv-dist-c1-k4 cold wall_s" in capsys.readouterr().out


def test_every_cold_run_starts_without_a_sidecar(tmp_path, monkeypatch):
    # a stand-in child writes the sidecar as a real fit does, and returns its
    # call number as its wall time, so each timed run is traced to its call
    calls = []

    def fake_run_child(src, argv):
        if argv[0] == "gen-data":
            Path(argv[argv.index("--out") + 1]).write_text("")
        else:
            sidecar = Path(argv[argv.index("--data") + 1] + ".qlcache")
            calls.append((src, sidecar.exists()))
            sidecar.write_text("")
        return float(len(calls) - 1), 1.0

    monkeypatch.setattr(cold_pairs, "run_child", fake_run_child)
    summary = cold_pairs.measure("parent-src", "change-src", 6, 100, 3, True, tmp_path)
    for side, src, warm in (("parent", "parent-src", False), ("change", "change-src", False),
                            ("warm", "change-src", True)):
        assert [calls[int(wall)] for wall, _ in summary["runs"][side]] == [(src, warm)] * 6
