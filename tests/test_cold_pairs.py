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
