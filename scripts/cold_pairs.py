"""Time cold CSV fits of two source trees in interleaved pairs.

A cold fit is a fit of a CSV file that has no ``<file>.qlcache`` sidecar: it
parses the file and writes the sidecar.  The benchmark times only warm fits
(its first, untimed operation writes the sidecar), so this script times the
cold side.  It writes one c1 file, then in each round runs the
``csv-dist-c1-k4`` command line once per source tree, as a new process, in
shuffled order, deleting the sidecar before every such run of either tree,
and records each child's wall time and peak RSS.  Like the benchmark, it
runs every child on one core.  With ``--warm`` each round also times the
change right after its cold run, on the sidecar that run wrote.  The
summary gives each side's median and quartiles, and the median and
quartiles of the per-round change/parent ratios::

    python scripts/cold_pairs.py --parent ../parent/src --change src \\
        --rounds 20 --out BENCH_13_cold.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
from qlbench.workloads import get  # noqa: E402

WORKLOAD = "csv-dist-c1-k4"


def run_child(src: str, argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS (MiB) of one ``qlsub`` child run from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    # as in the benchmark: the cores drift in speed independently, so every
    # child runs on the same one
    core = {min(os.sched_getaffinity(0))}
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qlsub.cli"] + argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, preexec_fn=lambda: os.sched_setaffinity(0, core))
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    # reaped here, so Popen must not think the child is still running
    proc.returncode = os.waitstatus_to_exitcode(status)
    if status:
        raise SystemExit(f"cold_pairs: {' '.join(argv)} from {src} exited with status {status}")
    return wall, usage.ru_maxrss / 1024


def _spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def measure(parent: str, change: str, rounds: int, n: int, seed: int, warm: bool, work: Path) -> dict:
    w = get(WORKLOAD)
    data = str(work / f"{w.case}.csv")
    run_child(change, ["gen-data", "--case", w.case, "--n", str(n), "--seed", str(seed), "--out", data])
    argv = w.cli_argv(data, seed, str(work / "fit.json"))
    sides = {"parent": parent, "change": change}
    runs = {side: [] for side in list(sides) + (["warm"] if warm else [])}
    for src in sides.values():
        run_child(src, argv)  # untimed: compiles the sources and reads the file into the page cache
    shuffle = random.Random(seed)
    for _ in range(rounds):
        order = list(sides)
        shuffle.shuffle(order)
        for side in order:
            # both trees cache, and every run before this one left a sidecar
            Path(data + ".qlcache").unlink(missing_ok=True)
            runs[side].append(run_child(sides[side], argv))
            if warm and side == "change":
                runs["warm"].append(run_child(change, argv))
    summary = {"workload": WORKLOAD, "n": n, "seed": seed, "rounds": rounds, "runs": runs, "machine": {
        "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count()}}
    for j, metric in enumerate(("wall_s", "peak_rss_mb")):
        ratios = [c[j] / p[j] for p, c in zip(runs["parent"], runs["change"])]
        summary[metric] = {side: _spread([r[j] for r in got]) for side, got in runs.items()}
        summary[metric]["change_over_parent"] = _spread(ratios)
        summary[metric]["change_lower"] = sum(r < 1 for r in ratios)
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="cold_pairs", description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent src directory")
    p.add_argument("--change", default=str(ROOT / "src"), help="change src directory")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--n", type=int, default=get(WORKLOAD).n, help="records in the c1 file")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--warm", action="store_true", help="also time a warm run of the change each round")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.rounds < 1:
        raise SystemExit("cold_pairs: --rounds must be at least 1")
    with tempfile.TemporaryDirectory(prefix="cold_pairs.") as work:
        summary = measure(args.parent, args.change, args.rounds, args.n, args.seed, args.warm, Path(work))
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for metric in ("wall_s", "peak_rss_mb"):
        m = summary[metric]
        ratio = m["change_over_parent"]
        print(f"{WORKLOAD} cold {metric}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
              f" (change/parent median {ratio['median']:.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}],"
              f" change lower in {m['change_lower']}/{args.rounds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
