"""Pair parent and change benchmark runs and summarize them in one JSON file.

Reads the result files that ``qlbench/run.py`` writes under
``.qlbench/results/`` and keeps the end-to-end runs (``--trace 0``, not
``--smoke``).  A run belongs to the parent or to the change by the digest of
the ``src/qlsub`` it measured (``machine.src_sha256``).  Runs of one workload
and seed pair up in the order they were made; a run without a partner is
counted but not used.  For each workload and end-to-end metric of
``BENCHMARK.json`` the summary gives each side's median and quartiles over
the paired runs, the number of pairs the change wins and a ``verdict``
(:func:`verdict`); a paired run that lacks one of them stops the script.
Where there are ``--trace 1`` runs, they are paired the same way, and each
workload also gets the same summary of the per-layer metrics that its
traced runs report (``layers``), with no verdict, since they carry no
bound.

Run both sides from sibling copies made the same way, as the benchmark
itself does: where a checkout lives can move a workload by a few per cent::

    git archive PARENT --prefix=parent/ | tar -x -C ..
    git archive HEAD --prefix=change/ | tar -x -C ..
    # alternate python3 ../parent/qlbench/run.py ... and python3 ../change/qlbench/run.py ...
    python scripts/bench_pairs.py --parent ../parent/src --change ../change/src \\
        --results ../parent/.qlbench/results ../change/.qlbench/results --out BENCH.json

``--parent`` and ``--change`` take a ``src`` directory, whose ``qlsub/*.py``
files are hashed as the benchmark hashes them, or the hex digest itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MACHINE_KEYS = ("cpu_model", "nproc", "llc", "python", "numpy", "blas")


def src_digest(spec: str) -> str:
    """The digest named by ``spec``: a ``src`` directory or a hex digest."""
    path = Path(spec)
    if path.is_dir():
        files = sorted((path / "qlsub").glob("*.py"))
        if not files:
            raise SystemExit(f"bench_pairs: no qlsub/*.py under {spec}")
        return hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
    return spec


def load_runs(dirs, trace: int = 0) -> list[dict]:
    """Non-smoke result records of the given directories made with ``--trace trace``, oldest first."""
    runs = []
    for d in dirs:
        for path in sorted(Path(d).glob("*.json")):
            if path.name.endswith(".trace.json"):
                continue
            record = json.loads(path.read_text())
            details = record.get("details", {})
            if details.get("trace") == trace and not details.get("smoke"):
                record["file"] = path.name
                runs.append(record)
    # the file name ends in the run's start time and process id
    return sorted(runs, key=lambda r: r["file"].rsplit("-", 2)[-2:])


def _spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def verdict(values, better: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``unchanged`` for ``(parent, change)`` value pairs.

    ``bound`` is the largest relative change of the median that the
    benchmark lets pass.

    - ``gain``: the change wins at least nine tenths of the pairs (ties
      count for neither side), and its median is better than the parent's
      by more than the parent's quartile distance;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` of the parent's median;
    - ``unresolved``: the parent's quartile distance exceeds ``bound`` of
      its median, and not every change run beats every parent run;
    - ``unchanged``: any other case.
    """
    sign = 1.0 if better == "lower" else -1.0
    # gains are positive: how far each change value lies below its parent (above, for "higher")
    parent = sign * np.asarray([p for p, _ in values], dtype=np.float64)
    change = sign * np.asarray([c for _, c in values], dtype=np.float64)
    wins = int(np.count_nonzero(change < parent))
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    gain = median - np.median(change)
    if 10 * wins >= 9 * len(values) and gain > q3 - q1:
        return "gain"
    if -gain > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not change.max() < parent.min():
        return "unresolved"
    return "unchanged"


def summarize(runs, digests: dict, metrics: list[dict], partial: bool = False) -> dict:
    """The paired summary of ``runs``; ``digests`` maps each side to its src digest.

    A metric that some paired run does not report stops the script, or with
    ``partial`` is left out.
    """
    side_of = {digest: side for side, digest in digests.items()}
    grouped = defaultdict(lambda: {side: [] for side in SIDES})
    for run in runs:
        side = side_of.get(run["machine"]["src_sha256"])
        if side:
            grouped[run["details"]["workload"], run["machine"]["seed"]][side].append(run)

    pairs = defaultdict(list)
    unpaired = defaultdict(int)
    for (workload, _), sides in sorted(grouped.items()):
        n = min(len(sides["parent"]), len(sides["change"]))
        pairs[workload].extend(zip(sides["parent"][:n], sides["change"][:n]))
        unpaired[workload] += len(sides["parent"]) + len(sides["change"]) - 2 * n

    workloads = {}
    for workload, matched in sorted(pairs.items()):
        if not matched:
            continue
        entry = {
            "pairs": len(matched),
            "unpaired_runs": unpaired[workload],
            "seeds": [p["machine"]["seed"] for p, _ in matched],
            "failed": {side: sum(pair[j]["failed"] for pair in matched) for j, side in enumerate(SIDES)},
            "attempted": {side: sum(pair[j]["attempted"] for pair in matched) for j, side in enumerate(SIDES)},
            "metrics": {},
        }
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            lacking = [run["file"] for pair in matched for run in pair if name not in run["metrics"]]
            if lacking and partial:
                continue
            if lacking:
                raise SystemExit(f"bench_pairs: {workload} run {lacking[0]} lacks {name}")
            values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in matched]
            wins = sum((c < p) if lower else (c > p) for p, c in values)
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": _spread([p for p, _ in values]),
                "change": _spread([c for _, c in values]),
                "change_wins": wins,
            }
            if "bound" in metric:
                entry["metrics"][name]["verdict"] = verdict(values, metric["better"], metric["bound"])
        workloads[workload] = entry

    used = [run for matched in pairs.values() for pair in matched for run in pair]
    machines = []
    for run in used:
        machine = {key: run["machine"].get(key) for key in MACHINE_KEYS}
        if machine not in machines:
            machines.append(machine)
    summary = {"machine": machines[0] if len(machines) == 1 else machines, "workloads": workloads}
    for side in SIDES:
        commits = {run["machine"]["git_commit"] for run in used if run["machine"]["src_sha256"] == digests[side]}
        summary[side] = {"src_sha256": digests[side], "commits": sorted(c or "none" for c in commits)}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench_pairs", description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent src directory or its digest")
    p.add_argument("--change", required=True, help="change src directory or its digest")
    p.add_argument("--results", nargs="+", default=[str(ROOT / ".qlbench" / "results")])
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    digests = {"parent": src_digest(args.parent), "change": src_digest(args.change)}
    if digests["parent"] == digests["change"]:
        raise SystemExit("bench_pairs: parent and change measured the same source")
    benchmark = json.loads(Path(args.benchmark).read_text())
    summary = summarize(load_runs(args.results), digests, benchmark["end_to_end"])
    traced = summarize(load_runs(args.results, trace=1), digests, benchmark["per_layer"], partial=True)
    for workload, entry in traced["workloads"].items():
        summary["workloads"].setdefault(workload, {})["layers"] = entry
    if not summary["workloads"]:
        raise SystemExit("bench_pairs: no paired runs found")
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for workload, entry in summary["workloads"].items():
        for label, part in ((workload, entry), (f"{workload} layers", entry.get("layers"))):
            for name, m in (part or {}).get("metrics", {}).items():
                print(f"{label} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} {m['unit']}"
                      f" (change wins {m['change_wins']}/{part['pairs']})" + (f": {m['verdict']}" if "verdict" in m else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
