"""Benchmark entry point.

    python3 qlbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout of the repository; the program under
test is the checkout's ``src/qlsub``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A result file with the machine, the samples and the checks,
and with ``--trace 1`` a separate trace file of spans, are written under
``.qlbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    from qlbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(prog="qlbench")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs: every workload and check in seconds")
    return p.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def pin_to_one_core() -> None:
    """Run this process, and every process and thread it starts, on one core.

    The cores of the shared machine drift in speed independently of each
    other, so an operation is timed against the reference computation only
    when both run on the same core.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    if not (ROOT / "src" / "qlsub" / "__init__.py").is_file():
        print(f"qlbench: no program to measure: {ROOT / 'src' / 'qlsub'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    pin_to_one_core()  # before numpy starts its BLAS threads
    args = _parse(argv)
    from qlbench import harness

    if not Path(harness.qlsub.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qlbench: imported qlsub from {harness.qlsub.__file__}, not this checkout", file=sys.stderr)
        return 2
    info = harness.machine_info(args.seed)
    out = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke).execute()
    d = out["details"]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    results = harness.RUNTIME / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {k: out[k] for k in ("correct", "attempted", "failed")}
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}, details=d, machine=info)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        (results / f"{stem}.trace.json").write_text(json.dumps(out["spans"]))

    print(f"qlbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}"
          f"{' smoke' if args.smoke else ''}: {d['why']}")
    print("machine: " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name} = {_fmt(value)} {unit}")
    if not args.trace:
        print(f"  (wall_rel_tail is p{d['tail_percentile']:.1f} of {d['samples']} timed operations,"
              f" {d['tail_beyond']} beyond it)")
        print(f"  wall_s = {_fmt(d['wall_s'])} s, wall_s_tail = {_fmt(d['wall_s_tail'])} s"
              f" (raw; reference computation {_fmt(d['ref_s'])} s)")
    print(f"  fail_frac = {d['fail_frac']:.6g} ({d['failed']} failed of {d['attempted']} attempted)")
    print(f"  mse_vs_full = {_fmt(d['mse_vs_full'])} over {d['t']} estimate(s);"
          f" max |estimate - full| = {_fmt(d['max_z'])} SE (limit {d['k_se']:g})")
    for err in d["errors"] + d.get("untraced_errors", []) + d.get("traced_errors", []):
        print(f"  error: {err}")
    print(f"  result file: {(results / stem).relative_to(ROOT)}.json")
    final = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
