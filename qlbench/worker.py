"""Child process for the in-memory loops and for traced CLI-equivalent calls.

Usage: ``python3 -m qlbench.worker JOB.json OUT.json`` with the repository's
``src`` and root on ``PYTHONPATH``.  ``qlsub.cli`` is imported first, so the
time from spawn to ``ready`` is the CLI's start-up cost.
"""

import time

import qlsub.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
from qlsub import EXP, ArrayStream, CsvStream, SamplingPlan, get_family  # noqa: E402

from . import checks, rebuild, reference, workloads  # noqa: E402
from .tracer import TimedStream, Tracer, csv_record_bytes, instrument  # noqa: E402


def _op(fn, full_beta, reference=None):
    """Run one operation, timing it, and check its output.

    A ``reference`` result, when given, must be matched bit for bit.
    """
    out = {"ok": False, "error": None}
    start = time.perf_counter()
    try:
        result = fn()
    except Exception:  # an operation that raises is a failed operation
        out["wall"] = time.perf_counter() - start
        out["error"] = traceback.format_exc(limit=3)
        return out, None
    out["wall"] = time.perf_counter() - start
    out["sha"] = checks.digest(checks.doc_bytes(result))
    out["max_z"], out["sq_err"] = checks.accuracy(*checks.estimates(result), full_beta)
    if out["max_z"] > checks.K_SE:
        out["error"] = f"estimate {out['max_z']:.2f} standard errors from the full-data fit"
    elif reference is not None and not rebuild.same_result(result, reference):
        out["error"] = "rebuilt result differs from the library call"
    else:
        out["ok"] = True
    return out, result


def run_mem(job):
    """Closed loop of library calls; with tracing, plain and traced calls alternate.

    The first plain call's document is the reference for the other plain
    calls, and its result the reference for every traced call.  Each plain
    call is bracketed by runs of the fixed computation in ``reference``.
    """
    w = workloads.get(job["workload"], job["smoke"])
    x = np.load(job["x"])
    y = np.load(job["y"])
    seed, full = job["seed"], job["full_beta"]
    tracer = Tracer("w:")

    def traced():
        with instrument(tracer), tracer.span("op"):
            if w.t > 1:
                return rebuild.replicate(
                    x, y, EXP, w.criterion, r=w.r, r0=w.r0, rho=w.rho, t=w.t,
                    seed=seed, threshold=w.threshold, tracer=tracer,
                )
            return rebuild.two_step(TimedStream(ArrayStream(x, y), tracer), EXP, w.plan(seed), w.r0, tracer)

    ops, traced_ops, first = [], [], None
    reference.timed()  # warm-up
    after = None
    deadline = time.perf_counter() + job["seconds"]
    while len(ops) < job["min_ops"] or time.perf_counter() < deadline:
        before = reference.timed() if after is None else after
        out, result = _op(lambda: w.real_call(x, y, seed), full)
        after = reference.timed()
        out["ref"] = (before + after) / 2
        ops.append(out)
        if first is None:
            first = result
        if job["traced"]:
            tracer.op = f"t{len(traced_ops)}"
            if first is None:
                out = {"ok": False, "wall": 0.0, "error": "no plain result to compare with"}
            else:
                out, _ = _op(traced, full, first)
            traced_ops.append(out)
            after = None
    shas = [op["sha"] for op in ops if op["ok"]]
    for op in ops:
        if op["ok"] and op["sha"] != shas[0]:
            op["ok"], op["error"] = False, "document differs from the first repetition"
    return {
        "ops": ops,
        "traced_ops": traced_ops,
        "spans": tracer.spans,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_csv_traced(job):
    """One traced call equivalent to the ``qlsub fit-distributed`` command in ``job['argv']``."""
    args = qlsub.cli.build_parser().parse_args(job["argv"])
    tracer = Tracer(f"{job['op']}:")
    tracer.op = job["op"]
    source = CsvStream(
        args.data, y_col=args.y_col, intercept=args.intercept, y_shift=args.y_shift,
        block_size=args.block_size, skip_header=args.header,
    )
    stream = TimedStream(source, tracer, csv_record_bytes(np.load(job["lines"])))
    plan = SamplingPlan(
        criterion=args.criterion, expected_size=args.r, shrinkage=args.rho,
        threshold_mode=args.threshold, seed=args.seed,
    )
    family = get_family(args.family)
    with instrument(tracer), tracer.span("op"):
        fit = rebuild.distributed(
            stream, family, plan, args.r0, args.k, tracer, seed=args.seed, threads=args.threads, ridge=args.ridge,
        )
    return {
        "estimate": checks.hex_floats(fit.beta),
        "std_errors": checks.hex_floats(fit.std_errors()),
        "spans": tracer.spans,
    }


def main(argv) -> int:
    job_path, out_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    out = run_csv_traced(job) if job["mode"] == "csv-traced" else run_mem(job)
    out["ready"] = READY
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
