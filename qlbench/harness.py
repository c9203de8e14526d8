"""One benchmark run: set up a workload, time its operations, check them.

The load is a closed loop with one client: one process, or one ``qlsub``
CLI child, runs at a time, and each operation starts when the previous one
has ended.  End-to-end metrics come from the untraced loop.  With tracing
on, each plain operation is followed by the same operation rebuilt under
spans (see ``rebuild``), and the per-layer metrics come from those spans
and from whole-array probes of the kernels.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import qlsub
import scipy
from qlsub import EXP, ArrayStream, full_qle
from qlsub.pipeline import resolve_rule, run_pilot
from qlsub.synth import write_case_csv

from . import checks, layers, reference, workloads
from .tracer import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNTIME = ROOT / ".qlbench"

OP_TIMEOUT_S = 100.0
MIN_OPS = 3
# set-up is repeated at least this many times and until this much time is
# spent (CSV set-up is repeated exactly this many times: each costs seconds)
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 200
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Child:
    wall: float
    code: int
    maxrss_kb: int
    spawned: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, stdout: Path, stderr: Path, timeout: float = OP_TIMEOUT_S) -> Child:
    """Run a child to completion; wall time and peak RSS of that process alone."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([fd], [], [], timeout)[0]
        finally:
            os.close(fd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if exited else -9
    return Child(wall=ended - started, code=code, maxrss_kb=usage.ru_maxrss, spawned=started)


def _tail_text(path: Path, lines: int = 3) -> str:
    return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])


def machine_info(seed: int) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": None,
        "llc": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qlsub": qlsub.__version__,
        "blas": None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": None,
        "src_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((SRC / "qlsub").glob("*.py")))
        ).hexdigest(),
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
        top = max(caches, key=lambda p: int((p / "level").read_text()))
        info["llc"] = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    except (OSError, ValueError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        top, commit = git.stdout.split()
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            info["git_commit"] = commit
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return info


@dataclass
class Tally:
    """Operations attempted and failed, with the wall times of the good ones
    and, for each, the mean time of the reference runs around it."""

    walls: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, wall: float, error: str | None, timed: bool = True, ref: float = float("nan")) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        elif timed:
            self.walls.append(wall)
            self.refs.append(ref)

    def median(self) -> float:
        return statistics.median(self.walls) if self.walls else float("nan")

    def ratios(self) -> list:
        """Each timed operation's wall time over the median reference time of
        the five operations nearest it, itself included: one reference run
        is too short to be steady, while five still follow the core's drift."""
        refs = self.refs
        return [w / statistics.median(refs[max(0, i - 2):i + 3]) for i, w in enumerate(self.walls)]


@dataclass
class Inputs:
    x: np.ndarray
    y: np.ndarray
    full_beta: np.ndarray
    setup_times: list
    generate_s: float
    csv: Path | None = None
    lines: Path | None = None


@dataclass
class Ops:
    """What the operations of one run produced."""

    plain: Tally = field(default_factory=Tally)
    traced: Tally = field(default_factory=Tally)
    spans: list = field(default_factory=list)
    cli_start: list = field(default_factory=list)
    peak_kb: float = float("nan")
    accuracy: tuple = (float("nan"), float("nan"))  # (max |z|, squared distance)

    def more(self, run: Run, deadline: float) -> bool:
        enough = self.plain.attempted >= run.min_ops and (not run.trace or self.traced.attempted >= run.min_ops)
        return not enough or time.monotonic() < deadline


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
        self.w = workloads.get(name, smoke)
        self.seed, self.seconds, self.trace, self.smoke = seed, seconds, trace, smoke
        self.min_ops = 2 if smoke else MIN_OPS
        self.work = RUNTIME / "work" / f"{name}-{seed}-{os.getpid()}"
        self.errors: list[str] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> Inputs:
        """Generate the inputs from scratch with the program's own generators."""
        w, times = self.w, []
        if w.kind == "csv":
            csv = self.work / "data.csv"
            argv = [sys.executable, "-m", "qlsub.cli", "gen-data", "--case", w.case,
                    "--n", str(w.n), "--seed", str(self.seed), "--out", str(csv)]
            for _ in range(1 if (self.trace or self.smoke) else SETUP_REPEATS):
                child = spawn(argv, self.work / "gen.out", self.work / "gen.err")
                if child.code != 0:
                    raise RuntimeError(f"gen-data exited {child.code}: {_tail_text(self.work / 'gen.err')}")
                times.append(child.wall)
            start = time.perf_counter()
            x, y = workloads.generate(w, self.seed)
            generate_s = time.perf_counter() - start
            ends = np.flatnonzero(np.fromfile(csv, dtype=np.uint8) == ord("\n")) + 1
            lines = self.work / "lines.npy"
            np.save(lines, ends)
        else:
            csv = lines = None
            while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
                start = time.perf_counter()
                x, y = workloads.generate(w, self.seed)
                times.append(time.perf_counter() - start)
            generate_s = statistics.median(times)
            np.save(self.work / "x.npy", x)
            np.save(self.work / "y.npy", y)
        full = full_qle(x, y, EXP).beta
        return Inputs(x, y, full, times, generate_s, csv, lines)

    # -- operations ------------------------------------------------------------

    def csv_ops(self, inputs: Inputs, ops: Ops) -> None:
        """CLI children in a closed loop, each document checked; with tracing,
        each CLI child is followed by one traced child running the same call."""
        real = self.w.real_call(inputs.x, inputs.y, self.seed)
        want = (checks.hex_floats(real.beta), checks.hex_floats(real.std_errors()))
        doc_path = self.work / "doc.json"
        argv = self.w.cli_argv(str(inputs.csv), self.seed, str(doc_path))
        first, rss = None, []
        reference.timed()  # warm-up
        after = None
        deadline = time.monotonic() + self.seconds
        while ops.more(self, deadline):
            before = reference.timed() if after is None else after
            doc_path.unlink(missing_ok=True)
            child = spawn([sys.executable, "-m", "qlsub.cli"] + argv, self.work / "cli.out", self.work / "cli.err")
            error = None
            if child.code != 0:
                error = f"exit {child.code}: {_tail_text(self.work / 'cli.err')}"
            else:
                raw = doc_path.read_bytes()
                doc = json.loads(raw)
                max_z, sq_err = checks.accuracy([doc["estimate"]], [doc["std_errors"]], inputs.full_beta)
                if first is None:
                    first, ops.accuracy = raw, (max_z, sq_err)
                if raw != first:
                    error = "document differs from the first repetition"
                elif (checks.hex_floats(doc["estimate"]), checks.hex_floats(doc["std_errors"])) != want:
                    error = "CSV-path estimate differs from the same call on in-memory arrays"
                elif max_z > checks.K_SE:
                    error = f"estimate {max_z:.2f} standard errors from the full-data fit"
                rss.append(child.maxrss_kb)
            after = reference.timed()
            # the first child warms caches: it is checked and counted but not timed
            ops.plain.add(child.wall, error, timed=ops.plain.attempted > 0, ref=(before + after) / 2)
            if self.trace:
                self.csv_traced_op(inputs, argv, want, ops)
                after = None
        ops.peak_kb = statistics.median(rss) if rss else float("nan")

    def csv_traced_op(self, inputs: Inputs, argv: list, want: tuple, ops: Ops) -> None:
        op = f"t{ops.traced.attempted}"
        job = {"mode": "csv-traced", "argv": argv, "lines": str(inputs.lines), "op": op}
        out, child = self._worker(job, op)
        error = self.errors.pop() if out is None else None
        if out is not None:
            ops.spans.extend(out["spans"])
            ops.cli_start.append(out["ready"] - child.spawned)
            if (out["estimate"], out["std_errors"]) != want:
                error = "rebuilt result differs from the library call"
        ops.traced.add(child.wall, error)

    def mem_ops(self, inputs: Inputs, ops: Ops) -> None:
        """One worker process runs the closed loop (see ``worker.run_mem``)."""
        job = {
            "mode": "mem", "workload": self.w.name, "smoke": self.smoke, "seed": self.seed,
            "seconds": self.seconds, "min_ops": self.min_ops, "traced": self.trace,
            "x": str(self.work / "x.npy"), "y": str(self.work / "y.npy"),
            "full_beta": inputs.full_beta.tolist(),
        }
        out, child = self._worker(job, "mem", timeout=self.seconds + OP_TIMEOUT_S)
        if out is None:
            ops.plain.add(child.wall, self.errors[-1])
            return
        # the first operation warms caches and lazy set-up: it is checked and
        # counted but not timed
        for i, op in enumerate(out["ops"]):
            ops.plain.add(op["wall"], op["error"], timed=i > 0, ref=op["ref"])
        for op in out["traced_ops"]:
            ops.traced.add(op["wall"], op["error"])
        good = [op for op in out["ops"] if op["ok"]]
        if good:
            ops.accuracy = (good[0]["max_z"], good[0]["sq_err"])
        ops.peak_kb = out["maxrss_kb"]
        ops.spans.extend(out["spans"])
        ops.cli_start.append(out["ready"] - child.spawned)

    def _worker(self, job: dict, tag: str, timeout: float = OP_TIMEOUT_S) -> tuple[dict | None, Child]:
        job_path, out_path = self.work / f"{tag}.job.json", self.work / f"{tag}.out.json"
        job_path.write_text(json.dumps(job))
        out_path.unlink(missing_ok=True)
        child = spawn(
            [sys.executable, "-m", "qlbench.worker", str(job_path), str(out_path)],
            self.work / f"{tag}.stdout", self.work / f"{tag}.stderr", timeout,
        )
        if child.code != 0:
            self.errors.append(f"worker {tag} exited {child.code}: {_tail_text(self.work / f'{tag}.stderr')}")
            return None, child
        return json.loads(out_path.read_text()), child

    # -- the run ---------------------------------------------------------------

    def execute(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _execute(self) -> dict:
        w = self.w
        inputs = self.setup()
        ops = Ops()
        (self.csv_ops if w.kind == "csv" else self.mem_ops)(inputs, ops)
        plain, traced = ops.plain, ops.traced
        details = {
            "workload": w.name, "why": w.why, "n": w.n, "t": w.t, "trace": int(self.trace),
            "seconds": self.seconds, "smoke": self.smoke, "setup_samples": inputs.setup_times,
            "untraced_walls": plain.walls, "untraced_errors": plain.errors,
            "max_z": ops.accuracy[0], "k_se": checks.K_SE, "mse_vs_full": ops.accuracy[1],
        }
        if self.trace:
            metrics = self.layer_metrics(inputs, ops)
            details.update(traced_walls=traced.walls, traced_errors=traced.errors)
        else:
            nan_tail = (float("nan"), 100.0, 0)
            ratios = plain.ratios()
            tail_ratio, pct, beyond = layers.tail(ratios) if ratios else nan_tail
            details.update(
                wall_s=plain.median(),
                wall_s_tail=layers.tail(plain.walls)[0] if plain.walls else float("nan"),
                ref_s=statistics.median(plain.refs) if plain.refs else float("nan"),
                untraced_refs=plain.refs,
            )
            metrics = {
                "wall_rel": (statistics.median(ratios) if ratios else float("nan"), "x_ref"),
                "wall_rel_tail": (tail_ratio, "x_ref"),
                "peak_rss_mb": (ops.peak_kb / 1024.0, "MiB"),
                "setup_s": (statistics.median(inputs.setup_times), "s"),
            }
            details.update(tail_percentile=pct, tail_beyond=beyond, samples=len(plain.walls))
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        correct = failed == 0 and not self.errors and all(np.isfinite(v) for v, _ in metrics.values())
        details.update(attempted=attempted, failed=failed, fail_frac=failed / max(attempted, 1), errors=self.errors)
        return {"correct": bool(correct), "attempted": attempted, "failed": failed,
                "metrics": metrics, "details": details, "spans": ops.spans}

    def layer_metrics(self, inputs: Inputs, ops: Ops) -> dict:
        w = self.w
        metrics = {"cli.start_s": (statistics.median(ops.cli_start) if ops.cli_start else float("nan"), "s")}
        metrics.update(layers.span_metrics(ops.spans))
        stream = ArrayStream(inputs.x, inputs.y)
        pilot = run_pilot(stream, EXP, w.r0, self.seed, w.criterion)
        rule = resolve_rule(stream, EXP, pilot, w.plan(self.seed), w.r)
        metrics.update(layers.kernel_probes(inputs.x, inputs.y, rule, self.seed))
        metrics["synth.generate_s"] = (inputs.generate_s, "s")
        metrics["synth.write_csv_s"] = (self.write_csv_s() if w.kind == "csv" else 0.0, "s")
        metrics["estimator.mse_vs_full"] = (ops.accuracy[1], "sq_coef")
        metrics["trace.overhead_frac"] = (ops.traced.median() / ops.plain.median() - 1.0, "ratio")
        return metrics

    def write_csv_s(self) -> float:
        """Self time of one ``synth.write_case_csv`` call: writing without generating."""
        tracer = Tracer()
        with instrument(tracer), tracer.span("synth.write_case_csv") as rec:
            write_case_csv(self.w.spec(self.seed), str(self.work / "write.csv"))
        return layers.SpanIndex(tracer.spans).self_time(rec)
