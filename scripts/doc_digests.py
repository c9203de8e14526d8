"""Print one sha256 per CLI result document and library result, for byte-identity checks.

Runs ``qlsub.cli.main`` in-process on one small synthetic CSV case and
hashes the JSON document of each cell of the matrix

- ``fit`` x criterion {uniform, mvc, mv} x threshold {inf, quantile, exact};
- ``fit-distributed`` x criterion {mvc, mv} x threshold {inf, quantile,
  exact} x K {1, 4}, with ``--threads 2``;
- ``fit-distributed --partitions`` x criterion {mvc, mv} x threshold {inf,
  quantile, exact}, on the same case split into 4 files (``gen-data
  --files 4``), so the shards are the files;
- ``fit`` and ``fit-distributed --k 4`` x threshold {inf, quantile, exact},
  criterion mv, with ``--block-size 1000``.

It then hashes library results on small in-memory cases: ``run_two_step``
on s4 (N = 12 000, d = 35) x criterion {mvc, mv} x threshold {inf, quantile,
exact}, and a T = 5 mv ``replicate`` on c4 (N = 6000) x threshold.  Each
library line hashes the estimates, the variances and the realized subsample
sizes (or the failure count), not the reported expected size.

Two checkouts that should give the same results print the same lines, so a
refactor is checked by diffing this script's output before and after it::

    python scripts/doc_digests.py > after.txt
    python scripts/doc_digests.py ../parent/src > before.txt

The package is imported from the ``src`` directory given as the optional
argument, by default the one next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

CASE = ["--case", "c1", "--n", "20000", "--seed", "11"]
PLAN = ["--r", "1000", "--r0", "300", "--rho", "0.2", "--seed", "5"]
THRESHOLDS = ("inf", "quantile", "exact")
ONE_FILE = ["--data", "case.csv"]
FOUR_FILES = ["--partitions", *(f"split.part{j}.csv" for j in range(4))]


def cells():
    for criterion in ("uniform", "mvc", "mv"):
        for threshold in THRESHOLDS:
            yield f"fit {criterion} {threshold}", ["fit", "--criterion", criterion, "--threshold", threshold, *ONE_FILE]
    for criterion in ("mvc", "mv"):
        for threshold in THRESHOLDS:
            for k in (1, 4):
                argv = ["fit-distributed", "--criterion", criterion, "--threshold", threshold,
                        "--k", str(k), "--threads", "2", *ONE_FILE]
                yield f"fit-distributed {criterion} {threshold} k={k}", argv
    for criterion in ("mvc", "mv"):
        for threshold in THRESHOLDS:
            argv = ["fit-distributed", "--criterion", criterion, "--threshold", threshold,
                    "--threads", "2", *FOUR_FILES]
            yield f"fit-distributed {criterion} {threshold} files=4", argv
    for threshold in THRESHOLDS:
        blocks = ["--criterion", "mv", "--threshold", threshold, "--block-size", "1000", *ONE_FILE]
        yield f"fit mv {threshold} block=1000", ["fit", *blocks]
        yield f"fit-distributed mv {threshold} k=4 block=1000", ["fit-distributed", "--k", "4", "--threads", "2", *blocks]


def library_cells(qlsub):
    """``(name, arrays)`` of each library call, on cases generated in memory."""
    x, y, _ = qlsub.generate_case(qlsub.make_spec("s4", 12_000, seed=7))
    stream = qlsub.ArrayStream(x, y)
    for criterion in ("mvc", "mv"):
        for threshold in THRESHOLDS:
            plan = qlsub.SamplingPlan(criterion=criterion, expected_size=2000.0, threshold_mode=threshold, seed=7)
            fit = qlsub.run_two_step(stream, qlsub.EXP, plan, 400.0)
            sizes = [fit.info["realized_r0"], fit.info["realized_second"], fit.subsample_size]
            yield f"run_two_step s4 {criterion} {threshold}", [fit.beta, fit.variance, sizes]
    x, y, _ = qlsub.generate_case(qlsub.make_spec("c4", 6000, seed=11))
    for threshold in THRESHOLDS:
        batch = qlsub.replicate(x, y, qlsub.EXP, "mv", r=1000.0, r0=200.0, t=5, seed=11,
                                threshold=threshold, keep_variances=True)
        yield f"replicate c4 mv {threshold} t=5", [batch.betas, batch.variances, [batch.failures]]


def array_digest(arrays) -> str:
    """sha256 over the float64 bytes of each array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def digest(main, argv: list[str]) -> str:
    """sha256 of the document ``qlsub`` writes for ``argv``, or the exit code."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", "doc.json"])
    if code != 0:
        return f"exit {code}"
    return hashlib.sha256(Path("doc.json").read_bytes()).hexdigest()


def run(main, qlsub) -> int:
    # the documents embed the data paths, so every run uses the same
    # relative names inside a fresh directory
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in (["--out", "case.csv"], ["--files", "4", "--out", "split.csv"]):
                if main(["gen-data", *CASE, *argv]) != 0:
                    print("gen-data failed", file=sys.stderr)
                    return 1
        failed = False
        for name, argv in cells():
            value = digest(main, argv + PLAN)
            failed = failed or value.startswith("exit")
            print(f"{name:<36} {value}", flush=True)
    for name, arrays in library_cells(qlsub):
        print(f"{name:<36} {array_digest(arrays)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    import qlsub
    from qlsub.cli import main

    sys.exit(run(main, qlsub))
