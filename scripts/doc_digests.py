"""Print one sha256 per CLI result document, for byte-identity checks.

Runs ``qlsub.cli.main`` in-process on one small synthetic CSV case and
hashes the JSON document of each cell of the matrix

- ``fit`` x criterion {uniform, mvc, mv} x threshold {inf, quantile, exact};
- ``fit-distributed`` x criterion {mvc, mv} x threshold {inf, quantile,
  exact} x K {1, 4}, with ``--threads 2``.

Two checkouts that should give the same documents print the same lines, so a
refactor is checked by diffing this script's output before and after it::

    python scripts/doc_digests.py > digests.txt

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qlsub.cli import main  # noqa: E402

CASE = ["--case", "c1", "--n", "20000", "--seed", "11"]
PLAN = ["--r", "1000", "--r0", "300", "--rho", "0.2", "--seed", "5"]
THRESHOLDS = ("inf", "quantile", "exact")


def cells():
    for criterion in ("uniform", "mvc", "mv"):
        for threshold in THRESHOLDS:
            yield f"fit {criterion} {threshold}", ["fit", "--criterion", criterion, "--threshold", threshold]
    for criterion in ("mvc", "mv"):
        for threshold in THRESHOLDS:
            for k in (1, 4):
                argv = ["fit-distributed", "--criterion", criterion, "--threshold", threshold,
                        "--k", str(k), "--threads", "2"]
                yield f"fit-distributed {criterion} {threshold} k={k}", argv


def digest(argv: list[str]) -> str:
    """sha256 of the document ``qlsub`` writes for ``argv``, or the exit code."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", "doc.json"])
    if code != 0:
        return f"exit {code}"
    return hashlib.sha256(Path("doc.json").read_bytes()).hexdigest()


def run() -> int:
    # the documents embed the --data path, so every run uses the same
    # relative name inside a fresh directory
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with contextlib.redirect_stderr(io.StringIO()):
            if main(["gen-data", *CASE, "--out", "case.csv"]) != 0:
                print("gen-data failed", file=sys.stderr)
                return 1
        failed = False
        for name, argv in cells():
            value = digest(argv + ["--data", "case.csv", *PLAN])
            failed = failed or value.startswith("exit")
            print(f"{name:<36} {value}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
