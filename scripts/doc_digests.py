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
exact} at r = 2000, a T = 5 mv ``replicate`` on c4 (N = 6000) x threshold,
and ``run_two_step`` at r = 100, where r / N is low enough that an mv pass
thins, on s4 (mv) and on its first 16 columns (mvc, mv).  Together they
take every scoring kernel: the fused product at d = 7, einsum norms at
d = 16 and vecdot norms at d = 35, the last two also whitening only a
thinned pass's candidates.  Each library line hashes the estimates, the variances
and the realized subsample sizes (or the failure count), not the reported
expected size.

Two checkouts that should give the same results print the same lines, so a
refactor is checked by diffing this script's output before and after it::

    python scripts/doc_digests.py > after.txt
    python scripts/doc_digests.py ../parent/src > before.txt

The package is imported from the ``src`` directory given as the optional
argument, by default the one next to this script.

``--values`` prints, in place of each digest, the cell's estimates and
standard errors as hex floats and its realized sizes (the pilot and
second-stage sizes, any partition sizes and the subsample size; the failure
count for ``replicate``).  ``--compare`` reads two such outputs and prints,
for each cell, the largest relative change of its estimates and of its
standard errors, and whether its sizes match::

    python scripts/doc_digests.py --values > after.txt
    python scripts/doc_digests.py --values ../parent/src > before.txt
    python scripts/doc_digests.py --compare before.txt after.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
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
    """``(name, estimates, variances, sizes)`` of each library call, on cases generated in memory."""
    x, y, _ = qlsub.generate_case(qlsub.make_spec("s4", 12_000, seed=7))

    def two_step(x, criterion, threshold, r):
        plan = qlsub.SamplingPlan(criterion=criterion, expected_size=r, threshold_mode=threshold, seed=7)
        fit = qlsub.run_two_step(qlsub.ArrayStream(x, y), qlsub.EXP, plan, 400.0)
        return fit.beta, fit.variance, [fit.info["realized_r0"], fit.info["realized_second"], fit.subsample_size]

    for criterion in ("mvc", "mv"):
        for threshold in THRESHOLDS:
            yield f"run_two_step s4 {criterion} {threshold}", *two_step(x, criterion, threshold, 2000.0)
    xc, yc, _ = qlsub.generate_case(qlsub.make_spec("c4", 6000, seed=11))
    for threshold in THRESHOLDS:
        batch = qlsub.replicate(xc, yc, qlsub.EXP, "mv", r=1000.0, r0=200.0, t=5, seed=11,
                                threshold=threshold, keep_variances=True)
        yield f"replicate c4 mv {threshold} t=5", batch.betas, batch.variances, [batch.failures]
    # r / N at most sampling.THIN_MAX_RATE, so each mv pass thins; at d = 16
    # the norms are einsum's
    yield "run_two_step s4 mv inf r=100", *two_step(x, "mv", "inf", 100.0)
    for criterion in ("mvc", "mv"):
        yield f"run_two_step s4[:, :16] {criterion} inf r=100", *two_step(x[:, :16], criterion, "inf", 100.0)


def array_digest(arrays) -> str:
    """sha256 over the float64 bytes of each array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def values(estimates, std_errors, sizes) -> str:
    """Estimates and standard errors as hex floats, then the sizes, tab-separated."""
    def floats(a):
        return ",".join(float(v).hex() for v in np.ravel(a))

    return f"est={floats(estimates)}\tse={floats(std_errors)}\tsizes={','.join(str(int(s)) for s in sizes)}"


def document_values(path: Path) -> str:
    """:func:`values` of a ``fit`` or ``fit-distributed`` document."""
    doc = json.loads(path.read_text())
    sizes = [*doc["realized_sizes"].values(), *doc.get("partition_sizes", []), doc["subsample_size"]]
    return values(doc["estimate"], doc["std_errors"], sizes)


def digest(main, argv: list[str], show_values: bool = False) -> str:
    """sha256 (or :func:`values`) of the document ``qlsub`` writes for ``argv``, or the exit code."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", "doc.json"])
    if code != 0:
        return f"exit {code}"
    if show_values:
        return document_values(Path("doc.json"))
    return hashlib.sha256(Path("doc.json").read_bytes()).hexdigest()


def compare(before: Path, after: Path) -> int:
    """For each cell of two ``--values`` outputs: the largest relative changes, and whether the sizes match."""
    def cells_of(path):
        # a failed cell holds its exit code in place of the named fields
        out = {}
        for line in path.read_text().splitlines():
            name, *fields = line.split("\t")
            out[name.rstrip()] = dict(f.split("=", 1) if "=" in f else ("exit", f) for f in fields)
        return out

    def floats(text):
        return np.array([float.fromhex(v) for v in text.split(",") if v])

    def largest_change(a, b):
        a, b = floats(a), floats(b)
        if a.shape != b.shape:
            return "shape differs"
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(a == b, 0.0, np.abs(b - a) / np.abs(a))
        return f"{rel.max(initial=0.0):.1e}"

    old, new = cells_of(before), cells_of(after)
    for name, a in old.items():
        b = new.get(name)
        if b is None:
            print(f"{name:<36} missing")
        elif "est" not in a or "est" not in b:
            print(f"{name:<36} {'same' if a == b else 'differs'}")
        else:
            sizes = "same" if a["sizes"] == b["sizes"] else f"{a['sizes']} -> {b['sizes']}"
            print(f"{name:<36} est {largest_change(a['est'], b['est'])}  "
                  f"se {largest_change(a['se'], b['se'])}  sizes {sizes}")
    return 0


def run(main, qlsub, show_values: bool = False) -> int:
    # the documents embed the data paths, so every run uses the same
    # relative names inside a fresh directory
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in (["--out", "case.csv"], ["--files", "4", "--out", "split.csv"]):
                if main(["gen-data", *CASE, *argv]) != 0:
                    print("gen-data failed", file=sys.stderr)
                    return 1
        failed = False
        sep = "\t" if show_values else " "
        for name, argv in cells():
            value = digest(main, argv + PLAN, show_values)
            failed = failed or value.startswith("exit")
            print(f"{name:<36}{sep}{value}", flush=True)
    for name, estimates, variances, sizes in library_cells(qlsub):
        if show_values:
            std_errors = np.sqrt(np.diagonal(variances, axis1=-2, axis2=-1))
            print(f"{name:<36}\t{values(estimates, std_errors, sizes)}", flush=True)
        else:
            print(f"{name:<36} {array_digest([estimates, variances, sizes])}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--values", action="store_true", help="print each cell's estimates, SEs and sizes")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="compare two --values outputs cell by cell")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    sys.path.insert(0, str(args.src.resolve()))
    import qlsub
    from qlsub.cli import main

    sys.exit(run(main, qlsub, args.values))
