"""Command-line entry point.

Result documents are JSON with sorted keys and embed the fully resolved
configuration, so a command re-run with the same arguments produces a
byte-identical file.  Wall-clock timings are reported as log lines on
stderr, never inside the document.  CSV tables serve the experiment
commands.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
import time
import warnings

import numpy as np

from . import synth
from .distributed import run_distributed
from .errors import (
    ConfigError,
    DataError,
    DegenerateScores,
    EmptySample,
    PartitionFailed,
    PilotFailed,
    QlsubError,
    SingularHessian,
)
from .estimator import Z_975, FitResult
from .families import LinkFamily, get_family
from .ingest import CsvStream
from .pipeline import run_two_step
from .sampling import SamplingPlan
from .synth import make_spec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (SingularHessian, EmptySample, DegenerateScores, PilotFailed, PartitionFailed)


def _log(phase: str, started: float) -> None:
    print(f"[qlsub] {phase}: {time.perf_counter() - started:.3f}s", file=sys.stderr)


def _z_for(level: float) -> float:
    if abs(level - 0.95) < 1e-12:
        return Z_975
    from scipy.stats import norm  # about 0.7 s to import; only other levels need it

    return float(norm.ppf(0.5 + level / 2.0))


def _int_list(text: str, flag: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"{flag} {text!r} names no column")
    return values


def _float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"empty grid {text!r}")
    return values


def _write_json(doc: dict, path: str | None) -> None:
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _write_table(rows: list[dict], path: str | None) -> None:
    if not rows:
        return
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _fit_input(args) -> tuple[CsvStream, LinkFamily]:
    """The fit command's stream and family; a response outside the family's range is a data error."""
    if not 0.0 < args.level < 1.0:
        raise ConfigError(f"confidence level {args.level} outside (0, 1)")
    x_cols = _int_list(args.x_cols, "--x-cols") if args.x_cols else None
    stream = CsvStream(args.data, y_col=args.y_col, x_cols=x_cols, intercept=args.intercept, y_shift=args.y_shift,
                       block_size=args.block_size, skip_header=args.header, cache=not args.no_cache)
    family = get_family(args.family)
    lo, hi = family.response_range
    bad = np.flatnonzero((stream.y < lo) | (stream.y > hi))
    if bad.size:
        raise DataError(f"{stream.where(int(bad[0]))}: response {float(stream.y[bad[0]])} outside "
                        f"[{lo:g}, {hi:g}] of the {family.name} family")
    return stream, family


def _config_dict(args, extra: dict | None = None) -> dict:
    # operational flags (output location, worker count, parse cache) do not
    # affect the computation and stay out of the embedded config
    skip = {"func", "out", "threads", "no_cache"}
    config = {k: v for k, v in vars(args).items() if k not in skip}
    if extra:
        config.update(extra)
    return config


def _fit_document(args, fit: FitResult) -> dict:
    z = _z_for(args.level)
    doc = {
        "command": args.command,
        "config": _config_dict(args),
        "estimate": [float(v) for v in fit.beta],
        "iterations": fit.iterations,
        "converged": fit.converged,
        "subsample_size": fit.subsample_size,
        "saturated": fit.saturated,
        "realized_sizes": {
            k: v for k, v in fit.info.items() if k.startswith("realized")
        },
    }
    if fit.variance is not None:
        lower, upper = fit.conf_int(z)
        doc["std_errors"] = [float(v) for v in fit.std_errors()]
        doc["ci_lower"] = [float(v) for v in lower]
        doc["ci_upper"] = [float(v) for v in upper]
        doc["ci_level"] = args.level
    if "partition_sizes" in fit.info:
        doc["partition_sizes"] = fit.info["partition_sizes"]
    return doc


def _emit_fit(args, fit: FitResult) -> None:
    doc = _fit_document(args, fit)
    if args.format == "csv":
        rows = []
        for j, est in enumerate(doc["estimate"]):
            row = {"coefficient": j, "estimate": est}
            if "std_errors" in doc:
                row["std_error"] = doc["std_errors"][j]
                row["ci_lower"] = doc["ci_lower"][j]
                row["ci_upper"] = doc["ci_upper"][j]
            rows.append(row)
        _write_table(rows, args.out)
    else:
        _write_json(doc, args.out)


# -- command handlers ----------------------------------------------------


def _cmd_gen_data(args) -> int:
    started = time.perf_counter()
    spec = make_spec(args.case, args.n, args.seed)
    synth.write_case_csv(spec, args.out, n_files=args.files)
    _log(f"gen-data {args.case} N={spec.n_records}", started)
    return EXIT_OK


def _cmd_fit_full(args) -> int:
    started = time.perf_counter()
    stream, family = _fit_input(args)
    _log("load", started)
    started = time.perf_counter()
    fit = synth.full_qle(stream.x, stream.y, family)
    _log("fit-full", started)
    _emit_fit(args, fit)
    return EXIT_OK


def _plan_from_args(args) -> SamplingPlan:
    if args.ridge < 0.0:
        raise ConfigError(f"ridge {args.ridge} below 0")
    return SamplingPlan(
        criterion=args.criterion,
        expected_size=args.r,
        shrinkage=args.rho,
        threshold_mode=args.threshold,
        seed=args.seed,
    )


def _cmd_fit(args) -> int:
    started = time.perf_counter()
    plan = _plan_from_args(args)
    stream, family = _fit_input(args)
    fit = run_two_step(stream, family, plan, args.r0, ridge=args.ridge)
    _log(f"fit criterion={args.criterion} r={args.r}", started)
    _emit_fit(args, fit)
    return EXIT_OK


def _cmd_fit_distributed(args) -> int:
    started = time.perf_counter()
    if args.partitions:
        args.data = args.partitions
        if args.k == 0:
            args.k = len(args.partitions)
    elif not args.data:
        raise ConfigError("provide --data or --partitions")
    if args.k == 0:
        args.k = 1
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"thread count {args.threads} below 1")
    plan = _plan_from_args(args)
    stream, family = _fit_input(args)
    fit = run_distributed(stream, family, plan, args.r0, args.k, threads=args.threads, ridge=args.ridge)
    _log(f"fit-distributed K={args.k} r={args.r}", started)
    _emit_fit(args, fit)
    return EXIT_OK


def _load_case(args) -> tuple[np.ndarray, np.ndarray, synth.CaseSpec]:
    spec = make_spec(args.case, args.n, args.seed)
    x, y, _ = synth.generate_case(spec)
    return x, y, spec


def _cmd_experiment(args) -> int:
    started = time.perf_counter()
    r_grid, rho_grid = _float_list(args.r_grid), _float_list(args.rho_grid)
    x, y, spec = _load_case(args)
    family = get_family(args.family)
    reference = (
        spec.beta_true if args.reference == "true" else synth.full_qle(x, y, family).beta
    )
    rows = []
    for r in r_grid:
        for rho in rho_grid:
            reports = synth.run_replications(
                x,
                y,
                family,
                args.methods.split(","),
                r=r,
                r0=args.r0,
                rho=rho,
                k=args.k,
                t=args.t,
                seed=args.seed,
                threshold=args.threshold,
                reference=reference,
                reference_kind=args.reference,
                coverage_index=args.coverage_index,
            )
            rows.extend(rep.as_row() for rep in reports)
    _log(f"experiment case={args.case}", started)
    _write_table(rows, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    started = time.perf_counter()
    r_grid = _float_list(args.r_grid)
    x, y, _ = _load_case(args)
    family = get_family(args.family)
    rows = synth.timing_study(
        x,
        y,
        family,
        args.methods.split(","),
        r_grid,
        repeats=args.repeats,
        r0=args.r0,
        rho=args.rho,
        k=args.k,
        seed=args.seed,
    )
    _log(f"bench case={args.case}", started)
    _write_table([dataclasses.asdict(row) for row in rows], args.out)
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def _add_schema_flags(sub, required: bool = True) -> None:
    sub.add_argument("--data", required=required, nargs="+", help="CSV file(s), numeric, headerless")
    sub.add_argument("--y-col", type=int, default=0)
    sub.add_argument("--x-cols", default=None, help="comma-separated covariate columns")
    sub.add_argument("--intercept", action="store_true")
    sub.add_argument("--y-shift", type=float, default=0.0, help="add a constant to the response")
    sub.add_argument("--block-size", type=int, default=65536)
    sub.add_argument("--header", action="store_true", help="skip one header line")
    sub.add_argument("--no-cache", action="store_true", help="neither read nor write <file>.qlcache sidecars")


def _add_plan_flags(sub) -> None:
    sub.add_argument("--criterion", choices=["uniform", "mv", "mvc"], default="mvc")
    sub.add_argument("--r", type=float, default=1000.0)
    sub.add_argument("--r0", type=float, default=200.0)
    sub.add_argument("--rho", type=float, default=0.2)
    sub.add_argument("--threshold", choices=["inf", "quantile", "exact"], default="inf")
    sub.add_argument("--ridge", type=float, default=0.0)


def _add_common_flags(sub) -> None:
    sub.add_argument("--family", choices=["identity", "exp", "logistic"], default="exp")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None)


def _add_fit_flags(sub) -> None:
    """The common flags plus the output flags of the three fit commands."""
    _add_common_flags(sub)
    sub.add_argument("--level", type=float, default=0.95)
    sub.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlsub",
        description="Optimal Poisson subsampling for quasi-likelihood estimation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("gen-data", help="write a synthetic case to CSV")
    p.add_argument("--case", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--files", type=int, default=1, help="split output into this many files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = commands.add_parser("fit-full", help="full-data quasi-likelihood fit")
    _add_schema_flags(p)
    _add_fit_flags(p)
    p.set_defaults(func=_cmd_fit_full)

    p = commands.add_parser("fit", help="two-step subsampled fit")
    _add_schema_flags(p)
    _add_plan_flags(p)
    _add_fit_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = commands.add_parser("fit-distributed", help="divide-and-conquer subsampled fit")
    _add_schema_flags(p, required=False)
    _add_plan_flags(p)
    _add_fit_flags(p)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--k", type=int, default=0, help="number of logical shards")
    p.add_argument(
        "--partitions",
        nargs="+",
        default=None,
        help="one CSV per machine; shards align with the files",
    )
    p.set_defaults(func=_cmd_fit_distributed)

    p = commands.add_parser("experiment", help="replication study on a synthetic case")
    p.add_argument("--case", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--methods", default="uniform,mv,mvc")
    p.add_argument("--r-grid", default="500,1000,1500,2000")
    p.add_argument("--r0", type=float, default=200.0)
    p.add_argument("--rho-grid", default="0.2")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t", type=int, default=500)
    p.add_argument("--threshold", choices=["inf", "quantile", "exact"], default="inf")
    p.add_argument("--reference", choices=["full", "true"], default="full")
    p.add_argument("--coverage-index", type=int, default=None)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_experiment)

    p = commands.add_parser("bench", help="wall-time comparison of methods")
    p.add_argument("--case", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--methods", default="uniform,mv,mvc")
    p.add_argument("--r-grid", default="2000")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--r0", type=float, default=200.0)
    p.add_argument("--rho", type=float, default=0.2)
    p.add_argument("--k", type=int, default=1)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # each warning prints as one line; the filters stay as they are, and a
    # recorder such as pytest.warns still receives the warning itself
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"qlsub: warning: {message}\n"
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as err:
        print(f"qlsub: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as err:
        print(f"qlsub: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as err:
        print(f"qlsub: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"qlsub: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except QlsubError as err:  # pragma: no cover - residual package errors
        print(f"qlsub: error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
