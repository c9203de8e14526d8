"""Synthetic datasets and replication experiments.

The named cases generate Poisson-response datasets over a menu of covariate
laws (independent uniforms, correlated uniforms, multivariate normals, an
AR-correlated normal, and a scaled heavy-tailed t).  The harness runs
repeated subsampling fits on a fixed dataset and summarizes empirical MSE,
confidence-interval coverage, and wall times.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .distributed import run_distributed
from .errors import ConfigError, QlsubError
from .estimator import FitResult, solve_weighted_qle
from .families import EXP, LinkFamily
from .ingest import ArrayStream
from .pipeline import run_two_step
from .rng import REPLICATION_STREAM, derive_seed
from .sampling import SamplingPlan

# exp(eta) above this cannot be fed to the Poisson sampler; such covariate
# rows are redrawn and counted
ETA_RESPONSE_MAX = 40.0

_DESK_N = 50_000

# correlated-uniform noise widths chosen so corr(x1, x2) hits the documented
# targets of 0.5 and 0.8
_EPS_WIDTH_HALF = math.sqrt(3.0)
_EPS_WIDTH_TIGHT = 0.75


@dataclass(frozen=True)
class CaseSpec:
    """One named synthetic scenario, fully determined by (case_id, N, seed)."""

    case_id: str
    n_records: int
    dim: int
    beta_true: np.ndarray
    covariate_law: str
    seed: int


def _beta_s4() -> np.ndarray:
    return np.concatenate([np.full(10, 0.5), np.full(20, 0.2), np.full(5, -0.1)])


_CASE_TABLE = {
    "c1": (7, lambda: np.full(7, 0.5), "iid uniform(0,1)"),
    "c2": (7, lambda: np.full(7, 0.5), "uniform with corr(x1,x2)=0.5"),
    "c3": (7, lambda: np.full(7, 0.5), "uniform with corr(x1,x2)=0.8"),
    "c4": (7, lambda: np.full(7, 0.5), "case 2 with x6,x7 ~ uniform(-1,1)"),
    "s1": (7, lambda: np.full(7, 0.5), "normal(0.15, I)"),
    "s2": (7, lambda: np.full(7, 0.5), "normal(0.15, AR(0.5))"),
    "s3": (7, lambda: np.full(7, 0.5), "scaled t9(0.15, I)/10"),
    "s4": (35, _beta_s4, "normal(mu, I), d=35"),
    "s5": (140, lambda: np.concatenate([_beta_s4(), np.zeros(105)]), "normal(mu, I), d=140"),
}


def make_spec(case_id: str, n_records: int | None = None, seed: int = 0) -> CaseSpec:
    case_id = case_id.lower()
    if case_id not in _CASE_TABLE:
        raise ValueError(f"unknown case {case_id!r}; expected one of {sorted(_CASE_TABLE)}")
    if n_records is not None and n_records < 1:
        raise ConfigError(f"record count {n_records} below 1")
    dim, beta_fn, law = _CASE_TABLE[case_id]
    return CaseSpec(
        case_id=case_id,
        n_records=_DESK_N if n_records is None else int(n_records),
        dim=dim,
        beta_true=beta_fn(),
        covariate_law=law,
        seed=int(seed),
    )


def _draw_covariates(rng: np.random.Generator, case_id: str, n: int, d: int) -> np.ndarray:
    if case_id == "c1":
        return rng.uniform(0.0, 1.0, (n, d))
    if case_id in ("c2", "c3", "c4"):
        x = rng.uniform(0.0, 1.0, (n, d))
        width = _EPS_WIDTH_HALF if case_id != "c3" else _EPS_WIDTH_TIGHT
        x[:, 1] = x[:, 0] + rng.uniform(0.0, width, n)
        if case_id == "c4":
            x[:, 5:7] = rng.uniform(-1.0, 1.0, (n, 2))
        return x
    # the normal laws shift and scale their draw in place, so no second N x d array is made
    if case_id == "s1":
        x = rng.standard_normal((n, d))
        x += 0.15
        return x
    if case_id == "s2":
        cov = 0.5 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        chol = np.linalg.cholesky(cov)
        x = rng.standard_normal((n, d)) @ chol.T
        x += 0.15
        return x
    if case_id == "s3":
        x = rng.standard_normal((n, d))
        scale = np.sqrt(rng.chisquare(9, n) / 9.0)
        x /= scale[:, None]
        x += 0.15
        x /= 10.0
        return x
    # s4 / s5: normal with mean 0.15 on the first seven coordinates
    mu = np.zeros(d)
    mu[:7] = 0.15
    x = rng.standard_normal((n, d))
    x += mu
    return x


def generate_case(spec: CaseSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    """Generate covariates and Poisson responses for a case.

    Rows whose linear predictor would overflow the response sampler are
    redrawn; the count is reported in the diagnostics dict.
    """
    rng = np.random.default_rng(derive_seed(spec.seed, 101))
    x = _draw_covariates(rng, spec.case_id, spec.n_records, spec.dim)
    eta = x @ spec.beta_true
    redrawn = 0
    bad = eta > ETA_RESPONSE_MAX
    while np.any(bad):
        redrawn += int(bad.sum())
        x[bad] = _draw_covariates(rng, spec.case_id, int(bad.sum()), spec.dim)
        eta = x @ spec.beta_true
        bad = eta > ETA_RESPONSE_MAX
    y = rng.poisson(np.exp(eta)).astype(np.float64)
    return x, y, {"redrawn": redrawn}


def write_case_csv(spec: CaseSpec, path: str, n_files: int = 1) -> list[str]:
    """Write a case to headerless CSV (y first column) plus a JSON sidecar."""
    if n_files < 1:
        raise ConfigError(f"file count {n_files} below 1")
    x, y, diag = generate_case(spec)
    paths = []
    bounds = np.linspace(0, spec.n_records, n_files + 1).astype(int)
    for j in range(n_files):
        out = path if n_files == 1 else _numbered(path, j)
        _write_rows(out, y[bounds[j] : bounds[j + 1]], x[bounds[j] : bounds[j + 1]])
        paths.append(out)
    sidecar = {
        "case_id": spec.case_id,
        "n_records": spec.n_records,
        "dim": spec.dim,
        "beta_true": list(spec.beta_true),
        "covariate_law": spec.covariate_law,
        "seed": spec.seed,
        "files": paths,
        "redrawn": diag["redrawn"],
    }
    with open(_sidecar_path(path), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _write_rows(path: str, y: np.ndarray, x: np.ndarray) -> None:
    """Rows ``y_i,x_i1,...,x_id`` in ``%.17g``, the bytes ``np.savetxt`` writes.

    Each block of up to 4096 rows is formatted by one ``%`` operation.
    """
    n, d = x.shape
    row = ",".join(["%.17g"] * (d + 1)) + "\n"
    with open(path, "w") as fh:
        for i in range(0, n, 4096):
            block = np.column_stack([y[i : i + 4096], x[i : i + 4096]])
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def _numbered(path: str, j: int) -> str:
    if path.endswith(".csv"):
        return f"{path[:-4]}.part{j}.csv"
    return f"{path}.part{j}"


def _sidecar_path(path: str) -> str:
    return (path[:-4] if path.endswith(".csv") else path) + ".meta.json"


def full_qle(x, y, family: LinkFamily = EXP) -> FitResult:
    """Unweighted fit over the complete dataset (the MSE reference)."""
    return solve_weighted_qle(x, y, family)


@dataclass
class ReplicationBatch:
    """Raw per-replication output of repeated subsampling fits."""

    method: str
    betas: np.ndarray  # (T, d)
    variances: np.ndarray | None  # (T, d, d) when collected
    failures: int
    seeds: list[int] = field(default_factory=list)

    def mse(self, reference: np.ndarray) -> float:
        diff = self.betas - np.asarray(reference)
        return float(np.mean(np.sum(diff * diff, axis=1)))

    def coverage(self, reference: np.ndarray, coef: int, z: float = 1.959963985):
        if self.variances is None:
            raise ValueError("variances were not collected")
        se = np.sqrt(np.clip(self.variances[:, coef, coef], 0.0, None))
        center = self.betas[:, coef]
        target = float(np.asarray(reference)[coef])
        hit = (center - z * se <= target) & (target <= center + z * se)
        return float(hit.mean()), float(np.mean(2 * z * se))


@dataclass
class ExperimentReport:
    """One (method, parameter set) row of an experiment table."""

    method: str
    r: float
    r0: float
    rho: float
    k: int
    t: int
    mse: float
    mse_reference: str
    coverage: float | None = None
    avg_ci_length: float | None = None
    failures: int = 0

    def as_row(self) -> dict:
        return {
            "method": self.method,
            "r": self.r,
            "r0": self.r0,
            "rho": self.rho,
            "K": self.k,
            "T": self.t,
            "mse": self.mse,
            "mse_reference": self.mse_reference,
            "coverage": "" if self.coverage is None else self.coverage,
            "avg_ci_length": "" if self.avg_ci_length is None else self.avg_ci_length,
            "failures": self.failures,
        }


def replicate(
    x,
    y,
    family: LinkFamily,
    method: str,
    *,
    r: float,
    r0: float = 200.0,
    rho: float = 0.2,
    k: int = 1,
    t: int = 500,
    seed: int = 0,
    threshold: str = "inf",
    keep_variances: bool = False,
    engine: str = "auto",
) -> ReplicationBatch:
    """Run ``t`` independent subsampling fits of one method on a fixed dataset.

    Replication ``i`` uses a seed derived from (seed, i); individual failures
    are recorded and excluded, and more than 5% failures aborts the batch.
    ``engine`` selects the pipeline: "auto" uses the two-step fit for K = 1
    and the distributed fit otherwise; "distributed" forces the
    divide-and-conquer path even at K = 1 (the inference experiments do
    this, since the pooled variance formula belongs to that pipeline).
    """
    stream = ArrayStream(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    betas, variances, seeds = [], [], []
    failures = 0
    for i in range(t):
        rep_seed = derive_seed(seed, REPLICATION_STREAM, i)
        plan = SamplingPlan(
            criterion=method,
            expected_size=r,
            shrinkage=rho,
            threshold_mode=threshold,
            seed=rep_seed,
        )
        try:
            if k == 1 and engine != "distributed":
                fit = run_two_step(stream, family, plan, r0)
            else:
                fit = run_distributed(stream, family, plan, r0, k)
        except QlsubError:
            failures += 1
            if failures > 0.05 * t:
                raise
            continue
        betas.append(fit.beta)
        seeds.append(rep_seed)
        if keep_variances:
            variances.append(fit.variance)
    return ReplicationBatch(
        method=method,
        betas=np.asarray(betas),
        variances=np.asarray(variances) if keep_variances else None,
        failures=failures,
        seeds=seeds,
    )


def run_replications(
    x,
    y,
    family: LinkFamily,
    methods,
    *,
    r: float,
    r0: float = 200.0,
    rho: float = 0.2,
    k: int = 1,
    t: int = 500,
    seed: int = 0,
    threshold: str = "inf",
    reference: np.ndarray | None = None,
    reference_kind: str = "full_qle",
    coverage_index: int | None = None,
) -> list[ExperimentReport]:
    """Replication study for several methods against a common reference."""
    if t < 1:
        raise ValueError("need at least one replication")
    d = np.shape(x)[1]
    if coverage_index is not None and not 0 <= coverage_index < d:
        raise ConfigError(f"coverage index {coverage_index} outside [0, {d})")
    if reference is None:
        reference = full_qle(x, y, family).beta
        reference_kind = "full_qle"
    reports = []
    for method in methods:
        batch = replicate(
            x,
            y,
            family,
            method,
            r=r,
            r0=r0,
            rho=rho,
            k=k,
            t=t,
            seed=seed,
            threshold=threshold,
            keep_variances=coverage_index is not None,
        )
        coverage = length = None
        if coverage_index is not None:
            coverage, length = batch.coverage(reference, coverage_index)
        reports.append(
            ExperimentReport(
                method=method,
                r=r,
                r0=r0,
                rho=rho,
                k=k,
                t=t,
                mse=batch.mse(reference),
                mse_reference=reference_kind,
                coverage=coverage,
                avg_ci_length=length,
                failures=batch.failures,
            )
        )
    return reports


@dataclass
class TimingRow:
    method: str
    r: float
    median_seconds: float
    iqr_seconds: float


def timing_study(
    x,
    y,
    family: LinkFamily,
    methods,
    r_grid,
    *,
    repeats: int = 5,
    r0: float = 200.0,
    rho: float = 0.2,
    k: int = 1,
    seed: int = 0,
) -> list[TimingRow]:
    """Median/IQR wall times per method and expected size, plus the full fit."""
    if repeats < 3:
        raise ValueError("need at least 3 repeats for stable medians")
    stream = ArrayStream(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    cells = [(method, float(r)) for method in methods for r in r_grid]
    cell_times = {cell: [] for cell in cells}
    # the cells take turns within each repeat, so a slow phase of the machine
    # lands on every method alike rather than on whichever is timed first
    for i in range(repeats):
        for method, r in cells:
            plan = SamplingPlan(
                criterion=method,
                expected_size=r,
                shrinkage=rho,
                seed=derive_seed(seed, 7, i),
            )
            start = time.perf_counter()
            if k == 1:
                run_two_step(stream, family, plan, r0)
            else:
                run_distributed(stream, family, plan, r0, k)
            cell_times[method, r].append(time.perf_counter() - start)
    rows = []
    for method, r in cells:
        q25, q50, q75 = np.quantile(cell_times[method, r], [0.25, 0.5, 0.75])
        rows.append(TimingRow(method, r, float(q50), float(q75 - q25)))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        full_qle(x, y, family)
        times.append(time.perf_counter() - start)
    q25, q50, q75 = np.quantile(times, [0.25, 0.5, 0.75])
    rows.append(TimingRow("full_qle", float("nan"), float(q50), float(q75 - q25)))
    return rows
