"""Single-machine two-step subsampling pipeline.

Pass one draws a small uniform pilot, fits it, and extracts the pilot
statistics (estimate, score normalizer, curvature).  Pass two scans the data
again, converts each record's score into a shrinkage probability, performs
the Bernoulli draws, and refits on the union of the pilot and second-pass
subsamples with inverse-probability weights.  :mod:`sampling` holds the
probability rule and the scan of each pass; this module puts them together.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptySample, NonFiniteValue, PilotFailed, SingularHessian
from .estimator import (
    FitResult,
    _spd_inverse,
    sandwich_variance,
    solve_weighted_qle,
    subsample_hessian,
)
from .families import LinkFamily
from .ingest import RecordStream
from .rng import MAIN_STREAM, PILOT_STREAM
from .sampling import PassSample, ProbabilityRule, SamplingPlan, _scan, record_scores, resolve_rule


@dataclass(kw_only=True)
class PilotResult(PassSample):
    """Pilot subsample, drawn at the uniform rate r0/N, and the statistics derived from it."""

    beta0: np.ndarray
    converged: bool  # whether the Newton solve that gave beta0 converged
    psi_hat: float
    sigma0_inv: np.ndarray
    scores: np.ndarray
    n_total: int

    @property
    def realized_r0(self) -> int:
        return self.size

    @property
    def degenerate(self) -> bool:
        """Whether every pilot residual is zero, so that every rule it resolves is uniform."""
        return self.psi_hat <= 0.0


def run_pilot(
    stream: RecordStream,
    family: LinkFamily,
    r0: float,
    seed: int,
    criterion: str = "mvc",
    ridge: float = 0.0,
) -> PilotResult:
    """Uniform pilot pass: draw with probability r0/N, fit, summarize."""
    n = stream.n_records
    d = stream.dim
    if not 0 < r0 <= n:
        raise ConfigError(f"pilot size {r0} outside (0, {n}]")
    if r0 < 10 * d:
        warnings.warn(
            f"pilot size {r0} is below 10*d = {10 * d}; the pilot fit may be fragile",
            RuntimeWarning,
            stacklevel=2,
        )
    sample = _scan(stream, seed, PILOT_STREAM, ProbabilityRule(None, None, r0, n), family)
    px, py, realized = sample.x, sample.y, sample.size
    if realized < d + 1:
        raise PilotFailed(f"pilot captured only {realized} records for dimension {d}; raise r0")

    try:
        fit = solve_weighted_qle(px, py, family, p=sample.p, ridge=ridge)
    except SingularHessian as err:
        raise PilotFailed(f"pilot Newton system is singular; raise r0 or drop collinear covariates ({err})") from err
    except NonFiniteValue as err:  # an overflow, which no r0 mends
        raise NonFiniteValue(f"pilot {err}") from err

    try:
        sigma0_inv = _spd_inverse(subsample_hessian(px, family, fit.beta, scale=realized))
    except SingularHessian as err:
        raise PilotFailed(f"pilot curvature is singular; raise r0 ({err})") from err

    # the gathered pilot records are scored as records 0, 1, ... of px
    scores = record_scores(px, py, family, fit.beta, sigma0_inv if criterion == "mv" else None)
    psi_hat = float(scores.mean())
    if psi_hat <= 0.0 and criterion != "uniform":
        warnings.warn(
            "pilot residuals are all zero; falling back to uniform probabilities",
            RuntimeWarning,
            stacklevel=2,
        )

    return PilotResult(**vars(sample), beta0=fit.beta, converged=fit.converged, psi_hat=psi_hat, sigma0_inv=sigma0_inv,
                       scores=scores, n_total=n)


def second_pass(
    stream: RecordStream,
    family: LinkFamily,
    pilot: PilotResult,
    plan: SamplingPlan,
    r: float,
    seed: int,
    rule: ProbabilityRule | None = None,
) -> PassSample:
    """Score-driven Bernoulli scan over ``stream`` with expected size r.

    The probability pool size is the stream's own record count, so a shard
    passed here is sampled to expected size r by itself.
    """
    n_pool = stream.n_records
    if not 0 < r < n_pool:
        raise ConfigError(f"expected size {r} outside (0, {n_pool})")
    if rule is None:
        rule = resolve_rule(stream, family, pilot, plan, r)
    sample = _scan(stream, seed, MAIN_STREAM, rule, family)
    # at rho = 0 a record's probability is zero exactly when its score is; a
    # zero score has a zero residual or x = 0 (sigma_inv is nonsingular), so
    # its bound is zero too, or the record is screened in at q = 1
    if rule.plan.shrinkage == 0.0 and sample.zero_p:
        warnings.warn(
            "records with zero score receive probability 0 under rho = 0; "
            "the optimality premises may be violated",
            RuntimeWarning,
            stacklevel=2,
        )
    return sample


def run_two_step(
    stream: RecordStream,
    family: LinkFamily,
    plan: SamplingPlan,
    r0: float,
    ridge: float = 0.0,
) -> FitResult:
    """Pilot pass, shrinkage-probability pass, and the final weighted fit.

    The final sample is the union of the pilot and second-pass draws.  The
    two scans are independent Poisson experiments, so a record's inclusion
    probability in the union is 1 - (1 - r0/N)(1 - p2) where p2 is its
    capped shrinkage probability; the union is deduplicated and weighted by
    the inverse of that probability.  Weighting pilot records at their raw
    pilot probability instead would freeze their score noise at the 1/r0
    scale and destroy the 1/r convergence of the final estimator.
    """
    seed = plan.seed
    n = stream.n_records
    r = plan.expected_size
    if not 0 < r < n:
        raise ConfigError(f"expected size {r} must lie in (0, {n})")

    pilot = run_pilot(stream, family, r0, seed, plan.criterion, ridge=ridge)
    rule = resolve_rule(stream, family, pilot, plan, r)
    sample = second_pass(stream, family, pilot, plan, r, seed, rule=rule)
    if sample.size == 0:
        raise EmptySample("second pass captured no records")

    p0 = float(r0) / n
    pilot_p2 = rule.probabilities(pilot.scores)
    # both index lists are sorted; np.isin would import numpy.ma on first use
    at = np.minimum(np.searchsorted(pilot.indices, sample.indices), pilot.indices.size - 1)
    fresh = pilot.indices[at] != sample.indices
    x = np.concatenate([pilot.x, sample.x[fresh]])
    y = np.concatenate([pilot.y, sample.y[fresh]])
    p2 = np.concatenate([pilot_p2, sample.p[fresh]])
    indices = np.concatenate([pilot.indices, sample.indices[fresh]])
    order = np.argsort(indices, kind="stable")
    x, y, indices = x[order], y[order], indices[order]
    union_p = 1.0 - (1.0 - p0) * (1.0 - p2[order])

    fit = solve_weighted_qle(x, y, family, p=union_p, init=pilot.beta0, ridge=ridge)
    bread = subsample_hessian(x, family, fit.beta, p=union_p, scale=n)
    variance = sandwich_variance([(x, y, union_p, fit.beta)], family, bread, n)

    fit.hessian = bread
    fit.variance = variance
    fit.info.update(
        realized_r0=pilot.realized_r0,
        realized_second=sample.size,
        expected_second=sample.expected_size,
        cap=sample.cap,
        psi_hat=pilot.psi_hat,
        criterion=plan.criterion,
        seed=seed,
    )
    return fit
