"""Single-machine two-step subsampling pipeline.

Pass one draws a small uniform pilot, fits it, and extracts the pilot
statistics (estimate, score normalizer, curvature).  Pass two scans the data
again, converts each record's score into a shrinkage probability, performs
the Bernoulli draws, and refits on the union of the pilot and second-pass
subsamples with inverse-probability weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EmptySample, PilotFailed, SingularHessian
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
from .sampling import (
    SamplingPlan,
    ScoreContext,
    block_mask,
    record_scores,
    shrinkage_probability,
    threshold_quantile,
    waterfill,
)


@dataclass
class PilotResult:
    """Pilot subsample and the statistics derived from it."""

    beta0: np.ndarray
    psi_hat: float
    sigma0: np.ndarray
    sigma0_inv: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    indices: np.ndarray
    realized_r0: int
    scores: np.ndarray
    n_total: int
    degenerate: bool


@dataclass
class PassSample:
    """Records captured by one Bernoulli scan, in global index order.

    ``min_p`` is the smallest probability any scanned record received.
    """

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    indices: np.ndarray
    expected_size: float
    min_p: float
    cap: float = math.inf

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def _scan(stream: RecordStream, seed: int, tag: int, block_probs, cap: float = math.inf) -> PassSample:
    """Keep each record of ``stream`` independently with its own probability.

    ``block_probs(start, x, y)`` gives the probabilities of the block's
    records, or one float for all of them; the draw for record i is keyed on
    ``(seed, tag, i)``.
    """
    # empty leading pieces give a scan that keeps nothing the right shapes
    xs, ys = [np.empty((0, stream.dim))], [np.empty(0)]
    ps, idxs = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    expected, min_p = 0.0, math.inf
    for start, xb, yb in stream.iter_blocks():
        block_idx = np.arange(start, start + xb.shape[0], dtype=np.int64)
        probs = block_probs(start, xb, yb)
        # one index list gathers every field of the kept records
        keep = np.flatnonzero(block_mask(seed, block_idx, probs, tag))
        probs = np.broadcast_to(probs, block_idx.shape)
        expected += float(probs.sum())
        min_p = min(min_p, float(probs.min(initial=math.inf)))
        xs.append(xb[keep])
        ys.append(yb[keep])
        ps.append(probs[keep])
        idxs.append(keep + start)
    return PassSample(
        x=np.concatenate(xs),
        y=np.concatenate(ys),
        p=np.concatenate(ps),
        indices=np.concatenate(idxs),
        expected_size=expected,
        min_p=min_p,
        cap=cap,
    )


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
    p0 = float(r0) / n
    sample = _scan(stream, seed, PILOT_STREAM, lambda start, xb, yb: p0)
    realized = sample.size
    if realized < d + 1:
        raise PilotFailed(
            f"pilot captured only {realized} records for dimension {d}; raise r0"
        )
    px, py = sample.x, sample.y

    try:
        beta0 = solve_weighted_qle(px, py, family, p=sample.p, ridge=ridge).beta
    except SingularHessian as err:
        raise PilotFailed(f"pilot Newton system is singular; raise r0 ({err})") from err

    sigma0 = subsample_hessian(px, family, beta0, scale=realized)
    try:
        sigma0_inv = _spd_inverse(sigma0)
    except SingularHessian as err:
        raise PilotFailed(f"pilot curvature is singular; raise r0 ({err})") from err

    # the gathered pilot records are scored as records 0, 1, ... of px
    scores = record_scores(px, py, family, beta0, sigma0_inv if criterion == "mv" else None)
    psi_hat = float(scores.mean())

    return PilotResult(
        beta0=beta0,
        psi_hat=psi_hat,
        sigma0=sigma0,
        sigma0_inv=sigma0_inv,
        x=px,
        y=py,
        p=sample.p,
        indices=sample.indices,
        realized_r0=realized,
        scores=scores,
        n_total=n,
        degenerate=psi_hat <= 0.0,
    )


def _resolve_cap(
    stream: RecordStream,
    family: LinkFamily,
    pilot: PilotResult,
    plan: SamplingPlan,
    ctx: ScoreContext,
    r: float,
) -> tuple[float, float]:
    """Cap value and the matching score normalizer for the chosen mode."""
    if plan.threshold_mode == "inf":
        return math.inf, pilot.psi_hat
    if plan.threshold_mode == "quantile":
        cap = threshold_quantile(pilot.scores, r, ctx.n_pool)
        psi = float(np.minimum(pilot.scores, cap).mean())
        return cap, psi
    # exact mode: score the whole pool with the pilot estimate, then solve
    # the capped allocation on it
    chunks = [ctx.scores(xb, yb, family, start) for start, xb, yb in stream.iter_blocks()]
    scores = np.concatenate(chunks) if chunks else np.empty(0)
    cap, _ = waterfill(scores, r)
    psi = float(np.minimum(scores, cap).mean())
    return cap, psi


@dataclass(frozen=True)
class ProbabilityRule:
    """Resolved record-to-probability map for one sampling pass.

    ``ctx`` holds the scoring quantities, cap and normalizer; it is None for
    a uniform rule, which gives every record ``r / n_pool``.
    """

    pilot: PilotResult
    plan: SamplingPlan
    r: float
    n_pool: float
    ctx: ScoreContext | None

    def probabilities(self, scores: np.ndarray) -> np.ndarray:
        """Capped probabilities of records with these scores."""
        if self.ctx is None:
            return np.full(scores.shape[0], self.r / self.n_pool)
        return np.minimum(
            shrinkage_probability(self.ctx, scores, self.r, self.plan.shrinkage), 1.0
        )

    def block_probabilities(
        self, xb: np.ndarray, yb: np.ndarray, family: LinkFamily, offset: int = 0
    ) -> np.ndarray:
        """Capped probabilities of the records ``offset, offset + 1, ...``."""
        # a uniform rule reads no scores, so none are computed for it
        return self.probabilities(yb if self.ctx is None else self.ctx.scores(xb, yb, family, offset))


def resolve_rule(
    stream: RecordStream | None,
    family: LinkFamily,
    pilot: PilotResult,
    plan: SamplingPlan,
    r: float,
    n_pool: float | None = None,
) -> ProbabilityRule:
    """Bind the plan to this pass: threshold, normalizer, probability map.

    The pool size defaults to the stream's record count.  Only the exact
    cap reads the stream, so with ``n_pool`` given and another threshold
    mode ``stream`` may be None.
    """
    n_pool = float(stream.n_records if n_pool is None else n_pool)
    ctx = None
    if plan.criterion != "uniform":
        if pilot.degenerate:
            warnings.warn(
                "pilot residuals are all zero; falling back to uniform probabilities",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            ctx = ScoreContext(
                beta0=pilot.beta0,
                psi_hat=pilot.psi_hat,
                sigma_inv=pilot.sigma0_inv if plan.criterion == "mv" else None,
                n_pool=n_pool,
            )
            cap, psi_eff = _resolve_cap(stream, family, pilot, plan, ctx, r)
            ctx = replace(ctx, psi_hat=psi_eff, cap=cap)
    return ProbabilityRule(pilot=pilot, plan=plan, r=r, n_pool=n_pool, ctx=ctx)


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
    sample = _scan(
        stream,
        seed,
        MAIN_STREAM,
        lambda start, xb, yb: rule.block_probabilities(xb, yb, family, start),
        cap=math.inf if rule.ctx is None else rule.ctx.cap,
    )
    # at rho = 0 a record's probability is zero exactly when its score is
    if rule.plan.shrinkage == 0.0 and sample.min_p == 0.0:
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
