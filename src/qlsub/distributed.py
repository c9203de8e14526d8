"""Divide-and-conquer subsampling across data shards.

Each shard is sampled and fit on its own (expected subsample size r per
shard), compressed into its estimate, curvature, and meat-matrix
contribution, and the coordinator combines the summaries with
curvature-weighted averaging.  The global pilot joins the combination as
partition 0.  Workers share no mutable state, so shards may be processed
concurrently; the reduction is ordered by partition id and therefore
reproducible bit-for-bit under any worker count or summary arrival order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EmptySample, NonFiniteValue, PartitionFailed, QlsubError, SingularHessian
from .estimator import (
    FitResult,
    _sandwich,
    _spd_inverse,
    solve_weighted_qle,
    subsample_hessian,
    vc_contribution,
)
from .families import LinkFamily
from .ingest import RecordStream, partition_view
from .pipeline import PilotResult, run_pilot, second_pass
from .sampling import SamplingPlan, resolve_rule

PILOT_PARTITION_ID = 0


@dataclass
class PartitionSummary:
    """Sufficient statistics shipped from one shard to the coordinator.

    ``hessian`` is the shard-normalized curvature (divided by the shard's own
    record count) evaluated at the shard estimate; ``vc_contrib`` is the
    unnormalized meat term.  Partition id 0 is reserved for the pilot.
    """

    partition_id: int
    beta: np.ndarray
    hessian: np.ndarray
    vc_contrib: np.ndarray
    n_records: float
    realized_size: int
    converged: bool  # whether the Newton solve behind beta converged


def fit_partition(
    shard: RecordStream,
    family: LinkFamily,
    pilot: PilotResult,
    plan: SamplingPlan,
    r: float,
    seed: int,
    partition_id: int,
    ridge: float = 0.0,
) -> PartitionSummary:
    """Sample and fit one shard; failures carry the partition id."""
    n_j = shard.n_records
    try:
        sample = second_pass(shard, family, pilot, plan, r, seed)
        if sample.size == 0:
            raise EmptySample("no records drawn")
        fit = solve_weighted_qle(
            sample.x, sample.y, family, p=sample.p, init=pilot.beta0, ridge=ridge
        )
        hessian = subsample_hessian(sample.x, family, fit.beta, p=sample.p, scale=n_j)
        vc = vc_contribution(sample.x, sample.y, family, fit.beta, sample.p)
    except QlsubError as err:
        raise PartitionFailed(partition_id, f"partition {partition_id}: {err}") from err
    return PartitionSummary(
        partition_id=partition_id,
        beta=fit.beta,
        hessian=hessian,
        vc_contrib=vc,
        n_records=float(n_j),
        realized_size=sample.size,
        converged=fit.converged,
    )


def pilot_summary(
    pilot: PilotResult,
    family: LinkFamily,
    plan: SamplingPlan,
    r: float,
    machine_size: float,
) -> PartitionSummary:
    """Compress the global pilot into a combinable summary.

    The pilot behaves like one more machine-sized partition whose records
    carry second-stage probabilities: its curvature then scales like r0/r
    relative to a shard's, so the combination weights the pilot by its
    actual information instead of letting its 1/r0-scale noise dominate.
    Those probabilities come from the rule a shard of ``machine_size``
    records resolves.  The ``inf`` and ``quantile`` caps depend on the pilot
    alone; the exact cap needs the score of every record, which the pilot
    does not have, so in ``exact`` mode the quantile cap, the pilot's own
    estimate of the same threshold, stands in for it.  The summary's meat
    contribution propagates the pilot estimate's own sandwich
    variance (pilot term at p = r0/N) through that combination weight, so
    the pooled variance stays calibrated.  A record at p = 0 (a zero score
    at rho = 0) is one that no shard's draw keeps, so it adds no curvature.
    """
    if plan.threshold_mode == "exact":
        plan = replace(plan, threshold_mode="quantile")
    rule = resolve_rule(None, family, pilot, plan, r, n_pool=machine_size)
    p, x = rule.probabilities(pilot.scores), pilot.x
    if not p.all():
        x, p = x[p > 0.0], p[p > 0.0]
    hessian = subsample_hessian(x, family, pilot.beta0, p=p, scale=machine_size)
    n_total = float(pilot.n_total)
    pilot_meat = vc_contribution(pilot.x, pilot.y, family, pilot.beta0, pilot.p)
    pilot_var = pilot.sigma0_inv @ (pilot_meat / n_total**2) @ pilot.sigma0_inv
    scaled = machine_size * hessian
    vc = scaled @ (0.5 * (pilot_var + pilot_var.T)) @ scaled
    vc = 0.5 * (vc + vc.T)
    return PartitionSummary(
        partition_id=PILOT_PARTITION_ID,
        beta=pilot.beta0,
        hessian=hessian,
        vc_contrib=vc,
        n_records=float(machine_size),
        realized_size=pilot.realized_r0,
        converged=pilot.converged,
    )


def aggregate(summaries, n_total: float) -> FitResult:
    """Curvature-weighted combination of partition summaries.

    The estimate is ``(sum_j H_j)^-1 sum_j H_j beta_j``.  The variance
    sandwich un-normalizes each curvature by its partition's record count to
    form the pooled bread on the scale of all ``n_total`` records, and sums
    the meat contributions.  Summaries are reduced in partition-id order so the result
    does not depend on list order.  A partition whose ``H_j beta_j`` is not
    finite (an estimate pulled out of range by an overflowing record) raises
    :class:`NonFiniteValue` naming it, before any pooled product is formed.
    The result converged when every partition's solve did.
    """
    summaries = sorted(summaries, key=lambda s: s.partition_id)
    if not summaries:
        raise ConfigError("no partition summaries to aggregate")
    ids = [s.partition_id for s in summaries]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate partition ids: {ids}")
    d = summaries[0].beta.shape[0]

    with np.errstate(over="ignore", invalid="ignore"):
        products = [s.hessian @ s.beta for s in summaries]
    for s, product in zip(summaries, products):
        if not np.isfinite(product).all():
            raise NonFiniteValue(f"partition {s.partition_id}: curvature-weighted estimate is not finite")

    weight = np.zeros((d, d))
    weighted_beta = np.zeros(d)
    bread = np.zeros((d, d))
    meat = np.zeros((d, d))
    realized = 0
    for s, product in zip(summaries, products):
        weight += s.hessian
        weighted_beta += product
        bread += s.n_records * s.hessian
        meat += s.vc_contrib
        realized += s.realized_size
    bread /= n_total
    meat /= n_total**2

    try:
        beta = _spd_inverse(weight) @ weighted_beta
    except SingularHessian as err:
        raise SingularHessian(err.condition, "pooled curvature is singular") from None
    variance = _sandwich(bread, meat)

    return FitResult(
        beta=beta,
        hessian=bread,
        variance=variance,
        iterations=0,
        converged=all(s.converged for s in summaries),
        subsample_size=realized,
        info={
            "partition_ids": ids,
            "partition_sizes": [s.realized_size for s in summaries],
        },
    )


def run_distributed(
    stream: RecordStream,
    family: LinkFamily,
    plan: SamplingPlan,
    r0: float,
    k: int,
    threads: int | None = None,
    ridge: float = 0.0,
) -> FitResult:
    """Full distributed run: global pilot, per-shard fits, combination.

    ``stream`` is split into K contiguous shards (a K-file source aligns the
    shards with its files).  The pilot is drawn across all shards with the
    global probability r0/N and pooled before the per-shard passes start.
    """
    shards = partition_view(stream, k)
    n_total = stream.n_records
    seed = plan.seed
    r = plan.expected_size
    smallest = min(shard.n_records for shard in shards)
    if smallest <= r:
        raise ConfigError(f"expected size {r} is not below the smallest shard's {smallest} records")
    if k > r ** (1.0 / 3.0):
        warnings.warn(
            f"partition count {k} exceeds r^(1/3) = {r ** (1/3.0):.1f}; the "
            "aggregation guarantees degrade in this regime",
            RuntimeWarning,
            stacklevel=2,
        )

    pilot = run_pilot(stream, family, r0, seed, plan.criterion, ridge=ridge)

    def job(pair):
        pid, shard = pair
        return fit_partition(shard, family, pilot, plan, r, seed, pid, ridge=ridge)

    jobs = list(enumerate(shards, start=1))
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # an unthreaded run never loads it

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(job, jobs))
    else:
        parts = [job(pair) for pair in jobs]

    summaries = [pilot_summary(pilot, family, plan, r, n_total / k)] + parts
    result = aggregate(summaries, n_total=n_total)
    result.info.update(
        realized_r0=pilot.realized_r0,
        criterion=plan.criterion,
        seed=seed,
        k=k,
    )
    return result
