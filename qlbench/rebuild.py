"""The package's top-level calls rebuilt from their public parts, under spans.

``two_step`` mirrors ``qlsub.pipeline.run_two_step``, ``distributed`` mirrors
``qlsub.distributed.run_distributed`` and ``replicate`` mirrors
``qlsub.synth.replicate``.  The traced run checks each rebuilt result bit for
bit against the real call (:func:`same_result`), so the
spans describe the program that the untraced run measures.  When the package
changes how these calls are composed, that check fails and the rebuild here
has to follow.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# bound at import, before instrument() can swap the module attributes, so
# the rebuild's own spans are never doubled by the boundary wrappers
from qlsub.distributed import aggregate, fit_partition, pilot_summary
from qlsub.errors import ConfigError, EmptySample, QlsubError
from qlsub.estimator import sandwich_variance, solve_weighted_qle, subsample_hessian
from qlsub.ingest import ArrayStream, partition_view
from qlsub.pipeline import resolve_rule, run_pilot, second_pass
from qlsub.rng import REPLICATION_STREAM, derive_seed
from qlsub.sampling import SamplingPlan
from qlsub.synth import ReplicationBatch

from .tracer import TimedStream, Tracer


def two_step(stream, family, plan, r0, tracer: Tracer, seed=None, ridge=0.0):
    seed = plan.seed if seed is None else seed
    n = stream.n_records
    r = plan.expected_size
    if not 0 < r < n:
        raise ConfigError(f"expected size {r} must lie in (0, {n})")
    span = tracer.span
    with span("pipeline.run_pilot"):
        pilot = run_pilot(stream, family, r0, seed, plan.criterion, ridge=ridge)
    with span("pipeline.resolve_rule"):
        rule = resolve_rule(stream, family, pilot, plan, r)
    with span("pipeline.second_pass") as rec:
        sample = second_pass(stream, family, pilot, plan, r, seed, rule=rule)
        rec["attrs"].update(realized=sample.size, expected=sample.expected_size)
    if sample.size == 0:
        raise EmptySample("second pass captured no records")

    with span("pipeline.union"):
        p0 = float(r0) / n
        pilot_p2 = rule.block_probabilities(pilot.x, pilot.y, family)
        fresh = ~np.isin(sample.indices, pilot.indices)
        x = np.concatenate([pilot.x, sample.x[fresh]])
        y = np.concatenate([pilot.y, sample.y[fresh]])
        p2 = np.concatenate([pilot_p2, sample.p[fresh]])
        indices = np.concatenate([pilot.indices, sample.indices[fresh]])
        order = np.argsort(indices, kind="stable")
        x, y, indices = x[order], y[order], indices[order]
        union_p = 1.0 - (1.0 - p0) * (1.0 - p2[order])

    with span("estimator.solve_weighted_qle") as rec:
        fit = solve_weighted_qle(x, y, family, p=union_p, init=pilot.beta0, ridge=ridge)
        rec["attrs"]["iterations"] = fit.iterations
    with span("estimator.subsample_hessian"):
        bread = subsample_hessian(x, family, fit.beta, p=union_p, scale=n)
    with span("estimator.sandwich_variance"):
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


def distributed(stream, family, plan, r0, k, tracer: Tracer, seed=None, threads=None, ridge=0.0):
    span = tracer.span
    with span("ingest.partition_view"):
        shards = partition_view(stream, k)
    n_total = stream.n_records
    seed = plan.seed if seed is None else seed
    r = plan.expected_size

    with span("pipeline.run_pilot"):
        pilot = run_pilot(stream, family, r0, seed, plan.criterion, ridge=ridge)

    with span("distributed.partitions") as phase:

        def job(pair):
            pid, shard = pair
            with span("distributed.fit_partition", parent=phase["id"]) as rec:
                rec["attrs"]["partition"] = pid
                return fit_partition(shard, family, pilot, plan, r, seed, pid, ridge=ridge)

        jobs = list(enumerate(shards, start=1))
        if threads and threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(job, jobs))
        else:
            parts = [job(pair) for pair in jobs]

    with span("distributed.pilot_summary"):
        head = pilot_summary(pilot, family, plan, r, n_total / k)
    with span("distributed.aggregate"):
        result = aggregate([head] + parts, n_total=n_total)
    result.info.update(realized_r0=pilot.realized_r0, criterion=plan.criterion, seed=seed, k=k)
    return result


def replicate(x, y, family, method, *, r, r0, rho, t, seed, threshold, tracer: Tracer):
    """``synth.replicate`` at K = 1 with variances kept."""
    stream = TimedStream(
        ArrayStream(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)), tracer
    )
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
            fit = two_step(stream, family, plan, r0, tracer)
        except QlsubError:
            failures += 1
            if failures > 0.05 * t:
                raise
            continue
        betas.append(fit.beta)
        seeds.append(rep_seed)
        variances.append(fit.variance)
    return ReplicationBatch(
        method=method,
        betas=np.asarray(betas),
        variances=np.asarray(variances),
        failures=failures,
        seeds=seeds,
    )


def same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def same_fit(a, b) -> bool:
    """Bit-identical estimate, curvature, variance and bookkeeping."""
    return (
        same_bits(a.beta, b.beta)
        and same_bits(a.hessian, b.hessian)
        and same_bits(a.variance, b.variance)
        and (a.iterations, a.converged, a.subsample_size) == (b.iterations, b.converged, b.subsample_size)
        and repr(sorted(a.info.items())) == repr(sorted(b.info.items()))
    )


def same_batch(a: ReplicationBatch, b: ReplicationBatch) -> bool:
    return (
        same_bits(a.betas, b.betas)
        and same_bits(a.variances, b.variances)
        and a.failures == b.failures
        and a.seeds == b.seeds
    )


def same_result(a, b) -> bool:
    return same_batch(a, b) if isinstance(a, ReplicationBatch) else same_fit(a, b)
