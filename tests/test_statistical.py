"""Desk-scale Monte-Carlo properties of the full pipelines.

These replications-based checks take seconds to a couple of minutes each;
the session-scoped bench fixture shares batches with the acceptance suite.
"""

import numpy as np
import pytest
from scipy import stats

from qlsub.families import EXP

R_GRID = (500, 1000)


@pytest.mark.parametrize("case_id", ["c1", "c2", "c3", "c4"])
def test_method_ordering_across_cases(bench, case_id):
    # trace-optimal <= norm-optimal <= uniform, at most one violation on
    # the grid per inequality
    mv_viol = mvc_viol = 0
    for r in R_GRID:
        mv = bench.mse(case_id, "mv", r)
        mvc = bench.mse(case_id, "mvc", r)
        unif = bench.mse(case_id, "uniform", r)
        mv_viol += mv > mvc
        mvc_viol += mvc > unif
    assert mv_viol <= 1
    assert mvc_viol <= 1


def test_optimal_to_uniform_mse_ratio(bench):
    # the trace-optimal pipeline buys a clear efficiency margin at r = 1000
    ratio = bench.mse("c1", "mv", 1000) / bench.mse("c1", "uniform", 1000)
    assert 0.45 <= ratio <= 0.95


def test_estimates_are_near_normal(bench):
    # standardized first coordinate at r = 2000 passes moment checks
    for method in ("uniform", "mvc"):
        batch = bench.batch("c1", method, 2000, t=1000)
        z = batch.betas[:, 0]
        z = (z - z.mean()) / z.std()
        assert abs(stats.skew(z)) <= 0.25
        assert abs(stats.kurtosis(z)) <= 0.5


def assert_variance_matches_monte_carlo(batch):
    # average plug-in variance vs the empirical covariance of the estimates;
    # entries are compared on the correlation scale sqrt(V_ii V_jj) because
    # several off-diagonal entries sit near zero, where a raw ratio only
    # measures Monte-Carlo noise
    assert batch.failures == 0
    emp = np.cov(batch.betas.T)
    avg = batch.variances.mean(axis=0)
    scale = np.sqrt(np.outer(np.diag(emp), np.diag(emp)))
    assert np.max(np.abs(avg - emp) / scale) <= 0.15
    assert np.max(np.abs(np.diag(avg) / np.diag(emp) - 1.0)) <= 0.15


def test_variance_estimator_matches_monte_carlo(bench):
    assert_variance_matches_monte_carlo(bench.batch("c1", "mvc", 1000, r0=400.0, t=1000, engine="distributed"))


def test_two_step_variance_matches_monte_carlo(bench):
    # the sandwich that run_two_step reports (engine "auto" at K = 1)
    assert_variance_matches_monte_carlo(bench.batch("c1", "mvc", 1000, r0=400.0, t=1000))


def test_distributed_beats_single_machine_at_fixed_r(bench):
    # K = 5 samples five times as much data at the same per-shard size
    assert bench.mse("c4", "mv", 1000, k=5) < bench.mse("c4", "mv", 1000)


def test_uniform_pipeline_is_plain_uniform_poisson_draw(bench):
    # with the uniform criterion the second pass is exactly a constant-
    # probability Poisson draw: same records, same probabilities, same fit
    from qlsub.estimator import solve_weighted_qle
    from qlsub.ingest import ArrayStream
    from qlsub.pipeline import run_pilot, second_pass
    from qlsub.rng import MAIN_STREAM
    from qlsub.sampling import SamplingPlan, block_mask

    x, y, _, _ = bench.case("c1")
    stream = ArrayStream(x, y)
    n = stream.n_records
    plan = SamplingPlan(criterion="uniform", expected_size=700, seed=99)
    pilot = run_pilot(stream, EXP, 200, seed=99, criterion="uniform")
    sample = second_pass(stream, EXP, pilot, plan, 700.0, seed=99)

    mask = block_mask(99, np.arange(n, dtype=np.int64), np.full(n, 700.0 / n), MAIN_STREAM)
    np.testing.assert_array_equal(sample.indices, np.flatnonzero(mask))
    assert np.all(sample.p == 700.0 / n)
    direct = solve_weighted_qle(x[mask], y[mask], EXP, p=np.full(int(mask.sum()), 700.0 / n))
    refit = solve_weighted_qle(sample.x, sample.y, EXP, p=sample.p)
    np.testing.assert_array_equal(direct.beta, refit.beta)
