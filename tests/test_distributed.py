from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from qlsub.distributed import (
    PartitionSummary,
    aggregate,
    fit_partition,
    pilot_summary,
    run_distributed,
)
from qlsub.errors import ConfigError, PartitionFailed, SingularHessian
from qlsub.estimator import solve_weighted_qle, subsample_hessian
from qlsub.families import EXP
from qlsub.ingest import ArrayStream
from qlsub.pipeline import resolve_rule, run_pilot, second_pass
from qlsub.sampling import SamplingPlan
from qlsub.synth import full_qle, generate_case, make_spec


@pytest.fixture(scope="module")
def data():
    x, y, _ = generate_case(make_spec("c1", 20_000, seed=5))
    return x, y


@pytest.fixture(scope="module")
def stream(data):
    return ArrayStream(*data)


def _summary(pid, beta, hessian, n=100.0, converged=True):
    d = len(beta)
    return PartitionSummary(
        partition_id=pid,
        beta=np.asarray(beta, dtype=float),
        hessian=np.asarray(hessian, dtype=float),
        vc_contrib=np.zeros((d, d)),
        n_records=n,
        realized_size=10,
        converged=converged,
    )


class TestAggregate:
    def test_identical_betas_fixed_point(self):
        rng = np.random.default_rng(0)
        beta = np.array([1.0, -2.0])
        summaries = []
        for j in range(4):
            a = rng.normal(size=(2, 2))
            summaries.append(_summary(j, beta, a @ a.T + np.eye(2)))
        out = aggregate(summaries, n_total=300.0)
        np.testing.assert_allclose(out.beta, beta, atol=1e-12)

    def test_scalar_weighted_average(self):
        out = aggregate(
            [_summary(1, [1.0], [[2.0]]), _summary(2, [3.0], [[6.0]])], n_total=200.0
        )
        assert out.beta[0] == pytest.approx(2.5, abs=1e-15)

    def test_permutation_bit_stable(self):
        rng = np.random.default_rng(1)
        summaries = []
        for j in range(6):
            a = rng.normal(size=(3, 3))
            s = _summary(j, rng.normal(size=3), a @ a.T + np.eye(3))
            s.vc_contrib = np.abs(a) + np.abs(a).T
            summaries.append(s)
        base = aggregate(summaries, n_total=600)
        shuffled = aggregate(summaries[::-1], n_total=600)
        np.testing.assert_array_equal(base.beta, shuffled.beta)
        np.testing.assert_array_equal(base.variance, shuffled.variance)

    def test_duplicate_ids_rejected(self):
        s = _summary(1, [0.0], [[1.0]])
        with pytest.raises(ConfigError):
            aggregate([s, s], n_total=200.0)

    def test_singular_pooled_weight(self):
        with pytest.raises(SingularHessian):
            aggregate([_summary(1, [0.0, 0.0], np.zeros((2, 2)))], n_total=100.0)

    def test_variance_zero_under_certain_inclusion(self, data):
        # every record with p = 1 in both the pilot and the shard: the meat
        # vanishes identically and the combined fit is the full fit
        x, y = data
        full = full_qle(x, y, EXP)
        ones = np.ones(len(y))
        from qlsub.estimator import subsample_hessian, vc_contribution

        h = subsample_hessian(x, EXP, full.beta, p=ones, scale=len(y))
        vc = vc_contribution(x, y, EXP, full.beta, ones)
        parts = [
            PartitionSummary(0, full.beta, h, vc, float(len(y)), len(y), True),
            PartitionSummary(1, full.beta, h, vc, float(len(y)), len(y), True),
        ]
        out = aggregate(parts, n_total=len(y))
        np.testing.assert_array_equal(out.variance, np.zeros_like(out.variance))
        np.testing.assert_allclose(out.beta, full.beta, atol=1e-12)

    def test_pooled_hessian_is_exact_sum(self):
        rng = np.random.default_rng(2)
        mats = []
        summaries = []
        for j in range(3):
            a = rng.normal(size=(2, 2))
            m = a @ a.T + np.eye(2)
            mats.append(m)
            summaries.append(_summary(j, rng.normal(size=2), m, n=50.0))
        out = aggregate(summaries, n_total=100.0)
        expected = sum(50.0 * m for m in mats) / 100.0
        np.testing.assert_array_equal(out.hessian, expected)

    @pytest.mark.parametrize("flags", [(True, True, True), (True, False, True), (False, True, True)])
    def test_converged_only_when_every_partition_converged(self, flags):
        summaries = [_summary(j, [1.0], [[1.0]], converged=flag) for j, flag in enumerate(flags)]
        assert aggregate(summaries, n_total=300.0).converged is all(flags)


class TestFitPartition:
    def test_single_shard_matches_second_pass_fit(self, stream):
        # K = 1: the shard sees the same global indices and probabilities as
        # the single-machine second pass, so the fits coincide bit for bit
        plan = SamplingPlan(criterion="mvc", expected_size=600, seed=3)
        pilot = run_pilot(stream, EXP, 200, seed=3)
        summary = fit_partition(stream, EXP, pilot, plan, 600.0, seed=3, partition_id=1)
        sample = second_pass(stream, EXP, pilot, plan, 600.0, seed=3)
        fit = solve_weighted_qle(sample.x, sample.y, EXP, p=sample.p, init=pilot.beta0)
        np.testing.assert_array_equal(summary.beta, fit.beta)
        assert summary.realized_size == sample.size

    def test_identical_shards_identical_summaries(self, data):
        x, y = data
        half = ArrayStream(x[:10_000], y[:10_000])
        plan = SamplingPlan(criterion="mvc", expected_size=400, seed=7)
        pilot = run_pilot(half, EXP, 200, seed=7)
        a = fit_partition(half, EXP, pilot, plan, 400.0, seed=7, partition_id=1)
        b = fit_partition(half, EXP, pilot, plan, 400.0, seed=7, partition_id=2)
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.hessian, b.hessian)
        np.testing.assert_array_equal(a.vc_contrib, b.vc_contrib)

    def test_failure_carries_partition_id(self, stream):
        x = np.ones((4000, 2))  # collinear: singular partition Newton system
        x[:, 1] = 2.0
        y = np.arange(4000.0)
        bad = ArrayStream(x, y)
        pilot_src = ArrayStream(np.random.default_rng(8).normal(size=(4000, 2)), y)
        pilot = run_pilot(pilot_src, EXP, 300, seed=9)
        plan = SamplingPlan(criterion="uniform", expected_size=200, seed=9)
        with pytest.raises(PartitionFailed) as err:
            fit_partition(bad, EXP, pilot, plan, 200.0, seed=9, partition_id=4)
        assert err.value.partition_id == 4


class TestRunDistributed:
    def test_bit_reproducible_under_layout_changes(self, data):
        x, y = data
        plan = SamplingPlan(criterion="mv", expected_size=800, seed=11)
        runs = []
        for block, threads in [(65536, None), (777, 3), (2048, 1)]:
            stream = ArrayStream(x, y, block_size=block)
            runs.append(run_distributed(stream, EXP, plan, 200, 4, threads=threads))
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].beta, other.beta)
            np.testing.assert_array_equal(runs[0].variance, other.variance)

    def test_k1_close_to_two_step(self, stream):
        from qlsub.pipeline import run_two_step

        plan = SamplingPlan(criterion="mvc", expected_size=1000, seed=13)
        dist = run_distributed(stream, EXP, plan, 200, 1)
        pipe = run_two_step(stream, EXP, plan, 200)
        joint = np.sqrt(np.trace(dist.variance))
        assert np.linalg.norm(dist.beta - pipe.beta) <= 4 * joint

    def test_warns_beyond_aggregation_regime(self, stream):
        plan = SamplingPlan(criterion="uniform", expected_size=300, seed=17)
        with pytest.warns(RuntimeWarning, match="exceeds"):
            run_distributed(stream, EXP, plan, 200, 12)

    def test_variance_symmetric_psd(self, stream):
        plan = SamplingPlan(criterion="mvc", expected_size=900, seed=19)
        fit = run_distributed(stream, EXP, plan, 200, 5)
        v = fit.variance
        assert np.array_equal(v, v.T)
        assert np.linalg.eigvalsh(v).min() >= -1e-12 * np.trace(v)

    # the shards solve through distributed and the pilot through pipeline;
    # one solve there, shard 2's or the pilot's, reports that it stopped short
    @pytest.mark.parametrize("module, call", [("distributed", 2), ("pipeline", 1)], ids=["shard", "pilot"])
    def test_unconverged_solve_is_reported(self, stream, module, call):
        plan = SamplingPlan(criterion="mvc", expected_size=600, seed=37)
        calls = []

        def stops_short(*args, **kwargs):
            fit = solve_weighted_qle(*args, **kwargs)
            calls.append(fit)
            return replace(fit, converged=False) if len(calls) == call else fit

        want = run_distributed(stream, EXP, plan, 200, 3)
        with mock.patch(f"qlsub.{module}.solve_weighted_qle", new=stops_short):
            got = run_distributed(stream, EXP, plan, 200, 3)
        assert want.converged and not got.converged
        assert calls and all(fit.converged for fit in calls)
        np.testing.assert_array_equal(got.beta, want.beta)
        np.testing.assert_array_equal(got.variance, want.variance)

    def test_partition_sizes_reported(self, stream):
        plan = SamplingPlan(criterion="mvc", expected_size=600, seed=23)
        fit = run_distributed(stream, EXP, plan, 200, 3)
        sizes = fit.info["partition_sizes"]
        assert len(sizes) == 4  # pilot + 3 shards
        assert fit.subsample_size == sum(sizes)


def test_pilot_summary_scales_like_information(stream):
    # the pilot's curvature weight is r0/r-scale relative to a shard's
    plan = SamplingPlan(criterion="mvc", expected_size=1000, seed=29)
    pilot = run_pilot(stream, EXP, 200, seed=29)
    summary = pilot_summary(pilot, EXP, plan, 1000.0, machine_size=stream.n_records)
    shard = fit_partition(stream, EXP, pilot, plan, 1000.0, seed=29, partition_id=1)
    ratio = np.trace(summary.hessian) / np.trace(shard.hessian)
    assert 0.02 <= ratio <= 1.0


@pytest.mark.parametrize("mode", ["inf", "quantile", "exact"])
def test_pilot_summary_weighted_by_shard_rule(stream, mode):
    # at K = 1 the one shard is the whole stream, so the pilot partition
    # carries the probabilities that shard's rule gives the pilot records;
    # the exact cap is replaced by its pilot-only estimate, the quantile cap
    plan = SamplingPlan(criterion="mv", expected_size=1000, threshold_mode=mode, seed=31)
    pilot = run_pilot(stream, EXP, 300, seed=31, criterion="mv")
    summary = pilot_summary(pilot, EXP, plan, 1000.0, machine_size=stream.n_records / 1)
    shard_mode = "quantile" if mode == "exact" else mode
    rule = resolve_rule(stream, EXP, pilot, replace(plan, threshold_mode=shard_mode), 1000.0)
    p = rule.block_probabilities(pilot.x, pilot.y, EXP)
    expected = subsample_hessian(pilot.x, EXP, pilot.beta0, p=p, scale=stream.n_records)
    assert np.array_equal(summary.hessian, expected)
