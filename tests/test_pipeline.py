import tracemalloc

import numpy as np
import pytest

from qlsub.errors import ConfigError, PilotFailed
from qlsub.families import EXP, IDENTITY
from qlsub.ingest import ArrayStream
from qlsub.pipeline import resolve_rule, run_pilot, run_two_step, second_pass
from qlsub.rng import MAIN_STREAM, derive_seed, uniforms
from qlsub.sampling import SamplingPlan
from qlsub.synth import full_qle, generate_case, make_spec

# numpy warns when a uint64 scalar overflows, as the counter hash would if
# its arithmetic left its arrays
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def poisson_data():
    x, y, _ = generate_case(make_spec("c1", 20_000, seed=5))
    return x, y


@pytest.fixture(scope="module")
def stream(poisson_data):
    return ArrayStream(*poisson_data)


class TestPilot:
    def test_identical_rows_flagged_degenerate(self):
        x = np.ones((300, 1))
        y = np.ones(300)
        pilot = run_pilot(ArrayStream(x, y), IDENTITY, 50, seed=1, criterion="mvc")
        assert pilot.beta0[0] == pytest.approx(1.0, abs=1e-9)
        assert pilot.psi_hat == 0.0
        assert pilot.degenerate

    def test_full_pilot_recovers_full_fit(self, poisson_data, stream):
        x, y = poisson_data
        pilot = run_pilot(stream, EXP, stream.n_records, seed=2)
        assert pilot.realized_r0 == stream.n_records
        np.testing.assert_allclose(pilot.beta0, full_qle(x, y, EXP).beta, atol=1e-9)
        assert np.all(pilot.p == 1.0)

    def test_pilot_probability_recorded(self, stream):
        pilot = run_pilot(stream, EXP, 400, seed=3)
        assert np.all(pilot.p == 400 / stream.n_records)
        # draws re-derivable from (seed, index)
        u = uniforms(3, pilot.indices, stream=1)
        assert np.all(u < 400 / stream.n_records)

    def test_tiny_pilot_fails_loudly(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        with pytest.raises(PilotFailed), pytest.warns(RuntimeWarning):
            run_pilot(ArrayStream(x, y), IDENTITY, 2, seed=5)

    def test_small_pilot_warns(self, stream):
        with pytest.warns(RuntimeWarning, match="below 10"):
            run_pilot(stream, EXP, 30, seed=6)

    def test_median_pilot_error_calibrated(self, bench):
        # r0 = 200 pilot lands near the truth across 200 seeds at desk scale
        x, y, _, beta_true = bench.case("c1")
        desk = ArrayStream(x, y)
        errs = []
        for t in range(200):
            pilot = run_pilot(desk, EXP, 200, seed=derive_seed(9, t))
            errs.append(np.linalg.norm(pilot.beta0 - beta_true))
        assert np.median(errs) <= 0.35


class TestSecondPass:
    def test_probabilities_audit(self, poisson_data, stream):
        # every attached probability re-derives from the rule, and every
        # draw decision re-derives from (seed, index, p)
        plan = SamplingPlan(criterion="mvc", expected_size=600, seed=11)
        pilot = run_pilot(stream, EXP, 200, seed=11)
        rule = resolve_rule(stream, EXP, pilot, plan, 600.0)
        sample = second_pass(stream, EXP, pilot, plan, 600.0, seed=11, rule=rule)
        x, y = poisson_data
        expected_p = np.minimum(
            rule.block_probabilities(x[sample.indices], y[sample.indices], EXP), 1.0
        )
        np.testing.assert_array_equal(sample.p, expected_p)
        u = uniforms(11, sample.indices, MAIN_STREAM)
        assert np.all(u < sample.p)

    def test_uniform_criterion_constant_probability(self, stream):
        plan = SamplingPlan(criterion="uniform", expected_size=500, seed=13)
        pilot = run_pilot(stream, EXP, 200, seed=13)
        sample = second_pass(stream, EXP, pilot, plan, 500.0, seed=13)
        assert np.all(sample.p == 500 / stream.n_records)

    def test_mean_realized_size_tracks_target(self, stream):
        plan_r = 500.0
        sizes, capped = [], []
        for t in range(200):
            seed = derive_seed(17, t)
            plan = SamplingPlan(criterion="mvc", expected_size=plan_r, seed=seed)
            pilot = run_pilot(stream, EXP, 200, seed=seed)
            sample = second_pass(stream, EXP, pilot, plan, plan_r, seed=seed)
            sizes.append(sample.size)
            capped.append(sample.expected_size)
        assert abs(np.mean(sizes) - plan_r) <= 0.05 * plan_r
        assert abs(np.mean(sizes) - np.mean(capped)) <= 0.05 * np.mean(capped)

    def test_zero_scores_warn_without_shrinkage(self):
        # all-zero covariate rows score exactly zero whatever the pilot says
        rng = np.random.default_rng(19)
        x = rng.uniform(0.5, 1.5, (500, 1))
        x[::10] = 0.0
        y = 2.0 * x[:, 0] + rng.normal(0, 0.1, 500)
        stream = ArrayStream(x, y)
        pilot = run_pilot(stream, IDENTITY, 100, seed=19)
        plan = SamplingPlan(criterion="mvc", expected_size=50, shrinkage=0.0, seed=19)
        with pytest.warns(RuntimeWarning, match="zero score"):
            second_pass(stream, IDENTITY, pilot, plan, 50.0, seed=19)


def _peak_records(call, n):
    """``call()`` and its tracemalloc peak, in float64 values per record (8·n bytes)."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / (8 * n)


class TestScanMemory:
    def test_scan_peaks_per_record(self):
        # one block of N records: the pilot scan peaks at the block's index
        # list plus the hash's copy and scratch buffer; the main scan holds
        # the probabilities as well.  Each temporary of N records costs 1.
        n = 50_000
        x, y, _ = generate_case(make_spec("c4", n, seed=11))
        stream = ArrayStream(x, y, block_size=n)
        plan = SamplingPlan(criterion="mv", expected_size=1000, seed=11)
        pilot, pilot_peak = _peak_records(lambda: run_pilot(stream, EXP, 200, 11, "mv"), n)
        rule = resolve_rule(stream, EXP, pilot, plan, 1000.0)
        _, main_peak = _peak_records(lambda: second_pass(stream, EXP, pilot, plan, 1000.0, 11, rule=rule), n)
        assert pilot_peak <= 3.5
        assert main_peak <= 4.5


class TestTwoStep:
    def test_uniform_plan_matches_rho_one_optimal(self, stream):
        # shrinkage 1 collapses the probabilities to r/N, so the subsample
        # and estimate coincide with the uniform plan under a shared seed
        kw = dict(r0=200)
        unif = run_two_step(
            stream, EXP, SamplingPlan(criterion="uniform", expected_size=500, seed=23), **kw
        )
        rho1 = run_two_step(
            stream,
            EXP,
            SamplingPlan(criterion="mv", expected_size=500, shrinkage=1.0, seed=23),
            **kw,
        )
        np.testing.assert_array_equal(unif.beta, rho1.beta)
        np.testing.assert_array_equal(unif.variance, rho1.variance)

    def test_deterministic_given_seed(self, stream):
        plan = SamplingPlan(criterion="mvc", expected_size=700, seed=29)
        a = run_two_step(stream, EXP, plan, 200)
        b = run_two_step(stream, EXP, plan, 200)
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.variance, b.variance)

    def test_row_order_only_perturbs_at_roundoff(self, poisson_data):
        # the accumulation order is fixed internally; a reshuffled copy of
        # the same records solves to the same root
        from qlsub.estimator import solve_weighted_qle

        rng = np.random.default_rng(31)
        x, y = poisson_data
        take = rng.choice(len(y), 800, replace=False)
        p = rng.uniform(0.3, 1.0, 800)
        fit = solve_weighted_qle(x[take], y[take], EXP, p=p, tol=1e-12)
        perm = rng.permutation(800)
        refit = solve_weighted_qle(x[take][perm], y[take][perm], EXP, p=p[perm], tol=1e-12)
        np.testing.assert_allclose(fit.beta, refit.beta, atol=1e-9)

    def test_plan_size_validated(self, stream):
        plan = SamplingPlan(criterion="mvc", expected_size=stream.n_records + 1.0)
        with pytest.raises(ConfigError):
            run_two_step(stream, EXP, plan, 200)

    def test_estimate_near_full_fit(self, poisson_data, stream):
        x, y = poisson_data
        full = full_qle(x, y, EXP)
        fit = run_two_step(
            stream, EXP, SamplingPlan(criterion="mvc", expected_size=1000, seed=37), 200
        )
        # within 5 joint standard errors of the full-data estimate
        se = fit.std_errors()
        assert np.all(np.abs(fit.beta - full.beta) <= 5 * se)

    def test_degenerate_pilot_falls_back_to_uniform(self):
        # constant data: the pilot fit is exact, every residual is zero
        x = np.ones((1000, 1))
        y = np.ones(1000)
        stream = ArrayStream(x, y)
        plan = SamplingPlan(criterion="mvc", expected_size=100, seed=41)
        with pytest.warns(RuntimeWarning, match="uniform"):
            fit = run_two_step(stream, IDENTITY, plan, 100)
        np.testing.assert_allclose(fit.beta, [1.0], atol=1e-12)

    def test_threshold_modes_agree_at_small_sampling_fraction(self, poisson_data, stream):
        # r/N = 0.01: the cap rarely binds, matched seeds keep the draws
        # aligned, and the MSEs stay within 10%
        x, y = poisson_data
        ref = full_qle(x, y, EXP).beta
        mses = {}
        for mode in ("inf", "exact"):
            errs = []
            for t in range(150):
                seed = derive_seed(43, t)
                plan = SamplingPlan(
                    criterion="mvc", expected_size=200, threshold_mode=mode, seed=seed
                )
                fit = run_two_step(stream, EXP, plan, 200)
                errs.append(np.sum((fit.beta - ref) ** 2))
            mses[mode] = np.mean(errs)
        assert abs(mses["inf"] - mses["exact"]) <= 0.10 * mses["exact"]

    def test_quantile_threshold_runs(self, stream):
        plan = SamplingPlan(
            criterion="mv", expected_size=500, threshold_mode="quantile", seed=47
        )
        fit = run_two_step(stream, EXP, plan, 200)
        assert fit.converged
        assert np.isfinite(fit.info["cap"])
