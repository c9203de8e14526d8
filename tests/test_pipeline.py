import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from qlsub import sampling
from qlsub.distributed import run_distributed
from qlsub.errors import ConfigError, PilotFailed
from qlsub.families import EXP, IDENTITY
from qlsub.ingest import ArrayStream
from qlsub.pipeline import PassSample, ProbabilityRule, resolve_rule, run_pilot, run_two_step, second_pass
from qlsub.rng import MAIN_STREAM, PILOT_STREAM, derive_seed, uniforms
from qlsub.sampling import THRESHOLD_MODES, SamplingPlan, block_mask
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
        with pytest.warns(RuntimeWarning, match="uniform"):
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

    def test_pilot_is_a_pass_sample_the_same_under_every_block_layout(self, poisson_data):
        n = poisson_data[0].shape[0]
        pilots = [run_pilot(ArrayStream(*poisson_data, block_size=b), EXP, 400, seed=3)
                  for b in (65_536, 7000, 1000, 333)]
        for pilot in pilots:
            assert isinstance(pilot, PassSample)
            assert pilot.cap == math.inf and pilot.zero_p is False
            np.testing.assert_array_equal(pilot.indices, pilots[0].indices)
        # every record's term is the one rounded probability r0/N
        assert {pilot.expected_size for pilot in pilots} == {round(400 / n * 2**32) * n / 2**32}

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

    @pytest.mark.parametrize("criterion", ["mv", "mvc"])
    def test_exact_cap_rule_peaks_per_record(self, criterion):
        # the exact cap scores the pool into one array that the rule keeps (1
        # per record), and its allocation needs one working copy of it
        n = 50_000
        x, y, _ = generate_case(make_spec("c4", n, seed=11))
        stream = ArrayStream(x, y, block_size=5000)
        plan = SamplingPlan(criterion=criterion, expected_size=1000, threshold_mode="exact", seed=11)
        pilot = run_pilot(stream, EXP, 200, 11, criterion)
        rule, peak = _peak_records(lambda: resolve_rule(stream, EXP, pilot, plan, 1000.0), n)
        assert rule.pool_scores.shape == (n,)
        assert peak <= 2.5


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


class TestProbabilityRule:
    def test_degenerate_pilot_gives_a_silent_uniform_rule(self):
        # run_pilot warns once; resolving the rule adds no warning (the
        # module's filter turns any RuntimeWarning into an error)
        x, y = np.ones((1000, 1)), np.ones(1000)
        stream = ArrayStream(x, y)
        for criterion in ("mv", "mvc"):
            with pytest.warns(RuntimeWarning, match="uniform"):
                pilot = run_pilot(stream, IDENTITY, 100, seed=41, criterion=criterion)
            for mode in THRESHOLD_MODES:
                plan = SamplingPlan(criterion=criterion, expected_size=100, threshold_mode=mode, seed=41)
                rule = resolve_rule(stream, IDENTITY, pilot, plan, 100.0)
                assert rule.ctx is None and rule.psi_hat is None and rule.cap == math.inf
                np.testing.assert_array_equal(rule.block_probabilities(x, y, IDENTITY), np.full(1000, 0.1))
                # a scan draws the whole block at that one float
                assert rule.screen(x, y, IDENTITY) == (0.1, None)

    def test_distributed_run_warns_once_for_a_degenerate_pilot(self):
        x, y = np.ones((4000, 1)), np.ones(4000)
        plan = SamplingPlan(criterion="mvc", expected_size=300, seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = run_distributed(ArrayStream(x, y), IDENTITY, plan, 100, 2)
        assert [str(w.message) for w in caught] == [
            "pilot residuals are all zero; falling back to uniform probabilities"
        ]
        np.testing.assert_allclose(fit.beta, [1.0], atol=1e-12)

    def test_scoring_rule_exposes_itself_as_ctx(self, stream):
        pilot = run_pilot(stream, EXP, 300, seed=5, criterion="mv")
        plan = SamplingPlan(criterion="mv", expected_size=1000, threshold_mode="quantile", seed=5)
        rule = resolve_rule(stream, EXP, pilot, plan, 1000.0)
        assert rule.ctx is rule and math.isfinite(rule.cap) and rule.psi_hat > 0


class TestExpectedSize:
    @pytest.mark.parametrize("seed", [5, 7, 11])
    def test_same_under_every_block_layout(self, poisson_data, seed):
        # the float sum of each block's probabilities moved the last bits
        # with the block layout; the fixed-point sum does not
        for criterion in ("mv", "mvc"):
            for mode in THRESHOLD_MODES:
                plan = SamplingPlan(criterion=criterion, expected_size=1000, threshold_mode=mode, seed=seed)
                sizes = {
                    run_two_step(ArrayStream(*poisson_data, block_size=block), EXP, plan, 300).info[
                        "expected_second"
                    ]
                    for block in (65_536, 7000, 1000, 333)
                }
                assert len(sizes) == 1, (criterion, mode, sizes)

    @pytest.mark.parametrize("seed", [5, 11])
    def test_thinned_estimate_same_under_every_block_layout(self, poisson_data, seed):
        # a thinned pass sums p / q over the records it screened in, each
        # term a fixed-point integer as well
        for mode in THRESHOLD_MODES:
            plan = SamplingPlan(criterion="mv", expected_size=1000, threshold_mode=mode, seed=seed)
            with mock.patch.multiple(sampling, THIN_MIN_DIM=0, THIN_MAX_RATE=1.0):
                sizes = {
                    run_two_step(ArrayStream(*poisson_data, block_size=block), EXP, plan, 300).info[
                        "expected_second"
                    ]
                    for block in (65_536, 7000, 1000, 333)
                }
            assert len(sizes) == 1, (mode, sizes)

    def test_thinned_estimate_tracks_the_sum(self, stream, poisson_data):
        # the Horvitz-Thompson sum is unbiased for the sum of p
        x, y = poisson_data
        pilot = run_pilot(stream, EXP, 300, seed=7, criterion="mv")
        plan = SamplingPlan(criterion="mv", expected_size=1000, seed=7)
        rule = resolve_rule(stream, EXP, pilot, plan, 1000.0)
        total = math.fsum(rule.block_probabilities(x, y, EXP))
        with mock.patch.multiple(sampling, THIN_MIN_DIM=0, THIN_MAX_RATE=1.0):
            sizes = [second_pass(stream, EXP, pilot, plan, 1000.0, derive_seed(7, t), rule=rule).expected_size
                     for t in range(40)]
        assert sizes[0] != total
        assert abs(np.mean(sizes) - total) <= 4.0 * np.std(sizes) / np.sqrt(len(sizes))

    def test_within_rounding_of_the_float_sum(self, stream, poisson_data):
        x, y = poisson_data
        pilot = run_pilot(stream, EXP, 300, seed=7, criterion="mv")
        plan = SamplingPlan(criterion="mv", expected_size=1000, seed=7)
        rule = resolve_rule(stream, EXP, pilot, plan, 1000.0)
        sample = second_pass(stream, EXP, pilot, plan, 1000.0, 7, rule=rule)
        p = rule.block_probabilities(x, y, EXP)
        # each record's term is p rounded to a multiple of 2**-32
        assert abs(sample.expected_size - math.fsum(p)) <= x.shape[0] * 2.0**-33


class TestUnbiasedScore:
    """The union weights of ``run_two_step`` make the weighted score unbiased.

    The rule is fixed by one pilot.  Each replicate draws the pilot and the
    second pass with the package's own ``block_mask`` at ``r0/N`` and at the
    rule's ``p2``, keeps their union, and weights it by the union
    probability ``1 - (1 - r0/N)(1 - p2)``.  Over T replicates the mean
    weighted score at a fixed beta must lie within a z-band of the
    full-data score; the Poisson design gives its variance exactly.
    """

    T = 400
    R0, R = 300, 1000.0

    def z_scores(self, stream, poisson_data, criterion, mode, union_weights=True):
        x, y = poisson_data
        n = x.shape[0]
        pilot = run_pilot(stream, EXP, self.R0, 61, criterion)
        plan = SamplingPlan(criterion=criterion, expected_size=self.R, threshold_mode=mode)
        p0 = self.R0 / n
        p2 = resolve_rule(stream, EXP, pilot, plan, self.R).block_probabilities(x, y, EXP)
        union = 1.0 - (1.0 - p0) * (1.0 - p2)
        # score terms at the pilot estimate, away from the full-data root
        psi = x * (y - EXP.mean(x @ pilot.beta0))[:, None]
        weighted = psi / (union if union_weights else p2)[:, None]
        idx = np.arange(n, dtype=np.int64)
        total = np.zeros(x.shape[1])
        for t in range(self.T):
            seed = derive_seed(62, t)
            kept = block_mask(seed, idx, p0, PILOT_STREAM) | block_mask(seed, idx, p2, MAIN_STREAM)
            total += weighted[kept].sum(axis=0)
        variance = (psi**2 * ((1.0 - union) / union)[:, None]).sum(axis=0)
        return (total / self.T - psi.sum(axis=0)) / np.sqrt(variance / self.T)

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    @pytest.mark.parametrize("criterion", ["mv", "mvc"])
    def test_union_weights_unbiased(self, stream, poisson_data, criterion, mode):
        assert np.all(np.abs(self.z_scores(stream, poisson_data, criterion, mode)) <= 4.0)

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_second_pass_weights_alone_are_caught(self, stream, poisson_data, mode):
        # weighting the union by p2 ignores the pilot's share of each record
        z = self.z_scores(stream, poisson_data, "mv", mode, union_weights=False)
        assert np.max(np.abs(z)) > 4.0


@pytest.fixture(scope="module")
def wide_data():
    """s4 records (d = 35): an mv main pass over them at r / N = 0.01 thins."""
    x, y, _ = generate_case(make_spec("s4", 20_000, seed=5))
    assert x.shape[1] >= sampling.THIN_MIN_DIM
    return x, y


ZERO_SCORE_WARNING = (
    "records with zero score receive probability 0 under rho = 0; the optimality premises may be violated"
)


def second_pass_warnings(x, y, pilot, plan, thin=True):
    """Kept indices and warning messages of an mv main pass, thinned or full."""
    floor = sampling.THIN_MIN_DIM if thin else x.shape[1] + 1
    with mock.patch.object(sampling, "THIN_MIN_DIM", floor), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample = second_pass(ArrayStream(x, y), EXP, pilot, plan, plan.expected_size, plan.seed)
    return sample.indices, [str(w.message) for w in caught]


class TestThinnedFailures:
    """A thinned mv pass fails, and warns, as the full pass over the same records does."""

    PLAN = SamplingPlan(criterion="mv", expected_size=200, seed=7)
    RHO0 = SamplingPlan(criterion="mv", expected_size=200, shrinkage=0.0, seed=7)

    def test_screen_follows_dimension_and_rate(self, wide_data):
        x, y = wide_data
        stream = ArrayStream(x, y)
        pilot = run_pilot(stream, EXP, 400, seed=7, criterion="mv")
        n = x.shape[0]
        for r, d, thins in [(200.0, 35, True), (400.0, 35, False), (200.0, 7, False)]:
            plan = SamplingPlan(criterion="mv", expected_size=r, seed=7)
            rule = resolve_rule(stream, EXP, pilot, plan, r)
            assert (r / n <= sampling.THIN_MAX_RATE) == (r == 200.0)
            with mock.patch.object(sampling, "THIN_MIN_DIM", 16 if d == 35 else 36):
                _, exact = rule.screen(x, y, EXP)
            assert (exact is not None) == thins

    @pytest.mark.parametrize("block", [65_536, 1000])
    def test_nan_response_names_its_record(self, wide_data, block):
        x, y = wide_data
        y = y.copy()
        y[12345] = np.nan
        with pytest.raises(ValueError, match=r"^probability outside \[0, 1\] at record 12345$"):
            run_two_step(ArrayStream(x, y, block_size=block), EXP, self.PLAN, 400)

    def test_infinite_covariate_fails_the_linear_predictor(self, wide_data):
        x, y = wide_data
        x = x.copy()
        x[12345, 3] = np.inf
        with pytest.raises(ValueError, match="^linear predictor must be finite$"):
            run_two_step(ArrayStream(x, y), EXP, self.PLAN, 400)

    def test_zero_residual_warns_once_at_rho_zero(self, wide_data):
        x, y = wide_data
        pilot = run_pilot(ArrayStream(x, y), EXP, 400, seed=7, criterion="mv")
        assert second_pass_warnings(x, y, pilot, self.RHO0)[1] == []
        # record 777 is (1, 0, ..., 0) with response mean(beta0[0]), which every
        # kernel computes exactly: its residual, score and bound are zero
        x, y = x.copy(), y.copy()
        x[777] = 0.0
        x[777, 0] = 1.0
        y[777] = EXP.mean(pilot.beta0[:1])[0]
        assert second_pass_warnings(x, y, pilot, self.RHO0)[1] == [ZERO_SCORE_WARNING]

    @pytest.mark.parametrize("scale", [1e-300, 4.5e-162, 1e-155, 1e154])
    def test_extreme_row_warns_as_the_full_pass(self, wide_data, scale):
        # at 4.5e-162, ||x||**2 is subnormal and ||sigma_inv x||**2 underflows
        # to 0: the full pass gives record 777 probability 0 at rho = 0; at
        # 1e154 the row's bound overflows, and the full pass has no bound
        x, y = wide_data
        pilot = run_pilot(ArrayStream(x, y), EXP, 400, seed=7, criterion="mv")
        x = x.copy()
        x[777] = 0.0
        x[777, 0] = scale
        thin = second_pass_warnings(x, y, pilot, self.RHO0)
        full = second_pass_warnings(x, y, pilot, self.RHO0, thin=False)
        np.testing.assert_array_equal(thin[0], full[0])
        assert thin[1] == full[1]
        if scale == 4.5e-162:
            assert full[1] == [ZERO_SCORE_WARNING]

    @pytest.mark.parametrize("rho", [0.0, 0.2])
    def test_tiny_rows_under_a_large_sigma_inv_stay_below_the_bound(self, wide_data, rho):
        # ||x||**2 is subnormal but ||sigma_inv x||**2 is not: the bound
        # computed from ||x|| alone would fall below the exact score
        x, y = wide_data
        pilot = run_pilot(ArrayStream(x, y), EXP, 400, seed=7, criterion="mv")
        pilot = replace(pilot, sigma0_inv=pilot.sigma0_inv * 1e10)
        x = x.copy()
        x[:50] *= np.logspace(-170, -150, 50)[:, None]
        plan = SamplingPlan(criterion="mv", expected_size=200, shrinkage=rho, seed=7)
        rule = ProbabilityRule(pilot=pilot, plan=plan, r=200.0, n_pool=float(x.shape[0]),
                               psi_hat=pilot.psi_hat * 1e10)
        q, exact = rule.screen(x, y, EXP)
        p = exact(np.arange(x.shape[0]))
        assert np.all(p <= q)
        np.testing.assert_array_equal(p, rule.block_probabilities(x, y, EXP))
