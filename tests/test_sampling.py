import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlsub.errors import ConfigError, DegenerateScores
from qlsub.families import EXP, IDENTITY
from qlsub.pipeline import ProbabilityRule
from qlsub.rng import MAIN_STREAM, PILOT_STREAM, uniforms
from qlsub.sampling import (
    CHUNK_TILES,
    TILE_ROWS,
    SamplingPlan,
    block_mask,
    record_scores,
    shrinkage_probability,
    threshold_quantile,
    waterfill,
)

from _oracles import optimal_probabilities, uniform_one

# numpy warns when a uint64 scalar overflows, as the counter hash would if
# its arithmetic left its arrays
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

positive_scores = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=4, max_size=12
)


def _score(x, y, beta):
    """mvc score of one record through the block scorer."""
    return float(record_scores(np.atleast_2d(x), np.atleast_1d(y), IDENTITY, beta)[0])


class TestScores:
    def test_mvc_arithmetic(self):
        # residual 1 at beta'(3,4) = 1, covariate norm 5
        val = _score(np.array([3.0, 4.0]), 2.0, np.array([1 / 3, 0.0]))
        assert val == pytest.approx(5.0, rel=1e-12)

    def test_zero_residual_zero_score(self):
        assert _score(np.array([1.0, 1.0]), 2.0, np.array([1.0, 1.0])) == 0.0

    def test_scaling_in_covariate_norm(self):
        x = np.array([1.0, 2.0])
        beta = np.zeros(2)
        a = _score(x, 1.5, beta)
        b = _score(3.0 * x, 1.5, beta)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_mv_identity_matrix_equals_mvc(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        beta = rng.normal(size=3) * 0.1
        np.testing.assert_array_equal(
            record_scores(x, y, IDENTITY, beta, np.eye(3)),
            record_scores(x, y, IDENTITY, beta),
        )

    def test_mv_identity_matrix_equals_mvc_on_c4_width(self):
        # d = 7 takes the fused product; whole tiles, a whole chunk and partial tiles
        rng = np.random.default_rng(7)
        n = CHUNK_TILES * TILE_ROWS + TILE_ROWS + 40
        x = rng.normal(size=(n, 7))
        y = rng.normal(size=n)
        beta = rng.normal(size=7) * 0.1
        for offset in (0, 13):
            np.testing.assert_array_equal(
                record_scores(x, y, IDENTITY, beta, np.eye(7), offset),
                record_scores(x, y, IDENTITY, beta, offset=offset),
            )

    def test_mv_scales_with_matrix(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        beta = np.zeros(2)
        np.testing.assert_allclose(
            record_scores(x, y, IDENTITY, beta, 2.0 * np.eye(2)),
            2.0 * record_scores(x, y, IDENTITY, beta),
            rtol=1e-12,
        )

    def test_inputs_left_unchanged(self):
        # the residual arithmetic runs in place on arrays the scorer owns
        rng = np.random.default_rng(2)
        x = rng.normal(size=(700, 3))
        y = rng.poisson(2.0, size=700).astype(np.float64)
        x0, y0 = x.copy(), y.copy()
        for sigma_inv in (None, np.eye(3)):
            record_scores(x, y, EXP, np.full(3, 0.1), sigma_inv, offset=300)
            np.testing.assert_array_equal(x, x0)
            np.testing.assert_array_equal(y, y0)


class TestWaterfill:
    def test_equal_scores_uniform_allocation(self):
        cap, k = waterfill([1.0, 1.0, 1.0, 1.0], 2.0)
        assert (cap, k) == (2.0, 0)
        np.testing.assert_allclose(
            optimal_probabilities([1, 1, 1, 1], 2.0, cap), [0.5] * 4
        )

    def test_one_dominant_score(self):
        cap, k = waterfill([1.0, 1.0, 1.0, 9.0], 2.0)
        assert k == 1
        assert cap == pytest.approx(3.0, abs=0)
        p = optimal_probabilities([1.0, 1.0, 1.0, 9.0], 2.0, cap)
        np.testing.assert_allclose(p, [1 / 3, 1 / 3, 1 / 3, 1.0])
        assert p.sum() == pytest.approx(2.0, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(scores=positive_scores, r=st.integers(min_value=1, max_value=3))
    def test_threshold_inequalities_hold_verbatim(self, scores, r):
        # the defining pair: (r-k+1) h_(n-k+1) >= prefix sum and
        # (r-k) h_(n-k) < prefix sum
        s = np.asarray(scores)
        if r >= s.size:
            r = s.size - 1
        cap, k = waterfill(s, float(r))
        ordered = np.sort(s)
        n = s.size
        prefix = ordered[: n - k].sum()
        assert (r - k) * ordered[n - k - 1] < prefix
        if k >= 1:
            prev_prefix = ordered[: n - k + 1].sum()
            assert (r - k + 1) * ordered[n - k] >= prev_prefix
        # cap bracket from the defining chain
        assert ordered[n - k - 1] < cap <= (ordered[n - k] if k >= 1 else np.inf)

    @settings(max_examples=100, deadline=None)
    @given(scores=positive_scores, r=st.integers(min_value=1, max_value=3))
    def test_probability_mass_and_caps(self, scores, r):
        s = np.asarray(scores)
        if r >= s.size:
            r = s.size - 1
        cap, k = waterfill(s, float(r))
        p = optimal_probabilities(s, float(r), cap)
        assert abs(p.sum() - r) <= 1e-9 * r
        assert p.max() <= 1.0
        assert (p.max() == 1.0) == (k >= 1)
        # allocation preserves score order
        order = np.argsort(s)
        assert np.all(np.diff(p[order]) >= -1e-12)

    def test_degenerate_scores_rejected(self):
        with pytest.raises(DegenerateScores):
            waterfill([0.0, 0.0, 0.0, 1.0], 2.0)

    def test_r_must_be_below_n(self):
        with pytest.raises(ValueError):
            waterfill([1.0, 2.0], 2.0)

    def test_proportional_when_uncapped(self):
        p = optimal_probabilities([1.0, 3.0], 1.0, math.inf)
        np.testing.assert_allclose(p, [0.25, 0.75])

    def test_all_zero_scores_rejected(self):
        with pytest.raises(DegenerateScores):
            optimal_probabilities([0.0, 0.0], 1.0, math.inf)


class TestThresholdQuantile:
    def test_midpoint_convention(self):
        # level exactly 0.5 on four points
        assert threshold_quantile([1.0, 2.0, 3.0, 4.0], 4.0, 4.0) == pytest.approx(2.5)

    def test_boundary_levels(self):
        assert threshold_quantile([1.0, 2.0, 3.0], 10.0, 1.0) == 1.0  # level <= 0
        assert threshold_quantile([1.0, 2.0, 3.0], 0.0, 5.0) == 3.0  # level >= 1

    def test_matches_numpy_quantile_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for case in range(3000):
            size = int(rng.integers(1, 300))
            s = rng.exponential(size=size) * np.exp(3.0 * rng.normal(size=size))
            if case % 4 == 0:
                s = np.round(s, 1)  # ties
            r = float(rng.uniform(0.01, 3.0 * size))
            n = float(rng.uniform(1.0, 10.0 * size))
            level = min(max(1.0 - r / (2.0 * n), 0.0), 1.0)
            want = np.float64(np.quantile(s, level))
            got = np.float64(threshold_quantile(s, r, n))
            assert got.view(np.uint64) == want.view(np.uint64), (size, r, n)


class TestShrinkage:
    def _ctx(self, psi=1.0, n=100.0, cap=math.inf):
        plan = SamplingPlan(expected_size=10.0)
        return ProbabilityRule(pilot=None, plan=plan, r=10.0, n_pool=n, psi_hat=psi, cap=cap)

    def test_pure_uniform_endpoint(self):
        ctx = self._ctx()
        assert shrinkage_probability(ctx, 123.4, 10.0, 1.0) == pytest.approx(0.1, abs=0)

    def test_direct_arithmetic(self):
        ctx = self._ctx()
        assert shrinkage_probability(ctx, 2.0, 10.0, 0.2) == pytest.approx(0.18)

    def test_floor_at_zero_score(self):
        ctx = self._ctx()
        assert shrinkage_probability(ctx, 0.0, 10.0, 0.3) == pytest.approx(0.03, abs=0)

    @settings(max_examples=100)
    @given(
        score=st.floats(min_value=0, max_value=1e6),
        rho=st.floats(min_value=0, max_value=1),
    )
    def test_floor_never_violated(self, score, rho):
        ctx = self._ctx()
        val = shrinkage_probability(ctx, score, 10.0, rho)
        assert val >= rho * 10.0 / 100.0

    def test_monotone_in_score(self):
        ctx = self._ctx()
        grid = np.linspace(0, 50, 200)
        vals = shrinkage_probability(ctx, grid, 10.0, 0.2)
        assert np.all(np.diff(vals) >= 0)

    def test_cap_applies_to_score(self):
        ctx = self._ctx(cap=2.0)
        assert shrinkage_probability(ctx, 100.0, 10.0, 0.2) == shrinkage_probability(
            ctx, 2.0, 10.0, 0.2
        )

    def test_psi_must_be_positive(self):
        with pytest.raises(ConfigError):
            ProbabilityRule(pilot=None, plan=SamplingPlan(), r=10.0, n_pool=10.0, psi_hat=0.0)

    def test_rule_caps_the_blend_at_one(self):
        ctx = self._ctx(psi=0.01)
        scores = np.array([0.0, 0.05, 1.0, 1e6])
        want = np.minimum(shrinkage_probability(ctx, scores, 10.0, 0.2), 1.0)
        np.testing.assert_array_equal(ctx.probabilities(scores), want)
        assert ctx.probabilities(scores)[-1] == 1.0


class TestPoissonDraw:
    def test_certain_inclusion_returns_everything(self):
        assert block_mask(1, np.arange(50), np.ones(50)).all()

    def test_zero_probability_returns_nothing(self):
        assert not block_mask(1, np.arange(50), np.zeros(50)).any()

    def test_invalid_probability_identifies_record(self):
        probs = np.where(np.arange(10) == 3, 1.5, 0.5)
        with pytest.raises(ValueError, match="record 3"):
            block_mask(1, np.arange(10), probs)

    def test_block_mask_matches_streaming_draw(self):
        # each decision is the record-at-a-time draw u(seed, i) < p_i
        n = 2000
        probs = np.random.default_rng(3).uniform(0, 1, n)
        mask = block_mask(9, np.arange(n), probs, MAIN_STREAM)
        drawn = [uniform_one(9, i, MAIN_STREAM) < probs[i] for i in range(n)]
        np.testing.assert_array_equal(mask, drawn)

    def test_binomial_concentration(self):
        # realized sizes within 3 sigma of the mean for 50 of 50 seeds is
        # within the >= 99% contract
        n, p = 100_000, 0.3
        sigma = math.sqrt(n * p * (1 - p))
        idx = np.arange(n)
        hits = 0
        for seed in range(50):
            size = int(block_mask(seed, idx, np.full(n, p)).sum())
            hits += abs(size - n * p) <= 3 * sigma
        assert hits >= 49

    def test_block_mask_flags_bad_probability(self):
        with pytest.raises(ValueError, match="record 7"):
            block_mask(1, np.arange(10), np.where(np.arange(10) == 7, -0.1, 0.5))

    def test_decision_depends_only_on_seed_index_probability(self):
        idx = np.arange(1000)
        probs = np.random.default_rng(1).uniform(0, 1, 1000)
        full = block_mask(4, idx, probs)
        split = np.concatenate(
            [block_mask(4, idx[:123], probs[:123]), block_mask(4, idx[123:], probs[123:])]
        )
        np.testing.assert_array_equal(full, split)

    # the pilot passes one float for a whole block in place of a per-record array
    FLOAT_PROBS = [
        0.0, 1.0, 5e-324, 1e-300, 2.0**-53, 3 * 2.0**-54, math.nextafter(1.0, 0.0), 0.004,
        *np.random.default_rng(15).uniform(0, 1, 50).tolist(),
    ]

    @pytest.mark.parametrize("stream", [PILOT_STREAM, MAIN_STREAM])
    def test_float_probability_matches_per_record_array(self, stream):
        idx = np.arange(200_000)
        u = uniforms(21, idx, stream)
        # probabilities at and next to drawn variates put a record on the threshold
        edges = [q for v in u[:20].tolist() for q in (v, math.nextafter(v, 0.0), math.nextafter(v, 1.0))]
        for p in self.FLOAT_PROBS + edges:
            np.testing.assert_array_equal(
                block_mask(21, idx, p, stream), block_mask(21, idx, np.full(idx.size, p), stream), err_msg=f"p = {p!r}"
            )

    @pytest.mark.parametrize("stream", [PILOT_STREAM, MAIN_STREAM])
    def test_index_range_matches_index_array(self, stream):
        # _scan passes a block's index range; the thinned draw an int64 array
        idx = range(70_000, 90_000)
        arr = np.arange(70_000, 90_000, dtype=np.int64)
        u = uniforms(21, arr, stream)
        per_record = np.random.default_rng(4).uniform(0, 1, len(idx))
        per_record[:20] = u[:20]  # records on the threshold
        for p in [0.0, 1.0, 0.004, float(u[0]), per_record]:
            got = block_mask(21, idx, p, stream)
            np.testing.assert_array_equal(got, block_mask(21, arr, p, stream))
            np.testing.assert_array_equal(got, u < p)

    @pytest.mark.parametrize("p", [-0.0001, 1.0000000000000002, math.inf, math.nan])
    def test_float_probability_outside_unit_interval_names_first_record(self, p):
        with pytest.raises(ValueError, match=r"probability outside \[0, 1\] at record 17$"):
            block_mask(1, np.arange(17, 30), p)


class TestSamplingPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplingPlan(criterion="leverage")
        with pytest.raises(ConfigError):
            SamplingPlan(expected_size=-5)
        with pytest.raises(ConfigError):
            SamplingPlan(shrinkage=1.5)
        with pytest.raises(ConfigError):
            SamplingPlan(threshold_mode="median")

    def test_defaults_mirror_experiments(self):
        plan = SamplingPlan()
        assert plan.criterion == "mvc"
        assert plan.shrinkage == 0.2
        assert plan.threshold_mode == "inf"

