import math

import numpy as np
import pytest

from qlsub import estimator
from qlsub.errors import EmptySample, SingularHessian
from qlsub.estimator import (
    sandwich_variance,
    solve_weighted_qle,
    subsample_hessian,
    vc_contribution,
)
from qlsub.families import EXP, IDENTITY, LOGISTIC
from qlsub.sampling import record_scores, waterfill
from qlsub.synth import generate_case, make_spec

from _oracles import (
    full_data_variance,
    newton_reference,
    optimal_probabilities,
    weighted_least_squares,
    weighted_score,
)


def _random_instance(rng, n=60, d=4):
    x = np.column_stack([np.ones(n), rng.uniform(-1, 1, (n, d - 1))])
    beta = rng.normal(0, 0.5, d)
    y = x @ beta + rng.normal(0, 0.3, n)
    p = rng.uniform(0.2, 1.0, n)
    return x, y, p


class TestSolver:
    def test_identity_matches_wls_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x, y, p = _random_instance(rng)
            fit = solve_weighted_qle(x, y, IDENTITY, p=p, tol=1e-12)
            oracle = weighted_least_squares(x, y, 1.0 / p)
            np.testing.assert_allclose(fit.beta, oracle, atol=1e-10)

    def test_intercept_only_exp_is_log_mean(self):
        x = np.ones((2, 1))
        y = np.array([2.0, 4.0])
        fit = solve_weighted_qle(x, y, EXP)
        assert fit.beta[0] == pytest.approx(math.log(3.0), abs=1e-10)

    def test_full_inclusion_equals_unweighted_fit(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (200, 3))
        y = rng.poisson(np.exp(x @ np.array([0.4, 0.2, 0.1]))).astype(float)
        a = solve_weighted_qle(x, y, EXP, p=np.ones(200))
        b = solve_weighted_qle(x, y, EXP)
        np.testing.assert_array_equal(a.beta, b.beta)

    def test_score_norm_below_stopping_rule(self):
        rng = np.random.default_rng(3)
        x, y, p = _random_instance(rng)
        tol = 1e-9
        fit = solve_weighted_qle(x, y, IDENTITY, p=p, tol=tol)
        score = weighted_score(x, y, IDENTITY, fit.beta, p=p)
        assert np.max(np.abs(score)) <= tol * (1.0 + np.sum(1.0 / p))

    def test_weight_invariance_under_constant_rescale(self):
        # halving every inclusion probability scales the score by 2 but
        # leaves the root unchanged
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (300, 3))
        y = rng.poisson(np.exp(x @ np.array([0.4, 0.2, 0.1]))).astype(float)
        p = rng.uniform(0.5, 1.0, 300)
        a = solve_weighted_qle(x, y, EXP, p=p, tol=1e-12)
        b = solve_weighted_qle(x, y, EXP, p=0.5 * p, tol=1e-12)
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-8)

    def test_newton_converges_quickly_from_zero(self):
        spec = make_spec("c1", 10_000, seed=9)
        x, y, _ = generate_case(spec)
        fit = solve_weighted_qle(x, y, EXP)
        assert fit.converged
        assert fit.iterations <= 25

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            solve_weighted_qle(np.empty((0, 2)), np.empty(0), EXP)

    def test_singular_design_raises_with_condition(self):
        x = np.ones((30, 2))  # identical columns
        y = np.arange(30.0)
        with pytest.raises(SingularHessian) as err:
            solve_weighted_qle(x, y, IDENTITY)
        assert err.value.condition > 1e12

    def test_ridge_rescues_singular_design(self):
        x = np.ones((30, 2))
        y = np.arange(30.0)
        fit = solve_weighted_qle(x, y, IDENTITY, ridge=1e-6)
        assert fit.converged

    def test_newton_matrix_matches_score_jacobian(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (40, 3))
        y = rng.poisson(np.exp(0.3 * x.sum(axis=1))).astype(float)
        p = rng.uniform(0.3, 1.0, 40)
        beta = np.array([0.1, -0.2, 0.3])
        newton = subsample_hessian(x, EXP, beta, p=p, scale=1)
        h = 1e-6
        jac = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            jac[:, j] = (
                weighted_score(x, y, EXP, beta + e, p=p)
                - weighted_score(x, y, EXP, beta - e, p=p)
            ) / (2 * h)
        np.testing.assert_allclose(newton, -jac, rtol=1e-5)


def _newton_case(name):
    """A weighted fit of one family; the ``exp`` variants saturate or step-halve."""
    rng = np.random.default_rng(20)
    n = 300
    x = np.column_stack([np.ones(n), rng.uniform(-1, 1, (n, 4))])
    p = rng.uniform(0.05, 1.0, n)
    eta = x @ np.array([0.5, 1.0, -0.7, 0.3, 0.2])
    family, y, init = {
        "identity": (IDENTITY, eta + rng.normal(0, 0.5, n), None),
        "exp": (EXP, rng.poisson(np.exp(eta)).astype(np.float64), None),
        "logistic": (LOGISTIC, (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(np.float64), None),
        # two records start above the clamp, and the fit stops at max_iter
        "exp-saturating": (EXP, rng.poisson(np.exp(eta)).astype(np.float64), np.array([0.0, 710.0, 0.0, 0.0, 0.0])),
        # steep counts: full steps from zero overshoot
        "exp-halving": (EXP, rng.poisson(np.exp(3 * eta)).astype(np.float64), None),
    }[name]
    return x, y, family, p, init


class TestNewtonAgainstReference:
    """The solver's Newton loop gives the textbook loop's bits for every family."""

    @pytest.mark.parametrize("name", ["identity", "exp", "logistic", "exp-saturating", "exp-halving"])
    def test_bit_identical(self, name):
        x, y, family, p, init = _newton_case(name)
        fit = solve_weighted_qle(x, y, family, p=p, init=init)
        ref = newton_reference(x, y, family, p=p, init=init)
        np.testing.assert_array_equal(fit.beta.view(np.uint64), ref.beta.view(np.uint64))
        np.testing.assert_array_equal(fit.hessian.view(np.uint64), ref.newton.view(np.uint64))
        assert (fit.iterations, fit.converged, fit.saturated) == (ref.iterations, ref.converged, ref.saturated)
        assert fit.saturated == (name == "exp-saturating")
        assert (ref.halvings > 0) == (name in ("exp", "exp-halving"))
        if name == "exp-halving":
            assert ref.halvings >= 5 and fit.converged


class TestScore:
    def test_single_observation_arithmetic(self):
        score = weighted_score(
            np.array([[2.0]]), np.array([5.0]), IDENTITY, np.array([1.0]), p=np.array([0.5])
        )
        assert score[0] == pytest.approx(12.0, abs=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_score(np.ones((3, 2)), np.ones(3), IDENTITY, np.ones(3))


class TestHessian:
    def test_orthonormal_rows_give_identity(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        h = subsample_hessian(x, IDENTITY, np.zeros(2), p=np.full(2, 0.5), scale=2)
        np.testing.assert_array_equal(h, np.eye(2))

    def test_exp_at_zero_equals_identity_family(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 3))
        p = rng.uniform(0.2, 1, 20)
        a = subsample_hessian(x, EXP, np.zeros(3), p=p, scale=5)
        b = subsample_hessian(x, IDENTITY, np.zeros(3), p=p, scale=5)
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_full_data_form_is_average_curvature(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (50, 3))
        beta = np.array([0.2, 0.1, -0.3])
        h = subsample_hessian(x, EXP, beta, scale=50)
        w = EXP.mean_derivative(x @ beta)
        np.testing.assert_allclose(h, (x * w[:, None]).T @ x / 50, rtol=1e-14)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 4))
        p = rng.uniform(0.1, 1, 30)
        h = subsample_hessian(x, EXP, rng.normal(size=4) * 0.1, p=p, scale=30)
        assert np.array_equal(h, h.T)
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= -1e-10 * np.trace(h)


class TestSandwich:
    def test_full_inclusion_gives_zero(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        v = sandwich_variance(
            [(x, y, np.ones(25), np.zeros(3))], IDENTITY, np.eye(3), 25
        )
        np.testing.assert_array_equal(v, np.zeros((3, 3)))

    def test_single_observation_arithmetic(self):
        # residual 2, p = 0.5: meat = 4 * 0.5 / 0.25 = 8 with unit bread
        x = np.array([[1.0]])
        y = np.array([2.0])
        v = sandwich_variance(
            [(x, y, np.array([0.5]), np.array([0.0]))], IDENTITY, np.eye(1), 1
        )
        assert v[0, 0] == pytest.approx(8.0, abs=0)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        p = rng.uniform(0.05, 0.9, 40)
        bread = subsample_hessian(x, IDENTITY, np.zeros(3), p=p, scale=40)
        v = sandwich_variance([(x, y, p, np.zeros(3))], IDENTITY, bread, 40)
        assert np.array_equal(v, v.T)
        assert np.linalg.eigvalsh(v).min() >= -1e-12 * np.trace(v)

    def test_singular_bread_raises(self):
        with pytest.raises(SingularHessian):
            sandwich_variance(
                [(np.ones((2, 2)), np.ones(2), np.full(2, 0.5), np.zeros(2))],
                IDENTITY,
                np.zeros((2, 2)),
                2,
            )

    def test_vc_contribution_zero_when_certain(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        vc = vc_contribution(x, np.ones(10), IDENTITY, np.zeros(2), np.ones(10))
        np.testing.assert_array_equal(vc, np.zeros((2, 2)))


class TestFullDataVariance:
    def test_certain_inclusion_is_exactly_zero(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (30, 3))
        y = rng.poisson(np.exp(x.sum(axis=1) * 0.3)).astype(float)
        beta = solve_weighted_qle(x, y, EXP).beta
        v = full_data_variance(x, y, EXP, beta, np.ones(30))
        np.testing.assert_array_equal(v, np.zeros((3, 3)))

    def test_two_point_hand_computation(self):
        # identity family, beta = 0: V_c = sum resid^2 x x' (1/p - 1)/N^2,
        # bread = mean xx'
        x = np.array([[1.0], [2.0]])
        y = np.array([1.0, -1.0])
        p = np.array([0.5, 0.25])
        bread = (1.0 * 1.0 + 2.0 * 2.0) / 2.0
        meat = (1.0 * 1.0 * (2.0 - 1.0) + 1.0 * 4.0 * (4.0 - 1.0)) / 4.0
        expected = meat / bread**2
        v = full_data_variance(x, y, IDENTITY, np.array([0.0]), p)
        assert v[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_optimal_probabilities_minimize_trace(self):
        # the capped-proportional allocation beats uniform on tr(V)
        rng = np.random.default_rng(12)
        for _ in range(10):
            n, r = 40, 8.0
            x = rng.uniform(0.1, 1, (n, 2))
            y = rng.poisson(np.exp(x @ np.array([0.5, 0.5]))).astype(float)
            beta = solve_weighted_qle(x, y, EXP).beta
            sigma_inv = np.linalg.inv(subsample_hessian(x, EXP, beta, scale=n))
            scores = record_scores(x, y, EXP, beta, sigma_inv)
            if np.count_nonzero(scores > 0) <= r:
                continue
            cap, _ = waterfill(scores, r)
            p_opt = optimal_probabilities(scores, r, cap)
            p_opt = np.clip(p_opt, 1e-12, 1.0)
            tr_opt = np.trace(full_data_variance(x, y, EXP, beta, p_opt))
            tr_unif = np.trace(full_data_variance(x, y, EXP, beta, np.full(n, r / n)))
            assert tr_opt <= tr_unif * (1 + 1e-9)



class TestSingularityGuard:
    """The numpy guard against LAPACK's ``dpocon`` on random SPD matrices.

    ``dpocon`` estimates ``||a^-1||_1`` from below, so its reciprocal
    condition number is at or above the exact one the guard computes, up to
    rounding; the estimate is usually within a factor of 3.
    """

    @staticmethod
    def _spd(rng, d, cond):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        a = (q * np.logspace(0.0, -math.log10(cond), d)) @ q.T
        return 0.5 * (a + a.T)

    def test_rcond_matches_lapack_estimate(self, monkeypatch):
        from scipy.linalg import cho_factor
        from scipy.linalg.lapack import dpocon

        rng = np.random.default_rng(6)
        exact, lapack, singular = [], [], []
        for d in (2, 7, 35):
            for cond in np.logspace(2, 15, 14):
                for _ in range(72):
                    a = self._spd(rng, d, cond)
                    rcond, info = dpocon(cho_factor(a)[0], np.linalg.norm(a, 1))
                    assert info == 0
                    with monkeypatch.context() as m:
                        m.setattr(estimator, "RCOND_MIN", math.inf)
                        with pytest.raises(SingularHessian) as err:
                            estimator._spd_inverse(a)
                    try:
                        estimator._spd_inverse(a)
                        singular.append(False)
                    except SingularHessian:
                        singular.append(True)
                    exact.append(1.0 / err.value.condition)
                    lapack.append(rcond)
        exact, lapack, singular = np.array(exact), np.array(lapack), np.array(singular)
        ratio = lapack / exact
        assert ratio.min() >= 0.8
        assert ratio.max() <= 10.0
        assert np.mean(ratio <= 3.0) >= 0.99
        assert np.array_equal(singular, exact < estimator.RCOND_MIN)
        # the verdicts differ only where the estimate sits just above the bound
        near = (lapack >= estimator.RCOND_MIN) & (lapack < 10.0 * estimator.RCOND_MIN)
        assert np.all((singular == (lapack < estimator.RCOND_MIN)) | near)

    @pytest.mark.parametrize(
        "a",
        [np.array([[1.0, np.nan], [np.nan, 1.0]]), np.diag([np.inf, 1.0]), -np.eye(2)],
        ids=["nan", "inf", "negative-definite"],
    )
    def test_unusable_matrix_is_singular(self, a):
        with pytest.raises(SingularHessian) as err:
            estimator._spd_inverse(a)
        assert err.value.condition == math.inf
