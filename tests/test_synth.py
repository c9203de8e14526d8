import json

import numpy as np
import pytest

from qlsub.families import EXP, IDENTITY
from qlsub.synth import (
    full_qle,
    generate_case,
    make_spec,
    replicate,
    run_replications,
    timing_study,
    write_case_csv,
)

from _oracles import weighted_least_squares


class TestCaseSpecs:
    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            make_spec("c9")

    def test_dimensions(self):
        assert make_spec("c1").dim == 7
        assert make_spec("s4").dim == 35
        assert make_spec("s5").dim == 140
        s4 = make_spec("s4")
        np.testing.assert_array_equal(
            s4.beta_true, np.concatenate([np.full(10, 0.5), np.full(20, 0.2), np.full(5, -0.1)])
        )


class TestGeneration:
    def test_case1_support(self):
        x, _, _ = generate_case(make_spec("c1", 5000, seed=1))
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_case2_correlation(self):
        x, _, _ = generate_case(make_spec("c2", 50_000, seed=2))
        corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(corr - 0.5) <= 0.05

    def test_case3_correlation(self):
        x, _, _ = generate_case(make_spec("c3", 50_000, seed=3))
        corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(corr - 0.8) <= 0.05

    def test_case4_supports(self):
        x, _, _ = generate_case(make_spec("c4", 20_000, seed=4))
        assert x[:, 5].min() < -0.5 and x[:, 6].min() < -0.5
        assert x[:, 0].min() >= 0.0

    def test_s2_autoregressive_covariance(self):
        x, _, _ = generate_case(make_spec("s2", 100_000, seed=5))
        corr = np.corrcoef(x.T)
        for lag in (1, 2, 3):
            got = np.mean([corr[i, i + lag] for i in range(7 - lag)])
            assert abs(got - 0.5**lag) <= 0.03

    def test_s3_scaled_t_moments(self):
        x, _, _ = generate_case(make_spec("s3", 100_000, seed=6))
        assert abs(x.mean() - 0.015) <= 0.002
        # t9 shape: sd = sqrt(9/7)/10 per coordinate
        assert abs(x.std() - np.sqrt(9 / 7) / 10) <= 0.01

    def test_poisson_responses_match_conditional_mean(self):
        spec = make_spec("c1", 200_000, seed=7)
        x, y, _ = generate_case(spec)
        np.testing.assert_allclose(
            y.mean(), np.exp(x @ spec.beta_true).mean(), rtol=0.01
        )

    def test_determinism_byte_identical_files(self, tmp_path):
        spec = make_spec("c1", 500, seed=8)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_case_csv(spec, str(a))
        write_case_csv(spec, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_multi_file_layout_with_sidecar(self, tmp_path):
        spec = make_spec("s5", 200, seed=9)
        paths = write_case_csv(spec, str(tmp_path / "s5.csv"), n_files=5)
        assert len(paths) == 5
        total = sum(np.loadtxt(p, delimiter=",", ndmin=2).shape[0] for p in paths)
        assert total == 200
        meta = json.loads((tmp_path / "s5.meta.json").read_text())
        assert meta["dim"] == 140 and meta["seed"] == 9


class TestFullQle:
    def test_identity_is_ols(self):
        rng = np.random.default_rng(10)
        x = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
        y = x @ np.array([1.0, 2.0, -1.0]) + rng.normal(size=100)
        fit = full_qle(x, y, IDENTITY)
        np.testing.assert_allclose(
            fit.beta, weighted_least_squares(x, y, np.ones(100)), atol=1e-10
        )

    def test_intercept_only_exp(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        fit = full_qle(np.ones((4, 1)), y, EXP)
        assert fit.beta[0] == pytest.approx(np.log(3.0), abs=1e-10)

    def test_consistency_at_scale(self):
        spec = make_spec("c1", 500_000, seed=7)
        x, y, _ = generate_case(spec)
        fit = full_qle(x, y, EXP)
        assert np.linalg.norm(fit.beta - spec.beta_true) <= 0.02


@pytest.fixture(scope="module")
def small_case():
    spec = make_spec("c1", 10_000, seed=11)
    x, y, _ = generate_case(spec)
    return x, y, full_qle(x, y, EXP).beta


class TestReplications:
    def test_single_replication_mse(self, small_case):
        x, y, ref = small_case
        reports = run_replications(
            x, y, EXP, ["uniform"], r=300, r0=100, t=1, seed=1, reference=ref
        )
        batch = replicate(x, y, EXP, "uniform", r=300, r0=100, t=1, seed=1)
        expected = float(np.sum((batch.betas[0] - ref) ** 2))
        assert reports[0].mse == pytest.approx(expected, rel=1e-12)

    def test_rho_one_matches_uniform_exactly(self, small_case):
        x, y, ref = small_case
        a = replicate(x, y, EXP, "mv", r=300, r0=100, rho=1.0, t=5, seed=2)
        b = replicate(x, y, EXP, "uniform", r=300, r0=100, t=5, seed=2)
        np.testing.assert_array_equal(a.betas, b.betas)

    def test_coverage_fields_populated(self, small_case):
        x, y, ref = small_case
        reports = run_replications(
            x,
            y,
            EXP,
            ["mvc"],
            r=400,
            r0=100,
            t=20,
            seed=3,
            reference=ref,
            coverage_index=1,
        )
        assert 0.0 <= reports[0].coverage <= 1.0
        assert reports[0].avg_ci_length > 0

    def test_rho_sweep_shape(self, small_case):
        # experiment --rho-grid sweeps rho with one run_replications call per value
        x, y, ref = small_case
        reports = [
            rep
            for rho in (0.2, 0.8)
            for rep in run_replications(
                x, y, EXP, ["mvc"], r=300, r0=100, rho=rho, t=5, seed=4, reference=ref
            )
        ]
        assert [rep.rho for rep in reports] == [0.2, 0.8]

    def test_timing_requires_repeats(self, small_case):
        x, y, _ = small_case
        with pytest.raises(ValueError):
            timing_study(x, y, EXP, ["uniform"], [300], repeats=2)

    def test_timing_rows(self, small_case):
        x, y, _ = small_case
        rows = timing_study(x, y, EXP, ["uniform"], [200], repeats=3, r0=100)
        assert [row.method for row in rows] == ["uniform", "full_qle"]
        assert all(row.median_seconds > 0 for row in rows)
