import hashlib
import json

import numpy as np
import pytest

from qlsub import cli
from qlsub.families import EXP, IDENTITY
from qlsub.synth import (
    _CASE_TABLE,
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


# sha256 of x and y from generate_case(make_spec(case, 2000, seed=12))
CASE_DIGESTS = {
    "c1": (
        "2291b10d9a3d224a270ebff49bb5681064ab263072bde0904095414663d82cde",
        "71054ca29ec9a991f7d2d8b9af787946b22d033c2ac8066ca21f91df420e9ff2",
    ),
    "c2": (
        "41a2e32c031d7a811cdbb7a20bae1c6819aa3ae6f05fff7b651bfb05a1db8aa0",
        "6a199fe8a1095bd9314b638597f226cdf30e90dcc53864a9dcd035bff9d5b54f",
    ),
    "c3": (
        "7386e681462047a166ebd1fc8d40191b68579941ef295e9fcc65737b46652f49",
        "57e09194daa2f47ebc31c681948feb56d4de0917b2d0d95fff75ab23146a6a4c",
    ),
    "c4": (
        "9818f28efeaca011424d54fffa8d0d29c15b1aa7af7970ffe5b44a8d6b822fe0",
        "d7624c2f5784239156512db9e2174436568a8e6ce841cea01df4c36d3952ced7",
    ),
    "s1": (
        "ec106773a02ae152f50f921752d309f6fa00eff3e208d17b251dfd3386a116e5",
        "7d7fbf0a4f11bd7cd1346a429b6bddcbc761e08affde2539ebfd0ede0d5badbe",
    ),
    "s2": (
        "0e5c68ab1ef0c26273279c4b6367bb4865b10821320eabb01dfe1cca5565c367",
        "4a32422efa1642f3163e8914cd2f55e56474eaa912a11ef2084ea774df0f48aa",
    ),
    "s3": (
        "85c07d49dd78a8e47d227a4e358fb8ceea3caad588a41b6d5417f88dc49d5230",
        "b70f21db869fa9e97161c4a33681fc09c6cbcae11c1616ece535adef6757d90c",
    ),
    "s4": (
        "b12b028e31f07d7714198996b5443a84bf1af0ff62c0eb4e2d225bd81599abea",
        "0a35452136cdab2e430a2123c223586698d2257f350980623aea01e6a04ec24c",
    ),
    "s5": (
        "29dadb0811471c4d1a030da97cd387b778e413c6ad8a50d23412f90c6970d01e",
        "8f6c749d5bb06c39a62c73808cc32fc16dc89f785a131a98ab263c5f8357e6bd",
    ),
}
# sha256 of each file of gen-data --case c1 --n 10000 --seed 13, in one file and in three
GEN_DATA_DIGESTS = {
    1: ["21039ebd95230207c96f08e137475362574f86811907fd0ebdc24002674a84af"],
    3: [
        "3db9c2c58f245563f84a3c7c72da723fa3debed75a9f2ec6bd9a2cd7917f2624",
        "9d3b6aaa12d1917313136c951c7b0d7050b9f1c39733ee8f0c1f7ce7aacd1ec1",
        "5a9abc634d33c4f6c34f4ce813a5b3c9905f043bc751cc5d62b278a321c1b0ce",
    ],
}


class TestPinnedBits:
    """The generators and the CSV writer give fixed bits and bytes for fixed seeds."""

    def test_every_case_table_entry_is_pinned(self):
        assert set(CASE_DIGESTS) == set(_CASE_TABLE)

    @pytest.mark.parametrize("case", sorted(CASE_DIGESTS))
    def test_generate_case(self, case):
        x, y, _ = generate_case(make_spec(case, 2000, seed=12))
        got = (hashlib.sha256(x.tobytes()).hexdigest(), hashlib.sha256(y.tobytes()).hexdigest())
        assert got == CASE_DIGESTS[case]

    @pytest.mark.parametrize("files", sorted(GEN_DATA_DIGESTS))
    def test_gen_data_bytes(self, tmp_path, files):
        out = tmp_path / "c1.csv"
        argv = ["gen-data", "--case", "c1", "--n", "10000", "--seed", "13", "--out", str(out), "--files", str(files)]
        assert cli.main(argv) == 0
        paths = [out] if files == 1 else [tmp_path / f"c1.part{j}.csv" for j in range(files)]
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == GEN_DATA_DIGESTS[files]


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
