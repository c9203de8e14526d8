import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import qlsub
from qlsub.cli import main
from qlsub.synth import make_spec, write_case_csv


@pytest.fixture(scope="module")
def case_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path = root / "case1.csv"
    write_case_csv(make_spec("c1", 8000, seed=3), str(path))
    return str(path)


def _fit_args(case_csv, out, extra=()):
    return [
        "fit",
        "--data",
        case_csv,
        "--criterion",
        "mv",
        "--r",
        "800",
        "--r0",
        "200",
        "--rho",
        "0.2",
        "--seed",
        "7",
        "--out",
        out,
        *extra,
    ]


class TestExitCodes:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--nonsense"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_exits_three(self, tmp_path):
        code = main(
            ["fit-full", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.json")]
        )
        assert code == 3

    def test_numerical_failure_exits_four(self, tmp_path):
        # collinear design: singular Newton system
        table = np.column_stack([np.arange(50.0), np.ones(50), np.ones(50) * 2.0])
        path = tmp_path / "collinear.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",")
        code = main(
            [
                "fit-full",
                "--data",
                str(path),
                "--family",
                "identity",
                "--out",
                str(tmp_path / "o.json"),
            ]
        )
        assert code == 4

    def test_bad_plan_exits_two(self, case_csv, tmp_path):
        code = main(_fit_args(case_csv, str(tmp_path / "o.json"), ["--rho", "2.0"]))
        assert code == 2

    def test_size_above_shard_exits_two(self, tmp_path, capsys):
        # default --r 1000 against four shards of 500 records
        path = tmp_path / "small.csv"
        write_case_csv(make_spec("c1", 2000, seed=3), str(path))
        out = tmp_path / "o.json"
        code = main(["fit-distributed", "--data", str(path), "--k", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "expected size 1000.0 is not below the smallest shard's 500 records" in err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--x-cols", "1,2,99"], "covariate column 99 out of range"),
            (["--x-cols", "1,-1"], "covariate column -1 out of range"),
            (["--y-col", "-1"], "response column -1 out of range"),
            (["--y-col", "8"], "response column 8 out of range"),
        ],
    )
    def test_column_out_of_range_exits_three(self, case_csv, tmp_path, capsys, flags, message):
        code = main(_fit_args(case_csv, str(tmp_path / "o.json"), flags))
        err = capsys.readouterr().err
        assert code == 3
        assert "case1.csv" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "lineno, field, value",
        [(500, 0, "nan"), (1234, 3, "inf")],
        ids=["nan-response", "inf-covariate"],
    )
    def test_non_finite_value_exits_three(self, case_csv, tmp_path, capsys, lineno, field, value):
        with open(case_csv) as fh:
            lines = fh.read().splitlines()
        fields = lines[lineno - 1].split(",")
        fields[field] = value
        lines[lineno - 1] = ",".join(fields)
        path = tmp_path / "damaged.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(_fit_args(str(path), str(tmp_path / "o.json")))
        err = capsys.readouterr().err
        assert code == 3
        assert f"damaged.csv:{lineno}: non-finite value" in err
        assert "Traceback" not in err

    def test_non_utf8_byte_exits_three(self, case_csv, tmp_path, capsys):
        lines = Path(case_csv).read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b",", b",\xff", 1)
        path = tmp_path / "latin.csv"
        path.write_bytes(b"".join(lines))
        code = main(["fit-full", "--data", str(path), "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert "latin.csv:2: not UTF-8" in err
        assert "Traceback" not in err


class TestFitDocuments:
    def test_byte_identical_reruns(self, case_csv, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(_fit_args(case_csv, out1)) == 0
        assert main(_fit_args(case_csv, out2)) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_document_contents(self, case_csv, tmp_path):
        out = str(tmp_path / "doc.json")
        assert main(_fit_args(case_csv, out)) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["command"] == "fit"
        assert len(doc["estimate"]) == 7
        assert len(doc["std_errors"]) == 7
        assert doc["ci_level"] == 0.95
        assert doc["converged"] is True
        # resolved defaults embedded for reproducibility
        assert doc["config"]["threshold"] == "inf"
        assert doc["config"]["seed"] == 7
        assert doc["config"]["family"] == "exp"
        np.testing.assert_array_less(doc["ci_lower"], doc["ci_upper"])

    def test_fit_within_full_fit_uncertainty(self, case_csv, tmp_path):
        full_out = str(tmp_path / "full.json")
        fit_out = str(tmp_path / "fit.json")
        assert main(["fit-full", "--data", case_csv, "--out", full_out]) == 0
        assert main(_fit_args(case_csv, fit_out)) == 0
        full = json.loads(Path(full_out).read_text())
        fit = json.loads(Path(fit_out).read_text())
        delta = np.abs(np.array(fit["estimate"]) - np.array(full["estimate"]))
        # within 3 joint standard errors of the subsample fit
        joint = 3 * np.linalg.norm(fit["std_errors"])
        assert np.linalg.norm(delta) <= joint

    def test_fit_distributed_reports_partitions(self, case_csv, tmp_path):
        out = str(tmp_path / "dist.json")
        code = main(
            [
                "fit-distributed",
                "--data",
                case_csv,
                "--k",
                "4",
                "--r",
                "600",
                "--seed",
                "5",
                "--out",
                out,
            ]
        )
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert len(doc["partition_sizes"]) == 5  # pilot + 4 shards


class TestConfidenceLevel:
    def test_cli_import_leaves_out_scipy_stats(self):
        src = str(Path(qlsub.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, qlsub.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_default_level_fits_leave_out_scipy(self, case_csv, tmp_path):
        src = str(Path(qlsub.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs = [
            _fit_args(case_csv, str(tmp_path / "fit.json")),
            ["fit-distributed", "--data", case_csv, "--k", "4", "--r", "600",
             "--out", str(tmp_path / "dist.json")],
        ]
        probe = (
            "import json, sys, qlsub, qlsub.cli\n"
            "codes = [qlsub.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(runs)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[0, 0] []"

    def test_level_sets_normal_quantile(self, case_csv, tmp_path):
        out = str(tmp_path / "doc.json")
        assert main(_fit_args(case_csv, out, ["--level", "0.9"])) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["ci_level"] == 0.9
        estimate, se = np.array(doc["estimate"]), np.array(doc["std_errors"])
        z = norm.ppf(0.95)
        np.testing.assert_array_equal(doc["ci_upper"], estimate + z * se)
        np.testing.assert_array_equal(doc["ci_lower"], estimate - z * se)


class TestGenData:
    def test_roundtrip(self, tmp_path):
        out = str(tmp_path / "gen.csv")
        assert main(["gen-data", "--case", "c1", "--n", "500", "--seed", "2", "--out", out]) == 0
        table = np.loadtxt(out, delimiter=",", ndmin=2)
        assert table.shape == (500, 8)
        meta = json.loads((tmp_path / "gen.meta.json").read_text())
        assert meta["case_id"] == "c1"

    def test_split_files(self, tmp_path):
        out = str(tmp_path / "s5.csv")
        assert (
            main(["gen-data", "--case", "s5", "--n", "100", "--seed", "2", "--files", "5", "--out", out])
            == 0
        )
        meta = json.loads((tmp_path / "s5.meta.json").read_text())
        assert len(meta["files"]) == 5


class TestExperimentCommands:
    def test_experiment_table(self, tmp_path):
        out = str(tmp_path / "exp.csv")
        code = main(
            [
                "experiment",
                "--case",
                "c1",
                "--n",
                "4000",
                "--methods",
                "uniform,mvc",
                "--r-grid",
                "300",
                "--r0",
                "100",
                "--t",
                "3",
                "--seed",
                "1",
                "--out",
                out,
            ]
        )
        assert code == 0
        rows = Path(out).read_text().strip().splitlines()
        assert rows[0].startswith("method,")
        assert len(rows) == 3

    def test_rho_sweep_table(self, tmp_path):
        out = str(tmp_path / "rho.csv")
        code = main(
            [
                "rho-sweep",
                "--case",
                "c1",
                "--n",
                "4000",
                "--method",
                "mvc",
                "--rho-grid",
                "0.2,0.8",
                "--r",
                "300",
                "--r0",
                "100",
                "--t",
                "2",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert len(Path(out).read_text().strip().splitlines()) == 3

    def test_bench_table(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code = main(
            [
                "bench",
                "--case",
                "c1",
                "--n",
                "4000",
                "--methods",
                "uniform",
                "--r-grid",
                "200",
                "--repeats",
                "3",
                "--r0",
                "100",
                "--out",
                out,
            ]
        )
        assert code == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "method,r,median_seconds,iqr_seconds"
        assert len(lines) == 3


class TestFormatsAndPartitions:
    def test_csv_format_coefficient_table(self, case_csv, tmp_path):
        out = str(tmp_path / "fit.csv")
        assert main(_fit_args(case_csv, out, ["--format", "csv"])) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "coefficient,estimate,std_error,ci_lower,ci_upper"
        assert len(lines) == 8

    def test_partitions_flag_sets_shards(self, tmp_path):
        from qlsub.synth import make_spec, write_case_csv

        paths = write_case_csv(make_spec("c1", 3000, seed=9), str(tmp_path / "p.csv"), n_files=3)
        out = str(tmp_path / "dist.json")
        code = main(
            ["fit-distributed", "--partitions", *paths, "--r", "400", "--seed", "2", "--out", out]
        )
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert len(doc["partition_sizes"]) == 4  # pilot + one shard per file

    def test_fit_distributed_requires_source(self, tmp_path):
        assert main(["fit-distributed", "--r", "100", "--out", str(tmp_path / "x.json")]) == 2

    def test_config_round_trips_through_json(self, case_csv, tmp_path):
        out = str(tmp_path / "rt.json")
        assert main(_fit_args(case_csv, out)) == 0
        doc = json.loads(Path(out).read_text())
        assert json.loads(json.dumps(doc["config"])) == doc["config"]

    def test_ridge_flag_reported(self, case_csv, tmp_path):
        out = str(tmp_path / "ridge.json")
        assert main(_fit_args(case_csv, out, ["--ridge", "1e-9"])) == 0
        assert json.loads(Path(out).read_text())["config"]["ridge"] == 1e-9
