import csv
import io
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
from qlsub.families import EXP
from qlsub.rng import PILOT_STREAM, uniforms
from qlsub.synth import full_qle, generate_case, make_spec, run_replications, write_case_csv


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


def _damaged(case_csv, path, lineno, edit):
    """A copy of ``case_csv`` at ``path`` whose line ``lineno`` is ``edit(line)``."""
    lines = Path(case_csv).read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _set_field(field, value):
    def edit(line):
        fields = line.split(",")
        fields[field] = value
        return ",".join(fields)

    return edit


@pytest.fixture(scope="module")
def inputs(case_csv, tmp_path_factory):
    """Input files of the exit-code cases, by key."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "empty.csv").write_text("")
    (root / "three.csv").write_text("1,2\n3,4\n5,6\n")
    table = np.column_stack([np.arange(50.0), np.ones(50), np.ones(50) * 2.0])
    np.savetxt(root / "collinear.csv", table, fmt="%.17g", delimiter=",")
    write_case_csv(make_spec("c1", 2000, seed=3), str(root / "small.csv"))
    latin = Path(case_csv).read_bytes().splitlines(keepends=True)
    latin[1] = latin[1].replace(b",", b",\xff", 1)
    (root / "latin.csv").write_bytes(b"".join(latin))
    for sub in ("nan", "inf"):
        (root / sub).mkdir()
    text = Path(case_csv).read_text()
    # cut mid-record, after the last comma: the last field is empty
    (root / "truncated.csv").write_text(text[: text.rindex(",") + 1])
    (root / "headed.csv").write_text("y,x1,x2,x3,x4,x5,x6,x7\n" + text)
    files = {
        key: str(root / f"{key}.csv")
        for key in ("empty", "three", "collinear", "small", "latin", "missing", "truncated", "headed")
    }
    return files | {
        "case": case_csv,
        "ragged": _damaged(case_csv, root / "ragged.csv", 700, lambda line: "1,2,3"),
        "hash": _damaged(case_csv, root / "hash.csv", 300, lambda line: "#" + line),
        "nan": _damaged(case_csv, root / "nan" / "damaged.csv", 500, _set_field(0, "nan")),
        "inf": _damaged(case_csv, root / "inf" / "damaged.csv", 1234, _set_field(3, "inf")),
        "negative": _damaged(case_csv, root / "negative.csv", 321, _set_field(0, "-2")),
    }


def _expect_exit(inputs, tmp_path, capsys, argv, code, message):
    """The CLI on ``argv`` exits ``code`` with ``message``, no traceback and no output file.

    ``@key`` in ``argv`` names a file of ``inputs``.
    """
    out = tmp_path / "o.json"
    argv = [inputs[arg[1:]] if arg.startswith("@") else arg for arg in argv]
    try:
        got = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects the command line
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


FIT = ["fit", "--criterion", "mv", "--r", "800", "--r0", "200", "--seed", "7"]

# each row: command line, exit code, a fragment of the message
EXIT_MATRIX = [
    pytest.param([*FIT, "--data", "@ragged"], 3, "ragged.csv:700: expected 8 fields, found 3", id="ragged-row"),
    # files are read in order, so the first file's bad record is named before a later missing file
    pytest.param([*FIT, "--data", "@ragged", "@missing"], 3, "ragged.csv:700", id="ragged-before-missing"),
    pytest.param([*FIT, "--data", "@hash"], 3, "hash.csv:300: malformed row", id="hash-line"),
    pytest.param(["fit", "--data", "@empty"], 3, "no records in", id="empty-fit"),
    pytest.param(["fit-full", "--data", "@empty"], 3, "no records in", id="empty-fit-full"),
    pytest.param(["fit-distributed", "--data", "@empty", "--k", "2"], 3, "no records in", id="empty-fit-distributed"),
    pytest.param(
        ["fit-distributed", "--data", "@three", "--k", "5", "--r", "1"], 3,
        "cannot split 3 records into 5 shards", id="k-above-n",
    ),
    pytest.param(
        [*FIT[:-4], "--r0", "3", "--data", "@case"], 4, "pilot captured only", id="pilot-below-d",
        marks=pytest.mark.filterwarnings("ignore:pilot size"),
    ),
    pytest.param([*FIT, "--data", "@truncated"], 3, "truncated.csv:8000: malformed row", id="truncated-record"),
    pytest.param([*FIT, "--data", "@headed"], 3, "headed.csv:1: malformed row", id="header-without-flag"),
    pytest.param(
        ["fit-distributed", "--partitions", "@small", "@small", "@empty", "@small", "--r", "200"], 3,
        "empty.csv: no records", id="empty-partition-file",
    ),
    pytest.param(
        [*FIT, "--data", "@case", "--family", "logistic"], 3,
        "case1.csv:1: response 5.0 outside [0, 1] of the logistic family", id="logistic-on-counts",
    ),
    pytest.param(
        [*FIT, "--data", "@negative"], 3,
        "negative.csv:321: response -2.0 outside [0, inf] of the exp family", id="exp-negative-response",
    ),
    # a missing file exits 3 when read, so these rows also show the level
    # and the block size are checked before any data is read
    pytest.param([*FIT, "--data", "@missing", "--level", "1.5"], 2, "confidence level 1.5 outside (0, 1)", id="fit-level-1.5"),
    pytest.param([*FIT, "--data", "@missing", "--level", "0"], 2, "confidence level 0.0 outside (0, 1)", id="fit-level-0"),
    pytest.param(
        ["fit-distributed", "--data", "@missing", "--k", "2", "--level", "1.5"], 2,
        "confidence level 1.5 outside (0, 1)", id="fit-distributed-level-1.5",
    ),
    pytest.param(
        ["fit-distributed", "--data", "@missing", "--k", "2", "--level", "0"], 2,
        "confidence level 0.0 outside (0, 1)", id="fit-distributed-level-0",
    ),
    pytest.param([*FIT, "--data", "@missing", "--block-size", "0"], 2, "block size must be positive", id="block-size-0"),
    pytest.param([*FIT, "--data", "@missing", "--x-cols", ","], 2, "--x-cols ',' names no column", id="x-cols-empty"),
    pytest.param([*FIT, "--data", "@missing", "--ridge", "-1"], 2, "ridge -1.0 below 0", id="fit-ridge-negative"),
    pytest.param(
        ["fit-distributed", "--data", "@missing", "--k", "2", "--ridge", "-1"], 2,
        "ridge -1.0 below 0", id="fit-distributed-ridge-negative",
    ),
    pytest.param(
        ["fit-distributed", "--data", "@missing", "--k", "2", "--threads", "0"], 2,
        "thread count 0 below 1", id="threads-0",
    ),
    pytest.param(
        ["fit-distributed", "--data", "@missing", "--k", "2", "--threads", "-2"], 2,
        "thread count -2 below 1", id="threads-negative",
    ),
    pytest.param(
        ["fit-distributed", "--data", "@small", "--k", "-1", "--r", "200"], 2,
        "partition count must be at least 1", id="k-negative",
    ),
    pytest.param([*FIT, "--data", "@case", "--threads", "2"], 2, "unrecognized arguments: --threads", id="fit-threads"),
    pytest.param(
        ["experiment", "--case", "c1", "--level", "0.9"], 2, "unrecognized arguments: --level", id="experiment-level",
    ),
    pytest.param(["experiment", "--case", "c1", "--r-grid", ","], 2, "empty grid ','", id="experiment-empty-r-grid"),
    pytest.param(["experiment", "--case", "c1", "--rho-grid", ","], 2, "empty grid ','", id="experiment-empty-rho-grid"),
    pytest.param(["bench", "--case", "c1", "--r-grid", ","], 2, "empty grid ','", id="bench-empty-r-grid"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, code, message", EXIT_MATRIX)
    def test_exit_code(self, inputs, tmp_path, capsys, argv, code, message):
        _expect_exit(inputs, tmp_path, capsys, argv, code, message)

    # the rows below predate the matrix and keep their test names

    def test_unknown_flag_exits_two(self, inputs, tmp_path, capsys):
        argv = ["fit", "--data", "@case", "--nonsense"]
        _expect_exit(inputs, tmp_path, capsys, argv, 2, "unrecognized arguments: --nonsense")

    def test_unknown_command_exits_two(self, inputs, tmp_path, capsys):
        _expect_exit(inputs, tmp_path, capsys, ["frobnicate"], 2, "invalid choice: 'frobnicate'")

    def test_missing_file_exits_three(self, inputs, tmp_path, capsys):
        _expect_exit(inputs, tmp_path, capsys, ["fit-full", "--data", "@missing"], 3, "missing.csv")

    def test_numerical_failure_exits_four(self, inputs, tmp_path, capsys):
        # collinear design: singular Newton system
        argv = ["fit-full", "--data", "@collinear", "--family", "identity"]
        _expect_exit(inputs, tmp_path, capsys, argv, 4, "numerical failure")

    def test_bad_plan_exits_two(self, inputs, tmp_path, capsys):
        argv = [*FIT, "--data", "@case", "--rho", "2.0"]
        _expect_exit(inputs, tmp_path, capsys, argv, 2, "configuration error")

    def test_size_above_shard_exits_two(self, inputs, tmp_path, capsys):
        # default --r 1000 against four shards of 500 records
        argv = ["fit-distributed", "--data", "@small", "--k", "4"]
        message = "expected size 1000.0 is not below the smallest shard's 500 records"
        _expect_exit(inputs, tmp_path, capsys, argv, 2, message)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--x-cols", "1,2,99"], "covariate column 99 out of range"),
            (["--x-cols", "1,-1"], "covariate column -1 out of range"),
            (["--y-col", "-1"], "response column -1 out of range"),
            (["--y-col", "8"], "response column 8 out of range"),
        ],
    )
    def test_column_out_of_range_exits_three(self, inputs, tmp_path, capsys, flags, message):
        argv = [*FIT, "--data", "@case", *flags]
        _expect_exit(inputs, tmp_path, capsys, argv, 3, f"case1.csv: {message}")

    @pytest.mark.parametrize(
        "key, lineno",
        [("nan", 500), ("inf", 1234)],
        ids=["nan-response", "inf-covariate"],
    )
    def test_non_finite_value_exits_three(self, inputs, tmp_path, capsys, key, lineno):
        argv = [*FIT, "--data", f"@{key}"]
        _expect_exit(inputs, tmp_path, capsys, argv, 3, f"damaged.csv:{lineno}: non-finite value")

    def test_non_utf8_byte_exits_three(self, inputs, tmp_path, capsys):
        _expect_exit(inputs, tmp_path, capsys, ["fit-full", "--data", "@latin"], 3, "latin.csv:2: not UTF-8")

    @pytest.mark.parametrize("command", ["fit", "fit-full", "fit-distributed"])
    def test_response_range_applies_after_shift(self, inputs, tmp_path, capsys, command):
        argv = [command, "--data", inputs["negative"], "--out", str(tmp_path / "o.json")]
        assert main([*argv, "--y-shift", "2"]) == 0
        assert main(argv) == 3
        assert "negative.csv:321: response -2.0" in capsys.readouterr().err

    def test_overflowing_covariates_on_a_thinned_pass_exit_two(self, tmp_path, capsys):
        # d = 35 thins the mv main pass; a record outside the pilot whose
        # covariates are all 1e308 has no finite linear predictor there
        data = tmp_path / "wide.csv"
        write_case_csv(make_spec("s4", 4000, seed=3), str(data))
        lines = data.read_text().splitlines()
        pilot = uniforms(7, np.arange(4000), PILOT_STREAM) < 400 / 4000
        record = int(np.flatnonzero(~pilot)[1000])
        lines[record] = ",".join([lines[record].split(",")[0]] + ["1e308"] * 35)
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.json"
        argv = ["fit", "--data", str(data), "--criterion", "mv", "--r", "400", "--r0", "400", "--seed", "7"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "qlsub: configuration error: linear predictor must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fit"], ["fit-distributed", "--k", "2"]], ids=["fit", "fit-distributed"])
    def test_all_zero_pilot_residuals_fall_back_to_uniform(self, tmp_path, command):
        # y = 1 under the exp family: beta = 0 fits every record exactly, so
        # the pilot scores are all zero and the fit goes on with uniform
        # probabilities; unlike the matrix rows it exits 0 and writes a document
        data, out = tmp_path / "ones.csv", tmp_path / "o.json"
        x = np.random.default_rng(8).normal(size=(4000, 3))
        np.savetxt(data, np.column_stack([np.ones(4000), x]), fmt="%.17g", delimiter=",")
        src = str(Path(qlsub.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [*command, "--data", str(data), "--family", "exp", "--r", "300", "--r0", "100", "--out", str(out)]
        run = subprocess.run([sys.executable, "-m", "qlsub.cli", *argv], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        # one line per warning, even with two shards, and no source location
        warned = [line for line in run.stderr.splitlines() if "warning" in line.lower()]
        assert warned == ["qlsub: warning: pilot residuals are all zero; falling back to uniform probabilities"]
        assert ".py:" not in run.stderr
        assert "Traceback" not in run.stderr
        assert json.loads(out.read_text())["estimate"] == [0.0, 0.0, 0.0]

    def test_warnings_still_reach_a_recorder(self, tmp_path):
        # the CLI changes how a warning prints, not whether it is raised
        data = tmp_path / "ones.csv"
        x = np.random.default_rng(8).normal(size=(2000, 2))
        np.savetxt(data, np.column_stack([np.ones(2000), x]), fmt="%.17g", delimiter=",")
        argv = ["fit", "--data", str(data), "--family", "exp", "--r", "200", "--r0", "100",
                "--out", str(tmp_path / "o.json")]
        with pytest.warns(RuntimeWarning, match="falling back to uniform"):
            assert main(argv) == 0


class TestFitDocuments:
    def test_byte_identical_reruns(self, case_csv, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(_fit_args(case_csv, out1)) == 0
        assert main(_fit_args(case_csv, out2)) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    @pytest.mark.parametrize("command", ["fit", "fit-full", "fit-distributed"])
    def test_parse_cache_leaves_the_document_unchanged(self, tmp_path, command):
        data = str(tmp_path / "c1.csv")
        write_case_csv(make_spec("c1", 3000, seed=4), data)
        plan = [] if command == "fit-full" else ["--r", "300", "--r0", "150"]
        argv = [command, "--data", data, *plan, *(["--k", "4"] if command == "fit-distributed" else [])]
        docs = []
        for run, flags in enumerate([["--no-cache"], [], [], ["--no-cache"]]):
            assert main([*argv, *flags, "--out", str(tmp_path / f"{run}.json")]) == 0
            assert Path(data + ".qlcache").exists() == (run > 0)  # cold, then warm twice
            docs.append((tmp_path / f"{run}.json").read_bytes())
        assert len(set(docs)) == 1
        assert "no_cache" not in json.loads(docs[0])["config"]

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
            _fit_args(case_csv, str(tmp_path / "quantile.json"), ["--threshold", "quantile"]),
        ]
        # nor numpy.ma, which np.quantile and np.isin import on first use
        probe = (
            "import json, sys, qlsub, qlsub.cli\n"
            "codes = [qlsub.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, sorted(m for m in sys.modules\n"
            "                    if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(runs)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[0, 0, 0] []"

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
        # each (r, rho) cell, r outermost, writes the rows of one
        # run_replications call against the full-data reference
        out = tmp_path / "rho.csv"
        argv = ["experiment", "--case", "c1", "--n", "4000", "--methods", "mv,mvc", "--r-grid", "300",
                "--rho-grid", "0.2,0.8", "--r0", "100", "--t", "2", "--seed", "4", "--out", str(out)]
        assert main(argv) == 0
        x, y, _ = generate_case(make_spec("c1", 4000, seed=4))
        reference = full_qle(x, y, EXP).beta
        rows = []
        for rho in (0.2, 0.8):
            reports = run_replications(x, y, EXP, ["mv", "mvc"], r=300.0, r0=100.0, rho=rho, t=2, seed=4,
                                       reference=reference, reference_kind="full")
            rows.extend(rep.as_row() for rep in reports)
        expected = io.StringIO(newline="")
        writer = csv.DictWriter(expected, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        assert out.read_bytes() == expected.getvalue().encode()
        with out.open(newline="") as fh:
            cells = [(row["method"], row["rho"]) for row in csv.DictReader(fh)]
        assert cells == [("mv", "0.2"), ("mvc", "0.2"), ("mv", "0.8"), ("mvc", "0.8")]

    def test_rho_abbreviates_rho_grid(self, tmp_path):
        base = ["experiment", "--case", "c1", "--n", "4000", "--methods", "mv", "--r-grid", "300",
                "--r0", "100", "--t", "2", "--seed", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*base, "--rho", "0.5", "--out", str(a)]) == 0
        assert main([*base, "--rho-grid", "0.5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[1].split(",")[3] == "0.5"

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
