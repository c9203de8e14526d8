import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlsub
from qlsub import synth
from qlsub.cli import main
from qlsub.families import EXP
from qlsub.rng import PILOT_STREAM, uniforms
from qlsub.synth import full_qle, generate_case, make_spec, replicate, write_case_csv


def _cli_process(argv, *command):
    """Run ``command`` (by default the process entry ``python -m qlsub.cli``) on ``argv`` with this checkout's qlsub."""
    src = str(Path(qlsub.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    command = command or ("-m", "qlsub.cli")
    return subprocess.run([sys.executable, *command, *argv], env=env, capture_output=True, text=True)


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
    (root / "one.csv").write_text("1\n2\n3\n0\n5\n")
    table = np.column_stack([np.arange(50.0), np.ones(50), np.ones(50) * 2.0])
    np.savetxt(root / "collinear.csv", table, fmt="%.17g", delimiter=",")
    write_case_csv(make_spec("c1", 2000, seed=3), str(root / "small.csv"))
    write_case_csv(make_spec("c1", 4000, seed=3), str(root / "c1.csv"))
    parts = write_case_csv(make_spec("c1", 4000, seed=3), str(root / "m.csv"), n_files=2)
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
        for key in ("empty", "three", "one", "collinear", "small", "c1", "latin", "missing", "truncated", "headed")
    }
    return files | {
        "case": case_csv,
        "ragged": _damaged(case_csv, root / "ragged.csv", 700, lambda line: "1,2,3"),
        "hash": _damaged(case_csv, root / "hash.csv", 300, lambda line: "#" + line),
        "nan": _damaged(case_csv, root / "nan" / "damaged.csv", 500, _set_field(0, "nan")),
        "inf": _damaged(case_csv, root / "inf" / "damaged.csv", 1234, _set_field(3, "inf")),
        "negative": _damaged(case_csv, root / "negative.csv", 321, _set_field(0, "-2")),
        "overflow": _damaged(case_csv, root / "overflow.csv", 6010, lambda line: line[: line.index(",")] + ",1e308" * 7),
        "pilot-overflow": _damaged(
            case_csv, root / "pilot-overflow.csv", 6000, lambda line: line[: line.index(",")] + ",1e308" * 7
        ),
        "big": _damaged(root / "c1.csv", root / "big.csv", 4000, _set_field(0, "1.7e308")),
        "m0": parts[0],
        "m1": _damaged(parts[1], Path(parts[1]), 5, _set_field(0, "-1")),
        "nodir": str(root / "no-such-dir" / "o.json"),
    }


def _expect_exit(inputs, tmp_path, capsys, argv, code, message):
    """The CLI on ``argv`` exits ``code`` with ``message``, no traceback and no output file.

    ``@key`` in ``argv`` names a file of ``inputs``.
    """
    out = tmp_path / "o.json"
    argv = [inputs[arg[1:]] if arg.startswith("@") else arg for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


FIT = ["fit", "--criterion", "mv", "--r", "800", "--r0", "200", "--seed", "7"]
# the exit codes a fit command may give, by the label of the line it fails with
EXIT_LABELS = {0: None, 2: "configuration error", 3: "data error", 4: "numerical failure"}
# the fuzzed flags' values on the 2000-record file; a few flags per example take an odd one
FUZZ_ORDINARY = {
    "r": st.floats(1, 2500), "r0": st.floats(1, 2500), "rho": st.floats(0, 1), "ridge": st.floats(0, 10),
    "level": st.floats(0, 1, exclude_min=True, exclude_max=True), "k": st.integers(1, 8),
    "block-size": st.integers(1, 3000),
}
_ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e308, 1e308, 5e-324])
FUZZ_ODD = {flag: _ODD_FLOATS for flag in ("r", "r0", "rho", "ridge", "level")} | {
    "k": st.sampled_from([0, -1, 2000, 2001, 10**9]), "block-size": st.sampled_from([0, -1, 2001, 10**9]),
}
# the last response of c1 (N = 4000) is 1.7e308; its record is drawn at p = 1
BIG = ["--data", "@big", "--r", "300", "--r0", "100", "--criterion", "mvc", "--seed", "7", "--no-cache"]
# numpy still warns of the overflow in the record's score
OVERFLOW_WARNINGS = [
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
]

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
    # one field per record: the response, and no covariate
    pytest.param(["fit-full", "--data", "@one"], 3, "one.csv: no covariate column; add --intercept or --x-cols",
                 id="no-covariate-fit-full"),
    pytest.param(["fit", "--data", "@one", "--r", "2", "--r0", "2"], 3, "one.csv: no covariate column",
                 id="no-covariate-fit"),
    pytest.param(["fit-distributed", "--data", "@one", "--r", "2", "--r0", "2"], 3, "one.csv: no covariate column",
                 id="no-covariate-fit-distributed"),
    # shards of one record at r = 0.5: the first draws none
    pytest.param(
        ["fit-distributed", "--data", "@small", "--k", "2000", "--r", "0.5", "--r0", "100"], 4,
        "numerical failure: partition 1: no records drawn", id="shard-draws-no-record",
        marks=pytest.mark.filterwarnings("ignore:partition count"),
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
    # record 6009, outside the pilot, has a linear predictor that overflows in the second shard
    pytest.param(
        ["fit-distributed", "--data", "@overflow", "--k", "2", "--r", "300", "--seed", "7"], 4,
        "numerical failure: partition 2: linear predictor must be finite", id="overflow-in-a-shard",
    ),
    # record 5999 is in seed 7's pilot, so the pilot's weighted score
    # overflows: no singular system, and no r0 would mend it; numpy warns of
    # nothing first
    pytest.param(
        ["fit", "--data", "@pilot-overflow", "--r", "300", "--seed", "7"], 4,
        "numerical failure: pilot weighted score is not finite", id="overflow-in-the-pilot",
        marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
    ),
    pytest.param(
        ["fit-distributed", "--data", "@pilot-overflow", "--k", "2", "--r", "300", "--seed", "7"], 4,
        "numerical failure: pilot weighted score is not finite", id="overflow-in-the-distributed-pilot",
        marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
    ),
    pytest.param(
        ["fit", *BIG, "--threshold", "inf"], 4, "numerical failure: sandwich variance is not finite",
        id="response-overflows-the-variance", marks=OVERFLOW_WARNINGS,
    ),
    # the second shard's estimate is pulled to about 1e304, so the
    # aggregation names that partition before it forms any pooled product;
    # only the record's score in the per-block scorer still warns
    pytest.param(
        ["fit-distributed", *BIG, "--k", "2", "--threshold", "inf"], 4,
        "numerical failure: partition 2: curvature-weighted estimate is not finite",
        id="response-overflows-the-distributed-variance",
        marks=pytest.mark.filterwarnings("error::RuntimeWarning", "ignore:overflow encountered in multiply"),
    ),
    pytest.param(
        ["fit", *BIG, "--threshold", "exact"], 4, "numerical failure: sampling scores are not finite: their sum is inf",
        id="response-overflows-the-exact-cap", marks=OVERFLOW_WARNINGS,
    ),
    # a repeated covariate column makes every pilot singular, whatever r0
    pytest.param(
        ["fit", "--data", "@c1", "--x-cols", "1,1,2"], 4,
        "numerical failure: pilot Newton system is singular; raise r0 or drop collinear covariates",
        id="collinear-pilot",
    ),
    pytest.param(
        ["fit-distributed", "--data", "@c1", "--x-cols", "1,1,2", "--k", "2"], 4,
        "numerical failure: pilot Newton system is singular; raise r0 or drop collinear covariates",
        id="collinear-distributed-pilot",
    ),
    pytest.param([*FIT, "--data", "@case", "--out", "@nodir"], 3, "data error: [Errno 2] No such file or directory",
                 id="out-in-a-missing-directory"),
    # only a record past the first file is located by counting the files before it
    pytest.param(
        ["fit", "--data", "@m0", "@m1"], 3, "m.part1.csv:5: response -1.0 outside [0, inf] of the exp family",
        id="response-range-in-a-second-file",
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
    pytest.param(
        [*FIT, "--data", "@missing", "--x-cols", "a"], 2, "configuration error: --x-cols 'a': 'a' is not a column number",
        id="x-cols-not-a-number",
    ),
    # the response is no covariate of its own
    pytest.param([*FIT, "--data", "@missing", "--x-cols", "0,1"], 2,
                 "configuration error: covariate column 0 is the response column", id="x-cols-response-fit"),
    pytest.param(["fit-full", "--data", "@missing", "--x-cols", "0", "--intercept"], 2,
                 "configuration error: covariate column 0 is the response column", id="x-cols-response-fit-full"),
    pytest.param(
        ["fit-distributed", "--data", "@missing", "--k", "2", "--y-col", "3", "--x-cols", "1,3"], 2,
        "configuration error: covariate column 3 is the response column", id="x-cols-response-fit-distributed",
    ),
    pytest.param([*FIT, "--data", "@missing", "--ridge", "-1"], 2, "ridge -1.0 below 0", id="fit-ridge-negative"),
    pytest.param(
        ["fit-distributed", "--data", "@missing", "--k", "2", "--ridge", "-1"], 2,
        "ridge -1.0 below 0", id="fit-distributed-ridge-negative",
    ),
    pytest.param([*FIT, "--data", "@missing", "--ridge", "nan"], 2, "ridge nan is not a finite number", id="ridge-nan"),
    pytest.param([*FIT, "--data", "@missing", "--ridge", "inf"], 2, "ridge inf is not a finite number", id="ridge-inf"),
    # the shifted response overflows the pilot's weighted score
    pytest.param(
        [*FIT, "--data", "@case", "--y-shift", "1e308"], 4, "numerical failure: pilot weighted score is not finite",
        id="y-shift-overflow", marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
    ),
    pytest.param(
        ["fit-full", "--data", "@case", "--y-shift", "1e308"], 4, "numerical failure: weighted score is not finite",
        id="y-shift-overflow-full-fit", marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
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
    pytest.param(
        ["experiment", "--case", "c1", "--r-grid", "abc"], 2, "configuration error: --r-grid 'abc': 'abc' is not a number",
        id="experiment-r-grid-not-a-number",
    ),
    pytest.param(
        ["experiment", "--case", "c1", "--rho-grid", "0.2,x"], 2, "--rho-grid '0.2,x': 'x' is not a number",
        id="experiment-rho-grid-not-a-number",
    ),
    pytest.param(["experiment", "--case", "c1", "--n", "2000", "--t", "0"], 2, "replication count 0 below 1", id="t-0"),
    pytest.param(["bench", "--case", "c1", "--n", "2000", "--repeats", "2"], 2, "repeat count 2 below 3", id="repeats-2"),
]

# each row: a command line rejected before it generates or fits anything, and
# the one line it prints
REJECTED_UP_FRONT = [
    pytest.param(["experiment", "--case", "c1", "--n", "2000", "--coverage-index", "99"],
                 "coverage index 99 outside [0, 7)", id="coverage-index-99"),
    pytest.param(["experiment", "--case", "c1", "--n", "2000", "--coverage-index", "-1"],
                 "coverage index -1 outside [0, 7)", id="coverage-index-negative"),
    pytest.param(["gen-data", "--case", "c1", "--n", "500", "--files", "0"], "file count 0 below 1", id="gen-data-files-0"),
    pytest.param(["gen-data", "--case", "c1", "--n", "0"], "record count 0 below 1", id="gen-data-n-0"),
    pytest.param(["gen-data", "--case", "c1", "--n", "-5"], "record count -5 below 1", id="gen-data-n-negative"),
    pytest.param(["experiment", "--case", "c1", "--n", "0"], "record count 0 below 1", id="experiment-n-0"),
    pytest.param(["bench", "--case", "c1", "--n", "-5"], "record count -5 below 1", id="bench-n-negative"),
    pytest.param(["gen-data", "--case", "c9"], "unknown case 'c9'; expected one of "
                 "['c1', 'c2', 'c3', 'c4', 's1', 's2', 's3', 's4', 's5']", id="gen-data-unknown-case"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, code, message", EXIT_MATRIX)
    def test_exit_code(self, inputs, tmp_path, capsys, argv, code, message):
        _expect_exit(inputs, tmp_path, capsys, argv, code, message)

    @pytest.mark.parametrize("argv, message", REJECTED_UP_FRONT)
    def test_rejected_up_front(self, tmp_path, capsys, argv, message):
        # a replication would fail the test, not exit 2
        with mock.patch.object(synth, "replicate", side_effect=AssertionError("a replication ran")):
            code = main([*argv, "--out", str(tmp_path / "o.csv")])
        assert (code, capsys.readouterr().err) == (2, f"qlsub: configuration error: {message}\n")
        assert list(tmp_path.iterdir()) == []

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

    def test_overflowing_covariates_on_a_thinned_pass_exit_four(self, tmp_path, capsys):
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
        assert main([*argv, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == "qlsub: numerical failure: linear predictor must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fit"], ["fit-distributed", "--k", "2"]], ids=["fit", "fit-distributed"])
    def test_all_zero_pilot_residuals_fall_back_to_uniform(self, tmp_path, command):
        # y = 1 under the exp family: beta = 0 fits every record exactly, so
        # the pilot scores are all zero and the fit goes on with uniform
        # probabilities; unlike the matrix rows it exits 0 and writes a document
        data, out = tmp_path / "ones.csv", tmp_path / "o.json"
        x = np.random.default_rng(8).normal(size=(4000, 3))
        np.savetxt(data, np.column_stack([np.ones(4000), x]), fmt="%.17g", delimiter=",")
        argv = [*command, "--data", str(data), "--family", "exp", "--r", "300", "--r0", "100", "--out", str(out)]
        run = _cli_process(argv)
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

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_zero_score_pilot_record_at_rho_zero(self, tmp_path, k):
        # pilot record 105 has x = 0, so its score and, at rho = 0, its
        # second-stage probability are 0: it adds no curvature to the pilot's
        # partition instead of failing its weights
        data, out = tmp_path / "c1.csv", tmp_path / "o.json"
        write_case_csv(make_spec("c1", 3000, seed=3), str(data))
        assert uniforms(7, np.array([105]), PILOT_STREAM)[0] < 300 / 3000
        lines = data.read_text().splitlines()
        lines[105] = "1,0,0,0,0,0,0,0"
        data.write_text("\n".join(lines) + "\n")
        argv = ["fit-distributed", "--data", str(data), "--k", k, "--rho", "0", "--r", "200", "--r0", "300",
                "--criterion", "mvc", "--seed", "7", "--no-cache"]
        run = _cli_process([*argv, "--out", str(out)])
        assert run.returncode == 0, run.stderr
        warned = [line for line in run.stderr.splitlines() if "warning" in line.lower()]
        assert warned == ["qlsub: warning: records with zero score receive probability 0 under rho = 0; "
                          "the optimality premises may be violated"]
        assert len(json.loads(out.read_text())["partition_sizes"]) == int(k) + 1
        # the process entry writes the document that the in-process entry writes
        with pytest.warns(RuntimeWarning, match="zero score"):
            assert main([*argv, "--out", str(tmp_path / "main.json")]) == 0
        assert (tmp_path / "main.json").read_bytes() == out.read_bytes()

    def test_process_entry_fails_as_main_does(self, inputs, tmp_path, capsys):
        argv = [*FIT, "--data", inputs["ragged"]]
        run = _cli_process([*argv, "--out", str(tmp_path / "process.json")])
        assert main([*argv, "--out", str(tmp_path / "main.json")]) == run.returncode == 3
        want = f"qlsub: data error: {inputs['ragged']}:700: expected 8 fields, found 3\n"
        assert capsys.readouterr().err == run.stderr == want
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message", ["Unable to allocate 5.82 TiB for an array", ""], ids=["numpy", "bare"])
    def test_out_of_memory_prints_one_line(self, tmp_path, capsys, message):
        out = tmp_path / "o.csv"
        with mock.patch.object(synth, "generate_case", side_effect=MemoryError(message)):
            code = main(["gen-data", "--case", "c1", "--n", "100", "--out", str(out)])
        want = message or "no memory left for the arrays of this run"
        assert (code, capsys.readouterr().err) == (5, f"qlsub: out of memory: {want}\n")
        assert not out.exists()

    # every value reaches the command, and every failure is one labelled line
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["fit", "fit-distributed"]),
        flags=st.fixed_dictionaries(FUZZ_ORDINARY),
        odd=st.sets(st.sampled_from(sorted(FUZZ_ODD)), max_size=2).flatmap(
            lambda names: st.fixed_dictionaries({name: FUZZ_ODD[name] for name in names})
        ),
        threads=st.sampled_from([1, 2, 4, 0, -1]),
    )
    def test_numeric_flags_fuzz(self, inputs, command, flags, odd, threads):
        out = Path(inputs["small"]).with_name("fuzz.json")
        out.unlink(missing_ok=True)
        flags |= odd
        if command == "fit":
            del flags["k"]
        else:
            flags["threads"] = threads
        argv = [command, "--data", inputs["small"], "--seed", "7", "--out", str(out)]
        argv += [f"--{flag}={value!r}" for flag, value in flags.items()]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in EXIT_LABELS, lines
        assert not any("Traceback" in line for line in lines)
        assert out.exists() == (code == 0)
        if code:
            assert lines[-1].startswith(f"qlsub: {EXIT_LABELS[code]}: "), lines


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

    @pytest.mark.parametrize("damage", ["y-times-3", "nan-and-huge-rows"])
    def test_damaged_sidecar_payload_gives_the_cold_document(self, tmp_path, damage):
        # the sidecar's key still matches the file; only its payload fails its checksum
        n, d = 20_000, 7
        data = str(tmp_path / "c1.csv")
        write_case_csv(make_spec("c1", n, seed=3), data)
        argv = ["fit", "--data", data, "--r", "1000", "--r0", "300"]
        assert main([*argv, "--no-cache", "--out", str(tmp_path / "cold.json")]) == 0
        assert main([*argv, "--out", str(tmp_path / "first.json")]) == 0
        sidecar = Path(data + ".qlcache")
        intact = sidecar.read_bytes()
        payload = bytearray(intact)
        x = np.frombuffer(payload, offset=len(payload) - 8 * n * (d + 1), count=n * d).reshape(n, d)
        y = np.frombuffer(payload, offset=len(payload) - 8 * n, count=n)
        if damage == "y-times-3":
            y *= 3.0
        else:
            rows = np.arange(100) * 200
            x[rows[::2]] = np.nan
            x[rows[1::2]] = 1e300
        sidecar.write_bytes(payload)
        assert main([*argv, "--out", str(tmp_path / "warm.json")]) == 0
        cold = (tmp_path / "cold.json").read_bytes()
        assert (tmp_path / "first.json").read_bytes() == cold
        assert (tmp_path / "warm.json").read_bytes() == cold
        assert sidecar.read_bytes() == intact  # parsed again and rewritten

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


class TestStartUp:
    def test_a_fit_loads_only_what_it_runs(self, case_csv, tmp_path):
        # a fit generates no case, runs no replication, writes no table and,
        # unthreaded, starts no pool; the package exports resolve all the same
        probe = (
            "import json, sys, qlsub.cli\n"
            "lazy = lambda: sorted({'qlsub.synth', 'csv', 'concurrent.futures'} & set(sys.modules))\n"
            "imported = lazy()\n"
            "code = qlsub.cli.main(sys.argv[1:])\n"
            "fitted = lazy()\n"
            "names = {}\n"
            "exec('from qlsub import *', names)\n"
            "print(json.dumps([imported, code, fitted, sorted(set(qlsub.__all__) - set(names)),\n"
            "                  [n for n in qlsub.__all__ if names[n] is not getattr(qlsub, n)], qlsub.synth.__name__]))\n"
        )
        argv = ["fit-distributed", "--data", case_csv, "--k", "2", "--r", "600", "--out", str(tmp_path / "o.json")]
        run = _cli_process(argv, "-c", probe)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [[], 0, [], [], [], "qlsub.synth"]


class TestConfidenceLevel:
    def test_cli_import_leaves_out_scipy_stats(self):
        probe = "import sys, qlsub.cli; print('scipy.stats' in sys.modules)"
        out = _cli_process([], "-c", probe)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_default_level_fits_leave_out_scipy(self, case_csv, tmp_path):
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
        out = _cli_process([json.dumps(runs)], "-c", probe)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[0, 0, 0] []"

    def test_level_sets_normal_quantile(self, case_csv, tmp_path):
        out = str(tmp_path / "doc.json")
        assert main(_fit_args(case_csv, out, ["--level", "0.9"])) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["ci_level"] == 0.9
        estimate, se = np.array(doc["estimate"]), np.array(doc["std_errors"])
        z = NormalDist().inv_cdf(0.95)
        np.testing.assert_array_equal(doc["ci_upper"], estimate + z * se)
        np.testing.assert_array_equal(doc["ci_lower"], estimate - z * se)

    def test_every_command_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency; the tests alone use scipy
        data, level = str(tmp_path / "c1.csv"), tmp_path / "level.json"
        runs = [
            ["gen-data", "--case", "c1", "--n", "4000", "--out", data],
            ["fit-full", "--data", data, "--out", str(tmp_path / "full.json")],
            ["fit", "--data", data, "--criterion", "mv", "--threshold", "exact", "--r", "400", "--r0", "200",
             "--out", str(tmp_path / "exact.json")],
            ["fit-distributed", "--data", data, "--k", "2", "--threads", "2", "--r", "400", "--r0", "200",
             "--out", str(tmp_path / "dist.json")],
            ["experiment", "--case", "c1", "--n", "2000", "--methods", "mv", "--r-grid", "200", "--r0", "100",
             "--t", "2", "--coverage-index", "1", "--out", str(tmp_path / "experiment.csv")],
            ["bench", "--case", "c1", "--n", "2000", "--methods", "uniform", "--r-grid", "200", "--r0", "100",
             "--repeats", "3", "--out", str(tmp_path / "bench.csv")],
            ["fit", "--data", data, "--r", "400", "--r0", "200", "--level", "0.9", "--out", str(level)],
        ]
        probe = (
            "import json, sys\n"
            "sys.modules['scipy'] = None  # every import of scipy fails\n"
            "import qlsub.cli\n"
            "print(json.dumps([qlsub.cli.main(argv) for argv in json.loads(sys.argv[1])]))\n"
        )
        run = _cli_process([json.dumps(runs)], "-c", probe)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [0] * len(runs)
        doc = json.loads(level.read_text())
        estimate, se = np.array(doc["estimate"]), np.array(doc["std_errors"])
        z = NormalDist().inv_cdf(0.95)
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
        # each (r, rho, method) cell, r outermost, is the row of one replicate
        # batch against the full-data reference
        out = tmp_path / "rho.csv"
        argv = ["experiment", "--case", "c1", "--n", "4000", "--methods", "mv,mvc", "--r-grid", "300",
                "--rho-grid", "0.2,0.8", "--r0", "100", "--t", "2", "--seed", "4", "--out", str(out)]
        assert main(argv) == 0
        x, y, _ = generate_case(make_spec("c1", 4000, seed=4))
        reference = full_qle(x, y, EXP).beta
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["method", "r", "r0", "rho", "K", "T", "mse", "mse_reference", "coverage", "avg_ci_length",
                         "failures"])
        for rho in (0.2, 0.8):
            for method in ("mv", "mvc"):
                batch = replicate(x, y, EXP, method, r=300.0, r0=100.0, rho=rho, t=2, seed=4)
                writer.writerow([method, 300.0, 100.0, rho, 1, 2, batch.mse(reference), "full", "", "",
                                 batch.failures])
        assert out.read_bytes() == expected.getvalue().encode()
        with out.open(newline="") as fh:
            cells = [(row["method"], row["rho"]) for row in csv.DictReader(fh)]
        assert cells == [("mv", "0.2"), ("mvc", "0.2"), ("mv", "0.8"), ("mvc", "0.8")]

    def test_coverage_index_columns(self, tmp_path):
        # with --coverage-index, each row also holds its batch's coverage and
        # mean interval length for that coefficient
        out = tmp_path / "cover.csv"
        argv = ["experiment", "--case", "c1", "--n", "4000", "--methods", "mvc", "--r-grid", "300", "--r0", "100",
                "--t", "3", "--seed", "4", "--coverage-index", "1", "--out", str(out)]
        assert main(argv) == 0
        x, y, _ = generate_case(make_spec("c1", 4000, seed=4))
        reference = full_qle(x, y, EXP).beta
        batch = replicate(x, y, EXP, "mvc", r=300.0, r0=100.0, t=3, seed=4, keep_variances=True)
        with out.open(newline="") as fh:
            (row,) = csv.DictReader(fh)
        coverage, length = batch.coverage(reference, 1)
        assert (row["coverage"], row["avg_ci_length"]) == (str(coverage), str(length))
        assert row["mse"] == str(batch.mse(reference))

    def test_rho_abbreviates_rho_grid(self, tmp_path):
        base = ["experiment", "--case", "c1", "--n", "4000", "--methods", "mv", "--r-grid", "300",
                "--r0", "100", "--t", "2", "--seed", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*base, "--rho", "0.5", "--out", str(a)]) == 0
        assert main([*base, "--rho-grid", "0.5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[1].split(",")[3] == "0.5"

    def test_bench_table(self, tmp_path):
        # K = 2 times the distributed fits; the cells are methods x r, then the full fit
        out = tmp_path / "bench.csv"
        argv = ["bench", "--case", "c1", "--n", "4000", "--methods", "uniform,mv", "--r-grid", "200,300",
                "--repeats", "3", "--r0", "100", "--k", "2", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[0] == "method,r,median_seconds,iqr_seconds"
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = [(row["method"], row["r"]) for row in rows]
        assert cells == [("uniform", "200.0"), ("uniform", "300.0"), ("mv", "200.0"), ("mv", "300.0"),
                         ("full_qle", "nan")]
        assert all(float(row["median_seconds"]) > 0 and float(row["iqr_seconds"]) >= 0 for row in rows)


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
