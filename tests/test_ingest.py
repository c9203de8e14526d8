import contextlib
import io
import os
import re
import sys
import tempfile
import tracemalloc
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlsub import cli
from qlsub.distributed import fit_partition, run_distributed
from qlsub.errors import DataError
from qlsub.estimator import solve_weighted_qle
from qlsub.families import EXP, IDENTITY
from qlsub import ingest
from qlsub.ingest import ArrayStream, CsvStream, SubsetStream, partition_view
from qlsub.pipeline import run_pilot, run_two_step
from qlsub.sampling import SamplingPlan
from qlsub.synth import make_spec, write_case_csv

from _oracles import csv_reference


def rows(stream):
    """``(global_index, x_row, y)`` for every record of one scan, in order."""
    return [
        (start + i, xb[i], float(yb[i]))
        for start, xb, yb in stream.iter_blocks()
        for i in range(xb.shape[0])
    ]


def _write_csv(path, table):
    np.savetxt(path, table, fmt="%.17g", delimiter=",")
    return str(path)


_WATCHED: dict[str, list] = {}


def _audit(event, args):
    if event == "open" and args[0] in _WATCHED:
        _WATCHED[args[0]].append(args[1])


@contextlib.contextmanager
def _opens_of(path: str):
    """The list of every open of ``path`` in the block: by ``open``, ``io.FileIO`` or ``os.open``."""
    if not hasattr(_audit, "installed"):
        sys.addaudithook(_audit)  # a hook cannot be removed, so it is added once
        _audit.installed = True
    _WATCHED[path] = []
    try:
        yield _WATCHED[path]
    finally:
        del _WATCHED[path]


@pytest.fixture
def small_csv(tmp_path):
    rng = np.random.default_rng(0)
    table = np.column_stack([rng.normal(size=20), rng.uniform(size=(20, 3))])
    return _write_csv(tmp_path / "small.csv", table), table


class TestScan:
    def test_counts_rows(self, tmp_path):
        path = _write_csv(tmp_path / "t.csv", np.arange(6.0).reshape(3, 2))
        seen = [i for i, _, _ in rows(CsvStream(path))]
        assert seen == [0, 1, 2]

    def test_two_scans_identical(self, small_csv):
        path, _ = small_csv
        stream = CsvStream(path, block_size=7)
        runs = [[(i, tuple(x), y) for i, x, y in rows(stream)] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_indices_continuous_across_files(self, tmp_path):
        paths = []
        for j in range(5):
            paths.append(
                _write_csv(tmp_path / f"part{j}.csv", np.full((4, 2), float(j)))
            )
        stream = CsvStream(paths, block_size=3)
        assert [i for i, _, _ in rows(stream)] == list(range(20))

    def test_block_size_does_not_change_content(self, small_csv):
        path, table = small_csv
        for bs in (1, 3, 64):
            got = [y for _, _, y in rows(CsvStream(path, block_size=bs))]
            np.testing.assert_array_equal(got, table[:, 0])


class TestParsing:
    def test_malformed_row_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n5,6\n")
        with pytest.raises(DataError, match=r"bad\.csv:2"):
            rows(CsvStream(str(path)))

    def test_arity_mismatch_reports_location(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n6,7,8\n")
        with pytest.raises(DataError, match=r"ragged\.csv:2"):
            rows(CsvStream(str(path)))

    def test_hash_line_is_a_malformed_record(self, tmp_path):
        # "#" starts no comment: dropping the line would shift every later
        # index and disagree with the record count
        path = tmp_path / "hash.csv"
        path.write_text("1,2\n#3,4\n5,6\n7,8\n")
        with pytest.raises(DataError, match=r"hash\.csv:2: malformed row"):
            CsvStream(str(path))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("9,oops", r"bad\.csv:5: malformed row"),
            ("9", r"bad\.csv:5: expected 2 fields, found 1"),
            ("nan,9", r"bad\.csv:5: non-finite value"),
            ("9,-inf", r"bad\.csv:5: non-finite value"),
        ],
    )
    def test_bad_record_in_later_block_names_its_line(self, tmp_path, bad, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2\n\n3,4\n5,6\n{bad}\n7,8\n")
        with pytest.raises(DataError, match=message):
            rows(CsvStream(str(path), block_size=2))

    @pytest.mark.parametrize("bad", ["9,oops", "9,8,7", "inf,9"])
    def test_bad_record_in_shard_names_its_line(self, tmp_path, bad):
        lines = [f"{j},{j}" for j in range(12)]
        lines[9] = bad
        path = tmp_path / "shards.csv"
        path.write_text("y,x\n" + "\n".join(lines) + "\n")
        # the constructor parses the whole source, so no shard is ever made
        with pytest.raises(DataError, match=r"shards\.csv:11: "):
            partition_view(CsvStream(str(path), skip_header=True, block_size=3), 3)

    def test_lines_ended_by_carriage_returns_are_numbered(self, tmp_path):
        # the slow path numbers lines as the text-mode count and parse split them
        path = tmp_path / "cr.csv"
        path.write_bytes(b"1,2\r3,4\r5,oops\r7,8\r")
        with pytest.raises(DataError, match=r"cr\.csv:3: malformed row"):
            CsvStream(str(path))

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"y,x\n1,2\n3,\xff4\n")
        with pytest.raises(DataError, match=r"latin\.csv:3: not UTF-8 text \(invalid start byte\)"):
            CsvStream(str(path), skip_header=True)

    def test_non_finite_in_unused_column_is_ignored(self, tmp_path):
        path = tmp_path / "unused.csv"
        path.write_text("1,2,nan\n3,4,inf\n")
        stream = CsvStream(str(path), x_cols=[1])
        assert [(i, tuple(x), y) for i, x, y in rows(stream)] == [(0, (2.0,), 1.0), (1, (4.0,), 3.0)]

    def test_missing_file_is_data_error(self):
        with pytest.raises(DataError):
            CsvStream("/nonexistent/nope.csv").n_records

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("y,x\n1,2\n3,4\n")
        stream = CsvStream(str(path), skip_header=True)
        assert stream.n_records == 2

    def test_response_column_selection(self, tmp_path):
        path = _write_csv(tmp_path / "cols.csv", np.array([[1.0, 2.0, 3.0]]))
        ys = [(y, tuple(x)) for _, x, y in rows(CsvStream(str(path), y_col=2, x_cols=[0]))]
        assert ys == [(3.0, (1.0,))]


class TestRecordContract:
    """A record is a non-blank line: blank and whitespace-only lines, anywhere
    in the file, leave the records and their indices unchanged."""

    TABLE = np.arange(1.0, 25.0).reshape(8, 3) / 4.0

    def _write(self, path, header: bool):
        text = "".join(
            ("\n" if i % 3 == 0 else "") + ("  \t \n" if i % 4 == 1 else "")
            + ",".join(repr(float(v)) for v in row) + "\n"
            for i, row in enumerate(self.TABLE)
        )
        path.write_text(("y,a,b\n" if header else "") + text + "\n \n\n")
        return str(path)

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("block_size", [1, 2, 3, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_scans_and_shards_match_arrays(self, tmp_path, header, block_size, k):
        path = self._write(tmp_path / "gaps.csv", header)
        stream = CsvStream(path, skip_header=header, block_size=block_size)
        reference = ArrayStream(self.TABLE[:, 1:], self.TABLE[:, 0], block_size=block_size)

        def records(source):
            return [(i, tuple(x), y) for i, x, y in rows(source)]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stream.n_records == 8 and stream.dim == 2
            assert records(stream) == records(reference)
            for shard, expected in zip(partition_view(stream, k), partition_view(reference, k)):
                assert records(shard) == records(expected)


class TestTransforms:
    def test_intercept_injection(self, small_csv):
        path, table = small_csv
        stream = CsvStream(path, intercept=True)
        assert stream.dim == 4
        assert all(x[0] == 1.0 for _, x, _ in rows(stream))
        # stored file untouched
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=","), table)

    def test_affine_response_transform_composes(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(60, 2))
        y = x @ np.array([1.0, -2.0]) + rng.normal(size=60)
        shifted = _write_csv(tmp_path / "s.csv", np.column_stack([y, x]))
        pre = _write_csv(tmp_path / "p.csv", np.column_stack([y + 5.0, x]))

        def load(stream):
            xs, ys = [], []
            for _, xb, yb in stream.iter_blocks():
                xs.append(xb)
                ys.append(yb)
            return np.concatenate(xs), np.concatenate(ys)

        xa, ya = load(CsvStream(shifted, y_shift=5.0))
        xb, yb = load(CsvStream(pre))
        fit_a = solve_weighted_qle(xa, ya, IDENTITY)
        fit_b = solve_weighted_qle(xb, yb, IDENTITY)
        np.testing.assert_allclose(fit_a.beta, fit_b.beta, atol=1e-12)

    @pytest.mark.parametrize("text, schema", [("1\n2\n", {}), ("1,2\n3,4\n", {"x_cols": []})],
                             ids=["one-field", "no-x-cols"])
    def test_schema_without_covariate_is_refused(self, tmp_path, text, schema):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=r"f\.csv: no covariate column; add --intercept or --x-cols$"):
            CsvStream(str(path), **schema)
        assert CsvStream(str(path), intercept=True, **schema).dim == 1

    @pytest.mark.parametrize(
        "x, y", [(np.zeros((4, 0)), np.zeros(4)), (np.zeros(4), np.zeros(4)), (np.zeros((4, 2)), np.zeros(3))],
        ids=["no-column", "x-1d", "y-short"],
    )
    def test_array_shapes_checked(self, x, y):
        with pytest.raises(DataError, match=r"x must be \(n, d\) with d >= 1"):
            ArrayStream(x, y)


class TestPartition:
    def test_identity_partition(self, small_csv):
        # K = 1 is one shard holding every record, in order, under its global index
        path, table = small_csv
        stream = CsvStream(path, block_size=7)
        [shard] = partition_view(stream, 1)
        assert (shard.n_records, shard.dim) == (20, 3)
        got = rows(shard)
        assert [i for i, _, _ in got] == list(range(20))
        assert np.array([x for _, x, _ in got]).tobytes() == table[:, 1:].tobytes()
        assert np.array([y for _, _, y in got]).tobytes() == table[:, 0].tobytes()

    def test_balanced_split_sizes(self):
        stream = ArrayStream(np.zeros((10, 2)), np.zeros(10))
        shards = partition_view(stream, 3)
        assert [s.n_records for s in shards] == [4, 3, 3]

    def test_file_aligned_split(self, tmp_path):
        paths = [
            _write_csv(tmp_path / f"f{j}.csv", np.full((3 + j, 2), float(j)))
            for j in range(5)
        ]
        stream = CsvStream(paths)
        shards = partition_view(stream, 5)
        assert [s.n_records for s in shards] == [3, 4, 5, 6, 7]
        # shard j sees only file j's rows
        assert [y for _, _, y in rows(shards[2])] == [2.0] * 5

    def test_global_indices_preserved(self):
        stream = ArrayStream(np.arange(20.0).reshape(10, 2), np.zeros(10))
        shards = partition_view(stream, 2)
        assert [i for i, _, _ in rows(shards[1])] == [5, 6, 7, 8, 9]

    def test_too_many_shards(self):
        with pytest.raises(DataError):
            partition_view(ArrayStream(np.zeros((3, 1)), np.zeros(3)), 4)

    def test_subset_bounds_checked(self):
        stream = ArrayStream(np.zeros((5, 1)), np.zeros(5))
        with pytest.raises(DataError):
            SubsetStream(stream, 2, 9)


def test_memory_independent_of_file_size(tmp_path):
    rng = np.random.default_rng(2)
    small = _write_csv(tmp_path / "n1.csv", rng.uniform(size=(2_000, 4)))
    big = _write_csv(tmp_path / "n2.csv", rng.uniform(size=(20_000, 4)))

    def peak(path):
        tracemalloc.start()
        # inside the trace: the constructor parses the file
        stream = CsvStream(path, block_size=256)
        for _ in stream.iter_blocks():
            pass
        _, high = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return high

    p_small, p_big = peak(small), peak(big)
    # block-bounded: a 10x file must not cost anywhere near 10x memory
    assert p_big < 2.0 * p_small + 65536


class TestParseOnce:
    """Every record of a CSV file is parsed exactly once per file content: a
    cold stream parses each record once, and later scans, the exact-cap pass,
    every shard and every later stream over the unchanged file read the
    spilled or cached records."""

    @pytest.fixture(scope="class")
    def case(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("once") / "c1.csv")
        write_case_csv(make_spec("c1", 3000, seed=8), path)
        table = np.loadtxt(path, delimiter=",")
        return path, table[:, 1:], table[:, 0]

    @pytest.fixture(autouse=True)
    def cold(self, case):
        # the tests share the file; each starts without its sidecar
        Path(case[0] + ".qlcache").unlink(missing_ok=True)

    @pytest.fixture
    def parsed_rows(self, monkeypatch):
        counter = {"rows": 0}
        parse = CsvStream._parse

        def counting(stream, lines, path):
            x, y = parse(stream, lines, path)
            counter["rows"] += x.shape[0]
            return x, y

        monkeypatch.setattr(CsvStream, "_parse", counting)
        return counter

    @pytest.mark.parametrize("threshold", ["inf", "quantile", "exact"])
    @pytest.mark.parametrize("distributed", [False, True], ids=["two-step", "k4"])
    def test_each_record_parsed_once(self, case, parsed_rows, threshold, distributed):
        path, x, y = case
        plan = SamplingPlan(criterion="mv", expected_size=300, threshold_mode=threshold, seed=4)

        def fit(stream):
            if distributed:
                return run_distributed(stream, EXP, plan, r0=150, k=4, threads=2)
            return run_two_step(stream, EXP, plan, r0=150)

        expected = fit(ArrayStream(x, y, block_size=500))
        cold = fit(CsvStream(path, block_size=500))
        assert parsed_rows["rows"] == x.shape[0]
        warm = fit(CsvStream(path, block_size=500))
        assert parsed_rows["rows"] == x.shape[0]
        for result in (cold, warm):
            np.testing.assert_array_equal(result.beta, expected.beta)
            np.testing.assert_array_equal(result.variance, expected.variance)

    def test_threaded_shards_of_fresh_stream_match_arrays(self, case, parsed_rows):
        # four threads scan the shards of one stream at once, with a tiny
        # switch interval; each must see the records parsed at construction
        path, x, y = case
        plan = SamplingPlan(criterion="mv", expected_size=300, threshold_mode="quantile", seed=6)
        arrays = ArrayStream(x, y, block_size=256)
        pilot = run_pilot(arrays, EXP, 150, plan.seed, plan.criterion)

        def summaries(stream, pool):
            jobs = [
                pool.submit(fit_partition, shard, EXP, pilot, plan, 300.0, plan.seed, pid)
                for pid, shard in enumerate(partition_view(stream, 4), start=1)
            ]
            return [job.result(timeout=60) for job in jobs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = summaries(CsvStream(path, block_size=64), pool)
        finally:
            sys.setswitchinterval(interval)
        with ThreadPoolExecutor(max_workers=4) as pool:
            want = summaries(arrays, pool)
        assert parsed_rows["rows"] == x.shape[0]
        for a, b in zip(got, want):
            assert (a.partition_id, a.n_records, a.realized_size) == (
                b.partition_id, b.n_records, b.realized_size,
            )
            for field in ("beta", "hessian", "vc_contrib"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_constructor_raises_the_first_bad_record(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n5,oops\n7,8\n")
        # the record is in the second parse block; no stream is made
        with pytest.raises(DataError, match=r"bad\.csv:3: malformed row"):
            CsvStream(str(path), block_size=2)


class TestParseCache:
    """A stream over a file with a matching ``<file>.qlcache`` sidecar reads its
    records from the sidecar, bit for bit what the parse gives; anything that
    could make the sidecar wrong makes it a miss, and a cache problem never
    raises."""

    @staticmethod
    def sidecar(path):
        return Path(str(path) + ".qlcache")

    @staticmethod
    def assert_same(a, b):
        for field in ("x", "y"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.file_counts == b.file_counts

    @pytest.fixture
    def files(self, tmp_path):
        """One c1 file and the same records split over four files, with the arrays."""
        spec = make_spec("c1", 1200, seed=21)
        one = write_case_csv(spec, str(tmp_path / "one.csv"))
        four = write_case_csv(spec, str(tmp_path / "four.csv"), n_files=4)
        table = np.loadtxt(one[0], delimiter=",")
        return one, four, table[:, 1:], table[:, 0]

    @pytest.mark.parametrize("threshold", ["inf", "quantile", "exact"])
    @pytest.mark.parametrize("block_size", [1, 7, 512, 65536])
    def test_cold_warm_and_arrays_agree(self, files, block_size, threshold):
        one, four, x, y = files
        plan = SamplingPlan(criterion="mv", expected_size=200, threshold_mode=threshold, seed=3)
        fits = {
            "two-step": lambda s: run_two_step(s, EXP, plan, r0=100),
            "k1": lambda s: run_distributed(s, EXP, plan, r0=100, k=1),
            "k4": lambda s: run_distributed(s, EXP, plan, r0=100, k=4, threads=2),
        }
        wants = {name: fit(ArrayStream(x, y, block_size=block_size)) for name, fit in fits.items()}
        for paths in (one, four):
            cold = CsvStream(paths, block_size=block_size)
            assert all(self.sidecar(p).exists() for p in paths)
            warm = CsvStream(paths, block_size=block_size)
            for name, fit in fits.items():
                want = wants[name]
                for stream in (cold, warm):
                    got = fit(stream)
                    np.testing.assert_array_equal(got.beta, want.beta, err_msg=name)
                    np.testing.assert_array_equal(got.variance, want.variance, err_msg=name)
                    assert got.info == want.info
        # the file-aligned shards of the warm four-file stream are the files
        assert warm.file_counts == [300, 300, 300, 300]

    @pytest.mark.parametrize("warm", [(0, 2), (1, 3)], ids=["first-third", "second-fourth"])
    def test_mixed_warm_and_cold_files_agree(self, files, warm):
        _, four, x, y = files
        CsvStream(four)
        for j, path in enumerate(four):
            if j not in warm:
                self.sidecar(path).unlink()
        mixed = CsvStream(four, block_size=128)
        np.testing.assert_array_equal(mixed.x, x)
        np.testing.assert_array_equal(mixed.y, y)
        assert mixed.file_counts == [300] * 4
        assert all(self.sidecar(p).exists() for p in four)
        plan = SamplingPlan(criterion="mv", expected_size=200, threshold_mode="quantile", seed=5)
        want = run_distributed(ArrayStream(x, y, block_size=128), EXP, plan, r0=100, k=4, threads=2)
        got = run_distributed(mixed, EXP, plan, r0=100, k=4, threads=2)
        np.testing.assert_array_equal(got.beta, want.beta)
        np.testing.assert_array_equal(got.variance, want.variance)
        assert got.info == want.info

    def test_failed_payload_copy_leaves_no_partial_records(self, files, monkeypatch):
        # the second file's x part and half of its y part are copied, then
        # the copy fails: the stream drops both, parses that file and reads
        # the others from their sidecars
        _, four, x, y = files
        CsvStream(four)
        copy, calls = ingest._copy, []

        def copy_then_fail(src, dst, nbytes, crc=0):
            calls.append(nbytes)
            if len(calls) == 4:
                copy(src, dst, nbytes // 2)
                raise OSError(5, "Input/output error")
            return copy(src, dst, nbytes, crc)

        monkeypatch.setattr(ingest, "_copy", copy_then_fail)
        stream = CsvStream(four)
        assert len(calls) == 8
        self.assert_same(stream, CsvStream(four, cache=False))
        np.testing.assert_array_equal(stream.x, x)
        np.testing.assert_array_equal(stream.y, y)

    def test_warm_stream_parses_nothing_and_names_lines(self, tmp_path, monkeypatch):
        path = tmp_path / "h.csv"
        path.write_text("y,x\n1,2\n\n3,4\n")
        cold = CsvStream(str(path), skip_header=True)
        monkeypatch.setattr(CsvStream, "_parse", None)
        warm = CsvStream(str(path), skip_header=True)
        self.assert_same(warm, cold)
        assert warm.where(1) == f"{path}:4"

    def test_same_size_rewrite_is_reparsed(self, tmp_path):
        path = tmp_path / "edit.csv"
        path.write_text("1,2\n3,4\n")
        assert CsvStream(str(path)).x[1, 0] == 4.0
        stamp = os.stat(path).st_mtime_ns
        path.write_text("1,2\n3,5\n")
        os.utime(path, ns=(stamp, stamp))  # same size and mtime: only the bytes differ
        assert CsvStream(str(path)).x[1, 0] == 5.0
        assert CsvStream(str(path)).x[1, 0] == 5.0

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "extended", "empty", "version", "garbage", "header-only", "arity", "payload-x", "payload-y"],
    )
    def test_damaged_sidecar_is_ignored_and_replaced(self, small_csv, damage):
        path, _ = small_csv
        good = CsvStream(path, block_size=7)
        sidecar = self.sidecar(path)
        data = sidecar.read_bytes()
        x_at = len(data) - good.x.nbytes - good.y.nbytes
        broken = {
            "truncated": data[:-8],
            "extended": data + bytes(8),
            "empty": b"",
            "version": data[:7] + b"\x01" + data[8:],  # the format before the payload CRC
            "garbage": np.random.default_rng(1).bytes(len(data)),
            "header-only": data[: ingest._CACHE_HEAD.size],
            # the field count, which neither the key nor the payload holds
            "arity": data[:24] + bytes([data[24] ^ 1]) + data[25:],
            # one bit of the first x value, or of the last y value: the key still matches
            "payload-x": data[:x_at] + bytes([data[x_at] ^ 1]) + data[x_at + 1 :],
            "payload-y": data[:-1] + bytes([data[-1] ^ 1]),
        }[damage]
        sidecar.write_bytes(broken)
        self.assert_same(CsvStream(path, block_size=7), good)
        assert sidecar.read_bytes() == data

    def test_sidecar_without_covariate_is_refused(self, tmp_path):
        # an earlier reader took one-field records and cached them with d = 0:
        # here, the sidecar of the intercept schema with no x and the key of the plain one
        path = tmp_path / "one.csv"
        path.write_text("1\n2\n3\n")
        stream, head = CsvStream(str(path), intercept=True), ingest._CACHE_HEAD
        data = self.sidecar(path).read_bytes()
        key = data[head.size : len(data) - stream.x.nbytes - stream.y.nbytes].replace(b"True", b"False")
        fields = (ingest._CACHE_MAGIC, 3, 0, 1, stream.y.nbytes)
        crc = zlib.crc32(stream.y, zlib.crc32(head.pack(*fields, 0)[:-8]))
        self.sidecar(path).write_bytes(head.pack(*fields, crc) + key + stream.y.tobytes())
        with pytest.raises(DataError, match=r"one\.csv: no covariate column"):
            CsvStream(str(path))

    def test_file_changed_during_the_parse_is_never_served(self, tmp_path, monkeypatch):
        # the parse reads through a 256 KiB buffer and the same-size rewrite
        # lands between two reads, so the records read are old and new ones;
        # the stream raises instead of serving them, and writes no sidecar
        path = tmp_path / "moving.csv"
        path.write_text("1,2\n" * 100_000)
        os.utime(path, ns=(10**18, 10**18))  # any rewrite now gives another mtime
        parse = CsvStream._parse

        def parse_then_edit(stream, lines, name):
            got = parse(stream, lines, name)
            path.write_text("1,3\n" * 100_000)
            return got

        monkeypatch.setattr(CsvStream, "_parse", parse_then_edit)
        with pytest.raises(DataError, match=r"moving\.csv: changed while being read"):
            CsvStream(str(path), block_size=1000)
        assert not self.sidecar(path).exists()
        monkeypatch.undo()
        assert set(CsvStream(str(path)).x[:, 0]) == {3.0}
        assert set(CsvStream(str(path)).x[:, 0]) == {3.0}

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("edit", ["grow", "shrink", "rewrite"])
    def test_file_edited_during_the_parse_raises(self, tmp_path, monkeypatch, edit, cache):
        path = tmp_path / "edited.csv"
        path.write_text("1,2\n3,4\n5,6\n7,8\n")
        os.utime(path, ns=(10**18, 10**18))  # a fixed past mtime: no timestamp granularity matters
        text = {"grow": "1,2\n3,4\n5,6\n7,8\n9,9\n", "shrink": "1,2\n", "rewrite": "1,2\n3,4\n5,6\n7,9\n"}[edit]
        parse, calls = CsvStream._parse, []

        def parse_then_edit(stream, lines, name):
            calls.append(name)
            if len(calls) == 1:
                path.write_text(text)
            return parse(stream, lines, name)

        monkeypatch.setattr(CsvStream, "_parse", parse_then_edit)
        with pytest.raises(DataError, match=r"edited\.csv: changed while being read"):
            CsvStream(str(path), block_size=2, cache=cache)
        assert not self.sidecar(path).exists()

    def test_file_is_read_once_cold_and_once_warm(self, small_csv):
        # every open of the CSV, by any means: cold, the digest is taken in
        # the parse, not in a pass of its own, and nothing counts the records
        path, _ = small_csv
        with _opens_of(path) as opened:
            CsvStream(path)
            assert len(opened) == 1
            warm = CsvStream(path)
            assert len(opened) == 2
            self.sidecar(path).write_bytes(b"stale")
            self.assert_same(CsvStream(path), warm)
            assert len(opened) == 3  # a sidecar with a bad header is removed before the CSV is hashed
            CsvStream(path, cache=False)
            assert len(opened) == 4

    def test_stale_sidecar_is_removed(self, tmp_path):
        path = tmp_path / "gone.csv"
        path.write_text("1,2\n3,4\n")
        CsvStream(str(path))
        path.write_text("\n")
        with pytest.raises(DataError, match="no records in"):
            CsvStream(str(path))
        assert not self.sidecar(path).exists()
        path.write_text("1,2\n")
        CsvStream(str(path))
        path.unlink()
        with pytest.raises(DataError, match="cannot read"):
            CsvStream(str(path))
        assert not self.sidecar(path).exists()

    def test_warm_files_above_the_descriptor_limit(self, tmp_path):
        # no sidecar stays open past its own file, so a stream over more
        # files than the process may hold open works cold and warm
        resource = pytest.importorskip("resource")
        paths = []
        for i in range(80):
            paths.append(str(tmp_path / f"part{i:02d}.csv"))
            Path(paths[-1]).write_text(f"{i},1\n{i},2\n")
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        in_use = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 16
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(in_use + 40, soft), hard))
        try:
            cold = CsvStream(paths)
            assert all(self.sidecar(p).exists() for p in paths)
            self.assert_same(CsvStream(paths), cold)
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert cold.y.tolist() == [float(i) for i in range(80) for _ in range(2)]

    def test_foreign_key_of_the_same_length_is_a_miss(self, tmp_path):
        # two files of one size under one schema: their keys differ only in
        # the digest, so one file's sidecar is never served for the other
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("1,2\n3,4\n")
        b.write_text("5,6\n7,8\n")
        CsvStream(str(a))
        self.sidecar(b).write_bytes(self.sidecar(a).read_bytes())
        assert CsvStream(str(b)).y.tolist() == [5.0, 7.0]

    @pytest.mark.parametrize("failing", ["mkstemp", "replace"])
    def test_unwritable_cache_is_skipped(self, small_csv, tmp_path, monkeypatch, failing):
        path, table = small_csv

        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        target = ingest.tempfile if failing == "mkstemp" else ingest.os
        monkeypatch.setattr(target, failing, fail)
        stream = CsvStream(path)
        np.testing.assert_array_equal(stream.y, table[:, 0])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv"]

    def test_bad_record_writes_no_sidecar(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n5,oops\n7,8\n")
        for _ in range(2):
            with pytest.raises(DataError, match=r"bad\.csv:3: malformed row"):
                CsvStream(str(path), block_size=2)
            assert not self.sidecar(path).exists()

    def test_no_cache_neither_reads_nor_writes(self, small_csv):
        path, table = small_csv
        CsvStream(path, cache=False)
        assert not self.sidecar(path).exists()
        CsvStream(path)
        self.sidecar(path).write_bytes(b"x" * 64)
        np.testing.assert_array_equal(CsvStream(path, cache=False).y, table[:, 0])
        assert self.sidecar(path).read_bytes() == b"x" * 64

    @pytest.mark.parametrize(
        "schema",
        [{"x_cols": [2, 1]}, {"y_shift": 1.5}, {"intercept": True}, {"skip_header": True}, {"y_col": 3}],
        ids=["x-cols", "y-shift", "intercept", "header", "y-col"],
    )
    def test_other_schema_is_never_served(self, small_csv, schema):
        path, _ = small_csv
        first = CsvStream(path)
        other = CsvStream(path, **schema)
        self.assert_same(other, CsvStream(path, cache=False, **schema))
        assert not (other.x.shape == first.x.shape and np.array_equal(other.x, first.x)
                    and np.array_equal(other.y, first.y))
        # both sidecar generations serve their own schema only
        self.assert_same(CsvStream(path), first)
        self.assert_same(CsvStream(path, **schema), other)

    def test_negative_zero_shift_is_its_own_schema(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("-0.0,1\n")
        assert np.signbit(CsvStream(str(path), y_shift=-0.0).y[0])
        assert not np.signbit(CsvStream(str(path), y_shift=0.0).y[0])

    def test_warm_streams_raise_the_stream_errors(self, tmp_path):
        narrow = _write_csv(tmp_path / "narrow.csv", np.ones((4, 3)))
        wide = _write_csv(tmp_path / "wide.csv", np.ones((4, 4)))
        empty = str(tmp_path / "empty.csv")
        Path(empty).write_text("\n")
        CsvStream(narrow), CsvStream(wide)
        assert self.sidecar(narrow).exists() and self.sidecar(wide).exists()
        with pytest.raises(DataError, match=r"wide\.csv:1: expected 3 fields, found 4"):
            CsvStream([narrow, wide])
        with pytest.raises(DataError, match=r"narrow\.csv:1: expected 4 fields, found 3"):
            CsvStream([wide, narrow])
        # a file without records never gets a sidecar
        with pytest.raises(DataError, match=r"empty\.csv: no records"):
            partition_view(CsvStream([narrow, narrow, empty, narrow]), 4)
        with pytest.raises(DataError, match="no records in"):
            CsvStream([empty, empty])
        assert not self.sidecar(empty).exists()


@pytest.fixture(scope="module")
def two_file_source(tmp_path_factory):
    """A 2-file c1 source, its cold stream and the bytes of its intact sidecars."""
    paths = write_case_csv(make_spec("c1", 600, seed=5), str(tmp_path_factory.mktemp("fuzz") / "f.csv"), n_files=2)
    cold = CsvStream(paths, cache=False)
    CsvStream(paths)
    return paths, cold, [Path(p + ".qlcache").read_bytes() for p in paths]


# the first file's field count (header bytes 24 to 31) is the damage that a
# stream once served, which made the second file's records ragged
@example(which=0, part="header", at=24, xor=1)
@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, 1),
    part=st.sampled_from(["truncate", "header", "key", "payload"]),
    at=st.integers(0, 2**20),
    xor=st.integers(1, 255),
)
def test_damaged_sidecar_fuzz(two_file_source, which, part, at, xor):
    """A sidecar truncated anywhere, or with any byte of its header, key or
    payload changed, gives the cold records: it is served intact or the file
    is parsed, and nothing is raised."""
    paths, cold, intact = two_file_source
    head = ingest._CACHE_HEAD.size
    keylen = len(intact[which]) - head - 8 * cold.file_counts[which] * (cold.dim + 1)
    data = bytearray(intact[which])
    if part == "truncate":
        del data[at % len(data) :]
    else:
        lo, hi = {"header": (0, head), "key": (head, head + keylen), "payload": (head + keylen, len(data))}[part]
        data[lo + at % (hi - lo)] ^= xor
    for path, blob in zip(paths, intact):
        Path(path + ".qlcache").write_bytes(blob)
    Path(paths[which] + ".qlcache").write_bytes(data)
    got = CsvStream(paths)
    for field in ("x", "y"):
        assert getattr(got, field).tobytes() == getattr(cold, field).tobytes()
    assert got.file_counts == cold.file_counts


# number spellings a record may hold
_NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.6e}"),
    st.floats(0.0, 1e6).map(lambda v: f"+{v:.3E}"),
    st.floats(0.0, 1e3).map(lambda v: f"+{v!r}"),
)
# fields no record may hold: not numbers, or not finite
_BAD_FIELDS = st.sampled_from(
    ["nan", "-inf", "+Infinity", "1e400", "-1e400", "", " ", "abc", "1_0", "0x10", "1e", "--1", "1.2.3", "#1", "\u0661",
     "1\u200b", "\u200b1"]
)
# padding a field may carry: the characters for which str.isspace holds, but
# the line ends; a zero-width space (U+200B) is not one of them (_BAD_FIELDS)
_PADS = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"])
_NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])


@st.composite
def csv_sources(draw):
    """``(files, header)``: the bytes of one to three CSV files, and whether each starts with a header line.

    The records have one field count, one field leaving no covariate; each
    field is padded by whitespace, and blank and whitespace-only lines lie
    between them.  Up to two damages follow: a field replaced by one that no
    record may hold, a field added or dropped, or bytes that are not UTF-8
    put into a line.  Each line ends in ``\\n``, ``\\r\\n`` or ``\\r``, the last
    one possibly in nothing.
    """
    arity, header = draw(st.integers(1, 4)), draw(st.booleans())
    files = []
    for _ in range(draw(st.integers(1, 3))):
        lines = [draw(st.sampled_from([b"y,x1,x2", b"1,2", b"", b" "]))] if header else []
        for _ in range(draw(st.integers(0, 6))):
            blank = draw(st.sampled_from([None, None, None, b"", b" ", b"\t \t", "\xa0\x1c".encode()]))
            if blank is not None:
                lines.append(blank)
            fields = [draw(_PADS) + draw(_NUMBERS) + draw(_PADS) for _ in range(arity)]
            lines.append(",".join(fields).encode())
        for _ in range(draw(st.integers(0, 2)) if lines else 0):
            j = draw(st.integers(0, len(lines) - 1))
            kind, fields = draw(st.sampled_from(["field", "ragged", "bytes"])), lines[j].split(b",")
            if kind == "field":
                fields[draw(st.integers(0, len(fields) - 1))] = draw(_BAD_FIELDS).encode()
            elif kind == "ragged" and len(fields) > 1 and draw(st.booleans()):
                fields.pop()
            elif kind == "ragged":
                fields.append(draw(_NUMBERS).encode())
            else:
                at = draw(st.integers(0, len(lines[j])))
                fields = [lines[j][:at] + draw(_NOT_UTF8) + lines[j][at:]]
            lines[j] = b",".join(fields)
        ends = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
        if ends and draw(st.booleans()):
            ends[-1] = b""
        files.append(b"".join(line + end for line, end in zip(lines, ends)))
    return files, header


# padding: whitespace outside ASCII and an ASCII separator, then a zero-width
# space; and records of one field, which leave no covariate
@example(source=(["1,2\x1f\n3\xa0,\u30004\n".encode()], False))
@example(source=(["1,2\u200b\n".encode()], False))
@example(source=([b"\n", b"1\n2\n"], False))
@settings(max_examples=200, deadline=None)
@given(source=csv_sources())
def test_reader_fuzz(source):
    """Cold, warm and at block sizes 1, 2 and 7, the reader gives the floats of
    ``csv_reference`` bit for bit, or a ``DataError`` naming its first bad
    line; the CLI then exits 3 with that one line."""
    files, header = source
    with tempfile.TemporaryDirectory() as root:
        paths = [os.path.join(root, f"f{j}.csv") for j in range(len(files))]
        for path, data in zip(paths, files):
            Path(path).write_bytes(data)
        rows, counts, where = csv_reference(paths, skip_header=header)

        def check(block, cache):
            if rows is None:
                with pytest.raises(DataError, match=f"^{re.escape(where)}: " if where else "^no records in "):
                    CsvStream(paths, block_size=block, skip_header=header, cache=cache)
                return
            got = CsvStream(paths, block_size=block, skip_header=header, cache=cache)
            table = np.array(rows)
            assert got.y.tobytes() == table[:, 0].tobytes()
            assert got.x.tobytes() == np.ascontiguousarray(table[:, 1:]).tobytes()
            assert got.file_counts == counts

        for block in (1, 2, 7):
            check(block, cache=False)
        # warm: each file that reads alone gets a sidecar first
        for path in paths:
            with contextlib.suppress(DataError):
                CsvStream(path, block_size=7, skip_header=header)
        check(2, cache=True)
        if rows is None:
            out, err = os.path.join(root, "o.json"), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["fit-full", "--data", *paths, *(["--header"] if header else []), "--out", out])
            message = err.getvalue()
            assert code == 3, message
            assert message.startswith(f"qlsub: data error: {where}: " if where else "qlsub: data error: no records in ")
            assert message.count("\n") == 1 and message.endswith("\n")
            assert not os.path.exists(out)
