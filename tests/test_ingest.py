import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qlsub.distributed import fit_partition, run_distributed
from qlsub.errors import DataError
from qlsub.estimator import solve_weighted_qle
from qlsub.families import EXP, IDENTITY
from qlsub.ingest import ArrayStream, CsvStream, SubsetStream, partition_view
from qlsub.pipeline import run_pilot, run_two_step
from qlsub.sampling import SamplingPlan
from qlsub.synth import make_spec, write_case_csv


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
        stream = CsvStream(str(path))
        assert stream.n_records == 4
        with pytest.raises(DataError, match=r"hash\.csv:2: malformed row"):
            rows(stream)

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
        shards = partition_view(CsvStream(str(path), skip_header=True, block_size=3), 3)
        # the first read parses the whole source, so every shard fails alike
        for shard in shards:
            with pytest.raises(DataError, match=r"shards\.csv:11: "):
                rows(shard)

    def test_non_finite_in_unused_column_is_ignored(self, tmp_path):
        path = tmp_path / "unused.csv"
        path.write_text("1,2,nan\n3,4,inf\n")
        stream = CsvStream(str(path), x_cols=[1])
        assert [(i, tuple(x), y) for i, x, y in rows(stream)] == [(0, (2.0,), 1.0), (1, (4.0,), 3.0)]

    def test_file_shortened_after_count_is_data_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1,2\n3,4\n5,6\n7,8\n9,10\n")
        stream = CsvStream(str(path), block_size=4)
        assert stream.n_records == 5
        path.write_text("1,2\n3,4\n5,6\n")
        with pytest.raises(DataError, match=r"short\.csv: changed while being read"):
            rows(stream)

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


class TestPartition:
    def test_identity_partition(self, small_csv):
        path, _ = small_csv
        stream = CsvStream(path)
        assert partition_view(stream, 1) == [stream]

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
        stream = CsvStream(path, block_size=256)
        tracemalloc.start()
        for _ in stream.iter_blocks():
            pass
        _, high = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return high

    p_small, p_big = peak(small), peak(big)
    # block-bounded: a 10x file must not cost anywhere near 10x memory
    assert p_big < 2.0 * p_small + 65536


class TestParseOnce:
    """Every record of a CSV source is parsed exactly once per fit; later
    scans, the exact-cap pass and every shard read the spilled records."""

    @pytest.fixture(scope="class")
    def case(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("once") / "c1.csv")
        write_case_csv(make_spec("c1", 3000, seed=8), path)
        table = np.loadtxt(path, delimiter=",")
        return path, table[:, 1:], table[:, 0]

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
        stream = CsvStream(path, block_size=500)
        if distributed:
            result = run_distributed(stream, EXP, plan, r0=150, k=4, threads=2)
            expected = run_distributed(ArrayStream(x, y, block_size=500), EXP, plan, r0=150, k=4)
        else:
            result = run_two_step(stream, EXP, plan, r0=150)
            expected = run_two_step(ArrayStream(x, y, block_size=500), EXP, plan, r0=150)
        assert parsed_rows["rows"] == x.shape[0]
        np.testing.assert_array_equal(result.beta, expected.beta)

    def test_threaded_shards_of_fresh_stream_match_arrays(self, case, parsed_rows):
        # four threads race to extend the parsed prefix of a never-scanned
        # stream; a lost update would parse a record twice or serve zeros
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

    def test_failure_is_raised_again_by_later_scans(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n5,oops\n7,8\n")
        stream = CsvStream(str(path), block_size=2)
        # a range that ends before the bad record fails too: the first read
        # parses the whole source
        for source in (SubsetStream(stream, 0, 2), stream, stream, SubsetStream(stream, 0, 2)):
            with pytest.raises(DataError, match=r"bad\.csv:3: malformed row"):
                rows(source)
