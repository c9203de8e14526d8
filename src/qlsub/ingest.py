"""Streaming record sources with block-by-block scanning.

A stream is a re-scannable table of (x, y) records with stable global
indices: two scans of the same source yield identical record sequences, and
the index of a record never depends on the block size or shard layout.
CSV sources are read in bounded blocks so memory stays independent of the
file size; in-memory arrays expose the same interface for experiments.

A CSV record is a non-blank line of comma-separated numbers after the
optional header line; ``#`` starts no comment.  A malformed or ragged record,
or a non-finite selected field, raises ``DataError`` naming the file and line.
"""

from __future__ import annotations

import collections
import itertools
from typing import NoReturn

import numpy as np

from .errors import DataError

DEFAULT_BLOCK_SIZE = 65536


class RecordStream:
    """Interface: ``n_records``, ``dim``, ``iter_blocks(lo, hi)``."""

    @property
    def n_records(self) -> int:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def iter_blocks(self, lo: int = 0, hi: int | None = None):
        """Yield ``(start_index, x_block, y_block)`` covering [lo, hi)."""
        raise NotImplementedError


class ArrayStream(RecordStream):
    """In-memory stream over already-materialized arrays."""

    def __init__(self, x, y, block_size: int = DEFAULT_BLOCK_SIZE):
        self._x = np.asarray(x, dtype=np.float64)
        self._y = np.asarray(y, dtype=np.float64)
        if self._x.ndim != 2 or self._y.shape != (self._x.shape[0],):
            raise DataError("x must be (n, d) and y must be (n,)")
        if block_size < 1:
            raise DataError("block size must be positive")
        self.block_size = int(block_size)

    @property
    def n_records(self) -> int:
        return self._x.shape[0]

    @property
    def dim(self) -> int:
        return self._x.shape[1]

    def iter_blocks(self, lo: int = 0, hi: int | None = None):
        hi = self.n_records if hi is None else hi
        for start in range(lo, hi, self.block_size):
            stop = min(start + self.block_size, hi)
            yield start, self._x[start:stop], self._y[start:stop]


class CsvStream(RecordStream):
    """Headerless numeric CSV files scanned block-by-block.

    ``paths`` may be one path or a list; indices run continuously across
    files in list order.  The response column may be affinely transformed at
    parse time (``y_scale * y + y_shift``), and a constant-one covariate can
    be injected without touching the stored files.
    """

    def __init__(
        self,
        paths,
        y_col: int = 0,
        x_cols=None,
        intercept: bool = False,
        y_scale: float = 1.0,
        y_shift: float = 0.0,
        block_size: int = DEFAULT_BLOCK_SIZE,
        skip_header: bool = False,
    ):
        self.paths = [paths] if isinstance(paths, (str,)) else list(paths)
        if not self.paths:
            raise DataError("no input files given")
        self.y_col = int(y_col)
        self.x_cols = None if x_cols is None else [int(c) for c in x_cols]
        self.intercept = bool(intercept)
        self.y_scale = float(y_scale)
        self.y_shift = float(y_shift)
        if block_size < 1:
            raise DataError("block size must be positive")
        self.block_size = int(block_size)
        self.skip_header = bool(skip_header)
        self._file_counts: list[int] | None = None
        self._arity: int | None = None

    # -- reading ------------------------------------------------------

    def _records(self, fh):
        """The records of an open file: its non-blank lines after the header."""
        if self.skip_header:
            fh.readline()
        return filter(str.strip, fh)

    def _count_file(self, path: str) -> int:
        try:
            with open(path, "r") as fh:
                return sum(1 for _ in self._records(fh))
        except OSError as err:
            raise DataError(f"cannot read {path}: {err}") from err

    def file_counts(self) -> list[int]:
        if self._file_counts is None:
            self._file_counts = [self._count_file(p) for p in self.paths]
        return self._file_counts

    @property
    def n_records(self) -> int:
        return sum(self.file_counts())

    @property
    def dim(self) -> int:
        if self._arity is None:
            for _ in self.iter_blocks(0, 1):
                break
            if self._arity is None:
                raise DataError("empty source; cannot infer dimension")
        ncov = self._arity - 1 if self.x_cols is None else len(self.x_cols)
        return ncov + (1 if self.intercept else 0)

    # -- parsing ------------------------------------------------------

    def _set_arity(self, path: str, arity: int) -> None:
        for kind, cols in (("response", [self.y_col]), ("covariate", self.x_cols or [])):
            for col in cols:
                if not 0 <= col < arity:
                    raise DataError(f"{path}: {kind} column {col} out of range for {arity} fields")
        self._arity = arity

    def _split(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = block[:, self.y_col] * self.y_scale + self.y_shift
        if self.x_cols is None:
            x = np.delete(block, self.y_col, axis=1)
        else:
            x = block[:, self.x_cols]
        if self.intercept:
            x = np.hstack([np.ones((x.shape[0], 1)), x])
        return np.ascontiguousarray(x), np.ascontiguousarray(y)

    def _parse(self, lines, path: str) -> tuple[np.ndarray, np.ndarray]:
        """``(x, y)`` of record lines; a ``ValueError`` says what is wrong with them."""
        try:
            block = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
        except ValueError as err:
            raise ValueError(f"malformed row ({err})") from None
        if self._arity is None:
            self._set_arity(path, block.shape[1])
        if block.shape[1] != self._arity:
            raise ValueError(f"expected {self._arity} fields, found {block.shape[1]}")
        x, y = self._split(block)
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            raise ValueError("non-finite value")
        return x, y

    def _locate(self, path: str, first: int) -> NoReturn:
        """Raise a ``DataError`` naming the file line of the first bad record.

        Runs only after the block from record ``first`` of ``path`` failed to
        parse; it re-reads the file and parses the records one at a time.
        """
        with open(path, "r") as fh:
            lines = enumerate(fh, start=1)
            if self.skip_header:
                next(lines, None)
            records = ((lineno, line) for lineno, line in lines if line.strip())
            for lineno, line in itertools.islice(records, first, None):
                try:
                    self._parse([line], path)
                except ValueError as err:
                    raise DataError(f"{path}:{lineno}: {err}") from None
        raise DataError(f"{path}: changed while being read")

    def iter_blocks(self, lo: int = 0, hi: int | None = None):
        hi = self.n_records if hi is None else hi
        file_start = 0
        for path, count in zip(self.paths, self.file_counts()):
            file_end = file_start + count
            first, stop = max(lo - file_start, 0), min(hi, file_end) - file_start
            if first < stop:
                with open(path, "r") as fh:
                    records = self._records(fh)
                    collections.deque(itertools.islice(records, first), maxlen=0)
                    for position in range(first, stop, self.block_size):
                        take = min(self.block_size, stop - position)
                        try:
                            x, y = self._parse(itertools.islice(records, take), path)
                        except ValueError:
                            self._locate(path, position)
                        if x.shape[0] != take:
                            raise DataError(f"{path}: changed while being read")
                        yield file_start + position, x, y
            file_start = file_end


class SubsetStream(RecordStream):
    """Contiguous [lo, hi) window of a parent stream; indices stay global."""

    def __init__(self, parent: RecordStream, lo: int, hi: int):
        if not 0 <= lo <= hi <= parent.n_records:
            raise DataError("invalid subset bounds")
        self.parent = parent
        self.lo = int(lo)
        self.hi = int(hi)

    @property
    def n_records(self) -> int:
        return self.hi - self.lo

    @property
    def dim(self) -> int:
        return self.parent.dim

    def iter_blocks(self, lo: int = 0, hi: int | None = None):
        hi = self.n_records if hi is None else hi
        yield from self.parent.iter_blocks(self.lo + lo, self.lo + hi)


def partition_view(stream: RecordStream, k: int) -> list[RecordStream]:
    """Split a stream into K contiguous shards covering it exactly once.

    Splitting one source gives shard sizes differing by at most one; when the
    source is a file list with exactly K files, shards align with the files.
    """
    n = stream.n_records
    if k < 1:
        raise DataError("partition count must be at least 1")
    if k > n:
        raise DataError(f"cannot split {n} records into {k} shards")
    if k == 1:
        return [stream]
    if isinstance(stream, CsvStream) and len(stream.paths) == k:
        bounds = np.concatenate(([0], np.cumsum(stream.file_counts())))
    else:
        base, extra = divmod(n, k)
        sizes = [base + (1 if j < extra else 0) for j in range(k)]
        bounds = np.concatenate(([0], np.cumsum(sizes)))
    return [SubsetStream(stream, int(bounds[j]), int(bounds[j + 1])) for j in range(k)]
