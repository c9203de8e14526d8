"""Streaming record sources with block-by-block scanning.

A stream is a re-scannable table of (x, y) records with stable global
indices: two scans of the same source yield identical record sequences, and
the index of a record never depends on the block size or shard layout.
In-memory arrays are served as views.  A CSV source is parsed once, in
bounded blocks, into arrays mapped from a temporary file that every later
scan, shard and thread slices, so Python memory stays independent of the
file size and no record is parsed twice.

A CSV record is a non-blank line of comma-separated numbers after the
optional header line; ``#`` starts no comment.  A malformed or ragged record,
a non-finite selected field or a byte that is not UTF-8 raises ``DataError``
naming the file and line.
"""

from __future__ import annotations

import itertools
import mmap
import os
import tempfile
import threading
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
    """Headerless numeric CSV files, parsed once into a private spill.

    ``paths`` may be one path or a list; indices run continuously across
    files in list order.  A constant can be added to the response at parse
    time (``y + y_shift``), and a constant-one covariate can be injected
    without touching the stored files.

    The first call that needs a record parses every file, in order, block by
    block and each record exactly once, into float64 arrays mapped from an
    unlinked temporary file ((d + 1) * 8 bytes per record).  From then on the
    stream is an :class:`ArrayStream` over those arrays, which every scan,
    shard and thread slices; the file is deleted with the stream.
    """

    def __init__(
        self,
        paths,
        y_col: int = 0,
        x_cols=None,
        intercept: bool = False,
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
        self.y_shift = float(y_shift)
        if block_size < 1:
            raise DataError("block size must be positive")
        self.block_size = int(block_size)
        self.skip_header = bool(skip_header)
        self._file_counts: list[int] | None = None
        self._arity: int | None = None
        self._lock = threading.Lock()
        self._arrays: ArrayStream | None = None
        self._error: BaseException | None = None

    # -- reading ------------------------------------------------------

    def _records(self, fh):
        """The records of an open file: its non-blank lines after the header."""
        if self.skip_header:
            fh.readline()
        return filter(str.strip, fh)

    def _count_file(self, path: str) -> int:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return sum(1 for _ in self._records(fh))
        except OSError as err:
            raise DataError(f"cannot read {path}: {err}") from err
        except UnicodeDecodeError as err:
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as bad:
                        raise DataError(f"{path}:{lineno}: not UTF-8 text ({bad.reason})") from None
            raise DataError(f"{path}: not UTF-8 text ({err.reason})") from None

    def file_counts(self) -> list[int]:
        if self._file_counts is None:
            counts = [self._count_file(p) for p in self.paths]
            if not sum(counts):
                raise DataError(f"no records in {', '.join(self.paths)}")
            self._file_counts = counts
        return self._file_counts

    @property
    def n_records(self) -> int:
        return sum(self.file_counts())

    @property
    def dim(self) -> int:
        return self._load().dim

    def iter_blocks(self, lo: int = 0, hi: int | None = None):
        yield from self._load().iter_blocks(lo, hi)

    # -- parsing ------------------------------------------------------

    def _set_arity(self, path: str, arity: int) -> None:
        for kind, cols in (("response", [self.y_col]), ("covariate", self.x_cols or [])):
            for col in cols:
                if not 0 <= col < arity:
                    raise DataError(f"{path}: {kind} column {col} out of range for {arity} fields")
        self._arity = arity

    def _split(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = block[:, self.y_col] + self.y_shift
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
        with open(path, "r", encoding="utf-8") as fh:
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

    def _spill(self, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        """``(x, y)`` arrays for ``n`` records, mapped from an unlinked file."""
        nbytes = n * (d + 1) * 8
        with tempfile.TemporaryFile() as fh:
            # reserve the space now: a full disk then raises OSError here,
            # not SIGBUS at a write into the map
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fh.fileno(), 0, nbytes)
            else:
                fh.truncate(nbytes)
            spill = np.frombuffer(mmap.mmap(fh.fileno(), 0), dtype=np.float64)
        return spill[: n * d].reshape(n, d), spill[n * d :]

    def _load(self) -> ArrayStream:
        """The parsed records, parsing every file on the first call; safe across threads.

        A failure ends the stream: every later call raises it again.
        """
        with self._lock:
            if self._error is not None:
                raise self._error
            if self._arrays is None:
                try:
                    self._arrays = ArrayStream(*self._parse_files(), block_size=self.block_size)
                except BaseException as err:
                    self._error = err
                    raise
            return self._arrays

    def _parse_files(self) -> tuple[np.ndarray, np.ndarray]:
        counts = self.file_counts()
        xs, ys, start = None, None, 0
        for path, count in zip(self.paths, counts):
            with open(path, "r", encoding="utf-8") as fh:
                records = self._records(fh)
                for position in range(0, count, self.block_size):
                    take = min(self.block_size, count - position)
                    try:
                        x, y = self._parse(itertools.islice(records, take), path)
                    except ValueError:
                        self._locate(path, position)
                    if x.shape[0] != take:
                        raise DataError(f"{path}: changed while being read")
                    if xs is None:
                        xs, ys = self._spill(sum(counts), x.shape[1])
                    xs[start : start + take] = x
                    ys[start : start + take] = y
                    start += take
        return xs, ys


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
