"""Streaming record sources with block-by-block scanning.

A stream is a re-scannable table of (x, y) records with stable global
indices: two scans of the same source yield identical record sequences, and
the index of a record never depends on the block size or shard layout.
In-memory arrays are served as views.  A CSV source is read once, when it is
made, and parsed in bounded blocks, into arrays mapped from temporary files
that every scan, shard and thread slices, so Python memory stays independent
of the file size and no record is parsed twice; by default not even by a
later stream over the unchanged file, which reads the sidecar
``<file>.qlcache``.

A CSV record is a non-blank line of comma-separated numbers after the
optional header line; ``#`` starts no comment.  A malformed or ragged record,
a non-finite selected field or a byte that is not UTF-8 raises ``DataError``
naming the file and line.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import mmap
import os
import struct
import tempfile
from typing import NoReturn

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_BLOCK_SIZE = 65536

# sidecar header: magic with the format version, then n, d, the field count
# of the records and the payload length; the key follows, then x and y
_CACHE_HEAD = struct.Struct("<8s4Q")
_CACHE_MAGIC = b"qlcache\x01"


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


def _block_size(block_size: int) -> int:
    if block_size < 1:
        raise ConfigError("block size must be positive")
    return int(block_size)


class ArrayStream(RecordStream):
    """In-memory stream over already-materialized arrays ``x`` and ``y``."""

    def __init__(self, x, y, block_size: int = DEFAULT_BLOCK_SIZE):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise DataError("x must be (n, d) and y must be (n,)")
        self.block_size = _block_size(block_size)

    @property
    def n_records(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def iter_blocks(self, lo: int = 0, hi: int | None = None):
        hi = self.n_records if hi is None else hi
        for start in range(lo, hi, self.block_size):
            stop = min(start + self.block_size, hi)
            yield start, self.x[start:stop], self.y[start:stop]


class CsvStream(ArrayStream):
    """Headerless numeric CSV files, each read once, when the stream is made, into a private spill.

    ``paths`` may be one path or a list; indices run continuously across
    files in list order.  A constant can be added to the response at parse
    time (``y + y_shift``), and a constant-one covariate can be injected
    without touching the stored files.

    The constructor reads the files in order, each once, and parses each
    block by block, every record exactly once.  It appends the float64
    records to two unlinked temporary files, one for ``x`` and one for ``y``
    ((d + 1) * 8 bytes per record), mapped as the arrays after the last file.
    Every scan, shard and thread slices those arrays; the files are deleted
    with the stream.  Bad input, or a file that changes while it is read,
    raises ``DataError`` here.

    With ``cache``, a file whose sidecar holds its sha256 and this schema is
    read from the sidecar, not parsed; a parsed file gets a sidecar keyed by
    the bytes the parse read, written after the last file is read.  A
    sidecar that does not match is removed, and one that cannot be read or
    written is skipped.
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
        cache: bool = True,
    ):
        self.paths = [paths] if isinstance(paths, str) else list(paths)
        if not self.paths:
            raise DataError("no input files given")
        self.y_col = int(y_col)
        self.x_cols = None if x_cols is None else [int(c) for c in x_cols]
        self.intercept = bool(intercept)
        self.y_shift = float(y_shift)
        self.block_size = _block_size(block_size)
        self.skip_header = bool(skip_header)
        self._arity: int | None = None
        self.file_counts, parsed = [], []
        with tempfile.TemporaryFile() as xf, tempfile.TemporaryFile() as yf:
            for path in self.paths:
                ends, key = (xf.tell(), yf.tell()), None
                if not (cache and self._read_cache(path, xf, yf)):
                    for fh, end in zip((xf, yf), ends):  # drop what a failed sidecar copy appended
                        fh.truncate(end)
                        fh.seek(end)
                    key = self._parse_file(path, xf, yf, cache)
                start, count = ends[1] // 8, (yf.tell() - ends[1]) // 8
                self.file_counts.append(count)
                if key and count:
                    parsed.append((path, key, start, count))
            n = sum(self.file_counts)
            if not n:
                raise DataError(f"no records in {', '.join(self.paths)}")
            xf.flush()
            yf.flush()
            x, y = (np.frombuffer(mmap.mmap(fh.fileno(), 0)) if fh.tell() else np.empty(0) for fh in (xf, yf))
        super().__init__(x.reshape(n, x.size // n), y, block_size=block_size)
        for args in parsed:
            self._write_cache(*args)

    # -- reading ------------------------------------------------------

    def _records(self, fh):
        """The records of an open file: its non-blank lines after the header."""
        if self.skip_header:
            fh.readline()
        return filter(str.strip, fh)

    def _numbered(self, path: str):
        """``(line number, line)`` of each record, split into lines as the parse splits them; names a
        line that is not UTF-8 (text mode, so a lone ``\\r`` ends a line in both)."""
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as err:
                    raise DataError(f"{path}:{lineno}: not UTF-8 text ({err.reason})") from None
                if line.strip() and not (self.skip_header and lineno == 1):
                    yield lineno, line

    def where(self, index: int) -> str:
        """``path:line`` of global record ``index``; re-reads its file."""
        for path, count in zip(self.paths, self.file_counts):
            if index < count:
                lineno, _ = next(itertools.islice(self._numbered(path), index, None))
                return f"{path}:{lineno}"
            index -= count

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
        for lineno, line in itertools.islice(self._numbered(path), first, None):
            try:
                self._parse([line], path)
            except ValueError as err:
                raise DataError(f"{path}:{lineno}: {err}") from None
        raise DataError(f"{path}: changed while being read")

    def _parse_file(self, path: str, xf, yf, cache: bool) -> bytes | None:
        """Append the records of ``path`` to ``xf`` and ``yf``; with ``cache``, return the sidecar key
        of the bytes the parse read."""
        try:
            raw = _DigestFile(path) if cache else io.FileIO(path)
        except OSError as err:
            raise DataError(f"cannot read {path}: {err}") from err
        with io.TextIOWrapper(io.BufferedReader(raw, 1 << 18), encoding="utf-8") as fh:
            opened, position = _stamp(raw), 0
            try:
                records = self._records(fh)
                for first in records:
                    block = itertools.chain([first], itertools.islice(records, self.block_size - 1))
                    x, y = self._parse(block, path)
                    xf.write(x)
                    yf.write(y)
                    position += len(y)
            except ValueError:  # a byte that is not UTF-8 too
                self._locate(path, position)
            # the file was read to its end: all of it, and nothing else
            if _stamp(raw) != opened or raw.tell() != opened[0]:
                raise DataError(f"{path}: changed while being read")
            return self._cache_key(raw) if cache else None

    # -- sidecar cache ------------------------------------------------

    def _cache_key(self, raw: _DigestFile) -> bytes:
        """The sidecar key of the bytes read from ``raw``: their length, their sha256 and the parse schema."""
        schema = (self.y_col, self.x_cols, self.intercept, self.y_shift, self.skip_header)
        return repr((raw.tell(), raw.sha.hexdigest(), schema)).encode()

    def _read_cache(self, path: str, xf, yf) -> bool:
        """Append the records in the sidecar of ``path`` to ``xf`` and ``yf`` and return ``True`` if it holds
        the file's bytes under this schema; a sidecar that does not is removed.  Without one, nothing is read."""
        with contextlib.suppress(OSError, struct.error), open(path + ".qlcache", "rb") as fh:
            magic, n, d, arity, nbytes = _CACHE_HEAD.unpack(fh.read(_CACHE_HEAD.size))
            keylen = os.fstat(fh.fileno()).st_size - _CACHE_HEAD.size - nbytes
            if magic == _CACHE_MAGIC and n and nbytes == n * (d + 1) * 8 and keylen > 0:
                if self._arity not in (None, arity):
                    return False  # the parse names the first record of the other field count
                with _DigestFile(path) as raw:
                    buf = bytearray(1 << 18)
                    while raw.readinto(buf):
                        pass
                    key = self._cache_key(raw)
                if fh.read(keylen) == key:
                    _copy(fh, xf, n * d * 8)
                    _copy(fh, yf, n * 8)
                    self._arity = arity
                    return True
        with contextlib.suppress(OSError):
            os.unlink(path + ".qlcache")
        return False

    def _write_cache(self, path: str, key: bytes, start: int, count: int) -> None:
        """Store the records of ``path`` in its sidecar, through a temporary file."""
        x, y, tmp = self.x[start : start + count], self.y[start : start + count], None
        head = _CACHE_HEAD.pack(_CACHE_MAGIC, count, self.dim, self._arity, x.nbytes + y.nbytes)
        try:
            fd, tmp = tempfile.mkstemp(suffix=".qlcache.tmp", prefix=os.path.basename(path) + ".",
                                       dir=os.path.dirname(path) or ".")
            with open(fd, "wb") as fh:
                fh.writelines((head, key, x, y))
                fh.flush()
                os.fsync(fh.fileno())  # the payload is on disk before the name is
            os.replace(tmp, path + ".qlcache")
        except OSError:
            if tmp:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)


def _stamp(fh) -> tuple[int, int, int]:
    """Size, modification and change time of an open file; a write changes them, to the clock's resolution."""
    st = os.fstat(fh.fileno())
    return st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _copy(src, dst, nbytes: int) -> None:
    """Copy the next ``nbytes`` of ``src`` to the end of ``dst``, a bounded chunk at a time."""
    while nbytes:
        chunk = src.read(min(nbytes, 1 << 18))
        if not chunk:
            raise OSError(f"{src.name}: shorter than its header says")
        nbytes -= dst.write(chunk)


class _DigestFile(io.FileIO):
    """A file read as bytes that feeds every byte read to a sha256."""

    def __init__(self, path: str):
        import hashlib  # only cached CSV sources need it

        super().__init__(path)
        self.sha = hashlib.sha256()

    def readinto(self, buf) -> int | None:
        n = super().readinto(buf)
        if n:
            self.sha.update(memoryview(buf)[:n])
        return n


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
    source is a file list with exactly K files, shards align with the files,
    and a file without records is a ``DataError``.
    """
    if k < 1:
        raise ConfigError("partition count must be at least 1")
    n = stream.n_records
    if k > n:
        raise DataError(f"cannot split {n} records into {k} shards")
    if k == 1:
        return [stream]
    if isinstance(stream, CsvStream) and len(stream.paths) == k:
        for path, count in zip(stream.paths, stream.file_counts):
            if not count:
                raise DataError(f"{path}: no records")
        bounds = np.concatenate(([0], np.cumsum(stream.file_counts)))
    else:
        base, extra = divmod(n, k)
        sizes = [base + (1 if j < extra else 0) for j in range(k)]
        bounds = np.concatenate(([0], np.cumsum(sizes)))
    return [SubsetStream(stream, int(bounds[j]), int(bounds[j + 1])) for j in range(k)]
