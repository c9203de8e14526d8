"""Per-record scoring is bit-identical under any blocking, sharding or source.

Every record's products go through one fixed-shape BLAS call at the tile row
set by its global index (``sampling.score_parts``).  These tests vary the
block size, shard bounds, partition count, worker threads, BLAS threads and
source type, and require the scores, probabilities, draws and estimates to
match a single-block in-memory run bit for bit.  A thinned mv pass, which
whitens only the records its score bound screens in (``sampling.whitened_at``),
must keep exactly what the full pass keeps.
"""

import os
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qlsub
from qlsub import sampling
from qlsub.distributed import run_distributed
from qlsub.errors import NonFiniteValue
from qlsub.families import EXP
from qlsub.ingest import ArrayStream, CsvStream, SubsetStream
from qlsub.pipeline import ProbabilityRule, resolve_rule, run_pilot, run_two_step, second_pass
from qlsub.sampling import (
    CHUNK_TILES,
    FUSED_DIM_LIMIT,
    THRESHOLD_MODES,
    TILE_ROWS,
    SamplingPlan,
    linear_predictor,
    record_scores,
    row_norms,
    score_parts,
    whitened_at,
    whitened_norms,
)

N = 2600  # crosses five tile boundaries, inside one chunk
D = 4
R0 = 200
R = 300.0
SEED = 71
CRITERIA = ("mv", "mvc")
CHUNK_ROWS = CHUNK_TILES * TILE_ROWS
# tile edges, plus fixed sizes whose case names do not move with TILE_ROWS
EDGE_BLOCKS = tuple(sorted({1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 1023, 1024, 1025, CHUNK_ROWS}))
# a tile edge and a mid-tile start, plus fixed offsets as for EDGE_BLOCKS
NON_FINITE_OFFSETS = tuple(sorted({0, 5, TILE_ROWS - 2, 3 * TILE_ROWS + 700, 1022, 3772}))
N_CHUNKS = 2 * CHUNK_ROWS + 700  # two whole chunks and a partial one
# one block, blocks at the chunk edges, and blocks that never hold a whole chunk
# and start off the tile grid
CHUNK_BLOCKS = (N_CHUNKS, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, TILE_ROWS + 1)


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(a, b):
    a, b = bits(a), bits(b)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a, b)


def poisson_case(n, seed):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(0.0, 0.6, (n, D - 1))])
    y = rng.poisson(np.exp(x @ np.array([0.3, 0.5, -0.4, 0.2]))).astype(np.float64)
    return x, y


def write_csv(tmp_path_factory, data):
    x, y = data
    path = tmp_path_factory.mktemp("tiles") / "data.csv"
    np.savetxt(path, np.column_stack([y, x]), fmt="%.17g", delimiter=",")
    return str(path)


@pytest.fixture(scope="module")
def data():
    return poisson_case(N, 7)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory, data):
    return write_csv(tmp_path_factory, data)


def make_stream(source, data, csv_path, block):
    if source == "csv":
        return CsvStream(csv_path, block_size=block)
    return ArrayStream(*data, block_size=block)


def plan_for(criterion, mode, r=R):
    return SamplingPlan(criterion=criterion, expected_size=r, threshold_mode=mode, seed=SEED)


@contextmanager
def thinned():
    """Every mv main pass screens by the score bound, whatever its dimension and rate."""
    with mock.patch.multiple(sampling, THIN_MIN_DIM=0, THIN_MAX_RATE=1.0):
        yield


def scan_outcome(stream, criterion, mode, r=R, r0=R0):
    """Scores, probabilities, second-pass draws and the two-step fit."""
    plan = plan_for(criterion, mode, r)
    pilot = run_pilot(stream, EXP, r0, SEED, criterion)
    rule = resolve_rule(stream, EXP, pilot, plan, r)
    scores, probs = [], []
    for start, xb, yb in stream.iter_blocks():
        scores.append(rule.scores(xb, yb, EXP, start))
        probs.append(rule.block_probabilities(xb, yb, EXP, start))
    sample = second_pass(stream, EXP, pilot, plan, r, SEED, rule=rule)
    fit = run_two_step(stream, EXP, plan, r0)
    return {
        "pilot_scores": pilot.scores,
        "scores": np.concatenate(scores),
        "probs": np.concatenate(probs),
        "cap": [rule.cap, rule.psi_hat],
        "draw_p": sample.p,
        "draw_idx": sample.indices.astype(np.float64),
        "draw_x": sample.x,
        "draw_y": sample.y,
        "beta": fit.beta,
        "variance": fit.variance,
    }


_REFERENCE = {}


def reference(data, criterion, mode, k=None):
    """The same quantities from one in-memory block (cached per key)."""
    key = (criterion, mode, k)
    if key not in _REFERENCE:
        stream = ArrayStream(*data, block_size=N)
        if k is None:
            _REFERENCE[key] = scan_outcome(stream, criterion, mode)
        else:
            _REFERENCE[key] = run_distributed(stream, EXP, plan_for(criterion, mode), R0, k)
    return _REFERENCE[key]


def test_csv_source_holds_the_same_floats(data, csv_path):
    x, y = data
    _, xb, yb = next(CsvStream(csv_path, block_size=N).iter_blocks())
    assert_same_bits(xb, x)
    assert_same_bits(yb, y)


@pytest.mark.parametrize("source", ["array", "csv"])
@pytest.mark.parametrize("block", EDGE_BLOCKS)
def test_edge_block_sizes_bit_identical(data, csv_path, source, block):
    stream = make_stream(source, data, csv_path, block)
    for criterion in CRITERIA:
        for mode in THRESHOLD_MODES:
            got = scan_outcome(stream, criterion, mode)
            want = reference(data, criterion, mode)
            for name in want:
                assert_same_bits(got[name], want[name])


@pytest.fixture(scope="module")
def chunk_data():
    return poisson_case(N_CHUNKS, 17)


@pytest.fixture(scope="module")
def chunk_csv(tmp_path_factory, chunk_data):
    return write_csv(tmp_path_factory, chunk_data)


@pytest.fixture(scope="module")
def chunk_reference(chunk_data):
    """Outcomes of one in-memory block of ``N_CHUNKS`` records, and its K = 3 fit."""
    stream = ArrayStream(*chunk_data, block_size=N_CHUNKS)
    outcomes = {
        (criterion, mode): scan_outcome(stream, criterion, mode)
        for criterion in CRITERIA
        for mode in ("quantile", "exact")
    }
    return outcomes, run_distributed(stream, EXP, plan_for("mv", "exact"), R0, 3)


@pytest.mark.parametrize("source", ["array", "csv"])
@pytest.mark.parametrize("block", CHUNK_BLOCKS)
def test_whole_chunks_bit_identical(chunk_data, chunk_csv, chunk_reference, source, block):
    # N = 2600 never fills a chunk of CHUNK_TILES tiles; these scans do
    stream = make_stream(source, chunk_data, chunk_csv, block)
    outcomes, distributed = chunk_reference
    for (criterion, mode), want in outcomes.items():
        got = scan_outcome(stream, criterion, mode)
        for name in want:
            assert_same_bits(got[name], want[name])
    fit = run_distributed(stream, EXP, plan_for("mv", "exact"), R0, 3)
    assert_same_bits(fit.beta, distributed.beta)
    assert_same_bits(fit.variance, distributed.variance)
    assert fit.info["partition_sizes"] == distributed.info["partition_sizes"]


@settings(max_examples=25, deadline=None)
@given(
    block=st.one_of(st.sampled_from(EDGE_BLOCKS), st.integers(2, N)),
    bounds=st.tuples(st.integers(0, N - 1), st.integers(1, N)).filter(lambda b: b[0] < b[1]),
    source=st.sampled_from(["array", "csv"]),
    k=st.sampled_from([1, 3, 4]),
    threads=st.sampled_from([1, 2, 4]),
    criterion=st.sampled_from(CRITERIA),
    mode=st.sampled_from(THRESHOLD_MODES),
)
def test_random_layouts_bit_identical(data, csv_path, block, bounds, source, k, threads, criterion, mode):
    stream = make_stream(source, data, csv_path, block)
    want = reference(data, criterion, mode)

    # an unaligned shard [lo, hi) scores its records as the whole scan does
    lo, hi = bounds
    shard = SubsetStream(stream, lo, hi)
    pilot = run_pilot(stream, EXP, R0, SEED, criterion)
    rule = resolve_rule(stream, EXP, pilot, plan_for(criterion, mode), R)
    scores, probs = [], []
    for start, xb, yb in shard.iter_blocks():
        scores.append(rule.scores(xb, yb, EXP, start))
        probs.append(rule.block_probabilities(xb, yb, EXP, start))
    assert_same_bits(np.concatenate(scores), want["scores"][lo:hi])
    assert_same_bits(np.concatenate(probs), want["probs"][lo:hi])

    fit = run_distributed(stream, EXP, plan_for(criterion, mode), R0, k, threads=threads)
    ref = reference(data, criterion, mode, k)
    assert_same_bits(fit.beta, ref.beta)
    assert_same_bits(fit.variance, ref.variance)
    assert fit.info["partition_sizes"] == ref.info["partition_sizes"]


WIDE_N = 20000
WIDE_R = 150.0  # r / N = 0.0075: an mv main pass over the whole case thins
WIDE_R0 = 400  # above 10 d, so the pilot raises no warning
WIDE_BLOCKS = (65536, 1000, 777)


@pytest.fixture(scope="module")
def wide_data():
    """A Poisson case of the s4 width, whose norms come from the wide-row kernel."""
    rng = np.random.default_rng(35)
    x = np.column_stack([np.ones(WIDE_N), rng.normal(0.0, 0.15, (WIDE_N, 34))])
    y = rng.poisson(np.exp(x[:, :3] @ np.array([0.5, 0.4, -0.3]))).astype(np.float64)
    return x, y


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory, wide_data):
    return write_csv(tmp_path_factory, wide_data)


@pytest.fixture(scope="module")
def wide_reference(wide_data):
    """Outcomes and K = 1 and 3 fits of one in-memory block of the wide case, whitening every record."""
    stream = ArrayStream(*wide_data, block_size=WIDE_N)
    with mock.patch.object(sampling, "THIN_MAX_RATE", 0.0):
        return {
            (criterion, mode): (
                scan_outcome(stream, criterion, mode, WIDE_R, WIDE_R0),
                {k: run_distributed(stream, EXP, plan_for(criterion, mode, WIDE_R), WIDE_R0, k) for k in (1, 3)},
            )
            for criterion in CRITERIA
            for mode in ("inf", "exact")
        }


@pytest.mark.parametrize("source", ["array", "csv"])
@pytest.mark.parametrize("block", WIDE_BLOCKS)
def test_wide_rows_bit_identical(wide_data, wide_csv, wide_reference, source, block):
    assert wide_data[0].shape[1] >= sampling.DOT_MIN_DIM >= sampling.THIN_MIN_DIM
    stream = make_stream(source, wide_data, wide_csv, block)
    for (criterion, mode), (want, fits) in wide_reference.items():
        with mock.patch("qlsub.sampling.whitened_at", wraps=whitened_at) as whiten:
            got = scan_outcome(stream, criterion, mode, WIDE_R, WIDE_R0)
        # the mv main pass under the inf cap screens by the score bound
        assert whiten.called == ((criterion, mode) == ("mv", "inf"))
        for name in want:
            assert_same_bits(got[name], want[name])
        for k in (1, 3):
            for threads in (1, 2):
                fit = run_distributed(stream, EXP, plan_for(criterion, mode, WIDE_R), WIDE_R0, k, threads=threads)
                assert_same_bits(fit.beta, fits[k].beta)
                assert_same_bits(fit.variance, fits[k].variance)
                assert fit.info["partition_sizes"] == fits[k].info["partition_sizes"]


def split_products(beta, sigma_inv, d):
    """The scorer's product matrices for rows of length ``d``.

    Below ``FUSED_DIM_LIMIT`` one matrix, ``[beta | sigma_inv']`` for mv or
    ``[beta | I]`` for mvc; from it on ``beta`` as a column, and
    ``sigma_inv'`` for mv (None for mvc).
    """
    column = np.asarray(beta, dtype=np.float64).reshape(-1, 1)
    if d < FUSED_DIM_LIMIT:
        return (np.column_stack([column, np.eye(d) if sigma_inv is None else sigma_inv.T]),)
    return column, None if sigma_inv is None else np.ascontiguousarray(sigma_inv.T)


def own_tile_parts(alone, row, beta, sigma_inv):
    """``(eta, h)`` of the record at ``row`` of its own zero-padded tile ``alone``."""
    products = split_products(beta, sigma_inv, alone.shape[1])
    if len(products) == 1:
        # eta is the product's first column, and h the norm of the others:
        # squared with that column zeroed, then summed by a product with ones
        p = alone @ products[0]
        eta = p[row, 0]
        p[:, 0] = 0.0
        return eta, np.sqrt((p * p) @ np.ones(p.shape[1]))[row]
    column, whitener = products
    z = alone if whitener is None else alone @ whitener
    return (alone @ column)[row, 0], np.sqrt(sampling._row_sq_norms(z))[row]


def assert_scored_from_own_tile(x, offset, beta, sigma_inv, records):
    """Each record's ``(eta, h)`` is what its own zero-padded tile gives.

    Below ``FUSED_DIM_LIMIT`` both come from one product per tile, whose
    ``eta`` column is the same for mv and mvc; from it on ``eta`` comes from
    the one-column product and an mv ``h`` from the ``sigma_inv'`` product.
    ``whitened_at`` gives the gathered records the same ``h``.
    """
    eta, h = score_parts(x, offset, beta, sigma_inv)
    for i in records:
        row = (offset + i) % TILE_ROWS
        alone = np.zeros((TILE_ROWS, x.shape[1]))
        alone[row] = x[i]
        want_eta, want_h = own_tile_parts(alone, row, beta, sigma_inv)
        assert_same_bits(eta[i], want_eta)
        assert_same_bits(h[i], want_h)
    if sigma_inv is not None:
        assert_same_bits(whitened_at(x[records], offset + np.asarray(records), sigma_inv), h[records])


@settings(max_examples=40, deadline=None)
@given(
    offset=st.integers(0, 4 * TILE_ROWS),
    n=st.integers(1, 2 * TILE_ROWS + 3),
    width=st.sampled_from([None, 1, 3, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_record_matches_its_own_padded_tile(offset, n, width, seed):
    # ``width`` rows of sigma_inv give a product of 1 + width columns; None is mvc
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5)) * np.exp(rng.normal(size=(n, 5)))
    beta = rng.normal(size=5)
    sigma_inv = None if width is None else rng.normal(size=(width, 5))
    assert_scored_from_own_tile(x, offset, beta, sigma_inv, np.unique(rng.integers(0, n, 12)))


@pytest.mark.parametrize("offset", NON_FINITE_OFFSETS)
def test_non_finite_row_leaves_neighbours_unchanged(offset):
    rng = np.random.default_rng(offset)
    x = rng.normal(size=(2 * TILE_ROWS + 40, 6))
    beta = rng.normal(size=6)
    bad = [0, 1, TILE_ROWS // 2, TILE_ROWS + 3, x.shape[0] - 1]
    poisoned = x.copy()
    for j, i in enumerate(bad):
        poisoned[i, j % 6] = (np.nan, np.inf, -np.inf)[j % 3]
    keep = np.setdiff1d(np.arange(x.shape[0]), bad)
    for sigma_inv in (rng.normal(size=(4, 6)), None):
        clean = score_parts(x, offset, beta, sigma_inv)
        dirty = score_parts(poisoned, offset, beta, sigma_inv)
        for a, b in zip(clean, dirty):
            assert_same_bits(a[keep], b[keep])
            assert not np.isfinite(b[bad]).any()


@settings(max_examples=40, deadline=None)
@given(
    offset=st.integers(0, 2 * CHUNK_ROWS),
    n=st.integers(1, 2 * CHUNK_ROWS + 3),
    # each kernel: fused, one-column with einsum norms, and with vecdot norms
    d=st.sampled_from([1, 4, FUSED_DIM_LIMIT, sampling.DOT_MIN_DIM - 1, 35]),
    criterion=st.sampled_from(CRITERIA),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_record_scored_from_its_own_padded_tile(offset, n, d, criterion, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * np.exp(rng.normal(size=(n, d)))
    beta = rng.normal(size=d)
    sigma_inv = rng.normal(size=(d, d)) if criterion == "mv" else None
    records = np.unique(np.concatenate([rng.integers(0, n, 10), [0, n - 1]]))
    assert_scored_from_own_tile(x, offset, beta, sigma_inv, records)


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize(
    "offset, n",
    [
        (0, CHUNK_ROWS - 1),
        (0, CHUNK_ROWS + 1),
        (1, CHUNK_ROWS),
        (CHUNK_ROWS - 1, 2),
        (CHUNK_ROWS + 1, CHUNK_ROWS - 1),
        (TILE_ROWS - 1, 2 * CHUNK_ROWS + 1),
    ],
)
def test_chunk_edges_scored_as_one_block(offset, n, criterion):
    """Records on either side of a chunk edge match their own tiles and any split."""
    rng = np.random.default_rng(offset + n)
    x = rng.normal(size=(n, 6))
    y = rng.poisson(1.0, n).astype(np.float64)
    beta = rng.normal(0.0, 0.2, 6)
    sigma_inv = rng.normal(size=(6, 6)) if criterion == "mv" else None
    edges = [e - offset for e in range(CHUNK_ROWS, offset + n + 1, CHUNK_ROWS) if e > offset]
    near = [i for e in edges for i in (e - 2, e - 1, e, e + 1) if 0 <= i < n]
    assert_scored_from_own_tile(x, offset, beta, sigma_inv, np.unique([0, n - 1, *near]))
    whole = record_scores(x, y, EXP, beta, sigma_inv, offset)
    for cut in {1, n // 2, *edges[:1]}:
        if 0 < cut < n:
            parts = [record_scores(x[:cut], y[:cut], EXP, beta, sigma_inv, offset),
                     record_scores(x[cut:], y[cut:], EXP, beta, sigma_inv, offset + cut)]
            assert_same_bits(np.concatenate(parts), whole)


@pytest.mark.parametrize("n", [1, TILE_ROWS + 3, CHUNK_ROWS + 5])
def test_probe_kernels_match_the_scorer(n):
    """The whole-array kernels give the scorer's own factors, bit for bit, with every kernel."""
    rng = np.random.default_rng(n)
    # the widths on either side of the fused kernel's limit and of the vecdot
    # norms' limit, and the s4 width
    dot = sampling.DOT_MIN_DIM
    for d in sorted({7, FUSED_DIM_LIMIT - 1, FUSED_DIM_LIMIT, dot - 1, dot, 35}):
        x = rng.normal(size=(n, d))
        beta, sigma_inv = rng.normal(size=d), rng.normal(size=(d, d))
        eta, h = score_parts(x, 0, beta)
        assert_same_bits(linear_predictor(x, beta), eta)
        assert_same_bits(row_norms(x), h)
        assert_same_bits(whitened_norms(x, sigma_inv), score_parts(x, 0, beta, sigma_inv)[1])


def test_overflowing_linear_predictor_leaves_h_finite():
    """A finite x'beta whose square overflows gives the h of any other beta, as its own tile does."""
    d = FUSED_DIM_LIMIT - 1
    x = np.zeros((3, d))
    x[:, 0] = [1e150, -3e140, 2.0]
    beta = np.full(d, 1e60)
    sigma_inv = np.eye(d) * 1e-100
    for s in (sigma_inv, None):
        eta, h = score_parts(x, 5, beta, s)
        assert np.isfinite(eta).all() and np.isfinite(h).all()
        assert_same_bits(h, score_parts(x, 5, np.zeros(d), s)[1])
    assert_scored_from_own_tile(x, 5, beta, sigma_inv, [0, 1, 2])


# The rule is built from fixed quantities rather than a pilot fit: only the
# per-record scoring path is under test here.
_PROBE = """
import hashlib
import numpy as np
from types import SimpleNamespace
from qlsub import EXP, ArrayStream, SamplingPlan
from qlsub.pipeline import ProbabilityRule

rng = np.random.default_rng(5)
x = np.column_stack([np.ones(6000), rng.normal(0.0, 0.15, (6000, 34))])
y = rng.poisson(np.exp(x[:, :3] @ np.array([0.5, 0.4, -0.3]))).astype(np.float64)
beta0 = rng.normal(0.0, 0.1, 35)
a = rng.normal(size=(35, 35))
stream = ArrayStream(x, y, block_size=1500)
digest = hashlib.sha256()
for criterion, sigma_inv in (("mv", 0.5 * (a + a.T)), ("mvc", None)):
    plan = SamplingPlan(criterion=criterion, expected_size=400.0, seed=9)
    pilot = SimpleNamespace(beta0=beta0, sigma0_inv=sigma_inv)
    rule = ProbabilityRule(pilot=pilot, plan=plan, r=400.0, n_pool=6000.0, psi_hat=2.0, cap=9.0)
    for start, xb, yb in stream.iter_blocks():
        digest.update(rule.block_probabilities(xb, yb, EXP, start).tobytes())
print(digest.hexdigest())
"""


_CHUNK_PROBE = """
import hashlib
import numpy as np
from qlsub.sampling import CHUNK_TILES, FUSED_DIM_LIMIT, TILE_ROWS, score_parts, whitened_at

rng = np.random.default_rng(8)
n = 3 * CHUNK_TILES * TILE_ROWS + 77
digest = hashlib.sha256()
# the s4 width, and the c4 width, which takes the fused product
for d in (35, 7):
    x = rng.normal(size=(n, d))
    beta, sigma_inv = rng.normal(size=d), rng.normal(size=(d, d))
    for offset in (0, 13):
        for s in (sigma_inv, None):
            for part in score_parts(x, offset, beta, s):
                digest.update(part.tobytes())
    at = rng.choice(n, 3000, replace=False)
    digest.update(whitened_at(x[at], at, sigma_inv).tobytes())
assert 7 < FUSED_DIM_LIMIT <= 35
print(digest.hexdigest())
"""


_THIN_PROBE = """
import hashlib
import numpy as np
from types import SimpleNamespace
from qlsub import EXP, ArrayStream, SamplingPlan
from qlsub.pipeline import ProbabilityRule, second_pass
from qlsub import sampling
from qlsub.sampling import THIN_MIN_DIM, record_scores

sampling.THIN_MAX_RATE = 1.0  # r / n_pool = 0.05 thins as well

rng = np.random.default_rng(6)
x = np.column_stack([np.ones(6000), rng.normal(0.0, 0.15, (6000, 34))])
y = rng.poisson(np.exp(x[:, :3] @ np.array([0.5, 0.4, -0.3]))).astype(np.float64)
a = rng.normal(size=(35, 35))
pilot = SimpleNamespace(beta0=rng.normal(0.0, 0.1, 35), sigma0_inv=a @ a.T / 35 + np.eye(35))
assert x.shape[1] >= THIN_MIN_DIM  # the s4 width thins
psi = float(record_scores(x, y, EXP, pilot.beta0, pilot.sigma0_inv).mean())
digest = hashlib.sha256()
for cap in (np.inf, 2.0 * psi):
    plan = SamplingPlan(criterion="mv", expected_size=300.0, seed=9)
    rule = ProbabilityRule(pilot=pilot, plan=plan, r=300.0, n_pool=6000.0, psi_hat=psi, cap=cap)
    for block in (6000, 1500, 777):
        sample = second_pass(ArrayStream(x, y, block_size=block), EXP, None, plan, 300.0, 9, rule=rule)
        for part in (sample.indices, sample.x, sample.p, sample.expected_size):
            digest.update(np.asarray(part).tobytes())
    # every record whitened at once: a dozen packed tiles
    q, exact = rule.screen(x, y, EXP, 13)
    digest.update(q.tobytes())
    digest.update(exact(np.arange(6000)).tobytes())
print(digest.hexdigest())
"""


def probe_digests(probe):
    """The digest that ``probe`` prints under one and under two OpenBLAS threads."""
    src = str(Path(qlsub.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    return digests


def test_full_chunks_independent_of_blas_threads():
    """Whole chunks of the s4 and c4 widths give the same bits on one or two BLAS threads."""
    one, two = probe_digests(_CHUNK_PROBE)
    assert one == two


def test_probabilities_independent_of_blas_threads():
    one, two = probe_digests(_PROBE)
    assert one == two


def test_thinned_pass_independent_of_blas_threads():
    """A thinned s4-width pass and its packed tiles give the same bits on one or two BLAS threads."""
    one, two = probe_digests(_THIN_PROBE)
    assert one == two


@pytest.mark.parametrize("block", EDGE_BLOCKS)
def test_thinned_pass_matches_the_full_pass(data, block):
    stream = ArrayStream(*data, block_size=block)
    for mode in THRESHOLD_MODES:
        want = reference(data, "mv", mode)
        with thinned(), mock.patch("qlsub.sampling.whitened_at", wraps=whitened_at) as whiten:
            got = scan_outcome(stream, "mv", mode)
        if mode == "exact":
            # the exact cap's rule holds every record's score, so nothing is whitened again
            assert not whiten.called
        else:
            # the screen whitened some records, and far from all
            assert whiten.called
            assert sum(len(call.args[1]) for call in whiten.call_args_list) < N
        for name in want:
            assert_same_bits(got[name], want[name])


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("block", [TILE_ROWS + 1, N])
def test_exact_cap_scores_each_block_once(data, criterion, block):
    """Resolving the exact cap and drawing under it score every block once, thinned or not."""
    stream = ArrayStream(*data, block_size=block)
    plan = plan_for(criterion, "exact")
    pilot = run_pilot(stream, EXP, R0, SEED, criterion)
    want = reference(data, criterion, "exact")
    for screen in (nullcontext(), thinned()):
        with screen, mock.patch("qlsub.sampling.score_parts", wraps=score_parts) as scored:
            rule = resolve_rule(stream, EXP, pilot, plan, R)
            sample = second_pass(stream, EXP, pilot, plan, R, SEED, rule=rule)
        starts = [start for start, _, _ in stream.iter_blocks()]
        assert [call.args[1] for call in scored.call_args_list] == starts
        np.testing.assert_array_equal(sample.indices, want["draw_idx"])
        assert_same_bits(sample.p, want["draw_p"])
        # nothing was screened, so the expected size is the sum of p, each term in multiples of 2**-32
        probs = rule.block_probabilities(*data, EXP)
        assert sample.expected_size == np.rint(probs * 2**32).sum() / 2**32


@settings(max_examples=25, deadline=None)
@given(
    block=st.one_of(st.sampled_from(EDGE_BLOCKS), st.integers(2, N)),
    bounds=st.integers(0, N - 2 * int(R)).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 2 * int(R), N))),
    k=st.sampled_from([1, 3, 4]),
    threads=st.sampled_from([1, 2, 4]),
    mode=st.sampled_from(THRESHOLD_MODES),
)
def test_thinned_random_layouts_bit_identical(data, block, bounds, k, threads, mode):
    stream = ArrayStream(*data, block_size=block)
    plan = plan_for("mv", mode)
    pilot = run_pilot(stream, EXP, R0, SEED, "mv")
    # an unaligned shard [lo, hi) draws the same records thinned or not
    shard = SubsetStream(stream, *bounds)
    rule = resolve_rule(shard, EXP, pilot, plan, R)
    full = second_pass(shard, EXP, pilot, plan, R, SEED, rule=rule)
    with thinned():
        thin = second_pass(shard, EXP, pilot, plan, R, SEED, rule=rule)
        fit = run_distributed(stream, EXP, plan, R0, k, threads=threads)
    np.testing.assert_array_equal(thin.indices, full.indices)
    for name in ("x", "y", "p"):
        assert_same_bits(getattr(thin, name), getattr(full, name))
    ref = reference(data, "mv", mode, k)
    assert_same_bits(fit.beta, ref.beta)
    assert_same_bits(fit.variance, ref.variance)
    assert fit.info["partition_sizes"] == ref.info["partition_sizes"]


@settings(max_examples=60, deadline=None)
# one record's exp mean clamps near 1e304 and its score overflows to inf
@example(d=1, log_cond=0.0, n=875, offset=0, rho=0.2, capped=False, seed=875)
# more packed tiles than the kernel's chunk buffer holds, fused and not
@example(d=7, log_cond=4.0, n=9 * TILE_ROWS + 5, offset=13, rho=0.2, capped=False, seed=29)
@example(d=35, log_cond=4.0, n=9 * TILE_ROWS + 5, offset=13, rho=0.2, capped=True, seed=29)
@given(
    d=st.integers(1, 64),
    log_cond=st.floats(0.0, 8.0),
    n=st.integers(1, 3 * TILE_ROWS),
    offset=st.integers(0, 4 * TILE_ROWS),
    rho=st.sampled_from([0.0, 0.2]),
    capped=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_probability_never_exceeds_the_bound(d, log_cond, n, offset, rho, capped, seed):
    """p <= q for dense sigma_inv with condition numbers up to 1e8; scores that overflow are a NonFiniteValue."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(d, d)))[0]
    v = np.linalg.qr(rng.normal(size=(d, d)))[0]
    sigma_inv = (u * (np.logspace(0.0, -log_cond, d) * np.exp(rng.normal(0.0, 3.0)))) @ v.T
    x = rng.normal(size=(n, d)) * np.exp(rng.normal(0.0, 2.0, (n, 1)))
    # rows along the top right singular vector meet ||sigma_inv x|| = ||sigma_inv||_2 ||x||
    top = rng.random(n) < 0.3
    x[top] = np.outer(rng.normal(0.0, 5.0, top.sum()), v[:, 0])
    beta = rng.normal(0.0, 0.1 / np.sqrt(d), d)
    y = rng.poisson(1.0, n).astype(np.float64)
    with np.errstate(over="ignore"):
        scores = record_scores(x, y, EXP, beta, sigma_inv, offset)
    cap = float(np.quantile(scores, 0.8)) if capped else np.inf
    plan = SamplingPlan(criterion="mv", expected_size=max(n / 10, 0.5), shrinkage=rho)
    rule_args = dict(
        pilot=SimpleNamespace(beta0=beta, sigma0_inv=sigma_inv), plan=plan, r=plan.expected_size,
        n_pool=float(n), psi_hat=float(scores.mean()) or 1.0, cap=cap,
    )
    if not np.isfinite(rule_args["psi_hat"]):
        with pytest.raises(NonFiniteValue, match="^score normalizer inf is not finite$"):
            ProbabilityRule(**rule_args)
        return
    rule = ProbabilityRule(**rule_args)
    with thinned():
        q, exact = rule.screen(x, y, EXP, offset)
    p = exact(np.arange(n))
    assert np.all(p <= q)
    assert_same_bits(p, rule.block_probabilities(x, y, EXP, offset))
