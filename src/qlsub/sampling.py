"""Sampling scores, capped-proportional allocation, and Poisson draws.

Records are scored by |residual| * h(x) where h is either the plain
covariate norm (the cheap criterion, "mvc") or the norm of the
curvature-whitened covariate (the trace-optimal criterion, "mv").  The
allocation that minimizes the estimator's asymptotic dispersion subject to a
fixed expected subsample size is proportional-to-score with the largest
scores capped at probability one; :func:`waterfill` computes the exact cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateScores
from .families import LinkFamily
from .rng import MAIN_STREAM, uniforms

CRITERIA = ("uniform", "mv", "mvc")
THRESHOLD_MODES = ("inf", "quantile", "exact")


@dataclass(frozen=True)
class SamplingPlan:
    """Parameters of one nonuniform subsampling run."""

    criterion: str = "mvc"
    expected_size: float = 1000.0
    shrinkage: float = 0.2
    threshold_mode: str = "inf"
    seed: int = 0

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ConfigError(f"criterion must be one of {CRITERIA}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError(f"threshold mode must be one of {THRESHOLD_MODES}")
        if not self.expected_size > 0:
            raise ConfigError("expected subsample size must be positive")
        if not 0.0 <= self.shrinkage <= 1.0:
            raise ConfigError("shrinkage must lie in [0, 1]")


# Rows per BLAS call in the record kernel.  Every record's products are
# computed in a call of exactly this shape, at row (global index % TILE_ROWS).
TILE_ROWS = 512
# Whole tiles per stacked product, so a chunk is still in cache when normed.
CHUNK_TILES = 8
# Smallest dimension at which an mv main pass screens each record by a cheap
# score bound before it whitens any (``pipeline.ProbabilityRule.screen``).
# Below it the screen costs more than the whitening it saves.
THIN_MIN_DIM = 16
# Largest sampling rate r / n_pool at which it screens.  The bound lets a few
# times that share of the records through, and from about 4 % of them on,
# packing and whitening them costs more than whitening every record.
THIN_MAX_RATE = 0.01


def _tiled(x: np.ndarray, offset: int):
    """``(i, rows, tiles, row)`` over consecutive pieces ``rows = x[i:j]`` of ``x``.

    Row ``i`` of ``x`` is global record ``offset + i``.  Tiles of
    ``TILE_ROWS`` rows are aligned to the global index.  A run of up to
    ``CHUNK_TILES`` whole tiles is ``rows`` itself, viewed as a stack of
    tiles, with ``row`` None: one stacked matmul makes one BLAS call per
    tile.  A partial tile at either edge of ``x`` is copied into a
    zero-filled ``TILE_ROWS``-row matrix at ``row = (offset + i) %
    TILE_ROWS``.
    """
    n, d = x.shape
    i = 0
    while i < n:
        row = (offset + i) % TILE_ROWS
        take = min(TILE_ROWS - row, n - i)
        if take == TILE_ROWS:
            take = min(n - i, CHUNK_TILES * TILE_ROWS) // TILE_ROWS * TILE_ROWS
            yield i, x[i : i + take], x[i : i + take].reshape(-1, TILE_ROWS, d), None
        else:
            tile = np.zeros((TILE_ROWS, d))
            tile[row : row + take] = x[i : i + take]
            yield i, x[i : i + take], tile, row
        i += take


def _whitener(sigma_inv) -> np.ndarray:
    """``sigma_inv'`` as the C-ordered matrix that every whitening product uses."""
    return np.ascontiguousarray(np.asarray(sigma_inv, dtype=np.float64).T)


def score_parts(x: np.ndarray, offset: int, beta, sigma_inv=None) -> tuple[np.ndarray, np.ndarray]:
    """``(x_i' beta, h(x_i))`` of records offset, offset + 1, ... held in ``x``.

    Each tile is multiplied by ``beta`` as a one-column matrix and, for mv,
    by ``sigma_inv'``, in the calls of :func:`_tiled`.  A BLAS call of fixed
    shape accumulates each output element in an order set by the call's
    shape and the row's place in it, so every record's products are the
    same whatever the block size, shard layout or source that delivered it,
    and no other row can change them.  mv and mvc share ``x_i' beta`` bit
    for bit; ``h`` is the row-local norm of the ``sigma_inv'`` product (mv)
    or of ``x_i`` (mvc), taken while the chunk is in cache.  A run of whole
    tiles writes its ``x_i' beta`` and squared norms straight into the
    results; its ``sigma_inv'`` product goes into one buffer that every run
    reuses.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    b = np.asarray(beta, dtype=np.float64).reshape(-1, 1)
    wt = None if sigma_inv is None else _whitener(sigma_inv)
    buf = None if wt is None else np.empty((CHUNK_TILES, TILE_ROWS, wt.shape[1]))
    eta, h2 = np.empty(n), np.empty(n)
    with np.errstate(invalid="ignore", over="ignore"):
        for i, rows, tiles, row in _tiled(x, offset):
            j = i + len(rows)
            if row is None:
                np.matmul(tiles, b, out=eta[i:j].reshape(-1, TILE_ROWS, 1))
                z = rows if wt is None else np.matmul(tiles, wt, out=buf[: len(tiles)]).reshape(len(rows), -1)
            else:
                eta[i:j] = (tiles @ b)[row : row + len(rows), 0]
                z = rows if wt is None else (tiles @ wt)[row : row + len(rows)]
            np.einsum("ij,ij->i", z, z, out=h2[i:j])
    return eta, np.sqrt(h2, out=h2)


def whitened_at(x: np.ndarray, indices: np.ndarray, sigma_inv) -> np.ndarray:
    """``||sigma_inv @ x_j||`` of rows held at global ``indices``.

    Bit for bit the mv ``h`` that :func:`score_parts` gives each of these
    records, at a cost set by the number of rows, not by the records around
    them.  Row ``j`` goes to row ``indices[j] % TILE_ROWS`` of a zero-filled
    tile: the k-th row bound for one tile row goes to tile k, so there are as
    many tiles as the most rows any tile row receives.  One stacked matmul
    makes one BLAS call per tile, of the shape and at the row that
    :func:`_tiled` gives the same record.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    rows = (np.asarray(indices) % TILE_ROWS).astype(np.uint16)
    counts = np.bincount(rows, minlength=TILE_ROWS)
    rank = np.empty(rows.size, dtype=np.intp)
    # a stable sort groups the rows by tile row; each one's rank is its place in its group
    rank[np.argsort(rows, kind="stable")] = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    tiles = np.zeros((int(counts.max(initial=0)), TILE_ROWS, x.shape[1]))
    tiles[rank, rows] = x
    with np.errstate(invalid="ignore", over="ignore"):
        z = np.matmul(tiles, _whitener(sigma_inv))[rank, rows]
        return np.sqrt(np.einsum("ij,ij->i", z, z))


def abs_residuals(y, family: LinkFamily, eta: np.ndarray) -> np.ndarray:
    """``|y_i - mean(eta_i)|`` as a new array."""
    # family.mean returns a new array, so the arithmetic runs in place on it
    out = family.mean(eta)
    np.subtract(np.asarray(y, dtype=np.float64), out, out=out)
    return np.abs(out, out=out)


def record_scores(x, y, family: LinkFamily, beta, sigma_inv=None, offset: int = 0) -> np.ndarray:
    """Scores ``|y_i - mean(x_i' beta)| * h(x_i)`` of records offset, offset + 1, ...

    ``h`` is ``||sigma_inv @ x_i||`` when ``sigma_inv`` is given (mv) and
    ``||x_i||`` otherwise (mvc); both factors come from :func:`score_parts`.
    """
    eta, h = score_parts(x, offset, beta, sigma_inv)
    out = abs_residuals(y, family, eta)
    out *= h
    return out


def linear_predictor(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``x @ beta``: the ``x_i' beta`` of ``score_parts(x, 0, beta)`` (mvc)."""
    return score_parts(x, 0, beta)[0]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Row norms: bit for bit the ``h`` of ``score_parts(x, 0, beta)`` (mvc)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def whitened_norms(x: np.ndarray, sigma_inv: np.ndarray) -> np.ndarray:
    """``||sigma_inv @ x_i||``: bit for bit the ``h`` of ``score_parts(x, 0, b, sigma_inv)``, any ``b``."""
    return score_parts(x, 0, np.zeros(np.shape(sigma_inv)[0]), sigma_inv)[1]


def waterfill(scores, r: float) -> tuple[float, int]:
    """Exact threshold (cap, count) for the capped-proportional allocation.

    Returns ``(M, k)`` where k is the number of records allocated probability
    exactly one and M is the score cap, chosen so the probabilities
    ``r * (score ^ M) / sum(score ^ M)`` sum to r with max exactly one.  Only
    the largest ``floor(r) + 2`` scores are sorted, so the cost is
    O(N + r log r).
    """
    s = np.asarray(scores, dtype=np.float64)
    n = s.size
    if not r > 0:
        raise ValueError("expected size must be positive")
    if r >= n:
        raise ValueError("expected size must be below the number of scores")
    npos = int(np.count_nonzero(s > 0))
    if npos < math.ceil(r):
        raise DegenerateScores(
            f"only {npos} positive scores for expected size {r}"
        )
    m = min(n, int(math.floor(r)) + 2)
    top = np.sort(np.partition(s, n - m)[n - m :])[::-1]
    total = float(s.sum())
    cum = np.concatenate(([0.0], np.cumsum(top)))
    for k in range(0, int(math.floor(r)) + 1):
        remainder = total - float(cum[k])
        if (r - k) * float(top[k]) < remainder:
            return remainder / (r - k), k
    raise DegenerateScores(
        "no valid cap: the positive scores cannot absorb the expected size"
    )


def threshold_quantile(pilot_scores, r: float, n: float) -> float:
    """Empirical (1 - r/(2n)) quantile of the pilot scores."""
    s = np.asarray(pilot_scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("pilot scores must be nonempty")
    level = min(max(1.0 - r / (2.0 * n), 0.0), 1.0)
    # np.quantile's linear rule: the order statistics around (n - 1) * level,
    # blended as numpy's _lerp does (np.quantile's first call imports numpy.ma)
    pos = (s.size - 1) * level
    j = math.floor(pos)
    k = min(j + 1, s.size - 1)
    a, b = np.partition(s, [j, k])[[j, k]]
    t = pos - j
    return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))


def shrinkage_probability(rule, score, r: float, rho: float):
    """Blend of score-proportional and uniform probabilities.

    ``(1 - rho) * r * (score ^ cap) / (n * psi_hat) + rho * r / n``, with
    ``cap``, ``n = n_pool`` and ``psi_hat`` read from ``rule``, a scoring
    ``pipeline.ProbabilityRule``; the uniform term floors every probability
    at ``rho * r / n`` so records with near-zero residuals cannot blow up the
    weighted estimating equation.  ``ProbabilityRule.probabilities`` caps it
    at one.
    """
    s = np.asarray(score, dtype=np.float64)
    # (1 - rho) * r * capped / (n * psi_hat) + rho * r / n, in one new array
    if math.isinf(rule.cap):
        out = s * ((1.0 - rho) * r)
    else:
        out = np.minimum(s, rule.cap)
        out *= (1.0 - rho) * r
    out /= rule.n_pool * rule.psi_hat
    out += rho * r / rule.n_pool
    return out if isinstance(score, np.ndarray) else float(out)


def block_mask(seed: int, indices: np.ndarray, probs, stream: int = MAIN_STREAM) -> np.ndarray:
    """Bernoulli inclusion decisions keyed on (seed, stream, index).

    Bit for bit the draws of ``pipeline._scan``: ``stream`` is ``MAIN_STREAM``
    in ``second_pass`` and ``PILOT_STREAM`` in ``run_pilot``.  ``probs`` holds
    one probability per index, or is one float for them all.
    """
    p = np.asarray(probs, dtype=np.float64)
    # two reductions screen the block; a NaN fails both comparisons
    if not (p.min(initial=0.0) >= 0.0 and p.max(initial=1.0) <= 1.0):
        bad = np.broadcast_to(~((p >= 0.0) & (p <= 1.0)), np.shape(indices))
        idx = np.asarray(indices)[bad][0]
        raise ValueError(f"probability outside [0, 1] at record {int(idx)}")
    return uniforms(seed, indices, stream) < p
