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


@dataclass(frozen=True)
class ScoreContext:
    """Pilot quantities that score a record and turn the score into a probability.

    ``sigma_inv`` is the pilot curvature inverse for the mv criterion and
    None for mvc.
    """

    beta0: np.ndarray
    psi_hat: float
    sigma_inv: np.ndarray | None
    n_pool: float
    cap: float = math.inf

    def __post_init__(self):
        if not self.psi_hat > 0:
            raise ConfigError("pilot score normalizer must be positive")

    def scores(self, x, y, family: LinkFamily, offset: int = 0) -> np.ndarray:
        """Scores of the records ``offset, offset + 1, ...`` held in ``x``, ``y``."""
        return record_scores(x, y, family, self.beta0, self.sigma_inv, offset)


# Rows per BLAS call in the record kernel.  Every record's products are
# computed in a call of exactly this shape, at row (global index % TILE_ROWS).
TILE_ROWS = 512
# Whole tiles per stacked product, so a chunk is still in cache when normed.
CHUNK_TILES = 8


def _tiled(x: np.ndarray, offset: int, w: np.ndarray):
    """``(i, x[i:j], x[i:j] @ w)`` over consecutive pieces of ``x``.

    Row ``i`` of ``x`` is global record ``offset + i``.  Tiles of
    ``TILE_ROWS`` rows are aligned to the global index.  A run of up to
    ``CHUNK_TILES`` whole tiles is one stacked matmul, one BLAS call per
    tile; a partial tile at either edge of ``x`` is copied into a
    zero-filled ``TILE_ROWS``-row buffer at row ``(offset + i) % TILE_ROWS``.
    A chunk's product is written into one buffer that every chunk reuses, so
    a yielded product is valid only until the next step.
    """
    n, d = x.shape
    buf = np.empty((CHUNK_TILES, TILE_ROWS) + w.shape[1:])
    i = 0
    while i < n:
        row = (offset + i) % TILE_ROWS
        take = min(TILE_ROWS - row, n - i)
        if take == TILE_ROWS:
            take = min(n - i, CHUNK_TILES * TILE_ROWS) // TILE_ROWS * TILE_ROWS
            tiles = x[i : i + take].reshape(-1, TILE_ROWS, d)
            prod = np.matmul(tiles, w, out=buf[: take // TILE_ROWS]).reshape((take,) + w.shape[1:])
        else:
            tile = np.zeros((TILE_ROWS, d))
            tile[row : row + take] = x[i : i + take]
            prod = (tile @ w)[row : row + take]
        yield i, x[i : i + take], prod
        i += take


def tile_products(x: np.ndarray, offset: int, *weights: np.ndarray) -> list[np.ndarray]:
    """``x @ w`` for each ``w``, one fixed-shape BLAS call per record tile.

    Row ``i`` of ``x`` is global record ``offset + i``; the tiles are those
    of :func:`_tiled`.  A BLAS call of fixed shape accumulates each output
    element in an order set by the call's shape and the row's place in it,
    so every record's products are the same whatever the block size, shard
    layout or source that delivered it, and no other row can change them.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    weights = [np.ascontiguousarray(w, dtype=np.float64) for w in weights]
    outs = [np.empty((x.shape[0],) + w.shape[1:]) for w in weights]
    # a non-finite row yields non-finite outputs in that row only, which the
    # scorer rejects through family.mean, so BLAS need not warn about them
    with np.errstate(invalid="ignore", over="ignore"):
        for w, out in zip(weights, outs):
            for i, rows, prod in _tiled(x, offset, w):
                out[i : i + len(rows)] = prod
    return outs


def score_parts(x: np.ndarray, offset: int, beta, sigma_inv=None) -> tuple[np.ndarray, np.ndarray]:
    """``(x_i' beta, h(x_i))`` of records offset, offset + 1, ... held in ``x``.

    Each tile is multiplied by one augmented matrix in the calls of
    :func:`tile_products`: ``[beta | sigma_inv']`` for mv, ``beta`` as a
    one-column matrix for mvc.  ``x_i' beta`` is the first column, and ``h``
    the row-local norm of the other columns (mv) or of ``x_i`` (mvc), taken
    while the chunk is in cache.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.asarray(beta, dtype=np.float64).reshape(-1, 1)
    if sigma_inv is not None:
        w = np.hstack([w, np.asarray(sigma_inv, dtype=np.float64).T])
    eta, h2 = np.empty(x.shape[0]), np.empty(x.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        for i, rows, prod in _tiled(x, offset, w):
            z = rows if sigma_inv is None else prod[:, 1:]
            eta[i : i + len(rows)] = prod[:, 0]
            h2[i : i + len(rows)] = np.einsum("ij,ij->i", z, z)
    return eta, np.sqrt(h2, out=h2)


def record_scores(x, y, family: LinkFamily, beta, sigma_inv=None, offset: int = 0) -> np.ndarray:
    """Scores ``|y_i - mean(x_i' beta)| * h(x_i)`` of records offset, offset + 1, ...

    ``h`` is ``||sigma_inv @ x_i||`` when ``sigma_inv`` is given (mv) and
    ``||x_i||`` otherwise (mvc); both factors come from :func:`score_parts`.
    """
    eta, h = score_parts(x, offset, beta, sigma_inv)
    # family.mean returns a new array, so the arithmetic runs in place on it
    out = family.mean(eta)
    np.subtract(np.asarray(y, dtype=np.float64), out, out=out)
    np.abs(out, out=out)
    out *= h
    return out


def linear_predictor(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``x @ beta``: bit for bit the ``x_i' beta`` of ``score_parts(x, 0, beta)`` (mvc)."""
    return tile_products(x, 0, np.asarray(beta, dtype=np.float64).reshape(-1, 1))[0][:, 0]


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


def shrinkage_probability(ctx: ScoreContext, score, r: float, rho: float):
    """Blend of score-proportional and uniform probabilities.

    ``(1 - rho) * r * (score ^ cap) / (n * psi_hat) + rho * r / n``; the
    uniform term floors every probability at ``rho * r / n`` so records with
    near-zero residuals cannot blow up the weighted estimating equation.
    Capped at one, it is bit for bit ``ProbabilityRule.probabilities``.
    """
    s = np.asarray(score, dtype=np.float64)
    capped = np.minimum(s, ctx.cap) if not math.isinf(ctx.cap) else s
    out = (1.0 - rho) * r * capped / (ctx.n_pool * ctx.psi_hat) + rho * r / ctx.n_pool
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
