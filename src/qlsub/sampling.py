"""Sampling scores, the probability rule, and the Poisson scan that applies it.

Records are scored by |residual| * h(x) where h is either the plain
covariate norm (the cheap criterion, "mvc") or the norm of the
curvature-whitened covariate (the trace-optimal criterion, "mv").  The
allocation that minimizes the estimator's asymptotic dispersion subject to a
fixed expected subsample size is proportional-to-score with the largest
scores capped at probability one; :func:`waterfill` computes the exact cap.
:func:`resolve_rule` binds a plan and a pilot into a :class:`ProbabilityRule`,
under which :func:`_scan` draws the pilot, each main pass and each shard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DegenerateScores, NonFiniteValue
from .families import LinkFamily
from .rng import MAIN_STREAM, uniforms

if TYPE_CHECKING:  # annotations only: pipeline imports this module
    from .ingest import RecordStream
    from .pipeline import PilotResult

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
# score bound before it whitens any (:meth:`ProbabilityRule.screen`).
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
    total = float(s.sum())
    if not math.isfinite(total):
        raise NonFiniteValue(f"sampling scores are not finite: their sum is {total}")
    npos = int(np.count_nonzero(s > 0))
    if npos < math.ceil(r):
        raise DegenerateScores(
            f"only {npos} positive scores for expected size {r}"
        )
    m = min(n, int(math.floor(r)) + 2)
    top = np.sort(np.partition(s, n - m)[n - m :])[::-1]
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
    :class:`ProbabilityRule`; the uniform term floors every probability
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

    Bit for bit the draws of :func:`_scan`: ``stream`` is ``MAIN_STREAM``
    in ``second_pass`` and ``PILOT_STREAM`` in ``run_pilot``.  ``probs`` holds
    one probability per index, or is one float for them all.
    """
    p = np.asarray(probs, dtype=np.float64)
    # two reductions screen the block; a NaN fails both comparisons
    if not (p.min(initial=0.0) >= 0.0 and p.max(initial=1.0) <= 1.0):
        bad = np.broadcast_to(~((p >= 0.0) & (p <= 1.0)), np.shape(indices))
        idx = np.asarray(indices)[bad][0]
        raise NonFiniteValue(f"probability outside [0, 1] at record {int(idx)}")
    return uniforms(seed, indices, stream) < p


@dataclass
class PassSample:
    """Records captured by one Bernoulli scan, in global index order.

    ``expected_size`` estimates the sum of the scanned records'
    probabilities: the Horvitz-Thompson sum of p / q over the records a
    thinned scan screened in with probability q, each term rounded to a
    multiple of 2**-32.  A scan that screens nothing has q = 1 for every
    record, so there it is the sum of p itself.  ``zero_p`` says whether
    some record has probability 0: a record screened out at q = 0, or a
    screened-in record at p = 0.
    """

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    indices: np.ndarray
    expected_size: float
    zero_p: bool
    cap: float = math.inf

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def _fixed_point(terms, n: int) -> int:
    """Sum of round(t * 2**32) over the n records' terms (one float for all, or an array it overwrites).

    The rounded terms are integers exact in float64, whose float sums over
    2**20 records stay below 2**53 and so are exact in any order: the sum is
    the same under every block layout.
    """
    if np.ndim(terms) == 0:
        return int(np.rint(terms * 2**32)) * n
    np.rint(np.multiply(terms, 2**32, out=terms), out=terms)
    return sum(int(terms[i : i + 2**20].sum()) for i in range(0, terms.size, 2**20))


def _scan(stream: RecordStream, seed: int, tag: int, rule: ProbabilityRule, family: LinkFamily) -> PassSample:
    """Keep each record of ``stream`` independently with its probability under ``rule``.

    ``rule.screen`` gives ``(q, exact)`` for each block's records.  With
    ``exact`` None, ``q`` is their probabilities, as a new array that the
    scan then overwrites, or one float for all of them.  Otherwise the scan
    thins: a record is screened in when its uniform lies below q, and
    ``exact(at)`` gives the probabilities p <= q of the records screened
    in, at block positions ``at``, which are kept when the same uniform
    lies below p.  Both draws for record i are keyed on ``(seed, tag, i)``,
    so a thinned scan keeps exactly the records that a draw at p alone
    keeps.
    """
    # empty leading pieces give a scan that keeps nothing the right shapes
    xs, ys = [np.empty((0, stream.dim))], [np.empty(0)]
    ps, idxs = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    expected, zero_p = 0, False
    for start, xb, yb in stream.iter_blocks():
        block_idx = np.arange(start, start + xb.shape[0], dtype=np.int64)
        q, exact = rule.screen(xb, yb, family, start)
        # one index list gathers every field of the kept records
        keep = np.flatnonzero(block_mask(seed, block_idx, q, tag))
        zero_p = zero_p or np.min(q, initial=1.0) == 0.0
        if exact is None:
            p = np.broadcast_to(q, block_idx.shape)[keep]
            terms = q
        else:
            p = exact(keep)
            zero_p = zero_p or np.min(p, initial=1.0) == 0.0
            terms = p / q[keep]
            kept = block_mask(seed, block_idx[keep], p, tag)
            keep, p = keep[kept], p[kept]
        xs.append(xb[keep])
        ys.append(yb[keep])
        ps.append(p)
        idxs.append(keep + start)
        expected += _fixed_point(terms, block_idx.shape[0])
    return PassSample(
        x=np.concatenate(xs),
        y=np.concatenate(ys),
        p=np.concatenate(ps),
        indices=np.concatenate(idxs),
        expected_size=expected / 2**32,
        zero_p=bool(zero_p),
        cap=rule.cap,
    )


@dataclass(frozen=True)
class ProbabilityRule:
    """Resolved record-to-probability map for one sampling pass.

    A record scored ``s`` by the pilot estimate (``pilot.beta0``, and
    ``pilot.sigma0_inv`` for mv) gets ``shrinkage_probability(self, s, r,
    rho)`` capped at one, with ``cap`` and the score normalizer ``psi_hat``
    resolved for the pool of ``n_pool`` records.  ``psi_hat`` is None for a
    uniform rule, which gives every record ``r / n_pool``: the pilot draws
    through ``ProbabilityRule(None, None, r0, N)``.  ``pool_scores`` holds
    the score of every record of the pool, the first at global index
    ``pool_start``, when the rule was resolved from them (the exact cap), so
    that the pass over the pool reads them instead of scoring each record
    again.
    """

    pilot: PilotResult | None
    plan: SamplingPlan | None
    r: float
    n_pool: float
    psi_hat: float | None = None
    cap: float = math.inf
    pool_scores: np.ndarray | None = field(default=None, compare=False, repr=False)
    pool_start: int | None = None

    def __post_init__(self):
        if self.psi_hat is not None and not math.isfinite(self.psi_hat):
            raise NonFiniteValue(f"score normalizer {self.psi_hat} is not finite")
        if self.psi_hat is not None and not self.psi_hat > 0:
            raise ConfigError("pilot score normalizer must be positive")

    @property
    def ctx(self) -> ProbabilityRule | None:
        """The rule itself when it scores records, None when it is uniform."""
        return None if self.psi_hat is None else self

    def scores(self, x, y, family: LinkFamily, offset: int = 0) -> np.ndarray:
        """Scores of the records ``offset, offset + 1, ...`` held in ``x``, ``y``."""
        sigma_inv = self.pilot.sigma0_inv if self.plan.criterion == "mv" else None
        return record_scores(x, y, family, self.pilot.beta0, sigma_inv, offset)

    def probabilities(self, scores: np.ndarray) -> np.ndarray:
        """Capped probabilities of records with these scores."""
        if self.psi_hat is None:
            return np.full(scores.shape[0], self.r / self.n_pool)
        p = shrinkage_probability(self, scores, self.r, self.plan.shrinkage)
        return np.minimum(p, 1.0, out=p)

    def block_probabilities(
        self, xb: np.ndarray, yb: np.ndarray, family: LinkFamily, offset: int = 0
    ) -> np.ndarray:
        """Capped probabilities of the records ``offset, offset + 1, ...``."""
        # a uniform rule reads no scores, so none are computed for it
        return self.probabilities(yb if self.psi_hat is None else self.scores(xb, yb, family, offset))

    @cached_property
    def bound_factor(self) -> float:
        """``||sigma_inv||_2 * (1 + 1e-9)``: the mv ``h(x)`` never exceeds ``bound_factor * ||x||``.

        ``||sigma_inv x|| <= ||sigma_inv||_2 ||x||`` holds exactly.  While
        ``||x||`` and the bound lie in [1e-150, 1e150], the rounding of the
        computed ``h``, of ``||x||`` and of the spectral norm is of order
        d**1.5 * 2**-53 relative to ``||sigma_inv||_2 ||x||`` whatever the
        condition number, far inside the 1e-9 margin for any d the scorer
        meets; :meth:`screen` screens in every record outside that range.
        """
        return float(np.linalg.norm(self.pilot.sigma0_inv, 2)) * (1.0 + 1e-9)

    def screen(self, xb: np.ndarray, yb: np.ndarray, family: LinkFamily, offset: int = 0):
        """``(q, exact)`` of the records ``offset, offset + 1, ...`` for a thinned draw.

        An mv rule at dimension ``THIN_MIN_DIM`` or above and rate
        ``r / n_pool`` at most ``THIN_MAX_RATE`` bounds each score
        by ``|y - mean(x'beta)| * bound_factor * ||x||``, which takes only
        the one-column product that mvc uses.  ``q`` is the capped
        probability of the bound, and ``exact(at)`` the capped probability
        of the exact score of the records at block positions ``at``,
        whitened by :func:`whitened_at`: bit for bit what
        :meth:`block_probabilities` gives them.  The rounding of the score,
        the shrinkage blend and the cap at one is monotone, so p <= q.  A
        uniform rule gives ``(r / n_pool, None)``, one float for the block;
        a rule that holds its pool's scores (``pool_scores``) gives the
        capped probabilities of the block's slice of them and None, and any
        other rule ``(block_probabilities(...), None)``.
        """
        if self.psi_hat is None:
            return self.r / self.n_pool, None
        if self.pool_scores is not None:
            at = offset - self.pool_start
            return self.probabilities(self.pool_scores[at : at + xb.shape[0]]), None
        if (
            self.plan.criterion != "mv"
            or xb.shape[1] < THIN_MIN_DIM
            or self.r > THIN_MAX_RATE * self.n_pool
        ):
            return self.block_probabilities(xb, yb, family, offset), None
        eta, norms = score_parts(xb, offset, self.pilot.beta0)
        # one residual for the bound and the exact score, as record_scores takes it
        resid = abs_residuals(yb, family, eta)
        # the margin holds while every square in ||x|| and h is a normal
        # number or far below one; a record whose ||x|| or bound lies outside
        # [1e-150, 1e150] is screened in, so its exact p decides it
        scale = self.bound_factor
        unsafe = ~((norms >= 1e-150 / min(scale, 1.0)) & (norms <= 1e150 / max(scale, 1.0)))
        # a bound that overflows is inf, whose capped probability still bounds p
        with np.errstate(over="ignore"):
            norms *= scale
            q = self.probabilities(np.multiply(resid, norms, out=norms))
        q[unsafe] = 1.0

        def exact(at):
            h = whitened_at(xb[at], offset + at, self.pilot.sigma0_inv)
            return self.probabilities(np.multiply(resid[at], h, out=h))

        return q, exact


def resolve_rule(
    stream: RecordStream | None,
    family: LinkFamily,
    pilot: PilotResult,
    plan: SamplingPlan,
    r: float,
    n_pool: float | None = None,
) -> ProbabilityRule:
    """Bind the plan to this pass: threshold, normalizer, probability map.

    The pool size defaults to the stream's record count.  Only the exact
    cap reads the stream, so with ``n_pool`` given and another threshold
    mode ``stream`` may be None.  The exact cap scores every record of the
    stream into one array and keeps it on the rule (``pool_scores``) for the
    pass over the same stream.  A degenerate pilot (``run_pilot`` has
    warned) gives a uniform rule.
    """
    n_pool = float(stream.n_records if n_pool is None else n_pool)
    uniform = ProbabilityRule(pilot, plan, r, n_pool)
    if plan.criterion == "uniform" or pilot.degenerate:
        return uniform
    scores, cap, pool, first = pilot.scores, math.inf, None, None
    if plan.threshold_mode == "quantile":
        cap = threshold_quantile(scores, r, n_pool)
    elif plan.threshold_mode == "exact":
        # score the whole pool with the pilot estimate, then solve the capped allocation on it
        scores = pool = np.empty(stream.n_records)
        for start, xb, yb in stream.iter_blocks():
            first = start if first is None else first
            pool[start - first : start - first + xb.shape[0]] = uniform.scores(xb, yb, family, start)
        cap, _ = waterfill(scores, r)
    # under the inf cap this is bit for bit pilot.psi_hat
    psi_hat = float(np.minimum(scores, cap).mean())
    return ProbabilityRule(pilot, plan, r, n_pool, psi_hat=psi_hat, cap=cap, pool_scores=pool, pool_start=first)
