"""Single-machine two-step subsampling pipeline.

Pass one draws a small uniform pilot, fits it, and extracts the pilot
statistics (estimate, score normalizer, curvature).  Pass two scans the data
again, converts each record's score into a shrinkage probability, performs
the Bernoulli draws, and refits on the union of the pilot and second-pass
subsamples with inverse-probability weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import sampling
from .errors import ConfigError, EmptySample, PilotFailed, SingularHessian
from .estimator import (
    FitResult,
    _spd_inverse,
    sandwich_variance,
    solve_weighted_qle,
    subsample_hessian,
)
from .families import LinkFamily
from .ingest import RecordStream
from .rng import MAIN_STREAM, PILOT_STREAM
from .sampling import (
    SamplingPlan,
    abs_residuals,
    block_mask,
    record_scores,
    score_parts,
    shrinkage_probability,
    threshold_quantile,
    waterfill,
    whitened_at,
)


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


@dataclass(kw_only=True)
class PilotResult(PassSample):
    """Pilot subsample, drawn at the uniform rate r0/N, and the statistics derived from it."""

    beta0: np.ndarray
    psi_hat: float
    sigma0_inv: np.ndarray
    scores: np.ndarray
    n_total: int

    @property
    def realized_r0(self) -> int:
        return self.size

    @property
    def degenerate(self) -> bool:
        """Whether every pilot residual is zero, so that every rule it resolves is uniform."""
        return self.psi_hat <= 0.0


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


def run_pilot(
    stream: RecordStream,
    family: LinkFamily,
    r0: float,
    seed: int,
    criterion: str = "mvc",
    ridge: float = 0.0,
) -> PilotResult:
    """Uniform pilot pass: draw with probability r0/N, fit, summarize."""
    n = stream.n_records
    d = stream.dim
    if not 0 < r0 <= n:
        raise ConfigError(f"pilot size {r0} outside (0, {n}]")
    if r0 < 10 * d:
        warnings.warn(
            f"pilot size {r0} is below 10*d = {10 * d}; the pilot fit may be fragile",
            RuntimeWarning,
            stacklevel=2,
        )
    sample = _scan(stream, seed, PILOT_STREAM, ProbabilityRule(None, None, r0, n), family)
    px, py, realized = sample.x, sample.y, sample.size
    if realized < d + 1:
        raise PilotFailed(f"pilot captured only {realized} records for dimension {d}; raise r0")

    try:
        beta0 = solve_weighted_qle(px, py, family, p=sample.p, ridge=ridge).beta
    except SingularHessian as err:
        raise PilotFailed(f"pilot Newton system is singular; raise r0 ({err})") from err

    try:
        sigma0_inv = _spd_inverse(subsample_hessian(px, family, beta0, scale=realized))
    except SingularHessian as err:
        raise PilotFailed(f"pilot curvature is singular; raise r0 ({err})") from err

    # the gathered pilot records are scored as records 0, 1, ... of px
    scores = record_scores(px, py, family, beta0, sigma0_inv if criterion == "mv" else None)
    psi_hat = float(scores.mean())
    if psi_hat <= 0.0 and criterion != "uniform":
        warnings.warn(
            "pilot residuals are all zero; falling back to uniform probabilities",
            RuntimeWarning,
            stacklevel=2,
        )

    return PilotResult(**vars(sample), beta0=beta0, psi_hat=psi_hat, sigma0_inv=sigma0_inv, scores=scores, n_total=n)


@dataclass(frozen=True)
class ProbabilityRule:
    """Resolved record-to-probability map for one sampling pass.

    A record scored ``s`` by the pilot estimate (``pilot.beta0``, and
    ``pilot.sigma0_inv`` for mv) gets ``shrinkage_probability(self, s, r,
    rho)`` capped at one, with ``cap`` and the score normalizer ``psi_hat``
    resolved for the pool of ``n_pool`` records.  ``psi_hat`` is None for a
    uniform rule, which gives every record ``r / n_pool``: the pilot draws
    through ``ProbabilityRule(None, None, r0, N)``.  ``block_scores`` maps
    the global start of each block of the pool to its records' scores when
    the rule was resolved from them (the exact cap), so that the pass over
    the same blocks reads them instead of scoring each record again.
    """

    pilot: PilotResult | None
    plan: SamplingPlan | None
    r: float
    n_pool: float
    psi_hat: float | None = None
    cap: float = math.inf
    block_scores: dict[int, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
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

        An mv rule at dimension ``sampling.THIN_MIN_DIM`` or above and rate
        ``r / n_pool`` at most ``sampling.THIN_MAX_RATE`` bounds each score
        by ``|y - mean(x'beta)| * bound_factor * ||x||``, which takes only
        the one-column product that mvc uses.  ``q`` is the capped
        probability of the bound, and ``exact(at)`` the capped probability
        of the exact score of the records at block positions ``at``,
        whitened by :func:`sampling.whitened_at`: bit for bit what
        :meth:`block_probabilities` gives them.  The rounding of the score,
        the shrinkage blend and the cap at one is monotone, so p <= q.  A
        uniform rule gives ``(r / n_pool, None)``, one float for the block;
        a rule that holds the block's scores (``block_scores``) gives their
        capped probabilities and None, and any other rule
        ``(block_probabilities(...), None)``.
        """
        if self.psi_hat is None:
            return self.r / self.n_pool, None
        kept = (self.block_scores or {}).get(offset)
        if kept is not None and kept.shape[0] == xb.shape[0]:
            return self.probabilities(kept), None
        if (
            self.plan.criterion != "mv"
            or xb.shape[1] < sampling.THIN_MIN_DIM
            or self.r > sampling.THIN_MAX_RATE * self.n_pool
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
    mode ``stream`` may be None.  The exact cap scores every block of the
    stream and keeps those scores on the rule (``block_scores``) for the
    pass over the same stream.  A degenerate pilot (``run_pilot`` has
    warned) gives a uniform rule.
    """
    n_pool = float(stream.n_records if n_pool is None else n_pool)
    uniform = ProbabilityRule(pilot, plan, r, n_pool)
    if plan.criterion == "uniform" or pilot.degenerate:
        return uniform
    scores, cap, blocks = pilot.scores, math.inf, None
    if plan.threshold_mode == "quantile":
        cap = threshold_quantile(scores, r, n_pool)
    elif plan.threshold_mode == "exact":
        # score the whole pool with the pilot estimate, then solve the capped allocation on it
        blocks = {start: uniform.scores(xb, yb, family, start) for start, xb, yb in stream.iter_blocks()}
        scores = np.concatenate(list(blocks.values()))
        cap, _ = waterfill(scores, r)
    # under the inf cap this is bit for bit pilot.psi_hat
    psi_hat = float(np.minimum(scores, cap).mean())
    return ProbabilityRule(pilot, plan, r, n_pool, psi_hat=psi_hat, cap=cap, block_scores=blocks)


def second_pass(
    stream: RecordStream,
    family: LinkFamily,
    pilot: PilotResult,
    plan: SamplingPlan,
    r: float,
    seed: int,
    rule: ProbabilityRule | None = None,
) -> PassSample:
    """Score-driven Bernoulli scan over ``stream`` with expected size r.

    The probability pool size is the stream's own record count, so a shard
    passed here is sampled to expected size r by itself.
    """
    n_pool = stream.n_records
    if not 0 < r < n_pool:
        raise ConfigError(f"expected size {r} outside (0, {n_pool})")
    if rule is None:
        rule = resolve_rule(stream, family, pilot, plan, r)
    sample = _scan(stream, seed, MAIN_STREAM, rule, family)
    # at rho = 0 a record's probability is zero exactly when its score is; a
    # zero score has a zero residual or x = 0 (sigma_inv is nonsingular), so
    # its bound is zero too, or the record is screened in at q = 1
    if rule.plan.shrinkage == 0.0 and sample.zero_p:
        warnings.warn(
            "records with zero score receive probability 0 under rho = 0; "
            "the optimality premises may be violated",
            RuntimeWarning,
            stacklevel=2,
        )
    return sample


def run_two_step(
    stream: RecordStream,
    family: LinkFamily,
    plan: SamplingPlan,
    r0: float,
    ridge: float = 0.0,
) -> FitResult:
    """Pilot pass, shrinkage-probability pass, and the final weighted fit.

    The final sample is the union of the pilot and second-pass draws.  The
    two scans are independent Poisson experiments, so a record's inclusion
    probability in the union is 1 - (1 - r0/N)(1 - p2) where p2 is its
    capped shrinkage probability; the union is deduplicated and weighted by
    the inverse of that probability.  Weighting pilot records at their raw
    pilot probability instead would freeze their score noise at the 1/r0
    scale and destroy the 1/r convergence of the final estimator.
    """
    seed = plan.seed
    n = stream.n_records
    r = plan.expected_size
    if not 0 < r < n:
        raise ConfigError(f"expected size {r} must lie in (0, {n})")

    pilot = run_pilot(stream, family, r0, seed, plan.criterion, ridge=ridge)
    rule = resolve_rule(stream, family, pilot, plan, r)
    sample = second_pass(stream, family, pilot, plan, r, seed, rule=rule)
    if sample.size == 0:
        raise EmptySample("second pass captured no records")

    p0 = float(r0) / n
    pilot_p2 = rule.probabilities(pilot.scores)
    # both index lists are sorted; np.isin would import numpy.ma on first use
    at = np.minimum(np.searchsorted(pilot.indices, sample.indices), pilot.indices.size - 1)
    fresh = pilot.indices[at] != sample.indices
    x = np.concatenate([pilot.x, sample.x[fresh]])
    y = np.concatenate([pilot.y, sample.y[fresh]])
    p2 = np.concatenate([pilot_p2, sample.p[fresh]])
    indices = np.concatenate([pilot.indices, sample.indices[fresh]])
    order = np.argsort(indices, kind="stable")
    x, y, indices = x[order], y[order], indices[order]
    union_p = 1.0 - (1.0 - p0) * (1.0 - p2[order])

    fit = solve_weighted_qle(x, y, family, p=union_p, init=pilot.beta0, ridge=ridge)
    bread = subsample_hessian(x, family, fit.beta, p=union_p, scale=n)
    variance = sandwich_variance([(x, y, union_p, fit.beta)], family, bread, n)

    fit.hessian = bread
    fit.variance = variance
    fit.info.update(
        realized_r0=pilot.realized_r0,
        realized_second=sample.size,
        expected_second=sample.expected_size,
        cap=sample.cap,
        psi_hat=pilot.psi_hat,
        criterion=plan.criterion,
        seed=seed,
    )
    return fit
