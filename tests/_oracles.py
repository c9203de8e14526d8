"""Independent numerical oracles used by the tests.

These deliberately avoid the code paths they are used to check: the
allocation oracle solves the underlying convex program by projected
gradient descent, and the regression oracle uses a QR-based least-squares
route instead of normal equations.  The scalar uniform is the
record-at-a-time form of ``qlsub.rng.uniforms``, built from plain Python
integers rather than numpy's uint64 arithmetic.  The weighted score, the
full-data variance and the capped proportional allocation are the textbook
forms the package's scan-based paths are checked against.  The Newton
loop is the textbook one, with the curvature weight taken from the family's
derivative and each 1-norm from ``np.linalg.norm``.  The CSV reference
reads each file's bytes whole and parses each field with Python's ``float``.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace

import numpy as np

from qlsub.errors import DegenerateScores
from qlsub.estimator import MAX_HALVINGS, RCOND_MIN, _gram, _sandwich, _weights, subsample_hessian
from qlsub.families import ETA_MAX, LinkFamily
from qlsub.rng import _GAMMA, _INV53, _MASK, MAIN_STREAM, _mix_int, derive_seed


def project_capped_simplex(v: np.ndarray, total: float, cap: float = 1.0) -> np.ndarray:
    """Exact Euclidean projection onto {p : sum p = total, 0 <= p <= cap}.

    sum(clip(v - tau, 0, cap)) is piecewise linear and nonincreasing in tau;
    the correct tau lies between two of the 2n breakpoints {v_i, v_i - cap}
    and is solved linearly inside that segment.
    """
    v = np.asarray(v, dtype=np.float64)
    points = np.unique(np.concatenate([v, v - cap]))
    lo, hi = 0, points.size - 1
    # sums at the breakpoints bracket the target
    def mass(tau):
        return np.clip(v - tau, 0.0, cap).sum()

    if mass(points[lo]) <= total:
        tau_lo, tau_hi = points[lo] - (total - mass(points[lo])) - 1.0, points[lo]
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mass(points[mid]) > total:
                lo = mid
            else:
                hi = mid
        tau_lo, tau_hi = points[lo], points[hi]
    # linear interpolation on the active segment, then one exact solve
    m_lo, m_hi = mass(tau_lo), mass(tau_hi)
    if m_lo == m_hi:
        tau = tau_lo
    else:
        free = (v - tau_lo > 0.0) & (v - tau_hi < cap)
        n_free = int(free.sum())
        if n_free == 0:
            tau = tau_lo
        else:
            tau = tau_lo + (m_lo - total) / n_free
    out = np.clip(v - tau, 0.0, cap)
    # guard against roundoff at segment ends
    if not np.isclose(out.sum(), total, rtol=1e-9, atol=1e-12):
        for _ in range(200):
            tau_mid = 0.5 * (tau_lo + tau_hi)
            if mass(tau_mid) > total:
                tau_lo = tau_mid
            else:
                tau_hi = tau_mid
        out = np.clip(v - 0.5 * (tau_lo + tau_hi), 0.0, cap)
    return out


def min_weighted_inverse(
    squared_scores: np.ndarray,
    total: float,
    max_iter: int = 50000,
    rel_tol: float = 1e-15,
) -> tuple[np.ndarray, float]:
    """Minimize sum(h2_i / p_i) over the capped simplex by projected gradient.

    Plain descent with Armijo backtracking and step growth; small instances
    converge far past the 1e-8 relative accuracy the tests need.
    """
    h2 = np.asarray(squared_scores, dtype=np.float64)
    n = h2.size
    floor = 1e-12

    def objective(q):
        q = np.maximum(q, floor)
        return float(np.sum(h2 / q))

    p = project_capped_simplex(np.full(n, total / n), total)
    f = objective(p)
    step = float(np.min(np.maximum(p, floor)) ** 3) / (2.0 * float(np.max(h2)) + 1e-300)
    stall = 0
    for _ in range(max_iter):
        grad = -h2 / np.maximum(p, floor) ** 2
        step *= 4.0
        while True:
            cand = project_capped_simplex(p - step * grad, total)
            f_cand = objective(cand)
            if f_cand <= f + 1e-4 * float(grad @ (cand - p)) or step < 1e-20:
                break
            step *= 0.25
        if f_cand >= f:
            stall += 1
            if stall > 5:
                break
            continue
        if f - f_cand <= rel_tol * abs(f):
            p, f = cand, f_cand
            stall += 1
            if stall > 5:
                break
        else:
            stall = 0
            p, f = cand, f_cand
    return p, f


def weighted_least_squares(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Closed-form weighted least squares via QR on the scaled design."""
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(x * sw[:, None], y * sw, rcond=None)
    return beta


def newton_reference(x, y, family: LinkFamily, p=None, init=None, tol: float = 1e-8, max_iter: int = 100):
    """Newton-Raphson with step-halving on the weighted estimating equation.

    The loop of ``estimator.solve_weighted_qle``: the step solves the
    curvature ``x' diag(w * mean'(eta)) x``, symmetrised, against the score,
    with the inverse symmetrised after a 1-norm condition check; up to
    ``MAX_HALVINGS`` halvings look for a smaller max-norm of the score.
    Returns ``beta``, ``iterations``, ``converged``, ``saturated``, the last
    Newton matrix ``newton`` and the number of ``halvings`` taken.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, d = x.shape
    w = np.ones(m) if p is None else 1.0 / np.asarray(p, dtype=np.float64)
    scale = 1.0 + float(w.sum())
    beta = np.zeros(d) if init is None else np.array(init, dtype=np.float64)

    def score_at(b):
        eta = x @ b
        return x.T @ (w * (y - family.mean(eta))), eta

    def curvature(eta):
        g = x.T @ (x * (w * family.mean_derivative(eta))[:, None])
        return 0.5 * (g + g.T)

    def inverse(a):
        np.linalg.cholesky(a)
        inv = np.linalg.inv(a)
        assert 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(inv, 1)) >= RCOND_MIN
        return 0.5 * (inv + inv.T)

    score, eta = score_at(beta)
    norm = float(np.max(np.abs(score)))
    newton, iterations, halvings, saturated = None, 0, 0, False
    converged = norm <= tol * scale
    while not converged and iterations < max_iter:
        iterations += 1
        saturated = saturated or (family.kind == "exp" and bool(np.any(eta > ETA_MAX)))
        newton = curvature(eta)
        delta = inverse(newton) @ score
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = beta + step * delta
            try:
                cand_score, cand_eta = score_at(cand)
            except ValueError:
                cand_norm = math.nan
            else:
                cand_norm = float(np.max(np.abs(cand_score)))
            if np.isfinite(cand_norm) and cand_norm < norm:
                break
            step *= 0.5
            halvings += 1
        else:
            break
        beta, score, eta, norm = cand, cand_score, cand_eta, cand_norm
        converged = norm <= tol * scale
    if newton is None:
        newton = curvature(eta)
    return SimpleNamespace(
        beta=beta, iterations=iterations, converged=converged, saturated=saturated, newton=newton, halvings=halvings
    )


def uniform_one(seed: int, index: int, stream: int = MAIN_STREAM) -> float:
    """Scalar version of ``qlsub.rng.uniforms`` for record-at-a-time callers."""
    key = derive_seed(seed, stream)
    z = _mix_int(key + ((int(index) + 1) * _GAMMA & _MASK))
    return (z >> 11) * _INV53


def weighted_score(x, y, family: LinkFamily, beta, p=None) -> np.ndarray:
    """Inverse-probability-weighted score vector at ``beta``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if x.shape[1] != beta.shape[0]:
        raise ValueError("dimension mismatch between covariates and beta")
    w = _weights(p, x.shape[0])
    resid = y - family.mean(x @ beta)
    return x.T @ (w * resid)


def full_data_variance(x, y, family: LinkFamily, beta, probabilities) -> np.ndarray:
    """Asymptotic variance of the subsample estimator about the full-data fit.

    The bread is the full-data curvature and the meat is the sampling
    variance of the weighted score under independent Bernoulli inclusions
    with the given probabilities.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    probs = np.asarray(probabilities, dtype=np.float64)
    n = x.shape[0]
    resid2 = (y - family.mean(x @ np.asarray(beta, dtype=np.float64))) ** 2
    meat = _gram(x, resid2 * (1.0 / probs - 1.0), float(n) ** 2)
    bread = subsample_hessian(x, family, beta, scale=n)
    return _sandwich(bread, meat)


def optimal_probabilities(scores, r: float, cap: float = math.inf) -> np.ndarray:
    """Capped proportional-to-score probabilities with expected total r.

    With ``(cap, k)`` from ``qlsub.sampling.waterfill`` the capped entries
    are assigned exactly one and the rest split ``r - k`` proportionally,
    which is the trace-optimal allocation.  With ``cap=inf`` this is plain
    proportional allocation and entries may exceed one.
    """
    s = np.asarray(scores, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("scores must be nonnegative")
    if math.isinf(cap):
        denom = float(s.sum())
        if denom <= 0.0:
            raise DegenerateScores("all scores are zero")
        return r * s / denom
    capped = s >= cap
    k = int(np.count_nonzero(capped))
    rest_sum = float(s[~capped].sum())
    if r - k < 0 or (rest_sum <= 0.0 and r - k > 0):
        raise DegenerateScores("cap inconsistent with the requested size")
    p = np.empty_like(s)
    p[capped] = 1.0
    if rest_sum > 0.0:
        p[~capped] = (r - k) * s[~capped] / rest_sum
    return p


def _csv_number(field: str) -> float:
    """A CSV number with its padding stripped: ASCII, without ``_``, then Python's ``float``;
    ``float`` alone also takes ``1_0`` and non-ASCII digits, which no CSV writer emits."""
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return float(field)


def csv_reference(paths, skip_header: bool = False):
    """``(rows, file_counts, None)`` of numeric CSV files, or ``(None, None, where)`` of the first bad line.

    Each file's bytes split into lines at ``\\r\\n``, ``\\r`` and ``\\n`` only,
    not at ``\\x1c``, ``\\x85`` or ``\\u2028``.  Every line must be UTF-8.  A
    record is a non-blank line after the optional header; each of its
    comma-separated fields is a number, padded on either side by any
    characters for which ``str.isspace`` holds.  The first record has at
    least two fields, the response and a covariate, every record has its
    field count, and every value is finite.  ``where`` is ``"path:line"`` of
    the first line that breaks a rule, ``"path"`` of a first record with one
    field, or None when no file holds a record.
    """
    rows, counts, arity = [], [], None
    for path in paths:
        with open(path, "rb") as fh:
            lines = re.split(rb"\r\n|\r|\n", fh.read())
        if lines[-1] == b"":  # what follows the last line end is no line
            lines.pop()
        counts.append(0)
        for lineno, raw in enumerate(lines, start=1):
            try:
                text = raw.decode("utf-8")
                if (skip_header and lineno == 1) or not text.strip():
                    continue
                values = [_csv_number(field.strip()) for field in text.split(",")]
            except ValueError:  # UnicodeDecodeError too
                return None, None, f"{path}:{lineno}"
            if arity is None and len(values) == 1:
                return None, None, path
            arity = len(values) if arity is None else arity
            if len(values) != arity or not all(map(math.isfinite, values)):
                return None, None, f"{path}:{lineno}"
            rows.append(values)
            counts[-1] += 1
    return (rows, counts, None) if rows else (None, None, None)
