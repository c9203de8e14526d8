"""Weighted quasi-likelihood estimation on subsamples.

The central object is the weighted estimating equation

    sum_i (1/p_i) * (y_i - mean(beta' x_i)) * x_i = 0

solved by Newton-Raphson with step-halving.  Inclusion probabilities enter
only through the inverse-probability weights, so the full-data estimator is
the special case p = 1.  The module also provides the curvature matrix and
the sandwich variance estimators used for inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySample, SingularHessian
from .families import LinkFamily

# reciprocal condition number below this is treated as singular
RCOND_MIN = 1e-12
MAX_HALVINGS = 30
Z_975 = 1.959963985


@dataclass
class FitResult:
    """Outcome of a weighted fit or an aggregation.

    ``hessian`` holds the positive-definite curvature relevant to the
    producing routine: the final (unnormalized) Newton matrix for a direct
    solve, the pooled bread matrix for pipeline and distributed variance
    estimates.  ``variance`` is the plug-in sandwich estimate when one was
    computed.
    """

    beta: np.ndarray
    hessian: np.ndarray
    variance: np.ndarray | None
    iterations: int
    converged: bool
    subsample_size: int
    score_norm: float = 0.0
    saturated: bool = False
    info: dict = field(default_factory=dict)

    def std_errors(self) -> np.ndarray:
        if self.variance is None:
            raise ValueError("no variance estimate attached to this fit")
        return np.sqrt(np.clip(np.diag(self.variance), 0.0, None))

    def conf_int(self, z: float = Z_975) -> tuple[np.ndarray, np.ndarray]:
        se = self.std_errors()
        return self.beta - z * se, self.beta + z * se


def _weights(p, m: int) -> np.ndarray:
    if p is None:
        return np.ones(m)
    p = np.asarray(p, dtype=np.float64)
    if (p <= 0.0).any() or (p > 1.0).any():
        raise ValueError("inclusion probabilities must lie in (0, 1]")
    return 1.0 / p


def _symmetrise(m: np.ndarray) -> np.ndarray:
    """``0.5 * (m + m')`` written into ``m``, a new square matrix of the caller's."""
    # numpy buffers the overlapping operand, so every entry reads the old m
    np.add(m, m.T, out=m)
    m *= 0.5
    return m


def _gram(x: np.ndarray, w: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``x' diag(w) x / scale``, symmetrised after the division.

    Every curvature and meat matrix of the package is built here, so their
    summation order is set in one place.
    """
    g = x.T @ (x * w[:, None])
    if scale != 1.0:
        g /= scale
    return _symmetrise(g)


def _spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of the symmetric positive-definite ``a``, symmetrised.

    A non-finite entry, a failed Cholesky factorization, or a 1-norm
    reciprocal condition number ``1 / (||a||_1 ||a^-1||_1)`` below
    ``RCOND_MIN`` raises :class:`SingularHessian` carrying ``1 / rcond``.
    The reciprocal condition number is the exact one that LAPACK's
    ``dpocon`` estimates.
    """
    if not np.isfinite(a).all():
        raise SingularHessian(math.inf)
    try:
        np.linalg.cholesky(a)  # raises unless a is positive definite
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise SingularHessian(math.inf) from None
    # each 1-norm, the largest column sum of |m|, as np.linalg.norm(m, 1) takes it
    rcond = 1.0 / (np.abs(a).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    if not rcond >= RCOND_MIN:
        raise SingularHessian(1.0 / rcond if rcond > 0 else math.inf)
    return _symmetrise(inv)


def solve_weighted_qle(
    x,
    y,
    family: LinkFamily,
    p=None,
    init=None,
    tol: float = 1e-8,
    max_iter: int = 100,
    ridge: float = 0.0,
) -> FitResult:
    """Solve the weighted estimating equation by Newton-Raphson.

    Convergence is declared when the max-norm of the weighted score falls
    below ``tol * (1 + sum of weights)``; the weight mass plays the role of
    the data size so the criterion is scale-free.  Steps that fail to reduce
    the score norm are halved up to 30 times.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be a 2-d array")
    m, d = x.shape
    if m == 0:
        raise EmptySample("cannot fit on an empty subsample")
    w = _weights(p, m)
    scale = 1.0 + float(w.sum())
    beta = np.zeros(d) if init is None else np.asarray(init, dtype=np.float64).copy()
    if beta.shape != (d,):
        raise ValueError("init has wrong dimension")
    if tol <= 0:
        raise ValueError("tol must be positive")

    eye = np.eye(d)
    saturated = False
    # the exp family's derivative is its mean, the same _clamped_exp bits
    mean_is_derivative = family.kind == "exp"

    def score_at(b):
        eta = x @ b
        mu = family.mean(eta)
        return x.T @ (w * (y - mu)), eta, mu

    def curvature(eta, mu):
        return _gram(x, w * (mu if mean_is_derivative else family.mean_derivative(eta)))

    score, eta, mu = score_at(beta)
    norm = float(np.abs(score).max())
    newton = None
    iterations = 0
    converged = norm <= tol * scale

    while not converged and iterations < max_iter:
        iterations += 1
        saturated = saturated or family.saturates(eta)
        newton = curvature(eta, mu)
        if ridge > 0.0:
            newton = newton + ridge * eye
        delta = _spd_inverse(newton) @ score

        step = 1.0
        improved = False
        for _ in range(MAX_HALVINGS + 1):
            cand = beta + step * delta
            try:
                cand_score, cand_eta, cand_mu = score_at(cand)
            except ValueError:
                step *= 0.5
                continue
            cand_norm = float(np.abs(cand_score).max())
            if math.isfinite(cand_norm) and cand_norm < norm:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        beta, score, eta, mu, norm = cand, cand_score, cand_eta, cand_mu, cand_norm
        if norm <= tol * scale:
            converged = True

    if newton is None:
        # converged at the starting point; still report the curvature there
        newton = curvature(eta, mu)

    return FitResult(
        beta=beta,
        hessian=newton,
        variance=None,
        iterations=iterations,
        converged=converged,
        subsample_size=m,
        score_norm=norm,
        saturated=saturated,
        info={"score_scale": scale, "ridge": ridge},
    )


def subsample_hessian(x, family: LinkFamily, beta, p=None, scale: float = 1.0) -> np.ndarray:
    """Positive-(semi)definite curvature of the weighted score.

    Returns ``scale**-1 * sum_i (1/p_i) * mean'(beta'x_i) * x_i x_i'``, i.e.
    the negated derivative of the estimating function normalized by the
    caller's data count.
    """
    x = np.asarray(x, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if scale < 1.0:
        raise ValueError("scale must be at least 1")
    w = _weights(p, x.shape[0])
    return _gram(x, w * family.mean_derivative(x @ beta), float(scale))


def vc_contribution(x, y, family: LinkFamily, beta, p) -> np.ndarray:
    """Unnormalized meat-matrix contribution of one subsample.

    ``sum_i (y_i - mean)^2 * (1 - p_i) / p_i^2 * x_i x_i'``; exactly zero
    when every record was included with probability one.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    resid = y - family.mean(x @ np.asarray(beta, dtype=np.float64))
    return _gram(x, resid**2 * (1.0 - p) / p**2)


def _sandwich(bread: np.ndarray, meat: np.ndarray) -> np.ndarray:
    inv = _spd_inverse(bread)
    return _symmetrise(inv @ meat @ inv)


def sandwich_variance(parts, family: LinkFamily, pooled_hessian, n_total: float) -> np.ndarray:
    """Plug-in sandwich variance from per-partition subsamples.

    ``parts`` is an iterable of ``(x, y, p, beta_part)`` tuples; each
    contributes its realized meat term evaluated at that partition's own
    estimate.  ``pooled_hessian`` is the bread matrix on the n_total scale.
    """
    n_total = float(n_total)
    d = np.asarray(pooled_hessian).shape[0]
    meat = np.zeros((d, d))
    for x, y, p, beta_part in parts:
        meat += vc_contribution(x, y, family, beta_part, p)
    meat /= n_total**2
    return _sandwich(np.asarray(pooled_hessian, dtype=np.float64), meat)

