"""Mean families for quasi-likelihood regression.

A family supplies the mean function applied to the linear predictor and its
first derivative, which must be strictly positive everywhere.  The identity
family gives linear regression, the exponential family covers Poisson and
log-link Gamma regression (the estimating equation depends only on the mean,
not the variance function), and the logistic family covers binary responses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteValue

# exp() is clamped here instead of overflowing to inf; Newton steps can
# overshoot and step-halving needs finite scores to recover.
ETA_MAX = 700.0

# closed response range of each kind: the values its mean function can reach
_RANGES = {"identity": (-np.inf, np.inf), "exp": (0.0, np.inf), "logistic": (0.0, 1.0)}


def _check_finite(eta):
    arr = np.asarray(eta, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteValue("linear predictor must be finite")
    return arr


def _clamped_exp(arr: np.ndarray) -> np.ndarray:
    """``exp(min(arr, ETA_MAX))`` computed in one new array, even for 0-d ``arr``."""
    out = np.minimum(arr, ETA_MAX, out=np.empty_like(arr))
    return np.exp(out, out=out)


@dataclass(frozen=True)
class LinkFamily:
    """One of the three supported mean families, selected by ``kind``."""

    kind: str
    name: str

    def __post_init__(self):
        if self.kind not in _RANGES:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @property
    def response_range(self) -> tuple[float, float]:
        """Closed range ``(lo, hi)`` of responses the mean function can reach."""
        return _RANGES[self.kind]

    def mean(self, eta):
        """Mean response at linear predictor ``eta`` (scalar or array)."""
        arr = _check_finite(eta)
        if self.kind == "identity":
            out = arr.copy()
        elif self.kind == "exp":
            out = _clamped_exp(arr)
        else:
            z = np.exp(-np.abs(arr))
            out = np.where(arr >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        return float(out) if out.ndim == 0 else out

    def mean_derivative(self, eta):
        """Derivative of the mean function; strictly positive for finite eta."""
        arr = _check_finite(eta)
        if self.kind == "identity":
            out = np.ones_like(arr)
        elif self.kind == "exp":
            out = _clamped_exp(arr)
        else:
            # mu * (1 - mu) written symmetrically in exp(-|eta|) so neither
            # branch can overflow
            z = np.exp(-np.abs(arr))
            out = z / (1.0 + z) ** 2
        return float(out) if out.ndim == 0 else out

    def saturates(self, eta) -> bool:
        """True when the exp clamp would engage anywhere in ``eta``."""
        if self.kind != "exp":
            return False
        return bool((np.asarray(eta, dtype=np.float64) > ETA_MAX).any())


IDENTITY = LinkFamily("identity", "identity")
EXP = LinkFamily("exp", "exp")
LOGISTIC = LinkFamily("logistic", "logistic")

_BY_NAME = {f.name: f for f in (IDENTITY, EXP, LOGISTIC)}
FAMILY_NAMES = tuple(_BY_NAME)


def get_family(name: str) -> LinkFamily:
    """Resolve a CLI/config string to a family instance."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ConfigError(f"unknown family {name!r}; expected one of {sorted(_BY_NAME)}") from None
