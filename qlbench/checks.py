"""Output checks shared by the benchmark process and its workers.

No output hash is pinned across commits: documents are compared only with
other documents of the same run, and estimates with the same run's
full-data fit and in-memory call, so a correct change to the program's
results is not counted as a failure.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from qlsub.synth import ReplicationBatch

# a subsample estimate further than this many of its own standard errors
# from the full-data fit counts as a failed operation
K_SE = 8.0


def doc_bytes(result) -> bytes:
    """Canonical document of a library result (a fit or a replicate batch)."""
    if isinstance(result, ReplicationBatch):
        doc = {
            "betas": result.betas.tolist(),
            "variances": result.variances.tolist(),
            "failures": result.failures,
            "seeds": result.seeds,
        }
    else:
        doc = {
            "estimate": result.beta.tolist(),
            "variance": result.variance.tolist(),
            "iterations": result.iterations,
            "converged": result.converged,
            "subsample_size": result.subsample_size,
            "info": {k: repr(v) for k, v in result.info.items()},
        }
    return json.dumps(doc, sort_keys=True).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def estimates(result) -> tuple[np.ndarray, np.ndarray]:
    """(T, d) estimates and standard errors of a fit or a replicate batch."""
    if isinstance(result, ReplicationBatch):
        se = np.sqrt(np.clip(np.diagonal(result.variances, axis1=1, axis2=2), 0.0, None))
        return result.betas, se
    return result.beta[None, :], result.std_errors()[None, :]


def accuracy(est, se, full_beta) -> tuple[float, float]:
    """(largest |estimate - full| / se, mean squared distance from the full fit)."""
    est = np.asarray(est, dtype=np.float64)
    diff = est - np.asarray(full_beta, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(diff) / np.asarray(se, dtype=np.float64)
    max_z = float(np.max(np.where(np.isfinite(z), z, np.inf)))
    return max_z, float(np.mean(np.sum(diff * diff, axis=1)))


def hex_floats(values) -> list[str]:
    return [float(v).hex() for v in values]
