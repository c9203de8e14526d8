"""Optimal Poisson subsampling for quasi-likelihood estimation."""

import importlib

from .distributed import PartitionSummary, aggregate, fit_partition, run_distributed
from .errors import (
    ConfigError,
    DataError,
    DegenerateScores,
    EmptySample,
    NonFiniteValue,
    PartitionFailed,
    PilotFailed,
    QlsubError,
    SingularHessian,
)
from .estimator import (
    FitResult,
    sandwich_variance,
    solve_weighted_qle,
    subsample_hessian,
)
from .families import EXP, IDENTITY, LOGISTIC, LinkFamily, get_family
from .ingest import ArrayStream, CsvStream, RecordStream, partition_view
from .pipeline import PilotResult, run_pilot, run_two_step, second_pass
from .sampling import (
    SamplingPlan,
    shrinkage_probability,
    threshold_quantile,
    waterfill,
)

__version__ = "0.1.0"

# synth generates cases and runs replications, which no fit needs, so it
# and its exports load on first use
_SYNTH_EXPORTS = frozenset({"CaseSpec", "full_qle", "generate_case", "make_spec", "replicate", "write_case_csv"})


def __getattr__(name):
    if name == "synth" or name in _SYNTH_EXPORTS:
        synth = importlib.import_module(".synth", __name__)
        return synth if name == "synth" else getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArrayStream",
    "CaseSpec",
    "ConfigError",
    "CsvStream",
    "DataError",
    "DegenerateScores",
    "EmptySample",
    "EXP",
    "FitResult",
    "IDENTITY",
    "LinkFamily",
    "LOGISTIC",
    "NonFiniteValue",
    "PartitionFailed",
    "PartitionSummary",
    "PilotFailed",
    "PilotResult",
    "QlsubError",
    "RecordStream",
    "SamplingPlan",
    "SingularHessian",
    "aggregate",
    "fit_partition",
    "full_qle",
    "generate_case",
    "get_family",
    "make_spec",
    "partition_view",
    "replicate",
    "run_distributed",
    "run_pilot",
    "run_two_step",
    "sandwich_variance",
    "second_pass",
    "shrinkage_probability",
    "solve_weighted_qle",
    "subsample_hessian",
    "threshold_quantile",
    "waterfill",
    "write_case_csv",
]
