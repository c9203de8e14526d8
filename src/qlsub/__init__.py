"""Optimal Poisson subsampling for quasi-likelihood estimation."""

import importlib

from .distributed import run_distributed
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
from .estimator import FitResult
from .families import EXP, IDENTITY, LOGISTIC, LinkFamily, get_family
from .ingest import ArrayStream, CsvStream, RecordStream
from .pipeline import run_two_step
from .sampling import SamplingPlan

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
    "PilotFailed",
    "QlsubError",
    "RecordStream",
    "SamplingPlan",
    "SingularHessian",
    "full_qle",
    "generate_case",
    "get_family",
    "make_spec",
    "replicate",
    "run_distributed",
    "run_two_step",
    "write_case_csv",
]
