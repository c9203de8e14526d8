"""Optimal Poisson subsampling for quasi-likelihood estimation."""

from .distributed import PartitionSummary, aggregate, fit_partition, run_distributed
from .errors import (
    ConfigError,
    DataError,
    DegenerateScores,
    EmptySample,
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
from .synth import (
    CaseSpec,
    ExperimentReport,
    full_qle,
    generate_case,
    make_spec,
    replicate,
    run_replications,
    timing_study,
    write_case_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayStream",
    "CaseSpec",
    "ConfigError",
    "CsvStream",
    "DataError",
    "DegenerateScores",
    "EmptySample",
    "EXP",
    "ExperimentReport",
    "FitResult",
    "IDENTITY",
    "LinkFamily",
    "LOGISTIC",
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
    "run_replications",
    "run_two_step",
    "sandwich_variance",
    "second_pass",
    "shrinkage_probability",
    "solve_weighted_qle",
    "subsample_hessian",
    "threshold_quantile",
    "timing_study",
    "waterfill",
    "write_case_csv",
]
