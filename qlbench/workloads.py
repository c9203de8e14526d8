"""The three fixed workloads.

Each workload is fully determined by its name, the seed argument and the
smoke flag.  The seed picks the synthetic dataset and the sampling seed;
the program sees only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from qlsub import EXP, ArrayStream, SamplingPlan, generate_case, make_spec, replicate, run_distributed, run_two_step


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    case: str
    n: int
    kind: str  # "csv": one `qlsub` CLI child per operation; "mem": library calls
    criterion: str
    r: float
    r0: float
    rho: float = 0.2
    threshold: str = "inf"
    k: int = 1
    threads: int | None = None
    t: int = 1  # fits per operation (a replicate batch when above one)

    def spec(self, seed: int):
        return make_spec(self.case, self.n, seed)

    def plan(self, seed: int) -> SamplingPlan:
        return SamplingPlan(
            criterion=self.criterion,
            expected_size=self.r,
            shrinkage=self.rho,
            threshold_mode=self.threshold,
            seed=seed,
        )

    def cli_argv(self, data: str, seed: int, out: str) -> list[str]:
        """The `qlsub` command line of this workload's operation (csv kind)."""
        return [
            "fit-distributed", "--k", str(self.k), "--threads", str(self.threads),
            "--criterion", self.criterion, "--r", repr(self.r), "--r0", repr(self.r0),
            "--rho", repr(self.rho), "--threshold", self.threshold,
            "--data", data, "--seed", str(seed), "--out", out,
        ]

    def real_call(self, x, y, seed: int):
        """The library call this workload's operation makes (or is bit-equal to)."""
        if self.t > 1:
            return replicate(
                x, y, EXP, self.criterion, r=self.r, r0=self.r0, rho=self.rho, k=1,
                t=self.t, seed=seed, threshold=self.threshold, keep_variances=True,
            )
        stream = ArrayStream(x, y)
        if self.k > 1:
            return run_distributed(stream, EXP, self.plan(seed), self.r0, self.k, threads=self.threads)
        return run_two_step(stream, EXP, self.plan(seed), self.r0)



# The CSV file is c1 at N = 100 000 (14 MB) rather than the 500 000-row
# production file: one CLI call on the larger file takes 5-8 s on a 2-core
# Xeon VM, so a run could time only a few calls.  Parsing is still the
# largest part of each call after interpreter start.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="csv-dist-c1-k4",
            why="qlsub fit-distributed CLI child, K=4 shards on 2 threads (mv, quantile cap): shard re-reads, GIL, aggregation",
            case="c1", n=100_000, kind="csv", criterion="mv", r=1000.0, r0=200.0,
            threshold="quantile", k=4, threads=2,
        ),
        Workload(
            name="mem-fit-s4-mv",
            why="run_two_step on in-memory s4 arrays (N=500000, d=35, mv, r=2000): kernel-bound scoring, zero-copy ingest",
            case="s4", n=500_000, kind="mem", criterion="mv", r=2000.0, r0=400.0,
        ),
        Workload(
            name="mem-rep-c4",
            why="one replicate batch of 100 small mv fits on c4 (N=50000): Newton, scoring and rng per fit, as in experiments",
            case="c4", n=50_000, kind="mem", criterion="mv", r=1000.0, r0=200.0, t=100,
        ),
    )
}

# tiny inputs that run every workload and every check in seconds
# (at least 4r records, so each of the K = 4 shards of the distributed call
# holds more than r)
SMOKE_SIZES = {"csv-dist-c1-k4": 6000, "mem-fit-s4-mv": 12000, "mem-rep-c4": 6000}
SMOKE_T = 5


def get(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    if not smoke:
        return w
    return replace(w, n=SMOKE_SIZES[name], t=min(w.t, SMOKE_T))


def generate(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    x, y, _ = generate_case(w.spec(seed))
    return x, y
