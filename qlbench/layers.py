"""Per-layer metrics: whole-array kernel probes and span arithmetic.

A layer's self time is its span's duration minus the time its direct child
spans cover.  Span-derived values are per operation (summed over the
operation's spans) and reported as the median over the traced operations.
Kernel operation and byte counts are computed from array shapes: bytes are
the compulsory traffic (inputs read once, outputs written once), not a
measurement, and no roofline ratio is given because no peak rate is
measured on this CPU.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import numpy as np
from qlsub import EXP
from qlsub.rng import MAIN_STREAM, uniforms
from qlsub.sampling import (
    block_mask,
    linear_predictor,
    row_norms,
    shrinkage_probability,
    whitened_norms,
)

PROBE_REPEATS = 3

# integer and float operations per record in block_mask: the splitmix hash
# (3 to form the counter, 3 per mixing round twice, 2 final, 3 to convert)
# plus the compare and the two range checks on the probability
_MASK_OPS = 3 + 6 + 2 + 3 + 1 + 4


def _timed_median(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_probes(x, y, rule, seed: int, repeats: int = PROBE_REPEATS) -> dict:
    """Time each sampling kernel and rng once over the workload's whole arrays.

    ``rule`` is the workload's own resolved probability rule, so the
    shrinkage kernel runs with the workload's score normalizer and cap.
    """
    n, d = x.shape
    pilot, ctx = rule.pilot, rule.ctx
    beta, sigma_inv = pilot.beta0, pilot.sigma0_inv
    scores = np.abs(y - EXP.mean(linear_predictor(x, beta))) * (
        whitened_norms(x, sigma_inv) if rule.plan.criterion == "mv" else row_norms(x)
    )
    probs = rule.block_probabilities(x, y, EXP)
    idx = np.arange(n, dtype=np.int64)
    # multiply, divide and add per record, plus the minimum when capped
    shrink_flop = (3 if math.isinf(ctx.cap) else 4) * n
    kernels = {
        "linear_predictor": (lambda: linear_predictor(x, beta), 2 * n * d, 8 * (n * d + d + n)),
        "row_norms": (lambda: row_norms(x), 2 * n * d + n, 8 * (n * d + n)),
        "whitened_norms": (
            lambda: whitened_norms(x, sigma_inv),
            2 * n * d * d + 2 * n * d + n,
            8 * (n * d + d * d + n),
        ),
        "shrinkage_probability": (
            lambda: shrinkage_probability(ctx, scores, rule.r, rule.plan.shrinkage), shrink_flop, 16 * n
        ),
        "block_mask": (lambda: block_mask(seed, idx, probs, MAIN_STREAM), _MASK_OPS * n, 17 * n),
    }
    out = {}
    for name, (fn, flop, nbytes) in kernels.items():
        out[f"sampling.{name}_s"] = (_timed_median(fn, repeats), "s")
        out[f"sampling.{name}.flop"] = (flop, "flop")
        out[f"sampling.{name}.bytes"] = (nbytes, "B")
        out[f"sampling.{name}.flop_per_byte"] = (flop / nbytes, "flop/B")
    out["rng.uniforms_s"] = (_timed_median(lambda: uniforms(seed, idx, MAIN_STREAM), repeats), "s")
    return out


def _dur(span) -> float:
    return span["end"] - span["start"]


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


class SpanIndex:
    """Spans grouped by operation, with parent links."""

    def __init__(self, spans):
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        self.ops = defaultdict(list)
        for s in spans:
            self.children[s["parent"]].append(s)
            self.ops[s["op"]].append(s)

    def op_ids(self):
        """The traced operations (``t0``, ``t1``, ...)."""
        return [op for op in self.ops if op is not None and str(op).startswith("t")]

    def per_op(self, op_ids, value) -> list:
        return [value(self.ops[op]) for op in op_ids]

    def named(self, spans, name):
        return [s for s in spans if s["name"] == name]

    def self_time(self, span) -> float:
        return _dur(span) - sum(_dur(c) for c in self.children[span["id"]])

    def descendants(self, span, name):
        out, todo = [], [span]
        while todo:
            for child in self.children[todo.pop()["id"]]:
                todo.append(child)
                if child["name"] == name:
                    out.append(child)
        return out


def span_metrics(spans) -> dict:
    """Per-layer values from the traced operations.

    Workloads without a distributed call read 0 on the distributed metrics.
    """
    ix = SpanIndex(spans)
    ops = ix.op_ids()

    def total(*names):
        return _median(ix.per_op(ops, lambda ss: sum(_dur(s) for s in ss if s["name"] in names)))

    def count(pred):
        return _median(ix.per_op(ops, lambda ss: sum(1 for s in ss if pred(s))))

    traced = [s for op in ops for s in ix.ops[op]]
    newton = ix.named(traced, "estimator.solve_weighted_qle")
    pilot_newton = [s["attrs"]["iterations"] for s in newton if ix.by_id[s["parent"]]["name"] == "pipeline.run_pilot"]
    final_newton = [s["attrs"]["iterations"] for s in newton if ix.by_id[s["parent"]]["name"] != "pipeline.run_pilot"]
    passes = ix.named(traced, "pipeline.second_pass")
    scan_s = total("ingest.block")
    bytes_parsed = _median(
        ix.per_op(ops, lambda ss: sum(s["attrs"].get("bytes", 0) for s in ix.named(ss, "ingest.block")))
    )
    out = {
        "ingest.count_s": (total("ingest.count"), "s"),
        "ingest.scan_s": (scan_s, "s"),
        "ingest.passes": (count(lambda s: s["name"] == "ingest.block" and s["attrs"].get("first")), "count"),
        "ingest.blocks": (count(lambda s: s["name"] == "ingest.block" and s["attrs"].get("rows")), "count"),
        "ingest.bytes_parsed": (bytes_parsed, "B"),
        "ingest.parse_mb_per_s": (bytes_parsed / scan_s / 1e6 if scan_s > 0 else 0.0, "MB/s"),
        "pipeline.pilot_s": (total("pipeline.run_pilot"), "s"),
        "pipeline.rule_s": (total("pipeline.resolve_rule"), "s"),
        "pipeline.second_pass_s": (total("pipeline.second_pass"), "s"),
        "pipeline.second_pass_self_s": (
            _median(ix.per_op(ops, lambda ss: sum(ix.self_time(s) for s in ix.named(ss, "pipeline.second_pass")))),
            "s",
        ),
        "pipeline.realized_over_expected": (
            sum(s["attrs"]["realized"] for s in passes) / sum(s["attrs"]["expected"] for s in passes)
            if passes else 0.0,
            "ratio",
        ),
        "estimator.newton_s": (total("estimator.solve_weighted_qle"), "s"),
        "estimator.newton_iters_pilot": (statistics.fmean(pilot_newton) if pilot_newton else 0.0, "count"),
        "estimator.newton_iters_final": (statistics.fmean(final_newton) if final_newton else 0.0, "count"),
        "estimator.hessian_s": (total("estimator.subsample_hessian"), "s"),
        "estimator.sandwich_s": (total("estimator.sandwich_variance", "estimator.vc_contribution"), "s"),
    }
    out.update(_distributed_metrics(ix, ops))
    return out


def _distributed_metrics(ix: SpanIndex, ops) -> dict:
    part, part_max, skew, overlap, first_block, summary, agg = ([] for _ in range(7))
    for op in ops:
        spans = ix.ops[op]
        parts = [_dur(s) for s in ix.named(spans, "distributed.fit_partition")]
        phase = ix.named(spans, "distributed.partitions")
        if not parts or not phase:
            continue
        part.extend(parts)
        part_max.append(max(parts))
        skew.append(max(parts) / statistics.median(parts))
        overlap.append(sum(parts) / _dur(phase[0]))
        firsts = []
        for shard in ix.named(spans, "distributed.fit_partition"):
            shard_blocks = ix.descendants(shard, "ingest.block")
            if shard_blocks:
                firsts.append(_dur(min(shard_blocks, key=lambda s: s["start"])))
        first_block.append(max(firsts, default=0.0))
        summary.append(sum(_dur(s) for s in ix.named(spans, "distributed.pilot_summary")))
        agg.append(sum(_dur(s) for s in ix.named(spans, "distributed.aggregate")))
    return {
        "distributed.partition_s": (_median(part), "s"),
        "distributed.partition_max_s": (_median(part_max), "s"),
        "distributed.shard_skew": (_median(skew), "ratio"),
        "distributed.overlap": (_median(overlap), "ratio"),
        "distributed.pilot_summary_s": (_median(summary), "s"),
        "distributed.aggregate_s": (_median(agg), "s"),
        "ingest.shard_first_block_s": (_median(first_block), "s"),
    }


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the tail latency.

    The tail is the highest percentile with at least ten samples beyond it.
    When that percentile would not lie above the median (fewer than 22
    samples) the maximum is reported instead, as percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    k = n - 11
    if k < math.ceil(n / 2):
        k = n - 1
    return s[k], 100.0 * k / (n - 1) if n > 1 else 100.0, n - 1 - k
