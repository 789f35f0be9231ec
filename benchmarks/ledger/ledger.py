"""The ledger's vocabulary: metric names, units, bounds, and the statistics
every other file of the benchmark uses.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names that
``BENCHMARK.json`` lists; ``test_ledger.py`` fails when the two drift.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class Metric:
    """One named metric. ``bound`` is the share of the parent's median by
    which an end-to-end metric may worsen; per-layer metrics carry none."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None


#: What a caller of the system sees, measured with tracing off on every
#: workload. A *read* is one query through the workload's front door
#: (``GraphSession`` call or ``POST /query``); a *pass* is one run through
#: the workload's fixed list of operations. Every bound is the ceiling the
#: ``BENCHMARK.json`` contract allows: a bound has to be three times the
#: spread between ten single runs on the noisiest workload, and that
#: spread reaches 8-13 % for each of these on the recorded machine (the
#: README's acceptance table).
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("pass_s", "s", "lower", 0.25),
    Metric("baseline_pass_s", "s", "lower", 0.25),
    Metric("query_geomean_ms", "ms", "lower", 0.25),
    Metric("query_p90_ms", "ms", "lower", 0.25),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("throughput_rps", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
)

#: The operator kinds ``ExecutionStats`` keeps rows and seconds for.
OPERATORS = ("scan", "join", "union", "select", "project", "fixpoint")

#: One layer each, from the traced run: a span's self time per traced
#: pass, or a count per traced pass read from a public return value.
PER_LAYER: tuple[Metric, ...] = (
    Metric("query.parse_s", "s", "lower"),
    Metric("core.rewrite_s", "s", "lower"),
    Metric("core.rewrite_disjuncts", "count", "lower"),
    Metric("core.rewrite_reverted", "count", "lower"),
    Metric("ra.translate_s", "s", "lower"),
    Metric("ra.optimize_s", "s", "lower"),
    Metric("ra.term_nodes", "count", "lower"),
    Metric("planner.plan_s", "s", "lower"),
    Metric("planner.candidates", "count", "lower"),
    Metric("exec.compile_s", "s", "lower"),
    Metric("exec.compile_ops", "count", "lower"),
    Metric("exec.encode_s", "s", "lower"),
    Metric("storage.build_s", "s", "lower"),
    Metric("datasets.generate_s", "s", "lower"),
    Metric("exec.execute_s", "s", "lower"),
    *(Metric(f"exec.op_{kind}_s", "s", "lower") for kind in OPERATORS),
    *(Metric(f"exec.op_{kind}_rows", "count", "lower") for kind in OPERATORS),
    Metric("exec.ops_evaluated", "count", "lower"),
    Metric("exec.memo_hits", "count", "higher"),
    Metric("exec.decode_s", "s", "lower"),
    Metric("exec.rows_examined_per_result", "count", "lower"),
    Metric("ra.evaluate_s", "s", "lower"),
    Metric("engine.prepare_cold_s", "s", "lower"),
    Metric("engine.prepare_warm_s", "s", "lower"),
    Metric("engine.execute_overhead_s", "s", "lower"),
    Metric("engine.backend_s", "s", "lower"),
    Metric("engine.plan_cache_hit_ratio", "ratio", "higher"),
    Metric("engine.result_cache_hit_ratio", "ratio", "higher"),
    Metric("exec.maintained_ratio", "ratio", "higher"),
    Metric("exec.delta_rows_applied", "count", "lower"),
    Metric("exec.maintain_s", "s", "lower"),
    Metric("storage.append_s", "s", "lower"),
    Metric("serve.service_s", "s", "lower"),
    Metric("serve.batch_s", "s", "lower"),
    Metric("server.tenant_s", "s", "lower"),
    Metric("server.tenant_overhead_ms", "ms", "lower"),
    Metric("server.http_overhead_ms", "ms", "lower"),
    Metric("server.queue_wait_ms", "ms", "lower"),
    Metric("server.serialise_s", "s", "lower"),
    Metric("server.response_bytes", "bytes", "lower"),
    Metric("server.write_p50_ms", "ms", "lower"),
    Metric("trace.pass_s", "s", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.target_share", "ratio", "higher"),
    Metric("ledger.read_p99_ms", "ms", "lower"),
    Metric("ledger.oracle_s", "s", "lower"),
)


# -- statistics -----------------------------------------------------------
def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def quartile_summary(values: Sequence[float]) -> dict:
    """Median, quartiles and the inter-quartile distance as a share of the
    median — the spread the acceptance rule is stated in."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median, "q1": median,
                "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


# -- comparing two result files -------------------------------------------
def collect_samples(result: Mapping) -> dict[str, dict[str, list[float]]]:
    """workload -> end-to-end metric -> one value per untraced run."""
    samples: dict[str, dict[str, list[float]]] = {}
    for run in result["runs"]:
        if run["trace"]:
            continue
        by_metric = samples.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            by_metric.setdefault(name, []).append(entry["value"])
    return samples


def compare(first: Mapping, second: Mapping) -> list[dict]:
    """One row per workload x end-to-end metric present in both files.

    ``regressed``: the second median is worse than the first by more than
    the bound. ``unresolved``: either side's inter-quartile spread is
    wider than the bound, so the comparison cannot tell. ``ok`` otherwise.
    """
    a, b = collect_samples(first), collect_samples(second)
    rows = []
    for workload in a:
        for metric in END_TO_END:
            if not (
                metric.name in a[workload]
                and metric.name in b.get(workload, {})
            ):
                continue
            left = quartile_summary(a[workload][metric.name])
            right = quartile_summary(b[workload][metric.name])
            change = (right["median"] - left["median"]) / left["median"]
            worse = change if metric.better == "lower" else -change
            if max(left["spread"], right["spread"]) > metric.bound:
                verdict = "unresolved"
            elif worse > metric.bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric.name,
                "unit": metric.unit, "bound": metric.bound,
                "first": left, "second": right,
                "change": change, "verdict": verdict,
            })
    return rows


def render_compare(rows: Sequence[Mapping]) -> str:
    header = (
        f"{'workload':<13} {'metric':<17} {'unit':<5} "
        f"{'first median [q1, q3]':<44} {'second median [q1, q3]':<44} "
        f"{'change':>8} {'bound':>6}  verdict"
    )
    lines = [header, "-" * len(header)]

    def cell(side: Mapping) -> str:
        return (
            f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}] "
            f"n={side['n']} iqr={side['spread']:.1%}"
        )

    for row in rows:
        lines.append(
            f"{row['workload']:<13} {row['metric']:<17} {row['unit']:<5} "
            f"{cell(row['first']):<44} {cell(row['second']):<44} "
            f"{row['change']:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)
