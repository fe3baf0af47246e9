"""End-to-end metrics from per-operation records.

An operation record is a dict with keys `pass`, `op`, `timed` (False for the
known-failure probes), `ok` (False if it raised, exited non-zero or failed
its output check) and `latency` (seconds).
"""
from __future__ import annotations

import re
import statistics

from scipy.special import betainc

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TAIL_BEYOND = 10

# name -> unit, in report order; perfbench/README.md defines each metric
END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}


def harrell_davis(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, the weights those of the p-quantile's beta distribution."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def tail(samples):
    """(value, percentile, n, order statistic) at the highest percentile that
    still has TAIL_BEYOND samples above it, or None with too few samples.

    The value is the Harrell-Davis estimate at that percentile.  A workload
    has a few kinds of operation of very different cost, so the single order
    statistic lies inside one kind's cluster and jumps with that kind's
    fast and slow passes; the estimate weighs its neighbours too.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - TAIL_BEYOND            # 1-based rank; n - k samples lie beyond it
    if k < 1:
        return None
    return harrell_davis(xs, k / n), 100.0 * k / n, n, xs[k - 1]


def pass_times(records) -> list:
    """Per pass, in pass order: the summed latency of its successful timed ops."""
    per_pass = {}
    for r in records:
        if r["timed"] and r["ok"]:
            per_pass[r["pass"]] = per_pass.get(r["pass"], 0.0) + r["latency"]
    return [per_pass[k] for k in sorted(per_pass)]


def per_op(records) -> dict:
    """Per operation name, in pass order: its latencies."""
    out = {}
    for r in records:
        out.setdefault(r["op"], []).append(r["latency"])
    return out


def summarize(records, setup_samples, peak_rss_mb):
    """End-to-end metrics plus the detail that qualifies them.

    pass_s is the mean pass time, the total time of the timed passes over
    their number.  op_p50_s is the latency of the median operation: each timed operation's
    mean latency over the passes, then the median of those across the
    workload's operations.  The median of all samples pooled would fall at
    the edge of one operation's cluster (a workload mixes operations of very
    different cost), where it jumps between that operation's fast and slow
    passes; the pooled median is kept in the detail record.

    Failed operations count in ok_frac and are excluded from the timing
    metrics; the known-failure probes never enter the timing metrics.
    """
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    timed = [r for r in records if r["timed"] and r["ok"]]
    if attempted == 0 or not timed:
        raise ValueError("no timed operation succeeded; nothing to measure")
    passes = pass_times(records)
    latencies = [r["latency"] for r in timed]
    t = tail(latencies)
    beyond = TAIL_BEYOND
    if t is None:           # too few samples for a tail: report the maximum
        t, beyond = (max(latencies), 100.0, len(latencies), max(latencies)), 0
    by_op = per_op(timed)
    op_means = {name: statistics.fmean(v) for name, v in by_op.items()}
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.fmean(passes),
        "op_p50_s": statistics.median(op_means.values()),
        "op_tail_s": t[0],
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }
    detail = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "op_samples": len(latencies),
        "op_p50_ops": len(op_means),
        "op_pooled_p50_s": statistics.median(latencies),
        "op_mean_s": op_means,
        "op_tail_percentile": t[1],
        "op_tail_samples_beyond": beyond,
        "op_tail_order_stat_s": t[3],
        "pass_median_s": statistics.median(passes),
        "pass_samples": passes,
        "op_latency_samples": by_op,
        "setup_samples": list(setup_samples),
    }
    return metrics, detail
