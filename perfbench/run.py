"""stablab benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cli_configs --seed 1 --seconds 30 --trace 0

A closed loop with one client: one process runs the workload's operations one
at a time through stablab's public API.  The workload process gets
PYTHONPATH=src and caps of nproc on the OpenBLAS/OpenMP threads and on
STABLAB_THREADS (the sweep pool).  The number of passes follows from
--seconds and the workload's pass time at the commit that defined this
benchmark, so two commits always run the same work.

--trace 0 reports the end-to-end metrics (metrics.END_TO_END); --trace 1
runs half the passes untraced and half with every public stablab function
wrapped in a span, and reports the per-layer metrics (spans.LAYER_METRICS)
plus the tracing overhead.  A detail record (environment, per-pass and
per-operation data, failures) is printed before the last line, which is the
JSON result.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import spans

WORKLOADS = ("cli_configs", "depth_ladder", "price_sweep")
# median seconds per pass at the defining commit on a shared 2-CPU machine;
# fixed so the pass count, and with it the op sample count and tail
# percentile, depends only on --seconds
NOMINAL_PASS_S = {"cli_configs": 0.75, "depth_ladder": 8.5, "price_sweep": 3.4}
TIMED_OPS = {"cli_configs": 7, "depth_ladder": 7, "price_sweep": 7}
SETUP_RUNS = 5          # set-up is measured in this many fresh interpreters
DEADLINE_S = 175.0      # the whole run, workers included, ends before this
# a phase whose passes have taken CAP_FACTOR times its share of --seconds
# starts no further pass (beyond its minimum), so a slow machine cannot
# stretch a run without bound; the passes actually run are in the detail record
CAP_FACTOR = 1.2


def min_passes(workload: str) -> int:
    """Enough passes for the tail percentile to lie above the median."""
    return -(-(2 * metrics.TAIL_BEYOND + 2) // TIMED_OPS[workload])


def plan_passes(workload: str, seconds: int) -> int:
    """Passes to run: about `seconds` of work, and at least min_passes."""
    return max(min_passes(workload), round(seconds / NOMINAL_PASS_S[workload]))


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def worker(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py to completion; it is killed and reaped if this process
    stops early (timeout, interrupt or SIGTERM)."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py"))] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # so workers get reaped
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "stablab" / "cli.py").is_file():
        print("error: run from the root of a stablab checkout (src/stablab missing)",
              file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)

    nproc = len(os.sched_getaffinity(0))
    caps = {name: str(nproc) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "STABLAB_THREADS")}
    env = dict(os.environ, PYTHONPATH="src", **caps)
    passes = plan_passes(args.workload, args.seconds)
    least = min_passes(args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    if args.trace:
        half = max(1, passes // 2)
        run_args = common + ["--passes", str(half), "--traced-passes", str(max(1, passes - half)),
                             "--min-passes", str(max(1, least // 2)),
                             "--cap-s", str(CAP_FACTOR * args.seconds / 2)]
    else:
        run_args = common + ["--passes", str(passes), "--min-passes", str(least),
                             "--cap-s", str(CAP_FACTOR * args.seconds)]

    try:
        setups = [worker(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        result = worker(run_args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    untraced = result["untraced_passes"]

    records = result["records"]
    try:
        e2e, detail = metrics.summarize([r for r in records if r["pass"] < untraced],
                                        setups, result["peak_rss_mb"])
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "planned_passes": passes, "untraced_passes": untraced,
        "traced_passes": result.get("traced_passes", 0),
        "loop": "closed, one client",
        "environment": dict(result["environment"], nproc=nproc, thread_caps=caps,
                            import_route="PYTHONPATH=src", git_commit=git_commit(root)),
        "inputs": result["inputs"],
        "end_to_end": {k: {"value": v, "unit": metrics.END_TO_END[k]} for k, v in e2e.items()},
        "detail": detail,
        "failures": sorted({f"{r['op']}: {r['error']}" for r in records if not r["ok"]}),
        "problems": result["problems"],
    }
    if args.trace:
        traced_pass_s = statistics.fmean(
            metrics.pass_times([r for r in records if r["pass"] >= untraced]))
        layers = dict(result["layers"], **{"trace.overhead_s": traced_pass_s - e2e["pass_s"]})
        units = dict(spans.LAYER_METRICS, **{"trace.overhead_s": "s"})
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        record.update(per_layer=out_metrics, traced_pass_s=traced_pass_s,
                      span_count=result["span_count"], span_file=result["span_file"])
    else:
        out_metrics = record["end_to_end"]
    print(json.dumps(record, indent=1))
    print(json.dumps({"correct": not result["problems"], "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
