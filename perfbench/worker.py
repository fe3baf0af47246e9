"""One workload in a fresh interpreter: set-up, timed passes, optional traced passes.

Run by run.py with PYTHONPATH=src and the thread caps in the environment;
prints one JSON object on its last stdout line.  With --setup-only it stops
after the set-up and reports only the set-up time.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--traced-passes", type=int, default=0)
    ap.add_argument("--min-passes", type=int, default=1,
                    help="passes each phase runs whatever --cap-s says")
    ap.add_argument("--cap-s", type=float, default=float("inf"),
                    help="a phase starts no further pass once it has run this long")
    ap.add_argument("--work", required=True, help="scratch directory for program outputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    work = Path(args.work)

    import stablab.cli  # noqa: F401  (the set-up a user of the CLI pays)
    import workloads
    wl = workloads.build(args.workload, args.seed, root, work)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    refs = reference["ops"].get(wl.name, {})
    records = []
    problems = []
    bytes_out = [0.0]

    def one_pass(index, tracer=None):
        for op_id, op in enumerate(wl.ops):
            rec = {"pass": index, "op": op.name, "timed": op.timed, "ok": True}
            if tracer is not None and op.timed:   # layer metrics cover the timed work
                tracer.op = index * len(wl.ops) + op_id
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as e:     # a failing operation is a measurement, not a crash
                rec["latency"] = time.perf_counter() - start
                rec["ok"] = False
                rec["error"] = f"{type(e).__name__}: {e}"
            else:
                rec["latency"] = time.perf_counter() - start
                if tracer is not None:
                    tracer.op = None
                try:
                    outcome = op.check(result)
                except Exception as e:
                    found = [f"output check raised {type(e).__name__}: {e}"]
                else:
                    found = outcome.problems + workloads.compare(refs.get(op.name, {}),
                                                                 outcome.values)
                    if tracer is not None:
                        bytes_out[0] += outcome.bytes_out
                if found:
                    rec["ok"] = False
                    rec["error"] = "output check failed"
                    problems.extend(f"pass {index} {op.name}: {p}" for p in found)
            if tracer is not None:
                tracer.op = None
            records.append(rec)

    def phase(first, count, tracer=None):
        """Run up to `count` passes numbered from `first`; return how many ran."""
        start = time.perf_counter()
        for k in range(count):
            if k >= args.min_passes and time.perf_counter() - start >= args.cap_s:
                return k
            one_pass(first + k, tracer)
        return count

    # warm-up: lazy imports and first-call set-up inside the program are paid
    # once per process, so they stay out of the timed passes; a failure here
    # shows again, and is counted, in the timed passes
    for op in wl.ops:
        if op.timed and op.warm:
            try:
                op.run()
            except Exception:
                pass
    untraced = phase(0, args.passes)
    out = {"setup_s": setup_s, "records": records, "untraced_passes": untraced}
    if args.traced_passes:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = phase(untraced, args.traced_passes, tracer)
        finally:
            tracer.uninstall()
        trace_path = work / f"spans-{wl.name}.jsonl"
        tracer.dump(trace_path)
        out["traced_passes"] = traced
        out["layers"] = spans.layer_metrics(tracer.spans, traced, bytes_out[0])
        out["span_count"] = len(tracer.spans)
        out["span_file"] = str(trace_path.relative_to(root))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["problems"] = problems
    out["inputs"] = wl.inputs
    out["environment"] = _environment()
    print(json.dumps(out))
    return 0


def _environment() -> dict:
    import platform
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:          # the build-info layout differs across numpy releases
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
