"""Write perfbench/reference.json: the outputs the benchmark compares against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    PYTHONPATH=src:perfbench python3 perfbench/record_reference.py

Only operations whose outputs do not depend on the workload seed are
recorded; the others are checked by certificates alone.
"""
import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_build" / "perfbench" / "reference"
    ops = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0, root, work)
        ops[name] = {}
        for op in wl.ops:
            if not (op.timed and op.referenced):
                continue
            outcome = op.check(op.run())
            if outcome.problems:
                print(f"{name}/{op.name}: {outcome.problems}", file=sys.stderr)
                return 1
            ops[name][op.name] = outcome.values
    doc = {"rtol": workloads.RTOL, "atol": workloads.ATOL, "ops": ops}
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({sum(len(v) for v in ops.values())} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
