"""The benchmark's operations as a tier-1 check.

Every operation of every perfbench workload runs once at seed 1, the timed
ones and the untimed probes alike, then its own output check and the
comparison with `perfbench/reference.json`, as the benchmark's worker runs
them.  So a change that breaks a call the benchmark makes, or an output it
records, fails here rather than in a benchmark run.
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())["ops"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_benchmark_op_runs_and_passes_its_checks(name, tmp_path):
    refs = REFERENCE.get(name, {})
    problems = []
    for op in workloads.build(name, 1, ROOT, tmp_path).ops:
        outcome = op.check(op.run())
        found = outcome.problems + workloads.compare(refs.get(op.name, {}), outcome.values)
        problems += [f"{op.name}: {p}" for p in found]
    assert not problems
