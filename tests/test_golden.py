"""The shipped CLI outputs as a golden check.

Each run of `tests/golden/record_golden.py` runs again in process and is
compared with its recording: exit code, stdout, stderr, report file names,
JSON keys, CSV headers and every string exactly; numbers within RTOL
relative, or within ATOL absolute in fields that hold a residual, defect,
slack or gradient (rounding noise around 0).  A failure lists every moved
field.  A change that moves a number re-records the files and says so.
"""
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests" / "golden"))
import record_golden  # noqa: E402

RTOL = 1e-12
ATOL = 1e-13
ABS_FIELDS = ("residual", "defect", "slack", "gradient")


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(field: str, a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if any(tag in field for tag in ABS_FIELDS):
        return abs(a - b) <= ATOL
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _json_moves(where: str, field: str, old, new):
    if _number(old) and _number(new):
        return [] if _close(field, float(old), float(new)) else [(where, old, new)]
    if isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            return [(f"{where} keys", sorted(old), sorted(new))]
        return [m for k in sorted(old) for m in _json_moves(f"{where}.{k}", k, old[k], new[k])]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for i, (a, b) in enumerate(zip(old, new))
                for m in _json_moves(f"{where}[{i}]", field, a, b)]
    return [] if old == new else [(where, old, new)]


def _csv_moves(where: str, old: str, new: str):
    old_rows, new_rows = (list(csv.reader(io.StringIO(t))) for t in (old, new))
    if [len(r) for r in old_rows] != [len(r) for r in new_rows] or old_rows[:1] != new_rows[:1]:
        return [(f"{where} shape or header", old_rows[:1], new_rows[:1])]
    moves = []
    for i, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        for col, a, b in zip(old_rows[0], a_row, b_row):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                if a != b:
                    moves.append((f"{where} row {i} {col}", a, b))
                continue
            if not _close(col, fa, fb):
                moves.append((f"{where} row {i} {col}", fa, fb))
    return moves


def moves(old: dict, new: dict):
    """(where, recorded, now) for every field of a run that moved."""
    found = [(key, old[key], new[key]) for key in ("argv", "exit_code", "stdout", "stderr")
             if old[key] != new[key]]
    if sorted(old["files"]) != sorted(new["files"]):
        return found + [("report files", sorted(old["files"]), sorted(new["files"]))]
    for name, text in old["files"].items():
        if name.endswith(".json"):
            found += _json_moves(name, "", json.loads(text), json.loads(new["files"][name]))
        elif name.endswith(".csv"):
            found += _csv_moves(name, text, new["files"][name])
        elif text != new["files"][name]:
            found.append((name, "<text>", "<moved text>"))
    return found


@pytest.mark.parametrize("name", sorted(record_golden.RUNS))
def test_cli_output_matches_its_recording(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    old = record_golden.load(name)
    assert old["argv"] == record_golden.RUNS[name]
    found = moves(old, record_golden.run(old["argv"], tmp_path / "out"))
    table = "\n".join(f"{where} | {a!r} | {b!r}" for where, a, b in found)
    assert not found, f"{len(found)} moved fields in {name} (field | recorded | now):\n{table}"


def test_moves_apply_the_field_tolerances():
    assert not _json_moves("r", "", {"x": 1.0, "gradient_norm": 1e-17},
                           {"x": 1.0 + 1e-13, "gradient_norm": 5e-14})
    assert _json_moves("r", "", {"x": 1.0}, {"x": 1.0 + 1e-11}) == [("r.x", 1.0, 1.0 + 1e-11)]
    assert _json_moves("r", "", {"value_err": 1e-17}, {"value_err": 2e-17})
    assert _json_moves("r", "", {"x": 1}, {"y": 1}) == [("r keys", ["x"], ["y"])]
    assert _csv_moves("c", "p,dual_residual\n-7,1e-15\n", "p,dual_residual\n-7,2e-15\n") == []
    assert _csv_moves("c", "p,y\n-7,1\n", "p,y\n-7,1.5\n") == [("c row 1 y", 1.0, 1.5)]


def test_every_recording_is_a_run():
    recorded = [d.name for d in record_golden.GOLDEN.iterdir()
                if d.is_dir() and d.name != "__pycache__"]
    assert sorted(recorded) == sorted(record_golden.RUNS)
