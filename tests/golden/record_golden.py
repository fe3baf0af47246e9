"""Record tests/golden/: the shipped CLI outputs the golden test compares against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 tests/golden/record_golden.py

Each run (`solve`, `price`, `sweep-delta` and `sweep-p` on every shipped
config, and `audit` at two seeds) calls `stablab.cli.main` in process and
writes `<run>/run.json` (argv, exit code, stdout and stderr, with the output
directory written as OUT) and its report files under `<run>/out/`.
`tests/test_golden.py` runs the same commands and reports every moved field.
A change that moves a number re-records the files and lists the moves.
"""
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
CONFIGS = ("binomial_exponential", "binomial_power", "binomial_sine", "price_call",
           "solve_exponential", "trinomial_sine")
RUNS = {f"{cmd}-{stem}": [cmd, "--config", f"configs/{stem}.json"]
        for stem in CONFIGS for cmd in ("solve", "price", "sweep-delta", "sweep-p")}
RUNS.update({f"audit-seed{s}": ["audit", "--seed", str(s)] for s in (1, 5)})


def run(argv: list, out: Path) -> dict:
    """One CLI run in process, from the checkout root, writing under `out`:
    its argv, exit code, stdout and stderr, and its report files' text."""
    import stablab.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = stablab.cli.main([*argv, "--out", str(out)])
    files = {p.name: p.read_text() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"argv": argv, "exit_code": code,
            "stdout": stdout.getvalue().replace(str(out), "OUT"),
            "stderr": stderr.getvalue().replace(str(out), "OUT"), "files": files}


def load(name: str) -> dict:
    """A recorded run, in the form `run` returns."""
    doc = json.loads((GOLDEN / name / "run.json").read_text())
    out = GOLDEN / name / "out"
    doc["files"] = {p.name: p.read_text() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return doc


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for name, argv in RUNS.items():
            rec = run(argv, Path(work) / name)
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            (GOLDEN / name).mkdir()
            for fname, text in rec.pop("files").items():
                (GOLDEN / name / "out").mkdir(exist_ok=True)
                (GOLDEN / name / "out" / fname).write_text(text)
            (GOLDEN / name / "run.json").write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {len(RUNS)} runs under {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
