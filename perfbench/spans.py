"""In-memory spans around stablab's public functions, and the per-layer metrics.

`Tracer.install` replaces every public function of the seven stablab modules
by a recording wrapper, in every stablab namespace that binds it: the
package, the defining module, and each module that imported the function by
name.  Calls made inside the program are therefore attributed too, e.g.
`pricing.indifference_price` calling `entropic.solve_primal` gives an
`entropic.solve_primal` span whose parent is the `pricing.indifference_price`
span.  Spans stay in memory until the run ends.

This module imports neither numpy nor stablab, so the orchestrator and the
self-tests can use the arithmetic below without loading the program.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import weakref
from dataclasses import astuple, dataclass, fields

LAYERS = ("market", "utilities", "entropic", "positive", "pricing", "sweeps", "cli")

# function -> metric group; functions not listed fall back to DEFAULT_GROUP
GROUP = {
    "market.build_tree": "market.build",
    "market.branching_tree": "market.build",
    "market.single_step_tree": "market.build",
    "market.tree_from_file": "market.build",
    "entropic.gains_matrix": "entropic.gains",
    "entropic.assert_market_viable": "entropic.lp",
    "entropic.martingale_polytope_probes": "entropic.lp",
    "entropic.martingale_price_bounds": "entropic.lp",
    "entropic.solve_primal": "entropic.primal",
    "entropic.extract_dual": "entropic.dual",
    "entropic.minimal_entropy_measure": "entropic.entropy",
    "entropic.generalized_entropy": "entropic.entropy",
    "entropic.verify_optimality": "entropic.verify",
    "positive.solve_power_field": "positive.power",
    "positive.opportunity_process": "positive.dp",
    "pricing.indifference_price": "pricing.indiff",
    "pricing.davis_price": "pricing.davis",
    "sweeps.sweep_delta": "sweeps.grid",
    "sweeps.sweep_p": "sweeps.grid",
    "sweeps.fit_rate": "sweeps.fit",
    "sweeps.report_csv": "sweeps.emit",
    "sweeps.report_json": "sweeps.emit",
    "sweeps.audit_probabilistic_lemmas": "sweeps.audit",
    "utilities.certify_ratio_bounds": "utilities.audit",
    "utilities.conjugate_sandwich_audit": "utilities.audit",
}
DEFAULT_GROUP = {
    "market": "market.walk",          # wealth_*, conditional_*, martingale_residual, ...
    "utilities": "utilities.make",    # constructors; timed so parents' self time excludes them
    "positive": "positive.diag",
    "sweeps": "sweeps.grid",          # load_config, shipped_families
    "cli": "cli.self",
}
SWEEPS = ("sweeps.sweep_delta", "sweeps.sweep_p")
# spans of these functions record which tree they ran on (first argument)
TREE_KEYED = ("entropic.gains_matrix", "entropic.assert_market_viable",
              "entropic.martingale_polytope_probes", "entropic.martingale_price_bounds")

# metric name -> unit, in report order; counts and times are per traced pass
LAYER_METRICS = {
    "market.build_s": "s", "market.walk_s": "s", "market.walk_calls": "count",
    "entropic.gains_s": "s", "entropic.gains_calls": "count", "entropic.gains_per_tree": "ratio",
    "entropic.lp_s": "s", "entropic.lp_calls": "count", "entropic.lp_per_tree": "ratio",
    "entropic.primal_s": "s", "entropic.primal_calls": "count", "entropic.primal_iters": "count",
    "entropic.dual_s": "s", "entropic.entropy_s": "s", "entropic.verify_s": "s",
    "positive.power_s": "s", "positive.power_iters": "count", "positive.dp_s": "s",
    "positive.diag_s": "s",
    "pricing.indiff_s": "s", "pricing.indiff_calls": "count", "pricing.solves_per_price": "ratio",
    "pricing.davis_s": "s",
    "sweeps.grid_s": "s", "sweeps.points": "count", "sweeps.concurrency": "ratio",
    "sweeps.fit_s": "s", "sweeps.emit_s": "s", "sweeps.audit_s": "s",
    "utilities.audit_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.bytes_out": "bytes",
}


@dataclass
class Span:
    sid: int
    name: str                 # "<layer>.<function>"
    start: float
    end: float
    parent: int | None
    op: int | None
    iterations: int | None = None
    points: int | None = None
    tree: int | None = None


def group_of(name: str) -> str:
    return GROUP.get(name) or DEFAULT_GROUP.get(name.split(".", 1)[0], name)


class Tracer:
    """Records one span per call of a wrapped function.

    `op` is the id of the timed operation in progress; spans recorded while
    it is None (the benchmark's output checks, the known-failure probes) are
    left out of the layer metrics.  A span opened on a thread with no open span of its own
    (a sweep's pool worker) takes as parent the innermost open span of the
    thread that installed the tracer, which is blocked in the sweep.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()
        self._trees = weakref.WeakKeyDictionary()
        self._tree_ids = itertools.count(1)
        self._tree_lock = threading.Lock()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tree_id(self, tree) -> int:
        with self._tree_lock:
            tid = self._trees.get(tree)
            if tid is None:
                tid = self._trees[tree] = next(self._tree_ids)
            return tid

    def wrap(self, name: str, fn):
        keyed = name in TREE_KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._home and self._home:
                parent = self._home[-1]
            else:
                parent = None
            sid = next(self._ids)
            span = Span(sid, name, 0.0, 0.0, parent, self.op)
            if keyed:
                span.tree = self._tree_id(args[0] if args else kwargs["tree"])
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            iterations = getattr(result, "iterations", None)
            if isinstance(iterations, int):
                span.iterations = iterations
            rows = getattr(result, "rows", None)
            if isinstance(rows, list):
                span.points = len(rows)
            return result

        return traced

    def install(self, package: str = "stablab") -> None:
        """Wrap the public functions of every layer module of `package`."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.wrap(f"{layer}.{name}", fn)
        namespaces = [sys.modules[package]] + [sys.modules[f"{package}.{layer}"]
                                               for layer in LAYERS]
        for mod in namespaces:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, name, wrapped[value])
                    self._restore.append((mod, name, value))

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._restore):
            setattr(mod, name, value)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: a header of field names, then one
        list of values per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps([f.name for f in fields(Span)]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(astuple(span)) + "\n")


# ----------------------------------------------------------------------
# arithmetic on recorded spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur is None or a > cur[1]:
            if cur is not None:
                total += cur[1] - cur[0]
            cur = [a, b]
        else:
            cur[1] = max(cur[1], b)
    if cur is not None:
        total += cur[1] - cur[0]
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children running concurrently (sweep pool workers) are merged, so
    overlapping child spans are not subtracted twice.
    """
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(kids.get(s.sid, ()), s.start, s.end)
            for s in spans}


def layer_metrics(spans, passes: int, bytes_out: float = 0.0) -> dict:
    """Per-layer metrics per pass, from the spans of `passes` traced passes.

    Spans recorded outside an operation (op None) are ignored.
    """
    spans = [s for s in spans if s.op is not None]
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    time_in = {}
    calls = {}
    for s in spans:
        g = group_of(s.name)
        time_in[g] = time_in.get(g, 0.0) + own[s.sid]
        calls[g] = calls.get(g, 0) + 1

    def trees(group):
        return len({s.tree for s in spans
                    if s.tree is not None and group_of(s.name) == group})

    def under(s, name):
        p = s.parent
        while p is not None:
            ps = by_id.get(p)
            if ps is None:
                return False
            if ps.name == name:
                return True
            p = ps.parent
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    sweeps = [s for s in spans if s.name in SWEEPS]
    sweep_ids = {s.sid for s in sweeps}
    child_busy = sum(s.end - s.start for s in spans if s.parent in sweep_ids)
    sweep_wall = sum(s.end - s.start for s in sweeps)
    primal = [s for s in spans if s.name == "entropic.solve_primal"]
    power = [s for s in spans if s.name == "positive.solve_power_field"]
    n_prices = calls.get("pricing.indiff", 0)

    totals = {
        "cli.main_s": sum(s.end - s.start for s in spans if s.name == "cli.main"),
        "cli.bytes_out": bytes_out,
        "market.walk_calls": calls.get("market.walk", 0),
        "entropic.gains_calls": calls.get("entropic.gains", 0),
        "entropic.lp_calls": calls.get("entropic.lp", 0),
        "entropic.primal_calls": len(primal),
        "entropic.primal_iters": sum(s.iterations or 0 for s in primal),
        "positive.power_iters": sum(s.iterations or 0 for s in power),
        "pricing.indiff_calls": n_prices,
        "sweeps.points": sum(s.points or 0 for s in sweeps),
    }
    out = {}
    for name in LAYER_METRICS:
        if name in totals:
            out[name] = totals[name] / passes
        elif name.endswith("_s"):
            out[name] = time_in.get(name[:-2], 0.0) / passes
    out["entropic.gains_per_tree"] = ratio(calls.get("entropic.gains", 0), trees("entropic.gains"))
    out["entropic.lp_per_tree"] = ratio(calls.get("entropic.lp", 0), trees("entropic.lp"))
    out["pricing.solves_per_price"] = ratio(
        sum(1 for s in primal if under(s, "pricing.indifference_price")), n_prices)
    out["sweeps.concurrency"] = ratio(child_busy, sweep_wall)
    return {name: out[name] for name in LAYER_METRICS}
