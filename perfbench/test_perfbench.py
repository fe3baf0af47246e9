"""Self-tests for the benchmark's own arithmetic, tracing and inputs.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import random
from pathlib import Path

import metrics
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layers == dict(spans.LAYER_METRICS, **{"trace.overhead_s": "s"})
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS) == set(workloads.WORKLOADS)
    for name in list(e2e) + list(layers) + list(run.WORKLOADS):
        assert metrics.NAME_RE.fullmatch(name), name


def test_tail_has_ten_samples_beyond_it():
    assert metrics.tail(list(range(10))) is None
    for n in range(11, 120):
        xs = random.Random(n).sample(range(1000), n)
        value, pct, count, order = metrics.tail(xs)
        assert count == n
        assert sum(1 for x in xs if x > order) == metrics.TAIL_BEYOND
        assert pct == 100.0 * (n - metrics.TAIL_BEYOND) / n
        assert min(xs) <= value <= max(xs)
        if n >= 30:     # the estimate stays near the order statistic
            ranked = sorted(xs)
            k = n - metrics.TAIL_BEYOND - 1
            assert ranked[k - 6] <= value <= ranked[min(n - 1, k + 6)]


def test_harrell_davis_quantile():
    assert metrics.harrell_davis([5.0], 0.3) == 5.0
    assert abs(metrics.harrell_davis([1.0, 2.0, 3.0], 0.5) - 2.0) < 1e-12
    assert abs(metrics.harrell_davis([4.0] * 9, 0.8) - 4.0) < 1e-12
    xs = random.Random(7).sample(range(1000), 40)
    estimates = [metrics.harrell_davis(xs, p / 20) for p in range(1, 20)]
    assert estimates == sorted(estimates)


def _span(sid, name, start, end, parent=None, **kw):
    return spans.Span(sid, name, start, end, parent, op=0, **kw)


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span(1, "sweeps.sweep_delta", 0.0, 10.0),
        _span(2, "pricing.indifference_price", 1.0, 4.0, 1),
        _span(3, "entropic.solve_primal", 3.0, 6.0, 1, iterations=5),   # overlaps 2: pool worker
        _span(4, "entropic.solve_primal", 2.0, 3.0, 2, iterations=7),
        _span(5, "entropic.solve_primal", 3.5, 3.75, 2, iterations=1),
    ]
    own = spans.self_times(tree)
    assert own == {1: 5.0, 2: 1.75, 3: 3.0, 4: 1.0, 5: 0.25}
    m = spans.layer_metrics(tree, passes=2)
    assert m["sweeps.grid_s"] == 2.5
    assert m["pricing.indiff_s"] == 0.875
    assert m["entropic.primal_s"] == 2.125
    assert m["entropic.primal_calls"] == 1.5
    assert m["entropic.primal_iters"] == 6.5
    assert m["pricing.solves_per_price"] == 2.0
    assert m["sweeps.concurrency"] == 0.6       # (3 + 3) busy over 10 wall


def test_spans_outside_operations_are_ignored():
    tree = [_span(1, "entropic.solve_primal", 0.0, 1.0)]
    tree.append(spans.Span(2, "entropic.solve_primal", 1.0, 2.0, None, op=None))
    assert spans.layer_metrics(tree, passes=1)["entropic.primal_calls"] == 1


def _records(fail_latency=None):
    recs = []
    for p in range(4):
        for i, lat in enumerate((1.0, 2.0, 3.0)):
            recs.append({"pass": p, "op": f"op{i}", "timed": True, "ok": True, "latency": lat})
    if fail_latency is not None:
        recs[0] = dict(recs[0], ok=False, latency=fail_latency)
        recs.append({"pass": 0, "op": "probe", "timed": False, "ok": False, "latency": 50.0})
    return recs


def test_failing_op_counts_in_ok_frac_and_not_in_timings():
    base, _ = metrics.summarize(_records(), [1.0], 10.0)
    hurt, detail = metrics.summarize(_records(fail_latency=100.0), [1.0], 10.0)
    assert base["ok_frac"] == 1.0
    assert hurt["ok_frac"] == 1.0 - 2 / 13
    assert detail["failed"] == 2 and detail["attempted"] == 13
    assert detail["op_samples"] == 11
    assert max(detail["pass_samples"]) == 6.0
    assert hurt["op_tail_s"] <= 3.0 and hurt["op_p50_s"] == base["op_p50_s"]


def test_op_p50_is_the_median_operations_mean_latency():
    # three cheap ops, three mid ops alternating fast and slow passes, one
    # dear op: the pooled median sits at the mid ops' fast edge, the median
    # operation's mean latency between their fast and slow passes
    recs = []
    for p in range(6):
        for i, lat in enumerate((0.1, 0.1, 0.1, 0.4 if p % 2 else 0.8, 0.4 if p % 2 else 0.8,
                                 0.4 if p % 2 else 0.8, 1.0)):
            recs.append({"pass": p, "op": f"op{i}", "timed": True, "ok": True, "latency": lat})
    m, detail = metrics.summarize(recs, [1.0], 10.0)
    assert abs(m["op_p50_s"] - 0.6) < 1e-12
    assert detail["op_pooled_p50_s"] == 0.4
    assert detail["op_p50_ops"] == 7 and detail["op_samples"] == 42


def test_tracer_attributes_nested_calls_and_restores_functions():
    import stablab as sl
    import stablab.pricing
    tree = sl.build_tree({"lattice": dict(workloads.U2D05, steps=1)})
    before = stablab.pricing.solve_primal
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        claim = workloads._call(tree, 1.0)
        sl.indifference_price(tree, sl.make_exponential(1.0), 0.0, claim)
    finally:
        tracer.uninstall()
    assert stablab.pricing.solve_primal is before
    price = [s for s in tracer.spans if s.name == "pricing.indifference_price"]
    assert len(price) == 1
    solves = [s for s in tracer.spans if s.name == "entropic.solve_primal"]
    assert solves and all(s.parent == price[0].sid for s in solves)
    assert all(s.iterations is not None for s in solves)
    lp = [s for s in tracer.spans if s.name == "entropic.assert_market_viable"]
    assert lp and lp[0].tree is not None


def test_seed_changes_inputs_not_the_work(tmp_path):
    for name in run.WORKLOADS:
        a = workloads.build(name, 1, ROOT, tmp_path)
        b = workloads.build(name, 2, ROOT, tmp_path)
        assert [op.name for op in a.ops] == [op.name for op in b.ops]
        assert a.inputs != b.inputs
        assert sum(op.timed for op in a.ops) == run.TIMED_OPS[name]
        samples = run.plan_passes(name, 1) * run.TIMED_OPS[name]
        value, pct, n, order = metrics.tail(range(samples))
        assert pct > 50.0
