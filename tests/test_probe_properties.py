"""Property tests of the martingale polytope probes over random small trees."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_probes, reference_probes
from stablab import (NoMartingaleMeasure, build_tree, martingale_polytope_probes,
                     martingale_residual)


def whole_percent(hi):
    """A move of 1% to hi."""
    return st.integers(1, round(100 * hi)).map(lambda k: k / 100.0)


def any_scale(hi):
    """A move of mantissa * 10^-k, k = 0..9, at most hi: near-degenerate moves
    of 1e-9 to 1e-5 leave C q = b full rank but badly conditioned."""
    return st.builds(lambda m, k: min(m * 10.0 ** -k, hi),
                     st.floats(1.0, 9.99), st.integers(0, 9))


@st.composite
def small_viable_trees(draw, move, complete=False):
    """1-2 assets, 2-4 branches per node (at least 3 for two assets), T <= 3.

    One asset: an up and a down move at every node, then any moves.  Two
    assets: p in the open first quadrant, r in the closed second one and
    -(p + r), which puts 0 inside their hull, then any moves.  So every node
    admits an equivalent martingale measure.  `move(hi)` draws a size in
    (0, hi].  A complete tree has d + 1 branches at every node.
    """
    d = draw(st.integers(1, 2))
    steps = draw(st.integers(1, 3))

    def size(hi):
        return draw(move(hi))

    def signed(hi):
        return draw(st.sampled_from([-1.0, 0.0, 1.0])) * size(hi)

    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0] * d}]
    frontier = [0]
    for _ in range(steps):
        grown = []
        for i in frontier:
            nb = d + 1 if complete else draw(st.integers(d + 1 if d == 2 else 2, 4))
            if d == 1:
                rets = [[size(0.6)], [-size(0.6)]]
            else:
                p = [size(0.4), size(0.4)]
                r = [-size(0.4), draw(st.sampled_from([0.0, 1.0])) * size(0.4)]
                rets = [p, r, [-p[0] - r[0], -p[1] - r[1]]]
            rets += [[signed(0.6 / d) for _ in range(d)] for _ in range(nb - len(rets))]
            w = np.array([draw(st.floats(0.1, 1.0)) for _ in range(nb)])
            prices = nodes[i]["prices"]
            for ret, q in zip(rets, w / w.sum()):
                nodes.append({"parent": i, "prob": float(q),
                              "prices": [s * (1.0 + x) for s, x in zip(prices, ret)]})
                grown.append(len(nodes) - 1)
        frontier = grown
    return build_tree({"nodes": nodes})


# Whole-percent moves lie far above the polish's absolute tolerances (1e-9);
# moves near those can break the residual bound, with or without the early stop.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(tree=small_viable_trees(whole_percent), seed=st.integers(0, 7))
def test_probes_on_random_trees(tree, seed):
    probes = martingale_polytope_probes(tree, seed=seed)
    for m in probes:
        assert abs(m.weights.sum() - 1.0) <= 1e-12
        assert martingale_residual(tree, m) <= 1e-9
    assert_same_probes(probes, reference_probes(tree, seed=seed))


# Complete trees with near-degenerate moves are where stopping after one LP
# could drop a vertex the full loop keeps: only bit equality is asserted.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree=small_viable_trees(any_scale, complete=True), seed=st.integers(0, 7))
def test_probes_on_near_degenerate_trees(tree, seed):
    try:
        ref = reference_probes(tree, seed=seed)
    except NoMartingaleMeasure:
        with pytest.raises(NoMartingaleMeasure):
            martingale_polytope_probes(tree, seed=seed)
        return
    assert_same_probes(martingale_polytope_probes(tree, seed=seed), ref)
