import json

import numpy as np
import pytest

import stablab.sweeps as sweeps
from stablab.market import _number

from conftest import (assert_reductions_match_references, child_lists,
                      depth_first_two_asset_tree, mixed_branching_tree, one_step_binomial,
                      one_step_trinomial, random_viable_tree,
                      reference_doob_audit, trinomial_tree, two_asset_tree,
                      two_step_binomial)
from stablab import (AdmissibilityViolation, Measure, ScenarioTree, Strategy,
                     TreeValidationError, audit_probabilistic_lemmas,
                     bracket_distance, branching_tree, build_tree, conditional_expectation,
                     conditional_probs, make_exponential,
                     martingale_residual, minimal_entropy_measure, node_weights,
                     tree_from_file, wealth_additive, wealth_multiplicative)


def test_lattice_expansion():
    tree = two_step_binomial()
    # non-recombining: 1 + 2 + 4 nodes
    assert tree.n_nodes == 7
    assert tree.n_leaves == 4
    assert tree.horizon == 2
    assert np.allclose(tree.path_prob[tree.leaves], 0.25)
    assert np.allclose(sorted(tree.terminal_prices()[:, 0]), [0.25, 1.0, 1.0, 4.0])
    # increments from the parent
    assert tree.d_prices[0, 0] == 0.0
    up = child_lists(tree)[0][0]
    assert tree.prices[up, 0] == 2.0 and tree.d_prices[up, 0] == 1.0


def test_paths_and_children_are_consistent():
    rng = np.random.default_rng(3)
    for tree in [random_viable_tree(rng) for _ in range(10)] + [depth_first_two_asset_tree()]:
        for k, leaf in enumerate(tree.leaves):
            assert tree.paths[k, -1] == leaf
            assert tree.paths[k, 0] == 0
            for t in range(tree.horizon):
                assert tree.parent[tree.paths[k, t + 1]] == tree.paths[k, t]
        # path probabilities multiply down the tree and sum to 1 at the leaves
        assert abs(tree.path_prob[tree.leaves].sum() - 1.0) < 1e-12


def test_level_layout_on_depth_first_ids():
    tree = depth_first_two_asset_tree()
    assert not np.all(np.diff(tree.time) >= 0)  # ids are not grouped by date
    assert len(tree.levels) == tree.horizon + 1
    for t, nodes in enumerate(tree.levels):
        assert np.array_equal(nodes, np.flatnonzero(tree.time == t))
    children = child_lists(tree)
    for i in range(tree.n_nodes):
        assert np.array_equal(children[i], np.flatnonzero(tree.parent == i))
    # per-node references for the dates build_tree derives and the products
    # walked level by level
    time = np.zeros(tree.n_nodes, dtype=np.int64)
    path_prob = np.ones(tree.n_nodes)
    for i in range(1, tree.n_nodes):
        time[i] = time[tree.parent[i]] + 1
        path_prob[i] = path_prob[tree.parent[i]] * tree.prob[i]
    assert np.array_equal(tree.time, time)
    assert np.array_equal(tree.path_prob, path_prob)


def test_child_blocks_reproduce_children_and_levels():
    rng = np.random.default_rng(5)
    trees = [depth_first_two_asset_tree(), trinomial_tree(3), one_step_binomial()]
    for tree in trees + [random_viable_tree(rng, steps=3) for _ in range(5)]:
        assert len(tree.child_blocks) == tree.horizon
        children = child_lists(tree)
        for t, level in enumerate(tree.child_blocks):
            nodes = np.concatenate([nodes for nodes, _ in level])
            assert np.array_equal(np.sort(nodes), tree.levels[t])
            counts = [kids.shape[1] for _, kids in level]
            assert counts == sorted(set(counts))
            for nodes, kids in level:
                assert np.all(np.diff(nodes) > 0) and kids.shape[0] == nodes.size
                for i, row in zip(nodes, kids):
                    assert np.array_equal(row, children[i])
                assert not nodes.flags.writeable and not kids.flags.writeable
        assert isinstance(tree.child_blocks, tuple)
        assert all(isinstance(level, tuple) for level in tree.child_blocks)


def test_tree_arrays_are_read_only():
    parent = np.array([-1, 0, 0])
    prices = np.array([1.0, 1.6, 0.7])
    tree = ScenarioTree(parent, np.array([0, 1, 1]), np.array([1.0, 0.4, 0.6]), prices)
    with pytest.raises(ValueError):
        tree.d_prices[1, 0] = 0.0
    arrays = [tree.parent, tree.time, tree.prob, tree.prices, tree.d_prices,
              tree.d_returns, tree.paths, tree.path_prob, tree.leaves,
              tree.nonterminal, tree.column, *tree.levels]
    assert not any(a.flags.writeable for a in arrays)
    # the tree keeps its own copies; the caller's arrays stay writable
    assert parent.flags.writeable and prices.flags.writeable


def test_column_inverts_the_nonterminal_ids():
    rng = np.random.default_rng(9)
    trees = [depth_first_two_asset_tree(), mixed_branching_tree(), one_step_binomial()]
    for tree in trees + [random_viable_tree(rng, steps=3) for _ in range(3)]:
        K = tree.nonterminal.shape[0]
        assert tree.column.shape == (tree.n_nodes,)
        assert np.array_equal(tree.column[tree.nonterminal], np.arange(K))
        assert np.all(tree.column[tree.leaves] == -1)
        assert not tree.column.flags.writeable


def test_no_per_node_lists_on_a_tree():
    # per-node data lives in arrays; a Python list or tuple attribute holds
    # at most one entry per date
    for tree in (depth_first_two_asset_tree(), trinomial_tree(3), two_step_binomial()):
        sizes = {name: len(value) for name, value in vars(tree).items()
                 if isinstance(value, (list, tuple))}
        assert sizes and max(sizes.values()) <= tree.horizon + 1, sizes


def test_build_tree_nodes_form_and_file_round_trip(tmp_path):
    spec = {"nodes": [
        {"parent": -1, "prices": [1.0]},
        {"parent": 0, "prob": 0.4, "prices": [1.6]},
        {"parent": 0, "prob": 0.6, "prices": [0.7]},
    ]}
    tree = build_tree(spec)
    assert tree.n_nodes == 3 and tree.horizon == 1
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(spec))
    tree2 = tree_from_file(path)
    assert np.array_equal(tree.prices, tree2.prices)
    assert np.array_equal(tree.parent, tree2.parent)


def test_tree_validation_errors():
    with pytest.raises(TreeValidationError):
        build_tree({})
    with pytest.raises(TreeValidationError):
        build_tree({"lattice": {"s0": 1.0, "u": 0.5, "d": 2.0, "q": 0.5, "steps": 1}})
    with pytest.raises(TreeValidationError):
        build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 1.5, "steps": 1}})
    for bad in ({"steps": 2.5}, {"steps": float("nan")}, {"s0": float("nan")},
                {"u": float("nan")}, {"d": float("nan")},
                # lattice fields are JSON numbers: no booleans, no strings
                {"steps": True}, {"u": "2"}, {"s0": "1.0"}, {"q": False}, {"steps": "2"}):
        with pytest.raises(TreeValidationError):
            build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2, **bad}})
    with pytest.raises(TreeValidationError):  # child listed before parent
        build_tree({"nodes": [
            {"parent": -1, "prices": [1.0]},
            {"parent": 2, "prob": 0.5, "prices": [2.0]},
            {"parent": 0, "prob": 0.5, "prices": [0.5]},
        ]})
    for bad in (-2.0, float("nan")):  # nonpositive or NaN price
        with pytest.raises(TreeValidationError):
            build_tree({"nodes": [
                {"parent": -1, "prices": [1.0]},
                {"parent": 0, "prob": 0.5, "prices": [bad]},
                {"parent": 0, "prob": 0.5, "prices": [0.5]},
            ]})
    # a node's parent is a whole JSON number and its prob a JSON number
    for parent, prob in ((0.7, 0.5), (True, 0.5), ("0", 0.5), (float("nan"), 0.5),
                         (0, "0.5"), (0, True)):
        with pytest.raises(TreeValidationError):
            build_tree({"nodes": [
                {"parent": -1, "prices": [1.0]},
                {"parent": parent, "prob": prob, "prices": [2.0]},
                {"parent": 0, "prob": 0.5, "prices": [0.5]},
            ]})
    with pytest.raises(TreeValidationError):  # probabilities don't sum to 1
        build_tree({"nodes": [
            {"parent": -1, "prices": [1.0]},
            {"parent": 0, "prob": 0.5, "prices": [2.0]},
            {"parent": 0, "prob": 0.6, "prices": [0.5]},
        ]})
    with pytest.raises(TreeValidationError):  # single branch
        ScenarioTree([-1, 0], [0, 1], [1.0, 1.0], [[1.0], [2.0]])
    # a missing, infinite or mistyped entry anywhere in the spec
    lattice = {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2}
    child = {"parent": 0, "prob": 0.5, "prices": [2.0]}
    for spec in ({"lattice": {k: v for k, v in lattice.items() if k != "u"}},
                 {"lattice": {**lattice, "s0": float("inf")}},
                 {"lattice": {**lattice, "steps": 10 ** 400}},
                 {"lattice": 5}, {"nodes": 5}, {"nodes": [5]}, 5, ["lattice"],
                 {"nodes": [{"parent": 1e300, "prices": [1.0]}, child, child]},
                 {"nodes": [{"parent": 0, "prices": [1.0]}, child, child]},
                 *({"nodes": [{"parent": -1, "prices": [1.0]}, {**child, **bad}, child]}
                   for bad in ({"prices": ["2.0"]}, {"prices": "2"}, {"prices": [True]},
                               {"prices": None}, {"prices": []}, {"prices": [2.0, 1.0]},
                               {"prices": [float("inf")]}, {"prob": float("nan")},
                               {"prob": None}, {"parent": None})),
                 {"nodes": [{"parent": -1, "prices": [1.0]},
                            {"parent": 0, "prob": 0.5}, child]}):
        with pytest.raises(TreeValidationError):
            build_tree(spec)
    # NaN and infinite node entries fail the constructor's own checks
    for prob, prices in (([1.0, float("nan"), 0.5], [1.0, 2.0, 0.5]),
                         ([1.0, 0.5, 0.5], [1.0, float("inf"), 0.5]),
                         ([float("nan"), 0.5, 0.5], [1.0, 2.0, 0.5])):
        with pytest.raises(TreeValidationError):
            ScenarioTree([-1, 0, 0], [0, 1, 1], prob, prices)
    # fewer than one step, by the library builder and by a lattice spec
    for steps in (0, -1):
        with pytest.raises(TreeValidationError, match=f"steps must be at least 1, got {steps}"):
            branching_tree(1.0, [2.0, 0.5], [0.5, 0.5], steps)
        with pytest.raises(TreeValidationError, match="steps"):
            build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": steps}})


@pytest.mark.parametrize("value, kind, expected", [
    (2, float, 2.0), (2.0, float, 2.0), (np.int64(2), float, 2.0),
    (np.float64(0.5), float, 0.5), (2, int, 2), (2.0, int, 2), (np.int64(2), int, 2),
    *((bad, float, None) for bad in (True, False, "2", None, [2], {"x": 2}, float("nan"),
                                     float("inf"), float("-inf"), 10 ** 400, np.bool_(True))),
    (2.5, int, None), (float("inf"), int, None), ("2", int, None),
])
def test_number_reader(value, kind, expected):
    if expected is None:
        with pytest.raises(sweeps.ConfigError, match="^entry x must be a finite "):
            _number(value, "entry x", sweeps.ConfigError, kind)
        with pytest.raises(TreeValidationError, match="entry x"):
            _number(value, "entry x", kind=kind)
    else:
        got = _number(value, "entry x", kind=kind)
        assert got == expected and type(got) is kind


def child_check_reference(parent, prob):
    """The per-node loop ScenarioTree used to validate each node's children."""
    children = [[] for _ in parent]
    for i in range(1, len(parent)):
        children[parent[i]].append(i)
    for i, ch in enumerate(children):
        if not ch:
            continue
        if len(ch) < 2:
            return f"node {i} has fewer than 2 branches"
        p = np.asarray(prob)[ch]
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            return f"transition probabilities at node {i} must lie in (0, 1)"
        if abs(p.sum() - 1.0) > 1e-12:
            return f"transition probabilities at node {i} do not sum to 1"
    return None


# nine probabilities whose sum misses 1 by just over 1e-12 when numpy sums
# them pairwise, as prob[children].sum() does, and by just under it in a
# running sum
NINE_AT_THE_EDGE = [0.129957, 0.128834, 0.176168, 0.074771, 0.131373,
                    0.107776, 0.064974, 0.077627, 0.10852000000099993]


@pytest.mark.parametrize("parent, prob", [
    # depth-first ids: node 1's children miss the sum, node 4 has one branch
    ([-1, 0, 1, 1, 0, 4], [1.0, 0.5, 0.5, 0.6, 0.5, 1.0]),
    # node 1's children leave (0, 1) but sum to 1; node 2 has one branch
    ([-1, 0, 0, 1, 1, 2], [1.0, 0.5, 0.5, 1.2, -0.2, 1.0]),
    # a later node's children miss the sum
    ([-1, 0, 0, 1, 1, 2, 2], [1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.6]),
    ([-1] + [0] * 9, [1.0] + NINE_AT_THE_EDGE),
    ([-1, 0, 0, 1, 1, 1, 2, 2], [1.0, 0.4, 0.6, 0.2, 0.3, 0.5, 0.5, 0.5]),
])
def test_child_checks_match_the_per_node_loop(parent, prob):
    spec = {"nodes": [{"parent": p, "prob": q, "prices": [1.0 + 0.1 * k]}
                      for k, (p, q) in enumerate(zip(parent, prob))]}
    expected = child_check_reference(parent, prob)
    if expected is None:
        assert build_tree(spec).n_nodes == len(parent)
    else:
        with pytest.raises(TreeValidationError) as err:
            build_tree(spec)
        assert str(err.value) == expected


def test_measure_validation():
    with pytest.raises(TreeValidationError):
        Measure([0.5, -0.1, 0.6])
    with pytest.raises(TreeValidationError):
        Measure([0.5, 0.6])
    for bad in ([float("nan"), 1.0], [0.5, float("nan"), 0.5], [float("inf"), 1.0]):
        with pytest.raises(TreeValidationError):
            Measure(bad)
    m = Measure([0.25, 0.75])
    assert m.is_equivalent()
    assert not Measure([0.0, 1.0]).is_equivalent()


def test_node_weights_and_conditional_probs():
    tree = two_step_binomial()
    m = tree.market_measure()
    W = node_weights(tree, m)
    assert W[0] == pytest.approx(1.0)
    assert np.allclose(W, tree.path_prob)
    _, cond = conditional_probs(tree, m)
    assert cond.shape == tree.prob.shape
    assert np.allclose(cond, tree.prob)
    children = child_lists(tree)
    for i in tree.nonterminal:
        assert abs(cond[children[i]].sum() - 1.0) < 1e-12


def _zeroed(weights, keep):
    w = np.where(keep, weights, 0.0)
    return Measure(w / w.sum())


def test_one_step_reductions_match_per_node_loops():
    rng = np.random.default_rng(17)
    trees = [build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": T}})
             for T in range(1, 9)]
    trees += [one_step_trinomial(), trinomial_tree(), two_asset_tree(),
              depth_first_two_asset_tree()]
    # 2-3 branches per node, so a date can hold two child blocks
    trees += [random_viable_tree(rng, steps=3) for _ in range(3)]
    for tree in trees:
        P = tree.path_prob[tree.leaves]
        L = tree.n_leaves
        keep = rng.random(L) < 0.5
        keep[0] = True
        measures = [tree.market_measure(), Measure(rng.dirichlet(np.ones(L))),
                    _zeroed(P, keep), Measure(np.eye(L)[-1]),
                    # the whole subtree below the root's first child is unreached
                    _zeroed(P, tree.paths[:, 1] != child_lists(tree)[0][0])]
        for m in measures:
            assert_reductions_match_references(tree, m, rng)


# binomial T2 and T5, trinomial T3, two-asset T2
AUDIT_TREES = (
    two_step_binomial,
    lambda: build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 5}}),
    lambda: trinomial_tree(3),
    lambda: two_asset_tree(2),
)


def test_audit_matches_per_node_loop(monkeypatch):
    # 300 trials: one block by default, then 43 blocks of 7 (the last one short)
    for make in AUDIT_TREES:
        tree = make()
        Q = minimal_entropy_measure(tree, make_exponential(1.0)).measure
        for seed in range(1, 6):
            ref = reference_doob_audit(tree, Q, seed=seed, trials=300)
            for block in (sweeps.AUDIT_BLOCK_DOUBLES, 7 * tree.n_nodes * tree.paths.shape[1]):
                with monkeypatch.context() as patch:
                    patch.setattr(sweeps, "AUDIT_BLOCK_DOUBLES", block)
                    report = audit_probabilistic_lemmas(tree, seed=seed, trials=300)
                assert (report.doob_violations, report.doob_max_ratio) == ref


def test_conditional_expectation_tower_and_linearity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        tree = random_viable_tree(rng)
        w = rng.dirichlet(np.ones(tree.n_leaves))
        m = Measure(w)
        x = rng.normal(size=tree.n_leaves)
        y = rng.normal(size=tree.n_leaves)
        ex = conditional_expectation(tree, m, x)
        # root value is the plain expectation
        assert ex[0] == pytest.approx(float(w @ x), abs=1e-12)
        # tower: conditional values themselves average correctly one level up
        W = node_weights(tree, m)
        children = child_lists(tree)
        for i in tree.nonterminal:
            ch = children[i]
            if W[i] > 0:
                assert ex[i] == pytest.approx(float(W[ch] @ ex[ch]) / W[i], abs=1e-10)
        # linearity
        exy = conditional_expectation(tree, m, 2.0 * x - 3.0 * y)
        assert np.allclose(exy, 2.0 * ex - 3.0 * conditional_expectation(tree, m, y))


def test_constant_terminal_value_propagates():
    tree = two_step_binomial()
    ex = conditional_expectation(tree, tree.market_measure(), np.full(4, 2.5))
    assert np.allclose(ex, 2.5)


def test_martingale_residual_binomial():
    tree = one_step_binomial()
    # market measure drifts: 0.5*1 + 0.5*(-0.5) = 0.25
    assert martingale_residual(tree, tree.market_measure()) == pytest.approx(0.25)
    q = Measure([1.0 / 3.0, 2.0 / 3.0])
    assert martingale_residual(tree, q) < 1e-15
    assert martingale_residual(tree, q) <= 1e-10
    # two-step: product weights of the one-step martingale probabilities
    tree2 = two_step_binomial()
    q2 = Measure([1.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, 4.0 / 9.0])
    assert martingale_residual(tree2, q2) <= 1e-10


def test_wealth_additive_matches_manual():
    tree = two_step_binomial()
    h = np.zeros((tree.n_nodes, 1))
    h[tree.nonterminal, 0] = [1.0, 2.0, -1.0]  # root, up node, down node
    X = wealth_additive(tree, Strategy(h, "shares"), 0.0)
    for i in range(1, tree.n_nodes):
        pa = tree.parent[i]
        assert X[i] == pytest.approx(X[pa] + h[pa, 0] * tree.d_prices[i, 0])
    assert X[0] == 0.0
    with pytest.raises(ValueError):
        wealth_additive(tree, Strategy(h, "fractions"))


def wealth_additive_per_node(tree, H, x0):
    X = np.empty(tree.n_nodes)
    X[0] = x0
    for i in range(1, tree.n_nodes):
        pa = tree.parent[i]
        X[i] = X[pa] + H[pa] @ tree.d_prices[i]
    return X


def wealth_multiplicative_per_node(tree, pi, x0):
    X = np.empty(tree.n_nodes)
    X[0] = x0
    for i in range(1, tree.n_nodes):
        pa = tree.parent[i]
        growth = 1.0 + pi[pa] @ tree.d_returns[i]
        if growth <= 0.0:
            raise AdmissibilityViolation(
                f"wealth becomes nonpositive at node {i} (growth factor {growth:.6g})")
        X[i] = X[pa] * growth
    return X


@pytest.mark.parametrize("make_tree", [depth_first_two_asset_tree, trinomial_tree])
def test_wealth_walks_match_per_node_recursion(make_tree):
    tree = make_tree()
    rng = np.random.default_rng(11)
    H = rng.normal(size=(tree.n_nodes, tree.n_assets))
    X = wealth_additive(tree, Strategy(H, "shares"), 0.7)
    assert np.array_equal(X, wealth_additive_per_node(tree, H, 0.7))
    pi = rng.uniform(-0.4, 0.4, size=(tree.n_nodes, tree.n_assets))
    X = wealth_multiplicative(tree, Strategy(pi, "fractions"), 1.3)
    assert np.array_equal(X, wealth_multiplicative_per_node(tree, pi, 1.3))


def test_admissibility_names_lowest_offending_node():
    tree = depth_first_two_asset_tree()
    pi = np.zeros((tree.n_nodes, tree.n_assets))
    # a date-2 node early in the id order, and the last date-1 node: the
    # first violating date holds a higher node id than the deeper violation
    deep, shallow = tree.levels[2][0], tree.levels[1][-1]
    children = child_lists(tree)
    for node in (deep, shallow):
        r = tree.d_returns[children[node][0]]
        pi[node] = -10.0 * r / (r @ r)
    with pytest.raises(AdmissibilityViolation) as ref:
        wealth_multiplicative_per_node(tree, pi, 1.0)
    with pytest.raises(AdmissibilityViolation) as got:
        wealth_multiplicative(tree, Strategy(pi, "fractions"), 1.0)
    assert str(got.value) == str(ref.value)
    assert f"at node {children[deep][0]} " in str(got.value)


def test_wealth_multiplicative_and_admissibility():
    tree = one_step_binomial()
    pi = Strategy.constant(tree, [0.5], "fractions")
    X = wealth_multiplicative(tree, pi, 2.0)
    # growth 1 + 0.5*dR: up 1.5, down 0.75
    assert sorted(X[tree.leaves]) == pytest.approx([1.5, 3.0])
    with pytest.raises(AdmissibilityViolation):
        wealth_multiplicative(tree, Strategy.constant(tree, [3.0], "fractions"), 1.0)
    with pytest.raises(AdmissibilityViolation):
        wealth_multiplicative(tree, pi, 0.0)
    with pytest.raises(ValueError):
        wealth_multiplicative(tree, Strategy.constant(tree, [0.5], "shares"), 1.0)


def test_bracket_distance_one_step_closed_form():
    tree = one_step_binomial()
    q = Measure([1.0 / 3.0, 2.0 / 3.0])
    a = Strategy.constant(tree, [1.0], "shares")
    b = Strategy.zero(tree, "shares")
    # increments +1/-0.5 are centered under q, so the bracket is the plain
    # second moment: (1/3)*1 + (2/3)*0.25 = 1/2
    assert bracket_distance(tree, q, a, b) == pytest.approx(0.5, abs=1e-14)
    assert bracket_distance(tree, q, a, a) == 0.0
    # quadratic in the strategy gap
    c = Strategy.constant(tree, [3.0], "shares")
    assert bracket_distance(tree, q, c, b) == pytest.approx(9.0 * 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        bracket_distance(tree, q, a, Strategy.zero(tree, "fractions"))


def test_bracket_distance_ignores_unreached_nodes():
    tree = two_step_binomial()
    # measure concentrated on the up-up leaf: down subtree carries no weight
    m = Measure([1.0, 0.0, 0.0, 0.0])
    a = Strategy.zero(tree, "shares")
    vals = np.zeros((tree.n_nodes, 1))
    vals[tree.nonterminal[-1]] = 17.0  # a node the measure never reaches
    b = Strategy(vals, "shares")
    d = bracket_distance(tree, m, a, b)
    # the up-up path never sees the modified node, and one-point conditionals
    # have zero variance
    assert d == 0.0


def test_strategy_modes():
    tree = one_step_binomial()
    with pytest.raises(ValueError):
        Strategy(np.zeros((tree.n_nodes, 1)), "holdings")
    s = Strategy.constant(tree, [2.0], "shares")
    assert s.values.shape == (tree.n_nodes, 1)
