import json

import numpy as np
import pytest

from conftest import (assert_reductions_match_references, depth_first_two_asset_tree,
                      one_step_binomial, one_step_trinomial, random_viable_tree,
                      reference_doob_audit, trinomial_tree, two_asset_tree,
                      two_step_binomial)
from stablab import (AdmissibilityViolation, Measure, ScenarioTree, Strategy,
                     TreeValidationError, audit_probabilistic_lemmas,
                     bracket_distance, build_tree, conditional_expectation,
                     conditional_probs, is_martingale_measure, make_exponential,
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
    up = tree.children[0][0]
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
        assert np.array_equal(tree.nodes_at(t), nodes)
    for i in range(tree.n_nodes):
        assert np.array_equal(tree.children[i], np.flatnonzero(tree.parent == i))
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
        for t, level in enumerate(tree.child_blocks):
            nodes = np.concatenate([nodes for nodes, _ in level])
            assert np.array_equal(np.sort(nodes), tree.levels[t])
            counts = [kids.shape[1] for _, kids in level]
            assert counts == sorted(set(counts))
            for nodes, kids in level:
                assert np.all(np.diff(nodes) > 0) and kids.shape[0] == nodes.size
                for i, row in zip(nodes, kids):
                    assert np.array_equal(row, tree.children[i])
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
              tree.nonterminal, tree.leaf_pos, *tree.children, *tree.levels]
    assert not any(a.flags.writeable for a in arrays)
    # the tree keeps its own copies; the caller's arrays stay writable
    assert parent.flags.writeable and prices.flags.writeable


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
    with pytest.raises(TreeValidationError):  # child listed before parent
        build_tree({"nodes": [
            {"parent": -1, "prices": [1.0]},
            {"parent": 2, "prob": 0.5, "prices": [2.0]},
            {"parent": 0, "prob": 0.5, "prices": [0.5]},
        ]})
    with pytest.raises(TreeValidationError):  # nonpositive price
        build_tree({"nodes": [
            {"parent": -1, "prices": [1.0]},
            {"parent": 0, "prob": 0.5, "prices": [-2.0]},
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
    for i in tree.nonterminal:
        assert abs(cond[tree.children[i]].sum() - 1.0) < 1e-12


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
                    _zeroed(P, tree.paths[:, 1] != tree.children[0][0])]
        for m in measures:
            assert_reductions_match_references(tree, m, rng)


def test_audit_matches_per_node_loop():
    tree = two_asset_tree(2)
    report = audit_probabilistic_lemmas(tree, seed=4, trials=100)
    Q = minimal_entropy_measure(tree, make_exponential(1.0)).measure
    assert (report.doob_violations, report.doob_max_ratio) == \
        reference_doob_audit(tree, Q, seed=4, trials=100)


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
        assert ex.at_root() == pytest.approx(float(w @ x), abs=1e-12)
        # tower: conditional values themselves average correctly one level up
        W = node_weights(tree, m)
        for i in tree.nonterminal:
            ch = tree.children[i]
            if W[i] > 0:
                assert ex.values[i] == pytest.approx(
                    float(W[ch] @ ex.values[ch]) / W[i], abs=1e-10)
        # linearity
        exy = conditional_expectation(tree, m, 2.0 * x - 3.0 * y)
        assert np.allclose(exy.values, 2.0 * ex.values
                           - 3.0 * conditional_expectation(tree, m, y).values)


def test_constant_terminal_value_propagates():
    tree = two_step_binomial()
    ex = conditional_expectation(tree, tree.market_measure(), np.full(4, 2.5))
    assert np.allclose(ex.values, 2.5)


def test_martingale_residual_binomial():
    tree = one_step_binomial()
    # market measure drifts: 0.5*1 + 0.5*(-0.5) = 0.25
    assert martingale_residual(tree, tree.market_measure()) == pytest.approx(0.25)
    q = Measure([1.0 / 3.0, 2.0 / 3.0])
    assert martingale_residual(tree, q) < 1e-15
    assert is_martingale_measure(tree, q)
    # two-step: product weights of the one-step martingale probabilities
    tree2 = two_step_binomial()
    q2 = Measure([1.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, 4.0 / 9.0])
    assert is_martingale_measure(tree2, q2)


def test_wealth_additive_matches_manual():
    tree = two_step_binomial()
    h = np.zeros((tree.n_nodes, 1))
    h[tree.nonterminal, 0] = [1.0, 2.0, -1.0]  # root, up node, down node
    X = wealth_additive(tree, Strategy(h, "shares"), 0.0)
    for i in range(1, tree.n_nodes):
        pa = tree.parent[i]
        assert X.values[i] == pytest.approx(
            X.values[pa] + h[pa, 0] * tree.d_prices[i, 0])
    assert X.at_root() == 0.0
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
    assert np.array_equal(X.values, wealth_additive_per_node(tree, H, 0.7))
    pi = rng.uniform(-0.4, 0.4, size=(tree.n_nodes, tree.n_assets))
    X = wealth_multiplicative(tree, Strategy(pi, "fractions"), 1.3)
    assert np.array_equal(X.values, wealth_multiplicative_per_node(tree, pi, 1.3))


def test_admissibility_names_lowest_offending_node():
    tree = depth_first_two_asset_tree()
    pi = np.zeros((tree.n_nodes, tree.n_assets))
    # a date-2 node early in the id order, and the last date-1 node: the
    # first violating date holds a higher node id than the deeper violation
    deep, shallow = tree.levels[2][0], tree.levels[1][-1]
    for node in (deep, shallow):
        r = tree.d_returns[tree.children[node][0]]
        pi[node] = -10.0 * r / (r @ r)
    with pytest.raises(AdmissibilityViolation) as ref:
        wealth_multiplicative_per_node(tree, pi, 1.0)
    with pytest.raises(AdmissibilityViolation) as got:
        wealth_multiplicative(tree, Strategy(pi, "fractions"), 1.0)
    assert str(got.value) == str(ref.value)
    assert f"at node {tree.children[deep][0]} " in str(got.value)


def test_wealth_multiplicative_and_admissibility():
    tree = one_step_binomial()
    pi = Strategy.constant(tree, [0.5], "fractions")
    X = wealth_multiplicative(tree, pi, 2.0)
    # growth 1 + 0.5*dR: up 1.5, down 0.75
    assert sorted(X.at_leaves(tree)) == pytest.approx([1.5, 3.0])
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
