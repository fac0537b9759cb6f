"""Tests for the finite-POMDP separation checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibsep import control_sep as cs, harness


def tiger_like():
    # two hidden states, listen-ish dynamics, informative observations
    stay = np.eye(2)
    mix = np.array([[0.7, 0.3], [0.4, 0.6]])
    trans = np.stack([stay, mix], axis=1)
    obs = np.array([[0.85, 0.15], [0.1, 0.9]])
    reward = np.array([[1.0, -0.2], [-1.0, 0.4]])
    return cs.FinitePOMDP(trans, obs, reward, [0.5, 0.5], horizon=3)


# ---------------------------------------------------------------------------
# construction and beliefs
# ---------------------------------------------------------------------------


def test_tables_are_validated():
    good = tiger_like()
    assert (good.n_states, good.n_actions, good.n_obs) == (2, 2, 2)
    with pytest.raises(ValueError, match="sum to 1"):
        cs.FinitePOMDP(good.trans * 0.9, good.obs, good.reward, good.b0, 3)
    with pytest.raises(ValueError, match="negative"):
        bad = good.obs.copy()
        bad[0] = [1.5, -0.5]
        cs.FinitePOMDP(good.trans, bad, good.reward, good.b0, 3)
    with pytest.raises(ValueError, match="shape"):
        cs.FinitePOMDP(good.trans, good.obs, np.zeros((2, 3)), good.b0, 3)
    with pytest.raises(ValueError, match="horizon"):
        cs.FinitePOMDP(good.trans, good.obs, good.reward, good.b0, 0)
    with pytest.raises(ValueError, match="probability"):
        cs.FinitePOMDP(good.trans, good.obs, good.reward, [0.7, 0.7], 3)


@pytest.mark.parametrize("table, name", [
    ("trans", "transition table"), ("obs", "observation table"),
    ("reward", "reward table"), ("b0", "initial distribution")])
def test_non_finite_tables_are_rejected_by_name(table, name):
    good = tiger_like()
    tables = {"trans": good.trans.copy(), "obs": good.obs.copy(),
              "reward": good.reward.copy(), "b0": good.b0.copy()}
    tables[table].flat[0] = np.nan
    with pytest.raises(ValueError, match=f"{name} has non-finite"):
        cs.FinitePOMDP(horizon=3, **tables)


@pytest.mark.parametrize("shape, axis", [
    ((0, 2, 0, 2), "state"), ((2, 0, 2, 2), "action"), ((2, 2, 2, 0), "observation")])
def test_an_empty_axis_is_rejected_by_name(shape, axis):
    S, A, S_next, O = shape
    trans = np.full((S, A, S_next), 1.0 / max(S_next, 1))
    obs = np.full((S, O), 1.0 / max(O, 1))
    b0 = np.full(S, 1.0 / max(S, 1))
    with pytest.raises(ValueError, match=f"empty {axis} axis"):
        cs.FinitePOMDP(trans, obs, np.zeros((S, A)), b0, 3)


def test_random_pomdp_is_well_formed():
    p = cs.random_pomdp(np.random.default_rng(3), 4, 3, 2, 3)
    assert (p.n_states, p.n_actions, p.n_obs) == (4, 3, 2)
    assert np.all(np.abs(p.reward) <= 1.0)


def test_belief_update_matches_manual_bayes():
    p = tiger_like()
    b = np.array([0.3, 0.7])
    pushed = b @ p.trans[:, 1, :]
    expect = pushed * p.obs[:, 0]
    expect = expect / expect.sum()
    np.testing.assert_allclose(cs.belief_update(p, b, 1, 0), expect,
                               rtol=0, atol=1e-15)


def test_belief_update_rejects_impossible_observation():
    p = cs.FinitePOMDP(
        np.stack([np.eye(2)], axis=1),
        np.array([[1.0, 0.0], [1.0, 0.0]]),  # observation 1 never occurs
        np.zeros((2, 1)), [0.5, 0.5], 2,
    )
    with pytest.raises(ValueError, match="zero probability"):
        cs.belief_update(p, p.b0, 0, 1)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4),
       n_actions=st.integers(1, 3), n_obs=st.integers(1, 4))
def test_belief_updates_average_back_to_the_pushed_belief(seed, n_states,
                                                          n_actions, n_obs):
    # Σ_o p(o|b,a) · b_ao = b T_a: Bayes steps re-weight, they lose no mass
    rng = np.random.default_rng(seed)
    p = cs.random_pomdp(rng, n_states, n_actions, n_obs)
    b = rng.dirichlet(np.ones(n_states))
    for a in range(n_actions):
        p_obs = cs.obs_probability(p, b, a)
        mixture = sum(p_obs[o] * cs.belief_update(p, b, a, o) for o in range(n_obs))
        np.testing.assert_allclose(mixture, b @ p.trans[:, a, :], rtol=0, atol=1e-12)
    # an extra observation no state emits has probability zero
    mute = cs.FinitePOMDP(p.trans, np.hstack([p.obs, np.zeros((n_states, 1))]),
                          p.reward, p.b0, p.horizon)
    with pytest.raises(ValueError, match="zero probability"):
        cs.belief_update(mute, b, int(rng.integers(n_actions)), n_obs)


def test_observation_probabilities_normalize():
    p = tiger_like()
    for a in range(p.n_actions):
        assert cs.obs_probability(p, p.b0, a).sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# exhaustive backward induction
# ---------------------------------------------------------------------------


def test_backward_induction_matches_hand_rollout():
    p = tiger_like()
    short = cs.FinitePOMDP(p.trans, p.obs, p.reward, p.b0, horizon=2)
    tree = cs.brute_force_q(short)
    for a in range(2):
        immediate = float(short.b0 @ short.reward[:, a])
        cont = 0.0
        p_obs = cs.obs_probability(short, short.b0, a)
        for o in range(2):
            child = cs.belief_update(short, short.b0, a, o)
            cont += p_obs[o] * max(float(child @ short.reward[:, a2])
                                   for a2 in range(2))
        assert tree.q_levels[0][0, a] == pytest.approx(immediate + cont, abs=1e-12)


def test_reach_probabilities_sum_to_one_per_depth():
    tree = cs.brute_force_q(tiger_like())
    assert len(tree.levels) == tiger_like().horizon
    for depth, level in enumerate(tree.levels):
        assert sum(level.reach.tolist()) == pytest.approx(1.0, abs=1e-12), depth


def test_tree_size_cap_is_enforced():
    p = cs.random_pomdp(np.random.default_rng(0), 3, 3, 4, 7)
    with pytest.raises(ValueError, match="cap"):
        cs.brute_force_q(p)


def test_zero_probability_branches_are_pruned():
    p = cs.FinitePOMDP(
        np.stack([np.eye(2), np.eye(2)], axis=1),
        np.eye(2),  # deterministic observation of the (fixed) state
        np.array([[1.0, 0.0], [0.0, 1.0]]), [1.0, 0.0], 3,
    )
    root = cs.brute_force_q(p).levels[0]
    # the state never leaves 0, so only observation 0 ever appears
    assert root.child[0, 0, 1] == -1
    assert root.child[0, 0, 0] >= 0


def _sparse_pomdp(seed):
    """A random instance; for odd seeds some observation entries are zero,
    so some branches have zero probability."""
    rng = np.random.default_rng(seed)
    p = cs.random_pomdp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                        int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    if seed % 2:
        obs = np.where(rng.random(p.obs.shape) < 0.4, 0.0, p.obs)
        obs[obs.sum(axis=1) == 0.0, 0] = 1.0
        p = cs.FinitePOMDP(p.trans, obs / obs.sum(axis=1, keepdims=True),
                           p.reward, p.b0, p.horizon)
    return p


@pytest.mark.parametrize("seed", range(12))
def test_every_tree_child_is_the_bayes_update_of_its_parent(seed):
    p = _sparse_pomdp(seed)
    levels = cs._belief_tree(p, p.horizon - 1)
    for parents, children in zip(levels, levels[1:]):
        rows = []
        for (n, a, o), row in np.ndenumerate(parents.child):
            if row < 0:
                assert not parents.p_obs[n, a, o] > 0.0
                continue
            history = children.histories[row]
            assert history == parents.histories[n] + ((a, o),)
            want = cs.belief_update(p, parents.beliefs[n], a, o)
            assert children.beliefs[row].tobytes() == want.tobytes(), history
            rows.append(row)
        # every child has one parent branch, and they come in tree order
        assert rows == list(range(len(children.histories)))


def test_one_tree_is_keyed_once_per_node(monkeypatch):
    p = cs.random_pomdp(np.random.default_rng(4), 3, 2, 2, 4)
    calls = []
    keys = cs._belief_keys
    monkeypatch.setattr(cs, "_belief_keys",
                        lambda depth, beliefs: calls.append(len(beliefs)) or keys(depth, beliefs))
    tree = cs.brute_force_q(p)
    # one array call per level, one key per node
    assert len(calls) == p.horizon and sum(calls) == len(tree)
    calls.clear()
    report = cs.verify_separation(tree)
    policy = cs.belief_policy(tree)
    assert calls == []  # the tree came keyed
    assert report["groups"] == len(policy)
    for depth, level in enumerate(tree.levels):
        assert tree.belief_keys[depth] == [keys(depth, [belief])[0] for belief in level.beliefs]


def test_the_battery_oracles_make_no_obs_probability_call(monkeypatch):
    # the tree's pushes serve both inductions; policy_return keeps its own
    inside, calls = [0], {True: 0, False: 0}
    obs_probability = cs.obs_probability

    def counting(*args):
        calls[inside[0] > 0] += 1
        return obs_probability(*args)

    def scoped(fn):
        def run(*args, **kwargs):
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1
        return run

    monkeypatch.setattr(cs, "obs_probability", counting)
    for name in ("brute_force_q", "reward_sufficiency_check"):
        monkeypatch.setattr(cs, name, scoped(getattr(cs, name)))
    records = harness.run_control_sep(7)
    assert all(r.status == "pass" for r in records)
    assert calls[True] == 0
    assert calls[False] > 0  # the counter sees policy_return's calls


def _reference_tree(p, immediate):
    """The per-node dict walk: Bayes steps and branch probabilities from
    ``belief_update`` and ``obs_probability``, one history at a time."""
    A, O, H = p.n_actions, p.n_obs, p.horizon
    levels = [{(): (p.b0.copy(), 1.0)}]
    for _ in range(H - 1):
        level = {}
        for history, (belief, reach) in levels[-1].items():
            for a in range(A):
                p_obs = cs.obs_probability(p, belief, a)
                for o in range(O):
                    if p_obs[o] > 0.0:
                        level[history + ((a, o),)] = (cs.belief_update(p, belief, a, o),
                                                      reach * p_obs[o] / A)
        levels.append(level)
    q_values, best = {}, {}
    for level in levels[::-1]:
        for history, (belief, _) in level.items():
            q = np.array(immediate(history, belief), dtype=float)
            if len(history) < H - 1:
                for a in range(A):
                    cont = 0.0
                    for o, prob in enumerate(cs.obs_probability(p, belief, a).tolist()):
                        if prob > 0.0:
                            cont += prob * best[history + ((a, o),)]
                    q[a] += cont
            q_values[history] = q
            best[history] = float(q.max())
    return {h: node for level in levels for h, node in level.items()}, q_values


def _stochastic(rng, shape, kind):
    """Row-stochastic rows on the last axis: dense, sparse or deterministic."""
    table = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    if kind == "sparse":
        table = np.where(rng.random(shape) < 0.5, 0.0, table)
        table[..., 0] += table.sum(axis=-1) == 0.0
    elif kind == "deterministic":
        table = np.eye(shape[-1])[rng.integers(shape[-1], size=shape[:-1])]
    return table / table.sum(axis=-1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4),
       n_actions=st.integers(1, 3), n_obs=st.integers(1, 3), horizon=st.integers(1, 4),
       trans_kind=st.sampled_from(["dense", "sparse", "deterministic"]),
       obs_kind=st.sampled_from(["dense", "sparse", "deterministic", "duplicated"]))
def test_the_level_tree_is_the_per_node_walk_bit_for_bit(seed, n_states, n_actions, n_obs,
                                                        horizon, trans_kind, obs_kind):
    rng = np.random.default_rng(seed)
    trans = _stochastic(rng, (n_states, n_actions, n_states), trans_kind)
    if obs_kind == "duplicated":
        # the last observation splits the first one's likelihood: equal
        # columns, so their histories share beliefs
        obs = _stochastic(rng, (n_states, n_obs), "dense")
        obs = np.hstack([obs, obs[:, :1]])
        obs[:, [0, -1]] /= 2.0
    else:
        obs = _stochastic(rng, (n_states, n_obs), obs_kind)
    p = cs.FinitePOMDP(trans, obs, rng.uniform(-1.0, 1.0, (n_states, n_actions)),
                       rng.dirichlet(np.ones(n_states)), horizon)
    want, q_star = _reference_tree(p, lambda history, belief: p.reward.T @ belief)
    tree = cs.brute_force_q(p)
    assert [history for level in tree.levels for history in level.histories] == list(want)
    for level, q_level in zip(tree.levels, tree.q_levels, strict=True):
        assert len(q_level) == len(level.histories)
        for history, belief, reach, q in zip(level.histories, level.beliefs, level.reach,
                                             q_level):
            assert belief.tobytes() == want[history][0].tobytes(), history
            assert reach.tobytes() == np.float64(want[history][1]).tobytes(), history
            assert q.tobytes() == q_star[history].tobytes(), history
    rep = cs.exact_belief_representation(p)
    _, q_rep = _reference_tree(p, lambda history, belief: [
        rep(history, (a,)) for a in range(p.n_actions)])
    out = cs.reward_sufficiency_check(tree, cs.exact_belief_representation(p))
    for level, q_level in zip(tree.levels, out["q_levels"], strict=True):
        assert len(q_level) == len(level.histories)
        for history, q in zip(level.histories, q_level):
            assert q.tobytes() == q_rep[history].tobytes(), history


# ---------------------------------------------------------------------------
# separation: equal beliefs, equal values
# ---------------------------------------------------------------------------


def test_separation_holds_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = cs.random_pomdp(rng, 3, 2, 2, 4)
        assert cs.verify_separation(cs.brute_force_q(p))["max_q_spread"] < 1e-9


def test_collision_instance_has_belief_groups():
    p = cs.belief_collision_pomdp()
    tree = cs.brute_force_q(p)
    report = cs.verify_separation(tree)
    # mixing transitions: the belief depends only on the last observation,
    # so distinct histories genuinely collide and the check has teeth
    assert report["groups"] < len(tree)
    root, depth_1 = tree.levels[:2]
    np.testing.assert_allclose(depth_1.beliefs[root.child[0, 0, 1]],
                               depth_1.beliefs[root.child[0, 1, 1]], rtol=0, atol=1e-15)
    assert report["max_q_spread"] == 0.0


def test_a_nan_action_value_fails_separation():
    p = cs.belief_collision_pomdp()
    tree = cs.brute_force_q(p)
    poisoned = dataclasses.replace(tree, q_levels=[np.full_like(q, np.nan) for q in tree.q_levels])
    report = cs.verify_separation(poisoned)
    assert np.isnan(report["max_q_spread"])
    assert not report["max_q_spread"] < 1e-9


# ---------------------------------------------------------------------------
# the belief policy
# ---------------------------------------------------------------------------


def test_belief_policy_achieves_the_tree_optimum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = cs.random_pomdp(rng, 3, 2, 2, 4)
        tree = cs.brute_force_q(p)
        policy = cs.belief_policy(tree)
        gap = cs.policy_return(p, policy) - cs.optimal_return(tree)
        assert abs(gap) < 1e-9


def test_policy_ties_break_to_the_lowest_action():
    # identical reward columns and identical transitions: every Q ties
    mix = np.array([[0.6, 0.4], [0.2, 0.8]])
    trans = np.stack([mix, mix], axis=1)
    reward = np.array([[1.0, 1.0], [-0.5, -0.5]])
    p = cs.FinitePOMDP(trans, np.array([[0.9, 0.1], [0.2, 0.8]]), reward,
                       [0.5, 0.5], 3)
    policy = cs.belief_policy(cs.brute_force_q(p))
    assert set(policy.values()) == {0}


# ---------------------------------------------------------------------------
# fully observable reduction
# ---------------------------------------------------------------------------


def test_identity_observations_reduce_to_the_mdp():
    stay = np.array([[0.9, 0.1], [0.2, 0.8]])
    go = np.array([[0.5, 0.5], [0.7, 0.3]])
    p = cs.FinitePOMDP(np.stack([stay, go], axis=1), np.eye(2),
                       [[1.0, 0.0], [-0.3, 0.6]], [0.4, 0.6], 4)
    tree = cs.brute_force_q(p)
    q_mdp = cs.mdp_value_iteration(p)
    np.testing.assert_allclose(tree.q_levels[0][0], p.b0 @ q_mdp[0],
                               rtol=0, atol=1e-12)
    for depth in range(1, p.horizon):
        for belief, q in zip(tree.levels[depth].beliefs, tree.q_levels[depth], strict=True):
            state = int(np.argmax(belief))
            assert belief[state] == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(q, q_mdp[depth][state], rtol=0, atol=1e-12)


def test_value_iteration_on_a_one_state_chain():
    p = cs.FinitePOMDP(np.ones((1, 2, 1)), np.ones((1, 1)),
                       [[1.0, 0.5]], [1.0], 3)
    q = cs.mdp_value_iteration(p)
    # V accumulates the best reward per remaining step
    np.testing.assert_allclose(q[0], [[3.0, 2.5]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(q[2], [[1.0, 0.5]], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# reward sufficiency
# ---------------------------------------------------------------------------


def test_exact_reward_prediction_reconstructs_q():
    rng = np.random.default_rng(2)
    instances = [cs.counterexample_pomdp(), cs.belief_collision_pomdp()]
    instances += [cs.random_pomdp(rng, 3, 2, 2, 4) for _ in range(5)]
    for p in instances:
        rep = cs.exact_belief_representation(p)
        out = cs.reward_sufficiency_check(cs.brute_force_q(p), rep)
        assert out["max_dev"] < 1e-9


def test_observation_blind_representation_is_insufficient():
    p = cs.counterexample_pomdp()
    out = cs.reward_sufficiency_check(cs.brute_force_q(p), cs.collapsing_representation(p))
    assert out["max_dev"] > 0.1


def test_a_nan_reward_prediction_is_not_certified_sufficient():
    p = cs.belief_collision_pomdp()
    out = cs.reward_sufficiency_check(cs.brute_force_q(p),
                                      lambda history, actions: float("nan"))
    assert np.isnan(out["max_dev"])


def _full_replay(p, history, actions):
    belief = p.b0
    for a, o in history:
        belief = cs.belief_update(p, belief, a, o)
    for a in actions[:-1]:
        belief = belief @ p.trans[:, a, :]
    return float(p.reward[:, actions[-1]] @ belief)


def test_the_belief_representation_in_any_query_order_is_a_full_replay():
    # the representation replays only the suffix a history does not share
    # with the last one it replayed; shuffled queries, a zero-probability
    # history that raises midway, and planned sequences of one to three
    # actions must all leave every answer a full replay from b0, bit for bit
    rng = np.random.default_rng(43)
    for p in [cs.random_pomdp(rng, 3, 3, 2, 4), cs.random_pomdp(rng, 4, 2, 3, 4)]:
        rep = cs.exact_belief_representation(p)
        # deepest level first, each level in tree order
        histories = [history for level in cs.brute_force_q(p).levels[::-1]
                     for history in level.histories]
        for i in rng.permutation(len(histories)):
            actions = tuple(rng.integers(0, p.n_actions, size=rng.integers(1, 4)).tolist())
            assert rep(histories[i], actions) == _full_replay(p, histories[i], actions)
    # in state 0 observation 1 has probability zero; action 1 flips the state
    p = cs.FinitePOMDP(np.stack([np.eye(2), np.eye(2)[::-1]], axis=1),
                       [[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [-1.0, 0.5]],
                       [1.0, 0.0], horizon=3)
    rep = cs.exact_belief_representation(p)
    refused = 0
    for history in [((1, 0), (0, 1)), ((1, 1), (1, 1)), ((1, 1), (1, 0), (0, 1)),
                    ((0, 1),), ((1, 1), (0, 0)), ((1, 1), (1, 0))]:
        try:
            want = _full_replay(p, history, (1, 0))
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="zero probability"):
                rep(history, (1, 0))
        else:
            assert rep(history, (1, 0)) == want
    assert refused == 3


def test_the_belief_representation_after_a_refused_history_is_a_full_replay():
    # a history refused partway keeps the beliefs it did reach; asking again
    # for the shared prefix, or for the empty history, must not answer from
    # a belief further along the refused history
    p = cs.FinitePOMDP(np.stack([np.eye(2), np.eye(2)[::-1]], axis=1),
                       [[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [-1.0, 0.5]],
                       [1.0, 0.0], horizon=3)
    for prefix in [((1, 1),), ()]:
        rep = cs.exact_belief_representation(p)
        assert rep(prefix, (1, 0)) == _full_replay(p, prefix, (1, 0))
        with pytest.raises(ValueError, match="zero probability"):
            rep(((1, 1), (1, 0), (0, 1)), (1, 0))
        for history in [prefix, ((1, 1),), ((1, 1), (1, 0)), (), prefix]:
            assert rep(history, (1, 0)) == _full_replay(p, history, (1, 0))


def test_reward_sufficiency_makes_one_bayes_update_per_history(monkeypatch):
    # the histories come children first with each subtree in one run, so
    # the representation steps into each history once; a replay from b0 per
    # query makes about A x depth updates per history
    calls = [0]
    update = cs.belief_update

    def counting_update(*args):
        calls[0] += 1
        return update(*args)

    rng = np.random.default_rng(47)
    for p in [cs.random_pomdp(rng, 3, 3, 3, 5), cs.random_pomdp(rng, 2, 2, 2, 4),
              cs.counterexample_pomdp(), cs.belief_collision_pomdp()]:
        tree = cs.brute_force_q(p)
        monkeypatch.setattr(cs, "belief_update", counting_update)
        calls[0] = 0
        out = cs.reward_sufficiency_check(tree, cs.exact_belief_representation(p))
        monkeypatch.undo()
        assert out["max_dev"] < 1e-9
        assert calls[0] <= len(tree)


def test_open_loop_reward_predictions_match_enumeration():
    p = tiger_like()
    rep = cs.exact_belief_representation(p)
    history = ((0, 1), (1, 0))
    b = cs.belief_update(p, cs.belief_update(p, p.b0, 0, 1), 1, 0)
    # two planned actions: propagate through the first, reward on the second
    expect = float((b @ p.trans[:, 0, :]) @ p.reward[:, 1])
    assert rep(history, (0, 1)) == pytest.approx(expect, abs=1e-12)
    # single action: expected immediate reward under the belief
    assert rep(history, (1,)) == pytest.approx(float(b @ p.reward[:, 1]),
                                               abs=1e-12)
