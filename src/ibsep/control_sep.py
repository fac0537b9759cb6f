"""Separation principle on finite POMDPs, verified by exhaustive search.

Everything here is exact: the optimal Q-function is computed by backward
induction over the complete (action, observation) history tree, beliefs by
discrete Bayes updates, and the claims under test — that Q* depends on the
history only through the belief, that the greedy belief policy achieves the
history-optimal return, and that exact reward prediction suffices to
reconstruct Q* — are checked to floating-point tolerance rather than
estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FinitePOMDP",
    "belief_update",
    "obs_probability",
    "brute_force_q",
    "verify_separation",
    "belief_policy",
    "policy_return",
    "optimal_return",
    "reward_sufficiency_check",
    "exact_belief_representation",
    "collapsing_representation",
    "mdp_value_iteration",
    "random_pomdp",
    "belief_collision_pomdp",
    "counterexample_pomdp",
]

_NODE_CAP = 10**6
_GROUP_DECIMALS = 10  # canonical belief rounding for deterministic grouping


@dataclass(frozen=True)
class FinitePOMDP:
    """Finite POMDP with tables trans[s, a, s'], obs[s, o], reward[s, a].

    ``b0`` is the initial state distribution and ``horizon`` the number of
    actions taken. Rewards are deterministic functions of (state, action);
    a stochastic reward enters through its conditional mean, which is all
    expected-return computations can see.
    """

    trans: np.ndarray  # (S, A, S)
    obs: np.ndarray  # (S, O)
    reward: np.ndarray  # (S, A)
    b0: np.ndarray  # (S,)
    horizon: int

    def __post_init__(self):
        trans = np.asarray(self.trans, dtype=float)
        obs = np.asarray(self.obs, dtype=float)
        reward = np.asarray(self.reward, dtype=float)
        b0 = np.asarray(self.b0, dtype=float).reshape(-1)
        S = b0.size
        if trans.ndim != 3 or trans.shape[0] != S or trans.shape[2] != S:
            raise ValueError("transition table must have shape (S, A, S)")
        A = trans.shape[1]
        if obs.shape[0] != S or obs.ndim != 2:
            raise ValueError("observation table must have shape (S, O)")
        if reward.shape != (S, A):
            raise ValueError("reward table must have shape (S, A)")
        for axis, size in (("state", S), ("action", A), ("observation", obs.shape[1])):
            if size == 0:
                raise ValueError(f"POMDP has an empty {axis} axis (transition table "
                                 f"{trans.shape}, observation table {obs.shape})")
        for name, table in (("transition table", trans), ("observation table", obs),
                            ("reward table", reward), ("initial distribution", b0)):
            if not np.all(np.isfinite(table)):
                raise ValueError(f"{name} has non-finite entries")
        for name, table, axis in (("transition", trans, 2), ("observation", obs, 1)):
            if np.any(table < -1e-12):
                raise ValueError(f"{name} table has negative entries")
            if np.max(np.abs(table.sum(axis=axis) - 1.0)) > 1e-12:
                raise ValueError(f"{name} table rows must sum to 1")
        if abs(b0.sum() - 1.0) > 1e-12 or np.any(b0 < -1e-12):
            raise ValueError("initial distribution must be a probability vector")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "b0", b0)

    @property
    def n_states(self) -> int:
        return self.b0.size

    @property
    def n_actions(self) -> int:
        return self.trans.shape[1]

    @property
    def n_obs(self) -> int:
        return self.obs.shape[1]


# ---------------------------------------------------------------------------
# beliefs
# ---------------------------------------------------------------------------


def obs_probability(pomdp: FinitePOMDP, belief, a: int) -> np.ndarray:
    """p(o | belief, a) for every observation."""
    pushed = np.asarray(belief, dtype=float) @ pomdp.trans[:, a, :]
    return pushed @ pomdp.obs


def belief_update(pomdp: FinitePOMDP, belief, a: int, o: int) -> np.ndarray:
    """Bayes step: b'(s') ∝ Ω(o|s') Σ_s T(s'|s,a) b(s).

    Raises on observations with zero probability under (belief, a); such
    branches are pruned by the tree construction instead of updated.
    """
    weighted = (np.asarray(belief, dtype=float) @ pomdp.trans[:, a, :]) * pomdp.obs[:, o]
    total = weighted.sum()
    if total <= 0.0:
        raise ValueError(f"observation {o} has zero probability after action {a}")
    return weighted / total


# ---------------------------------------------------------------------------
# exhaustive optimal control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Level:
    """The nodes of one depth of the history tree, in tree order."""

    histories: list  # ((a_1, o_1), ..., (a_t, o_t)) per node
    beliefs: np.ndarray  # (N, S)
    reach: np.ndarray  # (N,) probability under uniformly drawn actions
    p_obs: np.ndarray = None  # (N, A, O) p(o | history, a); None on the last level
    child: np.ndarray = None  # (N, A, O) the branch's row in the next level, -1 if pruned


def _belief_tree(pomdp: FinitePOMDP, depth: int) -> list:
    """Reachable histories down to ``depth`` steps, one :class:`_Level` per depth.

    Children come parent by parent, then action-major, then by
    observation; zero-probability ones are pruned. Each level makes one
    stacked push per action, and the branch probabilities and every
    child's Bayes update come from that push, bit for bit the per-node
    ``belief @ trans[:, a, :]``, ``@ obs`` and :func:`belief_update`.
    """
    A = pomdp.n_actions
    histories, beliefs, reach = [()], pomdp.b0[None, :].copy(), np.ones(1)
    levels = []
    for _ in range(depth):
        pushed = np.stack([(beliefs[:, None, :] @ pomdp.trans[:, a, :])[:, 0, :]
                           for a in range(A)], axis=1)  # (N, A, S)
        p_obs = (pushed[:, :, None, :] @ pomdp.obs)[:, :, 0, :]
        kept = p_obs > 0.0
        child = np.full(kept.shape, -1)
        child[kept] = np.arange(np.count_nonzero(kept))
        levels.append(_Level(histories, beliefs, reach, p_obs, child))
        weighted = (pushed[:, :, None, :] * pomdp.obs.T)[kept]
        beliefs = weighted / weighted.sum(axis=1)[:, None]
        reach = (reach[:, None, None] * p_obs / A)[kept]
        histories = [histories[n] + ((a, o),)
                     for n, a, o in zip(*(index.tolist() for index in kept.nonzero()))]
    levels.append(_Level(histories, beliefs, reach))
    return levels


def _induction(levels: list, immediate: list) -> list:
    """Q of each level's nodes, an (N, A) array per level.

    Q(h, a) = immediate(h)[a] + Σ_o p(o|h,a) max_a' Q(h+(a,o), a'), the sum
    taken in observation order over the unpruned branches; the last level
    keeps only the immediate term. ``immediate`` holds one (N, A) table
    per level.
    """
    q_levels, best = [], None
    for level, q in zip(levels[::-1], immediate[::-1]):
        q = np.array(q, dtype=float)
        if level.p_obs is not None:
            best = np.append(best, 0.0)  # row -1: a pruned branch adds ±0
            cont = np.zeros(q.shape)
            for o in range(level.p_obs.shape[2]):
                cont += level.p_obs[:, :, o] * best[level.child[:, :, o]]
            q += cont
        best = q.max(axis=1)
        q_levels.append(q)
    return q_levels[::-1]


@dataclass(frozen=True, eq=False)
class _LevelTree:
    """``brute_force_q``'s history tree as per-depth arrays; its length is the node count."""

    levels: list  # one _Level per depth
    q_levels: list  # (N, A) Q* per level
    belief_keys: list  # each node's (depth, rounded belief) key, per level

    def __len__(self) -> int:
        return sum(len(level.histories) for level in self.levels)


def brute_force_q(pomdp: FinitePOMDP) -> _LevelTree:
    """Q* for every reachable history, one (N, A) array per depth.

    Backward induction with the immediate term E_b[r(s, a)]. The full tree
    is enumerated — a size guard rejects instances above 10^6 nodes. The
    result also carries the levels and each node's belief key, and the
    oracles below take it in place of the instance.
    """
    est = sum((pomdp.n_actions * pomdp.n_obs) ** t for t in range(pomdp.horizon))
    if est > _NODE_CAP:
        raise ValueError(f"history tree would need {est} nodes (cap {_NODE_CAP})")
    levels = _belief_tree(pomdp, pomdp.horizon - 1)
    rewards = [(pomdp.reward.T @ level.beliefs[:, :, None])[:, :, 0] for level in levels]
    keys = [_belief_keys(depth, level.beliefs) for depth, level in enumerate(levels)]
    return _LevelTree(levels, _induction(levels, rewards), keys)


def _belief_keys(depth: int, beliefs) -> list:
    """The (depth, belief rounded to 10 decimals) key of each row of ``beliefs``."""
    rounded = np.asarray(beliefs, dtype=float).round(_GROUP_DECIMALS)
    rounded += 0.0  # normalize -0.0
    return [(depth, tuple(row)) for row in rounded.tolist()]


def verify_separation(tree: _LevelTree) -> dict:
    """Group equal-belief histories and measure the Q* spread inside groups.

    Histories of the same depth whose beliefs agree after rounding to
    1e-10 share a group; ``max_q_spread`` is the largest (max - min) of
    any action's Q* within a group, and ``groups`` the number of groups.
    The separation claim is exactly this: equal beliefs must give equal
    action values.
    """
    spreads, n_groups = [], 0
    for keys, q in zip(tree.belief_keys, tree.q_levels):
        groups = {}
        for row, key in enumerate(keys):
            groups.setdefault(key, []).append(row)
        n_groups += len(groups)
        spreads += [np.ptp(q[rows], axis=0) for rows in groups.values() if len(rows) > 1]
    # one NumPy reduction, so a NaN action value reaches max_q_spread
    return {"max_q_spread": float(np.max(spreads, initial=0.0)), "groups": n_groups}


def belief_policy(tree: _LevelTree) -> dict:
    """Greedy policy tabulated on reachable beliefs.

    Maps the canonical (depth, rounded-belief) key to the argmax action of
    the group's Q* (lowest index on ties).
    """
    policy = {}
    for keys, q in zip(tree.belief_keys[::-1], tree.q_levels[::-1]):
        # ties broken toward the lowest action index by argmax
        for key, action in zip(keys, q.argmax(axis=1).tolist()):
            policy.setdefault(key, action)
    return policy


def policy_return(pomdp: FinitePOMDP, policy: dict) -> float:
    """Exact expected return of a belief-keyed policy."""

    def value(belief, depth):
        a = policy[_belief_keys(depth, [belief])[0]]
        total = float(pomdp.reward[:, a] @ belief)
        if depth < pomdp.horizon - 1:
            p_obs = obs_probability(pomdp, belief, a)
            for o in range(pomdp.n_obs):
                if p_obs[o] <= 0.0:
                    continue
                total += p_obs[o] * value(belief_update(pomdp, belief, a, o), depth + 1)
        return total

    return value(pomdp.b0.copy(), 0)


def optimal_return(tree: _LevelTree) -> float:
    """max_a Q*(∅, a): the history-tree optimum."""
    return float(tree.q_levels[0][0].max())


# ---------------------------------------------------------------------------
# reward sufficiency
# ---------------------------------------------------------------------------


def reward_sufficiency_check(tree: _LevelTree, representation) -> dict:
    """Rebuild the action values using only reward predictions.

    ``representation(history, actions)`` must return the expected reward
    earned by the last action of ``actions`` when that open-loop sequence
    is executed after ``history``. The reconstruction runs the same
    backward induction as ``brute_force_q`` but replaces every expected
    immediate reward with the representation's prediction; observation
    branching probabilities still come from the environment, read from
    ``brute_force_q``'s ``tree`` rather than recomputed. If the
    representation's reward predictions are exact, the rebuilt values
    (``q_levels``, one array per depth) must equal Q* — that is the
    sufficiency claim. The histories are queried depth-first, children
    before parent, so a representation that replays only what a history
    does not share with the last one makes one Bayes update per history.
    """
    actions = range(tree.q_levels[0].shape[1])
    # a history sorts below its extensions, so descending order is depth-first
    # with every history after its subtree
    histories = sorted((history for level in tree.levels for history in level.histories),
                       reverse=True)
    predicted = {history: [representation(history, (a,)) for a in actions]
                 for history in histories}
    q_levels = _induction(tree.levels, [[predicted[history] for history in level.histories]
                                        for level in tree.levels])
    # one NumPy reduction, so a NaN prediction reaches max_dev
    max_dev = float(np.max(np.abs(np.concatenate(q_levels) - np.concatenate(tree.q_levels))))
    return {"q_levels": q_levels, "max_dev": max_dev}


def _open_loop_reward(pomdp: FinitePOMDP, belief, actions) -> float:
    """Expected reward of the last of ``actions``, all taken unobserved."""
    for a in actions[:-1]:
        belief = belief @ pomdp.trans[:, a, :]
    return float(pomdp.reward[:, actions[-1]] @ belief)


def exact_belief_representation(pomdp: FinitePOMDP):
    """Reward predictor carrying the full belief — the sufficient statistic.

    Replays the history with Bayes updates from b0, then propagates the
    belief open-loop through the planned actions (no intermediate
    observations) and returns the expected reward of the final action.
    It keeps the beliefs along the last history replayed, reuses them
    as they are for a repeat of that history and otherwise replays only
    what the new history does not share with it: a full replay, bit for
    bit.
    """
    beliefs, replayed = [pomdp.b0.copy()], []  # beliefs[d]: after replayed[:d]

    def predict(history, actions):
        if list(history) != replayed:
            shared = 0
            for step, seen in zip(history, replayed):
                if step != seen:
                    break
                shared += 1
            del beliefs[shared + 1:], replayed[shared:]
            for a, o in history[shared:]:
                beliefs.append(belief_update(pomdp, beliefs[-1], a, o))
                replayed.append((a, o))
        return _open_loop_reward(pomdp, beliefs[-1], actions)

    return predict


def collapsing_representation(pomdp: FinitePOMDP):
    """Reward predictor that discards observations (keeps only actions).

    Its state after a history is the open-loop action-propagated prior, so
    belief-distinct histories with the same action sequence collapse to one
    prediction — insufficient whenever observations matter for reward.
    """

    def predict(history, actions):
        return _open_loop_reward(pomdp, pomdp.b0, [a for a, _o in history] + list(actions))

    return predict


# ---------------------------------------------------------------------------
# oracles and instances
# ---------------------------------------------------------------------------


def mdp_value_iteration(pomdp: FinitePOMDP) -> list:
    """Finite-horizon optimal state-action values of the underlying MDP.

    Returns [Q_0, ..., Q_{H-1}] with Q_t of shape (S, A). This ignores
    partial observability, so it matches ``brute_force_q`` exactly when
    observations are the identity.
    """
    S, A, H = pomdp.n_states, pomdp.n_actions, pomdp.horizon
    q_next_best = np.zeros(S)
    out = []
    for _ in range(H):
        q = pomdp.reward + np.einsum("sat,t->sa", pomdp.trans, q_next_best)
        out.append(q)
        q_next_best = q.max(axis=1)
    out.reverse()
    return out


def random_pomdp(rng, n_states=3, n_actions=2, n_obs=2, horizon=4) -> FinitePOMDP:
    """Dirichlet-random instance with rewards in [-1, 1]."""
    trans = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    obs = rng.dirichlet(np.ones(n_obs), size=n_states)
    reward = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    b0 = rng.dirichlet(np.ones(n_states))
    return FinitePOMDP(trans, obs, reward, b0, horizon)


def belief_collision_pomdp() -> FinitePOMDP:
    """Instance where distinct histories provably share beliefs.

    Transitions fully mix the state regardless of action, so the belief
    after any step depends only on the last observation — histories that
    differ in actions or earlier observations collide. Rewards still vary
    with (state, action), so the Q values are nontrivial.
    """
    mix = np.full((2, 2), 0.5)
    trans = np.stack([mix, mix], axis=1)  # (S, A, S)
    obs = np.array([[0.8, 0.2], [0.3, 0.7]])
    reward = np.array([[1.0, -0.5], [-1.0, 0.75]])
    b0 = np.array([0.5, 0.5])
    return FinitePOMDP(trans, obs, reward, b0, horizon=3)


def counterexample_pomdp() -> FinitePOMDP:
    """Instance where throwing observations away is provably insufficient.

    Observations nearly identify the state and rewards depend on it, so
    the observation-blind representation mispredicts rewards and its
    reconstructed action values deviate from Q*.
    """
    stay = np.eye(2)
    flip = np.array([[0.1, 0.9], [0.9, 0.1]])
    trans = np.stack([stay, flip], axis=1)
    obs = np.array([[0.95, 0.05], [0.05, 0.95]])
    reward = np.array([[1.0, 0.0], [-1.0, 0.25]])
    b0 = np.array([0.5, 0.5])
    return FinitePOMDP(trans, obs, reward, b0, horizon=3)
