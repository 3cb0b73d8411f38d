"""LBMC — cost-estimation-based BMC learning (Section 5, Algorithm 3).

States are BMCs (one-hot encoded bit-order vectors), actions are
adjacent-bit swaps (never swapping two bits of the same dimension, which
would produce an invalid BMC), and the reward for a swap is the
*relative cost reduction* ``(C_t - C_{t+1}) / C_1`` where ``C`` is the
constant-time workload cost ``Cg * Cl`` from
:class:`repro.core.cost_model.WorkloadCostEstimator`.  Because each
reward evaluation is O(1), the whole search runs in time independent of
both the dataset size and (after the one-off O(n) init) the number of
queries — the property measured in Table 7.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from .dqn import QNetwork, ReplayMemory

# ε of the first training episode, decayed linearly to EPSILON_END by the
# last: explore early, exploit late
EPSILON = 0.9
EPSILON_END = 0.05
HIDDEN = 64  # Q-network hidden units
LR = 3e-3  # Adam learning rate
GAMMA = 0.9  # discount of the long-term value
REPLAY_CAPACITY = 2048
BATCH_SIZE = 32  # replay minibatch; training starts once the memory holds one


def encode(sigma: BMC) -> np.ndarray:
    """One-hot encoding φ(σ) (Section 5): d floats per bit slot."""
    out = np.zeros((sigma.nbits, sigma.d))
    out[np.arange(sigma.nbits), sigma.slots] = 1.0
    return out.ravel()


def valid_action_mask(sigma: BMC) -> np.ndarray:
    """Mask over swap positions 1..nbits-1 (index a-1 = position a):
    ``BMC.can_swap`` of every position at once."""
    slots = np.asarray(sigma.slots)
    return slots[:-1] != slots[1:]


def _select_action(rng, net: QNetwork, epsilon: float, sigma, c_t, c1, cost) -> int:
    """Action selection integrating the paper's two approaches (§5).

    With probability ε: a random valid swap (exploration).  Otherwise
    (exploitation): one-step lookahead — Section 5 defines
    exploitation as "select a position that leads to the largest
    query cost reduction"; each candidate swap's immediate reward is
    an O(1) cost-model call, and the learned Q-network supplies the
    long-term value of the resulting state, so the choice maximizes
    ``immediate reward + GAMMA * max_a' Q(s', a')``.
    """
    valid = np.flatnonzero(valid_action_mask(sigma))
    if rng.random() < epsilon:
        return int(rng.choice(valid))
    next_states = []
    immediate = []
    for a in valid:
        nxt = sigma.swap(int(a) + 1)
        immediate.append((c_t - cost(nxt)) / c1 if c1 else 0.0)
        next_states.append(encode(nxt))
    future = net.forward(np.stack(next_states)).max(axis=1)
    score = np.asarray(immediate) + GAMMA * future
    return int(valid[int(np.argmax(score))])


@dataclass
class LBMCResult:
    """Outcome of one LBMC run."""

    best: BMC
    best_cost: int
    initial_cost: int
    cost_history: list[float] = field(default_factory=list)  # C_t / C_1 per step
    reward_seconds: float = 0.0
    n_reward_evals: int = 0


class LBMC:
    """Algorithm 3: deep-Q-learning over adjacent bit swaps."""

    def __init__(self, estimator: WorkloadCostEstimator, episodes: int = 12, seed: int = 0):
        self.est = estimator
        self.episodes = episodes
        self.seed = seed

    def learn(
        self, sigma1: BMC | None = None, warm_start: list[BMC] | None = None
    ) -> LBMCResult:
        """Run M episodes x T steps from ``sigma1`` (default: ZC), then
        one pure-exploitation episode from the best curve found.

        ``warm_start`` optionally supplies extra initial candidates; the
        cheapest one (under the O(1) cost model — a few microseconds per
        candidate) becomes the starting state.  The paper notes σ1 "can
        be any initial BMC"; warm-starting from a query-shape candidate
        family compensates for our scaled-down DQN budget, which cannot
        traverse the ~d*ell^2-swap distance between curve basins that
        the paper's long TensorFlow training runs can (DESIGN.md §3).
        """
        d, ell = self.est.d, self.est.ell
        sigma1 = sigma1 or BMC.zc(d, ell)
        if (sigma1.d, sigma1.ell) != (d, ell):
            raise ValueError("initial BMC shape mismatch")
        if warm_start:
            sigma1, _ = self.est.best_of([sigma1, *warm_start])
        steps = 3 * d * ell  # enough swaps to move any bit anywhere
        net = QNetwork(sigma1.nbits * d, sigma1.nbits - 1, hidden=HIDDEN, lr=LR, seed=self.seed)
        memory = ReplayMemory(REPLAY_CAPACITY, seed=self.seed + 1)
        rng = np.random.default_rng(self.seed + 2)
        reward_sec = 0.0
        n_evals = 0

        def cost(sig: BMC) -> int:
            nonlocal reward_sec, n_evals
            r0 = time.perf_counter()
            c = self.est.cost(sig)
            reward_sec += time.perf_counter() - r0
            n_evals += 1
            return c

        c1 = cost(sigma1)
        best, best_cost = sigma1, c1
        history: list[float] = []

        def rollout(sigma: BMC, c_t: int, epsilon: float, train: bool) -> None:
            """One episode of ``steps`` swaps, keeping the best curve seen;
            when training, store each transition and take one TD step on a
            replay minibatch (Algorithm 3 lines 5-8)."""
            nonlocal best, best_cost
            state = encode(sigma) if train else None
            for _ in range(steps):
                a = _select_action(rng, net, epsilon, sigma, c_t, c1, cost)
                nxt = sigma.swap(a + 1)  # positions are 1-indexed
                c_next = cost(nxt)
                if train:
                    next_state = encode(nxt)
                    memory.push(state, a, (c_t - c_next) / c1 if c1 else 0.0, next_state)
                    if len(memory) >= BATCH_SIZE:
                        batch = zip(*memory.sample(BATCH_SIZE))
                        states, actions, rewards, next_states = map(np.array, batch)
                        targets = rewards + GAMMA * net.forward(next_states).max(axis=1)
                        net.train_step(states, actions, targets)
                    state = next_state
                sigma, c_t = nxt, c_next
                history.append(c_t / c1 if c1 else 1.0)
                if c_t < best_cost:
                    best, best_cost = sigma, c_t

        for ep in range(self.episodes):
            frac = ep / max(1, self.episodes - 1)
            rollout(sigma1, c1, EPSILON + (EPSILON_END - EPSILON) * frac, train=True)
        rollout(best, best_cost, 0.0, train=False)
        return LBMCResult(
            best=best,
            best_cost=best_cost,
            initial_cost=c1,
            cost_history=history,
            reward_seconds=reward_sec,
            n_reward_evals=n_evals,
        )


def greedy_hill_climb(
    estimator: WorkloadCostEstimator, sigma1: BMC | None = None, max_rounds: int = 50
) -> tuple[BMC, int]:
    """Pure-exploitation reference (Section 5's approach (b)): repeatedly
    take the adjacent swap with the largest cost reduction.  Used in
    tests as a sanity bound on LBMC's output quality."""
    sigma = sigma1 or BMC.zc(estimator.d, estimator.ell)
    c = estimator.cost(sigma)
    for _ in range(max_rounds):
        best_a, best_c = None, c
        for a in range(1, sigma.nbits):
            if not sigma.can_swap(a):
                continue
            c2 = estimator.cost(sigma.swap(a))
            if c2 < best_c:
                best_a, best_c = a, c2
        if best_a is None:
            break
        sigma, c = sigma.swap(best_a), best_c
    return sigma, c
