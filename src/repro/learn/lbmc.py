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
from .dqn import DQNAgent


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


@dataclass
class LBMCResult:
    """Outcome of one LBMC run."""

    best: BMC
    best_cost: int
    initial_cost: int
    cost_history: list[float] = field(default_factory=list)  # C_t / C_1 per step
    learn_seconds: float = 0.0
    reward_seconds: float = 0.0
    n_reward_evals: int = 0


class LBMC:
    """Algorithm 3: deep-Q-learning over adjacent bit swaps."""

    def __init__(
        self,
        estimator: WorkloadCostEstimator,
        episodes: int = 12,
        steps: int | None = None,
        epsilon: float = 0.9,
        epsilon_end: float = 0.05,
        hidden: int = 64,
        lr: float = 3e-3,
        gamma: float = 0.9,
        replay_capacity: int = 2048,
        batch_size: int = 32,
        seed: int = 0,
    ):
        self.est = estimator
        self.episodes = episodes
        # default episode length: enough swaps to move any bit anywhere
        self.steps = steps if steps is not None else 3 * estimator.d * estimator.ell
        self.epsilon = epsilon
        self.epsilon_end = epsilon_end
        self.hidden = hidden
        self.lr = lr
        self.gamma = gamma
        self.replay_capacity = replay_capacity
        self.batch_size = batch_size
        self.seed = seed

    def _select_action(self, agent, sigma, c_t, c1, mask, cost) -> int:
        """Action selection integrating the paper's two approaches (§5).

        With probability ε: a random valid swap (exploration).  Otherwise
        (exploitation): one-step lookahead — Section 5 defines
        exploitation as "select a position that leads to the largest
        query cost reduction"; each candidate swap's immediate reward is
        an O(1) cost-model call, and the learned Q-network supplies the
        long-term value of the resulting state, so the choice maximizes
        ``immediate reward + gamma * max_a' Q(s', a')``.
        """
        valid = np.flatnonzero(mask)
        if agent._rng.random() < agent.epsilon:
            return int(agent._rng.choice(valid))
        next_states = []
        immediate = []
        for a in valid:
            nxt = sigma.swap(int(a) + 1)
            immediate.append((c_t - cost(nxt)) / c1 if c1 else 0.0)
            next_states.append(encode(nxt))
        future = agent.net.forward(np.stack(next_states)).max(axis=1)
        score = np.asarray(immediate) + agent.gamma * future
        return int(valid[int(np.argmax(score))])

    def learn(
        self, sigma1: BMC | None = None, warm_start: list[BMC] | None = None
    ) -> LBMCResult:
        """Run M episodes x T steps from ``sigma1`` (default: ZC).

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
        t0 = time.perf_counter()
        agent = DQNAgent(
            n_in=sigma1.nbits * d,
            n_actions=sigma1.nbits - 1,
            hidden=self.hidden,
            lr=self.lr,
            gamma=self.gamma,
            epsilon=self.epsilon,
            replay_capacity=self.replay_capacity,
            batch_size=self.batch_size,
            seed=self.seed,
        )
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
        for ep in range(self.episodes):
            # linear ε decay across episodes: explore early, exploit late
            frac = ep / max(1, self.episodes - 1)
            agent.epsilon = self.epsilon + (self.epsilon_end - self.epsilon) * frac
            sigma, c_t = sigma1, c1
            state = encode(sigma)
            for _ in range(self.steps):
                mask = valid_action_mask(sigma)
                a = self._select_action(agent, sigma, c_t, c1, mask, cost)
                nxt = sigma.swap(a + 1)  # positions are 1-indexed
                c_next = cost(nxt)
                r = (c_t - c_next) / c1 if c1 else 0.0
                next_state = encode(nxt)
                agent.observe(state, a, r, next_state)
                sigma, c_t, state = nxt, c_next, next_state
                history.append(c_t / c1 if c1 else 1.0)
                if c_t < best_cost:
                    best, best_cost = sigma, c_t
        # final pure-exploitation rollout from the best curve found:
        # follow the lookahead policy for one episode, keeping improvements
        agent.epsilon = 0.0
        sigma, c_t = best, best_cost
        for _ in range(self.steps):
            mask = valid_action_mask(sigma)
            a = self._select_action(agent, sigma, c_t, c1, mask, cost)
            sigma = sigma.swap(a + 1)
            c_t = cost(sigma)
            history.append(c_t / c1 if c1 else 1.0)
            if c_t < best_cost:
                best, best_cost = sigma, c_t
        return LBMCResult(
            best=best,
            best_cost=best_cost,
            initial_cost=c1,
            cost_history=history,
            learn_seconds=time.perf_counter() - t0,
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
