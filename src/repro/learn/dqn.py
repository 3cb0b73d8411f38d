"""Minimal deep-Q-network substrate for LBMC (Section 5).

The paper trains its DQN with TensorFlow, which is unavailable offline;
this is a from-scratch numpy substitute (documented in DESIGN.md): a
one-hidden-layer MLP Q-network trained by Adam on minibatches sampled
from a replay memory.  Same semantics as [Mnih et al. 2013] as used by
Algorithm 3; the ε-greedy choice among valid swaps, the TD step on a
replay minibatch and the DQN's settings live in LBMC (``lbmc.py``).
"""
from __future__ import annotations

from collections import deque

import numpy as np


class ReplayMemory:
    """Fixed-capacity transition store ``MQ`` (Algorithm 3, line 1)."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.buf: deque = deque(maxlen=capacity)
        self._rng = np.random.default_rng(seed)

    def push(self, state, action, reward, next_state) -> None:
        self.buf.append((state, action, reward, next_state))

    def sample(self, batch_size: int):
        idx = self._rng.integers(0, len(self.buf), size=min(batch_size, len(self.buf)))
        return [self.buf[i] for i in idx]

    def __len__(self) -> int:
        return len(self.buf)


class QNetwork:
    """One-hidden-layer MLP: state one-hot -> Q-value per action."""

    def __init__(self, n_in: int, n_actions: int, hidden: int = 64, lr: float = 1e-3, seed: int = 0):
        g = np.random.default_rng(seed)
        self.w1 = g.standard_normal((n_in, hidden)) * np.sqrt(2.0 / n_in)
        self.b1 = np.zeros(hidden)
        self.w2 = g.standard_normal((hidden, n_actions)) * np.sqrt(2.0 / hidden)
        self.b2 = np.zeros(n_actions)
        self.lr = lr
        # Adam state
        self._t = 0
        self._m = [np.zeros_like(p) for p in (self.w1, self.b1, self.w2, self.b2)]
        self._v = [np.zeros_like(p) for p in (self.w1, self.b1, self.w2, self.b2)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a batch of states, shape (batch, n_actions)."""
        x = np.atleast_2d(x)
        h = np.maximum(0.0, x @ self.w1 + self.b1)
        return h @ self.w2 + self.b2

    def train_step(self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray) -> float:
        """One Adam step on MSE between Q(s)[a] and the TD targets.

        Returns the minibatch loss (for monitoring/tests)."""
        x = np.atleast_2d(states)
        n = len(x)
        h_pre = x @ self.w1 + self.b1
        h = np.maximum(0.0, h_pre)
        q = h @ self.w2 + self.b2
        pred = q[np.arange(n), actions]
        err = pred - targets
        loss = float(np.mean(err**2))
        # backprop (gradient only through the selected action's output)
        dq = np.zeros_like(q)
        dq[np.arange(n), actions] = 2.0 * err / n
        dw2 = h.T @ dq
        db2 = dq.sum(axis=0)
        dh = dq @ self.w2.T
        dh[h_pre <= 0] = 0.0
        dw1 = x.T @ dh
        db1 = dh.sum(axis=0)
        self._adam([dw1, db1, dw2, db2])
        return loss

    def _adam(self, grads, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
        self._t += 1
        params = [self.w1, self.b1, self.w2, self.b2]
        for i, (p, gr) in enumerate(zip(params, grads)):
            self._m[i] = beta1 * self._m[i] + (1 - beta1) * gr
            self._v[i] = beta2 * self._v[i] + (1 - beta2) * gr**2
            m_hat = self._m[i] / (1 - beta1**self._t)
            v_hat = self._v[i] / (1 - beta2**self._t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + eps)
