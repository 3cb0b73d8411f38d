"""Tests for the numpy DQN substrate."""
import numpy as np
import pytest

from repro.learn.dqn import QNetwork, ReplayMemory


class TestReplayMemory:
    def test_capacity_enforced(self):
        mem = ReplayMemory(4)
        for i in range(10):
            mem.push(i, 0, 0.0, i + 1)
        assert len(mem) == 4
        assert mem.buf[0][0] == 6  # oldest retained

    def test_sample_size(self):
        mem = ReplayMemory(16)
        for i in range(8):
            mem.push(np.zeros(2), 0, 0.0, np.zeros(2))
        assert len(mem.sample(4)) == 4
        assert len(mem.sample(100)) == 8

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayMemory(0)


class TestQNetwork:
    def test_forward_shape(self):
        net = QNetwork(6, 3, hidden=8)
        assert net.forward(np.zeros(6)).shape == (1, 3)
        assert net.forward(np.zeros((5, 6))).shape == (5, 3)

    def test_learns_simple_regression(self):
        # Q(s)[a] should fit a fixed target for a fixed state
        net = QNetwork(4, 2, hidden=16, lr=1e-2, seed=0)
        s = np.array([1.0, 0.0, 1.0, 0.0])
        losses = []
        for _ in range(300):
            losses.append(net.train_step(s[None, :], np.array([1]), np.array([5.0])))
        assert losses[-1] < 0.01
        assert abs(net.forward(s)[0][1] - 5.0) < 0.2

    def test_gradient_only_through_selected_action(self):
        net = QNetwork(3, 4, hidden=8, lr=1e-2, seed=1)
        s = np.ones(3)
        before = net.forward(s)[0].copy()
        for _ in range(100):
            net.train_step(s[None, :], np.array([2]), np.array([3.0]))
        after = net.forward(s)[0]
        # the trained action moved much more than the untouched ones
        assert abs(after[2] - 3.0) < 0.5
        moved = abs(after - before)
        assert moved[2] > 0.5
