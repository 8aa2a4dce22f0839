"""Fixed-capacity experience buffer with uniform batch sampling."""

from __future__ import annotations

import numpy as np


class ReplayBuffer:
    """Ring of (s, a, r, s', done) transitions.

    Oldest entries are evicted first once capacity is reached; batches
    are drawn uniformly without replacement.  The ring stores float64;
    a batch is cast once to float32, the learner's precision.
    """

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        self.capacity = int(capacity)
        self.obs = np.zeros((self.capacity, obs_dim))
        self.act = np.zeros((self.capacity, act_dim))
        self.rew = np.zeros(self.capacity)
        self.obs_next = np.zeros((self.capacity, obs_dim))
        self.done = np.zeros(self.capacity)
        self.head = 0
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def add(self, obs, act, rew, obs_next, done) -> None:
        i = self.head
        self.obs[i] = obs
        self.act[i] = act
        self.rew[i] = rew
        self.obs_next[i] = obs_next
        self.done[i] = float(done)
        self.head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample without replacement within the batch, as
        float32 (obs, act, rew, obs_next, done)."""
        n = min(batch_size, self.size)
        idx = rng.choice(self.size, size=n, replace=False)
        return tuple(a[idx].astype(np.float32)
                     for a in (self.obs, self.act, self.rew, self.obs_next, self.done))
