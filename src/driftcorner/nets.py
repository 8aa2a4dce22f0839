"""Small fully-connected networks with explicit backpropagation.

Rectifier hidden layers; the actor head squashes through tanh and
rescales into the action box, so its output respects the bounds by
construction.  Gradients are computed by hand (no autograd dependency)
and verified against finite differences in the test suite.  The
optimizer is per-parameter adaptive moment estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Mlp:
    """Weights/biases per layer plus the head description.

    head: 'linear' (critics) or 'bounded' (actor; tanh scaled to
    [low, high]).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str = "linear"
    low: np.ndarray | None = None
    high: np.ndarray | None = None

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def parameters(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)

    def copy(self) -> "Mlp":
        return Mlp(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.head,
            None if self.low is None else self.low.copy(),
            None if self.high is None else self.high.copy(),
        )

    def checksum(self) -> float:
        return float(sum(float(np.sum(p)) for p in self.parameters()))


def mlp_init(
    sizes: list[int],
    rng: np.random.Generator,
    head: str = "linear",
    low=None,
    high=None,
) -> Mlp:
    """He-scaled random initialization."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    low = None if low is None else np.asarray(low, dtype=float)
    high = None if high is None else np.asarray(high, dtype=float)
    if head == "bounded" and (low is None or high is None):
        raise ValueError("bounded head needs low/high")
    return Mlp(weights, biases, head, low, high)


def mlp_forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass; returns (output, cache-for-backward).

    x: (batch, in) or (in,)."""
    single = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=float))
    cache = [h]
    n = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        if i < n - 1:
            h = np.maximum(z, 0.0)
        elif net.head == "bounded":
            t = np.tanh(z)
            h = net.low + 0.5 * (t + 1.0) * (net.high - net.low)
        else:
            h = z
        cache.append(h)
    return (h[0] if single else h), cache


def mlp_backward(
    net: Mlp, cache: list, grad_out: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Backpropagate d(loss)/d(output) through the net.

    Returns (weight grads, bias grads, d(loss)/d(input)); gradients are
    summed over the batch."""
    g = np.atleast_2d(np.asarray(grad_out, dtype=float))
    n = len(net.weights)
    gw: list = [None] * n
    gb: list = [None] * n
    for i in range(n - 1, -1, -1):
        h_out = cache[i + 1]
        if i == n - 1 and net.head == "bounded":
            # h = low + (tanh(z)+1)/2*(high-low); dh/dz = (1-tanh^2)/2*(high-low)
            t = (h_out - net.low) / (0.5 * (net.high - net.low)) - 1.0
            g = g * 0.5 * (net.high - net.low) * (1.0 - t * t)
        elif i < n - 1:
            g = g * (h_out > 0.0)
        h_in = cache[i]
        gw[i] = h_in.T @ g
        gb[i] = g.sum(axis=0)
        g = g @ net.weights[i].T
    return gw, gb, g


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> tuple[list[np.ndarray], float]:
    """Global-norm clipping; returns (possibly scaled grads, norm)."""
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return grads, norm


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Adam:
    """Adaptive moment estimation over a parameter list."""

    lr: float = 3e-4
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    """theta' <- tau*theta + (1-tau)*theta'."""
    for pt, po in zip(target.parameters(), online.parameters()):
        pt *= 1.0 - tau
        pt += tau * po
