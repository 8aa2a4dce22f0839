"""Small fully-connected networks with explicit backpropagation.

Rectifier hidden layers; the actor head squashes through tanh and
rescales into the action box, so its output respects the bounds by
construction.  Gradients are computed by hand (no autograd dependency)
and verified against finite differences in the test suite.  The
optimizer is per-parameter adaptive moment estimation.

Each network keeps all of its parameters in one contiguous vector, the
weights of every layer first and then the biases; the per-layer arrays
are reshaped views of it.  Backpropagation writes the parameter
gradients into a second vector of the same layout, so the optimizer
and the target blend run over whole vectors, not layer by layer, and
the gradient clip scales the gradient in place.

A network computes in the dtype of its vector.  The learner's online
networks are float64 masters; `float32_mirror` makes a float32 copy of
the same layout, which the learner's batch arithmetic runs on, and its
target networks are float32 from the start.  `Adam` keeps its moments
in the gradient's dtype, float32 for a mirror's gradient, and subtracts
each step from the float64 master (mixed precision: Micikevicius et al.
2018, arXiv:1710.03740).  `soft_update` blends in the target's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def layer_views(flat: np.ndarray, sizes: list[int]) -> tuple[list, list]:
    """Per-layer (weights, biases) views of a flat parameter-layout vector."""
    weights, biases, k = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[k:k + fan_in * fan_out].reshape(fan_in, fan_out))
        k += fan_in * fan_out
    for fan_out in sizes[1:]:
        biases.append(flat[k:k + fan_out])
        k += fan_out
    return weights, biases


@dataclass
class Mlp:
    """Weights/biases per layer plus the head description.

    head: 'linear' (critics) or 'bounded' (actor; tanh scaled to
    [low, high]).

    The constructor copies `weights` and `biases` into one flat vector,
    `flat` (float32 if they all are, else float64), and replaces them
    with views of it: writing through `weights[i]` or `biases[i]`
    changes `flat`, and `parameters()` lists the same views.  `grad` is
    the flat gradient vector that `mlp_backward` fills, made on first
    use, so networks that are never backpropagated carry none.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str = "linear"
    low: np.ndarray | None = None
    high: np.ndarray | None = None
    flat: np.ndarray = field(init=False, repr=False)
    grad: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        sizes = self.sizes
        parts = [np.ravel(p) for p in (*self.weights, *self.biases)]
        # float64 unless every part is float32, as in a `float32_mirror`
        dtype = np.float32 if all(p.dtype == np.float32 for p in parts) else np.float64
        self.flat = np.concatenate(parts, dtype=dtype)
        self.weights, self.biases = layer_views(self.flat, sizes)

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def parameters(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)

    def grad_views(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weight, bias) views of `grad`, made on first use."""
        if self.grad is None:
            self.grad = np.empty_like(self.flat)
        return layer_views(self.grad, self.sizes)

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


def float32_mirror(net: Mlp) -> Mlp:
    """A float32 copy of `net` with the same flat layout, sharing no
    memory with it; writing ``mirror.flat[...] = net.flat`` refreshes
    it."""
    bounds = [None if b is None else b.astype(np.float32) for b in (net.low, net.high)]
    return Mlp(*layer_views(net.flat.astype(np.float32), net.sizes), net.head, *bounds)


def mlp_forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass in the dtype of `net.flat`, to which `x` is cast;
    returns (output, cache-for-backward).

    x: (batch, in) or (in,)."""
    single = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=net.flat.dtype))
    cache = [h]
    n = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w
        z += b
        if i < n - 1:
            h = np.maximum(z, 0.0, out=z)
        elif net.head == "bounded":
            t = np.tanh(z)
            h = net.low + 0.5 * (t + 1.0) * (net.high - net.low)
        else:
            h = z
        cache.append(h)
    return (h[0] if single else h), cache


def mlp_backward(
    net: Mlp, cache: list, grad_out: np.ndarray,
    params: bool = True, inputs: bool = True,
) -> tuple[list[np.ndarray] | None, list[np.ndarray] | None, np.ndarray | None]:
    """Backpropagate d(loss)/d(output) through the net.

    Returns (weight grads, bias grads, d(loss)/d(input)); gradients are
    summed over the batch.  The weight and bias gradients are the
    per-layer views of `net.grad`, overwritten by the next call on the
    same net.  `params=False` skips them and `inputs=False` skips the
    input gradient; a skipped item is returned as None.  The pass runs
    in the dtype of `net.flat`, to which `grad_out` is cast.

    The pass consumes `cache`: each hidden activation's array is reused
    for the gradient with respect to it, so no batch-sized array is
    allocated per hidden layer and a forward pass serves one backward
    pass.  The input and the output entries are left as they were."""
    g = np.atleast_2d(np.asarray(grad_out, dtype=net.flat.dtype))
    n = len(net.weights)
    gw, gb = net.grad_views() if params else (None, None)
    if net.head == "bounded":
        # h = low + (tanh(z)+1)/2*(high-low); dh/dz = (1-tanh^2)/2*(high-low)
        t = (cache[n] - net.low) / (0.5 * (net.high - net.low)) - 1.0
        g = g * 0.5 * (net.high - net.low) * (1.0 - t * t)
    for i in range(n - 1, -1, -1):
        if params:
            np.matmul(cache[i].T, g, out=gw[i])
            np.sum(g, axis=0, out=gb[i])
        if i == 0:
            break
        active = cache[i] > 0.0
        w = net.weights[i]
        if w.shape[1] == 1:
            # A scalar head (the critic's): an outer product, which
            # broadcasting forms about twice as fast as a matmul with
            # inner dimension 1.  The matmul adds the product to +0.0,
            # so `+= 0.0` gives its signed zeros too.
            g = np.multiply(g, w.T, out=cache[i])
            g += 0.0
        else:
            g = np.matmul(g, w.T, out=cache[i])
        g *= active
    return gw, gb, (g @ net.weights[0].T if inputs else None)


def clip_gradients(grad: np.ndarray, max_norm: float) -> float:
    """Global-norm clipping of a network's flat gradient in place;
    returns the norm before clipping."""
    norm = float(np.sqrt(np.dot(grad, grad)))
    if norm > max_norm > 0.0:
        grad *= max_norm / norm
    return norm


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam updates the flat vector in blocks of this many elements, so its
# two scratch rows stay small.  Scratch the size of a whole critic was
# handed back to the system after every step and page-faulted in again
# on the next: float64 scratch took 1.19 ms against 0.55 ms in blocks
# per step of a 69,889-parameter critic on a 2-vCPU Xeon host.
ADAM_BLOCK = 32768
# The moments of a parameter whose gradient stays zero, as behind a dead
# rectifier unit, decay geometrically; float32 ones reach the subnormal
# range, where arithmetic is many times slower, after about 800 steps.
# Training on the U-turn with a warm-up of 1000 steps (seed 5), 11 % of
# the actor's first moments were subnormal by env step 3500, and over
# env steps 2000-4000 Adam took 2.3-2.5 ms per env step against
# 1.2-1.3 ms with this flush, on a 2-vCPU Xeon host.  Every
# ADAM_FLUSH_EVERY steps a moment below 2**26 times its dtype's smallest
# normal is set to zero: at ADAM_BETA1 a first moment takes 171 steps to
# decay from there to subnormal, and the step it would still make is
# below lr * 1e-22.
ADAM_FLUSH_EVERY = 64


@dataclass
class Adam:
    """Adaptive moment estimation over one flat parameter vector.

    `m` and `v` are flat moment vectors of the parameters' layout and
    the gradient's dtype, empty until the first step.  Each block's step
    is computed in that dtype and subtracted from the parameters, which
    may be wider (the float64 master of a float32 mirror's gradient).
    Moments that have decayed close to the subnormal range are set to
    zero every `ADAM_FLUSH_EVERY` steps."""

    lr: float = 3e-4
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t: int = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """One in-place update of `param` from its gradient `grad`."""
        if not self.m.size:
            self.m = np.zeros_like(grad)
            self.v = np.zeros_like(grad)
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        scratch = np.empty((2, min(ADAM_BLOCK, grad.size)), dtype=grad.dtype)
        for k in range(0, grad.size, ADAM_BLOCK):
            block = slice(k, k + ADAM_BLOCK)
            m, v, g = self.m[block], self.v[block], grad[block]
            step, denom = scratch[:, :g.size]
            # the operation order of m += (1-b1)*g, v += (1-b2)*g*g and
            # p -= lr*(m/b1t)/(sqrt(v/b2t)+eps), element for element
            np.multiply(g, 1.0 - ADAM_BETA1, out=step)
            m *= ADAM_BETA1
            m += step
            np.multiply(g, 1.0 - ADAM_BETA2, out=step)
            step *= g
            v *= ADAM_BETA2
            v += step
            np.divide(m, b1t, out=step)
            step *= self.lr
            np.divide(v, b2t, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            param[block] -= step
        if self.t % ADAM_FLUSH_EVERY == 0:
            floor = np.finfo(self.m.dtype).tiny * 2.0 ** 26
            for moment in (self.m, self.v):
                moment[np.abs(moment) < floor] = 0.0


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    """theta' <- tau*theta + (1-tau)*theta', over the flat vectors, in
    the dtype of the target's."""
    target.flat *= 1.0 - tau
    target.flat += np.multiply(online.flat, tau, dtype=target.flat.dtype)
