"""Explicit-backprop networks: gradients, optimizer, target blending."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcorner import nets
from driftcorner.nets import (
    Adam,
    Mlp,
    clip_gradients,
    float32_mirror,
    mlp_backward,
    mlp_forward,
    mlp_init,
    soft_update,
)


def _loss_and_grad(net, x, target):
    out, cache = mlp_forward(net, x)
    diff = np.atleast_2d(out) - target
    loss = float(np.sum(diff * diff))
    gw, gb, gin = mlp_backward(net, cache, 2.0 * diff)
    return loss, gw + gb, gin


def _loss_only(net, x, target):
    out, _ = mlp_forward(net, x)
    diff = np.atleast_2d(out) - target
    return float(np.sum(diff * diff))


@pytest.mark.parametrize("head", ["linear", "bounded"])
def test_backprop_matches_finite_differences(head):
    rng = np.random.default_rng(0)
    kw = {}
    if head == "bounded":
        kw = {"low": np.array([-1.0, 0.0]), "high": np.array([2.0, 5.0])}
    net = mlp_init([4, 8, 6, 2], rng, head, **kw)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 2))
    _, grads, _ = _loss_and_grad(net, x, target)

    eps = 1e-6
    params = net.parameters()
    worst = 0.0
    for p, g in zip(params, grads):
        flat_idx = [(0, 0), (p.shape[0] - 1, p.shape[-1] - 1)] if p.ndim == 2 else [0, p.shape[0] - 1]
        for idx in flat_idx:
            orig = p[idx]
            p[idx] = orig + eps
            lp = _loss_only(net, x, target)
            p[idx] = orig - eps
            lm = _loss_only(net, x, target)
            p[idx] = orig
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - g[idx]) / max(1.0, abs(fd)))
    assert worst < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    net = mlp_init([3, 10, 1], rng)
    x = rng.normal(size=(1, 3))
    target = np.zeros((1, 1))
    _, _, gin = _loss_and_grad(net, x, target)
    eps = 1e-6
    for j in range(3):
        xp, xm = x.copy(), x.copy()
        xp[0, j] += eps
        xm[0, j] -= eps
        fd = (_loss_only(net, xp, target) - _loss_only(net, xm, target)) / (2 * eps)
        assert abs(fd - gin[0, j]) < 1e-4 * max(1.0, abs(fd))


def test_bounded_head_respects_box():
    rng = np.random.default_rng(2)
    low, high = np.array([-0.5, 0.0]), np.array([0.5, 10.0])
    net = mlp_init([6, 32, 2], rng, "bounded", low, high)
    out, _ = mlp_forward(net, rng.normal(0, 10, size=(200, 6)))
    assert np.all(out >= low - 1e-12) and np.all(out <= high + 1e-12)


def test_bounded_head_requires_bounds():
    with pytest.raises(ValueError):
        mlp_init([3, 4, 2], np.random.default_rng(0), "bounded")


def test_forward_single_and_batch_agree():
    rng = np.random.default_rng(3)
    net = mlp_init([4, 8, 2], rng)
    x = rng.normal(size=4)
    single, _ = mlp_forward(net, x)
    batch, _ = mlp_forward(net, x[None, :])
    np.testing.assert_array_equal(single, batch[0])
    assert single.shape == (2,)


def test_gradient_clipping():
    # one network's flat gradient, in the master's and the mirror's dtype
    for dtype in (np.float64, np.float32):
        grad = np.concatenate([np.full(4, 3.0), np.full(3, -4.0)]).astype(dtype)
        norm0 = np.sqrt(4 * 9.0 + 3 * 16.0)
        assert clip_gradients(grad, 1.0) == pytest.approx(norm0)
        assert np.sqrt(np.sum(grad * grad)) == pytest.approx(1.0)  # scaled in place
        assert grad.dtype == dtype
        before = grad.copy()
        assert clip_gradients(grad, 1e9) == pytest.approx(1.0)
        np.testing.assert_array_equal(grad, before)


def test_adam_first_step_is_signed_lr():
    # with fresh moments the first update is -lr * sign(g) (eps aside)
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.7, 0.0])
    opt = Adam(lr=1e-2)
    opt.step(p, g)
    assert p[0] == pytest.approx(1.0 - 1e-2, rel=1e-5)
    assert p[1] == pytest.approx(-2.0 + 1e-2, rel=1e-5)
    assert p[2] == pytest.approx(0.5)


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(4)
    p = rng.normal(size=5)
    opt = Adam(lr=0.05)
    for _ in range(500):
        opt.step(p, 2.0 * (p - 3.0))
    np.testing.assert_allclose(p, 3.0, atol=1e-3)


def test_adam_keeps_moments_in_the_gradients_dtype():
    # a float32 gradient (a mirror's) gives float32 moments and a float32
    # step subtracted from the float64 parameters; the same gradients in
    # float64 give the float64 reference, which 100 steps stay within a
    # few float32 roundings per step of
    steps, lr = 100, 1e-2
    rng = np.random.default_rng(11)
    p = rng.normal(size=1000)
    ref = p.copy()
    opt, ref_opt = Adam(lr=lr), Adam(lr=lr)
    for _ in range(steps):
        g = rng.normal(1.0, 2.0, size=p.size).astype(np.float32)
        opt.step(p, g)
        ref_opt.step(ref, g.astype(np.float64))
    assert opt.m.dtype == opt.v.dtype == np.float32 and p.dtype == np.float64
    assert ref_opt.m.dtype == ref_opt.v.dtype == np.float64
    assert np.max(np.abs(p - ref)) <= steps * lr * 8 * np.finfo(np.float32).eps
    assert np.max(np.abs(p - ref)) > 0.0  # the float32 arithmetic did run


def test_adam_moments_of_a_zero_gradient_never_turn_subnormal():
    # 1000 zero-gradient steps decay m by 0.9**1000; unflushed, a float32
    # m of 0.1 is subnormal from step 828 on
    tiny = np.finfo(np.float32).tiny
    p = np.ones(3)
    opt = Adam()
    opt.step(p, np.array([1.0, -1.0, 0.0], dtype=np.float32))
    zero = np.zeros(3, dtype=np.float32)
    for _ in range(1000):
        opt.step(p, zero)
        for moment in (opt.m, opt.v):
            assert np.all((moment == 0.0) | (np.abs(moment) >= tiny))
    assert np.all(opt.m == 0.0) and np.all(opt.v[:2] > 0.0)


@settings(max_examples=30, deadline=None)
@given(tau=st.floats(0.0, 1.0))
def test_soft_update_blends_linearly(tau):
    rng = np.random.default_rng(5)
    online = mlp_init([3, 4, 2], rng)
    target = mlp_init([3, 4, 2], rng)
    before = [p.copy() for p in target.parameters()]
    soft_update(target, online, tau)
    for b, t, o in zip(before, target.parameters(), online.parameters()):
        np.testing.assert_allclose(t, tau * o + (1 - tau) * b, atol=1e-12)


def test_soft_update_limits():
    # a float32 target (a mirror's) blends a float64 network in float32
    rng = np.random.default_rng(6)
    for target in (mlp_init([3, 4, 2], rng), float32_mirror(mlp_init([3, 4, 2], rng))):
        dtype = target.flat.dtype
        frozen = [p.copy() for p in target.parameters()]
        other = mlp_init([3, 4, 2], rng)
        soft_update(target, other, 0.0)  # tau=0: no movement
        for t, f in zip(target.parameters(), frozen):
            np.testing.assert_array_equal(t, f)
        soft_update(target, other, 1.0)  # tau=1: hard copy
        assert target.flat.dtype == dtype
        for t, o in zip(target.parameters(), other.parameters()):
            np.testing.assert_array_equal(t, o.astype(dtype))


def test_float32_mirror_is_deep():
    # a target network starts as a mirror and is then blended on its own
    rng = np.random.default_rng(7)
    net = mlp_init([3, 4, 2], rng, "bounded", low=np.array([-1.0, 0.0]),
                   high=np.array([2.0, 5.0]))
    dup = float32_mirror(net)
    assert dup.flat.dtype == dup.low.dtype == dup.high.dtype == np.float32
    np.testing.assert_array_equal(dup.flat, net.flat.astype(np.float32))
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]
    assert dup.sizes == [3, 4, 2]
    dup.flat[:] = 0.0
    dup.low[:] = 0.0
    assert not np.shares_memory(net.flat, dup.flat)
    assert np.any(net.flat != 0.0) and net.low[0] == -1.0


def test_layers_are_views_of_one_flat_vector():
    rng = np.random.default_rng(8)
    net = mlp_init([3, 4, 2], rng)
    assert net.flat.shape == (3 * 4 + 4 * 2 + 4 + 2,)
    np.testing.assert_array_equal(
        net.flat, np.concatenate([p.ravel() for p in net.parameters()]))
    net.weights[1][2, 1] = 7.0  # a write through a layer reaches the vector
    net.biases[0][3] = -5.0
    assert net.flat[12 + 2 * 2 + 1] == 7.0
    assert net.flat[12 + 8 + 3] == -5.0
    net.flat[0] = 3.0  # and a write to the vector reaches the layer
    assert net.weights[0][0, 0] == 3.0
    assert float32_mirror(net).grad is None  # gradients only where backprop runs


def test_backward_fills_the_flat_gradient():
    rng = np.random.default_rng(9)
    net = mlp_init([4, 8, 6, 2], rng, "bounded",
                   low=np.array([-1.0, 0.0]), high=np.array([2.0, 5.0]))
    x = rng.normal(size=(5, 4))
    x_copy = x.copy()
    out, cache = mlp_forward(net, x)
    g_out = rng.normal(size=out.shape)
    gw, gb, gin = mlp_backward(net, cache, g_out)
    np.testing.assert_array_equal(
        net.grad, np.concatenate([g.ravel() for g in gw + gb]))
    assert cache[0] is x and cache[-1] is out  # left as they were
    np.testing.assert_array_equal(x, x_copy)
    grads = net.grad.copy()
    # skipping either product leaves the other bit for bit; the first
    # pass consumed the hidden activations, so each pass has its own
    # forward
    _, _, none_in = mlp_backward(net, mlp_forward(net, x)[1], g_out,
                                 inputs=False)
    assert none_in is None
    np.testing.assert_array_equal(net.grad, grads)
    net.grad[:] = np.nan
    none_w, none_b, gin2 = mlp_backward(net, mlp_forward(net, x)[1], g_out,
                                        params=False)
    assert none_w is None and none_b is None
    np.testing.assert_array_equal(gin2, gin)
    assert np.all(np.isnan(net.grad))  # params=False writes no gradient


def test_flat_adam_matches_per_layer_update(monkeypatch):
    # the update of the per-layer formulation, element for element; a
    # small block makes the 32 parameters span five blocks, the last short
    monkeypatch.setattr(nets, "ADAM_BLOCK", 7)
    rng = np.random.default_rng(10)
    net = mlp_init([3, 5, 2], rng)
    ref = [p.copy() for p in net.parameters()]
    ref_m = [np.zeros_like(p) for p in ref]
    ref_v = [np.zeros_like(p) for p in ref]
    opt = Adam(lr=1e-2)
    for t in range(1, 6):
        g_layers = [rng.normal(size=p.shape) for p in ref]
        opt.step(net.flat, np.concatenate([g.ravel() for g in g_layers]))
        b1t, b2t = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for p, g, m, v in zip(ref, g_layers, ref_m, ref_v):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= 1e-2 * (m / b1t) / (np.sqrt(v / b2t) + 1e-8)
    for p, r in zip(net.parameters(), ref):
        np.testing.assert_array_equal(p, r)
