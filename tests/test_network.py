"""Engine tests: forward/backward correctness against straight-line and
finite-difference oracles, optimizer updates against scalar hand traces."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from switchdistill.errors import DomainError, NumericError, ShapeError
from switchdistill.network import (
    Conv2d,
    Dense,
    NetworkParams,
    _col2im,
    _im2col,
    backward_from_cache,
    conv_mlp,
    forward,
    forward_with_cache,
    init_params,
    mlp,
)
from switchdistill.optim import OptimizerState, init_optimizer, step
from switchdistill.verify import param_grad_check

# Dense and conv stacks: conv strides 1, 2 and 3, a non-square map and C > 1.
STACKS = [
    (mlp(3, (5,), 2), 3),
    (mlp(4, (6, 5), 3), 4),
    (conv_mlp((1, 5, 5), (2,), (4,), 2, kernel=3, stride=1), 25),
    (conv_mlp((1, 9, 9), (2, 3), (), 2, kernel=3, stride=2), 81),
    # stride 3 on a non-square map, in the second layer so the input gradient runs too
    ((Conv2d(2, 3, 7, 10, 2, 1), Conv2d(3, 2, 6, 9, 3, 3), Dense(12, 2)), 140),
]


def small_dense_net(seed=0, in_dim=3, hidden=4, out_dim=2):
    return init_params(mlp(in_dim, (hidden,), out_dim), seed)


def backward(net, batch, logit_grads):
    """Gradient of mean_b(logit_grads[b] . logits[b]) w.r.t. every parameter."""
    _, cache = forward_with_cache(net, batch)
    return backward_from_cache(net, cache, logit_grads)


class TestForward:
    def test_identity_single_layer(self):
        net = NetworkParams((Dense(2, 2),), [np.eye(2)], [np.zeros(2)])
        out = forward(net, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_zero_weights_give_zero_logits(self):
        net = small_dense_net()
        net.weights = [np.zeros_like(w) for w in net.weights]
        net.biases = [np.zeros_like(b) for b in net.biases]
        out = forward(net, np.array([[0.3, -1.0, 2.0]]))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_two_layer_matches_straight_line_oracle(self):
        # independent re-implementation of the same matrix products
        w0 = np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]])
        b0 = np.array([0.01, -0.02, 0.03])
        w1 = np.array([[0.7, -0.8], [0.9, 1.0], [-1.1, 1.2]])
        b1 = np.array([0.1, 0.2])
        net = NetworkParams(
            (Dense(2, 3, "relu"), Dense(3, 2)), [w0, w1], [b0, b1]
        )
        x = np.array([[1.0, 0.0]])

        h = np.empty(3)
        for j in range(3):
            h[j] = sum(x[0][i] * w0[i, j] for i in range(2)) + b0[j]
            h[j] = h[j] if h[j] > 0 else 0.0
        expected = np.empty(2)
        for j in range(2):
            expected[j] = sum(h[i] * w1[i, j] for i in range(3)) + b1[j]

        np.testing.assert_allclose(forward(net, x)[0], expected, rtol=1e-12)

    def test_wrong_feature_count_names_layer(self):
        net = small_dense_net()
        with pytest.raises(ShapeError, match="layer 0"):
            forward(net, np.ones((1, 5)))

    def test_deterministic(self):
        net = small_dense_net(seed=3)
        x = np.random.default_rng(1).normal(size=(4, 3))
        a = forward(net, x)
        b = forward(net, x)
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_zero_logit_grads(self):
        net = small_dense_net()
        x = np.random.default_rng(0).normal(size=(3, 3))
        grads = backward(net, x, np.zeros((3, 2)))
        for dw, db in zip(grads.weights, grads.biases):
            np.testing.assert_array_equal(dw, np.zeros_like(dw))
            np.testing.assert_array_equal(db, np.zeros_like(db))

    def test_single_layer_weight_grad_is_outer_product(self):
        net = NetworkParams((Dense(3, 2),), [np.zeros((3, 2))], [np.zeros(2)])
        x = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.3, -0.7]])
        grads = backward(net, x, g)
        np.testing.assert_allclose(grads.weights[0], np.outer(x[0], g[0]), rtol=1e-12)
        np.testing.assert_allclose(grads.biases[0], g[0], rtol=1e-12)

    def test_shape_mismatch(self):
        net = small_dense_net()
        with pytest.raises(ShapeError):
            backward(net, np.ones((2, 3)), np.ones((2, 5)))

    def test_linearity_in_logit_grads(self):
        net = small_dense_net(seed=5)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        doubled = backward(net, x, 2.0 * g)
        base = backward(net, x, g)
        for dw2, dw1 in zip(doubled.weights, base.weights):
            np.testing.assert_allclose(dw2, 2.0 * dw1, rtol=1e-12)

    @pytest.mark.parametrize("layers,in_dim", STACKS)
    def test_matches_finite_differences(self, layers, in_dim):
        # oracle: central differences of mean_b(g_b . z_b) over every parameter
        net = init_params(layers, 11)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, in_dim))
        g = rng.normal(size=(3, net.out_features))

        def loss(params):
            return float(np.mean(np.sum(g * forward(params, x), axis=1)))

        grads = backward(net, x, g)
        h = 1e-4
        for li in range(len(net.layers)):
            for arr, analytic in (
                (net.weights[li], grads.weights[li]),
                (net.biases[li], grads.biases[li]),
            ):
                flat = arr.reshape(-1)
                aflat = analytic.reshape(-1)
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + h
                    up = loss(net)
                    flat[j] = orig - h
                    down = loss(net)
                    flat[j] = orig
                    numeric = (up - down) / (2 * h)
                    denom = max(abs(aflat[j]), abs(numeric), 1e-8)
                    assert abs(aflat[j] - numeric) / denom <= 1e-4, f"layer {li} entry {j}"


def loop_im2col(x, kernel, stride):
    """Patch matrix built one output position (column) at a time: the oracle for _im2col."""
    b, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    cols = np.empty((b, c * kernel * kernel, oh * ow), dtype=x.dtype)
    p = 0
    for i in range(oh):
        for j in range(ow):
            patch = x[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            cols[:, :, p] = patch.reshape(b, -1)
            p += 1
    return cols


def loop_col2im(dcols, shape, kernel, stride):
    """Scatter-add one patch entry, then one output position, at a time: the oracle for _col2im."""
    b, c, h, w = shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    dx = np.zeros(shape, dtype=dcols.dtype)
    e = 0
    for ch in range(c):
        for di in range(kernel):
            for dj in range(kernel):
                p = 0
                for i in range(oh):
                    for j in range(ow):
                        dx[:, ch, i * stride + di, j * stride + dj] += dcols[:, e, p]
                        p += 1
                e += 1
    return dx


# (batch, channels, height, width, kernel, stride)
CONV_GEOMETRIES = [
    (2, 1, 5, 5, 3, 1),
    (3, 2, 7, 9, 3, 1),
    (2, 3, 9, 6, 3, 2),
    (2, 3, 10, 13, 3, 3),
    (2, 2, 11, 8, 2, 3),
    (2, 2, 6, 6, 6, 1),  # kernel covers the whole input
    (3, 3, 5, 8, 5, 2),  # kernel equals the shorter side
    (32, 16, 15, 15, 3, 2),  # the conv-cifar teacher's second conv layer at batch 32
]


class TestConvEngine:
    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
    def test_im2col_matches_loop_oracle(self, geometry):
        b, c, h, w, k, s = geometry
        x = np.random.default_rng(0).normal(size=(b, c, h, w))
        out = _im2col(x, k, s)
        assert out.tobytes() == loop_im2col(x, k, s).tobytes()
        assert out.shape == loop_im2col(x, k, s).shape

    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
    def test_im2col_reuses_its_index_across_batch_sizes(self, geometry):
        _, c, h, w, k, s = geometry
        rng = np.random.default_rng(3)
        for b in (1, 5):
            x = rng.normal(size=(b, c, h, w))
            assert _im2col(x, k, s).tobytes() == loop_im2col(x, k, s).tobytes()

    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
    def test_col2im_matches_loop_oracle_bit_for_bit(self, geometry):
        b, c, h, w, k, s = geometry
        positions = ((h - k) // s + 1) * ((w - k) // s + 1)
        dcols = np.random.default_rng(1).normal(size=(b, c * k * k, positions))
        dcols[0] = -0.0  # ReLU backward yields -0.0; each pixel's sum starts from +0.0
        dcols[-1, :, ::2] = -0.0
        dcols[-1, ::2, 1::2] = 0.0
        out = _col2im(dcols, (b, c, h, w), k, s)
        assert out.tobytes() == loop_col2im(dcols, (b, c, h, w), k, s).tobytes()

    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
    def test_col2im_is_the_adjoint_of_im2col(self, geometry):
        b, c, h, w, k, s = geometry
        rng = np.random.default_rng(2)
        x = rng.normal(size=(b, c, h, w))
        cols = _im2col(x, k, s)
        dcols = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * dcols))
        rhs = float(np.sum(x * _col2im(dcols, x.shape, k, s)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    @pytest.mark.parametrize(
        "layers",
        [
            conv_mlp((3, 12, 12), (4, 6), (5,), 3),
            (Conv2d(2, 3, 10, 13, 3, 3), Conv2d(3, 2, 3, 4, 2, 1), Dense(12, 3)),
        ],
    )
    def test_forward_matches_cached_forward_bit_for_bit(self, layers):
        net = init_params(layers, 4)
        x = np.random.default_rng(5).uniform(size=(7, layers[0].in_features))
        logits, cache = forward_with_cache(net, x)
        assert len(cache) == len(layers)
        assert forward(net, x).tobytes() == logits.tobytes()


def forward_backward(net, x, g, workspace):
    """Logits and parameter gradients of one training step's network passes through ``workspace``."""
    logits, cache = forward_with_cache(net, x, workspace)
    return logits.copy(), backward_from_cache(net, cache, g, workspace=workspace)


def warm_conv_teacher_step():
    """The tracemalloc peak of the conv-cifar teacher's warm forward + backward at batch 32, and that step's cache."""
    net = init_params(conv_mlp((3, 32, 32), (16, 32), (64,), 10), 0)
    rng = np.random.default_rng(1)
    x, g = rng.uniform(size=(32, 3 * 32 * 32)), rng.normal(size=(32, 10))
    workspace, buf = {}, net.zeros_like()
    forward_backward(net, x, g, workspace)  # warm-up
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _, cache = forward_with_cache(net, x, workspace)
        backward_from_cache(net, cache, g, out=buf, workspace=workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, cache


class TestWorkspace:
    def test_warm_conv_step_allocates_less_than_one_patch_matrix(self):
        # its patch matrices are the largest arrays of a step
        peak, cache = warm_conv_teacher_step()
        largest = max(inputs.nbytes for inputs, _ in cache[:2])
        assert peak < largest, (peak, largest)

    def test_warm_conv_step_allocates_less_than_one_output_map(self):
        # the (B, out_c, oh * ow) map of the first layer, which a tensordot weight gradient would copy
        # into a transposed array
        peak, _ = warm_conv_teacher_step()
        assert peak < 32 * 16 * 225 * 8, peak

    @pytest.mark.parametrize("layers,in_dim", STACKS)
    def test_short_batch_after_a_full_one_matches_a_fresh_workspace(self, layers, in_dim):
        net = init_params(layers, 6)
        rng = np.random.default_rng(9)
        full, short = rng.normal(size=(32, in_dim)), rng.normal(size=(7, in_dim))
        g_full, g_short = rng.normal(size=(32, net.out_features)), rng.normal(size=(7, net.out_features))
        workspace = {}
        forward_backward(net, full, g_full, workspace)
        logits, grads = forward_backward(net, short, g_short, workspace)
        fresh_logits, fresh_grads = forward_backward(net, short, g_short, {})
        assert logits.tobytes() == fresh_logits.tobytes()
        assert_same_bits(grads, fresh_grads)

    @pytest.mark.parametrize(
        "layers,in_dim",
        [
            *STACKS,
            ((Dense(3, 4, "relu"), Dense(4, 2, "relu")), 3),
            ((Conv2d(1, 2, 5, 5, 3, 1), Conv2d(2, 2, 3, 3, 2, 1)), 25),
        ],
    )
    def test_backward_leaves_logit_grads_as_they_are(self, layers, in_dim):
        net = init_params(layers, 2)
        rng = np.random.default_rng(3)
        x, g = rng.normal(size=(5, in_dim)), rng.normal(size=(5, net.out_features))
        before = g.tobytes()
        forward_backward(net, x, g, {})
        assert g.tobytes() == before


def oracle_step(net, grads, opt):
    """SGD and Adam written out per layer and per kind: ``step``'s bit-for-bit oracle."""
    new_w, new_b = [], []
    if opt.kind == "sgd":
        vel = opt.slots["velocity"]
        nvel = NetworkParams(net.layers, [], [])
        for params, gs, vs, out, vout in (
            (net.weights, grads.weights, vel.weights, new_w, nvel.weights),
            (net.biases, grads.biases, vel.biases, new_b, nvel.biases),
        ):
            for p, g, v in zip(params, gs, vs):
                g_eff = g + opt.weight_decay * p if opt.weight_decay else g
                v_new = opt.momentum * v + g_eff
                out.append(p - opt.lr * v_new)
                vout.append(v_new)
        new_slots = {"velocity": nvel}
    else:
        t = opt.step_count + 1
        beta1 = opt.momentum
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - opt.beta2**t
        m, v = opt.slots["m"], opt.slots["v"]
        nm, nv = NetworkParams(net.layers, [], []), NetworkParams(net.layers, [], [])
        for params, gs, ms, vs, out, mout, vout in (
            (net.weights, grads.weights, m.weights, v.weights, new_w, nm.weights, nv.weights),
            (net.biases, grads.biases, m.biases, v.biases, new_b, nm.biases, nv.biases),
        ):
            for p, g, m_i, v_i in zip(params, gs, ms, vs):
                g_eff = g + opt.weight_decay * p if opt.weight_decay else g
                m_new = beta1 * m_i + (1.0 - beta1) * g_eff
                v_new = opt.beta2 * v_i + (1.0 - opt.beta2) * g_eff * g_eff
                update = (m_new / bc1) / (np.sqrt(v_new / bc2) + opt.eps)
                out.append(p - opt.lr * update)
                mout.append(m_new)
                vout.append(v_new)
        new_slots = {"m": nm, "v": nv}
    return NetworkParams(net.layers, new_w, new_b), replace(opt, step_count=opt.step_count + 1, slots=new_slots)


def assert_same_bits(a, b):
    assert len(a.weights) == len(b.weights) and len(a.biases) == len(b.biases)
    for x, y in zip((*a.weights, *a.biases), (*b.weights, *b.biases)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestStep:
    def test_zero_grads_no_decay_is_identity(self):
        net = small_dense_net()
        opt = init_optimizer(net, kind="sgd", lr=0.1, momentum=0.0, weight_decay=0.0)
        before = net.copy()  # step updates net in place
        new_net, _ = step(net, net.zeros_like(), opt)
        for a, b in zip(new_net.weights, before.weights):
            np.testing.assert_array_equal(a, b)

    def test_plain_gd_arithmetic(self):
        net = NetworkParams((Dense(2, 2),), [np.full((2, 2), 1.0)], [np.zeros(2)])
        opt = init_optimizer(net, kind="sgd", lr=0.1)
        grads = NetworkParams(net.layers, [np.full((2, 2), 0.5)], [np.zeros(2)])
        new_net, _ = step(net, grads, opt)
        np.testing.assert_allclose(new_net.weights[0], np.full((2, 2), 0.95), rtol=1e-15)

    def test_momentum_two_steps_match_scalar_trace(self):
        # hand trace: v <- mu*v + g, w <- w - lr*v
        w, lr, mu = 1.0, 0.1, 0.9
        v = 0.0
        for g in (0.5, 0.3):
            v = mu * v + g
            w -= lr * v

        net = NetworkParams((Dense(2, 2),), [np.full((2, 2), 1.0)], [np.zeros(2)])
        opt = init_optimizer(net, kind="sgd", lr=lr, momentum=mu)
        for g in (0.5, 0.3):
            grads = NetworkParams(net.layers, [np.full((2, 2), g)], [np.zeros(2)])
            net, opt = step(net, grads, opt)
        np.testing.assert_allclose(net.weights[0], np.full((2, 2), w), rtol=1e-15)

    def test_adam_two_steps_match_scalar_trace(self):
        w, lr, b1, b2, eps = 1.0, 0.01, 0.9, 0.999, 1e-8
        m = v = 0.0
        for t, g in enumerate((0.5, -0.2), start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        net = NetworkParams((Dense(2, 2),), [np.full((2, 2), 1.0)], [np.zeros(2)])
        opt = init_optimizer(net, kind="adam", lr=lr, momentum=b1)
        for g in (0.5, -0.2):
            grads = NetworkParams(net.layers, [np.full((2, 2), g)], [np.zeros(2)])
            net, opt = step(net, grads, opt)
        np.testing.assert_allclose(net.weights[0], np.full((2, 2), w), rtol=1e-12)

    def test_weight_decay_moves_params_even_with_zero_grads(self):
        net = NetworkParams((Dense(2, 2),), [np.full((2, 2), 1.0)], [np.zeros(2)])
        opt = init_optimizer(net, kind="sgd", lr=0.1, weight_decay=0.01)
        new_net, _ = step(net, net.zeros_like(), opt)
        np.testing.assert_allclose(new_net.weights[0], np.full((2, 2), 1.0 - 0.1 * 0.01), rtol=1e-15)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_step_updates_in_place_and_only_reads_grads(self, kind, weight_decay):
        net = small_dense_net()
        before = net.copy()
        arrays = [*net.weights, *net.biases]
        opt = init_optimizer(net, kind=kind, lr=0.1, momentum=0.9, weight_decay=weight_decay)
        slot_arrays = {name: [*s.weights, *s.biases] for name, s in opt.slots.items()}
        grads = NetworkParams(net.layers, [np.ones_like(w) for w in net.weights], [np.ones_like(b) for b in net.biases])
        grads_before = grads.copy()
        new_net, new_opt = step(net, grads, opt)
        assert new_net is net and new_opt is opt
        assert all(a is b for a, b in zip(arrays, (*net.weights, *net.biases)))
        for name, s in opt.slots.items():
            assert all(a is b for a, b in zip(slot_arrays[name], (*s.weights, *s.biases)))
        for a, b in zip(arrays, (*before.weights, *before.biases)):
            assert not np.any(a == b)
        assert_same_bits(grads, grads_before)
        assert opt.step_count == 1

    def test_state_not_built_by_init_optimizer_is_refused(self):
        net = small_dense_net()
        with pytest.raises(DomainError, match="init_optimizer"):
            step(net, net.zeros_like(), OptimizerState(kind="sgd", lr=0.1))

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_step_and_backward_allocate_no_weight_sized_array(self, kind):
        # the blob teacher: its largest array, the 256x256 weight, is 512 KB
        net = init_params(mlp(16, (256, 256), 4), 0)
        largest = max(w.nbytes for w in net.weights)
        opt = init_optimizer(net, kind=kind, lr=0.01, momentum=0.9, weight_decay=1e-4)
        rng = np.random.default_rng(0)
        _, cache = forward_with_cache(net, rng.normal(size=(32, 16)))
        g = rng.normal(size=(32, 4))
        buf = net.zeros_like()
        step(net, backward_from_cache(net, cache, g, out=buf), opt)  # warm-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert backward_from_cache(net, cache, g, out=buf) is buf
            backward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            step(net, buf, opt)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert backward_peak < largest
        assert step_peak < largest

    def test_warm_adam_step_allocates_under_4kb(self):
        net = init_params(mlp(16, (256, 256), 4), 0)  # the blob teacher
        opt = init_optimizer(net, kind="adam", lr=0.01, momentum=0.9, weight_decay=1e-4)
        grads = NetworkParams(net.layers, [np.full_like(w, 0.01) for w in net.weights], [np.full_like(b, 0.01) for b in net.biases])
        step(net, grads, opt)  # warm-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            step(net, grads, opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, peak

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_layer(self, bad):
        net = small_dense_net()
        opt = init_optimizer(net, kind="sgd", lr=0.1)
        grads = net.zeros_like()
        grads.weights[1][0, 0] = bad
        with pytest.raises(NumericError, match="layer 1"):
            step(net, grads, opt)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("layers,in_dim", STACKS)
    def test_matches_per_layer_oracle_bit_for_bit(self, layers, in_dim, kind, weight_decay):
        net = init_params(layers, 3)
        opt = init_optimizer(net, kind=kind, lr=0.05, momentum=0.9, weight_decay=weight_decay)
        ref_net, ref_opt = net.copy(), replace(opt, slots={k: s.copy() for k, s in opt.slots.items()})
        rng = np.random.default_rng(8)
        for _ in range(3):
            g = rng.normal(size=(4, net.out_features))
            grads = backward(net, rng.normal(size=(4, in_dim)), g)
            net, opt = step(net, grads, opt)
            ref_net, ref_opt = oracle_step(ref_net, grads, ref_opt)
            assert_same_bits(net, ref_net)
            assert sorted(opt.slots) == sorted(ref_opt.slots)
            for name in opt.slots:
                assert_same_bits(opt.slots[name], ref_opt.slots[name])
            assert opt.step_count == ref_opt.step_count

    def test_invalid_hyperparameters(self):
        with pytest.raises(DomainError):
            OptimizerState(kind="sgd", lr=-1.0)
        with pytest.raises(DomainError):
            OptimizerState(kind="sgd", lr=0.1, momentum=1.0)
        with pytest.raises(DomainError):
            OptimizerState(kind="nadam", lr=0.1)

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_hyperparameter_is_refused_naming_it(self, field, value):
        net = init_params(mlp(3, (4,), 2), 0)
        with pytest.raises(DomainError, match=f"^{field}: must be finite, got {value}$"):
            init_optimizer(net, "sgd", **{"lr": 0.1, field: value})


class TestGradCheck:
    def test_quadratic_is_exact(self):
        net = NetworkParams((Dense(2, 2),), [np.array([[1.2, 0.0], [0.0, 0.7]])], [np.zeros(2)])

        def loss(p):
            return float(np.sum((p.weights[0] - 3.0) ** 2) + np.sum(p.biases[0] ** 2))

        def grad(p):
            return NetworkParams(p.layers, [2.0 * (p.weights[0] - 3.0)], [2.0 * p.biases[0]])

        report = param_grad_check(net, loss, grad, tolerance=1e-6)
        assert report.ok
        assert report.max_rel_error < 1e-6

    def test_nan_gradient_entry_is_flagged(self):
        net = NetworkParams((Dense(2, 2),), [np.array([[1.2, 0.0], [0.0, 0.7]])], [np.zeros(2)])

        def loss(p):
            return float(np.sum((p.weights[0] - 3.0) ** 2) + np.sum(p.biases[0] ** 2))

        def grad(p):  # exact but for one weight entry
            weights = 2.0 * (p.weights[0] - 3.0)
            weights[0, 1] = np.nan
            return NetworkParams(p.layers, [weights], [2.0 * p.biases[0]])

        report = param_grad_check(net, loss, grad, tolerance=1e-6)
        assert not report.ok and not report.cases[0].ok
        assert math.isnan(report.cases[0].max_rel_error) and math.isnan(report.max_rel_error)

    @pytest.mark.parametrize("layers,in_dim", STACKS)
    def test_ce_through_softmax(self, layers, in_dim):
        net = init_params(layers, 11)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, in_dim))
        labels = np.array([0, 1, 1, 0])

        def probs(p):
            z = forward(p, x)
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=1, keepdims=True)

        def loss(p):
            pr = probs(p)
            return float(-np.mean(np.log(pr[np.arange(4), labels] + 1e-12)))

        def grad(p):
            g = probs(p)
            g[np.arange(4), labels] -= 1.0
            return backward(p, x, g)

        report = param_grad_check(net, loss, grad, tolerance=1e-4)
        assert report.ok
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("layers,in_dim", STACKS)
    def test_corrupted_gradient_is_flagged(self, layers, in_dim):
        net = init_params(layers, 11)
        x = np.random.default_rng(4).normal(size=(3, in_dim))
        g = np.random.default_rng(5).normal(size=(3, net.out_features))

        def loss(p):
            return float(np.mean(np.sum(g * forward(p, x), axis=1)))

        def bad_grad(p):
            grads = backward(p, x, g)
            grads.weights[1] = grads.weights[1] * 2.0
            return grads

        report = param_grad_check(net, loss, bad_grad, tolerance=1e-4)
        assert not report.ok
        assert [c.name for c in report.cases if not c.ok] == ["layer 1"]

    def test_non_finite_loss_raises(self):
        net = small_dense_net()
        with pytest.raises(NumericError):
            param_grad_check(net, lambda p: float("nan"), lambda p: p.zeros_like(), 1e-4)


class TestArchitecture:
    def test_adjacent_dims_validated(self):
        with pytest.raises(ShapeError, match="layer 0"):
            NetworkParams(
                (Dense(2, 3), Dense(4, 2)),
                [np.zeros((2, 3)), np.zeros((4, 2))],
                [np.zeros(3), np.zeros(2)],
            ).validate()

    def test_conv_geometry(self):
        spec = Conv2d(3, 8, height=6, width=6, kernel=3, stride=2)
        assert spec.out_height == 2 and spec.out_width == 2
        assert spec.in_features == 108 and spec.out_features == 32

    def test_init_is_seeded_and_bounded(self):
        a = init_params(mlp(4, (8,), 3), 42)
        b = init_params(mlp(4, (8,), 3), 42)
        c = init_params(mlp(4, (8,), 3), 43)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
        bound0 = np.sqrt(6.0 / (4 + 8))
        assert np.max(np.abs(a.weights[0])) <= bound0
        for bias in a.biases:
            np.testing.assert_array_equal(bias, np.zeros_like(bias))
