import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glad.diffnet import (MlpSpec, NonFiniteGradientError, ShapeError,
                          grl_backward, init_mlp, mlp_backward, mlp_forward,
                          sgd_step, softmax_cross_entropy_batch)
from gradcheck import finite_difference_check


def softmax_cross_entropy(logits, target):
    """Single-sample oracle: loss and logit gradient for one class target."""
    e = np.exp(logits - np.max(logits))
    loss = float(-np.log(e[target] / e.sum()))
    grad = e / e.sum()
    grad[target] -= 1.0
    return loss, grad


def one_row_xent(logits, target):
    losses, grads = softmax_cross_entropy_batch(np.array([logits]), np.array([target]))
    return losses[0], grads[0]


def test_mlp_identity_case():
    spec = MlpSpec((2, 2))
    params = [np.eye(2), np.zeros(2)]
    out, _ = mlp_forward(spec, params, np.array([[1.0, 2.0]]))
    assert np.allclose(out, [[1.0, 2.0]])


def test_mlp_matches_matrix_oracle():
    rng = np.random.default_rng(3)
    spec = MlpSpec((4, 6, 3))
    params = init_mlp(spec, rng)
    x = rng.normal(size=(2, 4))
    # straight-line matrix arithmetic
    h = np.maximum(x @ params[0] + params[1], 0.0)
    expected = h @ params[2] + params[3]
    assert np.allclose(mlp_forward(spec, params, x)[0], expected, atol=1e-12)


def test_mlp_shape_mismatch_rejected():
    spec = MlpSpec((4, 3))
    params = init_mlp(spec, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        mlp_forward(spec, params, np.zeros((1, 5)))
    with pytest.raises(ShapeError):
        mlp_forward(spec, params, np.zeros(4))  # inputs are (n, d_in) batches


def test_linear_layer_analytic_gradient():
    rng = np.random.default_rng(1)
    spec = MlpSpec((3, 2))
    params = init_mlp(spec, rng)
    x = rng.normal(size=(1, 3))
    g = rng.normal(size=(1, 2))
    _, cache = mlp_forward(spec, params, x)
    grads, dx = mlp_backward(spec, params, cache, g)
    assert np.allclose(grads[0], np.outer(x, g))
    assert np.allclose(grads[1], g[0])
    assert np.allclose(dx, g @ params[0].T)


def test_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(2)
    spec = MlpSpec((3, 5, 2))
    params = init_mlp(spec, rng)
    _, cache = mlp_forward(spec, params, rng.normal(size=(4, 3)))
    grads, dx = mlp_backward(spec, params, cache, np.zeros((4, 2)))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(dx == 0)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    spec = MlpSpec((3, 4, 2))
    params = init_mlp(spec, rng)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(5, 2))  # fixed projection making the loss scalar

    def loss_fn(p):
        return float(np.sum(mlp_forward(spec, p, x)[0] * w))

    _, cache = mlp_forward(spec, params, x)
    grads, _ = mlp_backward(spec, params, cache, w)
    assert finite_difference_check(loss_fn, params, grads) < 1e-6


def test_softmax_xent_symmetric_case():
    loss, grad = one_row_xent([0.0, 0.0], 0)
    assert loss == pytest.approx(np.log(2), abs=1e-12)
    assert np.allclose(grad, [-0.5, 0.5])


def test_softmax_xent_large_margin():
    loss, _ = one_row_xent([100.0, 0.0], 0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_softmax_xent_direct_value():
    loss, _ = one_row_xent([1.0, 2.0, 3.0], 2)
    expected = np.log(np.exp(1) + np.exp(2) + np.exp(3)) - 3
    assert loss == pytest.approx(expected, abs=1e-12)
    assert loss == pytest.approx(0.407606, abs=1e-6)


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.data())
def test_softmax_xent_grad_sums_to_zero(logits, data):
    target = data.draw(st.integers(0, len(logits) - 1))
    _, grad = one_row_xent(logits, target)
    assert abs(grad.sum()) < 1e-12


def test_softmax_xent_batch_matches_single():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 4))
    targets = rng.integers(0, 4, size=6)
    losses, grads = softmax_cross_entropy_batch(logits, targets)
    for i in range(6):
        l, g = softmax_cross_entropy(logits[i], int(targets[i]))
        assert losses[i] == pytest.approx(l, abs=1e-12)
        assert np.allclose(grads[i], g, atol=1e-12)


def test_grl_examples():
    assert np.allclose(grl_backward(np.array([1.0, -2.0]), 1.0), [-1.0, 2.0])
    assert np.allclose(grl_backward(np.array([4.0]), 0.5), [-2.0])
    assert np.all(grl_backward(np.array([3.0, 7.0]), 0.0) == 0.0)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
       st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0, 3))
def test_grl_is_exactly_linear(vec, a, b, coeff):
    u = np.array(vec)
    w = u[::-1].copy()
    left = grl_backward(a * u + b * w, coeff)
    right = a * grl_backward(u, coeff) + b * grl_backward(w, coeff)
    assert np.allclose(left, right, rtol=1e-12, atol=1e-6)


def test_sgd_plain_step():
    params = [np.array([1.0])]
    grads = [np.array([0.5])]
    new = sgd_step(params, grads, [np.zeros(1)], lr=0.1, momentum=0.0, weight_decay=0.0)
    assert new[0][0] == pytest.approx(0.95)


def test_sgd_momentum_first_step():
    params = [np.array([[1.0]])]
    grads = [np.array([[0.5]])]
    velocity = [np.zeros((1, 1))]
    new = sgd_step(params, grads, velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert velocity[0][0, 0] == pytest.approx(0.5)
    assert new[0][0, 0] == pytest.approx(0.95)


def test_sgd_zero_grad_no_decay_keeps_params():
    params = [np.array([[2.0]]), np.array([3.0])]
    grads = [np.zeros((1, 1)), np.zeros(1)]
    new = sgd_step(params, grads, [np.zeros((1, 1)), np.zeros(1)], lr=0.1,
                   momentum=0.9, weight_decay=0.0)
    assert np.allclose(new[0], params[0]) and np.allclose(new[1], params[1])


def test_sgd_lr_zero_is_identity():
    rng = np.random.default_rng(4)
    params = [rng.normal(size=(3, 2)), rng.normal(size=2)]
    grads = [rng.normal(size=(3, 2)), rng.normal(size=2)]
    velocity = [np.zeros_like(p) for p in params]
    new = sgd_step(params, grads, velocity, lr=0.0, momentum=0.5, weight_decay=0.1)
    assert np.array_equal(new[0], params[0]) and np.array_equal(new[1], params[1])


def test_sgd_weight_decay_skips_biases():
    params = [np.array([[1.0]]), np.array([1.0])]
    grads = [np.zeros((1, 1)), np.zeros(1)]
    new = sgd_step(params, grads, [np.zeros((1, 1)), np.zeros(1)], lr=1.0,
                   momentum=0.0, weight_decay=0.1)
    assert new[0][0, 0] == pytest.approx(0.9)
    assert new[1][0] == pytest.approx(1.0)


def test_sgd_aborts_on_non_finite_gradient():
    params = [np.array([1.0])]
    with pytest.raises(NonFiniteGradientError):
        sgd_step(params, [np.array([np.nan])], [np.zeros(1)], lr=0.1,
                 momentum=0.9, weight_decay=0.0)


def test_finite_difference_quadratic():
    params = [np.array([3.0])]

    def loss_fn(p):
        return 0.5 * float(p[0][0]) ** 2

    err = finite_difference_check(loss_fn, params, [np.array([3.0])], eps=1e-5)
    assert err < 1e-8


def test_finite_difference_constant_loss():
    params = [np.array([1.0, 2.0])]
    err = finite_difference_check(lambda p: 1.0, params, [np.zeros(2)])
    assert err == 0.0


def test_checkpoint_roundtrip(tmp_path):
    # the named-tensor checkpoint now lives in model.save_model/load_model:
    # float32-representable parameters come back bit for bit, in order
    from glad.model import ModelConfig, init_glad_model, load_model, save_model
    cfg = ModelConfig(frame_dim=3, enc_hidden=2, enc_out=2, feat_dim=2,
                      n_classes=2, n_frames=4, tol_clips=2, tol_hidden=2,
                      domain_hidden=(2, 2, 2))
    m = init_glad_model(cfg, seed=9)
    rng = np.random.default_rng(9)
    for ps in m.params.values():
        for i, p in enumerate(ps):
            ps[i] = rng.normal(size=p.shape).astype(np.float32).astype(np.float64)
    save_model(m, str(tmp_path))
    back = load_model(str(tmp_path))
    names = [f"{g}.{i}" for g, ps in back.params.items() for i in range(len(ps))]
    assert names == [f"{g}.{i}" for g, ps in m.params.items() for i in range(len(ps))]
    for group in m.params:
        for orig, loaded in zip(m.params[group], back.params[group]):
            assert np.array_equal(orig, loaded)
