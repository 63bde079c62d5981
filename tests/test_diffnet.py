import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glad.diffnet import (grl_backward, init_mlp, mlp_backward, mlp_forward,
                          softmax_cross_entropy_batch)
from glad.model import ModelConfig, init_glad_model, load_model, save_model
from glad.trainer import NumericError, TrainConfig, apply_grads
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
    params = [np.eye(2), np.zeros(2)]
    out, _ = mlp_forward(params, np.array([[1.0, 2.0]]))
    assert np.allclose(out, [[1.0, 2.0]])


def test_mlp_matches_matrix_oracle():
    rng = np.random.default_rng(3)
    params = init_mlp((4, 6, 3), rng)
    x = rng.normal(size=(2, 4))
    # straight-line matrix arithmetic
    h = np.maximum(x @ params[0] + params[1], 0.0)
    expected = h @ params[2] + params[3]
    assert np.allclose(mlp_forward(params, x)[0], expected, atol=1e-12)


def test_linear_layer_analytic_gradient():
    rng = np.random.default_rng(1)
    params = init_mlp((3, 2), rng)
    x = rng.normal(size=(1, 3))
    g = rng.normal(size=(1, 2))
    _, cache = mlp_forward(params, x)
    grads = [np.empty_like(p) for p in params]
    dx = mlp_backward(params, cache, g, grads)
    assert np.allclose(grads[0], np.outer(x, g))
    assert np.allclose(grads[1], g[0])
    assert np.allclose(dx, g @ params[0].T)


def test_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(2)
    params = init_mlp((3, 5, 2), rng)
    _, cache = mlp_forward(params, rng.normal(size=(4, 3)))
    grads = [np.full_like(p, np.nan) for p in params]
    dx = mlp_backward(params, cache, np.zeros((4, 2)), grads)
    assert all(np.all(g == 0) for g in grads)
    assert np.all(dx == 0)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params = init_mlp((3, 4, 2), rng)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(5, 2))  # fixed projection making the loss scalar

    def loss_fn(p):
        return float(np.sum(mlp_forward(p, x)[0] * w))

    _, cache = mlp_forward(params, x)
    grads = [np.empty_like(p) for p in params]
    mlp_backward(params, cache, w, grads)
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


# The fused SGD update, trainer.apply_grads, on a micro model whose every
# parameter, gradient and velocity entry starts from a given value.
MICRO = ModelConfig(frame_shape=(1, 3), enc_hidden=2, enc_out=2, feat_dim=2, n_classes=2,
                    n_frames=2, tol_clips=2, tol_hidden=2, domain_hidden=(2, 2, 2))


def fused_step(p, g, lr, momentum, weight_decay, v=0.0, groups=("act",)):
    """(model, velocity) after one apply_grads step on groups; p, g and v
    are scalars or whole flat vectors."""
    mdl = init_glad_model(MICRO)
    mdl.params.flat[:] = p
    grads = mdl.zeros()
    grads.flat[:] = g
    velocity = mdl.zeros()
    velocity.flat[:] = v
    apply_grads(mdl, grads, velocity, list(groups), lr,
                TrainConfig(momentum=momentum, weight_decay=weight_decay, model=MICRO))
    return mdl, velocity


def test_sgd_plain_step():
    mdl, _ = fused_step(1.0, 0.5, lr=0.1, momentum=0.0, weight_decay=0.0)
    for p in mdl.params["act"]:
        assert np.all(p == pytest.approx(0.95))


def test_sgd_momentum_first_step():
    mdl, velocity = fused_step(1.0, 0.5, lr=0.1, momentum=0.9, weight_decay=0.0)
    for p, v in zip(mdl.params["act"], velocity["act"]):
        assert np.all(v == pytest.approx(0.5))
        assert np.all(p == pytest.approx(0.95))


def test_sgd_zero_grad_no_decay_keeps_params():
    mdl, _ = fused_step(2.0, 0.0, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.all(mdl.params.flat == 2.0)


def test_sgd_lr_zero_is_identity():
    rng = np.random.default_rng(4)
    p = rng.normal(size=init_glad_model(MICRO).params.flat.size)
    g = rng.normal(size=p.size)
    mdl, _ = fused_step(p, g, lr=0.0, momentum=0.5, weight_decay=0.1,
                        groups=("enc", "proj", "act", "tol", "dom"))
    assert np.array_equal(mdl.params.flat, p)


def test_sgd_weight_decay_skips_biases():
    mdl, _ = fused_step(1.0, 0.0, lr=1.0, momentum=0.0, weight_decay=0.1)
    w, b = mdl.params["act"]
    assert np.all(w == pytest.approx(0.9))
    assert np.all(b == 1.0)


def test_sgd_aborts_on_non_finite_gradient():
    mdl = init_glad_model(MICRO)
    grads = mdl.zeros()
    grads["act"][1][0] = np.nan
    with pytest.raises(NumericError, match="act.1"):
        apply_grads(mdl, grads, mdl.zeros(), ["act"], 0.1,
                    TrainConfig(momentum=0.9, weight_decay=0.0, model=MICRO))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sgd_non_finite_gradient_moves_nothing(bad):
    """A non-finite value in any active gradient tensor, the last one
    checked included, raises before any parameter or velocity moves."""
    groups = ["enc", "proj", "act", "dom"]
    rng = np.random.default_rng(5)
    mdl = init_glad_model(MICRO)
    mdl.params.flat[:] = rng.normal(size=mdl.params.flat.size)
    velocity = mdl.zeros()
    velocity.flat[:] = rng.normal(size=velocity.flat.size)
    before = (mdl.params.flat.tobytes(), velocity.flat.tobytes())
    cfg = TrainConfig(momentum=0.9, weight_decay=0.1, model=MICRO)
    for group in groups:
        for i in range(len(mdl.params[group])):
            grads = mdl.zeros()
            grads.flat[:] = rng.normal(size=grads.flat.size)
            grads[group][i].flat[-1] = bad
            with pytest.raises(NumericError, match=f"tensor {group}.{i}$"):
                apply_grads(mdl, grads, velocity, groups, 0.1, cfg)
            assert (mdl.params.flat.tobytes(), velocity.flat.tobytes()) == before


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
    """A float32-representable flat vector comes back bit for bit, and
    params.json names the tensors in the order of the flat vector, which
    is params.bin's."""
    m = init_glad_model(MICRO, seed=9)
    rng = np.random.default_rng(9)
    m.params.flat[:] = rng.normal(size=m.size).astype(np.float32)
    save_model(m, str(tmp_path))
    back = load_model(str(tmp_path))
    assert back.params.flat.tobytes() == m.params.flat.tobytes()
    assert (tmp_path / "params.bin").read_bytes() == m.params.flat.astype("<f4").tobytes()
    meta = json.loads((tmp_path / "params.json").read_text())
    offsets = {f"{g}.{i}": at for g, ts in m.layout.items() for i, (at, _) in enumerate(ts)}
    assert [e["name"] for e in meta] == sorted(offsets, key=offsets.get)
    assert meta[0]["name"] == "enc.0" and meta[-1]["name"] == "dom.7"
    for e in meta:
        group, i = e["name"].split(".")
        assert e["shape"] == list(back.params[group][int(i)].shape)
