import numpy as np
import pytest

from urbanav import autodiff as ad
from urbanav.abstraction import vocabulary
from urbanav.model import ModelConfig, NavigationModel
from urbanav.training import finite_difference_check
from urbanav.worldstate import WorldStateLayout


def p(shape, seed=0):
    rng = np.random.default_rng(seed)
    return ad.parameter(rng.normal(size=shape))


def entry(t: ad.Tensor, index) -> ad.Tensor:
    """One entry of a node (an int for a vector, a tuple for a matrix): the tests' loss head."""
    return ad.gather(t, index)


def test_add_mul_backward():
    # b feeds two products, so its gradient adds up over both uses
    a, b = p(4, 1), p(4, 2)
    out = ad.mul(ad.mul(a, b), b)
    ad.backward(entry(out, 0))
    assert a.grad[0] == b.data[0] * b.data[0] and b.grad[0] == 2 * a.data[0] * b.data[0]
    assert not a.grad[1:].any() and not b.grad[1:].any()


def test_backward_requires_scalar():
    x = p(3)
    with pytest.raises(ValueError):
        ad.backward(x)


def test_no_grad_builds_no_graph():
    x = p(3)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y.parents == () and not y.requires_grad


def test_shared_node_accumulates_once_per_consumer():
    x = ad.parameter(np.array([2.0]))
    y = ad.mul(x, x)  # y = x^2: both parents are x
    z = ad.mul(y, y)  # z = x^4, dz/dx = 4x^3 = 32
    ad.backward(entry(z, 0))
    assert x.grad[0] == pytest.approx(32.0)


def test_linear_subnetwork_gradcheck_is_exact():
    # [W | v] @ [x; 1] = W x + v is linear in W and v, so the analytic
    # gradient of one output entry is the one-hot row, exactly
    W = p((5, 4), 11)
    v = p((5, 1), 12)
    x = ad.constant(np.append(np.random.default_rng(5).normal(size=4), 1.0)[:, None])

    def build():
        return entry(ad.matmul(ad.concat([W, v]), x), (2, 0))

    err = finite_difference_check(build, [W, v], h=1e-4)
    assert err < 1e-8
    onehot = np.eye(5)[2]
    assert np.allclose(W.grad, np.outer(onehot, x.data[:4, 0]), rtol=0, atol=1e-15)
    assert np.allclose(v.grad[:, 0], onehot, rtol=0, atol=1e-15)


def _nonlinear():
    W1, W2 = p((6, 5), 21), p((3, 6), 22)
    x = ad.constant(np.random.default_rng(9).normal(size=(5, 1)))

    def build():
        h = ad.matmul(W1, x)
        logits = ad.matmul(W2, ad.mul(h, h))
        return entry(ad.mul(logits, logits), (1, 0))

    return build, [W1, W2]


def test_nonlinear_graph_gradcheck():
    build, params = _nonlinear()
    assert finite_difference_check(build, params, h=1e-4) < 1e-6


def test_corrupted_backward_is_detected():
    build, params = _nonlinear()
    assert finite_difference_check(build, params, h=1e-4, corrupt_rule="mul") > 1e-2


def test_matrix_ops_gradcheck():
    A = p((4, 3), 41)
    B = p((3, 4), 42)
    u = p((1, 3), 44)

    def build():
        M = ad.matmul(A, B)                # 4x4
        w = ad.matmul(u, ad.matmul(B, M))  # (1x3)@((3x4)@(4x4)) -> 1x4
        return entry(ad.matmul(w, M), (0, 2))

    err = finite_difference_check(build, [A, B, u], h=1e-4)
    assert err < 1e-6


def test_stack_row_concat_gradcheck():
    a, b = p((3, 3), 51), p((2, 3), 52)
    W = p((6, 2), 53)

    def build():
        # repeated ids scatter twice into the same row
        rows = ad.gather(b, [1, 1, 0])
        M = ad.concat([ad.gather(a, [2, 0, 2]), ad.mul(rows, rows)])
        r0 = ad.gather(M, [0])
        cat = ad.concat([ad.gather(a, [1]), ad.gather(b, [0])])
        return entry(ad.mul(ad.matmul(r0, W), ad.matmul(cat, W)), (0, 0))

    err = finite_difference_check(build, [a, b, W], h=1e-4)
    assert err < 1e-6


def test_topological_order_handles_deep_chains():
    x = ad.parameter(np.ones(2))
    scale = ad.constant(np.array([1.0, 0.5]))
    h = x
    for _ in range(3000):  # deeper than the recursion limit
        h = ad.mul(h, scale)
    ad.backward(entry(h, 0))
    assert x.grad.tolist() == [1.0, 0.0]


# -- fused ops --------------------------------------------------------------------


def test_lstm_cell_gradcheck():
    """The cell rule both fused LSTM ops use: ``_lstm_step_grads`` against central differences."""
    rng = np.random.default_rng(61)
    H = 3
    z, c_prev = rng.normal(size=4 * H), rng.normal(size=H)
    dh, dc = rng.normal(size=H), rng.normal(size=H)  # the loss is dh . h + dc . c

    def loss(z, c_prev):
        _, c, _, h = ad._lstm_step(z, c_prev)
        return dh @ h + dc @ c

    acts, _, tanh_c, _ = ad._lstm_step(z, c_prev)
    dz, dc_prev = ad._lstm_step_grads(acts, c_prev, tanh_c, dh, dc)
    eps = 1e-6
    for x, grad in ((z, dz), (c_prev, dc_prev)):
        for j in range(x.size):
            up, down = x.copy(), x.copy()
            up[j] += eps
            down[j] -= eps
            args = (up, c_prev) if x is z else (z, up)
            args_down = (down, c_prev) if x is z else (z, down)
            numeric = (loss(*args) - loss(*args_down)) / (2 * eps)
            assert grad[j] == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def _bidirectional_sequence():
    """Both directions of the sequence op over a dropped-out gathered matrix."""
    H, E = 3, 4
    emb = p((6, E), 71)
    fwd = [p((4 * H, E), 72), p((4 * H, H), 73), p(4 * H, 74)]
    bwd = [p((4 * H, E), 75), p((4 * H, H), 76), p(4 * H, 77)]
    w_out = p((2 * H, 1), 78)
    ids = [3, 0, 5, 3, 1]
    mask = (np.random.default_rng(79).random((len(ids), E)) < 0.7) / 0.7
    params = [emb, *fwd, *bwd, w_out]

    def build():
        x = ad.mul(ad.gather(emb, ids), ad.constant(mask))
        states = ad.concat([ad.lstm(x, *fwd), ad.lstm(x, *bwd, reverse=True)])
        scores = ad.matmul(states, w_out)  # one score per position
        return entry(ad.mul(scores, scores), (2, 0))

    return build, params


def _decoder_op():
    """The teacher-forced decoder node of a tiny float64 CGAEW model, one fixed dropout mask."""
    layout = WorldStateLayout(types=("street", "shop"), slots_per_type=1)
    config = ModelConfig(variant="CGAEW", embed_dim=4, encoder_hidden=6, decoder_hidden=5,
                         dropout_keep=0.7, seed=1, dtype="float64")
    model = NavigationModel(config, vocabulary([("a", "b", "c")]), layout)
    worlds = list((np.random.default_rng(91).random((4, 2 * layout.width)) < 0.5) * 1.0)
    p = model.params

    def build():
        return model.sentence_loss([2, 3, 4, 2], [0, 1, 0, 4], worlds, np.random.default_rng(92))

    return build, [p["att_Wh"], p["att_Ws"], p["att_Ww"], p["att_v"]]


def test_lstm_sequence_gradcheck():
    build, params = _bidirectional_sequence()
    assert finite_difference_check(build, params, h=1e-4) < 1e-6


def test_lstm_sequence_matches_cell_loop():
    H, E = 3, 4
    x = np.random.default_rng(81).normal(size=(5, E))
    w_x, w_h, b = p((4 * H, E), 82), p((4 * H, H), 83), p(4 * H, 84)
    with ad.no_grad():
        for reverse in (False, True):
            states = ad.lstm(ad.constant(x), w_x, w_h, b, reverse=reverse).data
            h = c = np.zeros(H)
            rows = []
            for t in (range(4, -1, -1) if reverse else range(5)):
                _, c, _, h = ad._lstm_step(w_x.data @ x[t] + w_h.data @ h + b.data, c)
                rows.append(h)
            expected = np.stack(rows[::-1] if reverse else rows)
            assert np.allclose(states, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rule, graph", [
    ("tanh", _decoder_op),
    ("lstm", _bidirectional_sequence),
    ("gather", _bidirectional_sequence),
])
def test_corrupted_fused_rule_is_detected(rule, graph):
    build, params = graph()
    assert finite_difference_check(build, params, h=1e-4, corrupt_rule=rule) > 1e-2
