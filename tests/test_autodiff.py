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


# The kernel defines no generic ops, so the kernel tests build their graphs
# from these nodes, made with ``ad._make`` the way the model makes its own.


def mul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    def bw(g):
        ad._acc(a, g * b.data)
        ad._acc(b, g * a.data)

    return ad._make(a.data * b.data, (a, b), bw, "mul")


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    def bw(g):
        ad._acc(a, g @ b.data.T)
        ad._acc(b, a.data.T @ g)

    return ad._make(a.data @ b.data, (a, b), bw, "matmul")


def concat(parts: list[ad.Tensor]) -> ad.Tensor:
    """Concatenation along the last axis."""

    def bw(g):
        at = 0
        for part in parts:
            size = part.data.shape[-1]
            ad._acc(part, g[..., at : at + size])
            at += size

    return ad._make(np.concatenate([t.data for t in parts], axis=-1), parts, bw, "concat")


def gather(table: ad.Tensor, ids) -> ad.Tensor:
    def bw(g):
        ad._acc_rows(table, ids, g)

    return ad._make(table.data[ids], (table,), bw, "gather")


def entry(t: ad.Tensor, index) -> ad.Tensor:
    """One entry of a node (an int for a vector, a tuple for a matrix): the tests' loss head."""
    return gather(t, index)


def test_add_mul_backward():
    # b feeds two products, so its gradient adds up over both uses
    a, b = p(4, 1), p(4, 2)
    out = mul(mul(a, b), b)
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
        y = mul(x, x)
    assert y.parents == () and not y.requires_grad


def test_shared_node_accumulates_once_per_consumer():
    x = ad.parameter(np.array([2.0]))
    y = mul(x, x)  # y = x^2: both parents are x
    z = mul(y, y)  # z = x^4, dz/dx = 4x^3 = 32
    ad.backward(entry(z, 0))
    assert x.grad[0] == pytest.approx(32.0)


def test_linear_subnetwork_gradcheck_is_exact():
    # [W | v] @ [x; 1] = W x + v is linear in W and v, so the analytic
    # gradient of one output entry is the one-hot row, exactly
    W = p((5, 4), 11)
    v = p((5, 1), 12)
    x = ad.constant(np.append(np.random.default_rng(5).normal(size=4), 1.0)[:, None])

    def build():
        return entry(matmul(concat([W, v]), x), (2, 0))

    err = finite_difference_check(build, [W, v], h=1e-4)
    assert err < 1e-8
    onehot = np.eye(5)[2]
    assert np.allclose(W.grad, np.outer(onehot, x.data[:4, 0]), rtol=0, atol=1e-15)
    assert np.allclose(v.grad[:, 0], onehot, rtol=0, atol=1e-15)


def _nonlinear():
    W1, W2 = p((6, 5), 21), p((3, 6), 22)
    x = ad.constant(np.random.default_rng(9).normal(size=(5, 1)))

    def build():
        h = matmul(W1, x)
        logits = matmul(W2, mul(h, h))
        return entry(mul(logits, logits), (1, 0))

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
        M = matmul(A, B)                # 4x4
        w = matmul(u, matmul(B, M))  # (1x3)@((3x4)@(4x4)) -> 1x4
        return entry(matmul(w, M), (0, 2))

    err = finite_difference_check(build, [A, B, u], h=1e-4)
    assert err < 1e-6


def test_stack_row_concat_gradcheck():
    a, b = p((3, 3), 51), p((2, 3), 52)
    W = p((6, 2), 53)

    def build():
        # repeated ids scatter twice into the same row
        rows = gather(b, [1, 1, 0])
        M = concat([gather(a, [2, 0, 2]), mul(rows, rows)])
        r0 = gather(M, [0])
        cat = concat([gather(a, [1]), gather(b, [0])])
        return entry(mul(matmul(r0, W), matmul(cat, W)), (0, 0))

    err = finite_difference_check(build, [a, b, W], h=1e-4)
    assert err < 1e-6


def test_topological_order_handles_deep_chains():
    x = ad.parameter(np.ones(2))
    scale = ad.constant(np.array([1.0, 0.5]))
    h = x
    for _ in range(3000):  # deeper than the recursion limit
        h = mul(h, scale)
    ad.backward(entry(h, 0))
    assert x.grad.tolist() == [1.0, 0.0]


# -- fused ops --------------------------------------------------------------------


def test_lstm_cell_gradcheck():
    """The cell rule both fused ops use: ``_lstm_step_grads`` against central differences."""
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


def test_lstm_cell_rows_equal_one_row_at_a_time():
    """Stacked rows through the cell and its gradients, as the encoder runs both directions."""
    rng = np.random.default_rng(62)
    H = 3
    z, c_prev = rng.normal(size=(2, 4 * H)), rng.normal(size=(2, H))
    dh, dc = rng.normal(size=(2, H)), rng.normal(size=(2, H))
    acts, _, tanh_c, _ = ad._lstm_step(z, c_prev)
    rows = ad._lstm_step_grads(acts, c_prev, tanh_c, dh, dc)
    for k in range(2):
        alone = ad._lstm_step(z[k], c_prev[k])
        assert all(np.array_equal(a[k], b) for a, b in zip(ad._lstm_step(z, c_prev), alone))
        grads = ad._lstm_step_grads(alone[0], c_prev[k], alone[2], dh[k], dc[k])
        assert all(np.array_equal(a[k], b) for a, b in zip(rows, grads))


def _tiny_model(variant="CGA", dtype="float64", dropout_keep=0.7, seed=1):
    layout = WorldStateLayout(types=("street", "shop"), slots_per_type=1)
    config = ModelConfig(variant=variant, embed_dim=4, encoder_hidden=6, decoder_hidden=5,
                         dropout_keep=dropout_keep, seed=seed, dtype=dtype)
    return NavigationModel(config, vocabulary([("a", "b", "c")]), layout)


ENCODER_WEIGHTS = ["tok_emb", "enc_fwd_Wx", "enc_fwd_Wh", "enc_fwd_b",
                   "enc_bwd_Wx", "enc_bwd_Wh", "enc_bwd_b", "att_Wh"]


def _encoder_op():
    """The encoder node of a tiny float64 CGA model: one fixed dropout mask, repeated token ids."""
    model = _tiny_model()
    p = model.params

    def build():
        return model.sentence_loss([3, 2, 4, 3, 3], [0, 2, 4], None, np.random.default_rng(93))

    return build, [p[n] for n in ENCODER_WEIGHTS]


def _decoder_op():
    """The teacher-forced decoder node of a tiny float64 CGAEW model, one fixed dropout mask."""
    model = _tiny_model("CGAEW")
    worlds = list((np.random.default_rng(91).random((4, 2 * model.layout.width)) < 0.5) * 1.0)
    p = model.params

    def build():
        return model.sentence_loss([2, 3, 4, 2], [0, 1, 0, 4], worlds, np.random.default_rng(92))

    return build, [p["att_Wh"], p["att_Ws"], p["att_Ww"], p["att_v"]]


def test_lstm_sequence_gradcheck():
    """The encoder op's weights, through ``sentence_loss``, against central differences."""
    build, params = _encoder_op()
    assert finite_difference_check(build, params, h=1e-4) < 1e-6


def test_lstm_sequence_matches_cell_loop():
    """The encoder's stacked loop equals each direction alone through ``_lstm_step``, bit for bit."""
    ids = [3, 2, 4, 3, 3]
    for dtype in ("float32", "float64"):
        model = _tiny_model(dtype=dtype, dropout_keep=1.0, seed=4)
        with ad.no_grad():
            states, proj = model.encode(ids)
        p = {k: t.data for k, t in model.params.items()}
        x = p["tok_emb"][ids]
        directions = []
        for d, xs in (("fwd", x), ("bwd", x[::-1])):
            zx = xs @ p[f"enc_{d}_Wx"].T
            h = c = np.zeros(3, dtype=dtype)
            rows = []
            for t in range(len(ids)):
                z = zx[t] + p[f"enc_{d}_Wh"] @ h
                z += p[f"enc_{d}_b"]
                _, c, _, h = ad._lstm_step(z, c)
                rows.append(h)
            directions.append(np.stack(rows))
        expected = np.concatenate([directions[0], directions[1][::-1]], axis=-1)
        assert states.data.dtype == np.dtype(dtype)
        assert np.array_equal(states.data, expected)
        assert np.array_equal(proj, expected @ p["att_Wh"])


@pytest.mark.parametrize("rule, graph", [
    ("tanh", _decoder_op),
    ("encoder", _encoder_op),
])
def test_corrupted_fused_rule_is_detected(rule, graph):
    build, params = graph()
    assert finite_difference_check(build, params, h=1e-4, corrupt_rule=rule) > 1e-2
