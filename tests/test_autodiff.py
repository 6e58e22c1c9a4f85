import numpy as np
import pytest

from urbanav import autodiff as ad
from urbanav.training import finite_difference_check


def p(shape, seed=0):
    rng = np.random.default_rng(seed)
    return ad.parameter(rng.normal(size=shape))


def test_add_mul_backward():
    a, b = p(4, 1), p(4, 2)
    out = ad.mul(ad.add(a, b), b)
    loss = ad.nll(out, 0)
    ad.backward(loss)
    assert a.grad is not None and b.grad is not None


def test_softmax_sums_to_one():
    x = p(7, 3)
    s = ad.softmax(x)
    assert s.data.sum() == pytest.approx(1.0, abs=1e-6)


def test_backward_requires_scalar():
    x = p(3)
    with pytest.raises(ValueError):
        ad.backward(x)


def test_no_grad_builds_no_graph():
    x = p(3)
    with ad.no_grad():
        y = ad.tanh(x)
    assert y.parents == () and not y.requires_grad


def test_shared_node_accumulates_once_per_consumer():
    x = ad.parameter(np.array(2.0))
    y = ad.add(x, x)  # y = 2x
    z = ad.mul(y, y)  # z = 4x^2, dz/dx = 8x = 16
    ad.backward(z)
    assert x.grad == pytest.approx(16.0)


def test_linear_subnetwork_gradcheck_is_exact():
    # the logits are linear in W and v, so the analytic gradient is the
    # closed form (softmax - onehot) routed through the linear ops, exactly
    W = p((5, 4), 11)
    x = ad.constant(np.random.default_rng(5).normal(size=4))
    v = p(5, 12)

    def build():
        return ad.nll(ad.add(ad.mv(W, x), v), 0)

    err = finite_difference_check(build, [W, v], h=1e-4)
    assert err < 1e-8
    dlogits = ad.softmax(ad.add(ad.mv(W, x), v)).data
    dlogits[0] -= 1.0
    assert np.allclose(W.grad, np.outer(dlogits, x.data), rtol=0, atol=1e-15)
    assert np.allclose(v.grad, dlogits, rtol=0, atol=1e-15)


def test_nonlinear_graph_gradcheck():
    W1, W2 = p((6, 5), 21), p((3, 6), 22)
    x = ad.constant(np.random.default_rng(9).normal(size=5))

    def build():
        h = ad.tanh(ad.mv(W1, x))
        logits = ad.mv(W2, ad.softmax(h))
        return ad.nll(logits, 1)

    err = finite_difference_check(build, [W1, W2], h=1e-4)
    assert err < 1e-6


def test_corrupted_backward_is_detected():
    W1, W2 = p((6, 5), 31), p((3, 6), 32)
    x = ad.constant(np.random.default_rng(13).normal(size=5))

    def build():
        h = ad.tanh(ad.mv(W1, x))
        logits = ad.mv(W2, h)
        return ad.nll(logits, 0)

    err = finite_difference_check(build, [W1, W2], h=1e-4, corrupt_rule="tanh")
    assert err > 1e-2


def test_matrix_ops_gradcheck():
    A = p((4, 3), 41)
    B = p((3, 4), 42)
    v = p(4, 43)
    u = p(3, 44)

    def build():
        M = ad.matmul(A, B)            # 4x4
        M2 = ad.add_rowvec(M, v)       # add v to each row
        w = ad.vm(u, ad.matmul(B, M2))  # (3x4)@(4x4) -> u@.. -> 4
        logits = ad.mv(M2, w)
        return ad.nll(logits, 2)

    err = finite_difference_check(build, [A, B, v, u], h=1e-4)
    assert err < 1e-6


def test_stack_row_concat_gradcheck():
    a, b = p((3, 3), 51), p((2, 3), 52)
    W = p((2, 6), 53)

    def build():
        # repeated ids scatter twice into the same row
        M = ad.concat([ad.gather(a, [2, 0, 2]), ad.tanh(ad.gather(b, [1, 1, 0]))])
        r0 = ad.gather(M, 0)
        cat = ad.concat([ad.gather(a, 1), ad.gather(b, 0)])
        return ad.nll(ad.add(ad.mv(W, r0), ad.mv(W, cat)), 0)

    err = finite_difference_check(build, [a, b, W], h=1e-4)
    assert err < 1e-6


def test_topological_order_handles_deep_chains():
    x = ad.parameter(np.zeros(2))
    h = x
    for _ in range(3000):  # deeper than the recursion limit
        h = ad.tanh(h)
    loss = ad.nll(h, 0)
    ad.backward(loss)
    assert np.all(np.isfinite(x.grad))


# -- fused LSTM ops --------------------------------------------------------------


def _unrolled_cells():
    """Four lstm_cell steps: per-source terms, a non-zero carried state, and a
    step whose h feeds nothing but whose c carries on."""
    H, E = 3, 4
    emb = p((5, E), 61)
    w_x, w_h, w_c = p((4 * H, E), 62), p((4 * H, H), 63), p((4 * H, 2), 64)
    bias, h0, c0 = p(4 * H, 65), p(H, 66), p(H, 67)
    w_out = p((3, H), 68)
    side = ad.constant(np.random.default_rng(69).normal(size=2))
    params = [emb, w_x, w_h, w_c, bias, h0, c0, w_out]

    def build():
        h, c = h0, c0
        losses = []
        for t, tok in enumerate([1, 4, 4, 0]):
            terms = [(w_x, ad.gather(emb, tok)), (w_c, side)]
            if t != 2:  # step 2 ignores h from step 1, so only its c carries on
                terms.append((w_h, h))
            h, c = ad.lstm_cell(terms, bias, c)
            if t != 1:
                losses.append(ad.nll(ad.mv(w_out, h), t % 3))
        return ad.add_n(losses)

    return build, params


def _bidirectional_sequence():
    """Both directions of the sequence op over a dropped-out gathered matrix."""
    H, E = 3, 4
    emb = p((6, E), 71)
    fwd = [p((4 * H, E), 72), p((4 * H, H), 73), p(4 * H, 74)]
    bwd = [p((4 * H, E), 75), p((4 * H, H), 76), p(4 * H, 77)]
    w_out = p((3, 2 * H), 78)
    ids = [3, 0, 5, 3, 1]
    mask = (np.random.default_rng(79).random((len(ids), E)) < 0.7) / 0.7
    params = [emb, *fwd, *bwd, w_out]

    def build():
        x = ad.mul(ad.gather(emb, ids), ad.constant(mask))
        states = ad.concat([ad.lstm(x, *fwd), ad.lstm(x, *bwd, reverse=True)])
        return ad.add_n([ad.nll(ad.mv(w_out, ad.gather(states, t)), t % 3) for t in (0, 2, 4)])

    return build, params


def test_lstm_cell_gradcheck():
    build, params = _unrolled_cells()
    assert finite_difference_check(build, params, h=1e-4) < 1e-6


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
            h = c = ad.constant(np.zeros(H))
            rows = []
            for t in (range(4, -1, -1) if reverse else range(5)):
                h, c = ad.lstm_cell([(w_x, ad.constant(x[t])), (w_h, h)], b, c)
                rows.append(h.data)
            expected = np.stack(rows[::-1] if reverse else rows)
            assert np.allclose(states, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rule, graph", [
    ("lstm_cell", _unrolled_cells),
    ("lstm", _bidirectional_sequence),
    ("gather", _bidirectional_sequence),
])
def test_corrupted_fused_rule_is_detected(rule, graph):
    build, params = graph()
    assert finite_difference_check(build, params, h=1e-4, corrupt_rule=rule) > 1e-2
