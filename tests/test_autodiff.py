import numpy as np
import pytest

from urbanav import autodiff as ad
from urbanav.abstraction import vocabulary
from urbanav.model import ModelConfig, NavigationModel
from urbanav.training import finite_difference_check
from urbanav.worldstate import WorldStateLayout


def test_lstm_cell_gradcheck():
    """The cell rule both backward passes use: ``_lstm_step_grads`` against central differences."""
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
    """The encoder of a tiny float64 CGA model: one fixed dropout mask, repeated token ids."""
    model = _tiny_model()
    p = model.params

    def build():
        return model.sentence_loss([3, 2, 4, 3, 3], [0, 2, 4], None, np.random.default_rng(93))

    return build, [p[n] for n in ENCODER_WEIGHTS]


def _decoder_op():
    """The teacher-forced decoder of a tiny float64 CGAEW model, one fixed dropout mask."""
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
        states, proj, _ = model.encode(ids)
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
        assert states.dtype == np.dtype(dtype)
        assert np.array_equal(states, expected)
        assert np.array_equal(proj, expected @ p["att_Wh"])


@pytest.mark.parametrize("rule, op", [
    ("tanh", _decoder_op),
    ("encoder", _encoder_op),
])
def test_corrupted_fused_rule_is_detected(rule, op):
    build, params = op()
    assert finite_difference_check(build, params, h=1e-4, corrupt_rule=rule) > 1e-2
