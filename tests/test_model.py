import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from urbanav import autodiff as ad
from urbanav.abstraction import vocabulary
from urbanav.executor import Action, Pose
from urbanav.model import (
    ACTIONS,
    ACTION_IDS,
    END_ID,
    ModelConfig,
    NavigationModel,
    length_penalty,
)
from urbanav.training import (
    Adam,
    EpochLog,
    TrainingDiverged,
    build_example,
    finite_difference_check,
    kept_epoch,
    train,
)
from urbanav.worldstate import WorldStateLayout, compute as compute_world

from conftest import plus_map, straight_map

TINY = ModelConfig(
    variant="CGAEW", embed_dim=6, encoder_hidden=8, decoder_hidden=8,
    dropout_keep=1.0, seed=3, horizon=4, radius=1, slots_per_type=2, dtype="float64",
)
LAYOUT = WorldStateLayout(types=("street", "shop", "traffic_signal", "other"), slots_per_type=2)
VOCAB = vocabulary([("walk", "until", "you", "reach", "<SHOP_1>", "turn", "left", ".")])


def tiny_model(variant="CGAEW", seed=3) -> NavigationModel:
    config = ModelConfig(
        variant=variant, embed_dim=6, encoder_hidden=8, decoder_hidden=8,
        dropout_keep=1.0, seed=seed, horizon=4, radius=1, slots_per_type=2,
        dtype="float64",
    )
    return NavigationModel(config, VOCAB, LAYOUT if variant == "CGAEW" else None)


def dummy_world() -> np.ndarray:
    """A here||ahead world vector: a shop nearby, <SHOP_1> on the path ahead."""
    world = np.zeros(2 * LAYOUT.width)
    world[1] = 1.0
    world[LAYOUT.width + LAYOUT.slot_index("<SHOP_1>")] = 1.0
    return world


# -- encoder ------------------------------------------------------------------


def test_encode_single_token_shape():
    model = tiny_model()
    states, _, _ = model.encode([2])
    assert states.shape == (1, 8)


def test_encode_rejects_empty():
    with pytest.raises(ValueError):
        tiny_model().encode([])


def test_encode_zero_weights_collapses_positions():
    # with all recurrent/input weights at zero the gates are constant, so
    # every position carries the same (zero) hidden state
    model = tiny_model()
    for name in ("enc_fwd_Wx", "enc_fwd_Wh", "enc_fwd_b",
                 "enc_bwd_Wx", "enc_bwd_Wh", "enc_bwd_b"):
        model.params[name].data[...] = 0.0
    states, _, _ = model.encode(VOCAB.encode(["walk", "until", "you"]))
    assert np.allclose(states, 0.0)
    assert np.allclose(states[0], states[1])


def test_encode_matches_hand_unrolled_recurrence():
    model = tiny_model()
    token_ids = VOCAB.encode(["walk", "until", "you", "reach", "<SHOP_1>", "turn", "."])
    assert len(token_ids) == 7
    states, _, _ = model.encode(token_ids)

    # independent naive unroll with plain numpy
    p = {k: t.data for k, t in model.params.items()}
    H = 4

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def unroll(Wx, Wh, b, xs):
        h = np.zeros(H)
        c = np.zeros(H)
        out = []
        for x in xs:
            z = Wx @ x + Wh @ h + b
            i, f, g, o = sig(z[:H]), sig(z[H : 2 * H]), np.tanh(z[2 * H : 3 * H]), sig(z[3 * H :])
            c = f * c + i * g
            h = o * np.tanh(c)
            out.append(h)
        return out

    embs = [p["tok_emb"][i] for i in token_ids]
    fwd = unroll(p["enc_fwd_Wx"], p["enc_fwd_Wh"], p["enc_fwd_b"], embs)
    bwd = unroll(p["enc_bwd_Wx"], p["enc_bwd_Wh"], p["enc_bwd_b"], embs[::-1])[::-1]
    expected = np.stack([np.concatenate([f, b]) for f, b in zip(fwd, bwd)])
    assert np.allclose(states, expected, atol=1e-12)


# -- attention -----------------------------------------------------------------


def step_inputs(model, prev_ids, worlds):
    """``_step_rows``'s per-row products: (emb_z, world_z, world_u), one row per action id."""
    p = {k: t.data for k, t in model.params.items()}
    emb_z = np.stack([p["dec_W_emb"] @ p["act_emb"][a] for a in prev_ids])
    if not model.config.uses_world:
        return emb_z, None, None
    return (emb_z, np.stack([p["dec_W_world"] @ w for w in worlds]),
            np.stack([w @ p["att_Ww"] for w in worlds]))


def encoded(model, token_ids):
    return model.encode(token_ids)[:2]  # (states, proj)


def test_attention_singleton_weight_is_one():
    model = tiny_model()
    _, _, world_u = step_inputs(model, [END_ID], [dummy_world()])
    _, weights, _ = model.attend(*encoded(model, [3]), np.zeros((1, 8)), world_u)
    assert weights.shape == (1, 1)
    assert weights[0, 0] == pytest.approx(1.0)


def test_attention_weights_sum_to_one():
    model = tiny_model()
    rng = np.random.default_rng(0)
    _, _, world_u = step_inputs(model, [END_ID] * 5, [dummy_world()] * 5)
    states, proj = encoded(model, VOCAB.encode(["walk", "until", "you", "reach"]))
    _, weights, _ = model.attend(states, proj, rng.normal(size=(5, 8)), world_u)
    assert weights.shape == (5, 4)
    assert np.allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-6)


def test_cgaew_attention_with_zero_world_weights_equals_cgae():
    cgae = tiny_model("CGAE")
    cgaew = tiny_model("CGAEW")
    cgaew.params["att_Ww"].data[...] = 0.0
    token_ids = VOCAB.encode(["walk", "until", "you"])
    s_vec = np.random.default_rng(1).normal(size=(1, 8))
    _, _, world_u = step_inputs(cgaew, [END_ID], [dummy_world()])
    _, w1, c1 = cgae.attend(*encoded(cgae, token_ids), s_vec, None)
    _, w2, c2 = cgaew.attend(*encoded(cgaew, token_ids), s_vec, world_u)
    assert np.array_equal(w1, w2)
    assert np.array_equal(c1, c2)


# -- decode step ----------------------------------------------------------------


def first_step_probs(model, token_ids):
    """Action distribution and state after the first decoder step."""
    zeros = np.zeros((1, 8))
    step = model._step_rows(*encoded(model, token_ids), zeros, zeros,
                            *step_inputs(model, [END_ID], [dummy_world()]))
    return np.exp(step.logp[0]), step.h[0]


def test_decoder_step_distribution_sums_to_one():
    probs, h = first_step_probs(tiny_model(), [2, 3])
    assert probs.shape == (5,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    assert h.shape == (8,)


def test_zero_output_projection_gives_uniform():
    model = tiny_model()
    model.params["out_W"].data[...] = 0.0
    model.params["out_b"].data[...] = 0.0
    probs, _ = first_step_probs(model, [2])
    assert np.allclose(probs, 0.2)


def test_ablation_nesting_cgaew_with_zero_world_equals_cga():
    """Zeroed world blocks collapse CGAEW onto CGA bit for bit."""
    cga = tiny_model("CGA")
    cgaew = tiny_model("CGAEW")
    cgaew.params["att_Ww"].data[...] = 0.0
    cgaew.params["dec_W_world"].data[...] = 0.0
    token_ids = VOCAB.encode(["walk", "until", "you", "reach", "<SHOP_1>"])
    action_ids = [ACTION_IDS[Action.WALK]] * 3 + [ACTION_IDS[Action.END]]
    worlds = [dummy_world() for _ in action_ids]
    loss_cga = cga.sentence_loss(token_ids, action_ids, None)
    loss_cgaew = cgaew.sentence_loss(token_ids, action_ids, worlds)
    assert loss_cga.data == loss_cgaew.data
    ad.backward(loss_cga)
    ad.backward(loss_cgaew)
    for name, t in cga.params.items():
        assert np.array_equal(t.grad, cgaew.params[name].grad), name

    # favour WALK over END so the width-4 beam decodes more than END
    for model in (cga, cgaew):
        model.params["out_b"].data[[ACTION_IDS[Action.WALK], END_ID]] = (3.0, -1.0)
    grid = plus_map()
    p0 = Pose(2, 0, 1)
    tokens = ["walk", "until", "you", "reach", "<SHOP_1>"]
    bindings = (("<SHOP_1>", 10),)
    a1 = cga.beam_search(tokens, p0, grid, bindings, beam_width=4)
    a2 = cgaew.beam_search(tokens, p0, grid, bindings, beam_width=4)
    assert len(a1.actions) > 1
    assert a1.actions == a2.actions
    assert a1.score == a2.score


# -- beam search ------------------------------------------------------------------


def test_length_penalty_formula():
    assert length_penalty(1, 0.6) == pytest.approx(1.0)
    assert length_penalty(7, 0.6) == pytest.approx(2.0 ** 0.6)
    assert length_penalty(9, 0.0) == 1.0


def test_beam_width_one_is_greedy():
    model = tiny_model()
    grid = plus_map()
    p0 = Pose(1, 5, -1)
    tokens = ["walk", "until", "you", "reach", "<SHOP_1>"]
    bindings = (("<SHOP_1>", 10),)
    beam = model.beam_search(tokens, p0, grid, bindings, beam_width=1)

    # manual greedy rollout over the shared decoder step
    states, proj = encoded(model, VOCAB.encode(tokens))
    pose = p0
    h = c = np.zeros((1, 8))
    prev = Action.END
    actions = []
    from urbanav.executor import ExecutorError, step as exec_step

    for _ in range(model.config.max_decode_len):
        world = compute_world(grid, pose, bindings, LAYOUT, horizon=4, radius=1,
                              dtype=np.float64).concat()
        step = model._step_rows(states, proj, h, c,
                                *step_inputs(model, [ACTION_IDS[prev]], [world]))
        h, c = step.h, step.c
        ranked = np.argsort(-step.logp[0])
        chosen = None
        for a_id in ranked:
            action = ACTIONS[a_id]
            if action is Action.END:
                chosen = action
                break
            try:
                pose = exec_step(grid, pose, action)
                chosen = action
                break
            except ExecutorError:
                continue
        actions.append(chosen)
        prev = chosen
        if chosen is Action.END:
            break
    assert beam.actions == actions


def test_alpha_zero_means_raw_logprob_ranking():
    model = tiny_model()
    grid = straight_map()
    p0 = Pose(1, 2, 1)
    res = model.beam_search(["walk"], p0, grid, (), beam_width=3)
    assert np.isfinite(res.score)
    assert res.actions[-1] is Action.END


def test_beam_score_at_least_greedy(synth_small):
    maps, corpus = synth_small
    model = None
    rng = np.random.default_rng(2)
    for p, instr in list(corpus.instructions())[:12]:
        grid = maps[p.map_id]
        if model is None:
            vocab = vocabulary([instr.abstract_tokens])
            config = ModelConfig(variant="CGAEW", embed_dim=8, encoder_hidden=8,
                                 decoder_hidden=8, seed=int(rng.integers(100)),
                                 max_decode_len=30)
            model = NavigationModel(config, vocab, WorldStateLayout())
        greedy = model.beam_search(instr.abstract_tokens, instr.start, grid,
                                   instr.bindings, beam_width=1)
        beam = model.beam_search(instr.abstract_tokens, instr.start, grid,
                                 instr.bindings, beam_width=4)
        assert beam.score >= greedy.score - 1e-12


def test_beam_respects_width():
    model = tiny_model()
    grid = plus_map()
    result = model.beam_search(["walk", "until"], Pose(1, 5, -1), grid,
                               (("<SHOP_1>", 10),), beam_width=4)
    assert result.actions[-1] is Action.END
    assert 1 <= result.max_live <= 4


def test_pinned_greedy_row_equals_width_one(synth_small):
    """Width 4 returns greedy's answer only with greedy's exact score; max_live counts beam rows."""
    maps, corpus = synth_small
    instrs = list(corpus.instructions())
    vocab = vocabulary([i.abstract_tokens for _, i in instrs])
    returned_greedy = 0
    for seed in (1, 10):  # seed 10 falls back to a greedy rollout that left the beam
        config = ModelConfig(variant="CGAEW", embed_dim=8, encoder_hidden=8,
                             decoder_hidden=8, seed=seed, max_decode_len=30)
        model = NavigationModel(config, vocab, WorldStateLayout())
        for p, instr in instrs:
            args = (instr.abstract_tokens, instr.start, maps[p.map_id], instr.bindings)
            greedy = model.beam_search(*args, beam_width=1)
            beam = model.beam_search(*args, beam_width=4)
            assert beam.score >= greedy.score
            assert 1 <= beam.max_live <= 4
            if beam.actions == greedy.actions:
                assert (beam.actions, beam.score) == (greedy.actions, greedy.score)
                returned_greedy += 1
    assert returned_greedy > 0


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_step_rows_equal_autodiff_step_per_row(dtype):
    """The beam's stacked step gives each row what the teacher-forced op, which
    runs one row per action, computes for that row alone, bit for bit."""
    model = NavigationModel(replace(TINY, dtype=dtype), VOCAB, LAYOUT)
    rng = np.random.default_rng(5)
    states, proj = encoded(model, VOCAB.encode(["walk", "until", "you", "reach", "<SHOP_1>"]))
    k = 5
    h = rng.standard_normal((k, 8)).astype(dtype)
    c = rng.standard_normal((k, 8)).astype(dtype)
    worlds = (rng.random((k, 2 * LAYOUT.width)) < 0.3).astype(dtype)
    prev = [0, 4, 1, 2, 3]
    stacked = model._step_rows(states, proj, h, c, *step_inputs(model, prev, worlds))
    for i in range(k):
        alone = model._step_rows(states, proj, h[i : i + 1], c[i : i + 1],
                                 *step_inputs(model, prev[i : i + 1], worlds[i : i + 1]))
        for name, rows, row in zip(alone._fields, stacked, alone):
            assert np.array_equal(rows[i], row[0]), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("variant", ["CGA", "CGAEW"])
def test_teacher_forced_loss_is_mean_step_nll(variant, dtype):
    """The loss is minus the mean log-probability the shared step gives
    the gold string, summed left to right in the model dtype."""
    model = NavigationModel(replace(TINY, variant=variant, dtype=dtype), VOCAB,
                            LAYOUT if variant == "CGAEW" else None)
    token_ids = VOCAB.encode(["walk", "until", "you", "reach", "<SHOP_1>"])
    action_ids = [ACTION_IDS[a] for a in (Action.TURN_LEFT, Action.WALK, Action.WALK, Action.END)]
    rng = np.random.default_rng(6)
    worlds = list((rng.random((len(action_ids), 2 * LAYOUT.width)) < 0.3).astype(dtype))
    loss = model.sentence_loss(token_ids, action_ids, worlds)
    states, proj = encoded(model, token_ids)
    h = c = np.zeros((1, 8), dtype=dtype)
    logps = []
    for t, (prev, target) in enumerate(zip([END_ID, *action_ids], action_ids)):
        step = model._step_rows(states, proj, h, c, *step_inputs(model, [prev], worlds[t : t + 1]))
        h, c = step.h, step.c
        logps.append(step.logp[0, target])
    total = -logps[0]
    for logp in logps[1:]:
        total = total - logp
    assert loss.data.dtype == np.dtype(dtype)
    assert loss.data == total * (1.0 / len(action_ids))
    assert float(loss.data) == pytest.approx(-np.mean(logps), rel=1e-6)


def test_sentence_loss_rejects_missing_worlds_and_empty_strings():
    model = tiny_model()
    token_ids = VOCAB.encode(["walk", "until"])
    walk_end = [ACTION_IDS[Action.WALK], END_ID]
    with pytest.raises(ValueError, match="one world vector per action: 2, got none"):
        model.sentence_loss(token_ids, walk_end, None)
    with pytest.raises(ValueError, match="one world vector per action: 2, got 1"):
        model.sentence_loss(token_ids, walk_end, [dummy_world()])
    with pytest.raises(ValueError, match="empty action string"):
        model.sentence_loss(token_ids, [], [])


@pytest.mark.parametrize("variant", ["CGA", "CGAEW"])
def test_sentence_loss_gradcheck_with_dropout(variant):
    """Every weight's gradient through the decoder op against central differences (float64)."""
    model = NavigationModel(replace(TINY, variant=variant, dropout_keep=0.7), VOCAB,
                            LAYOUT if variant == "CGAEW" else None)
    token_ids = VOCAB.encode(["walk", "until", "you", "reach", "<SHOP_1>", "turn", "left"])
    action_ids = [ACTION_IDS[a] for a in (Action.WALK, Action.TURN_LEFT, Action.WALK, Action.END)]
    worlds = [dummy_world() for _ in action_ids]
    worlds[2][0] = 1.0

    def build():  # a fresh stream each time: the same dropout masks on every call
        return model.sentence_loss(token_ids, action_ids, worlds, np.random.default_rng(8))

    params = list(model.params.tensors.values())
    assert finite_difference_check(build, params, h=1e-4) < 1e-5


def test_checkpoint_roundtrip(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = NavigationModel.load(path)
    assert loaded.config == model.config
    assert loaded.vocab.tokens == model.vocab.tokens
    for k, t in model.params.items():
        assert np.array_equal(loaded.params[k].data, t.data)
    grid = straight_map()
    a = model.beam_search(["walk"], Pose(1, 0, 1), grid, (), beam_width=2)
    b = loaded.beam_search(["walk"], Pose(1, 0, 1), grid, (), beam_width=2)
    assert a.actions == b.actions and a.score == b.score


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, __header__=np.array('{"format": "something-else"}'), x=np.zeros(3))
    with pytest.raises(ValueError, match="magic"):
        NavigationModel.load(path)


def _edited_checkpoint(tmp_path, edit):
    """A saved tiny model whose arrays ``edit`` changes in place; returns the new path."""
    tiny_model().save(tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as archive:
        arrays = dict(archive)
    edit(arrays)
    path = tmp_path / "edited.npz"
    np.savez(path, **arrays)
    return path


def test_checkpoint_rejects_misshaped_array(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda a: a.update({"param/out_b": np.full(1, 0.5)}))
    with pytest.raises(ValueError, match=r"param/out_b.*shape \(1,\), expected \(5,\)") as err:
        NavigationModel.load(path)
    assert str(path) in str(err.value)


def test_checkpoint_rejects_missing_array(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda a: a.pop("param/out_W"))
    expected = r"no array 'param/out_W' \(expected shape \(5, 8\)\)"
    with pytest.raises(ValueError, match=expected) as err:
        NavigationModel.load(path)
    assert str(path) in str(err.value)


# -- training ---------------------------------------------------------------------


def _one_example_pairs(synth_corpus, maps, n=1):
    pairs = []
    for p in synth_corpus.paragraphs:
        for instr in p.instructions:
            pairs.append((instr, maps[p.map_id]))
            if len(pairs) == n:
                return pairs
    return pairs


def test_training_memorizes_one_example(synth_small):
    maps, corpus = synth_small
    pairs = _one_example_pairs(corpus, maps, n=1)
    config = ModelConfig(variant="CGAEW", embed_dim=12, encoder_hidden=16,
                         decoder_hidden=16, epochs=250, learning_rate=0.02,
                         dropout_keep=1.0, seed=0)
    model, logs = train(pairs, pairs, config)
    assert logs[-1].train_nll < 0.01
    # the memorized model reproduces its gold actions greedily
    instr, grid = pairs[0]
    decoded = model.beam_search(instr.abstract_tokens, instr.start, grid,
                                instr.bindings, beam_width=1)
    assert decoded.actions == list(instr.actions)


def test_training_loss_decreases_first_epochs(synth_small):
    maps, corpus = synth_small
    pairs = _one_example_pairs(corpus, maps, n=40)
    config = ModelConfig(variant="CGAEW", epochs=3, seed=1)
    model, logs = train(pairs[:36], pairs[36:], config)
    assert logs[0].train_nll > logs[1].train_nll > logs[2].train_nll


def test_training_is_bit_deterministic(synth_small):
    maps, corpus = synth_small
    pairs = _one_example_pairs(corpus, maps, n=12)
    config = ModelConfig(variant="CGAEW", embed_dim=8, encoder_hidden=8,
                         decoder_hidden=8, epochs=2, seed=5)
    m1, logs1 = train(pairs[:10], pairs[10:], config)
    m2, logs2 = train(pairs[:10], pairs[10:], config)
    assert logs1 == logs2
    for k, t in m1.params.items():
        assert np.array_equal(t.data, m2.params[k].data)


def test_training_never_decodes(synth_small, monkeypatch):
    """Training and model selection read teacher-forced losses only."""
    maps, corpus = synth_small
    pairs = _one_example_pairs(corpus, maps, n=10)

    def no_decode(*args, **kwargs):
        raise AssertionError("train() called beam_search")

    monkeypatch.setattr(NavigationModel, "beam_search", no_decode)
    config = ModelConfig(variant="CGAEW", embed_dim=8, encoder_hidden=8,
                         decoder_hidden=8, epochs=2, seed=2)
    _, logs = train(pairs[:8], pairs[8:], config)
    assert [row.epoch for row in logs] == [1, 2]
    assert all(np.isfinite(row.val_nll) for row in logs)


def test_training_diverged_survives_pickling():
    """An ``evaluate --jobs`` worker hands the error to its parent by pickle."""
    err = pickle.loads(pickle.dumps(TrainingDiverged(3, 7)))
    assert (err.epoch, err.example_index) == (3, 7)
    assert str(err) == "non-finite loss at epoch 3, example 7"


def test_parameters_stay_finite_after_steps(synth_small):
    maps, corpus = synth_small
    pairs = _one_example_pairs(corpus, maps, n=10)
    config = ModelConfig(variant="CGAEW", embed_dim=8, encoder_hidden=8,
                         decoder_hidden=8, epochs=1, seed=2)
    model, _ = train(pairs[:8], pairs[8:], config)
    assert model.params.all_finite()


def test_adam_updates_in_place_and_matches_reference():
    rng = np.random.default_rng(4)
    tensors = [ad.parameter(rng.normal(size=s).astype(np.float32)) for s in ((3, 4), (5,))]
    ref = [t.data.copy() for t in tensors]
    ref_m = [np.zeros_like(r) for r in ref]
    ref_v = [np.zeros_like(r) for r in ref]
    opt = Adam(tensors, lr=0.01)
    buffers = [id(t.data) for t in tensors] + [id(a) for a in opt.m + opt.v]
    for step in range(1, 4):
        for t in tensors:
            t.grad[...] = rng.normal(size=t.data.shape)
        opt.step()
        for i, t in enumerate(tensors):  # the textbook update, one expression per line
            g = t.grad
            ref_m[i] = 0.9 * ref_m[i] + (1.0 - 0.9) * g
            ref_v[i] = 0.999 * ref_v[i] + (1.0 - 0.999) * g * g
            m_hat = ref_m[i] / (1.0 - 0.9**step)
            v_hat = ref_v[i] / (1.0 - 0.999**step)
            ref[i] -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(t.data, ref[i])
            assert t.data.dtype == np.float32
    assert [id(t.data) for t in tensors] + [id(a) for a in opt.m + opt.v] == buffers


# -- model selection on validation NLL ----------------------------------------------


OVERFIT = ModelConfig(variant="CGAEW", embed_dim=8, encoder_hidden=8, decoder_hidden=8,
                      epochs=30, learning_rate=0.02, early_stop_patience=2, seed=0)


def validation_nll(model, pairs) -> float:
    """Mean teacher-forced NLL without dropout, recomputed from scratch."""
    total = 0.0
    for instr, grid in pairs:
        ex = build_example(instr, grid, model)
        loss = model.sentence_loss(ex.token_ids, ex.action_ids, ex.worlds)
        total += float(loss.data)
    return total / len(pairs)


def test_kept_epoch_is_earliest_minimum_of_val_nll():
    rows = [EpochLog(1, 1.0, 0.9), EpochLog(2, 0.8, 0.4),
            EpochLog(3, 0.7, 0.6), EpochLog(4, 0.6, 0.4)]
    assert kept_epoch(rows) == 2
    no_val = [EpochLog(e, 1.0 / e, math.nan) for e in (1, 2, 3)]
    assert kept_epoch(no_val) == 3


def test_training_keeps_lowest_validation_nll_weights(synth_small):
    maps, corpus = synth_small
    pairs = _one_example_pairs(corpus, maps, n=16)
    model, logs = train(pairs[:8], pairs[8:], OVERFIT)
    best = min(row.val_nll for row in logs)
    first_best = next(row.epoch for row in logs if row.val_nll == best)
    assert kept_epoch(logs) == first_best < len(logs)
    assert validation_nll(model, pairs[8:]) == best


def test_early_stop_ends_patience_epochs_after_kept(synth_small):
    maps, corpus = synth_small
    pairs = _one_example_pairs(corpus, maps, n=16)
    _, logs = train(pairs[:8], pairs[8:], OVERFIT)
    kept = kept_epoch(logs)
    assert len(logs) == kept + OVERFIT.early_stop_patience < OVERFIT.epochs
    assert all(row.val_nll > logs[kept - 1].val_nll for row in logs[kept:])


def test_empty_validation_runs_every_epoch_and_keeps_final_weights(synth_small):
    maps, corpus = synth_small
    pairs = _one_example_pairs(corpus, maps, n=16)
    config = ModelConfig(variant="CGAEW", embed_dim=8, encoder_hidden=8, decoder_hidden=8,
                         epochs=4, learning_rate=0.02, early_stop_patience=1, seed=0)
    model, logs = train(pairs[:8], [], config)
    assert [row.epoch for row in logs] == [1, 2, 3, 4]
    assert all(math.isnan(row.val_nll) for row in logs)
    # the validation pass draws no randomness, so the same run with a
    # validation split logs the NLL the final weights give
    _, scored = train(pairs[:8], pairs[8:], replace(config, early_stop_patience=0))
    assert validation_nll(model, pairs[8:]) == scored[-1].val_nll
