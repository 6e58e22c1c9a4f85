"""Conditioned-generation navigation models: CGA, CGAE, CGAEW.

A biLSTM encodes the (raw or abstracted) sentence; an LSTM decoder emits
actions over the 5-symbol alphabet, guided by additive attention over the
encoder states. The CGAEW variant additionally feeds the world state at
the current pose into both the attention scores and the decoder input.
Every gradient is hand-written NumPy, checked against finite differences.
``sentence_loss`` returns the loss as one ``autodiff.Tensor`` whose
backward runs the teacher-forced decoder's backpropagation through time
(``_decoder_loss``) and then the encoder's (``_encoder``, both directions
in one loop), so a training step is two explicit calls: the loss, then
``autodiff.backward``. Training and the beam share one NumPy decoder step
(``_step_rows``): the beam runs it on all its hypotheses at once, and the
teacher-forced decoder on one row per gold action.

Weight layout note: the decoder input weight is stored as one block per
input source (previous action embedding, attention context, world state).
Every tensor is initialized from its own seeded stream, so variants sharing
a tensor name initialize it identically; zeroing the world blocks makes
CGAEW's forward pass collapse exactly onto CGA/CGAE.
"""

from __future__ import annotations

import json
import zlib
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .abstraction import Vocabulary
from .configfile import check_field
from .executor import Action, Pose, successor
# Not called here: perfbench/tests/test_bench_tracing.py reads ``model.step`` to
# check that the tracer wraps a function where another module imported it.
from .executor import step  # noqa: F401
from .worldmap import GridMap
from .worldstate import WorldStateLayout, compute as compute_world

VARIANTS = ("CGA", "CGAE", "CGAEW")

ACTIONS = (Action.WALK, Action.TURN_LEFT, Action.TURN_RIGHT, Action.TURN_AROUND, Action.END)
ACTION_IDS = {a: i for i, a in enumerate(ACTIONS)}
END_ID = ACTION_IDS[Action.END]

CHECKPOINT_MAGIC = "urbanav-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "CGAEW"
    embed_dim: int = 64
    encoder_hidden: int = 128  # concatenated width; half per direction
    decoder_hidden: int = 128
    dropout_keep: float = 0.9  # keep rate; 0.9 drops 10% of units
    beam_width: int = 4
    epochs: int = 30
    learning_rate: float = 0.003
    length_norm_alpha: float = 0.6
    seed: int = 0
    horizon: int = 10
    radius: int = 1
    slots_per_type: int = 4
    max_decode_len: int = 80
    min_count: int = 1
    early_stop_patience: int = 0  # 0 disables early stopping
    dtype: str = "float32"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for key in ("embed_dim", "encoder_hidden", "decoder_hidden", "beam_width", "epochs",
                    "max_decode_len", "min_count", "slots_per_type"):
            check_field(self, key, getattr(self, key) >= 1, "at least 1")
        for key in ("horizon", "radius", "early_stop_patience"):
            check_field(self, key, getattr(self, key) >= 0, "at least 0")
        check_field(self, "encoder_hidden", self.encoder_hidden % 2 == 0,
                    "even (split across directions)")
        check_field(self, "dropout_keep", 0 < self.dropout_keep <= 1, "in (0, 1]")
        check_field(self, "learning_rate", self.learning_rate > 0, "above 0")
        check_field(self, "dtype", self.dtype in ("float32", "float64"), "float32 or float64")

    @property
    def uses_abstraction(self) -> bool:
        return self.variant in ("CGAE", "CGAEW")

    @property
    def uses_world(self) -> bool:
        return self.variant == "CGAEW"

    def np_dtype(self):
        return np.dtype(self.dtype)


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0] if len(shape) > 1 else 1
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class ModelParameters:
    """All trainable tensors, keyed by name, with per-tensor seeded init."""

    def __init__(self, config: ModelConfig, vocab_size: int, world_width: int):
        self.config = config
        self.vocab_size = vocab_size
        self.world_width = world_width  # here+ahead concatenated
        dtype = config.np_dtype()
        E, Hd = config.embed_dim, config.decoder_hidden
        He = config.encoder_hidden // 2
        Henc = config.encoder_hidden
        A = config.decoder_hidden
        shapes: dict[str, tuple[int, ...]] = {
            "tok_emb": (vocab_size, E),
            "act_emb": (len(ACTIONS), E),
            "enc_fwd_Wx": (4 * He, E),
            "enc_fwd_Wh": (4 * He, He),
            "enc_fwd_b": (4 * He,),
            "enc_bwd_Wx": (4 * He, E),
            "enc_bwd_Wh": (4 * He, He),
            "enc_bwd_b": (4 * He,),
            "dec_W_emb": (4 * Hd, E),
            "dec_W_ctx": (4 * Hd, Henc),
            "dec_Wh": (4 * Hd, Hd),
            "dec_b": (4 * Hd,),
            "att_Wh": (Henc, A),
            "att_Ws": (Hd, A),
            "att_v": (A,),
            "out_W": (len(ACTIONS), Hd),
            "out_b": (len(ACTIONS),),
        }
        if config.uses_world:
            shapes["dec_W_world"] = (4 * Hd, world_width)
            shapes["att_Ww"] = (world_width, A)
        self.tensors: dict[str, ad.Tensor] = {}
        for name, shape in shapes.items():
            rng = np.random.default_rng([config.seed, zlib.crc32(name.encode())])
            if name.endswith("_b"):
                data = np.zeros(shape, dtype=dtype)
                if name.startswith(("enc_", "dec_")):
                    h = shape[0] // 4
                    data[h : 2 * h] = 1.0  # forget-gate bias
            else:
                data = _glorot(rng, shape, dtype)
            self.tensors[name] = ad.parameter(data)

    def __getitem__(self, name: str) -> ad.Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(t.data)) for t in self.tensors.values())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self.tensors.items()}

    def restore(self, values: dict[str, np.ndarray]) -> None:
        for k, t in self.tensors.items():
            t.data[...] = values[k]


# What ``_step_rows`` returns, one row per input row: log-probabilities over
# ACTIONS, h, c, and what the backward pass reads: tanh(proj + u), the
# attention weights and context, the gate activations, tanh(c), and the
# output layer's input (h after dropout).
_Step = namedtuple("_Step", "logp h c th weights context acts tanh_c out_in")


@dataclass
class BeamResult:
    actions: list[Action]
    score: float  # length-normalized log-probability
    all_pruned: bool = False
    max_live: int = 0  # peak live hypothesis count during the search


class NavigationModel:
    """One model variant bound to its vocabulary and world-state layout."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, layout: WorldStateLayout | None = None):
        self.config = config
        self.vocab = vocab
        self.layout = layout if config.uses_world else None
        if config.uses_world and layout is None:
            raise ValueError("CGAEW needs a world-state layout")
        world_width = 2 * layout.width if (config.uses_world and layout) else 0
        self.params = ModelParameters(config, len(vocab), world_width)

    # -- encoder -------------------------------------------------------------

    def encode(self, token_ids: list[int], dropout_rng: np.random.Generator | None = None):
        """Per-token concatenated forward/backward recurrent states.

        Returns (states (N x enc), attention projection ``states @ att_Wh``,
        backward). ``backward(dstates)`` is the encoder's backpropagation
        through time (see ``_encoder``); the projection's gradient is the
        decoder's, which writes ``att_Wh``'s.
        """
        if not token_ids:
            raise ValueError("cannot encode an empty sentence")
        mask = self._dropout_mask((len(token_ids), self.config.embed_dim), dropout_rng)
        states, backward = self._encoder(token_ids, mask)
        return states, states @ self.params["att_Wh"].data, backward

    def _encoder(self, token_ids, mask):
        """The embedding lookup, input dropout and both LSTM directions: (states, backward).

        Both directions run in one loop over stacked ``(2, ...)`` arrays:
        direction 0 reads the sentence forwards, direction 1 backwards, and
        row t of the result holds both states at token t. Every stacked
        product is one ``np.matmul`` per direction, bit for bit the product
        one direction alone takes. The backward pass runs both directions in
        one loop too, takes each weight's gradient as one product over the
        whole sequence and ends with one ``np.add.at`` into ``tok_emb``. It
        passes its incoming gradient through ``corrupted("encoder", ...)``.
        """
        p = self.params.tensors
        dirs = [[p[f"enc_{d}_{w}"] for w in ("Wx", "Wh", "b")] for d in ("fwd", "bwd")]
        Wx, Wh, b = (np.stack([fwd.data, bwd.data]) for fwd, bwd in zip(*dirs))
        x = p["tok_emb"].data[token_ids]
        if mask is not None:
            x = x * mask
        xs = np.stack([x, x[::-1]])
        zx = np.matmul(xs, Wx.transpose(0, 2, 1))
        n, hidden = len(token_ids), Wh.shape[2]
        acts = np.empty_like(zx)
        hs = np.zeros((2, n + 1, hidden), dtype=zx.dtype)  # hs[:, t], cs[:, t]: state before row t
        cs = np.zeros((2, n + 1, hidden), dtype=zx.dtype)
        tanh_c = np.empty((2, n, hidden), dtype=zx.dtype)
        for t in range(n):
            z = zx[:, t] + np.matmul(Wh, hs[:, t, :, None])[..., 0]
            z += b
            acts[:, t], cs[:, t + 1], tanh_c[:, t], hs[:, t + 1] = ad._lstm_step(z, cs[:, t])

        def backward(g):
            g = ad.corrupted("encoder", g)
            dh_out = np.stack([g[:, :hidden], g[::-1, hidden:]])  # in each direction's order
            dz = np.empty_like(acts)
            dh_next = dc = 0.0
            for t in range(n - 1, -1, -1):
                dh = dh_out[:, t] + dh_next
                dz[:, t], dc = ad._lstm_step_grads(acts[:, t], cs[:, t], tanh_c[:, t], dh, dc)
                dh_next = np.matmul(Wh.transpose(0, 2, 1), dz[:, t, :, None])[..., 0]
            dz_t = dz.transpose(0, 2, 1)
            grads = (np.matmul(dz_t, xs), np.matmul(dz_t, hs[:, :-1]), dz.sum(axis=1))
            for k, params in enumerate(dirs):
                for param, grad in zip(params, grads):
                    param.grad += grad[k]
            dx = np.matmul(dz, Wx)
            dx = dx[0] + dx[1][::-1]  # both directions' gradients of each token's input
            np.add.at(p["tok_emb"].grad, token_ids, dx if mask is None else dx * mask)

        return np.concatenate([hs[0, 1:], hs[1, 1:][::-1]], axis=-1), backward

    def _dropout_mask(self, shape, rng: np.random.Generator | None) -> np.ndarray | None:
        """An inverted-dropout mask of ``shape`` from ``rng``; None when nothing is dropped."""
        keep = self.config.dropout_keep
        if rng is None or keep >= 1.0:
            return None
        return (rng.random(shape) < keep).astype(self.config.np_dtype()) / keep

    # -- one decoder step ----------------------------------------------------------

    def attend(self, states, proj, h, world_u):
        """Additive attention for every row of ``h``: (tanh(proj + u), weights, context).

        ``states`` and ``proj`` are the encoder's arrays. A row's ``u`` is
        ``h @ att_Ws``, plus its ``world @ att_Ww`` from ``world_u`` for
        CGAEW (None for CGA and CGAE).
        """
        p = self.params.tensors
        u = np.matmul(h[:, None, :], p["att_Ws"].data)[:, 0, :]
        if world_u is not None:
            u = u + world_u
        th = np.tanh(proj + u[:, None, :])
        scores = np.matmul(th, p["att_v"].data)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        context = np.matmul(weights[:, None, :], states)[:, 0, :]
        return th, weights, context

    def _cell(self, h, c, context, emb_z, world_z):
        """The decoder LSTM for every row: (h2, c2, gate activations, tanh(c2))."""
        p = self.params.tensors
        z = emb_z + np.matmul(p["dec_W_ctx"].data, context[:, :, None])[..., 0]
        if world_z is not None:
            z += world_z
        z += np.matmul(p["dec_Wh"].data, h[:, :, None])[..., 0]
        z += p["dec_b"].data
        acts, c2, tanh_c, h2 = ad._lstm_step(z, c)
        return h2, c2, acts, tanh_c

    def _step_rows(self, states, proj, h, c, emb_z, world_z, world_u, out_mask=None) -> _Step:
        """One decoder step for every row of ``h`` and ``c``, in NumPy.

        ``emb_z`` holds each row's ``dec_W_emb @ act_emb[prev]``; ``world_z``
        and ``world_u`` hold ``dec_W_world @ world`` and ``world @ att_Ww``
        (None for CGA and CGAE); ``out_mask`` is the output dropout mask.
        Each row keeps the float order of a one-row step, whatever rows sit
        beside it: every product is stacked per row with ``np.matmul``
        (``W @ x`` as ``np.matmul(W, X[:, :, None])[..., 0]``), one
        matrix-vector product per row. A plain GEMM over the rows
        (``X @ W.T``) differs from the per-row products in the last bits.
        """
        p = self.params.tensors
        th, weights, context = self.attend(states, proj, h, world_u)
        h2, c2, acts, tanh_c = self._cell(h, c, context, emb_z, world_z)
        out_in = h2 if out_mask is None else h2 * out_mask
        logits = np.matmul(p["out_W"].data, out_in[:, :, None])[..., 0] + p["out_b"].data
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        return _Step(logp, h2, c2, th, weights, context, acts, tanh_c, out_in)

    # -- training loss ------------------------------------------------------------

    def sentence_loss(self, token_ids, action_ids, worlds, dropout_rng=None) -> ad.Tensor:
        """Mean teacher-forced negative log-likelihood over one action string.

        ``worlds`` holds the world vector before each gold action (see
        ``world_vector``); CGA and CGAE ignore it. ``autodiff.backward``
        on the result runs the decoder's backward, then the encoder's (see
        ``_decoder_loss``).
        """
        if not action_ids:
            raise ValueError("cannot score an empty action string")
        if self.config.uses_world and (worlds is None or len(worlds) != len(action_ids)):
            got = "none" if worlds is None else len(worlds)
            raise ValueError(f"CGAEW needs one world vector per action: {len(action_ids)}, got {got}")
        states, proj, encoder_backward = self.encode(token_ids, dropout_rng)
        # one output mask row per action, drawn after the encoder's mask
        mask = self._dropout_mask((len(action_ids), self.config.decoder_hidden), dropout_rng)
        return self._decoder_loss(states, proj, encoder_backward, action_ids, worlds, mask)

    def _decoder_loss(self, states, proj, encoder_backward, action_ids, worlds, mask) -> ad.Tensor:
        """The teacher-forced decoder's mean NLL, holding the whole backward pass.

        The forward runs ``_step_rows`` on one row per gold action. The
        backward is backpropagation through time: the output layer and NLL
        for t = 0 ... T-1, then the cell and the attention for t = T-1 ... 0.
        After the loop the gradient of ``proj = states @ att_Wh`` goes to
        the states and to ``att_Wh``, each weight used at every step gets
        its outer-product terms as one product, and last
        ``encoder_backward`` takes the states' gradient. Float sums depend
        on their order; this fixed order is the one the bit-for-bit checks
        pin (see README, Model family).
        """
        cfg = self.config
        p = self.params.tensors
        T = len(action_ids)
        prev = [END_ID, *action_ids[:-1]]  # the start marker shares END's embedding
        emb = p["act_emb"].data[prev]
        emb_z = np.matmul(p["dec_W_emb"].data, emb[:, :, None])[..., 0]
        world = world_z = world_u = None
        if cfg.uses_world:
            world = np.stack(worlds)
            world_z = np.matmul(p["dec_W_world"].data, world[:, :, None])[..., 0]
            world_u = np.matmul(world[:, None, :], p["att_Ww"].data)[:, 0, :]

        def row(a, t):
            return None if a is None else a[t : t + 1]

        zeros = np.zeros((1, cfg.decoder_hidden), dtype=cfg.np_dtype())
        h = c = zeros
        steps = []
        for t in range(T):
            step = self._step_rows(states, proj, h, c, emb_z[t : t + 1],
                                   row(world_z, t), row(world_u, t), row(mask, t))
            steps.append(step)
            h, c = step.h, step.c
        total = -steps[0].logp[0, action_ids[0]]
        for step, target in zip(steps[1:], action_ids[1:]):
            total = total - step.logp[0, target]  # left to right, in the model dtype
        loss = np.asarray(total * (1.0 / T))

        def backward(g):
            outer: dict[str, tuple[list, list]] = {}  # a weight's outer-product terms

            def add_outer(name, a, b):
                left, right = outer.setdefault(name, ([], []))
                left.append(a)
                right.append(b)

            g = g * (1.0 / T)
            dh = np.zeros((T, cfg.decoder_hidden), dtype=zeros.dtype)
            dproj = np.zeros_like(proj)
            dstates = np.zeros_like(states)
            for t, (step, target) in enumerate(zip(steps, action_ids)):
                dlogits = np.exp(step.logp[0])
                dlogits[target] -= 1.0
                dlogits = g * dlogits
                p["out_b"].grad += dlogits
                add_outer("out_W", dlogits, step.out_in[0])
                dout = p["out_W"].data.T @ dlogits
                dh[t] += dout if mask is None else dout * mask[t]
            dc = 0.0
            for t in range(T - 1, -1, -1):
                step = steps[t]
                h_prev, c_prev = (steps[t - 1].h, steps[t - 1].c) if t else (zeros, zeros)
                dz, dc = ad._lstm_step_grads(step.acts[0], c_prev[0], step.tanh_c[0], dh[t], dc)
                add_outer("dec_W_emb", dz, emb[t])
                add_outer("dec_W_ctx", dz, step.context[0])
                if world is not None:
                    add_outer("dec_W_world", dz, world[t])
                add_outer("dec_Wh", dz, h_prev[0])
                p["dec_b"].grad += dz
                if t:
                    dh[t - 1] += p["dec_Wh"].data.T @ dz
                np.add.at(p["act_emb"].grad, prev[t], p["dec_W_emb"].data.T @ dz)
                # attention: context = weights @ states, weights = softmax(th @ att_v)
                dctx = p["dec_W_ctx"].data.T @ dz
                weights = step.weights[0]
                dweights = states @ dctx
                dstates += np.outer(weights, dctx)
                dscores = weights * (dweights - np.dot(dweights, weights))
                th = step.th[0]
                p["att_v"].grad += th.T @ dscores
                da = ad.corrupted("tanh", np.outer(dscores, p["att_v"].data)) * (1.0 - th * th)
                dproj += da
                du = da.sum(axis=0)
                if world is not None:
                    add_outer("att_Ww", world[t], du)
                if t:
                    dh[t - 1] += p["att_Ws"].data @ du
                add_outer("att_Ws", h_prev[0], du)
            # the attention projection proj = states @ att_Wh
            dstates += dproj @ p["att_Wh"].data.T
            p["att_Wh"].grad += states.T @ dproj
            for name, (left, right) in outer.items():
                p[name].grad += np.stack(left, axis=1) @ np.stack(right)
            encoder_backward(dstates)

        return ad.Tensor(loss, requires_grad=True, backward_fn=backward)

    # -- beam search -------------------------------------------------------------

    def beam_search(
        self,
        tokens,
        p0: Pose,
        grid: GridMap,
        bindings=(),
        beam_width: int | None = None,
    ) -> BeamResult:
        """Length-normalized beam decode with per-hypothesis execution.

        Hypotheses whose next action fails in the executor are pruned, so
        every surviving hypothesis carries a valid pose (and, for CGAEW, a
        world state computed at its own pose). The greedy rollout is always
        scored as a fallback, which keeps the returned normalized score at
        least as good as greedy's.
        """
        width = self.config.beam_width if beam_width is None else beam_width
        if width < 1:
            raise ValueError("beam_width must be >= 1")
        states, proj, _ = self.encode(self.vocab.encode(tokens))
        return self._beam(states, proj, p0, grid, bindings, width)

    def world_vector(self, grid: GridMap, pose: Pose, bindings) -> np.ndarray | None:
        """The here||ahead world vector at ``pose`` in the model dtype; None for CGA/CGAE."""
        if not self.config.uses_world:
            return None
        return compute_world(
            grid, pose, bindings, self.layout,
            horizon=self.config.horizon, radius=self.config.radius,
            dtype=self.config.np_dtype(),
        ).concat()

    def _beam(self, states, proj, p0, grid, bindings, width) -> BeamResult:
        """The beam and the pinned greedy rollout, one batched ``_step_rows`` per time step.

        The greedy rollout is the fallback of ``beam_search``. While its
        prefix is still in the beam it reads that hypothesis's row; once it
        falls out it takes one extra row of its own. At width 1 the beam is
        the greedy rollout and there is no extra row. ``max_live`` counts
        beam hypotheses only.
        """
        cfg = self.config
        p = self.params.tensors
        alpha = cfg.length_norm_alpha
        # The products that depend only on the previous action or the world
        # vector: one per action id, and one pair per distinct world vector
        # of this sentence (many poses share one), found by pose.
        emb_z = np.matmul(p["dec_W_emb"].data, p["act_emb"].data[:, :, None])[..., 0]
        at_pose: dict[Pose, tuple[np.ndarray, np.ndarray]] = {}
        of_world: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

        def world_terms(pose):
            terms = at_pose.get(pose)
            if terms is None:
                world = self.world_vector(grid, pose, bindings)
                key = world.tobytes()
                terms = of_world.get(key)
                if terms is None:
                    terms = of_world[key] = (p["dec_W_world"].data @ world, world @ p["att_Ww"].data)
                at_pose[pose] = terms
            return terms

        def expand(hyps, hyp_rows, keep, logps, order):
            """The first ``keep`` executable expansions, in the order of a stable
            sort on log-probability over (hypothesis, action id): (live, completed)."""
            expansions = [(hyp[0] + logps[row][a_id], k, a_id)
                          for k, (hyp, row) in enumerate(zip(hyps, hyp_rows)) for a_id in order]
            expansions.sort(key=lambda e: -e[0])
            grown, done = [], []
            for logp, k, a_id in expansions:
                actions, pose = hyps[k][1:3]
                if a_id == END_ID:
                    seq = actions + [Action.END]
                    done.append((logp / length_penalty(len(seq), alpha), seq))
                else:
                    pose2 = successor(grid, pose, ACTIONS[a_id])
                    if pose2 is None:
                        continue  # executor failures prune the expansion
                    grown.append((logp, actions + [ACTIONS[a_id]], pose2, hyp_rows[k], a_id))
                if len(grown) + len(done) == keep:
                    break
            return grown, done

        h = c = np.zeros((1, cfg.decoder_hidden), dtype=cfg.np_dtype())
        world_z = world_u = None
        # hypothesis: (logp, actions, pose, row of h and c it continues, last action id)
        live = [(0.0, [], p0, 0, END_ID)]
        greedy = live[0] if width > 1 else None
        greedy_done: list[tuple[float, list[Action]]] = []
        completed: list[tuple[float, list[Action]]] = []
        max_live = 1
        for t in range(cfg.max_decode_len):
            if not live and greedy is None:
                break
            max_live = max(max_live, len(live))
            rows = list(live)
            if greedy is not None:
                # the same (row continued, last action) is the same prefix
                g = next((i for i, hyp in enumerate(live) if hyp[3:] == greedy[3:]), None)
                if g is None:
                    g = len(rows)
                    rows.append(greedy)
            if cfg.uses_world:
                terms = [world_terms(hyp[2]) for hyp in rows]
                world_z = np.array([z for z, _ in terms])
                world_u = np.array([u for _, u in terms])
            parents = [hyp[3] for hyp in rows]
            step = self._step_rows(
                states, proj, h.take(parents, axis=0), c.take(parents, axis=0),
                emb_z.take([hyp[4] for hyp in rows], axis=0), world_z, world_u,
            )
            h, c, logps = step.h, step.c, step.logp.tolist()
            # END always survives; at the length limit it is the only choice
            order = (END_ID,) if t == cfg.max_decode_len - 1 else range(len(ACTIONS))
            if live:
                live, done = expand(live, range(len(live)), width, logps, order)
                completed += done
                if len(completed) >= width:
                    live = []
            if greedy is not None:
                grown, greedy_done = expand([greedy], [g], 1, logps, order)
                greedy = grown[0] if grown else None
        if completed:
            score, seq = max(completed, key=lambda e: e[0])
            result = BeamResult(seq, score, max_live=max_live)
        else:
            result = BeamResult([Action.END], float("-inf"), all_pruned=True, max_live=max_live)
        if greedy_done and (greedy_done[0][0] > result.score or result.all_pruned):
            result = BeamResult(greedy_done[0][1], greedy_done[0][0], max_live=max_live)
        return result

    def predict(self, tokens, p0: Pose, grid: GridMap, bindings=()) -> list[Action]:
        return self.beam_search(tokens, p0, grid, bindings).actions

    # -- persistence -----------------------------------------------------------------

    def save(self, path) -> None:
        header = {
            "format": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "vocab": self.vocab.tokens[2:],  # PAD/UNK re-added on load
            "world_layout": self.layout.describe() if self.layout else None,
            "world_width": self.params.world_width,
        }
        arrays = {f"param/{k}": t.data for k, t in self.params.items()}
        np.savez(path, __header__=np.array(json.dumps(header, sort_keys=True)), **arrays)

    @classmethod
    def load(cls, path) -> "NavigationModel":
        with np.load(path, allow_pickle=False) as archive:
            if "__header__" not in archive:
                raise ValueError(f"{path}: not a model checkpoint")
            header = json.loads(str(archive["__header__"]))
            if header.get("format") != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: bad checkpoint magic {header.get('format')!r}")
            if header.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
            config = ModelConfig(**header["config"])
            vocab = Vocabulary(header["vocab"])
            layout = None
            if header["world_layout"]:
                layout = WorldStateLayout(
                    types=tuple(header["world_layout"]["types"]),
                    slots_per_type=header["world_layout"]["slots_per_type"],
                )
            model = cls(config, vocab, layout)
            for k, t in model.params.items():
                key = f"param/{k}"
                if key not in archive:
                    raise ValueError(
                        f"{path}: checkpoint has no array {key!r} (expected shape {t.data.shape})"
                    )
                value = archive[key]
                if value.shape != t.data.shape:
                    raise ValueError(
                        f"{path}: array {key!r} has shape {value.shape}, expected {t.data.shape}"
                    )
                t.data[...] = value
        return model

