"""Conditioned-generation navigation models: CGA, CGAE, CGAEW.

A biLSTM encodes the (raw or abstracted) sentence; an LSTM decoder emits
actions over the 5-symbol alphabet, guided by additive attention over the
encoder states. The CGAEW variant additionally feeds the current world
state into both the attention scores and the decoder input, recomputing it
from the executed prefix after every action. All math runs on the local
autodiff kernel so gradients stay fully checkable.

Weight layout note: the decoder input weight is stored as one block per
input source (previous action embedding, attention context, world state).
Every tensor is initialized from its own seeded stream, so variants sharing
a tensor name initialize it identically; zeroing the world blocks makes
CGAEW's forward pass collapse exactly onto CGA/CGAE.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .abstraction import Vocabulary
from .executor import Action, ExecutorError, Pose, step
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
        if self.encoder_hidden % 2:
            raise ValueError("encoder_hidden must be even (split across directions)")

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

        Returns (states matrix node (N x enc), attention projection node).
        """
        if not token_ids:
            raise ValueError("cannot encode an empty sentence")
        p = self.params
        x = ad.gather(p["tok_emb"], token_ids)
        if dropout_rng is not None:
            x = self._dropout(x, dropout_rng)
        fwd = ad.lstm(x, p["enc_fwd_Wx"], p["enc_fwd_Wh"], p["enc_fwd_b"])
        bwd = ad.lstm(x, p["enc_bwd_Wx"], p["enc_bwd_Wh"], p["enc_bwd_b"], reverse=True)
        states = ad.concat([fwd, bwd])
        proj = ad.matmul(states, p["att_Wh"])
        return states, proj

    # -- attention -------------------------------------------------------------

    def attend(self, states, proj, dec_state, world: ad.Tensor | None):
        """Additive attention; returns (context node, weights array).

        ``world`` is the step's here||ahead vector as a constant node (CGAEW
        only); the decoder step takes the same node.
        """
        p = self.params
        u = ad.vm(dec_state, p["att_Ws"])
        if self.config.uses_world:
            if world is None:
                raise ValueError("CGAEW attention needs a world state")
            u = ad.add(u, ad.vm(world, p["att_Ww"]))
        scores = ad.mv(ad.tanh(ad.add_rowvec(proj, u)), p["att_v"])
        weights = ad.softmax(scores)
        context = ad.vm(weights, states)
        return context, weights.data

    # -- decoder ---------------------------------------------------------------

    def _dropout(self, x: ad.Tensor, rng: np.random.Generator) -> ad.Tensor:
        keep = self.config.dropout_keep
        if keep >= 1.0:
            return x
        mask = (rng.random(x.data.shape) < keep).astype(x.data.dtype) / keep
        return ad.mul(x, ad.constant(mask))

    def _decoder_step(self, prev_action_id, h, c, context, world, dropout_rng):
        p = self.params
        terms = [
            (p["dec_W_emb"], ad.gather(p["act_emb"], prev_action_id)),
            (p["dec_W_ctx"], context),
            (p["dec_Wh"], h),
        ]
        if self.config.uses_world:
            terms.insert(2, (p["dec_W_world"], world))
        h2, c2 = ad.lstm_cell(terms, p["dec_b"], c)
        out_in = self._dropout(h2, dropout_rng) if dropout_rng is not None else h2
        logits = ad.add(ad.mv(p["out_W"], out_in), p["out_b"])
        return logits, h2, c2

    # -- training loss ------------------------------------------------------------

    def sentence_loss(self, token_ids, action_ids, worlds, dropout_rng=None) -> ad.Tensor:
        """Mean teacher-forced negative log-likelihood over one action string.

        ``worlds`` holds the world vector before each gold action (see
        ``world_vector``); CGA and CGAE ignore it.
        """
        dtype = self.config.np_dtype()
        Hd = self.config.decoder_hidden
        states, proj = self.encode(token_ids, dropout_rng)
        h = ad.constant(np.zeros(Hd, dtype=dtype))
        c = ad.constant(np.zeros(Hd, dtype=dtype))
        prev = END_ID  # start marker shares END's embedding
        losses = []
        for t, action_id in enumerate(action_ids):
            world = ad.constant(worlds[t]) if self.config.uses_world else None
            context, _ = self.attend(states, proj, h, world)
            logits, h, c = self._decoder_step(prev, h, c, context, world, dropout_rng)
            losses.append(ad.nll(logits, action_id))
            prev = action_id
        return ad.scale(ad.add_n(losses), 1.0 / len(action_ids))

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
        world state recomputed from its own executed prefix). The greedy
        rollout is always scored as a fallback, which keeps the returned
        normalized score at least as good as greedy's.
        """
        width = self.config.beam_width if beam_width is None else beam_width
        if width < 1:
            raise ValueError("beam_width must be >= 1")
        with ad.no_grad():
            encoded = self.encode(self.vocab.encode(tokens))
            result = self._beam(encoded, p0, grid, bindings, width)
            if width > 1:
                greedy = self._beam(encoded, p0, grid, bindings, 1)
                if not greedy.all_pruned and (greedy.score > result.score or result.all_pruned):
                    greedy.max_live = max(greedy.max_live, result.max_live)
                    result = greedy
        return result

    def world_vector(self, grid: GridMap, pose: Pose, bindings) -> np.ndarray | None:
        """The here||ahead world vector at ``pose`` in the model dtype; None for CGA/CGAE."""
        if not self.config.uses_world:
            return None
        return compute_world(
            grid, pose, bindings, self.layout,
            horizon=self.config.horizon, radius=self.config.radius,
            dtype=self.config.np_dtype(),
        ).concat()

    def _beam(self, encoded, p0, grid, bindings, width) -> BeamResult:
        cfg = self.config
        states, proj = encoded
        zeros = ad.constant(np.zeros(cfg.decoder_hidden, dtype=cfg.np_dtype()))
        # hypothesis: (logp, actions, pose, h, c, prev_id)
        live = [(0.0, [], p0, zeros, zeros, END_ID)]
        completed: list[tuple[float, list[Action]]] = []
        max_live = 1
        for t in range(cfg.max_decode_len):
            max_live = max(max_live, len(live))
            expansions = []
            for logp, actions, pose, h, c, prev in live:
                world = self.world_vector(grid, pose, bindings)
                if world is not None:
                    world = ad.constant(world)
                context, _ = self.attend(states, proj, h, world)
                logits, h2, c2 = self._decoder_step(prev, h, c, context, world, None)
                logps = ad.log_probs(logits)
                # executor failures prune the expansion; END always survives
                order = (END_ID,) if t == cfg.max_decode_len - 1 else range(len(ACTIONS))
                for a_id in order:
                    action = ACTIONS[a_id]
                    cand_logp = logp + float(logps[a_id])
                    if action is Action.END:
                        expansions.append((cand_logp, actions, None, None, None, a_id))
                        continue
                    try:
                        pose2 = step(grid, pose, action)
                    except ExecutorError:
                        continue
                    expansions.append(
                        (cand_logp, actions + [action], pose2, h2, c2, a_id)
                    )
            expansions.sort(key=lambda e: -e[0])
            live = []
            for cand in expansions[:width]:
                if cand[5] == END_ID:
                    seq = cand[1] + [Action.END]
                    score = cand[0] / length_penalty(len(seq), cfg.length_norm_alpha)
                    completed.append((score, seq))
                else:
                    live.append(cand)
            if len(completed) >= width or not live:
                break
        if not completed:
            return BeamResult([Action.END], float("-inf"), all_pruned=True, max_live=max_live)
        score, seq = max(completed, key=lambda c: c[0])
        return BeamResult(seq, score, max_live=max_live)

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
        archive = np.load(path, allow_pickle=False)
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

