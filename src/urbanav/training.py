"""Training loop, optimizer, and gradient verification for the model family.

Training is teacher-forced negative log-likelihood with adaptive-moment
updates, one example per step, fully seeded and single-threaded so a fixed
seed reproduces the parameter trajectory bit for bit. A step is two
explicit calls, the loss and then ``autodiff.backward`` on it, followed by
the optimizer; the validation loss and finite differences call the forward
only. World vectors along the gold prefix are precomputed per example (gold
actions are replayed through the executor once at example-build time).

The parameters are two flat arrays, values and gradients
(``ModelParameters``). Before the first step ``train`` takes the world
features that are nonzero in some training example; the world weights of
every other feature get a gradient of exactly 0 at every step. ``Adam``
skips those, updates the rest in cache-sized blocks and checks them for
finiteness, which the loop reads from ``Adam.finite`` (see ``Adam``).

Model selection and early stopping use the mean teacher-forced NLL over the
validation examples: the training objective measured on held-out data,
independent of the decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .abstraction import Vocabulary, vocabulary
from .corpus import Instruction
from .executor import Action, Pose, step
from .model import ACTION_IDS, ModelConfig, NavigationModel
from .worldmap import GridMap
from .worldstate import WorldStateLayout


class TrainingDiverged(RuntimeError):
    """A non-finite loss, or non-finite parameters after the optimizer step, at one example."""

    def __init__(self, epoch: int, example_index: int, what: str = "loss"):
        super().__init__(f"non-finite {what} at epoch {epoch}, example {example_index}")
        self.epoch = epoch
        self.example_index = example_index
        self.what = what

    def __reduce__(self):  # pickled from an ``evaluate --jobs`` worker by its fields
        return TrainingDiverged, (self.epoch, self.example_index, self.what)


@dataclass
class EpochLog:
    epoch: int
    train_nll: float
    val_nll: float

    @staticmethod
    def csv_header() -> str:
        return "epoch,train_nll,val_nll"

    def csv_row(self) -> str:
        return f"{self.epoch},{self.train_nll:.6f},{self.val_nll:.6f}"


def kept_epoch(logs: list[EpochLog]) -> int:
    """The epoch whose weights ``train`` returns.

    That is the earliest epoch with the lowest validation NLL, or the last
    epoch when there is no validation split (every ``val_nll`` is NaN).
    """
    scored = [row for row in logs if not math.isnan(row.val_nll)]
    if not scored:
        return logs[-1].epoch
    return min(scored, key=lambda row: row.val_nll).epoch


@dataclass
class Example:
    """What ``sentence_loss`` reads for one training sentence."""

    token_ids: list[int]
    action_ids: list[int]
    worlds: list[np.ndarray] | None


# ``Adam.step`` runs through the flat arrays in blocks of this many entries,
# so each block's passes read data that is still in cache.
ADAM_BLOCK = 1 << 16


class Adam:
    """Adaptive-moment estimation (Kingma & Ba 2015) over flat value and gradient arrays.

    ``values`` and ``grads`` are ``ModelParameters.values`` and ``.grads``;
    ``live`` masks the entries that can move (``ModelParameters.movable``),
    and only those have a first and second moment. An entry whose gradient is always
    +0 or -0 keeps m = v = +0, so its update is exactly 0: skipping it
    leaves every value as the full update would, bit for bit.

    A step runs through the arrays in blocks of ``ADAM_BLOCK`` entries. A
    block whose entries are all live is updated in place through views; a
    block that mixes live and still entries reads its live ones with one
    gather and writes them back with one scatter. Each block takes the same
    14 elementwise passes in the same order, and no pass mixes entries, so
    the result does not depend on the blocks. The step then zeroes the
    live entries' gradient while it is in cache, so the next backward pass
    adds into zeros; a still entry's gradient only ever gets +0 added to it.

    After each step, ``finite`` tells whether every updated value is finite,
    checked per block while the block is in cache; the still entries keep
    their finite initial values. It is an attribute, not the return value of
    ``step``, so a wrapper around ``step`` that drops the return value (the
    benchmark's step timer, say) cannot hide a divergence.
    """

    def __init__(self, values, grads, live, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.values, self.grads = values, grads
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        # (start, stop, first moment index, flat indices of the live entries or None if all are)
        self.blocks: list[tuple[int, int, int, np.ndarray | None]] = []
        n = 0
        for start in range(0, values.size, ADAM_BLOCK):
            block = live[start : start + ADAM_BLOCK]
            count = int(np.count_nonzero(block))
            if count:
                where = None if count == block.size else start + np.flatnonzero(block)
                self.blocks.append((start, start + block.size, n, where))
                n += count
        self.m = np.zeros(n, dtype=values.dtype)
        self.v = np.zeros(n, dtype=values.dtype)
        self._scratch = np.empty((2, min(n, ADAM_BLOCK)), dtype=values.dtype)
        self.finite = True
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        finite = True
        for start, stop, first, where in self.blocks:
            if where is None:
                p, g = self.values[start:stop], self.grads[start:stop]
            else:
                p, g = self.values[where], self.grads[where]
            m, v = self.m[first : first + p.size], self.v[first : first + p.size]
            a, b = self._scratch[:, : p.size]
            # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            # p -= lr (m / b1c) / (sqrt(v / b2c) + eps)
            np.divide(v, b2c, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, b1c, out=b)
            b *= self.lr
            b /= a
            p -= b
            if where is None:
                g.fill(0)  # a view: zeroes the gradient in place
            else:
                self.values[where] = p
                self.grads[where] = 0
            finite = finite and bool(np.isfinite(p).all())
        self.finite = finite


def instruction_tokens(instr: Instruction, config: ModelConfig) -> tuple[str, ...]:
    return instr.abstract_tokens if config.uses_abstraction else instr.tokens


def build_vocabulary(instructions, config: ModelConfig) -> Vocabulary:
    return vocabulary(
        (instruction_tokens(i, config) for i in instructions), min_count=config.min_count
    )


def gold_worlds(
    model: NavigationModel, grid: GridMap, pose: Pose, actions, bindings
) -> list[np.ndarray] | None:
    """The world vector before each gold action, replaying ``actions`` from ``pose``.

    None for variants without a world state.
    """
    if not model.config.uses_world:
        return None
    worlds = []
    for action in actions:
        worlds.append(model.world_vector(grid, pose, bindings))
        if action is not Action.END:
            pose = step(grid, pose, action)
    return worlds


def build_example(instr: Instruction, grid: GridMap, model: NavigationModel) -> Example:
    return Example(
        token_ids=model.vocab.encode(instruction_tokens(instr, model.config)),
        action_ids=[ACTION_IDS[a] for a in instr.actions],
        worlds=gold_worlds(model, grid, instr.start, instr.actions, instr.bindings),
    )


def _mean_nll(model, examples) -> float:
    """Mean per-sentence teacher-forced NLL without dropout; NaN if empty."""
    if not examples:
        return math.nan
    total = sum(
        float(model.sentence_loss(ex.token_ids, ex.action_ids, ex.worlds).data)
        for ex in examples
    )
    return total / len(examples)


def train(
    train_instructions: list[tuple[Instruction, GridMap]],
    val_instructions: list[tuple[Instruction, GridMap]],
    config: ModelConfig,
) -> tuple[NavigationModel, list[EpochLog]]:
    """Trains one variant; returns the lowest-validation-NLL model and the logs.

    After each epoch the mean teacher-forced NLL over ``val_instructions``
    picks the kept weights (see ``kept_epoch``); with
    ``config.early_stop_patience`` set, training ends that many epochs after
    the kept one. With no validation examples every epoch runs and the final
    weights are kept.
    """
    layout = WorldStateLayout(slots_per_type=config.slots_per_type) if config.uses_world else None
    vocab = build_vocabulary([i for i, _ in train_instructions], config)
    model = NavigationModel(config, vocab, layout)
    train_ex = [build_example(i, g, model) for i, g in train_instructions]
    val_ex = [build_example(i, g, model) for i, g in val_instructions]

    shuffle_rng = np.random.default_rng([config.seed, 0x51])
    dropout_rng = np.random.default_rng([config.seed, 0xD0])
    params = model.params
    world_features = None  # the world features some training step sees nonzero
    if config.uses_world:
        world_features = np.zeros(params.world_width, dtype=bool)
        for ex in train_ex:
            world_features |= np.any(ex.worlds, axis=0)
    optimizer = Adam(params.values, params.grads, params.movable(world_features),
                     config.learning_rate)

    logs: list[EpochLog] = []
    best_values = params.values.copy()
    order = np.arange(len(train_ex))
    # A step that overflows is caught by the finiteness checks below, so NumPy's
    # overflow warnings would only repeat the ``TrainingDiverged`` error.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            shuffle_rng.shuffle(order)
            total = 0.0
            for idx in order:
                ex = train_ex[idx]
                loss = model.sentence_loss(ex.token_ids, ex.action_ids, ex.worlds, dropout_rng)
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(epoch, int(idx))
                ad.backward(loss)  # adds into zeros: a fresh model's, then what Adam.step leaves
                optimizer.step()
                if not optimizer.finite:
                    raise TrainingDiverged(epoch, int(idx), "parameters")
                total += float(loss.data)
            logs.append(EpochLog(epoch, total / max(1, len(train_ex)), _mean_nll(model, val_ex)))
            kept = kept_epoch(logs)
            if kept == epoch:
                best_values = params.values.copy()
            elif config.early_stop_patience and epoch - kept >= config.early_stop_patience:
                break
    params.values[...] = best_values
    return model, logs


# -- gradient checking ------------------------------------------------------------


def finite_difference_check(
    build_loss, params, names, h: float = 1e-4, corrupt_rule: str | None = None,
) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    ``params`` is a ``ModelParameters``; the weights checked are ``names``,
    each a named view of its flat arrays (``params.w``). One backward pass
    from zeroed gradients gives every analytic gradient at once; each entry
    of each named weight is then nudged in place. ``build_loss`` must
    compute the loss from the current values on every call. The weights
    must be float64 for the stated tolerances to be meaningful.
    """
    loss = build_loss()
    params.grads.fill(0)
    ad.backward(loss, corrupt_rule=corrupt_rule)
    analytic = params.views(params.grads.copy())

    def eval_loss() -> float:
        return float(build_loss().data)

    worst = 0.0
    for name in names:
        flat = params.w[name].reshape(-1)
        gflat = analytic[name].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = eval_loss()
            flat[j] = keep - h
            down = eval_loss()
            flat[j] = keep
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(gflat[j]), abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[j] - numeric) / denom)
    return worst


class ModelPolicy:
    """Evaluator-facing adapter: trains a variant on fit, beam-decodes on predict."""

    deterministic = True

    def __init__(self, config: ModelConfig):
        self.config = config
        self.name = config.variant.lower()
        self.model: NavigationModel | None = None
        self.logs: list[EpochLog] = []

    def fit(self, train_corpus, maps, seed: int) -> None:
        from dataclasses import replace

        from .evaluator import split_paragraphs

        config = replace(self.config, seed=seed)
        train_paragraphs, val_paragraphs = split_paragraphs(
            list(train_corpus.paragraphs), validation_fraction=0.10, seed=seed
        )
        train_pairs = [
            (instr, maps[p.map_id]) for p in train_paragraphs for instr in p.instructions
        ]
        val_pairs = [
            (instr, maps[p.map_id]) for p in val_paragraphs for instr in p.instructions
        ]
        self.model, self.logs = train(train_pairs, val_pairs, config)

    def predict(self, grid, instruction, pose) -> tuple[Action, ...]:
        if self.model is None:
            raise RuntimeError("policy not fitted")
        tokens = instruction_tokens(instruction, self.config)
        return self.model.beam_search(tokens, pose, grid, instruction.bindings).actions


@dataclass
class VariantPolicyFactory:
    """Picklable policy factory for the evaluation protocol."""

    config: ModelConfig

    def __call__(self, seed: int) -> ModelPolicy:
        from dataclasses import replace

        return ModelPolicy(replace(self.config, seed=seed))


def _gradcheck_fixture():
    """Tiny deterministic map + example exercising every CGAEW weight."""
    from .worldmap import Entity, Street, TileCoord

    ns_tiles = tuple(TileCoord(2, r) for r in range(5))
    ew_tiles = tuple(TileCoord(c, 2) for c in range(5))
    grid = GridMap(
        "gradcheck",
        5,
        5,
        entities=[
            Entity(id=3, entity_type="shop", is_building=True,
                   footprint=frozenset({TileCoord(3, 4)}), name="corner shop"),
            Entity(id=4, entity_type="traffic_signal", is_building=False,
                   footprint=frozenset({TileCoord(2, 2)})),
        ],
        streets=[
            Street(id=1, tiles=ns_tiles, name="pine street"),
            Street(id=2, tiles=ew_tiles, name="oak avenue"),
        ],
    )
    layout = WorldStateLayout(
        types=("street", "shop", "traffic_signal", "other"), slots_per_type=2
    )
    tokens = ("walk", "until", "you", "reach", "<SHOP_1>", ".")
    vocab = vocabulary([tokens + ("turn", "left", "right")], min_count=1)
    bindings = (("<SHOP_1>", 3),)
    p0 = Pose(street_id=1, index=0, travel_dir=1)
    actions = [Action.WALK, Action.WALK, Action.WALK, Action.WALK, Action.END]
    return grid, vocab, layout, tokens, bindings, p0, actions


def gradient_check(seed: int = 0, corrupt_rule: str | None = None) -> float:
    """Every weight's gradient check on a tiny 64-bit CGAEW model; returns max rel error."""
    config = ModelConfig(
        variant="CGAEW", embed_dim=6, encoder_hidden=8, decoder_hidden=8,
        dropout_keep=1.0, seed=seed, horizon=3, radius=1, slots_per_type=2,
        dtype="float64",
    )
    grid, vocab, layout, tokens, bindings, p0, actions = _gradcheck_fixture()
    model = NavigationModel(config, vocab, layout)
    token_ids = vocab.encode(tokens)
    action_ids = [ACTION_IDS[a] for a in actions]
    worlds = gold_worlds(model, grid, p0, actions, bindings)

    def build_loss():
        return model.sentence_loss(token_ids, action_ids, worlds, dropout_rng=None)

    return finite_difference_check(build_loss, model.params, model.params.names,
                                   corrupt_rule=corrupt_rule)
