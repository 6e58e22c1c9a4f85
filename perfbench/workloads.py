"""The benchmark's workloads: train, decode and symbolic.

Each workload makes its inputs from the workload seed with the program's own
generator, then calls the program's public functions on them. ``setup``
builds the inputs (and, for decode, the model), ``warm_up`` runs a few
untimed calls, ``measure`` runs whole
rounds of the workload's operation until ``seconds`` have passed, and
``check`` checks what ``measure`` produced. ``measure(seconds, part)`` may use
share ``part = (index, count)`` of the inputs: a traced run measures twice,
untraced and traced, and decode must not decode a sentence twice in a run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

from urbanav import baselines, evaluator, synth, training
from urbanav.executor import execute, execute_lenient
from urbanav.model import ModelConfig, NavigationModel

import checks

clock = time.perf_counter

TRAIN_MAPS = ("synth-1", "synth-2")
VALIDATION_FRACTION = 0.10  # the program's own split, as ModelPolicy.fit uses it
EPOCHS = 1
BEAM_WIDTH = 4
# The decode pool: DECODE_MAPS held-out maps, each the single map of a
# one-map SynthSpec.default(), which takes the unseen-name pool as synth-3 of
# the three-map spec does. Several maps average out the per-map cost (one
# map per seed decoded up to 10% slower than another); one-map specs spend no
# set-up on training maps. 6 x 350 paragraphs give about 7000 distinct
# sentences: a 15 s run at the 130-220 sentences/s measured on the 2-core
# development machine uses 2000-3300 of them, so the pool outlasts the run
# up to about 460 sentences/s.
DECODE_MAPS = 6
DECODE_PARAGRAPHS_PER_MAP = 350
MODEL_SEED = 0
# The decode model: the ablation evaluation's CGAEW settings, trained once by
# make_decode_model.py and loaded from this file in the decode set-up.
DECODE_MODEL_CONFIG = ModelConfig(variant="CGAEW", epochs=10, early_stop_patience=3,
                                  beam_width=BEAM_WIDTH)
DECODE_MODEL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "decode_model.npz")
PROTOCOL_SEEDS = (0,)
WARM_UP_SENTENCES = 8


@dataclass
class Phase:
    """What one measuring phase did, and what its checks found."""

    attempted: int = 0
    failed: int = 0
    sentences: int = 0  # what sent_per_s counts
    busy_s: float = 0.0  # the time those sentences took
    latencies_s: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def sent_per_s(self) -> float:
        return self.sentences / self.busy_s


class _StepProbe:
    """Per-sentence training step times: loss start to optimizer step end.

    Two clock reads per training sentence, through wrappers on
    ``NavigationModel.sentence_loss`` and ``Adam.step``. Validation losses
    run after an epoch's last optimizer step, so the latest loss start before
    an optimizer step is always that step's own.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._started = 0.0
        self._saved = []

    def __enter__(self):
        model_cls, adam_cls = NavigationModel, training.Adam
        loss_fn, step_fn = model_cls.sentence_loss, adam_cls.step

        def sentence_loss(*args, **kwargs):
            self._started = clock()
            return loss_fn(*args, **kwargs)

        def step(*args, **kwargs):
            step_fn(*args, **kwargs)
            self.samples.append(clock() - self._started)

        self._saved = [(model_cls, "sentence_loss", loss_fn), (adam_cls, "step", step_fn)]
        model_cls.sentence_loss, adam_cls.step = sentence_loss, step
        return self

    def __exit__(self, *exc):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        return False


class TrainWorkload:
    """One ``train()`` call per round: CGAEW, fixed epochs, maps synth-1 and synth-2."""

    name = "train"

    def __init__(self, seed: int):
        self.seed = seed

    def specs(self) -> list[synth.SynthSpec]:
        return [replace(synth.SynthSpec.default(), seed=self.seed)]

    def setup(self) -> None:
        (spec,) = self.specs()
        maps, corpus = synth.generate(spec)
        paragraphs = [p for p in corpus.paragraphs if p.map_id in TRAIN_MAPS]
        train_ps, val_ps = evaluator.split_paragraphs(paragraphs, VALIDATION_FRACTION, self.seed)
        pairs = lambda ps: [(i, maps[p.map_id]) for p in ps for i in p.instructions]
        self.train_pairs, self.val_pairs = pairs(train_ps), pairs(val_ps)
        self.config = ModelConfig(variant="CGAEW", epochs=EPOCHS, early_stop_patience=0,
                                  seed=self.seed)

    def warm_up(self) -> None:
        training.train(self.train_pairs[:WARM_UP_SENTENCES], self.val_pairs[:2], self.config)

    def measure(self, seconds: float, part=(0, 1)) -> Phase:
        phase = Phase()
        start = clock()
        with _StepProbe() as probe:
            while True:
                t0 = clock()
                try:
                    _, logs = training.train(self.train_pairs, self.val_pairs, self.config)
                    output = [log.train_nll for log in logs]
                    phase.sentences += len(self.train_pairs) * len(logs)
                except training.TrainingDiverged as err:
                    output = err
                phase.busy_s += clock() - t0
                phase.attempted += 1
                phase.outputs.append(output)
                if clock() - start >= seconds:
                    break
        phase.latencies_s = probe.samples
        return phase

    def check(self, phase: Phase) -> bool:
        for output in phase.outputs:
            if isinstance(output, training.TrainingDiverged):
                problems = [f"train() diverged: {output}"]
            else:
                problems = checks.check_training_log(output)
            phase.failed += bool(problems)
            phase.problems += problems
        return True


class DecodeWorkload:
    """Width-4 beam decode of distinct held-out sentences from their gold start.

    The model is the one the program's ablation evaluation trains for the
    synth-3 fold at seed 0 (see ``make_decode_model.py``), loaded from
    ``decode_model.npz``: every run decodes with the same weights, and the
    workload seed only picks the held-out maps and sentences.
    """

    name = "decode"

    def __init__(self, seed: int):
        self.seed = seed

    def specs(self) -> list[synth.SynthSpec]:
        """One-map specs of seeds 1 + 6N to 6 + 6N: disjoint between workload seeds N,
        and never seed 0, which generated the model's training maps."""
        first = 1 + DECODE_MAPS * self.seed
        return [replace(synth.SynthSpec.default(), n_maps=1, seed=first + k,
                        paragraphs_per_map=DECODE_PARAGRAPHS_PER_MAP)
                for k in range(DECODE_MAPS)]

    def setup(self) -> None:
        self.model = NavigationModel.load(DECODE_MODEL_PATH)
        held_out = []
        for spec in self.specs():
            maps, corpus = synth.generate(spec)
            (grid,) = maps.values()
            held_out.append((grid, corpus.paragraphs))
        pool = decode_pool(held_out)
        self.pool, self.warm = pool[:-WARM_UP_SENTENCES], pool[-WARM_UP_SENTENCES:]

    def _decode(self, instr, grid):
        tokens = training.instruction_tokens(instr, self.model.config)
        return self.model.beam_search(tokens, instr.start, grid, instr.bindings,
                                      beam_width=BEAM_WIDTH).actions

    def warm_up(self) -> None:
        for instr, grid in self.warm:
            self._decode(instr, grid)

    def measure(self, seconds: float, part=(0, 1)) -> Phase:
        """Decodes pool sentences in order, each at most once, until time or the pool runs out.

        Part ``(i, n)`` takes every n-th sentence from the i-th, so the parts
        are disjoint and alike.
        """
        phase = Phase()
        index, count = part
        start = clock()
        for instr, grid in self.pool[index::count]:
            if clock() - start >= seconds:
                break
            t0 = clock()
            actions = self._decode(instr, grid)
            phase.latencies_s.append(clock() - t0)
            phase.outputs.append((instr, grid, actions))
        phase.busy_s = clock() - start
        phase.attempted = phase.sentences = len(phase.outputs)
        return phase

    def check(self, phase: Phase) -> bool:
        """Each string is well formed; beam routes succeed more often than NO_MOVE's."""
        hits = no_move_hits = 0
        for instr, grid, actions in phase.outputs:
            problems = checks.check_decoded(grid, instr.start, actions)
            if problems:
                phase.failed += 1
                phase.problems += problems
                continue
            gold = instr.route
            route = execute(grid, instr.start, actions)
            hits += checks.route_success(grid, route.tiles, route.final_pose,
                                         gold.tiles, gold.final_pose)
            stay = execute(grid, instr.start, baselines.no_move(instr.start))
            no_move_hits += checks.route_success(grid, stay.tiles, stay.final_pose,
                                                 gold.tiles, gold.final_pose)
        phase.notes = {"beam_hits": hits, "no_move_hits": no_move_hits,
                       "scored": phase.attempted - phase.failed, "pool": len(self.pool)}
        if hits <= no_move_hits:
            phase.problems.append(f"beam succeeds on {hits} sentences, NO_MOVE on {no_move_hits}")
            return False
        return True


def decode_pool(held_out) -> list:
    """(instruction, map) pairs of distinct sentences, taking paragraphs from the maps in turn.

    ``held_out`` lists (map, paragraphs). A sentence is its (text, start pose)
    on its map, and each one appears once. Any prefix of the pool, and every
    n-th pair of it, draws on all maps alike; a paragraph's sentences stay
    together, in order.
    """
    seen = set()
    pool = []
    for row in zip(*(paragraphs for _, paragraphs in held_out)):
        for (grid, _), paragraph in zip(held_out, row):
            for instr in paragraph.instructions:
                key = (id(grid), instr.tokens, instr.start)
                if key not in seen:
                    seen.add(key)
                    pool.append((instr, grid))
    return pool


class _JumpLog:
    def __init__(self, paragraphs):
        self.paragraph_of = {id(i): k for k, p in enumerate(paragraphs) for i in p.instructions}
        self.paragraph_s = [0.0] * len(paragraphs)  # JUMP time per paragraph
        self.first: dict = {}  # (id(instruction), pose) -> the first actions predicted


class _RecordingJump(baselines.JumpPolicy):
    """The program's JUMP policy, recording each prediction and how long it took."""

    log: _JumpLog | None = None

    def predict(self, grid, instruction, pose):
        t0 = clock()
        actions = super().predict(grid, instruction, pose)
        self.log.paragraph_s[self.log.paragraph_of[id(instruction)]] += clock() - t0
        self.log.first.setdefault((id(instruction), pose), actions)
        return actions


class SymbolicWorkload:
    """JUMP scored by ``run_protocol`` over three folds of a RUN-shaped corpus.

    A latency sample is JUMP's time per sentence over one paragraph: its
    predictions (from each sentence's gold start and chained) over its
    sentence count. Single predictions fall into a cheap group and a costly
    one with a sparse range between them, and their median sits in that
    range, where it moved by up to 40% between rounds of one process.
    """

    name = "symbolic"

    def __init__(self, seed: int):
        self.seed = seed

    def specs(self) -> list[synth.SynthSpec]:
        return [replace(synth.SynthSpec.run_shape(), seed=self.seed)]

    def setup(self) -> None:
        (spec,) = self.specs()
        self.maps, self.corpus = synth.generate(spec)

    def warm_up(self) -> None:
        policy = baselines.jump_factory(0)
        paragraph = self.corpus.paragraphs[0]
        grid = self.maps[paragraph.map_id]
        for instr in paragraph.instructions:
            policy.predict(grid, instr, instr.start)

    def measure(self, seconds: float, part=(0, 1)) -> Phase:
        phase = Phase()
        start = clock()
        paragraphs = self.corpus.paragraphs
        while True:
            log = _JumpLog(paragraphs)

            def factory(seed, log=log):
                policy = _RecordingJump(seed=seed)
                policy.log = log
                return policy

            t0 = clock()
            report = evaluator.run_protocol(self.corpus, self.maps, factory,
                                            seeds=PROTOCOL_SEEDS, n_jobs=1)
            phase.busy_s += clock() - t0
            scored = sum(f.n_sentences for f in report.folds)
            phase.attempted += scored
            phase.sentences += scored
            phase.latencies_s += [t / len(p.instructions)
                                  for p, t in zip(paragraphs, log.paragraph_s)]
            phase.outputs.append((report, log.first))
            if clock() - start >= seconds:
                break
        return phase

    def check(self, phase: Phase) -> bool:
        """Generated routes and gold actions hold; the report's counts match a recount.

        An instruction whose generated route fails a check counts as failed in
        every round that scores it; a fold whose count is off by k counts k.
        """
        bad_inputs = 0
        for paragraph in self.corpus.paragraphs:
            grid = self.maps[paragraph.map_id]
            street_tiles = {t for s in grid.streets for t in s.tiles}
            for instr in paragraph.instructions:
                problems = checks.check_route_steps(street_tiles, instr.route.tiles)
                if execute(grid, instr.start, list(instr.actions)) != instr.route:
                    problems.append(f"{paragraph.id}: gold actions do not reproduce the route")
                bad_inputs += bool(problems)
                phase.problems += problems
        phase.failed += bad_inputs * len(phase.outputs)
        for report, first in phase.outputs:
            for fold in report.folds:
                grid = self.maps[fold.fold]
                hits = 0
                for paragraph in self.corpus.paragraphs:
                    if paragraph.map_id != fold.fold:
                        continue
                    for instr in paragraph.instructions:
                        route = execute_lenient(grid, instr.start, first[(id(instr), instr.start)])
                        hits += checks.route_success(grid, route.tiles, route.final_pose,
                                                     instr.route.tiles, instr.route.final_pose)
                reported = round(fold.sentence_accuracy * fold.n_sentences)
                problems = checks.check_success_count(reported, hits)
                phase.failed += abs(reported - hits)
                phase.problems += [f"fold {fold.fold}: {p}" for p in problems]
        return True


WORKLOADS = {w.name: w for w in (TrainWorkload, DecodeWorkload, SymbolicWorkload)}
