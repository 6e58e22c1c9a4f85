"""The output checks pass on good outputs and fail on corrupted ones."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from urbanav.baselines import jump, random_walk
from urbanav.evaluator import SuccessPredicateConfig, sentence_success
from urbanav.executor import Action, Pose, execute, execute_lenient
from urbanav.model import ModelConfig
from urbanav.synth import SynthSpec, generate
from urbanav.worldmap import GridMap, Street, TileCoord
from workloads import DecodeWorkload, Phase, SymbolicWorkload, TrainWorkload

W, T, E = Action.WALK, Action.TURN_AROUND, Action.END


@pytest.fixture(scope="module")
def straight():
    tiles = tuple(TileCoord(c, 2) for c in range(8))
    return GridMap("straight", 8, 5, streets=[Street(id=1, tiles=tiles, name="main street")])


@pytest.fixture(scope="module")
def small_world():
    return generate(SynthSpec(n_maps=2, paragraphs_per_map=12, seed=7))


# -- the exact-route predicate -----------------------------------------------------


def test_heading_follows_tile_coordinates(straight):
    assert checks.heading_deg(straight, Pose(1, 3, 1)) == pytest.approx(90.0)  # east
    assert checks.heading_deg(straight, Pose(1, 3, -1)) == pytest.approx(270.0)
    assert checks.heading_deg(straight, Pose(1, 7, 1)) == pytest.approx(90.0)  # street end


def test_predicate_accepts_gold_and_rejects_each_clause(straight):
    gold = execute(straight, Pose(1, 0, 1), [W, W, W, W, W, W, W, E])
    ok = lambda route: checks.route_success(straight, route.tiles, route.final_pose,
                                            gold.tiles, gold.final_pose)
    assert ok(gold)
    assert ok(execute(straight, Pose(1, 0, 1), [W, W, W, E]))  # 4 tiles short: within 5
    assert not ok(execute(straight, Pose(1, 0, 1), [W, E]))  # 6 tiles short
    assert not ok(execute(straight, Pose(1, 0, 1), [W, W, W, W, W, W, W, T, E]))  # heading
    assert not ok(execute(straight, Pose(1, 3, -1), [W, E]))  # walks off the gold path


def test_predicate_agrees_with_the_program_on_many_routes(small_world):
    maps, corpus = small_world
    rng = np.random.default_rng(0)
    cfg = SuccessPredicateConfig()
    outcomes = set()
    for paragraph, instr in corpus.instructions():
        grid = maps[paragraph.map_id]
        for actions in (jump(grid, instr.bindings, instr.start, rng),
                        random_walk(grid, instr.start, 4.0, rng)):
            pred = execute_lenient(grid, instr.start, actions)
            ours = checks.route_success(grid, pred.tiles, pred.final_pose,
                                        instr.route.tiles, instr.route.final_pose)
            assert ours == sentence_success(grid, pred, instr.route, cfg)
            outcomes.add(ours)
    assert outcomes == {True, False}


# -- train -------------------------------------------------------------------------


def test_training_log_check():
    assert checks.check_training_log([0.9, 0.3]) == []
    assert checks.check_training_log([math.nan, 0.3])
    assert checks.check_training_log([0.3, math.inf])
    assert checks.check_training_log([0.9, 0.81])  # not well below ln 5
    assert checks.check_training_log([])


def test_train_workload_counts_a_failed_call():
    phase = Phase(attempted=2, outputs=[[0.4], [math.nan]])
    assert TrainWorkload(0).check(phase)
    assert phase.failed == 1


def test_train_workload_counts_a_diverged_call_as_failed(small_world):
    maps, corpus = small_world
    pairs = [(i, maps[p.map_id]) for p in corpus.paragraphs for i in p.instructions]
    workload = TrainWorkload(0)
    workload.train_pairs, workload.val_pairs = pairs[:6], pairs[6:8]
    workload.config = ModelConfig(variant="CGAEW", embed_dim=8, encoder_hidden=8,
                                  decoder_hidden=8, epochs=1, learning_rate=1e30, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = workload.measure(0.0)
    assert workload.check(phase)
    assert (phase.attempted, phase.failed) == (1, 1)
    assert "diverged" in phase.problems[0]


# -- decode ------------------------------------------------------------------------


def test_decoded_string_check(straight):
    start = Pose(1, 5, 1)
    assert checks.check_decoded(straight, start, [W, W, E]) == []
    assert checks.check_decoded(straight, start, [W, W, W, E])  # WALK off the street end
    assert checks.check_decoded(straight, start, [W, W])  # no END
    assert checks.check_decoded(straight, start, [W, E, E])  # two ENDs
    assert checks.check_decoded(straight, start, [])


def test_decode_workload_counts_failed_strings_and_compares_with_no_move(straight):
    workload = DecodeWorkload(0)
    workload.pool = []
    gold = execute(straight, Pose(1, 0, 1), [W, W, W, W, W, W, W, E])
    instr = SimpleNamespace(start=Pose(1, 0, 1), route=gold)
    good = Phase(attempted=1, outputs=[(instr, straight, [W, W, W, W, W, W, W, E])])
    assert workload.check(good) and good.failed == 0
    corrupted = Phase(attempted=2, outputs=[(instr, straight, [W, W, W, W, W, W, W, E]),
                                            (instr, straight, [W, W, W, W, W, W, W, W, E])])
    assert workload.check(corrupted) and corrupted.failed == 1
    no_better = Phase(attempted=1, outputs=[(instr, straight, [W, E])])
    assert not workload.check(no_better)  # fails where NO_MOVE fails too


# -- symbolic ----------------------------------------------------------------------


def test_route_step_check(straight):
    streets = set(straight.streets[0].tiles)
    route = [TileCoord(0, 2), TileCoord(1, 2), TileCoord(2, 2)]
    assert checks.check_route_steps(streets, route) == []
    assert checks.check_route_steps(streets, [route[0], route[2]])  # skipped tile
    assert checks.check_route_steps(streets, route + [TileCoord(3, 3)])  # off the street
    assert checks.check_route_steps(streets, route + [route[2]])  # not a step


def test_success_count_check():
    assert checks.check_success_count(17, 17) == []
    assert checks.check_success_count(17, 16)


def test_symbolic_workload_catches_a_count_off_by_one(small_world):
    workload = SymbolicWorkload(7)
    workload.maps, workload.corpus = small_world
    phase = workload.measure(0.0)
    assert workload.check(phase) and phase.failed == 0 and phase.problems == []
    report, first = phase.outputs[0]
    fold = report.folds[0]
    bumped = replace(fold, sentence_accuracy=fold.sentence_accuracy + 1.0 / fold.n_sentences)
    corrupted = replace(report, folds=[bumped] + report.folds[1:])
    phase = Phase(attempted=phase.attempted, outputs=[(corrupted, first)])
    workload.check(phase)
    assert phase.failed == 1


def test_symbolic_workload_catches_a_route_with_a_skipped_tile(small_world):
    workload = SymbolicWorkload(7)
    maps, corpus = small_world
    paragraph = next(p for p in corpus.paragraphs if len(p.instructions[0].route.tiles) >= 3)
    instr = paragraph.instructions[0]
    tiles = instr.route.tiles
    skipped = replace(instr, route=replace(instr.route, tiles=tiles[:1] + tiles[2:]))
    broken = replace(paragraph, instructions=(skipped,) + paragraph.instructions[1:])
    workload.maps = maps
    workload.corpus = replace(corpus, paragraphs=(broken,))
    no_folds = SimpleNamespace(folds=[])
    phase = Phase(attempted=2 * len(broken.instructions), outputs=[(no_folds, {}), (no_folds, {})])
    workload.check(phase)
    assert phase.failed == 2  # the bad instruction fails in each of the two rounds
    assert any("8-neighbours" in p for p in phase.problems)
    assert any("do not reproduce" in p for p in phase.problems)
