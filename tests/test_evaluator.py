import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urbanav.baselines import no_move_factory
from urbanav.evaluator import (
    SuccessPredicateConfig,
    chain_routes,
    is_ordered_subsequence,
    make_folds,
    paragraph_success,
    run_protocol,
    sentence_success,
    split_paragraphs,
    weighted_average,
)
from urbanav.executor import Action, Pose, Route, execute
from urbanav.worldmap import TileCoord

from conftest import CROSSING_POSITIONS, crossing_map
from test_executor import sample_route

CFG = SuccessPredicateConfig()


def test_heading_45_degrees_off_passes_at_every_position():
    """The 45-degree heading tolerance admits a diagonal next to the gold heading,
    and only that, wherever the crossing is."""
    facing = {Pose(2, 1, 1): True, Pose(3, 1, -1): True, Pose(3, 1, 1): False}  # NE, NW, SE
    for col, row in CROSSING_POSITIONS:
        grid = crossing_map(col, row)
        here = (TileCoord(col, row),)
        gold = Route(here, Pose(1, 1, 1))  # facing north
        for pose, ok in facing.items():
            assert sentence_success(grid, Route(here, pose), gold, CFG) is ok, (col, row, pose)


def test_identical_routes_succeed(straight):
    route = execute(straight, Pose(1, 0, 1), [Action.WALK] * 3 + [Action.END])
    assert sentence_success(straight, route, route, CFG)


def test_terminal_beyond_five_tiles_fails(straight):
    gold = execute(straight, Pose(1, 0, 1), [Action.WALK] * 6 + [Action.END])
    pred = execute(straight, Pose(1, 0, 1), [Action.END])
    # 6.0 tiles from the gold terminal, on-path
    assert not sentence_success(straight, pred, gold, CFG)
    within = execute(straight, Pose(1, 0, 1), [Action.WALK] + [Action.END])
    assert sentence_success(straight, within, gold, CFG)


def test_off_path_detour_fails_even_if_terminal_close(plus):
    # gold: straight north through the crossing; pred: detour east then back
    gold = execute(plus, Pose(1, 5, -1), [Action.WALK] * 4 + [Action.END])
    detour = [Action.WALK, Action.WALK, Action.TURN_RIGHT, Action.WALK,
              Action.TURN_AROUND, Action.WALK, Action.TURN_RIGHT,
              Action.WALK, Action.WALK, Action.END]
    pred = execute(plus, Pose(1, 5, -1), detour)
    # brute-force containment: (4,3) is not on the gold tile sequence
    assert TileCoord(4, 3) in pred.tiles
    assert TileCoord(4, 3) not in gold.tiles
    assert not sentence_success(plus, pred, gold, CFG)


def test_heading_check_only_when_enabled(straight):
    gold = execute(straight, Pose(1, 0, 1), [Action.WALK] * 2 + [Action.END])
    turned = execute(straight, Pose(1, 0, 1),
                     [Action.WALK, Action.WALK, Action.TURN_AROUND, Action.END])
    assert not sentence_success(straight, turned, gold, CFG)
    relaxed = SuccessPredicateConfig(check_heading=False)
    assert sentence_success(straight, turned, gold, relaxed)


def test_success_reflexive_on_random_routes(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(40)
    for grid in maps.values():
        for _ in range(60):
            _, route = sample_route(grid, rng)
            assert sentence_success(grid, route, route, CFG)


def test_success_monotone_in_tolerance(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(41)
    grid = next(iter(maps.values()))
    for _ in range(120):
        p0, gold = sample_route(grid, rng)
        _, pred = sample_route(grid, rng)
        prev = None
        for tol in (0.0, 2.0, 5.0, 9.0, 20.0):
            cfg = SuccessPredicateConfig(terminal_tolerance_tiles=tol, check_heading=False)
            ok = sentence_success(grid, pred, gold, cfg)
            if prev is not None and prev:
                assert ok  # success at a smaller tolerance implies success at a larger one
            prev = ok


def test_subsequence_semantics():
    a, b, c, d = TileCoord(0, 0), TileCoord(1, 0), TileCoord(2, 0), TileCoord(3, 0)
    assert is_ordered_subsequence([a, c], [a, b, c, d])
    assert is_ordered_subsequence([], [a])
    assert not is_ordered_subsequence([c, a], [a, b, c])
    assert not is_ordered_subsequence([a, a], [a, b, c])


# -- paragraphs -----------------------------------------------------------------


def test_paragraph_chaining_and_success(plus):
    r1 = execute(plus, Pose(1, 6, -1), [Action.WALK, Action.WALK, Action.END])
    r2 = execute(plus, r1.final_pose, [Action.WALK, Action.END])
    gold = chain_routes([r1, r2])
    assert gold.tiles == r1.tiles + r2.tiles[1:]
    assert paragraph_success(plus, [r1, r2], gold, CFG)


def test_paragraph_fails_when_first_sentence_strays(plus):
    gold1 = execute(plus, Pose(1, 6, -1), [Action.WALK, Action.WALK, Action.END])
    gold2 = execute(plus, gold1.final_pose, [Action.WALK, Action.END])
    gold = chain_routes([gold1, gold2])
    stray1 = execute(plus, Pose(1, 6, -1),
                     [Action.WALK, Action.WALK, Action.WALK, Action.TURN_RIGHT,
                      Action.WALK, Action.END])
    stray2 = execute(plus, stray1.final_pose, [Action.END])
    assert not paragraph_success(plus, [stray1, stray2], gold, CFG)


def test_paragraph_ignores_heading(plus):
    r1 = execute(plus, Pose(1, 6, -1), [Action.WALK, Action.END])
    turned = execute(plus, Pose(1, 6, -1), [Action.WALK, Action.TURN_AROUND, Action.END])
    gold = chain_routes([r1])
    assert paragraph_success(plus, [turned], gold, CFG)


# -- weighted average ---------------------------------------------------------------


def test_weighted_average_examples():
    assert weighted_average([(50.0, 10), (70.0, 10)]) == pytest.approx(60.0)
    assert weighted_average([(100.0, 1), (0.0, 1), (0.0, 2)]) == pytest.approx(25.0)
    sizes = [(10.0, 874), (20.0, 884), (30.0, 757)]
    expected = (10 * 874 + 20 * 884 + 30 * 757) / (874 + 884 + 757)
    assert weighted_average(sizes) == pytest.approx(expected)


def test_weighted_average_rejects_bad_sizes():
    with pytest.raises(ValueError):
        weighted_average([(1.0, 0)])
    with pytest.raises(ValueError):
        weighted_average([])


@given(st.lists(st.tuples(st.floats(0, 100), st.integers(1, 500)), min_size=1, max_size=6))
def test_weighted_average_bounds(results):
    avg = weighted_average(results)
    accs = [a for a, _ in results]
    assert min(accs) - 1e-9 <= avg <= max(accs) + 1e-9


# -- folds and protocol ----------------------------------------------------------------


def test_make_folds_partition():
    folds = make_folds(["m1", "m2", "m3"])
    assert sorted(f.test_map for f in folds) == ["m1", "m2", "m3"]
    for f in folds:
        assert f.test_map not in f.train_maps
        assert len(f.train_maps) == 2


def test_split_paragraphs_seeded(synth_small):
    _, corpus = synth_small
    t1, v1 = split_paragraphs(list(corpus.paragraphs), 0.10, seed=3)
    t2, v2 = split_paragraphs(list(corpus.paragraphs), 0.10, seed=3)
    assert [p.id for p in t1] == [p.id for p in t2]
    assert [p.id for p in v1] == [p.id for p in v2]
    assert len(v1) == max(1, round(0.10 * len(corpus.paragraphs)))
    assert {p.id for p in t1} | {p.id for p in v1} == {p.id for p in corpus.paragraphs}


def test_protocol_no_move_matches_bruteforce(synth_small):
    maps, corpus = synth_small
    report = run_protocol(corpus, maps, no_move_factory, seeds=(0,))
    # brute-force recount per fold
    from urbanav.executor import pose_bearing
    from urbanav.worldmap import angular_distance_deg, euclidean

    for fr in report.folds:
        expected = 0
        n = 0
        for p in corpus.paragraphs:
            if p.map_id != fr.fold:
                continue
            grid = maps[p.map_id]
            for instr in p.instructions:
                start_tile = grid.street(instr.start.street_id).tiles[instr.start.index]
                ok = (
                    start_tile == instr.route.tiles[0]
                    and euclidean(start_tile, instr.route.tiles[-1]) <= 5.0
                    and angular_distance_deg(
                        pose_bearing(grid, instr.start),
                        pose_bearing(grid, instr.route.final_pose),
                    ) <= 45.0
                )
                expected += ok
                n += 1
        assert fr.n_sentences == n
        assert fr.sentence_accuracy == pytest.approx(expected / n)


def test_protocol_deterministic_repeats(synth_small):
    maps, corpus = synth_small
    r1 = run_protocol(corpus, maps, no_move_factory, seeds=(0,))
    r2 = run_protocol(corpus, maps, no_move_factory, seeds=(0,))
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()


def test_protocol_parallel_matches_serial(synth_small):
    maps, corpus = synth_small
    serial = run_protocol(corpus, maps, no_move_factory, seeds=(0, 1))
    parallel = run_protocol(corpus, maps, no_move_factory, seeds=(0, 1), n_jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_report_csv_has_expected_fields(synth_small):
    maps, corpus = synth_small
    report = run_protocol(corpus, maps, no_move_factory, seeds=(0,))
    lines = report.to_csv().splitlines()
    assert lines[0] == "policy,variant,fold,n_sentences,n_paragraphs,sent_acc,para_acc,seed"
    assert len(lines) == 1 + len(report.folds)
