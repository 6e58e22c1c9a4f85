import numpy as np
import pytest

from urbanav import baselines
from urbanav.baselines import (
    JumpPolicy,
    NoMovePolicy,
    RandomPolicy,
    jump,
    no_move,
    random_walk,
)
from urbanav.evaluator import SuccessPredicateConfig, sentence_success
from urbanav.executor import Action, Pose, execute, execute_lenient
from urbanav.worldmap import TileCoord



def test_no_move_is_end_only():
    assert no_move(Pose(1, 3, 1)) == (Action.END,)


def test_no_move_executes_to_single_tile(straight):
    route = execute(straight, Pose(1, 3, 1), no_move(Pose(1, 3, 1)))
    assert route.tiles == (TileCoord(3, 2),)


def test_random_walk_is_seed_reproducible(straight):
    a = random_walk(straight, Pose(1, 0, 1), 4.0, np.random.default_rng(9))
    b = random_walk(straight, Pose(1, 0, 1), 4.0, np.random.default_rng(9))
    assert a == b
    assert a[-1] is Action.END


def test_random_walk_avg_len_zero(straight):
    for seed in range(8):
        actions = random_walk(straight, Pose(1, 3, 1), 0.0, np.random.default_rng(seed))
        assert actions[-1] is Action.END
        assert sum(a is Action.WALK for a in actions) == 0
        assert len(actions) <= 2  # at most one turn then END


def test_random_walk_truncates_at_street_end(straight):
    # facing the end two tiles away; ask for 10 walks
    rng = np.random.default_rng(1)
    for _ in range(20):
        actions = random_walk(straight, Pose(1, 5, 1), 10.0, rng)
        assert execute_lenient(straight, Pose(1, 5, 1), actions) is not None
        route = execute(straight, Pose(1, 5, 1), actions) if actions.count(Action.WALK) <= 2 \
            else execute_lenient(straight, Pose(1, 5, 1), actions)
        assert route.tiles[0] == TileCoord(5, 2)


def test_random_walk_emits_wellformed_strings(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(3)
    grid = next(iter(maps.values()))
    for seed in range(30):
        pose = Pose(grid.streets[0].id, 5, 1)
        actions = random_walk(grid, pose, 6.0, np.random.default_rng(seed))
        assert actions.count(Action.END) == 1 and actions[-1] is Action.END


# -- jump ---------------------------------------------------------------------


def test_jump_no_entities_is_end(plus):
    actions = jump(plus, (), Pose(1, 0, 1), np.random.default_rng(0))
    assert actions == (Action.END,)


def test_jump_walks_straight_to_target(straight):
    # add a POI next to tile (5,2); agent starts at index 2 facing +1
    from urbanav.worldmap import Entity, GridMap, Street

    tiles = tuple(TileCoord(c, 2) for c in range(8))
    grid = GridMap(
        "m", 8, 5,
        entities=[Entity(id=50, entity_type="cafe", is_building=True,
                         footprint=frozenset({TileCoord(5, 1)}), name="target cafe")],
        streets=[Street(id=1, tiles=tiles, name="main street")],
    )
    actions = jump(grid, (("<CAFE_1>", 50),), Pose(1, 2, 1), np.random.default_rng(0))
    # greedy distance descent: first adjacent street tile is (4,2), 2 walks away
    assert actions == (Action.WALK, Action.WALK, Action.END)


def test_jump_turns_toward_target_on_other_street(plus):
    # macy's (id 10) is at (4,5), adjacent to 7th street tiles (3,4),(3,5),(3,6)
    # start on west 30th street heading east toward the crossing
    actions = jump(plus, (("<SHOP_1>", 10),), Pose(2, 1, 1), np.random.default_rng(0))
    route = execute_lenient(plus, Pose(2, 1, 1), actions)
    assert any(max(abs(t.col - 4), abs(t.row - 5)) <= 1 for t in route.tiles)


def test_jump_respects_step_budget(plus, monkeypatch):
    monkeypatch.setattr(baselines, "JUMP_STEP_BUDGET", 3)
    actions = jump(plus, (("<SHOP_1>", 10),), Pose(2, 0, 1), np.random.default_rng(0))
    assert len(actions) <= 4  # 3 steps + END


def test_jump_seeded_reproducible(synth_small):
    maps, corpus = synth_small
    grid = maps[corpus.paragraphs[0].map_id]
    instr = corpus.paragraphs[0].instructions[0]
    a = jump(grid, instr.bindings, instr.start, np.random.default_rng(5))
    b = jump(grid, instr.bindings, instr.start, np.random.default_rng(5))
    assert a == b


def test_all_baselines_emit_executable_strings(synth_small):
    maps, corpus = synth_small
    policies = [NoMovePolicy(), RandomPolicy(), JumpPolicy()]
    for policy in policies:
        policy.fit(corpus, maps, seed=1)
    for p, instr in list(corpus.instructions())[:30]:
        grid = maps[p.map_id]
        for policy in policies:
            actions = policy.predict(grid, instr, instr.start)
            assert actions[-1] is Action.END
            assert actions.count(Action.END) == 1
            execute_lenient(grid, instr.start, actions)  # must not raise


def test_random_policy_learns_avg_from_training_folds(synth_small):
    maps, corpus = synth_small
    policy = RandomPolicy()
    policy.fit(corpus, maps, seed=0)
    walks = [sum(a is Action.WALK for a in i.actions) for _, i in corpus.instructions()]
    assert policy.avg_len == pytest.approx(sum(walks) / len(walks))


def test_no_move_accuracy_equals_bruteforce_count(synth_small):
    maps, corpus = synth_small
    cfg = SuccessPredicateConfig()
    policy = NoMovePolicy()
    hits = total = 0
    for p, instr in corpus.instructions():
        grid = maps[p.map_id]
        pred = execute(grid, instr.start, policy.predict(grid, instr, instr.start))
        hits += sentence_success(grid, pred, instr.route, cfg)
        total += 1
    # independent recount: start tile on gold, terminal within 5, heading ok
    from urbanav.executor import pose_bearing
    from urbanav.worldmap import angular_distance_deg, euclidean

    expected = 0
    for p, instr in corpus.instructions():
        grid = maps[p.map_id]
        start_tile = grid.street(instr.start.street_id).tiles[instr.start.index]
        ok = euclidean(start_tile, instr.route.tiles[-1]) <= 5.0
        ok = ok and start_tile == instr.route.tiles[0]
        ok = ok and angular_distance_deg(
            pose_bearing(grid, instr.start), pose_bearing(grid, instr.route.final_pose)
        ) <= 45.0
        expected += ok
    assert hits == expected
    assert total > 0
