import numpy as np
import pytest

from urbanav.executor import (
    Action,
    ExecutionError,
    InvalidPose,
    InvalidTurn,
    InvalidWalk,
    Pose,
    Route,
    execute,
    execute_lenient,
    format_actions,
    parse_actions,
    pose_bearing,
    pose_tile,
    route_to_actions,
    step,
    successor,
)
from urbanav.synth import SynthSpec, generate_map
from urbanav.worldmap import GridMap, Street, TileCoord
from urbanav.worldstate import WorldStateLayout, compute as compute_world

from conftest import CROSSING_POSITIONS, crossing_map, random_pose
from naive_executor import naive_execute, naive_step

MOVES = (Action.WALK, Action.TURN_LEFT, Action.TURN_RIGHT, Action.TURN_AROUND)


def self_crossing_map() -> GridMap:
    """A street that passes (2,2) twice, crossed at (2,3) and (3,3) by a second street."""
    loop = (TileCoord(2, 0), TileCoord(2, 1), TileCoord(2, 2), TileCoord(2, 3),
            TileCoord(3, 3), TileCoord(3, 2), TileCoord(2, 2), TileCoord(1, 2), TileCoord(0, 2))
    row = tuple(TileCoord(c, 3) for c in range(6))
    return GridMap("loop", 6, 6, streets=[Street(id=1, tiles=loop), Street(id=2, tiles=row)])


def all_poses(grid: GridMap):
    for street in grid.streets:
        for index in range(len(street.tiles)):
            for direction in (1, -1):
                yield Pose(street.id, index, direction)


def sample_route(grid, rng, max_len=12) -> tuple[Pose, Route]:
    """Random valid rollout used to exercise the round-trip property."""
    for _ in range(50):
        p0 = random_pose(grid, rng)
        pose = p0
        actions = []
        n = int(rng.integers(0, max_len))
        for _ in range(n):
            choices = [Action.WALK, Action.WALK, Action.WALK,
                       Action.TURN_LEFT, Action.TURN_RIGHT, Action.TURN_AROUND]
            action = choices[rng.integers(0, len(choices))]
            try:
                pose = step(grid, pose, action)
            except Exception:
                continue
            actions.append(action)
        actions.append(Action.END)
        try:
            return p0, execute(grid, p0, actions)
        except ExecutionError:
            continue
    raise AssertionError("could not sample a route")


def test_walk_advances_index(straight):
    pose = step(straight, Pose(1, 2, 1), Action.WALK)
    assert pose == Pose(1, 3, 1)


def test_walk_at_terminus_raises(straight):
    with pytest.raises(InvalidWalk):
        step(straight, Pose(1, 7, 1), Action.WALK)


def test_turn_around_reverses_direction(straight):
    pose = step(straight, Pose(1, 4, 1), Action.TURN_AROUND)
    assert pose == Pose(1, 4, -1)
    assert pose_tile(straight, pose) == TileCoord(4, 2)


def test_turn_right_at_plus_crossing(plus):
    # facing north (decreasing row) on the north-south street
    pose = Pose(1, 3, -1)
    assert pose_bearing(plus, pose) == pytest.approx(0.0)
    turned = step(plus, pose, Action.TURN_RIGHT)
    # brute force: the east-going arm of the crossing is the +90 candidate
    assert turned.street_id == 2 and turned.travel_dir == 1
    assert pose_tile(plus, turned) == TileCoord(3, 3)


def test_turn_left_at_plus_crossing(plus):
    pose = Pose(1, 3, -1)
    turned = step(plus, pose, Action.TURN_LEFT)
    assert turned.street_id == 2 and turned.travel_dir == -1


def test_turn_between_two_diagonals_is_the_same_at_every_position():
    """Facing north, a north-east and a south-east street both lie 45 degrees from
    TURN_RIGHT's target; the smaller |angle| (north-east) wins wherever the crossing is."""
    north, north_east = Pose(1, 1, 1), Pose(2, 1, 1)
    for col, row in CROSSING_POSITIONS:
        grid = crossing_map(col, row)
        assert successor(grid, north, Action.TURN_RIGHT) == north_east, (col, row)
        assert naive_step(grid, north, Action.TURN_RIGHT) == north_east


def test_turn_requires_candidate_within_window(straight):
    with pytest.raises(InvalidTurn):
        step(straight, Pose(1, 3, 1), Action.TURN_LEFT)


def test_turn_never_moves_walk_moves_one(plus):
    rng = np.random.default_rng(3)
    for _ in range(200):
        pose = random_pose(plus, rng)
        for action in (Action.TURN_LEFT, Action.TURN_RIGHT, Action.TURN_AROUND):
            try:
                nxt = step(plus, pose, action)
            except InvalidTurn:
                continue
            assert pose_tile(plus, nxt) == pose_tile(plus, pose)
        try:
            walked = step(plus, pose, Action.WALK)
        except InvalidWalk:
            continue
        a, b = pose_tile(plus, pose), pose_tile(plus, walked)
        assert max(abs(a.col - b.col), abs(a.row - b.row)) == 1


def test_turn_around_twice_restores(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(4)
    for grid in maps.values():
        for _ in range(100):
            pose = random_pose(grid, rng)
            try:
                once = step(grid, pose, Action.TURN_AROUND)
                twice = step(grid, once, Action.TURN_AROUND)
            except InvalidTurn:
                continue
            assert pose_tile(grid, twice) == pose_tile(grid, pose)
            assert (twice.street_id, twice.index, twice.travel_dir) == (
                pose.street_id, pose.index, pose.travel_dir,
            )


def test_step_is_deterministic(plus):
    pose = Pose(1, 3, -1)
    results = {step(plus, pose, Action.TURN_RIGHT) for _ in range(10)}
    assert len(results) == 1


# -- execute ------------------------------------------------------------------


def test_execute_end_only(straight):
    route = execute(straight, Pose(1, 2, 1), [Action.END])
    assert route.tiles == (TileCoord(2, 2),)
    assert route.final_pose == Pose(1, 2, 1)


def test_execute_walks(straight):
    route = execute(straight, Pose(1, 0, 1), [Action.WALK, Action.WALK, Action.END])
    assert route.tiles == (TileCoord(0, 2), TileCoord(1, 2), TileCoord(2, 2))


def test_execute_requires_trailing_end(straight):
    with pytest.raises(ValueError):
        execute(straight, Pose(1, 0, 1), [Action.WALK])
    with pytest.raises(ValueError):
        execute(straight, Pose(1, 0, 1), [Action.END, Action.WALK, Action.END])


def test_execute_error_carries_partial_route(straight):
    actions = [Action.WALK] * 20 + [Action.END]
    with pytest.raises(ExecutionError) as exc:
        execute(straight, Pose(1, 5, 1), actions)
    err = exc.value
    assert err.action_index == 2
    assert err.partial_route.tiles == (TileCoord(5, 2), TileCoord(6, 2), TileCoord(7, 2))
    assert execute_lenient(straight, Pose(1, 5, 1), actions) == err.partial_route


def test_execute_agrees_with_naive_interpreter(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(9)
    action_pool = list(Action)
    checked = 0
    for grid in list(maps.values()):
        for _ in range(300):
            pose = random_pose(grid, rng)
            n = int(rng.integers(1, 10))
            actions = [action_pool[rng.integers(0, 4)] for _ in range(n)] + [Action.END]
            expected = naive_execute(grid, pose, actions)
            try:
                route = execute(grid, pose, actions)
                got = (list(route.tiles), route.final_pose)
            except ExecutionError:
                got = None
            assert got == (None if expected is None else (expected[0], expected[1]))
            checked += 1
    assert checked == 600


# -- route_to_actions ------------------------------------------------------------


def test_single_tile_route_is_end(straight):
    p0 = Pose(1, 3, 1)
    route = Route((TileCoord(3, 2),), p0)
    assert route_to_actions(straight, p0, route) == [Action.END]


def test_straight_route_is_walks(straight):
    p0 = Pose(1, 0, 1)
    route = execute(straight, p0, [Action.WALK] * 3 + [Action.END])
    assert route_to_actions(straight, p0, route) == [Action.WALK] * 3 + [Action.END]


def test_right_angle_route_contains_one_turn(plus):
    p0 = Pose(1, 5, -1)  # heading north toward the crossing
    actions = [Action.WALK, Action.WALK, Action.TURN_RIGHT, Action.WALK, Action.END]
    route = execute(plus, p0, actions)
    recovered = route_to_actions(plus, p0, route)
    assert recovered.count(Action.TURN_RIGHT) == 1
    assert execute(plus, p0, recovered).tiles == route.tiles


def test_roundtrip_on_random_routes(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(21)
    for grid in maps.values():
        for _ in range(150):
            p0, route = sample_route(grid, rng)
            actions = route_to_actions(grid, p0, route)
            assert execute(grid, p0, actions).tiles == route.tiles
            assert actions[-1] is Action.END


def test_route_to_actions_rejects_wrong_start(straight):
    route = Route((TileCoord(5, 2),), Pose(1, 5, 1))
    with pytest.raises(ValueError):
        route_to_actions(straight, Pose(1, 0, 1), route)


# -- serialization ----------------------------------------------------------------


def test_action_tokens_roundtrip():
    actions = [Action.TURN_LEFT, Action.WALK, Action.END]
    assert parse_actions(format_actions(actions)) == actions


def test_unknown_action_token_rejected():
    with pytest.raises(ValueError, match="JUMP"):
        parse_actions("WALK JUMP END")


# -- pose table ---------------------------------------------------------------------


def test_pose_table_matches_naive_interpreter_on_every_move():
    maps = [generate_map(SynthSpec(seed=500 + i), i % 3) for i in range(5)]
    maps.append(self_crossing_map())
    for grid in maps:
        checked = 0
        for pose in all_poses(grid):
            for action in MOVES:
                expected = naive_step(grid, pose, action)
                assert successor(grid, pose, action) == expected, (grid.id, pose, action)
                if expected is None:
                    with pytest.raises(InvalidWalk if action is Action.WALK else InvalidTurn):
                        step(grid, pose, action)
                else:
                    assert step(grid, pose, action) == expected
                checked += 1
        assert len(grid.pose_table) == checked


def test_self_crossing_street_turns_onto_its_other_pass():
    grid = self_crossing_map()
    # at (2,2) heading south on the first pass; the second pass runs east-west there
    assert step(grid, Pose(1, 2, 1), Action.TURN_RIGHT) == Pose(1, 6, 1)
    assert step(grid, Pose(1, 2, 1), Action.TURN_LEFT) == Pose(1, 6, -1)


def test_pose_table_stays_lazy():
    for i in range(3):
        grid = generate_map(SynthSpec.default(), i)
        assert grid.pose_table == {} and grid._types_near == {} and grid._near == {}
    grid = self_crossing_map()
    assert grid.pose_table == {} and grid._types_near == {} and grid._near == {}
    step(grid, Pose(1, 0, 1), Action.WALK)
    assert list(grid.pose_table) == [(Pose(1, 0, 1), Action.WALK)]
    assert grid._near == {}
    grid.types_near(Pose(1, 0, 1), 3, 2)  # one proximity table per radius asked for
    assert sorted(grid._near) == [0, 2]


def test_out_of_range_pose_raises_invalid_pose():
    grid = generate_map(SynthSpec.default(), 0)
    street = grid.street(1)
    n = len(street.tiles)
    for pose in (Pose(1, -1, 1), Pose(1, n, -1)):
        for action in MOVES:
            with pytest.raises(InvalidPose, match=f"index {pose.index} is off street 1 of length {n}"):
                step(grid, pose, action)
        with pytest.raises(InvalidPose):
            successor(grid, pose, Action.WALK)
    with pytest.raises(InvalidPose, match="no street 999"):
        step(grid, Pose(999, 0, 1), Action.WALK)
    with pytest.raises(InvalidPose, match="travel direction 0"):
        step(grid, Pose(1, 3, 0), Action.WALK)
    with pytest.raises(ExecutionError) as exc:
        execute(grid, Pose(1, -1, 1), [Action.WALK, Action.END])
    assert isinstance(exc.value.cause, InvalidPose)
    assert all(key[0].index >= 0 for key in grid.pose_table)


@pytest.mark.parametrize("pose", [Pose(1, -1, 1), Pose(1, 0, 0), Pose(1, 99, 1), Pose(999, 0, 1)],
                         ids=["index-1", "direction0", "index99", "street999"])
def test_bad_start_pose_fails_action_zero(pose):
    """A start pose that names no tile is an error before any action, END included."""
    grid = generate_map(SynthSpec.default(), 0)
    for run in (execute, execute_lenient):
        with pytest.raises(ExecutionError, match=r"^action 0 \(END\) failed: ") as exc:
            run(grid, pose, [Action.END])
        assert isinstance(exc.value.cause, InvalidPose)
        assert exc.value.partial_route == Route((), pose)
    with pytest.raises(InvalidPose):
        compute_world(grid, pose, (), WorldStateLayout(), horizon=10, radius=1)
    with pytest.raises(InvalidPose):
        route_to_actions(grid, pose, Route((TileCoord(0, 7),), pose))
    assert grid.pose_table == {}


def test_end_is_not_a_move(straight):
    with pytest.raises(ValueError, match="END"):
        step(straight, Pose(1, 2, 1), Action.END)
    assert straight.pose_table == {}
