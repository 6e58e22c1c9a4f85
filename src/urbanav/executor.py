"""Deterministic action semantics over a street grid.

The action alphabet has exactly five symbols: WALK advances one tile along
the current street, the three TURN variants rebind the pose to the street
continuation whose bearing is closest to the requested relative angle, and
END terminates a route. A TURN never moves; a WALK moves by exactly one
8-neighbor step. Angles are compass degrees, clockwise positive, so
TURN_RIGHT targets +90 and TURN_LEFT targets -90.

Every move goes through ``successor``, which reads the map's lazy pose
table: each (pose, action) pair is worked out once per map, on first use,
and every later ``step``, beam expansion, JUMP move, synth plan and
``route_to_actions`` call on that pair is one dictionary lookup.

Also provides the inverse oracle ``route_to_actions`` that recovers a
minimal action string from a pinned tile route, used to derive training
supervision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .worldmap import GridMap, TileCoord, angular_distance_deg, signed_delta_deg


class Action(Enum):
    WALK = "WALK"
    TURN_LEFT = "TURN_LEFT"
    TURN_RIGHT = "TURN_RIGHT"
    TURN_AROUND = "TURN_AROUND"
    END = "END"


TURN_ACTIONS = (Action.TURN_LEFT, Action.TURN_RIGHT, Action.TURN_AROUND)

TURN_TARGET_DEG = {
    Action.TURN_LEFT: -90.0,
    Action.TURN_RIGHT: 90.0,
    Action.TURN_AROUND: 180.0,
}

# A candidate continuation qualifies for a TURN only within this window of
# the target angle; without it a near-0 candidate would let TURN act as a
# straight-ahead no-op on curved streets.
TURN_WINDOW_DEG = 60.0


@dataclass(frozen=True)
class Pose:
    street_id: int
    index: int
    travel_dir: int  # +1 toward the street's end, -1 toward its start


@dataclass(frozen=True)
class Route:
    tiles: tuple[TileCoord, ...]
    final_pose: Pose


class ExecutorError(Exception):
    def __init__(self, message: str, pose: Pose, action: Action | None):
        super().__init__(message)
        self.pose = pose
        self.action = action


class InvalidWalk(ExecutorError):
    """WALK attempted past the street terminus in the travel direction."""


class InvalidTurn(ExecutorError):
    """No street continuation within the acceptance window of the target angle."""


class InvalidPose(ExecutorError):
    """The pose names no tile of the map: unknown street, index off the street, or bad direction.

    ``action`` is the action asked of the pose, or None where none was.
    """


class ExecutionError(Exception):
    """An action string failed mid-route; carries what executed so far."""

    def __init__(self, cause: ExecutorError, partial_route: Route, action_index: int):
        super().__init__(f"action {action_index} ({cause.action.value}) failed: {cause}")
        self.cause = cause
        self.partial_route = partial_route
        self.action_index = action_index


class UnreachableStep(Exception):
    """No single TURN+WALK reaches the next tile of a pinned route."""

    def __init__(self, step_index: int, frm: TileCoord, to: TileCoord):
        super().__init__(f"route step {step_index}: cannot reach {to} from {frm}")
        self.step_index = step_index


def pose_tile(grid: GridMap, pose: Pose) -> TileCoord:
    return grid.street(pose.street_id).tiles[pose.index]


def pose_bearing(grid: GridMap, pose: Pose) -> float:
    """Facing direction of a pose, in compass degrees.

    At a street terminus (no successor ahead) the pose faces the straight
    continuation of its arrival segment.
    """
    street = grid.street(pose.street_id)
    if 0 <= pose.index + pose.travel_dir < len(street.tiles):
        return grid.bearing(street, pose.index, pose.travel_dir)
    return (grid.bearing(street, pose.index, -pose.travel_dir) + 180.0) % 360.0


def _turn_candidates(grid: GridMap, pose: Pose) -> list[tuple[float, Pose]]:
    """(relative angle, pose) for every street continuation at the current tile."""
    here = pose_tile(grid, pose)
    heading = pose_bearing(grid, pose)
    out = []
    for street, idx in grid.streets_through(here):
        for d in (1, -1):
            if 0 <= idx + d < len(street.tiles):
                rel = signed_delta_deg(heading, grid.bearing(street, idx, d))
                out.append((rel, Pose(street.id, idx, d)))
    return out


def _select_turn(grid: GridMap, pose: Pose, action: Action) -> Pose | None:
    """Best continuation for a TURN, or None when none is within the window."""
    target = TURN_TARGET_DEG[action]
    best: tuple[float, float, int, int, Pose] | None = None
    for rel, cand in _turn_candidates(grid, pose):
        cost = angular_distance_deg(rel, target)
        if cost > TURN_WINDOW_DEG:
            continue
        # Deterministic tie-break: smaller |relative angle|, then lower street
        # id, then direction +1.
        key = (cost, abs(rel), cand.street_id, 0 if cand.travel_dir == 1 else 1)
        if best is None or key < best[:4]:
            best = (*key, cand)
    return None if best is None else best[4]


def _turn_cost(grid: GridMap, pose: Pose, turned: Pose, action: Action) -> float:
    """|relative angle - target| of the TURN that took ``pose`` to ``turned``."""
    rel = signed_delta_deg(pose_bearing(grid, pose), pose_bearing(grid, turned))
    return angular_distance_deg(rel, TURN_TARGET_DEG[action])


def check_pose(grid: GridMap, pose: Pose, action: Action | None = None) -> int:
    """The length of the pose's street; raises ``InvalidPose`` for a pose that names no tile.

    Poses from outside pass here once; the poses ``successor`` returns are valid.
    """
    try:
        n = len(grid.street(pose.street_id).tiles)
    except KeyError:
        raise InvalidPose(f"no street {pose.street_id}", pose, action) from None
    if not 0 <= pose.index < n:
        raise InvalidPose(
            f"index {pose.index} is off street {pose.street_id} of length {n}", pose, action
        )
    if pose.travel_dir not in (1, -1):
        raise InvalidPose(f"travel direction {pose.travel_dir} is not +1 or -1", pose, action)
    return n


def _compute_successor(grid: GridMap, pose: Pose, action: Action) -> Pose | None:
    if action is Action.END:
        raise ValueError("END is not executable; it only terminates a route")
    n = check_pose(grid, pose, action)
    if action is Action.WALK:
        j = pose.index + pose.travel_dir
        return Pose(pose.street_id, j, pose.travel_dir) if 0 <= j < n else None
    return _select_turn(grid, pose, action)


_UNFILLED = object()


def successor(grid: GridMap, pose: Pose, action: Action) -> Pose | None:
    """The pose after WALK or a TURN, or None where ``step`` would raise.

    Reads the map's pose table (``GridMap.pose_table``) and fills an entry
    on its first use, so each (pose, action) is worked out once per map. A
    miss checks the pose first and raises ``InvalidPose`` for one that names
    no tile; a hit costs one dictionary lookup.
    """
    key = (pose, action)
    nxt = grid.pose_table.get(key, _UNFILLED)
    if nxt is _UNFILLED:
        nxt = grid.pose_table[key] = _compute_successor(grid, pose, action)
    return nxt


def step(grid: GridMap, pose: Pose, action: Action) -> Pose:
    """Executes one non-END action. Pure and deterministic."""
    nxt = successor(grid, pose, action)
    if nxt is None:
        if action is Action.WALK:
            raise InvalidWalk(
                f"street {pose.street_id} ends at index {pose.index}", pose, action
            )
        raise InvalidTurn(
            f"no continuation within {TURN_WINDOW_DEG:.0f} degrees of "
            f"{TURN_TARGET_DEG[action]:+.0f}",
            pose,
            action,
        )
    return nxt


def execute(grid: GridMap, p0: Pose, actions: list[Action]) -> Route:
    """Folds ``step`` over an action string ending in END.

    The route records the tile after every action; TURNs leave the tile
    unchanged so it is recorded once. A failing step raises ExecutionError
    carrying the partial route, so callers can still score what executed.
    A start pose that names no tile fails action 0 with an empty route.
    """
    if not actions or actions[-1] is not Action.END:
        raise ValueError("action string must end with END")
    if any(a is Action.END for a in actions[:-1]):
        raise ValueError("END may only appear as the final action")
    try:
        check_pose(grid, p0, actions[0])
    except InvalidPose as err:
        raise ExecutionError(err, Route((), p0), 0) from err
    tiles = [pose_tile(grid, p0)]
    pose = p0
    for i, action in enumerate(actions[:-1]):
        try:
            pose = step(grid, pose, action)
        except ExecutorError as err:
            raise ExecutionError(err, Route(tuple(tiles), pose), i) from err
        tile = pose_tile(grid, pose)
        if tile != tiles[-1]:
            tiles.append(tile)
    return Route(tuple(tiles), pose)


def execute_lenient(grid: GridMap, p0: Pose, actions: list[Action]) -> Route:
    """Like ``execute`` but truncates at the first failing action; a bad start pose raises."""
    try:
        return execute(grid, p0, actions)
    except ExecutionError as err:
        if isinstance(err.cause, InvalidPose):
            raise
        return err.partial_route


def route_to_actions(grid: GridMap, p0: Pose, route: Route) -> list[Action]:
    """Minimal action string whose execution reproduces ``route.tiles`` exactly.

    Walks when the next route tile is the WALK successor; otherwise inserts
    the cheapest TURN (by |angle - target| over the three TURN kinds) that
    makes it so.
    """
    check_pose(grid, p0)
    if route.tiles[0] != pose_tile(grid, p0):
        raise ValueError(f"route starts at {route.tiles[0]}, pose is at {pose_tile(grid, p0)}")
    actions: list[Action] = []
    pose = p0
    for i, target in enumerate(route.tiles[1:], start=1):
        if target == pose_tile(grid, pose):
            continue
        walked = successor(grid, pose, Action.WALK)
        if walked is not None and pose_tile(grid, walked) == target:
            pose = walked
            actions.append(Action.WALK)
            continue
        options: list[tuple[float, int, Action, Pose]] = []
        for order, kind in enumerate(TURN_ACTIONS):
            cand = successor(grid, pose, kind)
            after = None if cand is None else successor(grid, cand, Action.WALK)
            if after is not None and pose_tile(grid, after) == target:
                options.append((_turn_cost(grid, pose, cand, kind), order, kind, after))
        if not options:
            raise UnreachableStep(i, pose_tile(grid, pose), target)
        _, _, kind, pose = min(options, key=lambda o: (o[0], o[1]))
        actions += [kind, Action.WALK]
    actions.append(Action.END)
    return actions


def format_actions(actions: list[Action]) -> str:
    return " ".join(a.value for a in actions)


def parse_actions(text: str) -> list[Action]:
    out = []
    for token in text.split():
        try:
            out.append(Action(token))
        except ValueError:
            raise ValueError(f"unknown action token {token!r}") from None
    return out
