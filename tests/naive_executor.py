"""Independent, deliberately naive interpreter of the action semantics.

Used purely as a test oracle: it recomputes everything from first
principles (scanning all streets for the current tile, trigonometry from
raw coordinates, exhaustive candidate sorting) and shares no code paths
with urbanav.executor beyond the data types.
"""

from __future__ import annotations

import math

from urbanav.executor import Action, Pose
from urbanav.worldmap import GridMap

# Metres per tile side. Any positive scale cancels exactly in the angle of an
# 8-neighbour step; the oracle keeps one to stay a geometric computation.
TILE_SIDE_M = 11.132


def _tile(grid: GridMap, pose: Pose):
    for street in grid.streets:
        if street.id == pose.street_id:
            return street.tiles[pose.index]
    raise KeyError(pose.street_id)


def _segment_bearing(a, b) -> float:
    # unit circle with 0 = north, clockwise positive
    de = (b.col - a.col) * TILE_SIDE_M
    dn = (a.row - b.row) * TILE_SIDE_M
    ang = math.atan2(de, dn) * 180.0 / math.pi
    while ang < 0:
        ang += 360.0
    while ang >= 360.0:
        ang -= 360.0
    return ang


def _facing(grid: GridMap, pose: Pose) -> float:
    for street in grid.streets:
        if street.id != pose.street_id:
            continue
        nxt = pose.index + pose.travel_dir
        if 0 <= nxt < len(street.tiles):
            return _segment_bearing(street.tiles[pose.index], street.tiles[nxt])
        prev = pose.index - pose.travel_dir
        back = _segment_bearing(street.tiles[pose.index], street.tiles[prev])
        return (back + 180.0) % 360.0
    raise KeyError(pose.street_id)


def _wrap(angle: float) -> float:
    while angle > 180.0:
        angle -= 360.0
    while angle <= -180.0:
        angle += 360.0
    return angle


def naive_step(grid: GridMap, pose: Pose, action: Action) -> Pose | None:
    """Returns the next pose, or None where the real executor should error."""
    if action is Action.WALK:
        for street in grid.streets:
            if street.id == pose.street_id:
                j = pose.index + pose.travel_dir
                if 0 <= j < len(street.tiles):
                    return Pose(street.id, j, pose.travel_dir)
                return None
        return None
    targets = {Action.TURN_LEFT: -90.0, Action.TURN_RIGHT: 90.0, Action.TURN_AROUND: 180.0}
    target = targets[action]
    here = _tile(grid, pose)
    heading = _facing(grid, pose)
    candidates = []
    for street in grid.streets:
        for idx, t in enumerate(street.tiles):
            if t != here:
                continue
            for d in (1, -1):
                if 0 <= idx + d < len(street.tiles):
                    bearing = _segment_bearing(t, street.tiles[idx + d])
                    rel = _wrap(bearing - heading)
                    dist = abs(_wrap(rel - target))
                    candidates.append(
                        (dist, abs(rel), street.id, 0 if d == 1 else 1, Pose(street.id, idx, d))
                    )
    candidates = [c for c in candidates if c[0] <= 60.0]
    if not candidates:
        return None
    candidates.sort(key=lambda c: c[:4])
    return candidates[0][4]


def naive_execute(grid: GridMap, p0: Pose, actions) -> tuple[list, Pose] | None:
    tiles = [_tile(grid, p0)]
    pose = p0
    for action in actions:
        if action is Action.END:
            break
        nxt = naive_step(grid, pose, action)
        if nxt is None:
            return None
        pose = nxt
        t = _tile(grid, pose)
        if t != tiles[-1]:
            tiles.append(t)
    return tiles, pose
