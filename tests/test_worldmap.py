import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urbanav.executor import Action, InvalidPose, Pose, step
from urbanav.worldmap import (
    Entity,
    GridMap,
    MapFormatError,
    MapValidationError,
    Street,
    TileCoord,
    chebyshev,
    format_map,
    parse_map,
    signed_delta_deg,
)

from conftest import random_pose, straight_map
from naive_executor import _segment_bearing

MINIMAL = """\
MAP tiny 3 3
STREET 1 tiles=(0,0);(1,1)
"""


def test_minimal_map_loads():
    grid = parse_map(MINIMAL)
    assert grid.width == 3 and grid.height == 3
    assert len(grid.streets) == 1
    assert grid.entities == ()


def test_parse_rejects_unknown_record_kind():
    with pytest.raises(MapFormatError, match="unknown record kind"):
        parse_map("MAP m 3 3\nROAD 1 tiles=(0,0);(1,1)\n")


def test_parse_rejects_nonadjacent_street_tiles():
    with pytest.raises(MapValidationError, match="street 1"):
        parse_map("MAP m 4 4\nSTREET 1 tiles=(0,0);(0,2)\n")


def test_parse_rejects_out_of_grid_footprint():
    text = "MAP m 2 2\nENTITY 5 shop 1 tiles=(0,0);(9,9)\n"
    with pytest.raises(MapValidationError, match="entity 5"):
        parse_map(text)


def test_parse_reports_line_numbers():
    text = "MAP m 3 3\n\nSTREET x tiles=(0,0);(1,0)\n"
    with pytest.raises(MapFormatError, match=":3"):
        parse_map(text)


def test_unknown_entity_type_maps_to_other():
    grid = parse_map('MAP m 3 3\nENTITY 1 spaceport 0 name="x" tiles=(1,1)\n')
    assert grid.entities[0].entity_type == "other"


def test_duplicate_grounding_id_rejected():
    text = "MAP m 3 3\nENTITY 1 shop 1 tiles=(0,0)\nSTREET 1 tiles=(0,0);(1,0)\n"
    with pytest.raises(MapValidationError, match="duplicate"):
        parse_map(text)


def test_map_load_scales_to_large_entity_counts():
    lines = ["MAP big 100 100"]
    for i in range(1612):
        lines.append(f'ENTITY {i + 1} shop 1 name="shop {i}" tiles=({i % 100},{i // 100})')
    lines.append("STREET 9000 tiles=(0,0);(1,0)")
    grid = parse_map("\n".join(lines))
    assert len(grid.entities) == 1612


def test_format_parse_roundtrip(plus):
    text = format_map(plus)
    again = parse_map(text)
    assert format_map(again) == text
    assert [e.id for e in again.entities] == [e.id for e in plus.entities]
    assert [s.tiles for s in again.streets] == [s.tiles for s in plus.streets]


def test_tile_index_matches_rebuild(synth_small):
    maps, _ = synth_small
    for grid in maps.values():
        rebuilt = GridMap(grid.id, grid.width, grid.height, grid.entities, grid.streets)
        assert rebuilt.tile_index == grid.tile_index


# -- entities_at ---------------------------------------------------------------


def test_entities_at_radius0_empty_tile(plus):
    assert plus.entities_at(TileCoord(0, 0), 0) == []


def test_entities_at_footprint_membership():
    footprint = frozenset({TileCoord(1, 1), TileCoord(2, 1), TileCoord(1, 2), TileCoord(2, 2)})
    grid = GridMap(
        "m", 5, 5,
        entities=[Entity(id=7, entity_type="park", is_building=False, footprint=footprint)],
        streets=[Street(id=1, tiles=(TileCoord(0, 0), TileCoord(0, 1)))],
    )
    assert [e.id for e in grid.entities_at(TileCoord(2, 2), 0)] == [7]


def test_entities_at_adjacent_pois():
    grid = GridMap(
        "m", 5, 5,
        entities=[
            Entity(id=3, entity_type="cafe", is_building=True,
                   footprint=frozenset({TileCoord(1, 1)})),
            Entity(id=4, entity_type="bank", is_building=True,
                   footprint=frozenset({TileCoord(3, 1)})),
        ],
        streets=[Street(id=1, tiles=tuple(TileCoord(c, 2) for c in range(5)))],
    )
    got = [e.id for e in grid.entities_at(TileCoord(2, 2), 1)]
    # brute force over all footprints: both POIs touch the radius-1 ball
    expected = sorted(
        e.id
        for e in grid.entities
        if any(chebyshev(TileCoord(2, 2), f) <= 1 for f in e.footprint)
    )
    assert got == expected == [3, 4]


def test_entities_at_matches_bruteforce_on_synthetic(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(5)
    for grid in maps.values():
        for _ in range(80):
            c = TileCoord(int(rng.integers(0, grid.width)), int(rng.integers(0, grid.height)))
            r = int(rng.integers(0, 4))
            expected = sorted(
                e.id for e in grid.entities
                if any(chebyshev(c, f) <= r for f in e.footprint)
            )
            assert [e.id for e in grid.entities_at(c, r)] == expected


def test_walkable_tiles_within_one_match_bruteforce(synth_small):
    maps, _ = synth_small
    for grid in maps.values():
        street_tiles = {t for s in grid.streets for t in s.tiles}
        gids = [e.id for e in grid.entities] + [s.id for s in grid.streets]
        for gid in gids:
            footprint = grid.grounding_tiles(gid)
            expected = {
                t for t in street_tiles if any(chebyshev(t, f) <= 1 for f in footprint)
            }
            got = {t for t in grid.tiles_within(gid, 1) if grid.is_walkable(t)}
            assert got == expected


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_groundings_near_matches_bruteforce(synth_small, radius):
    """Entities then streets, in map order, whose footprint meets the ball; nothing off the grid."""
    maps, _ = synth_small
    for grid in maps.values():
        footprints = [(e.id, e.footprint) for e in grid.entities]
        footprints += [(s.id, s.tiles) for s in grid.streets]
        for col in range(grid.width):
            for row in range(grid.height):
                c = TileCoord(col, row)
                expected = tuple(
                    gid for gid, tiles in footprints if any(chebyshev(c, f) <= radius for f in tiles)
                )
                assert grid.groundings_near(c, radius) == expected
        assert grid.groundings_near(TileCoord(-1, 0), radius) == ()
        assert grid.groundings_near(TileCoord(grid.width, 3), radius) == ()


def test_entities_at_out_of_grid_errors(plus):
    with pytest.raises(MapValidationError):
        plus.entities_at(TileCoord(99, 0), 1)


# -- path_ahead -----------------------------------------------------------------


def test_path_ahead_clips_at_street_end(straight):
    pose = Pose(1, 7, 1)
    assert straight.path_ahead(pose, 10) == []


def test_path_ahead_is_a_slice(straight):
    pose = Pose(1, 0, 1)
    tiles = straight.streets[0].tiles
    assert straight.path_ahead(pose, 3) == list(tiles[1:4])


def test_path_ahead_matches_walk_simulation(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(11)
    for grid in maps.values():
        for _ in range(40):
            pose = random_pose(grid, rng)
            horizon = int(rng.integers(0, 12))
            expected = []
            p = pose
            for _ in range(horizon):
                try:
                    p = step(grid, p, Action.WALK)
                except Exception:
                    break
                expected.append(grid.street(p.street_id).tiles[p.index])
            assert grid.path_ahead(pose, horizon) == expected


@given(h1=st.integers(0, 6), h2=st.integers(0, 6))
def test_path_ahead_composes(h1, h2):
    grid = straight_map(10)
    pose = Pose(1, 0, 1)
    whole = grid.path_ahead(pose, h1 + h2)
    first = grid.path_ahead(pose, h1)
    if len(first) == h1:  # h1 tiles actually remain
        advanced = Pose(1, h1, 1)
        assert whole == first + grid.path_ahead(advanced, h2)


# (make the bad pose from a street id and its length, the error text it must raise)
BAD_POSES = {
    "unknown street": (lambda sid, n: Pose(999, 0, 1), "no street 999"),
    "index -1": (lambda sid, n: Pose(sid, -1, 1), "index -1 is off street {sid} of length {n}"),
    "index past the end": (lambda sid, n: Pose(sid, n, -1), "index {n} is off street {sid} of length {n}"),
    "direction 5": (lambda sid, n: Pose(sid, 0, 5), "travel direction 5 is not +1 or -1"),
}


@pytest.mark.parametrize("query", ["types_near", "path_ahead"])
@pytest.mark.parametrize("case", list(BAD_POSES))
def test_pose_queries_reject_a_pose_that_names_no_tile(synth_small, query, case):
    """A bad pose raises ``InvalidPose`` naming what is wrong: no ``KeyError``,
    no silent read of the street's last tile, no stride of five tiles."""
    maps, _ = synth_small
    grid = maps["synth-1"]
    street = grid.streets[0]
    make, message = BAD_POSES[case]
    pose = make(street.id, len(street.tiles))
    args = (pose, 3, 1) if query == "types_near" else (pose, 3)
    with pytest.raises(InvalidPose, match=re.escape(message.format(sid=street.id, n=len(street.tiles)))):
        getattr(grid, query)(*args)


# -- streets_through -------------------------------------------------------------


def test_streets_through_empty_tile(plus):
    assert plus.streets_through(TileCoord(0, 0)) == []


def test_streets_through_crossing(plus):
    got = plus.streets_through(TileCoord(3, 3))
    assert sorted((s.id, i) for s, i in got) == [(1, 3), (2, 3)]


def test_streets_through_self_crossing_loop():
    # A street that passes through (2,2) twice.
    tiles = (
        TileCoord(0, 2), TileCoord(1, 2), TileCoord(2, 2), TileCoord(3, 2),
        TileCoord(4, 3), TileCoord(3, 4), TileCoord(2, 3), TileCoord(2, 2),
        TileCoord(2, 1),
    )
    grid = GridMap("loop", 6, 6, streets=[Street(id=1, tiles=tiles)])
    got = grid.streets_through(TileCoord(2, 2))
    brute = [
        (s.id, i) for s in grid.streets for i, t in enumerate(s.tiles) if t == TileCoord(2, 2)
    ]
    assert sorted((s.id, i) for s, i in got) == sorted(brute) == [(1, 2), (1, 7)]


# -- bearing ---------------------------------------------------------------------


def test_bearing_axis_aligned(straight):
    street = straight.streets[0]
    assert straight.bearing(street, 0, 1) == pytest.approx(90.0)
    assert straight.bearing(street, 3, -1) == pytest.approx(270.0)


def test_bearing_diagonal():
    tiles = (TileCoord(0, 4), TileCoord(1, 3), TileCoord(2, 2))
    grid = GridMap("diag", 5, 5, streets=[Street(id=1, tiles=tiles)])
    assert grid.bearing(grid.streets[0], 0, 1) == pytest.approx(45.0)


STEP_BEARINGS = {(0, -1): 0.0, (1, -1): 45.0, (1, 0): 90.0, (1, 1): 135.0,
                 (0, 1): 180.0, (-1, 1): 225.0, (-1, 0): 270.0, (-1, -1): 315.0}


def test_each_step_has_its_exact_bearing_at_every_position():
    """A bearing comes from the tile step alone, so it is the same float at every tile."""
    steps = [(TileCoord(c, r), TileCoord(c + dc, r + dr))
             for c in range(1, 39) for r in range(1, 39) for dc, dr in STEP_BEARINGS]
    grid = GridMap("steps", 40, 40, streets=[Street(id=i, tiles=t) for i, t in enumerate(steps)])
    for street in grid.streets:
        a, b = street.tiles
        expected = STEP_BEARINGS[(b.col - a.col, b.row - a.row)]
        assert grid.bearing(street, 0, 1) == expected == _segment_bearing(a, b), street
        assert grid.bearing(street, 1, -1) == (expected + 180.0) % 360.0, street


def test_bearing_reversal_symmetry(synth_small):
    maps, _ = synth_small
    for grid in maps.values():
        for street in grid.streets:
            for i in range(1, len(street.tiles) - 1):
                fwd = grid.bearing(street, i, 1)
                back = grid.bearing(street, i, -1)
                assert math.isclose((fwd - back) % 360.0, 180.0, abs_tol=1e-9)


def test_bearing_without_successor_errors(straight):
    with pytest.raises(ValueError):
        straight.bearing(straight.streets[0], 7, 1)


@given(a=st.floats(0, 360, exclude_max=True), b=st.floats(0, 360, exclude_max=True))
def test_signed_delta_range(a, b):
    from urbanav.worldmap import angular_distance_deg

    d = signed_delta_deg(a, b)
    assert -180.0 < d <= 180.0
    assert angular_distance_deg((a + d) % 360.0, b) < 1e-6
