import numpy as np
import pytest

from urbanav.executor import Pose
from urbanav.synth import SynthSpec, generate
from urbanav.worldmap import Entity, GridMap, Street, TileCoord


def straight_map(length: int = 8, named: bool = True) -> GridMap:
    """One horizontal street at row 2."""
    tiles = tuple(TileCoord(c, 2) for c in range(length))
    return GridMap(
        "straight", length, 5,
        streets=[Street(id=1, tiles=tiles, name="main street" if named else None)],
    )


def plus_map() -> GridMap:
    """Two streets crossing at (3, 3) on a 7x7 grid, with two POIs."""
    ns = tuple(TileCoord(3, r) for r in range(7))
    ew = tuple(TileCoord(c, 3) for c in range(7))
    return GridMap(
        "plus", 7, 7,
        entities=[
            Entity(id=10, entity_type="shop", is_building=True,
                   footprint=frozenset({TileCoord(4, 5)}), name="macy's"),
            Entity(id=11, entity_type="traffic_signal", is_building=False,
                   footprint=frozenset({TileCoord(3, 3)})),
        ],
        streets=[
            Street(id=1, tiles=ns, name="7th street"),
            Street(id=2, tiles=ew, name="west 30th street"),
        ],
    )


def crossing_map(col: int, row: int) -> GridMap:
    """At (col, row) on a 40x40 grid, a north-south street (1) crosses two diagonals.

    Each street has three tiles with the crossing in the middle, so pose
    ``(sid, 1, +1)`` faces north (1), north-east (2) or south-east (3).
    """

    def through(sid: int, dc: int, dr: int) -> Street:
        tiles = (TileCoord(col - dc, row - dr), TileCoord(col, row), TileCoord(col + dc, row + dr))
        return Street(id=sid, tiles=tiles)

    streets = [through(1, 0, -1), through(2, 1, -1), through(3, 1, 1)]
    return GridMap("crossing", 40, 40, streets=streets)


# Every crossing position whose three streets fit on the 40x40 grid with a
# margin of one tile: 36 x 36 = 1296 of them.
CROSSING_POSITIONS = [(c, r) for c in range(2, 38) for r in range(2, 38)]


@pytest.fixture
def straight():
    return straight_map()


@pytest.fixture
def plus():
    return plus_map()


@pytest.fixture(scope="session")
def synth_small():
    """A small seeded world for property tests: 2 maps, fewer paragraphs."""
    spec = SynthSpec(n_maps=2, paragraphs_per_map=12, seed=7)
    return generate(spec)


@pytest.fixture(scope="session")
def synth_default():
    """The default corpus used by the training acceptance criteria."""
    return generate(SynthSpec.default())


def random_pose(grid: GridMap, rng: np.random.Generator) -> Pose:
    street = grid.streets[rng.integers(0, len(grid.streets))]
    index = int(rng.integers(0, len(street.tiles)))
    direction = 1 if rng.random() < 0.5 else -1
    return Pose(street.id, index, direction)
