import numpy as np

from urbanav.executor import Pose
from urbanav.worldmap import Entity, GridMap, Street, TileCoord, chebyshev
from urbanav.worldstate import WorldStateLayout, compute

from conftest import random_pose

LAYOUT = WorldStateLayout()
W = LAYOUT.width  # the ``here`` half is world[:W], the ``ahead`` half world[W:]


def bruteforce_state(grid, pose, bindings, layout, horizon, radius):
    """Reference implementation: double loop over entities and tiles in scope."""
    here = np.zeros(layout.width, dtype=np.float32)
    ahead = np.zeros(layout.width, dtype=np.float32)
    tile = grid.street(pose.street_id).tiles[pose.index]
    ahead_tiles = []
    i = pose.index
    street = grid.street(pose.street_id)
    for _ in range(horizon):
        i += pose.travel_dir
        if not 0 <= i < len(street.tiles):
            break
        ahead_tiles.append(street.tiles[i])
    for e in grid.entities:
        if any(chebyshev(tile, f) <= radius for f in e.footprint):
            here[layout.type_index(e.entity_type)] = 1.0
        if any(t == f for t in ahead_tiles for f in e.footprint):
            ahead[layout.type_index(e.entity_type)] = 1.0
    for var, gid in bindings:
        slot = layout.slot_index(var)
        if slot is None:
            continue
        tiles = grid.grounding_tiles(gid)
        if any(chebyshev(tile, f) <= radius for f in tiles):
            here[slot] = 1.0
        if any(t == f for t in ahead_tiles for f in tiles):
            ahead[slot] = 1.0
    return here, ahead


def test_layout_width_and_slots():
    layout = WorldStateLayout(types=("street", "shop"), slots_per_type=2)
    assert layout.width == 2 * (1 + 2)
    assert layout.slot_index("<STREET_1>") == 2
    assert layout.slot_index("<STREET_2>") == 3
    assert layout.slot_index("<SHOP_1>") == 4
    assert layout.slot_index("<SHOP_3>") is None  # overflow falls back to type bit


def test_empty_scope_is_all_zero():
    grid = GridMap("m", 6, 6, streets=[Street(id=1, tiles=tuple(TileCoord(c, 0) for c in range(6)))])
    world = compute(grid, Pose(1, 0, 1), (), LAYOUT, horizon=10, radius=1)
    assert world.shape == (2 * W,) and not world.any()


def test_bound_entity_adjacent_sets_here_slot(plus):
    # macy's (shop, id 10) sits at (4,5); pose on 7th street at (3,5) is adjacent
    pose = Pose(1, 5, -1)
    bindings = (("<SHOP_1>", 10),)
    here = compute(plus, pose, bindings, LAYOUT, horizon=10, radius=1)[:W]
    slot = LAYOUT.slot_index("<SHOP_1>")
    assert here[slot] == 1.0
    assert here[LAYOUT.type_index("shop")] == 1.0


def test_ahead_tracks_path_not_radius(plus):
    # signal at the crossing (3,3); pose heading north from (3,6)
    pose = Pose(1, 6, -1)
    world = compute(plus, pose, (), LAYOUT, horizon=10, radius=1)
    assert world[W + LAYOUT.type_index("traffic_signal")] == 1.0
    assert world[LAYOUT.type_index("traffic_signal")] == 0.0


def test_vectors_are_binary(synth_small):
    maps, corpus = synth_small
    for p, instr in list(corpus.instructions())[:40]:
        grid = maps[p.map_id]
        world = compute(grid, instr.start, instr.bindings, LAYOUT, horizon=10, radius=1)
        assert set(np.unique(world)).issubset({0.0, 1.0})


def test_compute_matches_bruteforce_on_synthetic(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(23)
    for grid in maps.values():
        named = [(f"<{grid.grounding_type(g).upper()}_1>", g)
                 for _, g, _ in grid.named_groundings()]
        for _ in range(50):
            pose = random_pose(grid, rng)
            k = int(rng.integers(0, min(3, len(named)) + 1))
            picks = [named[i] for i in rng.choice(len(named), size=k, replace=False)]
            # renumber per type as abstraction would
            seen: dict[str, int] = {}
            bindings = []
            for var, gid in picks:
                etype = grid.grounding_type(gid)
                seen[etype] = seen.get(etype, 0) + 1
                bindings.append((f"<{etype.upper()}_{seen[etype]}>", gid))
            horizon = int(rng.integers(0, 12))
            radius = int(rng.integers(0, 3))
            world = compute(grid, pose, tuple(bindings), LAYOUT, horizon=horizon, radius=radius)
            here, ahead = bruteforce_state(grid, pose, tuple(bindings), LAYOUT, horizon, radius)
            assert np.array_equal(world[:W], here)
            assert np.array_equal(world[W:], ahead)


def test_ahead_monotone_in_horizon(synth_small):
    maps, _ = synth_small
    rng = np.random.default_rng(31)
    grid = next(iter(maps.values()))
    named = [(f"<{grid.grounding_type(g).upper()}_1>", g)
             for _, g, _ in grid.named_groundings()][:2]
    for _ in range(40):
        pose = random_pose(grid, rng)
        prev = None
        for horizon in (0, 2, 5, 9, 14):
            ahead = compute(grid, pose, tuple(named), LAYOUT, horizon=horizon, radius=1)[W:]
            if prev is not None:
                assert np.all(ahead >= prev)
            prev = ahead


def test_locality_outside_scope():
    street = Street(id=1, tiles=tuple(TileCoord(c, 3) for c in range(10)))
    near = Entity(id=5, entity_type="cafe", is_building=True,
                  footprint=frozenset({TileCoord(1, 2)}))
    far = Entity(id=6, entity_type="bank", is_building=True,
                 footprint=frozenset({TileCoord(9, 9)}))
    with_far = GridMap("a", 10, 10, entities=[near, far], streets=[street])
    without = GridMap("b", 10, 10, entities=[near], streets=[street])
    pose = Pose(1, 1, 1)
    s1 = compute(with_far, pose, (), LAYOUT, horizon=3, radius=1)
    s2 = compute(without, pose, (), LAYOUT, horizon=3, radius=1)
    assert np.array_equal(s1, s2)


def test_width_constant_across_poses(plus):
    widths = set()
    for pose in (Pose(1, 0, 1), Pose(2, 6, -1), Pose(1, 3, 1)):
        widths.add(compute(plus, pose, (), LAYOUT, horizon=10, radius=1).shape)
    assert widths == {(2 * LAYOUT.width,)}
