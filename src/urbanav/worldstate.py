"""World-state features: what is at the agent's position and on the path ahead.

The world vector is one array, ``here || ahead``. Both halves are
multi-hot over a fixed layout: one bit per entity type in the closed
inventory, then one slot per ``<TYPE_k>`` variable token up to a
fixed k per type. Variables beyond the slot budget contribute no slot and
fall back to their type bit. A vector is a function of the pose and the
sentence's bindings alone, never updated incrementally from the previous
one, so it can be cached in two parts:

- the type bits depend only on the pose; the map caches them
  (``GridMap.types_near``) for every caller;
- the binding slots depend on the pose and the grounding ids; the beam
  computes each pose's vector once for the one sentence it decodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abstraction import parse_variable
from .executor import Pose, pose_tile
from .worldmap import ENTITY_TYPES, GridMap

DEFAULT_SLOTS_PER_TYPE = 4


@dataclass(frozen=True)
class WorldStateLayout:
    types: tuple[str, ...] = ENTITY_TYPES
    slots_per_type: int = DEFAULT_SLOTS_PER_TYPE

    @property
    def width(self) -> int:
        return len(self.types) * (1 + self.slots_per_type)

    def type_index(self, etype: str) -> int:
        return self.types.index(etype)

    def slot_index(self, variable_token: str) -> int | None:
        """Global slot of a variable token, or None when k overflows."""
        etype, k = parse_variable(variable_token)
        if k > self.slots_per_type or etype not in self.types:
            return None
        t = self.types.index(etype)
        return len(self.types) + t * self.slots_per_type + (k - 1)

    def describe(self) -> dict:
        return {"types": list(self.types), "slots_per_type": self.slots_per_type}


def compute(
    grid: GridMap,
    pose: Pose,
    bindings,
    layout: WorldStateLayout,
    horizon: int,
    radius: int,
    dtype=np.float32,
) -> np.ndarray:
    """The world vector ``here || ahead`` at ``pose`` for one sentence's variable bindings.

    Each half is ``layout.width`` wide. Type bits: an entity of type t
    intersects the Chebyshev ball around the current tile (here) or a tile
    of the path ahead (ahead). Variable slots:
    the bound grounding (entity or street) intersects the same scope. A
    pose that names no tile raises ``InvalidPose`` (from
    ``GridMap.types_near`` on a cache miss, and ``GridMap.path_ahead``).
    """
    world = np.zeros(2 * layout.width, dtype=dtype)
    here, ahead = world[: layout.width], world[layout.width :]
    here_types, ahead_types = grid.types_near(pose, horizon, radius)
    for etype in here_types:
        here[layout.type_index(etype)] = 1.0
    for etype in ahead_types:
        ahead[layout.type_index(etype)] = 1.0
    tile = pose_tile(grid, pose)
    ahead_tiles = grid.path_ahead(pose, horizon)
    for var, gid in bindings:
        slot = layout.slot_index(var)
        if slot is None:
            continue
        if tile in grid.tiles_within(gid, radius):
            here[slot] = 1.0
        if ahead_tiles:
            footprint = grid.tiles_within(gid, 0)
            if any(t in footprint for t in ahead_tiles):
                ahead[slot] = 1.0
    return world
