"""Symbolic tile-grid city maps: typed entities, walkable streets, spatial queries.

A map is immutable after construction and safe to share across workers. The
native file format is line-delimited, one record per line:

    MAP <id> <width> <height>
    ENTITY <id> <type> <is_building:0|1> [name="..."] [house="..."] tiles=(c,r);(c,r);...
    STREET <id> [name="..."] tiles=(c,r);(c,r);...

Blank lines and lines starting with ``#`` are ignored. The MAP record must
come first and appear exactly once. Quoted strings must not contain ``"``.
Entity and street ids share one integer id space (a "grounding" id), so a
name binding can point at either kind of object. Unknown entity types load
as the reserved type ``other``; unknown record kinds are rejected.

``TileCoord`` is a ``NamedTuple``, so its hash and equality run in C; that
hash equals the one a frozen dataclass of the same fields gives, so sets
and dicts of tiles keep their iteration order. A tile compares equal to
the plain ``(col, row)`` tuple: never mix the two as keys of one dict.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .executor import Action, Pose

# Closed inventory, loosely following OSM tag conventions. "street" covers
# named walkable ways; "other" is the sink for unknown types in files.
ENTITY_TYPES: tuple[str, ...] = (
    "street",
    "restaurant",
    "cafe",
    "bar",
    "fast_food",
    "shop",
    "supermarket",
    "bakery",
    "bank",
    "pharmacy",
    "hospital",
    "school",
    "place_of_worship",
    "traffic_signal",
    "crossing",
    "park",
    "hotel",
    "cinema",
    "theatre",
    "fuel",
    "other",
)

_TYPE_INDEX = {t: i for i, t in enumerate(ENTITY_TYPES)}


class MapFormatError(ValueError):
    """Raised for files that do not parse; the message names the line."""


class MapValidationError(ValueError):
    """Raised for parseable files that violate a map invariant."""


class TileCoord(NamedTuple):
    col: int
    row: int

    def __str__(self) -> str:
        return f"({self.col},{self.row})"


@dataclass(frozen=True)
class Entity:
    id: int
    entity_type: str
    is_building: bool
    footprint: frozenset[TileCoord]
    name: str | None = None
    house_number: str | None = None


@dataclass(frozen=True)
class Street:
    id: int
    tiles: tuple[TileCoord, ...]
    name: str | None = None


def chebyshev(a: TileCoord, b: TileCoord) -> int:
    return max(abs(a.col - b.col), abs(a.row - b.row))


def euclidean(a: TileCoord, b: TileCoord) -> float:
    return math.hypot(a.col - b.col, a.row - b.row)


def signed_delta_deg(frm: float, to: float) -> float:
    """Relative compass angle from ``frm`` to ``to``, mapped into (-180, 180]."""
    d = (to - frm) % 360.0
    if d > 180.0:
        d -= 360.0
    return d


def angular_distance_deg(a: float, b: float) -> float:
    """Unsigned circular distance between two angles, in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


class GridMap:
    """Tile grid with entities and streets, indexed for O(1) tile lookups."""

    def __init__(
        self,
        map_id: str,
        width: int,
        height: int,
        entities: Iterable[Entity] = (),
        streets: Iterable[Street] = (),
    ):
        self.id = map_id
        self.width = int(width)
        self.height = int(height)
        self.entities: tuple[Entity, ...] = tuple(entities)
        self.streets: tuple[Street, ...] = tuple(streets)
        self._validate()
        self._entities_by_id = {e.id: e for e in self.entities}
        self._streets_by_id = {s.id: s for s in self.streets}
        self.tile_index = self._build_tile_index()
        # Lazy caches for hot queries, filled one entry at a time on first
        # use and never here. Population is idempotent, so concurrent readers
        # can at worst recompute an entry, never observe a wrong one.
        self._inflated: dict[tuple[int, int], frozenset[TileCoord]] = {}
        # (pose, action) -> pose after the action, or None where it cannot
        # execute; filled and read by ``executor.successor``.
        self.pose_table: dict[tuple[Pose, Action], Pose | None] = {}
        self._types_near: dict[tuple[Pose, int, int], tuple[tuple, tuple, tuple, tuple]] = {}
        # radius -> tile -> the grounding ids near it; see ``groundings_near``.
        self._near: dict[int, dict[TileCoord, tuple[int, ...]]] = {}

    # -- construction ------------------------------------------------------

    def _validate(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise MapValidationError(f"map {self.id!r}: non-positive grid size")
        seen: set[int] = set()
        for e in self.entities:
            if e.id in seen:
                raise MapValidationError(f"entity {e.id}: duplicate grounding id")
            seen.add(e.id)
            if not e.footprint:
                raise MapValidationError(f"entity {e.id}: empty footprint")
            for t in e.footprint:
                if not self.in_grid(t):
                    raise MapValidationError(
                        f"entity {e.id}: footprint tile {t} outside {self.width}x{self.height} grid"
                    )
            if e.entity_type not in _TYPE_INDEX:
                raise MapValidationError(f"entity {e.id}: unknown type {e.entity_type!r}")
        for s in self.streets:
            if s.id in seen:
                raise MapValidationError(f"street {s.id}: duplicate grounding id")
            seen.add(s.id)
            if len(s.tiles) < 2:
                raise MapValidationError(f"street {s.id}: needs at least 2 tiles")
            for t in s.tiles:
                if not self.in_grid(t):
                    raise MapValidationError(
                        f"street {s.id}: tile {t} outside {self.width}x{self.height} grid"
                    )
            for a, b in zip(s.tiles, s.tiles[1:]):
                if a == b:
                    raise MapValidationError(f"street {s.id}: repeated tile {a}")
                if chebyshev(a, b) != 1:
                    raise MapValidationError(
                        f"street {s.id}: tiles {a} and {b} are not 8-neighbors"
                    )

    def _build_tile_index(self) -> dict[TileCoord, tuple[tuple[int, int], ...]]:
        """Tile -> every (street id, index) on it, sorted; entities are in ``groundings_near``."""
        index: dict[TileCoord, list[tuple[int, int]]] = {}
        for s in self.streets:
            for i, t in enumerate(s.tiles):
                index.setdefault(t, []).append((s.id, i))
        return {t: tuple(sorted(pairs)) for t, pairs in index.items()}

    # -- lookups -----------------------------------------------------------

    def in_grid(self, t: TileCoord) -> bool:
        return 0 <= t.col < self.width and 0 <= t.row < self.height

    def entity(self, entity_id: int) -> Entity:
        return self._entities_by_id[entity_id]

    def street(self, street_id: int) -> Street:
        return self._streets_by_id[street_id]

    def grounding(self, gid: int) -> Entity | Street:
        """Entity or street under the shared id space."""
        if gid in self._entities_by_id:
            return self._entities_by_id[gid]
        if gid in self._streets_by_id:
            return self._streets_by_id[gid]
        raise KeyError(f"no entity or street with id {gid}")

    def grounding_type(self, gid: int) -> str:
        g = self.grounding(gid)
        return g.entity_type if isinstance(g, Entity) else "street"

    def grounding_tiles(self, gid: int) -> frozenset[TileCoord]:
        g = self.grounding(gid)
        return g.footprint if isinstance(g, Entity) else frozenset(g.tiles)

    def named_groundings(self) -> list[tuple[str, int, str]]:
        """(name, grounding id, type) for every named entity and street."""
        out = [(e.name, e.id, e.entity_type) for e in self.entities if e.name]
        out += [(s.name, s.id, "street") for s in self.streets if s.name]
        return out

    def is_walkable(self, t: TileCoord) -> bool:
        return t in self.tile_index

    def tiles_within(self, gid: int, radius: int) -> frozenset[TileCoord]:
        """Grounding footprint inflated by a Chebyshev radius (cached)."""
        key = (gid, radius)
        cached = self._inflated.get(key)
        if cached is None:
            out: set[TileCoord] = set()
            for t in self.grounding_tiles(gid):
                for dc in range(-radius, radius + 1):
                    for dr in range(-radius, radius + 1):
                        out.add(TileCoord(t.col + dc, t.row + dr))
            cached = self._inflated[key] = frozenset(out)
        return cached

    def groundings_near(self, tile: TileCoord, radius: int) -> tuple[int, ...]:
        """Ids of the groundings whose ``tiles_within(gid, radius)`` holds ``tile`` (cached).

        Entities, then streets, in map order as ``named_groundings`` lists
        them. One table per radius, built the first time that radius is asked
        for; it holds the grid's tiles only, so a tile off the grid gets ``()``.
        """
        table = self._near.get(radius)
        if table is None:
            near: dict[TileCoord, list[int]] = {}
            for gid in [*self._entities_by_id, *self._streets_by_id]:
                for t in self.tiles_within(gid, radius):
                    if self.in_grid(t):
                        near.setdefault(t, []).append(gid)
            table = self._near[radius] = {t: tuple(ids) for t, ids in near.items()}
        return table.get(tile, ())

    def types_near(self, pose: "Pose", horizon: int, radius: int) -> tuple[tuple, tuple, tuple, tuple]:
        """What is near the pose (cached): here types, ahead types, here ids, ahead ids.

        Here: what meets the Chebyshev ball of ``radius`` around the pose's
        tile. Ahead: what covers a tile of ``path_ahead(pose, horizon)``.
        Types are sorted entity types; ids are grounding ids (entities and
        streets) as ``groundings_near`` orders them. A cache miss checks the
        pose and raises ``InvalidPose`` for one that names no tile; a hit
        costs one lookup.
        """
        key = (pose, horizon, radius)
        cached = self._types_near.get(key)
        if cached is None:
            ents = self._entities_by_id
            here = self.groundings_near(self._street_at(pose).tiles[pose.index], radius)
            ahead = tuple(dict.fromkeys(
                g for t in self.path_ahead(pose, horizon) for g in self.groundings_near(t, 0)))
            types = [tuple(sorted({ents[g].entity_type for g in ids if g in ents})) for ids in (here, ahead)]
            cached = self._types_near[key] = (*types, here, ahead)
        return cached

    # -- spatial queries ----------------------------------------------------

    def entities_at(self, c: TileCoord, radius: int) -> list[Entity]:
        """Entities whose footprint meets the Chebyshev ball around ``c``, by id."""
        if not self.in_grid(c):
            raise MapValidationError(f"coordinate {c} outside grid")
        if radius < 0:
            raise ValueError("radius must be >= 0")
        ents = self._entities_by_id
        return [ents[g] for g in sorted(g for g in self.groundings_near(c, radius) if g in ents)]

    def streets_through(self, c: TileCoord) -> list[tuple[Street, int]]:
        """Every (street, index) whose tile list contains ``c``.

        A street crossing itself contributes one pair per occurrence.
        """
        if not self.in_grid(c):
            raise MapValidationError(f"coordinate {c} outside grid")
        return [(self._streets_by_id[sid], i) for sid, i in self.tile_index.get(c, ())]

    def _street_at(self, pose: "Pose") -> Street:
        """The pose's street; raises ``InvalidPose`` for a pose that names no tile."""
        street = self._streets_by_id.get(pose.street_id)
        if street is None or not 0 <= pose.index < len(street.tiles) or pose.travel_dir not in (1, -1):
            from .executor import check_pose  # the executor imports this module

            check_pose(self, pose)  # raises, naming the street, index and length, or the direction
        return street

    def path_ahead(self, pose: "Pose", horizon: int) -> list[TileCoord]:
        """Next ``horizon`` tiles along the pose's street, excluding the current one.

        Clips at the street end. A pose that names no tile raises ``InvalidPose``.
        """
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        street = self._street_at(pose)
        out: list[TileCoord] = []
        i = pose.index
        for _ in range(horizon):
            i += pose.travel_dir
            if not 0 <= i < len(street.tiles):
                break
            out.append(street.tiles[i])
        return out

    def bearing(self, street: Street, index: int, direction: int) -> float:
        """Compass angle in [0, 360) from tile ``index`` toward ``index+direction``.

        0 = north (decreasing row), 90 = east. Taken from the tile step, so
        every street bearing is an exact multiple of 45 degrees.
        """
        j = index + direction
        if not 0 <= j < len(street.tiles) or not 0 <= index < len(street.tiles):
            raise ValueError(
                f"street {street.id}: no successor at index {index} in direction {direction:+d}"
            )
        a, b = street.tiles[index], street.tiles[j]
        return math.degrees(math.atan2(b.col - a.col, a.row - b.row)) % 360.0


# -- file format ------------------------------------------------------------

_FIELD_RE = re.compile(r'[^\s"]+="[^"]*"|\S+')
_TILE_RE = re.compile(r"^\((\d+),(\d+)\)$")


def _parse_tiles(spec: str, where: str) -> list[TileCoord]:
    tiles = []
    for part in spec.split(";"):
        m = _TILE_RE.match(part)
        if not m:
            raise MapFormatError(f"{where}: bad tile {part!r}")
        tiles.append(TileCoord(int(m.group(1)), int(m.group(2))))
    if not tiles:
        raise MapFormatError(f"{where}: empty tile list")
    return tiles


def _split_named_fields(fields: list[str], where: str) -> tuple[dict[str, str], str | None]:
    """Separates name="..."/house="..."/tiles=... fields; returns (named, tiles spec)."""
    named: dict[str, str] = {}
    tiles_spec = None
    for f in fields:
        key, _, value = f.partition("=")
        if not _ or key not in ("name", "house", "tiles"):
            raise MapFormatError(f"{where}: unexpected field {f!r}")
        if key == "tiles":
            tiles_spec = value
        else:
            if not (value.startswith('"') and value.endswith('"') and len(value) >= 2):
                raise MapFormatError(f"{where}: {key} value must be quoted")
            named[key] = value[1:-1]
    return named, tiles_spec


def parse_map(text: str, source: str = "<string>") -> GridMap:
    map_header: tuple[str, int, int] | None = None
    entities: list[Entity] = []
    streets: list[Street] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        fields = _FIELD_RE.findall(line)
        kind = fields[0]
        if kind == "MAP":
            if map_header is not None:
                raise MapFormatError(f"{where}: duplicate MAP record")
            if len(fields) != 4:
                raise MapFormatError(f"{where}: MAP needs <id> <width> <height>")
            try:
                map_header = (fields[1], int(fields[2]), int(fields[3]))
            except ValueError:
                raise MapFormatError(f"{where}: MAP width/height must be integers") from None
            continue
        if map_header is None:
            raise MapFormatError(f"{where}: first record must be MAP")
        if kind == "ENTITY":
            if len(fields) < 5:
                raise MapFormatError(f"{where}: ENTITY needs id, type, is_building, tiles")
            try:
                eid = int(fields[1])
            except ValueError:
                raise MapFormatError(f"{where}: entity id must be an integer") from None
            etype = fields[2] if fields[2] in _TYPE_INDEX else "other"
            if fields[3] not in ("0", "1"):
                raise MapFormatError(f"{where}: is_building must be 0 or 1")
            named, tiles_spec = _split_named_fields(fields[4:], where)
            if tiles_spec is None:
                raise MapFormatError(f"{where}: ENTITY {eid} has no tiles= field")
            entities.append(
                Entity(
                    id=eid,
                    entity_type=etype,
                    is_building=fields[3] == "1",
                    footprint=frozenset(_parse_tiles(tiles_spec, where)),
                    name=named.get("name"),
                    house_number=named.get("house"),
                )
            )
        elif kind == "STREET":
            if len(fields) < 3:
                raise MapFormatError(f"{where}: STREET needs id and tiles")
            try:
                sid = int(fields[1])
            except ValueError:
                raise MapFormatError(f"{where}: street id must be an integer") from None
            named, tiles_spec = _split_named_fields(fields[2:], where)
            if "house" in named:
                raise MapFormatError(f"{where}: STREET does not take house=")
            if tiles_spec is None:
                raise MapFormatError(f"{where}: STREET {sid} has no tiles= field")
            streets.append(
                Street(id=sid, tiles=tuple(_parse_tiles(tiles_spec, where)), name=named.get("name"))
            )
        else:
            raise MapFormatError(f"{where}: unknown record kind {kind!r}")
    if map_header is None:
        raise MapFormatError(f"{source}: missing MAP record")
    return GridMap(map_header[0], map_header[1], map_header[2], entities, streets)


def load_map(path) -> GridMap:
    with open(path, encoding="utf-8") as fh:
        return parse_map(fh.read(), source=str(path))


def format_map(grid: GridMap) -> str:
    """Canonical text form; parse(format(m)) reproduces m."""

    def tiles_field(tiles) -> str:
        return "tiles=" + ";".join(str(t) for t in tiles)

    def quoted(key: str, value: str | None) -> list[str]:
        if value is None:
            return []
        if '"' in value:
            raise MapValidationError(f"{key} value may not contain double quotes: {value!r}")
        return [f'{key}="{value}"']

    lines = [f"MAP {grid.id} {grid.width} {grid.height}"]
    for e in grid.entities:
        parts = ["ENTITY", str(e.id), e.entity_type, "1" if e.is_building else "0"]
        parts += quoted("name", e.name) + quoted("house", e.house_number)
        parts.append(tiles_field(sorted(e.footprint)))
        lines.append(" ".join(parts))
    for s in grid.streets:
        parts = ["STREET", str(s.id)]
        parts += quoted("name", s.name)
        parts.append(tiles_field(s.tiles))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_map(grid: GridMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_map(grid))
