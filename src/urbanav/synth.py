"""Synthetic map and corpus generation, plus corpus statistics.

Maps are Manhattan-style grids of named axis-aligned streets with named
points of interest placed alongside them and unnamed traffic signals at
crossings. Instructions are rendered from templates covering named and
unnamed references, directions, imperatives, counting, and sequencing.
An instruction's gold actions are the planner's own actions, and its route
is what ``execute`` makes of them. The planner's actions are already the
minimal string ``route_to_actions`` would recover from that route;
``tests/test_synth.py::test_planner_actions_are_route_to_actions`` holds
this on every sentence of the preset specs. Each map draws its names from a
pool disjoint from every other map's, so held-out maps only contain
entities never seen in training.

Generation is a pure function of (spec, seed). A text is tokenized, matched
and abstracted once per map however many instructions say it, and those
instructions share one string and one set of token tuples; equal action
strings on a map share one tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abstraction import Lexicon, abstract, match_entities, tokenize
from .configfile import FieldError, check_field
from .corpus import Corpus, Instruction, Paragraph
from .executor import (
    Action,
    Pose,
    TURN_ACTIONS,
    execute,
    pose_tile,
    step,
    successor,
)
from .worldmap import Entity, GridMap, Street, TileCoord, chebyshev

TRAIN_NAME_POOL = (
    "maple", "oak", "cedar", "king", "queen", "hudson", "union", "grand",
    "lake", "river", "rose", "elm", "ash", "mill", "bay", "hill",
    "crown", "spring", "summer", "winter", "amber", "silver", "copper", "iron",
    "marble", "harbor", "garden", "meadow", "sunset", "sunrise", "willow", "aspen",
    "birch", "walnut", "cherry", "laurel", "ivy", "fern", "clover", "bramble",
    "stone", "brick", "slate", "pearl", "coral", "indigo", "crimson", "golden",
    "north", "south", "east", "west", "liberty", "station", "orchard", "harvest",
    "bridge", "tower", "castle", "abbey",
)

UNSEEN_NAME_POOL = (
    "granite", "falcon", "heron", "lotus", "prairie", "canyon", "mesa", "tundra",
    "delta", "ember", "frost", "horizon", "island", "jade", "onyx", "quartz",
    "raven", "sable", "timber", "vale", "wren", "zephyr", "cobalt", "dune",
    "ridge", "thorn", "glacier", "lagoon", "boulder", "cascade",
)

STREET_SUFFIXES = ("street", "avenue", "road", "lane")

POI_CATEGORY_WORDS = {
    "shop": ("market", "books", "goods"),
    "restaurant": ("grill", "kitchen", "diner"),
    "cafe": ("coffee", "cafe"),
    "bank": ("bank", "trust"),
    "place_of_worship": ("chapel", "temple"),
    "hotel": ("inn", "hotel"),
}

DEFAULT_ENTITY_COUNTS = {
    "shop": 4,
    "restaurant": 3,
    "cafe": 3,
    "bank": 3,
    "place_of_worship": 2,
    "hotel": 2,
    "traffic_signal": 5,
}

NUM_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six", "seven",
    "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
)

@dataclass(frozen=True)
class SynthSpec:
    """The shape of a synthetic world; its counts are checked when it is made."""

    n_maps: int = 3
    grid_size: int = 24
    rows: int = 5
    cols: int = 5
    paragraphs_per_map: int = 56
    min_sentences: int = 2
    max_sentences: int = 5
    walk_min: int = 2
    walk_max: int = 10
    distractor_rate: float = 0.10
    seed: int = 0

    @classmethod
    def default(cls) -> "SynthSpec":
        return cls()

    @classmethod
    def run_shape(cls) -> "SynthSpec":
        """Preset mirroring the shape of the full task corpus."""
        return cls(
            grid_size=28,
            paragraphs_per_map=130,
            min_sentences=5,
            max_sentences=8,
            walk_min=3,
            walk_max=12,
            distractor_rate=0.60,
        )

    def __post_init__(self):
        for key in ("n_maps", "paragraphs_per_map", "min_sentences", "walk_min"):
            check_field(self, key, getattr(self, key) >= 1, "at least 1")
        check_field(self, "max_sentences", self.max_sentences >= self.min_sentences,
                    f"at least min_sentences = {self.min_sentences}", "min_sentences")
        check_field(self, "walk_max", self.walk_min <= self.walk_max < len(NUM_WORDS),
                    f"from walk_min = {self.walk_min} to {len(NUM_WORDS) - 1} to stay renderable",
                    "walk_min")
        check_field(self, "distractor_rate", 0 <= self.distractor_rate <= 1, "in [0, 1]")
        n_named = self.rows + self.cols + sum(
            c for t, c in DEFAULT_ENTITY_COUNTS.items() if t != "traffic_signal"
        )
        pool_per_map = len(UNSEEN_NAME_POOL)
        if self.n_maps > 1:
            pool_per_map = min(pool_per_map, len(TRAIN_NAME_POOL) // (self.n_maps - 1))
        if n_named > pool_per_map:
            raise FieldError(
                f"name pools too small: need {n_named} names per map, have {pool_per_map}",
                ("n_maps", "rows", "cols"),
            )
        n_entities = sum(DEFAULT_ENTITY_COUNTS.values())
        check_field(self, "grid_size", n_entities * 3 <= self.grid_size * self.grid_size,
                    f"large enough to place {n_entities} entities")


def _map_name_pool(spec: SynthSpec, map_index: int) -> list[str]:
    if map_index == spec.n_maps - 1:
        return list(UNSEEN_NAME_POOL)
    if spec.n_maps == 1:
        return list(TRAIN_NAME_POOL)
    return list(TRAIN_NAME_POOL[map_index :: spec.n_maps - 1])


def generate_map(spec: SynthSpec, map_index: int) -> GridMap:
    rng = np.random.default_rng([spec.seed, 0x3A9, map_index])
    g = spec.grid_size
    pool = _map_name_pool(spec, map_index)
    rng.shuffle(pool)
    names = iter(pool)

    lanes = np.arange(1, g - 1, 3)
    row_lanes = sorted(rng.choice(lanes, size=spec.rows, replace=False).tolist())
    col_lanes = sorted(rng.choice(lanes, size=spec.cols, replace=False).tolist())

    streets: list[Street] = []
    gid = 1
    for y in row_lanes:
        tiles = tuple(TileCoord(c, y) for c in range(g))
        streets.append(Street(id=gid, tiles=tiles, name=f"{next(names)} {STREET_SUFFIXES[rng.integers(0, 4)]}"))
        gid += 1
    for x in col_lanes:
        tiles = tuple(TileCoord(x, r) for r in range(g))
        streets.append(Street(id=gid, tiles=tiles, name=f"{next(names)} {STREET_SUFFIXES[rng.integers(0, 4)]}"))
        gid += 1

    street_tiles = {t for s in streets for t in s.tiles}
    crossings = sorted(
        {TileCoord(x, y) for x in col_lanes for y in row_lanes},
        key=lambda t: (t.col, t.row),
    )
    entities: list[Entity] = []
    used_tiles: set[TileCoord] = set()

    def off_street_spot() -> TileCoord | None:
        for _ in range(200):
            s = streets[rng.integers(0, len(streets))]
            anchor = s.tiles[rng.integers(1, len(s.tiles) - 1)]
            dc, dr = ((0, 1), (0, -1), (1, 0), (-1, 0))[rng.integers(0, 4)]
            t = TileCoord(anchor.col + dc, anchor.row + dr)
            if (
                0 <= t.col < g
                and 0 <= t.row < g
                and t not in street_tiles
                and t not in used_tiles
                and not any(chebyshev(t, u) <= 1 for u in used_tiles)
            ):
                return t
        return None

    for etype, count in sorted(DEFAULT_ENTITY_COUNTS.items()):
        if etype == "traffic_signal":
            k = min(count, len(crossings))
            picks = rng.choice(len(crossings), size=k, replace=False)
            for i in sorted(picks.tolist()):
                entities.append(
                    Entity(id=gid, entity_type="traffic_signal", is_building=False,
                           footprint=frozenset({crossings[i]}))
                )
                gid += 1
            continue
        words = POI_CATEGORY_WORDS.get(etype, ("place",))
        for _ in range(count):
            spot = off_street_spot()
            if spot is None:
                continue
            used_tiles.add(spot)
            name = f"{next(names)} {words[rng.integers(0, len(words))]}"
            entities.append(
                Entity(id=gid, entity_type=etype, is_building=True,
                       footprint=frozenset({spot}), name=name,
                       house_number=str(int(rng.integers(1, 200))))
            )
            gid += 1
    return GridMap(f"synth-{map_index + 1}", g, g, entities, streets)


# -- sentence planning ---------------------------------------------------------


def _runway(grid: GridMap, pose: Pose) -> int:
    n = len(grid.street(pose.street_id).tiles)
    return n - 1 - pose.index if pose.travel_dir == 1 else pose.index


def _scan_targets(grid: GridMap, wanted, pose: Pose, lo: int, hi: int):
    """Groundings of ``wanted`` whose first adjacency along the walk is in [lo, hi].

    Returns (first_index, grounding id) pairs, by id; ``wanted`` holds the
    grounding ids to look for (a set, or a dict keyed by id). The stop tile
    for "walk until X" is exactly where X first enters the radius-1
    neighborhood, which is also where the world-state bit for X first
    lights up.
    """
    street = grid.street(pose.street_id)
    hi = min(hi, _runway(grid, pose))
    first: dict[int, int] = {}
    for k in range(hi + 1):
        for gid in grid.groundings_near(street.tiles[pose.index + pose.travel_dir * k], 1):
            if gid in wanted:
                first.setdefault(gid, k)
    return [(k, gid) for gid, k in sorted(first.items()) if lo <= k]


def _feasible_turns(grid: GridMap, pose: Pose, min_runway: int) -> list[Action]:
    out = []
    for kind in TURN_ACTIONS:
        cand = successor(grid, pose, kind)
        if cand is None:
            continue
        if cand.street_id != pose.street_id or kind is Action.TURN_AROUND:
            if _runway(grid, cand) >= min_runway:
                out.append(kind)
    return out


_TURN_WORDS = {
    Action.TURN_LEFT: "left",
    Action.TURN_RIGHT: "right",
    Action.TURN_AROUND: "around",
}


# The planner's templates by name, each repeated by its weight in the draw;
# a paragraph's last sentence may also verify where it ends.
_KINDS = (
    ("walk_until",) * 7
    + ("walk_until_signal",) * 2
    + ("turn_then_walk_until",) * 4
    + ("walk_count",) * 4
    + ("turn_then_walk_count",) * 3
)
_LAST_KINDS = _KINDS + ("verify_end",) * 6


class _SentencePlanner:
    def __init__(self, spec: SynthSpec, grid: GridMap, rng: np.random.Generator):
        self.spec = spec
        self.grid = grid
        self.rng = rng
        self.names = {gid: name for name, gid, _ in grid.named_groundings()}
        self.signals = {e.id for e in grid.entities if e.entity_type == "traffic_signal"}

    def _title(self, gid: int) -> str:
        return self.names[gid].title()

    def _suffixes(self, pose: Pose, stop_k: int) -> str:
        """Optional trailing clauses: mid-route mentions and side notes."""
        rate = self.spec.distractor_rate
        out = ""
        if stop_k >= 2 and self.rng.random() < rate:
            mid = _scan_targets(self.grid, self.names, pose, 1, stop_k - 1)
            if mid:
                _, gid = mid[self.rng.integers(0, len(mid))]
                side = ("left", "right")[self.rng.integers(0, 2)]
                out += f" You will pass {self._title(gid)} on your {side}."
        if self.rng.random() < rate * 0.6:
            side = ("left", "right")[self.rng.integers(0, 2)]
            out += f" Your destination will be on your {side}."
        return out

    def _turn_opener(self, kind: Action, after: Pose) -> str:
        word = _TURN_WORDS[kind]
        street_name = self.grid.street(after.street_id).name
        if kind is not Action.TURN_AROUND and street_name and self.rng.random() < 0.6:
            return f"Turn {word} onto {street_name.title()} and walk"
        if kind is Action.TURN_AROUND:
            return "Turn around and walk"
        return (f"Turn {word} and walk", f"Make a {word} and continue")[
            self.rng.integers(0, 2)
        ]

    def walk_until(self, pose: Pose) -> tuple[str, list[Action]] | None:
        targets = _scan_targets(self.grid, self.names, pose, self.spec.walk_min, self.spec.walk_max)
        if not targets:
            return None
        k, gid = targets[self.rng.integers(0, len(targets))]
        verb = ("Walk", "Go straight", "Continue", "Head forward")[self.rng.integers(0, 4)]
        reach = ("until you reach", "until you see", "to")[self.rng.integers(0, 3)]
        text = f"{verb} {reach} {self._title(gid)}." + self._suffixes(pose, k)
        return text, [Action.WALK] * k + [Action.END]

    def walk_until_signal(self, pose: Pose) -> tuple[str, list[Action]] | None:
        """Unnamed generic reference: stop at the next traffic light."""
        firsts = _scan_targets(self.grid, self.signals, pose, 0, self.spec.walk_max)
        stop = min((k for k, _ in firsts), default=None)
        if stop is None or stop < self.spec.walk_min:
            return None
        noun = ("the traffic light", "the stoplight", "the next light")[
            self.rng.integers(0, 3)
        ]
        verb = ("Walk", "Go straight", "Continue")[self.rng.integers(0, 3)]
        text = f"{verb} to {noun}." + self._suffixes(pose, stop)
        return text, [Action.WALK] * stop + [Action.END]

    def _ranked_turns(self, pose: Pose) -> list[Action]:
        turns = _feasible_turns(self.grid, pose, self.spec.walk_min)
        lr = [t for t in turns if t is not Action.TURN_AROUND]
        ar = [t for t in turns if t is Action.TURN_AROUND]
        lr = [lr[i] for i in self.rng.permutation(len(lr))]
        return lr + ar  # left/right first: they change streets and carry names

    def turn_then_walk_until(self, pose: Pose) -> tuple[str, list[Action]] | None:
        turns = self._ranked_turns(pose)
        for kind in turns:
            after = step(self.grid, pose, kind)
            targets = _scan_targets(self.grid, self.names, after, self.spec.walk_min, self.spec.walk_max)
            if not targets:
                continue
            k, gid = targets[self.rng.integers(0, len(targets))]
            opener = self._turn_opener(kind, after)
            reach = ("until you reach", "to")[self.rng.integers(0, 2)]
            text = f"{opener} {reach} {self._title(gid)}." + self._suffixes(after, k)
            return text, [kind] + [Action.WALK] * k + [Action.END]
        return None

    def walk_count(self, pose: Pose) -> tuple[str, list[Action]] | None:
        hi = min(_runway(self.grid, pose), self.spec.walk_max)
        if hi < self.spec.walk_min:
            return None
        n = int(self.rng.integers(self.spec.walk_min, hi + 1))
        verb = ("Walk", "Go", "Move forward")[self.rng.integers(0, 3)]
        unit = ("tiles", "steps")[self.rng.integers(0, 2)]
        text = f"{verb} {NUM_WORDS[n]} {unit}." + self._suffixes(pose, n)
        return text, [Action.WALK] * n + [Action.END]

    def turn_then_walk_count(self, pose: Pose) -> tuple[str, list[Action]] | None:
        turns = self._ranked_turns(pose)
        if not turns:
            return None
        kind = turns[0]
        after = step(self.grid, pose, kind)
        hi = min(_runway(self.grid, after), self.spec.walk_max)
        if hi < self.spec.walk_min:
            return None
        n = int(self.rng.integers(self.spec.walk_min, hi + 1))
        unit = ("tiles", "steps")[self.rng.integers(0, 2)]
        text = f"{self._turn_opener(kind, after)} {NUM_WORDS[n]} {unit}." + self._suffixes(after, n)
        return text, [kind] + [Action.WALK] * n + [Action.END]

    def verify_end(self, pose: Pose) -> tuple[str, list[Action]] | None:
        nearby = [gid for gid in self.grid.groundings_near(pose_tile(self.grid, pose), 1)
                  if gid in self.names and self.grid.grounding_type(gid) != "street"]
        if not nearby:
            return None
        gid = nearby[self.rng.integers(0, len(nearby))]
        side = ("left", "right")[self.rng.integers(0, 2)]
        text = (
            f"You will see {self._title(gid)} on your {side}.",
            f"Your destination is {self._title(gid)}.",
        )[self.rng.integers(0, 2)]
        return text, [Action.END]

    def plan(self, pose: Pose, last_sentence: bool, first_sentence: bool) -> tuple[str, list[Action]]:
        kinds = _LAST_KINDS if last_sentence else _KINDS
        for i in self.rng.permutation(len(kinds)):
            made = getattr(self, kinds[i])(pose)
            if made:
                text, actions = made
                # sequencing connective on non-initial sentences
                if not first_sentence and self.rng.random() < 0.25:
                    text = ("Then ", "Next, ")[self.rng.integers(0, 2)] + text[0].lower() + text[1:]
                return text, actions
        # Fallback when nothing else fits: turn around and walk back a tile.
        after = successor(self.grid, pose, Action.TURN_AROUND)
        if after is not None and _runway(self.grid, after) >= 1:
            return "Turn around and walk one step.", [
                Action.TURN_AROUND, Action.WALK, Action.END,
            ]
        return "Stop here.", [Action.END]


def _start_pose(grid: GridMap, rng: np.random.Generator) -> Pose:
    street = grid.streets[rng.integers(0, len(grid.streets))]
    index = int(rng.integers(1, len(street.tiles) - 1))
    direction = 1 if rng.random() < 0.5 else -1
    return Pose(street.id, index, direction)


def generate(spec: SynthSpec) -> tuple[dict[str, GridMap], Corpus]:
    """Builds the map set and an aligned instruction corpus from a spec."""
    maps: dict[str, GridMap] = {}
    paragraphs: list[Paragraph] = []
    for m in range(spec.n_maps):
        grid = generate_map(spec, m)
        maps[grid.id] = grid
        lexicon = Lexicon.from_map(grid)
        rng = np.random.default_rng([spec.seed, 0xC0, m])
        planner = _SentencePlanner(spec, grid, rng)
        # text -> (text, tokens, abstract tokens, bindings), parsed once per distinct text
        parsed: dict[str, tuple] = {}
        # equal action strings share one tuple (about 97% of a decode map's repeat one)
        shared_actions: dict[tuple[Action, ...], tuple[Action, ...]] = {}
        for p in range(spec.paragraphs_per_map):
            start = _start_pose(grid, rng)
            n_sentences = int(rng.integers(spec.min_sentences, spec.max_sentences + 1))
            pose = start
            instructions: list[Instruction] = []
            for s in range(n_sentences):
                text, planned = planner.plan(
                    pose, last_sentence=s == n_sentences - 1, first_sentence=s == 0
                )
                actions = tuple(planned)
                actions = shared_actions.setdefault(actions, actions)
                fields = parsed.get(text)
                if fields is None:
                    sentence = tokenize(text)
                    abstracted = abstract(sentence, match_entities(sentence, grid, lexicon), grid)
                    fields = parsed[text] = (
                        text, sentence.tokens, abstracted.tokens, abstracted.bindings
                    )
                route = execute(grid, pose, actions)
                instructions.append(Instruction(*fields, start=pose, route=route, actions=actions))
                pose = route.final_pose
            paragraphs.append(
                Paragraph(f"{grid.id}-p{p:04d}", grid.id, start, tuple(instructions))
            )
    return maps, Corpus(tuple(paragraphs))


def corpus_stats(corpus: Corpus, maps: dict[str, GridMap]) -> dict:
    """Descriptive statistics mirroring the task's data summary table."""
    n_instr = 0
    token_total = 0
    uniq: set[str] = set()
    entity_mentions = 0
    sent_moves: list[int] = []
    para_moves: list[int] = []
    for paragraph in corpus.paragraphs:
        moved = 0
        for instr in paragraph.instructions:
            n_instr += 1
            token_total += len(instr.tokens)
            uniq.update(instr.tokens)
            entity_mentions += len(instr.bindings)
            steps = len(instr.route.tiles) - 1
            sent_moves.append(steps)
            moved += steps
        para_moves.append(moved)
    n_para = len(corpus.paragraphs)
    return {
        "paragraphs": n_para,
        "instructions": n_instr,
        "unique_tokens": len(uniq),
        "avg_tokens_per_instruction": token_total / n_instr if n_instr else 0.0,
        "avg_named_entities_per_instruction": entity_mentions / n_instr if n_instr else 0.0,
        "avg_tiles_moved_per_sentence": sum(sent_moves) / len(sent_moves) if sent_moves else 0.0,
        "avg_tiles_moved_per_paragraph": sum(para_moves) / len(para_moves) if para_moves else 0.0,
        "entities_per_map": {mid: len(g.entities) for mid, g in sorted(maps.items())},
        "streets_per_map": {mid: len(g.streets) for mid, g in sorted(maps.items())},
    }
