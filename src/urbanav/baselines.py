"""Non-learned reference policies: NO_MOVE, RANDOM, JUMP.

NO_MOVE never leaves the start. RANDOM turns to a random heading and walks
an average route length. JUMP extracts the entities bound in the sentence
and greedily walks the street graph toward each in mention order, taking a
random TURN whenever walking is impossible. All randomness is seeded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Instruction
from .evaluator import Policy
from .executor import Action, Pose, TURN_ACTIONS, pose_tile, step, successor, walk_successor
from .worldmap import GridMap, TileCoord

JUMP_STEP_BUDGET = 200


def no_move(p0: Pose) -> list[Action]:
    return [Action.END]


def random_walk(grid: GridMap, p0: Pose, avg_len: float, rng: np.random.Generator) -> list[Action]:
    """Random heading, then round(avg_len) WALKs; invalid walks truncate."""
    actions: list[Action] = []
    pose = p0
    choice = rng.integers(0, 4)
    if choice > 0:
        turn = TURN_ACTIONS[choice - 1]
        turned = successor(grid, pose, turn)
        if turned is not None:  # else no continuation for that heading; stay as-is
            pose = turned
            actions.append(turn)
    for _ in range(int(round(avg_len))):
        nxt = successor(grid, pose, Action.WALK)
        if nxt is None:
            break
        pose = nxt
        actions.append(Action.WALK)
    actions.append(Action.END)
    return actions


def _street_graph_distances(grid: GridMap, targets: set[TileCoord]) -> dict[TileCoord, int]:
    """BFS hop counts over street tiles from the target set."""
    dist: dict[TileCoord, int] = {}
    queue: deque[TileCoord] = deque()
    for t in targets:
        dist[t] = 0
        queue.append(t)
    neighbors: dict[TileCoord, set[TileCoord]] = {}
    for street in grid.streets:
        for a, b in zip(street.tiles, street.tiles[1:]):
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)
    while queue:
        tile = queue.popleft()
        for nxt in neighbors.get(tile, ()):
            if nxt not in dist:
                dist[nxt] = dist[tile] + 1
                queue.append(nxt)
    return dist


def jump(
    grid: GridMap,
    bindings,
    p0: Pose,
    rng: np.random.Generator,
    step_budget: int = JUMP_STEP_BUDGET,
) -> list[Action]:
    """Greedy street-graph descent toward each bound entity in mention order."""
    actions: list[Action] = []
    pose = p0
    for _, gid in bindings:
        # walkable tiles at or adjacent to the grounding's footprint
        targets = {t for t in grid.tiles_within(gid, 1) if grid.is_walkable(t)}
        if not targets:
            continue
        dist = _street_graph_distances(grid, targets)
        for _ in range(step_budget):
            here = pose_tile(grid, pose)
            if here in targets:
                break
            here_d = dist.get(here)
            options: list[tuple[int, int, Action, Pose]] = []
            succ = walk_successor(grid, pose)
            if succ is not None and succ in dist:
                options.append((dist[succ], 0, Action.WALK, None))
            for order, kind in enumerate(TURN_ACTIONS, start=1):
                cand = successor(grid, pose, kind)
                if cand is None:
                    continue
                after = walk_successor(grid, cand)
                if after is not None and after in dist:
                    options.append((dist[after], order, kind, cand))
            best = min(options, default=None)
            if best is not None and (here_d is None or best[0] < here_d):
                d, _, action, cand = best
                actions.append(action)
                pose = cand if action is not Action.WALK else step(grid, pose, Action.WALK)
            elif walk_successor(grid, pose) is None:
                turn = TURN_ACTIONS[rng.integers(0, 3)]
                turned = successor(grid, pose, turn)
                if turned is None:
                    break
                pose = turned
                actions.append(turn)
            else:
                pose = step(grid, pose, Action.WALK)
                actions.append(Action.WALK)
    actions.append(Action.END)
    return actions


# -- policy adapters -----------------------------------------------------------


class NoMovePolicy(Policy):
    name = "no-move"

    def predict(self, grid: GridMap, instruction: Instruction, pose: Pose) -> list[Action]:
        return no_move(pose)


@dataclass
class RandomPolicy(Policy):
    seed: int = 0
    avg_len: float = 0.0
    name = "random"
    deterministic = False  # draws from a persistent stream per call

    def __post_init__(self):
        self._rng = np.random.default_rng([self.seed, 0x7A])

    def fit(self, train_corpus: Corpus, maps: dict[str, GridMap], seed: int) -> None:
        walks = [
            sum(a is Action.WALK for a in instr.actions)
            for _, instr in train_corpus.instructions()
        ]
        self.avg_len = sum(walks) / len(walks) if walks else 0.0
        self.seed = seed
        self._rng = np.random.default_rng([seed, 0x7A])

    def predict(self, grid: GridMap, instruction: Instruction, pose: Pose) -> list[Action]:
        return random_walk(grid, pose, self.avg_len, self._rng)


@dataclass
class JumpPolicy(Policy):
    seed: int = 0
    name = "jump"
    deterministic = False  # random TURN fallback draws from a persistent stream

    def __post_init__(self):
        self._rng = np.random.default_rng([self.seed, 0x10])

    def fit(self, train_corpus: Corpus, maps: dict[str, GridMap], seed: int) -> None:
        self.seed = seed
        self._rng = np.random.default_rng([seed, 0x10])

    def predict(self, grid: GridMap, instruction: Instruction, pose: Pose) -> list[Action]:
        return jump(grid, instruction.bindings, pose, self._rng)


def no_move_factory(seed: int) -> NoMovePolicy:
    return NoMovePolicy()


def random_factory(seed: int) -> RandomPolicy:
    return RandomPolicy(seed=seed)


def jump_factory(seed: int) -> JumpPolicy:
    return JumpPolicy(seed=seed)
