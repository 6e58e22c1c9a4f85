"""Output checks, computed apart from the program under test.

The exact-route predicate here is written from its definition, not imported:
the predicted tiles must appear in order on the gold tile sequence, the
predicted terminal must lie within 5 tiles (Euclidean) of the gold terminal,
and the final heading must be within 45 degrees of the gold heading. Headings
come straight from tile coordinates: row 0 is north, columns grow east.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

from urbanav.executor import Action, ExecutionError, execute

TERMINAL_TOLERANCE_TILES = 5.0
HEADING_TOLERANCE_DEG = 45.0
UNIFORM_NLL = math.log(5.0)  # loss of a uniform guess over the five actions
TRAIN_NLL_CEILING = 0.5 * UNIFORM_NLL


def heading_deg(grid, pose) -> float:
    """Compass heading of a pose: toward the next tile, or out of the last one at a street end."""
    tiles = grid.street(pose.street_id).tiles
    j = pose.index + pose.travel_dir
    if 0 <= j < len(tiles):
        a, b = tiles[pose.index], tiles[j]
    else:
        a, b = tiles[pose.index - pose.travel_dir], tiles[pose.index]
    return math.degrees(math.atan2(b.col - a.col, a.row - b.row)) % 360.0


def in_order_on(pred_tiles, gold_tiles) -> bool:
    """Every predicted tile matches a gold tile strictly after the previous match."""
    j = 0
    for tile in pred_tiles:
        while j < len(gold_tiles) and gold_tiles[j] != tile:
            j += 1
        if j == len(gold_tiles):
            return False
        j += 1
    return True


def route_success(grid, pred_tiles, pred_pose, gold_tiles, gold_pose) -> bool:
    """The exact-route predicate for one sentence."""
    if not in_order_on(pred_tiles, gold_tiles):
        return False
    end, goal = pred_tiles[-1], gold_tiles[-1]
    if math.hypot(end.col - goal.col, end.row - goal.row) > TERMINAL_TOLERANCE_TILES:
        return False
    delta = abs(heading_deg(grid, pred_pose) - heading_deg(grid, gold_pose)) % 360.0
    return min(delta, 360.0 - delta) <= HEADING_TOLERANCE_DEG


def check_training_log(train_nlls) -> list[str]:
    """Every epoch's training NLL is finite; the last is well below a uniform guess."""
    if not train_nlls:
        return ["no epochs logged"]
    problems = [f"epoch {i}: train_nll {v!r} not finite"
                for i, v in enumerate(train_nlls, start=1) if not math.isfinite(v)]
    if math.isfinite(train_nlls[-1]) and train_nlls[-1] > TRAIN_NLL_CEILING:
        problems.append(
            f"last train_nll {train_nlls[-1]:.4f} above {TRAIN_NLL_CEILING:.4f} "
            f"(half of ln 5)"
        )
    return problems


def check_decoded(grid, start, actions) -> list[str]:
    """A decoded action string ends in its only END and executes without error."""
    if not actions or actions[-1] is not Action.END:
        return ["does not end in END"]
    if sum(a is Action.END for a in actions) != 1:
        return ["more than one END"]
    try:
        execute(grid, start, list(actions))
    except (ExecutionError, ValueError) as err:
        return [f"does not execute: {err}"]
    return []


def check_route_steps(street_tiles, route_tiles) -> list[str]:
    """Every route tile is a street tile and each step moves to an 8-neighbour."""
    problems = [f"tile {t} is not on a street" for t in route_tiles if t not in street_tiles]
    for a, b in zip(route_tiles, route_tiles[1:]):
        if max(abs(a.col - b.col), abs(a.row - b.row)) != 1:
            problems.append(f"step {a} -> {b} is not between 8-neighbours")
    return problems


def check_success_count(reported: int, recounted: int) -> list[str]:
    if reported != recounted:
        return [f"report counts {reported} successes, recount gives {recounted}"]
    return []
