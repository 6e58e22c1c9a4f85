"""Exact-route evaluation: success predicates, folds, size-weighted reports.

A predicted route succeeds when its tiles appear on the gold tile sequence
in order (no striding off the path), its terminal tile lies within a
Euclidean tolerance of the gold terminal, and, for single sentences, the
final facing direction matches within an angular tolerance. Paragraphs
chain each sentence's predicted final pose into the next sentence's start,
so errors propagate, and are scored against the full gold route without the
heading check.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

from .corpus import Corpus, Instruction, Paragraph
from .executor import Action, Pose, Route, execute_lenient, pose_bearing
from .worldmap import GridMap, angular_distance_deg, euclidean


@dataclass(frozen=True)
class SuccessPredicateConfig:
    terminal_tolerance_tiles: float = 5.0
    heading_tolerance_deg: float = 45.0
    check_heading: bool = True


@dataclass(frozen=True)
class FoldPlan:
    test_map: str
    train_maps: tuple[str, ...]


def make_folds(map_ids) -> list[FoldPlan]:
    """One fold per map: test on it, train on the rest."""
    ids = list(map_ids)
    if len(ids) < 2:
        raise ValueError("need at least two maps for a fold plan")
    return [
        FoldPlan(test_map=m, train_maps=tuple(x for x in ids if x != m)) for m in ids
    ]


def is_ordered_subsequence(pred_tiles, gold_tiles) -> bool:
    it = iter(gold_tiles)
    return all(tile in it for tile in pred_tiles)


def sentence_success(grid: GridMap, pred: Route, gold: Route, cfg: SuccessPredicateConfig) -> bool:
    if not is_ordered_subsequence(pred.tiles, gold.tiles):
        return False
    if euclidean(pred.tiles[-1], gold.tiles[-1]) > cfg.terminal_tolerance_tiles:
        return False
    if cfg.check_heading:
        delta = angular_distance_deg(
            pose_bearing(grid, pred.final_pose), pose_bearing(grid, gold.final_pose)
        )
        if delta > cfg.heading_tolerance_deg:
            return False
    return True


def chain_routes(routes: list[Route]) -> Route:
    """Concatenates per-sentence routes into one paragraph route."""
    if not routes:
        raise ValueError("cannot chain zero routes")
    tiles = list(routes[0].tiles)
    for r in routes[1:]:
        rest = r.tiles[1:] if r.tiles and r.tiles[0] == tiles[-1] else r.tiles
        tiles.extend(rest)
    return Route(tuple(tiles), routes[-1].final_pose)


def paragraph_success(
    grid: GridMap, pred_routes: list[Route], gold: Route, cfg: SuccessPredicateConfig
) -> bool:
    pred = chain_routes(pred_routes)
    relaxed = SuccessPredicateConfig(
        terminal_tolerance_tiles=cfg.terminal_tolerance_tiles,
        heading_tolerance_deg=cfg.heading_tolerance_deg,
        check_heading=False,
    )
    return sentence_success(grid, pred, gold, relaxed)


def weighted_average(fold_results: list[tuple[float, int]]) -> float:
    """Sum(acc_i * n_i) / Sum(n_i); sizes must be positive."""
    if not fold_results:
        raise ValueError("no fold results")
    if any(n <= 0 for _, n in fold_results):
        raise ValueError("fold sizes must be positive")
    total = sum(n for _, n in fold_results)
    return sum(acc * n for acc, n in fold_results) / total


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def split_paragraphs(
    paragraphs: list[Paragraph], validation_fraction: float, seed: int
) -> tuple[list[Paragraph], list[Paragraph]]:
    """Seeded paragraph-level train/validation split."""
    import numpy as np

    order = np.random.default_rng([seed, 0xF01D]).permutation(len(paragraphs))
    n_val = max(1, round(validation_fraction * len(paragraphs))) if len(paragraphs) > 1 else 0
    val_idx = set(int(i) for i in order[:n_val])
    train = [p for i, p in enumerate(paragraphs) if i not in val_idx]
    val = [p for i, p in enumerate(paragraphs) if i in val_idx]
    return train, val


class Policy:
    """A route follower: anything that maps an instruction to actions."""

    name = "policy"
    # Deterministic policies may have predict() results reused for repeated
    # (instruction, pose) queries; stateful-random ones may not.
    deterministic = True

    def fit(self, train_corpus: Corpus, maps: dict[str, GridMap], seed: int) -> None:
        pass

    def predict(self, grid: GridMap, instruction: Instruction, pose: Pose) -> list[Action]:
        raise NotImplementedError


@dataclass
class FoldResult:
    fold: str
    n_sentences: int
    n_paragraphs: int
    sentence_accuracy: float
    paragraph_accuracy: float
    seed: int


@dataclass
class Report:
    policy: str
    variant: str
    seeds: list[int]
    folds: list[FoldResult]
    weighted_sentence_accuracy: float
    weighted_paragraph_accuracy: float
    sentence_std_across_folds: float
    paragraph_std_across_folds: float
    sentence_std_across_seeds: float
    paragraph_std_across_seeds: float
    config: dict = field(default_factory=dict)
    code_version: str = ""

    def to_json(self) -> str:
        payload = asdict(self)
        payload["format"] = "urbanav-report"
        payload["version"] = 1
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["policy", "variant", "fold", "n_sentences", "n_paragraphs",
             "sent_acc", "para_acc", "seed"]
        )
        for fr in self.folds:
            writer.writerow(
                [self.policy, self.variant, fr.fold, fr.n_sentences, fr.n_paragraphs,
                 f"{fr.sentence_accuracy:.6f}", f"{fr.paragraph_accuracy:.6f}", fr.seed]
            )
        return buf.getvalue()


def evaluate_policy_on_map(
    policy: Policy,
    grid: GridMap,
    paragraphs: list[Paragraph],
    cfg: SuccessPredicateConfig,
) -> tuple[float, float, int, int]:
    """(sentence acc, paragraph acc, n_sentences, n_paragraphs).

    Sentences are scored independently from their gold start pose;
    paragraphs chain each predicted final pose into the next sentence.
    """
    sent_hits = 0
    n_sent = 0
    para_hits = 0
    memo: dict[tuple[int, Pose], list[Action]] = {}

    def predict(instr: Instruction, pose: Pose) -> list[Action]:
        if not policy.deterministic:
            return policy.predict(grid, instr, pose)
        key = (id(instr), pose)
        if key not in memo:
            memo[key] = policy.predict(grid, instr, pose)
        return memo[key]

    for paragraph in paragraphs:
        for instr in paragraph.instructions:
            actions = predict(instr, instr.start)
            pred = execute_lenient(grid, instr.start, actions)
            sent_hits += sentence_success(grid, pred, instr.route, cfg)
            n_sent += 1
        pose = paragraph.start
        chained: list[Route] = []
        for instr in paragraph.instructions:
            actions = predict(instr, pose)
            pred = execute_lenient(grid, pose, actions)
            chained.append(pred)
            pose = pred.final_pose
        gold = chain_routes([i.route for i in paragraph.instructions])
        para_hits += paragraph_success(grid, chained, gold, cfg)
    return (
        sent_hits / max(1, n_sent),
        para_hits / max(1, len(paragraphs)),
        n_sent,
        len(paragraphs),
    )


def _fold_task(args) -> FoldResult:
    corpus, maps, plan, seed, policy_factory = args
    test_paragraphs = [p for p in corpus.paragraphs if p.map_id == plan.test_map]
    if not test_paragraphs:
        raise ValueError(f"fold {plan.test_map}: no test paragraphs")
    train_corpus = corpus.for_maps(plan.train_maps)
    policy = policy_factory(seed)
    policy.fit(train_corpus, maps, seed)
    sent_acc, para_acc, n_sent, n_para = evaluate_policy_on_map(
        policy, maps[plan.test_map], test_paragraphs, SuccessPredicateConfig()
    )
    return FoldResult(plan.test_map, n_sent, n_para, sent_acc, para_acc, seed)


def run_protocol(
    corpus: Corpus,
    maps: dict[str, GridMap],
    policy_factory,
    seeds: tuple[int, ...] = (0,),
    policy_name: str = "",
    variant: str = "",
    config_echo: dict | None = None,
    n_jobs: int = 1,
) -> Report:
    """Three-fold map-level protocol with size-weighted averaging, scored by the
    default ``SuccessPredicateConfig``.

    ``policy_factory(seed)`` must return a fresh Policy; learned policies
    train inside ``fit`` on the fold's train split. With ``n_jobs > 1`` the
    independent (seed, fold) runs fan out to worker processes (the factory
    must then be picklable); results are assembled in task order so the
    report stays byte-identical either way.
    """
    from . import __version__

    folds = make_folds(sorted(maps))
    tasks = [
        (corpus, maps, plan, seed, policy_factory)
        for seed in seeds
        for plan in folds
    ]
    if n_jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            rows = list(pool.map(_fold_task, tasks))
    else:
        rows = [_fold_task(t) for t in tasks]

    fold_results: list[FoldResult] = []
    per_seed_sent: list[float] = []
    per_seed_para: list[float] = []
    for i, seed in enumerate(seeds):
        seed_rows = rows[i * len(folds) : (i + 1) * len(folds)]
        fold_results.extend(seed_rows)
        per_seed_sent.append(
            weighted_average([(r.sentence_accuracy, r.n_sentences) for r in seed_rows])
        )
        per_seed_para.append(
            weighted_average([(r.paragraph_accuracy, r.n_paragraphs) for r in seed_rows])
        )
    policy_label = policy_name or policy_factory(seeds[0]).name
    return Report(
        policy=policy_label,
        variant=variant,
        seeds=list(seeds),
        folds=fold_results,
        weighted_sentence_accuracy=sum(per_seed_sent) / len(per_seed_sent),
        weighted_paragraph_accuracy=sum(per_seed_para) / len(per_seed_para),
        sentence_std_across_folds=_std([r.sentence_accuracy for r in fold_results]),
        paragraph_std_across_folds=_std([r.paragraph_accuracy for r in fold_results]),
        sentence_std_across_seeds=_std(per_seed_sent),
        paragraph_std_across_seeds=_std(per_seed_para),
        config=config_echo or {},
        code_version=__version__,
    )
