"""Command-line shell binding maps, corpora, models, and evaluation together.

Subcommands: synth, stats, simulate, abstract, train, evaluate, gradcheck.
A subcommand takes --seed (default from URBANAV_SEED) only if it draws
random numbers (synth, train, gradcheck), and --config, a flat key=value
file, only if it has a spec or model config to override (synth, train, and
evaluate with a model policy). Contract violations exit non-zero with the
offending flag or key on stderr; a diverged training run names its epoch
and example there.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .abstraction import Lexicon, abstract, match_entities, tokenize
from .baselines import jump_factory, no_move_factory, random_factory
from .configfile import ConfigError, apply_overrides, default_seed, load_config
from .corpus import CorpusFormatError, load_corpus, save_corpus
from .evaluator import run_protocol
from .executor import ExecutionError, InvalidPose, Pose, check_pose, execute, parse_actions
from .model import ModelConfig, VARIANTS
from .synth import SynthSpec, corpus_stats, generate
from .training import ModelPolicy, TrainingDiverged, VariantPolicyFactory, gradient_check, kept_epoch
from .worldmap import load_map, save_map

CORPUS_FILE = "corpus.txt"

BASELINES = {
    "no-move": no_move_factory,
    "random": random_factory,
    "jump": jump_factory,
}


def _load_data_dir(path: str):
    root = Path(path)
    corpus = load_corpus(root / CORPUS_FILE)
    maps = {}
    for map_path in sorted(root.glob("*.map")):
        grid = load_map(map_path)
        maps[grid.id] = grid
    if not maps:
        raise FileNotFoundError(f"{root}: no .map files")
    _check_corpus_maps(corpus, maps, root / CORPUS_FILE)
    return corpus, maps


def _check_corpus_maps(corpus, maps, source) -> None:
    """Raises ``CorpusFormatError`` where a paragraph's map, start pose or binding is missing."""
    for paragraph in corpus.paragraphs:
        grid = maps.get(paragraph.map_id)
        if grid is None:
            raise CorpusFormatError(
                f"{source}: paragraph {paragraph.id}: no map {paragraph.map_id!r} in the data dir"
            )
        for i, instr in enumerate(paragraph.instructions):
            where = f"{source}: paragraph {paragraph.id}, instruction {i}"
            try:
                check_pose(grid, instr.start)
            except InvalidPose as err:
                raise CorpusFormatError(f"{where}: bad start pose: {err}") from None
            for var, gid in instr.bindings:
                try:
                    grid.grounding(gid)
                except KeyError:
                    raise CorpusFormatError(
                        f"{where}: binding {var}={gid} names nothing on map {grid.id}"
                    ) from None


def _seed(args) -> int:
    # Read here, not as the parser default, so a bad URBANAV_SEED is reported
    # as an error, and only by the subcommands that take --seed.
    return default_seed() if args.seed is None else args.seed


def _overrides(args) -> dict:
    return load_config(args.config) if args.config else {}


def _parse_pose_arg(text: str) -> Pose:
    try:
        street_id, index, travel_dir = (int(p) for p in text.strip("()").split(","))
    except ValueError:
        raise ConfigError(f"--start must look like (street,index,dir), got {text!r}") from None
    return Pose(street_id, index, travel_dir)


def cmd_synth(args) -> int:
    spec = SynthSpec.run_shape() if args.preset == "run-shape" else SynthSpec.default()
    spec = apply_overrides(spec, _overrides(args), {"seed": "--seed"})
    spec = replace(spec, seed=_seed(args))
    maps, corpus = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for mid, grid in sorted(maps.items()):
        save_map(grid, out / f"{mid}.map")
    save_corpus(corpus, out / CORPUS_FILE)
    print(f"wrote {len(maps)} maps and {corpus.n_instructions()} instructions to {out}")
    return 0


def cmd_stats(args) -> int:
    corpus, maps = _load_data_dir(args.data)
    for key, value in corpus_stats(corpus, maps).items():
        print(f"{key}: {value}")
    return 0


def cmd_simulate(args) -> int:
    grid = load_map(args.map)
    pose = _parse_pose_arg(args.start)
    actions = parse_actions(args.actions)
    try:
        route = execute(grid, pose, actions)
    except ExecutionError as err:
        print(f"execution failed: {err}", file=sys.stderr)
        print("partial route: " + ";".join(str(t) for t in err.partial_route.tiles))
        return 1
    print(";".join(str(t) for t in route.tiles))
    final = route.final_pose
    print(f"final pose: ({final.street_id},{final.index},{final.travel_dir:+d})")
    return 0


def cmd_abstract(args) -> int:
    grid = load_map(args.map)
    sentence = tokenize(args.text)
    matches = match_entities(sentence, grid, Lexicon.from_map(grid))
    result = abstract(sentence, matches, grid)
    print(" ".join(result.tokens))
    for var, gid in result.bindings:
        print(f"{var} -> {gid} ({grid.grounding_type(gid)})")
    return 0


def _model_config(args, seed: int) -> ModelConfig:
    config = ModelConfig(variant=args.variant.upper(), seed=seed)
    return apply_overrides(config, _overrides(args), {"seed": "--seed", "variant": "--variant"})


def cmd_train(args) -> int:
    corpus, maps = _load_data_dir(args.data)
    if args.test_map:
        if args.test_map not in maps:
            raise ConfigError(f"--test-map {args.test_map!r} not in data dir")
        corpus = corpus.for_maps([m for m in maps if m != args.test_map])
    seed = _seed(args)
    config = _model_config(args, seed)
    policy = ModelPolicy(config)
    policy.fit(corpus, maps, seed)
    policy.model.save(args.out)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(policy.logs[0].csv_header() + "\n")
            for row in policy.logs:
                fh.write(row.csv_row() + "\n")
    kept = policy.logs[kept_epoch(policy.logs) - 1]
    print(f"trained {config.variant} for {len(policy.logs)} epochs; "
          f"kept epoch {kept.epoch} (validation NLL {kept.val_nll:.4f}); "
          f"saved to {args.out}")
    return 0


def _policy_factory(name: str, args):
    """(policy factory, model variant or "", the config values set by --config)."""
    if name in BASELINES:
        if args.config:
            raise ConfigError(f"--config has no effect on the {name!r} policy")
        return BASELINES[name], "", {}
    variant = name.upper()
    if variant not in VARIANTS:
        raise ConfigError(f"unknown policy {name!r}")
    overrides = _overrides(args)
    config = apply_overrides(ModelConfig(variant=variant), overrides,
                             {"seed": "--seeds", "variant": "--policy"})
    echo = {key: getattr(config, key) for key in overrides}
    return VariantPolicyFactory(config), config.variant, echo


def cmd_evaluate(args) -> int:
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise ConfigError(
            f"--seeds must be comma-separated integers, got {args.seeds!r}"
        ) from None
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    corpus, maps = _load_data_dir(args.data)
    name = args.policy
    factory, variant, echo = _policy_factory(name, args)
    report = run_protocol(
        corpus,
        maps,
        factory,
        seeds=seeds,
        policy_name=name,
        variant=variant,
        config_echo={"seeds": list(seeds), **echo},
        n_jobs=args.jobs,
    )
    report_dir = Path(args.report_dir or Path(args.data) / "reports" / name)
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    (report_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    print(
        f"{name}: weighted sentence accuracy "
        f"{100 * report.weighted_sentence_accuracy:.2f}, paragraph "
        f"{100 * report.weighted_paragraph_accuracy:.2f} -> {report_dir}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    error = gradient_check(seed=_seed(args))
    print(f"max relative gradient error: {error:.3e}")
    return 0 if error < 1e-4 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urbanav",
        description="Tile-grid navigation: synthesize data, train and evaluate followers.",
    )
    parser.add_argument("--version", action="version", version=f"urbanav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # No prefix matching: `evaluate --seed` must fail, not become `--seeds`.
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def add_seed(p):
        p.add_argument("--seed", type=int, help="default: URBANAV_SEED, else 0")

    def add_config(p):
        p.add_argument("--config", help="flat key=value config file")

    p = command("synth", "generate synthetic maps and a corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=("default", "run-shape"), default="default")
    add_seed(p)
    add_config(p)
    p.set_defaults(func=cmd_synth)

    p = command("stats", "corpus and map statistics")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    p = command("simulate", "execute an action string on a map")
    p.add_argument("--map", required=True)
    p.add_argument("--start", required=True, help="(street_id,index,dir)")
    p.add_argument("--actions", required=True, help="e.g. 'WALK WALK END'")
    p.set_defaults(func=cmd_simulate)

    p = command("abstract", "abstract entity mentions in a sentence")
    p.add_argument("--map", required=True)
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_abstract)

    p = command("train", "train one model variant")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", choices=[v.lower() for v in VARIANTS] + list(VARIANTS),
                   default="CGAEW")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--log", help="per-epoch CSV log path")
    p.add_argument("--test-map", help="hold this map out of training")
    add_seed(p)
    add_config(p)
    p.set_defaults(func=cmd_train)

    p = command("evaluate", "run the three-fold evaluation protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--policy", required=True,
                   help="no-move | random | jump | cga | cgae | cgaew")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--report-dir")
    p.add_argument("--jobs", type=int, default=1, help="parallel fold workers")
    add_config(p)
    p.set_defaults(func=cmd_evaluate)

    p = command("gradcheck", "finite-difference gradient check")
    add_seed(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError, TrainingDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
