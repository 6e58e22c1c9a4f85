import pytest

from urbanav.corpus import format_corpus
from urbanav.executor import Action, Pose, pose_tile
from urbanav.synth import (
    SynthSpec,
    _runway,
    _scan_targets,
    _SentencePlanner,
    corpus_stats,
    generate,
    generate_map,
)
from urbanav.worldmap import format_map


def test_generation_is_pure_function_of_spec_and_seed():
    spec = SynthSpec(n_maps=2, paragraphs_per_map=6, seed=13)
    maps1, corpus1 = generate(spec)
    maps2, corpus2 = generate(spec)
    assert format_corpus(corpus1) == format_corpus(corpus2)
    for mid in maps1:
        assert format_map(maps1[mid]) == format_map(maps2[mid])


def test_different_seeds_differ():
    a = generate(SynthSpec(n_maps=1, paragraphs_per_map=6, seed=1))
    b = generate(SynthSpec(n_maps=1, paragraphs_per_map=6, seed=2))
    assert format_corpus(a[1]) != format_corpus(b[1])


def test_name_pools_disjoint_across_maps():
    maps, _ = generate(SynthSpec(n_maps=3, paragraphs_per_map=4, seed=3))
    namesets = []
    for grid in maps.values():
        names = {name for name, _, _ in grid.named_groundings()}
        namesets.append(names)
    for i in range(len(namesets)):
        for j in range(i + 1, len(namesets)):
            assert not (namesets[i] & namesets[j])


def test_unseen_pool_only_in_last_map():
    spec = SynthSpec(n_maps=3, paragraphs_per_map=4, seed=5)
    maps, _ = generate(spec)
    last = maps[f"synth-{spec.n_maps}"]
    unseen = set(spec.unseen_names)
    for name, _, _ in last.named_groundings():
        assert name.split()[0] in unseen
    for mid, grid in maps.items():
        if mid == last.id:
            continue
        for name, _, _ in grid.named_groundings():
            assert name.split()[0] not in unseen


def test_gold_routes_roundtrip(synth_small):
    # the Corpus-level invariant is asserted in test_corpus; spot-check stats here
    maps, corpus = synth_small
    stats = corpus_stats(corpus, maps)
    assert stats["instructions"] == corpus.n_instructions()
    assert stats["paragraphs"] == len(corpus.paragraphs)


def test_infeasible_spec_rejected():
    with pytest.raises(ValueError, match="name pools"):
        SynthSpec(n_maps=8, paragraphs_per_map=2)
    with pytest.raises(ValueError, match="grid"):
        SynthSpec(grid_size=6, entity_counts={"traffic_signal": 200})


def test_minimal_one_street_end_only():
    spec = SynthSpec(
        n_maps=1, grid_size=9, rows=1, cols=0,
        entity_counts={}, paragraphs_per_map=1,
        min_sentences=1, max_sentences=1,
        templates=("verify_end",), seed=2,
    )
    maps, corpus = generate(spec)
    instr = corpus.paragraphs[0].instructions[0]
    # with no entities and only END-style templates, the fallback still produces
    # a well-formed instruction
    assert instr.actions[-1] is Action.END
    assert len(corpus.paragraphs) == 1


def test_traffic_signals_sit_on_crossings():
    spec = SynthSpec(n_maps=1, paragraphs_per_map=2, seed=11)
    grid = generate_map(spec, 0)
    signals = [e for e in grid.entities if e.entity_type == "traffic_signal"]
    assert signals
    for sig in signals:
        (tile,) = sig.footprint
        street_ids = {sid for sid, _ in grid.tile_index[tile]}
        assert len(street_ids) >= 2  # a crossing


def test_pois_are_off_street_and_named():
    spec = SynthSpec(n_maps=1, paragraphs_per_map=2, seed=11)
    grid = generate_map(spec, 0)
    for e in grid.entities:
        if e.entity_type == "traffic_signal":
            continue
        assert e.name
        for t in e.footprint:
            assert not grid.is_walkable(t)


def test_default_corpus_shape(synth_default):
    maps, corpus = synth_default
    stats = corpus_stats(corpus, maps)
    assert len(maps) == 3
    assert 450 <= stats["instructions"] <= 800
    # vocabulary stays desk-scale
    from urbanav.abstraction import vocabulary

    vocab = vocabulary((i.tokens for _, i in corpus.instructions()))
    assert len(vocab) <= 300


def test_run_shape_preset_statistics():
    maps, corpus = generate(SynthSpec.run_shape())
    stats = corpus_stats(corpus, maps)
    # Mirrors the full task's shape: ~389 paragraphs / ~2515 instructions,
    # ~13 tokens and ~1.6 named entities per instruction; generous bands.
    assert 330 <= stats["paragraphs"] <= 450
    assert 2000 <= stats["instructions"] <= 3100
    assert 7.0 <= stats["avg_tokens_per_instruction"] <= 17.0
    assert 0.9 <= stats["avg_named_entities_per_instruction"] <= 2.2
    assert stats["avg_tiles_moved_per_sentence"] >= 4.0
    # raw word-type inventory stays far below the real dataset's 1451
    assert stats["unique_tokens"] <= 1451


def test_variable_numbering_stays_small(synth_small):
    from urbanav.abstraction import is_variable_token, parse_variable

    _, corpus = synth_small
    max_k = 0
    for _, instr in corpus.instructions():
        for t in instr.abstract_tokens:
            if is_variable_token(t):
                max_k = max(max_k, parse_variable(t)[1])
    assert 1 <= max_k <= 4


def test_sequencing_and_generic_references_present():
    maps, corpus = generate(SynthSpec(n_maps=2, paragraphs_per_map=30, seed=19))
    texts = [i.text for _, i in corpus.instructions()]
    assert any(t.startswith(("Then ", "Next, ")) for t in texts)
    assert any("light" in t or "stoplight" in t for t in texts)


def test_tiles_moved_matches_bruteforce(synth_small):
    maps, corpus = synth_small
    stats = corpus_stats(corpus, maps)
    moves = []
    for p in corpus.paragraphs:
        for instr in p.instructions:
            moves.append(len(instr.route.tiles) - 1)
    assert stats["avg_tiles_moved_per_sentence"] == pytest.approx(sum(moves) / len(moves))


def test_empty_corpus_stats():
    from urbanav.corpus import Corpus

    stats = corpus_stats(Corpus(()), {})
    assert stats["instructions"] == 0
    assert stats["avg_tokens_per_instruction"] == 0.0


# -- the proximity scans, against the loops they replaced ------------------------


def reference_scan_targets(grid, pose, lo, hi):
    """``_scan_targets`` as a scan of every named grounding's radius-1 tiles."""
    street = grid.street(pose.street_id)
    hi = min(hi, _runway(grid, pose))
    scan = [street.tiles[pose.index + pose.travel_dir * k] for k in range(0, hi + 1)]
    first = {}
    for name, gid, _etype in grid.named_groundings():
        near = grid.tiles_within(gid, 1)
        for k, t in enumerate(scan):
            if t in near:
                first[gid] = k
                break
    return [(k, gid) for gid, k in sorted(first.items()) if lo <= k <= hi]


def reference_verify_end_targets(grid, pose):
    """The named entities ``verify_end`` picks from, as a scan of every named grounding."""
    here = pose_tile(grid, pose)
    return [
        gid
        for _, gid, _ in grid.named_groundings()
        if grid.grounding_type(gid) != "street"
        and here in grid.tiles_within(gid, 1)
    ]


class _PickRng:
    """Stands in for the planner's generator: ``integers`` records its bound and returns ``pick``."""

    def __init__(self, pick):
        self.pick, self.highs = pick, []

    def integers(self, lo, hi):
        self.highs.append(hi)
        return min(self.pick, hi - 1)


def _every_pose(grid):
    return [Pose(s.id, i, d) for s in grid.streets for i in range(len(s.tiles)) for d in (1, -1)]


def test_scan_targets_match_the_reference_on_every_pose(synth_small):
    maps, _ = synth_small
    for grid in maps.values():
        names = {gid: name for name, gid, _ in grid.named_groundings()}
        found = 0
        for pose in _every_pose(grid):
            for lo, hi in ((0, 30), (1, 4), (2, 10), (3, 12)):
                got = _scan_targets(grid, names, pose, lo, hi)
                assert got == reference_scan_targets(grid, pose, lo, hi)
                found += len(got)
        assert found > 0


def test_verify_end_picks_from_the_reference_targets_on_every_pose(synth_small):
    maps, _ = synth_small
    spec = SynthSpec()
    for grid in maps.values():
        spoken = 0
        for pose in _every_pose(grid):
            expected = reference_verify_end_targets(grid, pose)
            if not expected:
                assert _SentencePlanner(spec, grid, _PickRng(0)).verify_end(pose) is None
                continue
            for pick, gid in enumerate(expected):
                planner = _SentencePlanner(spec, grid, _PickRng(pick))
                text, actions = planner.verify_end(pose)
                assert planner.rng.highs[0] == len(expected)
                assert planner._title(gid) in text and actions == [Action.END]
                spoken += 1
        assert spoken > 0
