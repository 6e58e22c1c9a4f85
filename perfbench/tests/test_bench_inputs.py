"""Each workload's inputs are a pure function of its seed."""

import pytest

from urbanav.corpus import format_corpus
from urbanav.synth import generate
from urbanav.worldmap import format_map
from workloads import WORKLOADS, DecodeWorkload, decode_pool


def serialized(specs) -> bytes:
    text = ""
    for spec in specs:
        maps, corpus = generate(spec)
        text += "".join(format_map(maps[m]) for m in sorted(maps)) + format_corpus(corpus)
    return text.encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    first = serialized(WORKLOADS[name](5).specs())
    assert serialized(WORKLOADS[name](5).specs()) == first
    assert serialized(WORKLOADS[name](6).specs()) != first


def test_decode_pool_never_repeats_a_sentence():
    held_out = []
    for spec in DecodeWorkload(1).specs():
        maps, corpus = generate(spec)
        (grid,) = maps.values()
        assert grid.id == "synth-1" and len(grid.streets) == 10  # one map, default size
        held_out.append((grid, corpus.paragraphs))
    pool = decode_pool(held_out)
    keys = [(id(grid), i.tokens, i.start) for i, grid in pool]
    assert len(keys) == len(set(keys)) > 6500
    first = [id(grid) for _, grid in pool[:200]]
    assert len(set(first)) == len(held_out)  # a prefix draws on every map


def test_decode_maps_never_use_the_model_seed():
    seeds = [spec.seed for n in range(10) for spec in DecodeWorkload(n).specs()]
    assert 0 not in seeds and len(seeds) == len(set(seeds))
