"""Tiles and poses are NamedTuples, tokens are interned, and outputs match pinned digests.

The hash of a ``TileCoord`` or ``Pose`` equals the hash of the plain tuple of
its fields, which is also what a frozen dataclass of the same fields hashes
to. Set and dict iteration orders, and with them every output, therefore do
not depend on which of the two a tile or pose is. The digests below were
computed when tiles and poses were frozen dataclasses.
"""

import hashlib
import pickle
from dataclasses import replace

import pytest

from urbanav.baselines import jump_factory
from urbanav.corpus import format_corpus, parse_corpus
from urbanav.evaluator import run_protocol
from urbanav.executor import Pose
from urbanav.synth import SynthSpec, generate
from urbanav.worldmap import TileCoord, format_map

# spec -> sha256 of (every map's format_map, format_corpus, the JUMP report at seeds 0 and 1)
GOLDEN = {
    "default": (
        SynthSpec(paragraphs_per_map=20),
        "815c69ce9040f709f1039ff0ebb327dba165cde678bf59fdf3d7a5d878008591",
        "c9cddb61a2f7c48bb2261577fbbd01c8baacf5161c30162e41a82111862685cd",
        "368963af06d52e320e1301582a5d1f14cf4a6a06e709f0673162a52407d08d50",
    ),
    "run-shape": (
        replace(SynthSpec.run_shape(), paragraphs_per_map=12, seed=3),
        "9efc93d7c3fb26363bf919094dfdc8a25a1f807cf28d88626645836e38180ae8",
        "e169c3bdce08eebe5a0a44ee8a5164d9b0f8bef7741c0dee28ea24007c6817f5",
        "6edb6f9523002902093e0710ce044a9f779cfb97f0b2f0193c42d129f579b19e",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_synth_and_jump_report_match_pinned_digests(name):
    spec, maps_digest, corpus_digest, report_digest = GOLDEN[name]
    maps, corpus = generate(spec)
    assert sha256("".join(format_map(grid) for _, grid in sorted(maps.items()))) == maps_digest
    assert sha256(format_corpus(corpus)) == corpus_digest
    report = run_protocol(corpus, maps, jump_factory, seeds=(0, 1))
    assert sha256(report.to_json()) == report_digest


@pytest.mark.parametrize("fields", [(3, 4), (0, 17), (2, 5, -1), (7, 0, 1)])
def test_hash_is_the_field_tuple_hash(fields):
    value = (TileCoord if len(fields) == 2 else Pose)(*fields)
    assert hash(value) == hash(fields)  # a frozen dataclass hashes its fields the same way
    assert value == fields  # so never mix them with plain tuples as keys of one dict


def test_field_access_order_and_text():
    tile, pose = TileCoord(3, 4), Pose(2, 5, -1)
    assert (tile.col, tile.row) == (3, 4)
    assert (pose.street_id, pose.index, pose.travel_dir) == (2, 5, -1)  # index shadows tuple.index
    assert str(tile) == "(3,4)"
    assert (str(pose), str(Pose(7, 0, 1))) == ("(2,5,-1)", "(7,0,+1)")
    assert repr(tile) == "TileCoord(col=3, row=4)"
    assert repr(pose) == "Pose(street_id=2, index=5, travel_dir=-1)"
    assert sorted([TileCoord(2, 0), TileCoord(1, 9), TileCoord(1, 3)]) == [
        TileCoord(1, 3), TileCoord(1, 9), TileCoord(2, 0)
    ]


@pytest.mark.parametrize("value, field", [(TileCoord(3, 4), "col"), (Pose(2, 5, -1), "index")])
def test_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)


@pytest.mark.parametrize("value", [TileCoord(3, 4), Pose(2, 5, -1)])
def test_pickle_round_trip(value):
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value)


def test_equal_tokens_are_one_object():
    spec = SynthSpec(n_maps=2, paragraphs_per_map=4, grid_size=18, rows=3, cols=3)
    _, corpus = generate(spec)
    first: dict[str, str] = {}
    n_tokens = 0
    for source in (corpus, parse_corpus(format_corpus(corpus))):
        for _, instr in source.instructions():
            for token in instr.tokens + instr.abstract_tokens + tuple(v for v, _ in instr.bindings):
                assert first.setdefault(token, token) is token
                n_tokens += 1
    assert n_tokens > 4 * len(first)  # tokens repeat across sentences and across both corpora


def test_equal_jump_predictions_are_one_object():
    maps, corpus = generate(SynthSpec(paragraphs_per_map=6))
    policy = jump_factory(0)
    first: dict[tuple, tuple] = {}
    for paragraph, instr in corpus.instructions():
        actions = policy.predict(maps[paragraph.map_id], instr, instr.start)
        assert type(actions) is tuple
        assert first.setdefault(actions, actions) is actions
    assert corpus.n_instructions() > 2 * len(first)  # predictions did repeat
