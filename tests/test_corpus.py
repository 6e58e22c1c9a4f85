from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanav.corpus import (
    CorpusFormatError,
    format_corpus,
    load_corpus,
    parse_corpus,
    save_corpus,
)
from urbanav.executor import execute, route_to_actions
from urbanav.worldmap import MapFormatError, MapValidationError, format_map, parse_map


def test_write_read_roundtrip_is_byte_identical(synth_small, tmp_path):
    _, corpus = synth_small
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    first = path.read_bytes()
    again = load_corpus(path)
    save_corpus(again, path)
    assert path.read_bytes() == first


def test_parse_preserves_structure(synth_small):
    _, corpus = synth_small
    again = parse_corpus(format_corpus(corpus))
    assert len(again.paragraphs) == len(corpus.paragraphs)
    for p, q in zip(corpus.paragraphs, again.paragraphs):
        assert p.id == q.id and p.map_id == q.map_id and p.start == q.start
        for a, b in zip(p.instructions, q.instructions):
            assert a.text == b.text
            assert a.tokens == b.tokens
            assert a.abstract_tokens == b.abstract_tokens
            assert a.bindings == b.bindings
            assert a.start == b.start
            assert a.route == b.route
            assert a.actions == b.actions


def test_start_poses_chain(synth_small):
    _, corpus = synth_small
    for p in corpus.paragraphs:
        assert p.instructions[0].start == p.start
        for prev, nxt in zip(p.instructions, p.instructions[1:]):
            assert nxt.start == prev.route.final_pose


def test_gold_actions_roundtrip_through_executor(synth_small):
    maps, corpus = synth_small
    for p in corpus.paragraphs:
        grid = maps[p.map_id]
        for instr in p.instructions:
            route = execute(grid, instr.start, list(instr.actions))
            assert route.tiles == instr.route.tiles
            assert route.final_pose == instr.route.final_pose
            assert route_to_actions(grid, instr.start, route) == list(instr.actions)


def test_parse_rejects_bad_header():
    with pytest.raises(CorpusFormatError, match="CORPUS"):
        parse_corpus("PARAGRAPH x map=m start=(1,0,+1)\n")


def test_parse_rejects_missing_record():
    text = "CORPUS 1\nPARAGRAPH p map=m start=(1,0,+1)\nINSTRUCTION 0\nTEXT hi\n"
    with pytest.raises(CorpusFormatError, match="TOKENS"):
        parse_corpus(text)


def test_parse_rejects_bad_binding():
    text = (
        "CORPUS 1\nPARAGRAPH p map=m start=(1,0,+1)\nINSTRUCTION 0\nTEXT hi\n"
        "TOKENS hi\nABSTRACT hi\nBINDINGS <X>=abc\n"
        "ROUTE (0,0) final=(1,0,+1)\nACTIONS END\n"
    )
    with pytest.raises(CorpusFormatError, match="binding"):
        parse_corpus(text)
    # a well-formed id bound to a name that is not a <TYPE_k> variable token
    text = _one_instruction("(1,0,+1)", "(1,0,+1)", "END").replace("BINDINGS -", "BINDINGS bank=11")
    expected = r"^corpus\.txt:7: bad binding 'bank=11': 'bank' is not a <TYPE_k> variable$"
    with pytest.raises(CorpusFormatError, match=expected):
        parse_corpus(text, source="corpus.txt")


def test_parse_names_line_numbers():
    with pytest.raises(CorpusFormatError, match=":2"):
        parse_corpus("CORPUS 1\nGARBAGE\n")


def _one_instruction(start: str, final: str, actions: str) -> str:
    return (
        f"CORPUS 1\nPARAGRAPH p map=m start={start}\nINSTRUCTION 0\nTEXT hi\n"
        f"TOKENS hi\nABSTRACT hi\nBINDINGS -\n"
        f"ROUTE (0,0) final={final}\nACTIONS {actions}\n"
    )


def test_parse_rejects_negative_pose_index():
    with pytest.raises(CorpusFormatError, match=r"^corpus\.txt:2: bad pose '\(1,-1,\+1\)'"):
        parse_corpus(_one_instruction("(1,-1,+1)", "(1,0,+1)", "END"), source="corpus.txt")
    with pytest.raises(CorpusFormatError, match=r"^corpus\.txt:8: bad pose '\(1,-3,-1\)'"):
        parse_corpus(_one_instruction("(1,0,+1)", "(1,-3,-1)", "END"), source="corpus.txt")


def test_parse_rejects_unknown_action_token_with_line():
    text = _one_instruction("(1,0,+1)", "(1,0,+1)", "WALK FLY END")
    with pytest.raises(CorpusFormatError, match=r"^corpus\.txt:9: unknown action token 'FLY'"):
        parse_corpus(text, source="corpus.txt")


_EDIT_CHARS = "019-+(),;=\" _<>x"
_FREE_TEXT = ("TEXT ", "TOKENS ", "ABSTRACT ")


def _mutate(text: str, rnd) -> str:
    """``text`` after one or two random line edits; a character edit skips free-text lines."""
    lines = text.split("\n")
    for _ in range(rnd.randint(1, 2)):
        kind = rnd.choice(["delete", "duplicate", "swap", "replace", "insert", "truncate"])
        if kind in ("delete", "duplicate", "swap"):
            i = rnd.randrange(len(lines))
        else:
            i = rnd.choice([k for k, line in enumerate(lines) if not line.startswith(_FREE_TEXT)])
        line = lines[i]
        j = rnd.randrange(len(line) + 1)
        if kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, line)
        elif kind == "swap":
            k = rnd.randrange(len(lines))
            lines[i], lines[k] = lines[k], line
        elif kind == "replace":
            lines[i] = line[:j] + rnd.choice(_EDIT_CHARS) + line[j + 1 :]
        elif kind == "insert":
            lines[i] = line[:j] + rnd.choice(_EDIT_CHARS) + line[j:]
        elif kind == "truncate":
            lines[i] = line[:j]
    return "\n".join(lines)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_mutated_map_and_corpus_parse_or_raise_their_format_errors(synth_small, rnd):
    """Edited lines of a formatted synth map and corpus never escape as another exception."""
    maps, corpus = synth_small
    grid = maps[min(maps)]
    paragraphs = tuple(p for p in corpus.paragraphs if p.map_id == grid.id)[:3]
    try:
        parse_map(_mutate(format_map(grid), rnd))
    except (MapFormatError, MapValidationError):
        pass
    try:
        parse_corpus(_mutate(format_corpus(replace(corpus, paragraphs=paragraphs)), rnd))
    except CorpusFormatError:
        pass
