"""Instruction corpora: paragraphs of aligned text, routes, and gold actions.

File format is line-delimited UTF-8 with canonical field order, so writing
a corpus after reading it reproduces the file byte for byte:

    CORPUS <version>
    PARAGRAPH <id> map=<map_id> start=(street_id,index,dir)
    INSTRUCTION <index>
    TEXT <raw sentence, single line>
    TOKENS <token> <token> ...
    ABSTRACT <token> <token> ...
    BINDINGS <VAR>=<gid>;... | -
    ROUTE (c,r);(c,r);... final=(street_id,index,dir)
    ACTIONS WALK ... END
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .abstraction import is_variable_token
from .executor import Action, Pose, Route, format_actions, parse_actions
from .worldmap import TileCoord

CORPUS_VERSION = 1

# (street id, index, direction); an index is never negative
_POSE_RE = re.compile(r"^\((-?\d+),(\d+),([+-]?1)\)$")
_TILE_RE = re.compile(r"^\((\d+),(\d+)\)$")


class CorpusFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Instruction:
    text: str
    tokens: tuple[str, ...]
    abstract_tokens: tuple[str, ...]
    bindings: tuple[tuple[str, int], ...]
    start: Pose
    route: Route
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class Paragraph:
    id: str
    map_id: str
    start: Pose
    instructions: tuple[Instruction, ...]


@dataclass(frozen=True)
class Corpus:
    paragraphs: tuple[Paragraph, ...]

    def instructions(self):
        for p in self.paragraphs:
            for instr in p.instructions:
                yield p, instr

    def for_maps(self, map_ids) -> "Corpus":
        wanted = set(map_ids)
        return Corpus(tuple(p for p in self.paragraphs if p.map_id in wanted))

    def n_instructions(self) -> int:
        return sum(len(p.instructions) for p in self.paragraphs)


def _parse_pose(text: str, where: str) -> Pose:
    m = _POSE_RE.match(text)
    if not m:
        raise CorpusFormatError(
            f"{where}: bad pose {text!r}, expected (street_id,index,+1|-1) with index >= 0"
        )
    return Pose(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def format_corpus(corpus: Corpus) -> str:
    lines = [f"CORPUS {CORPUS_VERSION}"]
    for p in corpus.paragraphs:
        lines.append(f"PARAGRAPH {p.id} map={p.map_id} start={p.start}")
        for i, instr in enumerate(p.instructions):
            lines.append(f"INSTRUCTION {i}")
            lines.append(f"TEXT {instr.text}")
            lines.append("TOKENS " + " ".join(instr.tokens))
            lines.append("ABSTRACT " + " ".join(instr.abstract_tokens))
            if instr.bindings:
                lines.append("BINDINGS " + ";".join(f"{v}={g}" for v, g in instr.bindings))
            else:
                lines.append("BINDINGS -")
            tiles = ";".join(str(t) for t in instr.route.tiles)
            lines.append(f"ROUTE {tiles} final={instr.route.final_pose}")
            lines.append("ACTIONS " + format_actions(instr.actions))
    return "\n".join(lines) + "\n"


def parse_corpus(text: str, source: str = "<string>") -> Corpus:
    lines = text.splitlines()
    pos = 0

    def fail(msg: str):
        raise CorpusFormatError(f"{source}:{pos}: {msg}")

    def next_line() -> str | None:
        nonlocal pos
        while pos < len(lines):
            pos += 1
            line = lines[pos - 1]
            if line.strip():
                return line
        return None

    def expect(prefix: str) -> str:
        line = next_line()
        if line is None or not line.startswith(prefix + " "):
            fail(f"expected {prefix} record, got {line!r}")
        return line[len(prefix) + 1 :]

    header = next_line()
    if header is None or not header.startswith("CORPUS "):
        fail("missing CORPUS header")
    if header.split() != ["CORPUS", str(CORPUS_VERSION)]:
        fail(f"unsupported corpus version in {header!r}")

    paragraphs: list[Paragraph] = []
    line = next_line()
    while line is not None:
        if not line.startswith("PARAGRAPH "):
            fail(f"expected PARAGRAPH record, got {line!r}")
        m = re.match(r"^PARAGRAPH (\S+) map=(\S+) start=(\S+)$", line)
        if not m:
            fail(f"bad PARAGRAPH record {line!r}")
        pid, map_id, start = m.group(1), m.group(2), _parse_pose(m.group(3), f"{source}:{pos}")
        instructions: list[Instruction] = []
        line = next_line()
        while line is not None and line.startswith("INSTRUCTION "):
            text_line = expect("TEXT")
            tokens = tuple(map(sys.intern, expect("TOKENS").split()))
            abstract = tuple(map(sys.intern, expect("ABSTRACT").split()))
            bindings_raw = expect("BINDINGS")
            bindings: list[tuple[str, int]] = []
            if bindings_raw.strip() != "-":
                for part in bindings_raw.split(";"):
                    var, _, gid = part.partition("=")
                    if not gid or not gid.lstrip("-").isdigit():
                        fail(f"bad binding {part!r}")
                    if not is_variable_token(var):
                        fail(f"bad binding {part!r}: {var!r} is not a <TYPE_k> variable")
                    bindings.append((sys.intern(var), int(gid)))
            route_raw = expect("ROUTE")
            m2 = re.match(r"^(\S+) final=(\S+)$", route_raw)
            if not m2:
                fail(f"bad ROUTE record {route_raw!r}")
            tiles = []
            for t in m2.group(1).split(";"):
                mt = _TILE_RE.match(t)
                if not mt:
                    fail(f"bad route tile {t!r}")
                tiles.append(TileCoord(int(mt.group(1)), int(mt.group(2))))
            final = _parse_pose(m2.group(2), f"{source}:{pos}")
            actions_raw = expect("ACTIONS")
            try:
                actions = tuple(parse_actions(actions_raw))
            except ValueError as err:
                fail(str(err))
            instructions.append(
                Instruction(
                    text=text_line,
                    tokens=tokens,
                    abstract_tokens=abstract,
                    bindings=tuple(bindings),
                    start=instructions[-1].route.final_pose if instructions else start,
                    route=Route(tuple(tiles), final),
                    actions=actions,
                )
            )
            line = next_line()
        if not instructions:
            fail(f"paragraph {pid} has no instructions")
        paragraphs.append(Paragraph(pid, map_id, start, tuple(instructions)))
    return Corpus(tuple(paragraphs))


def load_corpus(path) -> Corpus:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh.read(), source=str(path))


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_corpus(corpus))
