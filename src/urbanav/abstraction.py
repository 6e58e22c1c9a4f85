"""Entity abstraction: detect map-name mentions and swap them for typed variables.

Matching is lexicon-exact after lowercasing and possessive/apostrophe
stripping; there is no fuzzy matching. Variables look like ``<STREET_1>``,
numbered per type within a sentence in left-to-right order, and repeat
mentions of the same entity reuse their first variable.

Tokens and variables are interned (``sys.intern``), as ``corpus.parse_corpus``
interns the tokens it reads, so equal tokens across a corpus are one object.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass, field

from .worldmap import GridMap

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:['&-][a-z0-9]+)*|[^\sa-z0-9]")
_VARIABLE_RE = re.compile(r"^<([A-Z_]+)_(\d+)>$")


@dataclass(frozen=True)
class TokenizedSentence:
    tokens: tuple[str, ...]
    raw: str
    # (start, end) character offsets into raw, one per token
    offsets: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AbstractedSentence:
    tokens: tuple[str, ...]
    # ordered (variable token, grounding id), one entry per distinct entity
    bindings: tuple[tuple[str, int], ...]
    # (variable token, source token span) for every replaced span
    spans: tuple[tuple[str, tuple[int, int]], ...] = ()


def is_variable_token(token: str) -> bool:
    return _VARIABLE_RE.match(token) is not None


def parse_variable(token: str) -> tuple[str, int]:
    """('street', 2) for '<STREET_2>'."""
    m = _VARIABLE_RE.match(token)
    if not m:
        raise ValueError(f"not a variable token: {token!r}")
    return m.group(1).lower(), int(m.group(2))


def tokenize(text: str) -> TokenizedSentence:
    """Lowercases and splits off punctuation; intra-word ' & - are preserved."""
    if not text.strip():
        raise ValueError("cannot tokenize empty text")
    lowered = text.lower()
    tokens = []
    offsets = []
    for m in _TOKEN_RE.finditer(lowered):
        tokens.append(sys.intern(m.group(0)))
        offsets.append((m.start(), m.end()))
    return TokenizedSentence(tuple(tokens), text, tuple(offsets))


def _norm(token: str) -> str:
    # possessive/apostrophe stripping: macy's == macys
    return token.replace("'", "")


@dataclass
class Lexicon:
    """Name lexicon of a map: normalized token tuples to grounding ids."""

    entries: dict[tuple[str, ...], list[tuple[tuple[str, ...], int]]] = field(default_factory=dict)
    max_len: int = 0

    @classmethod
    def from_map(cls, grid: GridMap) -> "Lexicon":
        lex = cls()
        for name, gid, _etype in grid.named_groundings():
            surface = tuple(tokenize(name).tokens)
            key = tuple(_norm(t) for t in surface)
            lex.entries.setdefault(key, []).append((surface, gid))
            lex.max_len = max(lex.max_len, len(key))
        for matches in lex.entries.values():
            matches.sort(key=lambda sg: sg[1])
        return lex


def match_entities(
    sentence: TokenizedSentence | tuple[str, ...], grid: GridMap, lexicon: Lexicon | None = None
) -> list[tuple[tuple[int, int], int]]:
    """Greedy longest-match spans against the map's name lexicon.

    Returns non-overlapping (span, grounding id) pairs in left-to-right
    order. Length ties prefer the lexicon entry with more exact-surface
    token matches, then the lower grounding id.
    """
    lexicon = lexicon or Lexicon.from_map(grid)
    tokens = sentence.tokens if isinstance(sentence, TokenizedSentence) else tuple(sentence)
    normed = tuple(_norm(t) for t in tokens)
    out: list[tuple[tuple[int, int], int]] = []
    i = 0
    n = len(tokens)
    while i < n:
        hit = None
        for length in range(min(lexicon.max_len, n - i), 0, -1):
            candidates = lexicon.entries.get(normed[i : i + length])
            if not candidates:
                continue
            surface = tokens[i : i + length]
            best = max(
                candidates,
                key=lambda sg: (sum(a == b for a, b in zip(sg[0], surface)), -sg[1]),
            )
            hit = ((i, i + length), best[1])
            break
        if hit:
            out.append(hit)
            i = hit[0][1]
        else:
            i += 1
    return out


def abstract(
    sentence: TokenizedSentence | tuple[str, ...],
    matches: list[tuple[tuple[int, int], int]],
    grid: GridMap,
) -> AbstractedSentence:
    """Replaces matched spans with ``<TYPE_k>`` variables and emits bindings."""
    tokens = sentence.tokens if isinstance(sentence, TokenizedSentence) else tuple(sentence)
    last_end = 0
    for (start, end), _ in matches:
        if start < last_end:
            raise ValueError("matches overlap or are unsorted")
        last_end = end
    out: list[str] = []
    bindings: list[tuple[str, int]] = []
    spans: list[tuple[str, tuple[int, int]]] = []
    var_of: dict[int, str] = {}
    per_type: Counter[str] = Counter()
    cursor = 0
    for (start, end), gid in matches:
        out.extend(tokens[cursor:start])
        if gid in var_of:
            var = var_of[gid]
        else:
            etype = grid.grounding_type(gid).upper()
            per_type[etype] += 1
            var = sys.intern(f"<{etype}_{per_type[etype]}>")
            var_of[gid] = var
            bindings.append((var, gid))
        out.append(var)
        spans.append((var, (start, end)))
        cursor = end
    out.extend(tokens[cursor:])
    return AbstractedSentence(tuple(out), tuple(bindings), tuple(spans))


def deabstract(abstracted: AbstractedSentence, original_tokens: tuple[str, ...]) -> tuple[str, ...]:
    """Substitutes the original surface spans back; inverse of ``abstract``."""
    surfaces: dict[str, tuple[str, ...]] = {}
    for var, (start, end) in abstracted.spans:
        surfaces.setdefault(var, original_tokens[start:end])
    out: list[str] = []
    for token in abstracted.tokens:
        if token in surfaces:
            out.extend(surfaces[token])
        else:
            out.append(token)
    return tuple(out)


class Vocabulary:
    """Closed token inventory with PAD/UNK markers and stable indexing."""

    def __init__(self, tokens: list[str]):
        self.tokens = [PAD_TOKEN, UNK_TOKEN] + tokens
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @property
    def unk_id(self) -> int:
        return 1

    def encode(self, tokens) -> list[int]:
        return [self.index.get(t, self.unk_id) for t in tokens]


def vocabulary(corpora_tokens, min_count: int = 1) -> Vocabulary:
    """Builds the closed inventory from an iterable of token sequences.

    Non-variable tokens are kept at corpus frequency >= min_count; variable
    tokens are completed up to the maximum k observed per type, so every
    slot the model may emit is in-vocabulary.
    """
    counts: Counter[str] = Counter()
    max_k: dict[str, int] = {}
    for tokens in corpora_tokens:
        for t in tokens:
            if is_variable_token(t):
                etype, k = parse_variable(t)
                max_k[etype] = max(max_k.get(etype, 0), k)
            else:
                counts[t] += 1
    kept = sorted(t for t, c in counts.items() if c >= min_count)
    variables = [
        f"<{etype.upper()}_{k}>"
        for etype in sorted(max_k)
        for k in range(1, max_k[etype] + 1)
    ]
    return Vocabulary(kept + variables)
