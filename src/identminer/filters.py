"""Racial-keyword query matching, class assignment, the four false-positive
filters (color co-occurrence, plural successor, bigram blocklist, quoted
span), and the person-keyword bigram matcher behind the QB dataset. Each
filter returns True when it rejects the match.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .textprep import PLURAL_TAGS, TaggedToken
from .util import Sentinel


class ClassLabel(Enum):
    WHITE = "W"
    BLACK = "B"
    HISPANIC_LATINX = "HL"
    ASIAN = "A"

    @classmethod
    def from_code(cls, code: str) -> "ClassLabel":
        for label in cls:
            if label.value == code:
                return label
        raise ValueError(f"unknown class code {code!r}")


# fixed order used for tie-breaks, vectors, and confusion matrices
CLASS_ORDER: tuple[ClassLabel, ...] = (
    ClassLabel.WHITE, ClassLabel.BLACK, ClassLabel.HISPANIC_LATINX, ClassLabel.ASIAN,
)

DEFAULT_QUERY_MAP: dict[str, ClassLabel] = {
    "black": ClassLabel.BLACK,
    "african-american": ClassLabel.BLACK,
    "white": ClassLabel.WHITE,
    "caucasian": ClassLabel.WHITE,
    "asian": ClassLabel.ASIAN,
    "hispanic": ClassLabel.HISPANIC_LATINX,
    "latin": ClassLabel.HISPANIC_LATINX,
    "latina": ClassLabel.HISPANIC_LATINX,
    "latino": ClassLabel.HISPANIC_LATINX,
    "latinx": ClassLabel.HISPANIC_LATINX,
}

PERSON_KEYWORDS = frozenset(
    {"man", "woman", "person", "individual", "guy", "gal", "boy", "girl"})

FILTER_NAMES = ("color", "plural", "bigram_blocklist", "quote")
# the short config name of a filter -> its FILTER_NAMES entry
FILTER_ALIASES = {"bigram": "bigram_blocklist"}


AMBIGUOUS = Sentinel("AMBIGUOUS")
NO_MATCH = Sentinel("NO_MATCH")


@dataclass(frozen=True)
class QueryMatch:
    keyword: str
    label: ClassLabel
    token_index: int
    char_span: tuple[int, int]


def enabled_filters(names: Iterable[str]) -> tuple[str, ...]:
    """The named filters as FILTER_NAMES entries, in chain order. A
    FILTER_ALIASES name stands for its entry; blank names are skipped, and
    any other name selects nothing (the CLI config rules reject it)."""
    chosen = {FILTER_ALIASES.get(name.strip(), name.strip()) for name in names}
    return tuple(name for name in FILTER_NAMES if name in chosen)


def find_query_matches(tagged: Sequence[TaggedToken]) -> list[QueryMatch]:
    """Whole-token keyword matches, one QueryMatch per occurrence."""
    matches = []
    for i, tt in enumerate(tagged):
        label = DEFAULT_QUERY_MAP.get(tt.token.text)
        if label is not None:
            matches.append(QueryMatch(tt.token.text, label, i, tt.token.char_span))
    return matches


def assign_class(matches: Sequence[QueryMatch]):
    """The single shared label, or NO_MATCH / AMBIGUOUS sentinels."""
    labels = {match.label for match in matches}
    if not labels:
        return NO_MATCH
    if len(labels) > 1:
        return AMBIGUOUS
    return next(iter(labels))


def color_filter(tagged: Sequence[TaggedToken], match: QueryMatch,
                 colors: frozenset[str]) -> bool:
    """True when a color word other than the query occurrence itself appears
    anywhere in the description."""
    return any(tt.token.kind == "word" and tt.token.text in colors
               for i, tt in enumerate(tagged) if i != match.token_index)


def plural_filter(tagged: Sequence[TaggedToken], match: QueryMatch) -> bool:
    """True when the token right after the query is a plural noun."""
    nxt = match.token_index + 1
    return nxt < len(tagged) and tagged[nxt].pos in PLURAL_TAGS


def blocklist_bigram_filter(tagged: Sequence[TaggedToken], match: QueryMatch,
                            blocklist: frozenset[tuple[str, str]]) -> bool:
    """True when (query, next token) or (previous token, query) is a
    blocklisted bigram. Both sides are checked."""
    i = match.token_index
    return ((i + 1 < len(tagged)
             and (match.keyword, tagged[i + 1].token.text) in blocklist)
            or (i > 0
                and (tagged[i - 1].token.text, match.keyword) in blocklist))


_QUOTE_FAMILIES = (('"', '"'), ("“", "”"))


def _quoted_spans(raw_text: str) -> list[tuple[int, int]]:
    """Balanced quote spans, pairing each opener with the next closer of the
    same family, left to right. Straight quotes pair consecutively; an
    unbalanced trailing quote never forms a span."""
    spans = []
    for opener, closer in _QUOTE_FAMILIES:
        if opener == closer:
            positions = [i for i, ch in enumerate(raw_text) if ch == opener]
            for a, b in zip(positions[0::2], positions[1::2]):
                spans.append((a, b))
        else:
            closers = [i for i, ch in enumerate(raw_text) if ch == closer]
            used = set()
            for a in (i for i, ch in enumerate(raw_text) if ch == opener):
                nxt = next((b for b in closers if b > a and b not in used), None)
                if nxt is not None:
                    used.add(nxt)
                    spans.append((a, nxt))
    return spans


def quote_filter(raw_text: str, match: QueryMatch) -> bool:
    """True when the query occurrence lies inside a balanced quote pair."""
    start, end = match.char_span
    return any(a < start and end - 1 < b for a, b in _quoted_spans(raw_text))


def person_bigram_match(tagged: Sequence[TaggedToken], match: QueryMatch) -> bool:
    """True iff the token right after the query is a person keyword."""
    nxt = match.token_index + 1
    return nxt < len(tagged) and tagged[nxt].token.text in PERSON_KEYWORDS


def apply_filter_chain(tagged: Sequence[TaggedToken], raw_text: str,
                       match: QueryMatch, filters: tuple[str, ...],
                       colors: frozenset[str],
                       blocklist: frozenset[tuple[str, str]]
                       ) -> tuple[str, ...]:
    """The names of the enabled filters that reject the match, in chain
    order; empty when it passes. Every enabled filter runs once, so the same
    evaluation tells both the first rejection and whether each filter alone
    would reject the match."""
    verdicts = (
        ("color", "color" in filters and color_filter(tagged, match, colors)),
        ("plural", "plural" in filters and plural_filter(tagged, match)),
        ("bigram_blocklist", "bigram_blocklist" in filters
         and blocklist_bigram_filter(tagged, match, blocklist)),
        ("quote", "quote" in filters and quote_filter(raw_text, match)),
    )
    return tuple(name for name, rejects in verdicts if rejects)
