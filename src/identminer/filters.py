"""Racial-keyword query matching, class assignment, the four false-positive
filters (color co-occurrence, plural successor, bigram blocklist, quoted
span), and the person-keyword bigram matcher behind the QB dataset. Each
filter returns True when it rejects the match.
"""
from __future__ import annotations

import functools
import re
from typing import Iterable, NamedTuple, Sequence

from .labels import (CLASS_ORDER, FILTER_ALIASES, FILTER_NAMES,  # noqa: F401
                     ClassLabel)
from .textprep import (KEYWORD_CODES, PLURAL_CODES, WORD_CODES, Tagged,
                       code_pattern, token_spans)
from .util import Sentinel

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


AMBIGUOUS = Sentinel("AMBIGUOUS")
NO_MATCH = Sentinel("NO_MATCH")


class QueryMatch(NamedTuple):
    keyword: str
    label: ClassLabel
    token_index: int
    char_span: tuple[int, int] | None  # given where the quote filter reads it


def enabled_filters(names: Iterable[str]) -> tuple[str, ...]:
    """The named filters as FILTER_NAMES entries, in chain order. A
    FILTER_ALIASES name stands for its entry; blank names are skipped, and
    any other name selects nothing (the CLI config rules reject it)."""
    chosen = {FILTER_ALIASES.get(name.strip(), name.strip()) for name in names}
    return tuple(name for name in FILTER_NAMES if name in chosen)


def find_query_matches(tagged: Tagged, text: str) -> list[QueryMatch]:
    """Whole-token keyword matches, one per occurrence: the tokens a Tagger
    given the DEFAULT_QUERY_MAP keywords codes as keywords. They carry their
    char_span in text, the description, if it holds a quote character."""
    texts = tagged.texts
    indices = [match.start() for match in
               code_pattern(KEYWORD_CODES).finditer(tagged.codes)]
    if not indices:
        return []
    spans = token_spans(text) if _has_quote(text) else [None] * len(texts)
    return [QueryMatch(texts[i], DEFAULT_QUERY_MAP[texts[i]], i, spans[i])
            for i in indices]


def assign_class(matches: Sequence[QueryMatch]):
    """The single shared label, or NO_MATCH / AMBIGUOUS sentinels."""
    labels = {match.label for match in matches}
    if not labels:
        return NO_MATCH
    if len(labels) > 1:
        return AMBIGUOUS
    return next(iter(labels))


def color_filter(tagged: Tagged, match: QueryMatch,
                 colors: frozenset[str]) -> bool:
    """True when a color word other than the query occurrence itself appears
    anywhere in the description."""
    texts, codes = tagged
    return not colors.isdisjoint(texts) and any(
        text in colors and codes[i] in WORD_CODES
        for i, text in enumerate(texts) if i != match.token_index)


def plural_filter(tagged: Tagged, match: QueryMatch) -> bool:
    """True when the token right after the query is a plural noun."""
    nxt = match.token_index + 1
    return nxt < len(tagged.codes) and tagged.codes[nxt] in PLURAL_CODES


def blocklist_bigram_filter(tagged: Tagged, match: QueryMatch,
                            blocklist: frozenset[tuple[str, str]]) -> bool:
    """True when (query, next token) or (previous token, query) is a
    blocklisted bigram. Both sides are checked."""
    i, texts = match.token_index, tagged.texts
    return ((i + 1 < len(texts)
             and (match.keyword, texts[i + 1]) in blocklist)
            or (i > 0 and (texts[i - 1], match.keyword) in blocklist))


def _has_quote(text: str) -> bool:
    return '"' in text or "“" in text


@functools.lru_cache(maxsize=1)
def _quoted_spans(raw_text: str) -> tuple[tuple[int, int], ...]:
    """Balanced quote spans, pairing each opener with the next unused closer
    of the same family, left to right: straight quotes pair consecutively,
    and an unbalanced trailing quote never forms a span. Cached for the last
    text, so the matches of one description share one computation."""
    if not _has_quote(raw_text):
        return ()
    straight, openers, closers = (
        [match.start() for match in re.finditer(quote, raw_text)]
        for quote in '"“”')
    spans = list(zip(straight[0::2], straight[1::2]))
    # openers come in order, so each takes the first closer past the last
    # one taken that lies after it
    closers = iter(closers)
    for opener in openers:
        closer = next((at for at in closers if at > opener), None)
        if closer is None:
            break
        spans.append((opener, closer))
    return tuple(spans)


def quote_filter(raw_text: str, match: QueryMatch) -> bool:
    """True when the query occurrence lies inside a balanced quote pair."""
    if match.char_span is None:
        return False
    start, end = match.char_span
    return any(a < start and end - 1 < b for a, b in _quoted_spans(raw_text))


def person_bigram_match(tagged: Tagged, match: QueryMatch) -> bool:
    """True iff the token right after the query is a person keyword."""
    nxt = match.token_index + 1
    return nxt < len(tagged.texts) and tagged.texts[nxt] in PERSON_KEYWORDS


def apply_filter_chain(tagged: Tagged, raw_text: str,
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
