"""Loaders for the bundled data files (tag lexicon, word lists, bigram
blocklist), each read from the package's data directory once and cached.
The tag lexicon, color and blocklist loaders also take the path of a user's
file in its place; a malformed line is a ValueError naming file and line."""
from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .util import read_rows

_DATA = Path(__file__).parent / "data"


def load_wordlist(path) -> frozenset[str]:
    """Each trimmed line, tabs and all, lowercased; blank and # lines skipped."""
    return frozenset(entry.lower()
                     for entry in read_rows(path, "\t".join, comments=True))


@lru_cache(maxsize=None)
def load_stopwords() -> frozenset[str]:
    return load_wordlist(_DATA / "stopwords.txt")


@lru_cache(maxsize=None)
def load_contractions() -> frozenset[str]:
    return load_wordlist(_DATA / "contractions.txt")


@lru_cache(maxsize=None)
def load_colors(path=None) -> frozenset[str]:
    return load_wordlist(path or _DATA / "colors.txt")


@lru_cache(maxsize=None)
def load_bigram_blocklist(path=None) -> frozenset[tuple[str, str]]:
    return frozenset(read_rows(path or _DATA / "bigram_blocklist.txt", _bigram,
                               comments=True))


def _bigram(fields: list[str]) -> tuple[str, str]:
    entry = "\t".join(fields)
    parts = entry.lower().split()
    if len(parts) != 2:
        raise ValueError(f"blocklist entry {entry!r} is not a bigram")
    return parts[0], parts[1]


@lru_cache(maxsize=None)
def load_tag_lexicon(path=None):
    from .textprep import TagLexicon  # textprep imports this module
    return TagLexicon.from_tsv(path or _DATA / "tag_lexicon.tsv")
