"""Loaders for the bundled data files (tag lexicon, word lists, bigram
blocklist), each read from the package's data directory once and cached.
The tag lexicon, color and blocklist loaders also take the path of a user's
file in its place."""
from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .textprep import TagLexicon

_DATA = Path(__file__).parent / "data"


def _read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def load_wordlist(path) -> frozenset[str]:
    return frozenset(line.lower() for line in _read_lines(path))


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
    pairs = []
    for line in _read_lines(path or _DATA / "bigram_blocklist.txt"):
        parts = line.lower().split()
        if len(parts) != 2:
            raise ValueError(f"blocklist entry {line!r} is not a bigram")
        pairs.append((parts[0], parts[1]))
    return frozenset(pairs)


@lru_cache(maxsize=None)
def load_tag_lexicon(path=None) -> TagLexicon:
    return TagLexicon.from_tsv(path or _DATA / "tag_lexicon.tsv")
