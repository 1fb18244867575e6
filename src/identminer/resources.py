"""Loaders for the bundled data files (tag lexicon, word lists, bigram
blocklist). Every loader accepts an explicit path override; without one it
reads the packaged copy and caches it."""
from __future__ import annotations

from functools import lru_cache
from importlib import resources as importlib_resources

from .textprep import TagLexicon

_PACKAGE = "identminer.data"


def _packaged(name: str):
    return importlib_resources.files(_PACKAGE).joinpath(name)


def _read_lines(source) -> list[str]:
    if hasattr(source, "read_text"):
        text = source.read_text(encoding="utf-8")
    else:
        with open(source, encoding="utf-8") as handle:
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
def load_stopwords(path=None) -> frozenset[str]:
    return load_wordlist(path or _packaged("stopwords.txt"))


@lru_cache(maxsize=None)
def load_contractions(path=None) -> frozenset[str]:
    return load_wordlist(path or _packaged("contractions.txt"))


@lru_cache(maxsize=None)
def load_colors(path=None) -> frozenset[str]:
    return load_wordlist(path or _packaged("colors.txt"))


@lru_cache(maxsize=None)
def load_bigram_blocklist(path=None) -> frozenset[tuple[str, str]]:
    pairs = []
    for line in _read_lines(path or _packaged("bigram_blocklist.txt")):
        parts = line.lower().split()
        if len(parts) != 2:
            raise ValueError(f"blocklist entry {line!r} is not a bigram")
        pairs.append((parts[0], parts[1]))
    return frozenset(pairs)


@lru_cache(maxsize=None)
def load_tag_lexicon(path=None) -> TagLexicon:
    source = path or _packaged("tag_lexicon.tsv")
    if hasattr(source, "read_text"):
        with importlib_resources.as_file(source) as real_path:
            return TagLexicon.from_tsv(real_path)
    return TagLexicon.from_tsv(source)
