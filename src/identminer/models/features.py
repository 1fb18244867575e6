"""Feature extraction: bag-of-words vocab and sparse count rows over the
tweets of a user's record, and import of externally computed per-user
embeddings.

Each user's tweets become a word Counter (user_word_counts): the words of
the whitespace-separated chunks of the record's tweet texts, read off a
textprep.ChunkTable (word_chunks) that the run shares, so each distinct
chunk is scanned once while it stays in the table. The vocabulary and the
count rows are both built from those counters. A count row is a pair of
arrays, the sorted vocab indices of the user's words and their float64
counts; unigram.stack_rows joins many into one CSR matrix."""
from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable

import numpy as np

from ..ingest import UserRecord
from ..textprep import ChunkTable, chunk_words
from ..util import decimal_float, read_rows

# width of an externally computed user embedding row
EMBEDDING_DIM = 768


def word_chunks() -> ChunkTable:
    """An empty table of each chunk's word and contraction texts
    (textprep.chunk_words) for user_word_counts; a plain chunk's tuple is
    its one word (zip)."""
    return ChunkTable(chunk_words, zip)


def user_word_counts(user: UserRecord, chunks: ChunkTable) -> Counter[str]:
    """Word and contraction token counts over the record's tweets, in token
    order, read off the word_chunks table chunks."""
    return Counter(chain.from_iterable(chunks.values(" ".join(
        [tweet.text for tweet in user.tweets]).split())))


def build_vocab(word_counts: Iterable[Counter], min_count: int,
                stopwords: frozenset[str]) -> dict[str, int]:
    """Non-stopwords occurring at least min_count times across the dev users'
    word counts, indexed in lexicographic order."""
    counts: Counter[str] = Counter()
    for user_counts in word_counts:
        counts.update(user_counts)
    kept = sorted(word for word, count in counts.items()
                  if count >= min_count and word not in stopwords)
    return {word: i for i, word in enumerate(kept)}


def featurize_user(word_counts: Counter, vocab: dict[str, int]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The count row of one user's word counts: the sorted vocab indices of
    the words in the vocabulary (int64) and their counts (float64); words
    outside the vocabulary are dropped."""
    by_col = {vocab[word]: count for word, count in word_counts.items()
              if word in vocab}
    cols = sorted(by_col)
    return (np.array(cols, dtype=np.int64),
            np.array([by_col[col] for col in cols], dtype=np.float64))


def read_embeddings(path) -> dict[str, np.ndarray]:
    """user_id<TAB>floats rows (ASCII decimal floats, see
    util.decimal_float, separated by tabs or by runs of ASCII spaces); a
    row without EMBEDDING_DIM finite values or with a repeated user id is a
    ValueError naming its line."""
    return dict(read_rows(path, _embedding_row, unique="user id"))


def _embedding_row(fields: list[str]) -> tuple[str, np.ndarray]:
    user_id, values = fields[0], fields[1:]
    if len(values) == 1:
        # runs of ASCII spaces only: other whitespace stays in a value, which
        # is then no decimal number
        values = [value for value in values[0].split(" ") if value]
    if len(values) != EMBEDDING_DIM:
        raise ValueError(f"expected {EMBEDDING_DIM} floats, got {len(values)}")
    row = np.array([decimal_float(v, "value") for v in values],
                   dtype=np.float64)
    if not np.isfinite(row).all():
        raise ValueError("values must be finite")
    return user_id, row
