"""Feature extraction: bag-of-words vocab and sparse count rows over a
user's recent tweets, and import of externally computed per-user
embeddings.

Each user's tweets are scanned once, into a word Counter (user_word_counts):
one regex scan of the user's newest tweet texts joined by newlines. The
vocabulary and the count rows are both built from those counters. A count
row is a pair of arrays, the sorted vocab indices of the user's words and
their float64 counts; unigram.stack_rows joins many into one CSR matrix."""
from __future__ import annotations

from collections import Counter
from typing import Iterable

import numpy as np

from ..ingest import UserRecord
from ..textprep import tweet_words
from ..util import decimal_float, read_rows

# width of an externally computed user embedding row
EMBEDDING_DIM = 768


def user_word_counts(user: UserRecord, max_tweets: int = 200) -> Counter[str]:
    """Word and contraction token counts over the user's newest max_tweets
    tweets."""
    return Counter(tweet_words(
        "\n".join([tweet.text for tweet in user.tweets[:max_tweets]])))


def build_vocab(word_counts: Iterable[Counter], min_count: int = 2,
                stopwords: frozenset[str] = frozenset()) -> dict[str, int]:
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
