"""The tweet path's scans as loops over one text's reference tokens: its
word and contraction texts, and its tokens sorted by kind. Kept as the
oracle of textprep.chunk_words and chunk_tokens and of the chunk tables
built on them; nothing here is fast."""
from __future__ import annotations

from identminer.textprep import TweetTokens

from reference_description import reference_tokenize


def reference_tweet_words(text: str) -> list[str]:
    """The texts of text's word and contraction tokens, in order."""
    return [token.text for token in reference_tokenize(text)
            if token.kind in ("word", "contraction")]


def reference_tweet_tokens(text: str) -> TweetTokens:
    """The texts of text's tokens by kind, each in order, and the counts of
    its contractions and hashtags."""
    tokens = reference_tokenize(text)

    def texts(*kinds):
        return tuple(token.text for token in tokens if token.kind in kinds)
    return TweetTokens(texts("word", "contraction"), texts("url", "mention"),
                       texts("hashtag", "emoji", "punct"),
                       len(texts("contraction")), len(texts("hashtag")))
