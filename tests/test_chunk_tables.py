"""The chunk-table word counts and lexical statistics against the per-tweet
scans they replace, over generated groups of users whose tweets share
chunks, with tables small enough to empty themselves mid-run."""
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from identminer.analytics import (group_lexical_pass, lexical_chunks,
                                  user_summary)
from identminer.models.features import user_word_counts, word_chunks
from identminer.textprep import ChunkTable
from identminer.util import mean

from helpers import TRICKY_PIECES, payload_line, tweet_payload, user_payload
from reference_tweet import reference_tweet_tokens, reference_tweet_words


def reference_user_word_counts(texts):
    """user_word_counts as the reference words of a user's tweet texts
    joined by newlines."""
    return Counter(reference_tweet_words("\n".join(texts)))


def reference_user_lexical_means(texts, stopwords, word_counts):
    """user_lexical_means from the reference tokens of each tweet text."""
    if not texts:
        return None
    ttr, ld, cpt, hpt = [], [], [], []
    words: list[str] = []
    for text in texts:
        word_texts, links, others, contractions, hashtags = \
            reference_tweet_tokens(text)
        n = len(word_texts) + len(links) + len(others)
        content = (len([text for text in word_texts if text not in stopwords])
                   + len([text for text in others if text not in stopwords]))
        ttr.append(len({*word_texts, *links, *others}) / n if n else 0.0)
        ld.append(content / n if n else 0.0)
        cpt.append(contractions)
        hpt.append(hashtags)
        words += word_texts
    word_counts.update(words)
    return {"ttr": mean(ttr), "ld": mean(ld), "cpt": mean(cpt), "hpt": mean(hpt)}


# chunks the users share: plain words in several cases, stopwords,
# contractions, hashtags, mentions, urls, emoji and punct-only chunks
SHARED_CHUNKS = ("the", "The", "a", "lol", "LOL", "coffee", "i'm", "I’m",
                 "don't", "#love", "#Love", "@sam", "https://t.co/x", "😀",
                 "!!", "...", "lol!", "#", "x-y", "7", "it's,", "ΑΣ")
SEPARATORS = (" ", "  ", "\t", "\n", "\xa0", "\u3000", "\x1c")

chunk = st.one_of(st.sampled_from(SHARED_CHUNKS),
                  st.sampled_from(TRICKY_PIECES),
                  st.text(max_size=4))
tweet_text = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=3).map("".join),
    st.lists(st.sampled_from(("!", "...", "?!", "-", "’")), min_size=1,
             max_size=3).map(" ".join),
    st.lists(st.tuples(st.sampled_from(SEPARATORS), chunk),
             max_size=8).map(lambda pairs: "".join(sum(pairs, ()))))
users = st.lists(st.lists(tweet_text, max_size=5), max_size=4)
run_cases = given(
    groups=st.lists(users, min_size=1, max_size=4),
    stopwords=st.sets(st.sampled_from(["the", "a", "lol", "i'm", "#love",
                                       "!!", "😀", "@sam"])),
    limit=st.sampled_from([1, 4, 16, ChunkTable.limit]))


def texts_summary(texts, table):
    """analytics.user_summary, with table, of the checked line of a user
    whose tweet texts are texts, newest first."""
    line = payload_line(user_payload("u1", tweets=tuple(
        tweet_payload(text, hours=-1.0 - k) for k, text in enumerate(texts))))
    return user_summary(line, len(texts), table)


@run_cases
@settings(max_examples=200, deadline=None)
def test_word_counts_equal_the_per_user_scan(groups, stopwords, limit):
    table = word_chunks()
    table.limit = limit
    for group in groups:
        for texts in group:
            counts = user_word_counts(texts, table)
            expected = reference_user_word_counts(texts)
            assert list(counts.items()) == list(expected.items())


@run_cases
@settings(max_examples=200, deadline=None)
def test_lexical_pass_equals_the_per_tweet_scan(groups, stopwords, limit):
    """One table for every group, as analyze runs it: the same samples to
    the last bit (repr) and the same word counts in the same order."""
    stopwords = frozenset(stopwords)
    table = lexical_chunks(stopwords)
    table.limit = limit
    for group in groups:
        samples, counts = group_lexical_pass(
            [texts_summary(texts, table) for texts in group])
        expected_counts = Counter()
        expected = [reference_user_lexical_means(texts, stopwords,
                                                 expected_counts)
                    for texts in group]
        assert repr(samples) == repr([s for s in expected if s is not None])
        assert list(counts.items()) == list(expected_counts.items())
