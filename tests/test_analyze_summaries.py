"""analyze keeps a summary per user, made straight from the checked line
(analytics.user_summary); the record-based pass it replaced
(tests/reference_analytics.py) is the oracle: the same per-user lexical
means, word counts in the same order and behavioral rows, the same group
Counters in the same key order, and the same analyze_result.json bytes. Run
on the benchmark's planted timelines corpus, on the seeded digest fixture,
and on generated corpora with more tweets than max_tweets, ties in
created_at, users without tweets, absent flags and fields, and older and
newer snapshots of one user."""
from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identminer import analytics, cli, resources
from identminer.datasets import LabeledUser, read_dataset_tsv, write_dataset_tsv
from identminer.filters import CLASS_ORDER
from identminer.ingest import UserLine, build_record, dedupe_latest, load_users
from identminer.textprep import ChunkTable

from helpers import KEYS, default, write_jsonl
from reference_analytics import (reference_analyze,
                                 reference_behavioral_profile,
                                 reference_group_lexical_pass,
                                 reference_user_lexical_means)
from test_analytics import _bench_corpus_module
from test_model_digests import seeded_fixture

ANALYZE_KEYS = [key for key, row in KEYS.items() if "analyze" in row[2]]


def analyze_config(**given) -> tuple[dict, dict]:
    """(config, paths) of analyze: each key at its default but those given."""
    values = {key: given.get(key, default(key)) for key in ANALYZE_KEYS}
    paths = {key: value for key, value in values.items()
             if KEYS[key][1] is cli._PATH}
    return ({key: value for key, value in values.items() if key not in paths},
            paths)


def result_bytes(result: dict) -> str:
    """The analyze_result.json text of a result, as util.write_json writes
    it, less the header main adds."""
    return json.dumps(result, sort_keys=True, indent=2, allow_nan=False)


def assert_summaries_match_the_records(corpus: Path, data: Path,
                                       max_tweets: int, **given) -> None:
    config, paths = analyze_config(corpus=str(corpus), data=str(data),
                                   max_tweets=max_tweets, **given)
    with open(corpus, "rb") as handle:
        lines = dedupe_latest((line for line in load_users(handle)
                               if isinstance(line, UserLine)),
                              lambda line: line)
    stopwords = resources.load_stopwords()
    chunks = analytics.lexical_chunks(stopwords)
    reference_chunks = analytics.lexical_chunks(stopwords)
    summaries: dict = {}
    records: dict = {}
    for user in read_dataset_tsv(data):
        line = lines.get(user.user_id)
        if line is None:
            continue
        summary = analytics.user_summary(line, max_tweets, chunks)
        record = build_record(line, max_tweets)
        words = Counter()
        # per user: the lexical means, the words in order and the table rows
        assert summary.lexical == reference_user_lexical_means(
            record, reference_chunks, words), user.user_id
        assert list(summary.words.items()) == list(words.items())
        assert analytics.behavioral_profile({user.label: [summary]}) == \
            reference_behavioral_profile({user.label: [record]})
        summaries.setdefault(user.label, []).append(summary)
        records.setdefault(user.label, []).append(record)
    reference_chunks = analytics.lexical_chunks(stopwords)
    for label, group in summaries.items():
        samples, counts = analytics.group_lexical_pass(group)
        expected_samples, expected_counts = reference_group_lexical_pass(
            records[label], reference_chunks)
        assert repr(samples) == repr(expected_samples)
        assert list(counts.items()) == list(expected_counts.items())
    assert analytics.behavioral_profile(summaries) == \
        reference_behavioral_profile(records)
    assert result_bytes(cli.cmd_analyze(config, paths)["analyze_result.json"]) \
        == result_bytes(reference_analyze(config, paths))


def test_summaries_match_the_records_on_the_planted_timelines_corpus(
        tmp_path):
    # every user there has 80-120 tweets, so max_tweets 37 cuts each one
    _bench_corpus_module().generate("timelines", 3, tmp_path)
    assert_summaries_match_the_records(tmp_path / "corpus.jsonl",
                                       tmp_path / "train.tsv", 37)


@pytest.mark.parametrize("max_tweets", [default("max_tweets"), 3])
def test_summaries_match_the_records_on_the_seeded_fixture(tmp_path,
                                                          max_tweets):
    argv = seeded_fixture(tmp_path)
    corpus, data = argv[argv.index("--corpus") + 1], \
        argv[argv.index("--train-data") + 1]
    assert_summaries_match_the_records(Path(corpus), Path(data), max_tweets)


USER_IDS = ("u0", "u1", "u2", "u3", "u4")
WORDS = ("alpha", "bravo", "the", "i'm", "don't", "#tag", "#Tag", "@sam",
         "https://t.co/x", "lol", "LOL", "😀", "!!", "a-b", "ΑΣ")
# few instants, so tweets and snapshots tie; every account predates them
TWEET_TIMES = ("2024-06-01T10:00:00Z", "2024-06-01T11:00:00Z",
               "2024-06-01T12:00:00+02:00", "2024-05-30T00:00:00Z")
SNAPSHOT_TIMES = ("2024-06-01T12:00:00Z", "2024-06-01T14:00:00+02:00",
                  "2024-06-02T00:00:00Z")
ACCOUNT_TIMES = ("2024-06-01T00:00:00Z", "2023-01-15T08:30:00Z",
                 "2019-07-04T00:00:00Z")
APPS = ("Twitter for Android", "Twitter for iPhone", "Tweetbot for iOS",
        "Twitter Web App", "TweetDeck desktop", "", None)
FLAGS = ("has_image", "has_url", "mentions_user", "geotagged")

tweets = st.fixed_dictionaries(
    {"text": st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join),
     "created_at": st.sampled_from(TWEET_TIMES)},
    optional={"source_app": st.sampled_from(APPS),
              **{flag: st.booleans() for flag in FLAGS}})
profiles = st.one_of(st.none(), st.fixed_dictionaries({}, optional={
    "has_profile_url": st.booleans(), "has_custom_image": st.booleans(),
    "geo_enabled": st.booleans(), "statuses_count": st.integers(0, 10 ** 6),
    "account_created_at": st.sampled_from(ACCOUNT_TIMES),
    "followers_count": st.integers(0, 100)}))
corpus_lines = st.fixed_dictionaries(
    {"user_id": st.sampled_from(USER_IDS),
     "snapshot_time": st.sampled_from(SNAPSHOT_TIMES)},
    optional={"tweets": st.one_of(st.none(), st.lists(tweets, max_size=7)),
              "profile": profiles, "name": st.just("n"),
              "description": st.just("d")})


@settings(max_examples=120)
@given(corpus=st.lists(corpus_lines, min_size=1, max_size=12),
       labels=st.lists(st.sampled_from(CLASS_ORDER), min_size=len(USER_IDS),
                       max_size=len(USER_IDS)),
       max_tweets=st.integers(1, 5),
       sage_lambda=st.sampled_from([0.0, 0.5, 1.0]),
       limit=st.sampled_from([1, 4, ChunkTable.limit]))
def test_summaries_match_the_records_on_generated_corpora(
        tmp_path_factory, corpus, labels, max_tweets, sage_lambda, limit):
    work = tmp_path_factory.mktemp("analyze")
    path = write_jsonl(work / "corpus.jsonl", corpus)
    data = work / "data.tsv"
    write_dataset_tsv([LabeledUser(user_id=user_id, label=label,
                                   source="crowd", score=None)
                       for user_id, label in zip(USER_IDS, labels)], data)
    # small tables empty themselves mid-run; the summaries fill theirs in
    # corpus order, the records in group order
    saved = ChunkTable.limit
    ChunkTable.limit = limit
    try:
        assert_summaries_match_the_records(path, data, max_tweets,
                                           sage_lambda=sage_lambda,
                                           top_n=3, tau_ks=[2, 4])
    finally:
        ChunkTable.limit = saved
