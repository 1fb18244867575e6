import io
import json
import sys
from collections import Counter
from datetime import timezone

import pytest

from identminer.ingest import (ParseFailure, Tweet, UserRecord, dedupe_latest,
                               load_users, parse_timestamp, parse_user_line)

from helpers import iso, make_user, tweet_payload, user_payload


def load_all(payloads, missingness=None):
    lines = "\n".join(p if isinstance(p, str) else json.dumps(p)
                      for p in payloads)
    return list(load_users(io.StringIO(lines + "\n"), missingness))


def same(record):
    """The dedupe_latest projection that keeps the whole record."""
    return record


def test_parse_timestamp_accepts_z_suffix():
    parsed = parse_timestamp("2024-06-01T12:00:00Z")
    assert parsed.tzinfo == timezone.utc
    assert parsed == parse_timestamp("2024-06-01T12:00:00+00:00")


def test_parse_timestamp_normalizes_offsets():
    parsed = parse_timestamp("2024-06-01T14:00:00+02:00")
    assert parsed.hour == 12
    assert parsed.utcoffset().total_seconds() == 0


def test_parse_timestamp_assumes_utc_when_naive():
    assert parse_timestamp("2024-06-01T12:00:00").tzinfo == timezone.utc


def test_minimal_record_parses():
    record = parse_user_line(json.dumps(user_payload("u1")), 1)
    assert isinstance(record, UserRecord)
    assert record.user_id == "u1"
    assert record.tweets == []
    assert record.profile.statuses_count == 0
    assert record.profile.followers_count == 0


def test_tweets_sorted_newest_first():
    payload = user_payload("u1", tweets=(
        tweet_payload("oldest", hours=-30),
        tweet_payload("newest", hours=-1),
        tweet_payload("middle", hours=-10),
    ))
    record = parse_user_line(json.dumps(payload), 1)
    assert [t.text for t in record.tweets] == ["newest", "middle", "oldest"]
    # tweets with the same created_at keep their input order
    payload = user_payload("u1", tweets=(
        tweet_payload("tie-a", hours=-5),
        tweet_payload("new", hours=-1),
        tweet_payload("tie-b", hours=-5),
        tweet_payload("old", hours=-9),
        tweet_payload("tie-c", hours=-5),
    ))
    record = parse_user_line(json.dumps(payload), 1)
    assert [t.text for t in record.tweets] == [
        "new", "tie-a", "tie-b", "tie-c", "old"]


def test_parsed_tweet_fields():
    payload = user_payload("u1", tweets=(
        tweet_payload("full", hours=-2, source_app="Twitter Web App",
                      has_image=True, has_url=False, mentions_user=True,
                      geotagged=True),
        {"text": "bare", "created_at": "2024-06-01T13:00:00+02:00"},
    ))
    counter = Counter()
    # newest first: bare is an hour old, full two
    bare, full = parse_user_line(json.dumps(payload), 1, counter).tweets
    assert full == Tweet(text="full", source_app="Twitter Web App",
                         created_at=parse_timestamp(iso(-2)), has_image=True,
                         has_url=False, mentions_user=True, geotagged=True)
    assert (full.text, full.source_app, full.created_at, full.has_image,
            full.has_url, full.mentions_user, full.geotagged) == (
        "full", "Twitter Web App", parse_timestamp(iso(-2)), True, False,
        True, True)
    assert bare == Tweet("bare", "", parse_timestamp("2024-06-01T11:00:00Z"))
    assert bare.created_at.tzinfo == timezone.utc
    assert not (bare.has_image or bare.has_url or bare.mentions_user
                or bare.geotagged)
    assert {key: n for key, n in counter.items() if key.startswith("tweet.")} \
        == {"tweet.source_app": 1, "tweet.has_image": 1, "tweet.has_url": 1,
            "tweet.mentions_user": 1, "tweet.geotagged": 1}
    # a named tuple: immutable, and equal to the plain tuple of its fields
    with pytest.raises(AttributeError):
        full.text = "x"
    assert tuple(bare) == ("bare", "", bare.created_at, False, False, False,
                           False)


def test_missing_optionals_default_and_count():
    counter = Counter()
    payload = {"user_id": "u1", "snapshot_time": iso()}
    record = parse_user_line(json.dumps(payload), 1, counter)
    assert record.name == "" and record.description == ""
    assert counter["name"] == 1
    assert counter["description"] == 1
    assert counter["tweets"] == 1
    assert counter["profile"] == 1


def test_bad_records_become_failures_not_exceptions():
    bad = [
        "{not json",
        json.dumps(["not", "an", "object"]),
        json.dumps({"snapshot_time": iso()}),            # no user_id
        json.dumps({"user_id": "u1"}),                   # no snapshot_time
        json.dumps(user_payload("u2", tweets=({"text": 5, "created_at": iso()},))),
    ]
    results = load_all(bad)
    assert all(isinstance(r, ParseFailure) for r in results)
    assert [r.line_no for r in results] == [1, 2, 3, 4, 5]


def test_negative_counts_rejected():
    payload = user_payload("u1", profile={"statuses_count": -3})
    assert isinstance(parse_user_line(json.dumps(payload), 1), ParseFailure)
    payload = user_payload("u1", profile={"followers_count": -1})
    assert isinstance(parse_user_line(json.dumps(payload), 1), ParseFailure)


@pytest.mark.parametrize("field", ["followers_count", "statuses_count"])
@pytest.mark.parametrize("value", ["1e400", "Infinity", "-Infinity", "NaN"])
def test_non_finite_counts_become_failures(field, value):
    # json.loads reads all four as floats that int() cannot convert
    line = json.dumps(user_payload("u1", profile={field: "VALUE"}))
    line = line.replace('"VALUE"', value)
    result = parse_user_line(line, 7)
    assert isinstance(result, ParseFailure)
    assert result.line_no == 7


@pytest.mark.parametrize("field", ["followers_count", "statuses_count"])
@pytest.mark.parametrize("literal", [
    "9" * 401,
    str(int(sys.float_info.max) + 1),
    "9" * 5000,  # past Python's int conversion limit of 4300 digits
], ids=["401_digits", "float_max_plus_1", "5000_digits"])
def test_counts_too_large_for_a_float_become_failures(field, literal):
    # the behavioral statistics and the name model take float(count)
    line = json.dumps(user_payload("u1", profile={field: "VALUE"}))
    result = parse_user_line(line.replace('"VALUE"', literal), 7)
    assert isinstance(result, ParseFailure)
    assert result.line_no == 7


@pytest.mark.parametrize("field", ["followers_count", "statuses_count"])
def test_largest_float_sized_count_parses(field):
    count = int(sys.float_info.max)
    line = json.dumps(user_payload("u1", profile={field: count}))
    result = parse_user_line(line, 1)
    assert isinstance(result, UserRecord)
    assert getattr(result.profile, field) == count


@pytest.mark.parametrize("line", ["[" * 100000, "[" * 100000 + "]" * 100000,
                                  '{"a":' * 100000],
                         ids=["unclosed_arrays", "closed_arrays", "objects"])
def test_deeply_nested_json_becomes_a_failure(line):
    # nesting past the decoder's recursion limit raises RecursionError
    result = parse_user_line(line, 3)
    assert isinstance(result, ParseFailure)
    assert result.line_no == 3
    assert result.reason.startswith("bad JSON: ")


def _with_field(where: str, key: str, value) -> dict:
    """A valid one-tweet record with one field of the user, its profile or
    its tweet set to value."""
    payload = user_payload("u1", tweets=(tweet_payload(),))
    target = {"user": payload, "profile": payload["profile"],
              "tweet": payload["tweets"][0]}[where]
    target[key] = value
    return payload


@pytest.mark.parametrize("where,key,value,reason", [
    ("tweet", "has_image", "false", "tweet.has_image must be true or false"),
    ("tweet", "has_url", 0, "tweet.has_url must be true or false"),
    ("tweet", "mentions_user", None,
     "tweet.mentions_user must be true or false"),
    ("tweet", "geotagged", [], "tweet.geotagged must be true or false"),
    ("profile", "geo_enabled", "no", "profile.geo_enabled must be true or false"),
    ("profile", "has_profile_url", 1,
     "profile.has_profile_url must be true or false"),
    ("profile", "has_custom_image", None,
     "profile.has_custom_image must be true or false"),
    ("profile", "statuses_count", "12", "statuses_count must be an integer"),
    ("profile", "statuses_count", True, "statuses_count must be an integer"),
    ("profile", "statuses_count", 12.0, "statuses_count must be an integer"),
    ("profile", "followers_count", 3.9, "followers_count must be an integer"),
    ("profile", "followers_count", None, "followers_count must be an integer"),
    ("user", "name", 5, "name must be a string or null"),
    ("user", "description", ["x"], "description must be a string or null"),
    ("tweet", "source_app", 7, "tweet.source_app must be a string or null"),
])
def test_mistyped_fields_become_failures_naming_the_field(where, key, value,
                                                          reason):
    result = parse_user_line(json.dumps(_with_field(where, key, value)), 4)
    assert result == ParseFailure(4, reason)


@pytest.mark.parametrize("where,key,missing", [
    ("user", "name", "name"),
    ("user", "description", "description"),
    ("tweet", "source_app", "tweet.source_app"),
])
def test_null_text_fields_count_as_missing(where, key, missing):
    counter = Counter()
    result = parse_user_line(json.dumps(_with_field(where, key, None)), 1,
                             counter)
    assert isinstance(result, UserRecord)
    assert counter[missing] == 1
    assert (result.tweets[0].source_app if where == "tweet"
            else getattr(result, key)) == ""


def test_account_created_after_snapshot_rejected():
    payload = user_payload("u1", hours=0,
                           profile={"account_created_at": iso(hours=5)})
    assert isinstance(parse_user_line(json.dumps(payload), 1), ParseFailure)


def test_failures_plus_records_equal_line_count():
    payloads = [user_payload("u1"), "", "oops", user_payload("u2"), "   "]
    results = load_all(payloads)
    assert len(results) == 5
    records = [r for r in results if isinstance(r, UserRecord)]
    failures = [r for r in results if isinstance(r, ParseFailure)]
    assert len(records) == 2 and len(failures) == 3


def test_load_users_accepts_bytes_and_flags_bad_utf8():
    stream = io.BytesIO(
        json.dumps(user_payload("u1")).encode("utf-8") + b"\n\xff\xfe\n")
    results = list(load_users(stream))
    assert isinstance(results[0], UserRecord)
    assert isinstance(results[1], ParseFailure)
    assert "UTF-8" in results[1].reason


def test_dedupe_latest_keeps_newest_snapshot():
    records = [make_user("u1", hours=0), make_user("u1", hours=5),
               make_user("u2", hours=1)]
    kept = dedupe_latest(records, same)
    assert set(kept) == {"u1", "u2"}
    assert kept["u1"].snapshot_time == records[1].snapshot_time


def test_dedupe_latest_tie_prefers_later_position():
    first = make_user("u1", description="first", hours=0)
    second = make_user("u1", description="second", hours=0)
    assert dedupe_latest([first, second], same)["u1"].description == "second"
    assert dedupe_latest([second, first], same)["u1"].description == "first"


def test_dedupe_latest_is_idempotent(rng):
    records = [make_user(f"u{rng.randrange(10)}", hours=rng.randrange(100))
               for _ in range(200)]
    once = dedupe_latest(records, same)
    twice = dedupe_latest(once.values(), same)
    assert once == twice
    assert set(once) == {r.user_id for r in records}


def test_missingness_counter_accumulates():
    counter = Counter()
    load_all([user_payload("u1"),
              {"user_id": "u2", "snapshot_time": iso()}], counter)
    assert counter["name"] == 1
    # the fully-populated payload contributes tweet/profile key gaps too
    assert counter["profile.statuses_count"] >= 1
