import copy
import io
import json
import math
import sys
from collections import Counter
from datetime import datetime, timezone
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from identminer import ingest
from identminer.ingest import (ParseFailure, UserLine, dedupe_latest,
                               load_users, newest_tweets, parse_timestamp,
                               parse_user_line, validate_user_line)
from identminer.models.namecnn import name_input

from helpers import iso, payload_line, tweet_payload, user_payload
from reference_ingest import (PROFILE_FLAGS, TWEET_FLAGS, reference_load_users,
                             reference_parse_user_line)


def load_all(payloads, missingness=None):
    lines = "\n".join(p if isinstance(p, str) else json.dumps(p)
                      for p in payloads)
    return list(load_users(io.BytesIO((lines + "\n").encode("utf-8")),
                           missingness))


def same(line):
    """The dedupe_latest projection that keeps the whole line."""
    return line


def texts(line, max_tweets: int) -> list[str]:
    """The texts of a line's newest max_tweets tweets, newest first."""
    return [tweet["text"] for _, tweet in newest_tweets(line, max_tweets)]


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


def reference_parse_timestamp(raw):
    """parse_timestamp as it was before its fast path, the way Python 3.10
    runs it: every Z or z respelled +00:00."""
    if not isinstance(raw, str):
        raise ValueError("timestamp must be a string")
    text = raw.strip().replace("Z", "+00:00").replace("z", "+00:00")
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


def outcome(parse, raw):
    """The value, its offset and whether its tzinfo is timezone.utc; or the
    exception's type and message."""
    try:
        value = parse(raw)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return value, value.utcoffset(), value.tzinfo is timezone.utc


# pieces of timestamps: the canonical form and the ones next to it, other
# offsets and separators, surrounding and inner whitespace, a lowercase z, a
# second Z, impossible dates and times, and the first instant whose UTC
# conversion overflows
STAMP_PIECES = ("2024-06-01", "T", " ", "12:00:00", ".5", ".123456", "Z",
                "z", "+00:00", "+01:00", "-05:30", "+0530", "\t", "\n",
                "\xa0", "2024-02-30", "24:00:00", "12:60:00", "0001-01-01",
                "00:00:00", "9999-12-31", "23:59:59", "2024-W01-1", "20240601",
                "120000", ",5", "Zz", "+00", "x")


# the parts of a timestamp in order, each a choice of spellings
STAMP_PARTS = (("2024-06-01", "0001-01-01", "9999-12-31", "2024-02-30",
                "2024-13-01"),
               ("T", " ", "z", "Z", "t"),
               ("12:00:00", "00:00:00", "23:59:59", "24:00:00"),
               ("", ".5", ".123456", ".1234567"),
               ("Z", "z", "", "+01:00", "-01:00", " Z"),
               ("", " ", "\n"))


def picks(choices, picked: bytes) -> str:
    """For each byte of picked, the entry of the next tuple of choices that
    the byte names, joined."""
    return "".join(choice[byte % len(choice)]
                   for choice, byte in zip(choices, picked))


# each example is one draw: a byte string naming its pieces or parts, or text
@given(st.one_of(
    st.binary(max_size=7).map(lambda picked: picks(repeat(STAMP_PIECES),
                                                    picked)),
    st.binary(min_size=6, max_size=6).map(lambda picked: picks(
        STAMP_PARTS, picked)),
    st.text(max_size=30)))
@settings(max_examples=1500)
def test_parse_timestamp_equals_the_respelling_parser(raw):
    assert outcome(parse_timestamp, raw) == \
        outcome(reference_parse_timestamp, raw)


def test_parse_timestamp_fast_path_cases():
    for raw in ("2024-06-01T12:00:00Z", "2024-06-01T12:00:00.123456Z",
                " 2024-06-01T12:00:00Z", "2024-06-01T12:00:00z",
                "2024-06-01T14:00:00+02:00", "2024-06-01Z12:00:00Z",
                "2024-06-01z12:00:00Z",
                "2024-02-30T12:00:00Z", "0001-01-01T00:00:00Z"):
        assert outcome(parse_timestamp, raw) == \
            outcome(reference_parse_timestamp, raw), raw
    with pytest.raises(OverflowError):
        parse_timestamp("0001-01-01T00:00:00+01:00")
    # Python 3.10 reads no Z: the fast path is off there, decided once
    assert ingest._FROMISOFORMAT_TAKES_Z is (sys.version_info >= (3, 11))


def test_line_carries_the_checked_name_and_profile():
    profile = {"statuses_count": 3, "followers_count": 7,
               "geo_enabled": True, "account_created_at": iso(-5)}
    line = validate_user_line(json.dumps(user_payload(
        "u1", name="Ann", profile=profile)), 1)
    assert UserLine._fields == (
        "user_id", "snapshot_time", "name", "description", "tweets",
        "tweet_times", "profile", "account_created_at")
    assert line.name == "Ann"
    assert line.profile == profile
    assert line.account_created_at == parse_timestamp(iso(-5))
    # a named tuple: immutable
    with pytest.raises(AttributeError):
        line.name = "x"


def test_minimal_record_parses():
    line = validate_user_line(json.dumps(user_payload("u1")), 1)
    assert isinstance(line, UserLine)
    assert line.user_id == "u1"
    assert line.tweets == [] and line.tweet_times == []
    assert line.profile == {} and line.account_created_at is None


def test_tweets_sorted_newest_first():
    payload = user_payload("u1", tweets=(
        tweet_payload("oldest", hours=-30),
        tweet_payload("newest", hours=-1),
        tweet_payload("middle", hours=-10),
    ))
    line = validate_user_line(json.dumps(payload), 1)
    assert texts(line, 3) == ["newest", "middle", "oldest"]
    # the line keeps its tweets in file order
    assert [tweet["text"] for tweet in line.tweets] == [
        "oldest", "newest", "middle"]
    # tweets with the same created_at keep their input order
    payload = user_payload("u1", tweets=(
        tweet_payload("tie-a", hours=-5),
        tweet_payload("new", hours=-1),
        tweet_payload("tie-b", hours=-5),
        tweet_payload("old", hours=-9),
        tweet_payload("tie-c", hours=-5),
    ))
    line = validate_user_line(json.dumps(payload), 1)
    assert texts(line, 5) == ["new", "tie-a", "tie-b", "tie-c", "old"]


def test_newest_tweets_gives_the_newest_max_tweets_ties_in_file_order():
    line = payload_line(user_payload("u1", tweets=(
        tweet_payload("old", hours=-5.0), tweet_payload("tie a", hours=-1.0),
        tweet_payload("new", hours=-0.5), tweet_payload("tie b", hours=-1.0))))
    assert texts(line, 4) == texts(line, 10) == ["new", "tie a", "tie b",
                                                 "old"]
    assert texts(line, 2) == ["new", "tie a"]
    assert texts(line, 0) == []


def test_parsed_tweet_fields():
    full = tweet_payload("full", hours=-2, source_app="Twitter Web App",
                         has_image=True, has_url=False, mentions_user=True,
                         geotagged=True)
    bare = {"text": "bare", "created_at": "2024-06-01T13:00:00+02:00"}
    counter = Counter()
    line = validate_user_line(json.dumps(user_payload("u1", tweets=(
        full, bare))), 1, counter)
    # the checked objects in file order, each with its parsed created_at
    assert line.tweets == [full, bare]
    assert line.tweet_times == [parse_timestamp(iso(-2)),
                                parse_timestamp("2024-06-01T11:00:00Z")]
    assert all(created.tzinfo == timezone.utc for created in line.tweet_times)
    # newest first: bare is an hour old, full two
    assert newest_tweets(line, 2) == [(line.tweet_times[1], bare),
                                      (line.tweet_times[0], full)]
    assert {key: n for key, n in counter.items() if key.startswith("tweet.")} \
        == {"tweet.source_app": 1, "tweet.has_image": 1, "tweet.has_url": 1,
            "tweet.mentions_user": 1, "tweet.geotagged": 1}


def test_missing_optionals_default_and_count():
    counter = Counter()
    payload = {"user_id": "u1", "snapshot_time": iso()}
    line = validate_user_line(json.dumps(payload), 1, counter)
    assert line.name == "" and line.description == ""
    assert line.tweets == [] and line.profile == {}
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


@pytest.mark.parametrize("user_id", ["v1\tA\t\tsurvey\nv2", "a\tb", "a\nb",
                                     "a\rb", "\t", "a\r\n"])
def test_user_id_with_a_tab_or_line_break_is_a_failure(user_id):
    """A dataset row is user_id<TAB>...<LF>, so such an id could forge rows."""
    result = validate_user_line(json.dumps(user_payload(user_id)), 1)
    assert result == ParseFailure(1, "user_id contains a tab or line break")


@pytest.mark.parametrize("user_id", ["a b", "a\u2028b", "a\x0bb", "a\x85b"])
def test_user_id_with_other_whitespace_parses(user_id):
    line = validate_user_line(json.dumps(user_payload(user_id)), 1)
    assert line.user_id == user_id


def test_negative_counts_rejected():
    payload = user_payload("u1", profile={"statuses_count": -3})
    assert isinstance(validate_user_line(json.dumps(payload), 1), ParseFailure)
    payload = user_payload("u1", profile={"followers_count": -1})
    assert isinstance(validate_user_line(json.dumps(payload), 1), ParseFailure)


@pytest.mark.parametrize("field", ["followers_count", "statuses_count"])
@pytest.mark.parametrize("value", ["1e400", "Infinity", "-Infinity", "NaN"])
def test_non_finite_counts_become_failures(field, value):
    # json.loads reads all four as floats that int() cannot convert
    line = json.dumps(user_payload("u1", profile={field: "VALUE"}))
    line = line.replace('"VALUE"', value)
    result = validate_user_line(line, 7)
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
    result = validate_user_line(line.replace('"VALUE"', literal), 7)
    assert isinstance(result, ParseFailure)
    assert result.line_no == 7


@pytest.mark.parametrize("field", ["followers_count", "statuses_count"])
def test_largest_float_sized_count_parses(field):
    count = int(sys.float_info.max)
    line = json.dumps(user_payload("u1", profile={field: count}))
    result = validate_user_line(line, 1)
    assert isinstance(result, UserLine)
    assert result.profile[field] == count


@pytest.mark.parametrize("line", ["[" * 100000, "[" * 100000 + "]" * 100000,
                                  '{"a":' * 100000],
                         ids=["unclosed_arrays", "closed_arrays", "objects"])
def test_deeply_nested_json_becomes_a_failure(line):
    # nesting past the decoder's recursion limit raises RecursionError
    result = validate_user_line(line, 3)
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
    result = validate_user_line(json.dumps(_with_field(where, key, value)), 4)
    assert result == ParseFailure(4, reason)


@pytest.mark.parametrize("where,key,missing", [
    ("user", "name", "name"),
    ("user", "description", "description"),
    ("tweet", "source_app", "tweet.source_app"),
])
def test_null_text_fields_count_as_missing(where, key, missing):
    counter = Counter()
    result = validate_user_line(json.dumps(_with_field(where, key, None)), 1,
                                counter)
    assert isinstance(result, UserLine)
    assert counter[missing] == 1
    if where == "tweet":
        # the checked tweet object keeps its null; its readers take it as ""
        assert result.tweets[0][key] is None
    else:
        assert getattr(result, key) == ""


def test_account_created_after_snapshot_rejected():
    payload = user_payload("u1", hours=0,
                           profile={"account_created_at": iso(hours=5)})
    assert isinstance(validate_user_line(json.dumps(payload), 1), ParseFailure)


def test_failures_plus_records_equal_line_count():
    payloads = [user_payload("u1"), "", "oops", user_payload("u2"), "   "]
    results = load_all(payloads)
    assert len(results) == 5
    records = [r for r in results if isinstance(r, UserLine)]
    failures = [r for r in results if isinstance(r, ParseFailure)]
    assert len(records) == 2 and len(failures) == 3


def test_load_users_accepts_bytes_and_flags_bad_utf8():
    stream = io.BytesIO(
        json.dumps(user_payload("u1")).encode("utf-8") + b"\n\xff\xfe\n")
    results = list(load_users(stream))
    assert isinstance(results[0], UserLine)
    assert isinstance(results[1], ParseFailure)
    assert "UTF-8" in results[1].reason


def test_dedupe_latest_keeps_newest_snapshot():
    lines = [payload_line(user_payload("u1", hours=0)),
             payload_line(user_payload("u1", hours=5)),
             payload_line(user_payload("u2", hours=1))]
    kept = dedupe_latest(lines, same)
    assert set(kept) == {"u1", "u2"}
    assert kept["u1"].snapshot_time == lines[1].snapshot_time


def test_dedupe_latest_tie_prefers_later_position():
    first = payload_line(user_payload("u1", description="first", hours=0))
    second = payload_line(user_payload("u1", description="second", hours=0))
    assert dedupe_latest([first, second], same)["u1"].description == "second"
    assert dedupe_latest([second, first], same)["u1"].description == "first"


def test_dedupe_latest_is_idempotent(rng):
    lines = [payload_line(user_payload(f"u{rng.randrange(10)}",
                                       hours=rng.randrange(100)))
             for _ in range(200)]
    once = dedupe_latest(lines, same)
    twice = dedupe_latest(once.values(), same)
    assert once == twice
    assert set(once) == {line.user_id for line in lines}


def test_missingness_counter_accumulates():
    counter = Counter()
    load_all([user_payload("u1"),
              {"user_id": "u2", "snapshot_time": iso()}], counter)
    assert counter["name"] == 1
    # the fully-populated payload contributes tweet/profile key gaps too
    assert counter["profile.statuses_count"] >= 1


# ---------------------------------------------------------------------------
# the validator against the one-pass parser it replaced (reference_ingest)

TIMESTAMPS = (
    "2024-06-01T12:00:00Z", "2024-06-01T12:00:00", "2024-06-01t12:00:00z",
    "2024-06-01T14:00:00+02:00", "2024-06-01T12:00:00.5-03:30",
    " 2024-06-01T12:00:00Z ", "2024-06-01T12:00:00ZZ", "2024-06-01Z",
    "2024-13-01T00:00:00Z", "yesterday", "", "0001-01-01T00:00:00+01:00",
    "9999-12-31T23:59:59-01:00",
    # after every snapshot time above
    "2030-01-01T00:00:00Z")
# JSON texts that json.dumps does not write: counts no float holds, counts
# past the int conversion limit, and nesting past the decoder's limit
RAW = ("9" * 401, "1" * 5000, "1e400", "-1e400", "NaN", "Infinity",
       "[" * 5000 + "]" * 5000)
# hostile values by the kind of field they are most often set on
KIND_VALUES = {
    "id": ("", "a\tb", "a\nb", "a\rb", "a b", 5, ["u1"]),
    "time": TIMESTAMPS + (None, 5, 1.5),
    "text": (None, 5, [], {}, "x", "\ud800"),
    "flag": ("true", "false", 0, 1, 1.0, None, True, False),
    "count": (-1, 0, 1.5, 12.0, True, False, "12", None, 10 ** 308,
              *[("RAW", raw) for raw in RAW]),
    "tweets": ([], [1], [None], ["x"], [{}], [{"text": "x"}], {}, "x", None),
    "profile": ({}, [], "x", 5, None),
}
# (object, key) of every field a line may hold, and its kind
FIELDS = {
    ("user", "user_id"): "id", ("user", "snapshot_time"): "time",
    ("user", "name"): "text", ("user", "description"): "text",
    ("user", "tweets"): "tweets", ("user", "profile"): "profile",
    ("tweet", "text"): "text", ("tweet", "created_at"): "time",
    ("tweet", "source_app"): "text",
    **{("tweet", key): "flag" for key in ("has_image", "has_url",
                                          "mentions_user", "geotagged")},
    **{("profile", key): "flag" for key in ("has_profile_url",
                                            "has_custom_image",
                                            "geo_enabled")},
    ("profile", "statuses_count"): "count",
    ("profile", "followers_count"): "count",
    ("profile", "account_created_at"): "time",
}
any_value = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=4),
    st.sampled_from([value for values in KIND_VALUES.values()
                     for value in values]))
WHOLE_LINES = ("", "   ", "\t", "{not json", "[1, 2]", "null", '"text"',
               "7", "{}", "[" * 100000, '{"a":' * 100000, '{"user_id": "u1"')
# what a field is set to, by its kind: built once, not once per draw
FIELD_VALUES = {kind: st.one_of(st.just("delete"), any_value,
                                st.sampled_from(values))
                for kind, values in KIND_VALUES.items()}
EDITED_FIELDS = st.lists(st.sampled_from(sorted(FIELDS)), max_size=4)


@st.composite
def hostile_lines(draw) -> str:
    """A valid user line with a few fields set to hostile values or
    deleted, or a line that is not a user object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(WHOLE_LINES))
    payload = user_payload(
        draw(st.sampled_from(("u1", "u2"))), name="some name",
        description="i am a proud black teacher",
        hours=draw(st.integers(0, 2)),
        tweets=tuple(tweet_payload(hours=-hours) for hours in draw(
            st.lists(st.integers(0, 48), max_size=3))),
        profile={"statuses_count": 10, "followers_count": 3,
                 "account_created_at": iso(hours=-100),
                 "has_profile_url": True})
    raw = []
    for where, key in draw(EDITED_FIELDS):
        # a copy: a later edit may change a list or object set here
        value = copy.deepcopy(draw(FIELD_VALUES[FIELDS[where, key]]))
        tweets = payload.get("tweets")
        target = {"user": payload, "profile": payload.get("profile"),
                  "tweet": tweets[0] if isinstance(tweets, list) and tweets
                  else None}[where]
        if not isinstance(target, dict):
            continue
        if value == "delete":
            target.pop(key, None)
            continue
        if isinstance(value, tuple):
            # placed as a marker string, replaced by its text after dumps
            raw.append(value[1])
            value = f"RAW{len(raw) - 1}"
        target[key] = value
    line = json.dumps(payload)
    for index, text in enumerate(raw):
        line = line.replace(f'"RAW{index}"', text)
    return line


def plain(value):
    """A record, line or failure as nested lists, each timestamp with its
    offset, so that equal values mean equal fields and equal time zones."""
    if isinstance(value, datetime):
        return ("datetime", value.isoformat())
    if isinstance(value, (tuple, list)):
        return [type(value) is ParseFailure, *map(plain, value)]
    return value


def as_read(line: UserLine, max_tweets: int):
    """A checked line in the one-pass parser's record shape, with its newest
    max_tweets tweets: each tweet and profile field as the stages read it,
    an absent flag false, an absent count 0 and a null source_app ""."""
    profile = line.profile
    return (line.user_id, line.name, line.description,
            [(tweet["text"], tweet.get("source_app") or "", created,
              *(tweet.get(key, False) for key, _ in TWEET_FLAGS))
             for created, tweet in newest_tweets(line, max_tweets)],
            (*(profile.get(key, False) for key, _ in PROFILE_FLAGS),
             profile.get("statuses_count", 0), line.account_created_at,
             profile.get("followers_count", 0)),
            line.snapshot_time)


def _with_raw(payload: dict, raw: str) -> str:
    return json.dumps(payload).replace('"RAW"', raw)


# a line for each failure that the draws above reach rarely
RARE_LINES = (
    json.dumps(user_payload("a\tb")),
    json.dumps({"user_id": "u1"}),
    json.dumps(user_payload("u1", profile={"account_created_at": iso(5)})),
    _with_raw(user_payload("u1", profile={"followers_count": "RAW"}),
              "9" * 401),
    _with_raw(user_payload("u1", profile={"statuses_count": "RAW"}), "1e400"),
    _with_raw(user_payload("u1", profile={"statuses_count": "RAW"}),
              "1" * 5000),
    _with_raw(user_payload("u1", profile={"statuses_count": "RAW"}),
              "[" * 5000 + "]" * 5000),
    json.dumps(user_payload("u1", tweets=(1,))),
    json.dumps(user_payload("u1", tweets=({"text": "x"},))),
    json.dumps(user_payload("u1", profile={"geo_enabled": "true"})),
    json.dumps(user_payload("u1", profile={"statuses_count": True})),
    json.dumps({**user_payload("u1"),
                "snapshot_time": "0001-01-01T00:00:00+01:00"}),
    json.dumps(user_payload("u1", profile={
        "account_created_at": "2024-06-01T12:00:00"})),
)


def with_rare_lines(test):
    for line in RARE_LINES:
        test = example(line=line, line_no=1)(test)
    return test


@settings(max_examples=300, deadline=None)
@with_rare_lines
@given(line=hostile_lines(), line_no=st.integers(1, 10))
def test_validator_and_builder_equal_the_one_pass_parser(line, line_no):
    """validate_user_line makes the one-pass parser's decision, with its
    reason and missingness; an accepted line holds each field the parser's
    record holds, its newest_tweets in the record's order."""
    counts, reference_counts = Counter(), Counter()
    result = validate_user_line(line, line_no, counts)
    expected = reference_parse_user_line(line, line_no, reference_counts)
    if isinstance(expected, ParseFailure):
        assert result == expected
    else:
        assert isinstance(result, UserLine)
        assert plain((result.user_id, result.snapshot_time, result.name,
                      result.description, result.account_created_at)) == \
            plain((expected.user_id, expected.snapshot_time, expected.name,
                   expected.description,
                   expected.profile.account_created_at))
        assert plain(as_read(result, len(result.tweets))) == plain(expected)
        for n in range(3):  # the newest n tweets of the whole record
            assert plain(as_read(result, n)) == plain(
                expected._replace(tweets=expected.tweets[:n]))
    assert counts == reference_counts
    # the tracer's name for the validator gives the same value
    assert plain(parse_user_line(line, line_no)) == plain(result)


@settings(max_examples=150, deadline=None)
@given(line=hostile_lines(), line_no=st.integers(1, 10))
def test_name_input_equals_the_reference_name_and_profile_vector(line,
                                                                 line_no):
    expected = reference_parse_user_line(line, line_no)
    if isinstance(expected, ParseFailure):
        return
    name, vector = name_input(validate_user_line(line, line_no))
    profile = expected.profile
    assert name == expected.name
    assert vector.tolist() == [
        math.log1p(profile.followers_count),
        math.log1p(profile.statuses_count), float(profile.has_profile_url),
        float(profile.has_custom_image), float(profile.geo_enabled)]


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.one_of(
    hostile_lines().map(lambda line: line.encode("utf-8", "surrogatepass")),
    st.sampled_from((b"\xff\xfe", b'{"user_id": "\xc3"}', b"\r", b" \r\n",
                     " ".encode())),
    st.binary(max_size=6)), max_size=6))
def test_load_users_equals_the_one_pass_loader(lines):
    data = b"\n".join(lines) + b"\n"
    counts, reference_counts = Counter(), Counter()
    results = [result if isinstance(result, ParseFailure)
               else as_read(result, len(result.tweets))
               for result in load_users(io.BytesIO(data), counts)]
    expected = list(reference_load_users(io.BytesIO(data), reference_counts))
    assert plain(results) == plain(expected)
    assert counts == reference_counts
