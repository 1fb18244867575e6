"""Stream archived user exports (JSON lines) into canonical UserRecord values.

One line is one user snapshot. Malformed lines become ParseFailure values instead
of exceptions so a bad record never aborts the stream; stream-level I/O errors
still propagate. Missing optional fields default to false/0/"" and are tallied
in an optional per-field missingness counter.
dedupe_latest folds the record stream into one value per user as it goes:
the caller's projection of the user's latest snapshot, so memory grows with
the users and with what the caller keeps of each, not with the lines.
A Tweet is a named tuple built through tuple.__new__, several times cheaper
than a frozen dataclass; it equals the plain tuple of its fields.
"""
from __future__ import annotations

import functools
import json
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar, Union


class Tweet(NamedTuple):
    text: str
    source_app: str
    created_at: datetime
    has_image: bool = False
    has_url: bool = False
    mentions_user: bool = False
    geotagged: bool = False


_new_tweet = functools.partial(tuple.__new__, Tweet)
_created_at = operator.itemgetter(Tweet._fields.index("created_at"))


@dataclass(frozen=True)
class ProfileMeta:
    has_profile_url: bool = False
    has_custom_image: bool = False
    geo_enabled: bool = False
    statuses_count: int = 0
    account_created_at: datetime | None = None
    # not part of the minimal export schema, but some archives carry it and the
    # name model wants it; absent -> 0
    followers_count: int = 0


@dataclass
class UserRecord:
    user_id: str
    name: str
    description: str
    tweets: list[Tweet]
    profile: ProfileMeta
    snapshot_time: datetime


@dataclass(frozen=True)
class ParseFailure:
    line_no: int
    reason: str


# (key, field name in missingness counts and failure reasons), in field order
_TWEET_FLAGS = tuple((key, f"tweet.{key}") for key in Tweet._fields[3:])
_PROFILE_FLAGS = tuple((key, f"profile.{key}") for key in (
    "has_profile_url", "has_custom_image", "geo_enabled"))
_ABSENT = object()
T = TypeVar("T")


def parse_timestamp(raw: str) -> datetime:
    """RFC-3339 string to an aware UTC datetime. Raises ValueError."""
    if not isinstance(raw, str):
        raise ValueError("timestamp must be a string")
    # Python 3.10 fromisoformat does not accept a trailing Z
    text = raw.strip().replace("Z", "+00:00").replace("z", "+00:00")
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


def _flags(obj: dict, keys: tuple, missingness: Counter) -> list[bool]:
    """The (key, field name) flags of obj in order, each a JSON boolean; an
    absent flag is false and counted as missing."""
    flags = []
    for key, field in keys:
        value = obj.get(key, _ABSENT)
        if value is _ABSENT:
            missingness[field] += 1
            value = False
        elif not isinstance(value, bool):
            raise ValueError(f"{field} must be true or false")
        flags.append(value)
    return flags


def _text(obj: dict, key: str, field: str, missingness: Counter) -> str:
    """A JSON string; absent or null is "" and counted as missing."""
    value = obj.get(key)
    if value is None:
        missingness[field] += 1
        return ""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string or null")
    return value


def _count(obj: dict, key: str, missingness: Counter) -> int:
    """A JSON integer in [0, float max]; absent is 0 and counted as missing."""
    if key not in obj:
        missingness[f"profile.{key}"] += 1
        return 0
    count = obj[key]
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"{key} must be an integer")
    if count < 0:
        raise ValueError(f"{key} is negative")
    # the behavioral statistics and the name model take float(count)
    if count > sys.float_info.max:
        raise ValueError(f"{key} is too large for a float")
    return count


def _parse_tweet(obj: dict, missingness: Counter) -> Tweet:
    if not isinstance(obj, dict):
        raise ValueError("tweet is not an object")
    text = obj.get("text")
    if not isinstance(text, str):
        raise ValueError("tweet text missing or not a string")
    if "created_at" not in obj:
        raise ValueError("tweet created_at missing")
    created = parse_timestamp(obj["created_at"])
    source = _text(obj, "source_app", "tweet.source_app", missingness)
    return _new_tweet((text, source, created,
                       *_flags(obj, _TWEET_FLAGS, missingness)))


def _parse_profile(obj, snapshot: datetime, missingness: Counter) -> ProfileMeta:
    if obj is None:
        missingness["profile"] += 1
        obj = {}
    if not isinstance(obj, dict):
        raise ValueError("profile is not an object")
    flags = _flags(obj, _PROFILE_FLAGS, missingness)
    statuses = _count(obj, "statuses_count", missingness)
    if "account_created_at" not in obj or obj["account_created_at"] is None:
        missingness["profile.account_created_at"] += 1
        created = None
    else:
        created = parse_timestamp(obj["account_created_at"])
        if created > snapshot:
            raise ValueError("account_created_at is after snapshot_time")
    followers = _count(obj, "followers_count", missingness)
    return ProfileMeta(*flags, statuses_count=statuses,
                       account_created_at=created, followers_count=followers)


def parse_user_line(line: str, line_no: int,
                    missingness: Counter | None = None) -> Union[UserRecord, ParseFailure]:
    counter = missingness if missingness is not None else Counter()
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return ParseFailure(line_no, f"bad JSON: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        # ValueError: an integer literal past Python's int conversion limit
        # (4300 digits); RecursionError: arrays or objects nested deeper than
        # the decoder's recursion limit
        return ParseFailure(line_no, f"bad JSON: {exc}")
    if not isinstance(obj, dict):
        return ParseFailure(line_no, "record is not an object")
    try:
        user_id = obj.get("user_id")
        if not isinstance(user_id, str) or not user_id:
            raise ValueError("user_id missing or empty")
        if "snapshot_time" not in obj:
            raise ValueError("snapshot_time missing")
        snapshot = parse_timestamp(obj["snapshot_time"])
        name = _text(obj, "name", "name", counter)
        description = _text(obj, "description", "description", counter)
        raw_tweets = obj.get("tweets")
        if raw_tweets is None:
            counter["tweets"] += 1
            raw_tweets = []
        if not isinstance(raw_tweets, list):
            raise ValueError("tweets is not a list")
        tweets = [_parse_tweet(t, counter) for t in raw_tweets]
        tweets.sort(key=_created_at, reverse=True)
        profile = _parse_profile(obj.get("profile"), snapshot, counter)
        return UserRecord(user_id=user_id, name=name, description=description,
                          tweets=tweets, profile=profile, snapshot_time=snapshot)
    except (ValueError, TypeError, OverflowError) as exc:
        # OverflowError: a timestamp whose UTC conversion leaves the datetime
        # range, such as 0001-01-01T00:00:00+01:00
        return ParseFailure(line_no, str(exc))


def load_users(stream: IO, missingness: Counter | None = None
               ) -> Iterator[Union[UserRecord, ParseFailure]]:
    """Yield one UserRecord or ParseFailure per input line, in input order.

    Accepts byte or text streams. Line numbers are 1-based. Blank lines count
    as failures so failures + records always add up to the line count.
    """
    for line_no, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                yield ParseFailure(line_no, "invalid UTF-8")
                continue
        else:
            line = raw
        line = line.rstrip("\r\n")
        if not line.strip():
            yield ParseFailure(line_no, "blank line")
            continue
        yield parse_user_line(line, line_no, missingness)


def dedupe_latest(records: Iterable[UserRecord], keep: Callable[[UserRecord], T]
                  ) -> dict[str, T]:
    """keep(record) of each user's record with the largest snapshot_time, by
    user id in the order the ids first appear; on a tie the later stream
    position wins. Only the winner's snapshot_time and keep(record) are held
    per user, so a record lives no longer than its own step of the stream
    and keep is never called on a snapshot older than the current winner."""
    times: dict[str, datetime] = {}
    latest: dict[str, T] = {}
    for record in records:
        user_id = record.user_id
        current = times.get(user_id)
        if current is None or record.snapshot_time >= current:
            times[user_id] = record.snapshot_time
            latest[user_id] = keep(record)
    return latest
