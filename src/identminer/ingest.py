"""Stream archived user exports (JSON lines) into checked UserLine values.

One line is one user snapshot. validate_user_line alone decides whether a
line parses, and why not: a malformed line becomes a ParseFailure value
instead of an exception, so a bad record never aborts the stream, while
stream-level I/O errors still propagate. An accepted line is a UserLine,
which holds the user id, snapshot time and description and builds no
record. newest_tweets gives its newest max_tweets (created_at, tweet dict)
pairs, the one statement of that cut: the tweet stages read what they keep
straight from those checked dicts, and build_record makes a UserRecord of
them for a caller that wants one. Missing optional fields default to
false/0/"" and are tallied in an optional per-field missingness counter.
dedupe_latest folds the stream into one value per user as it goes: the
caller's projection of the user's latest snapshot, so memory grows with the
users and with what the caller keeps of each, not with the lines.
The records are named tuples built through tuple.__new__, several times
cheaper than a dataclass; each equals the plain tuple of its fields.
"""
from __future__ import annotations

import functools
import json
import operator
import sys
from collections import Counter, defaultdict
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


class ProfileMeta(NamedTuple):
    has_profile_url: bool = False
    has_custom_image: bool = False
    geo_enabled: bool = False
    statuses_count: int = 0
    account_created_at: datetime | None = None
    # not part of the minimal export schema, but some archives carry it and the
    # name model wants it; absent -> 0
    followers_count: int = 0


_new_profile = functools.partial(tuple.__new__, ProfileMeta)


class UserRecord(NamedTuple):
    """A user's snapshot. tweets holds the newest max_tweets tweets that
    build_record was asked for, newest first; nothing reads older ones."""
    user_id: str
    name: str
    description: str
    tweets: list[Tweet]
    profile: ProfileMeta
    snapshot_time: datetime


_new_record = functools.partial(tuple.__new__, UserRecord)


class ParseFailure(NamedTuple):
    line_no: int
    reason: str


class UserLine(NamedTuple):
    """A line that validate_user_line accepted: the user id, snapshot time
    and description, which are all that the description stages read, and
    what build_record makes the rest of the record from: the decoded object
    and the timestamps that the checks parsed."""
    user_id: str
    snapshot_time: datetime
    description: str
    decoded: dict
    tweet_times: list[datetime]
    account_created_at: datetime | None


_new_line = functools.partial(tuple.__new__, UserLine)

# (key, field name in missingness counts and failure reasons), in field order
_TWEET_FLAGS = tuple((key, f"tweet.{key}") for key in Tweet._fields[3:])
_PROFILE_FLAGS = tuple((key, f"profile.{key}") for key in (
    "has_profile_url", "has_custom_image", "geo_enabled"))
_ABSENT = object()
_first = operator.itemgetter(0)
S = TypeVar("S")
T = TypeVar("T")


try:  # Python 3.10's fromisoformat does not read a Z
    _FROMISOFORMAT_TAKES_Z = bool(datetime.fromisoformat("2000-01-01T00:00Z"))
except ValueError:
    _FROMISOFORMAT_TAKES_Z = False


def parse_timestamp(raw: str) -> datetime:
    """RFC-3339 string to an aware UTC datetime. Raises ValueError."""
    if not isinstance(raw, str):
        raise ValueError("timestamp must be a string")
    # a string whose one Z or z ends it, such as 2024-06-01T12:00:00Z,
    # parses to the same value here as below, or fails here
    if (_FROMISOFORMAT_TAKES_Z and raw[-1:] == "Z" and raw.count("Z") == 1
            and "z" not in raw):
        try:
            return datetime.fromisoformat(raw)
        except ValueError:
            pass
    text = raw.strip().replace("Z", "+00:00").replace("z", "+00:00")
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


def _check_flags(obj: dict, keys: tuple, missingness: Counter) -> None:
    """Each (key, field name) flag of obj, in order, is a JSON boolean or
    absent; an absent one is counted as missing."""
    for key, field in keys:
        value = obj.get(key, _ABSENT)
        if value is _ABSENT:
            missingness[field] += 1
        elif value is not True and value is not False:
            raise ValueError(f"{field} must be true or false")


def _text(obj: dict, key: str, field: str, missingness: Counter) -> str:
    """A JSON string; absent or null is "" and counted as missing."""
    value = obj.get(key)
    if value is None:
        missingness[field] += 1
        return ""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string or null")
    return value


def _check_count(obj: dict, key: str, missingness: Counter) -> None:
    """A JSON integer in [0, float max], or absent and counted as missing."""
    if key not in obj:
        missingness[f"profile.{key}"] += 1
        return
    count = obj[key]
    if type(count) is not int:  # a JSON true or false is a bool
        raise ValueError(f"{key} must be an integer")
    if count < 0:
        raise ValueError(f"{key} is negative")
    # the behavioral statistics and the name model take float(count)
    if count > sys.float_info.max:
        raise ValueError(f"{key} is too large for a float")


def _check_profile(profile, snapshot: datetime,
                   missingness: Counter) -> datetime | None:
    """Check a profile object; its account_created_at, None if absent."""
    if profile is None:
        missingness["profile"] += 1
        profile = {}
    if not isinstance(profile, dict):
        raise ValueError("profile is not an object")
    _check_flags(profile, _PROFILE_FLAGS, missingness)
    _check_count(profile, "statuses_count", missingness)
    raw = profile.get("account_created_at")
    if raw is None:
        missingness["profile.account_created_at"] += 1
        created = None
    else:
        created = parse_timestamp(raw)
        if created > snapshot:
            raise ValueError("account_created_at is after snapshot_time")
    _check_count(profile, "followers_count", missingness)
    return created


def validate_user_line(line: str, line_no: int,
                       missingness: Counter | None = None
                       ) -> Union[UserLine, ParseFailure]:
    """The one decision whether a line parses, and why not: a UserLine if
    every check passes, else the ParseFailure of the first check that
    fails. It builds no record. Fields that are absent (or null, where a
    field may be) are counted in missingness, if given, up to that check."""
    # a throwaway tally when none is given: cheaper to make than a Counter
    counter = missingness if missingness is not None else defaultdict(int)
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
        if "\t" in user_id or "\n" in user_id or "\r" in user_id:
            # a dataset row is user_id<TAB>...<LF>: such an id would forge one
            raise ValueError("user_id contains a tab or line break")
        if "snapshot_time" not in obj:
            raise ValueError("snapshot_time missing")
        snapshot = parse_timestamp(obj["snapshot_time"])
        _text(obj, "name", "name", counter)
        description = _text(obj, "description", "description", counter)
        tweets = obj.get("tweets")
        if tweets is None:
            counter["tweets"] += 1
            tweets = []
        if not isinstance(tweets, list):
            raise ValueError("tweets is not a list")
        tweet_times = []
        for tweet in tweets:
            if not isinstance(tweet, dict):
                raise ValueError("tweet is not an object")
            if not isinstance(tweet.get("text"), str):
                raise ValueError("tweet text missing or not a string")
            if "created_at" not in tweet:
                raise ValueError("tweet created_at missing")
            tweet_times.append(parse_timestamp(tweet["created_at"]))
            _text(tweet, "source_app", "tweet.source_app", counter)
            _check_flags(tweet, _TWEET_FLAGS, counter)
        created = _check_profile(obj.get("profile"), snapshot, counter)
    except (ValueError, TypeError, OverflowError) as exc:
        # OverflowError: a timestamp whose UTC conversion leaves the datetime
        # range, such as 0001-01-01T00:00:00+01:00
        return ParseFailure(line_no, str(exc))
    return _new_line((user_id, snapshot, description, obj, tweet_times,
                      created))


def newest_tweets(line: UserLine, max_tweets: int
                  ) -> list[tuple[datetime, dict]]:
    """The (created_at, tweet object) pairs of an accepted line's newest
    max_tweets tweets, newest first (a stable sort: ties keep file order).
    validate_user_line has checked each object: its text is a string, its
    source_app a string, null or absent, and each flag a bool or absent."""
    return sorted(zip(line.tweet_times, line.decoded.get("tweets") or ()),
                  key=_first, reverse=True)[:max_tweets]


def build_record(line: UserLine, max_tweets: int) -> UserRecord:
    """The UserRecord of an accepted line with only its newest max_tweets
    tweets built (newest_tweets). It checks nothing: validate_user_line has
    checked every field read here."""
    obj = line.decoded
    tweets = [_new_tweet((tweet["text"], tweet.get("source_app") or "",
                          created, tweet.get("has_image", False),
                          tweet.get("has_url", False),
                          tweet.get("mentions_user", False),
                          tweet.get("geotagged", False)))
              for created, tweet in newest_tweets(line, max_tweets)]
    profile = obj.get("profile") or {}
    return _new_record((
        line.user_id, obj.get("name") or "", line.description, tweets,
        _new_profile((profile.get("has_profile_url", False),
                      profile.get("has_custom_image", False),
                      profile.get("geo_enabled", False),
                      profile.get("statuses_count", 0),
                      line.account_created_at,
                      profile.get("followers_count", 0))),
        line.snapshot_time))


def parse_user_line(line: str, line_no: int, missingness: Counter | None = None
                    ) -> Union[UserRecord, ParseFailure]:
    """validate_user_line, and the record of an accepted line, all tweets."""
    result = validate_user_line(line, line_no, missingness)
    return (result if isinstance(result, ParseFailure)
            else build_record(result, len(result.tweet_times)))


def load_users(stream: IO[bytes], missingness: Counter | None = None
               ) -> Iterator[Union[UserLine, ParseFailure]]:
    """Yield one UserLine or ParseFailure per line of a byte stream, in
    input order (validate_user_line).

    Line numbers are 1-based. A line that is not UTF-8 or is blank counts as
    a failure, so failures + accepted lines always add up to the line count.
    """
    for line_no, raw in enumerate(stream, start=1):
        try:
            line = raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError:
            yield ParseFailure(line_no, "invalid UTF-8")
            continue
        if not line or line.isspace():
            yield ParseFailure(line_no, "blank line")
            continue
        yield validate_user_line(line, line_no, missingness)


def dedupe_latest(snapshots: Iterable[S], keep: Callable[[S], T]
                  ) -> dict[str, T]:
    """keep(snapshot) of each user's snapshot (a UserLine or UserRecord)
    with the largest snapshot_time, by user id in the order the ids first
    appear; on a tie the later stream position wins. Only the winner's
    snapshot_time and keep(snapshot) are held per user, so a snapshot lives
    no longer than its own step of the stream and keep is never called on
    one older than the current winner."""
    times: dict[str, datetime] = {}
    latest: dict[str, T] = {}
    for snapshot in snapshots:
        user_id = snapshot.user_id
        current = times.get(user_id)
        if current is None or snapshot.snapshot_time >= current:
            times[user_id] = snapshot.snapshot_time
            latest[user_id] = keep(snapshot)
    return latest
