"""The corpus line parser as it was before validation and record building
were split: each line parsed into its record in one pass, the checks made
as the record was built. Kept as the oracle of ingest.validate_user_line
and ingest.build_record (tests/test_ingest.py); a record is returned as the
plain tuple of its fields, its tweets and profile as tuples too.
"""
from __future__ import annotations

import json
import sys
from collections import Counter

from identminer.ingest import ParseFailure, parse_timestamp

TWEET_FLAGS = tuple((key, f"tweet.{key}") for key in (
    "has_image", "has_url", "mentions_user", "geotagged"))
PROFILE_FLAGS = tuple((key, f"profile.{key}") for key in (
    "has_profile_url", "has_custom_image", "geo_enabled"))
ABSENT = object()


def flags(obj, keys, missingness):
    out = []
    for key, field in keys:
        value = obj.get(key, ABSENT)
        if value is ABSENT:
            missingness[field] += 1
            value = False
        elif not isinstance(value, bool):
            raise ValueError(f"{field} must be true or false")
        out.append(value)
    return out


def text(obj, key, field, missingness):
    value = obj.get(key)
    if value is None:
        missingness[field] += 1
        return ""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string or null")
    return value


def count(obj, key, missingness):
    if key not in obj:
        missingness[f"profile.{key}"] += 1
        return 0
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer")
    if value < 0:
        raise ValueError(f"{key} is negative")
    if value > sys.float_info.max:
        raise ValueError(f"{key} is too large for a float")
    return value


def parse_tweet(obj, missingness):
    if not isinstance(obj, dict):
        raise ValueError("tweet is not an object")
    body = obj.get("text")
    if not isinstance(body, str):
        raise ValueError("tweet text missing or not a string")
    if "created_at" not in obj:
        raise ValueError("tweet created_at missing")
    created = parse_timestamp(obj["created_at"])
    source = text(obj, "source_app", "tweet.source_app", missingness)
    return (body, source, created, *flags(obj, TWEET_FLAGS, missingness))


def parse_profile(obj, snapshot, missingness):
    if obj is None:
        missingness["profile"] += 1
        obj = {}
    if not isinstance(obj, dict):
        raise ValueError("profile is not an object")
    profile_flags = flags(obj, PROFILE_FLAGS, missingness)
    statuses = count(obj, "statuses_count", missingness)
    if "account_created_at" not in obj or obj["account_created_at"] is None:
        missingness["profile.account_created_at"] += 1
        created = None
    else:
        created = parse_timestamp(obj["account_created_at"])
        if created > snapshot:
            raise ValueError("account_created_at is after snapshot_time")
    followers = count(obj, "followers_count", missingness)
    return (*profile_flags, statuses, created, followers)


def reference_parse_user_line(line, line_no, missingness=None):
    """(user_id, name, description, tweets, profile, snapshot_time) of an
    accepted line, else its ParseFailure."""
    counter = missingness if missingness is not None else Counter()
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return ParseFailure(line_no, f"bad JSON: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        return ParseFailure(line_no, f"bad JSON: {exc}")
    if not isinstance(obj, dict):
        return ParseFailure(line_no, "record is not an object")
    try:
        user_id = obj.get("user_id")
        if not isinstance(user_id, str) or not user_id:
            raise ValueError("user_id missing or empty")
        if "\t" in user_id or "\n" in user_id or "\r" in user_id:
            raise ValueError("user_id contains a tab or line break")
        if "snapshot_time" not in obj:
            raise ValueError("snapshot_time missing")
        snapshot = parse_timestamp(obj["snapshot_time"])
        name = text(obj, "name", "name", counter)
        description = text(obj, "description", "description", counter)
        raw_tweets = obj.get("tweets")
        if raw_tweets is None:
            counter["tweets"] += 1
            raw_tweets = []
        if not isinstance(raw_tweets, list):
            raise ValueError("tweets is not a list")
        tweets = [parse_tweet(t, counter) for t in raw_tweets]
        tweets.sort(key=lambda tweet: tweet[2], reverse=True)
        profile = parse_profile(obj.get("profile"), snapshot, counter)
        return (user_id, name, description, tweets, profile, snapshot)
    except (ValueError, TypeError, OverflowError) as exc:
        return ParseFailure(line_no, str(exc))


def reference_load_users(stream, missingness=None):
    """reference_parse_user_line of each line of a byte stream."""
    for line_no, raw in enumerate(stream, start=1):
        try:
            line = raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError:
            yield ParseFailure(line_no, "invalid UTF-8")
            continue
        if not line.strip():
            yield ParseFailure(line_no, "blank line")
            continue
        yield reference_parse_user_line(line, line_no, missingness)
