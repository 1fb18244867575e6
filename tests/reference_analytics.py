"""analyze as it was before it kept a summary per user: each dataset user's
latest snapshot parsed into a record of its newest max_tweets tweets (the
one-pass parser of reference_ingest), the records grouped, and the lexical
pass and the behavioral profile run over each group's records, with one
chunk table filled in group order. Kept as the oracle of analytics.user_summary,
group_lexical_pass, behavioral_profile and cli.cmd_analyze
(tests/test_analyze_summaries.py); nothing here is fast."""
from __future__ import annotations

import itertools
import operator
from collections import Counter

from identminer import analytics, cli, resources
from identminer.labels import CLASS_ORDER
from identminer.textprep import ChunkTable
from identminer.util import mean

from reference_ingest import reference_latest_records

_TEXTS, _CONTENT, _WORDS, _CONTRACTIONS, _HASHTAGS = map(operator.itemgetter,
                                                         range(5))
_MONTH_DAYS = 30.4375


def reference_user_lexical_means(user, chunks: ChunkTable,
                                 word_counts: Counter) -> dict | None:
    """The lexical means of a record's tweets (None without tweets); their
    word and contraction tokens go to word_counts."""
    if not user.tweets:
        return None
    split = [tweet.text.split() for tweet in user.tweets]
    summaries = chunks.values(list(itertools.chain.from_iterable(split)))
    ttr, ld = [], []
    end = 0
    for tweet_chunks in split:
        start, end = end, end + len(tweet_chunks)
        tweet = summaries[start:end]
        texts = list(itertools.chain.from_iterable(map(_TEXTS, tweet)))
        n = len(texts)
        ttr.append(len(set(texts)) / n if n else 0.0)
        ld.append(sum(map(_CONTENT, tweet)) / n if n else 0.0)
    word_counts.update(itertools.chain.from_iterable(map(_WORDS, summaries)))
    return {"ttr": mean(ttr), "ld": mean(ld),
            "cpt": sum(map(_CONTRACTIONS, summaries)) / len(split),
            "hpt": sum(map(_HASHTAGS, summaries)) / len(split)}


def reference_group_lexical_pass(users, chunks: ChunkTable
                                 ) -> tuple[list[dict], Counter]:
    """The samples of a group's records with tweets, and one Counter that
    every record's words go to in turn."""
    samples = []
    counts: Counter[str] = Counter()
    for user in users:
        stats = reference_user_lexical_means(user, chunks, counts)
        if stats is not None:
            samples.append(stats)
    return samples, counts


def _devices(source_app: str) -> set[str]:
    lowered = source_app.lower()
    devices = set()
    if "android" in lowered:
        devices.add("android")
    if "iphone" in lowered or "ios" in lowered:
        devices.add("iphone")
    if "web" in lowered or "desktop" in lowered:
        devices.add("desktop")
    return devices


def reference_behavioral_profile(users_by_group: dict) -> dict:
    """The behavioral table of each group's records."""
    out = {}
    for group, users in users_by_group.items():
        n_users = len(users)
        flags = Counter()
        tweets_per_month = []
        statuses = []
        pooled = Counter()
        pooled_total = 0
        for user in users:
            tweets = user.tweets
            for device in set().union(*(_devices(app) for app in {
                    tweet.source_app for tweet in tweets})):
                flags[device] += 1
            if any(tweet.geotagged for tweet in tweets):
                flags["geotagged"] += 1
            if user.profile.has_profile_url:
                flags["profile_url"] += 1
            if user.profile.has_custom_image:
                flags["custom_image"] += 1
            if user.profile.geo_enabled:
                flags["geo_enabled"] += 1
            statuses.append(float(user.profile.statuses_count))
            created = user.profile.account_created_at
            if created is not None:
                days = (user.snapshot_time - created).total_seconds() / 86400.0
                months = max(1.0, days / _MONTH_DAYS)
                tweets_per_month.append(user.profile.statuses_count / months)
            pooled_total += len(tweets)
            pooled["mention"] += sum(tweet.mentions_user for tweet in tweets)
            pooled["image"] += sum(tweet.has_image for tweet in tweets)
            pooled["url"] += sum(tweet.has_url for tweet in tweets)

        def share(key: str) -> float:
            return flags[key] * 100.0 / n_users if n_users else 0.0

        def pooled_share(key: str) -> float:
            return pooled[key] * 100.0 / pooled_total if pooled_total else 0.0

        out[group] = {
            "pct_android": share("android"),
            "pct_iphone": share("iphone"),
            "pct_desktop": share("desktop"),
            "pct_profile_url": share("profile_url"),
            "pct_custom_image": share("custom_image"),
            "pct_geo_enabled": share("geo_enabled"),
            "pct_geotagged": share("geotagged"),
            "avg_statuses": mean(statuses),
            "avg_tweets_per_month": mean(tweets_per_month),
            "pct_tweets_mention": pooled_share("mention"),
            "pct_tweets_image": pooled_share("image"),
            "pct_tweets_url": pooled_share("url"),
        }
    return out


def reference_analyze(config: dict, paths: dict) -> dict:
    """What analyze wrote to analyze_result.json (before main adds the
    header), computed from the records of the dataset users."""
    dataset = cli._read_dataset(paths, "data")
    records = reference_latest_records(paths["corpus"], config["max_tweets"])
    groups: dict = {}
    for user in dataset:
        if user.user_id in records:
            groups.setdefault(user.label, []).append(records[user.user_id])
    present = [label for label in CLASS_ORDER if label in groups]
    chunks = analytics.lexical_chunks(resources.load_stopwords())
    samples: dict = {}
    counts: dict = {}
    for label in present:
        samples[label], counts[label] = reference_group_lexical_pass(
            groups[label], chunks)

    def mann_whitney(metric, a, b) -> dict:
        u, p = analytics.mann_whitney_u([stats[metric] for stats in samples[a]],
                                        [stats[metric] for stats in samples[b]])
        return {"U": u, "p": p}

    mwu = {metric: cli._pair_table(present,
                                   lambda a, b: mann_whitney(metric, a, b))
           for metric in ("ttr", "ld", "cpt", "hpt")}
    behavior = reference_behavioral_profile(groups)
    background: Counter = Counter()
    for counter in counts.values():
        background.update(counter)
    tau_ks = config["tau_ks"]
    top_n = config["top_n"]
    list_len = max([top_n] + tau_ks)
    keywords = {label: analytics.distinctive_keywords(
                    counts[label], background, lam=config["sage_lambda"],
                    top_n=list_len)
                for label in present}
    tau = {f"k={k}": cli._pair_table(
               present, lambda a, b: analytics.kendall_tau_top_k(
                   keywords[a][:k], keywords[b][:k], k))
           for k in tau_ks}
    return {
        "groups": {label.value: len(groups[label]) for label in present},
        "lexical": {label.value: analytics.lexical_table(samples[label])
                    for label in present},
        "mann_whitney": mwu,
        "behavior": {label.value: behavior[label] for label in present},
        "distinctive_keywords": {label.value: keywords[label][:top_n]
                                 for label in present},
        "kendall_tau": tau,
    }
