"""Group-level lexical and behavioral statistics, nonparametric tests, rank
correlation over top-k lists, inter-annotator agreement, and sparse log-odds
distinctive keywords. (The majority vote over annotator labels that tune
reads is scorer.majority_vote.)

analyze keeps a UserSummary of each user, made (user_summary) straight from
the checked line as the corpus streams: the user's lexical means and word
counts, and the few tweet and profile fields the behavioral table reads,
over the newest max_tweets tweets (ingest.newest_tweets). No record is
built and no tweet outlives its line. group_lexical_pass and
behavioral_profile then sum a group's summaries in dataset order.
The lexical statistics of a tweet are read off the lexical summaries of its
whitespace-separated chunks, kept in a textprep.ChunkTable (lexical_chunks)
that the whole corpus pass shares, so each distinct chunk is scanned once
while it stays in the table.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .labels import MISSING_LABELS, ClassLabel
from .ingest import UserLine, newest_tweets
from .textprep import ChunkTable, chunk_tokens
from .util import mean


# the fields of a lexical_chunks summary
_TEXTS, _CONTENT, _WORDS, _CONTRACTIONS, _HASHTAGS = map(operator.itemgetter,
                                                         range(5))


def lexical_chunks(stopwords: frozenset[str]) -> ChunkTable:
    """An empty table of each chunk's lexical summary: the texts of its
    tokens, its count of tokens not URLs, mentions or stopwords, its word
    and contraction texts, its contractions and its hashtags."""
    stopword = stopwords.__contains__

    def summaries(chunks: list[str]) -> list[tuple]:
        out = []
        for words, links, others, contractions, hashtags in chunk_tokens(
                chunks):
            kept = words + others
            out.append((kept + links, len(kept) - sum(map(stopword, kept)),
                        words, contractions, hashtags))
        return out

    def plain_summaries(words: list[str]) -> Iterator[tuple]:
        # one word each: content 1 unless it is a stopword
        texts = list(zip(words))
        return zip(texts, map(operator.sub, repeat(1), map(stopword, words)),
                   texts, repeat(0), repeat(0))
    return ChunkTable(summaries, plain_summaries)


def user_lexical_means(texts: list[str], chunks: ChunkTable,
                       word_counts: Counter) -> dict | None:
    """Per-user means over the tweet texts of TTR (distinct token texts /
    tokens), LD (tokens not URLs, mentions, or stopwords / tokens; both 0
    for a tweet without tokens), contractions/tweet, and hashtags/tweet;
    None for users with no tweets. Word and contraction tokens go to
    word_counts. chunks is a lexical_chunks table."""
    if not texts:
        return None
    split = [text.split() for text in texts]
    summaries = chunks.values(list(chain.from_iterable(split)))
    ttr, ld = [], []
    end = 0
    for tweet_chunks in split:
        start, end = end, end + len(tweet_chunks)
        tweet = summaries[start:end]
        tokens = list(chain.from_iterable(map(_TEXTS, tweet)))
        n = len(tokens)
        ttr.append(len(set(tokens)) / n if n else 0.0)
        ld.append(sum(map(_CONTENT, tweet)) / n if n else 0.0)
    word_counts.update(chain.from_iterable(map(_WORDS, summaries)))
    # the mean of per-tweet counts is their total over the tweets
    return {"ttr": mean(ttr), "ld": mean(ld),
            "cpt": sum(map(_CONTRACTIONS, summaries)) / len(split),
            "hpt": sum(map(_HASHTAGS, summaries)) / len(split)}


class UserSummary(NamedTuple):
    """What analyze keeps of a user: its lexical means (None without
    tweets) and word counts (user_lexical_means), the devices and whether
    any tweet is geotagged, the tweet count and the counts of its tweets
    that mention a user, hold an image and hold a URL, the three profile
    flags, statuses_count, and tweets per month (None without an account
    creation time)."""
    lexical: dict | None
    words: Counter
    devices: frozenset[str]
    geotagged: bool
    n_tweets: int
    mentions: int
    images: int
    urls: int
    has_profile_url: bool
    has_custom_image: bool
    geo_enabled: bool
    statuses_count: int
    tweets_per_month: float | None


_MONTH_DAYS = 30.4375  # 365.25 / 12


def _device(source_app: str) -> set[str]:
    lowered = source_app.lower()
    devices = set()
    if "android" in lowered:
        devices.add("android")
    if "iphone" in lowered or "ios" in lowered:
        devices.add("iphone")
    if "web" in lowered or "desktop" in lowered:
        devices.add("desktop")
    return devices


def user_summary(line: UserLine, max_tweets: int, chunks: ChunkTable
                 ) -> UserSummary:
    """The UserSummary of a checked line over its newest max_tweets tweets.
    chunks is a lexical_chunks table."""
    tweets = [tweet for _, tweet in newest_tweets(line, max_tweets)]
    words: Counter[str] = Counter()
    lexical = user_lexical_means([tweet["text"] for tweet in tweets], chunks,
                                 words)
    apps = {tweet.get("source_app") or "" for tweet in tweets}
    # the flags are bools, absent meaning false, so each sum is the count
    # of true ones
    geotagged, mentions, images, urls = [
        sum(map(dict.get, tweets, repeat(flag), repeat(False)))
        for flag in ("geotagged", "mentions_user", "has_image", "has_url")]
    profile = line.decoded.get("profile") or {}
    statuses = profile.get("statuses_count", 0)
    per_month = None
    if line.account_created_at is not None:
        # statuses over the months since account creation, at least one
        days = (line.snapshot_time
                - line.account_created_at).total_seconds() / 86400.0
        per_month = statuses / max(1.0, days / _MONTH_DAYS)
    return UserSummary(
        lexical, words, frozenset().union(*map(_device, apps)),
        geotagged > 0, len(tweets), mentions, images, urls,
        profile.get("has_profile_url", False),
        profile.get("has_custom_image", False),
        profile.get("geo_enabled", False), statuses, per_month)


def group_lexical_pass(users: Iterable[UserSummary]
                       ) -> tuple[list[dict], Counter]:
    """A group's per-user lexical means of users with tweets (the
    Mann-Whitney samples, whose macro-average is lexical_table) and its word
    and contraction counts (the input for distinctive_keywords): the users'
    word counts summed in order, so a word's place in the group Counter is
    that of its first occurrence."""
    samples = []
    counts: Counter[str] = Counter()
    for user in users:
        if user.lexical is not None:
            samples.append(user.lexical)
        counts.update(user.words)
    return samples, counts


def lexical_table(samples: Sequence[dict]) -> dict[str, float]:
    """Macro-average of the per-user means (see user_lexical_means), keyed by
    the analyze_result.json names."""
    return {
        "lexical_diversity": mean([stats["ld"] for stats in samples]),
        "contractions_per_tweet": mean([stats["cpt"] for stats in samples]),
        "type_token_ratio": mean([stats["ttr"] for stats in samples]),
        "hashtags_per_tweet": mean([stats["hpt"] for stats in samples]),
    }


def group_lexical_stats(users_by_group: dict[ClassLabel,
                                               Sequence[UserSummary]]
                        ) -> dict[ClassLabel, dict[str, float]]:
    """Macro-average the per-user means within each group; users without
    tweets are skipped."""
    return {group: lexical_table(group_lexical_pass(users)[0])
            for group, users in users_by_group.items()}


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def mann_whitney_u(sample_a: Sequence[float],
                   sample_b: Sequence[float]) -> tuple[float, float]:
    """U statistic for the first sample (midrank ties) and the two-sided p
    from the tie-corrected normal approximation with continuity correction.
    Raises on an empty sample or when every value is identical."""
    n_a, n_b = len(sample_a), len(sample_b)
    if n_a == 0 or n_b == 0:
        raise ValueError("samples must be non-empty")
    combined = list(sample_a) + list(sample_b)
    ranks = _midranks(combined)
    rank_sum_a = sum(ranks[:n_a])
    u_a = rank_sum_a - n_a * (n_a + 1) / 2.0

    n = n_a + n_b
    tie_term = sum(t ** 3 - t for t in Counter(combined).values())
    if tie_term == n ** 3 - n:
        raise ValueError("all values identical; variance is zero")
    mu = n_a * n_b / 2.0
    sigma2 = (n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    sigma = math.sqrt(sigma2)
    if u_a > mu:
        z = (u_a - mu - 0.5) / sigma
    elif u_a < mu:
        z = (u_a - mu + 0.5) / sigma
    else:
        z = 0.0
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return u_a, p


def kendall_tau_top_k(list_a: Sequence, list_b: Sequence, k: int) -> float:
    """Tie-corrected tau-b over the union of both top-k lists; items absent
    from one list rank tied at k+1 there."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top_a, top_b = list(list_a)[:k], list(list_b)[:k]
    if len(set(top_a)) != len(top_a) or len(set(top_b)) != len(top_b):
        raise ValueError("top-k lists must not contain duplicates")
    rank_a = {item: i + 1 for i, item in enumerate(top_a)}
    rank_b = {item: i + 1 for i, item in enumerate(top_b)}
    universe = list(dict.fromkeys(top_a + top_b))
    ra = [rank_a.get(item, k + 1) for item in universe]
    rb = [rank_b.get(item, k + 1) for item in universe]

    concordant = discordant = ties_a = ties_b = 0
    m = len(universe)
    for i in range(m):
        for j in range(i + 1, m):
            da = ra[i] - ra[j]
            db = rb[i] - rb[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = m * (m - 1) / 2.0
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    if denom == 0:
        raise ValueError("tau undefined: all pairs tied in one ranking")
    return (concordant - discordant) / denom


def krippendorff_alpha_nominal(annotations: Sequence[Sequence]) -> float:
    """Nominal-metric alpha = 1 - D_o/D_e from the coincidence matrix over
    non-missing labels (None/""/"missing" are missing). Items with fewer than
    two labels are skipped."""
    if not annotations:
        raise ValueError("no items")
    if any(len(row) < 2 for row in annotations):
        raise ValueError("need at least two annotators per item row")
    coincidence: Counter[tuple] = Counter()
    for row in annotations:
        labels = [label for label in row if label not in MISSING_LABELS]
        m = len(labels)
        if m < 2:
            continue
        for i, label_i in enumerate(labels):
            for j, label_j in enumerate(labels):
                if i != j:
                    coincidence[(label_i, label_j)] += 1.0 / (m - 1)
    if not coincidence:
        raise ValueError("no item has two or more non-missing labels")
    categories = sorted({c for pair in coincidence for c in pair})
    totals = {c: sum(coincidence[(c, k)] for k in categories) for c in categories}
    n = sum(totals.values())
    observed = sum(coincidence[(c, k)] for c in categories for k in categories
                   if c != k)
    expected = sum(totals[c] * totals[k] for c in categories for k in categories
                   if c != k) / (n - 1)
    if expected == 0:
        # a single category in use; agreement is perfect by definition
        return 1.0
    return 1.0 - observed / expected


def behavioral_profile(users_by_group: dict[ClassLabel,
                                              Sequence[UserSummary]]
                       ) -> dict[ClassLabel, dict[str, float]]:
    """Table of per-group behavioral features of the user summaries, keyed
    by the analyze_result.json names. Percent rows are macro (share of
    users) except the per-tweet (pct_tweets_*) rows, which pool every tweet
    in the group. Tweets/month divides statuses_count by months since
    account creation (floored at one month); users without a creation time
    are skipped there."""
    out = {}
    for group, users in users_by_group.items():
        devices = Counter()
        for user in users:
            devices.update(user.devices)

        def total(field: str) -> int:
            # a bool field's total is the count of users it is true for
            return sum(getattr(user, field) for user in users)

        def of_users(count: int) -> float:
            return count * 100.0 / len(users) if users else 0.0

        def of_tweets(field: str) -> float:
            tweets = total("n_tweets")
            return total(field) * 100.0 / tweets if tweets else 0.0

        out[group] = {
            "pct_android": of_users(devices["android"]),
            "pct_iphone": of_users(devices["iphone"]),
            "pct_desktop": of_users(devices["desktop"]),
            "pct_profile_url": of_users(total("has_profile_url")),
            "pct_custom_image": of_users(total("has_custom_image")),
            "pct_geo_enabled": of_users(total("geo_enabled")),
            "pct_geotagged": of_users(total("geotagged")),
            "avg_statuses": mean([float(user.statuses_count)
                                  for user in users]),
            "avg_tweets_per_month": mean([
                user.tweets_per_month for user in users
                if user.tweets_per_month is not None]),
            "pct_tweets_mention": of_tweets("mentions"),
            "pct_tweets_image": of_tweets("images"),
            "pct_tweets_url": of_tweets("urls"),
        }
    return out


def sage_deviations(group_counts: dict[str, float],
                    background_counts: dict[str, float],
                    lam: float) -> dict[str, float]:
    """Additive log-odds deviations eta of the group's word distribution from
    the background log-frequencies with L1 shrinkage lam (SAGE, Eisenstein,
    Ahmed & Xing 2011): the exact maximizer of sum_i c_i log p_i -
    lam * sum_i |eta_i|, where p is proportional to b * exp(eta), c the group
    counts and b the normalized background. lam = 0 is the closed-form
    log-odds ratio. Zero group counts get a 0.01 pseudo-count; every group
    word must exist in the background with a positive count, and lam must be
    a finite number >= 0.

    Given t = log Z, the penalty is separable and each weight has a closed
    form; t is the root of a monotone equation that is closed-form between
    the sorted breakpoints. When that equation is zero on a whole segment
    (the zero band is empty and the signs balance), every t in it is optimal
    and eta only shifts by a constant; the segment's midpoint is taken, which
    leaves no weight exactly at zero."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be a finite number >= 0, got {lam!r}")
    vocab = sorted(background_counts)
    for word, count in background_counts.items():
        if count <= 0:
            raise ValueError(f"background count for {word!r} must be positive")
    for word, count in group_counts.items():
        if count > 0 and word not in background_counts:
            raise ValueError(f"group word {word!r} missing from background")
    counts = [group_counts.get(word, 0) or 0.01 for word in vocab]
    total = math.fsum(counts)
    bg_total = math.fsum(background_counts.values())
    bg = [background_counts[word] / bg_total for word in vocab]
    if lam == 0 or not vocab:
        return {word: math.log(count / total) - math.log(b)
                for word, count, b in zip(vocab, counts, bg)}

    # eta_i(t) = max(t - up_i, 0) + min(t - down_i, 0): negative below
    # down_i, zero between, positive above up_i (never when c_i <= lam)
    n = len(vocab)
    down = [math.log(total * b / (count + lam)) for count, b in zip(counts, bg)]
    up = [math.log(total * b / (count - lam)) if count > lam else math.inf
          for count, b in zip(counts, bg)]

    # Sweeping t upwards, word i joins the zero band at down_i and leaves it
    # at up_i. With B the background mass of the zero band and
    # S = sum_zero c + lam * (n_up - n_down), sum_i b_i exp(eta_i(t)) =
    # B + (1 - S / total) * e^t, so the root solves e^t = total * B / S and
    # total * B * e^-t - S falls monotonically. Breakpoint j is word
    # owners[j] joining the band when j < n and leaving it otherwise; the
    # stable sort keeps each word's join before its leave on a tie. Every
    # breakpoint raises n_up - n_down by one, so after k of them it is k - n.
    rises = [i for i, point in enumerate(up) if point < math.inf]
    points = down + [up[i] for i in rises]
    owners = list(range(n)) + rises
    order = sorted(range(len(points)), key=points.__getitem__)
    if sum(1 if j < n else -1 for j in order[:n]) == 0:
        # after n breakpoints n_up = n_down; with the zero band empty too,
        # B = S = 0 and every t up to breakpoint n solves: take the midpoint
        t = (points[order[n - 1]] + points[order[n]]) / 2.0
    else:
        # the first breakpoint p with total * B * e^-p <= S, compared in logs
        mass, excess, k = 0.0, -lam * n, len(order)
        for index, j in enumerate(order):
            sign = 1.0 if j < n else -1.0
            mass += sign * bg[owners[j]]
            excess += lam + sign * counts[owners[j]]
            if excess > 0 and (mass <= 0 or math.log(total * mass) - points[j]
                               <= math.log(excess)):
                k = index
                break
        k = max(k, 1)
        # the root lies between breakpoints k-1 and k; that segment's B and S
        # are summed afresh, free of the running sums' cancellation
        band = [False] * n
        for j in order[:k]:
            band[owners[j]] = j < n
        mass = math.fsum(b for b, inside in zip(bg, band) if inside)
        excess = (math.fsum(c for c, inside in zip(counts, band) if inside)
                  + lam * (k - n))
        lo = points[order[k - 1]]
        hi = points[order[k]] if k < len(order) else math.inf
        if excess <= 0:
            t = hi
        elif mass == 0:
            t = lo
        else:
            t = min(max(math.log(total * mass / excess), lo), hi)
    return {word: max(t - u, 0.0) + min(t - d, 0.0)
            for word, d, u in zip(vocab, down, up)}


def distinctive_keywords(group_counts: dict[str, float],
                         background_counts: dict[str, float],
                         lam: float, top_n: int) -> list[str]:
    """Words ranked by positive deviation; words the group does not overuse
    never appear, so identical distributions give an empty list."""
    deviations = sage_deviations(group_counts, background_counts, lam)
    ranked = sorted(((-eta, word) for word, eta in deviations.items() if eta > 0))
    return [word for _, word in ranked[:top_n]]


def group_token_counts(users: Iterable[UserSummary]) -> Counter:
    """Token counts over the tweets of a group's users (word and
    contraction kinds), the input for distinctive_keywords."""
    return group_lexical_pass(users)[1]
