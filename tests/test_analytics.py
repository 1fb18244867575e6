import math
import random
import time
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from identminer.analytics import (behavioral_profile, distinctive_keywords,
                                  group_lexical_pass, group_lexical_stats,
                                  group_token_counts, kendall_tau_top_k,
                                  lexical_chunks, mann_whitney_u,
                                  sage_deviations, user_lexical_means,
                                  user_summary)
from identminer.datasets import read_dataset_tsv
from identminer.filters import CLASS_ORDER
from identminer.ingest import UserLine, dedupe_latest, load_users
from identminer.scorer import DISCARD, majority_vote
from identminer.textprep import tokenize
from identminer.util import mean

from helpers import (default, iso, payload_line, summaries, tweet_payload,
                     tweet_texts, user_payload)
from reference_description import reference_tokenize

W, B, HL, A = CLASS_ORDER
# the CLI's default SAGE penalty and keyword list length
LAM, TOP_N = default("sage_lambda"), default("top_n")


# ---------------------------------------------------------------------------
# Mann-Whitney U

def pair_count_u(sample_a, sample_b):
    """Textbook definition: one point per strictly-greater pair, half per tie."""
    return sum(1.0 if x > y else 0.5 if x == y else 0.0
               for x in sample_a for y in sample_b)


def test_mann_whitney_u_hand_case():
    u, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
    assert u == 0.0
    assert 0.0 < p < 1.0


def test_mann_whitney_u_statistic_matches_pair_count(rng):
    pool = [0.0, 0.5, 1.0, 1.5, 2.0]
    compared = 0
    for _ in range(400):
        a = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        b = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        if len(set(a + b)) == 1:
            with pytest.raises(ValueError):
                mann_whitney_u(a, b)
            continue
        u, _ = mann_whitney_u(a, b)
        assert u == pair_count_u(a, b)
        compared += 1
    assert compared > 300


def test_mann_whitney_u_sum_identity(rng):
    for _ in range(50):
        a = [rng.uniform(0, 3) for _ in range(rng.randint(1, 8))]
        b = [rng.uniform(0, 3) for _ in range(rng.randint(1, 8))]
        u_a, _ = mann_whitney_u(a, b)
        u_b, _ = mann_whitney_u(b, a)
        assert u_a + u_b == pytest.approx(len(a) * len(b), abs=1e-9)


def test_mann_whitney_u_against_scipy(rng):
    pool = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    compared = 0
    for _ in range(300):
        a = [rng.choice(pool) for _ in range(rng.randint(2, 8))]
        b = [rng.choice(pool) for _ in range(rng.randint(2, 8))]
        if len(set(a + b)) == 1:
            continue
        u, p = mann_whitney_u(a, b)
        expected = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                            use_continuity=True,
                                            method="asymptotic")
        assert u == expected.statistic
        # near-zero z the clipping conventions differ, skip the p comparison
        if abs(u - len(a) * len(b) / 2.0) >= 0.5:
            assert p == pytest.approx(expected.pvalue, abs=1e-9)
            compared += 1
    assert compared > 150


def test_mann_whitney_u_rejects_bad_input():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])
    with pytest.raises(ValueError):
        mann_whitney_u([1.0], [])
    with pytest.raises(ValueError):
        mann_whitney_u([2.0, 2.0], [2.0, 2.0])


# ---------------------------------------------------------------------------
# Kendall tau over top-k lists

def scipy_tau(list_a, list_b, k):
    top_a, top_b = list(list_a)[:k], list(list_b)[:k]
    rank_a = {item: i + 1 for i, item in enumerate(top_a)}
    rank_b = {item: i + 1 for i, item in enumerate(top_b)}
    universe = list(dict.fromkeys(top_a + top_b))
    ra = [rank_a.get(item, k + 1) for item in universe]
    rb = [rank_b.get(item, k + 1) for item in universe]
    return scipy.stats.kendalltau(ra, rb).statistic


def test_kendall_tau_identical_lists():
    items = ["a", "b", "c", "d"]
    assert kendall_tau_top_k(items, items, 4) == 1.0


def test_kendall_tau_reversed_lists():
    items = ["a", "b", "c", "d"]
    assert kendall_tau_top_k(items, items[::-1], 4) == -1.0


def test_kendall_tau_partial_overlap_hand_case():
    # universe (w, x, y): ranks a = (1, 2, 3), b = (3, 1, 2)
    # one concordant pair, two discordant, no ties
    tau = kendall_tau_top_k(["w", "x"], ["x", "y"], 2)
    assert tau == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_kendall_tau_matches_scipy(rng):
    pool = [f"w{i}" for i in range(12)]
    for _ in range(500):
        k = rng.randint(2, 8)
        a = rng.sample(pool, k)
        b = rng.sample(pool, k)
        tau = kendall_tau_top_k(a, b, k)
        assert tau == pytest.approx(scipy_tau(a, b, k), abs=1e-12)


def test_kendall_tau_truncates_to_k():
    a = ["a", "b", "c", "d"]
    b = ["a", "b", "x", "y"]
    assert kendall_tau_top_k(a, b, 2) == 1.0


def test_kendall_tau_rejects_bad_input():
    with pytest.raises(ValueError):
        kendall_tau_top_k(["a", "a"], ["a", "b"], 2)
    with pytest.raises(ValueError):
        kendall_tau_top_k(["a"], ["b"], 0)
    # single shared item: every pair tied, tau undefined
    with pytest.raises(ValueError):
        kendall_tau_top_k(["a"], ["a"], 1)


# ---------------------------------------------------------------------------
# adjudication

def test_majority_vote_outcomes():
    assert majority_vote(["yes", "yes", "no"]) == "yes"
    assert majority_vote(["no", "no", "unsure"]) == "no"
    assert majority_vote(["yes", None, ""]) == "yes"
    assert majority_vote(["yes", "no"]) is DISCARD
    assert majority_vote(["unsure", "unsure", "no"]) is DISCARD
    assert majority_vote([None, "missing", ""]) is DISCARD
    assert majority_vote([]) is DISCARD


def test_majority_vote_rejects_unknown_label():
    with pytest.raises(ValueError):
        majority_vote(["yes", "maybe"])


# ---------------------------------------------------------------------------
# lexical statistics

def one_tweet_means(text: str, stopwords: frozenset = frozenset()) -> dict:
    """user_lexical_means of a user whose only tweet is text."""
    return user_lexical_means([text], lexical_chunks(stopwords), Counter())


def test_type_token_ratio():
    assert one_tweet_means("a b a")["ttr"] == pytest.approx(2.0 / 3.0)
    assert one_tweet_means("")["ttr"] == 0.0
    assert one_tweet_means("go go go")["ttr"] == pytest.approx(1.0 / 3.0)


def test_lexical_diversity_drops_urls_mentions_stopwords():
    text = "the cat sat @mike https://x.co"
    assert len(tokenize(text)) == 5
    ld = one_tweet_means(text, frozenset({"the"}))["ld"]
    assert ld == pytest.approx(2.0 / 5.0)
    assert one_tweet_means("")["ld"] == 0.0


def reference_lexical_means(texts, stopwords, word_counts):
    """user_lexical_means as four passes over the token records of each
    tweet text (reference_tokenize)."""
    if not texts:
        return None
    ttr, ld, cpt, hpt = [], [], [], []
    for text in texts:
        tokens = reference_tokenize(text)
        n = len(tokens)
        ttr.append(len({tok.text for tok in tokens}) / n if n else 0.0)
        content = [tok for tok in tokens if tok.kind not in ("url", "mention")
                   and tok.text not in stopwords]
        ld.append(len(content) / n if n else 0.0)
        cpt.append(sum(1 for tok in tokens if tok.kind == "contraction"))
        hpt.append(sum(1 for tok in tokens if tok.kind == "hashtag"))
        word_counts.update(tok.text for tok in tokens
                           if tok.kind in ("word", "contraction"))
    return {"ttr": mean(ttr), "ld": mean(ld), "cpt": mean(cpt),
            "hpt": mean(hpt)}


def per_token_lexical_means(texts, stopwords, word_counts):
    """user_lexical_means as one loop over the (text, kind) of the token
    records of each tweet text, the way it was computed before the tweet
    scan returned token texts sorted by kind."""
    if not texts:
        return None
    ttr, ld, cpt, hpt = [], [], [], []
    words = []
    for tweet in texts:
        pairs = [(tok.text, tok.kind) for tok in reference_tokenize(tweet)]
        types = set()
        content = contractions = hashtags = 0
        for text, kind in pairs:
            types.add(text)
            if kind == "word":
                words.append(text)
            elif kind == "contraction":
                words.append(text)
                contractions += 1
            elif kind == "hashtag":
                hashtags += 1
            elif kind == "url" or kind == "mention":
                continue
            if text not in stopwords:
                content += 1
        n = len(pairs)
        ttr.append(len(types) / n if n else 0.0)
        ld.append(content / n if n else 0.0)
        cpt.append(contractions)
        hpt.append(hashtags)
    word_counts.update(words)
    return {"ttr": mean(ttr), "ld": mean(ld), "cpt": mean(cpt),
            "hpt": mean(hpt)}


def assert_lexical_means_match(reference, texts, stopwords):
    """The same dict, and the same word_counts items in the same insertion
    order, as the reference."""
    stopwords = frozenset(stopwords)
    counts, expected_counts = Counter(), Counter()
    stats = user_lexical_means(texts, lexical_chunks(stopwords), counts)
    assert stats == reference(texts, stopwords, expected_counts)
    assert list(counts.items()) == list(expected_counts.items())


lexical_cases = given(
    st.lists(tweet_texts(), max_size=4),
    st.sets(st.sampled_from(["the", "a", "i'm", "#fun", "go", "😀", "don't",
                             "!", "ας", "❶", "-", "www", "https"])))


@lexical_cases
@settings(max_examples=200)
def test_user_lexical_means_equals_the_tokenize_reference(texts, stopwords):
    assert_lexical_means_match(reference_lexical_means, texts, stopwords)


@lexical_cases
@settings(max_examples=200)
def test_user_lexical_means_equals_the_per_token_formula(texts, stopwords):
    assert_lexical_means_match(per_token_lexical_means, texts, stopwords)


def test_user_lexical_means_hand_fixture():
    counts = Counter()
    stats = user_lexical_means(["i'm happy #fun", "go go go"],
                               lexical_chunks(frozenset({"happy"})), counts)
    assert counts == {"i'm": 1, "happy": 1, "go": 3}
    assert stats["ttr"] == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)
    assert stats["ld"] == pytest.approx((2.0 / 3.0 + 1.0) / 2.0)
    assert stats["cpt"] == pytest.approx(0.5)
    assert stats["hpt"] == pytest.approx(0.5)


def test_user_lexical_means_without_tweets_is_none():
    counts = Counter()
    assert user_lexical_means([], lexical_chunks(frozenset()),
                              counts) is None
    assert counts == {}


def test_user_lexical_means_honors_max_tweets():
    # the summary of max_tweets 1 reads the newest tweet only
    summary = user_summary(payload_line(user_payload("u1", tweets=(
        tweet_payload("#x #y", hours=-2.0),
        tweet_payload("one two three", hours=-1.0),
    ))), 1, lexical_chunks(frozenset()))
    assert summary.lexical["hpt"] == 0.0  # only the newest tweet counted
    assert summary.n_tweets == 1


def test_group_lexical_pass_gives_samples_and_counts_in_one_pass():
    texts = ["i'm happy #fun", "go go go", "old words"]
    busy = user_payload("u1", tweets=tuple(
        tweet_payload(text, hours=-1.0 - i) for i, text in enumerate(texts)))
    idle = user_payload("u2")
    stopwords = frozenset({"happy"})
    samples, counts = group_lexical_pass(summaries([busy, idle], stopwords))
    assert samples == [user_lexical_means(texts, lexical_chunks(stopwords),
                                          Counter())]
    assert counts == {"i'm": 1, "happy": 1, "go": 3, "old": 1, "words": 1}


def test_group_lexical_stats_skips_tweetless_and_macro_averages():
    busy = user_payload("u1", tweets=(tweet_payload("i'm happy #fun"),))
    idle = user_payload("u2")
    stats = group_lexical_stats(
        {W: summaries([busy, idle], frozenset({"happy"}))})[W]
    assert set(stats) == {"type_token_ratio", "lexical_diversity",
                          "contractions_per_tweet", "hashtags_per_tweet"}
    assert stats["type_token_ratio"] == pytest.approx(1.0)
    assert stats["lexical_diversity"] == pytest.approx(2.0 / 3.0)
    assert stats["contractions_per_tweet"] == pytest.approx(1.0)
    assert stats["hashtags_per_tweet"] == pytest.approx(1.0)


def test_group_lexical_stats_invariant_under_user_duplication():
    user = user_payload("u1", tweets=(tweet_payload("i'm happy #fun"),
                                      tweet_payload("go go go", hours=-2.0)))
    clone = user_payload("u2", tweets=user["tweets"])
    single = group_lexical_stats({B: summaries([user])})[B]
    doubled = group_lexical_stats({B: summaries([user, clone])})[B]
    assert single["type_token_ratio"] == pytest.approx(
        doubled["type_token_ratio"])
    assert single["lexical_diversity"] == pytest.approx(
        doubled["lexical_diversity"])
    assert single["contractions_per_tweet"] == pytest.approx(
        doubled["contractions_per_tweet"])
    assert single["hashtags_per_tweet"] == pytest.approx(
        doubled["hashtags_per_tweet"])


def test_group_lexical_stats_all_tweetless_is_zero():
    stats = group_lexical_stats({A: summaries([user_payload("u1")])})[A]
    assert stats["type_token_ratio"] == 0.0
    assert stats["lexical_diversity"] == 0.0


# ---------------------------------------------------------------------------
# behavioral profile

def two_user_group():
    u1 = user_payload("u1", tweets=(
        tweet_payload("one", hours=-2.0, source_app="Twitter for Android",
                      mentions_user=True, has_url=True, geotagged=True),
        tweet_payload("two", hours=-1.0, source_app="Twitter Web App",
                      has_image=True),
    ), profile={"statuses_count": 100,
                "account_created_at": iso(-1461.0),  # 60.875 days
                "has_profile_url": True, "geo_enabled": True})
    u2 = user_payload("u2", tweets=(
        tweet_payload("three", source_app="Twitter for iPhone"),
    ), profile={"statuses_count": 30, "has_custom_image": True})
    return [u1, u2]


def test_behavioral_profile_hand_fixture():
    profile = behavioral_profile({W: summaries(two_user_group())})[W]
    assert len(profile) == 12
    assert profile["pct_android"] == 50.0
    assert profile["pct_iphone"] == 50.0
    assert profile["pct_desktop"] == 50.0  # the web client counts as desktop
    assert profile["pct_profile_url"] == 50.0
    assert profile["pct_custom_image"] == 50.0
    assert profile["pct_geo_enabled"] == 50.0
    assert profile["pct_geotagged"] == 50.0
    assert profile["avg_statuses"] == 65.0
    # only u1 has a creation time: 60.875 days is exactly two months
    assert profile["avg_tweets_per_month"] == pytest.approx(50.0)
    assert profile["pct_tweets_mention"] == pytest.approx(100.0 / 3.0)
    assert profile["pct_tweets_image"] == pytest.approx(100.0 / 3.0)
    assert profile["pct_tweets_url"] == pytest.approx(100.0 / 3.0)


def test_behavioral_profile_tweet_duplication_moves_pooled_rows_only():
    users = two_user_group()
    base = behavioral_profile({W: summaries(users)})[W]
    u1 = users[0]
    extra = tweet_payload("four", hours=-0.5,
                          source_app="Twitter for Android", mentions_user=True)
    noisy = user_payload("u1", tweets=(*u1["tweets"], extra),
                         profile=u1["profile"])
    bumped = behavioral_profile({W: summaries([noisy, users[1]])})[W]
    assert bumped["pct_android"] == base["pct_android"]
    assert bumped["pct_geotagged"] == base["pct_geotagged"]
    assert bumped["avg_statuses"] == base["avg_statuses"]
    assert bumped["pct_tweets_mention"] == pytest.approx(50.0)  # 2 of 4 tweets
    assert bumped["pct_tweets_mention"] != base["pct_tweets_mention"]


def test_behavioral_profile_months_floor():
    user = user_payload("u1", profile={"statuses_count": 42,
                                       "account_created_at": iso(-1.0)})
    profile = behavioral_profile({HL: summaries([user])})[HL]
    assert profile["avg_tweets_per_month"] == 42.0


def test_behavioral_profile_ios_source_counts_as_iphone():
    user = user_payload("u1", tweets=(
        tweet_payload("hi", source_app="Tweetbot for iOS"),))
    profile = behavioral_profile({A: summaries([user])})[A]
    assert profile["pct_iphone"] == 100.0
    assert profile["pct_android"] == 0.0


def test_behavioral_profile_empty_group_is_all_zero():
    profile = behavioral_profile({B: []})[B]
    assert profile["pct_android"] == 0.0
    assert profile["pct_tweets_url"] == 0.0
    assert profile["avg_statuses"] == 0.0


# ---------------------------------------------------------------------------
# distinctive keywords

def test_sage_deviations_closed_form_at_zero_penalty():
    group = {"a": 2.0, "b": 2.0}
    background = {"a": 1.0, "b": 1.0, "c": 2.0}
    eta = sage_deviations(group, background, lam=0.0)
    total = 4.01  # zero count for c becomes 0.01
    assert eta["a"] == pytest.approx(math.log(2.0 / total) - math.log(0.25),
                                     abs=1e-12)
    assert eta["a"] == eta["b"]
    assert eta["c"] == pytest.approx(math.log(0.01 / total) - math.log(0.5),
                                     abs=1e-12)


def test_sage_deviations_recover_group_distribution_at_zero_penalty():
    group = {"a": 6.0, "b": 3.0, "c": 1.0}
    background = {"a": 2.0, "b": 5.0, "c": 3.0}
    eta = sage_deviations(group, background, lam=0.0)
    words = sorted(background)
    bg = np.array([background[w] for w in words])
    log_bg = np.log(bg / bg.sum())
    shifted = log_bg + np.array([eta[w] for w in words])
    probs = np.exp(shifted - shifted.max())
    probs /= probs.sum()
    expected = np.array([group[w] for w in words]) / 10.0
    assert np.allclose(probs, expected, atol=1e-12)


def test_sage_identical_distributions_have_no_keywords():
    counts = {"a": 10.0, "b": 10.0}
    background = {"a": 5.0, "b": 5.0}
    eta = sage_deviations(counts, background, lam=1.0)
    assert max(abs(v) for v in eta.values()) < 1e-8
    assert distinctive_keywords(counts, background, lam=1.0,
                                top_n=TOP_N) == []


def test_distinctive_keywords_rank_overused_words_only():
    group = {"taco": 30.0, "word": 10.0}
    background = {"taco": 10.0, "word": 30.0}
    assert distinctive_keywords(group, background, lam=1.0,
                                top_n=TOP_N) == ["taco"]


def test_distinctive_keywords_alphabetical_tie_break_and_top_n():
    group = {"b": 2.0, "a": 2.0, "z": 1.0}
    background = {"a": 1.0, "b": 1.0, "z": 1.0}
    assert distinctive_keywords(group, background, lam=0.0,
                                top_n=TOP_N) == ["a", "b"]
    assert distinctive_keywords(group, background, lam=0.0, top_n=1) == ["a"]


def test_sage_penalty_shrinks_l1_norm(rng):
    words = [f"w{i}" for i in range(10)]
    group = {w: float(rng.randint(1, 40)) for w in words}
    background = {w: float(rng.randint(1, 40)) for w in words}
    loose = sage_deviations(group, background, lam=0.0)
    tight = sage_deviations(group, background, lam=2.0)
    assert sum(abs(v) for v in tight.values()) <= \
        sum(abs(v) for v in loose.values()) + 1e-9


def test_sage_deviations_input_validation():
    with pytest.raises(ValueError):
        sage_deviations({"a": 1.0}, {"a": 0.0}, LAM)
    with pytest.raises(ValueError):
        sage_deviations({"ghost": 2.0}, {"a": 1.0}, LAM)
    # a zero-count group word outside the background vocabulary is fine
    eta = sage_deviations({"a": 1.0, "ghost": 0.0}, {"a": 1.0, "b": 1.0},
                          LAM)
    assert "ghost" not in eta
    for lam in (-1.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam"):
            sage_deviations({"a": 1.0}, {"a": 1.0, "b": 1.0}, lam)
    assert sage_deviations({}, {}, 1.0) == {}


def _sage_arrays(group, background):
    """Counts (with the 0.01 pseudo-count for zeros) and the normalized
    background, in sorted-vocabulary order."""
    vocab = sorted(background)
    counts = np.array([group.get(word, 0.0) for word in vocab], dtype=float)
    counts[counts == 0.0] = 0.01
    bg = np.array([background[word] for word in vocab], dtype=float)
    return vocab, counts, bg / bg.sum()


def sage_objective(counts, bg, lam, eta):
    """The penalized negative log-likelihood that SAGE minimizes, in plain
    floats: on a few words numpy's cost per call would dominate."""
    logits = [math.log(b) + e for b, e in zip(bg, eta)]
    top = max(logits)
    log_z = top + math.log(sum([math.exp(x - top) for x in logits]))
    return (-sum([c * (x - log_z) for c, x in zip(counts, logits)])
            + lam * sum(map(abs, eta)))


def sage_kkt_residual(group, background, lam, deviations):
    """Largest violation of the optimality conditions, each relative to
    c_i + lam: the log-likelihood gradient g = c - C p must be lam where
    eta > 0, -lam where eta < 0, and within [-lam, lam] where eta = 0."""
    vocab, counts, bg = _sage_arrays(group, background)
    eta = np.array([deviations[word] for word in vocab])
    logits = np.log(bg) + eta
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    grad = counts - counts.sum() * probs
    violation = np.where(eta > 0, np.abs(grad - lam),
                         np.where(eta < 0, np.abs(grad + lam),
                                  np.maximum(np.abs(grad) - lam, 0.0)))
    return float(np.max(violation / (counts + lam)))


def fista_objective(counts, bg, lam, iterations=3000):
    """Objective value reached by accelerated proximal gradient (step 1/C,
    a bound on the likelihood's curvature) with restart on any increase, in
    plain floats like sage_objective."""
    total = sum(counts)
    step = 1.0 / total
    x = y = [0.0] * len(counts)
    momentum = 1.0
    best = sage_objective(counts, bg, lam, x)
    for _ in range(iterations):
        logits = [math.log(b) + v for b, v in zip(bg, y)]
        top = max(logits)
        weights = [math.exp(v - top) for v in logits]
        norm = sum(weights)
        moved = [v - step * (total * w / norm - c)
                 for v, w, c in zip(y, weights, counts)]
        x_new = [math.copysign(max(abs(v) - lam * step, 0.0), v)
                 for v in moved]
        value = sage_objective(counts, bg, lam, x_new)
        if value > best:
            momentum, y = 1.0, x
            continue
        next_momentum = (1.0 + math.sqrt(1.0 + 4.0 * momentum ** 2)) / 2.0
        y = [new + (momentum - 1.0) / next_momentum * (new - old)
             for new, old in zip(x_new, x)]
        x, best, momentum = x_new, value, next_momentum
    return best


def test_sage_hand_solved_three_words():
    # log Z = log(10/9): a sits above its upper breakpoint, b inside its zero
    # band and c below its lower one, so p = (0.5, 0.3, 0.2) and the gradient
    # c - C p = (1, 0, -1) meets lam = 1 with the signs of eta
    eta = sage_deviations({"a": 6.0, "b": 3.0, "c": 1.0},
                          {"a": 1.0, "b": 1.0, "c": 1.0}, lam=1.0)
    assert eta["a"] == pytest.approx(math.log(5.0 / 3.0), abs=1e-12)
    assert eta["b"] == 0.0
    assert eta["c"] == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)


def test_sage_non_unique_optimum_takes_the_segment_midpoint():
    # no weight is zero and two rise and two fall, so log Z is optimal on the
    # whole segment [log(12.5/19), log(12.5/6)] and eta only shifts with it;
    # the midpoint gives +-log(19/6)/2, where either endpoint zeroes a weight
    group = {"a": 20.0, "b": 20.0, "c": 5.0, "d": 5.0}
    background = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}
    eta = sage_deviations(group, background, lam=1.0)
    half = math.log(19.0 / 6.0) / 2.0
    for word, sign in (("a", 1), ("b", 1), ("c", -1), ("d", -1)):
        assert eta[word] == pytest.approx(sign * half, abs=1e-12)
    assert distinctive_keywords(group, background, lam=1.0,
                                top_n=TOP_N) == ["a", "b"]
    vocab, counts, bg = _sage_arrays(group, background)
    optimum = np.array([eta[word] for word in vocab])
    value = sage_objective(counts, bg, 1.0, optimum)
    for shift in (-0.99 * half, 0.99 * half):
        assert sage_objective(counts, bg, 1.0, optimum + shift) == \
            pytest.approx(value, rel=1e-12)


def test_sage_kkt_on_random_small_instances():
    rng = random.Random(20240601)
    for _ in range(300):
        words = [f"w{i}" for i in range(rng.randint(1, 12))]
        group = {w: float(rng.choice([0, 1, 2, rng.randint(0, 100)]))
                 for w in words}
        background = {w: rng.choice([1.0, 2.0, rng.uniform(0.01, 100.0)])
                      for w in words}
        lam = rng.choice([1e-9, 0.01, 0.5, 1.0, 2.0, 10.0, 1e6])
        eta = sage_deviations(group, background, lam)
        assert sage_kkt_residual(group, background, lam, eta) <= 1e-9


@pytest.mark.parametrize("seed", [3, 5])
def test_sage_kkt_on_timelines_groups(timelines, seed):
    # the groups analyze fits on the benchmark's timelines workload
    chunks = lexical_chunks(frozenset())
    with open(timelines[seed] / "corpus.jsonl", "rb") as handle:
        users = dedupe_latest((line for line in load_users(handle)
                               if isinstance(line, UserLine)),
                              lambda line: user_summary(
                                  line, default("max_tweets"), chunks))
    groups: dict = {}
    for user in read_dataset_tsv(timelines[seed] / "train.tsv"):
        if user.user_id in users:
            groups.setdefault(user.label, []).append(users[user.user_id])
    counts = {label: group_lexical_pass(group)[1]
              for label, group in groups.items()}
    background: Counter = Counter()
    for counter in counts.values():
        background.update(counter)
    assert len(counts) == 4
    for label, group in counts.items():
        eta = sage_deviations(group, background, 1.0)
        assert sage_kkt_residual(group, background, 1.0, eta) <= 1e-9, label


@settings(max_examples=40)
@given(pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(1, 30)),
                      min_size=2, max_size=8),
       lam=st.floats(0.05, 5.0))
def test_sage_matches_a_long_fista_run(pairs, lam):
    # compare objective values, not eta: the optimum can be non-unique
    group = {f"w{i}": float(count) for i, (count, _) in enumerate(pairs)}
    background = {f"w{i}": float(count) for i, (_, count) in enumerate(pairs)}
    eta = sage_deviations(group, background, lam)
    vocab, counts, bg = _sage_arrays(group, background)
    exact = sage_objective(counts, bg, lam, np.array([eta[w] for w in vocab]))
    fista = fista_objective(counts, bg, lam)
    scale = max(1.0, abs(fista))
    assert exact <= fista + 1e-9 * scale
    assert fista - exact <= 1e-6 * scale


def test_sage_large_vocabulary_is_fast():
    rng = np.random.default_rng(7)
    size = 100_000
    group = {f"w{i}": float(v) for i, v in enumerate(rng.poisson(3.0, size))}
    background = {f"w{i}": float(v) + 1.0
                  for i, v in enumerate(rng.poisson(3.0, size))}
    start = time.perf_counter()
    eta = sage_deviations(group, background, 1.0)
    assert time.perf_counter() - start < 1.0
    assert len(eta) == size


def test_group_token_counts_words_and_contractions_only():
    user = user_payload("u1", tweets=(
        tweet_payload("i'm happy happy #tag @mike https://x.co", hours=-1.0),))
    counts = group_token_counts(summaries([user]))
    assert counts == {"i'm": 1, "happy": 2}


def test_group_token_counts_honors_max_tweets():
    # the summary of max_tweets 1 reads the newest tweet only
    user = user_summary(payload_line(user_payload("u1", tweets=(
        tweet_payload("new words", hours=-1.0),
        tweet_payload("old words", hours=-5.0),
    ))), 1, lexical_chunks(frozenset()))
    counts = group_token_counts([user])
    assert counts == {"new": 1, "words": 1}
