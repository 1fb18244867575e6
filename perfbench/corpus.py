"""Seeded synthetic corpus for the benchmark.

`generate(workload, seed, out_dir)` writes everything one workload reads:

- ``corpus.jsonl``: one user per line, plus about 1% malformed lines of the
  kinds the CLI promises to count and skip (bad JSON, invalid UTF-8, blank
  lines, a record without ``user_id``);
- ``train.tsv`` / ``test.tsv``: ``user_id<TAB>label<TAB><TAB>crowd`` rows
  holding each user's planted class;
- ``votes.tsv``: ``user_id<TAB>yes|no|unsure<TAB>annotator`` rows for
  ``tune``, three annotators per user with some disagreement;
- ``manifest.json``: the parameters, the planted shares as generated, the
  planted truth the quality metrics are scored against, and why the
  workload exists.

Every user belongs to one class (W, B, HL, A). The class drives the
description (when it carries a query keyword), the tweet vocabulary and the
display name, so each workload has a signal its model can learn.

Description kinds and what the pipeline should do with them:

- ``selfreport``: "i am a proud black teacher ..." -- a first-person
  self-report; the true positives of the HF dataset.
- ``bare``: the query keyword without a first-person trigger and without
  self-report words near it ("black history month ..."); a third of them form
  a person bigram ("asian guy ...") and so are the QB dataset.
- ``fp_<filter>``: a description that scores like a self-report but trips
  exactly one heuristic filter (color, plural, bigram blocklist, quote).
- ``filler``: no query keyword.

Known defect deliberately not planted: a numeric overflow such as
``"followers_count": 1e400`` raises out of the corpus parser and aborts the
run instead of being skipped, so it would fail every run of every workload.
"""
from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

CLASSES = ("W", "B", "HL", "A")

# query keywords per class (a subset of the program's query map)
QUERIES = {
    "W": ("white", "caucasian"),
    "B": ("black", "african-american"),
    "HL": ("hispanic", "latina", "latino", "latinx"),
    "A": ("asian",),
}
# adjectives and head nouns of planted self-reports; all are JJ / NN entries
# of the bundled tag lexicon, so lexicon induction keeps them
SR_ADJECTIVES = ("proud", "happy", "humble", "passionate", "creative",
                 "curious", "independent", "loyal", "honest", "fearless")
SR_HEADS = ("teacher", "nurse", "artist", "writer", "farmer", "designer",
            "engineer", "coach", "chef", "doctor", "dancer", "editor")
SR_TRIGGERS = ("i am", "i'm")
PERSON_WORDS = ("woman", "man", "guy", "girl", "gal", "boy", "person")
# filler vocabulary shared by every class; disjoint from the self-report words
FILLER = ("coffee", "lover", "music", "travel", "dogs", "books", "sports",
          "fan", "life", "family", "first", "follow", "back", "news", "daily",
          "opinions", "mine", "tweets", "about", "stuff", "things", "and",
          "the", "of", "in", "on", "my", "all", "day", "night", "world",
          "city", "food", "games", "movies", "art", "love", "peace", "home")
BARE_TAILS = ("history month", "excellence daily", "culture news",
              "community updates", "film club", "heritage notes")
# second colors for the color false positives; black and white are query
# keywords themselves and would make the description ambiguous
SECOND_COLORS = ("red", "green", "blue", "purple", "orange", "pink")
PLURAL_NOUNS = ("people", "folks", "women", "men", "kids", "friends")
BLOCKED_BIGRAMS = {
    "W": ("white", ("wine", "noise", "knight", "paper")),
    "B": ("black", ("sheep", "coffee", "belt", "swan")),
    "HL": ("latin", ("jazz", "music", "dance")),
    "A": ("asian", ("fusion", "cuisine", "market")),
}

# class-dependent tweet vocabulary: a few marker words per class on top of
# the shared filler
MARKERS = {
    "W": ("hockey", "lacrosse", "kayak", "chowder", "bluegrass", "ranch",
          "maple", "skiing"),
    "B": ("gospel", "cookout", "hbcu", "jollof", "braids", "stepshow",
          "collards", "spades"),
    "HL": ("abuela", "quinceanera", "tamales", "reggaeton", "fiesta",
           "horchata", "novela", "futbol"),
    "A": ("boba", "kpop", "ramen", "dimsum", "mochi", "anime", "pho",
          "lunar"),
}
TWEET_WORDS = FILLER + ("today", "tonight", "weekend", "work", "school",
                        "great", "new", "just", "really", "got", "going",
                        "time", "people", "good", "best", "game", "watch")
CONTRACTIONS = ("don't", "can't", "i'm", "it's", "that's", "won't")
SOURCES = {
    "W": ("Twitter for iPhone", "Twitter for iPhone", "Twitter Web App",
          "Twitter for Android"),
    "B": ("Twitter for iPhone", "Twitter for Android", "Twitter for Android",
          "Twitter Web App"),
    "HL": ("Twitter for Android", "Twitter for Android", "Twitter for iPhone",
           "Twitter Web App"),
    "A": ("Twitter for iPhone", "Twitter Web App", "Twitter Web App",
          "Twitter for Android"),
}

# syllables of display names; a name draws most syllables from its class set
NAME_SYLLABLES = {
    "W": ("bra", "dley", "con", "nor", "kel", "ton", "jax", "ham", "ber",
          "wyn"),
    "B": ("sha", "quan", "deon", "kei", "isha", "tav", "ron", "dre", "nee",
          "zel"),
    "HL": ("jo", "se", "lu", "ria", "pe", "rez", "gon", "za", "les", "vi"),
    "A": ("xi", "jun", "hao", "ming", "yu", "tak", "shi", "kim", "ng",
          "zhou"),
}
SHARED_SYLLABLES = ("an", "el", "mi", "ra", "to", "li")
NAME_PURITY = 0.95  # share of first-name syllables drawn from the class set

EPOCH = datetime(2024, 6, 1, 12, 0, 0, tzinfo=timezone.utc)

# Workload shapes. Each entry says why the workload exists; sizes are the
# defaults at scale 1.0 and were chosen so that one pass over the workload's
# subcommands takes several seconds on a 2-core machine.
WORKLOADS = {
    "bios": {
        "why": ("description path and thread fan-out: tokenize+tag, match, "
                "score, filter chain at --workers 2; tweets and models idle"),
        "n_users": 4000, "tweets": (1, 3), "votes_users": 600,
    },
    "timelines": {
        "why": ("tweet path: parse, tokenize, featurize, SGD and SAGE on few "
                "users with about 100 tweets each; description layers idle"),
        "n_users": 300, "tweets": (80, 120), "votes_users": 0,
    },
    "names": {
        "why": ("name CNN training and one-row-at-a-time predict, plus the "
                "corpus-free baselines; ingest and text layers nearly idle"),
        "n_users": 800, "tweets": (0, 1), "votes_users": 0,
    },
}

DESCRIPTION_SHARES = (
    ("selfreport", 0.30),
    ("bare", 0.20),
    ("fp_color", 0.01),
    ("fp_plural", 0.01),
    ("fp_bigram", 0.01),
    ("fp_quote", 0.01),
)
PERSON_BIGRAM_SHARE = 1 / 3  # of the bare-keyword descriptions
MALFORMED_SHARE = 0.01
MALFORMED_KINDS = ("bad_json", "invalid_utf8", "blank", "missing_user_id")
TEST_SHARE = 0.3
VOTE_FLIP = 0.15
VOTE_UNSURE = 0.05


def _iso(moment: datetime) -> str:
    return moment.isoformat().replace("+00:00", "Z")


def _description(rng: random.Random, kind: str, label: str) -> tuple[str, bool]:
    """(text, forms a person bigram)."""
    query = rng.choice(QUERIES[label])
    filler = " ".join(rng.sample(FILLER, rng.randint(0, 4)))
    if kind == "selfreport":
        article = "an" if query[0] in "aeiou" else "a"
        adj = rng.choice(SR_ADJECTIVES)
        text = (f"{rng.choice(SR_TRIGGERS)} {article} {adj} {query} "
                f"{rng.choice(SR_HEADS)}")
        return (f"{text} | {filler}" if filler else text), False
    if kind == "bare":
        if rng.random() < PERSON_BIGRAM_SHARE:
            return f"{query} {rng.choice(PERSON_WORDS)} | {filler}".strip(" |"), True
        return f"{query} {rng.choice(BARE_TAILS)} {filler}".strip(), False
    adj = rng.choice(SR_ADJECTIVES)
    head = rng.choice(SR_HEADS)
    if kind == "fp_color":
        return f"{adj} {query} and {rng.choice(SECOND_COLORS)} {head}", False
    if kind == "fp_plural":
        return f"{adj} {query} {rng.choice(PLURAL_NOUNS)} {head}", False
    if kind == "fp_bigram":
        first, seconds = BLOCKED_BIGRAMS[label]
        return f"{adj} {first} {rng.choice(seconds)} {head}", False
    if kind == "fp_quote":
        return f'"{adj} {query} {head}" {filler}'.strip(), False
    return filler or "hello world", False


def _tweet(rng: random.Random, label: str, hours_back: float) -> dict:
    words = []
    for _ in range(rng.randint(6, 14)):
        roll = rng.random()
        if roll < 0.12:
            words.append(rng.choice(MARKERS[label]))
        elif roll < 0.16:
            words.append(rng.choice(CONTRACTIONS))
        elif roll < 0.19:
            words.append("#" + rng.choice(FILLER))
        elif roll < 0.21:
            words.append(f"@user{rng.randint(1, 500)}")
        else:
            words.append(rng.choice(TWEET_WORDS))
    if rng.random() < 0.1:
        words.append(f"https://t.co/{rng.randint(10**5, 10**6)}")
    return {
        "text": " ".join(words),
        "created_at": _iso(EPOCH - timedelta(hours=hours_back)),
        "source_app": rng.choice(SOURCES[label]),
        "has_image": rng.random() < 0.2,
        "has_url": rng.random() < 0.1,
        "mentions_user": rng.random() < 0.3,
        "geotagged": rng.random() < 0.05,
    }


def _name(rng: random.Random, label: str) -> str:
    parts = []
    for _ in range(rng.randint(2, 3)):
        pool = (NAME_SYLLABLES[label] if rng.random() < NAME_PURITY
                else SHARED_SYLLABLES)
        parts.append(rng.choice(pool))
    last = "".join(rng.choice(NAME_SYLLABLES[label]) for _ in range(2))
    return f"{''.join(parts).capitalize()} {last.capitalize()}"


def _malformed(kind: str, index: int) -> bytes:
    if kind == "bad_json":
        return b'{"user_id": "broken' + str(index).encode() + b'", "name": '
    if kind == "invalid_utf8":
        return b'{"user_id": "bad\xff\xfe' + str(index).encode() + b'"}'
    if kind == "blank":
        return b"   "
    return json.dumps({"name": "no id", "description": "",
                       "snapshot_time": _iso(EPOCH)}).encode()


def generate(workload: str, seed: int, out_dir, scale: float = 1.0) -> dict:
    """Write the workload's inputs under out_dir; returns the manifest.

    The same (workload, seed, scale) always writes the same bytes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    n_users = max(40, round(shape["n_users"] * scale))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    kinds_pool = []
    for kind, share in DESCRIPTION_SHARES:
        kinds_pool.extend([kind] * round(share * n_users))
    kinds_pool.extend(["filler"] * (n_users - len(kinds_pool)))
    rng.shuffle(kinds_pool)

    users = []
    kind_counts: dict[str, int] = {}
    selfreport: dict[str, str] = {}
    person_bigram: dict[str, str] = {}
    matched: list[tuple[str, bool]] = []  # (user_id, is self-report)
    lines: list[bytes] = []
    low, high = shape["tweets"]
    for i in range(n_users):
        user_id = f"u{i:06d}"
        label = CLASSES[i % len(CLASSES)]
        kind = kinds_pool[i]
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        description, bigram = _description(rng, kind, label)
        if kind == "selfreport":
            selfreport[user_id] = label
        if bigram:
            person_bigram[user_id] = label
        if kind != "filler":
            matched.append((user_id, kind == "selfreport"))
        n_tweets = rng.randint(low, high)
        offsets = sorted(rng.uniform(1, 24 * 365) for _ in range(n_tweets))
        record = {
            "user_id": user_id,
            "name": _name(rng, label),
            "description": description,
            "snapshot_time": _iso(EPOCH),
            "tweets": [_tweet(rng, label, hours) for hours in offsets],
            "profile": {
                "statuses_count": rng.randint(1, 60),
                "account_created_at": _iso(EPOCH - timedelta(
                    days=rng.randint(100, 4000))),
                "followers_count": rng.randint(0, 60),
                "has_profile_url": rng.random() < 0.4,
                "has_custom_image": rng.random() < 0.8,
                "geo_enabled": rng.random() < 0.2,
            },
        }
        users.append((user_id, label))
        lines.append(json.dumps(record, ensure_ascii=False).encode("utf-8"))

    n_malformed = max(len(MALFORMED_KINDS), round(MALFORMED_SHARE * n_users))
    malformed_counts = {kind: 0 for kind in MALFORMED_KINDS}
    for j in range(n_malformed):
        kind = MALFORMED_KINDS[j % len(MALFORMED_KINDS)]
        malformed_counts[kind] += 1
        lines.insert(rng.randint(0, len(lines)), _malformed(kind, j))
    with open(out / "corpus.jsonl", "wb") as handle:
        for line in lines:
            handle.write(line + b"\n")

    order = list(users)
    rng.shuffle(order)
    n_test = round(TEST_SHARE * len(order))
    splits = {"test": sorted(order[:n_test]), "train": sorted(order[n_test:])}
    for name, rows in splits.items():
        with open(out / f"{name}.tsv", "w", encoding="utf-8") as handle:
            for user_id, label in rows:
                handle.write(f"{user_id}\t{label}\t\tcrowd\n")

    voted = rng.sample(matched, min(shape["votes_users"], len(matched)))
    with open(out / "votes.tsv", "w", encoding="utf-8") as handle:
        for user_id, truth in sorted(voted):
            for annotator in ("a1", "a2", "a3"):
                roll = rng.random()
                if roll < VOTE_UNSURE:
                    vote = "unsure"
                elif roll < VOTE_UNSURE + VOTE_FLIP:
                    vote = "no" if truth else "yes"
                else:
                    vote = "yes" if truth else "no"
                handle.write(f"{user_id}\t{vote}\t{annotator}\n")

    manifest = {
        "workload": workload,
        "why": shape["why"],
        "seed": seed,
        "scale": scale,
        "n_users": n_users,
        "tweets_per_user": [low, high],
        "n_lines": len(lines),
        "description_kinds": dict(sorted(kind_counts.items())),
        "description_shares": {kind: count / n_users for kind, count
                               in sorted(kind_counts.items())},
        "malformed": malformed_counts,
        "n_train": len(splits["train"]),
        "n_test": len(splits["test"]),
        "n_vote_users": len(voted),
        "truth": {"selfreport": selfreport, "person_bigram": person_bigram},
        "not_planted": ["numeric overflow (followers_count 1e400) aborts the "
                        "run instead of being skipped"],
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return manifest
