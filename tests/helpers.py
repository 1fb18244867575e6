"""Shared factories and fixture corpora for the test suite.

The planted corpus built here is the backbone of the filter and dataset
tests: 100 descriptions that are genuine self-reports plus 25 false
positives per heuristic filter, each crafted so that exactly one filter
rejects it and every false positive scores 0.0.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import islice
from pathlib import Path

from hypothesis import strategies as st

import identminer
from identminer import resources
from identminer.cli import KEYS
from identminer.filters import DEFAULT_QUERY_MAP
from identminer.scorer import ScoreParams
from identminer.textprep import TagLexicon, Tagger

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(identminer.__file__).resolve().parents[1]

EPOCH = datetime(2024, 6, 1, 12, 0, 0, tzinfo=timezone.utc)


def default(key: str):
    """The CLI's default of a config key (cli.KEYS): the value a test passes
    where it means the default, since the library states none."""
    return KEYS[key][0]


def score_params(**given) -> ScoreParams:
    """ScoreParams of the given fields, each other field at its CLI
    default."""
    return ScoreParams(**{field: given.get(field, default(field))
                          for field in ScoreParams._fields})


def train_config(**given):
    """A TrainConfig of the given fields, each other field at the CLI
    default of its config key."""
    from identminer.models.training import TrainConfig
    return TrainConfig(**{field: given.get(field, default(field))
                          for field in TrainConfig._fields})


def ts(hours: float = 0.0) -> datetime:
    return EPOCH + timedelta(hours=hours)


@lru_cache(maxsize=None)
def iso(hours: float = 0.0) -> str:
    return ts(hours).isoformat().replace("+00:00", "Z")


@lru_cache(maxsize=1)
def tag_lexicon() -> TagLexicon:
    return resources.load_tag_lexicon()


@lru_cache(maxsize=1)
def tagger() -> Tagger:
    """The description stages' Tagger: the packaged lexicon, the query
    keywords marked."""
    return Tagger(tag_lexicon(), DEFAULT_QUERY_MAP)


def tag(text: str):
    """The Tagged scan of a description with the packaged lexicon."""
    return tagger().scan(text)


# pieces where the tokenizer's rules meet: apostrophes and contractions, the
# url/mention/hashtag prefixes with and without what completes them, emoji
# with variation selectors and zero-width joiners, the emoji that is also a
# word character (❶), letters whose lowercase changes length or meaning
# (dotted capital I, sharp s, Kelvin sign, capital sigma), whitespace that
# str.split and the pattern's \s both split at (information separators,
# next line, no-break space, line separator, ideographic space), and
# invisible characters that are not whitespace (zero-width space, BOM)
TRICKY_PIECES = ("'", "’", "#", "@", "http://", "https://", "www.", "-",
                 "i'm", "DON’T", "y'all", "😀", "👩‍💻", "👨‍👩‍👧",
                 "❤️", "\u200d", "\ufe0f", "\u0307", "İ", "ß", "\u212a",
                 "ΑΣ", ".", "!", "_", "7", " ", "\n", "❶", "#❶", "@!",
                 "www.x", "https", "\x1c", "\x1f", "\x85", "\xa0", "\u2028",
                 "\u3000", "\u200b", "\ufeff")


# TRICKY_PIECES and the pieces where the description pass's rules meet:
# trigger words in every case and apostrophe, adverbs, determiners,
# adjectives, singular and plural nouns, out-of-lexicon words, every query
# keyword, person keywords, colors, blocklisted neighbours, and straight and
# curly quotes
DESCRIPTION_PIECES = TRICKY_PIECES + (
    "i", "I", "am", "AM", "i'm", "I’M", "im", "Im", "so", "very", "a", "the",
    "an", "proud", "happy", "farmer", "nurse", "people", "fans", "zorgle",
    *DEFAULT_QUERY_MAP, "Black", "LATINA", "African-American", "woman",
    "guy", "red", "blue", "sheep", "jazz", "fusion", '"', "“", "”", "'s",
    "don't", "it’s")


# the words of self-report statements and their neighbours, drawn often
# enough that triggers, adverbs, determiners, adjectives and heads meet
STATEMENT_WORDS = ("i", "am", "i'm", "I’m", "im", "so", "very", "a", "the",
                   "proud", "happy", "black", "asian", "farmer", "woman",
                   "people", "zorgle", "and", "!", '"', "#tag")


def _description_pieces(drawn: tuple[bytes, str, str]) -> list[str]:
    """The pieces that the bytes of choices pick in turn: by byte b,
    DESCRIPTION_PIECES entry b if there is one, else the next 1 to 3 of
    letters (b odd) or the next character of chars (b even), so each kind
    has about a third of the byte values; a piece whose text has run out is
    left out. _joined_pieces cannot serve: its 86 table picks would miss
    one of the 87 DESCRIPTION_PIECES."""
    choices, letters, chars = drawn
    letters, chars = iter(letters), iter(chars)
    pieces = []
    for byte in choices:
        if byte < len(DESCRIPTION_PIECES):
            pieces.append(DESCRIPTION_PIECES[byte])
        elif byte % 2:
            pieces.append("".join(islice(letters, byte // 2 % 3 + 1)))
        else:
            pieces.append(next(chars, ""))
    return [piece for piece in pieces if piece]


def description_texts():
    """Descriptions: arbitrary text; up to 14 pieces joined by spaces or run
    together, each a DESCRIPTION_PIECES entry, 1 to 3 of the letters abcXYZ
    or any character; or runs of up to 12 STATEMENT_WORDS. The pieces come
    from one byte string and two texts, and a run from one byte string, so
    an example costs at most three draws, not one or more per piece."""
    pieces = st.tuples(st.binary(max_size=14),
                       st.text("abcXYZ", max_size=42),
                       st.text(max_size=14)).map(_description_pieces)
    statements = st.binary(max_size=12).map(lambda picks: " ".join(
        STATEMENT_WORDS[pick % len(STATEMENT_WORDS)] for pick in picks))
    return st.one_of(st.text(max_size=40), pieces.map(" ".join),
                     pieces.map("".join), statements)


def _joined_pieces(drawn: tuple[bytes, str, str]) -> str:
    """The pieces that the bytes of choices pick in turn, joined: by byte
    b, TRICKY_PIECES entry b // 3 (b % 3 == 0), the next 1 to 3 of letters
    (b % 3 == 1), or the next character of chars (b % 3 == 2); a piece
    whose text has run out is empty."""
    choices, letters, chars = drawn
    letters, chars = iter(letters), iter(chars)
    pieces = []
    for byte in choices:
        pick, kind = divmod(byte, 3)
        if kind == 0:
            pieces.append(TRICKY_PIECES[pick % len(TRICKY_PIECES)])
        elif kind == 1:
            pieces.append("".join(islice(letters, pick % 3 + 1)))
        else:
            pieces.append(next(chars, ""))
    return "".join(pieces)


def tweet_texts():
    """Arbitrary Unicode text, or up to 30 pieces joined with nothing
    between, each a TRICKY_PIECES entry, 1 to 3 of the letters abcXYZ or
    any character. The pieces come from one byte string and two texts, so
    an example costs three draws, not three per piece."""
    return st.one_of(st.text(), st.tuples(
        st.binary(max_size=30), st.text("abcXYZ", max_size=90),
        st.text(max_size=30)).map(_joined_pieces))


def cli_process(*argv: str, code: str | None = None,
                **env: str) -> subprocess.CompletedProcess:
    """python -m identminer.cli argv, or python -c code with argv as its
    arguments, with src on the path and env added to the environment."""
    command = ["-m", "identminer.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *command, *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})


def load_perfbench(name: str):
    """The benchmark module perfbench/NAME.py, loaded from its file. The
    tracer module spans is loaded to be read only: its install() patches
    the program's modules for the whole process, so tests never call it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# JSONL payload factories, and the checked lines ingest makes of them

def tweet_payload(text: str = "just another update", hours: float = -1.0,
                  source_app: str = "Twitter for iPhone", **flags) -> dict:
    payload = {"text": text, "created_at": iso(hours), "source_app": source_app}
    payload.update(flags)
    return payload


def user_payload(user_id: str, description: str = "", name: str = "",
                 hours: float = 0.0, tweets: tuple = (),
                 profile: dict | None = None) -> dict:
    return {
        "user_id": user_id,
        "name": name,
        "description": description,
        "snapshot_time": iso(hours),
        "tweets": list(tweets),
        "profile": profile if profile is not None else {},
    }


def payload_line(payload: dict):
    """The checked ingest.UserLine of a user payload's line."""
    from identminer.ingest import validate_user_line
    return validate_user_line(json.dumps(payload), 1)


def summaries(payloads, stopwords: frozenset = frozenset()) -> list:
    """analytics.user_summary of each user payload's line over all its
    tweets, with one lexical_chunks table."""
    from identminer.analytics import lexical_chunks, user_summary
    chunks = lexical_chunks(stopwords)
    return [user_summary(payload_line(payload), len(payload["tweets"]),
                         chunks) for payload in payloads]


def write_jsonl(path, rows) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            if isinstance(row, str):
                handle.write(row + "\n")
            else:
                handle.write(json.dumps(row) + "\n")
    return path


def write_unigram_model(path, vocab: dict[str, int], n_features: int,
                        **fields) -> Path:
    """A unigram model file with all-zero weights (4 x n_features) and bias,
    written through UnigramModel.to_dict; fields replace top-level entries
    of the payload (to plant a defect)."""
    import numpy as np
    from identminer.models.unigram import UnigramModel
    model = UnigramModel(vocab=vocab, weights=np.zeros((4, n_features)),
                         bias=np.zeros(4))
    path = Path(path)
    path.write_text(json.dumps({**model.to_dict(), **fields}),
                    encoding="utf-8")
    return path


def training_arrays(labels, sources, instance_downweight: float = 1.0):
    """(y_idx, sample_weights) of a labeled training set, weighted the way
    `train` weighs it: inverse class frequency times instance_downweight for
    the QB/HF/CB sources."""
    from identminer.models.training import (example_weights,
                                            inverse_class_weights,
                                            label_indices)
    weights = example_weights(labels, sources, inverse_class_weights(labels),
                              instance_downweight)
    return label_indices(labels), weights


# ---------------------------------------------------------------------------
# the planted corpus

# query keyword per class, in the canonical class order W, B, HL, A
PLANT_QUERIES = (("white", "W"), ("black", "B"), ("hispanic", "HL"),
                 ("asian", "A"))
# head nouns; all are NN entries of the packaged tag lexicon and none is a
# person keyword, so the true profiles never form person bigrams
PLANT_HEADS = ("farmer", "nurse", "teacher", "writer", "artist")

_SECOND_COLORS = ("red", "blue", "green", "purple", "orange")
_COLOR_TAILS = ("outfit ideas", "wardrobe goals", "decor fan",
                "design lover", "theme account")
_PLURAL_TAILS = ("watcher", "fan page", "blog account", "energy lover",
                 "music fan")
_BLOCK_PAIRS = (("black", "sheep"), ("white", "christmas"),
                ("asian", "fusion"), ("latin", "jazz"),
                ("hispanic", "heritage"))
_BLOCK_TAILS = ("of the family", "vibes only", "is my thing", "fan club",
                "all day")
_QUOTE_TAILS = ("is my motto", "she said once", "was the answer",
                "on repeat daily", "as they say")


def planted_rows() -> list[tuple[str, str, str]]:
    """(user_id, description, group) rows; group names the single filter a
    false positive trips, or "true"."""
    rows = []
    for i in range(100):
        query, _ = PLANT_QUERIES[i // 25]
        head = PLANT_HEADS[i % len(PLANT_HEADS)]
        article = "an" if query == "asian" else "a"
        rows.append((f"t{i:03d}", f"i am {article} {query} {head}", "true"))
    for i in range(25):
        # a second basic color elsewhere in the text, no trigger
        desc = f"black and {_SECOND_COLORS[i % 5]} {_COLOR_TAILS[i // 5]}"
        rows.append((f"fc{i:02d}", desc, "color"))
    for i in range(25):
        # the token after the keyword is a plural noun
        rows.append((f"fp{i:02d}", f"white people {_PLURAL_TAILS[i % 5]}",
                     "plural"))
    for i in range(25):
        # keyword + next token form a blocklisted bigram
        query, second = _BLOCK_PAIRS[i % 5]
        rows.append((f"fb{i:02d}", f"{query} {second} {_BLOCK_TAILS[i // 5]}",
                     "bigram_blocklist"))
    for i in range(25):
        # the keyword sits inside a quoted span
        query = "black" if i % 2 == 0 else "white"
        rows.append((f"fq{i:02d}", f'"i am {query}" {_QUOTE_TAILS[i // 5]}',
                     "quote"))
    return rows


def planted_descriptions() -> tuple[dict[str, str], set[str],
                                    dict[str, set[str]]]:
    """user_id -> description, as the description stages load them, plus
    the true-positive ids and the ids per tripped filter."""
    descriptions, true_ids, fp_ids = {}, set(), {}
    for user_id, description, group in planted_rows():
        descriptions[user_id] = description
        if group == "true":
            true_ids.add(user_id)
        else:
            fp_ids.setdefault(group, set()).add(user_id)
    return descriptions, true_ids, fp_ids


def planted_payloads() -> list[dict]:
    return [user_payload(user_id, description=description)
            for user_id, description, _ in planted_rows()]


# ---------------------------------------------------------------------------
# label fixtures and oracles for evaluation and model tests

def skewed_labels():
    """1000 gold labels with class shares 80.8 / 9.5 / 6.1 / 3.6 percent."""
    from identminer.filters import ClassLabel
    counts = {ClassLabel.WHITE: 808, ClassLabel.BLACK: 95,
              ClassLabel.HISPANIC_LATINX: 61, ClassLabel.ASIAN: 36}
    labels = []
    for label, count in counts.items():
        labels.extend([label] * count)
    return labels


class Echo:
    """Predictor whose features already are the intended prediction."""

    def predict_batch(self, features):
        return list(features)


def echo_report(labels, predictions):
    """The EvalReport that evaluate(), as the evaluate command calls it,
    gives for fixed predictions of the labels."""
    from identminer.evaluation import evaluate
    return evaluate(Echo(), list(zip(predictions, labels)),
                    default("setting"), default("seed"))


def loss_only(params: dict, ids, metas, y_idx, sample_weights,
              l2: float) -> float:
    """The name CNN's training loss alone, from the forward pass."""
    from identminer.models.namecnn import _forward, _loss_from_logits
    logits, _ = _forward(params, ids, metas)
    loss, _ = _loss_from_logits(logits, y_idx, sample_weights, params, l2)
    return loss


def gradient_check(model, names, metas, labels, sample_weights=None,
                   l2: float = 1e-4, step: float = 1e-5,
                   coords_per_tensor: int = 40, seed: int = 0) -> float:
    """Max relative error between the name CNN's analytic gradients
    (loss_and_grads) and central finite differences of loss_only, over
    sampled coordinates of every parameter tensor. Coordinates are sampled
    among those with non-negligible analytic gradient so the relative
    error is meaningful."""
    import numpy as np
    from identminer.models.namecnn import encode_names, loss_and_grads
    from identminer.models.training import label_indices
    ids = encode_names(names, model.char_vocab)
    metas = np.atleast_2d(np.asarray(metas, dtype=np.float64))
    y_idx = label_indices(labels)
    if sample_weights is None:
        sample_weights = np.ones(len(labels))
    sample_weights = np.asarray(sample_weights, dtype=np.float64)

    params = model.params
    _, grads = loss_and_grads(params, ids, metas, y_idx, sample_weights, l2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for key, tensor in params.items():
        grad = grads[key].ravel()
        candidates = np.flatnonzero(np.abs(grad) > 1e-5)
        if len(candidates) == 0:
            continue
        if len(candidates) > coords_per_tensor:
            candidates = rng.choice(candidates, size=coords_per_tensor,
                                    replace=False)
        flat = tensor.ravel()
        for coord in candidates:
            original = flat[coord]
            flat[coord] = original + step
            up = loss_only(params, ids, metas, y_idx, sample_weights, l2)
            flat[coord] = original - step
            down = loss_only(params, ids, metas, y_idx, sample_weights, l2)
            flat[coord] = original
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(grad[coord]), abs(numeric), 1e-8)
            worst = max(worst, abs(grad[coord] - numeric) / denom)
    return worst
