"""The sha256 of a unigram and a name-model model.json trained through the
CLI on seeded fixtures.

A model file holds the exact float64 bytes of every trained tensor, so any
change to the order or the values of the sums that training adds up shows
here. Both digests were last re-recorded on purpose, together:
- the unigram file no longer holds the "stopwords" list, which nothing
  read back; its vocab, weights and bias bytes are unchanged;
- the name model's convolution now projects each distinct character once
  per filter slot and sums three slot projections per window, instead of
  one product over each window's concatenated embeddings, so its sums run
  in another order; the file also no longer holds "max_len".
They pin the bytes of this numpy build and its BLAS (the name model's dense
products go through BLAS, whose kernels differ between CPU families)."""
import hashlib
import json
import random

from identminer.cli import main
from identminer.datasets import LabeledUser, write_dataset_tsv
from identminer.filters import CLASS_ORDER

from helpers import tweet_payload, user_payload, write_jsonl

UNIGRAM_SHA256 = ("236300a8e98e215f9b5aa68524658353"
                  "77727c9c7e1babe133d8092763a4c811")
NAMECNN_SHA256 = ("9330b969951847f0f6bf62eb162de226"
                  "b90252b46c848b70a975822d423b5264")

SHARED_WORDS = ("chat", "today", "coffee", "music", "game", "team", "work",
                "night", "love", "city", "news", "food")
CLASS_WORDS = ("alpha", "bravo", "charlie", "delta")
LETTERS = "abcdefghijklmnopqrstuvwxyz -'"


def seeded_fixture(tmp_path, seed=7, per_class=12):
    """per_class users of each class: tweets mix shared words with their
    class's word, and names of 1 to 24 characters, some shorter than the
    filter width, lean toward one letter per class."""
    rng = random.Random(seed)
    payloads, users = [], []
    for c, label in enumerate(CLASS_ORDER):
        for j in range(per_class):
            user_id = f"{label.value.lower()}{j:02d}"
            tweets = []
            for k in range(rng.randint(0, 6)):
                words = [rng.choice(SHARED_WORDS)
                         for _ in range(rng.randint(1, 9))]
                words += [CLASS_WORDS[c]] * rng.randint(0, 3)
                rng.shuffle(words)
                tweets.append(tweet_payload(" ".join(words), hours=-1.0 - k))
            name = "".join(rng.choice(LETTERS + "abcd"[c] * 6)
                           for _ in range(rng.randint(1, 24)))
            profile = {"followers_count": rng.randint(0, 5000),
                       "statuses_count": rng.randint(0, 90000),
                       "has_profile_url": rng.random() < 0.5,
                       "has_custom_image": rng.random() < 0.5,
                       "geo_enabled": rng.random() < 0.3}
            payloads.append(user_payload(user_id, name=name,
                                         tweets=tuple(tweets),
                                         profile=profile))
            auto = j % 3 == 0
            users.append(LabeledUser(user_id=user_id, label=label,
                                     source="HF" if auto else "crowd",
                                     score=rng.random() if auto else None))
    corpus = write_jsonl(tmp_path / "corpus.jsonl", payloads)
    data = tmp_path / "data.tsv"
    write_dataset_tsv(users, data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 4, "batch_size": 8,
                                  "min_char_count": 2,
                                  "instance_downweight": 0.5}),
                      encoding="utf-8")
    return ["--corpus", str(corpus), "--train-data", str(data),
            "--config", str(config), "--seed", "5"]


def trained_model_sha256(tmp_path, model: str) -> str:
    out = tmp_path / model
    assert main(["train", "--model", model, *seeded_fixture(tmp_path),
                 "--out", str(out)]) == 0
    return hashlib.sha256((out / "model.json").read_bytes()).hexdigest()


def test_unigram_model_bytes_are_pinned(tmp_path):
    assert trained_model_sha256(tmp_path, "unigram") == UNIGRAM_SHA256


def test_name_model_bytes_are_pinned(tmp_path):
    assert trained_model_sha256(tmp_path, "namecnn") == NAMECNN_SHA256
