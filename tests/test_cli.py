import base64
import hashlib
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from identminer import cli
from identminer.cli import main
from identminer.datasets import LabeledUser, read_dataset_tsv, write_dataset_tsv
from identminer.filters import CLASS_ORDER, FILTER_NAMES
from identminer.models import baseline_majority, baseline_random, save_model
from identminer.textprep import SelfReportLexicon
from identminer.util import canonical_json

from helpers import (PLANT_HEADS, iso, make_user, planted_payloads,
                     planted_users, tweet_payload, user_payload, write_jsonl,
                     write_unigram_model)

W, B, HL, A = CLASS_ORDER


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def planted_corpus(tmp_path):
    return write_jsonl(tmp_path / "corpus.jsonl", planted_payloads())


def tweet_group_fixture(tmp_path):
    """Two users per class; tweets use one class-specific word plus a shared
    one, names use one class-specific letter."""
    words = {"W": "alpha", "B": "bravo", "HL": "charlie", "A": "delta"}
    names = {"W": "a", "B": "b", "HL": "c", "A": "d"}
    payloads, users = [], []
    for label in CLASS_ORDER:
        for j in range(2):
            user_id = f"{label.value.lower()}{j}"
            word = words[label.value]
            tweets = tuple(tweet_payload(f"{word} {word} chat", hours=-1.0 - k)
                           for k in range(2))
            payloads.append(user_payload(user_id, name=names[label.value] * (5 + j),
                                         tweets=tweets))
            users.append(LabeledUser(user_id=user_id, label=label,
                                     source="crowd", score=None))
    corpus = write_jsonl(tmp_path / "group_corpus.jsonl", payloads)
    data = tmp_path / "group_data.tsv"
    write_dataset_tsv(users, data)
    return corpus, data


def write_config(tmp_path, name, **config):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# lexicon-build

def test_lexicon_build_planted_corpus(planted_corpus, tmp_path):
    out = tmp_path / "out"
    assert run("lexicon-build", "--corpus", str(planted_corpus),
               "--out", str(out)) == 0
    lexicon = SelfReportLexicon.from_tsv(out / "selfreport_lexicon.tsv")
    # head nouns only ever appear in self-report statements
    for head in PLANT_HEADS:
        assert lexicon.os_counts[head] == 20
        assert lexicon.o_counts[head] == 20
    summary = json.loads((out / "lexicon_summary.json").read_text())
    assert summary["command"] == "lexicon-build"
    assert summary["n_users"] == 200
    assert summary["n_parse_failures"] == 0
    assert summary["n_words"] == len(lexicon.os_counts)
    assert summary["total_selfreport"] == lexicon.total_selfreport
    assert len(summary["config_sha256"]) == 64


def test_lexicon_build_empty_corpus_is_ok(tmp_path):
    corpus = write_jsonl(tmp_path / "empty.jsonl", [])
    out = tmp_path / "out"
    assert run("lexicon-build", "--corpus", str(corpus), "--out", str(out)) == 0
    summary = json.loads((out / "lexicon_summary.json").read_text())
    assert summary["n_users"] == 0
    assert summary["n_words"] == 0
    assert len(SelfReportLexicon.from_tsv(out / "selfreport_lexicon.tsv")) == 0


def test_lexicon_build_tag_lexicon_override(tmp_path):
    corpus = write_jsonl(tmp_path / "c.jsonl",
                         [user_payload("u1", description="i am a zorgle")])
    tags = tmp_path / "tags.tsv"
    tags.write_text("a\tDT\nzorgle\tNN\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("lexicon-build", "--corpus", str(corpus), "--out", str(out),
               "--tag-lexicon", str(tags)) == 0
    lexicon = SelfReportLexicon.from_tsv(out / "selfreport_lexicon.tsv")
    assert lexicon.os_counts == {"zorgle": 1}


def test_malformed_corpus_lines_are_tolerated(tmp_path):
    rows = [user_payload("u1", description="i am a farmer"),
            "this is not json", "[1, 2]", ""]
    corpus = write_jsonl(tmp_path / "c.jsonl", rows)
    out = tmp_path / "out"
    assert run("lexicon-build", "--corpus", str(corpus), "--out", str(out)) == 0
    summary = json.loads((out / "lexicon_summary.json").read_text())
    assert summary["n_users"] == 1
    assert summary["n_parse_failures"] == 3


def test_deeply_nested_line_is_counted_and_skipped(tmp_path):
    corpus = write_jsonl(tmp_path / "c.jsonl",
                         [user_payload("u1", description="i am a farmer"),
                          "[" * 100000])
    out = tmp_path / "out"
    assert run("lexicon-build", "--corpus", str(corpus), "--out", str(out)) == 0
    summary = json.loads((out / "lexicon_summary.json").read_text())
    assert summary["n_users"] == 1
    assert summary["n_parse_failures"] == 1


def test_non_finite_count_lines_are_counted_and_skipped(tmp_path):
    good = json.dumps(user_payload("u1", description="i am a farmer"))
    overflow = [json.dumps(user_payload(f"x{i}", profile={field: "VALUE"}))
                .replace('"VALUE"', value)
                for i, (field, value) in enumerate(
                    [("followers_count", "1e400"), ("statuses_count", "Infinity")])]
    corpus = write_jsonl(tmp_path / "c.jsonl", [good, *overflow])
    out = tmp_path / "out"
    assert run("lexicon-build", "--corpus", str(corpus), "--out", str(out)) == 0
    summary = json.loads((out / "lexicon_summary.json").read_text())
    assert summary["n_users"] == 1
    assert summary["n_parse_failures"] == 2


def test_count_too_large_for_a_float_is_a_parse_failure(tmp_path, monkeypatch,
                                                        caplog):
    """analyze and train --model namecnn take float(count); a line whose count
    no float can hold is counted as a parse failure and its user dropped."""
    corpus, data = tweet_group_fixture(tmp_path)
    huge = [json.dumps(user_payload(f"w{8 + i}", name="aaaaa",
                                    profile={field: "VALUE"}))
            .replace('"VALUE"', "9" * 401)
            for i, field in enumerate(("statuses_count", "followers_count"))]
    with open(corpus, "a", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in huge))
    users = read_dataset_tsv(data) + [
        LabeledUser(user_id=f"w{8 + i}", label=W, source="crowd", score=None)
        for i in range(2)]
    write_dataset_tsv(users, data)
    monkeypatch.setenv("IDENTMINER_LOG", "info")
    config = write_config(tmp_path, "cfg.json", epochs=2, batch_size=8,
                          min_char_count=1)
    assert run("analyze", "--corpus", str(corpus), "--data", str(data),
               "--out", str(tmp_path / "analyze")) == 0
    assert run("train", "--model", "namecnn", "--config", str(config),
               "--corpus", str(corpus), "--train-data", str(data),
               "--out", str(tmp_path / "train")) == 0
    result = json.loads((tmp_path / "train" / "train_result.json").read_text())
    assert result["n_usable"] == 8
    loads = [m for m in caplog.messages if m.startswith("corpus: ")]
    assert loads == ["corpus: 10 lines, 8 parsed, 2 failures, 8 unique users"] * 2


# ---------------------------------------------------------------------------
# dataset-build

def test_dataset_build_hf_planted(planted_corpus, tmp_path):
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "hf", "--corpus",
               str(planted_corpus), "--out", str(out)) == 0
    dataset = read_dataset_tsv(out / "dataset_hf.tsv")
    _, true_ids, _ = planted_users()
    assert {user.user_id for user in dataset} == true_ids
    assert all(user.source == "HF" for user in dataset)
    assert all(user.score == 1.0 for user in dataset)
    stats = json.loads((out / "dataset_hf_stats.json").read_text())
    assert stats["n_matched"] == 200
    assert stats["n_output"] == 100
    assert stats["class_counts"] == {"W": 25, "B": 25, "HL": 25, "A": 25}
    accounting = stats["filter_accounting"]
    expected = {"color": 25, "plural": 25, "bigram_blocklist": 25, "quote": 25}
    assert accounting["removed_with_single_filter"] == expected
    assert accounting["removed_by_filter_chain"] == expected
    assert accounting["passed_filters"] == 100
    assert accounting["total_matched"] == 200


def test_dataset_build_hf_all_filters_disabled(planted_corpus, tmp_path):
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "hf", "--filters", "",
               "--corpus", str(planted_corpus), "--out", str(out)) == 0
    stats = json.loads((out / "dataset_hf_stats.json").read_text())
    accounting = stats["filter_accounting"]
    assert accounting["removed_with_single_filter"] == {}
    assert accounting["removed_by_filter_chain"] == {}
    assert accounting["passed_filters"] == 200
    # the false positives score zero, so the threshold still excludes them
    dataset = read_dataset_tsv(out / "dataset_hf.tsv")
    _, true_ids, _ = planted_users()
    assert {user.user_id for user in dataset} == true_ids


def test_dataset_build_qb_needs_person_bigram(tmp_path):
    corpus = write_jsonl(tmp_path / "c.jsonl", [
        user_payload("qb1", description="i am a black woman"),
        user_payload("qb2", description="asian guy here"),
        user_payload("qb3", description="i am a white farmer"),
    ])
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "qb", "--corpus", str(corpus),
               "--out", str(out)) == 0
    dataset = {user.user_id: user for user in
               read_dataset_tsv(out / "dataset_qb.tsv")}
    assert set(dataset) == {"qb1", "qb2"}  # farmer is not a person keyword
    assert dataset["qb1"].label is B and dataset["qb1"].score == 1.0
    assert dataset["qb2"].label is A and dataset["qb2"].score == 0.0
    assert all(user.source == "QB" for user in dataset.values())


def test_dataset_build_with_prebuilt_lexicon(planted_corpus, tmp_path):
    lex_out = tmp_path / "lex"
    assert run("lexicon-build", "--corpus", str(planted_corpus),
               "--out", str(lex_out)) == 0
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "hf", "--corpus", str(planted_corpus),
               "--lexicon", str(lex_out / "selfreport_lexicon.tsv"),
               "--out", str(out)) == 0
    assert len(read_dataset_tsv(out / "dataset_hf.tsv")) == 100


def test_dataset_build_with_empty_lexicon_is_a_data_error(planted_corpus,
                                                          tmp_path, capsys):
    lexicon = tmp_path / "empty.tsv"
    lexicon.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "hf", "--corpus", str(planted_corpus),
               "--lexicon", str(lexicon), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"identminer: data error: self-report lexicon is empty: {lexicon}\n"
    assert not (out / "dataset_hf.tsv").exists()


def test_dataset_build_cb_planted_true_rows(tmp_path):
    payloads = [row for row in planted_payloads() if row["user_id"].startswith("t")]
    corpus = write_jsonl(tmp_path / "true.jsonl", payloads)
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "cb", "--corpus", str(corpus),
               "--out", str(out)) == 0
    stats = json.loads((out / "dataset_cb_stats.json").read_text())
    assert stats["k"] == 25
    assert stats["class_counts"] == {"W": 25, "B": 25, "HL": 25, "A": 25}
    dataset = read_dataset_tsv(out / "dataset_cb.tsv")
    assert len(dataset) == 100
    assert all(user.source == "CB" for user in dataset)
    # grouped in the canonical class order
    assert [user.label for user in dataset[:25]] == [W] * 25
    assert [user.label for user in dataset[-25:]] == [A] * 25


def test_dataset_build_cb_missing_class_is_a_data_error(tmp_path, capsys):
    payloads = [row for row in planted_payloads()
                if row["user_id"].startswith("t") and int(row["user_id"][1:]) < 50]
    corpus = write_jsonl(tmp_path / "wb.jsonl", payloads)  # W and B rows only
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "cb", "--corpus", str(corpus),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "HL" in err and "A" in err
    assert not (out / "dataset_cb.tsv").exists()


def test_dataset_build_requires_kind(planted_corpus, tmp_path):
    assert run("dataset-build", "--corpus", str(planted_corpus),
               "--out", str(tmp_path / "out")) == 2


# ---------------------------------------------------------------------------
# tune

def tune_fixture(tmp_path):
    """Five descriptions with one query match each and their tuning votes."""
    corpus = write_jsonl(tmp_path / "c.jsonl", [
        user_payload("pos1", description="i am a black farmer"),
        user_payload("pos2", description="i am a proud black woman"),
        user_payload("neg1", description="black coffee lover"),
        user_payload("neg2", description="black sky tonight"),
        user_payload("dis1", description="black tea fan"),
    ])
    votes = [("pos1", "yes", "a1"), ("pos1", "yes", "a2"), ("pos1", "yes", "a3"),
             ("pos2", "yes", "a1"), ("pos2", "yes", "a2"), ("pos2", "no", "a3"),
             ("neg1", "no", "a1"), ("neg1", "no", "a2"), ("neg1", "yes", "a3"),
             ("neg2", "no", "a1"), ("neg2", "no", "a2"),
             ("dis1", "yes", "a1"), ("dis1", "no", "a2")]  # 1-1 is discarded
    tuning = tmp_path / "tuning.tsv"
    tuning.write_text("".join(f"{u}\t{l}\t{a}\n" for u, l, a in votes),
                      encoding="utf-8")
    return corpus, tuning


def test_tune_end_to_end(tmp_path):
    corpus, tuning = tune_fixture(tmp_path)
    out = tmp_path / "out"
    assert run("tune", "--corpus", str(corpus), "--tuning", str(tuning),
               "--out", str(out)) == 0
    result = json.loads((out / "tune_result.json").read_text())
    assert result["window"] == 1
    assert result["threshold"] == 0.05
    assert result["weighting"] == "simple"
    assert result["precision"] == 1.0
    assert result["recall"] == 1.0
    assert result["n_examples"] == 4
    assert result["n_discarded"] == 1


def test_tune_requires_tuning_file(planted_corpus, tmp_path):
    assert run("tune", "--corpus", str(planted_corpus),
               "--out", str(tmp_path / "out")) == 2


def test_tune_invalid_grid_is_a_data_error(tmp_path, capsys):
    corpus, tuning = tune_fixture(tmp_path)
    config = write_config(tmp_path, "cfg.json", grid_windows=[0])
    assert run("tune", "--config", str(config), "--corpus", str(corpus),
               "--tuning", str(tuning), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == ("identminer: data error: config key 'grid_windows' must be "
                   "a non-empty list of integers >= 1, got [0]\n")


# ---------------------------------------------------------------------------
# train and evaluate

def test_train_evaluate_unigram_on_tweets(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    config = write_config(tmp_path, "cfg.json", learning_rate=0.5, epochs=80,
                          batch_size=8)
    out = tmp_path / "train"
    assert run("train", "--model", "unigram", "--config", str(config),
               "--corpus", str(corpus), "--train-data", str(data),
               "--out", str(out)) == 0
    result = json.loads((out / "train_result.json").read_text())
    assert result["model"] == "unigram"
    assert result["n_train"] == 8
    assert result["n_usable"] == 8
    assert result["vocab_size"] == 5
    assert result["class_weights"] == [1.0, 1.0, 1.0, 1.0]
    assert result["effective_weight_histogram"] == {"1.0": 8}

    eval_out = tmp_path / "eval"
    assert run("evaluate", "--model-file", str(out / "model.json"),
               "--test-data", str(data), "--corpus", str(corpus),
               "--out", str(eval_out)) == 0
    report = json.loads((eval_out / "eval_result.json").read_text())
    assert report["accuracy"] == 1.0
    assert report["macro_f1"] == 1.0
    assert report["n"] == 8
    assert report["setting"] == "imbalanced"
    table = (eval_out / "eval_report.txt").read_text()
    assert table.splitlines()[0].startswith("model")


def test_train_unigram_without_tweet_text_fails(tmp_path):
    corpus = write_jsonl(tmp_path / "c.jsonl",
                         [user_payload("w0"), user_payload("b0")])
    users = [LabeledUser(user_id="w0", label=W, source="crowd", score=None),
             LabeledUser(user_id="b0", label=B, source="crowd", score=None)]
    data = tmp_path / "d.tsv"
    write_dataset_tsv(users, data)
    assert run("train", "--model", "unigram", "--corpus", str(corpus),
               "--train-data", str(data), "--out", str(tmp_path / "out")) == 2


@pytest.mark.parametrize("model", ["unigram", "namecnn"])
def test_train_on_a_single_class_is_a_data_error(tmp_path, capsys, model):
    corpus, _ = tweet_group_fixture(tmp_path)
    data = tmp_path / "one_class.tsv"
    write_dataset_tsv([LabeledUser(user_id=user_id, label=W, source="crowd",
                                   score=None) for user_id in ("w0", "b0")],
                      data)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("train", "--model", model, "--corpus", str(corpus),
               "--train-data", str(data), "--out", str(out)) == 2
    assert capsys.readouterr().err == \
        "identminer: data error: training set has a single class\n"
    assert not out.exists()


def test_train_reports_the_weights_it_trained_with(tmp_path):
    corpus, _ = tweet_group_fixture(tmp_path)
    # 4 W, 2 B, 1 HL, 1 A; half of them from the automatic HF source
    rows = [("w0", W, "crowd"), ("w1", W, "HF"), ("b0", W, "crowd"),
            ("b1", W, "HF"), ("hl0", B, "crowd"), ("hl1", B, "HF"),
            ("a0", HL, "crowd"), ("a1", A, "HF")]
    data = tmp_path / "mixed.tsv"
    write_dataset_tsv([LabeledUser(user_id=user_id, label=label,
                                   source=source,
                                   score=0.9 if source == "HF" else None)
                       for user_id, label, source in rows], data)
    config = write_config(tmp_path, "cfg.json", epochs=1,
                          instance_downweight=0.5)
    out = tmp_path / "out"
    assert run("train", "--model", "unigram", "--config", str(config),
               "--corpus", str(corpus), "--train-data", str(data),
               "--out", str(out)) == 0
    result = json.loads((out / "train_result.json").read_text())
    # inverse frequencies 8/4, 8/2, 8/1, 8/1 over their mean 5.5; an HF
    # row weighs half its class weight
    assert result["class_weights"] == [4 / 11, 8 / 11, 16 / 11, 16 / 11]
    assert result["effective_weight_histogram"] == {
        repr(2 / 11): 2,   # W from HF
        repr(4 / 11): 3,   # W from crowd, B from HF
        repr(8 / 11): 2,   # B from crowd, A from HF
        repr(16 / 11): 1,  # HL from crowd
    }
    assert result["n_usable"] == 8


def test_train_evaluate_namecnn(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    config = write_config(tmp_path, "cfg.json", learning_rate=0.1, epochs=250,
                          batch_size=8, min_char_count=1)
    out = tmp_path / "train"
    assert run("train", "--model", "namecnn", "--config", str(config),
               "--corpus", str(corpus), "--train-data", str(data),
               "--out", str(out)) == 0
    result = json.loads((out / "train_result.json").read_text())
    assert result["char_vocab_size"] == 4

    eval_out = tmp_path / "eval"
    assert run("evaluate", "--model-file", str(out / "model.json"),
               "--test-data", str(data), "--corpus", str(corpus),
               "--out", str(eval_out)) == 0
    report = json.loads((eval_out / "eval_result.json").read_text())
    assert report["accuracy"] == 1.0


def test_train_evaluate_unigram_embeddings(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    emb = tmp_path / "emb.tsv"
    with open(emb, "w", encoding="utf-8") as handle:
        for i, label in enumerate(CLASS_ORDER):
            for j in range(2):
                vector = [0.0] * 768
                vector[i] = 1.0
                handle.write(f"{label.value.lower()}{j}\t"
                             + " ".join(repr(v) for v in vector) + "\n")
    config = write_config(tmp_path, "cfg.json", learning_rate=0.5, epochs=60)
    out = tmp_path / "train"
    assert run("train", "--model", "unigram", "--config", str(config),
               "--embeddings", str(emb), "--corpus", str(corpus),
               "--train-data", str(data), "--out", str(out)) == 0
    result = json.loads((out / "train_result.json").read_text())
    assert result["n_features"] == 768

    # an embedding-trained model cannot featurize tweets
    assert run("evaluate", "--model-file", str(out / "model.json"),
               "--test-data", str(data), "--corpus", str(corpus),
               "--out", str(tmp_path / "bad")) == 2
    eval_out = tmp_path / "eval"
    assert run("evaluate", "--model-file", str(out / "model.json"),
               "--test-data", str(data), "--corpus", str(corpus),
               "--embeddings", str(emb), "--out", str(eval_out)) == 0
    report = json.loads((eval_out / "eval_result.json").read_text())
    assert report["accuracy"] == 1.0


def test_train_embeddings_with_wrong_dimension_fails(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    emb = tmp_path / "emb.tsv"
    emb.write_text("w0\t0.1 0.2 0.3\n", encoding="utf-8")
    assert run("train", "--model", "unigram", "--embeddings", str(emb),
               "--corpus", str(corpus), "--train-data", str(data),
               "--out", str(tmp_path / "out")) == 2


def test_train_evaluate_majority_baseline(tmp_path):
    train_users = [LabeledUser(user_id=f"w{i}", label=W, source="crowd",
                               score=None) for i in range(5)]
    train_users += [LabeledUser(user_id=f"b{i}", label=B, source="crowd",
                                score=None) for i in range(2)]
    train = tmp_path / "train.tsv"
    write_dataset_tsv(train_users, train)
    test_users = [LabeledUser(user_id=f"{label.value.lower()}{i}", label=label,
                              source="crowd", score=None)
                  for label in CLASS_ORDER for i in range(2)]
    test = tmp_path / "test.tsv"
    write_dataset_tsv(test_users, test)

    out = tmp_path / "train_out"
    assert run("train", "--model", "baseline-majority", "--train-data",
               str(train), "--out", str(out)) == 0
    assert json.loads((out / "train_result.json").read_text())["majority"] == "W"

    # baselines ignore features, so no corpus is needed
    eval_out = tmp_path / "eval"
    assert run("evaluate", "--model-file", str(out / "model.json"),
               "--test-data", str(test), "--out", str(eval_out)) == 0
    report = json.loads((eval_out / "eval_result.json").read_text())
    assert report["accuracy"] == 0.25
    assert report["macro_f1"] == 0.1


def test_evaluate_balanced_setting(tmp_path):
    users = [LabeledUser(user_id=f"w{i}", label=W, source="crowd", score=None)
             for i in range(6)]
    users += [LabeledUser(user_id=f"{label.value.lower()}{i}", label=label,
                          source="crowd", score=None)
              for label in (B, HL, A) for i in range(2)]
    data = tmp_path / "data.tsv"
    write_dataset_tsv(users, data)
    out = tmp_path / "train_out"
    assert run("train", "--model", "baseline-majority", "--train-data",
               str(data), "--out", str(out)) == 0
    eval_out = tmp_path / "eval"
    assert run("evaluate", "--model-file", str(out / "model.json"),
               "--test-data", str(data), "--setting", "balanced",
               "--out", str(eval_out)) == 0
    report = json.loads((eval_out / "eval_result.json").read_text())
    assert report["setting"] == "balanced"
    assert report["n"] == 8  # two per class after subsampling
    assert report["accuracy"] == 0.25


@pytest.mark.parametrize("trained_on", ["word-counts", "embeddings"])
def test_evaluate_feature_mismatch_is_reported_before_the_corpus(tmp_path,
                                                                capsys,
                                                                trained_on):
    _, data = tweet_group_fixture(tmp_path)
    emb = tmp_path / "emb.tsv"
    emb.write_text("w0\t" + " ".join(["0.5"] * 768) + "\n", encoding="utf-8")
    if trained_on == "word-counts":
        model = write_unigram_model(tmp_path / "model.json", {"alpha": 0}, 1)
        extra = ["--embeddings", str(emb)]
        message = "model was trained on word counts; drop --embeddings"
    else:
        model = write_unigram_model(tmp_path / "model.json", {}, 768)
        extra = []
        message = "model was trained on embedding features; pass --embeddings"
    capsys.readouterr()
    out = tmp_path / "out"
    # the corpus does not exist: the mismatch is found before it is read
    assert run("evaluate", "--model-file", str(model), "--test-data", str(data),
               "--corpus", str(tmp_path / "missing.jsonl"), *extra,
               "--out", str(out)) == 2
    assert capsys.readouterr().err == f"identminer: data error: {message}\n"
    assert not out.exists()


# sha256 of eval_result.json for each model of
# test_evaluate_balanced_draw_matches_recorded_digests
BALANCED_EVAL_DIGESTS = {
    "baseline-random":
        "9e16c5f24e0cae1f791cf30bde1948bb4f62f266be73c55411bbce85d9806519",
    "unigram":
        "3eb2074b95095d4e68d322ae05f1361e7552187f1ee45e8db01343e7bb52f084",
}


def test_evaluate_balanced_draw_matches_recorded_digests(tmp_path):
    # unequal class counts (6 W, 3 B, 2 HL), so the balanced setting draws 2
    # of each class. The hand-set unigram model predicts W for a user whose
    # tweets hold "x" and B otherwise, so its accuracy depends on which W
    # users are drawn; the random baseline pins the draws of its own stream
    counts = {W: 6, B: 3, HL: 2}
    users, payloads = [], []
    for label, n in counts.items():
        for i in range(n):
            user_id = f"{label.value.lower()}{i}"
            text = "x x" if label is W and i % 2 == 0 else "z"
            payloads.append(user_payload(
                user_id, tweets=(tweet_payload(text, hours=-1.0),)))
            users.append(LabeledUser(user_id=user_id, label=label,
                                     source="crowd", score=None))
    corpus = write_jsonl(tmp_path / "corpus.jsonl", payloads)
    data = tmp_path / "data.tsv"
    write_dataset_tsv(users, data)
    import numpy as np
    from identminer.models.training import encode_array
    model = write_unigram_model(
        tmp_path / "unigram.json", {"x": 0}, 1,
        weights=encode_array(np.array([[2.0], [0.0], [0.0], [0.0]])),
        bias=encode_array(np.array([0.0, 1.0, 0.0, 0.0])))
    assert run("train", "--model", "baseline-random", "--train-data",
               str(data), "--out", str(tmp_path / "random")) == 0
    models = {"baseline-random": tmp_path / "random" / "model.json",
              "unigram": model}
    digests = {}
    for name, model_file in models.items():
        out = tmp_path / f"eval-{name}"
        assert run("evaluate", "--model-file", str(model_file),
                   "--test-data", str(data), "--corpus", str(corpus),
                   "--setting", "balanced", "--seed", "3",
                   "--out", str(out)) == 0
        digests[name] = hashlib.sha256(
            (out / "eval_result.json").read_bytes()).hexdigest()
    assert digests == BALANCED_EVAL_DIGESTS


def test_train_evaluate_random_baseline(tmp_path):
    _, data = tweet_group_fixture(tmp_path)
    out = tmp_path / "train_out"
    assert run("train", "--model", "baseline-random", "--train-data",
               str(data), "--out", str(out)) == 0
    eval_out = tmp_path / "eval"
    assert run("evaluate", "--model-file", str(out / "model.json"),
               "--test-data", str(data), "--out", str(eval_out)) == 0
    report = json.loads((eval_out / "eval_result.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["n"] == 8


# ---------------------------------------------------------------------------
# what each subcommand imports

# runs the CLI commands in argv[1] (JSON [[name, argv], ...]) in this fresh
# process and prints, as JSON, which of numpy and scipy are loaded after the
# import and after each command
IMPORT_PROBE = """
import json, sys
from identminer.cli import main

def numeric():
    return sorted({name.split(".")[0] for name in sys.modules}
                  & {"numpy", "scipy"})

loaded = {"import identminer.cli": numeric()}
for name, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, name
    loaded[name] = numeric()
print(json.dumps(loaded))
"""


def modules_loaded_by(commands) -> dict[str, list[str]]:
    import identminer
    src = str(Path(identminer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                           json.dumps(commands)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_text_and_baseline_subcommands_load_neither_numpy_nor_scipy(
        planted_corpus, tmp_path):
    tune_corpus, tuning = tune_fixture(tmp_path)
    corpus = ("--corpus", str(planted_corpus))
    data = str(tmp_path / "hf" / "dataset_hf.tsv")
    commands = [
        ("lexicon-build", ["lexicon-build", *corpus,
                           "--out", str(tmp_path / "lex")]),
        *[(f"dataset-build {kind}",
           ["dataset-build", "--kind", kind, *corpus,
            "--out", str(tmp_path / kind)]) for kind in ("qb", "hf", "cb")],
        ("tune", ["tune", "--corpus", str(tune_corpus), "--tuning", str(tuning),
                  "--out", str(tmp_path / "tune")]),
    ]
    for model in ("baseline-majority", "baseline-random"):
        model_dir = tmp_path / model
        commands += [
            (f"train {model}", ["train", "--model", model, "--train-data", data,
                                "--out", str(model_dir)]),
            (f"evaluate {model}", ["evaluate", "--model-file",
                                   str(model_dir / "model.json"),
                                   "--test-data", data,
                                   "--out", str(tmp_path / f"eval-{model}")]),
        ]
    loaded = modules_loaded_by(commands)
    assert list(loaded) == ["import identminer.cli"] + [n for n, _ in commands]
    assert loaded == {name: [] for name in loaded}


def test_analyze_loads_no_scipy(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    loaded = modules_loaded_by([("analyze", [
        "analyze", "--corpus", str(corpus), "--data", str(data),
        "--out", str(tmp_path / "out")])])
    assert loaded["import identminer.cli"] == []
    # the SAGE fit, the rank statistics and the tables are pure Python
    assert "scipy" not in loaded["analyze"]
    assert "numpy" not in loaded["analyze"]


def test_evaluate_name_model_loads_numpy_but_not_scipy(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    config = write_config(tmp_path, "cfg.json", epochs=2, batch_size=8,
                          min_char_count=1)
    model_dir = tmp_path / "train"
    inputs = ["--corpus", str(corpus), "--config", str(config)]
    # each probe is a fresh process
    trained = modules_loaded_by([("train namecnn", [
        "train", "--model", "namecnn", *inputs, "--train-data", str(data),
        "--out", str(model_dir)])])
    assert trained["train namecnn"] == ["numpy"]
    loaded = modules_loaded_by([("evaluate namecnn", [
        "evaluate", "--model-file", str(model_dir / "model.json"), *inputs,
        "--test-data", str(data), "--out", str(tmp_path / "eval")])])
    assert loaded == {"import identminer.cli": [],
                      "evaluate namecnn": ["numpy"]}
    assert json.loads((tmp_path / "eval" / "eval_result.json")
                      .read_text())["n"] == 8


def test_no_train_or_evaluate_loads_scipy(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    config = write_config(tmp_path, "cfg.json", epochs=2, batch_size=8,
                          min_char_count=1, min_count=1)
    embeddings = tmp_path / "embeddings.tsv"
    embeddings.write_text("".join(
        f"{user.user_id}\t" + " ".join([str(i % 7 / 7)] * 768) + "\n"
        for i, user in enumerate(read_dataset_tsv(data))),
        encoding="utf-8")
    inputs = ["--corpus", str(corpus), "--config", str(config)]
    commands = []
    for name, model, extra in (
            ("unigram", "unigram", []),
            ("unigram embeddings", "unigram",
             ["--embeddings", str(embeddings)]),
            ("namecnn", "namecnn", []),
            ("baseline-majority", "baseline-majority", []),
            ("baseline-random", "baseline-random", [])):
        model_file = tmp_path / f"train {name}" / "model.json"
        commands += [
            (f"train {name}", ["train", "--model", model, *inputs, *extra,
                               "--train-data", str(data),
                               "--out", str(model_file.parent)]),
            (f"evaluate {name}", ["evaluate", *inputs, *extra,
                                  "--model-file", str(model_file),
                                  "--test-data", str(data),
                                  "--out", str(tmp_path / f"eval {name}")]),
        ]
    loaded = modules_loaded_by(commands)
    assert list(loaded) == ["import identminer.cli"] + [n for n, _ in commands]
    assert not [name for name, modules in loaded.items() if "scipy" in modules]


# ---------------------------------------------------------------------------
# analyze

def test_analyze_end_to_end(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    out = tmp_path / "out"
    assert run("analyze", "--corpus", str(corpus), "--data", str(data),
               "--out", str(out)) == 0
    result = json.loads((out / "analyze_result.json").read_text())
    assert result["groups"] == {"W": 2, "B": 2, "HL": 2, "A": 2}
    assert result["lexical"]["W"]["type_token_ratio"] == pytest.approx(2 / 3)
    assert result["lexical"]["W"]["lexical_diversity"] == 1.0
    # the class word always outranks the shared word
    keywords = result["distinctive_keywords"]
    assert keywords["W"] == ["alpha", "chat"]
    assert keywords["B"] == ["bravo", "chat"]
    assert keywords["HL"] == ["charlie", "chat"]
    assert keywords["A"] == ["delta", "chat"]
    # identical per-user statistics leave the U test undefined
    assert result["mann_whitney"]["ttr"]["W|B"] is None
    assert result["kendall_tau"]["k=20"]["W|B"] == -1.0
    assert result["behavior"]["W"]["pct_iphone"] == 100.0
    assert result["behavior"]["W"]["avg_statuses"] == 0.0


def varied_group_fixture(tmp_path):
    """Five users per class whose seeded tweets, clients and profiles differ
    from user to user, so that every lexical, behavioral and Mann-Whitney
    value of analyze is defined and differs between groups."""
    rng = random.Random(2024)
    vocab = ("alpha", "bravo", "chat", "the", "go", "i'm", "don't", "#fun",
             "@pal", "https://x.example/p", "ok")
    clients = ("Twitter for Android", "Twitter for iPhone", "Twitter Web App",
               "Tweetbot for iOS", "Buffer")
    payloads, users = [], []
    for label in CLASS_ORDER:
        for j in range(5):
            user_id = f"{label.value.lower()}{j}"
            tweets = tuple(
                tweet_payload(
                    " ".join(rng.choice(vocab)
                             for _ in range(rng.randrange(1, 8))),
                    hours=-1.0 - k, source_app=rng.choice(clients),
                    has_image=rng.random() < 0.3, has_url=rng.random() < 0.3,
                    mentions_user=rng.random() < 0.3,
                    geotagged=rng.random() < 0.1)
                for k in range(rng.randrange(1, 6)))
            created = (iso(-rng.randrange(1, 20000)) if rng.random() < 0.8
                       else None)
            profile = {"statuses_count": rng.randrange(0, 5000),
                       "account_created_at": created,
                       "has_profile_url": rng.random() < 0.5,
                       "has_custom_image": rng.random() < 0.5,
                       "geo_enabled": rng.random() < 0.5}
            payloads.append(user_payload(user_id, tweets=tweets,
                                         profile=profile))
            users.append(LabeledUser(user_id=user_id, label=label,
                                     source="crowd", score=None))
    corpus = write_jsonl(tmp_path / "varied_corpus.jsonl", payloads)
    data = tmp_path / "varied_data.tsv"
    write_dataset_tsv(users, data)
    return corpus, data


# canonical_json of the analyze_result.json parts computed in pure Python
# (SAGE keywords and Kendall tau use numpy), recorded before the lexical and
# behavioral tables became plain dicts
ANALYZE_PURE_PYTHON_DIGEST = (
    "278097941142e1c4016ad2594c45b6f86cfab58c76579d963711e20440054cb3")


def test_analyze_pure_python_tables_match_recorded_digest(tmp_path):
    corpus, data = varied_group_fixture(tmp_path)
    out = tmp_path / "out"
    assert run("analyze", "--corpus", str(corpus), "--data", str(data),
               "--out", str(out)) == 0
    result = json.loads((out / "analyze_result.json").read_text())
    assert result["groups"] == {"W": 5, "B": 5, "HL": 5, "A": 5}
    assert all(test is not None for table in result["mann_whitney"].values()
               for test in table.values())
    tables = {key: result[key]
              for key in ("groups", "lexical", "behavior", "mann_whitney")}
    digest = hashlib.sha256(canonical_json(tables).encode("utf-8")).hexdigest()
    assert digest == ANALYZE_PURE_PYTHON_DIGEST


# ---------------------------------------------------------------------------
# one scan per tweet

def counting_calls(monkeypatch, function: str, modules: set[str]) -> list:
    """Wrap textprep.<function> in every identminer module that binds it; the
    returned list receives the first argument of each call. Each of modules
    must be among the patched ones; they are imported first, because the
    CLI loads some (the model modules) only in the branch that uses them."""
    from identminer import textprep
    for name in modules:
        importlib.import_module(name)
    original = getattr(textprep, function)
    calls: list = []

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    patched = set()
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "identminer"
                and getattr(module, function, None) is original):
            monkeypatch.setattr(module, function, counted)
            patched.add(name)
    assert modules <= patched
    return calls


def test_train_evaluate_and_analyze_tokenize_each_tweet_once(tmp_path,
                                                            monkeypatch):
    """Every tweet among each user's newest max_tweets is scanned exactly
    once per run, older tweets not at all: train and evaluate scan each
    user's in-scope texts joined by newlines in one textprep.tweet_words
    call, analyze scans each in-scope text in one textprep.tweet_tokens
    call. No tweet goes through tokenize or its per-token _text_and_kind."""
    words = {"W": "alpha", "B": "bravo", "HL": "charlie", "A": "delta"}
    payloads, users, in_scope = [], [], []
    for label in CLASS_ORDER:
        for j in range(2):
            user_id = f"{label.value.lower()}{j}"
            # 1 or 3 tweets, newest first; every text is distinct
            texts = [f"{words[label.value]} chat {user_id} n{k}"
                     for k in range(1 + 2 * j)]
            payloads.append(user_payload(user_id, tweets=tuple(
                tweet_payload(text, hours=-1.0 - k)
                for k, text in enumerate(texts))))
            users.append(LabeledUser(user_id=user_id, label=label,
                                     source="crowd", score=None))
            in_scope.append(texts[:2])
    corpus = write_jsonl(tmp_path / "corpus.jsonl", payloads)
    data = tmp_path / "data.tsv"
    write_dataset_tsv(users, data)
    config = write_config(tmp_path, "cfg.json", max_tweets=2, epochs=2)
    joined = counting_calls(monkeypatch, "tweet_words",
                            {"identminer.textprep",
                             "identminer.models.features"})
    scanned = counting_calls(monkeypatch, "tweet_tokens",
                             {"identminer.textprep", "identminer.analytics"})
    tokenized = counting_calls(monkeypatch, "tokenize", {"identminer.textprep"})
    kinded = counting_calls(monkeypatch, "_text_and_kind",
                            {"identminer.textprep"})
    common = ("--config", str(config), "--corpus", str(corpus))
    per_user = sorted("\n".join(texts) for texts in in_scope)

    assert run("train", "--model", "unigram", *common, "--train-data",
               str(data), "--out", str(tmp_path / "train")) == 0
    assert (sorted(joined), scanned) == (per_user, [])
    joined.clear()
    assert run("evaluate", *common, "--model-file",
               str(tmp_path / "train" / "model.json"), "--test-data", str(data),
               "--out", str(tmp_path / "eval")) == 0
    assert (sorted(joined), scanned) == (per_user, [])
    joined.clear()
    assert run("analyze", *common, "--data", str(data),
               "--out", str(tmp_path / "analyze")) == 0
    assert (joined, sorted(scanned)) == ([], sorted(sum(in_scope, [])))
    assert tokenized == kinded == []


# ---------------------------------------------------------------------------
# one pass per description

def test_description_stages_tokenize_and_tag_each_description_once(
        tmp_path, monkeypatch):
    """lexicon-build, dataset-build qb/hf/cb and tune tokenize and tag the
    description of every deduplicated user exactly once per run."""
    payloads = planted_payloads() + [
        user_payload("qb1", description="i am a black woman"),
        # an older snapshot of t000 is superseded and never tokenized
        user_payload("t000", description="an old white nurse bio", hours=-5.0),
        "not json",
    ]
    corpus = write_jsonl(tmp_path / "corpus.jsonl", payloads)
    descriptions = sorted([row["description"] for row in planted_payloads()]
                          + ["i am a black woman"])
    votes = [("t000", "yes"), ("t001", "yes"), ("fc00", "no"), ("fp00", "no")]
    tuning = tmp_path / "tuning.tsv"
    tuning.write_text("".join(f"{user}\t{label}\ta1\n" for user, label in votes),
                      encoding="utf-8")
    tokenized = counting_calls(monkeypatch, "tokenize",
                               {"identminer.textprep", "identminer.datasets"})
    tagged = counting_calls(monkeypatch, "pos_tag",
                            {"identminer.textprep", "identminer.datasets"})
    stages = {
        "lexicon": ("lexicon-build",),
        "qb": ("dataset-build", "--kind", "qb"),
        "hf": ("dataset-build", "--kind", "hf"),
        "cb": ("dataset-build", "--kind", "cb"),
        "tune": ("tune", "--tuning", str(tuning)),
    }
    for stage, argv in stages.items():
        tokenized.clear()
        tagged.clear()
        assert run(*argv, "--corpus", str(corpus),
                   "--out", str(tmp_path / stage)) == 0, stage
        assert sorted(tokenized) == descriptions, stage
        assert len(tagged) == len(descriptions), stage


def test_dataset_build_runs_each_filter_at_most_once_per_match(
        planted_corpus, tmp_path, monkeypatch):
    from identminer import filters
    runs: Counter = Counter()

    def counted(name, original, key):
        def wrapper(*args):
            runs[name, key(*args)] += 1
            return original(*args)
        return wrapper

    # a query match is its description's token list (or text) plus its index
    by_tags = lambda tagged, match, *_: (id(tagged), match.token_index)  # noqa: E731
    by_text = lambda raw_text, match: (id(raw_text), match.token_index)  # noqa: E731
    for name, attr, key in (("color", "color_filter", by_tags),
                            ("plural", "plural_filter", by_tags),
                            ("bigram_blocklist", "blocklist_bigram_filter",
                             by_tags),
                            ("quote", "quote_filter", by_text)):
        monkeypatch.setattr(filters, attr,
                            counted(name, getattr(filters, attr), key))
    for kind in ("hf", "cb"):
        runs.clear()
        assert run("dataset-build", "--kind", kind, "--corpus",
                   str(planted_corpus), "--out", str(tmp_path / kind)) == 0
        assert {name for name, _ in runs} == set(FILTER_NAMES), kind
        assert max(runs.values()) == 1, kind


# single-class descriptions with two query matches each, whose matches trip
# different filters: a user can pass on its second match, or be removed by
# the chain but by no single filter
MULTI_MATCH_ROWS = (
    ("mm1", 'proud latina "latin jazz" lover'),
    ("mm2", '"latina" latin jazz fan'),
    ("mm3", "latino people love latinx people"),
    ("mm4", "i am a latina nurse and latino people fan"),
    ("mm5", "asian fusion and asian people"),
    ("mm6", '"i am a latina nurse" latino fan'),
    ("mm7", "latino music fan, i am a proud latina teacher"),
    ("mm8", "i am an asian writer and asian people watcher"),
)


def reference_hf(records, params):
    """dataset_hf.tsv lines and filter_accounting, computed the way they were
    before one filter-chain evaluation per match: the chain once per single
    filter and once with every filter on."""
    from identminer import resources
    from identminer.filters import (ClassLabel, apply_filter_chain,
                                    assign_class, find_query_matches)
    from identminer.scorer import score_description
    from identminer.textprep import build_selfreport_lexicon, pos_tag, tokenize

    tags = resources.load_tag_lexicon()
    colors = resources.load_colors()
    blocklist = resources.load_bigram_blocklist()
    lexicon = build_selfreport_lexicon(records, tags)
    solo_removed = dict.fromkeys(FILTER_NAMES, 0)
    chain_removed: Counter = Counter()
    passed = matched = 0
    lines = []
    for record in records:
        text = record.description
        tagged = pos_tag(tokenize(text), tags)
        matches = find_query_matches(tagged)
        label = assign_class(matches)
        if not isinstance(label, ClassLabel):
            continue
        matched += 1
        for name in FILTER_NAMES:
            if not any(not apply_filter_chain(tagged, text, match, (name,),
                                              colors, blocklist)
                       for match in matches):
                solo_removed[name] += 1
        outcomes = [apply_filter_chain(tagged, text, match, FILTER_NAMES,
                                       colors, blocklist) for match in matches]
        if any(not outcome for outcome in outcomes):
            passed += 1
        else:
            chain_removed[outcomes[0][0]] += 1
        scores = [score_description(tagged, match, lexicon, params)
                  for match, outcome in zip(matches, outcomes) if not outcome]
        if scores and max(scores) >= params.threshold:
            lines.append(f"{record.user_id}\t{label.value}\t{max(scores)!r}\tHF\n")
    accounting = {"removed_with_single_filter": solo_removed,
                  "removed_by_filter_chain": dict(sorted(chain_removed.items())),
                  "passed_filters": passed, "total_matched": matched}
    return "".join(lines), accounting


def test_dataset_build_hf_matches_reference_filter_accounting(tmp_path):
    from identminer.scorer import ScoreParams
    rows = [(row["user_id"], row["description"]) for row in planted_payloads()]
    rows += MULTI_MATCH_ROWS
    corpus = write_jsonl(tmp_path / "corpus.jsonl",
                         [user_payload(user_id, description=description)
                          for user_id, description in rows])
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "hf", "--corpus", str(corpus),
               "--out", str(out)) == 0
    records = [make_user(user_id, description=description)
               for user_id, description in rows]
    lines, accounting = reference_hf(records, ScoreParams())
    assert (out / "dataset_hf.tsv").read_text(encoding="utf-8") == lines
    stats = json.loads((out / "dataset_hf_stats.json").read_text())
    assert stats["filter_accounting"] == accounting
    assert stats["n_matched"] == accounting["total_matched"] == 208
    # the multi-match rows reach both branches the single-match rows do not
    multi = {user_id for user_id, _ in MULTI_MATCH_ROWS}
    hf_ids = {line.split("\t")[0] for line in lines.splitlines()}
    assert hf_ids & multi and multi - hf_ids


# ---------------------------------------------------------------------------
# determinism

def test_rerun_outputs_are_byte_identical(planted_corpus, tmp_path):
    outs = [tmp_path / f"out{i}" for i in range(2)]
    for out in outs:
        assert run("dataset-build", "--kind", "hf", "--corpus",
                   str(planted_corpus), "--out", str(out)) == 0
    first = (outs[0] / "dataset_hf.tsv").read_bytes()
    assert (outs[1] / "dataset_hf.tsv").read_bytes() == first
    stats = (outs[0] / "dataset_hf_stats.json").read_bytes()
    assert (outs[1] / "dataset_hf_stats.json").read_bytes() == stats


# sha256 of every file the description stages write on the fixtures below.
# These stages are pure Python, so the digests are the same on every
# platform. A deliberate change to their output updates the constants and
# says why in CHANGES.md.
DESCRIPTION_STAGE_DIGESTS = {
    "lexicon/lexicon_summary.json":
        "4c77ed327168876ebc21dff11ad635abd742adf7092154cfd31e5d23052a1c72",
    "lexicon/selfreport_lexicon.tsv":
        "65c2df4e73533d226ccdc3ae1500a482647d5589fe0d0931185b68720ccde6d5",
    "dataset_qb/dataset_qb.tsv":  # empty
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dataset_qb/dataset_qb_stats.json":
        "57b6c77a599e2b4d31c74925bfefe56d837c8e371050eb6975c7d50e68b389e7",
    "dataset_hf/dataset_hf.tsv":
        "d5a45463301746213f84944dc2c7d26b6dc9e5272de48ca98d9f397253da2da5",
    "dataset_hf/dataset_hf_stats.json":
        "795fd117869fda32f60257039dee7d497b7372cd4cae36f20b0650a6746ec870",
    "dataset_cb/dataset_cb.tsv":
        "5fd515649e6bcf1bc95365296f319f5698082007be11d9b23acec0a8143cd9c2",
    "dataset_cb/dataset_cb_stats.json":
        "d9aa9e5afaa22549e9ebb28ebde129c079d8ab323271a9ac94135dd17bc1c141",
    "dataset_qb_tune/dataset_qb.tsv":
        "de309c7ec6f5efcaf74c71856ede6910b96a6fcfbcf781571693a9f66e895ee0",
    "dataset_qb_tune/dataset_qb_stats.json":
        "1839a5a60322e504f484dbde770895a3c0ad5b580edc1e5d3d08724d316f8ef3",
    "tune/tune_result.json":
        "8313a2f5655704072c9597c221e4aab9e3179eaa3ae7f2c3274ca8e7fc720ec0",
}


def test_description_stage_outputs_match_recorded_digests(planted_corpus,
                                                          tmp_path):
    tune_corpus, tuning = tune_fixture(tmp_path)
    steps = {
        "lexicon": ["lexicon-build", "--corpus", str(planted_corpus)],
        **{f"dataset_{kind}": ["dataset-build", "--kind", kind,
                               "--corpus", str(planted_corpus)]
           for kind in ("qb", "hf", "cb")},
        # the planted corpus has no person bigram; this one has
        "dataset_qb_tune": ["dataset-build", "--kind", "qb",
                            "--corpus", str(tune_corpus)],
        "tune": ["tune", "--corpus", str(tune_corpus),
                 "--tuning", str(tuning)],
    }
    digests = {}
    for name, argv in steps.items():
        out = tmp_path / name
        assert run(*argv, "--out", str(out)) == 0
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    assert digests == DESCRIPTION_STAGE_DIGESTS


# sha256 of every file the tweet stages write on tweet_stage_fixture,
# recorded while the tweet stages still scanned with token_pairs (a
# per-token kind function over a 6-group findall), to pin that the faster
# scans give the same bytes. The unigram model adds its products with
# np.bincount, not BLAS (see test_model_digests.py).
TWEET_STAGE_DIGESTS = {
    "train/model.json":
        "c6d56ae09563dffd1ef33196f445f9e9e07cbb4d4d08439cde1bd4a7127986ff",
    "train/train_result.json":
        "68a8cb92ea5ecaea4b665b7bfb1158bcee26b3341a33f44b76ff6e67bfe901b4",
    "evaluate/eval_report.txt":
        "c4e210ed205aca09cbe09c65acf734d50281fd93897329ac459e43b1e3e174d5",
    "evaluate/eval_result.json":
        "4cca626c78e0419329f1ecb64122ecc187874302edbf2fb90109744f256109fd",
    "analyze/analyze_result.json":
        "1f2c265ba7d7cab0ea068ab4de7d2140bf99e740eaea3cfe99db8873912f4db3",
}

# tweet pieces where the token kinds meet: curly and straight contractions,
# a curly apostrophe that is no contraction, hashtags and mentions with and
# without a word character after the sign (❶ is a word character and an
# emoji), urls, a bare "www." and a capitalized scheme that are no urls,
# emoji sequences and letters whose lowercase changes length or meaning
TWEET_PIECES = ("chat", "today", "Coffee", "music", "GAME", "it's", "don’t",
                "I’M", "y'all", "CAN’T", "rock’n", "well-known", "#Tag",
                "#❶x", "#", "@User_1", "@!", "@", "https://t.co/Ab1",
                "http://x.y/z", "www.Example.com/a", "www.", "HTTP://no",
                "https", "😀", "👩‍💻", "❤️", "❶abc", "❶", "ΑΣ", "İstanbul",
                "Straße", "...", "!!", "-", "_", "7")


def tweet_stage_fixture(tmp_path, seed=11, per_class=8):
    """per_class users of each class with 0 to 7 tweets of 1 to 10 pieces,
    some pieces joined with no space; a config that keeps each user's
    newest 5 tweets."""
    rng = random.Random(seed)
    class_words = {"W": "alpha", "B": "bravo", "HL": "charlie", "A": "delta"}
    payloads, users = [], []
    for label in CLASS_ORDER:
        for j in range(per_class):
            user_id = f"{label.value.lower()}{j}"
            tweets = []
            for k in range(rng.randint(0, 7)):
                pieces = [rng.choice(TWEET_PIECES)
                          for _ in range(rng.randint(1, 10))]
                pieces += [class_words[label.value]] * rng.randint(0, 2)
                rng.shuffle(pieces)
                text = "".join(piece + rng.choice(("", " ", " ", " "))
                               for piece in pieces)
                tweets.append(tweet_payload(text, hours=-1.0 - k))
            payloads.append(user_payload(user_id, tweets=tuple(tweets)))
            users.append(LabeledUser(user_id=user_id, label=label,
                                     source="crowd", score=None))
    corpus = write_jsonl(tmp_path / "tweet_corpus.jsonl", payloads)
    data = tmp_path / "tweet_data.tsv"
    write_dataset_tsv(users, data)
    config = write_config(tmp_path, "tweet_cfg.json", max_tweets=5, epochs=3,
                          min_count=1, top_n=5, tau_ks=[3])
    return ["--corpus", str(corpus), "--config", str(config)], data


def test_tweet_stage_outputs_match_recorded_digests(tmp_path):
    common, data = tweet_stage_fixture(tmp_path)
    model = tmp_path / "train" / "model.json"
    steps = {
        "train": ["train", "--model", "unigram", "--train-data", str(data)],
        "evaluate": ["evaluate", "--model-file", str(model),
                     "--test-data", str(data)],
        "analyze": ["analyze", "--data", str(data)],
    }
    digests = {}
    for name, argv in steps.items():
        out = tmp_path / name
        assert run(*argv, *common, "--out", str(out)) == 0
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    assert digests == TWEET_STAGE_DIGESTS


def test_workers_do_not_change_outputs(planted_corpus, tmp_path):
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert run("dataset-build", "--kind", "hf", "--corpus",
               str(planted_corpus), "--out", str(out1), "--workers", "1") == 0
    assert run("dataset-build", "--kind", "hf", "--corpus",
               str(planted_corpus), "--out", str(out4), "--workers", "4") == 0
    assert (out1 / "dataset_hf.tsv").read_bytes() == \
        (out4 / "dataset_hf.tsv").read_bytes()
    assert (out1 / "dataset_hf_stats.json").read_bytes() == \
        (out4 / "dataset_hf_stats.json").read_bytes()


# ---------------------------------------------------------------------------
# configuration and failure modes

def test_config_values_apply_and_flags_override(planted_corpus, tmp_path):
    config = write_config(tmp_path, "cfg.json", filters=["color"])
    out = tmp_path / "color_only"
    assert run("dataset-build", "--kind", "hf", "--config", str(config),
               "--corpus", str(planted_corpus), "--out", str(out)) == 0
    stats = json.loads((out / "dataset_hf_stats.json").read_text())
    accounting = stats["filter_accounting"]
    assert set(accounting["removed_with_single_filter"]) == {"color"}
    assert accounting["passed_filters"] == 175
    out = tmp_path / "flag"
    assert run("dataset-build", "--kind", "hf", "--config", str(config),
               "--filters", "color,plural,bigram,quote",
               "--corpus", str(planted_corpus), "--out", str(out)) == 0
    stats = json.loads((out / "dataset_hf_stats.json").read_text())
    assert stats["filter_accounting"]["passed_filters"] == 100


def config_check_commands(tmp_path) -> dict[str, list[str]]:
    """One valid invocation of each subcommand that reads the checked keys."""
    planted = write_jsonl(tmp_path / "corpus.jsonl", planted_payloads())
    tune_corpus, tuning = tune_fixture(tmp_path)
    group_corpus, data = tweet_group_fixture(tmp_path)
    model = write_unigram_model(tmp_path / "model.json", {"alpha": 0}, 1)
    return {
        "lexicon-build": ["lexicon-build", "--corpus", str(planted)],
        "dataset-build": ["dataset-build", "--kind", "cb",
                          "--corpus", str(planted)],
        "tune": ["tune", "--corpus", str(tune_corpus),
                 "--tuning", str(tuning)],
        # the unigram model by default, so that a config "model" applies
        "train": ["train", "--corpus", str(group_corpus),
                  "--train-data", str(data)],
        "evaluate": ["evaluate", "--model-file", str(model),
                     "--corpus", str(group_corpus), "--test-data", str(data)],
        "analyze": ["analyze", "--corpus", str(group_corpus),
                    "--data", str(data)],
    }


# new rows go at the end: a list or float value's test id holds its index
BAD_CONFIG_VALUES = [
    ("tune", "grid_windows", ["a"]),
    ("tune", "grid_thresholds", [0.1, "0.2"]),
    ("tune", "grid_weightings", "simple"),
    ("dataset-build", "cb_k", -1),
    ("dataset-build", "cb_k", 0),
    ("dataset-build", "cb_k", "3"),
    ("dataset-build", "cb_k", True),
    ("dataset-build", "window", "5"),
    ("dataset-build", "window", 5.9),
    ("dataset-build", "window", 5.0),
    ("dataset-build", "threshold", "0.35"),
    ("dataset-build", "filters", "color"),
    ("lexicon-build", "kind", 1),  # every key is checked in every command
    ("lexicon-build", "allow_im", "false"),
    ("lexicon-build", "allow_im", 0),
    ("lexicon-build", "seed", 1.5),
    ("lexicon-build", "tag_lexicon", 5),  # a path key
    ("analyze", "max_tweets", -1),
    ("analyze", "max_tweets", 0),
    ("analyze", "top_n", "a"),
    ("analyze", "tau_ks", [20, 0]),
    ("analyze", "sage_lambda", float("inf")),
    ("analyze", "sage_lambda", -1),
    ("train", "learning_rate", "x"),
    ("train", "learning_rate", float("nan")),
    pytest.param("train", "learning_rate", 10 ** 400,
                 id="train-learning_rate-beyond-float"),
    ("train", "epochs", True),
    ("train", "epochs", 0),
    ("train", "learning_rate", 0),
    ("dataset-build", "window", 0),
    ("tune", "window", 0),  # a key the command does not read
    ("train", "batch_size", 0),
    ("dataset-build", "threshold", 1.5),
    ("dataset-build", "threshold", -0.1),
    ("train", "learning_rate", -0.5),
    ("train", "l2_strength", -1e-9),
    ("train", "l2_strength", float("inf")),
    ("train", "instance_downweight", 0.0),
    ("train", "instance_downweight", 1.5),
    ("train", "instance_downweight", 2),
    ("dataset-build", "weighting", "log"),
    ("evaluate", "setting", "mystery"),
    ("train", "model", "x"),
    ("analyze", "kind", "xx"),
    ("dataset-build", "filters", ["sparkle"]),
    ("tune", "filters", ["colour"]),
    ("tune", "grid_windows", [0]),
    ("tune", "grid_thresholds", [2]),
    ("tune", "grid_weightings", ["x"]),
    ("lexicon-build", "epochs", 0),
    ("tune", "grid_windows", []),
    ("tune", "grid_thresholds", []),
    ("tune", "grid_weightings", []),
]


def assert_bad_config_exits_2(tmp_path, capsys, command, key, value):
    config = write_config(tmp_path, "cfg.json", **{key: value})
    argv = config_check_commands(tmp_path)[command]
    out = tmp_path / "out"
    assert run(*argv, "--config", str(config), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"identminer: data error: config key {key!r} "
                          f"must be ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("command,key,value", BAD_CONFIG_VALUES)
def test_bad_config_value_is_a_data_error(tmp_path, capsys, command, key,
                                          value):
    assert_bad_config_exits_2(tmp_path, capsys, command, key, value)


@pytest.mark.parametrize("command,key,value", BAD_CONFIG_VALUES)
def test_bad_config_value_fails_before_the_corpus_is_read(
        tmp_path, capsys, monkeypatch, command, key, value):
    def refuse(path, keep):
        raise AssertionError(f"corpus {path} read before the config check")

    monkeypatch.setattr(cli, "_load_corpus", refuse)
    assert_bad_config_exits_2(tmp_path, capsys, command, key, value)


def bad_input_commands(tmp_path) -> dict[str, list[str]]:
    """One invocation per malformed user-supplied resource or model file."""
    planted = write_jsonl(tmp_path / "corpus.jsonl", planted_payloads())
    group_corpus, data = tweet_group_fixture(tmp_path)
    penn = tmp_path / "penn.tsv"
    penn.write_text("a\tXX\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(b"caf\xe9\tNN\n")
    trigram = tmp_path / "trigram.txt"
    trigram.write_text("one two three\n", encoding="utf-8")
    blocklist_config = write_config(tmp_path, "blocklist.json",
                                    blocklist_file=str(trigram))
    narrow = tmp_path / "narrow.tsv"
    narrow.write_text("w0\t0.1 0.2 0.3\n", encoding="utf-8")
    infinite = tmp_path / "infinite.tsv"
    infinite.write_text("w0\t" + " ".join(["1e999"] * 768) + "\n",
                        encoding="utf-8")
    # the same w0 embedding row twice
    twice = tmp_path / "twice.tsv"
    twice.write_text(2 * ("w0\t" + " ".join(["0.5"] * 768) + "\n"),
                     encoding="utf-8")
    # a zero unigram model over embeddings, so evaluate reaches --embeddings
    model = write_unigram_model(tmp_path / "model.json", {}, 768)
    shapeless = tmp_path / "shapeless.json"
    shapeless.write_text('{"kind": "unigram", "version": 2}', encoding="utf-8")
    # a name model whose params is a number instead of an object
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps({"kind": "namecnn", "version": 2,
                                    "params": 5, "char_vocab": {},
                                    "meta_dim": 5, "max_len": 10}),
                        encoding="utf-8")
    # a unigram model as format version 1 wrote it: arrays as JSON floats
    version_1 = tmp_path / "version_1.json"
    version_1.write_text(json.dumps({"kind": "unigram", "version": 1,
                                     "vocab": {}, "weights": [0.0] * 3072,
                                     "shape": [4, 768], "bias": [0.0] * 4}),
                         encoding="utf-8")
    # the 4 x 768 weights: base64 cut short, 8 bytes, a list of floats
    zeros = base64.b64encode(bytes(8 * 4 * 768)).decode("ascii")
    weights = {
        "truncated": zeros[:-3],
        "miscounted": base64.b64encode(bytes(8)).decode("ascii"),
        "not-string": [0.0] * 3072,
    }
    bad_arrays = {
        defect: write_unigram_model(tmp_path / f"{defect}.json", {}, 768,
                                    weights={"shape": [4, 768], "data": data})
        for defect, data in weights.items()}
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2]", encoding="utf-8")
    # nesting past the JSON decoder's recursion limit
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000, encoding="utf-8")
    # a name model over the characters a and b, then the defects of
    # MODEL_DEFECTS planted in it or in a unigram model
    import numpy as np
    from identminer.models.namecnn import NameModel, init_params
    from identminer.models.training import encode_array
    name = NameModel(char_vocab={"a": 2, "b": 3}, params=init_params(4, 5, 0),
                     meta_dim=5).to_dict()
    named = {
        "name-missing-tensor": {**name, "params": {
            key: entry for key, entry in name["params"].items()
            if key != "Wc"}},
        "name-tensor-shape": {**name, "params": {
            **name["params"], "b2": encode_array(np.zeros(3))}},
        "name-char-id": {**name, "char_vocab": {"a": 2, "b": 4}},
    }
    model_defects = {
        **{defect: tmp_path / f"{defect}.json" for defect in named},
        "unigram-weights-shape": write_unigram_model(
            tmp_path / "wide.json", {"hi": 0}, 2),
        "unigram-bias-shape": write_unigram_model(
            tmp_path / "bias.json", {"hi": 0}, 1,
            bias=encode_array(np.zeros(3))),
        "unigram-vocab-index": write_unigram_model(
            tmp_path / "index.json", {"hi": 1}, 1),
    }
    for defect, payload in named.items():
        model_defects[defect].write_text(json.dumps(payload), encoding="utf-8")
    evaluate = ["evaluate", "--test-data", str(data), "--corpus",
                str(group_corpus)]
    # the eight fixture rows, then w0 again or a row whose score is nan
    repeated = tmp_path / "repeated.tsv"
    repeated.write_text(data.read_text(encoding="utf-8") + "w0\tB\t\tcrowd\n",
                        encoding="utf-8")
    nonfinite = tmp_path / "nonfinite.tsv"
    nonfinite.write_text(data.read_text(encoding="utf-8")
                         + "x9\tB\tnan\tcrowd\n", encoding="utf-8")
    datasets = {"repeated-id": repeated, "nonfinite-score": nonfinite}
    # --embeddings with a model that takes no embeddings; no input file
    # exists, so the refusal must come before each is read
    absent = str(tmp_path / "absent")
    unused = ["--corpus", absent, "--embeddings", absent]
    trained = {"namecnn": tmp_path / "name.json",
               "baseline-majority": tmp_path / "majority.json",
               "baseline-random": tmp_path / "random.json"}
    trained["namecnn"].write_text(json.dumps(name), encoding="utf-8")
    save_model(baseline_majority([W]), trained["baseline-majority"])
    save_model(baseline_random(0), trained["baseline-random"])
    return {
        **{f"train-{kind}-embeddings-unused": [
               "train", "--model", kind, "--train-data", absent, *unused]
           for kind in trained},
        **{f"evaluate-{kind}-embeddings-unused": [
               "evaluate", "--model-file", str(path), "--test-data", absent,
               *unused]
           for kind, path in trained.items()},
        **{f"train-data-{defect}": ["train", "--model", "unigram",
                                    "--train-data", str(path), "--corpus",
                                    str(group_corpus)]
           for defect, path in datasets.items()},
        **{f"evaluate-data-{defect}": ["evaluate", "--test-data", str(path),
                                       "--corpus", str(group_corpus),
                                       "--model-file", str(model)]
           for defect, path in datasets.items()},
        **{f"analyze-data-{defect}": ["analyze", "--data", str(path),
                                      "--corpus", str(group_corpus)]
           for defect, path in datasets.items()},
        "tag-lexicon-not-penn": ["lexicon-build", "--corpus", str(planted),
                                 "--tag-lexicon", str(penn)],
        "tag-lexicon-not-utf8": ["lexicon-build", "--corpus", str(planted),
                                 "--tag-lexicon", str(latin1)],
        "blocklist-not-bigram": ["dataset-build", "--kind", "hf", "--corpus",
                                 str(planted), "--config",
                                 str(blocklist_config)],
        "evaluate-embeddings-narrow": [*evaluate, "--model-file", str(model),
                                       "--embeddings", str(narrow)],
        "evaluate-model-no-shape": [*evaluate, "--model-file",
                                    str(shapeless)],
        "evaluate-model-params-mistyped": [*evaluate, "--model-file",
                                           str(mistyped)],
        "evaluate-model-not-object": [*evaluate, "--model-file",
                                      str(listed)],
        "evaluate-model-deeply-nested": [*evaluate, "--model-file",
                                         str(nested)],
        "train-embeddings-infinite": ["train", "--model", "unigram",
                                      "--train-data", str(data), "--corpus",
                                      str(group_corpus), "--embeddings",
                                      str(infinite)],
        "evaluate-embeddings-infinite": [*evaluate, "--model-file",
                                         str(model), "--embeddings",
                                         str(infinite)],
        "train-embeddings-repeated-row": ["train", "--model", "unigram",
                                          "--train-data", str(data),
                                          "--corpus", str(group_corpus),
                                          "--embeddings", str(twice)],
        "evaluate-embeddings-repeated-row": [*evaluate, "--model-file",
                                             str(model), "--embeddings",
                                             str(twice)],
        "evaluate-model-version-1": [*evaluate, "--model-file",
                                     str(version_1)],
        **{f"evaluate-model-array-{defect}": [*evaluate, "--model-file",
                                              str(path)]
           for defect, path in bad_arrays.items()},
        **{f"evaluate-model-{defect}": [*evaluate, "--model-file", str(path)]
           for defect, path in model_defects.items()},
    }


# defect planted in a model file -> what the data error says
MODEL_DEFECTS = {
    "name-missing-tensor": "params have shapes {'E': [4, 256], 'bc': [256], "
                           "'W1': [261, 256], 'b1': [256], 'W2': [256, 4], "
                           "'b2': [4]}, expected {'E': [4, 256], 'Wc': "
                           "[256, 768], 'bc': [256], 'W1': [261, 256], "
                           "'b1': [256], 'W2': [256, 4], 'b2': [4]}",
    "name-tensor-shape": "params have shapes {'E': [4, 256], 'Wc': [256, 768], "
                         "'bc': [256], 'W1': [261, 256], 'b1': [256], "
                         "'W2': [256, 4], 'b2': [3]}, expected {'E': [4, 256], "
                         "'Wc': [256, 768], 'bc': [256], 'W1': [261, 256], "
                         "'b1': [256], 'W2': [256, 4], 'b2': [4]}",
    "name-char-id": "char_vocab ids must be 2 to 3, each once",
    "unigram-weights-shape": "weights [4, 2] and bias [4] do not fit a vocab "
                             "of 1: expected [4, 1] and [4]",
    "unigram-bias-shape": "weights [4, 1] and bias [3] do not fit a vocab of "
                          "1: expected [4, 1] and [4]",
    "unigram-vocab-index": "vocab indices must be 0 to 0, each once",
}


@pytest.mark.parametrize("case", [
    "tag-lexicon-not-penn", "tag-lexicon-not-utf8", "blocklist-not-bigram",
    "evaluate-embeddings-narrow", "evaluate-model-no-shape",
    "evaluate-model-params-mistyped", "evaluate-model-not-object",
    "evaluate-model-deeply-nested",
    "train-embeddings-infinite", "evaluate-embeddings-infinite",
    "train-embeddings-repeated-row", "evaluate-embeddings-repeated-row",
    "evaluate-model-version-1",
    *[f"evaluate-model-array-{defect}"
      for defect in ("truncated", "miscounted", "not-string")],
    *[f"{command}-data-{defect}" for command in ("train", "evaluate", "analyze")
      for defect in ("repeated-id", "nonfinite-score")],
    *[f"evaluate-model-{defect}" for defect in MODEL_DEFECTS],
    *[f"{command}-{kind}-embeddings-unused" for command in ("train", "evaluate")
      for kind in ("namecnn", "baseline-majority", "baseline-random")],
])
def test_malformed_input_file_is_a_data_error(tmp_path, capsys, case):
    argv = bad_input_commands(tmp_path)[case]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("identminer: data error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    if case.endswith("infinite"):
        assert "infinite.tsv:1: values must be finite" in err
    if case.endswith("repeated-id"):
        assert "repeated.tsv:9: repeated user id 'w0'" in err
    if case.endswith("nonfinite-score"):
        assert "nonfinite.tsv:9: score 'nan' is not finite" in err
    if case.endswith("repeated-row"):
        assert "twice.tsv:2: repeated user id 'w0'" in err
    if "-model-" in case:
        assert "data error: bad model file: " in err
    if case.endswith("version-1"):
        assert "unigram model file has format version 1" in err
        assert "retrain the model" in err
    if case.endswith("miscounted"):
        assert "needs 24576 bytes, got 8" in err
    if case.endswith("not-string"):
        assert "must be a base64 string, not list" in err
    if case.endswith("embeddings-unused"):
        assert err == ("identminer: data error: --embeddings applies only "
                       "to the unigram model\n")
    defect = case.removeprefix("evaluate-model-")
    if defect in MODEL_DEFECTS:
        assert err == (f"identminer: data error: bad model file: "
                       f"{MODEL_DEFECTS[defect]}\n")
    assert not out.exists()


# line-based input -> (good line 1, malformed line 2); every UTF-8 line of a
# color list is an entry, so it has no malformed line
LINE_INPUTS = {
    "train-data": ("w0\tW\t\tcrowd", "w1\tW\t0.5"),
    "test-data": ("w0\tW\t\tcrowd", "w1\tX\t\tcrowd"),
    "data": ("w0\tW\t\tcrowd", "w1\tW\tnan\tcrowd"),
    "tuning": ("w0\tyes\ta1", "w1\tmaybe\ta1"),
    "lexicon": ("proud\t1\t2", "black\tx\t2"),
    "tag-lexicon": ("cat\tNN", "dog\tXX"),
    "embeddings": ("w0\t" + " ".join(["0.5"] * 768), "w1\t0.5 0.25"),
    "colors_file": ("red", None),
    "blocklist_file": ("light skin", "one two three"),
}


def line_input_command(tmp_path, name: str, path) -> list[str]:
    """A command that reads path as the input name after every other input
    it needs, each of them valid."""
    corpus, data = tweet_group_fixture(tmp_path)
    majority = tmp_path / "majority.json"
    save_model(baseline_majority([W]), majority)
    build = ["dataset-build", "--kind", "hf", "--corpus", str(corpus)]
    if name.endswith("_file"):
        config = write_config(tmp_path, "resource.json", **{name: str(path)})
        return [*build, "--config", str(config)]
    return {
        "train-data": ["train", "--model", "baseline-majority"],
        "test-data": ["evaluate", "--model-file", str(majority)],
        "data": ["analyze", "--corpus", str(corpus)],
        "tuning": ["tune", "--corpus", str(corpus)],
        "lexicon": build,
        "tag-lexicon": ["lexicon-build", "--corpus", str(corpus)],
        "embeddings": ["train", "--model", "unigram", "--train-data",
                       str(data), "--corpus", str(corpus)],
    }[name] + [f"--{name}", str(path)]


@pytest.mark.parametrize("name, defect", [
    (name, defect) for name, (_, bad) in LINE_INPUTS.items()
    for defect in ("malformed", "not-utf8")
    if bad is not None or defect == "not-utf8"])
def test_bad_line_of_every_line_input_names_its_file_and_line(tmp_path, capsys,
                                                              name, defect):
    good, bad = LINE_INPUTS[name]
    path = tmp_path / "input.tsv"
    second = bad.encode() if defect == "malformed" else b"\xe9" + good.encode()
    path.write_bytes(good.encode() + b"\n" + second + b"\n")
    argv = line_input_command(tmp_path, name, path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"identminer: data error: {path}:2: ")
    assert err.count("\n") == 1 and err.count(str(path)) == 1
    if defect == "not-utf8":
        assert "'utf-8' codec can't decode byte 0xe9 in position 0" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["train-data", "embeddings"])
@pytest.mark.parametrize("value", ["1_0", " 0.5 ", "0.5\u00a0", "١٢", "1e",
                                   "0x1p3", "Infinity", "0.5\x1c0.25",
                                   "0.5\u00a00.25", "0.5\u20030.25"])
def test_scores_and_embedding_values_are_ascii_decimals(tmp_path, capsys, name,
                                                        value):
    """A dataset score or an embedding value that float() reads, or that
    str.split() would split, but that is no ASCII decimal literal names its
    file and line. An embeddings row of space-separated values splits at
    ASCII spaces only."""
    good = LINE_INPUTS[name][0]
    if name == "train-data":
        bads, what = [f"w1\tW\t{value}\tcrowd"], "score"
    else:
        bads, what = ["w1\t" + "\t".join(["0.5"] * 767 + [value])], "value"
        if " " not in value:
            bads.append("w1\t" + " ".join(["0.5"] * 767 + [value]))
    for bad in bads:
        path = tmp_path / "input.tsv"
        path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
        argv = line_input_command(tmp_path, name, path)
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"identminer: data error: {path}:2: {what} {value!r} is not a "
            f"decimal number\n")
        assert not out.exists()


@pytest.mark.parametrize("rows, reason", [
    (["black\t1\t2", "proud\t1_0\t20"], "count '1_0' is not ASCII digits"),
    (["black\t1\t2", "proud\t1\t2", "proud\t2\t3"], "repeated word 'proud'"),
])
def test_lexicon_counts_and_words_are_checked(planted_corpus, tmp_path, capsys,
                                              rows, reason):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("dataset-build", "--kind", "qb", "--corpus", str(planted_corpus),
               "--lexicon", str(lexicon), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"identminer: data error: {lexicon}:{len(rows)}: {reason}\n")
    assert not out.exists()


def test_failed_run_leaves_no_out_dir(tmp_path):
    # a corpus with no first-person statement: the lexicon comes out empty
    corpus = write_jsonl(tmp_path / "plain.jsonl",
                         [user_payload("u1", description="black coffee")])
    group_corpus, data = tweet_group_fixture(tmp_path)
    stranger = write_jsonl(tmp_path / "stranger.jsonl",
                           [user_payload("zz", tweets=(tweet_payload("hi"),))])
    # evaluate reads the corpus only for a unigram or name model
    model = write_unigram_model(tmp_path / "model.json", {"hi": 0}, 1)
    no_epochs = write_config(tmp_path, "epochs.json", epochs=0)
    failing = {
        "hf": ["dataset-build", "--kind", "hf", "--corpus", str(corpus)],
        "train": ["train", "--model", "unigram", "--train-data", str(data),
                  "--corpus", str(group_corpus), "--config", str(no_epochs)],
        # no dataset id is in the corpus
        "evaluate": ["evaluate", "--model-file", str(model),
                     "--test-data", str(data), "--corpus", str(stranger)],
        "analyze": ["analyze", "--data", str(data), "--corpus",
                    str(stranger)],
    }
    for name, argv in failing.items():
        out = tmp_path / f"out_{name}"
        assert run(*argv, "--out", str(out)) == 2, name
        assert not out.exists(), name


def test_every_config_key_has_one_type_rule():
    from identminer.cli import _PATH_KEYS, CONFIG_RULES, DEFAULTS
    ruled = [key for _, _, keys in CONFIG_RULES for key in keys]
    assert sorted(ruled) == sorted([*DEFAULTS, *_PATH_KEYS])
    values = {**dict.fromkeys(_PATH_KEYS), **DEFAULTS}
    assert all(check(values[key])
               for _, check, keys in CONFIG_RULES for key in keys)


def test_library_defaults_equal_the_cli_defaults():
    from dataclasses import fields
    from identminer.models.training import TrainConfig
    from identminer.scorer import ScoreParams
    for cls in (TrainConfig, ScoreParams):
        for field in fields(cls):
            assert field.default == cli.DEFAULTS[field.name], \
                f"{cls.__name__}.{field.name}"


def test_integer_for_a_number_key_trains_the_same_model(tmp_path):
    commands = config_check_commands(tmp_path)
    models = []
    for rate in (1, 1.0):
        config = write_config(tmp_path, f"cfg{rate!r}.json", learning_rate=rate,
                              epochs=3, batch_size=4)
        out = tmp_path / f"out{rate!r}"
        assert run(*commands["train"], "--config", str(config),
                   "--out", str(out)) == 0
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]


def test_unknown_config_key_is_a_data_error(planted_corpus, tmp_path):
    config = write_config(tmp_path, "cfg.json", not_a_real_option=1)
    assert run("lexicon-build", "--config", str(config), "--corpus",
               str(planted_corpus), "--out", str(tmp_path / "out")) == 2


def test_bad_config_json_is_a_data_error(planted_corpus, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{not json", encoding="utf-8")
    assert run("lexicon-build", "--config", str(config), "--corpus",
               str(planted_corpus), "--out", str(tmp_path / "out")) == 2
    config.write_text("[1, 2]", encoding="utf-8")
    assert run("lexicon-build", "--config", str(config), "--corpus",
               str(planted_corpus), "--out", str(tmp_path / "out")) == 2
    # past the int conversion limit, and past the decoder's recursion limit
    for text in ('{"seed": ' + "1" * 5000 + "}",
                 '{"seed": ' + "[" * 100000 + "]" * 100000 + "}"):
        config.write_text(text, encoding="utf-8")
        assert run("lexicon-build", "--config", str(config), "--corpus",
                   str(planted_corpus), "--out", str(tmp_path / "out")) == 2


def test_missing_corpus_exits_2_without_partial_output(tmp_path):
    out = tmp_path / "out"
    assert run("lexicon-build", "--corpus", str(tmp_path / "nope.jsonl"),
               "--out", str(out)) == 2
    assert not out.exists()
    assert run("lexicon-build", "--out", str(out)) == 2
    assert not out.exists()


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["lexicon-build"])  # --out is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "--out", "x"])
    assert exc.value.code == 1
    # a flag value outside its choices
    for argv in (["dataset-build", "--kind", "xx"],
                 ["dataset-build", "--weighting", "log"],
                 ["train", "--model", "x"],
                 ["evaluate", "--setting", "mystery"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", "x"])
        assert exc.value.code == 1


def test_console_script_runs_with_logging(tmp_path):
    if shutil.which("identminer") is None:
        pytest.skip("console script not installed")
    corpus = write_jsonl(tmp_path / "c.jsonl",
                         [user_payload("u1", description="i am a farmer")])
    out = tmp_path / "out"
    proc = subprocess.run(
        ["identminer", "lexicon-build", "--corpus", str(corpus),
         "--out", str(out)],
        capture_output=True, text=True,
        env={"PATH": "/usr/local/bin:/usr/bin:/bin",
             "IDENTMINER_LOG": "info"})
    assert proc.returncode == 0
    assert "corpus:" in proc.stderr
    assert (out / "lexicon_summary.json").exists()
