import argparse
import base64
import builtins
import errno
import hashlib
import importlib
import io
import json
import os
import random
import re
import shutil
import struct
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from identminer import cli
from identminer.cli import main
from identminer.datasets import LabeledUser, read_dataset_tsv, write_dataset_tsv
from identminer.filters import CLASS_ORDER, FILTER_NAMES
from identminer.models import RandomBaseline, baseline_majority, save_model
from identminer.textprep import SelfReportLexicon
from identminer.util import DataError, canonical_json, config_hash

from helpers import (PLANT_HEADS, cli_process, iso, planted_descriptions,
                     planted_payloads, score_params, ts, tweet_payload,
                     user_payload, write_jsonl, write_unigram_model)

W, B, HL, A = CLASS_ORDER


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def planted_corpus(request, shared):
    return shared(request, lambda root: write_jsonl(root / "corpus.jsonl",
                                                    planted_payloads()))


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


def test_a_user_id_cannot_forge_dataset_rows(tmp_path):
    """A corpus id holding a tab or a line break is one parse failure, so it
    never reaches a dataset row."""
    forged = "v1\tA\t\tsurvey\nv2"
    corpus = write_jsonl(tmp_path / "c.jsonl", planted_payloads() + [
        user_payload(forged, description="i am an asian farmer")])
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "hf", "--corpus", str(corpus),
               "--out", str(out)) == 0
    _, true_ids, _ = planted_descriptions()
    rows = (out / "dataset_hf.tsv").read_text(encoding="utf-8").splitlines()
    assert [row.split("\t")[0] for row in rows] == sorted(true_ids)
    assert {user.user_id for user in read_dataset_tsv(
        out / "dataset_hf.tsv")} == true_ids
    assert run("lexicon-build", "--corpus", str(corpus),
               "--out", str(tmp_path / "lexicon")) == 0
    summary = json.loads((tmp_path / "lexicon" / "lexicon_summary.json")
                         .read_text())
    assert (summary["n_users"], summary["n_parse_failures"]) == (200, 1)


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
                                                        capsys):
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
    loads = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("INFO identminer: corpus: ")]
    assert loads == ["INFO identminer: corpus: 10 lines, 8 parsed, "
                     "2 failures, 8 unique users"] * 2


# ---------------------------------------------------------------------------
# dataset-build

def test_dataset_build_hf_planted(planted_corpus, tmp_path):
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "hf", "--corpus",
               str(planted_corpus), "--out", str(out)) == 0
    dataset = read_dataset_tsv(out / "dataset_hf.tsv")
    _, true_ids, _ = planted_descriptions()
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
    _, true_ids, _ = planted_descriptions()
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


def group_embeddings(tmp_path) -> Path:
    """An embeddings TSV for the users of tweet_group_fixture: one-hot
    vectors by class."""
    emb = tmp_path / "emb.tsv"
    with open(emb, "w", encoding="utf-8") as handle:
        for i, label in enumerate(CLASS_ORDER):
            for j in range(2):
                vector = [0.0] * 768
                vector[i] = 1.0
                handle.write(f"{label.value.lower()}{j}\t"
                             + " ".join(repr(v) for v in vector) + "\n")
    return emb


def test_train_evaluate_unigram_embeddings(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    emb = group_embeddings(tmp_path)
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
        "0211788a42bb4e5fa360b38ef7b968b2259be92795c95a2492d763a807ef4ea0",
    "unigram":
        "ac820a9ec3511a14e181b5054c2c110bdbd66834276c1064a0cf41568ce58b7f",
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

# the modules besides identminer's that the probe below reports: the two
# that no text or baseline subcommand needs, and the two that no subcommand
# loads (no module of the package imports dataclasses, since its records are
# named tuples, and the CLI writes its messages without logging)
WATCHED = {"numpy", "scipy", "dataclasses", "logging"}
# runs the CLI command whose argv is argv[1] (JSON), if one is given, in this
# fresh process, and prints as a JSON list the identminer modules then
# loaded (by their names below identminer) and which of WATCHED
IMPORT_PROBE = f"""
import json, sys
from identminer.cli import main

if sys.argv[1:]:
    assert main(json.loads(sys.argv[1])) == 0
loaded = {{name.removeprefix("identminer.") for name in sys.modules
          if name.startswith("identminer.")}}
loaded |= ({{name.split(".")[0] for name in sys.modules}}
           & set({sorted(WATCHED)}))
print(json.dumps(sorted(loaded)))
"""

# what `import identminer.cli` loads: argument parsing, config resolution,
# logging and result writing need no stage module
CLI_MODULES = {"cli", "labels", "resources", "util"}
_DESCRIPTION = ("ingest", "textprep", "filters", "scorer", "datasets")
_BASELINE = ("models", "models.baselines")
_TRAINING = ("models.training",)
_EVALUATION = ("evaluation",)
_UNIGRAM = ("ingest", "textprep", *_BASELINE, *_TRAINING,
            "models.features", "models.unigram", "numpy")
_NAMECNN = ("ingest", *_BASELINE, *_TRAINING, "models.namecnn", "numpy")
# what each subcommand loads besides CLI_MODULES, keyed by the names the
# tests below give their commands
SUBCOMMAND_MODULES = {
    "lexicon-build": ("ingest", "textprep"),
    "dataset-build qb": _DESCRIPTION,
    "dataset-build hf": _DESCRIPTION,
    "dataset-build cb": _DESCRIPTION,
    "tune": _DESCRIPTION,
    "train baseline-majority": _BASELINE,
    "evaluate baseline-majority": (*_BASELINE, *_EVALUATION),
    "train baseline-random": _BASELINE,
    "evaluate baseline-random": (*_BASELINE, *_EVALUATION),
    "train unigram": _UNIGRAM,
    "evaluate unigram": (*_UNIGRAM, *_EVALUATION),
    "train unigram embeddings": _UNIGRAM,
    "evaluate unigram embeddings": (*_UNIGRAM, *_EVALUATION),
    "train namecnn": _NAMECNN,
    "evaluate namecnn": (*_NAMECNN, *_EVALUATION),
    "analyze": ("ingest", "textprep", "analytics"),
}


def modules_loaded_by(*stages) -> dict[str, set[str]]:
    """The modules loaded by each (name, argv) of each stage, as
    IMPORT_PROBE prints them. Each command runs in a fresh process, side
    by side with the others of its stage (as many at once as there are
    CPUs), after every command of the stages before."""
    loaded = {}
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for commands in stages:
            procs = pool.map(lambda argv: cli_process(
                *([json.dumps(argv)] if argv else []), code=IMPORT_PROBE),
                [argv for _, argv in commands])
            for (name, _), proc in zip(commands, procs):
                assert proc.returncode == 0, (name, proc.stderr)
                loaded[name] = set(json.loads(proc.stdout))
    return loaded


def assert_each_loads_its_modules(*stages) -> dict[str, set[str]]:
    loaded = modules_loaded_by(*stages)
    assert loaded == {name: CLI_MODULES | set(SUBCOMMAND_MODULES[name])
                      for commands in stages for name, _ in commands}
    return loaded


def test_no_subcommand_loads_dataclasses_or_logging():
    """The module table, which the tests below compare with what each
    subcommand loads, lists neither for any subcommand."""
    assert not any({"dataclasses", "logging"} & set(modules)
                   for modules in SUBCOMMAND_MODULES.values())


def test_importing_the_cli_loads_no_stage_module():
    loaded = modules_loaded_by([("import identminer.cli", None)])
    assert loaded == {"import identminer.cli": CLI_MODULES}
    assert not loaded["import identminer.cli"] & {"dataclasses", "logging"}


def description_commands(planted_corpus, tmp_path) -> list:
    """(name, argv) of lexicon-build, dataset-build qb, hf and cb, and
    tune; dataset-build hf writes tmp_path/hf/dataset_hf.tsv."""
    tune_corpus, tuning = tune_fixture(tmp_path)
    corpus = ("--corpus", str(planted_corpus))
    return [
        ("lexicon-build", ["lexicon-build", *corpus,
                           "--out", str(tmp_path / "lex")]),
        *[(f"dataset-build {kind}",
           ["dataset-build", "--kind", kind, *corpus,
            "--out", str(tmp_path / kind)]) for kind in ("qb", "hf", "cb")],
        ("tune", ["tune", "--corpus", str(tune_corpus), "--tuning", str(tuning),
                  "--out", str(tmp_path / "tune")]),
    ]


def test_text_and_baseline_subcommands_load_neither_numpy_nor_scipy(
        planted_corpus, tmp_path):
    """Nor do the description stages load dataclasses or logging."""
    description = description_commands(planted_corpus, tmp_path)
    data = str(tmp_path / "hf" / "dataset_hf.tsv")
    models = ("baseline-majority", "baseline-random")
    train = [(f"train {model}", ["train", "--model", model, "--train-data",
                                 data, "--out", str(tmp_path / model)])
             for model in models]
    evaluate = [(f"evaluate {model}", [
        "evaluate", "--model-file", str(tmp_path / model / "model.json"),
        "--test-data", data, "--out", str(tmp_path / f"eval-{model}")])
        for model in models]
    assert not any("numpy" in SUBCOMMAND_MODULES[name]
                   for name, _ in [*description, *train, *evaluate])
    loaded = assert_each_loads_its_modules(description, train, evaluate)
    assert not any(loaded[name] & {"dataclasses", "logging"}
                   for name, _ in description)


def test_description_stages_build_no_record(planted_corpus, tmp_path,
                                            monkeypatch):
    """lexicon-build, dataset-build and tune keep each description straight
    from the checked line, and train and evaluate with --embeddings only
    note that the user is there: none of them reads a user's newest tweets
    (ingest.newest_tweets) or name input (namecnn.name_input). train of the
    unigram and the name model shows that the refusing readers are the ones
    the CLI calls."""
    from identminer import ingest
    from identminer.models import namecnn

    def refuse(line, *args):
        raise AssertionError(f"tweets or name read for {line.user_id}")

    corpus, data = tweet_group_fixture(tmp_path)
    emb = group_embeddings(tmp_path)
    model = tmp_path / "emb_train" / "model.json"
    embedding_commands = [
        ("train --embeddings", ["train", "--embeddings", str(emb),
                                "--corpus", str(corpus), "--train-data",
                                str(data), "--out", str(model.parent)]),
        ("evaluate --embeddings", ["evaluate", "--embeddings", str(emb),
                                   "--model-file", str(model),
                                   "--corpus", str(corpus), "--test-data",
                                   str(data), "--out",
                                   str(tmp_path / "emb_eval")]),
    ]
    monkeypatch.setattr(ingest, "newest_tweets", refuse)
    monkeypatch.setattr(namecnn, "name_input", refuse)
    for name, argv in [*description_commands(planted_corpus, tmp_path),
                       *embedding_commands]:
        assert main(argv) == 0, name
    config = write_config(tmp_path, "cfg.json", epochs=1, min_char_count=1)
    for model_name, extra in (("unigram", []),
                              ("namecnn", ["--config", str(config)])):
        with pytest.raises(AssertionError, match="read for"):
            main(["train", "--model", model_name, "--corpus", str(corpus),
                  "--train-data", str(data), *extra,
                  "--out", str(tmp_path / model_name)])


def test_tweet_stages_read_each_users_newest_tweets_once_and_build_no_record(
        tmp_path, monkeypatch):
    """train and evaluate of a unigram model and analyze take what they keep
    of each dataset user straight from the checked line: ingest.newest_tweets
    once per dataset user, never for a superseded snapshot or a user outside
    the dataset; train and evaluate of the name model likewise take
    namecnn.name_input once per dataset user."""
    from identminer import analytics, ingest
    from identminer.models import namecnn
    corpus, data = tweet_group_fixture(tmp_path)
    with open(corpus, "a", encoding="utf-8") as handle:
        for payload in (
                # an older snapshot of w0 is superseded and never read
                user_payload("w0", hours=-5.0, tweets=(
                    tweet_payload("stale words", hours=-9.0),)),
                user_payload("outsider", tweets=(tweet_payload("alpha"),))):
            handle.write(json.dumps(payload) + "\n")
    # every dataset user's latest snapshot is at ts(0)
    latest = sorted((user.user_id, ts()) for user in read_dataset_tsv(data))
    read = {"newest_tweets": [], "name_input": []}
    newest, name_input = ingest.newest_tweets, namecnn.name_input

    def counted_newest(line, max_tweets):
        read["newest_tweets"].append((line.user_id, line.snapshot_time))
        return newest(line, max_tweets)

    def counted_name_input(line):
        read["name_input"].append((line.user_id, line.snapshot_time))
        return name_input(line)

    for module in (ingest, analytics):
        monkeypatch.setattr(module, "newest_tweets", counted_newest)
    monkeypatch.setattr(namecnn, "name_input", counted_name_input)
    model = tmp_path / "train" / "model.json"
    name_model = tmp_path / "train_namecnn" / "model.json"
    config = write_config(tmp_path, "cfg.json", epochs=1, min_char_count=1)
    stages = {
        "train": ("newest_tweets", ("train", "--model", "unigram",
                                    "--train-data", str(data))),
        "evaluate": ("newest_tweets", ("evaluate", "--model-file", str(model),
                                       "--test-data", str(data))),
        "analyze": ("newest_tweets", ("analyze", "--data", str(data))),
        "train_namecnn": ("name_input", ("train", "--model", "namecnn",
                                         "--config", str(config),
                                         "--train-data", str(data))),
        "evaluate_namecnn": ("name_input", (
            "evaluate", "--model-file", str(name_model), "--test-data",
            str(data))),
    }
    for stage, (reader, argv) in stages.items():
        for calls in read.values():
            calls.clear()
        assert run(*argv, "--corpus", str(corpus),
                   "--out", str(tmp_path / stage)) == 0, stage
        assert sorted(read[reader]) == latest, stage
        assert [name for name, calls in read.items() if calls] == [reader], \
            stage


def test_analyze_loads_no_scipy(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    # the SAGE fit, the rank statistics and the tables are pure Python
    assert_each_loads_its_modules([("analyze", [
        "analyze", "--corpus", str(corpus), "--data", str(data),
        "--out", str(tmp_path / "out")])])


def test_evaluate_name_model_loads_numpy_but_not_scipy(tmp_path):
    corpus, data = tweet_group_fixture(tmp_path)
    config = write_config(tmp_path, "cfg.json", epochs=2, batch_size=8,
                          min_char_count=1)
    model_dir = tmp_path / "train"
    inputs = ["--corpus", str(corpus), "--config", str(config)]
    assert_each_loads_its_modules(
        [("train namecnn", ["train", "--model", "namecnn", *inputs,
                            "--train-data", str(data),
                            "--out", str(model_dir)])],
        [("evaluate namecnn", ["evaluate", "--model-file",
                               str(model_dir / "model.json"), *inputs,
                               "--test-data", str(data),
                               "--out", str(tmp_path / "eval")])])
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
    train, evaluate = [], []
    for name, model, extra in (
            ("unigram", "unigram", []),
            ("unigram embeddings", "unigram",
             ["--embeddings", str(embeddings)]),
            ("namecnn", "namecnn", []),
            ("baseline-majority", "baseline-majority", []),
            ("baseline-random", "baseline-random", [])):
        model_file = tmp_path / f"train {name}" / "model.json"
        train.append((f"train {name}", [
            "train", "--model", model, *inputs, *extra,
            "--train-data", str(data), "--out", str(model_file.parent)]))
        evaluate.append((f"evaluate {name}", [
            "evaluate", *inputs, *extra, "--model-file", str(model_file),
            "--test-data", str(data),
            "--out", str(tmp_path / f"eval {name}")]))
    assert not any("scipy" in modules for modules in SUBCOMMAND_MODULES.values())
    assert_each_loads_its_modules(train, evaluate)


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


def test_analyze_writes_strict_json_for_counts_near_the_float_max(tmp_path):
    """Two W users with statuses_count 10**308: the group mean is 1e308,
    not an overflowed Infinity, and the file parses as strict JSON."""
    corpus, data = tweet_group_fixture(tmp_path)
    newer = [user_payload(f"w{j}", name="a" * (5 + j), hours=1.0,
                          tweets=(tweet_payload("alpha alpha chat"),),
                          profile={"statuses_count": 10 ** 308})
             for j in range(2)]
    with open(corpus, "a", encoding="utf-8") as handle:
        handle.write("".join(json.dumps(row) + "\n" for row in newer))
    out = tmp_path / "out"
    assert run("analyze", "--corpus", str(corpus), "--data", str(data),
               "--out", str(out)) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    result = json.loads((out / "analyze_result.json").read_text(),
                        parse_constant=refuse)
    assert result["behavior"]["W"]["avg_statuses"] == 1e308


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
# one scan per distinct tweet chunk

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


def recording_chunk_tables(monkeypatch) -> list:
    """Make every textprep.ChunkTable record what it hands to its callables:
    the returned list receives ("words" or "lexical", chunk) for each chunk
    handed to scan_chunks, and the same with the lowercase word for each
    plain chunk handed to plain_values."""
    from identminer import textprep
    handed: list = []
    original_init = textprep.ChunkTable.__init__

    def recorded(kind, values):
        def call(chunks):
            handed.extend((kind, chunk) for chunk in chunks)
            return values(chunks)
        return call

    def init(self, scan_chunks, plain_values):
        kind = "words" if scan_chunks is textprep.chunk_words else "lexical"
        original_init(self, recorded(kind, scan_chunks),
                      recorded(kind, plain_values))
    monkeypatch.setattr(textprep.ChunkTable, "__init__", init)
    return handed


def test_train_evaluate_and_analyze_tokenize_each_tweet_once(tmp_path,
                                                            monkeypatch):
    """Each distinct whitespace-separated chunk of the users' newest
    max_tweets tweets is scanned exactly once per run, however many tweets,
    users and groups share it, and a chunk only older tweets hold is never
    scanned: train and evaluate scan through the run's word_chunks table,
    analyze through its lexical_chunks table, and a plain chunk (ASCII
    letters and digits) is handed over as its lowercase word. No tweet goes
    through tokenize."""
    words = {"W": "Alpha", "B": "bravo", "HL": "charlie", "A": "delta"}
    payloads, users, in_scope = [], [], set()
    for label in CLASS_ORDER:
        for j in range(2):
            user_id = f"{label.value.lower()}{j}"
            # 1 or 3 tweets, newest first; "chat" and "Chat!" are shared by
            # every user, the class word by the class, and the third tweet's
            # chunks appear nowhere else
            texts = [f"{words[label.value]} chat {user_id} Chat! n{k} chat"
                     for k in range(1 + j)]
            texts += [f"old-{user_id} #past Stale{user_id}"] * j
            payloads.append(user_payload(user_id, tweets=tuple(
                tweet_payload(text, hours=-1.0 - k)
                for k, text in enumerate(texts))))
            users.append(LabeledUser(user_id=user_id, label=label,
                                     source="crowd", score=None))
            in_scope.update(" ".join(texts[:2]).split())
    corpus = write_jsonl(tmp_path / "corpus.jsonl", payloads)
    data = tmp_path / "data.tsv"
    write_dataset_tsv(users, data)
    config = write_config(tmp_path, "cfg.json", max_tweets=2, epochs=2)
    handed = recording_chunk_tables(monkeypatch)
    tokenized = counting_calls(monkeypatch, "tokenize", {"identminer.textprep"})
    common = ("--config", str(config), "--corpus", str(corpus))
    assert not {"old-w1", "#past", "Stalew1"} & in_scope

    def expected(kind: str) -> list:
        return sorted((kind, chunk.lower() if chunk.isalnum() else chunk)
                      for chunk in in_scope)

    def scanned() -> list:
        chunks = sorted(handed)
        handed.clear()
        return chunks

    assert run("train", "--model", "unigram", *common, "--train-data",
               str(data), "--out", str(tmp_path / "train")) == 0
    assert scanned() == expected("words")
    assert run("evaluate", *common, "--model-file",
               str(tmp_path / "train" / "model.json"), "--test-data", str(data),
               "--out", str(tmp_path / "eval")) == 0
    assert scanned() == expected("words")
    assert run("analyze", *common, "--data", str(data),
               "--out", str(tmp_path / "analyze")) == 0
    assert scanned() == expected("lexical")
    assert tokenized == []


# ---------------------------------------------------------------------------
# one pass per description

def test_description_stages_tokenize_and_tag_each_description_once(
        tmp_path, monkeypatch):
    """lexicon-build, dataset-build qb/hf/cb and tune scan (tokenize and
    code, Tagger.scan) the description of every deduplicated user exactly
    once per run, and the description of a superseded snapshot never."""
    from identminer import textprep
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
    scanned = []
    scan = textprep.Tagger.scan

    def counted(self, text):
        scanned.append(text)
        return scan(self, text)
    monkeypatch.setattr(textprep.Tagger, "scan", counted)
    stages = {
        "lexicon": ("lexicon-build",),
        "qb": ("dataset-build", "--kind", "qb"),
        "hf": ("dataset-build", "--kind", "hf"),
        "cb": ("dataset-build", "--kind", "cb"),
        "tune": ("tune", "--tuning", str(tuning)),
    }
    for stage, argv in stages.items():
        scanned.clear()
        assert run(*argv, "--corpus", str(corpus),
                   "--out", str(tmp_path / stage)) == 0, stage
        assert sorted(scanned) == descriptions, stage
        assert "an old white nurse bio" not in scanned, stage


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


def reference_hf(rows, params):
    """dataset_hf.tsv lines and filter_accounting of (user_id, description)
    rows, computed the way they were before one filter-chain evaluation per
    match: the chain once per single filter and once with every filter on."""
    from identminer import resources
    from identminer.filters import (DEFAULT_QUERY_MAP, ClassLabel,
                                    apply_filter_chain, assign_class,
                                    find_query_matches)
    from identminer.scorer import score_description
    from identminer.textprep import Tagger, build_selfreport_lexicon

    tags = resources.load_tag_lexicon()
    colors = resources.load_colors()
    blocklist = resources.load_bigram_blocklist()
    lexicon = build_selfreport_lexicon([text for _, text in rows], tags,
                                       cli.KEYS["allow_im"][0])
    solo_removed = dict.fromkeys(FILTER_NAMES, 0)
    chain_removed: Counter = Counter()
    passed = matched = 0
    lines = []
    tagger = Tagger(tags, DEFAULT_QUERY_MAP)
    for user_id, text in rows:
        tagged = tagger.scan(text)
        matches = find_query_matches(tagged, text)
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
            lines.append(f"{user_id}\t{label.value}\t{max(scores)!r}\tHF\n")
    accounting = {"removed_with_single_filter": solo_removed,
                  "removed_by_filter_chain": dict(sorted(chain_removed.items())),
                  "passed_filters": passed, "total_matched": matched}
    return "".join(lines), accounting


def test_dataset_build_hf_matches_reference_filter_accounting(tmp_path):
    rows = [(row["user_id"], row["description"]) for row in planted_payloads()]
    rows += MULTI_MATCH_ROWS
    corpus = write_jsonl(tmp_path / "corpus.jsonl",
                         [user_payload(user_id, description=description)
                          for user_id, description in rows])
    out = tmp_path / "out"
    assert run("dataset-build", "--kind", "hf", "--corpus", str(corpus),
               "--out", str(out)) == 0
    lines, accounting = reference_hf(rows, score_params())
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
        "c422bcf394293b57954854fca15d82a37c789048d9c04bbfc82c845c1e433a28",
    "lexicon/selfreport_lexicon.tsv":
        "65c2df4e73533d226ccdc3ae1500a482647d5589fe0d0931185b68720ccde6d5",
    "dataset_qb/dataset_qb.tsv":  # empty
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dataset_qb/dataset_qb_stats.json":
        "1c3c64f356a0ba5da60c40e270d535de23198c7eb81256f1a7e3267d474a4909",
    "dataset_hf/dataset_hf.tsv":
        "d5a45463301746213f84944dc2c7d26b6dc9e5272de48ca98d9f397253da2da5",
    "dataset_hf/dataset_hf_stats.json":
        "76758b879138dc4d0acf087e8a0d083874a9f7549fd20886aeb121607baf74bd",
    "dataset_cb/dataset_cb.tsv":
        "5fd515649e6bcf1bc95365296f319f5698082007be11d9b23acec0a8143cd9c2",
    "dataset_cb/dataset_cb_stats.json":
        "9e0387510a1568d62b9ae9007424f4a090b35c92dd636f0acf89087e9228850f",
    "dataset_qb_tune/dataset_qb.tsv":
        "de309c7ec6f5efcaf74c71856ede6910b96a6fcfbcf781571693a9f66e895ee0",
    "dataset_qb_tune/dataset_qb_stats.json":
        "b93b0e72ad19acb510e5b03449f8cfba049892b9e5491dac796d241ebc2bb934",
    "tune/tune_result.json":
        "ffac46cb213abeafdf059e0506e66c2f6e13f4f7422d1ab2b8c2fdf383051974",
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
# np.bincount, not BLAS (see test_model_digests.py). The three result JSON
# digests were recorded again when each config block came to hold only the
# keys its subcommand reads; every other field kept its bytes.
TWEET_STAGE_DIGESTS = {
    "train/model.json":
        "c6d56ae09563dffd1ef33196f445f9e9e07cbb4d4d08439cde1bd4a7127986ff",
    "train/train_result.json":
        "30987cce3db10885aedf2a95775dfc44bb4e7e79ed8d1c8e6e2facfcc2effd6b",
    "evaluate/eval_report.txt":
        "c4e210ed205aca09cbe09c65acf734d50281fd93897329ac459e43b1e3e174d5",
    "evaluate/eval_result.json":
        "4a21ededc4a091a0fd05f150457960ec7d9463bf4f27e424a1eaca3b4370686b",
    "analyze/analyze_result.json":
        "b172f6b37d9f219e54d71b69062cb1a83069501dfd2e91151a4db1ca149425f9",
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


@pytest.fixture(scope="module")
def config_checks(request, shared) -> dict[str, list[str]]:
    return shared(request, config_check_commands)


def config_check_commands(root) -> dict[str, list[str]]:
    """One valid invocation of each subcommand that reads the checked keys."""
    planted = write_jsonl(root / "corpus.jsonl", planted_payloads())
    tune_corpus, tuning = tune_fixture(root)
    group_corpus, data = tweet_group_fixture(root)
    model = write_unigram_model(root / "model.json", {"alpha": 0}, 1)
    return {
        "lexicon-build": ["lexicon-build", "--corpus", str(planted)],
        # no --kind, so that a config "kind" applies
        "dataset-build": ["dataset-build", "--corpus", str(planted)],
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


# every row has an explicit id, so that moving, adding or removing a row
# renames no other test; each id is the name pytest gave the row before it
# had one, so a list value's id still holds the row index it had then
# ("value44"), which is now only a label
BAD_CONFIG_VALUES = [
    pytest.param("tune", "grid_windows", ["a"], id="tune-grid_windows-value0"),
    pytest.param("tune", "grid_thresholds", [0.1, "0.2"],
                 id="tune-grid_thresholds-value1"),
    pytest.param("tune", "grid_weightings", "simple",
                 id="tune-grid_weightings-simple"),
    pytest.param("dataset-build", "cb_k", -1, id="dataset-build-cb_k--1"),
    pytest.param("dataset-build", "cb_k", 0, id="dataset-build-cb_k-0"),
    pytest.param("dataset-build", "cb_k", "3", id="dataset-build-cb_k-3"),
    pytest.param("dataset-build", "cb_k", True, id="dataset-build-cb_k-True"),
    pytest.param("dataset-build", "window", "5", id="dataset-build-window-5"),
    pytest.param("dataset-build", "window", 5.9,
                 id="dataset-build-window-5.9"),
    pytest.param("dataset-build", "window", 5.0,
                 id="dataset-build-window-5.0"),
    pytest.param("dataset-build", "threshold", "0.35",
                 id="dataset-build-threshold-0.35"),
    pytest.param("dataset-build", "filters", "color",
                 id="dataset-build-filters-color"),
    pytest.param("dataset-build", "kind", 1, id="dataset-build-kind-1"),
    pytest.param("lexicon-build", "allow_im", "false",
                 id="lexicon-build-allow_im-false"),
    pytest.param("lexicon-build", "allow_im", 0,
                 id="lexicon-build-allow_im-0"),
    pytest.param("lexicon-build", "seed", 1.5, id="lexicon-build-seed-1.5"),
    pytest.param("lexicon-build", "tag_lexicon", 5,
                 id="lexicon-build-tag_lexicon-5"),  # a path key
    pytest.param("analyze", "max_tweets", -1, id="analyze-max_tweets--1"),
    pytest.param("analyze", "max_tweets", 0, id="analyze-max_tweets-0"),
    pytest.param("analyze", "top_n", "a", id="analyze-top_n-a"),
    pytest.param("analyze", "tau_ks", [20, 0], id="analyze-tau_ks-value20"),
    pytest.param("analyze", "sage_lambda", float("inf"),
                 id="analyze-sage_lambda-inf"),
    pytest.param("analyze", "sage_lambda", -1, id="analyze-sage_lambda--1"),
    pytest.param("train", "learning_rate", "x", id="train-learning_rate-x"),
    pytest.param("train", "learning_rate", float("nan"),
                 id="train-learning_rate-nan"),
    pytest.param("train", "learning_rate", 10 ** 400,
                 id="train-learning_rate-beyond-float"),
    pytest.param("train", "epochs", True, id="train-epochs-True"),
    pytest.param("train", "epochs", 0, id="train-epochs-0"),
    pytest.param("train", "learning_rate", 0, id="train-learning_rate-0"),
    pytest.param("dataset-build", "window", 0, id="dataset-build-window-0"),
    pytest.param("train", "min_count", 1.5, id="train-min_count-1.5"),
    pytest.param("train", "batch_size", 0, id="train-batch_size-0"),
    pytest.param("dataset-build", "threshold", 1.5,
                 id="dataset-build-threshold-1.5"),
    pytest.param("dataset-build", "threshold", -0.1,
                 id="dataset-build-threshold--0.1"),
    pytest.param("train", "learning_rate", -0.5,
                 id="train-learning_rate--0.5"),
    pytest.param("train", "l2_strength", -1e-9, id="train-l2_strength--1e-09"),
    pytest.param("train", "l2_strength", float("inf"),
                 id="train-l2_strength-inf"),
    pytest.param("train", "instance_downweight", 0.0,
                 id="train-instance_downweight-0.0"),
    pytest.param("train", "instance_downweight", 1.5,
                 id="train-instance_downweight-1.5"),
    pytest.param("train", "instance_downweight", 2,
                 id="train-instance_downweight-2"),
    pytest.param("dataset-build", "weighting", "log",
                 id="dataset-build-weighting-log"),
    pytest.param("evaluate", "setting", "mystery",
                 id="evaluate-setting-mystery"),
    pytest.param("train", "model", "x", id="train-model-x"),
    pytest.param("dataset-build", "kind", "xx", id="dataset-build-kind-xx"),
    pytest.param("dataset-build", "filters", ["sparkle"],
                 id="dataset-build-filters-value44"),
    pytest.param("dataset-build", "filters", ["colour"],
                 id="dataset-build-filters-value45"),
    pytest.param("tune", "grid_windows", [0], id="tune-grid_windows-value46"),
    pytest.param("tune", "grid_thresholds", [2],
                 id="tune-grid_thresholds-value47"),
    pytest.param("tune", "grid_weightings", ["x"],
                 id="tune-grid_weightings-value48"),
    pytest.param("train", "min_char_count", "5", id="train-min_char_count-5"),
    pytest.param("tune", "grid_windows", [], id="tune-grid_windows-value50"),
    pytest.param("tune", "grid_thresholds", [],
                 id="tune-grid_thresholds-value51"),
    pytest.param("tune", "grid_weightings", [],
                 id="tune-grid_weightings-value52"),
]


def assert_bad_config_exits_2(tmp_path, capsys, argv, key, value):
    config = write_config(tmp_path, "cfg.json", **{key: value})
    out = tmp_path / "out"
    assert run(*argv, "--config", str(config), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"identminer: data error: config key {key!r} "
                          f"must be ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("command,key,value", BAD_CONFIG_VALUES)
def test_bad_config_value_is_a_data_error(config_checks, tmp_path, capsys,
                                          command, key, value):
    assert_bad_config_exits_2(tmp_path, capsys, config_checks[command], key,
                              value)


@pytest.mark.parametrize("command,key,value", BAD_CONFIG_VALUES)
def test_bad_config_value_fails_before_the_corpus_is_read(
        config_checks, tmp_path, capsys, monkeypatch, command, key, value):
    def refuse(path, keep):
        raise AssertionError(f"corpus {path} read before the config check")

    monkeypatch.setattr(cli, "_load_corpus", refuse)
    assert_bad_config_exits_2(tmp_path, capsys, config_checks[command], key,
                              value)


# every config and path key in the order they are checked: a config with
# several bad values names the first of them
CHECK_ORDER = (
    "min_count", "min_char_count", "seed", "window", "epochs", "batch_size",
    "max_tweets", "top_n", "cb_k", "threshold", "instance_downweight",
    "learning_rate", "l2_strength", "sage_lambda", "allow_im", "weighting",
    "setting", "model", "kind", "corpus", "out", "lexicon", "tag_lexicon",
    "tuning", "train_data", "test_data", "model_file", "embeddings", "data",
    "colors_file", "blocklist_file", "tau_ks", "grid_windows",
    "grid_thresholds", "grid_weightings", "filters")


def test_a_config_with_several_bad_values_names_the_first_checked(tmp_path,
                                                                 capsys):
    config = write_config(tmp_path, "two.json", epochs=0, min_count="x")
    out = tmp_path / "out"
    assert run("train", "--model", "baseline-majority", "--config",
               str(config), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "identminer: data error: config key 'min_count' must be an integer, "
        "got 'x'\n")
    assert sorted(CHECK_ORDER) == sorted(cli.KEYS)
    parser = cli.build_parser()
    for command in READ_CONFIG_KEYS:
        # --out is a flag, so its config value is never read
        checked = [key for key in CHECK_ORDER
                   if key in reads(command) and key != "out"]
        for i, key in enumerate(checked):
            config = write_config(tmp_path, "bad.json", **dict.fromkeys(
                checked[i:], UNREAD_VALUE))
            args = parser.parse_args([command, "--config", str(config),
                                      "--out", "o"])
            with pytest.raises(DataError, match=f"^config key {key!r} must"):
                cli._resolve(args)


def bad_input_commands(root) -> dict[str, list[str]]:
    """One invocation per malformed user-supplied resource or model file."""
    planted = write_jsonl(root / "corpus.jsonl", planted_payloads())
    group_corpus, data = tweet_group_fixture(root)
    penn = root / "penn.tsv"
    penn.write_text("a\tXX\n", encoding="utf-8")
    latin1 = root / "latin1.tsv"
    latin1.write_bytes(b"caf\xe9\tNN\n")
    trigram = root / "trigram.txt"
    trigram.write_text("one two three\n", encoding="utf-8")
    blocklist_config = write_config(root, "blocklist.json",
                                    blocklist_file=str(trigram))
    narrow = root / "narrow.tsv"
    narrow.write_text("w0\t0.1 0.2 0.3\n", encoding="utf-8")
    infinite = root / "infinite.tsv"
    infinite.write_text("w0\t" + " ".join(["1e999"] * 768) + "\n",
                        encoding="utf-8")
    # the same w0 embedding row twice
    twice = root / "twice.tsv"
    twice.write_text(2 * ("w0\t" + " ".join(["0.5"] * 768) + "\n"),
                     encoding="utf-8")
    # a zero unigram model over embeddings, so evaluate reaches --embeddings
    model = write_unigram_model(root / "model.json", {}, 768)
    shapeless = root / "shapeless.json"
    shapeless.write_text('{"kind": "unigram", "version": 2}', encoding="utf-8")
    # a name model whose params is a number instead of an object
    mistyped = root / "mistyped.json"
    mistyped.write_text(json.dumps({"kind": "namecnn", "version": 2,
                                    "params": 5, "char_vocab": {},
                                    "meta_dim": 5, "max_len": 10}),
                        encoding="utf-8")
    # a unigram model as format version 1 wrote it: arrays as JSON floats
    version_1 = root / "version_1.json"
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
        defect: write_unigram_model(root / f"{defect}.json", {}, 768,
                                    weights={"shape": [4, 768], "data": data})
        for defect, data in weights.items()}
    listed = root / "listed.json"
    listed.write_text("[1, 2]", encoding="utf-8")
    # nesting past the JSON decoder's recursion limit
    nested = root / "nested.json"
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
        # tensors that fit a meta_dim name_input cannot fill
        "name-meta_dim-width": NameModel(
            char_vocab={"a": 2, "b": 3}, params=init_params(4, 3, 0),
            meta_dim=3).to_dict(),
        **{defect: {**(name if field == "meta_dim"
                       else RandomBaseline(3).to_dict()), field: value}
           for defect, (field, value) in MISTYPED_INTEGERS.items()},
    }
    model_defects = {
        **{defect: root / f"{defect}.json" for defect in named},
        "unigram-weights-shape": write_unigram_model(
            root / "wide.json", {"hi": 0}, 2),
        "unigram-bias-shape": write_unigram_model(
            root / "bias.json", {"hi": 0}, 1,
            bias=encode_array(np.zeros(3))),
        "unigram-vocab-index": write_unigram_model(
            root / "index.json", {"hi": 1}, 1),
    }
    for defect, payload in named.items():
        model_defects[defect].write_text(json.dumps(payload), encoding="utf-8")
    evaluate = ["evaluate", "--test-data", str(data), "--corpus",
                str(group_corpus)]
    # the eight fixture rows, then w0 again or a row whose score is nan
    repeated = root / "repeated.tsv"
    repeated.write_text(data.read_text(encoding="utf-8") + "w0\tB\t\tcrowd\n",
                        encoding="utf-8")
    nonfinite = root / "nonfinite.tsv"
    nonfinite.write_text(data.read_text(encoding="utf-8")
                         + "x9\tB\tnan\tcrowd\n", encoding="utf-8")
    datasets = {"repeated-id": repeated, "nonfinite-score": nonfinite}
    # --embeddings with a model that takes no embeddings; no input file
    # exists, so the refusal must come before each is read
    absent = str(root / "absent")
    unused = ["--corpus", absent, "--embeddings", absent]
    trained = {"namecnn": root / "name.json",
               "baseline-majority": root / "majority.json",
               "baseline-random": root / "random.json"}
    trained["namecnn"].write_text(json.dumps(name), encoding="utf-8")
    save_model(baseline_majority([W]), trained["baseline-majority"])
    save_model(RandomBaseline(0), trained["baseline-random"])
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


@pytest.fixture(scope="module")
def bad_inputs(request, shared) -> dict[str, list[str]]:
    return shared(request, bad_input_commands)


# defect -> (field, value) of an integer model-file field that holds no
# JSON integer: a null seed would seed from the OS, so two runs would
# differ, and meta_dim 5.0 would pass as 5
MISTYPED_INTEGERS = {
    "random-seed-null": ("seed", None), "random-seed-string": ("seed", "7"),
    "random-seed-float": ("seed", 1.5), "random-seed-bool": ("seed", True),
    "name-meta_dim-float": ("meta_dim", 5.0),
    "name-meta_dim-string": ("meta_dim", "5"),
    "name-meta_dim-null": ("meta_dim", None),
    "name-meta_dim-bool": ("meta_dim", False),
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
    "name-meta_dim-width": "meta_dim must be 5, got 3",
    "unigram-weights-shape": "weights [4, 2] and bias [4] do not fit a vocab "
                             "of 1: expected [4, 1] and [4]",
    "unigram-bias-shape": "weights [4, 1] and bias [3] do not fit a vocab of "
                          "1: expected [4, 1] and [4]",
    "unigram-vocab-index": "vocab indices must be 0 to 0, each once",
    **{defect: f"{field} must be an integer, got {value!r}"
       for defect, (field, value) in MISTYPED_INTEGERS.items()},
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
def test_malformed_input_file_is_a_data_error(bad_inputs, tmp_path, capsys,
                                              case):
    argv = bad_inputs[case]
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


# ---------------------------------------------------------------------------
# the output writer: a run leaves all of its files or none

def two_file_argv(tmp_path, command: str) -> list[str]:
    """A run of command, one of the subcommands that write two files."""
    if command in ("lexicon-build", "dataset-build"):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_payloads())
        kind = ["--kind", "hf"] if command == "dataset-build" else []
        return [command, *kind, "--corpus", str(corpus)]
    corpus, data = tweet_group_fixture(tmp_path)
    if command == "train":
        return ["train", "--corpus", str(corpus), "--train-data", str(data)]
    model = write_unigram_model(tmp_path / "model.json", {"alpha": 0}, 1)
    return ["evaluate", "--corpus", str(corpus), "--test-data", str(data),
            "--model-file", str(model)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("command", ["lexicon-build", "dataset-build",
                                     "train", "evaluate"])
def test_a_failed_file_write_leaves_no_out_and_no_staging(
        tmp_path, monkeypatch, capsys, command, n):
    """The nth file a run opens for writing is created, then the disk is
    full: the run exits 2, and the directory --out is in is as it was."""
    argv = two_file_argv(tmp_path, command)
    parent = tmp_path / "runs"
    parent.mkdir()
    opened = []
    real_open = builtins.open

    def open_failing(file, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append(file)
            if len(opened) == n:
                real_open(file, mode, *args, **kwargs).close()
                raise OSError(errno.ENOSPC, "No space left on device", file)
        return real_open(file, mode, *args, **kwargs)

    # pathlib's write_text opens through io.open
    monkeypatch.setattr(builtins, "open", open_failing)
    monkeypatch.setattr(io, "open", open_failing)
    capsys.readouterr()
    assert run(*argv, "--out", str(parent / "out")) == 2
    monkeypatch.undo()
    assert len(opened) == n
    assert f"i/o error: [Errno {errno.ENOSPC}] No space left on device" in (
        capsys.readouterr().err)
    assert list(parent.iterdir()) == []


def test_an_empty_out_is_filled(planted_corpus, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "link").symlink_to(out)
    (tmp_path / "runs").mkdir()
    # a symlink to an empty directory, and a path through ".."
    for given, written in (("link", out), ("runs/../runs", tmp_path / "runs"),
                           ("out", out)):
        shutil.rmtree(written)
        written.mkdir()
        assert run("lexicon-build", "--corpus", str(planted_corpus),
                   "--out", str(tmp_path / given)) == 0, given
        assert sorted(path.name for path in written.iterdir()) == [
            "lexicon_summary.json", "selfreport_lexicon.tsv"], given
    assert (tmp_path / "link").resolve() == out
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "link", "out", "runs"]


def test_an_out_that_is_not_empty_is_refused_before_any_input_is_read(
        tmp_path, monkeypatch, capsys):
    # every input named here is missing, so reading any would fail otherwise
    missing = str(tmp_path / "missing")
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("mine\n", encoding="utf-8")
    a_file = tmp_path / "file"
    a_file.write_text("mine\n", encoding="utf-8")
    # the working directory, even when it is empty
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    for target in (str(out), str(a_file), ".", str(here)):
        for argv in (["lexicon-build", "--corpus", missing],
                     ["train", "--corpus", missing, "--train-data", missing],
                     ["evaluate", "--model-file", missing]):
            capsys.readouterr()
            assert run(*argv, "--out", target) == 2
            assert capsys.readouterr().err == (
                f"identminer: data error: --out must be a new or empty "
                f"directory other than the current one: {target}\n")
    assert [path.name for path in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text(encoding="utf-8") == "mine\n"
    assert a_file.read_text(encoding="utf-8") == "mine\n"
    assert list(here.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_out_gets_the_mode_of_the_umask(planted_corpus, tmp_path, umask):
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert run("lexicon-build", "--corpus", str(planted_corpus),
                   "--out", str(out)) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o777 & ~umask


def train_majority(tmp_path, out: Path) -> int:
    """Exit code of train baseline-majority into out; it writes
    model.json and train_result.json."""
    data = tmp_path / "d.tsv"
    write_dataset_tsv([LabeledUser(user_id="w0", label=W, source="crowd",
                                   score=None)], data)
    return run("train", "--model", "baseline-majority",
               "--train-data", str(data), "--out", str(out))


def test_an_out_whose_name_is_near_the_length_limit_is_written(tmp_path):
    """The staging directory's name is short whatever --out is called."""
    runs = tmp_path / "runs"
    runs.mkdir()
    out = runs / ("a" * 250)
    out.mkdir()  # the name is a valid one
    assert train_majority(tmp_path, out) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "model.json", "train_result.json"]
    assert list(runs.iterdir()) == [out]


def test_a_leftover_staging_directory_is_passed_over(tmp_path):
    """Directories that a killed run with this process's id left beside
    --out, under the staging names of this and of earlier versions, are
    neither reused nor touched."""
    runs = tmp_path / "runs"
    runs.mkdir()
    leftovers = [runs / f".out.{os.getpid()}.tmp",
                 runs / f".identminer.{os.getpid()}.0.tmp"]
    for leftover in leftovers:
        leftover.mkdir()
        (leftover / "model.json").write_text("mine\n", encoding="utf-8")
    assert train_majority(tmp_path, runs / "out") == 0
    assert sorted(path.name for path in (runs / "out").iterdir()) == [
        "model.json", "train_result.json"]
    assert sorted(runs.iterdir()) == sorted([runs / "out", *leftovers])
    for leftover in leftovers:
        assert [path.name for path in leftover.iterdir()] == ["model.json"]
        assert (leftover / "model.json").read_text(encoding="utf-8") == \
            "mine\n"


# training at a learning rate near the float maximum overflows, which numpy
# warns of
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model, parameter, extra", [
    ("unigram", "weights", {}), ("namecnn", "E", {"min_char_count": 1})])
def test_a_model_trained_to_non_finite_parameters_exits_2(
        tmp_path, capsys, model, parameter, extra):
    corpus, data = tweet_group_fixture(tmp_path)
    config = write_config(tmp_path, "diverge.json", learning_rate=1e308,
                          epochs=2, **extra)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("train", "--model", model, "--corpus", str(corpus),
               "--train-data", str(data), "--config", str(config),
               "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"identminer: data error: training left model parameter "
        f"{parameter!r} non-finite; lower learning_rate or l2_strength\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("model", ["unigram", "namecnn"])
def test_a_model_file_holding_a_non_finite_value_exits_2(
        tmp_path, capsys, model, value):
    """Before the corpus is read: the corpus named here is missing."""
    corpus, data = tweet_group_fixture(tmp_path)
    config = write_config(tmp_path, "small.json", epochs=1, min_char_count=1)
    trained = tmp_path / "trained"
    assert run("train", "--model", model, "--corpus", str(corpus),
               "--train-data", str(data), "--config", str(config),
               "--out", str(trained)) == 0
    payload = json.loads((trained / "model.json").read_text(encoding="utf-8"))
    # the second class's bias
    entry = payload["params"]["b2"] if model == "namecnn" else payload["bias"]
    raw = bytearray(base64.b64decode(entry["data"]))
    raw[8:16] = struct.pack("<d", value)
    entry["data"] = base64.b64encode(raw).decode("ascii")
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run("evaluate", "--model-file", str(planted), "--test-data",
               str(data), "--corpus", str(tmp_path / "missing"),
               "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(
        "identminer: data error: bad model file: array of shape ")
    assert not (tmp_path / "out").exists()


def test_every_config_key_has_one_type_rule():
    """Each KEYS row states one rule, in words and as a check, and its
    default keeps it."""
    for key, (default, rule, _, _) in cli.KEYS.items():
        words, check = rule
        assert isinstance(words, str) and words, key
        assert check(default), key


def reads(command: str) -> set[str]:
    """The config and path keys that command reads, by its KEYS rows."""
    return {key for key, row in cli.KEYS.items() if command in row[2]}


def is_path(key: str) -> bool:
    return cli.KEYS[key][1] is cli._PATH


def subcommand_flags():
    """(subcommand, argparse action) of every flag of every subcommand."""
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [(name, action) for name, sub in commands.choices.items()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)]


def test_every_flag_dest_is_a_config_or_path_key():
    """_resolve copies each flag by its dest, so a dest names a config or
    path key that its subcommand reads, or one of the few that are no
    configuration. Every subcommand takes --config, --out, --seed and
    --workers, and the flag of each key it reads that has one."""
    parser = cli.build_parser()
    assert {action.dest for action in parser._actions} <= {"help", "command"}
    dests = {name: set() for name in READ_CONFIG_KEYS}
    for name, action in subcommand_flags():
        dests[name].add(action.dest)
    for name in READ_CONFIG_KEYS:
        allowed = {*reads(name), "config", "workers"}
        assert dests[name] <= allowed, name
        assert {"config", "out", "seed", "workers",
                *(key for key in reads(name) if cli.KEYS[key][3])} \
            <= dests[name], name
        args = parser.parse_args([name, "--out", "o"])
        assert set(vars(args)) <= allowed | {"command", "func"}, name


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(header: str) -> dict[str, list[set[str]]]:
    """The README table under the header line: subcommand -> the names in
    backquotes of each of its other cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        name, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[name.strip("`")] = [set(re.findall(r"`([^`]+)`", cell))
                                 for cell in cells]
    return rows


def test_readme_key_tables_match_keys():
    """README's flag table and config key table say what KEYS gives each
    subcommand."""
    text = README.read_text(encoding="utf-8")
    every = text[text.index("Every subcommand takes"):
                 text.index("Besides these")]
    flags = {name: {f"--{key.replace('_', '-')}" for key in reads(name)
                    if cli.KEYS[key][3]} for name in READ_CONFIG_KEYS}
    common = set.intersection(*flags.values())
    assert set(re.findall(r"`(--[\w-]+)`", every)) == \
        common | {"--config", "--workers"}
    assert readme_table("| Subcommand | Its other flags |") == {
        name: [flags[name] - common] for name in flags}
    assert readme_table(
        "| Subcommand | Config keys | Path keys without a flag |") == {
        name: [{key for key in reads(name) if not is_path(key)},
               {key for key in reads(name)
                if is_path(key) and not cli.KEYS[key][3]}]
        for name in READ_CONFIG_KEYS}


def test_a_flag_for_a_key_the_subcommand_does_not_read_is_a_usage_error(
        capsys):
    for command, flag in [("lexicon-build", "--lexicon"),
                          ("train", "--lexicon"), ("evaluate", "--lexicon"),
                          ("analyze", "--lexicon"),
                          ("train", "--tag-lexicon"),
                          ("evaluate", "--tag-lexicon"),
                          ("analyze", "--tag-lexicon")]:
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "x.tsv", "--out", "x"])
        assert exc.value.code == 1, (command, flag)
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# a value that breaks the rule of every config and path key
UNREAD_VALUE = {"not": "a value"}


def test_a_key_the_subcommand_does_not_read_is_ignored(config_checks,
                                                       tmp_path):
    """A bad value of every key that a subcommand does not read, in the
    config file, leaves its exit code and every output byte as they are."""
    assert not any(check(UNREAD_VALUE)
                   for _, (_, check), _, _ in cli.KEYS.values())
    for name, argv in config_checks.items():
        read = {"kind": "cb"} if "kind" in reads(name) else {}
        configs = [write_config(tmp_path, f"{name}_plain.json", **read),
                   write_config(tmp_path, f"{name}_unread.json", **read, **{
                       key: UNREAD_VALUE for key in cli.KEYS
                       if key not in reads(name)})]
        outputs = []
        for config in configs:
            out = tmp_path / config.stem
            assert run(*argv, "--config", str(config), "--out", str(out)) == 0, \
                name
            outputs.append({path.name: path.read_bytes()
                            for path in out.iterdir()})
        assert outputs[0] == outputs[1], name


# the config keys each subcommand reads, and so records and hashes
READ_CONFIG_KEYS = {
    "lexicon-build": {"allow_im", "seed"},
    "dataset-build": {"kind", "filters", "window", "threshold", "weighting",
                      "allow_im", "cb_k", "seed"},
    "tune": {"grid_windows", "grid_thresholds", "grid_weightings", "allow_im",
             "seed"},
    "train": {"model", "learning_rate", "epochs", "l2_strength", "batch_size",
              "instance_downweight", "min_count", "min_char_count",
              "max_tweets", "seed"},
    "evaluate": {"setting", "max_tweets", "seed"},
    "analyze": {"max_tweets", "top_n", "tau_ks", "sage_lambda", "seed"},
}


def test_one_config_of_every_key_runs_every_subcommand(config_checks,
                                                       tmp_path):
    """One config file holding every key drives the whole pipeline: each
    subcommand takes just the keys it reads, and its result's config block
    and hash hold exactly the config keys of those, at the file's values."""
    shared = {**{key: row[0] for key, row in cli.KEYS.items()}, "kind": "cb",
              "seed": 7, "epochs": 3, "max_tweets": 5, "top_n": 5}
    config = write_config(tmp_path, "pipeline.json", **shared)
    assert config_checks.keys() == READ_CONFIG_KEYS.keys()
    for name, argv in config_checks.items():
        out = tmp_path / name
        argv = [*argv, "--config", str(config), "--out", str(out)]
        config_values, paths = cli._resolve(cli.build_parser().parse_args(argv))
        assert sorted([*config_values, *paths]) == sorted(reads(name)), name
        assert run(*argv) == 0, name
        [result] = [json.loads(path.read_text()) for path in out.glob("*.json")
                    if path.name != "model.json"]
        assert result["config"] == {key: shared[key]
                                    for key in READ_CONFIG_KEYS[name]}, name
        assert result["config_sha256"] == config_hash(result["config"])


def flag_values(action) -> tuple:
    """(a config-file value, a flag string) for the key of action, each
    valid and different."""
    if action.choices:
        return action.choices[0], action.choices[-1]
    if action.type is int:
        return 2, "3"
    if action.type is float:
        return 0.25, "0.5"
    if action.dest == "filters":
        return ["color"], "plural,, ,quote"
    return "from_file.tsv", "from_flag.tsv"


def test_each_flag_overrides_the_config_file_and_absent_keeps_it(tmp_path):
    flags = [(name, action) for name, action in subcommand_flags()
             if action.dest in cli.KEYS]
    assert len(flags) > 20
    for i, (name, action) in enumerate(flags):
        file_value, flag = flag_values(action)
        config = write_config(tmp_path, f"cfg{i}.json",
                              **{action.dest: file_value})
        argv = [name, "--config", str(config)]
        if action.dest != "out":
            argv += ["--out", "o"]
        expected = action.type(flag) if action.type else flag
        config_values, paths = cli._resolve(cli.build_parser().parse_args(
            [*argv, action.option_strings[0], flag]))
        assert {**config_values, **paths}[action.dest] == expected, \
            (name, action.dest)
        assert expected != file_value
        if not action.required:
            config_values, paths = cli._resolve(
                cli.build_parser().parse_args(argv))
            assert {**config_values, **paths}[action.dest] == file_value, \
                (name, action.dest)


def test_integer_for_a_number_key_trains_the_same_model(config_checks,
                                                        tmp_path):
    models = []
    for rate in (1, 1.0):
        config = write_config(tmp_path, f"cfg{rate!r}.json", learning_rate=rate,
                              epochs=3, batch_size=4)
        out = tmp_path / f"out{rate!r}"
        assert run(*config_checks["train"], "--config", str(config),
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

