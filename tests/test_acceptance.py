"""Release gate: eight checks over synthetic fixtures and analytic values.
Each test prints one PASS/FAIL line on the terminal, with runtime where the
check carries a budget."""
import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats

from identminer import resources
from identminer.analytics import kendall_tau_top_k, mann_whitney_u
from identminer.cli import main as cli_main
from identminer.datasets import (LabeledUser, build_cb, build_hf, build_qb,
                                 match_reports, merge_candidates)
from identminer.filters import (CLASS_ORDER, FILTER_NAMES, apply_filter_chain,
                                find_query_matches)
from identminer.models.namecnn import (NameModel, build_char_vocab,
                                       init_params, train_name_cnn)
from identminer.models.training import example_weights, inverse_class_weights
from identminer.models.unigram import train_unigram
from identminer.scorer import WEIGHTINGS, score_description
from identminer.textprep import build_selfreport_lexicon

from helpers import (default, echo_report, gradient_check,
                     planted_descriptions, planted_payloads, score_params,
                     skewed_labels, tag, tag_lexicon, train_config,
                     training_arrays, tweet_payload, user_payload,
                     write_jsonl)
from reference_description import reference_tag
from test_scorer import match_at, oracle_score, random_lexicon, random_text

W, B, HL, A = CLASS_ORDER


@contextmanager
def criterion(capsys, number: int, title: str, budget: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE CRITERION {number} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s"
        note = f" ({elapsed:.2f}s < {budget:.0f}s)"
    else:
        note = ""
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {number} PASS: {title}{note}")


def test_criterion_1_majority_baseline_metrics(capsys):
    with criterion(capsys, 1, "majority-baseline accuracy and macro-F1",
                   budget=1.0):
        labels = skewed_labels()  # shares 80.8 / 9.5 / 6.1 / 3.6 percent
        report = echo_report(labels, [W] * len(labels))
        assert report.accuracy == pytest.approx(0.808, abs=0.001)
        assert report.macro_f1 == pytest.approx(0.2234, abs=0.0005)
        balanced = [label for label in CLASS_ORDER for _ in range(250)]
        report = echo_report(balanced, [W] * len(balanced))
        assert report.accuracy == 0.250
        assert report.macro_f1 == 0.1000


def test_criterion_2_score_oracle_equivalence(capsys):
    with criterion(capsys, 2, "self-report score matches brute-force oracle "
                   "bitwise on 1000 random descriptions", budget=5.0):
        rng = random.Random(31024)
        tags = tag_lexicon().tags
        compared = 0
        texts = 0
        while texts < 1000:
            text = random_text(rng)
            tagged, records = tag(text), reference_tag(text, tags)
            if not records:
                continue
            texts += 1
            lexicon = random_lexicon(rng)
            params = score_params(window=rng.randrange(1, 11),
                                  weighting=rng.choice(WEIGHTINGS))
            matches = list(find_query_matches(tagged, text))
            matches.append(match_at(tagged, rng.randrange(len(records))))
            for match in matches:
                got = score_description(tagged, match, lexicon, params)
                assert got == oracle_score(records, match, lexicon, params)
                compared += 1
        assert compared >= 1000

        # the nearer self-report word always wins, for any lexicon with farmer
        near = tag("i am a black farmer")
        far = tag("i am a black beans farmer")
        near_match = find_query_matches(near, "i am a black farmer")[0]
        far_match = find_query_matches(far, "i am a black beans farmer")[0]
        for _ in range(100):
            lexicon = random_lexicon(rng)
            if "farmer" not in lexicon:
                lexicon.os_counts["farmer"] = 1
                lexicon.o_counts["farmer"] = 2
            for weighting in WEIGHTINGS:
                params = score_params(window=5, weighting=weighting)
                high = score_description(near, near_match, lexicon, params)
                low = score_description(far, far_match, lexicon, params)
                assert high > low


def test_criterion_3_planted_corpus_filtering(capsys):
    with criterion(capsys, 3, "planted 200-profile corpus: filters keep the "
                   "100 true self-reports", budget=1.0):
        descriptions, true_ids, fp_ids = planted_descriptions()
        corpus = descriptions.items()
        tags = tag_lexicon()
        lexicon = build_selfreport_lexicon(descriptions.values(), tags,
                                           default("allow_im"))
        params = score_params()
        colors = resources.load_colors()
        blocklist = resources.load_bigram_blocklist()

        dataset = build_hf(corpus, tags, lexicon, params, FILTER_NAMES,
                           colors, blocklist)
        assert {user.user_id for user in dataset} == true_ids

        reports = match_reports(corpus, tags, lexicon, params)
        assert len(reports) == 200
        solo_removed = {}
        for name in FILTER_NAMES:
            solo_removed[name] = sum(
                1 for report in reports
                if not any(not apply_filter_chain(report.tagged,
                                                  report.raw_text, match,
                                                  (name,), colors, blocklist)
                           for match in report.matches))
        assert solo_removed == {name: 25 for name in FILTER_NAMES}
        assert sum(solo_removed.values()) == 100
        for name in FILTER_NAMES:
            assert solo_removed[name] == len(fp_ids[name])

        # more filters can only shrink the passing set
        pass_sets = {}
        for bits in itertools.product((False, True), repeat=4):
            filters = tuple(name for name, bit in zip(FILTER_NAMES, bits)
                            if bit)
            pass_sets[bits] = {
                report.user_id for report in reports
                if any(not apply_filter_chain(report.tagged, report.raw_text,
                                              match, filters, colors,
                                              blocklist)
                       for match in report.matches)}
        for small, large in itertools.product(pass_sets, repeat=2):
            if all(x <= y for x, y in zip(small, large)):
                assert pass_sets[large] <= pass_sets[small]


def test_criterion_4_cb_balance(capsys):
    with criterion(capsys, 4, "class-balanced dataset has equal per-class "
                   "counts at the minority size"):
        # randomized: counts always equalize at the smallest class
        rng = random.Random(7756)
        for _ in range(20):
            candidates = []
            sizes = {label: rng.randrange(1, 9) for label in CLASS_ORDER}
            for label in CLASS_ORDER:
                for i in range(sizes[label]):
                    candidates.append(LabeledUser(
                        user_id=f"{label.value}{i:02d}", label=label,
                        source="HF", score=round(rng.random(), 3)))
            rng.shuffle(candidates)
            dataset = build_cb(candidates, default("cb_k"))
            k = min(sizes.values())
            assert len(dataset) == k * len(CLASS_ORDER)
            for label in CLASS_ORDER:
                chosen = [user.user_id for user in dataset
                          if user.label is label]
                ranked = sorted((user for user in candidates
                                 if user.label is label),
                                key=lambda user: (-user.score, user.user_id))
                assert chosen == [user.user_id for user in ranked[:k]]
                assert all(user.source == "CB" for user in dataset)

        # deterministic tie-break: equal scores resolve by user id
        tied = [LabeledUser(user_id=uid, label=label, source="HF", score=1.0)
                for label in CLASS_ORDER for uid in (f"{label.value}b",
                                                     f"{label.value}a")]
        dataset = build_cb(tied, k=1)
        assert [user.user_id for user in dataset] == ["Wa", "Ba", "HLa", "Aa"]

        # end to end on the planted corpus: 25 per class
        descriptions, _, _ = planted_descriptions()
        corpus = descriptions.items()
        tags = tag_lexicon()
        lexicon = build_selfreport_lexicon(descriptions.values(), tags,
                                           default("allow_im"))
        params = score_params()
        qb = build_qb(corpus, tags, lexicon, params)
        hf = build_hf(corpus, tags, lexicon, params, FILTER_NAMES,
                      resources.load_colors(),
                      resources.load_bigram_blocklist())
        cb = build_cb(merge_candidates(qb, hf), default("cb_k"))
        counts = {label: sum(1 for user in cb if user.label is label)
                  for label in CLASS_ORDER}
        assert counts == {label: 25 for label in CLASS_ORDER}

        # at reported scale, four balanced classes of 7756 make the 31k set
        assert len(CLASS_ORDER) * 7756 == 31024


def test_criterion_5_name_cnn_gradients_and_convergence(capsys):
    with criterion(capsys, 5, "name-model analytic gradients match finite "
                   "differences; toy task fits within 50 epochs",
                   budget=60.0):
        vocab = build_char_vocab(["ab", "cd", "ee"], min_count=1)
        model = NameModel(char_vocab=vocab,
                          params=init_params(len(vocab) + 2, 5, seed=1),
                          meta_dim=5)
        metas = np.random.default_rng(0).normal(size=(3, 5))
        err = gradient_check(model, ["ab", "cd", "ee"], metas, [W, B, HL],
                             step=1e-5)
        assert err < 1e-4

        items = []
        for label, ch in zip(CLASS_ORDER, "abcd"):
            for i in range(8):
                items.append((ch * (4 + i), np.zeros(5), label, "crowd"))
        config = train_config(learning_rate=0.1, epochs=50, batch_size=8,
                              seed=0)
        y_idx, weights = training_arrays([item[2] for item in items],
                                         [item[3] for item in items])
        trained = train_name_cnn([item[0] for item in items],
                                 np.vstack([item[1] for item in items]),
                                 y_idx, weights, config,
                                 default("min_char_count"))
        correct = sum(trained.predict((name, meta))[0] is label
                      for name, meta, label, _ in items)
        assert correct == len(items)


def test_criterion_6_unigram_training(capsys):
    with criterion(capsys, 6, "unigram classifier fits a separable fixture; "
                   "class and instance weights check out", budget=5.0):
        items = []
        for i, label in enumerate(CLASS_ORDER):
            for j in range(10):
                features = np.zeros(4)
                features[i] = 1.0 + 0.1 * j
                items.append((features, label, "crowd"))
        config = train_config(learning_rate=0.5, epochs=60, batch_size=8,
                              seed=0)
        y_idx, weights = training_arrays([item[1] for item in items],
                                         [item[2] for item in items])
        model = train_unigram([item[0] for item in items], y_idx, weights,
                              config, vocab={})
        correct = sum(model.predict(features)[0] is label
                      for features, label, _ in items)
        assert correct == 40

        labels = [W] * 4 + [B] * 2 + [HL] + [A]
        weights = inverse_class_weights(labels)
        assert np.allclose(weights, [4 / 11, 8 / 11, 16 / 11, 16 / 11])

        mixed = example_weights([W, B, HL, A],
                                ["QB", "crowd", "HF", "survey"],
                                np.ones(4), instance_downweight=0.3)
        assert mixed.tolist() == [0.3, 1.0, 0.3, 1.0]


def test_criterion_7_statistics_oracles(capsys):
    with criterion(capsys, 7, "rank statistics match independent oracles",
                   budget=30.0):
        rng = random.Random(8)
        pool = [0.0, 0.5, 1.0, 1.5, 2.0]
        for n_a in range(1, 9):
            for n_b in range(1, 9):
                for _ in range(8):
                    a = [rng.choice(pool) for _ in range(n_a)]
                    b = [rng.choice(pool) for _ in range(n_b)]
                    expected = sum(1.0 if x > y else 0.5 if x == y else 0.0
                                   for x in a for y in b)
                    if len(set(a + b)) == 1:
                        with pytest.raises(ValueError):
                            mann_whitney_u(a, b)
                        continue
                    u, _ = mann_whitney_u(a, b)
                    assert u == expected

        words = [f"w{i}" for i in range(12)]
        for _ in range(500):
            k = rng.randint(2, 8)
            list_a = rng.sample(words, k)
            list_b = rng.sample(words, k)
            tau = kendall_tau_top_k(list_a, list_b, k)
            rank_a = {item: i + 1 for i, item in enumerate(list_a)}
            rank_b = {item: i + 1 for i, item in enumerate(list_b)}
            universe = list(dict.fromkeys(list_a + list_b))
            ra = [rank_a.get(item, k + 1) for item in universe]
            rb = [rank_b.get(item, k + 1) for item in universe]
            expected = scipy.stats.kendalltau(ra, rb).statistic
            assert abs(tau - expected) < 1e-12


def test_criterion_8_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 8, "every CLI subcommand is rerun-stable and "
                   "worker-count invariant"):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_payloads())

        def run_twice(outputs, *argv):
            results = []
            for i in range(2):
                out = tmp_path / f"{outputs[0]}_{i}"
                assert cli_main(list(argv) + ["--out", str(out)]) == 0
                results.append([(out / name).read_bytes()
                                for name in outputs[1]])
            assert results[0] == results[1]
            return tmp_path / f"{outputs[0]}_0"

        lex_out = run_twice(
            ("lex", ["selfreport_lexicon.tsv", "lexicon_summary.json"]),
            "lexicon-build", "--corpus", str(corpus))
        run_twice(("hf", ["dataset_hf.tsv", "dataset_hf_stats.json"]),
                  "dataset-build", "--kind", "hf", "--corpus", str(corpus))
        run_twice(("cb", ["dataset_cb.tsv", "dataset_cb_stats.json"]),
                  "dataset-build", "--kind", "cb", "--corpus", str(corpus))

        votes = [("t000", "yes", "a1"), ("t000", "yes", "a2"),
                 ("t001", "yes", "a1"), ("t001", "yes", "a2"),
                 ("fc00", "no", "a1"), ("fc00", "no", "a2"),
                 ("fp00", "no", "a1"), ("fp00", "no", "a2")]
        tuning = tmp_path / "tuning.tsv"
        tuning.write_text("".join(f"{u}\t{l}\t{an}\n" for u, l, an in votes),
                          encoding="utf-8")
        run_twice(("tune", ["tune_result.json"]),
                  "tune", "--corpus", str(corpus), "--tuning", str(tuning))

        words = {"W": "alpha", "B": "bravo", "HL": "charlie", "A": "delta"}
        payloads, users = [], []
        for label in CLASS_ORDER:
            for j in range(2):
                user_id = f"{label.value.lower()}{j}"
                word = words[label.value]
                payloads.append(user_payload(
                    user_id,
                    tweets=(tweet_payload(f"{word} {word} chat"),)))
                users.append(f"{user_id}\t{label.value}\t\tcrowd")
        group_corpus = write_jsonl(tmp_path / "groups.jsonl", payloads)
        data = tmp_path / "groups.tsv"
        data.write_text("".join(row + "\n" for row in users),
                        encoding="utf-8")
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"learning_rate": 0.5, "epochs": 80,
                                      "batch_size": 8}), encoding="utf-8")
        train_out = run_twice(
            ("train", ["model.json", "train_result.json"]),
            "train", "--model", "unigram", "--config", str(config),
            "--corpus", str(group_corpus), "--train-data", str(data))
        run_twice(("eval", ["eval_result.json", "eval_report.txt"]),
                  "evaluate", "--model-file", str(train_out / "model.json"),
                  "--test-data", str(data), "--corpus", str(group_corpus))
        run_twice(("analyze", ["analyze_result.json"]),
                  "analyze", "--corpus", str(group_corpus), "--data",
                  str(data))

        # worker fan-out must not leak into any output byte
        for workers in ("1", "4"):
            out = tmp_path / f"workers_{workers}"
            assert cli_main(["dataset-build", "--kind", "hf", "--corpus",
                             str(corpus), "--out", str(out),
                             "--workers", workers]) == 0
        assert (tmp_path / "workers_1" / "dataset_hf.tsv").read_bytes() == \
            (tmp_path / "workers_4" / "dataset_hf.tsv").read_bytes()
        assert (tmp_path / "workers_1" / "dataset_hf_stats.json").read_bytes() == \
            (tmp_path / "workers_4" / "dataset_hf_stats.json").read_bytes()
        assert lex_out.exists()
