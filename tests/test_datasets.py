import random
import re

import pytest

from identminer import resources
from identminer.datasets import (LabeledUser, build_cb, build_hf, build_qb,
                                 hf_users, match_reports, merge_candidates,
                                 qb_users, read_dataset_tsv, scan_descriptions,
                                 score_reports, write_dataset_tsv)
from identminer.filters import CLASS_ORDER, FILTER_NAMES, ClassLabel
from identminer.textprep import SelfReportCounter, build_selfreport_lexicon

from helpers import default, planted_descriptions, score_params, tag_lexicon

W, B, HL, A = CLASS_ORDER

COLORS = resources.load_colors()
BLOCKLIST = resources.load_bigram_blocklist()


def lu(user_id, label, score, source="HF"):
    return LabeledUser(user_id, label, score, source)


def small_corpus():
    """(user_id, description) pairs."""
    return [
        ("u1", "i am a black woman"),
        ("u2", "i am a proud black farmer"),
        ("u3", "black coffee lover"),
        ("u4", "black and white movies"),
        ("u5", "just tweets here"),
    ]


def small_lexicon(corpus=None):
    return build_selfreport_lexicon(
        [text for _, text in corpus or small_corpus()], tag_lexicon(),
        default("allow_im"))


# ---------------------------------------------------------------------------
# match analysis

def test_match_reports_single_class_only():
    lexicon = small_lexicon()
    params = score_params()
    [report] = match_reports(small_corpus()[:1], tag_lexicon(), lexicon, params)
    assert report.label is B
    assert len(report.matches) == len(report.scores) == 1
    assert match_reports(small_corpus()[3:], tag_lexicon(), lexicon,
                         params) == []  # ambiguous, no match


@pytest.mark.parametrize("copies", [1, 3])
def test_match_reports_keeps_corpus_order(copies):
    lexicon = small_lexicon()
    reports = match_reports(small_corpus() * copies, tag_lexicon(), lexicon,
                            score_params())
    assert [r.user_id for r in reports] == ["u1", "u2", "u3"] * copies


def test_scan_descriptions_counts_the_lexicon_from_the_same_pass():
    descriptions, _, _ = planted_descriptions()
    corpus = descriptions.items()
    counter = SelfReportCounter(default("allow_im"))
    scanned = scan_descriptions(corpus, tag_lexicon(), counter)
    lexicon = counter.lexicon()
    assert lexicon == build_selfreport_lexicon(descriptions.values(),
                                               tag_lexicon(),
                                               default("allow_im"))
    unscored = [(report.scores, report.outcomes) for report in scanned]
    assert unscored == [((), None)] * len(scanned)
    scored = score_reports(scanned, lexicon, score_params(), FILTER_NAMES,
                           COLORS, BLOCKLIST)
    # the scored reports are new; the scanned ones are left unscored
    assert [(report.scores, report.outcomes) for report in scanned] == unscored
    assert [report._replace(scores=(), outcomes=None)
            for report in scored] == scanned
    reference = match_reports(corpus, tag_lexicon(), lexicon, score_params())
    assert [(r.user_id, r.matches, r.scores) for r in scored] == \
        [(r.user_id, r.matches, r.scores) for r in reference]
    assert all(len(report.outcomes) == len(report.matches) for report in scored)


def test_qb_and_hf_users_read_one_report_list():
    descriptions, true_ids, _ = planted_descriptions()
    corpus = descriptions.items()
    lexicon = build_selfreport_lexicon(descriptions.values(), tag_lexicon(),
                                       default("allow_im"))
    params = score_params()
    reports = score_reports(scan_descriptions(corpus, tag_lexicon()), lexicon,
                            params, FILTER_NAMES, COLORS, BLOCKLIST)
    assert qb_users(reports) == build_qb(corpus, tag_lexicon(), lexicon, params)
    hf = hf_users(reports, params.threshold)
    assert hf == build_hf(corpus, tag_lexicon(), lexicon, params,
                          FILTER_NAMES, COLORS, BLOCKLIST)
    assert {user.user_id for user in hf} == true_ids


# ---------------------------------------------------------------------------
# QB

def test_build_qb_needs_person_keyword_and_ignores_threshold():
    corpus = [
        ("p1", "black guy vibes"),           # scores 0.0
        ("p2", "i am a black woman"),        # scores > 0
        ("p3", "black coffee lover"),        # no person word
    ]
    lexicon = small_lexicon(corpus)
    users = build_qb(corpus, tag_lexicon(), lexicon,
                     score_params(threshold=0.99))
    by_id = {u.user_id: u for u in users}
    assert set(by_id) == {"p1", "p2"}
    assert by_id["p1"].score == 0.0
    assert all(u.source == "QB" for u in users)


def test_build_qb_score_is_max_over_all_matches():
    # the second keyword has no person successor but scores higher
    corpus = [("p1", "black woman yay proud black farmer")]
    lexicon = small_lexicon(corpus + small_corpus())
    users = build_qb(corpus, tag_lexicon(), lexicon, score_params())
    assert len(users) == 1
    [report] = match_reports(corpus[:1], tag_lexicon(), lexicon, score_params())
    assert len(report.scores) == 2
    assert report.scores[1] > report.scores[0]
    assert users[0].score == max(report.scores)


# ---------------------------------------------------------------------------
# HF on the planted corpus

def test_build_hf_passes_exactly_the_planted_true_positives():
    descriptions, true_ids, _ = planted_descriptions()
    lexicon = build_selfreport_lexicon(descriptions.values(), tag_lexicon(),
                                       default("allow_im"))
    users = build_hf(descriptions.items(), tag_lexicon(), lexicon,
                     score_params(), FILTER_NAMES, COLORS, BLOCKLIST)
    assert {u.user_id for u in users} == true_ids
    assert all(u.source == "HF" and u.score >= 0.35 for u in users)
    labels = {u.user_id: u.label for u in users}
    assert labels["t000"] is W and labels["t025"] is B
    assert labels["t050"] is HL and labels["t075"] is A


def test_build_hf_threshold_applies_to_passing_matches_only():
    # the quoted (rejected) keyword sits next to the head noun and scores
    # high; the passing keyword is too far away and scores below threshold
    text = '"i am a hispanic farmer" yay yay yay yay hispanic friend'
    corpus = [("h1", text), ("h2", "i am a hispanic farmer")]
    lexicon = small_lexicon(corpus)
    users = build_hf(corpus, tag_lexicon(), lexicon, score_params(),
                     FILTER_NAMES, COLORS, BLOCKLIST)
    assert [u.user_id for u in users] == ["h2"]
    # with the quote filter off the rejected match counts and h1 re-enters
    users = build_hf(corpus, tag_lexicon(), lexicon, score_params(),
                     ("color", "plural", "bigram_blocklist"), COLORS,
                     BLOCKLIST)
    assert {u.user_id for u in users} == {"h1", "h2"}


def test_build_hf_threshold_boundary_is_inclusive():
    descriptions, true_ids, _ = planted_descriptions()
    lexicon = build_selfreport_lexicon(descriptions.values(), tag_lexicon(),
                                       default("allow_im"))
    # true profiles score exactly 1.0: a threshold equal to the score keeps them
    users = build_hf(descriptions.items(), tag_lexicon(), lexicon,
                     score_params(threshold=1.0), FILTER_NAMES, COLORS,
                     BLOCKLIST)
    assert {u.user_id for u in users} == true_ids
    assert all(u.score == 1.0 for u in users)


# ---------------------------------------------------------------------------
# merging and CB

def test_merge_candidates_keeps_higher_score():
    qb = [lu("x", B, 0.2, "QB"), lu("only-qb", W, 0.1, "QB")]
    hf = [lu("x", B, 0.9, "HF"), lu("only-hf", A, 0.5, "HF")]
    merged = {u.user_id: u for u in merge_candidates(qb, hf)}
    assert merged["x"].score == 0.9 and merged["x"].source == "HF"
    assert set(merged) == {"x", "only-qb", "only-hf"}


def test_merge_candidates_tie_keeps_first():
    qb = [lu("x", B, 0.5, "QB")]
    hf = [lu("x", B, 0.5, "HF")]
    assert merge_candidates(qb, hf)[0].source == "QB"


def cb_fixture():
    users = []
    counts = {W: 5, B: 3, HL: 4, A: 6}
    rng = random.Random(3)
    for label, count in counts.items():
        for i in range(count):
            users.append(lu(f"{label.value}{i}", label, round(rng.random(), 3)))
    return users


def test_build_cb_balances_to_min_class():
    users = cb_fixture()
    cb = build_cb(users, default("cb_k"))
    assert len(cb) == 4 * 3
    for label in CLASS_ORDER:
        members = [u for u in cb if u.label is label]
        assert len(members) == 3
        pool = sorted((u for u in users if u.label is label),
                      key=lambda u: (-u.score, u.user_id))
        assert [u.user_id for u in members] == [u.user_id for u in pool[:3]]
    assert all(u.source == "CB" for u in cb)


def test_build_cb_output_grouped_in_class_order():
    cb = build_cb(cb_fixture(), default("cb_k"))
    labels = [u.label for u in cb]
    boundaries = [labels[i * 3] for i in range(4)]
    assert boundaries == list(CLASS_ORDER)
    assert labels == sorted(labels, key=list(CLASS_ORDER).index)


def test_build_cb_tie_break_is_user_id():
    users = [lu("b", W, 0.5), lu("a", W, 0.5), lu("c", W, 0.9),
             lu("z1", B, 0.1), lu("z2", HL, 0.1), lu("z3", A, 0.1)]
    cb = build_cb(users, k=1)
    w_members = [u for u in cb if u.label is W]
    assert [u.user_id for u in w_members] == ["c"]
    cb = build_cb(users + [lu("z4", B, 0.1), lu("z5", HL, 0.1),
                           lu("z6", A, 0.1)], k=2)
    w_members = [u.user_id for u in cb if u.label is W]
    assert w_members == ["c", "a"]  # 0.5 tie broken by id


def test_build_cb_short_class_is_an_error():
    users = [lu("w1", W, 0.5), lu("b1", B, 0.5), lu("h1", HL, 0.5)]
    with pytest.raises(ValueError) as exc:
        build_cb(users, default("cb_k"))  # A has zero candidates
    assert "A" in str(exc.value)
    with pytest.raises(ValueError):
        build_cb(cb_fixture(), k=4)  # B has only 3


def test_build_cb_rejects_scoreless_candidates():
    users = cb_fixture() + [LabeledUser("s1", W, None, "survey")]
    with pytest.raises(ValueError):
        build_cb(users, default("cb_k"))


def test_labeled_user_validation():
    with pytest.raises(ValueError):
        LabeledUser("x", W, 0.5, "guess")
    with pytest.raises(ValueError):
        LabeledUser("x", W, None, "HF")
    LabeledUser("x", W, None, "crowd")  # external rows may omit the score


# ---------------------------------------------------------------------------
# TSV round trip

def test_dataset_tsv_round_trip_preserves_floats(tmp_path):
    users = [lu("u1", W, 0.1 + 0.2), lu("u2", B, 1e-17),
             LabeledUser("u3", A, None, "crowd")]
    path = tmp_path / "data.tsv"
    write_dataset_tsv(users, path)
    back = read_dataset_tsv(path)
    assert back == users
    assert back[0].score == 0.30000000000000004


def test_dataset_tsv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("u1\tW\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_dataset_tsv(path)
    path.write_text("u1\tQ\t0.5\tHF\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_dataset_tsv(path)
    for row, reason in (("u1\tB\t0.5\tHF", "repeated user id 'u1'"),
                        ("u2\tB\tnan\tHF", "score 'nan' is not finite"),
                        ("u2\tB\t-inf\tcrowd", "score '-inf' is not finite"),
                        ("u2\tB\t1e999\tHF", "score '1e999' is not finite")):
        path.write_text(f"u1\tW\t0.5\tHF\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {reason}")):
            read_dataset_tsv(path)
