"""Builders for the three weakly-labeled datasets (QB, HF, CB). Their
records and TSV format (LabeledUser, read_dataset_tsv, write_dataset_tsv)
are defined in labels and importable from here too.

QB: users whose description has a query keyword immediately followed by a
person keyword. HF: users with at least one query match that survives all
enabled filters and whose max passing score reaches the threshold. CB: the
top-k users per class by score from the deduplicated QB union HF pool, with k
the smallest class count unless one is given.
"""
from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Sequence

from .filters import (DEFAULT_QUERY_MAP, QueryMatch, apply_filter_chain,
                      assign_class, find_query_matches, person_bigram_match)
from .labels import CLASS_ORDER, ClassLabel, LabeledUser
from .labels import read_dataset_tsv, write_dataset_tsv  # noqa: F401
from .scorer import ScoreParams, score_matches
from .textprep import (SelfReportCounter, SelfReportLexicon, TagLexicon,
                       Tagged, Tagger)


class UserMatchReport(NamedTuple):
    """Per-user query analysis shared by the dataset builders and tune, with
    what they and the filters read of a description: its Tagged tokens,
    text and query matches. scan_descriptions builds it unscored: no
    scores and outcomes None. score_reports builds the scored copy, whose
    scores and, when filters ran, outcomes are aligned with matches; an
    outcome is the tuple of rejecting filter names, empty when the match
    passed."""
    user_id: str
    label: ClassLabel
    tagged: Tagged
    raw_text: str
    matches: list[QueryMatch]
    scores: Sequence[float] = ()
    outcomes: list[tuple[str, ...]] | None = None


_new_report = functools.partial(tuple.__new__, UserMatchReport)


def scan_descriptions(corpus: Iterable[tuple[str, str]],
                      tag_lexicon: TagLexicon,
                      counter: SelfReportCounter | None = None
                      ) -> list[UserMatchReport]:
    """The one pass over the (user_id, description) pairs of the corpus:
    each description is scanned once (Tagger.scan, with the query keywords
    marked) and added to counter (the O_s/O lexicon counts) if given; an
    unscored report is kept, in corpus order, if its matches name exactly
    one class."""
    tagger = Tagger(tag_lexicon, DEFAULT_QUERY_MAP)
    reports = []
    for user_id, text in corpus:
        tagged = tagger.scan(text)
        if counter is not None:
            counter.add(tagged)
        matches = find_query_matches(tagged, text)
        label = assign_class(matches)
        if isinstance(label, ClassLabel):
            reports.append(UserMatchReport(user_id, label, tagged, text,
                                           matches))
    return reports


def score_reports(reports: Iterable[UserMatchReport],
                  lexicon: SelfReportLexicon, params: ScoreParams,
                  filters: tuple[str, ...] | None, colors: frozenset[str],
                  blocklist: frozenset[tuple[str, str]]
                  ) -> list[UserMatchReport]:
    """New reports, in the given order: each match scored against the final
    lexicon and, given the enabled filters (not None), its one filter-chain
    outcome. The given reports are left as they are."""
    scored = []
    for user_id, label, tagged, raw_text, matches, _, _ in reports:
        outcomes = None if filters is None else [
            apply_filter_chain(tagged, raw_text, match, filters, colors,
                               blocklist) for match in matches]
        scored.append(_new_report((
            user_id, label, tagged, raw_text, matches,
            score_matches(tagged, matches, lexicon, params), outcomes)))
    return scored


def match_reports(corpus: Iterable, tag_lexicon: TagLexicon,
                  lexicon: SelfReportLexicon,
                  params: ScoreParams) -> list[UserMatchReport]:
    """Scored reports of the (user_id, description) pairs matching exactly
    one class, for a lexicon known up front; no filter runs."""
    return score_reports(scan_descriptions(corpus, tag_lexicon), lexicon,
                         params, None, frozenset(), frozenset())


def qb_users(reports: Iterable[UserMatchReport]) -> list[LabeledUser]:
    """Users with a query match followed by a person keyword, scored by the
    max over all their matches."""
    return [LabeledUser(report.user_id, report.label, max(report.scores), "QB")
            for report in reports
            if any(person_bigram_match(report.tagged, match)
                   for match in report.matches)]


def hf_users(reports: Iterable[UserMatchReport],
             threshold: float) -> list[LabeledUser]:
    """Users with a match that passed the filter chain and scores at or above
    the threshold. The threshold applies to the max over passing matches
    only. The reports must carry filter outcomes."""
    out = []
    for report in reports:
        passing = [score for score, outcome in zip(report.scores, report.outcomes)
                   if not outcome]
        if passing and max(passing) >= threshold:
            out.append(LabeledUser(report.user_id, report.label, max(passing), "HF"))
    return out


def build_qb(corpus: Iterable, tag_lexicon: TagLexicon,
             lexicon: SelfReportLexicon, params: ScoreParams) -> list[LabeledUser]:
    return qb_users(match_reports(corpus, tag_lexicon, lexicon, params))


def build_hf(corpus: Iterable, tag_lexicon: TagLexicon,
             lexicon: SelfReportLexicon, params: ScoreParams,
             filters: tuple[str, ...], colors: frozenset[str],
             blocklist: frozenset[tuple[str, str]]) -> list[LabeledUser]:
    reports = score_reports(scan_descriptions(corpus, tag_lexicon), lexicon,
                            params, filters, colors, blocklist)
    return hf_users(reports, params.threshold)


def merge_candidates(qb: Sequence[LabeledUser],
                     hf: Sequence[LabeledUser]) -> list[LabeledUser]:
    """Deduplicate QB union HF by user_id, keeping the higher score; on a tie
    the earlier entry (QB first) stays."""
    best: dict[str, LabeledUser] = {}
    for user in list(qb) + list(hf):
        current = best.get(user.user_id)
        if current is None or (user.score or 0.0) > (current.score or 0.0):
            best[user.user_id] = user
    return list(best.values())


def build_cb(candidates: Sequence[LabeledUser], k: int | None) -> list[LabeledUser]:
    """Top-k per class by score (ties by user_id ascending), re-tagged CB.

    k None is the smallest class count among classes present; a k larger
    than some class count is an error. Output is grouped in fixed
    class order, so all four class counts are exactly k.
    """
    by_class: dict[ClassLabel, list[LabeledUser]] = {label: [] for label in CLASS_ORDER}
    for user in candidates:
        if user.score is None:
            raise ValueError(f"candidate {user.user_id} has no score")
        by_class[user.label].append(user)
    counts = {label: len(users) for label, users in by_class.items()}
    if k is None:
        # absent classes must fail the check below, not drag k to zero
        present = [count for count in counts.values() if count > 0]
        k = min(present) if present else 0
    short = [label.value for label in CLASS_ORDER if counts[label] < k]
    if short:
        raise ValueError(f"classes {short} have fewer than k={k} candidates")
    out = []
    for label in CLASS_ORDER:
        ranked = sorted(by_class[label], key=lambda u: (-u.score, u.user_id))
        out.extend(user._replace(source="CB") for user in ranked[:k])
    return out
