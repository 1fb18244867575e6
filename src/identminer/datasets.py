"""Builders for the three weakly-labeled datasets (QB, HF, CB) and their TSV
format.

QB: users whose description has a query keyword immediately followed by a
person keyword. HF: users with at least one query match that survives all
enabled filters and whose max passing score reaches the threshold. CB: the
top-k users per class by score from the deduplicated QB union HF pool, with k
defaulting to the smallest class count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .filters import (CLASS_ORDER, ClassLabel, QueryMatch, apply_filter_chain,
                      assign_class, find_query_matches, person_bigram_match)
from .scorer import ScoreParams, score_description
from .textprep import (SelfReportCounter, SelfReportLexicon, TagLexicon,
                       TaggedToken, pos_tag, tokenize)
from .util import decimal_float, read_rows

SOURCES = ("QB", "HF", "CB", "crowd", "survey")
AUTO_SOURCES = frozenset({"QB", "HF", "CB"})


@dataclass(frozen=True)
class LabeledUser:
    user_id: str
    label: ClassLabel
    score: float | None
    source: str

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if self.source in AUTO_SOURCES and self.score is None:
            raise ValueError(f"{self.source} users must carry a score")


@dataclass
class UserMatchReport:
    """Per-user query analysis shared by the dataset builders and tune;
    score_reports fills scores and outcomes, both aligned with matches. An
    outcome is the tuple of rejecting filter names, empty when the match
    passed."""
    user_id: str
    label: ClassLabel
    tagged: list[TaggedToken]
    raw_text: str
    matches: list[QueryMatch]
    scores: list[float] = field(default_factory=list)
    outcomes: list[tuple[str, ...]] | None = None


def scan_descriptions(corpus: Iterable, tag_lexicon: TagLexicon,
                      counter: SelfReportCounter | None = None
                      ) -> list[UserMatchReport]:
    """The one pass over the descriptions of the corpus (anything with a
    user_id and a description, such as UserRecord or cli.Description): each
    is tokenized and tagged once and added to counter (the O_s/O lexicon
    counts) if given; an unscored report is kept, in corpus order, if its
    matches name exactly one class."""
    reports = []
    for record in corpus:
        tagged = pos_tag(tokenize(record.description), tag_lexicon)
        if counter is not None:
            counter.add(tagged)
        matches = find_query_matches(tagged)
        label = assign_class(matches)
        if isinstance(label, ClassLabel):
            reports.append(UserMatchReport(record.user_id, label, tagged,
                                           record.description, matches))
    return reports


def score_reports(reports: list[UserMatchReport], lexicon: SelfReportLexicon,
                  params: ScoreParams, filters: tuple[str, ...] | None = None,
                  colors: frozenset[str] = frozenset(),
                  blocklist: frozenset[tuple[str, str]] = frozenset()
                  ) -> list[UserMatchReport]:
    """Score every match against the final lexicon and, given the enabled
    filters, run the filter chain once per match. Fills the reports in place
    and returns them."""
    for report in reports:
        report.scores = [
            score_description(report.tagged, match, lexicon, params)
            for match in report.matches]
        if filters is not None:
            report.outcomes = [
                apply_filter_chain(report.tagged, report.raw_text, match,
                                   filters, colors, blocklist)
                for match in report.matches]
    return reports


def match_reports(corpus: Iterable, tag_lexicon: TagLexicon,
                  lexicon: SelfReportLexicon,
                  params: ScoreParams) -> list[UserMatchReport]:
    """Scored reports of the users matching exactly one class, for a lexicon
    known up front."""
    return score_reports(scan_descriptions(corpus, tag_lexicon), lexicon, params)


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
    reports = scan_descriptions(corpus, tag_lexicon)
    score_reports(reports, lexicon, params, filters, colors, blocklist)
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


def build_cb(candidates: Sequence[LabeledUser], k: int | None = None) -> list[LabeledUser]:
    """Top-k per class by score (ties by user_id ascending), re-tagged CB.

    k defaults to the smallest class count among classes present; an explicit
    k larger than some class count is an error. Output is grouped in fixed
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
        out.extend(replace(user, source="CB") for user in ranked[:k])
    return out


def write_dataset_tsv(users: Sequence[LabeledUser], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for user in users:
            score = "" if user.score is None else repr(user.score)
            handle.write(f"{user.user_id}\t{user.label.value}\t{score}\t{user.source}\n")


def read_dataset_tsv(path) -> list[LabeledUser]:
    """Rows of a dataset TSV. Raises ValueError naming the file and line for
    a row that is malformed, repeats a user id or has a score that is not a
    finite ASCII decimal (util.decimal_float)."""
    return read_rows(path, _dataset_row, unique="user id")


def _dataset_row(fields: list[str]) -> LabeledUser:
    if len(fields) != 4:
        raise ValueError("expected 4 tab-separated fields")
    user_id, code, score_text, source = fields
    score = decimal_float(score_text, "score") if score_text else None
    if score is not None and not math.isfinite(score):
        raise ValueError(f"score {score_text!r} is not finite")
    return LabeledUser(user_id, ClassLabel.from_code(code), score, source)
