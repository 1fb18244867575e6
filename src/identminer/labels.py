"""The names every stage shares: the four classes, the labeled-user record
and its dataset TSV, the option names of the config (score weightings,
evaluation settings, filters), and the annotator labels that count as
missing.

This module imports nothing of the package but util, so a subcommand that
only reads a dataset TSV or checks its config loads no text-processing
module; LabeledUser is a named tuple, not a dataclass, so that no module
of the description stages loads dataclasses. The stage modules that
define their use (filters, datasets, scorer, evaluation) import these
names from here.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

from .util import decimal_float, read_rows


class ClassLabel(Enum):
    WHITE = "W"
    BLACK = "B"
    HISPANIC_LATINX = "HL"
    ASIAN = "A"

    @classmethod
    def from_code(cls, code: str) -> "ClassLabel":
        for label in cls:
            if label.value == code:
                return label
        raise ValueError(f"unknown class code {code!r}")


# fixed order used for tie-breaks, vectors, and confusion matrices
CLASS_ORDER: tuple[ClassLabel, ...] = (
    ClassLabel.WHITE, ClassLabel.BLACK, ClassLabel.HISPANIC_LATINX, ClassLabel.ASIAN,
)

SOURCES = ("QB", "HF", "CB", "crowd", "survey")
AUTO_SOURCES = frozenset({"QB", "HF", "CB"})

WEIGHTINGS = ("simple", "tfidf")
SETTINGS = ("imbalanced", "balanced")
FILTER_NAMES = ("color", "plural", "bigram_blocklist", "quote")
# the short config name of a filter -> its FILTER_NAMES entry
FILTER_ALIASES = {"bigram": "bigram_blocklist"}
# an annotator label that is no vote: skipped by the majority vote (scorer)
MISSING_LABELS = (None, "", "missing")


class _LabeledUser(NamedTuple):
    user_id: str
    label: ClassLabel
    score: float | None
    source: str


class LabeledUser(_LabeledUser):
    """One dataset row. Every instance, _replace included, has a known
    source, and a score if its source is automatic."""
    __slots__ = ()

    def __new__(cls, user_id: str, label: ClassLabel, score: float | None,
                source: str):
        if source not in SOURCES:
            raise ValueError(f"unknown source {source!r}")
        if source in AUTO_SOURCES and score is None:
            raise ValueError(f"{source} users must carry a score")
        return super().__new__(cls, user_id, label, score, source)

    def _replace(self, **changes) -> "LabeledUser":
        # the named tuple's own _replace would skip __new__
        return LabeledUser(**{**self._asdict(), **changes})


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
