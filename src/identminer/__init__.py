"""Mining self-reported group membership from short profile texts, and the
group-level models and statistics built on top of it.

The pipeline: ingest JSON-lines user snapshots, tokenize and tag descriptions,
match query keywords, score candidate self-reports by nearby evidence words,
filter false positives, assemble labeled datasets, train and evaluate
classifiers, and compare groups on lexical and behavioral measures.
"""
from .filters import CLASS_ORDER, ClassLabel
from .ingest import ProfileMeta, Tweet, UserRecord, load_users
from .scorer import ScoreParams, score_description
from .textprep import SelfReportLexicon, TagLexicon, pos_tag, tokenize
from .util import DataError

__version__ = "0.1.0"

__all__ = [
    "CLASS_ORDER", "ClassLabel",
    "ProfileMeta", "Tweet", "UserRecord", "load_users",
    "ScoreParams", "score_description",
    "SelfReportLexicon", "TagLexicon", "pos_tag", "tokenize",
    "DataError", "__version__",
]
