"""Mining self-reported group membership from short profile texts, and the
group-level models and statistics built on top of it.

The pipeline: ingest JSON-lines user snapshots, tokenize and tag descriptions,
match query keywords, score candidate self-reports by nearby evidence words,
filter false positives, assemble labeled datasets, train and evaluate
classifiers, and compare groups on lexical and behavioral measures. Each
stage is a module of its own, and importing the package loads none of them.
"""
__version__ = "0.1.0"
