"""Command-line surface: lexicon-build, dataset-build, tune, train, evaluate,
analyze. One table (KEYS) gives each config and path key's default, rule,
flag and the subcommands that read it. Subcommands compute and main
writes: main resolves defaults < config file < flags over the keys the
subcommand reads, refuses an --out that is not new or an empty directory,
and writes the files the subcommand returns (see _write_files), adding to
its result JSON the command, those keys of the semantic config, their hash
and the seed. All randomness derives from one root seed, so reruns with
the same config and seed are byte-identical and results never depend on
--workers.

Each subcommand imports only the modules it runs. At module level this
file loads the standard library (but not logging: _log writes the few
messages there are), util, resources and labels, which is all that
argument parsing, config resolution, messages and result writing need;
every stage module is imported inside the function that uses it. So the
baselines load no text-processing module, and only train and evaluate of a
unigram or name model load numpy. Every record is a named tuple, so no
module imports dataclasses, and no subcommand loads logging.

Exit codes: 0 success, 1 usage error, 2 data error. The IDENTMINER_LOG
environment variable (error, info, debug) sets which messages are written
to stderr, each as one "LEVEL identminer: message" line. main returns the
exit code; run, the process entry, ends the process with it as soon as
main has returned and the atexit callbacks have run, skipping the
interpreter's teardown of the loaded modules.
"""
from __future__ import annotations

import argparse
import atexit
import itertools
import json
import math
import os
import reprlib
import shutil
import sys
from collections import Counter
from functools import partial
from pathlib import Path

from . import resources
from .labels import (CLASS_ORDER, FILTER_ALIASES, FILTER_NAMES, SETTINGS,
                     WEIGHTINGS, read_dataset_tsv, write_dataset_tsv)
from .util import DataError, config_hash, stage_seed, write_json

DATASET_KINDS = ("qb", "hf", "cb")
MODEL_NAMES = ("unigram", "namecnn", "baseline-random", "baseline-majority")
_FILTER_WORDS = (*FILTER_NAMES, *FILTER_ALIASES)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer no float can hold
        return False


def _is_fraction(value) -> bool:
    return _is_number(value) and 0 <= value <= 1


def _is_filter(value) -> bool:
    # enabled_filters strips each name and skips blank ones
    return isinstance(value, str) and value.strip() in ("", *_FILTER_WORDS)


def _one_of(names, words: str = "one of {}") -> tuple:
    """The rule that a value is one of names: (words naming them, with a
    None among them said as "or null", the check)."""
    said = ", ".join(repr(name) for name in names if name is not None)
    if None in names:
        said += " or null"
    return words.format(said), lambda value: value in names


def _list_of(rule: tuple, non_empty: bool = False) -> tuple:
    """The rule that a value is a list (a non-empty one if non_empty) whose
    items each keep rule: (plural words, check)."""
    words, check = rule
    return (f"a {'non-empty ' if non_empty else ''}list of {words}",
            lambda value: isinstance(value, list) and all(map(check, value))
            and (len(value) > 0 or not non_empty))


_INT = ("an integer", _is_int)
_COUNT = ("an integer >= 1", _is_count)
_NON_NEGATIVE = ("a finite number >= 0", lambda v: _is_number(v) and v >= 0)
# the rule of the path keys, and so what marks them
_PATH = ("a string or null", lambda v: v is None or isinstance(v, str))

_DESCRIPTION = ("lexicon-build", "dataset-build", "tune")
_ALL = (*_DESCRIPTION, "train", "evaluate", "analyze")

# every config and path key, one row each: (default, rule as (words,
# check), the subcommands that read it, its flag's argparse keywords or None
# where it has no flag). _resolve takes, checks and returns the rows of the
# running subcommand, in this order, before any input is read: so a config
# with several bad values names the first, and a config-file key that only
# other subcommands read is ignored, so one config file serves the whole
# pipeline. The path keys (rule _PATH) are execution details; every other
# key is semantic configuration, recorded and hashed in each result.
KEYS = {
    "min_count": (2, _INT, ("train",), None),
    "min_char_count": (5, _INT, ("train",), None),
    "seed": (0, _INT, _ALL, {"type": int, "help": "root random seed"}),
    "window": (5, _COUNT, ("dataset-build",), {"type": int}),
    "epochs": (20, _COUNT, ("train",), {"type": int}),
    "batch_size": (64, _COUNT, ("train",), None),
    "max_tweets": (200, _COUNT, ("train", "evaluate", "analyze"), None),
    "top_n": (20, _COUNT, ("analyze",), None),
    "cb_k": (None, ("an integer >= 1 or null",
                    lambda v: v is None or _is_count(v)),
             ("dataset-build",), None),
    "threshold": (0.35, ("a number in [0, 1]", _is_fraction),
                  ("dataset-build",), {"type": float}),
    "instance_downweight": (1.0, ("a number in (0, 1]",
                                  lambda v: _is_number(v) and 0 < v <= 1),
                            ("train",), None),
    "learning_rate": (0.1, ("a finite number > 0",
                            lambda v: _is_number(v) and v > 0),
                      ("train",), None),
    "l2_strength": (1e-4, _NON_NEGATIVE, ("train",), None),
    "sage_lambda": (1.0, _NON_NEGATIVE, ("analyze",), None),
    "allow_im": (False, ("true or false", lambda v: isinstance(v, bool)),
                 _DESCRIPTION, None),
    "weighting": ("simple", _one_of(WEIGHTINGS), ("dataset-build",),
                  {"choices": WEIGHTINGS}),
    "setting": ("imbalanced", _one_of(SETTINGS), ("evaluate",),
                {"choices": SETTINGS}),
    "model": ("unigram", _one_of(MODEL_NAMES), ("train",),
              {"choices": MODEL_NAMES}),
    "kind": (None, _one_of((*DATASET_KINDS, None)), ("dataset-build",),
             {"choices": DATASET_KINDS, "help": "dataset kind"}),
    "corpus": (None, _PATH, _ALL, {"help": "JSON-lines corpus path"}),
    "out": (None, _PATH, _ALL, {"required": True, "help": "output directory"}),
    "lexicon": (None, _PATH, ("dataset-build", "tune"),
                {"help": "self-report lexicon TSV"}),
    "tag_lexicon": (None, _PATH, _DESCRIPTION, {
        "help": "word<TAB>tag TSV overriding the bundled tagger"}),
    "tuning": (None, _PATH, ("tune",),
               {"help": "user_id<TAB>label<TAB>annotator TSV"}),
    "train_data": (None, _PATH, ("train",), {"help": "dataset TSV"}),
    "test_data": (None, _PATH, ("evaluate",), {"help": "dataset TSV"}),
    "model_file": (None, _PATH, ("evaluate",), {"help": "saved model JSON"}),
    "embeddings": (None, _PATH, ("train", "evaluate"),
                   {"help": "user_id<TAB>floats TSV feature override"}),
    "data": (None, _PATH, ("analyze",),
             {"help": "labeled dataset TSV defining the groups"}),
    "colors_file": (None, _PATH, ("dataset-build",), None),
    "blocklist_file": (None, _PATH, ("dataset-build",), None),
    "tau_ks": ([20, 50], _list_of(("integers >= 1", _is_count)),
               ("analyze",), None),
    # the tuning grid, every weighting x window x threshold; an empty grid
    # has no point to choose
    "grid_windows": (list(range(1, 11)),
                     _list_of(("integers >= 1", _is_count), non_empty=True),
                     ("tune",), None),
    "grid_thresholds": ([round(0.05 * i, 2) for i in range(1, 20)],
                        _list_of(("numbers in [0, 1]", _is_fraction),
                                 non_empty=True), ("tune",), None),
    "grid_weightings": (list(WEIGHTINGS),
                        _list_of(_one_of(WEIGHTINGS, "names from {}"),
                                 non_empty=True), ("tune",), None),
    "filters": (["color", "plural", "bigram", "quote"],
                _list_of((_one_of(_FILTER_WORDS, "names from {}")[0],
                          _is_filter)), ("dataset-build",), {
        "type": lambda flag: [name for name in flag.split(",")
                              if name.strip()],
        "help": "comma list from color,plural,bigram,quote (empty for none)"}),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented usage exit code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# IDENTMINER_LOG -> the levels written to stderr; any other value is error
_LOG_LEVELS = {"error": (), "info": ("INFO",), "debug": ("INFO", "DEBUG")}


def _log(level: str, message: str) -> None:
    """Write "LEVEL identminer: message" to stderr if IDENTMINER_LOG lets
    level through."""
    name = os.environ.get("IDENTMINER_LOG", "error").lower()
    if level in _LOG_LEVELS.get(name, ()):
        print(f"{level} identminer: {message}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="identminer",
                     description="self-report mining and group modeling pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary in (
            ("lexicon-build", cmd_lexicon_build,
             "induce the self-report lexicon"),
            ("dataset-build", cmd_dataset_build,
             "build the qb, hf, or cb dataset"),
            ("tune", cmd_tune, "grid-search score hyperparameters"),
            ("train", cmd_train, "train a classifier"),
            ("evaluate", cmd_evaluate, "score a trained model on a test set"),
            ("analyze", cmd_analyze,
             "group-level lexical and behavioral statistics")):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; every run is serial "
                            "and results are invariant")
        # a flag's dest is its key, so _resolve finds it by the key's name
        for key, (_, _, commands, flag) in KEYS.items():
            if flag is not None and name in commands:
                p.add_argument(f"--{key.replace('_', '-')}", **flag)
    return parser


def _resolve(args: argparse.Namespace) -> tuple[dict, dict]:
    """defaults < config file < flags over the KEYS rows that args.command
    reads; returns (semantic config, paths), each holding just those keys.

    A flag sets the key named by its argparse dest; an absent flag (None)
    keeps the config-file value. The dests that are no key (config, workers,
    command, func) are not configuration. A config-file key that only other
    subcommands read is neither checked nor returned; one that no
    subcommand reads is an error."""
    rows = {key: row for key, row in KEYS.items() if args.command in row[2]}
    values = {key: row[0] for key, row in rows.items()}
    loaded = {}
    if args.config:
        if not Path(args.config).is_file():
            raise DataError(f"config file not found: {args.config}")
        try:
            with open(args.config, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and an integer literal past
            # the int conversion limit; RecursionError deep nesting
            raise DataError(f"bad config JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DataError("config file must hold a JSON object")
    flags = {key: value for key, value in vars(args).items()
             if value is not None and key in rows}
    for key, value in {**loaded, **flags}.items():
        if key in rows:
            values[key] = value
        elif key not in KEYS:
            raise DataError(f"unknown config key {key!r}")
    for key, (_, (words, check), _, _) in rows.items():
        if not check(values[key]):
            raise DataError(f"config key {key!r} must be {words}, "
                            f"got {reprlib.repr(values[key])}")
    config = {key: values[key] for key, row in rows.items()
              if row[1] is not _PATH}
    paths = {key: values[key] for key, row in rows.items() if row[1] is _PATH}
    return config, paths


def _require(paths: dict, key: str) -> str:
    value = paths[key]
    if not value:
        raise DataError(f"missing required input: --{key.replace('_', '-')}")
    if not Path(value).is_file():
        raise DataError(f"{key} file not found: {value}")
    return value


def _load_corpus(path: str, keep) -> tuple[dict, int]:
    """keep(line) of each user's latest snapshot, by user id in corpus
    order, for the users whose keep is not None; plus the count of lines that
    failed to parse. line is the snapshot's ingest.UserLine: the description
    stages keep its description, train and evaluate of a unigram model the
    word counts of its newest tweets, analyze its analytics.UserSummary and
    the name model its name and profile vector (namecnn.name_input). The
    lines stream from the validator straight into dedupe_latest, so only
    the kept values outlive their line."""
    from .ingest import ParseFailure, dedupe_latest, load_users
    parsed = failures = 0

    def accepted(handle):
        nonlocal parsed, failures
        for result in load_users(handle):
            if isinstance(result, ParseFailure):
                failures += 1
                _log("DEBUG",
                     f"line {result.line_no} skipped: {result.reason}")
            else:
                parsed += 1
                yield result

    with open(path, "rb") as handle:
        latest = dedupe_latest(accepted(handle), keep)
    _log("INFO", f"corpus: {parsed + failures} lines, {parsed} parsed, "
                 f"{failures} failures, {len(latest)} unique users")
    return ({user_id: kept for user_id, kept in latest.items()
             if kept is not None}, failures)


def _read_input(paths: dict, key: str, read):
    """read(path) of the input file named by key. The readers raise a bad
    line as ValueError("PATH:LINE: reason"): that message is the data error."""
    path = _require(paths, key)
    try:
        return read(path)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _resource(paths: dict, key: str, load):
    """The user's file for key if one is given, else the packaged one."""
    return _read_input(paths, key, load) if paths[key] else load()


def _tag_lexicon(paths: dict):
    return _resource(paths, "tag_lexicon", resources.load_tag_lexicon)


def _filter_resources(paths: dict):
    colors = _resource(paths, "colors_file", resources.load_colors)
    blocklist = _resource(paths, "blocklist_file",
                          resources.load_bigram_blocklist)
    return colors, blocklist


def _description_pass(paths: dict, config: dict, descriptions, tag_lexicon):
    """The one pass over the (user_id, description) pairs: (lexicon, unscored
    reports of the users matching exactly one class). The lexicon is read
    from --lexicon, or else counted from the same tagged tokens that the
    query matching uses."""
    from .datasets import scan_descriptions
    from .textprep import SelfReportCounter, SelfReportLexicon
    if paths["lexicon"]:
        lexicon = _read_input(paths, "lexicon", SelfReportLexicon.from_tsv)
        if not lexicon.os_counts:
            raise DataError(f"self-report lexicon is empty: {paths['lexicon']}")
        return lexicon, scan_descriptions(descriptions, tag_lexicon)
    counter = SelfReportCounter(allow_im=config["allow_im"])
    reports = scan_descriptions(descriptions, tag_lexicon, counter)
    lexicon = counter.lexicon()
    if not lexicon.os_counts:
        raise DataError("self-report lexicon is empty; corpus has no "
                        "first-person statements (or pass --lexicon)")
    return lexicon, reports


def cmd_lexicon_build(config: dict, paths: dict) -> dict:
    from .textprep import build_selfreport_lexicon
    corpus_path = _require(paths, "corpus")
    tag_lexicon = _tag_lexicon(paths)
    descriptions, failures = _load_corpus(corpus_path,
                                           lambda line: line.description)
    lexicon = build_selfreport_lexicon(descriptions.values(), tag_lexicon,
                                       allow_im=config["allow_im"])
    return {"selfreport_lexicon.tsv": lexicon.to_tsv,
            "lexicon_summary.json": {
                "n_users": len(descriptions),
                "n_parse_failures": failures,
                "n_words": len(lexicon.os_counts),
                "total_selfreport": lexicon.total_selfreport,
            }}


def _filter_accounting(reports, filters: tuple[str, ...]):
    """Removal table: users removed with only each enabled filter on, removals
    attributed to the chain filter that fired first under the full config,
    and the pass count. A multi-match user passes when any match passes;
    removed users attribute to the first rejecting filter of their first
    match. All three come from the one filter-chain outcome of each match."""
    solo_removed = {name: 0 for name in filters}
    chain_removed = Counter()
    passed = 0
    for report in reports:
        outcomes = report.outcomes
        for name in filters:
            if all(name in outcome for outcome in outcomes):
                solo_removed[name] += 1
        if any(not outcome for outcome in outcomes):
            passed += 1
        else:
            chain_removed[outcomes[0][0]] += 1
    return {
        "removed_with_single_filter": solo_removed,
        "removed_by_filter_chain": dict(sorted(chain_removed.items())),
        "passed_filters": passed,
        "total_matched": len(reports),
    }


def cmd_dataset_build(config: dict, paths: dict) -> dict:
    from .datasets import (build_cb, hf_users, merge_candidates, qb_users,
                           score_reports)
    from .filters import enabled_filters
    from .scorer import ScoreParams
    kind = config["kind"]
    if kind is None:
        raise DataError(f"dataset-build needs --kind {'|'.join(DATASET_KINDS)}")
    corpus_path = _require(paths, "corpus")
    tag_lexicon = _tag_lexicon(paths)
    colors, blocklist = _filter_resources(paths)
    filters = enabled_filters(config["filters"])
    params = ScoreParams(config["window"], config["threshold"],
                         config["weighting"])
    descriptions, _ = _load_corpus(corpus_path,
                                   lambda line: line.description)
    lexicon, reports = _description_pass(paths, config, descriptions.items(),
                                         tag_lexicon)
    # qb reads no filter verdicts
    reports = score_reports(reports, lexicon, params,
                            None if kind == "qb" else filters, colors,
                            blocklist)

    stats = {"kind": kind, "n_users": len(descriptions)}

    if kind == "qb":
        users = qb_users(reports)
    elif kind == "hf":
        stats["n_matched"] = len(reports)
        stats["filter_accounting"] = _filter_accounting(reports, filters)
        users = hf_users(reports, params.threshold)
    else:
        candidates = merge_candidates(qb_users(reports),
                                      hf_users(reports, params.threshold))
        try:
            users = build_cb(candidates, k=config["cb_k"])
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        stats["k"] = len(users) // len(CLASS_ORDER) if users else 0

    stats["class_counts"] = {
        label.value: sum(1 for user in users if user.label == label)
        for label in CLASS_ORDER}
    stats["n_output"] = len(users)
    return {f"dataset_{kind}.tsv": partial(write_dataset_tsv, users),
            f"dataset_{kind}_stats.json": stats}


def cmd_tune(config: dict, paths: dict) -> dict:
    from .scorer import (DISCARD, majority_vote, read_tuning_tsv, score_grid,
                         tune_params)
    corpus_path = _require(paths, "corpus")
    rows = _read_input(paths, "tuning", read_tuning_tsv)
    tag_lexicon = _tag_lexicon(paths)
    descriptions, _ = _load_corpus(corpus_path,
                                   lambda line: line.description)
    lexicon, reports = _description_pass(paths, config, descriptions.items(),
                                         tag_lexicon)

    votes: dict[str, list[str]] = {}
    for user_id, label, _annotator in rows:
        votes.setdefault(user_id, []).append(label)
    labels: dict[str, bool] = {}
    for user_id, cast in votes.items():
        verdict = majority_vote(cast)
        if verdict is DISCARD:
            continue
        labels[user_id] = verdict == "yes"

    # the first query match stands in for the user; tune_params scores it
    # under each grid point, so the reports are not scored here
    tuning_set = [(report.tagged, report.matches[0], labels[report.user_id])
                  for report in reports if report.user_id in labels]
    grid = score_grid(config["grid_windows"], config["grid_thresholds"],
                      config["grid_weightings"])
    try:
        best, precision, recall = tune_params(tuning_set, lexicon, grid)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    return {"tune_result.json": {
        "window": best.window,
        "threshold": best.threshold,
        "weighting": best.weighting,
        "precision": precision,
        "recall": recall,
        "n_examples": len(tuning_set),
        "n_discarded": len(votes) - len(labels),
    }}


def _corpus_pairs(paths: dict, dataset, project) -> list:
    """(dataset user, project(line of the latest snapshot)) for each dataset
    user in the corpus, where line is the validated ingest.UserLine. project
    is called for dataset users only, and what it returns is all that is
    kept of the corpus."""
    ids = {user.user_id for user in dataset}
    kept, _ = _load_corpus(_require(paths, "corpus"), lambda line: (
        project(line) if line.user_id in ids else None))
    pairs = [(user, kept[user.user_id]) for user in dataset
             if user.user_id in kept]
    if not pairs:
        raise DataError("no dataset user ids found in the corpus")
    return pairs


def _model_inputs(paths: dict, config: dict, dataset, model_name: str,
                  role: str, vocab: dict | None = None) -> list:
    """(dataset user, model input) for each dataset user in the corpus:
    what train and evaluate read of a user's latest snapshot, each taken
    from the checked line as the corpus streams. namecnn reads
    namecnn.name_input, the name and profile vector; unigram with
    --embeddings the user's row, if it has one (the corpus only shows the
    user is there); unigram otherwise the user_word_counts of the texts of
    the newest max_tweets tweets (one word_chunks table for the run) or,
    given a trained vocab, their featurize_user row. role names the dataset
    if no user is left."""
    if model_name == "namecnn":
        from .models.namecnn import name_input
        return _corpus_pairs(paths, dataset, name_input)
    if paths["embeddings"]:
        from .models.features import read_embeddings
        present = _corpus_pairs(paths, dataset, lambda line: True)
        table = _read_input(paths, "embeddings", read_embeddings)
        pairs = [(user, table[user.user_id]) for user, _ in present
                 if user.user_id in table]
        if not pairs:
            raise DataError(f"no embeddings match the {role} user ids")
        return pairs
    from .ingest import newest_tweets
    from .models.features import featurize_user, user_word_counts, word_chunks
    max_tweets = config["max_tweets"]
    chunks = word_chunks()

    def word_counts(line) -> Counter:
        return user_word_counts([tweet["text"] for _, tweet
                                 in newest_tweets(line, max_tweets)], chunks)
    if vocab is None:
        return _corpus_pairs(paths, dataset, word_counts)
    return _corpus_pairs(paths, dataset,
                         lambda line: featurize_user(word_counts(line), vocab))


def _read_dataset(paths: dict, key: str):
    dataset = _read_input(paths, key, read_dataset_tsv)
    if not dataset:
        raise DataError(f"dataset is empty: {paths[key]}")
    return dataset


def cmd_train(config: dict, paths: dict) -> dict:
    from .models import RandomBaseline, baseline_majority, save_model
    model_name = config["model"]
    if model_name != "unigram" and paths["embeddings"]:
        raise DataError("--embeddings applies only to the unigram model")
    dataset = _read_dataset(paths, "train_data")
    result = {"model": model_name, "n_train": len(dataset)}
    if model_name == "baseline-majority":
        model = baseline_majority([user.label for user in dataset])
        result["majority"] = model.majority.value
    elif model_name == "baseline-random":
        model = RandomBaseline(stage_seed(config["seed"], "baseline"))
    else:
        model = _fit(config, paths, dataset, result)
    return {"model.json": partial(save_model, model),
            "train_result.json": result}


def _fit(config: dict, paths: dict, dataset, result: dict):
    """The unigram or name model trained on dataset, with its counts added
    to result; a parameter that training left non-finite is a data error."""
    import numpy as np
    from .models.training import (TrainConfig, effective_weight_histogram,
                                  example_weights, inverse_class_weights,
                                  label_indices)
    model_name = config["model"]
    pairs = _model_inputs(paths, config, dataset, model_name, "training")
    labels = [user.label for user, _ in pairs]
    if len(set(labels)) < 2:
        raise DataError("training set has a single class")
    class_weights = inverse_class_weights(labels)
    sample_weights = example_weights(labels, [user.source for user, _ in pairs],
                                     class_weights,
                                     config["instance_downweight"])
    y_idx = label_indices(labels)
    train_config = TrainConfig(
        learning_rate=config["learning_rate"],
        epochs=config["epochs"],
        l2_strength=config["l2_strength"],
        seed=stage_seed(config["seed"], "train"),
        batch_size=config["batch_size"],
    )
    if model_name == "namecnn":
        from .models.namecnn import train_name_cnn
        metas = np.vstack([meta for _, (_, meta) in pairs])
        model = train_name_cnn([name for _, (name, _) in pairs], metas,
                               y_idx, sample_weights, train_config,
                               config["min_char_count"])
        result["char_vocab_size"] = len(model.char_vocab)
    elif paths["embeddings"]:
        from .models.unigram import train_unigram
        rows = [row for _, row in pairs]
        result["n_features"] = len(rows[0])
        model = train_unigram(rows, y_idx, sample_weights, train_config, {})
    else:
        from .models.features import build_vocab, featurize_user
        from .models.unigram import train_unigram
        word_counts = [counts for _, counts in pairs]
        vocab = build_vocab(word_counts, min_count=config["min_count"],
                            stopwords=resources.load_stopwords())
        if not vocab:
            raise DataError("empty vocabulary; not enough tweet text")
        rows = [featurize_user(counts, vocab) for counts in word_counts]
        result["vocab_size"] = len(vocab)
        model = train_unigram(rows, y_idx, sample_weights, train_config, vocab)
    params = (model.params if model_name == "namecnn"
              else {"weights": model.weights, "bias": model.bias})
    for name, array in params.items():
        if not np.isfinite(array).all():
            raise DataError(f"training left model parameter {name!r} "
                            f"non-finite; lower learning_rate or l2_strength")
    result["n_usable"] = len(pairs)
    result["class_weights"] = class_weights.tolist()
    result["effective_weight_histogram"] = effective_weight_histogram(
        sample_weights)
    return model


def cmd_evaluate(config: dict, paths: dict) -> dict:
    from .evaluation import evaluate, format_report_table
    from .models import load_model
    model_path = _require(paths, "model_file")
    try:
        model = load_model(model_path)
    except KeyError as exc:
        raise DataError(f"bad model file: missing field {exc}") from exc
    except (ValueError, TypeError, AttributeError, RecursionError) as exc:
        # TypeError and AttributeError: a field of the wrong JSON type;
        # RecursionError: nesting past the JSON decoder's recursion limit
        raise DataError(f"bad model file: {exc}") from exc
    kind = type(model).__name__
    if kind != "UnigramModel" and paths["embeddings"]:
        raise DataError("--embeddings applies only to the unigram model")
    dataset = _read_dataset(paths, "test_data")

    # a unigram model has a vocab exactly when it was trained on word counts;
    # a mismatch with --embeddings is reported before the corpus is read
    if kind == "UnigramModel":
        if model.vocab and paths["embeddings"]:
            raise DataError("model was trained on word counts; "
                            "drop --embeddings")
        if not model.vocab and not paths["embeddings"]:
            raise DataError("model was trained on embedding features; "
                            "pass --embeddings")
    if kind in ("RandomBaseline", "MajorityBaseline"):
        test_set = [(None, user.label) for user in dataset]
    else:
        model_name = "namecnn" if kind == "NameModel" else "unigram"
        test_set = [(inputs, user.label) for user, inputs in _model_inputs(
            paths, config, dataset, model_name, "test",
            getattr(model, "vocab", None))]

    try:
        report = evaluate(model, test_set, setting=config["setting"],
                          seed=stage_seed(config["seed"], "evaluate"))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    return {"eval_result.json": report.to_dict(),
            "eval_report.txt": format_report_table(kind, report) + "\n"}


def _pair_table(labels, stat) -> dict:
    """stat(a, b) of every pair of classes, keyed "a|b" in class order; None
    where stat raises ValueError (an empty or all-tied sample, an empty or
    all-tied keyword list)."""
    table = {}
    for a, b in itertools.combinations(labels, 2):
        try:
            table[f"{a.value}|{b.value}"] = stat(a, b)
        except ValueError:
            table[f"{a.value}|{b.value}"] = None
    return table


def cmd_analyze(config: dict, paths: dict) -> dict:
    from . import analytics
    dataset = _read_dataset(paths, "data")
    # each user's summary is made as the corpus streams, with one chunk
    # table for the whole pass: each distinct chunk is scanned once for the
    # lexical means and the keyword counts
    max_tweets = config["max_tweets"]
    chunks = analytics.lexical_chunks(resources.load_stopwords())
    pairs = _corpus_pairs(paths, dataset, lambda line: analytics.user_summary(
        line, max_tweets, chunks))
    groups: dict = {}
    for user, summary in pairs:
        groups.setdefault(user.label, []).append(summary)
    present = [label for label in CLASS_ORDER if label in groups]
    samples: dict = {}
    counts: dict = {}
    for label in present:
        samples[label], counts[label] = analytics.group_lexical_pass(
            groups[label])

    def mann_whitney(metric, a, b) -> dict:
        u, p = analytics.mann_whitney_u([stats[metric] for stats in samples[a]],
                                        [stats[metric] for stats in samples[b]])
        return {"U": u, "p": p}

    # each lambda runs inside _pair_table, before the loop variable moves on
    mwu = {metric: _pair_table(present,
                               lambda a, b: mann_whitney(metric, a, b))
           for metric in ("ttr", "ld", "cpt", "hpt")}

    behavior = analytics.behavioral_profile(groups)
    background: Counter = Counter()
    for counter in counts.values():
        background.update(counter)
    tau_ks = config["tau_ks"]
    top_n = config["top_n"]
    list_len = max([top_n] + tau_ks)
    keywords = {label: analytics.distinctive_keywords(
                    counts[label], background, lam=config["sage_lambda"],
                    top_n=list_len)
                for label in present}
    tau = {f"k={k}": _pair_table(
               present, lambda a, b: analytics.kendall_tau_top_k(
                   keywords[a][:k], keywords[b][:k], k))
           for k in tau_ks}

    return {"analyze_result.json": {
        "groups": {label.value: len(groups[label]) for label in present},
        "lexical": {label.value: analytics.lexical_table(samples[label])
                    for label in present},
        "mann_whitney": mwu,
        "behavior": {label.value: behavior[label] for label in present},
        "distinctive_keywords": {label.value: keywords[label][:top_n]
                                 for label in present},
        "kendall_tau": tau,
    }}


def _staging_dir(out: Path) -> Path:
    """A new directory beside out, made by mkdir and so with the mode a
    plain mkdir gives. Its name, .identminer.PID.N.tmp, is short whatever
    out is called; N is the first number whose name is free, so a leftover
    of an earlier run is passed over and left as it is."""
    for attempt in itertools.count():
        staging = out.parent / f".identminer.{os.getpid()}.{attempt}.tmp"
        try:
            staging.mkdir(parents=True)
            return staging
        except FileExistsError:
            pass


def _write_files(out: Path, files: dict, header: dict) -> None:
    """Write files (name -> the result JSON as a dict, text, or its format's
    writer, called with the path) into a new directory beside out
    (_staging_dir), then rename that onto out: a run leaves all of its files
    or none."""
    staging = _staging_dir(out)
    try:
        for name, content in files.items():
            path = staging / name
            if isinstance(content, dict):
                write_json(path, {**content, **header})
            elif isinstance(content, str):
                path.write_text(content, encoding="utf-8")
            else:
                content(path)
        os.replace(staging, out)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, paths = _resolve(args)
        # renaming onto the working directory would strand the caller's
        # shell in a deleted directory
        out = Path(paths["out"]).resolve()
        if out == Path.cwd() or out.exists() and not (
                out.is_dir() and not any(out.iterdir())):
            raise DataError(f"--out must be a new or empty directory other "
                            f"than the current one: {paths['out']}")
        _write_files(out, args.func(config, paths), {
            "command": args.command, "config": config,
            "config_sha256": config_hash(config), "seed": config["seed"]})
        return 0
    except DataError as exc:
        print(f"identminer: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"identminer: i/o error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry (python -m identminer.cli, the identminer script):
    main, then the atexit callbacks, a flush of stdout and stderr, and an
    immediate exit with main's code, which skips the interpreter's teardown
    of the loaded modules (numpy's among them). main has renamed its files
    into place by then. A SystemExit (a usage error, --help) or any other
    exception out of main leaves by the normal path."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the descriptor was closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
