"""Command-line surface: lexicon-build, dataset-build, tune, train, evaluate,
analyze. Every subcommand resolves defaults < config file < flags, embeds a
hash of the semantic config in its outputs, and derives all randomness from
one root seed, so reruns with the same config and seed are byte-identical and
results never depend on --workers.

Exit codes: 0 success, 1 usage error, 2 data error. Logging level comes from
the IDENTMINER_LOG environment variable (error, info, debug).
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import os
import reprlib
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from . import analytics, resources
from .datasets import (build_cb, hf_users, merge_candidates, qb_users,
                       read_dataset_tsv, scan_descriptions, score_reports,
                       write_dataset_tsv)
from .evaluation import SETTINGS, evaluate, format_report_table
from .filters import CLASS_ORDER, FILTER_ALIASES, FILTER_NAMES, enabled_filters
from .ingest import ParseFailure, UserRecord, dedupe_latest, load_users
# the numpy model modules are imported only in the train and evaluate
# branches that use them
from .models import baseline_majority, baseline_random, load_model, save_model
from .scorer import (WEIGHTINGS, ScoreParams, read_tuning_tsv, score_grid,
                     tune_params)
from .textprep import (SelfReportCounter, SelfReportLexicon,
                       build_selfreport_lexicon)
from .util import DataError, config_hash, stage_seed, write_json

logger = logging.getLogger("identminer")

DATASET_KINDS = ("qb", "hf", "cb")
MODEL_NAMES = ("unigram", "namecnn", "baseline-random", "baseline-majority")

# semantic configuration: part of the config hash; execution details
# (paths, --out, --workers) deliberately are not
DEFAULTS = {
    "window": 5,
    "threshold": 0.35,
    "weighting": "simple",
    "filters": ["color", "plural", "bigram", "quote"],
    "allow_im": False,
    "min_count": 2,
    "max_tweets": 200,
    "learning_rate": 0.1,
    "epochs": 20,
    "l2_strength": 1e-4,
    "instance_downweight": 1.0,
    "batch_size": 64,
    "min_char_count": 5,
    "setting": "imbalanced",
    "seed": 0,
    "kind": None,
    "model": "unigram",
    "cb_k": None,
    "sage_lambda": 1.0,
    "top_n": 20,
    "tau_ks": [20, 50],
    # the tuning grid: every weighting x window x threshold
    "grid_windows": list(range(1, 11)),
    "grid_thresholds": [round(0.05 * i, 2) for i in range(1, 20)],
    "grid_weightings": list(WEIGHTINGS),
}

_PATH_KEYS = ("corpus", "out", "lexicon", "tag_lexicon", "tuning", "train_data",
              "test_data", "model_file", "embeddings", "data",
              "colors_file", "blocklist_file")


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


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_filter(value) -> bool:
    # enabled_filters strips each name and skips blank ones
    return _is_str(value) and value.strip() in ("", *FILTER_NAMES,
                                                *FILTER_ALIASES)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


def _non_empty_list_of(check):
    return lambda value: _list_of(check)(value) and len(value) > 0


def _in(names):
    return lambda value: value in names


def _names(names) -> str:
    return ", ".join(map(repr, names))


# the one statement of what every DEFAULTS and path key may hold:
# (what it must be, check, keys); _resolve applies it before any input is read
CONFIG_RULES = (
    ("an integer", _is_int, ("min_count", "min_char_count", "seed")),
    ("an integer >= 1", _is_count, ("window", "epochs", "batch_size",
                                    "max_tweets", "top_n")),
    ("an integer >= 1 or null", lambda v: v is None or _is_count(v), ("cb_k",)),
    ("a number in [0, 1]", _is_fraction, ("threshold",)),
    ("a number in (0, 1]", lambda v: _is_number(v) and 0 < v <= 1,
     ("instance_downweight",)),
    ("a finite number > 0", lambda v: _is_number(v) and v > 0,
     ("learning_rate",)),
    ("a finite number >= 0", lambda v: _is_number(v) and v >= 0,
     ("l2_strength", "sage_lambda")),
    ("true or false", lambda v: isinstance(v, bool), ("allow_im",)),
    (f"one of {_names(WEIGHTINGS)}", _in(WEIGHTINGS), ("weighting",)),
    (f"one of {_names(SETTINGS)}", _in(SETTINGS), ("setting",)),
    (f"one of {_names(MODEL_NAMES)}", _in(MODEL_NAMES), ("model",)),
    (f"one of {_names(DATASET_KINDS)} or null", _in((*DATASET_KINDS, None)),
     ("kind",)),
    ("a string or null", lambda v: v is None or _is_str(v), _PATH_KEYS),
    ("a list of integers >= 1", _list_of(_is_count), ("tau_ks",)),
    # an empty tuning grid has no point to choose
    ("a non-empty list of integers >= 1", _non_empty_list_of(_is_count),
     ("grid_windows",)),
    ("a non-empty list of numbers in [0, 1]",
     _non_empty_list_of(_is_fraction), ("grid_thresholds",)),
    (f"a non-empty list of names from {_names(WEIGHTINGS)}",
     _non_empty_list_of(_in(WEIGHTINGS)), ("grid_weightings",)),
    (f"a list of names from {_names((*FILTER_NAMES, *FILTER_ALIASES))}",
     _list_of(_is_filter), ("filters",)),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented usage exit code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    level_name = os.environ.get("IDENTMINER_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="identminer",
                     description="self-report mining and group modeling pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--corpus", help="JSON-lines corpus path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="root random seed")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; every run is serial "
                            "and results are invariant")
        p.add_argument("--tag-lexicon", dest="tag_lexicon",
                       help="word<TAB>tag TSV overriding the bundled tagger")
        p.add_argument("--lexicon", help="self-report lexicon TSV")

    p = sub.add_parser("lexicon-build", help="induce the self-report lexicon")
    common(p)
    p.set_defaults(func=cmd_lexicon_build)

    p = sub.add_parser("dataset-build", help="build the qb, hf, or cb dataset")
    common(p)
    p.add_argument("--kind", choices=DATASET_KINDS, help="dataset kind")
    p.add_argument("--filters",
                   help="comma list from color,plural,bigram,quote (empty for none)")
    p.add_argument("--window", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--weighting", choices=WEIGHTINGS)
    p.set_defaults(func=cmd_dataset_build)

    p = sub.add_parser("tune", help="grid-search score hyperparameters")
    common(p)
    p.add_argument("--tuning", help="user_id<TAB>label<TAB>annotator TSV")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", help="train a classifier")
    common(p)
    p.add_argument("--model", choices=MODEL_NAMES)
    p.add_argument("--train-data", dest="train_data", help="dataset TSV")
    p.add_argument("--embeddings", help="user_id<TAB>floats TSV feature override")
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on a test set")
    common(p)
    p.add_argument("--model-file", dest="model_file", help="saved model JSON")
    p.add_argument("--test-data", dest="test_data", help="dataset TSV")
    p.add_argument("--setting", choices=SETTINGS)
    p.add_argument("--embeddings", help="user_id<TAB>floats TSV feature override")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="group-level lexical and behavioral statistics")
    common(p)
    p.add_argument("--data", help="labeled dataset TSV defining the groups")
    p.set_defaults(func=cmd_analyze)
    return parser


def _resolve(args: argparse.Namespace) -> tuple[dict, dict]:
    """defaults < config file < flags; returns (semantic config, paths)."""
    config = dict(DEFAULTS)
    paths: dict[str, str | None] = {key: None for key in _PATH_KEYS}
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
        for key, value in loaded.items():
            if key in _PATH_KEYS:
                paths[key] = value
            elif key in DEFAULTS:
                config[key] = value
            else:
                raise DataError(f"unknown config key {key!r}")
    for key in _PATH_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            paths[key] = value
    for key in ("seed", "kind", "model", "setting", "window", "threshold",
                "weighting", "epochs"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    filters_flag = getattr(args, "filters", None)
    if filters_flag is not None:
        config["filters"] = [name for name in filters_flag.split(",")
                             if name.strip()]
    values = {**paths, **config}
    for rule, check, keys in CONFIG_RULES:
        for key in keys:
            if not check(values[key]):
                raise DataError(f"config key {key!r} must be {rule}, "
                                f"got {reprlib.repr(values[key])}")
    return config, paths


def _require(paths: dict, key: str) -> str:
    value = paths.get(key)
    if not value:
        raise DataError(f"missing required input: --{key.replace('_', '-')}")
    if not Path(value).is_file():
        raise DataError(f"{key} file not found: {value}")
    return value


def _out_dir(paths: dict) -> Path:
    """Create --out; called only after every input has been read."""
    out = Path(paths["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


class Description(NamedTuple):
    """What the description stages read of a user: scan_descriptions and
    build_selfreport_lexicon take these in place of full records."""
    user_id: str
    description: str


def _description(record: UserRecord) -> Description:
    return Description(record.user_id, record.description)


def _load_corpus(path: str, keep) -> tuple[dict, int]:
    """keep(record) of each user's latest snapshot, by user id in corpus
    order, for the users whose keep is not None; plus the count of lines that
    failed to parse. The lines stream from the parser straight into
    dedupe_latest, so only the kept values outlive their line."""
    parsed = failures = 0

    def records(handle):
        nonlocal parsed, failures
        for result in load_users(handle):
            if isinstance(result, ParseFailure):
                failures += 1
                logger.debug("line %d skipped: %s", result.line_no, result.reason)
            else:
                parsed += 1
                yield result

    with open(path, "rb") as handle:
        latest = dedupe_latest(records(handle), keep)
    logger.info("corpus: %d lines, %d parsed, %d failures, %d unique users",
                parsed + failures, parsed, failures, len(latest))
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
    return _read_input(paths, key, load) if paths.get(key) else load()


def _tag_lexicon(paths: dict):
    return _resource(paths, "tag_lexicon", resources.load_tag_lexicon)


def _filter_resources(paths: dict):
    colors = _resource(paths, "colors_file", resources.load_colors)
    blocklist = _resource(paths, "blocklist_file",
                          resources.load_bigram_blocklist)
    return colors, blocklist


def _description_pass(paths: dict, config: dict, descriptions, tag_lexicon):
    """The one pass over the descriptions: (lexicon, unscored reports of the
    users matching exactly one class). The lexicon is read from --lexicon, or
    else counted from the same tagged tokens that the query matching uses."""
    if paths.get("lexicon"):
        lexicon = _read_input(paths, "lexicon", SelfReportLexicon.from_tsv)
        if not lexicon.os_counts:
            raise DataError(f"self-report lexicon is empty: {paths['lexicon']}")
        return lexicon, scan_descriptions(descriptions, tag_lexicon)
    counter = SelfReportCounter(tag_lexicon, allow_im=config["allow_im"])
    reports = scan_descriptions(descriptions, tag_lexicon, counter)
    lexicon = counter.lexicon()
    if not lexicon.os_counts:
        raise DataError("self-report lexicon is empty; corpus has no "
                        "first-person statements (or pass --lexicon)")
    return lexicon, reports


def _result_base(config: dict, command: str) -> dict:
    return {"command": command, "config": config,
            "config_sha256": config_hash(config), "seed": config["seed"]}


def cmd_lexicon_build(args: argparse.Namespace) -> int:
    config, paths = _resolve(args)
    corpus_path = _require(paths, "corpus")
    tag_lexicon = _tag_lexicon(paths)
    descriptions, failures = _load_corpus(corpus_path, _description)
    lexicon = build_selfreport_lexicon(descriptions.values(), tag_lexicon,
                                       allow_im=config["allow_im"])
    out = _out_dir(paths)
    lexicon.to_tsv(out / "selfreport_lexicon.tsv")
    summary = _result_base(config, "lexicon-build")
    summary.update({
        "n_users": len(descriptions),
        "n_parse_failures": failures,
        "n_words": len(lexicon.os_counts),
        "total_selfreport": lexicon.total_selfreport,
    })
    write_json(out / "lexicon_summary.json", summary)
    return 0


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


def cmd_dataset_build(args: argparse.Namespace) -> int:
    config, paths = _resolve(args)
    kind = config["kind"]
    if kind is None:
        raise DataError(f"dataset-build needs --kind {'|'.join(DATASET_KINDS)}")
    corpus_path = _require(paths, "corpus")
    tag_lexicon = _tag_lexicon(paths)
    colors, blocklist = _filter_resources(paths)
    filters = enabled_filters(config["filters"])
    params = ScoreParams(config["window"], config["threshold"],
                         config["weighting"])
    descriptions, _ = _load_corpus(corpus_path, _description)
    lexicon, reports = _description_pass(paths, config, descriptions.values(),
                                         tag_lexicon)
    # qb reads no filter verdicts
    score_reports(reports, lexicon, params,
                  None if kind == "qb" else filters, colors, blocklist)

    stats = _result_base(config, "dataset-build")
    stats["kind"] = kind
    stats["n_users"] = len(descriptions)

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
    out = _out_dir(paths)
    write_dataset_tsv(users, out / f"dataset_{kind}.tsv")
    write_json(out / f"dataset_{kind}_stats.json", stats)
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    config, paths = _resolve(args)
    corpus_path = _require(paths, "corpus")
    rows = _read_input(paths, "tuning", read_tuning_tsv)
    tag_lexicon = _tag_lexicon(paths)
    descriptions, _ = _load_corpus(corpus_path, _description)
    lexicon, reports = _description_pass(paths, config, descriptions.values(),
                                         tag_lexicon)

    votes: dict[str, list[str]] = {}
    for user_id, label, _annotator in rows:
        votes.setdefault(user_id, []).append(label)
    labels: dict[str, bool] = {}
    for user_id, cast in votes.items():
        verdict = analytics.majority_vote(cast)
        if verdict is analytics.DISCARD:
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

    result = _result_base(config, "tune")
    result.update({
        "window": best.window,
        "threshold": best.threshold,
        "weighting": best.weighting,
        "precision": precision,
        "recall": recall,
        "n_examples": len(tuning_set),
        "n_discarded": len(votes) - len(labels),
    })
    write_json(_out_dir(paths) / "tune_result.json", result)
    return 0


def _corpus_pairs(paths: dict, dataset, project) -> list:
    """(dataset user, project(latest snapshot)) for each dataset user in the
    corpus. project is called for dataset users only, and what it returns
    is all that is kept of the corpus."""
    ids = {user.user_id for user in dataset}
    kept, _ = _load_corpus(_require(paths, "corpus"), lambda record: (
        project(record) if record.user_id in ids else None))
    pairs = [(user, kept[user.user_id]) for user in dataset
             if user.user_id in kept]
    if not pairs:
        raise DataError("no dataset user ids found in the corpus")
    return pairs


def _present(record: UserRecord) -> bool:
    """The projection of a stage that needs only to know the user is in
    the corpus."""
    return True


def _embedding_pairs(paths: dict, pairs: list, role: str) -> list:
    """(dataset user, --embeddings row) for each pair whose user id has a
    row in the embeddings table."""
    from .models.features import read_embeddings
    table = _read_input(paths, "embeddings", read_embeddings)
    kept = [(user, table[user.user_id]) for user, _ in pairs
            if user.user_id in table]
    if not kept:
        raise DataError(f"no embeddings match the {role} user ids")
    return kept


def _read_dataset(paths: dict, key: str):
    dataset = _read_input(paths, key, read_dataset_tsv)
    if not dataset:
        raise DataError(f"dataset is empty: {paths[key]}")
    return dataset


def _write_model(paths: dict, model, result: dict) -> int:
    out = _out_dir(paths)
    save_model(model, out / "model.json")
    write_json(out / "train_result.json", result)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config, paths = _resolve(args)
    model_name = config["model"]
    if model_name != "unigram" and paths.get("embeddings"):
        raise DataError("--embeddings applies only to the unigram model")
    dataset = _read_dataset(paths, "train_data")

    result = _result_base(config, "train")
    result["model"] = model_name
    result["n_train"] = len(dataset)

    if model_name == "baseline-majority":
        model = baseline_majority([user.label for user in dataset])
        result["majority"] = model.majority.value
        return _write_model(paths, model, result)
    if model_name == "baseline-random":
        model = baseline_random(stage_seed(config["seed"], "baseline"))
        return _write_model(paths, model, result)

    from .models.training import (TrainConfig, effective_weight_histogram,
                                  example_weights, inverse_class_weights,
                                  label_indices)
    # what each model reads of a dataset user's latest snapshot: the name
    # and profile vector, nothing (--embeddings), or the tweet word counts
    if model_name == "namecnn":
        import numpy as np
        from .models.namecnn import name_input, train_name_cnn
        pairs = _corpus_pairs(paths, dataset, name_input)
    elif paths.get("embeddings"):
        from .models.unigram import train_unigram
        pairs = _embedding_pairs(paths, _corpus_pairs(paths, dataset, _present),
                                 "training")  # (user, row)
    else:
        from .models.features import (build_vocab, featurize_user,
                                      user_word_counts)
        from .models.unigram import train_unigram
        pairs = _corpus_pairs(paths, dataset, functools.partial(
            user_word_counts, max_tweets=config["max_tweets"]))
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
        metas = np.vstack([meta for _, (_, meta) in pairs])
        model = train_name_cnn([name for _, (name, _) in pairs], metas,
                               y_idx, sample_weights, train_config,
                               config["min_char_count"])
        result["char_vocab_size"] = len(model.char_vocab)
    elif paths.get("embeddings"):
        rows = [row for _, row in pairs]
        result["n_features"] = len(rows[0])
        model = train_unigram(rows, y_idx, sample_weights, train_config, {})
    else:
        word_counts = [counts for _, counts in pairs]
        vocab = build_vocab(word_counts, min_count=config["min_count"],
                            stopwords=resources.load_stopwords())
        if not vocab:
            raise DataError("empty vocabulary; not enough tweet text")
        rows = [featurize_user(counts, vocab) for counts in word_counts]
        result["vocab_size"] = len(vocab)
        model = train_unigram(rows, y_idx, sample_weights, train_config, vocab)

    result["n_usable"] = len(pairs)
    result["class_weights"] = class_weights.tolist()
    result["effective_weight_histogram"] = effective_weight_histogram(
        sample_weights)
    return _write_model(paths, model, result)


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, paths = _resolve(args)
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
    if kind != "UnigramModel" and paths.get("embeddings"):
        raise DataError("--embeddings applies only to the unigram model")
    dataset = _read_dataset(paths, "test_data")

    # a unigram model has a vocab exactly when it was trained on word counts;
    # a mismatch with --embeddings is reported before the corpus is read
    if kind == "UnigramModel":
        if model.vocab and paths.get("embeddings"):
            raise DataError("model was trained on word counts; "
                            "drop --embeddings")
        if not model.vocab and not paths.get("embeddings"):
            raise DataError("model was trained on embedding features; "
                            "pass --embeddings")
    if kind in ("RandomBaseline", "MajorityBaseline"):
        test_set = [(None, user.label) for user in dataset]
    elif kind == "NameModel":
        from .models.namecnn import name_input
        test_set = [(inputs, user.label) for user, inputs in
                    _corpus_pairs(paths, dataset, name_input)]
    elif paths.get("embeddings"):
        test_set = [(row, user.label) for user, row in _embedding_pairs(
            paths, _corpus_pairs(paths, dataset, _present), "test")]
    else:
        from .models.features import featurize_user, user_word_counts
        max_tweets = config["max_tweets"]
        test_set = [(row, user.label) for user, row in _corpus_pairs(
            paths, dataset, lambda record: featurize_user(
                user_word_counts(record, max_tweets), model.vocab))]

    try:
        report = evaluate(model, test_set, setting=config["setting"],
                          seed=stage_seed(config["seed"], "evaluate"))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    result = _result_base(config, "evaluate")
    result.update(report.to_dict())
    out = _out_dir(paths)
    write_json(out / "eval_result.json", result)
    table = format_report_table([(kind, report)])
    (out / "eval_report.txt").write_text(table + "\n", encoding="utf-8")
    return 0


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


def cmd_analyze(args: argparse.Namespace) -> int:
    config, paths = _resolve(args)
    dataset = _read_dataset(paths, "data")
    # analyze reads whole records: names, profiles and every tweet field
    pairs = _corpus_pairs(paths, dataset, lambda record: record)
    groups: dict = {}
    for user, record in pairs:
        groups.setdefault(user.label, []).append(record)
    present = [label for label in CLASS_ORDER if label in groups]
    stopwords = resources.load_stopwords()
    max_tweets = config["max_tweets"]

    # one pass per group: each tweet is scanned once for the lexical
    # means and the keyword counts
    samples: dict = {}
    counts: dict = {}
    for label in present:
        samples[label], counts[label] = analytics.group_lexical_pass(
            groups[label], stopwords, max_tweets)

    def mann_whitney(metric, a, b) -> dict:
        u, p = analytics.mann_whitney_u([stats[metric] for stats in samples[a]],
                                        [stats[metric] for stats in samples[b]])
        return {"U": u, "p": p}

    # each lambda runs inside _pair_table, before the loop variable moves on
    mwu = {metric: _pair_table(present,
                               lambda a, b: mann_whitney(metric, a, b))
           for metric in ("ttr", "ld", "cpt", "hpt")}

    behavior = analytics.behavioral_profile(groups, max_tweets)
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

    result = _result_base(config, "analyze")
    result.update({
        "groups": {label.value: len(groups[label]) for label in present},
        "lexical": {label.value: analytics.lexical_table(samples[label])
                    for label in present},
        "mann_whitney": mwu,
        "behavior": {label.value: behavior[label] for label in present},
        "distinctive_keywords": {label.value: keywords[label][:top_n]
                                 for label in present},
        "kendall_tau": tau,
    })
    write_json(_out_dir(paths) / "analyze_result.json", result)
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"identminer: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"identminer: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
