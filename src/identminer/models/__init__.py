"""Classifiers: unigram bag-of-words logistic regression over recent tweets,
a character-CNN over display names plus profile metadata, and the random /
majority baselines. All training is deterministic given (data order, seed,
config)."""
from __future__ import annotations

import json

import numpy as np

from .baselines import MajorityBaseline, RandomBaseline, baseline_majority, baseline_random
from .features import (build_vocab, featurize_user, name_meta_features,
                       read_embeddings, user_word_counts)
from .namecnn import NameModel, gradient_check, train_name_cnn
from .training import (TrainConfig, effective_weight_histogram, example_weights,
                       inverse_class_weights)
from .unigram import UnigramModel, train_unigram

__all__ = [
    "MajorityBaseline", "RandomBaseline", "baseline_majority", "baseline_random",
    "build_vocab", "featurize_user", "user_word_counts", "name_meta_features",
    "read_embeddings", "NameModel", "gradient_check", "train_name_cnn",
    "TrainConfig", "effective_weight_histogram", "example_weights",
    "inverse_class_weights", "UnigramModel", "train_unigram",
    "save_model", "load_model",
]


_MODEL_KINDS = {
    "unigram": UnigramModel,
    "namecnn": NameModel,
    "baseline_random": RandomBaseline,
    "baseline_majority": MajorityBaseline,
}


def save_model(model, path) -> None:
    if not any(isinstance(model, cls) for cls in _MODEL_KINDS.values()):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_dict(), handle, sort_keys=True)
        handle.write("\n")


def load_model(path):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    kind = payload.get("kind")
    if kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _MODEL_KINDS[kind].from_dict(payload)
