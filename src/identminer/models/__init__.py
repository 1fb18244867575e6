"""Classifiers: unigram bag-of-words logistic regression over recent tweets,
a character-CNN over display names plus profile metadata, and the random /
majority baselines. All training is deterministic given (data order, seed,
config).

Only the baselines load with this package. The numpy submodules (features,
namecnn, training, unigram) are imported from their own module paths where
they are used, and load_model imports the one a saved kind needs: each
subcommand imports only the modules it runs, so the baselines never import
numpy, and the CLI imports this package only in train and evaluate. No
model needs more than numpy, to train or to predict.

save_model writes a model as one JSON object (sorted keys, one line). The
unigram and name models are at format version 2: each array is stored as
{"shape": [...], "data": base64} holding its exact float64 bytes
(training.encode_array). load_model reads only the version each kind writes,
so a model file from an older format has to be retrained."""
from __future__ import annotations

import importlib
import json

from .baselines import MajorityBaseline, RandomBaseline, baseline_majority, baseline_random

__all__ = [
    "MajorityBaseline", "RandomBaseline", "baseline_majority", "baseline_random",
    "save_model", "load_model",
]


def _from_submodule(module: str, name: str):
    return getattr(importlib.import_module(f".{module}", __name__), name)


# saved "kind" -> (submodule, class)
_MODEL_KINDS = {
    "unigram": ("unigram", "UnigramModel"),
    "namecnn": ("namecnn", "NameModel"),
    "baseline_random": ("baselines", "RandomBaseline"),
    "baseline_majority": ("baselines", "MajorityBaseline"),
}


def save_model(model, path) -> None:
    if not hasattr(model, "to_dict"):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    # json.dumps runs the C encoder; json.dump never does
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(model.to_dict(), sort_keys=True) + "\n")


def load_model(path):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    kind = payload.get("kind")
    if kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls = _from_submodule(*_MODEL_KINDS[kind])
    version = payload.get("version")
    if type(version) is not int or version != cls.FORMAT_VERSION:
        raise ValueError(f"{kind} model file has format version {version!r}, "
                         f"but only version {cls.FORMAT_VERSION} is read; "
                         f"retrain the model")
    return cls.from_dict(payload)
