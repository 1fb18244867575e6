"""Multinomial logistic regression over sparse unigram counts, trained with
weighted cross-entropy, L2 regularization, and mini-batch gradient descent."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from ..filters import CLASS_ORDER, ClassLabel
from .features import EMBEDDING_DIM
from .training import (N_CLASSES, TrainConfig, argmax_labels, decode_array,
                       encode_array, example_weights, inverse_class_weights,
                       label_indices, one_hot, softmax)


@dataclass
class UnigramModel:
    vocab: dict[str, int]
    weights: np.ndarray  # (4, |vocab|)
    bias: np.ndarray  # (4,)
    stopwords: frozenset[str] = frozenset()

    def _logits(self, X) -> np.ndarray:
        if sparse.issparse(X):
            return np.asarray(X @ self.weights.T) + self.bias
        return np.atleast_2d(X) @ self.weights.T + self.bias

    def predict_proba_matrix(self, X) -> np.ndarray:
        return softmax(self._logits(X))

    def predict_proba(self, features) -> np.ndarray:
        return self.predict_proba_matrix(features)[0]

    def predict(self, features) -> tuple[ClassLabel, np.ndarray]:
        probs = self.predict_proba(features)
        return CLASS_ORDER[int(np.argmax(probs))], probs

    def predict_batch(self, features: Sequence) -> list[ClassLabel]:
        """Labels of many feature rows (sparse count rows or dense embedding
        vectors) from one matrix product."""
        rows = (sparse.vstack(features, format="csr")
                if sparse.issparse(features[0]) else np.vstack(features))
        return argmax_labels(self.predict_proba_matrix(rows))

    FORMAT_VERSION = 2

    def to_dict(self) -> dict:
        return {
            "kind": "unigram",
            "version": self.FORMAT_VERSION,
            "vocab": self.vocab,
            "weights": encode_array(self.weights),
            "bias": encode_array(self.bias),
            "stopwords": sorted(self.stopwords),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "UnigramModel":
        """The model of a to_dict payload. Weights that are not (4, |vocab|),
        or (4, EMBEDDING_DIM) with an empty vocab, a bias that is not (4,) or
        vocab indices other than 0 .. |vocab| - 1 is a ValueError."""
        vocab = payload["vocab"]
        weights = decode_array(payload["weights"])
        bias = decode_array(payload["bias"])
        widths = (len(vocab),) if vocab else (0, EMBEDDING_DIM)
        if weights.shape not in [(N_CLASSES, width) for width in widths] or \
                bias.shape != (N_CLASSES,):
            raise ValueError(
                f"weights {list(weights.shape)} and bias {list(bias.shape)} do "
                f"not fit a vocab of {len(vocab)}: expected [{N_CLASSES}, "
                f"{' or '.join(map(str, widths))}] and [{N_CLASSES}]")
        indices = list(vocab.values())
        if not all(type(i) is int for i in indices) or \
                sorted(indices) != list(range(len(indices))):
            raise ValueError(f"vocab indices must be 0 to {len(indices) - 1}, "
                             f"each once")
        return cls(vocab=vocab, weights=weights, bias=bias,
                   stopwords=frozenset(payload.get("stopwords", ())))


def weighted_ce_loss(weights: np.ndarray, bias: np.ndarray, X, y_idx: np.ndarray,
                     sample_weights: np.ndarray, l2: float) -> float:
    """Weighted-mean cross-entropy plus 0.5 * l2 * ||W||^2 (bias unpenalized)."""
    logits = np.asarray(X @ weights.T) + bias
    probs = softmax(logits)
    picked = np.clip(probs[np.arange(len(y_idx)), y_idx], 1e-300, None)
    ce = -(sample_weights * np.log(picked)).sum() / sample_weights.sum()
    return float(ce + 0.5 * l2 * float((weights ** 2).sum()))


def train_unigram(train, config: TrainConfig,
                  vocab: dict[str, int] | None = None,
                  stopwords: frozenset[str] = frozenset()) -> UnigramModel:
    """train: sequence of (features, label, source) with features one row of
    counts each (sparse 1 x V or dense). Weights start at zero; the objective
    is convex so the seed only orders mini-batches."""
    if not train:
        raise ValueError("empty training set")
    feats = [item[0] for item in train]
    labels = [item[1] for item in train]
    sources = [item[2] for item in train]
    if len(set(labels)) < 2:
        raise ValueError("training set has a single class")
    if sparse.issparse(feats[0]):
        X = sparse.vstack(feats, format="csr")
    else:
        X = np.vstack([np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in feats])
    y_idx = label_indices(labels)
    n, n_features = X.shape

    sample_weights = example_weights(labels, sources,
                                     inverse_class_weights(labels),
                                     config.instance_downweight)

    W = np.zeros((N_CLASSES, n_features), dtype=np.float64)
    b = np.zeros(N_CLASSES, dtype=np.float64)
    Y = one_hot(y_idx)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            Xb = X[batch]
            # sparse and dense rows take the same products
            probs = softmax(np.asarray(Xb @ W.T) + b)
            wb = sample_weights[batch]
            delta = (probs - Y[batch]) * wb[:, None] / wb.sum()
            grad_W = np.asarray(Xb.T @ delta).T + config.l2_strength * W
            grad_b = delta.sum(axis=0)
            W -= config.learning_rate * grad_W
            b -= config.learning_rate * grad_b
    return UnigramModel(vocab=vocab or {}, weights=W, bias=b, stopwords=stopwords)
