"""Multinomial logistic regression over unigram count rows (or dense
embedding rows), trained with weighted cross-entropy, L2 regularization, and
mini-batch gradient descent.

Count rows (features.featurize_user) are stacked once into a CSR triple
(indptr, indices, data); a mini-batch is a take_rows of it. Its products are
np.bincount sums in CSR order: every output entry adds the same float64
products, in the same order and from 0.0, as the CSR (X @ M) and CSC
(X.T @ M) matrix-vector loops of sparse libraries such as scipy's, so a
trained model has the bytes those loops would give it."""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..labels import CLASS_ORDER, ClassLabel
from .features import EMBEDDING_DIM
from .training import (N_CLASSES, TrainConfig, argmax_labels, decode_array,
                       encode_array, minibatches, one_hot, softmax,
                       weighted_cross_entropy)


def stack_rows(rows: Sequence) -> tuple | np.ndarray:
    """One matrix of feature rows: the CSR triple (indptr, indices, data) of
    count rows, or the (n, d) stack of dense rows."""
    if not isinstance(rows[0], tuple):
        return np.vstack([np.atleast_2d(np.asarray(row, dtype=np.float64))
                          for row in rows])
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(cols) for cols, _ in rows], out=indptr[1:])
    return (indptr, np.concatenate([cols for cols, _ in rows]),
            np.concatenate([counts for _, counts in rows]))


def take_rows(X, rows: np.ndarray):
    """The given rows of a CSR triple or dense matrix, in the order given."""
    if not isinstance(X, tuple):
        return X[rows]
    indptr, indices, data = X
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    taken = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=taken[1:])
    # each kept entry's position in X: its row's start plus its offset there
    at = np.repeat(starts - taken[:-1], lengths) + np.arange(taken[-1])
    return taken, indices[at], data[at]


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _columns(sums: list[np.ndarray]) -> np.ndarray:
    # np.bincount of no entries gives integer zeros, whatever the weights
    return np.stack(sums, axis=1).astype(np.float64, copy=False)


def matmul(X, M: np.ndarray) -> np.ndarray:
    """X @ M, (n, k), for a CSR triple or dense (n, V) X and a dense (V, k)
    M."""
    if not isinstance(X, tuple):
        return X @ M
    indptr, indices, data = X
    rows, n = _row_ids(indptr), len(indptr) - 1
    return _columns([np.bincount(rows, weights=data * column[indices],
                                 minlength=n) for column in M.T])


def matmul_t(X, M: np.ndarray, width: int) -> np.ndarray:
    """X.T @ M, (width, k), for a CSR triple or dense (n, width) X and a
    dense (n, k) M."""
    if not isinstance(X, tuple):
        return X.T @ M
    indptr, indices, data = X
    rows = _row_ids(indptr)
    return _columns([np.bincount(indices, weights=data * column[rows],
                                 minlength=width) for column in M.T])


class UnigramModel(NamedTuple):
    vocab: dict[str, int]
    weights: np.ndarray  # (4, |vocab|)
    bias: np.ndarray  # (4,)

    def predict_proba_matrix(self, X) -> np.ndarray:
        """Class probabilities of each row of a stack_rows matrix."""
        return softmax(matmul(X, self.weights.T) + self.bias)

    def predict(self, features) -> tuple[ClassLabel, np.ndarray]:
        probs = self.predict_proba_matrix(stack_rows([features]))[0]
        return CLASS_ORDER[int(np.argmax(probs))], probs

    def predict_batch(self, features: Sequence) -> list[ClassLabel]:
        """Labels of many feature rows (count rows or dense embedding
        vectors) from one matrix product."""
        return argmax_labels(self.predict_proba_matrix(stack_rows(features)))

    FORMAT_VERSION = 2

    def to_dict(self) -> dict:
        return {
            "kind": "unigram",
            "version": self.FORMAT_VERSION,
            "vocab": self.vocab,
            "weights": encode_array(self.weights),
            "bias": encode_array(self.bias),
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
        return cls(vocab=vocab, weights=weights, bias=bias)


def weighted_ce_loss(weights: np.ndarray, bias: np.ndarray, X, y_idx: np.ndarray,
                     sample_weights: np.ndarray, l2: float) -> float:
    """Weighted-mean cross-entropy plus 0.5 * l2 * ||W||^2 (bias unpenalized)
    of a stack_rows matrix X."""
    probs = softmax(matmul(X, weights.T) + bias)
    ce = weighted_cross_entropy(probs, y_idx, sample_weights)
    return float(ce + 0.5 * l2 * float((weights ** 2).sum()))


def train_unigram(rows: Sequence, y_idx: np.ndarray,
                  sample_weights: np.ndarray, config: TrainConfig,
                  vocab: dict[str, int]) -> UnigramModel:
    """Weighted mini-batch gradient descent over rows, each a count row over
    vocab or a dense row (vocab empty); y_idx holds their class indices
    (training.label_indices) and sample_weights their example weights
    (training.example_weights). Weights start at zero; the objective is
    convex so the seed only orders mini-batches."""
    X = stack_rows(rows)
    n_features = len(vocab) if isinstance(X, tuple) else X.shape[1]
    W = np.zeros((N_CLASSES, n_features), dtype=np.float64)
    b = np.zeros(N_CLASSES, dtype=np.float64)
    Y = one_hot(y_idx)
    for batch in minibatches(len(y_idx), config):
        Xb = take_rows(X, batch)
        probs = softmax(matmul(Xb, W.T) + b)
        wb = sample_weights[batch]
        delta = (probs - Y[batch]) * wb[:, None] / wb.sum()
        grad_W = matmul_t(Xb, delta, n_features).T + config.l2_strength * W
        grad_b = delta.sum(axis=0)
        W -= config.learning_rate * grad_W
        b -= config.learning_rate * grad_b
    return UnigramModel(vocab=vocab, weights=W, bias=b)
